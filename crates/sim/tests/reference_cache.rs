//! The L1D model against a reference cache written from its definition:
//! set-associative, LRU replacement, loads allocate, stores do not (a
//! store to a resident line refreshes its recency). The reference keeps
//! one recency list per set (most recent last) over the model's own
//! `set_index`, and knows nothing of ways, timestamps or MSHRs. On seeded
//! load/store streams over 20 geometries — the evaluation L1Ds, their L2
//! slices, and odd shapes with non-power-of-two line sizes and set
//! counts — `L1Cache` must give the same hit / miss / evicted sequence.
//! An MSHR merge is a hit in both: the line is resident, only its data
//! is late.

use catt_prng::Rng;
use catt_sim::cache::L1Cache;
use catt_sim::config::L1Config;
use catt_sim::GpuConfig;

/// The reference: `sets[s]` lists the lines resident in set `s`, least
/// recently used first.
struct Lru {
    sets: Vec<Vec<u32>>,
    ways: usize,
}

impl Lru {
    fn new(cfg: L1Config) -> Lru {
        Lru {
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            ways: cfg.assoc.max(1) as usize,
        }
    }

    /// A load of `line` in set `set`: `(hit, evicted)`.
    fn load(&mut self, set: usize, line: u32) -> (bool, bool) {
        let lines = &mut self.sets[set];
        if let Some(at) = lines.iter().position(|&l| l == line) {
            lines.remove(at);
            lines.push(line);
            return (true, false);
        }
        let evicted = lines.len() == self.ways;
        if evicted {
            lines.remove(0);
        }
        lines.push(line);
        (false, evicted)
    }

    /// A store of `line`: no allocation, but a resident line becomes the
    /// most recent.
    fn store(&mut self, set: usize, line: u32) {
        let lines = &mut self.sets[set];
        if let Some(at) = lines.iter().position(|&l| l == line) {
            lines.remove(at);
            lines.push(line);
        }
    }
}

fn geometries() -> Vec<(String, L1Config)> {
    let mut out = Vec::new();
    for (name, cfg) in [
        ("titan-v", GpuConfig::titan_v()),
        ("titan-v-1sm", GpuConfig::titan_v_1sm()),
        ("small", GpuConfig::small()),
    ] {
        out.push((format!("{name} L1D"), cfg.l1_config()));
        let slice = cfg.l2_slice_config().expect("the L2 is on");
        out.push((format!("{name} L2 slice"), slice));
    }
    let mut capped = GpuConfig::titan_v_1sm();
    capped.l1_cap_bytes = Some(32 * 1024);
    out.push(("32 KB L1D".to_string(), capped.l1_config()));
    // (bytes, line bytes, ways): one set, direct-mapped, fully
    // associative, and non-power-of-two line sizes and set counts.
    for (size_bytes, line_bytes, assoc) in [
        (256, 128, 2),
        (4096, 128, 4),
        (2048, 64, 1),
        (4096, 32, 128),
        (3 * 4 * 128, 128, 4),
        (5 * 2 * 96, 96, 2),
        (7 * 48, 48, 1),
        (6 * 3 * 80, 80, 3),
        (12 * 8 * 128, 128, 8),
        (9 * 2 * 200, 200, 2),
        (100 * 4 * 128, 128, 4),
        (24 * 6 * 64, 64, 6),
        (3 * 16 * 24, 24, 16),
    ] {
        let cfg = L1Config {
            size_bytes,
            line_bytes,
            assoc,
        };
        out.push((
            format!("{size_bytes} B / {line_bytes} B lines / {assoc}-way"),
            cfg,
        ));
    }
    out
}

#[test]
fn l1_cache_matches_the_reference_lru() {
    let geometries = geometries();
    assert_eq!(geometries.len(), 20);
    let mut rng = Rng::from_tag("reference-cache");
    for (name, cfg) in geometries {
        let (mut hits, mut evictions) = (0u32, 0u32);
        for stream in 0..4 {
            let mut cache = L1Cache::new(cfg);
            let mut reference = Lru::new(cfg);
            // A footprint up to three times the capacity, and enough
            // accesses to touch it several times over, so every stream
            // hits, misses and evicts.
            let span = cfg.size_bytes.max(cfg.line_bytes) * rng.range_u32(1, 4);
            let accesses = 8 * u64::from(cfg.num_lines()).max(256);
            let evicted_before = evictions;
            for i in 0..accesses {
                let addr = rng.range_u32(0, span);
                let line = cache.line_addr(addr);
                let set = cache.set_index(line);
                let at = format!("{name}, stream {stream}, access {i}");
                if rng.bool(0.3) {
                    cache.access_store(addr);
                    reference.store(set, line);
                    continue;
                }
                // Fills land at once: every resident line is a plain hit.
                let got = cache.access_load(addr, i * 1_000, 1, || i * 1_000 + 1);
                let (hit, evicted) = reference.load(set, line);
                assert_eq!((got.hit, got.evicted), (hit, evicted), "{at}");
                assert_eq!(got.set as usize, set, "{at}");
                hits += hit as u32;
                evictions += evicted as u32;
            }
            let evicted = u64::from(evictions - evicted_before);
            assert_eq!(cache.evictions, evicted, "{name}, stream {stream}");
        }
        assert!(
            hits > 0 && evictions > 0,
            "{name}: {hits} hits, {evictions} evictions"
        );
    }
}
