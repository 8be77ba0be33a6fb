//! Randomized tests for the L1D model and the coalescer-facing invariants,
//! drawn from a fixed-seed [`catt_prng::Rng`] so every run sees the same
//! traces.

use catt_prng::Rng;
use catt_sim::cache::L1Cache;
use catt_sim::config::L1Config;

fn cache(size_lines: u32, assoc: u32) -> L1Cache {
    L1Cache::new(L1Config {
        size_bytes: size_lines * 128,
        line_bytes: 128,
        assoc,
    })
}

fn addr_vec(r: &mut Rng, max_addr: u32, max_len: usize) -> Vec<u32> {
    let len = r.range_usize(1, max_len);
    (0..len).map(|_| r.range_u32(0, max_addr)).collect()
}

/// Accounting invariant: hits + merges + off-chip-loads == accesses
/// (stores are counted separately), and residency never exceeds capacity.
#[test]
fn accounting_invariants() {
    let mut r = Rng::from_tag("cache-accounting");
    for case in 0..256 {
        let addrs = addr_vec(&mut r, 1 << 20, 600);
        let size_lines = *r.choose(&[8u32, 32, 256]);
        let assoc = *r.choose(&[2u32, 4, 8]);
        let mut c = cache(size_lines, assoc);
        let mut t = 0u64;
        let mut load_offchip = 0u64;
        for a in &addrs {
            let res = c.access_load(*a, t, 28, || t + 400);
            if res.offchip {
                load_offchip += 1;
            }
            assert!(res.data_ready >= t, "case {case}");
            t += 7;
        }
        assert_eq!(
            c.hits + c.mshr_merges + load_offchip,
            c.accesses,
            "case {case}: {size_lines} lines, assoc {assoc}"
        );
        assert_eq!(c.offchip_requests, load_offchip, "case {case}");
        assert!(c.resident_lines() <= size_lines as usize, "case {case}");
    }
}

/// Inclusion-ish monotonicity: a larger cache of the same geometry never
/// produces more off-chip requests on the same trace.
#[test]
fn bigger_cache_never_requests_more() {
    let mut r = Rng::from_tag("cache-monotonic");
    for case in 0..256 {
        let addrs = addr_vec(&mut r, 1 << 16, 400);
        let mut small = cache(16, 4);
        let mut big = cache(256, 4);
        let mut t = 0u64;
        for a in &addrs {
            small.access_load(*a, t, 28, || t + 400);
            big.access_load(*a, t, 28, || t + 400);
            t += 11;
        }
        assert!(
            big.offchip_requests <= small.offchip_requests,
            "case {case}: big {} vs small {}",
            big.offchip_requests,
            small.offchip_requests
        );
    }
}

/// Determinism: the same trace produces identical statistics.
#[test]
fn cache_is_deterministic() {
    let mut r = Rng::from_tag("cache-deterministic");
    for _ in 0..128 {
        let addrs = addr_vec(&mut r, 1 << 18, 300);
        let run = || {
            let mut c = cache(32, 4);
            let mut t = 0u64;
            for a in &addrs {
                c.access_load(*a, t, 28, || t + 400);
                t += 3;
            }
            (c.hits, c.mshr_merges, c.offchip_requests)
        };
        assert_eq!(run(), run());
    }
}

/// Single-line reuse always hits after the first access, regardless of
/// the offsets within the line.
#[test]
fn temporal_reuse_of_one_line_survives() {
    let mut r = Rng::from_tag("cache-reuse");
    for case in 0..256 {
        let n = r.range_usize(2, 50);
        let offsets: Vec<u32> = (0..n).map(|_| r.range_u32(0, 128)).collect();
        let mut c = cache(64, 4);
        let base = 4096u32;
        let mut t = 0u64;
        let mut first = true;
        for off in &offsets {
            let res = c.access_load(base + off, t, 28, || t + 400);
            if first {
                assert!(!res.hit, "case {case}: first access must miss");
                first = false;
            } else {
                assert!(res.hit, "case {case}: same line must keep hitting");
            }
            t += 500;
        }
    }
}

/// The set index `L1Cache` resolves once per cache (shift and XOR-fold
/// mask for power-of-two geometries, division and modulo otherwise)
/// equals the definition by division, over this file's geometries plus
/// the odd ones only the fallback path serves.
#[test]
fn set_index_matches_the_division_definition() {
    fn set_by_division(cfg: L1Config, byte_addr: u32) -> u32 {
        let line = byte_addr / cfg.line_bytes;
        let n = (cfg.size_bytes / cfg.line_bytes / cfg.assoc).max(1);
        if n.is_power_of_two() && n > 1 {
            let (mut x, mut idx) = (line, 0);
            while x != 0 {
                idx ^= x % n;
                x /= n;
            }
            idx
        } else {
            line % n
        }
    }
    let mut r = Rng::from_tag("cache-set-index");
    let mut geometries = Vec::new();
    for size_lines in [8u32, 16, 32, 64, 256] {
        for assoc in [2u32, 4, 8] {
            geometries.push((size_lines, 128u32, assoc));
        }
    }
    // One set; 32-byte lines; a non-power-of-two set count; a
    // non-power-of-two line size; both odd.
    geometries.extend([
        (2, 128, 2),
        (64, 32, 4),
        (24, 128, 4),
        (32, 96, 4),
        (30, 96, 2),
    ]);
    for (size_lines, line_bytes, assoc) in geometries {
        let cfg = L1Config {
            size_bytes: size_lines * line_bytes,
            line_bytes,
            assoc,
        };
        let mut c = L1Cache::new(cfg);
        for _ in 0..2000 {
            let a = r.range_u32(0, u32::MAX);
            let what = format!("{cfg:?} addr {a:#x}");
            assert_eq!(c.line_addr(a), a / line_bytes, "{what}");
            assert_eq!(c.access_store(a), set_by_division(cfg, a), "{what}");
            let res = c.access_load(a, 0, 28, || 400);
            assert_eq!(res.set, set_by_division(cfg, a), "{what}");
        }
    }
}

mod coalescing {
    use catt_frontend::parse_kernel;
    use catt_ir::LaunchConfig;
    use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig};

    /// The coalescer bound of paper Eq. 7: a warp's strided access
    /// produces min(ceil(stride·4·32 / 128), 32) transactions — always
    /// within [1, 32] and exactly `stride.min(32)` for element strides.
    /// Exhaustive over the strides the old property test sampled.
    #[test]
    fn strided_warp_requests_match_eq7() {
        for stride in 1u32..64 {
            let src = format!(
                "__global__ void k(float *a, float *out) {{
                     int i = blockIdx.x * blockDim.x + threadIdx.x;
                     out[i] = a[i * {stride}];
                 }}"
            );
            let kernel = parse_kernel(&src).unwrap();
            let mut cfg = GpuConfig::titan_v_1sm();
            cfg.trace_requests = true;
            let mut mem = GlobalMem::new();
            let a = mem.alloc_f32(&vec![1.0; 32 * stride as usize + 32]);
            let out = mem.alloc_zeroed(32);
            let mut gpu = Gpu::new(cfg);
            let stats = gpu
                .launch(
                    &kernel,
                    LaunchConfig::d1(1, 32),
                    &[Arg::Buf(a), Arg::Buf(out)],
                    &mut mem,
                )
                .unwrap();
            let expected = stride.min(32);
            // First trace entry is the load (the second is the store).
            assert_eq!(stats.trace.requests[0], expected, "stride {stride}");
            assert!(stats.trace.requests.iter().all(|&r| (1..=32).contains(&r)));
        }
    }
}
