//! Set-associative L1 data cache with LRU replacement and MSHR merging.
//!
//! The cache is a *tag store only* — data lives in [`crate::mem::GlobalMem`]
//! and functional loads complete at issue time; the cache determines
//! *timing* (hit vs. miss latency) and the *statistics* the paper reports
//! (L1D hit rate, off-chip request counts).
//!
//! Misses to a line that is already in flight merge into the existing MSHR
//! entry instead of issuing a second off-chip request, which is what makes
//! inter-warp spatial locality effective even under misses.

use crate::config::L1Config;

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u32,
    /// Cycle at which the fill completes (0 when long since resident).
    ready: u64,
    /// LRU timestamp.
    last_use: u64,
    valid: bool,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit (including hits on in-flight lines that
    /// merge into an MSHR — counted as hits-under-miss).
    pub hit: bool,
    /// Whether a new off-chip request was generated.
    pub offchip: bool,
    /// Cycle at which the data is available to the requester.
    pub data_ready: u64,
    /// Set the line maps to (after XOR-folded hashing) — the heat-map
    /// coordinate the profiling sink records.
    pub set: u32,
    /// Whether the access displaced a valid resident line (miss into a
    /// full set).
    pub evicted: bool,
}

/// L1 data cache (tag store + MSHR timing).
pub struct L1Cache {
    cfg: L1Config,
    /// All lines in one contiguous allocation: set `s` occupies
    /// `lines[s * assoc .. (s + 1) * assoc]`. One flat `Vec` instead of a
    /// `Vec<Vec<Line>>` keeps each set's ways on a single cache line of
    /// the *host* and kills the per-access pointer chase — this structure
    /// is probed on every simulated load and store.
    lines: Vec<Line>,
    assoc: usize,
    /// Geometry resolved once here so a probe never divides:
    /// `log2(line_bytes)` and `log2(num_sets)` when they are powers of two
    /// (every shipped configuration), `None` for odd geometries, which
    /// keep the division/modulo path.
    line_shift: Option<u32>,
    num_sets: u32,
    set_bits: Option<u32>,
    use_counter: u64,
    /// Statistics: load accesses.
    pub accesses: u64,
    /// Load accesses that hit (fully resident lines).
    pub hits: u64,
    /// Load accesses merged into an in-flight fill.
    pub mshr_merges: u64,
    /// Off-chip (L2/DRAM) requests generated, loads + stores.
    pub offchip_requests: u64,
    /// Valid resident lines displaced by fills (capacity/conflict
    /// pressure; cold fills into invalid ways do not count).
    pub evictions: u64,
}

impl L1Cache {
    /// Empty cache with the given geometry.
    pub fn new(cfg: L1Config) -> L1Cache {
        let assoc = (cfg.assoc as usize).max(1);
        let num_sets = cfg.num_sets();
        let lines = vec![
            Line {
                tag: 0,
                ready: 0,
                last_use: 0,
                valid: false,
            };
            num_sets as usize * assoc
        ];
        let log2 = |n: u32| n.is_power_of_two().then(|| n.trailing_zeros());
        L1Cache {
            cfg,
            lines,
            assoc,
            line_shift: log2(cfg.line_bytes),
            num_sets,
            set_bits: log2(num_sets).filter(|&bits| bits > 0),
            use_counter: 0,
            accesses: 0,
            hits: 0,
            mshr_merges: 0,
            offchip_requests: 0,
            evictions: 0,
        }
    }

    /// The geometry.
    pub fn config(&self) -> L1Config {
        self.cfg
    }

    /// Set index with XOR-folded hashing. GPU L1s hash the set index so
    /// that power-of-two strides (ubiquitous in row-major matrix kernels)
    /// do not collapse onto a few sets; without this, a kernel like ATAX
    /// (row stride 2 KB) suffers pathological conflict misses that no real
    /// device shows. The tag is the full line address.
    fn set_index(&self, line_addr: u32) -> usize {
        match self.set_bits {
            Some(bits) => {
                let mut x = line_addr;
                let mut idx = 0u32;
                while x != 0 {
                    idx ^= x & ((1 << bits) - 1);
                    x >>= bits;
                }
                idx as usize
            }
            None => (line_addr % self.num_sets) as usize,
        }
    }

    /// Address of the line containing `byte_addr` (the coalescer's unit
    /// and the tag).
    #[inline]
    pub fn line_addr(&self, byte_addr: u32) -> u32 {
        match self.line_shift {
            Some(shift) => byte_addr >> shift,
            None => byte_addr / self.cfg.line_bytes,
        }
    }

    /// Access a *load* to the 128-byte line containing `byte_addr` at time
    /// `now`. `fill_latency` is the full off-chip service latency the fill
    /// would take (the caller adds port queueing before calling);
    /// `hit_latency` the L1 hit latency.
    pub fn access_load(
        &mut self,
        byte_addr: u32,
        now: u64,
        hit_latency: u64,
        fill_complete: impl FnOnce() -> u64,
    ) -> AccessResult {
        self.accesses += 1;
        self.use_counter += 1;
        let tag = self.line_addr(byte_addr);
        let set_idx = self.set_index(tag);
        let base = set_idx * self.assoc;
        let set = &mut self.lines[base..base + self.assoc];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = self.use_counter;
            if line.ready <= now {
                self.hits += 1;
                AccessResult {
                    hit: true,
                    offchip: false,
                    data_ready: now + hit_latency,
                    set: set_idx as u32,
                    evicted: false,
                }
            } else {
                // In flight: merge into the pending fill (MSHR hit).
                self.mshr_merges += 1;
                AccessResult {
                    hit: true,
                    offchip: false,
                    data_ready: line.ready + hit_latency,
                    set: set_idx as u32,
                    evicted: false,
                }
            }
        } else {
            // Miss: allocate (evicting LRU if the set is full) and issue
            // an off-chip request.
            self.offchip_requests += 1;
            let ready = fill_complete();
            let new_line = Line {
                tag,
                ready,
                last_use: self.use_counter,
                valid: true,
            };
            // Fill the first invalid way; with the set full, evict the
            // LRU (only valid ways matter: their `last_use` is always
            // above an invalid way's 0 once touched).
            let mut evicted = false;
            match set.iter_mut().find(|l| !l.valid) {
                Some(slot) => *slot = new_line,
                None => {
                    let lru = set
                        .iter_mut()
                        .min_by_key(|l| l.last_use)
                        .expect("assoc >= 1 ways per set");
                    *lru = new_line;
                    evicted = true;
                    self.evictions += 1;
                }
            }
            AccessResult {
                hit: false,
                offchip: true,
                data_ready: ready,
                set: set_idx as u32,
                evicted,
            }
        }
    }

    /// Access a *store* (write-through, no write-allocate): always an
    /// off-chip request; if the line is resident it stays resident (the
    /// written data updates it) and its LRU position refreshes. Returns
    /// the set index (heat-map coordinate).
    pub fn access_store(&mut self, byte_addr: u32) -> u32 {
        self.use_counter += 1;
        self.offchip_requests += 1;
        let tag = self.line_addr(byte_addr);
        let set_idx = self.set_index(tag);
        let base = set_idx * self.assoc;
        if let Some(line) = self.lines[base..base + self.assoc]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            line.last_use = self.use_counter;
        }
        set_idx as u32
    }

    /// Load hit rate over load accesses (MSHR merges count as hits, as in
    /// hardware counters).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        (self.hits + self.mshr_merges) as f64 / self.accesses as f64
    }

    /// Number of resident (valid) lines — for invariants in tests.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: u32, assoc: u32) -> L1Config {
        L1Config {
            size_bytes: size,
            line_bytes: 128,
            assoc,
        }
    }

    fn fill_at(t: u64) -> impl FnOnce() -> u64 {
        move || t
    }

    #[test]
    fn miss_then_hit() {
        let mut c = L1Cache::new(cfg(4096, 4));
        let r = c.access_load(0, 0, 28, fill_at(400));
        assert!(!r.hit);
        assert!(r.offchip);
        assert_eq!(r.data_ready, 400);
        let r = c.access_load(64, 500, 28, fill_at(900)); // same line
        assert!(r.hit);
        assert!(!r.offchip);
        assert_eq!(r.data_ready, 528);
        assert_eq!(c.accesses, 2);
        assert_eq!(c.hits, 1);
        assert_eq!(c.offchip_requests, 1);
    }

    #[test]
    fn mshr_merge_no_second_request() {
        let mut c = L1Cache::new(cfg(4096, 4));
        c.access_load(0, 0, 28, fill_at(400));
        // Second access before the fill completes: merged, waits for fill.
        let r = c.access_load(4, 100, 28, fill_at(999));
        assert!(r.hit);
        assert!(!r.offchip);
        assert_eq!(r.data_ready, 400 + 28);
        assert_eq!(c.offchip_requests, 1);
        assert_eq!(c.mshr_merges, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1 set, 2-way: 2 lines of 128B → size 256.
        let mut c = L1Cache::new(cfg(256, 2));
        assert_eq!(c.config().num_sets(), 1);
        let r = c.access_load(0, 0, 28, fill_at(1)); // line 0
        assert!(!r.evicted, "filling an invalid way is not an eviction");
        assert_eq!(r.set, 0);
        c.access_load(128, 0, 28, fill_at(1)); // line 1
        c.access_load(0, 10, 28, fill_at(1)); // touch line 0 (hit)
        let r = c.access_load(256, 20, 28, fill_at(21)); // line 2 evicts line 1 (LRU)
        assert!(r.evicted, "miss into a full set displaces the LRU way");
        let r = c.access_load(0, 30, 28, fill_at(31));
        assert!(r.hit, "line 0 must survive");
        let r = c.access_load(128, 40, 28, fill_at(41));
        assert!(!r.hit, "line 1 was evicted");
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn thrashing_working_set_never_hits() {
        // Working set of 64 lines cycled through a 32-line cache: 0% hits
        // on every pass — the paper's cache-thrashing scenario.
        let mut c = L1Cache::new(cfg(32 * 128, 4));
        let mut t = 0;
        for _pass in 0..3 {
            for i in 0..64u32 {
                c.access_load(i * 128, t, 28, fill_at(t + 400));
                t += 1;
            }
        }
        assert_eq!(c.hits, 0);
        assert_eq!(c.offchip_requests, 3 * 64);
    }

    #[test]
    fn fitting_working_set_hits_after_warmup() {
        // 16 lines in a 32-line cache: second and later passes all hit.
        let mut c = L1Cache::new(cfg(32 * 128, 4));
        let mut t = 0;
        for _pass in 0..4 {
            for i in 0..16u32 {
                c.access_load(i * 128, t, 28, fill_at(t + 400));
                t += 500;
            }
        }
        assert_eq!(c.offchip_requests, 16);
        assert_eq!(c.hits, 3 * 16);
        assert!((c.hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn stores_are_write_through_no_allocate() {
        let mut c = L1Cache::new(cfg(4096, 4));
        c.access_store(0);
        assert_eq!(c.offchip_requests, 1);
        assert_eq!(c.resident_lines(), 0);
        // A store to a resident line keeps it resident.
        c.access_load(0, 0, 28, fill_at(1));
        c.access_store(0);
        assert_eq!(c.resident_lines(), 1);
        assert_eq!(c.offchip_requests, 3);
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        let mut c = L1Cache::new(cfg(1024, 2));
        let mut misses = 0;
        for i in 0..100u32 {
            let r = c.access_load(
                (i * 64) % 4096,
                i as u64 * 10,
                28,
                fill_at(i as u64 * 10 + 50),
            );
            if !r.hit {
                misses += 1;
            }
        }
        assert_eq!(c.hits + c.mshr_merges + misses, c.accesses);
    }
}
