//! Launch statistics — the simulator's replacement for `nvprof` counters.

/// Bounded per-instruction off-chip request trace (paper Fig. 2): one
/// entry per executed global-memory instruction, in execution order,
/// holding the number of 128-byte transactions it generated after
/// coalescing. Captured on SM 0 only and capped to bound memory.
#[derive(Debug, Clone, Default)]
pub struct RequestTrace {
    /// Requests-per-instruction in execution order.
    pub requests: Vec<u32>,
    /// Number of events dropped after the cap was reached.
    pub dropped: u64,
}

impl RequestTrace {
    /// Cap on recorded events.
    pub const CAP: usize = 1 << 20;

    /// Record one memory instruction's transaction count.
    pub fn record(&mut self, requests: u32) {
        if self.requests.len() < Self::CAP {
            self.requests.push(requests);
        } else {
            self.dropped += 1;
        }
    }

    /// Downsample to at most `n` buckets of averaged request counts, for
    /// plotting Fig. 2-style series.
    pub fn bucketed(&self, n: usize) -> Vec<f64> {
        if self.requests.is_empty() || n == 0 {
            return Vec::new();
        }
        let len = self.requests.len();
        let bucket = len.div_ceil(n);
        self.requests
            .chunks(bucket)
            .map(|c| c.iter().map(|&v| v as f64).sum::<f64>() / c.len() as f64)
            .collect()
    }
}

/// What a functional execution ([`crate::Gpu::execute`]) counts: the
/// schedule-independent subset of [`LaunchStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounts {
    /// Warp-instructions issued.
    pub instructions: u64,
    /// Thread blocks executed.
    pub tbs: u64,
    /// Warps executed.
    pub warps: u64,
}

/// Statistics of one kernel launch.
#[derive(Debug, Clone, Default)]
pub struct LaunchStats {
    /// Wall-clock cycles (max over SMs).
    pub cycles: u64,
    /// Warp-instructions issued, all SMs.
    pub instructions: u64,
    /// L1D load accesses (coalesced transactions), all SMs.
    pub l1_accesses: u64,
    /// L1D load hits (incl. MSHR merges), all SMs.
    pub l1_hits: u64,
    /// Off-chip 128-byte requests (load misses + stores), all SMs.
    pub offchip_requests: u64,
    /// L2 load accesses (L1D load misses probing the shared L2 slice),
    /// all SMs. Zero when the L2 is disabled (`l2_kb = 0`); stores
    /// bypass the L2 (write-through, no-allocate at both levels), so
    /// per launch `l2_accesses == l1_accesses - l1_hits`.
    pub l2_accesses: u64,
    /// L2 load hits (incl. MSHR merges), all SMs.
    pub l2_hits: u64,
    /// Valid L2 lines displaced by fills (capacity/conflict pressure),
    /// all SMs.
    pub l2_evictions: u64,
    /// Thread blocks executed.
    pub tbs: u64,
    /// Warps executed.
    pub warps: u64,
    /// Resident thread blocks per SM actually used by the dispatcher.
    pub resident_tbs_per_sm: u32,
    /// Per-instruction request trace from SM 0 (empty unless
    /// `GpuConfig::trace_requests`).
    pub trace: RequestTrace,
}

impl LaunchStats {
    /// L1D load hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.l1_accesses as f64
        }
    }

    /// L2 load hit rate (over L1D load misses; 0 with the L2 disabled).
    pub fn l2_hit_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_hits as f64 / self.l2_accesses as f64
        }
    }

    /// Fold another launch's statistics into this one, sequencing the
    /// launches back to back (cycles add; a multi-kernel application's
    /// total time is the sum of its launches, as in the paper's
    /// end-to-end measurements).
    pub fn accumulate(&mut self, other: &LaunchStats) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.l1_accesses += other.l1_accesses;
        self.l1_hits += other.l1_hits;
        self.offchip_requests += other.offchip_requests;
        self.l2_accesses += other.l2_accesses;
        self.l2_hits += other.l2_hits;
        self.l2_evictions += other.l2_evictions;
        self.tbs += other.tbs;
        self.warps += other.warps;
        self.trace.requests.extend_from_slice(&other.trace.requests);
        self.trace.dropped += other.trace.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_accesses() {
        let s = LaunchStats::default();
        assert_eq!(s.l1_hit_rate(), 0.0);
    }

    #[test]
    fn accumulate_sums_counters() {
        let mut a = LaunchStats {
            cycles: 100,
            l1_accesses: 10,
            l1_hits: 5,
            ..LaunchStats::default()
        };
        let b = LaunchStats {
            cycles: 50,
            l1_accesses: 10,
            l1_hits: 10,
            ..LaunchStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.l1_hit_rate(), 0.75);
    }

    #[test]
    fn accumulate_sums_dropped_trace_events() {
        let traced = |requests: Vec<u32>, dropped| LaunchStats {
            trace: RequestTrace { requests, dropped },
            ..LaunchStats::default()
        };
        let mut a = traced(vec![1, 2], 3);
        a.accumulate(&traced(vec![4], 5));
        assert_eq!(a.trace.requests, [1, 2, 4]);
        assert_eq!(a.trace.dropped, 8);
    }

    #[test]
    fn trace_caps_and_buckets() {
        let mut t = RequestTrace::default();
        for i in 0..10 {
            t.record(i % 2 + 1);
        }
        assert_eq!(t.requests.len(), 10);
        let b = t.bucketed(5);
        assert_eq!(b.len(), 5);
        assert!(b.iter().all(|&v| (1.0..=2.0).contains(&v)));
        // Bucket of everything averages to 1.5.
        let b1 = t.bucketed(1);
        assert!((b1[0] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn bucketed_is_total() {
        // Degenerate shapes must yield defined results, never divide by
        // zero or panic: zero buckets, empty traces, more buckets than
        // samples.
        let empty = RequestTrace::default();
        assert!(empty.bucketed(0).is_empty());
        assert!(empty.bucketed(7).is_empty());
        let mut t = RequestTrace::default();
        for i in 1..=3 {
            t.record(i);
        }
        assert!(t.bucketed(0).is_empty(), "n = 0 has no defined buckets");
        // More buckets than samples: one sample per bucket, none invented.
        let b = t.bucketed(10);
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn trace_empty_bucket() {
        let t = RequestTrace::default();
        assert!(t.bucketed(10).is_empty());
    }
}
