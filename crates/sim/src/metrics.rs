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

    /// Serialize the counters as the inner fields of a JSON object (no
    /// braces), for the persistent simulation cache's JSONL layer. The
    /// request trace is deliberately excluded: traced runs are diagnostic
    /// and bypass the cache (`GpuConfig::trace_requests`).
    pub fn to_json_fields(&self) -> String {
        format!(
            "\"cycles\":{},\"instructions\":{},\"l1_accesses\":{},\"l1_hits\":{},\
             \"offchip_requests\":{},\"l2_accesses\":{},\"l2_hits\":{},\"l2_evictions\":{},\
             \"tbs\":{},\"warps\":{},\"resident_tbs_per_sm\":{}",
            self.cycles,
            self.instructions,
            self.l1_accesses,
            self.l1_hits,
            self.offchip_requests,
            self.l2_accesses,
            self.l2_hits,
            self.l2_evictions,
            self.tbs,
            self.warps,
            self.resident_tbs_per_sm
        )
    }

    /// Parse a JSON object line containing (at least) the fields written
    /// by [`LaunchStats::to_json_fields`]; unknown fields are ignored.
    /// Returns `None` on any missing field or malformed number — callers
    /// treat that as a cache miss, never an error.
    pub fn from_json_line(line: &str) -> Option<LaunchStats> {
        fn field_u64(line: &str, name: &str) -> Option<u64> {
            let pat = format!("\"{name}\":");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        }
        Some(LaunchStats {
            cycles: field_u64(line, "cycles")?,
            instructions: field_u64(line, "instructions")?,
            l1_accesses: field_u64(line, "l1_accesses")?,
            l1_hits: field_u64(line, "l1_hits")?,
            offchip_requests: field_u64(line, "offchip_requests")?,
            // Absent from cache lines written before the L2 existed;
            // those entries are unreachable anyway (the L2 capacity is
            // part of the config digest) but parse leniently regardless.
            l2_accesses: field_u64(line, "l2_accesses").unwrap_or(0),
            l2_hits: field_u64(line, "l2_hits").unwrap_or(0),
            l2_evictions: field_u64(line, "l2_evictions").unwrap_or(0),
            tbs: field_u64(line, "tbs")?,
            warps: field_u64(line, "warps")?,
            resident_tbs_per_sm: field_u64(line, "resident_tbs_per_sm")? as u32,
            trace: RequestTrace::default(),
        })
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
    fn json_roundtrip_property() {
        // Every counter combination — including extremes like u64::MAX —
        // must survive the JSONL cache encoding bit-exactly.
        let mut rng = catt_prng::Rng::from_tag("metrics-json-roundtrip");
        for case in 0..200 {
            let extreme = |rng: &mut catt_prng::Rng| match rng.bounded_u64(4) {
                0 => 0,
                1 => u64::MAX,
                2 => rng.bounded_u64(1 << 20),
                _ => rng.next_u64(),
            };
            let s = LaunchStats {
                cycles: extreme(&mut rng),
                instructions: extreme(&mut rng),
                l1_accesses: extreme(&mut rng),
                l1_hits: extreme(&mut rng),
                offchip_requests: extreme(&mut rng),
                l2_accesses: extreme(&mut rng),
                l2_hits: extreme(&mut rng),
                l2_evictions: extreme(&mut rng),
                tbs: extreme(&mut rng),
                warps: extreme(&mut rng),
                resident_tbs_per_sm: rng.next_u32(),
                trace: RequestTrace::default(),
            };
            let line = format!("{{\"digest\":\"abc123\",{}}}", s.to_json_fields());
            let back = LaunchStats::from_json_line(&line)
                .unwrap_or_else(|| panic!("case {case}: line `{line}` failed to parse"));
            assert_eq!(back.cycles, s.cycles, "case {case}");
            assert_eq!(back.instructions, s.instructions, "case {case}");
            assert_eq!(back.l1_accesses, s.l1_accesses, "case {case}");
            assert_eq!(back.l1_hits, s.l1_hits, "case {case}");
            assert_eq!(back.offchip_requests, s.offchip_requests, "case {case}");
            assert_eq!(back.l2_accesses, s.l2_accesses, "case {case}");
            assert_eq!(back.l2_hits, s.l2_hits, "case {case}");
            assert_eq!(back.l2_evictions, s.l2_evictions, "case {case}");
            assert_eq!(back.tbs, s.tbs, "case {case}");
            assert_eq!(back.warps, s.warps, "case {case}");
            assert_eq!(
                back.resident_tbs_per_sm, s.resident_tbs_per_sm,
                "case {case}"
            );
            assert!(back.trace.requests.is_empty(), "trace is never serialized");
        }
    }

    #[test]
    fn json_roundtrip_preserves_counters() {
        let s = LaunchStats {
            cycles: 12345,
            instructions: 678,
            l1_accesses: 90,
            l1_hits: 45,
            offchip_requests: 55,
            l2_accesses: 45,
            l2_hits: 30,
            l2_evictions: 3,
            tbs: 8,
            warps: 64,
            resident_tbs_per_sm: 4,
            trace: RequestTrace::default(),
        };
        let line = format!("{{\"key\":\"deadbeef\",{}}}", s.to_json_fields());
        let back = LaunchStats::from_json_line(&line).unwrap();
        assert_eq!(back.cycles, s.cycles);
        assert_eq!(back.instructions, s.instructions);
        assert_eq!(back.l1_accesses, s.l1_accesses);
        assert_eq!(back.l1_hits, s.l1_hits);
        assert_eq!(back.offchip_requests, s.offchip_requests);
        assert_eq!(back.l2_accesses, s.l2_accesses);
        assert_eq!(back.l2_hits, s.l2_hits);
        assert_eq!(back.l2_evictions, s.l2_evictions);
        assert_eq!(back.tbs, s.tbs);
        assert_eq!(back.warps, s.warps);
        assert_eq!(back.resident_tbs_per_sm, s.resident_tbs_per_sm);
    }

    #[test]
    fn json_parse_defaults_missing_l2_fields() {
        // Cache lines written before the L2 counters existed must still
        // parse, with the L2 counters zeroed.
        let line = "{\"cycles\":10,\"instructions\":2,\"l1_accesses\":4,\"l1_hits\":1,\
                    \"offchip_requests\":3,\"tbs\":1,\"warps\":1,\"resident_tbs_per_sm\":1}";
        let s = LaunchStats::from_json_line(line).unwrap();
        assert_eq!(s.cycles, 10);
        assert_eq!(s.l2_accesses, 0);
        assert_eq!(s.l2_hits, 0);
        assert_eq!(s.l2_evictions, 0);
        assert_eq!(s.l2_hit_rate(), 0.0);
    }

    #[test]
    fn json_parse_rejects_malformed_lines() {
        assert!(LaunchStats::from_json_line("").is_none());
        assert!(LaunchStats::from_json_line("{\"cycles\":1}").is_none());
        assert!(LaunchStats::from_json_line("not json at all").is_none());
    }

    #[test]
    fn trace_empty_bucket() {
        let t = RequestTrace::default();
        assert!(t.bucketed(10).is_empty());
    }
}
