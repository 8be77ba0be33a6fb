//! Stable content digests for simulation inputs.
//!
//! The evaluation engine (`catt-core::engine`) memoizes simulation results
//! in a content-addressed cache that persists across processes, so the
//! digest must be stable across runs and builds. `std::hash::DefaultHasher`
//! makes no such guarantee, so this module implements FNV-1a 64-bit by
//! hand over a canonical byte encoding: the `Debug` rendering of the
//! hashed values. Debug output is part of this crate's own types, so a
//! change in the simulated semantics (new ops, new config fields) changes
//! the rendering and automatically invalidates stale cache entries.

use crate::bytecode::Program;
use crate::config::GpuConfig;
use std::fmt::Write as _;

/// FNV-1a, 64-bit.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Fresh hasher.
    pub fn new() -> Fnv64 {
        Fnv64 {
            state: Self::OFFSET,
        }
    }

    /// Fold raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Fold a string (as UTF-8 bytes plus a separator so `"ab","c"` and
    /// `"a","bc"` digest differently).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[0xFF])
    }

    /// Fold any `Debug` value via its canonical rendering.
    pub fn write_debug(&mut self, v: &impl std::fmt::Debug) -> &mut Self {
        let mut s = String::new();
        let _ = write!(s, "{v:?}");
        self.write_str(&s)
    }

    /// Final digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Program {
    /// Stable digest of the lowered kernel: instruction stream, register
    /// and shared-memory layout. Two kernels with identical lowering get
    /// identical digests, whatever source they came from.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&self.name)
            .write_debug(&self.ops)
            .write_debug(&self.num_regs)
            .write_debug(&self.param_regs)
            .write_debug(&self.shared_layout)
            .write_debug(&self.smem_bytes);
        h.finish()
    }
}

impl GpuConfig {
    /// Stable digest over every architectural parameter (geometry,
    /// capacities, latencies, DYNCTA settings). Any change invalidates
    /// cached simulation results keyed on this config. The cycle-fuel
    /// budget (`sim_fuel`) is excluded: fuel bounds a simulation, it never
    /// changes the result of one that completes, so tightening or lifting
    /// the budget must not invalidate cached results. The SM-parallelism
    /// knobs (`sm_parallel`, `sm_threads`) are excluded for the same
    /// reason: parallel and sequential execution are bit-identical (see
    /// DESIGN.md "Parallel SM execution"), so flipping them must keep
    /// serving cached results. The profiling knob (`profile`) is excluded
    /// too — the sink only observes, and profiled runs bypass the cache
    /// anyway (see DESIGN.md "Profiling & trace subsystem") — as is the
    /// sanitizer knob (`sanitize`): a clean sanitized launch is
    /// bit-identical to an unsanitized one, and sanitized runs bypass the
    /// cache so the checks always execute.
    pub fn content_digest(&self) -> u64 {
        let mut canonical = self.clone();
        canonical.sim_fuel = None;
        canonical.sm_parallel = None;
        canonical.sm_threads = None;
        canonical.profile = None;
        canonical.sanitize = None;
        // The L2 capacity is *architectural* — unlike the knobs above it
        // changes cycle counts — but `None` and an explicit `Some` of the
        // default must share a cache entry, so the digest folds the
        // resolved capacity, not the raw option.
        canonical.l2_kb = Some(self.l2_kb_resolved());
        // The cancellation token is an execution handle, not a simulated
        // parameter: a deadline-carrying `catt serve` request must share
        // its cache entry (and single-flight slot) with tokenless runs.
        canonical.cancel = None;
        let mut h = Fnv64::new();
        h.write_debug(&canonical);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Reference FNV-1a vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xCBF2_9CE4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn str_framing_disambiguates() {
        let mut a = Fnv64::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn config_digest_tracks_fields() {
        let base = GpuConfig::titan_v_1sm();
        let mut capped = base.clone();
        capped.l1_cap_bytes = Some(32 * 1024);
        assert_ne!(base.content_digest(), capped.content_digest());
        assert_eq!(base.content_digest(), base.clone().content_digest());
    }

    #[test]
    fn fuel_budget_does_not_change_the_digest() {
        let base = GpuConfig::titan_v_1sm();
        let mut fueled = base.clone();
        fueled.sim_fuel = Some(1_000);
        assert_eq!(base.content_digest(), fueled.content_digest());
    }

    #[test]
    fn sm_parallelism_knobs_do_not_change_the_digest() {
        // Parallel and sequential launches are bit-identical, so a cached
        // result must survive flipping the execution-strategy knobs.
        let base = GpuConfig::titan_v_1sm();
        let mut tuned = base.clone();
        tuned.sm_parallel = Some(false);
        tuned.sm_threads = Some(7);
        assert_eq!(base.content_digest(), tuned.content_digest());
        tuned.sm_parallel = Some(true);
        assert_eq!(base.content_digest(), tuned.content_digest());
    }

    #[test]
    fn profile_knob_does_not_change_the_digest() {
        // Profiling only observes; a cached result must survive flipping
        // it (profiled runs bypass the cache regardless).
        let base = GpuConfig::titan_v_1sm();
        let mut profiled = base.clone();
        profiled.profile = Some(true);
        assert_eq!(base.content_digest(), profiled.content_digest());
        profiled.profile = Some(false);
        assert_eq!(base.content_digest(), profiled.content_digest());
    }

    #[test]
    fn l2_capacity_changes_the_digest_by_resolved_value() {
        // Capacity is architectural: different sizes must not share a
        // cache entry, but `None` (default) and an explicit `Some` of
        // the resolved default must.
        let base = GpuConfig::titan_v_1sm();
        let mut shrunk = base.clone();
        shrunk.l2_kb = Some(512);
        assert_ne!(base.content_digest(), shrunk.content_digest());
        let mut disabled = base.clone();
        disabled.l2_kb = Some(0);
        assert_ne!(base.content_digest(), disabled.content_digest());
        let mut explicit_default = base.clone();
        explicit_default.l2_kb = Some(base.l2_kb_resolved());
        assert_eq!(base.content_digest(), explicit_default.content_digest());
    }

    #[test]
    fn sanitize_knob_does_not_change_the_digest() {
        // The sanitizer only observes; a cached result must survive
        // flipping it (sanitized runs bypass the cache regardless).
        let base = GpuConfig::titan_v_1sm();
        let mut sanitized = base.clone();
        sanitized.sanitize = Some(true);
        assert_eq!(base.content_digest(), sanitized.content_digest());
        sanitized.sanitize = Some(false);
        assert_eq!(base.content_digest(), sanitized.content_digest());
    }
}
