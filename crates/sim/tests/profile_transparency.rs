//! Profiling transparency: turning the profiler on must not perturb
//! simulation results.
//!
//! The `ProfileSink` hooks observe the SM pipeline; they never feed back
//! into it. This suite pins that contract the strong way: for every
//! registry workload, the full `LaunchStats` and the final output-memory
//! digest are bit-identical with profiling on and off, on four SMs.

use catt_sim::{GpuConfig, LaunchStats};
use catt_workloads::harness;
use catt_workloads::registry;

fn four_sm_config(profile: bool) -> GpuConfig {
    let mut c = GpuConfig::titan_v();
    c.num_sms = 4;
    c.profile = Some(profile);
    c
}

fn assert_stats_identical(a: &LaunchStats, b: &LaunchStats, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.instructions, b.instructions, "{what}: instructions");
    assert_eq!(a.l1_accesses, b.l1_accesses, "{what}: l1_accesses");
    assert_eq!(a.l1_hits, b.l1_hits, "{what}: l1_hits");
    assert_eq!(
        a.offchip_requests, b.offchip_requests,
        "{what}: offchip_requests"
    );
    assert_eq!(a.l2_accesses, b.l2_accesses, "{what}: l2_accesses");
    assert_eq!(a.l2_hits, b.l2_hits, "{what}: l2_hits");
    assert_eq!(a.l2_evictions, b.l2_evictions, "{what}: l2_evictions");
    assert_eq!(a.tbs, b.tbs, "{what}: tbs");
    assert_eq!(a.warps, b.warps, "{what}: warps");
    assert_eq!(
        a.resident_tbs_per_sm, b.resident_tbs_per_sm,
        "{what}: resident_tbs_per_sm"
    );
}

/// Profiling on|off: same stats, same memory image, for every registry
/// workload. Capture stays off, so the profiles
/// generated by the "on" runs are dropped at submit — this test measures
/// only the instrumented simulation itself.
#[test]
fn profiling_never_changes_stats_or_memory() {
    harness::set_mem_digest_capture(true);
    for w in registry::all_workloads() {
        let kernels = w.kernels();
        let off = (w.run)(&kernels, &four_sm_config(false), true);
        let off_mem =
            harness::last_mem_digest().unwrap_or_else(|| panic!("{}: no digest (off)", w.abbrev));
        let on = (w.run)(&kernels, &four_sm_config(true), true);
        let on_mem =
            harness::last_mem_digest().unwrap_or_else(|| panic!("{}: no digest (on)", w.abbrev));
        assert_stats_identical(&on, &off, w.abbrev);
        assert_eq!(
            on_mem, off_mem,
            "{}: final memory image differs with profiling on",
            w.abbrev
        );
    }
    harness::set_mem_digest_capture(false);
}
