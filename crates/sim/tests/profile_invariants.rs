//! Profiling-counter invariants across the whole workload registry.
//!
//! The profiler's stall accounting is exact by construction (DESIGN.md
//! "Profiling & trace subsystem"): every issue slot of every scheduler on
//! every cycle is either an issued instruction or one classified stall
//! cycle. Likewise the per-set L1D counters are incremented on the same
//! code path that feeds `LaunchStats`, so their sums must reconcile with
//! the aggregate counters bit-exactly. This suite pins both properties
//! for every registry workload on four SMs (the shard merge is the
//! interesting path).

use catt_sim::{GpuConfig, LaunchProfile, LaunchStats, StallReason};
use catt_workloads::harness;
use catt_workloads::registry;

fn four_sm_config() -> GpuConfig {
    let mut c = GpuConfig::titan_v();
    c.num_sms = 4;
    c
}

/// Per SM: `instructions + Σ stall_cycles == cycles × schedulers`, and no
/// Fuel stalls on a completed run (Fuel only appears in partial profiles
/// of fuel-exhausted launches).
fn assert_stall_accounting(p: &LaunchProfile, what: &str) {
    assert!(p.complete, "{what}: profile marked partial");
    for sm in &p.sms {
        let slots = sm.cycles * sm.schedulers as u64;
        let stalls: u64 = sm.stall_cycles.iter().sum();
        assert_eq!(
            sm.instructions + stalls,
            slots,
            "{what}: SM {} issue-slot accounting (instr {} + stalls {} != {} cycles × {} scheds)",
            sm.sm_id,
            sm.instructions,
            stalls,
            sm.cycles,
            sm.schedulers
        );
        assert_eq!(
            sm.stall_cycles[StallReason::Fuel as usize],
            0,
            "{what}: SM {} charged Fuel stalls on a completed run",
            sm.sm_id
        );
    }
}

/// Aggregate the captured profiles and reconcile against the accumulated
/// `LaunchStats` of the same run: per-set counters vs L1 aggregates,
/// per-SM instruction counts vs the issue total, and per-launch
/// max-over-SM cycles vs accumulated wall-clock.
fn assert_reconciles(profiles: &[LaunchProfile], stats: &LaunchStats, what: &str) {
    let mut accesses = 0u64;
    let mut hits = 0u64;
    let mut offchip = 0u64;
    let mut instructions = 0u64;
    let mut cycles = 0u64;
    for p in profiles {
        cycles += p.sms.iter().map(|sm| sm.cycles).max().unwrap_or(0);
        for sm in &p.sms {
            instructions += sm.instructions;
            for set in &sm.sets {
                accesses += set.accesses;
                hits += set.hits;
                offchip += set.misses + set.stores;
            }
        }
    }
    assert_eq!(accesses, stats.l1_accesses, "{what}: l1_accesses");
    assert_eq!(hits, stats.l1_hits, "{what}: l1_hits");
    assert_eq!(offchip, stats.offchip_requests, "{what}: offchip_requests");
    assert_eq!(instructions, stats.instructions, "{what}: instructions");
    assert_eq!(cycles, stats.cycles, "{what}: cycles");
}

#[test]
fn every_registry_workload_reconciles_on_four_sms() {
    let config = four_sm_config();
    for w in registry::all_workloads() {
        let (out, profiles) = harness::run_profiled(&w, &config)
            .unwrap_or_else(|e| panic!("{}: profiled run failed: {e:?}", w.abbrev));
        assert!(!profiles.is_empty(), "{}: no profiles captured", w.abbrev);
        for p in &profiles {
            assert_stall_accounting(p, w.abbrev);
        }
        assert_reconciles(&profiles, &out, w.abbrev);
    }
}

/// A fuel-exhausted launch still yields a (partial) profile, flagged
/// `complete = false`, with its unissued slots charged to `Fuel` — the
/// one reason a completed run never shows.
#[test]
fn fuel_exhaustion_yields_partial_profile_with_fuel_stalls() {
    use catt_frontend::parse_kernel;
    use catt_ir::LaunchConfig;
    use catt_sim::{Arg, GlobalMem, Gpu};

    let k = parse_kernel(
        "__global__ void spin(float *a) {
             for (int i = 0; i >= 0; i++) { a[0] = a[0] + 1.0f; }
         }",
    )
    .unwrap();
    let mut c = four_sm_config();
    c.sim_fuel = Some(5_000);
    c.profile = Some(true);
    catt_sim::profile::set_capture(true);
    let mut mem = GlobalMem::new();
    let a = mem.alloc_zeroed(8);
    let mut gpu = Gpu::new(c);
    let err = gpu
        .launch(&k, LaunchConfig::d1(4, 32), &[Arg::Buf(a)], &mut mem)
        .unwrap_err();
    let profiles = catt_sim::profile::take_captured();
    catt_sim::profile::set_capture(false);
    assert!(matches!(err, catt_sim::SimError::FuelExhausted { .. }));
    assert_eq!(profiles.len(), 1);
    let p = &profiles[0];
    assert!(!p.complete, "fuel-cut profile must be marked partial");
    assert!(
        p.stall_totals()[StallReason::Fuel as usize] > 0,
        "the fuel cut charges its slots to Fuel"
    );
}
