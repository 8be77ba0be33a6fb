//! # catt-profile — the repo's nvprof
//!
//! Consumers of the profiles recorded by `catt-sim`'s in-simulator tracer
//! (see `catt_sim::profile` for the event model). Three views of a
//! [`LaunchProfile`]:
//!
//! * [`chrome`] — a Chrome `trace_event` JSON file: per-warp exec/barrier
//!   timelines and per-slot block-residency spans, loadable in
//!   `chrome://tracing` / Perfetto. A throttled kernel's warp-group
//!   alternation is directly visible.
//! * [`report`] — nvprof-style text: the stall-reason breakdown (what
//!   fraction of issue slots went to memory, scoreboard, barrier, ...)
//!   and a per-set L1D heat map exposing conflict pathologies.
//! * [`model`] — the validation loop the paper argues from: the static
//!   Eq. 8 footprint (`SIZE_req`) per loop against the *observed*
//!   unique-line working set and miss rate of the profiled run.
//!
//! [`check_invariants`] and [`check_against_stats`] re-verify on every
//! consumer run that profiles reconcile exactly with the simulator's own
//! counters — profiling that disagrees with the stats it annotates is
//! worse than no profiling.

pub mod chrome;
pub mod model;
pub mod report;

pub use catt_sim::{LaunchProfile, SetCounters, SmProfile, StallReason};

use catt_sim::LaunchStats;

/// Verify the internal accounting invariants of a completed profile:
/// every issue slot of every SM is either an issued instruction or a
/// stall charged to exactly one reason, and fuel stalls only appear in
/// partial (errored) profiles. Returns a description of the first
/// violation.
pub fn check_invariants(p: &LaunchProfile) -> Result<(), String> {
    if !p.complete {
        return Err(format!(
            "`{}`: profile is partial (the launch errored); invariants only hold for complete runs",
            p.kernel
        ));
    }
    for sm in &p.sms {
        let slots = sm.issue_slots();
        let used = sm.instructions + sm.total_stall_cycles();
        if used != slots {
            return Err(format!(
                "`{}` SM {}: {} instructions + {} stall cycles != {} issue slots ({} cycles x {} schedulers)",
                p.kernel,
                sm.sm_id,
                sm.instructions,
                sm.total_stall_cycles(),
                slots,
                sm.cycles,
                sm.schedulers
            ));
        }
        let fuel = sm.stall_cycles[StallReason::Fuel as usize];
        if fuel != 0 {
            return Err(format!(
                "`{}` SM {}: {fuel} fuel stall cycles in a completed launch",
                p.kernel, sm.sm_id
            ));
        }
    }
    Ok(())
}

/// Verify that profiles reconcile with the accumulated [`LaunchStats`]
/// of the same run: per-set counters must sum to the aggregate L1
/// counters, per-SM instruction and cycle shards to the aggregate
/// totals. `stats` is the accumulated stats over exactly the launches
/// `profiles` describes (e.g. the stats and profiles one
/// `run_profiled` returns).
pub fn check_against_stats(profiles: &[LaunchProfile], stats: &LaunchStats) -> Result<(), String> {
    let mut accesses = 0u64;
    let mut hits = 0u64;
    let mut misses_and_stores = 0u64;
    let mut instructions = 0u64;
    let mut cycles = 0u64;
    let mut l2_accesses = 0u64;
    let mut l2_hits = 0u64;
    let mut l2_evictions = 0u64;
    for p in profiles {
        check_invariants(p)?;
        for t in p.set_totals() {
            accesses += t.accesses;
            hits += t.hits;
            misses_and_stores += t.misses + t.stores;
        }
        instructions += p.instructions();
        // A launch's cycle count is the max over its SMs (they run
        // concurrently); accumulated stats sum the launches.
        cycles += p.sms.iter().map(|s| s.cycles).max().unwrap_or(0);
        for sm in &p.sms {
            l2_accesses += sm.l2_accesses;
            l2_hits += sm.l2_hits;
            l2_evictions += sm.l2_evictions;
        }
    }
    let checks = [
        ("l1_accesses", accesses, stats.l1_accesses),
        ("l1_hits", hits, stats.l1_hits),
        (
            "offchip_requests",
            misses_and_stores,
            stats.offchip_requests,
        ),
        ("instructions", instructions, stats.instructions),
        ("cycles", cycles, stats.cycles),
        ("l2_accesses", l2_accesses, stats.l2_accesses),
        ("l2_hits", l2_hits, stats.l2_hits),
        ("l2_evictions", l2_evictions, stats.l2_evictions),
    ];
    for (name, profiled, reported) in checks {
        if profiled != reported {
            return Err(format!(
                "profile/stats mismatch on {name}: profiles sum to {profiled}, stats report {reported}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_workloads::harness::run_profiled;
    use catt_workloads::registry;

    #[test]
    fn profiles_reconcile_with_stats_end_to_end() {
        let w = registry::find("ATAX").expect("registry has ATAX");
        let config = catt_workloads::harness::eval_config_max_l1d();
        let (out, profiles) = run_profiled(&w, &config).expect("profiled run");
        assert!(!profiles.is_empty(), "capture must deliver profiles");
        check_against_stats(&profiles, &out).unwrap();
    }
}
