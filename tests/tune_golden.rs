//! Golden reports for the tuner, and the cost rule that each distinct
//! program it measures is simulated once.
//!
//! The cycles of every point were recorded with `tune_workload` running
//! each step one simulation at a time, before its candidates moved onto
//! the engine pool as batches. The order of the points and `evaluations`
//! were re-recorded when the climb learned to exclude a losing probe
//! (ROADMAP item 2(i)), when the swizzles that move no block of their
//! app's grids were dropped, and when the climb gave way to the measured
//! argmin of the batches: a trace now lists every healthy ladder point in
//! ladder order, then `catt`, then each swizzle, and `evaluations` counts
//! distinct programs. None of these changed a point's cycles. GSMV, CORR,
//! CFD and BT are fast apps; BT is the one whose tuned point used to stay
//! at baseline under a faster BFTT column. This file is its own test
//! binary with a single engine-using test, so the process-wide engine's
//! cache counters count only the calls made here.

use catt_repro::core::bftt::{candidate_grid, resident_tbs, uniform};
use catt_repro::core::engine::{job_digest, Engine};
use catt_repro::core::{cta_swizzle, moves_a_block, SwizzlePolicy};
use catt_repro::diag::json::{self, Json};
use catt_repro::ir::Kernel;
use catt_repro::tune::{tune_workload, TuneOptions, TuneReport};
use catt_repro::workloads::harness::{compile_catt, eval_config_max_l1d, run_bftt};
use catt_repro::workloads::registry::{find, Workload};
use std::collections::BTreeSet;

struct Golden {
    app: &'static str,
    /// `(what, cycles, gated)` per measured point, in measurement order.
    trace: &'static [(&'static str, u64, bool)],
    evaluations: u32,
    /// `TunedChoice::describe()` and cycles of the winner.
    tuned: (&'static str, u64),
    catt_cycles: Option<u64>,
    bftt_cycles: Option<u64>,
}

const GOLDEN: [Golden; 4] = [
    Golden {
        app: "GSMV",
        trace: &[
            ("baseline", 390329, false),
            ("n=2 m=0", 149173, false),
            ("n=4 m=0", 136158, false),
            ("n=8 m=0", 194537, false),
            ("n=8 m=1", 343433, false),
            ("n=8 m=2", 343433, false),
            ("n=8 m=3", 343433, false),
            ("n=8 m=4", 343433, false),
            ("n=8 m=5", 343433, false),
            ("n=8 m=6", 343433, false),
            ("n=8 m=7", 343433, false),
            ("catt", 149173, false),
            ("xor=1", 390233, true),
        ],
        evaluations: 12,
        tuned: ("n=4 m=0", 136158),
        catt_cycles: Some(149173),
        bftt_cycles: Some(136158),
    },
    Golden {
        app: "CORR",
        trace: &[
            ("baseline", 726321, false),
            ("n=2 m=0", 908416, false),
            ("n=4 m=0", 1317113, false),
            ("n=8 m=0", 2332141, false),
            ("n=8 m=1", 2462224, false),
            ("n=8 m=2", 2462224, false),
            ("n=8 m=3", 2586990, false),
            ("n=8 m=4", 2586990, false),
            ("n=8 m=5", 2586990, false),
            ("n=8 m=6", 2618084, false),
            ("n=8 m=7", 2618116, false),
            ("catt", 726321, false),
        ],
        evaluations: 11,
        tuned: ("baseline", 726321),
        catt_cycles: Some(726321),
        bftt_cycles: Some(726321),
    },
    Golden {
        app: "CFD",
        trace: &[
            ("baseline", 165264, false),
            ("n=2 m=0", 165264, false),
            ("n=3 m=0", 165264, false),
            ("n=6 m=0", 165264, false),
            ("n=6 m=1", 543864, false),
            ("n=6 m=2", 543864, false),
            ("n=6 m=3", 543864, false),
            ("n=6 m=4", 543864, false),
            ("n=6 m=5", 544419, false),
            ("n=6 m=6", 544419, false),
            ("n=6 m=7", 544419, false),
            ("n=6 m=8", 680505, false),
            ("n=6 m=9", 812385, false),
            ("catt", 165264, false),
            ("xor=1", 165342, true),
            ("xor=3", 165477, true),
        ],
        evaluations: 12,
        tuned: ("baseline", 165264),
        catt_cycles: Some(165264),
        bftt_cycles: Some(165264),
    },
    // The tuned point is the BFTT column's `n=2`, not the baseline.
    Golden {
        app: "BT",
        trace: &[
            ("baseline", 37576, false),
            ("n=2 m=0", 37440, false),
            ("n=4 m=0", 45447, false),
            ("n=8 m=0", 95271, false),
            ("n=8 m=1", 356540, false),
            ("n=8 m=2", 356540, false),
            ("n=8 m=3", 356540, false),
            ("n=8 m=4", 356540, false),
            ("n=8 m=5", 356540, false),
            ("n=8 m=6", 356540, false),
            ("n=8 m=7", 356540, false),
            ("catt", 37576, false),
            ("xor=1", 37867, true),
            ("xor=3", 37744, true),
        ],
        evaluations: 13,
        tuned: ("n=2 m=0", 37440),
        catt_cycles: Some(37576),
        bftt_cycles: Some(37440),
    },
];

fn check_against_golden(r: &TuneReport, g: &Golden) {
    let trace: Vec<(&str, u64, bool)> = r
        .trace
        .iter()
        .map(|t| (t.what.as_str(), t.cycles, t.gated))
        .collect();
    assert_eq!(trace, g.trace, "{}: trace", g.app);
    assert_eq!(r.evaluations, g.evaluations, "{}: evaluations", g.app);
    assert_eq!(
        (r.tuned.describe().as_str(), r.tuned.cycles),
        g.tuned,
        "{}: tuned",
        g.app
    );
    assert_eq!(r.catt_cycles, g.catt_cycles, "{}: catt_cycles", g.app);
    assert_eq!(r.bftt_cycles, g.bftt_cycles, "{}: bftt_cycles", g.app);
}

/// Cache keys of every program one `tune_workload` call measures: the
/// whole throttle ladder (the BFTT column sweeps all of it, the baseline
/// is its first point), static CATT, and each CTA swizzle that moves a
/// block of some kernel's grid, at the tuned throttle point.
fn measured_programs(w: &Workload, r: &TuneReport) -> BTreeSet<u64> {
    let cfg = eval_config_max_l1d();
    let kernels = w.kernels();
    let launch = w.block_launch();
    let warps = launch.warps_per_block();
    let resident = resident_tbs(&kernels, launch, &cfg);
    let ladder =
        |ks: &[Kernel], nm| uniform(ks, None, nm, (warps, resident), cfg.smem_carveout_bytes);
    let key = |kernels: &[Kernel]| {
        let programs: Vec<_> = kernels
            .iter()
            .map(|k| catt_repro::sim::lower(k).expect("registry kernels lower"))
            .collect();
        job_digest(w.abbrev, &programs, &[w.launch(0)], &cfg).0
    };
    let mut keys: BTreeSet<u64> = candidate_grid(warps, resident)
        .into_iter()
        .map(|nm| key(&ladder(&kernels, nm)))
        .collect();
    keys.insert(key(&compile_catt(w, &cfg)
        .expect("CATT compiles")
        .transformed_kernels()));
    for policy in SwizzlePolicy::candidates() {
        let grid = |i: usize| {
            let g = w.launch(i).grid;
            (g.x, g.y, g.z)
        };
        if !(0..kernels.len()).any(|i| moves_a_block(policy, grid(i))) {
            continue;
        }
        let swizzled: Vec<Kernel> = (0..kernels.len())
            .map(|i| {
                cta_swizzle(&kernels[i], policy, grid(i)).unwrap_or_else(|| kernels[i].clone())
            })
            .collect();
        keys.insert(key(&ladder(&swizzled, (r.tuned.n, r.tuned.m))));
    }
    keys
}

#[test]
fn tuner_matches_golden_and_simulates_each_program_once() {
    let cfg = eval_config_max_l1d();
    let opts = TuneOptions::default();
    let misses = || Engine::global().cache_counters().misses;
    for g in &GOLDEN {
        let w = find(g.app).expect("registry app");
        let before = misses();
        let r = tune_workload(&w, &cfg, &opts).expect("tuning succeeds");
        let spent = misses() - before;
        check_against_golden(&r, g);
        r.self_check(&opts).expect("self-check holds");
        // The profiled baseline seeds the baseline's entry without a
        // lookup; every other distinct program misses exactly once.
        let distinct = measured_programs(&w, &r).len() as u64;
        assert_eq!(
            spent,
            distinct - 1,
            "{}: {spent} cache misses for {distinct} distinct programs",
            g.app
        );
        assert_eq!(r.evaluations as u64, distinct, "{}: evaluations", g.app);
        // A repeated call reads everything back from the cache.
        let before = misses();
        let again = tune_workload(&w, &cfg, &opts).expect("tuning succeeds");
        assert_eq!(misses() - before, 0, "{}: a repeated call missed", g.app);
        check_against_golden(&again, g);
        // The tuner's BFTT column is the best point of the sweep itself.
        let sweep = run_bftt(&w, &cfg).expect("the sweep succeeds");
        assert_eq!(
            r.bftt_cycles,
            Some(sweep.best_candidate().stats.cycles),
            "{}: BFTT column",
            g.app
        );
    }
}

/// The `catt tune --out` golden that `scripts/check.sh` diffs against is
/// itself well-formed JSON with one entry per tuned app.
#[test]
fn tune_summary_golden_is_valid_json() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/tune-DM-ATAX.json"
    );
    let text = std::fs::read_to_string(path).expect("golden exists");
    let v = json::parse(&text).expect("golden parses");
    let Some(Json::Arr(apps)) = v.get("apps") else {
        panic!("no `apps` array in {path}")
    };
    let names: Vec<_> = apps.iter().filter_map(|a| a.get("app")?.as_str()).collect();
    assert_eq!(names, ["DM", "ATAX"]);
}
