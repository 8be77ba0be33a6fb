//! Each kernel form is lowered once, and the simulation cache's key space
//! did not move when the lowering moved into the passes.
//!
//! For every registry kernel at both evaluation L1D sizes, the program a
//! compile hands on is the lowering of its transformed kernel, and
//! `job_digest` over it equals the key recorded in
//! `tests/golden/job-keys.txt`. Those keys were recorded before the
//! passes kept their programs, when `job_digest` lowered the transformed
//! kernel itself, so a cache entry, and a `catt serve` key, means what it
//! meant then. The registry covers identity plans, warp splits and TB
//! throttles; one forced `W002` fallback covers the fallback path.

use catt_repro::core::engine::job_digest;
use catt_repro::core::{CompiledKernel, FaultPlan, Pipeline};
use catt_repro::diag::codes;
use catt_repro::sim::{lower, GpuConfig};
use catt_repro::workloads::harness::{eval_config_32kb_l1d, eval_config_max_l1d};
use catt_repro::workloads::registry::{all_workloads, find};

const KEYS: &str = include_str!("golden/job-keys.txt");

/// Check one compile against its recorded line
/// `<app> <l1> <kernel> <form> <key>`.
fn check(line: &str, app: &str, l1: &str, c: &CompiledKernel, cfg: &GpuConfig) {
    let relowered = lower(&c.transformed).expect("the transformed kernel lowers");
    assert_eq!(
        c.program.content_digest(),
        relowered.content_digest(),
        "{app} {l1} {}: the compile's program is not its transformed kernel's",
        c.original.name
    );
    let key = job_digest(
        "lower-once",
        std::slice::from_ref(&c.program),
        &[c.launch],
        cfg,
    );
    let form = if c.is_fallback() {
        "fail-transform"
    } else if c.is_transformed() {
        "transformed"
    } else {
        "original"
    };
    let fresh = format!("{app} {l1} {} {form} {:016x}", c.original.name, key.0);
    assert_eq!(fresh, line, "cache key moved");
}

#[test]
fn compiles_hand_on_their_lowering_under_the_recorded_keys() {
    let mut recorded = KEYS.lines();
    let mut warp_splits = 0;
    for (l1, cfg) in [
        ("32kb", eval_config_32kb_l1d()),
        ("max", eval_config_max_l1d()),
    ] {
        let pipe = Pipeline::new(cfg.clone());
        for w in all_workloads() {
            for (i, k) in w.kernels().iter().enumerate() {
                let c = pipe.compile_kernel(k, w.launch(i)).expect("compiles");
                let line = recorded.next().expect("a recorded key per kernel");
                check(line, w.abbrev, l1, &c, &cfg);
                assert!(!c.is_fallback());
                let split = c.analysis.loops.iter().any(|l| l.decision.n > 1);
                warp_splits += (split && c.is_transformed()) as u32;
            }
        }
    }
    assert!(warp_splits > 0, "no registry kernel was warp-split");

    // A forced fallback keeps the original kernel and the program
    // `analyze` lowered for it.
    let cfg = eval_config_32kb_l1d();
    let faulty = Pipeline::new(cfg.clone()).with_fault_plan(FaultPlan {
        fail_transform: true,
        ..FaultPlan::none()
    });
    let w = find("ATAX").expect("registry app");
    let c = faulty
        .compile_kernel(&w.kernels()[0], w.launch(0))
        .expect("compiles");
    assert_eq!(
        c.fallback_diagnostic.as_ref().map(|d| d.code),
        Some(codes::FAULT_FALLBACK)
    );
    assert!(!c.is_transformed());
    let line = recorded.next().expect("the fallback's recorded key");
    check(line, w.abbrev, "32kb", &c, &cfg);
    assert_eq!(recorded.next(), None, "more keys recorded than compiled");
}
