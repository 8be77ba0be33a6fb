//! Fault-injection integration tests: deliberate failures (worker
//! panics, corrupt cache lines, failed transforms) must be
//! absorbed by the guard rails — faulted candidates excluded from the
//! argmin, corrupt lines skipped with a count, transforms falling back
//! to the original kernel — never crash the run.
//!
//! Plans are passed programmatically (`Engine::with_fault_plan` /
//! `Pipeline::with_fault_plan`), not through `CATT_FAULT_PLAN`, so these
//! tests cannot race each other; the variable's wiring is covered at the
//! binary (`tests/cli.rs`, the serve smoke in `scripts/check.sh`).

use catt_core::bftt::{sweep_on, CandidateOutcome};
use catt_core::engine::Engine;
use catt_core::fault::FaultPlan;
use catt_core::pipeline::Pipeline;
use catt_frontend::parse_kernel;
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, LaunchStats};
use std::sync::atomic::{AtomicUsize, Ordering};

const N: usize = 256;

fn mv_kernel() -> Kernel {
    let src = format!(
        "#define N {N}
         __global__ void mv(float *A, float *B, float *tmp) {{
             int i = blockIdx.x * blockDim.x + threadIdx.x;
             if (i < N) {{
                 for (int j = 0; j < N; j++) {{
                     tmp[i] += A[i * N + j] * B[j];
                 }}
             }}
         }}"
    );
    parse_kernel(&src).unwrap()
}

fn simulate(kernels: &[Kernel], launch: LaunchConfig, cfg: &GpuConfig) -> LaunchStats {
    let mut mem = GlobalMem::new();
    let a = mem.alloc_f32(&vec![1.0; N * N]);
    let b = mem.alloc_f32(&vec![1.0; N]);
    let tmp = mem.alloc_zeroed(N as u32);
    let mut gpu = Gpu::new(cfg.clone());
    gpu.launch(
        &kernels[0],
        launch,
        &[Arg::Buf(a), Arg::Buf(b), Arg::Buf(tmp)],
        &mut mem,
    )
    .unwrap()
}

fn contended_config() -> GpuConfig {
    let mut cfg = GpuConfig::titan_v_1sm();
    cfg.l1_cap_bytes = Some(32 * 1024);
    cfg
}

/// A non-baseline candidate whose worker panics is recorded as
/// `Faulted`, excluded from the argmin, and the sweep still returns the
/// best *healthy* setting.
#[test]
fn sweep_survives_an_injected_faulting_candidate() {
    let kernel = mv_kernel();
    let launch = LaunchConfig::d1(1, 256);
    let cfg = contended_config();
    // One worker: the engine-lifetime job counter equals the grid index,
    // so job 2 is the third sweep candidate (never the baseline).
    let engine = Engine::with_workers(1).with_fault_plan(FaultPlan {
        panic_at_job: Some(2),
        ..FaultPlan::none()
    });
    let result = sweep_on(
        &engine,
        "faulty",
        std::slice::from_ref(&kernel),
        launch,
        &cfg,
        |kernels: &[Kernel], c: &GpuConfig| simulate(kernels, launch, c),
    )
    .expect("a faulted non-baseline candidate must not fail the sweep");

    let faulted = result.faulted();
    assert_eq!(faulted.len(), 1, "exactly one candidate faulted");
    assert!(
        faulted[0].2.message.contains("fault injection"),
        "{}",
        faulted[0].2
    );
    assert_eq!(
        result.candidates.len() + 1,
        result.outcomes.len(),
        "healthy candidates plus the faulted one cover the grid"
    );
    // The faulted (n, m) is not the winner and the baseline survived.
    let best = result.best_candidate();
    assert_ne!((best.n, best.m), (faulted[0].0, faulted[0].1));
    assert_eq!((result.baseline().n, result.baseline().m), (1, 0));
    // The reference sweep (no faults) agrees on the winner unless the
    // fault happened to hit it; either way this sweep completed.
    assert!(result.best < result.candidates.len());
    for outcome in &result.outcomes {
        if let CandidateOutcome::Faulted { n, m, .. } = outcome {
            assert_eq!((*n, *m), (faulted[0].0, faulted[0].1));
        }
    }
}

/// The `corrupt-cache` fault writes one bad checksum; the next engine
/// over the same directory skips exactly that line, recomputes, and
/// leaves a clean file behind.
#[test]
fn injected_cache_corruption_is_skipped_and_repaired() {
    let dir = std::env::temp_dir().join(format!("catt-faultcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let kernel = mv_kernel();
    let launch = LaunchConfig::d1(1, 256);
    let cfg = contended_config();
    let computed = AtomicUsize::new(0);
    let run_on = |engine: &Engine| {
        engine
            .sim_app(
                "chaos",
                std::slice::from_ref(&kernel),
                &[launch],
                &cfg,
                || {
                    computed.fetch_add(1, Ordering::SeqCst);
                    simulate(std::slice::from_ref(&kernel), launch, &cfg)
                },
            )
            .expect("sim_app succeeds")
    };

    let sick = Engine::persistent(&dir).with_fault_plan(FaultPlan {
        corrupt_cache: true,
        ..FaultPlan::none()
    });
    let cold = run_on(&sick);
    assert_eq!(computed.load(Ordering::SeqCst), 1);

    // The corrupted line is skipped (counted), the entry recomputed.
    let second = Engine::persistent(&dir);
    assert_eq!(second.cache_counters().skipped, 1);
    let warm = run_on(&second);
    assert_eq!(
        computed.load(Ordering::SeqCst),
        2,
        "corrupt entry recomputed"
    );
    assert_eq!(cold.to_json_fields(), warm.to_json_fields());

    // The rewrite-on-load plus the recomputed insert leave a clean file.
    let third = Engine::persistent(&dir);
    assert_eq!(third.cache_counters().skipped, 0);
    run_on(&third);
    assert_eq!(computed.load(Ordering::SeqCst), 2, "third run is warm");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The combined plan CI's chaos runs use, `panic-job=2,corrupt-cache`,
/// over a persistent cache: the cold sweep loses exactly one candidate to
/// the panic, the next engine over the directory skips exactly one
/// corrupt line, and the warm sweep agrees with the cold one.
#[test]
fn sweep_and_cache_survive_a_combined_plan() {
    let dir = std::env::temp_dir().join(format!("catt-faultcombo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kernel = mv_kernel();
    let launch = LaunchConfig::d1(1, 256);
    let cfg = contended_config();
    // One worker keeps the lifetime job counter aligned with the sweep
    // grid, so job 2 is a non-baseline candidate deterministically.
    let chaotic = || {
        Engine::persistent(&dir)
            .with_worker_bound(1)
            .with_fault_plan(FaultPlan::parse("panic-job=2,corrupt-cache"))
    };
    let sweep = |engine: &Engine| {
        sweep_on(
            engine,
            "fault-combo",
            std::slice::from_ref(&kernel),
            launch,
            &cfg,
            |kernels: &[Kernel], c: &GpuConfig| simulate(kernels, launch, c),
        )
        .expect("sweep completes under the fault plan")
    };

    let cold = sweep(&chaotic());
    assert_eq!(cold.faulted().len(), 1);
    assert_eq!((cold.baseline().n, cold.baseline().m), (1, 0));
    assert!(cold.best_speedup() >= 1.0);

    let second = chaotic();
    assert_eq!(
        second.cache_counters().skipped,
        1,
        "one corrupt line skipped"
    );
    let warm = sweep(&second);
    assert_eq!(
        (warm.best_candidate().n, warm.best_candidate().m),
        (cold.best_candidate().n, cold.best_candidate().m),
        "warm sweep agrees with the cold one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (d): garble one line of a healthy cache file by hand; the
/// warm rerun succeeds, exactly one skipped entry is reported, and the
/// file is rewritten clean.
#[test]
fn hand_garbled_cache_line_is_skipped_with_count() {
    let dir = std::env::temp_dir().join(format!("catt-garblecache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let kernel = mv_kernel();
    let launch = LaunchConfig::d1(1, 256);
    let cfg = contended_config();
    let mut bigger = cfg.clone();
    bigger.l1_cap_bytes = Some(64 * 1024);
    let computed = AtomicUsize::new(0);
    let run_on = |engine: &Engine, c: &GpuConfig| {
        engine
            .sim_app(
                "garble",
                std::slice::from_ref(&kernel),
                &[launch],
                c,
                || {
                    computed.fetch_add(1, Ordering::SeqCst);
                    simulate(std::slice::from_ref(&kernel), launch, c)
                },
            )
            .expect("sim_app succeeds")
    };

    // Two healthy entries.
    let first = Engine::persistent(&dir);
    run_on(&first, &cfg);
    run_on(&first, &bigger);
    assert_eq!(computed.load(Ordering::SeqCst), 2);

    // Garble the middle of the first line (keeps the line count intact).
    let path = dir.join("cache.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    assert_eq!(lines.len(), 2, "one line per entry");
    let mid = lines[0].len() / 2;
    lines[0].replace_range(mid..mid + 8, "!corrupt");
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    // Warm rerun: one entry lost (recomputed), one served; skipped == 1.
    let reloaded = Engine::persistent(&dir);
    assert_eq!(reloaded.cache_counters().skipped, 1);
    run_on(&reloaded, &cfg);
    run_on(&reloaded, &bigger);
    assert_eq!(
        computed.load(Ordering::SeqCst),
        3,
        "exactly the garbled entry recomputes"
    );

    // The load rewrote the file clean; after the recompute both entries
    // parse again.
    let clean = Engine::persistent(&dir);
    assert_eq!(clean.cache_counters().skipped, 0);
    run_on(&clean, &cfg);
    run_on(&clean, &bigger);
    assert_eq!(computed.load(Ordering::SeqCst), 3, "fully warm");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `fail-transform` forces the multiversion fallback: the compiled
/// kernel is the original code with a recorded diagnostic, and the
/// pipeline still succeeds.
#[test]
fn failed_transform_falls_back_to_the_original_kernel() {
    let kernel = mv_kernel();
    let launch = LaunchConfig::d1(1, 256);
    let pipe = Pipeline::new(contended_config()).with_fault_plan(FaultPlan {
        fail_transform: true,
        ..FaultPlan::none()
    });
    let compiled = pipe
        .compile_kernel(&kernel, launch)
        .expect("pipeline succeeds");
    assert!(compiled.is_fallback());
    assert_eq!(
        compiled.transformed, kernel,
        "fallback ships the original code"
    );
    let diag = compiled.fallback_diagnostic.as_ref().unwrap();
    assert!(diag.message.contains("fault injection"), "{}", diag.message);
    assert_eq!(diag.code.as_str(), "W002", "typed fault-injection code");

    // The healthy pipeline transforms the same kernel (the fault, not
    // the kernel, caused the fallback) and multiversion surfaces the
    // diagnostics.
    let healthy = Pipeline::new(contended_config())
        .compile_kernel(&kernel, launch)
        .unwrap();
    assert!(!healthy.is_fallback());

    let mv = pipe
        .compile_multi(&kernel, &[launch])
        .expect("multiversion succeeds under fallback");
    let diags = mv.fallback_diagnostics();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].0, 0);
}
