//! Fault-injection integration tests: deliberate failures (worker
//! panics, failed transforms) must be absorbed by the guard rails —
//! faulted candidates excluded from the argmin, transforms falling back
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
        result.outcomes.iter().filter_map(|o| o.healthy()).count() + 1,
        result.outcomes.len(),
        "healthy candidates plus the faulted one cover the grid"
    );
    // The faulted (n, m) is not the winner and the baseline survived.
    let best = result.best_candidate();
    assert_ne!((best.n, best.m), (faulted[0].0, faulted[0].1));
    assert_eq!((result.baseline().n, result.baseline().m), (1, 0));
    // The reference sweep (no faults) agrees on the winner unless the
    // fault happened to hit it; either way this sweep completed.
    assert!(result.best < result.outcomes.len());
    for outcome in &result.outcomes {
        if let CandidateOutcome::Faulted { n, m, .. } = outcome {
            assert_eq!((*n, *m), (faulted[0].0, faulted[0].1));
        }
    }
}

/// `fail-transform` forces the transform stage's fallback: the compiled
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
    // the kernel, caused the fallback).
    let healthy = Pipeline::new(contended_config())
        .compile_kernel(&kernel, launch)
        .unwrap();
    assert!(!healthy.is_fallback());
}
