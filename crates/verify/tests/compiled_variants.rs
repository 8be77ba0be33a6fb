//! The differential oracle applied to what the compiler emits.
//!
//! `catt fuzz` checks the variants `variant_recipes` enumerates, and in
//! legal mode those split only the loops `eligible_loops_for` admits,
//! which are top-level. `legalize` also splits a nested loop that has no
//! selected ancestor (KM kernel #1's inner feature loop). This test
//! compiles kernels with `Pipeline::compile_kernel` on a GPU small enough
//! to throttle them, and demands that each transformed kernel leave
//! global memory bit-exact and keep the original's outcome class.

use catt_core::passes::legalize;
use catt_core::{CompiledKernel, Pipeline};
use catt_frontend::parse_kernel;
use catt_ir::LaunchConfig;
use catt_sim::GpuConfig;
use catt_verify::generate::{generate_case, GenOptions, TestCase};
use catt_verify::oracle::CaseImage;

/// Generated kernels compiled at each L1D size.
const SEEDS: u64 = 400;

/// The compile targets: the oracle's one-SM GPU with L1D caps small
/// enough that the generator's short loops overflow them (a larger cap
/// throttles fewer kernels, a smaller one leaves more loops unresolved).
fn targets() -> impl Iterator<Item = GpuConfig> {
    [1024, 2048, 4096, 8192].into_iter().map(|l1| {
        let mut c = GpuConfig::small();
        c.l1_cap_bytes = Some(l1);
        c
    })
}

/// Warp splits the compiled plan applied to nested loops.
fn nested_splits(case: &TestCase, compiled: &CompiledKernel) -> usize {
    let plan = legalize(&case.kernel, &compiled.analysis, &mut Vec::new());
    plan.warp
        .iter()
        .filter(|(id, _)| {
            compiled
                .analysis
                .loops
                .iter()
                .any(|l| l.loop_id == *id && l.parent.is_some())
        })
        .count()
}

/// Compile `case` and, when the compiler rewrote it, compare the rewrite
/// with the original. Returns the nested splits checked, `None` when the
/// kernel came back unchanged or its original is dirty.
fn check_compiled(pipe: &Pipeline, case: &TestCase) -> Option<usize> {
    let compiled = pipe
        .compile_kernel(&case.kernel, case.launch)
        .unwrap_or_else(|e| panic!("{e}\n{}", catt_ir::printer::kernel_to_string(&case.kernel)));
    assert!(
        !compiled.is_fallback(),
        "{:?}",
        compiled.fallback_diagnostic
    );
    if !compiled.is_transformed() {
        return None;
    }
    let image = CaseImage::new(case);
    let (base_class, base_mem) = image.run(&case.kernel, case.launch);
    if base_class.starts_with("sanitizer") {
        return None;
    }
    let (class, mem) = image.run(&compiled.transformed, case.launch);
    assert_eq!(
        class, base_class,
        "compiled kernel changed the outcome class:\n{}",
        compiled.emitted_source
    );
    assert!(
        mem == base_mem,
        "compiled kernel changed global memory:\n{}",
        compiled.emitted_source
    );
    Some(nested_splits(case, &compiled))
}

/// KM kernel #1's shape: a contended inner loop under an outer loop that
/// touches no global memory of its own, so `legalize` splits the inner
/// one.
fn km_shaped() -> TestCase {
    let kernel = parse_kernel(
        "#define P 256
         #define F 16
         #define K 4
         __global__ void membership(float *features, float *clusters, float *out) {
             int i = blockIdx.x * blockDim.x + threadIdx.x;
             if (i < P) {
                 float best = 1e30f;
                 float best_c = 0.0f;
                 for (int c = 0; c < K; c++) {
                     float dist = 0.0f;
                     for (int f = 0; f < F; f++) {
                         float d = features[i * F + f] - clusters[c * F + f];
                         dist += d * d;
                     }
                     if (dist < best) {
                         best = dist;
                         best_c = c;
                     }
                 }
                 out[i] = best_c + best;
             }
         }",
    )
    .expect("parses");
    TestCase {
        kernel,
        launch: LaunchConfig::d1(2, 128),
        buffers: vec![
            ("features".into(), 256 * 16),
            ("clusters".into(), 4 * 16),
            ("out".into(), 256),
        ],
    }
}

#[test]
fn compiled_kernels_match_their_originals() {
    let km = check_compiled(&Pipeline::new(GpuConfig::small()), &km_shaped())
        .expect("the KM-shaped kernel is throttled");
    assert_eq!(km, 1, "the KM-shaped kernel's inner loop is split");

    let opts = GenOptions { dirty_p: 0.0 };
    let (mut transformed, mut nested) = (0, km);
    for pipe in targets().map(Pipeline::new) {
        for seed in 0..SEEDS {
            if let Some(n) = check_compiled(&pipe, &generate_case(seed, &opts)) {
                transformed += 1;
                nested += n;
            }
        }
    }
    eprintln!(
        "compiled oracle: {transformed} transformed kernels checked, \
         {nested} nested split(s) among them"
    );
    assert!(transformed > 0, "no generated kernel was throttled");
    assert!(nested > km, "no generated kernel had a nested loop split");
}
