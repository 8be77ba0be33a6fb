//! ATAX — matrix transpose and vector multiplication, `y = Aᵀ(A·x)`
//! (Polybench/GPU). The paper's running example (Fig. 1/4/5).
//!
//! Kernel 1 walks rows (`A[i*NY+j]`, inter-thread distance `NY` — fully
//! memory-divergent, the contended phase); kernel 2 walks columns
//! (`A[i*NY+j]` with `j = tid` — coalesced). The two contrasting phases
//! are why CATT beats one-setting-per-app BFTT here (§5.1).

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Rows of A (= threads of kernel 1).
pub const NX: usize = 1280;
/// Columns of A (= trip count of kernel 1, threads of kernel 2).
pub const NY: usize = 1024;

const SRC: &str = "
#define NX 1280
#define NY 1024
__global__ void atax_kernel1(float *A, float *x, float *tmp) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NX) {
        for (int j = 0; j < NY; j++) {
            tmp[i] += A[i * NY + j] * x[j];
        }
    }
}
__global__ void atax_kernel2(float *A, float *tmp, float *y) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (j < NY) {
        for (int i = 0; i < NX; i++) {
            y[j] += A[i * NY + j] * tmp[i];
        }
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[
    ("atax_kernel1", LaunchConfig::d1((NX / 256) as u32, 256)),
    ("atax_kernel2", LaunchConfig::d1((NY / 256) as u32, 256)),
];

fn host_reference(a: &[f32], x: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let mut tmp = vec![0.0f32; NX];
    for i in 0..NX {
        for j in 0..NY {
            tmp[i] += a[i * NY + j] * x[j];
        }
    }
    let mut y = vec![0.0f32; NY];
    for j in 0..NY {
        for i in 0..NX {
            y[j] += a[i * NY + j] * tmp[i];
        }
    }
    (tmp, y)
}

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let a = data::matrix("atax:A", NX, NY);
    let x = data::vector("atax:x", NY);
    let want = validate.then(|| host_reference(&a, &x));
    let (mut mem, [ba, bx, btmp, by]) = GlobalMem::with_buffers([
        Init::F32(a),
        Init::F32(x),
        Init::Zeroed(NX as u32),
        Init::Zeroed(NY as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1, LAUNCHES[1].1],
        &[
            vec![Arg::Buf(ba), Arg::Buf(bx), Arg::Buf(btmp)],
            vec![Arg::Buf(ba), Arg::Buf(btmp), Arg::Buf(by)],
        ],
        config,
        &mut mem,
    );
    if let Some((tmp, y)) = want {
        data::assert_close(mem.f32s(btmp), &tmp, 2e-3, "ATAX tmp");
        data::assert_close(mem.f32s(by), &y, 5e-2, "ATAX y");
    }
    stats
}

/// The ATAX workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "ATAX",
        name: "Matrix transpose and vector multiplication",
        suite: "Polybench",
        group: Group::Cs,
        smem_kb: 0.0,
        input: "1280x1024",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;

    #[test]
    fn baseline_validates() {
        let w = workload();
        let out = harness::run_baseline(&w, &harness::eval_config_max_l1d())
            .expect("policy run succeeds");
        assert!(out.cycles > 0);
    }

    #[test]
    fn catt_throttles_kernel1_only_and_validates() {
        let w = workload();
        let cfg = harness::eval_config_max_l1d();
        let (out, app) = harness::run_catt(&w, &cfg).expect("policy run succeeds");
        assert!(app.kernels[0].is_transformed(), "kernel 1 is contended");
        assert!(!app.kernels[1].is_transformed(), "kernel 2 is coalesced");
        assert!(out.cycles > 0);
        // Table 3 shape (Max. L1D): CATT halves the warps of kernel 1's
        // loop (the paper's (8,4) -> (4,4) at its scale; (8,5) -> (4,5)
        // at ours).
        let k1 = &app.kernels[0].analysis;
        assert_eq!(k1.baseline_tlp(), (8, 5));
        assert_eq!(
            k1.loops[0].tlp(k1.warps_per_tb, k1.plan.resident_tbs),
            (4, 5)
        );
    }

    #[test]
    fn catt_32kb_picks_one_warp() {
        // Table 3 shape (32 KB L1D): kernel 1 throttled to one warp.
        let w = workload();
        let cfg = harness::eval_config_32kb_l1d();
        let (_, app) = harness::run_catt(&w, &cfg).expect("policy run succeeds");
        let k1 = &app.kernels[0].analysis;
        assert_eq!(
            k1.loops[0].tlp(k1.warps_per_tb, k1.plan.resident_tbs),
            (1, 5)
        );
    }
}
