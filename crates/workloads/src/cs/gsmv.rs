//! GSMV — scalar, vector and matrix multiplication (Polybench/GPU
//! `gesummv`): `y = α·A·x + β·B·x` in one kernel. *Two* row-walking
//! matrices double the divergent footprint, and the contention level is
//! uniform over the whole run — the case where CATT and BFTT tie (§5.1).

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Rows (one thread each; paper Table 3 runs GSMV at 2 blocks per SM).
pub const N: usize = 512;
/// Columns / trip count.
pub const NY: usize = 96;
/// α and β of gesummv.
pub const ALPHA: f32 = 1.5;
/// See [`ALPHA`].
pub const BETA: f32 = 0.75;

const SRC: &str = "
#define N 512
#define NY 96
__global__ void gesummv_kernel(float *A, float *B, float *x, float *y, float alpha, float beta) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < N) {
        float ta = 0.0f;
        float tb = 0.0f;
        for (int j = 0; j < NY; j++) {
            ta += A[i * NY + j] * x[j];
            tb += B[i * NY + j] * x[j];
        }
        y[i] = alpha * ta + beta * tb;
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] =
    &[("gesummv_kernel", LaunchConfig::d1((N / 256) as u32, 256))];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let a = data::matrix("gsmv:A", N, NY);
    let b = data::matrix("gsmv:B", N, NY);
    let x = data::vector("gsmv:x", NY);
    let want = validate.then(|| host_reference(&a, &b, &x));
    let (mut mem, [ba, bb, bx, by]) = GlobalMem::with_buffers([
        Init::F32(a),
        Init::F32(b),
        Init::F32(x),
        Init::Zeroed(N as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![
            Arg::Buf(ba),
            Arg::Buf(bb),
            Arg::Buf(bx),
            Arg::Buf(by),
            Arg::F32(ALPHA),
            Arg::F32(BETA),
        ]],
        config,
        &mut mem,
    );
    if let Some(y) = want {
        data::assert_close(mem.f32s(by), &y, 2e-3, "GSMV y");
    }
    stats
}

/// `y = αAx + βBx`.
fn host_reference(a: &[f32], b: &[f32], x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; N];
    for i in 0..N {
        let (mut ta, mut tb) = (0.0f32, 0.0f32);
        for j in 0..NY {
            ta += a[i * NY + j] * x[j];
            tb += b[i * NY + j] * x[j];
        }
        y[i] = ALPHA * ta + BETA * tb;
    }
    y
}

/// The GSMV workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "GSMV",
        name: "Scalar, vector and matrix multiplication",
        suite: "Polybench",
        group: Group::Cs,
        smem_kb: 0.0,
        input: "512x96 (x2 matrices)",
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
    fn table3_row_gsmv() {
        let w = workload();
        // Max L1D: baseline (8, 2) → CATT (4, 2); 32 KB: (1, 2).
        let (_, app) =
            harness::run_catt(&w, &harness::eval_config_max_l1d()).expect("policy run succeeds");
        let k = &app.kernels[0].analysis;
        assert_eq!(k.baseline_tlp(), (8, 2));
        assert_eq!(k.loops[0].tlp(k.warps_per_tb, k.plan.resident_tbs), (4, 2));
        let (_, app) =
            harness::run_catt(&w, &harness::eval_config_32kb_l1d()).expect("policy run succeeds");
        let k = &app.kernels[0].analysis;
        assert_eq!(k.loops[0].tlp(k.warps_per_tb, k.plan.resident_tbs), (1, 2));
    }
}
