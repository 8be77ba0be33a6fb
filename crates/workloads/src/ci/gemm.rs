//! GEMM — `C = α·A·B + β·C` (Polybench/GPU), the canonical coalesced
//! kernel: with 2-D blocks the row index comes from `threadIdx.y`, so both
//! input streams are uniform or unit-stride along the warp's x-dimension
//! and the L1D footprint stays far below capacity.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_ir::Dim3;
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Rows of C.
pub const NI: usize = 96;
/// Columns of C.
pub const NJ: usize = 96;
/// Inner dimension.
pub const NK: usize = 64;
/// GEMM scalars.
pub const ALPHA: f32 = 1.25;
/// See [`ALPHA`].
pub const BETA: f32 = 0.75;

const SRC: &str = "
#define NI 96
#define NJ 96
#define NK 64
__global__ void gemm_kernel(float *A, float *B, float *C, float alpha, float beta) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < NI && j < NJ) {
        C[i * NJ + j] *= beta;
        for (int k = 0; k < NK; k++) {
            C[i * NJ + j] += alpha * A[i * NK + k] * B[k * NJ + j];
        }
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[(
    "gemm_kernel",
    LaunchConfig {
        grid: Dim3::xy(NJ.div_ceil(32) as u32, NI.div_ceil(8) as u32),
        block: Dim3::xy(32, 8),
    },
)];

/// Host GEMM used by 2MM/3MM as well.
#[allow(clippy::too_many_arguments)]
pub(crate) fn host_gemm(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    ni: usize,
    nj: usize,
    nk: usize,
    alpha: f32,
    beta: f32,
) {
    for i in 0..ni {
        for j in 0..nj {
            c[i * nj + j] *= beta;
            for k in 0..nk {
                c[i * nj + j] += alpha * a[i * nk + k] * b[k * nj + j];
            }
        }
    }
}

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let a = data::matrix("gemm:A", NI, NK);
    let b = data::matrix("gemm:B", NK, NJ);
    let c0 = data::matrix("gemm:C", NI, NJ);
    let want = validate.then(|| {
        let mut c = c0.clone();
        host_gemm(&a, &b, &mut c, NI, NJ, NK, ALPHA, BETA);
        c
    });
    let (mut mem, [ba, bb, bc]) =
        GlobalMem::with_buffers([Init::F32(a), Init::F32(b), Init::F32(c0)]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![
            Arg::Buf(ba),
            Arg::Buf(bb),
            Arg::Buf(bc),
            Arg::F32(ALPHA),
            Arg::F32(BETA),
        ]],
        config,
        &mut mem,
    );
    if let Some(c) = want {
        data::assert_close(mem.f32s(bc), &c, 2e-3, "GEMM C");
    }
    stats
}

/// The GEMM workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "GEMM",
        name: "Matrix multiply",
        suite: "Polybench",
        group: Group::Ci,
        smem_kb: 0.0,
        input: "96x96, k=64",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn gemm_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
