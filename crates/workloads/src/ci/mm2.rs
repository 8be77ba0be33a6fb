//! 2MM — two chained matrix multiplications `D = A·B`, `E = D·C`
//! (Polybench/GPU), both with the coalesced 2-D GEMM mapping.

use crate::ci::gemm::host_gemm;
use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_ir::Dim3;
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Matrix dimension (square chain).
pub const N: usize = 64;

const SRC: &str = "
#define N 64
__global__ void mm2_kernel1(float *A, float *B, float *D) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < N && j < N) {
        for (int k = 0; k < N; k++) {
            D[i * N + j] += A[i * N + k] * B[k * N + j];
        }
    }
}
__global__ void mm2_kernel2(float *D, float *C, float *E) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < N && j < N) {
        for (int k = 0; k < N; k++) {
            E[i * N + j] += D[i * N + k] * C[k * N + j];
        }
    }
}
";

const LC: LaunchConfig = LaunchConfig {
    grid: Dim3::xy((N / 32) as u32, (N / 8) as u32),
    block: Dim3::xy(32, 8),
};
const LAUNCHES: &[(&str, LaunchConfig)] = &[("mm2_kernel1", LC), ("mm2_kernel2", LC)];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let a = data::matrix("2mm:A", N, N);
    let b = data::matrix("2mm:B", N, N);
    let c = data::matrix("2mm:C", N, N);
    let want = validate.then(|| {
        let mut d = vec![0.0f32; N * N];
        host_gemm(&a, &b, &mut d, N, N, N, 1.0, 1.0);
        let mut e = vec![0.0f32; N * N];
        host_gemm(&d, &c, &mut e, N, N, N, 1.0, 1.0);
        e
    });
    let (mut mem, [ba, bb, bc, bd, be]) = GlobalMem::with_buffers([
        Init::F32(a),
        Init::F32(b),
        Init::F32(c),
        Init::Zeroed((N * N) as u32),
        Init::Zeroed((N * N) as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LC, LC],
        &[
            vec![Arg::Buf(ba), Arg::Buf(bb), Arg::Buf(bd)],
            vec![Arg::Buf(bd), Arg::Buf(bc), Arg::Buf(be)],
        ],
        config,
        &mut mem,
    );
    if let Some(e) = want {
        data::assert_close(mem.f32s(be), &e, 5e-3, "2MM E");
    }
    stats
}

/// The 2MM workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "2MM",
        name: "Two matrix multiplications",
        suite: "Polybench",
        group: Group::Ci,
        smem_kb: 0.0,
        input: "64x64 chain",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn mm2_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
