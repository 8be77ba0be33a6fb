//! 3MM — three chained matrix multiplications `E = A·B`, `F = C·D`,
//! `G = E·F` (Polybench/GPU), coalesced 2-D GEMM mapping throughout.

use crate::ci::gemm::host_gemm;
use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_ir::Dim3;
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Matrix dimension.
pub const N: usize = 64;

const SRC: &str = "
#define N 64
__global__ void mm3_kernel1(float *A, float *B, float *E) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < N && j < N) {
        for (int k = 0; k < N; k++) {
            E[i * N + j] += A[i * N + k] * B[k * N + j];
        }
    }
}
__global__ void mm3_kernel2(float *C, float *D, float *F) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < N && j < N) {
        for (int k = 0; k < N; k++) {
            F[i * N + j] += C[i * N + k] * D[k * N + j];
        }
    }
}
__global__ void mm3_kernel3(float *E, float *F, float *G) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < N && j < N) {
        for (int k = 0; k < N; k++) {
            G[i * N + j] += E[i * N + k] * F[k * N + j];
        }
    }
}
";

const LC: LaunchConfig = LaunchConfig {
    grid: Dim3::xy((N / 32) as u32, (N / 8) as u32),
    block: Dim3::xy(32, 8),
};
const LAUNCHES: &[(&str, LaunchConfig)] = &[
    ("mm3_kernel1", LC),
    ("mm3_kernel2", LC),
    ("mm3_kernel3", LC),
];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let a = data::matrix("3mm:A", N, N);
    let b = data::matrix("3mm:B", N, N);
    let c = data::matrix("3mm:C", N, N);
    let d = data::matrix("3mm:D", N, N);
    let want = validate.then(|| {
        let mut e = vec![0.0f32; N * N];
        host_gemm(&a, &b, &mut e, N, N, N, 1.0, 1.0);
        let mut f = vec![0.0f32; N * N];
        host_gemm(&c, &d, &mut f, N, N, N, 1.0, 1.0);
        let mut g = vec![0.0f32; N * N];
        host_gemm(&e, &f, &mut g, N, N, N, 1.0, 1.0);
        g
    });
    let (mut mem, [ba, bb, bc, bd, be, bf, bg]) = GlobalMem::with_buffers([
        Init::F32(a),
        Init::F32(b),
        Init::F32(c),
        Init::F32(d),
        Init::Zeroed((N * N) as u32),
        Init::Zeroed((N * N) as u32),
        Init::Zeroed((N * N) as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LC, LC, LC],
        &[
            vec![Arg::Buf(ba), Arg::Buf(bb), Arg::Buf(be)],
            vec![Arg::Buf(bc), Arg::Buf(bd), Arg::Buf(bf)],
            vec![Arg::Buf(be), Arg::Buf(bf), Arg::Buf(bg)],
        ],
        config,
        &mut mem,
    );
    if let Some(g) = want {
        data::assert_close(mem.f32s(bg), &g, 2e-2, "3MM G");
    }
    stats
}

/// The 3MM workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "3MM",
        name: "Three matrix multiplications",
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
    fn mm3_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
