//! SYRK — symmetric rank-k update `C = α·A·Aᵀ + β·C` (Polybench/GPU),
//! ported with the transposed operand layout (`At[k][i]`) common in tuned
//! GPU BLAS so both streams are coalesced along the warp's x-dimension.
//! This matches the paper's empirical CI classification of SYRK (its
//! Table 2 groups it cache-insensitive at the 1K input).

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_ir::Dim3;
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// C is N×N.
pub const N: usize = 96;
/// Inner dimension.
pub const K: usize = 48;
/// Scalars.
pub const ALPHA: f32 = 0.5;
/// See [`ALPHA`].
pub const BETA: f32 = 1.0;

const SRC: &str = "
#define N 96
#define K 48
__global__ void syrk_kernel(float *At, float *C, float alpha, float beta) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < N && j < N) {
        C[i * N + j] *= beta;
        for (int k = 0; k < K; k++) {
            C[i * N + j] += alpha * At[k * N + i] * At[k * N + j];
        }
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[(
    "syrk_kernel",
    LaunchConfig {
        grid: Dim3::xy(N.div_ceil(32) as u32, N.div_ceil(8) as u32),
        block: Dim3::xy(32, 8),
    },
)];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    // At is K×N: At[k][i] = A[i][k].
    let at = data::matrix("syrk:At", K, N);
    let c0 = data::matrix("syrk:C", N, N);
    let want = validate.then(|| host_reference(&at, &c0));
    let (mut mem, [bat, bc]) = GlobalMem::with_buffers([Init::F32(at), Init::F32(c0)]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![
            Arg::Buf(bat),
            Arg::Buf(bc),
            Arg::F32(ALPHA),
            Arg::F32(BETA),
        ]],
        config,
        &mut mem,
    );
    if let Some(c) = want {
        data::assert_close(mem.f32s(bc), &c, 2e-3, "SYRK C");
    }
    stats
}

/// `βC + αAAᵀ`.
fn host_reference(at: &[f32], c0: &[f32]) -> Vec<f32> {
    let mut c = c0.to_vec();
    for i in 0..N {
        for j in 0..N {
            c[i * N + j] *= BETA;
            for k in 0..K {
                c[i * N + j] += ALPHA * at[k * N + i] * at[k * N + j];
            }
        }
    }
    c
}

/// The SYRK workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "SYRK",
        name: "Symmetric rank-k operations",
        suite: "Polybench",
        group: Group::Ci,
        smem_kb: 0.0,
        input: "96x96, k=48 (transposed operand)",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn syrk_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
