//! SYR2K — symmetric rank-2k update `C += α·A·Bᵀ + α·B·Aᵀ`
//! (Polybench/GPU). Uses **two-dimensional thread blocks** — the case the
//! paper calls out in §4.2 where the per-warp addresses must be examined
//! along the x-dimension of the block (warps form along x first).

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_ir::Dim3;
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// C is N×N.
pub const N: usize = 128;
/// Inner dimension.
pub const K: usize = 32;
/// Scaling factor.
pub const ALPHA: f32 = 0.5;

const SRC: &str = "
#define N 128
#define K 32
__global__ void syr2k_kernel(float *A, float *B, float *C, float alpha) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    if (i < N && j < N) {
        for (int k = 0; k < K; k++) {
            C[i * N + j] += alpha * A[i * K + k] * B[j * K + k]
                          + alpha * B[i * K + k] * A[j * K + k];
        }
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[(
    "syr2k_kernel",
    LaunchConfig {
        grid: Dim3::xy((N / 16) as u32, (N / 16) as u32),
        block: Dim3::xy(16, 16),
    },
)];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let a = data::matrix("syr2k:A", N, K);
    let b = data::matrix("syr2k:B", N, K);
    let c0 = data::matrix("syr2k:C", N, N);
    let want = validate.then(|| host_reference(&a, &b, &c0));
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
        ]],
        config,
        &mut mem,
    );
    if let Some(c) = want {
        data::assert_close(mem.f32s(bc), &c, 2e-3, "SYR2K C");
    }
    stats
}

/// `C + α(ABᵀ + BAᵀ)`.
fn host_reference(a: &[f32], b: &[f32], c0: &[f32]) -> Vec<f32> {
    let mut c = c0.to_vec();
    for i in 0..N {
        for j in 0..N {
            for k in 0..K {
                c[i * N + j] +=
                    ALPHA * a[i * K + k] * b[j * K + k] + ALPHA * b[i * K + k] * a[j * K + k];
            }
        }
    }
    c
}

/// The SYR2K workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "SYR2K",
        name: "Symmetric rank-2k operations",
        suite: "Polybench",
        group: Group::Cs,
        smem_kb: 0.0,
        input: "128x128, k=32",
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
    fn multidimensional_block_analysis_finds_divergence() {
        let w = workload();
        let (out, app) =
            harness::run_catt(&w, &harness::eval_config_max_l1d()).expect("policy run succeeds");
        assert!(out.cycles > 0);
        let k = &app.kernels[0].analysis;
        // B[j*K+k] with j along x: inter-thread distance K.
        let l = &k.loops[0];
        let b = l
            .accesses
            .iter()
            .find(|a| a.array == "B" && a.c_tid == Some(K as i64))
            .expect("divergent B access");
        // Per-lane enumeration (paper §4.2): 16 x-lanes spaced K·4 = 128 B
        // apart span 16 lines (Eq. 7 alone would claim 32).
        assert_eq!(b.req_warp, 16);
        // A[i*K+k] with i along y: uniform along x, two lines from the
        // two y-rows a warp spans.
        assert!(l
            .accesses
            .iter()
            .any(|a| a.array == "A" && a.c_tid == Some(0) && a.req_warp == 2));
        assert!(l.contended);
        assert!(app.kernels[0].is_transformed());
    }
}
