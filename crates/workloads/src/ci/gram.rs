//! GRAM — Gram-Schmidt orthonormalization sweep (Polybench/GPU
//! `gramschmidt`). One thread per column, row-major storage: every access
//! is unit-stride along the warp, so the footprint stays small.
//!
//! Kernels: column norms, normalization, and projection coefficients
//! against the first column (one modified-GS step — representative of the
//! per-column kernels Polybench launches in a host loop).

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Rows.
pub const R: usize = 128;
/// Columns (one thread each).
pub const C: usize = 256;

const SRC: &str = "
#define R 128
#define C 256
__global__ void gram_norm(float *A, float *nrm) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (j < C) {
        for (int i = 0; i < R; i++) {
            nrm[j] += A[i * C + j] * A[i * C + j];
        }
        nrm[j] = sqrtf(nrm[j]) + 0.001f;
    }
}
__global__ void gram_normalize(float *A, float *nrm, float *Q) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (j < C) {
        for (int i = 0; i < R; i++) {
            Q[i * C + j] = A[i * C + j] / nrm[j];
        }
    }
}
__global__ void gram_project(float *Q, float *rmat) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (j < C) {
        for (int i = 0; i < R; i++) {
            rmat[j] += Q[i * C] * Q[i * C + j];
        }
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[
    ("gram_norm", LaunchConfig::d1(1, 256)),
    ("gram_normalize", LaunchConfig::d1(1, 256)),
    ("gram_project", LaunchConfig::d1(1, 256)),
];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let a = data::matrix("gram:A", R, C);
    let want = validate.then(|| host_reference(&a));
    let (mut mem, [ba, bn, bq, br]) = GlobalMem::with_buffers([
        Init::F32(a),
        Init::Zeroed(C as u32),
        Init::Zeroed((R * C) as u32),
        Init::Zeroed(C as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1, LAUNCHES[1].1, LAUNCHES[2].1],
        &[
            vec![Arg::Buf(ba), Arg::Buf(bn)],
            vec![Arg::Buf(ba), Arg::Buf(bn), Arg::Buf(bq)],
            vec![Arg::Buf(bq), Arg::Buf(br)],
        ],
        config,
        &mut mem,
    );
    if let Some((nrm, rmat)) = want {
        data::assert_close(mem.f32s(bn), &nrm, 2e-3, "GRAM nrm");
        data::assert_close(mem.f32s(br), &rmat, 2e-2, "GRAM r");
    }
    stats
}

/// The column norms and the first row of `R = Qᵀ·Q`.
fn host_reference(a: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let mut nrm = vec![0.0f32; C];
    for j in 0..C {
        for i in 0..R {
            nrm[j] += a[i * C + j] * a[i * C + j];
        }
        nrm[j] = nrm[j].sqrt() + 0.001;
    }
    let mut q = vec![0.0f32; R * C];
    for i in 0..R {
        for j in 0..C {
            q[i * C + j] = a[i * C + j] / nrm[j];
        }
    }
    let mut rmat = vec![0.0f32; C];
    for j in 0..C {
        for i in 0..R {
            rmat[j] += q[i * C] * q[i * C + j];
        }
    }
    (nrm, rmat)
}

/// The GRAM workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "GRAM",
        name: "Gram-Schmidt process",
        suite: "Polybench",
        group: Group::Ci,
        smem_kb: 0.0,
        input: "128x256",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn gram_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
