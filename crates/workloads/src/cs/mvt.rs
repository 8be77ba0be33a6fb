//! MVT — matrix-vector product and transpose, `x1 += A·y1`,
//! `x2 += Aᵀ·y2` (Polybench/GPU). Kernel 1 is row-walking (divergent),
//! kernel 2 column-walking (coalesced), matching Table 3's pattern.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Rows of A.
pub const NX: usize = 1280;
/// Columns of A.
pub const NY: usize = 1024;

const SRC: &str = "
#define NX 1280
#define NY 1024
__global__ void mvt_kernel1(float *A, float *y1, float *x1) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NX) {
        for (int j = 0; j < NY; j++) {
            x1[i] += A[i * NY + j] * y1[j];
        }
    }
}
__global__ void mvt_kernel2(float *A, float *y2, float *x2) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (j < NY) {
        for (int i = 0; i < NX; i++) {
            x2[j] += A[i * NY + j] * y2[i];
        }
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[
    ("mvt_kernel1", LaunchConfig::d1((NX / 256) as u32, 256)),
    ("mvt_kernel2", LaunchConfig::d1((NY / 256) as u32, 256)),
];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let a = data::matrix("mvt:A", NX, NY);
    let y1 = data::vector("mvt:y1", NY);
    let y2 = data::vector("mvt:y2", NX);
    let x1_init = data::vector("mvt:x1", NX);
    let x2_init = data::vector("mvt:x2", NY);
    let want = validate.then(|| host_reference(&a, &y1, &y2, &x1_init, &x2_init));
    let (mut mem, [ba, by1, by2, bx1, bx2]) = GlobalMem::with_buffers([
        Init::F32(a),
        Init::F32(y1),
        Init::F32(y2),
        Init::F32(x1_init),
        Init::F32(x2_init),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1, LAUNCHES[1].1],
        &[
            vec![Arg::Buf(ba), Arg::Buf(by1), Arg::Buf(bx1)],
            vec![Arg::Buf(ba), Arg::Buf(by2), Arg::Buf(bx2)],
        ],
        config,
        &mut mem,
    );
    if let Some((x1, x2)) = want {
        data::assert_close(mem.f32s(bx1), &x1, 2e-3, "MVT x1");
        data::assert_close(mem.f32s(bx2), &x2, 5e-2, "MVT x2");
    }
    stats
}

/// `(x1 + A·y1, x2 + Aᵀ·y2)`.
fn host_reference(
    a: &[f32],
    y1: &[f32],
    y2: &[f32],
    x1_init: &[f32],
    x2_init: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let mut x1 = x1_init.to_vec();
    for i in 0..NX {
        for j in 0..NY {
            x1[i] += a[i * NY + j] * y1[j];
        }
    }
    let mut x2 = x2_init.to_vec();
    for j in 0..NY {
        for i in 0..NX {
            x2[j] += a[i * NY + j] * y2[i];
        }
    }
    (x1, x2)
}

/// The MVT workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "MVT",
        name: "Matrix-vector product and transpose",
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
    fn catt_throttles_only_the_divergent_kernel() {
        let w = workload();
        let (out, app) =
            harness::run_catt(&w, &harness::eval_config_max_l1d()).expect("policy run succeeds");
        assert!(out.cycles > 0);
        assert!(app.kernels[0].is_transformed());
        assert!(!app.kernels[1].is_transformed());
    }
}
