//! BICG — the BiCGStab kernel pair `s = Aᵀ·r`, `q = A·p` (Polybench/GPU).
//!
//! Kernel 1 (s) is coalesced; kernel 2 (q) walks rows and is memory-
//! divergent — the order Table 3 reports (BICG #1 unthrottled, #2
//! throttled).

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
__global__ void bicg_kernel1(float *A, float *r, float *s) {
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (j < NY) {
        for (int i = 0; i < NX; i++) {
            s[j] += r[i] * A[i * NY + j];
        }
    }
}
__global__ void bicg_kernel2(float *A, float *p, float *q) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NX) {
        for (int j = 0; j < NY; j++) {
            q[i] += A[i * NY + j] * p[j];
        }
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[
    ("bicg_kernel1", LaunchConfig::d1((NY / 256) as u32, 256)),
    ("bicg_kernel2", LaunchConfig::d1((NX / 256) as u32, 256)),
];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let a = data::matrix("bicg:A", NX, NY);
    let r = data::vector("bicg:r", NX);
    let p = data::vector("bicg:p", NY);
    let want = validate.then(|| host_reference(&a, &r, &p));
    let (mut mem, [ba, br, bp, bs, bq]) = GlobalMem::with_buffers([
        Init::F32(a),
        Init::F32(r),
        Init::F32(p),
        Init::Zeroed(NY as u32),
        Init::Zeroed(NX as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1, LAUNCHES[1].1],
        &[
            vec![Arg::Buf(ba), Arg::Buf(br), Arg::Buf(bs)],
            vec![Arg::Buf(ba), Arg::Buf(bp), Arg::Buf(bq)],
        ],
        config,
        &mut mem,
    );
    if let Some((s, q)) = want {
        data::assert_close(mem.f32s(bs), &s, 5e-2, "BICG s");
        data::assert_close(mem.f32s(bq), &q, 2e-3, "BICG q");
    }
    stats
}

/// `(s, q) = (Aᵀr, Ap)`.
fn host_reference(a: &[f32], r: &[f32], p: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let mut s = vec![0.0f32; NY];
    for j in 0..NY {
        for i in 0..NX {
            s[j] += r[i] * a[i * NY + j];
        }
    }
    let mut q = vec![0.0f32; NX];
    for i in 0..NX {
        for j in 0..NY {
            q[i] += a[i * NY + j] * p[j];
        }
    }
    (s, q)
}

/// The BICG workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "BICG",
        name: "BiCGStab sub-kernels",
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
    fn catt_table3_decisions() {
        let w = workload();
        let (out, app) =
            harness::run_catt(&w, &harness::eval_config_max_l1d()).expect("policy run succeeds");
        assert!(out.cycles > 0);
        assert!(!app.kernels[0].is_transformed(), "BICG#1 is coalesced");
        assert!(app.kernels[1].is_transformed(), "BICG#2 is divergent");
        let k2 = &app.kernels[1].analysis;
        assert_eq!(
            k2.loops[0].tlp(k2.warps_per_tb, k2.plan.resident_tbs),
            (4, 5),
            "Table 3 max-L1D shape (halved warps)"
        );
    }
}
