//! DC — multi-resolution analysis kernel (interpreting Table 2's garbled
//! "DC" row as Polybench's `doitgen`): `sum[q][p] = Σ_s A[q][s]·C4[s][p]`.
//! One thread per `p`, so the `C4` stream and the output are coalesced
//! and the `A` element is warp-uniform per iteration.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Output columns (one thread each).
pub const P: usize = 256;
/// Rows processed per launch.
pub const Q: usize = 64;
/// Inner dimension.
pub const S: usize = 16;

const SRC: &str = "
#define P 256
#define Q 64
#define S 16
__global__ void doitgen_kernel(float *A, float *C4, float *sum) {
    int p = blockIdx.x * blockDim.x + threadIdx.x;
    if (p < P) {
        for (int q = 0; q < Q; q++) {
            for (int s = 0; s < S; s++) {
                sum[q * P + p] += A[q * S + s] * C4[s * P + p];
            }
        }
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[("doitgen_kernel", LaunchConfig::d1(1, 256))];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let a = data::matrix("dc:A", Q, S);
    let c4 = data::matrix("dc:C4", S, P);
    let want = validate.then(|| host_reference(&a, &c4));
    let (mut mem, [ba, bc4, bsum]) =
        GlobalMem::with_buffers([Init::F32(a), Init::F32(c4), Init::Zeroed((Q * P) as u32)]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![Arg::Buf(ba), Arg::Buf(bc4), Arg::Buf(bsum)]],
        config,
        &mut mem,
    );
    if let Some(sum) = want {
        data::assert_close(mem.f32s(bsum), &sum, 2e-3, "DC sum");
    }
    stats
}

/// `sum = A·C4`.
fn host_reference(a: &[f32], c4: &[f32]) -> Vec<f32> {
    let mut sum = vec![0.0f32; Q * P];
    for q in 0..Q {
        for p in 0..P {
            for s in 0..S {
                sum[q * P + p] += a[q * S + s] * c4[s * P + p];
            }
        }
    }
    sum
}

/// The DC workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "DC",
        name: "Multi-resolution analysis (doitgen)",
        suite: "Polybench",
        group: Group::Ci,
        smem_kb: 0.0,
        input: "64x16x256",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn dc_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
