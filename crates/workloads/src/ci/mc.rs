//! MC — Myocyte (Rodinia `myocyte`): cardiac-cell ODE integration. The
//! computational character is a long dependent chain of transcendental
//! operations per thread with almost no memory traffic — the compute-bound
//! extreme of the CI group.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Simulated cells (paper input "100"; one thread each, rounded to a
/// block).
pub const CELLS: usize = 128;
/// Integration steps.
pub const STEPS: usize = 64;
/// Time step.
pub const DT: f32 = 0.01;

const SRC: &str = "
#define CELLS 128
#define STEPS 64
__global__ void myocyte_kernel(float *v0, float *w0, float *vout, float *wout, float dt) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < CELLS) {
        float v = v0[i];
        float w = w0[i];
        for (int t = 0; t < STEPS; t++) {
            float dv = v - v * v * v / 3.0f - w + 0.5f;
            float dw = 0.08f * (v + 0.7f - 0.8f * w) * expf(-fabsf(v) * 0.01f);
            v = v + dt * dv;
            w = w + dt * dw;
        }
        vout[i] = v;
        wout[i] = w;
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[("myocyte_kernel", LaunchConfig::d1(1, CELLS as u32))];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let v0 = data::vector("mc:v", CELLS);
    let w0 = data::vector("mc:w", CELLS);
    let want = validate.then(|| host_reference(&v0, &w0));
    let (mut mem, [bv0, bw0, bv, bw]) = GlobalMem::with_buffers([
        Init::F32(v0),
        Init::F32(w0),
        Init::Zeroed(CELLS as u32),
        Init::Zeroed(CELLS as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![
            Arg::Buf(bv0),
            Arg::Buf(bw0),
            Arg::Buf(bv),
            Arg::Buf(bw),
            Arg::F32(DT),
        ]],
        config,
        &mut mem,
    );
    if let Some(want) = want {
        let dv_out = mem.read_f32(bv);
        let dw_out = mem.read_f32(bw);
        for (i, (v, w)) in want.into_iter().enumerate() {
            assert!(
                (dv_out[i] - v).abs() < 1e-3 && (dw_out[i] - w).abs() < 1e-3,
                "MC cell {i}: ({}, {}) vs ({v}, {w})",
                dv_out[i],
                dw_out[i]
            );
        }
    }
    stats
}

/// Each cell's `(v, w)` after [`STEPS`] forward-Euler steps.
fn host_reference(v0: &[f32], w0: &[f32]) -> Vec<(f32, f32)> {
    (0..CELLS)
        .map(|i| {
            let (mut v, mut w) = (v0[i], w0[i]);
            for _ in 0..STEPS {
                let dv = v - v * v * v / 3.0 - w + 0.5;
                let dw = 0.08 * (v + 0.7 - 0.8 * w) * (-v.abs() * 0.01).exp();
                v += DT * dv;
                w += DT * dw;
            }
            (v, w)
        })
        .collect()
}

/// The MC workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "MC",
        name: "Myocyte (cardiac-cell ODE)",
        suite: "Rodinia",
        group: Group::Ci,
        smem_kb: 0.0,
        input: "128 cells x 64 steps",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn mc_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
