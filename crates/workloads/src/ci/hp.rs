//! HP — Hotspot3D (Rodinia): a 3-D thermal stencil. One thread per (x,y)
//! column marching over z; all seven neighbour reads are unit-stride or
//! plane-stride along the warp, so requests coalesce and the footprint is
//! streaming, not resident — cache-insensitive.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Grid extent in x and y.
pub const NX: usize = 64;
/// See [`NX`].
pub const NY: usize = 64;
/// Layers.
pub const NZ: usize = 8;
/// Host-iterated time steps.
pub const STEPS: usize = 2;

const SRC: &str = "
#define NX 64
#define NY 64
#define NZ 8
__global__ void hotspot3d_kernel(float *tin, float *power, float *tout) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int x = i % NX;
    int y = i / NX;
    if (x > 0 && x < NX - 1 && y > 0 && y < NY - 1) {
        for (int z = 1; z < NZ - 1; z++) {
            int c = z * NX * NY + y * NX + x;
            tout[c] = 0.4f * tin[c]
                    + 0.1f * (tin[c - 1] + tin[c + 1])
                    + 0.1f * (tin[c - NX] + tin[c + NX])
                    + 0.1f * (tin[c - NX * NY] + tin[c + NX * NY])
                    + 0.05f * power[c];
        }
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[(
    "hotspot3d_kernel",
    LaunchConfig::d1((NX * NY / 256) as u32, 256),
)];

fn host_step(tin: &[f32], power: &[f32], tout: &mut [f32]) {
    for y in 1..NY - 1 {
        for x in 1..NX - 1 {
            for z in 1..NZ - 1 {
                let c = z * NX * NY + y * NX + x;
                tout[c] = 0.4 * tin[c]
                    + 0.1 * (tin[c - 1] + tin[c + 1])
                    + 0.1 * (tin[c - NX] + tin[c + NX])
                    + 0.1 * (tin[c - NX * NY] + tin[c + NX * NY])
                    + 0.05 * power[c];
            }
        }
    }
}

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let t0 = data::vector("hp:t", NX * NY * NZ);
    let power = data::vector("hp:p", NX * NY * NZ);
    let want = validate.then(|| {
        let mut hin = t0.clone();
        let mut hout = t0.clone();
        for _ in 0..STEPS {
            host_step(&hin, &power, &mut hout);
            std::mem::swap(&mut hin, &mut hout);
        }
        hin
    });
    let (mut mem, [mut ba, bp, mut bb]) =
        GlobalMem::with_buffers([Init::F32(t0.clone()), Init::F32(power), Init::F32(t0)]);
    let mut total = LaunchStats::default();
    for _ in 0..STEPS {
        let stats = exec_sequence(
            kernels,
            &[LAUNCHES[0].1],
            &[vec![Arg::Buf(ba), Arg::Buf(bp), Arg::Buf(bb)]],
            config,
            &mut mem,
        );
        total.accumulate(&stats);
        total.resident_tbs_per_sm = stats.resident_tbs_per_sm;
        std::mem::swap(&mut ba, &mut bb);
    }
    if let Some(temperature) = want {
        data::assert_close(mem.f32s(ba), &temperature, 2e-3, "HP temperature");
    }
    total
}

/// The HP workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "HP",
        name: "Hotspot3D",
        suite: "Rodinia",
        group: Group::Ci,
        smem_kb: 0.0,
        input: "64x64x8, 2 steps",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn hp_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
