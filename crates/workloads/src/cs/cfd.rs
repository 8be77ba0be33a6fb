//! CFD — an unstructured-mesh Euler solver (Rodinia `euler3d` at
//! simulator scale): per-cell time-step factors, a neighbour-gather flux
//! kernel (the irregular part), and an explicit update, iterated over a
//! few time steps. Like BFS, the neighbour indirection makes `C_tid`
//! unknown at compile time, so CATT stays conservative (paper §4.2,
//! Table 3 keeps CFD at its original (6, 10) TLP).

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Mesh cells (`missile.domn.0.2M` stand-in at sim scale).
pub const CELLS: usize = 8192;
/// Neighbours per cell.
pub const NNB: usize = 4;
/// Time steps the host iterates.
pub const STEPS: usize = 3;

const SRC: &str = "
#define CELLS 8192
#define NNB 4
__global__ void cfd_step_factor(float *density, float *energy, float *step_factor) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < CELLS) {
        float d = density[i];
        float e = energy[i];
        step_factor[i] = 0.5f / (sqrtf(d * d + e * e) + 0.01f);
    }
}
__global__ void cfd_compute_flux(int *neighbors, float *density, float *energy, float *flux_d, float *flux_e) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < CELLS) {
        float fd = 0.0f;
        float fe = 0.0f;
        float di = density[i];
        float ei = energy[i];
        for (int nb = 0; nb < NNB; nb++) {
            int j = neighbors[i * NNB + nb];
            float dj = density[j];
            float ej = energy[j];
            fd += 0.25f * (dj - di);
            fe += 0.25f * (ej - ei);
        }
        flux_d[i] = fd;
        flux_e[i] = fe;
    }
}
__global__ void cfd_time_step(float *density, float *energy, float *flux_d, float *flux_e, float *step_factor) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < CELLS) {
        float sf = step_factor[i];
        density[i] = density[i] + sf * flux_d[i];
        energy[i] = energy[i] + sf * flux_e[i];
    }
}
";

/// Rodinia's euler3d block size (192 threads = 6 warps; Table 3's CFD
/// baseline is (6, 10)).
const BLOCK: u32 = 192;
const GRID: u32 = (CELLS as u32).div_ceil(BLOCK);
const LAUNCHES: &[(&str, LaunchConfig)] = &[
    ("cfd_step_factor", LaunchConfig::d1(GRID, BLOCK)),
    ("cfd_compute_flux", LaunchConfig::d1(GRID, BLOCK)),
    ("cfd_time_step", LaunchConfig::d1(GRID, BLOCK)),
];

fn host_reference(neighbors: &[i32], d0: &[f32], e0: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let mut density = d0.to_vec();
    let mut energy = e0.to_vec();
    for _ in 0..STEPS {
        let sf: Vec<f32> = density
            .iter()
            .zip(&energy)
            .map(|(d, e)| 0.5 / ((d * d + e * e).sqrt() + 0.01))
            .collect();
        let mut fd = vec![0.0f32; CELLS];
        let mut fe = vec![0.0f32; CELLS];
        for i in 0..CELLS {
            for nb in 0..NNB {
                let j = neighbors[i * NNB + nb] as usize;
                fd[i] += 0.25 * (density[j] - density[i]);
                fe[i] += 0.25 * (energy[j] - energy[i]);
            }
        }
        for i in 0..CELLS {
            density[i] += sf[i] * fd[i];
            energy[i] += sf[i] * fe[i];
        }
    }
    (density, energy)
}

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let neighbors = data::mesh_neighbors("cfd", CELLS, NNB);
    let d0: Vec<f32> = data::vector("cfd:d", CELLS)
        .iter()
        .map(|v| v + 0.5)
        .collect();
    let e0: Vec<f32> = data::vector("cfd:e", CELLS)
        .iter()
        .map(|v| v + 1.0)
        .collect();
    let want = validate.then(|| host_reference(&neighbors, &d0, &e0));
    let (mut mem, [bnb, bd, be, bsf, bfd, bfe]) = GlobalMem::with_buffers([
        Init::I32(neighbors),
        Init::F32(d0),
        Init::F32(e0),
        Init::Zeroed(CELLS as u32),
        Init::Zeroed(CELLS as u32),
        Init::Zeroed(CELLS as u32),
    ]);
    let mut total = LaunchStats::default();
    for _ in 0..STEPS {
        let stats = exec_sequence(
            kernels,
            &[LAUNCHES[0].1, LAUNCHES[1].1, LAUNCHES[2].1],
            &[
                vec![Arg::Buf(bd), Arg::Buf(be), Arg::Buf(bsf)],
                vec![
                    Arg::Buf(bnb),
                    Arg::Buf(bd),
                    Arg::Buf(be),
                    Arg::Buf(bfd),
                    Arg::Buf(bfe),
                ],
                vec![
                    Arg::Buf(bd),
                    Arg::Buf(be),
                    Arg::Buf(bfd),
                    Arg::Buf(bfe),
                    Arg::Buf(bsf),
                ],
            ],
            config,
            &mut mem,
        );
        total.accumulate(&stats);
        total.resident_tbs_per_sm = stats.resident_tbs_per_sm;
    }
    if let Some((hd, he)) = want {
        data::assert_close(mem.f32s(bd), &hd, 5e-3, "CFD density");
        data::assert_close(mem.f32s(be), &he, 5e-3, "CFD energy");
    }
    total
}

/// The CFD workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "CFD",
        name: "CFD solver (unstructured Euler)",
        suite: "Rodinia",
        group: Group::Cs,
        smem_kb: 0.0,
        input: "8K-cell mesh, 4 neighbours, 3 steps",
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
    fn cfd_baseline_tlp_is_6_10_and_untouched() {
        let w = workload();
        let (out, app) =
            harness::run_catt(&w, &harness::eval_config_max_l1d()).expect("policy run succeeds");
        assert!(out.cycles > 0);
        // 192-thread blocks: 6 warps, 10 resident blocks (64-warp limit).
        let flux = &app.kernels[1].analysis;
        assert_eq!(flux.baseline_tlp(), (6, 10));
        for (i, k) in app.kernels.iter().enumerate() {
            assert!(!k.is_transformed(), "kernel {i}: CFD must stay untouched");
        }
    }
}
