//! LVMD — LavaMD (Rodinia): particle interactions between neighbouring
//! boxes. One block per home box; each neighbour box's particles are
//! staged through shared memory (7.03 KB per block, Table 2) before the
//! O(n²) interaction loop, so global traffic is a coalesced stream and
//! the hot data lives in shared memory, not the L1D.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Boxes (one block each).
pub const BOXES: usize = 64;
/// Particles per box.
pub const PPB: usize = 128;
/// Neighbour boxes examined per home box.
pub const NEIGH: usize = 4;
/// Shared staging buffer (floats): 1800 × 4 B = 7.03 KB (Table 2).
pub const SMEM_FLOATS: usize = 1800;

const SRC: &str = "
#define BOXES 64
#define PPB 128
#define NEIGH 4
__global__ void lavamd_kernel(int *nbox, float *pos, float *force) {
    __shared__ float buf[1800];
    int home = blockIdx.x;
    int t = threadIdx.x;
    float acc = 0.0f;
    float mine = pos[home * PPB + t];
    for (int n = 0; n < NEIGH; n++) {
        int other = nbox[home * NEIGH + n];
        buf[t] = pos[other * PPB + t];
        __syncthreads();
        for (int p = 0; p < PPB; p++) {
            float d = mine - buf[p];
            acc += 1.0f / (d * d + 0.5f);
        }
        __syncthreads();
    }
    force[home * PPB + t] = acc;
}
";

const LAUNCHES: &[(&str, LaunchConfig)] =
    &[("lavamd_kernel", LaunchConfig::d1(BOXES as u32, PPB as u32))];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let nbox = data::int_vector("lvmd:nb", BOXES * NEIGH, BOXES as i32);
    let pos = data::vector("lvmd:pos", BOXES * PPB);
    let want = validate.then(|| host_reference(&nbox, &pos));
    let (mut mem, [bn, bp, bf]) = GlobalMem::with_buffers([
        Init::I32(nbox),
        Init::F32(pos),
        Init::Zeroed((BOXES * PPB) as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![Arg::Buf(bn), Arg::Buf(bp), Arg::Buf(bf)]],
        config,
        &mut mem,
    );
    if let Some(want) = want {
        let force = mem.read_f32(bf);
        for home in 0..BOXES {
            for t in 0..PPB {
                let (got, acc) = (force[home * PPB + t], want[home * PPB + t]);
                assert!(
                    (got - acc).abs() <= 1e-2 * acc.abs().max(1.0),
                    "LVMD force[{home},{t}]: {got} vs {acc}"
                );
            }
        }
    }
    stats
}

/// Each particle's force from the particles of its neighbour boxes.
fn host_reference(nbox: &[i32], pos: &[f32]) -> Vec<f32> {
    let mut force = vec![0.0f32; BOXES * PPB];
    for home in 0..BOXES {
        for t in 0..PPB {
            let mine = pos[home * PPB + t];
            let mut acc = 0.0f32;
            for n in 0..NEIGH {
                let other = nbox[home * NEIGH + n] as usize;
                for p in 0..PPB {
                    let d = mine - pos[other * PPB + p];
                    acc += 1.0 / (d * d + 0.5);
                }
            }
            force[home * PPB + t] = acc;
        }
    }
    force
}

/// The LVMD workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "LVMD",
        name: "LavaMD particle interactions",
        suite: "Rodinia",
        group: Group::Ci,
        smem_kb: 7.03,
        input: "64 boxes x 128 particles, 4 neighbours",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn lvmd_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
