//! DM — pairwise dot-product (distance) matrix, `out = A·Aᵀ` over row
//! vectors (extension workload; not part of the paper's Table 2).
//!
//! Block `(bx, by)` computes the 16×16 output tile at `(16·bx, 16·by)`:
//! thread `t` owns `row = 16·by + t/16`, `col = 16·bx + t%16` and walks
//! both A rows in lockstep. The 2-D grid makes the *block schedule* the
//! performance knob: in linear launch order an entire grid row keeps its
//! 16 A-rows hot but re-streams all of A for the column sides, so the L2
//! share re-reads the matrix once per grid row; a tile-major CTA swizzle
//! walks a narrow column band top to bottom, shrinking the live set to
//! one band of column rows that fits the share. Thread-level throttling
//! cannot fix this — the traffic is inter-block, not intra-block — which
//! is what makes DM the registry's swizzle-sensitive specimen (DESIGN.md
//! §3h).

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_ir::Dim3;
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Rows of A (= side of the output matrix). 192 rows × 512 columns of
/// f32 = 384 KB: larger than the evaluation L2 share (256 KB), so the
/// linear schedule cannot keep the column side resident.
pub const R: usize = 192;
/// Columns of A (dot-product length).
pub const K: usize = 512;
/// Output tile side per block (16×16 tile = 256 threads).
pub const TILE: usize = 16;

const SRC: &str = "
#define R 192
#define K 512
__global__ void dm_pairs(float *A, float *At, float *out) {
    int row = blockIdx.y * 16 + threadIdx.x / 16;
    int col = blockIdx.x * 16 + threadIdx.x % 16;
    float acc = 0.0f;
    for (int j = 0; j < K; j++) {
        acc += A[row * K + j] * At[j * R + col];
    }
    out[row * R + col] = acc;
}
";

const GRID: u32 = (R / TILE) as u32;

const LAUNCHES: &[(&str, LaunchConfig)] = &[(
    "dm_pairs",
    LaunchConfig {
        grid: Dim3 {
            x: GRID,
            y: GRID,
            z: 1,
        },
        block: Dim3 {
            x: (TILE * TILE) as u32,
            y: 1,
            z: 1,
        },
    },
)];

fn host_reference(a: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; R * R];
    for row in 0..R {
        for col in 0..R {
            let mut acc = 0.0f32;
            for j in 0..K {
                acc += a[row * K + j] * a[col * K + j];
            }
            out[row * R + col] = acc;
        }
    }
    out
}

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let a = data::matrix("dm:A", R, K);
    // The host passes Aᵀ alongside A so the column-side loads coalesce
    // (`At[j*R + col]` is contiguous across the half-warp).
    let mut at = vec![0.0f32; K * R];
    for r in 0..R {
        for j in 0..K {
            at[j * R + r] = a[r * K + j];
        }
    }
    let want = validate.then(|| host_reference(&a));
    let (mut mem, [ba, bat, bout]) =
        GlobalMem::with_buffers([Init::F32(a), Init::F32(at), Init::Zeroed((R * R) as u32)]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![Arg::Buf(ba), Arg::Buf(bat), Arg::Buf(bout)]],
        config,
        &mut mem,
    );
    if let Some(want) = want {
        data::assert_close(mem.f32s(bout), &want, 5e-2, "DM out");
    }
    stats
}

/// The DM workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "DM",
        name: "Pairwise dot-product distance matrix",
        suite: "Extension",
        group: Group::Cs,
        smem_kb: 0.0,
        input: "192x512, 12x12 grid",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;
    use catt_core::{cta_swizzle, SwizzlePolicy};

    #[test]
    fn baseline_validates() {
        let w = workload();
        let out = harness::run_baseline(&w, &harness::eval_config_max_l1d())
            .expect("policy run succeeds");
        assert!(out.cycles > 0);
    }

    /// The workload's raison d'être: a tile-major CTA swizzle raises the
    /// measured L2 hit rate and beats the linear schedule outright, on
    /// the same kernel, same inputs, same throttling (none).
    #[test]
    fn tile_swizzle_beats_linear_order_via_l2() {
        let w = workload();
        let cfg = harness::eval_config_max_l1d();
        let base = harness::run_baseline(&w, &cfg).expect("baseline runs");
        let grid = (GRID, GRID, 1);
        let sw = cta_swizzle(&w.kernels()[0], SwizzlePolicy::TileMajor(4), grid)
            .expect("4 divides the 12-wide grid");
        let out = harness::run_cached(&w, &[sw], &cfg).expect("swizzled run validates");
        assert!(
            out.l2_hit_rate() > base.l2_hit_rate() + 0.05,
            "tile-major must raise the L2 hit rate: {:.3} vs {:.3}",
            out.l2_hit_rate(),
            base.l2_hit_rate()
        );
        assert!(
            out.cycles < base.cycles,
            "tile-major must beat the linear schedule: {} vs {}",
            out.cycles,
            base.cycles
        );
    }
}
