//! LUD — blocked LU decomposition, diagonal-tile kernel (Rodinia `lud`):
//! each block stages a 16×16 tile in shared memory (6.00 KB per block per
//! Table 2, covering the diagonal/perimeter staging buffers) and
//! eliminates it with a barrier per pivot step. The hot tile lives in
//! shared memory, so the kernel is cache-insensitive; its pivot loop
//! contains `__syncthreads()` and therefore may never be warp-split.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_ir::Dim3;
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Tile edge.
pub const T: usize = 16;
/// Number of independent diagonal tiles processed per launch.
pub const TILES: usize = 4;
/// Shared staging: 1536 × 4 B = 6.00 KB (Table 2; the diagonal kernel's
/// tile plus Rodinia's perimeter staging).
pub const SMEM_FLOATS: usize = 1536;

const SRC: &str = "
#define T 16
__global__ void lud_diagonal(float *A) {
    __shared__ float tile[1536];
    int col = threadIdx.x;
    int row = threadIdx.y;
    int base = blockIdx.x * T * T;
    tile[row * T + col] = A[base + row * T + col];
    __syncthreads();
    for (int k = 0; k < T - 1; k++) {
        float factor = 0.0f;
        if (row > k) {
            factor = tile[row * T + k] / tile[k * T + k];
        }
        __syncthreads();
        if (row > k && col > k) {
            tile[row * T + col] -= factor * tile[k * T + col];
        }
        if (row > k && col == k) {
            tile[row * T + col] = factor;
        }
        __syncthreads();
    }
    A[base + row * T + col] = tile[row * T + col];
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[(
    "lud_diagonal",
    LaunchConfig {
        grid: Dim3::x(TILES as u32),
        block: Dim3::xy(T as u32, T as u32),
    },
)];

fn host_lu_tile(tile: &mut [f32]) {
    for k in 0..T - 1 {
        let mut factors = [0.0f32; T];
        for (row, f) in factors.iter_mut().enumerate() {
            if row > k {
                *f = tile[row * T + k] / tile[k * T + k];
            }
        }
        for row in k + 1..T {
            for col in k + 1..T {
                tile[row * T + col] -= factors[row] * tile[k * T + col];
            }
            tile[row * T + k] = factors[row];
        }
    }
}

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    // Diagonally dominant tiles keep the (pivot-free) elimination stable.
    let mut a = data::matrix("lud:A", TILES, T * T);
    for tile in 0..TILES {
        for d in 0..T {
            a[tile * T * T + d * T + d] += T as f32;
        }
    }
    let want = validate.then(|| {
        let mut host = a.clone();
        for tile in 0..TILES {
            host_lu_tile(&mut host[tile * T * T..(tile + 1) * T * T]);
        }
        host
    });
    let (mut mem, [ba]) = GlobalMem::with_buffers([Init::F32(a)]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![Arg::Buf(ba)]],
        config,
        &mut mem,
    );
    if let Some(host) = want {
        data::assert_close(mem.f32s(ba), &host, 1e-2, "LUD tiles");
    }
    stats
}

/// The LUD workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "LUD",
        name: "LU decomposition (diagonal tiles)",
        suite: "Rodinia",
        group: Group::Ci,
        smem_kb: 6.0,
        input: "4 tiles of 16x16",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn lud_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
