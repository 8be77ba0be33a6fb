//! HM — Huffman encoding (Rodinia `huffman`): the code table (256 code
//! words + 256 lengths, staged into 6.13 KB of shared memory per Table 2)
//! serves data-dependent lookups; the symbol stream itself is laid out
//! transposed so loads coalesce. Tiny resident footprint →
//! cache-insensitive.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Encoding threads.
pub const NT: usize = 1024;
/// Symbols per thread.
pub const CHUNK: usize = 8;
/// Alphabet size.
pub const ALPHABET: usize = 256;
/// Shared table: 1570 × 4 B = 6.13 KB (Table 2).
pub const SMEM_FLOATS: usize = 1570;

const SRC: &str = "
#define NT 1024
#define CHUNK 8
#define ALPHABET 256
__global__ void huffman_encode(int *table_bits, int *data, int *out_bits) {
    __shared__ int tbl[1570];
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    tbl[threadIdx.x % ALPHABET] = table_bits[threadIdx.x % ALPHABET];
    __syncthreads();
    if (i < NT) {
        int bits = 0;
        for (int s = 0; s < CHUNK; s++) {
            int sym = data[s * NT + i];
            bits += tbl[sym];
        }
        out_bits[i] = bits;
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] =
    &[("huffman_encode", LaunchConfig::d1((NT / 256) as u32, 256))];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    // Code lengths 1..=16 bits per symbol.
    let table: Vec<i32> = data::int_vector("hm:tbl", ALPHABET, 16)
        .iter()
        .map(|v| v + 1)
        .collect();
    let symbols = data::int_vector("hm:data", NT * CHUNK, ALPHABET as i32);
    let want: Option<Vec<i32>> = validate.then(|| {
        (0..NT)
            .map(|i| {
                (0..CHUNK)
                    .map(|s| table[symbols[s * NT + i] as usize])
                    .sum()
            })
            .collect()
    });
    let (mut mem, [bt, bd, bo]) = GlobalMem::with_buffers([
        Init::I32(table),
        Init::I32(symbols),
        Init::Zeroed(NT as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![Arg::Buf(bt), Arg::Buf(bd), Arg::Buf(bo)]],
        config,
        &mut mem,
    );
    if let Some(want) = want {
        let out = mem.read_i32(bo);
        for i in 0..NT {
            assert_eq!(out[i], want[i], "HM out[{i}]");
        }
    }
    stats
}

/// The HM workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "HM",
        name: "Huffman encoding",
        suite: "Rodinia",
        group: Group::Ci,
        smem_kb: 6.13,
        input: "8K symbols, 256-entry code table",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn hm_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
