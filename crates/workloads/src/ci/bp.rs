//! BP — back-propagation forward layer (Rodinia `backprop`): the input
//! activations are staged in shared memory (1.06 KB, Table 2) and the
//! weight matrix is read with unit stride along the warp — a streaming,
//! cache-insensitive kernel.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Input units (staged in shared memory).
pub const IN: usize = 256;
/// Hidden units (one thread each).
pub const HID: usize = 512;
/// Shared staging buffer: 272 × 4 B = 1.06 KB (Table 2).
pub const SMEM_FLOATS: usize = 272;

const SRC: &str = "
#define IN 256
#define HID 512
__global__ void bp_layerforward(float *input, float *w, float *hidden) {
    __shared__ float buf[272];
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    buf[threadIdx.x] = input[threadIdx.x % IN];
    __syncthreads();
    if (j < HID) {
        float acc = 0.0f;
        for (int i = 0; i < IN; i++) {
            acc += buf[i] * w[i * HID + j];
        }
        hidden[j] = 1.0f / (1.0f + expf(-acc));
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] =
    &[("bp_layerforward", LaunchConfig::d1((HID / 256) as u32, 256))];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let input = data::vector("bp:in", IN);
    let w = data::matrix("bp:w", IN, HID);
    let want = validate.then(|| host_reference(&input, &w));
    let (mut mem, [bi, bw, bh]) =
        GlobalMem::with_buffers([Init::F32(input), Init::F32(w), Init::Zeroed(HID as u32)]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![Arg::Buf(bi), Arg::Buf(bw), Arg::Buf(bh)]],
        config,
        &mut mem,
    );
    if let Some(want) = want {
        let hidden = mem.read_f32(bh);
        for (j, expect) in want.into_iter().enumerate() {
            assert!(
                (hidden[j] - expect).abs() < 5e-3,
                "BP hidden[{j}]: {} vs {expect}",
                hidden[j]
            );
        }
    }
    stats
}

/// The hidden layer: `sigmoid(inputᵀ·w)`.
fn host_reference(input: &[f32], w: &[f32]) -> Vec<f32> {
    (0..HID)
        .map(|j| {
            let acc: f32 = (0..IN).map(|i| input[i] * w[i * HID + j]).sum();
            1.0 / (1.0 + (-acc).exp())
        })
        .collect()
}

/// The BP workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "BP",
        name: "Back propagation (layer forward)",
        suite: "Rodinia",
        group: Group::Ci,
        smem_kb: 1.06,
        input: "256 -> 512 units",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn bp_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
