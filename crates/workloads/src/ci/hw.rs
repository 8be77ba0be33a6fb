//! HW — Heart Wall tracking (Rodinia `heartwall`), ported as its
//! computational core: template matching of a staged template (11.59 KB
//! in shared memory, Table 2) against a frame, one correlation window per
//! thread. Frame reads are unit-stride along the warp → cache-insensitive.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Correlation windows (one thread each).
pub const WINDOWS: usize = 1024;
/// Template taps actually correlated.
pub const TAPS: usize = 24;
/// Frame samples.
pub const FRAME: usize = WINDOWS + TAPS;
/// Shared staging: 2967 × 4 B = 11.59 KB (Table 2; the kernel's staged
/// template, endo/epi point buffers).
pub const SMEM_FLOATS: usize = 2967;

const SRC: &str = "
#define WINDOWS 1024
#define TAPS 24
__global__ void heartwall_track(float *frame, float *tmpl, float *corr) {
    __shared__ float buf[2967];
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (threadIdx.x < TAPS) {
        buf[threadIdx.x] = tmpl[threadIdx.x];
    }
    __syncthreads();
    if (i < WINDOWS) {
        float acc = 0.0f;
        for (int t = 0; t < TAPS; t++) {
            acc += frame[i + t] * buf[t];
        }
        corr[i] = acc;
    }
}
";

const LAUNCHES: &[(&str, LaunchConfig)] = &[(
    "heartwall_track",
    LaunchConfig::d1((WINDOWS / 256) as u32, 256),
)];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let frame = data::vector("hw:frame", FRAME);
    let tmpl = data::vector("hw:tmpl", TAPS);
    let want: Option<Vec<f32>> = validate.then(|| {
        (0..WINDOWS)
            .map(|i| (0..TAPS).map(|t| frame[i + t] * tmpl[t]).sum())
            .collect()
    });
    let (mut mem, [bf, bt, bc]) = GlobalMem::with_buffers([
        Init::F32(frame),
        Init::F32(tmpl),
        Init::Zeroed(WINDOWS as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1],
        &[vec![Arg::Buf(bf), Arg::Buf(bt), Arg::Buf(bc)]],
        config,
        &mut mem,
    );
    if let Some(want) = want {
        let corr = mem.read_f32(bc);
        for (i, expect) in want.into_iter().enumerate() {
            assert!(
                (corr[i] - expect).abs() < 1e-3,
                "HW corr[{i}]: {} vs {expect}",
                corr[i]
            );
        }
    }
    stats
}

/// The HW workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "HW",
        name: "Heart wall tracking",
        suite: "Rodinia",
        group: Group::Ci,
        smem_kb: 11.59,
        input: "1024 windows x 24 taps",
        source: SRC,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn hw_is_untouched() {
        crate::ci::testutil::assert_untouched_and_valid(&super::workload());
    }
}
