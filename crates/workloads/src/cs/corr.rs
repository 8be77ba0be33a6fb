//! CORR — correlation computation (Polybench/GPU).
//!
//! Four kernels (column means, column standard deviations, data
//! centering, and the correlation matrix proper), mirroring the paper's
//! Table 3 rows CORR#1–#4. The correlation kernel processes a 17-column
//! strip per iteration (a strip-mined port of the upper-triangular
//! update); its per-warp footprint alone exceeds even the 128 KB L1D, so
//! Eq. 9 has **no resolving factor** — the case the paper describes where
//! "kernels and loops need to be split into smaller pieces, which
//! requires algorithm changes", and CATT deliberately leaves the kernel
//! untouched (§5.1).

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Columns (variables) of the data matrix — one thread per column.
pub const M: usize = 256;
/// Rows (observations).
pub const N: usize = 128;
/// Strip width of the correlation kernel.
pub const STRIP: usize = 17;

/// Build the strip-mined correlation kernel body (17 updates per
/// iteration — kept as straight-line code exactly because that is what
/// overflows the footprint).
fn corr_kernel_src() -> String {
    let mut body = String::new();
    for u in 0..STRIP {
        body.push_str(&format!(
            "            symmat[j1 * M + j2 + {u}] += data[(j2 + {u}) * 64 + j1] * f;\n"
        ));
    }
    format!(
        "__global__ void corr_kernel(float *data, float *symmat, float *stddev) {{
    int j1 = blockIdx.x * blockDim.x + threadIdx.x;
    if (j1 < M) {{
        float f = stddev[j1];
        for (int j2 = 0; j2 <= M - {STRIP}; j2 += {STRIP}) {{
{body}        }}
    }}
}}"
    )
}

fn full_src() -> String {
    format!(
        "
#define M 256
#define N 128
__global__ void mean_kernel(float *data_in, float *mean) {{
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (j < M) {{
        for (int i = 0; i < N; i++) {{
            mean[j] += data_in[i * M + j];
        }}
        mean[j] = mean[j] / (float)N;
    }}
}}
__global__ void std_kernel(float *data_in, float *mean, float *stddev) {{
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (j < M) {{
        for (int i = 0; i < N; i++) {{
            float d = data_in[i * M + j] - mean[j];
            stddev[j] += d * d;
        }}
        stddev[j] = sqrtf(stddev[j] / (float)N) + 0.1f;
    }}
}}
__global__ void center_kernel(float *data_in, float *mean, float *stddev, float *data) {{
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (j < M) {{
        for (int i = 0; i < N; i++) {{
            data[i * M + j] = (data_in[i * M + j] - mean[j]) / stddev[j];
        }}
    }}
}}
{}
",
        corr_kernel_src()
    )
}

const LAUNCHES: &[(&str, LaunchConfig)] = &[
    ("mean_kernel", LaunchConfig::d1(1, 256)),
    ("std_kernel", LaunchConfig::d1(1, 256)),
    ("center_kernel", LaunchConfig::d1(1, 256)),
    ("corr_kernel", LaunchConfig::d1(1, 256)),
];

fn host_reference(data_in: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut mean = vec![0.0f32; M];
    for j in 0..M {
        for i in 0..N {
            mean[j] += data_in[i * M + j];
        }
        mean[j] /= N as f32;
    }
    let mut stddev = vec![0.0f32; M];
    for j in 0..M {
        for i in 0..N {
            let d = data_in[i * M + j] - mean[j];
            stddev[j] += d * d;
        }
        stddev[j] = (stddev[j] / N as f32).sqrt() + 0.1;
    }
    let mut data = vec![0.0f32; N * M];
    for i in 0..N {
        for j in 0..M {
            data[i * M + j] = (data_in[i * M + j] - mean[j]) / stddev[j];
        }
    }
    let mut symmat = vec![0.0f32; M * M];
    for j1 in 0..M {
        let f = stddev[j1];
        let mut j2 = 0;
        while j2 + STRIP <= M {
            for u in 0..STRIP {
                symmat[j1 * M + j2 + u] += data[(j2 + u) * 64 + j1] * f;
            }
            j2 += STRIP;
        }
    }
    (mean, stddev, data, symmat)
}

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let data_in = data::matrix("corr:data", N, M);
    let want = validate.then(|| host_reference(&data_in));
    let (mut mem, [bdin, bmean, bstd, bdata, bsym]) = GlobalMem::with_buffers([
        Init::F32(data_in),
        Init::Zeroed(M as u32),
        Init::Zeroed(M as u32),
        Init::Zeroed((N * M) as u32),
        Init::Zeroed((M * M) as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1, LAUNCHES[1].1, LAUNCHES[2].1, LAUNCHES[3].1],
        &[
            vec![Arg::Buf(bdin), Arg::Buf(bmean)],
            vec![Arg::Buf(bdin), Arg::Buf(bmean), Arg::Buf(bstd)],
            vec![
                Arg::Buf(bdin),
                Arg::Buf(bmean),
                Arg::Buf(bstd),
                Arg::Buf(bdata),
            ],
            vec![Arg::Buf(bdata), Arg::Buf(bsym), Arg::Buf(bstd)],
        ],
        config,
        &mut mem,
    );
    if let Some((mean, stddev, data, symmat)) = want {
        data::assert_close(mem.f32s(bmean), &mean, 2e-3, "CORR mean");
        data::assert_close(mem.f32s(bstd), &stddev, 2e-3, "CORR stddev");
        data::assert_close(mem.f32s(bdata), &data, 2e-3, "CORR data");
        data::assert_close(mem.f32s(bsym), &symmat, 2e-2, "CORR symmat");
    }
    stats
}

/// The CORR workload descriptor. The source is built once and leaked — the
/// registry hands out `&'static str` sources, and one ~3 KB allocation per
/// process is the cost of keeping every other workload's source a true
/// string constant.
pub fn workload() -> Workload {
    use std::sync::OnceLock;
    static SRC: OnceLock<&'static str> = OnceLock::new();
    let src: &'static str = SRC.get_or_init(|| Box::leak(full_src().into_boxed_str()));
    Workload {
        abbrev: "CORR",
        name: "Correlation computation",
        suite: "Polybench",
        group: Group::Cs,
        smem_kb: 0.0,
        input: "128x256",
        source: src,
        launches: LAUNCHES,
        run: run as RunFn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;

    #[test]
    fn corr_is_unresolvable_and_left_alone() {
        let w = workload();
        let (out, app) =
            harness::run_catt(&w, &harness::eval_config_max_l1d()).expect("policy run succeeds");
        assert!(out.cycles > 0);
        // Baseline TLP (8, 1) — Table 3's CORR row.
        let k4 = &app.kernels[3].analysis;
        assert_eq!(k4.baseline_tlp(), (8, 1));
        let l = &k4.loops[0];
        assert!(l.contended, "CORR has very high cache contention");
        assert!(!l.decision.resolved, "no throttling factor can fit it");
        assert!(
            !app.kernels[3].is_transformed(),
            "CATT must pass unresolvable kernels through unchanged"
        );
        // The preparatory kernels are coalesced and untouched.
        for i in 0..3 {
            assert!(!app.kernels[i].is_transformed(), "kernel {i}");
        }
    }
}
