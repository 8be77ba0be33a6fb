//! PF — particle filter (Rodinia). Four kernels; kernel 1 carries three
//! loops with *different* contention levels (Table 3: loops 1–2 divergent
//! and throttled, loop 3 coalesced and untouched) — together with ATAX
//! the showcase for CATT's per-loop decisions. Uses 4 KB of shared memory
//! per block (Table 2), so the carve-out planner must leave room for it.

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Particles.
pub const NP: usize = 4096;
/// Samples (likelihood points) per particle.
pub const S: usize = 16;
/// Threads per block (Rodinia uses 512).
pub const BLOCK: usize = 512;

const SRC: &str = "
#define NP 4096
#define S 16
__global__ void pf_likelihood(float *arrayX, float *arrayY, float *ind, float *likelihood, float *weights) {
    __shared__ float buf[1024];
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NP) {
        for (int s = 0; s < S; s++) {
            ind[i * S + s] = arrayX[i] * 0.5f + arrayY[i] * 0.25f + (float)s;
        }
        for (int s = 0; s < S; s++) {
            float v = ind[i * S + s];
            likelihood[s * NP + i] = v * v / 2.0f - fabsf(v);
        }
        float acc = 0.0f;
        for (int s = 0; s < S; s++) {
            acc += likelihood[s * NP + i];
        }
        weights[i] = weights[i] * expf(acc / (float)S - 4.0f);
    }
    buf[threadIdx.x] = weights[i % NP];
    __syncthreads();
    if (threadIdx.x == 0) {
        weights[i] = weights[i] + buf[0] * 0.0f;
    }
}
__global__ void pf_sum(float *weights, float *partial) {
    __shared__ float buf[1024];
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    buf[threadIdx.x] = weights[i % NP];
    __syncthreads();
    if (threadIdx.x == 0) {
        float acc = 0.0f;
        for (int t = 0; t < 512; t++) {
            acc += buf[t];
        }
        partial[blockIdx.x] = acc;
    }
}
__global__ void pf_normalize(float *weights, float *partial, int nblocks) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float total = 0.0f;
    for (int b = 0; b < nblocks; b++) {
        total += partial[b];
    }
    if (i < NP) {
        weights[i] = weights[i] / total;
    }
}
__global__ void pf_find_index(float *cdf, float *u, float *xj) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NP) {
        int idx = NP - 1;
        for (int j = 0; j < NP; j++) {
            if (cdf[j] >= u[i]) {
                idx = j;
                break;
            }
        }
        xj[i] = (float)idx;
    }
}
";

const GRID: u32 = (NP / BLOCK) as u32;
const LAUNCHES: &[(&str, LaunchConfig)] = &[
    ("pf_likelihood", LaunchConfig::d1(GRID, BLOCK as u32)),
    ("pf_sum", LaunchConfig::d1(GRID, BLOCK as u32)),
    ("pf_normalize", LaunchConfig::d1(GRID, BLOCK as u32)),
    ("pf_find_index", LaunchConfig::d1(GRID, BLOCK as u32)),
];

struct HostRef {
    weights: Vec<f32>,
    xj: Vec<f32>,
}

fn host_reference(ax: &[f32], ay: &[f32], w0: &[f32], cdf: &[f32], u: &[f32]) -> HostRef {
    let mut weights = w0.to_vec();
    // Kernel 1.
    let mut likelihood = vec![0.0f32; NP * S];
    for i in 0..NP {
        let mut acc = 0.0f32;
        for s in 0..S {
            let v = ax[i] * 0.5 + ay[i] * 0.25 + s as f32;
            likelihood[s * NP + i] = v * v / 2.0 - v.abs();
            acc += likelihood[s * NP + i];
        }
        weights[i] *= (acc / S as f32 - 4.0).exp();
    }
    // buf[0]*0.0 contributes nothing; weights unchanged by the epilogue.
    // Kernel 2 + 3.
    let nblocks = GRID as usize;
    let mut partial = vec![0.0f32; nblocks];
    for b in 0..nblocks {
        for t in 0..BLOCK {
            partial[b] += weights[(b * BLOCK + t) % NP];
        }
    }
    let total: f32 = partial.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    // Kernel 4.
    let mut xj = vec![0.0f32; NP];
    for i in 0..NP {
        let mut idx = NP - 1;
        for (j, c) in cdf.iter().enumerate() {
            if *c >= u[i] {
                idx = j;
                break;
            }
        }
        xj[i] = idx as f32;
    }
    HostRef { weights, xj }
}

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let ax = data::vector("pf:x", NP);
    let ay = data::vector("pf:y", NP);
    let w0: Vec<f32> = vec![1.0; NP];
    let mut cdf = data::vector("pf:cdf", NP);
    // A CDF must be nondecreasing.
    for i in 1..NP {
        cdf[i] += cdf[i - 1];
    }
    let maxc = *cdf.last().unwrap();
    for c in &mut cdf {
        *c /= maxc;
    }
    let u = data::vector("pf:u", NP);
    let want = validate.then(|| host_reference(&ax, &ay, &w0, &cdf, &u));
    let (mut mem, [bax, bay, bind, blik, bw, bpartial, bcdf, bu, bxj]) = GlobalMem::with_buffers([
        Init::F32(ax),
        Init::F32(ay),
        Init::Zeroed((NP * S) as u32),
        Init::Zeroed((NP * S) as u32),
        Init::F32(w0),
        Init::Zeroed(GRID),
        Init::F32(cdf),
        Init::F32(u),
        Init::Zeroed(NP as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1, LAUNCHES[1].1, LAUNCHES[2].1, LAUNCHES[3].1],
        &[
            vec![
                Arg::Buf(bax),
                Arg::Buf(bay),
                Arg::Buf(bind),
                Arg::Buf(blik),
                Arg::Buf(bw),
            ],
            vec![Arg::Buf(bw), Arg::Buf(bpartial)],
            vec![Arg::Buf(bw), Arg::Buf(bpartial), Arg::I32(GRID as i32)],
            vec![Arg::Buf(bcdf), Arg::Buf(bu), Arg::Buf(bxj)],
        ],
        config,
        &mut mem,
    );
    if let Some(h) = want {
        data::assert_close(mem.f32s(bw), &h.weights, 5e-3, "PF weights");
        data::assert_close(mem.f32s(bxj), &h.xj, 0.0, "PF xj");
    }
    stats
}

/// The PF workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "PF",
        name: "Particle filter",
        suite: "Rodinia",
        group: Group::Cs,
        smem_kb: 4.0,
        input: "4096 particles x 16 samples",
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
    fn per_loop_decisions_inside_kernel1() {
        let w = workload();
        let (out, app) =
            harness::run_catt(&w, &harness::eval_config_max_l1d()).expect("policy run succeeds");
        assert!(out.cycles > 0);
        let k1 = &app.kernels[0].analysis;
        // 4 KB shared memory → carve-out planned, L1D below 128 KB.
        assert!(k1.plan.smem_carveout_bytes >= 4 * 1024);
        // Loops 1 and 2 are divergent (ind/likelihood strided by S)...
        assert!(k1.loops[0].contended, "loop 1 divergent");
        assert!(k1.loops[1].contended, "loop 2 divergent");
        // ...while loop 3's transposed likelihood read is coalesced and
        // stays at full TLP — the per-loop independence Table 3 shows for
        // PF#1.
        assert!(!k1.loops[2].decision.is_throttled(), "loop 3 coalesced");
        let k4 = &app.kernels[3].analysis;
        assert!(
            k4.loops.iter().all(|l| !l.decision.is_throttled()),
            "uniform CDF scan must stay at full TLP"
        );
    }
}
