//! KM — k-means clustering (Rodinia). Kernel 1 assigns each point to its
//! nearest cluster (row-major features: the distance loop is memory-
//! divergent); kernel 2 transposes the feature matrix (Rodinia's "swap"
//! kernel), also divergent on its input side. Contention is uniform over
//! the run, so CATT and BFTT pick equivalent settings (§5.1).

use crate::data;
use crate::harness::exec_sequence;
use crate::registry::{Group, RunFn, Workload};
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, GpuConfig, Init, LaunchStats};

/// Points.
pub const P: usize = 8192;
/// Features per point.
pub const F: usize = 16;
/// Clusters.
pub const K: usize = 8;

const SRC: &str = "
#define P 8192
#define F 16
#define K 8
__global__ void kmeans_membership(float *features, float *clusters, int *membership) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < P) {
        float best = 1e30f;
        int best_c = 0;
        for (int c = 0; c < K; c++) {
            float dist = 0.0f;
            for (int f = 0; f < F; f++) {
                float d = features[i * F + f] - clusters[c * F + f];
                dist += d * d;
            }
            if (dist < best) {
                best = dist;
                best_c = c;
            }
        }
        membership[i] = best_c;
    }
}
__global__ void kmeans_swap(float *features, float *features_t) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < P) {
        for (int f = 0; f < F; f++) {
            features_t[f * P + i] = features[i * F + f];
        }
    }
}
";

const GRID: u32 = (P / 256) as u32;
const LAUNCHES: &[(&str, LaunchConfig)] = &[
    ("kmeans_membership", LaunchConfig::d1(GRID, 256)),
    ("kmeans_swap", LaunchConfig::d1(GRID, 256)),
];

fn run(kernels: &[Kernel], config: &GpuConfig, validate: bool) -> LaunchStats {
    let features = data::matrix("km:f", P, F);
    let clusters = data::matrix("km:c", K, F);
    let want = validate.then(|| host_reference(&features, &clusters));
    let (mut mem, [bf, bc, bm, bt]) = GlobalMem::with_buffers([
        Init::F32(features),
        Init::F32(clusters),
        Init::Zeroed(P as u32),
        Init::Zeroed((P * F) as u32),
    ]);
    let stats = exec_sequence(
        kernels,
        &[LAUNCHES[0].1, LAUNCHES[1].1],
        &[
            vec![Arg::Buf(bf), Arg::Buf(bc), Arg::Buf(bm)],
            vec![Arg::Buf(bf), Arg::Buf(bt)],
        ],
        config,
        &mut mem,
    );
    if let Some((membership, swapped)) = want {
        let device_m = mem.read_i32(bm);
        for i in 0..P {
            assert_eq!(device_m[i], membership[i], "KM membership[{i}]");
        }
        for (k, (got, want)) in mem.f32s(bt).zip(swapped).enumerate() {
            assert_eq!(got, want, "KM swap ({},{})", k % P, k / P);
        }
    }
    stats
}

/// Each point's nearest cluster, and the features transposed to
/// feature-major order.
fn host_reference(features: &[f32], clusters: &[f32]) -> (Vec<i32>, Vec<f32>) {
    let membership = (0..P)
        .map(|i| {
            let mut best = f32::MAX;
            let mut best_c = 0;
            for c in 0..K {
                let dist: f32 = (0..F)
                    .map(|f| {
                        let d = features[i * F + f] - clusters[c * F + f];
                        d * d
                    })
                    .sum();
                if dist < best {
                    best = dist;
                    best_c = c as i32;
                }
            }
            best_c
        })
        .collect();
    let mut swapped = vec![0.0f32; P * F];
    for i in 0..P {
        for f in 0..F {
            swapped[f * P + i] = features[i * F + f];
        }
    }
    (membership, swapped)
}

/// The KM workload descriptor.
pub fn workload() -> Workload {
    Workload {
        abbrev: "KM",
        name: "K-means clustering",
        suite: "Rodinia",
        group: Group::Cs,
        smem_kb: 0.0,
        input: "8192 points x 16 features, 8 clusters",
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
    fn both_kernels_throttled_at_32kb() {
        // Table 3, 32 KB: KM #1 (1, 8), #2 (1, 8).
        let w = workload();
        let (out, app) =
            harness::run_catt(&w, &harness::eval_config_32kb_l1d()).expect("policy run succeeds");
        assert!(out.cycles > 0);
        for (i, ck) in app.kernels.iter().enumerate() {
            assert!(
                ck.is_transformed(),
                "kernel {i} should be throttled at 32 KB"
            );
            let a = &ck.analysis;
            assert_eq!(a.baseline_tlp(), (8, 8), "kernel {i}");
            let throttled: Vec<_> = a
                .loops
                .iter()
                .filter(|l| l.decision.is_throttled())
                .collect();
            assert!(!throttled.is_empty(), "kernel {i}");
            assert_eq!(
                throttled[0].tlp(a.warps_per_tb, a.plan.resident_tbs),
                (1, 8),
                "kernel {i}"
            );
        }
    }
}
