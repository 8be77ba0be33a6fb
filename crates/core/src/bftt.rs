//! Best-fixed thread throttling (BFTT) — the paper's strongest software
//! baseline (§5): exhaustively try every `(warps, TBs)` combination for an
//! application, measure each on the simulator, and keep the fastest. One
//! fixed setting per application, in contrast to CATT's per-loop settings.

use crate::engine::{Engine, JobError};
use crate::pipeline::apply_uniform;
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{max_resident_tbs, GpuConfig, LaunchStats};
use std::fmt;

/// A sweep failed outright: the *baseline* candidate `(n=1, m=0)` — the
/// untransformed application every speedup is measured against — panicked
/// or errored, so no meaningful result exists. Non-baseline candidate
/// faults do **not** raise this: they are recorded as
/// [`CandidateOutcome::Faulted`] and excluded from the argmin.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepError {
    /// Warp divisor of the failing candidate.
    pub n: u32,
    /// TB reduction of the failing candidate.
    pub m: u32,
    /// The underlying job failure.
    pub cause: JobError,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BFTT candidate (n={}, m={}) failed: {}",
            self.n, self.m, self.cause
        )
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct BfttCandidate {
    /// Warp divisor tried.
    pub n: u32,
    /// TB reduction tried.
    pub m: u32,
    /// Active warps per block this candidate runs (`#Warps_TB / n`).
    pub warps: u32,
    /// Resident blocks per SM this candidate runs.
    pub tbs: u32,
    /// Measured statistics of the whole application.
    pub stats: LaunchStats,
}

/// Outcome of one sweep candidate: measured, or faulted and excluded.
#[derive(Debug, Clone)]
pub enum CandidateOutcome {
    /// The candidate simulated successfully.
    Healthy(BfttCandidate),
    /// The candidate's simulation faulted (deadlock, fuel exhaustion,
    /// panic, …). Recorded for diagnostics, excluded from the argmin.
    Faulted {
        /// Warp divisor of the faulted candidate.
        n: u32,
        /// TB reduction of the faulted candidate.
        m: u32,
        /// What went wrong.
        error: JobError,
    },
}

impl CandidateOutcome {
    /// The measured candidate, unless it faulted.
    pub fn healthy(&self) -> Option<&BfttCandidate> {
        match self {
            CandidateOutcome::Healthy(c) => Some(c),
            CandidateOutcome::Faulted { .. } => None,
        }
    }
}

/// Result of a BFTT sweep.
#[derive(Debug, Clone)]
pub struct BfttResult {
    /// Every grid point's outcome, in sweep order: `(n=1, m=0)` first, the
    /// baseline, which is always healthy (a faulted baseline fails the
    /// sweep with a [`SweepError`] instead).
    pub outcomes: Vec<CandidateOutcome>,
    /// Index into `outcomes` of the fastest healthy candidate.
    pub best: usize,
}

impl BfttResult {
    /// The healthy candidate at `outcomes[i]`.
    fn healthy(&self, i: usize) -> &BfttCandidate {
        self.outcomes[i]
            .healthy()
            .expect("the sweep keeps the baseline and the best healthy")
    }

    /// The fastest healthy candidate.
    pub fn best_candidate(&self) -> &BfttCandidate {
        self.healthy(self.best)
    }

    /// The baseline (untransformed) candidate.
    pub fn baseline(&self) -> &BfttCandidate {
        self.healthy(0)
    }

    /// Speedup of the best candidate over the baseline.
    pub fn best_speedup(&self) -> f64 {
        self.baseline().stats.cycles as f64 / self.best_candidate().stats.cycles as f64
    }

    /// The faulted candidates (empty on a fully healthy sweep).
    pub fn faulted(&self) -> Vec<(u32, u32, &JobError)> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                CandidateOutcome::Faulted { n, m, error } => Some((*n, *m, error)),
                CandidateOutcome::Healthy(_) => None,
            })
            .collect()
    }
}

/// Candidate `(n, m)` grid for an application whose kernels run
/// `warps_per_tb` warps per block with `resident_tbs` blocks per SM:
/// `n` over the divisors of `warps_per_tb` (so groups partition evenly),
/// `m` from 0 (only combined with `n = warps_per_tb`, mirroring the
/// paper's search order: warps first, then blocks).
pub fn candidate_grid(warps_per_tb: u32, resident_tbs: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for n in 1..=warps_per_tb {
        if warps_per_tb.is_multiple_of(n) {
            out.push((n, 0));
        }
    }
    for m in 1..resident_tbs {
        out.push((warps_per_tb, m));
    }
    out
}

/// Resident blocks per SM of an application whose kernels all run
/// `launch`'s block shape: the occupancy of the *least occupied* kernel,
/// which bounds the `M` axis of [`candidate_grid`].
pub fn resident_tbs(kernels: &[Kernel], launch: LaunchConfig, config: &GpuConfig) -> u32 {
    kernels
        .iter()
        .map(|k| {
            let regs = catt_sim::lower(k).map(|p| p.num_regs as u32).unwrap_or(32);
            max_resident_tbs(
                config,
                k.shared_mem_bytes(),
                regs,
                launch.threads_per_block(),
            )
            .resident_tbs()
        })
        .min()
        .unwrap_or(1)
        .max(1)
}

/// The application `kernels` with kernel `only` (every kernel, when `None`)
/// throttled uniformly to ladder point `(n, m)` of blocks that run `warps`
/// warps with `resident` blocks per SM; `carveout` is the configuration's
/// shared-memory carve-out. The one builder of [`candidate_grid`]'s
/// programs: the sweep, the tuner and the figures all call it.
pub fn uniform(
    kernels: &[Kernel],
    only: Option<usize>,
    (n, m): (u32, u32),
    (warps, resident): (u32, u32),
    carveout: u32,
) -> Vec<Kernel> {
    kernels
        .iter()
        .enumerate()
        .map(|(i, k)| match only {
            Some(j) if j != i => k.clone(),
            _ => apply_uniform(k, n, m, warps, resident, carveout),
        })
        .collect()
}

/// Exhaustive sweep. `run` executes the application end to end with the
/// given (transformed) kernels on `config` and returns its total
/// statistics; it is called once per *uncached* candidate, on `engine`'s
/// bounded worker pool. `scope` names the application and its inputs in
/// the simulation-cache key (registry workloads pass their abbreviation).
///
/// The sweep degrades gracefully: a non-baseline candidate whose
/// simulation panics or errors is recorded as
/// [`CandidateOutcome::Faulted`] and excluded from the argmin, so one bad
/// `(n, m)` setting cannot take down the run. Only a faulted *baseline*
/// `(n=1, m=0)` — without which there is nothing to compare against —
/// fails the sweep, with a [`SweepError`] identifying it.
///
/// All kernels must share one block geometry (true of every workload in
/// the paper's Table 2; mixed-geometry applications would need a
/// per-kernel grid, which BFTT by definition does not have).
pub fn sweep_on<F>(
    engine: &Engine,
    scope: &str,
    kernels: &[Kernel],
    launch: LaunchConfig,
    config: &GpuConfig,
    run: F,
) -> Result<BfttResult, SweepError>
where
    F: Fn(&[Kernel], &GpuConfig) -> LaunchStats + Sync,
{
    let warps_per_tb = launch.warps_per_block();
    let resident_tbs = resident_tbs(kernels, launch, config);
    let grid = candidate_grid(warps_per_tb, resident_tbs);

    let label = format!("BFTT {scope}");
    let tlp = (warps_per_tb, resident_tbs);
    let results = engine.run_jobs(&label, &grid, |_, &(n, m)| {
        let transformed = uniform(kernels, None, (n, m), tlp, config.smem_carveout_bytes);
        // The digest scope stays the plain application tag: candidates are
        // distinguished by their transformed programs, so a no-op
        // transform (n=1, m=0) shares its entry with the baseline run.
        let stats = engine.sim_app(scope, &transformed, &[launch], config, || {
            run(&transformed, config)
        })?;
        Ok(BfttCandidate {
            n,
            m,
            warps: warps_per_tb / n,
            tbs: resident_tbs - m,
            stats,
        })
    });

    let mut outcomes = Vec::with_capacity(grid.len());
    for (idx, (result, &(n, m))) in results.into_iter().zip(&grid).enumerate() {
        outcomes.push(match result {
            Ok(candidate) => CandidateOutcome::Healthy(candidate),
            // The baseline is the denominator of every speedup; without it
            // the sweep has no meaning.
            Err(cause) if idx == 0 => return Err(SweepError { n, m, cause }),
            Err(error) => CandidateOutcome::Faulted { n, m, error },
        });
    }
    let best = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| Some((i, o.healthy()?.stats.cycles)))
        .min_by_key(|&(_, cycles)| cycles)
        .map(|(i, _)| i)
        .expect("baseline candidate is healthy");
    Ok(BfttResult { outcomes, best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_frontend::parse_kernel;
    use catt_sim::{Arg, GlobalMem, Gpu};

    #[test]
    fn grid_shape() {
        let g = candidate_grid(8, 4);
        assert_eq!(
            g,
            vec![(1, 0), (2, 0), (4, 0), (8, 0), (8, 1), (8, 2), (8, 3)]
        );
        let g = candidate_grid(6, 2);
        assert_eq!(g, vec![(1, 0), (2, 0), (3, 0), (6, 0), (6, 1)]);
    }

    /// On a cache-thrashing kernel, BFTT must find a throttled setting
    /// faster than the baseline.
    #[test]
    fn sweep_finds_throttled_optimum_on_contended_kernel() {
        let n = 256usize;
        let src = format!(
            "#define N {n}
             __global__ void mv(float *A, float *B, float *tmp) {{
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (i < N) {{
                     for (int j = 0; j < N; j++) {{
                         tmp[i] += A[i * N + j] * B[j];
                     }}
                 }}
             }}"
        );
        let kernel = parse_kernel(&src).unwrap();
        let launch = LaunchConfig::d1(1, 256);
        let mut config = GpuConfig::titan_v_1sm();
        config.l1_cap_bytes = Some(32 * 1024);
        let result = sweep_on(
            Engine::global(),
            "test-mv",
            std::slice::from_ref(&kernel),
            launch,
            &config,
            |kernels, cfg| {
                let mut mem = GlobalMem::new();
                let a = mem.alloc_f32(&vec![1.0; n * n]);
                let b = mem.alloc_f32(&vec![1.0; n]);
                let tmp = mem.alloc_zeroed(n as u32);
                let mut gpu = Gpu::new(cfg.clone());
                let stats = gpu
                    .launch(
                        &kernels[0],
                        launch,
                        &[Arg::Buf(a), Arg::Buf(b), Arg::Buf(tmp)],
                        &mut mem,
                    )
                    .unwrap();
                assert!(mem.read_f32(tmp).iter().all(|&v| v == n as f32));
                stats
            },
        )
        .expect("sweep succeeds");
        assert_eq!(result.baseline().n, 1);
        let best = result.best_candidate();
        assert!(
            best.n > 1 || best.m > 0,
            "contended kernel must prefer throttling (best: n={} m={})",
            best.n,
            best.m
        );
        assert!(
            result.best_speedup() > 1.2,
            "speedup {:.2}",
            result.best_speedup()
        );
    }

    /// On a cache-insensitive kernel, the baseline must win (or tie):
    /// BFTT never "mis-throttles" because it measures.
    #[test]
    fn sweep_keeps_baseline_on_insensitive_kernel() {
        let n = 4096usize;
        let src = "
            __global__ void stream(float *a, float *b, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { b[i] = a[i] * 2.0f; }
            }";
        let kernel = parse_kernel(src).unwrap();
        let launch = LaunchConfig::d1(16, 256);
        let config = GpuConfig::titan_v_1sm();
        let result = sweep_on(
            Engine::global(),
            "test-stream",
            std::slice::from_ref(&kernel),
            launch,
            &config,
            |kernels, cfg| {
                let mut mem = GlobalMem::new();
                let a = mem.alloc_f32(&vec![1.0; n]);
                let b = mem.alloc_zeroed(n as u32);
                let mut gpu = Gpu::new(cfg.clone());
                gpu.launch(
                    &kernels[0],
                    launch,
                    &[Arg::Buf(a), Arg::Buf(b), Arg::I32(n as i32)],
                    &mut mem,
                )
                .unwrap()
            },
        )
        .expect("sweep succeeds");
        let best = result.best_candidate();
        let base = result.baseline();
        assert!(
            best.stats.cycles <= base.stats.cycles,
            "sweep must never return something slower than what it measured"
        );
        // The baseline should be at or near the optimum for a streaming
        // kernel: best is within 5% of baseline.
        assert!(
            base.stats.cycles as f64 <= best.stats.cycles as f64 * 1.05,
            "baseline {} vs best {} — throttling should not help a stream",
            base.stats.cycles,
            best.stats.cycles
        );
    }
}
