//! Run workloads under the three evaluation policies: baseline, CATT,
//! and BFTT (the paper's Figures 6–10 machinery).
//!
//! All policy runs go through the process-wide [`Engine`]: simulations
//! are memoized in the content-addressed cache (keyed by lowered
//! kernels + launch geometry + [`GpuConfig`]), and failures surface as
//! [`EvalError`]s instead of panics. BFTT probe runs skip output
//! validation and are cached under a separate `<abbrev>#probe` scope so
//! a validated run is never served from an unvalidated probe's entry.

use crate::registry::Workload;
use catt_core::bftt::{self, BfttResult, SweepError};
use catt_core::engine::{Engine, JobError};
use catt_core::pipeline::{CompiledApp, Pipeline};
use catt_ir::LaunchConfig;
use catt_sim::{GpuConfig, LaunchStats};
use std::fmt;

/// A policy run failed.
#[derive(Debug, Clone)]
pub enum EvalError {
    /// CATT compilation of one kernel failed.
    Compile {
        /// Workload abbreviation.
        abbrev: &'static str,
        /// Kernel that failed to compile.
        kernel: String,
        /// The pipeline's error message.
        message: String,
    },
    /// A simulation job failed (panicked or errored).
    Sim(JobError),
    /// A BFTT sweep candidate failed.
    Sweep(SweepError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Compile {
                abbrev,
                kernel,
                message,
            } => write!(f, "{abbrev}: compiling kernel `{kernel}`: {message}"),
            EvalError::Sim(e) => e.fmt(f),
            EvalError::Sweep(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<JobError> for EvalError {
    fn from(e: JobError) -> EvalError {
        EvalError::Sim(e)
    }
}

impl From<SweepError> for EvalError {
    fn from(e: SweepError) -> EvalError {
        EvalError::Sweep(e)
    }
}

/// Outcome of one policy run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Accumulated statistics over every kernel launch of the app.
    pub stats: LaunchStats,
}

impl RunOutcome {
    /// Total cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }
}

/// Declared launch geometry of every kernel, in order — the launch part
/// of the workload's simulation-cache identity. (Iterative apps such as
/// BFS derive their actual launch sequence from these deterministically.)
fn declared_launches(w: &Workload, n_kernels: usize) -> Vec<LaunchConfig> {
    (0..n_kernels).map(|i| w.launch(i)).collect()
}

/// Run (possibly transformed) `kernels` of `w` through the global
/// [`Engine`]'s simulation cache. `validate` selects host-side output
/// validation and, with it, the cache scope: validated runs and
/// unvalidated timing probes never share entries (a validated result
/// must never be served from a run that skipped validation).
pub fn run_cached(
    w: &Workload,
    kernels: &[catt_ir::Kernel],
    config: &GpuConfig,
    validate: bool,
) -> Result<RunOutcome, EvalError> {
    let scope = if validate {
        w.abbrev.to_string()
    } else {
        format!("{}#probe", w.abbrev)
    };
    let launches = declared_launches(w, kernels.len());
    let stats = Engine::global().sim_app(&scope, kernels, &launches, config, || {
        (w.run)(kernels, config, validate)
    })?;
    Ok(RunOutcome { stats })
}

/// Run the application untransformed, memoized on the global [`Engine`].
pub fn run_baseline(w: &Workload, config: &GpuConfig) -> Result<RunOutcome, EvalError> {
    run_cached(w, &w.kernels(), config, true)
}

/// Run the application untransformed with the profiling sink armed and
/// return the per-launch profiles alongside the outcome (one
/// [`LaunchProfile`](catt_sim::LaunchProfile) per kernel launch, in
/// launch order). Profiled runs bypass the engine's simulation cache —
/// the profile is a side channel the cache does not store — and are
/// bit-identical to unprofiled runs in stats and memory effects (see
/// DESIGN.md "Profiling & trace subsystem").
pub fn run_profiled(
    w: &Workload,
    config: &GpuConfig,
) -> Result<(RunOutcome, Vec<catt_sim::LaunchProfile>), EvalError> {
    let mut cfg = config.clone();
    cfg.profile = Some(true);
    catt_sim::profile::set_capture(true);
    let res = run_cached(w, &w.kernels(), &cfg, true);
    let profiles = catt_sim::profile::take_captured();
    catt_sim::profile::set_capture(false);
    let out = res?;
    Ok((out, profiles))
}

/// Compile the application with CATT and run the transformed kernels.
/// Returns the outcome together with the compilation record (per-loop
/// decisions, Table 3 data).
pub fn run_catt(w: &Workload, config: &GpuConfig) -> Result<(RunOutcome, CompiledApp), EvalError> {
    let pipe = Pipeline::new(config.clone());
    let kernels = w.kernels();
    let mut compiled = Vec::new();
    for (i, k) in kernels.iter().enumerate() {
        compiled.push(
            pipe.compile_kernel(k, w.launch(i))
                .map_err(|e| EvalError::Compile {
                    abbrev: w.abbrev,
                    kernel: k.name.clone(),
                    message: e.to_string(),
                })?,
        );
    }
    let app = CompiledApp { kernels: compiled };
    let transformed = app.transformed_kernels();
    let out = run_cached(w, &transformed, config, true)?;
    Ok((out, app))
}

/// Run the BFTT exhaustive sweep for the application and return the best
/// candidate's outcome plus the full sweep record.
///
/// Candidate runs skip output validation (they are timing probes) and
/// are cached under the `<abbrev>#probe` scope; the winning
/// configuration is re-run with validation on under the plain scope.
pub fn run_bftt(w: &Workload, config: &GpuConfig) -> Result<(RunOutcome, BfttResult), EvalError> {
    let kernels = w.kernels();
    let launch = w.block_launch();
    let probe_scope = format!("{}#probe", w.abbrev);
    let result = bftt::sweep(&probe_scope, &kernels, launch, config, |ks, cfg| {
        (w.run)(ks, cfg, false)
    })?;
    let best = result.best_candidate();
    // Re-run the winner with validation.
    let warps = launch.warps_per_block();
    let transformed: Vec<_> = kernels
        .iter()
        .map(|k| {
            catt_core::pipeline::apply_uniform(
                k,
                best.n,
                best.m,
                warps,
                best.tbs + best.m,
                config.smem_carveout_bytes,
            )
        })
        .collect();
    let out = run_cached(w, &transformed, config, true)?;
    Ok((out, result))
}

/// Launch a sequence of kernels back to back on one device, accumulating
/// statistics (the host side of every multi-kernel application).
pub fn exec_sequence(
    kernels: &[catt_ir::Kernel],
    launches: &[catt_ir::LaunchConfig],
    args: &[Vec<catt_sim::Arg>],
    config: &GpuConfig,
    mem: &mut catt_sim::GlobalMem,
) -> LaunchStats {
    assert_eq!(kernels.len(), launches.len());
    assert_eq!(kernels.len(), args.len());
    let mut gpu = catt_sim::Gpu::new(config.clone());
    let mut total = LaunchStats::default();
    let functional = FUNCTIONAL.with(|f| f.get());
    for ((k, launch), a) in kernels.iter().zip(launches).zip(args) {
        let stats = if functional {
            gpu.execute(k, *launch, a, mem).map(|c| LaunchStats {
                instructions: c.instructions,
                tbs: c.tbs,
                warps: c.warps,
                ..LaunchStats::default()
            })
        } else {
            gpu.launch(k, *launch, a, mem)
        }
        .unwrap_or_else(|e| panic!("kernel `{}`: {e}", k.name));
        total.resident_tbs_per_sm = stats.resident_tbs_per_sm;
        total.accumulate(&stats);
    }
    MEM_DIGEST.with(|d| {
        if d.get().0 {
            d.set((true, Some(mem.content_digest())));
        }
    });
    total
}

thread_local! {
    /// (capture enabled, digest of the memory image after the most recent
    /// `exec_sequence` on this thread).
    static MEM_DIGEST: std::cell::Cell<(bool, Option<u64>)> =
        const { std::cell::Cell::new((false, None)) };
}

thread_local! {
    /// Whether [`exec_sequence`] executes functionally on this thread.
    static FUNCTIONAL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Test instrumentation, like [`set_mem_digest_capture`]: make
/// [`exec_sequence`] on this thread run every launch through
/// [`catt_sim::Gpu::execute`] instead of [`catt_sim::Gpu::launch`], so the
/// functional-vs-timed equivalence suite can drive each workload's own
/// host orchestration both ways. The returned stats then carry only the
/// instruction, block and warp counts.
pub fn set_functional_execution(enabled: bool) {
    FUNCTIONAL.with(|f| f.set(enabled));
}

/// Enable or disable capturing the post-run memory digest in
/// [`exec_sequence`] (thread-local; off by default because hashing the
/// full footprint after every run is measurable in sweeps). The
/// parallel-vs-sequential equivalence suite turns it on to assert
/// bit-identical output buffers across execution modes.
pub fn set_mem_digest_capture(enabled: bool) {
    MEM_DIGEST.with(|d| d.set((enabled, None)));
}

/// The memory digest recorded by the most recent [`exec_sequence`] on this
/// thread, if capture is enabled and a run has completed.
pub fn last_mem_digest() -> Option<u64> {
    MEM_DIGEST.with(|d| d.get().1)
}

/// Geometric mean of a slice (the paper reports geomean speedups).
/// `None` on an empty slice — callers that need a neutral element for an
/// empty group use `.unwrap_or(1.0)` (the geomean identity).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// L2 capacity granted to the single-SM evaluation vehicle, in KB.
///
/// A real Titan V SM competes with 79 others for the 4.5–6 MB device
/// L2; giving the 1-SM vehicle the whole cache would let it hold entire
/// working sets that a contended SM never could. 256 KB models a busy
/// device's per-SM share (substitution documented in DESIGN.md §3h).
pub const EVAL_L2_KB: u32 = 256;

/// The evaluation GPU: one Titan V SM with the maximum L1D (the
/// "Max. L1D" columns of the paper's figures). See DESIGN.md for why one
/// SM is the evaluation vehicle.
pub fn eval_config_max_l1d() -> GpuConfig {
    let mut c = GpuConfig::titan_v_1sm();
    c.l2_kb = Some(EVAL_L2_KB);
    c
}

/// The 32 KB L1D sensitivity configuration (paper §5.1.3, Fig. 10).
pub fn eval_config_32kb_l1d() -> GpuConfig {
    let mut c = GpuConfig::titan_v_1sm();
    c.l1_cap_bytes = Some(32 * 1024);
    c.l2_kb = Some(EVAL_L2_KB);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn eval_configs_differ_in_l1d() {
        assert_eq!(eval_config_max_l1d().l1d_bytes(), 128 * 1024);
        assert_eq!(eval_config_32kb_l1d().l1d_bytes(), 32 * 1024);
    }
}
