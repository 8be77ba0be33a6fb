//! Run workloads under the three evaluation policies: baseline, CATT,
//! and BFTT (the paper's Figures 6–10 machinery).
//!
//! All policy runs go through the process-wide [`Engine`]: simulations
//! are memoized in the content-addressed cache, and failures surface as
//! [`EvalError`]s instead of panics. A registry app has one cache
//! identity: its abbreviation as the scope, the programs run, the first
//! launch's geometry (the `[block_launch]` list a BFTT sweep keys on) and
//! the [`GpuConfig`]. Scope and programs already fix the app's launch
//! sequence, so a program measured by the tuner, a BFTT sweep or a
//! figure is simulated once in a process and served to the rest. Every run
//! validates the app's output against its host reference.

use crate::registry::Workload;
use catt_core::bftt::{self, BfttResult, SweepError};
use catt_core::engine::{Engine, JobError};
use catt_core::pipeline::{CompiledApp, Pipeline};
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

/// Run (possibly transformed) `kernels` of `w`, validated, through the
/// global [`Engine`]'s simulation cache under the app's one identity, and
/// return the statistics accumulated over every kernel launch of the app.
pub fn run_cached(
    w: &Workload,
    kernels: &[catt_ir::Kernel],
    config: &GpuConfig,
) -> Result<LaunchStats, EvalError> {
    let stats = Engine::global().sim_app(w.abbrev, kernels, &[w.launch(0)], config, || {
        (w.run)(kernels, config, true)
    })?;
    Ok(stats)
}

/// Run the application untransformed, memoized on the global [`Engine`].
pub fn run_baseline(w: &Workload, config: &GpuConfig) -> Result<LaunchStats, EvalError> {
    run_cached(w, &w.kernels(), config)
}

/// Run the application untransformed with the profiling sink armed and
/// return the per-launch profiles alongside the statistics (one
/// [`LaunchProfile`](catt_sim::LaunchProfile) per kernel launch, in
/// launch order). Capture is thread-local: the profiles are those of the
/// calling thread. A profiled run always simulates — a cache hit would
/// produce no profile — and its stats, bit-identical to an unprofiled
/// run's (see DESIGN.md "Profiling & trace subsystem"), seed the cache:
/// a [`run_baseline`] after it is a hit.
pub fn run_profiled(
    w: &Workload,
    config: &GpuConfig,
) -> Result<(LaunchStats, Vec<catt_sim::LaunchProfile>), EvalError> {
    let mut cfg = config.clone();
    cfg.profile = Some(true);
    catt_sim::profile::set_capture(true);
    let res = run_cached(w, &w.kernels(), &cfg);
    let profiles = catt_sim::profile::take_captured();
    catt_sim::profile::set_capture(false);
    Ok((res?, profiles))
}

/// Compile every kernel of the application with CATT (per-loop
/// decisions, Table 3 data) without running anything.
pub fn compile_catt(w: &Workload, config: &GpuConfig) -> Result<CompiledApp, EvalError> {
    let pipe = Pipeline::new(config.clone());
    let kernels = w
        .kernels()
        .iter()
        .enumerate()
        .map(|(i, k)| {
            pipe.compile_kernel(k, w.launch(i))
                .map_err(|e| EvalError::Compile {
                    abbrev: w.abbrev,
                    kernel: k.name.clone(),
                    message: e.to_string(),
                })
        })
        .collect::<Result<_, _>>()?;
    Ok(CompiledApp { kernels })
}

/// Compile the application with CATT and run the transformed kernels.
/// Returns the statistics together with the compilation record.
pub fn run_catt(w: &Workload, config: &GpuConfig) -> Result<(LaunchStats, CompiledApp), EvalError> {
    let app = compile_catt(w, config)?;
    let stats = run_cached(w, &app.transformed_kernels(), config)?;
    Ok((stats, app))
}

/// Run the BFTT exhaustive sweep for the application on the global
/// [`Engine`]. Candidates share the app's cache identity with every other
/// run, so a ladder point the tuner or a figure already measured is not
/// simulated again.
pub fn run_bftt(w: &Workload, config: &GpuConfig) -> Result<BfttResult, EvalError> {
    Ok(bftt::sweep_on(
        Engine::global(),
        w.abbrev,
        &w.kernels(),
        w.block_launch(),
        config,
        |ks, cfg| (w.run)(ks, cfg, true),
    )?)
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
    MEM_FOOTPRINT.with(|f| f.set(Some(mem.footprint_bytes())));
    total
}

thread_local! {
    /// (capture enabled, digest of the memory image after the most recent
    /// `exec_sequence` on this thread).
    static MEM_DIGEST: std::cell::Cell<(bool, Option<u64>)> =
        const { std::cell::Cell::new((false, None)) };
    /// Device footprint in bytes after the most recent `exec_sequence` on
    /// this thread (always recorded: it costs one read).
    static MEM_FOOTPRINT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
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
/// full footprint after every run is measurable in sweeps). Equivalence
/// suites (profiled vs unprofiled, functional vs timed) turn it on to
/// assert bit-identical output buffers.
pub fn set_mem_digest_capture(enabled: bool) {
    MEM_DIGEST.with(|d| d.set((enabled, None)));
}

/// The memory digest recorded by the most recent [`exec_sequence`] on this
/// thread, if capture is enabled and a run has completed.
pub fn last_mem_digest() -> Option<u64> {
    MEM_DIGEST.with(|d| d.get().1)
}

/// The device footprint, in bytes, of the most recent [`exec_sequence`] on
/// this thread: what a run's memory is held to, since device memory is the
/// only copy of its data.
pub fn last_mem_footprint() -> Option<usize> {
    MEM_FOOTPRINT.with(|f| f.get())
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
