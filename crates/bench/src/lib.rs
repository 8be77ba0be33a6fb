//! # catt-bench — the paper's evaluation harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index). This library holds the shared experiment drivers and
//! plain-text table formatting; host-side timing is `benchmark/`'s job
//! (`BENCHMARK.json`), not this crate's.
//!
//! ```text
//! cargo run --release -p catt-bench --bin table3
//! cargo run --release -p catt-bench --bin fig7
//! ```

use catt_sim::GpuConfig;
use catt_workloads::registry::Workload;
use catt_workloads::{harness, run_baseline, run_bftt, run_catt, EvalError};

pub use catt_workloads::{engine, CacheCounters, Engine, JobError};

/// Result of evaluating one application under the three policies.
pub struct AppEval {
    pub abbrev: &'static str,
    /// Baseline cycles / L1D hit rate.
    pub base_cycles: u64,
    pub base_hit: f64,
    /// BFTT best cycles / hit rate and its chosen `(warps, TBs)`.
    pub bftt_cycles: u64,
    pub bftt_hit: f64,
    pub bftt_setting: (u32, u32),
    /// CATT cycles / hit rate.
    pub catt_cycles: u64,
    pub catt_hit: f64,
    /// Whether CATT transformed anything.
    pub catt_transformed: bool,
}

impl AppEval {
    /// Normalized execution times (baseline = 1.0), the y-axis of
    /// Figs. 7, 8 and 10.
    pub fn normalized(&self) -> (f64, f64) {
        (
            self.bftt_cycles as f64 / self.base_cycles as f64,
            self.catt_cycles as f64 / self.base_cycles as f64,
        )
    }

    /// Speedups over baseline.
    pub fn speedups(&self) -> (f64, f64) {
        (
            self.base_cycles as f64 / self.bftt_cycles as f64,
            self.base_cycles as f64 / self.catt_cycles as f64,
        )
    }
}

/// Evaluate one workload under baseline / BFTT / CATT on `config`. Runs
/// are memoized on the global [`Engine`]; any simulation or compilation
/// failure propagates with the failing workload (and, for BFTT, the
/// failing `(n, m)` candidate) named in the error.
pub fn eval_app(w: &Workload, config: &GpuConfig, with_bftt: bool) -> Result<AppEval, EvalError> {
    let base = run_baseline(w, config)?;
    let (catt, app) = run_catt(w, config)?;
    let (bftt_cycles, bftt_hit, bftt_setting) = if with_bftt {
        let (out, sweep) = run_bftt(w, config)?;
        let best = sweep.best_candidate();
        (
            out.cycles(),
            out.stats.l1_hit_rate(),
            (best.warps, best.tbs),
        )
    } else {
        (base.cycles(), base.stats.l1_hit_rate(), (0, 0))
    };
    Ok(AppEval {
        abbrev: w.abbrev,
        base_cycles: base.cycles(),
        base_hit: base.stats.l1_hit_rate(),
        bftt_cycles,
        bftt_hit,
        bftt_setting,
        catt_cycles: catt.cycles(),
        catt_hit: catt.stats.l1_hit_rate(),
        catt_transformed: app.kernels.iter().any(|k| k.is_transformed()),
    })
}

/// Evaluate a whole group, printing progress to stderr. Stops at the
/// first failing workload.
pub fn eval_group(
    workloads: &[Workload],
    config: &GpuConfig,
    with_bftt: bool,
) -> Result<Vec<AppEval>, EvalError> {
    workloads
        .iter()
        .map(|w| {
            if Engine::global().progress() != engine::Progress::Off {
                eprintln!("  evaluating {} ...", w.abbrev);
            }
            eval_app(w, config, with_bftt)
        })
        .collect()
}

/// The engine the figure/table binaries evaluate on, as the environment
/// asks for it (same three variables as the `catt` binary, table in
/// EXPERIMENTS.md): cache from `CATT_SIMCACHE` (`off` | `mem` | `<dir>`;
/// unset = JSONL under `results/.simcache/`, see DESIGN.md), worker bound
/// from `CATT_ENGINE_WORKERS`, stderr verbosity from
/// `CATT_ENGINE_PROGRESS` (`off` | `summary` | `full`; default `summary`).
fn engine_from_env() -> Engine {
    let cache = std::env::var("CATT_SIMCACHE")
        .ok()
        .filter(|v| !v.is_empty());
    let mut engine = match cache.as_deref().unwrap_or("results/.simcache") {
        "off" => Engine::uncached(),
        "mem" => Engine::new(),
        dir => Engine::persistent(dir),
    };
    let workers = std::env::var("CATT_ENGINE_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0);
    if let Some(n) = workers {
        engine = engine.with_worker_bound(n);
    }
    engine.with_progress(match std::env::var("CATT_ENGINE_PROGRESS").as_deref() {
        Ok("off") => engine::Progress::Off,
        Ok("full") => engine::Progress::Full,
        _ => engine::Progress::Summary,
    })
}

/// Entry-point wrapper for the figure/table binaries: install the
/// process-wide engine (see [`engine_from_env`]), run `body`, and print
/// the engine's per-job timing and cache hit/miss summary to stderr. A
/// failing evaluation exits nonzero with the failing workload/candidate
/// named, instead of panicking mid-figure.
pub fn run_eval(body: impl FnOnce() -> Result<(), EvalError>) -> std::process::ExitCode {
    let engine = Engine::init_global(engine_from_env());
    let code = match body() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    };
    engine.print_summary();
    code
}

/// Print a normalized-execution-time figure (Figs. 7 / 8 / 10 style) and
/// the geomean speedup line the paper quotes.
pub fn print_normalized_figure(title: &str, evals: &[AppEval]) {
    println!("{title}");
    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "app", "baseline", "BFTT", "CATT"
    );
    for e in evals {
        let (b, c) = e.normalized();
        println!("{:<8} {:>10.3} {:>10.3} {:>10.3}", e.abbrev, 1.0, b, c);
    }
    let bftt_speedups: Vec<f64> = evals.iter().map(|e| e.speedups().0).collect();
    let catt_speedups: Vec<f64> = evals.iter().map(|e| e.speedups().1).collect();
    println!(
        "geomean speedup over baseline: BFTT {:+.2}% | CATT {:+.2}%",
        (harness::geomean(&bftt_speedups).unwrap_or(1.0) - 1.0) * 100.0,
        (harness::geomean(&catt_speedups).unwrap_or(1.0) - 1.0) * 100.0,
    );
}

/// Simple aligned-column printer used by the table binaries.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_workloads::registry;

    #[test]
    fn eval_app_runs_ci_quickly() {
        let w = registry::find("MC").unwrap();
        let e = eval_app(&w, &harness::eval_config_max_l1d(), false).expect("MC evaluates");
        assert!(e.base_cycles > 0);
        assert!(!e.catt_transformed);
        let (_, catt_norm) = e.normalized();
        assert!((catt_norm - 1.0).abs() < 1e-9, "CI app: CATT == baseline");
    }

    #[test]
    fn normalized_and_speedups_are_consistent() {
        let e = AppEval {
            abbrev: "X",
            base_cycles: 1000,
            base_hit: 0.5,
            bftt_cycles: 800,
            bftt_hit: 0.6,
            bftt_setting: (4, 4),
            catt_cycles: 500,
            catt_hit: 0.9,
            catt_transformed: true,
        };
        assert_eq!(e.normalized(), (0.8, 0.5));
        assert_eq!(e.speedups(), (1.25, 2.0));
    }
}
