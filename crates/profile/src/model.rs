//! Eq. 8 model validation: static footprint prediction vs observed
//! working set.
//!
//! The paper's central claim is that the compile-time footprint estimate
//! (`SIZE_req`, Eq. 8) predicts cache contention well enough to drive
//! throttling decisions. This module closes that loop per workload: for
//! every analyzable loop it pairs the static per-SM footprint (in cache
//! lines) with what the profiled run actually observed — the per-SM
//! unique-line working set and the L1D miss rates (cold and warm).
//!
//! Granularity caveat, stated rather than hidden: predictions are
//! per-*loop*, observations are per-*kernel launch* (the sink does not
//! attribute accesses to source loops). For the paper's workloads each
//! kernel's traffic is dominated by one loop nest, so the comparison is
//! meaningful; multi-loop kernels repeat the same observed columns
//! against each loop's prediction.

use catt_sim::profile::LaunchProfile;
use catt_sim::GpuConfig;
use catt_workloads::registry::Workload;
use std::fmt::Write as _;

/// One prediction-vs-observation row (one analyzable loop).
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Kernel the loop belongs to.
    pub kernel: String,
    /// Loop id within the kernel (1-based, as `catt analyze` prints).
    pub loop_id: usize,
    /// Eq. 8 static per-SM footprint, in cache lines.
    pub predicted_lines: u64,
    /// L1D capacity in lines the prediction was compared against.
    pub l1d_lines: u64,
    /// Whether the analysis predicted contention (footprint > capacity
    /// with regular divergence and locality).
    pub contended: bool,
    /// Observed: largest per-SM unique-line working set over the profiled
    /// launches of this kernel.
    pub observed_lines: usize,
    /// Observed: overall L1D load miss rate of this kernel's launches.
    pub miss_rate: f64,
    /// Observed: miss rate excluding each SM's first miss-curve window
    /// (the compulsory-miss warm-up). A fitting working set goes low; a
    /// thrashing one stays near the cold rate.
    pub warm_miss_rate: f64,
}

/// Per-kernel observed aggregates from the captured profiles.
struct Observed {
    max_unique_lines: usize,
    accesses: u64,
    misses: u64,
    warm_accesses: u64,
    warm_misses: u64,
}

fn observe(kernel: &str, profiles: &[LaunchProfile]) -> Observed {
    let mut o = Observed {
        max_unique_lines: 0,
        accesses: 0,
        misses: 0,
        warm_accesses: 0,
        warm_misses: 0,
    };
    for p in profiles.iter().filter(|p| p.kernel == kernel) {
        o.max_unique_lines = o.max_unique_lines.max(p.max_unique_lines_per_sm());
        for sm in &p.sms {
            // Overall rate from the per-set counters: exact, where the
            // curve stops recording at `SmProfile::MAX_WINDOWS`.
            for set in &sm.sets {
                o.accesses += set.accesses;
                o.misses += set.misses;
            }
            for w in sm.miss_curve.iter().skip(1) {
                o.warm_accesses += w.accesses as u64;
                o.warm_misses += w.misses as u64;
            }
        }
    }
    o
}

/// Pair every analyzable loop of `w`'s kernels with the observations in
/// `profiles` (as captured by `run_profiled` for the same config).
/// Kernels the analysis cannot plan for (unlaunchable geometry) are
/// skipped.
pub fn model_rows(w: &Workload, config: &GpuConfig, profiles: &[LaunchProfile]) -> Vec<ModelRow> {
    let mut rows = Vec::new();
    for (i, kernel) in w.kernels().iter().enumerate() {
        let Ok(program) = catt_sim::lower(kernel) else {
            continue;
        };
        let Some(analysis) = catt_core::analysis::analyze_kernel(
            kernel,
            w.launch(i),
            config,
            program.num_regs as u32,
        ) else {
            continue;
        };
        let l1d_lines = (analysis.plan.l1d_bytes / analysis.plan.config.l1_line_bytes) as u64;
        let o = observe(&kernel.name, profiles);
        let rate = |m: u64, a: u64| if a == 0 { 0.0 } else { m as f64 / a as f64 };
        for l in &analysis.loops {
            rows.push(ModelRow {
                kernel: kernel.name.clone(),
                loop_id: l.loop_id + 1,
                predicted_lines: l.size_req_lines,
                l1d_lines,
                contended: l.contended,
                observed_lines: o.max_unique_lines,
                miss_rate: rate(o.misses, o.accesses),
                warm_miss_rate: rate(o.warm_misses, o.warm_accesses),
            });
        }
    }
    rows
}

/// Render rows as the predicted-vs-observed table `catt profile` prints.
pub fn render(rows: &[ModelRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<24} {:>4}  {:>10} {:>9} {:>9}  {:>9} {:>9}  contended",
        "kernel/loop", "", "pred lines", "L1D lines", "obs lines", "miss%", "warm miss%"
    );
    if rows.is_empty() {
        let _ = writeln!(out, "  (no analyzable loops)");
        return out;
    }
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<24} {:>4}  {:>10} {:>9} {:>9}  {:>8.1}% {:>8.1}%  {}",
            r.kernel,
            format!("L{}", r.loop_id),
            r.predicted_lines,
            r.l1d_lines,
            r.observed_lines,
            100.0 * r.miss_rate,
            100.0 * r.warm_miss_rate,
            if r.contended { "yes" } else { "no" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_workloads::harness::{eval_config_max_l1d, run_profiled};
    use catt_workloads::registry;

    #[test]
    fn atax_predictions_pair_with_observations() {
        let w = registry::find("ATAX").unwrap();
        let config = eval_config_max_l1d();
        let (_, profiles) = run_profiled(&w, &config).expect("profiled run");
        let rows = model_rows(&w, &config, &profiles);
        assert!(!rows.is_empty(), "ATAX has analyzable loops");
        // The profiled run must have produced observations for the same
        // kernels the analysis predicts for.
        assert!(rows.iter().any(|r| r.observed_lines > 0));
        // atax_kernel1 thrashes the L1D.
        let k1 = rows.iter().find(|r| r.kernel == "atax_kernel1").unwrap();
        assert!(k1.miss_rate > 0.25, "miss rate {}", k1.miss_rate);
        assert!(k1.warm_miss_rate > 0.25, "warm {}", k1.warm_miss_rate);
        let table = render(&rows);
        assert!(table.contains("pred lines"));
        assert!(table.contains("L1"));
    }
}
