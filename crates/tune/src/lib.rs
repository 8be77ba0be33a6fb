//! # catt-tune — feedback-driven throttling autotuner
//!
//! The static CATT pipeline predicts a throttling setting from compile-time
//! footprint analysis (paper §4); BFTT finds the best *fixed* setting by
//! exhaustively simulating every `(N, M)` point. This crate measures both
//! and adds a CTA-swizzle pass on top: the tuned point is the measured
//! argmin of the throttle ladder, static CATT and the swizzle candidates,
//! and a swizzle is selectable only with a measured shared-L2 hit-rate
//! gain over baseline.
//!
//! The tuner never trusts a prediction it did not measure: every candidate
//! is simulated through the process-wide engine cache (validated runs), in
//! two batches on the engine pool. The first holds the profiled baseline,
//! static CATT and the whole ladder; its fastest healthy ladder point is
//! both the BFTT column and the throttle point (ties go to the lower
//! ladder index), which static CATT replaces only when strictly faster.
//! The second batch runs the swizzle candidates at that point. The tuned
//! result is therefore never worse than baseline, static CATT or BFTT, by
//! construction (DESIGN.md §3h).

use catt_core::bftt::{self, candidate_grid, resident_tbs};
use catt_core::{cta_swizzle, moves_a_block, Engine, SwizzlePolicy};
use catt_diag::json;
use catt_ir::Kernel;
use catt_sim::profile::StallReason;
use catt_sim::{GpuConfig, LaunchProfile, LaunchStats};
use catt_workloads::harness::{self, EvalError};
use catt_workloads::registry::Workload;

/// Minimum absolute L2 hit-rate gain a CTA-swizzle candidate must measure
/// before it may be selected (the gate that attributes a swizzle win to
/// improved L2 locality rather than noise).
const MIN_L2_GAIN: f64 = 0.02;

/// Tuner options. The tuner reads none of them: the type exists only
/// because `benchmark/`'s `tune-sweep` names it, until ROADMAP item 11
/// brings the benchmark up to the product.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Read by no code; `benchmark/` compares it with
    /// [`TuneReport::iterations`].
    pub max_iters: u32,
}

impl Default for TuneOptions {
    fn default() -> TuneOptions {
        TuneOptions { max_iters: 32 }
    }
}

/// Counters observed on the baseline profiling run. They are reported,
/// not used to steer the search.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    /// Issue slots stalled on memory over all offered issue slots.
    pub mem_stall_frac: f64,
}

/// Reduce per-launch, per-SM profiles to the reported counters.
pub fn observe(profiles: &[LaunchProfile]) -> Observed {
    let (mut slots, mut mem) = (0u64, 0u64);
    for sm in profiles.iter().flat_map(|p| &p.sms) {
        slots += sm.issue_slots();
        mem += sm.stall_cycles[StallReason::Memory as usize];
    }
    Observed {
        mem_stall_frac: if slots == 0 {
            0.0
        } else {
            mem as f64 / slots as f64
        },
    }
}

/// One measured point of the search, for the report trail.
#[derive(Debug, Clone)]
pub struct TracePoint {
    /// Candidate description (e.g. `n=4 m=0`, `catt`, `tile=4`).
    pub what: String,
    /// Measured cycles.
    pub cycles: u64,
    /// Measured but barred from selection: a CTA-swizzle candidate whose
    /// L2 hit-rate gain did not clear the swizzle gate (0.02). Its
    /// cycle win (if any) is an artifact of the single-SM in-order block
    /// schedule, not of the L2 locality mechanism the tuner optimizes, so
    /// the tuner refuses it even when it is the fastest point measured.
    pub gated: bool,
}

/// The winning configuration.
#[derive(Debug, Clone)]
pub struct TunedChoice {
    /// Warp-throttle divisor (1 = untouched).
    pub n: u32,
    /// TB reduction (0 = untouched).
    pub m: u32,
    /// Selected CTA-swizzle policy, if its measured L2 hit-rate gain
    /// cleared the swizzle gate (0.02) and it won on cycles.
    pub swizzle: Option<SwizzlePolicy>,
    /// Whether the static CATT compilation (per-loop settings, not on the
    /// uniform ladder) is the winner; `n`/`m` are 1/0 in that case.
    pub from_static_catt: bool,
    /// Measured cycles of the winner.
    pub cycles: u64,
    /// Measured L2 hit rate of the winner.
    pub l2_hit_rate: f64,
}

impl TunedChoice {
    /// Short human-readable form (report column).
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.from_static_catt {
            parts.push("catt".to_string());
        } else if self.n != 1 || self.m != 0 {
            parts.push(format!("n={} m={}", self.n, self.m));
        }
        if let Some(p) = self.swizzle {
            parts.push(p.describe());
        }
        if parts.is_empty() {
            parts.push("baseline".to_string());
        }
        parts.join(" + ")
    }
}

/// Everything the tuner learned about one workload.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Workload abbreviation.
    pub abbrev: &'static str,
    /// Baseline (untransformed) cycles.
    pub baseline_cycles: u64,
    /// Baseline L2 hit rate.
    pub baseline_l2_hit_rate: f64,
    /// Static CATT cycles (`None` if compilation failed).
    pub catt_cycles: Option<u64>,
    /// BFTT best-fixed cycles: the fastest healthy ladder point.
    pub bftt_cycles: Option<u64>,
    /// The tuner's winner.
    pub tuned: TunedChoice,
    /// Counters observed on the baseline profile.
    pub observed: Observed,
    /// Always 0: the tuner takes an argmin and does not iterate. The field
    /// exists only because `benchmark/`'s `tune-sweep` reads it, until
    /// ROADMAP item 11 brings the benchmark up to the product.
    pub iterations: u32,
    /// Distinct programs the two batches simulated.
    pub evaluations: u32,
    /// Every healthy ladder point in ladder order, then static CATT, then
    /// each swizzle candidate.
    pub trace: Vec<TracePoint>,
}

impl TuneReport {
    /// Speedup of the tuned configuration over baseline.
    pub fn tuned_speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.tuned.cycles as f64
    }

    /// Speedup of static CATT over baseline (1.0 if unavailable).
    pub fn catt_speedup(&self) -> f64 {
        match self.catt_cycles {
            Some(c) => self.baseline_cycles as f64 / c as f64,
            None => 1.0,
        }
    }

    /// Speedup of BFTT over baseline (1.0 if unavailable).
    pub fn bftt_speedup(&self) -> f64 {
        match self.bftt_cycles {
            Some(c) => self.baseline_cycles as f64 / c as f64,
            None => 1.0,
        }
    }

    /// Internal consistency: the tuned point is no slower than baseline,
    /// static CATT, BFTT or any selectable point it measured, and a
    /// selected swizzle shows the L2 gain it must. `catt tune` re-checks
    /// this on every run and exits non-zero on violation. `_opts` is
    /// unread (see [`TuneOptions`]).
    pub fn self_check(&self, _opts: &TuneOptions) -> Result<(), String> {
        let measured = [
            ("baseline", Some(self.baseline_cycles)),
            ("static CATT", self.catt_cycles),
            ("BFTT", self.bftt_cycles),
        ];
        for (what, cycles) in measured {
            if let Some(c) = cycles.filter(|&c| self.tuned.cycles > c) {
                return Err(format!(
                    "{}: tuned ({}) slower than measured {what} ({c})",
                    self.abbrev, self.tuned.cycles
                ));
            }
        }
        let selectable = self.trace.iter().filter(|t| !t.gated);
        if let Some(min) = selectable.map(|t| t.cycles).min() {
            if self.tuned.cycles > min {
                return Err(format!(
                    "{}: tuned ({}) is not the argmin of the selectable trace ({min})",
                    self.abbrev, self.tuned.cycles
                ));
            }
        }
        if self.tuned.swizzle.is_some()
            && self.tuned.l2_hit_rate < self.baseline_l2_hit_rate + MIN_L2_GAIN
        {
            return Err(format!(
                "{}: swizzle selected without the required L2 hit-rate gain \
                 ({:.4} vs baseline {:.4})",
                self.abbrev, self.tuned.l2_hit_rate, self.baseline_l2_hit_rate
            ));
        }
        Ok(())
    }
}

/// The CTA-swizzle policies worth measuring for an app whose kernels launch
/// on `grids`: those that move at least one block of at least one grid. Any
/// other policy leaves every block on the data it had, so it cannot buy the
/// L2 locality gain a swizzle must show to be selected.
pub fn swizzle_candidates(grids: &[(u32, u32, u32)]) -> Vec<SwizzlePolicy> {
    SwizzlePolicy::candidates()
        .into_iter()
        .filter(|&policy| grids.iter().any(|&g| moves_a_block(policy, g)))
        .collect()
}

/// Swizzle `kernel` for `launch`-grid `grid` if the policy applies, else
/// keep it unchanged (multi-kernel apps swizzle the kernels they can).
fn swizzle_or_keep(kernel: &Kernel, policy: SwizzlePolicy, grid: (u32, u32, u32)) -> Kernel {
    cta_swizzle(kernel, policy, grid).unwrap_or_else(|| kernel.clone())
}

/// Simulate `programs` of `w` as one batch on the engine pool and return
/// each program's statistics, in order, with the baseline's profiles when
/// `profiled`: then `programs[0]` is the baseline, which runs profiled and
/// seeds its cache entry. A program equal to an earlier one shares its
/// job, so it is simulated once; the third value is the number of jobs.
/// Every job goes through the engine cache, so later callers in the
/// process (`catt reproduce`) read it back.
fn run_batch(
    w: &Workload,
    config: &GpuConfig,
    programs: &[&[Kernel]],
    profiled: bool,
) -> (Vec<Result<LaunchStats, EvalError>>, Vec<LaunchProfile>, u32) {
    let mut jobs: Vec<&[Kernel]> = Vec::new();
    let job_of: Vec<usize> = programs
        .iter()
        .map(|&p| match jobs.iter().position(|&j| j == p) {
            Some(i) => i,
            None => {
                jobs.push(p);
                jobs.len() - 1
            }
        })
        .collect();
    let label = format!("tune {}", w.abbrev);
    let mut profiles = Vec::new();
    let results: Vec<Result<LaunchStats, EvalError>> = Engine::global()
        .run_jobs(&label, &jobs, |i, &program| {
            // Profile capture is thread-local, so the profiled run
            // captures on the worker that runs it.
            Ok(if profiled && i == 0 {
                harness::run_profiled(w, config)
            } else {
                harness::run_cached(w, program, config).map(|stats| (stats, Vec::new()))
            })
        })
        .into_iter()
        .map(|job| {
            let (stats, p) = job??;
            profiles.extend(p);
            Ok(stats)
        })
        .collect();
    let table = job_of.iter().map(|&i| results[i].clone()).collect();
    (table, profiles, jobs.len() as u32)
}

/// Tune one workload on `config`: the measured argmin of the crate doc.
/// Every candidate is a validated cached simulation; failures of
/// non-baseline candidates are skipped like BFTT's faulted sweep points.
/// `_opts` is unread (see [`TuneOptions`]).
pub fn tune_workload(
    w: &Workload,
    config: &GpuConfig,
    _opts: &TuneOptions,
) -> Result<TuneReport, EvalError> {
    let kernels = w.kernels();
    let launch = w.block_launch();
    let warps_per_tb = launch.warps_per_block();
    let resident_tbs = resident_tbs(&kernels, launch, config);
    let ladder = candidate_grid(warps_per_tb, resident_tbs);
    let tlp = (warps_per_tb, resident_tbs);
    let uniform = |ks: &[Kernel], nm| bftt::uniform(ks, None, nm, tlp, config.smem_carveout_bytes);

    // The first batch: the profiled baseline, static CATT and the whole
    // ladder (`(1, 0)` is the baseline itself).
    let catt = harness::compile_catt(w, config)
        .ok()
        .map(|app| app.transformed_kernels());
    let programs: Vec<Vec<Kernel>> = ladder.iter().map(|&nm| uniform(&kernels, nm)).collect();
    let batch: Vec<&[Kernel]> = std::iter::once(kernels.as_slice())
        .chain(catt.as_deref())
        .chain(programs.iter().map(Vec::as_slice))
        .collect();
    let (mut table, profiles, mut evaluations) = run_batch(w, config, &batch, true);
    let on_ladder = table.split_off(table.len() - ladder.len());
    let catt_stats = if catt.is_some() { table.pop() } else { None };
    let base = table.swap_remove(0)?;
    let baseline_l2 = base.l2_hit_rate();

    // The throttle point: the fastest healthy ladder point, the lower
    // index on a tie. It is also the BFTT column. The baseline is a
    // healthy ladder point, so there is one.
    let healthy: Vec<(usize, &LaunchStats)> = on_ladder
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((i, r.as_ref().ok()?)))
        .collect();
    let mut trace: Vec<TracePoint> = healthy
        .iter()
        .map(|&(i, s)| TracePoint {
            what: match ladder[i] {
                (1, 0) => "baseline".to_string(),
                (n, m) => format!("n={n} m={m}"),
            },
            cycles: s.cycles,
            gated: false,
        })
        .collect();
    let &(best, best_stats) = healthy
        .iter()
        .min_by_key(|(_, s)| s.cycles)
        .expect("the baseline is a ladder point");
    let (n, m) = ladder[best];
    let mut tuned = TunedChoice {
        n,
        m,
        swizzle: None,
        from_static_catt: false,
        cycles: best_stats.cycles,
        l2_hit_rate: best_stats.l2_hit_rate(),
    };
    let bftt_cycles = Some(tuned.cycles);

    // Static CATT (per-loop settings, off the uniform ladder) replaces the
    // throttle point only when strictly faster.
    let catt_stats = catt_stats.and_then(Result::ok);
    if let Some(out) = &catt_stats {
        trace.push(TracePoint {
            what: "catt".to_string(),
            cycles: out.cycles,
            gated: false,
        });
        if out.cycles < tuned.cycles {
            tuned = TunedChoice {
                n: 1,
                m: 0,
                swizzle: None,
                from_static_catt: true,
                cycles: out.cycles,
                l2_hit_rate: out.l2_hit_rate(),
            };
        }
    }

    // CTA-swizzle pass: at the chosen throttle point, try every policy that
    // moves a block (the second batch); a policy is selectable only if its
    // *measured* L2 hit-rate gain over baseline clears the gate and it
    // wins on cycles. The throttle point is `(1, 0)` when static CATT won,
    // and the uniform transform at `(1, 0)` is the identity.
    let grids: Vec<(u32, u32, u32)> = (0..kernels.len())
        .map(|i| {
            let g = w.launch(i).grid;
            (g.x, g.y, g.z)
        })
        .collect();
    let policies = swizzle_candidates(&grids);
    let swizzled: Vec<Vec<Kernel>> = policies
        .iter()
        .map(|&policy| {
            let s: Vec<Kernel> = kernels
                .iter()
                .zip(&grids)
                .map(|(k, &g)| swizzle_or_keep(k, policy, g))
                .collect();
            uniform(&s, (tuned.n, tuned.m))
        })
        .collect();
    let batch: Vec<&[Kernel]> = swizzled.iter().map(Vec::as_slice).collect();
    let (measured_swizzles, _, jobs) = run_batch(w, config, &batch, false);
    evaluations += jobs;
    for (policy, result) in policies.into_iter().zip(&measured_swizzles) {
        let Ok(out) = result else {
            continue;
        };
        let l2 = out.l2_hit_rate();
        // No measured locality gain ⇒ any cycle win is not attributable to
        // the swizzle; record the point but bar it from selection.
        let gated = l2 < baseline_l2 + MIN_L2_GAIN;
        trace.push(TracePoint {
            what: policy.describe(),
            cycles: out.cycles,
            gated,
        });
        if !gated && out.cycles < tuned.cycles {
            tuned = TunedChoice {
                swizzle: Some(policy),
                from_static_catt: false,
                cycles: out.cycles,
                l2_hit_rate: l2,
                ..tuned
            };
        }
    }

    Ok(TuneReport {
        abbrev: w.abbrev,
        baseline_cycles: base.cycles,
        baseline_l2_hit_rate: baseline_l2,
        catt_cycles: catt_stats.map(|s| s.cycles),
        bftt_cycles,
        tuned,
        observed: observe(&profiles),
        iterations: 0,
        evaluations,
        trace,
    })
}

/// Reports for a set of workloads plus the aggregate geomeans.
#[derive(Debug, Clone, Default)]
pub struct TuneSummary {
    /// Per-workload reports, registry order.
    pub reports: Vec<TuneReport>,
    /// Workloads whose tuning failed outright, with the error text.
    pub failures: Vec<(String, String)>,
}

impl TuneSummary {
    /// Geomean tuned speedup over baseline.
    pub fn geomean_tuned(&self) -> f64 {
        harness::geomean(
            &self
                .reports
                .iter()
                .map(|r| r.tuned_speedup())
                .collect::<Vec<_>>(),
        )
        .unwrap_or(1.0)
    }

    /// Geomean static-CATT speedup over baseline.
    pub fn geomean_catt(&self) -> f64 {
        harness::geomean(
            &self
                .reports
                .iter()
                .map(|r| r.catt_speedup())
                .collect::<Vec<_>>(),
        )
        .unwrap_or(1.0)
    }

    /// Geomean BFTT speedup over baseline.
    pub fn geomean_bftt(&self) -> f64 {
        harness::geomean(
            &self
                .reports
                .iter()
                .map(|r| r.bftt_speedup())
                .collect::<Vec<_>>(),
        )
        .unwrap_or(1.0)
    }

    /// Every report's [`TuneReport::self_check`] violation.
    pub fn violations(&self) -> Vec<String> {
        let opts = TuneOptions::default();
        self.reports
            .iter()
            .filter_map(|r| r.self_check(&opts).err())
            .collect()
    }

    /// Render the comparison table (the `catt tune` output).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<6} {:>12} {:>8} {:>8} {:>8}  {:<16} {:>6} {:>7}\n",
            "app", "base cyc", "catt", "bftt", "tuned", "tuned config", "evals", "dL2"
        ));
        for r in &self.reports {
            s.push_str(&format!(
                "{:<6} {:>12} {:>7.3}x {:>7.3}x {:>7.3}x  {:<16} {:>6} {:>+7.3}\n",
                r.abbrev,
                r.baseline_cycles,
                r.catt_speedup(),
                r.bftt_speedup(),
                r.tuned_speedup(),
                r.tuned.describe(),
                r.evaluations,
                r.tuned.l2_hit_rate - r.baseline_l2_hit_rate,
            ));
        }
        s.push_str(&format!(
            "geomean: catt {:.4}x | bftt {:.4}x | tuned {:.4}x\n",
            self.geomean_catt(),
            self.geomean_bftt(),
            self.geomean_tuned()
        ));
        for (abbrev, err) in &self.failures {
            s.push_str(&format!("FAILED {abbrev}: {err}\n"));
        }
        s
    }

    /// Machine-readable summary (`catt tune --out`).
    pub fn to_json(&self) -> String {
        let mut j = String::new();
        j.push_str("{\n");
        j.push_str(&format!(
            "  \"geomean_catt\": {:.4},\n  \"geomean_bftt\": {:.4},\n  \
             \"geomean_tuned\": {:.4},\n  \"apps\": [\n",
            self.geomean_catt(),
            self.geomean_bftt(),
            self.geomean_tuned()
        ));
        let quoted = |text: &str| {
            let mut q = String::new();
            json::write_str(text, &mut q);
            q
        };
        for (i, r) in self.reports.iter().enumerate() {
            let catt = r
                .catt_cycles
                .map(|c| c.to_string())
                .unwrap_or_else(|| "null".to_string());
            let bftt = r
                .bftt_cycles
                .map(|c| c.to_string())
                .unwrap_or_else(|| "null".to_string());
            j.push_str(&format!(
                "    {{ \"app\": {}, \"baseline_cycles\": {}, \"catt_cycles\": {}, \
                 \"bftt_cycles\": {}, \"tuned_cycles\": {}, \"tuned_config\": {}, \
                 \"tuned_speedup\": {:.4}, \"catt_speedup\": {:.4}, \"bftt_speedup\": {:.4}, \
                 \"mem_stall_frac\": {:.4}, \"baseline_l2_hit_rate\": {:.4}, \
                 \"tuned_l2_hit_rate\": {:.4}, \"evaluations\": {} }}{}\n",
                quoted(r.abbrev),
                r.baseline_cycles,
                catt,
                bftt,
                r.tuned.cycles,
                quoted(&r.tuned.describe()),
                r.tuned_speedup(),
                r.catt_speedup(),
                r.bftt_speedup(),
                r.observed.mem_stall_frac,
                r.baseline_l2_hit_rate,
                r.tuned.l2_hit_rate,
                r.evaluations,
                if i + 1 < self.reports.len() { "," } else { "" },
            ));
        }
        j.push_str("  ]\n}\n");
        j
    }
}

/// Tune every given workload; per-workload failures are collected, not
/// fatal (mirrors BFTT's graceful degradation).
pub fn tune_workloads(workloads: &[Workload], config: &GpuConfig) -> TuneSummary {
    let mut summary = TuneSummary::default();
    for w in workloads {
        match tune_workload(w, config, &TuneOptions::default()) {
            Ok(r) => summary.reports.push(r),
            Err(e) => summary.failures.push((w.abbrev.to_string(), e.to_string())),
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_diag::json::Json;
    use catt_workloads::registry;

    #[test]
    fn observe_reduces_counters() {
        let w = registry::find("ATAX").unwrap();
        let cfg = harness::eval_config_max_l1d();
        let (_, profiles) = harness::run_profiled(&w, &cfg).unwrap();
        let o = observe(&profiles);
        assert!(o.mem_stall_frac > 0.0 && o.mem_stall_frac < 1.0);
    }

    /// The swizzle candidates are the policies that move a block of some
    /// grid, and the closed form behind them agrees with an exhaustive
    /// walk of [`catt_core::swizzle_map`] on every grid up to 8×8.
    #[test]
    fn swizzle_candidates_move_a_block() {
        use SwizzlePolicy::{TileMajor, XorFold};
        // 1-D grids: serpentine and tile-major never move a block; `xor=k`
        // does once the grid holds more blocks than `k`'s top bit.
        assert_eq!(swizzle_candidates(&[(2, 1, 1)]), [XorFold(1)]);
        assert_eq!(swizzle_candidates(&[(3, 1, 1)]), [XorFold(1), XorFold(3)]);
        assert_eq!(swizzle_candidates(&[(256, 1, 1)]), [XorFold(1), XorFold(3)]);
        assert!(swizzle_candidates(&[(1, 1, 1)]).is_empty());
        // A policy one kernel's grid moves is a candidate of the app.
        assert_eq!(swizzle_candidates(&[(1, 1, 1), (2, 1, 1)]), [XorFold(1)]);
        let dm = registry::find("DM").unwrap();
        let dm_grids: Vec<(u32, u32, u32)> = (0..dm.kernels().len())
            .map(|i| {
                let g = dm.launch(i).grid;
                (g.x, g.y, g.z)
            })
            .collect();
        assert_eq!(dm_grids, [(12, 12, 1)]);
        assert_eq!(swizzle_candidates(&dm_grids), SwizzlePolicy::candidates());

        let kernel = &dm.kernels()[0];
        let mut policies = SwizzlePolicy::candidates();
        policies.extend([
            TileMajor(0),
            TileMajor(3),
            TileMajor(8),
            XorFold(0),
            XorFold(7),
        ]);
        for policy in policies {
            for gx in 1..=8 {
                for gy in 1..=8 {
                    // The map is defined only where the swizzle applies
                    // (`tile=0` would divide by zero).
                    let moved = cta_swizzle(kernel, policy, (gx, gy, 1)).is_some()
                        && (0..gy).any(|by| {
                            (0..gx).any(|bx| {
                                catt_core::swizzle_map(policy, (gx, gy), bx, by) != (bx, by)
                            })
                        });
                    assert_eq!(
                        moves_a_block(policy, (gx, gy, 1)),
                        moved,
                        "{policy:?} on {gx}x{gy}"
                    );
                }
            }
        }
    }

    /// DM's report, tuned once per test process: each tuning costs seconds
    /// in the dev profile, and three tests read it.
    fn dm_report() -> &'static TuneReport {
        static DM: std::sync::LazyLock<TuneReport> = std::sync::LazyLock::new(|| {
            let w = registry::find("DM").unwrap();
            let cfg = harness::eval_config_max_l1d();
            tune_workload(&w, &cfg, &TuneOptions::default()).unwrap()
        });
        &DM
    }

    /// On the swizzle-sensitive DM workload the tuner must pick a
    /// CTA-swizzle policy, gate it on a measured L2 hit-rate gain, and
    /// beat every pure-throttling alternative.
    #[test]
    fn dm_tunes_to_a_swizzle_win() {
        let r = dm_report();
        r.self_check(&TuneOptions::default()).unwrap();
        assert!(
            r.tuned.swizzle.is_some(),
            "DM must tune to a swizzle: {:?}",
            r.tuned
        );
        assert!(
            r.tuned.l2_hit_rate > r.baseline_l2_hit_rate + MIN_L2_GAIN,
            "swizzle selection must be backed by a measured L2 gain"
        );
        assert!(r.tuned_speedup() > 1.1, "speedup {:.3}", r.tuned_speedup());
        // Better than BFTT's best fixed throttle (throttling alone cannot
        // fix inter-block traffic).
        let bftt = r.bftt_cycles.expect("bftt sweep runs");
        assert!(r.tuned.cycles < bftt, "{} vs {bftt}", r.tuned.cycles);
    }

    /// The tuner has no randomness (the name dates from its seeded
    /// restarts): a second call (all cache hits) returns the same report
    /// and trace.
    #[test]
    fn tuning_is_deterministic_under_a_fixed_seed() {
        let a = dm_report();
        let w = registry::find("DM").unwrap();
        let cfg = harness::eval_config_max_l1d();
        let b = tune_workload(&w, &cfg, &TuneOptions::default()).unwrap();
        let render = |r: &TuneReport| {
            format!(
                "{} {} {:?} {}",
                r.baseline_cycles, r.tuned.cycles, r.tuned.swizzle, r.evaluations
            )
        };
        assert_eq!(render(a), render(&b));
        assert_eq!(
            a.trace
                .iter()
                .map(|t| (&t.what, t.cycles, t.gated))
                .collect::<Vec<_>>(),
            b.trace
                .iter()
                .map(|t| (&t.what, t.cycles, t.gated))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn summary_json_is_well_formed() {
        let summary = TuneSummary {
            reports: vec![dm_report().clone()],
            failures: Vec::new(),
        };
        let json = summary.to_json();
        assert!(json.contains("\"app\": \"DM\""));
        assert!(json.contains("\"geomean_tuned\""));
        let parsed = catt_diag::json::parse(&json).expect("summary is valid JSON");
        assert!(parsed.get("geomean_tuned").and_then(Json::as_f64).is_some());
        let Some(Json::Arr(apps)) = parsed.get("apps") else {
            panic!("no `apps` array in {json}")
        };
        assert_eq!(apps.len(), 1);
        assert_eq!(apps[0].get("app").and_then(Json::as_str), Some("DM"));
        let table = summary.render_table();
        assert!(table.contains("DM"));
        assert!(table.contains("geomean"));
    }

    /// A contended throttling-sensitive workload never ends slower than
    /// static CATT.
    #[test]
    fn atax_tunes_at_least_to_static_catt() {
        let w = registry::find("ATAX").unwrap();
        let cfg = harness::eval_config_max_l1d();
        let o = TuneOptions::default();
        let r = tune_workload(&w, &cfg, &o).unwrap();
        r.self_check(&o).unwrap();
        if let Some(c) = r.catt_cycles {
            assert!(r.tuned.cycles <= c);
        }
    }
}
