//! # catt-tune — feedback-driven throttling autotuner
//!
//! The static CATT pipeline predicts a throttling setting from compile-time
//! footprint analysis (paper §4); BFTT finds the best *fixed* setting by
//! exhaustively simulating every `(N, M)` point. This crate closes the loop
//! between the two: an APEX-style policy engine (increase-cap /
//! decrease-cap, moving half the remaining range per step) hill-climbs the
//! joint `(N, M, CTA-swizzle)` space, steered by counters observed on the
//! simulator's profiling sink — the memory-stall fraction decides whether
//! throttling is worth exploring at all, and the shared-L2 hit rate gates
//! the CTA-swizzle candidates.
//!
//! The tuner never trusts a prediction it did not measure: every candidate
//! — including the static CATT compilation, which seeds the search — is
//! simulated through the process-wide engine cache (validated runs), and
//! the winner is the measured argmin. The tuned result is therefore never
//! worse than baseline *or* static CATT by construction, while visiting
//! `O(log |ladder|)` points instead of BFTT's full sweep.
//!
//! Termination bound (DESIGN.md §3h): every iteration either halves the
//! distance to one end of the throttle ladder or shrinks the active
//! interval, so a climb from one start point takes at most
//! `2·⌈log₂ L⌉ + 2` measurements for a ladder of length `L`; with the
//! two seeded restarts and the hard `max_iters` cap the search is bounded
//! whatever the cycle landscape looks like.

use catt_core::bftt::candidate_grid;
use catt_core::pipeline::apply_uniform;
use catt_core::{cta_swizzle, SwizzlePolicy};
use catt_ir::Kernel;
use catt_prng::Rng;
use catt_sim::profile::StallReason;
use catt_sim::{max_resident_tbs, GpuConfig, LaunchProfile};
use catt_workloads::harness::{self, EvalError};
use catt_workloads::registry::Workload;
use std::collections::BTreeMap;

/// Tuner knobs (`catt tune --seed` / `--iters` set the first two);
/// defaults reproduce the recorded `results/tune.txt`.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// PRNG seed for the second climb restart (the first always starts at
    /// the untouched-TLP end). Same seed ⇒ identical trajectory.
    pub seed: u64,
    /// Hard cap on climb iterations across restarts.
    pub max_iters: u32,
    /// Minimum memory-stall fraction (stalled issue slots waiting on the
    /// L1D port or outstanding loads, over all offered slots) before the
    /// throttle ladder is climbed at all. Below it the kernel is not
    /// memory-bound and throttling cannot pay.
    pub mem_stall_threshold: f64,
    /// Minimum absolute L2 hit-rate gain a CTA-swizzle candidate must
    /// measure before it may be selected (the gate that attributes a
    /// swizzle win to improved L2 locality rather than noise).
    pub min_l2_gain: f64,
}

impl Default for TuneOptions {
    fn default() -> TuneOptions {
        TuneOptions {
            seed: 0x7E57_CA77,
            max_iters: 32,
            mem_stall_threshold: 0.25,
            min_l2_gain: 0.02,
        }
    }
}

/// Counters observed on the baseline profiling run that steer the search.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    /// Issue slots stalled on memory over all offered issue slots.
    pub mem_stall_frac: f64,
    /// Aggregate L1D load hit rate.
    pub l1_hit_rate: f64,
    /// Aggregate shared-L2 load hit rate (0 with the L2 disabled).
    pub l2_hit_rate: f64,
}

/// Reduce per-launch, per-SM profiles to the steering counters.
pub fn observe(profiles: &[LaunchProfile]) -> Observed {
    let mut slots = 0u64;
    let mut mem = 0u64;
    let mut l1_acc = 0u64;
    let mut l1_hit = 0u64;
    let mut l2_acc = 0u64;
    let mut l2_hit = 0u64;
    for p in profiles {
        for sm in &p.sms {
            slots += sm.issue_slots();
            mem += sm.stall_cycles[StallReason::Memory as usize];
            for set in &sm.sets {
                l1_acc += set.accesses;
                l1_hit += set.hits;
            }
            l2_acc += sm.l2_accesses;
            l2_hit += sm.l2_hits;
        }
    }
    let frac = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    Observed {
        mem_stall_frac: frac(mem, slots),
        l1_hit_rate: frac(l1_hit, l1_acc),
        l2_hit_rate: frac(l2_hit, l2_acc),
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
    /// L2 hit-rate gain did not clear [`TuneOptions::min_l2_gain`]. Its
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
    /// cleared [`TuneOptions::min_l2_gain`] and it won on cycles.
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
    /// BFTT best-fixed cycles (`None` if the sweep failed).
    pub bftt_cycles: Option<u64>,
    /// The tuner's winner.
    pub tuned: TunedChoice,
    /// Counters observed on the baseline profile.
    pub observed: Observed,
    /// Climb iterations spent.
    pub iterations: u32,
    /// Distinct candidates measured (cache-deduplicated sim runs).
    pub evaluations: u32,
    /// Every measured point, in measurement order.
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

    /// Internal consistency: the tuner must never return a configuration
    /// worse than anything it measured, and the search must respect its
    /// bounds. `catt tune` re-checks this on every run and exits non-zero
    /// on violation.
    pub fn self_check(&self, opts: &TuneOptions) -> Result<(), String> {
        if self.tuned.cycles > self.baseline_cycles {
            return Err(format!(
                "{}: tuned ({}) slower than measured baseline ({})",
                self.abbrev, self.tuned.cycles, self.baseline_cycles
            ));
        }
        if let Some(c) = self.catt_cycles {
            if self.tuned.cycles > c {
                return Err(format!(
                    "{}: tuned ({}) slower than measured static CATT ({})",
                    self.abbrev, self.tuned.cycles, c
                ));
            }
        }
        if self.iterations > opts.max_iters {
            return Err(format!(
                "{}: {} iterations exceed the cap {}",
                self.abbrev, self.iterations, opts.max_iters
            ));
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
            && self.tuned.l2_hit_rate < self.baseline_l2_hit_rate + opts.min_l2_gain
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

/// Swizzle `kernel` for `launch`-grid `grid` if the policy applies, else
/// keep it unchanged (multi-kernel apps swizzle the kernels they can).
fn swizzle_or_keep(kernel: &Kernel, policy: SwizzlePolicy, grid: (u32, u32, u32)) -> Kernel {
    cta_swizzle(kernel, policy, grid).unwrap_or_else(|| kernel.clone())
}

/// Tune one workload on `config`. Every candidate is a validated cached
/// simulation; failures of non-baseline candidates are skipped like
/// BFTT's faulted sweep points.
pub fn tune_workload(
    w: &Workload,
    config: &GpuConfig,
    opts: &TuneOptions,
) -> Result<TuneReport, EvalError> {
    let kernels = w.kernels();
    let launch = w.block_launch();
    let warps_per_tb = launch.warps_per_block();
    let resident_tbs = kernels
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
        .max(1);
    let ladder = candidate_grid(warps_per_tb, resident_tbs);

    // Observe the baseline: one profiled run for the steering counters
    // (bypasses the sim cache), one cached run for the reference cycles.
    let (_, profiles) = harness::run_profiled(w, config)?;
    let observed = observe(&profiles);
    let base = harness::run_baseline(w, config)?;
    let baseline_cycles = base.cycles();
    let baseline_l2 = base.stats.l2_hit_rate();

    let mut trace = vec![TracePoint {
        what: "baseline".to_string(),
        cycles: baseline_cycles,
        gated: false,
    }];
    let mut evaluations = 1u32;

    // Measure one uniform ladder point, memoized per index ((1,0) is the
    // baseline already measured). Faulted candidates measure as u64::MAX
    // so the climb backs away from them.
    let mut measured: BTreeMap<usize, u64> = BTreeMap::new();
    measured.insert(0, baseline_cycles);
    let grids: Vec<(u32, u32, u32)> = (0..kernels.len())
        .map(|i| {
            let g = w.launch(i).grid;
            (g.x, g.y, g.z)
        })
        .collect();
    let mut measure = |idx: usize, trace: &mut Vec<TracePoint>, evaluations: &mut u32| -> u64 {
        if let Some(&c) = measured.get(&idx) {
            return c;
        }
        let (n, m) = ladder[idx];
        let transformed: Vec<Kernel> = kernels
            .iter()
            .map(|k| {
                apply_uniform(
                    k,
                    n,
                    m,
                    warps_per_tb,
                    resident_tbs,
                    config.smem_carveout_bytes,
                )
            })
            .collect();
        let cycles = match harness::run_cached(w, &transformed, config, true) {
            Ok(out) => out.cycles(),
            Err(_) => u64::MAX,
        };
        *evaluations += 1;
        trace.push(TracePoint {
            what: format!("n={n} m={m}"),
            cycles,
            gated: false,
        });
        measured.insert(idx, cycles);
        cycles
    };

    // APEX-style climb: the cap is a ladder index (0 = untouched TLP,
    // len-1 = maximum throttling); each move covers half the remaining
    // distance toward the chosen end, reversing on regression. Skipped
    // entirely when the baseline is not memory-bound — the counters say
    // throttling cannot pay, so the tuner spends nothing finding that out.
    let mut iterations = 0u32;
    if observed.mem_stall_frac >= opts.mem_stall_threshold && ladder.len() > 1 {
        let mut rng = Rng::seed(opts.seed);
        let restarts = [0usize, rng.range_usize(0, ladder.len() - 1)];
        for &start in &restarts {
            let mut lo = 0usize;
            let mut hi = ladder.len() - 1;
            let mut cap = start;
            let mut best_here = measure(cap, &mut trace, &mut evaluations);
            let mut throttling = true;
            while iterations < opts.max_iters && lo < hi {
                iterations += 1;
                let next = if throttling {
                    cap + (hi - cap).div_ceil(2)
                } else {
                    cap - (cap - lo).div_ceil(2)
                };
                if next == cap {
                    break;
                }
                let c = measure(next, &mut trace, &mut evaluations);
                if c < best_here {
                    if throttling {
                        lo = cap;
                    } else {
                        hi = cap;
                    }
                    cap = next;
                    best_here = c;
                } else {
                    if throttling {
                        hi = next;
                    } else {
                        lo = next;
                    }
                    throttling = !throttling;
                }
            }
        }
    }
    let (&best_idx, &best_ladder_cycles) = measured
        .iter()
        .min_by_key(|&(_, &c)| c)
        .expect("baseline is always measured");
    let (mut best_n, mut best_m) = ladder[best_idx];
    let mut best_cycles = best_ladder_cycles;

    // Seed candidate: the static CATT compilation (per-loop settings, off
    // the uniform ladder). Measuring it makes `tuned <= static CATT` hold
    // by construction.
    let mut from_static_catt = false;
    let catt_cycles = match harness::run_catt(w, config) {
        Ok((out, _)) => {
            evaluations += 1;
            trace.push(TracePoint {
                what: "catt".to_string(),
                cycles: out.cycles(),
                gated: false,
            });
            if out.cycles() < best_cycles {
                best_cycles = out.cycles();
                (best_n, best_m) = (1, 0);
                from_static_catt = true;
            }
            Some(out.cycles())
        }
        Err(_) => None,
    };

    // CTA-swizzle pass: at the best throttle point, try every applicable
    // policy; a policy is selectable only if its *measured* L2 hit-rate
    // gain over baseline clears the gate and it wins on cycles.
    let mut best_swizzle: Option<(SwizzlePolicy, u64, f64)> = None;
    for policy in SwizzlePolicy::candidates() {
        let applicable = kernels
            .iter()
            .zip(&grids)
            .any(|(k, &g)| cta_swizzle(k, policy, g).is_some());
        if !applicable {
            continue;
        }
        let transformed: Vec<Kernel> = kernels
            .iter()
            .zip(&grids)
            .map(|(k, &g)| {
                let s = swizzle_or_keep(k, policy, g);
                if from_static_catt || (best_n == 1 && best_m == 0) {
                    s
                } else {
                    apply_uniform(
                        &s,
                        best_n,
                        best_m,
                        warps_per_tb,
                        resident_tbs,
                        config.smem_carveout_bytes,
                    )
                }
            })
            .collect();
        let Ok(out) = harness::run_cached(w, &transformed, config, true) else {
            continue;
        };
        evaluations += 1;
        let l2 = out.stats.l2_hit_rate();
        // No measured locality gain ⇒ any cycle win is not attributable to
        // the swizzle; record the point but bar it from selection.
        let gated = l2 < baseline_l2 + opts.min_l2_gain;
        trace.push(TracePoint {
            what: policy.describe(),
            cycles: out.cycles(),
            gated,
        });
        if gated {
            continue;
        }
        if out.cycles() < best_cycles && best_swizzle.is_none_or(|(_, c, _)| out.cycles() < c) {
            best_swizzle = Some((policy, out.cycles(), l2));
        }
    }

    let tuned = match best_swizzle {
        Some((policy, cycles, l2)) => TunedChoice {
            n: if from_static_catt { 1 } else { best_n },
            m: if from_static_catt { 0 } else { best_m },
            swizzle: Some(policy),
            // A swizzle win replaces the static-CATT seed (the swizzled
            // variant was measured against it and won).
            from_static_catt: false,
            cycles,
            l2_hit_rate: l2,
        },
        None => {
            // Re-derive the winner's L2 hit rate from its cached run.
            let l2 = if from_static_catt {
                harness::run_catt(w, config)
                    .map(|(out, _)| out.stats.l2_hit_rate())
                    .unwrap_or(baseline_l2)
            } else if best_n == 1 && best_m == 0 {
                baseline_l2
            } else {
                let transformed: Vec<Kernel> = kernels
                    .iter()
                    .map(|k| {
                        apply_uniform(
                            k,
                            best_n,
                            best_m,
                            warps_per_tb,
                            resident_tbs,
                            config.smem_carveout_bytes,
                        )
                    })
                    .collect();
                harness::run_cached(w, &transformed, config, true)
                    .map(|out| out.stats.l2_hit_rate())
                    .unwrap_or(baseline_l2)
            };
            TunedChoice {
                n: if from_static_catt { 1 } else { best_n },
                m: if from_static_catt { 0 } else { best_m },
                swizzle: None,
                from_static_catt,
                cycles: best_cycles,
                l2_hit_rate: l2,
            }
        }
    };

    // BFTT comparison column (cached like everything else; its sweep is
    // the exhaustive upper bound the tuner tries to approach at a
    // fraction of the evaluations).
    let bftt_cycles = harness::run_bftt(w, config)
        .ok()
        .map(|(out, _)| out.cycles());

    Ok(TuneReport {
        abbrev: w.abbrev,
        baseline_cycles,
        baseline_l2_hit_rate: baseline_l2,
        catt_cycles,
        bftt_cycles,
        tuned,
        observed,
        iterations,
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

    /// Render the comparison table (the `catt tune` output).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<6} {:>12} {:>8} {:>8} {:>8}  {:<16} {:>6} {:>6} {:>7}\n",
            "app", "base cyc", "catt", "bftt", "tuned", "tuned config", "iters", "evals", "dL2"
        ));
        for r in &self.reports {
            s.push_str(&format!(
                "{:<6} {:>12} {:>7.3}x {:>7.3}x {:>7.3}x  {:<16} {:>6} {:>6} {:>+7.3}\n",
                r.abbrev,
                r.baseline_cycles,
                r.catt_speedup(),
                r.bftt_speedup(),
                r.tuned_speedup(),
                r.tuned.describe(),
                r.iterations,
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
    pub fn to_json(&self, opts: &TuneOptions) -> String {
        let mut j = String::new();
        j.push_str("{\n");
        j.push_str(&format!(
            "  \"options\": {{ \"seed\": {}, \"max_iters\": {}, \
             \"mem_stall_threshold\": {:.3}, \"min_l2_gain\": {:.3} }},\n",
            opts.seed, opts.max_iters, opts.mem_stall_threshold, opts.min_l2_gain
        ));
        j.push_str(&format!(
            "  \"geomean_catt\": {:.4},\n  \"geomean_bftt\": {:.4},\n  \
             \"geomean_tuned\": {:.4},\n  \"apps\": [\n",
            self.geomean_catt(),
            self.geomean_bftt(),
            self.geomean_tuned()
        ));
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
                "    {{ \"app\": \"{}\", \"baseline_cycles\": {}, \"catt_cycles\": {}, \
                 \"bftt_cycles\": {}, \"tuned_cycles\": {}, \"tuned_config\": \"{}\", \
                 \"tuned_speedup\": {:.4}, \"catt_speedup\": {:.4}, \"bftt_speedup\": {:.4}, \
                 \"mem_stall_frac\": {:.4}, \"baseline_l2_hit_rate\": {:.4}, \
                 \"tuned_l2_hit_rate\": {:.4}, \"iterations\": {}, \"evaluations\": {} }}{}\n",
                r.abbrev,
                r.baseline_cycles,
                catt,
                bftt,
                r.tuned.cycles,
                r.tuned.describe(),
                r.tuned_speedup(),
                r.catt_speedup(),
                r.bftt_speedup(),
                r.observed.mem_stall_frac,
                r.baseline_l2_hit_rate,
                r.tuned.l2_hit_rate,
                r.iterations,
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
pub fn tune_workloads(
    workloads: &[Workload],
    config: &GpuConfig,
    opts: &TuneOptions,
) -> TuneSummary {
    let mut summary = TuneSummary::default();
    for w in workloads {
        match tune_workload(w, config, opts) {
            Ok(r) => summary.reports.push(r),
            Err(e) => summary.failures.push((w.abbrev.to_string(), e.to_string())),
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_workloads::registry;

    fn opts() -> TuneOptions {
        TuneOptions::default()
    }

    #[test]
    fn observe_reduces_counters() {
        let w = registry::find("ATAX").unwrap();
        let cfg = harness::eval_config_max_l1d();
        let (_, profiles) = harness::run_profiled(&w, &cfg).unwrap();
        let o = observe(&profiles);
        assert!(o.mem_stall_frac > 0.0 && o.mem_stall_frac < 1.0);
        assert!(o.l1_hit_rate > 0.0 && o.l1_hit_rate <= 1.0);
    }

    /// On the swizzle-sensitive DM workload the tuner must pick a
    /// CTA-swizzle policy, gate it on a measured L2 hit-rate gain, and
    /// beat every pure-throttling alternative.
    #[test]
    fn dm_tunes_to_a_swizzle_win() {
        let w = registry::find("DM").unwrap();
        let cfg = harness::eval_config_max_l1d();
        let o = opts();
        let r = tune_workload(&w, &cfg, &o).unwrap();
        r.self_check(&o).unwrap();
        assert!(
            r.tuned.swizzle.is_some(),
            "DM must tune to a swizzle: {:?}",
            r.tuned
        );
        assert!(
            r.tuned.l2_hit_rate > r.baseline_l2_hit_rate + o.min_l2_gain,
            "swizzle selection must be backed by a measured L2 gain"
        );
        assert!(r.tuned_speedup() > 1.1, "speedup {:.3}", r.tuned_speedup());
        // Better than BFTT's best fixed throttle (throttling alone cannot
        // fix inter-block traffic).
        let bftt = r.bftt_cycles.expect("bftt sweep runs");
        assert!(r.tuned.cycles < bftt, "{} vs {bftt}", r.tuned.cycles);
    }

    /// A contended throttling-sensitive workload climbs the ladder and
    /// never ends slower than static CATT.
    #[test]
    fn atax_tunes_at_least_to_static_catt() {
        let w = registry::find("ATAX").unwrap();
        let cfg = harness::eval_config_max_l1d();
        let o = opts();
        let r = tune_workload(&w, &cfg, &o).unwrap();
        r.self_check(&o).unwrap();
        assert!(r.iterations <= o.max_iters);
        if let Some(c) = r.catt_cycles {
            assert!(r.tuned.cycles <= c);
        }
    }

    /// Same seed, same trajectory: the report renders identically.
    #[test]
    fn tuning_is_deterministic_under_a_fixed_seed() {
        let w = registry::find("DM").unwrap();
        let cfg = harness::eval_config_max_l1d();
        let o = opts();
        let a = tune_workload(&w, &cfg, &o).unwrap();
        let b = tune_workload(&w, &cfg, &o).unwrap();
        let render = |r: &TuneReport| {
            format!(
                "{} {} {:?} {} {}",
                r.baseline_cycles, r.tuned.cycles, r.tuned.swizzle, r.iterations, r.evaluations
            )
        };
        assert_eq!(render(&a), render(&b));
        assert_eq!(
            a.trace
                .iter()
                .map(|t| (&t.what, t.cycles))
                .collect::<Vec<_>>(),
            b.trace
                .iter()
                .map(|t| (&t.what, t.cycles))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn summary_json_is_well_formed() {
        let w = registry::find("DM").unwrap();
        let cfg = harness::eval_config_max_l1d();
        let o = opts();
        let summary = tune_workloads(&[w], &cfg, &o);
        assert_eq!(summary.failures.len(), 0);
        let json = summary.to_json(&o);
        assert!(json.contains("\"app\": \"DM\""));
        assert!(json.contains("\"geomean_tuned\""));
        // Balanced braces/brackets — the cheap structural check the
        // profile crate's JSON validator formalizes.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let table = summary.render_table();
        assert!(table.contains("DM"));
        assert!(table.contains("geomean"));
    }
}
