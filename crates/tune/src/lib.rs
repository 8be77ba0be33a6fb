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
//! worse than baseline *or* static CATT by construction. The climb
//! consults `O(log |ladder|)` points, but the report's BFTT column costs
//! the full ladder; each point is simulated once, in one batch on the
//! engine pool with the profiled baseline and static CATT, and both the
//! climb and the BFTT column read the table that batch returns.
//!
//! Termination bound (DESIGN.md §3h): every iteration shrinks the climb's
//! bracket and no ladder point is probed twice, so a climb from one start
//! point stops once its bracket is a single point; `2·⌈log₂ L⌉ + 2`
//! iterations for a ladder of length `L` is its loop condition. Each of
//! the two seeded restarts gets that budget, under the hard `max_iters`
//! cap on both together.

use catt_core::bftt::{self, candidate_grid, resident_tbs};
use catt_core::{cta_swizzle, moves_a_block, Engine, SwizzlePolicy};
use catt_diag::json;
use catt_ir::Kernel;
use catt_prng::Rng;
use catt_sim::profile::StallReason;
use catt_sim::{GpuConfig, LaunchProfile, LaunchStats};
use catt_workloads::harness::{self, EvalError};
use catt_workloads::registry::Workload;

/// Minimum memory-stall fraction (stalled issue slots waiting on the L1D
/// port or outstanding loads, over all offered slots) before the throttle
/// ladder is climbed at all. Below it the kernel is not memory-bound and
/// throttling cannot pay.
const MEM_STALL_THRESHOLD: f64 = 0.25;

/// Minimum absolute L2 hit-rate gain a CTA-swizzle candidate must measure
/// before it may be selected (the gate that attributes a swizzle win to
/// improved L2 locality rather than noise).
const MIN_L2_GAIN: f64 = 0.02;

/// Tuner knobs (`catt tune --seed` / `--iters` set them); defaults
/// reproduce the recorded `results/tune.txt`.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// PRNG seed for the second climb restart (the first always starts at
    /// the untouched-TLP end). Same seed ⇒ identical trajectory.
    pub seed: u64,
    /// Hard cap on climb iterations across restarts.
    pub max_iters: u32,
}

impl Default for TuneOptions {
    fn default() -> TuneOptions {
        TuneOptions {
            seed: 0x7E57_CA77,
            max_iters: 32,
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
/// job, so it is simulated once. Every job goes through the engine cache,
/// so later callers in the process (`catt reproduce`) read it back.
fn run_batch(
    w: &Workload,
    config: &GpuConfig,
    programs: &[&[Kernel]],
    profiled: bool,
) -> (Vec<Result<LaunchStats, EvalError>>, Vec<LaunchProfile>) {
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
    (table, profiles)
}

/// Iteration budget of one [`climb`] over a ladder of `len` points:
/// `2·⌈log₂ len⌉ + 2`, and none for a ladder of one point.
pub fn climb_bound(len: usize) -> u32 {
    if len <= 1 {
        0
    } else {
        2 * (usize::BITS - (len - 1).leading_zeros()) + 2
    }
}

/// APEX-style climb over ladder indices `0..len` (0 = untouched TLP,
/// `len - 1` = maximum throttling), from `start`, measuring each probed
/// index with `cost`. Returns the iterations spent (at most `budget`);
/// the caller keeps the costs it was asked for and picks the best.
///
/// The bracket `[lo, hi]` holds every index still worth probing. Each
/// move covers half the distance from the cap to the bracket's end in the
/// current direction. A win moves the cap and drops the side it left; a
/// loss drops the probe and everything past it, then reverses. An index
/// is never probed twice, the bracket shrinks on every iteration, and on
/// a cost that falls then rises the cheapest index probed is its
/// minimum.
pub fn climb(len: usize, start: usize, budget: u32, mut cost: impl FnMut(usize) -> u64) -> u32 {
    let (mut lo, mut hi) = (0usize, len.saturating_sub(1));
    let mut cap = start.min(hi);
    let mut best = cost(cap);
    let mut throttling = true;
    let mut iterations = 0u32;
    while lo < hi && iterations < budget {
        // No room left this way: turn round (the other side has room,
        // since `lo < hi`).
        if (throttling && cap == hi) || (!throttling && cap == lo) {
            throttling = !throttling;
        }
        let next = if throttling {
            cap + (hi - cap).div_ceil(2)
        } else {
            cap - (cap - lo).div_ceil(2)
        };
        iterations += 1;
        let c = cost(next);
        if c < best {
            if throttling {
                lo = cap + 1;
            } else {
                hi = cap - 1;
            }
            cap = next;
            best = c;
        } else {
            if throttling {
                hi = next - 1;
            } else {
                lo = next + 1;
            }
            throttling = !throttling;
        }
    }
    iterations
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
    let resident_tbs = resident_tbs(&kernels, launch, config);
    let ladder = candidate_grid(warps_per_tb, resident_tbs);
    let tlp = (warps_per_tb, resident_tbs);
    let uniform = |ks: &[Kernel], nm| bftt::uniform(ks, None, nm, tlp, config.smem_carveout_bytes);

    // Everything whose identity no measurement decides runs first, as one
    // batch: the profiled baseline, static CATT and the whole ladder (the
    // climb visits some points, the BFTT column all of them; `(1, 0)` is
    // the baseline itself).
    let catt = harness::compile_catt(w, config)
        .ok()
        .map(|app| app.transformed_kernels());
    let programs: Vec<Vec<Kernel>> = ladder.iter().map(|&nm| uniform(&kernels, nm)).collect();
    let batch: Vec<&[Kernel]> = std::iter::once(kernels.as_slice())
        .chain(catt.as_deref())
        .chain(programs.iter().map(Vec::as_slice))
        .collect();
    let (mut table, profiles) = run_batch(w, config, &batch, true);
    let on_ladder = table.split_off(table.len() - ladder.len());
    let catt_stats = if catt.is_some() { table.pop() } else { None };
    let base = table.swap_remove(0)?;

    // Observe the baseline: the profiled run's steering counters and stats.
    let observed = observe(&profiles);
    let baseline_cycles = base.cycles;
    let baseline_l2 = base.l2_hit_rate();

    // Two climbs over the ladder (see [`climb`]), each with its own
    // budget, reading the table. Skipped entirely when the baseline is not
    // memory-bound — the counters say throttling cannot pay, so the tuner
    // spends nothing finding that out. Faulted candidates cost u64::MAX so
    // the climb backs away from them.
    let cost = |idx: usize| on_ladder[idx].as_ref().map_or(u64::MAX, |s| s.cycles);
    let mut probed = vec![0usize];
    let mut iterations = 0u32;
    if observed.mem_stall_frac >= MEM_STALL_THRESHOLD && ladder.len() > 1 {
        let mut rng = Rng::seed(opts.seed);
        let restarts = [0usize, rng.range_usize(0, ladder.len() - 1)];
        for &start in &restarts {
            let budget = climb_bound(ladder.len()).min(opts.max_iters.saturating_sub(iterations));
            iterations += climb(ladder.len(), start, budget, |idx| {
                if !probed.contains(&idx) {
                    probed.push(idx);
                }
                cost(idx)
            });
        }
    }
    let mut trace: Vec<TracePoint> = probed
        .iter()
        .map(|&idx| TracePoint {
            what: match ladder[idx] {
                (1, 0) => "baseline".to_string(),
                (n, m) => format!("n={n} m={m}"),
            },
            cycles: cost(idx),
            gated: false,
        })
        .collect();
    let mut evaluations = probed.len() as u32;
    let best_idx = probed
        .iter()
        .copied()
        .min_by_key(|&idx| (cost(idx), idx))
        .expect("baseline is always measured");
    let (n, m) = ladder[best_idx];
    let mut tuned = TunedChoice {
        n,
        m,
        swizzle: None,
        from_static_catt: false,
        cycles: cost(best_idx),
        l2_hit_rate: on_ladder[best_idx]
            .as_ref()
            .map_or(baseline_l2, LaunchStats::l2_hit_rate),
    };

    // Seed candidate: the static CATT compilation (per-loop settings, off
    // the uniform ladder). Measuring it makes `tuned <= static CATT` hold
    // by construction.
    let catt_cycles = match catt_stats {
        Some(Ok(out)) => {
            evaluations += 1;
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
            Some(out.cycles)
        }
        _ => None,
    };

    // CTA-swizzle pass: at the best throttle point, try every policy that
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
    let (measured_swizzles, _) = run_batch(w, config, &batch, false);
    for (policy, result) in policies.into_iter().zip(&measured_swizzles) {
        let Ok(out) = result else {
            continue;
        };
        evaluations += 1;
        let l2 = out.l2_hit_rate();
        // No measured locality gain ⇒ any cycle win is not attributable to
        // the swizzle; record the point but bar it from selection.
        let gated = l2 < baseline_l2 + MIN_L2_GAIN;
        trace.push(TracePoint {
            what: policy.describe(),
            cycles: out.cycles,
            gated,
        });
        // A swizzle win replaces the static-CATT seed (the swizzled variant
        // was measured against it and won).
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

    // BFTT comparison column: the exhaustive upper bound the tuner tries
    // to approach at a fraction of the evaluations, the ladder's fastest
    // healthy point.
    let bftt_cycles = on_ladder.iter().flatten().map(|s| s.cycles).min();

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

    /// Every report's [`TuneReport::self_check`] violation.
    pub fn violations(&self, opts: &TuneOptions) -> Vec<String> {
        self.reports
            .iter()
            .filter_map(|r| r.self_check(opts).err())
            .collect()
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
             \"mem_stall_threshold\": {MEM_STALL_THRESHOLD:.3}, \"min_l2_gain\": {MIN_L2_GAIN:.3} }},\n",
            opts.seed, opts.max_iters
        ));
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
                 \"tuned_l2_hit_rate\": {:.4}, \"iterations\": {}, \"evaluations\": {} }}{}\n",
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
    use catt_diag::json::Json;
    use catt_workloads::registry;

    fn opts() -> TuneOptions {
        TuneOptions::default()
    }

    /// Run [`climb`] on `costs`, checking what holds for any cost
    /// function: the budget is respected, every probe is in range and
    /// new, and one probe is made per iteration. Returns the cheapest
    /// index probed (the first in probe order on a tie).
    fn checked_climb(costs: &[u64], start: usize) -> usize {
        let mut probed = Vec::new();
        let iterations = climb(costs.len(), start, climb_bound(costs.len()), |i| {
            assert!(
                i < costs.len(),
                "probe {i} outside a ladder of {}",
                costs.len()
            );
            assert!(!probed.contains(&i), "index {i} probed twice: {probed:?}");
            probed.push(i);
            costs[i]
        });
        assert!(iterations <= climb_bound(costs.len()));
        assert_eq!(
            probed.len() as u32,
            iterations + 1,
            "one probe per iteration"
        );
        probed
            .into_iter()
            .min_by_key(|&i| costs[i])
            .expect("the start is always probed")
    }

    /// Falls strictly to `at`, then rises strictly, by steps from `rng`.
    fn valley(rng: &mut Rng, len: usize, at: usize) -> Vec<u64> {
        let mut costs = vec![1_000u64; len];
        for i in (0..at).rev() {
            costs[i] = costs[i + 1] + rng.range_u32(1, 50) as u64;
        }
        for i in at + 1..len {
            costs[i] = costs[i - 1] + rng.range_u32(1, 50) as u64;
        }
        costs
    }

    #[test]
    fn climb_budget_is_two_log_len_plus_two() {
        let bounds: Vec<u32> = [1, 2, 3, 4, 5, 8, 9, 16, 17].map(climb_bound).to_vec();
        assert_eq!(bounds, [0, 4, 6, 6, 8, 8, 10, 10, 12]);
    }

    /// On a unimodal cost the climb ends at the minimum, from any start.
    #[test]
    fn climb_finds_the_minimum_of_a_unimodal_cost() {
        let mut rng = Rng::seed(0xC11B);
        for len in 1..48 {
            for _ in 0..40 {
                let at = rng.range_usize(0, len);
                let costs = valley(&mut rng, len, at);
                let start = rng.range_usize(0, len);
                assert_eq!(checked_climb(&costs, start), at, "{costs:?} from {start}");
            }
        }
    }

    /// A flat cost never moves the cap: every probe loses.
    #[test]
    fn climb_stays_put_on_a_flat_cost() {
        for len in 1..40 {
            for start in 0..len {
                assert_eq!(checked_climb(&vec![7; len], start), start);
            }
        }
    }

    /// A valley with a flat floor ends on the floor.
    #[test]
    fn climb_reaches_a_plateau_floor() {
        let mut rng = Rng::seed(0x9A7E);
        for len in 2..40 {
            for _ in 0..40 {
                let a = rng.range_usize(0, len);
                let b = rng.range_usize(a, len);
                let mut costs = valley(&mut rng, len, a);
                for c in &mut costs[a..=b] {
                    *c = 1_000;
                }
                for i in b + 1..len {
                    costs[i] = costs[i - 1] + rng.range_u32(1, 50) as u64;
                }
                let start = rng.range_usize(0, len);
                let best = checked_climb(&costs, start);
                assert_eq!(costs[best], 1_000, "{costs:?} from {start}");
            }
        }
    }

    /// Arbitrary costs, with ties: the general properties still hold.
    #[test]
    fn climb_is_bounded_on_a_noisy_cost() {
        let mut rng = Rng::seed(0x2015E);
        for len in 1..64 {
            for _ in 0..40 {
                let costs: Vec<u64> = (0..len).map(|_| rng.range_u32(0, 4) as u64).collect();
                checked_climb(&costs, rng.range_usize(0, len));
            }
        }
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
            r.tuned.l2_hit_rate > r.baseline_l2_hit_rate + MIN_L2_GAIN,
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
}
