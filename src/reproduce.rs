//! # Reproduce — the paper's tables and figures as checked artifacts
//!
//! Every table committed under `results/` has one renderer here that
//! returns it as text: Tables 1–3, Figs. 2/3/6–10, three ablations, the
//! DYNCTA comparison, §5.1.4's analysis overhead and the `catt tune all`
//! table (DESIGN.md §4 maps them to the paper). `catt reproduce <id|all>`
//! writes `results/<id>.txt`; with `--check` it compares instead
//! ([`check`]): byte for byte, except for `analysis_overhead`'s host-time
//! column. Every renderer evaluates on [`Engine::global`], so ids rendered
//! in one process share their baseline, BFTT and CATT simulations
//! (Figs. 6, 7, 8 and 10 and the tuner's ladder).

use catt_core::analysis::{self, search_factors};
use catt_core::bftt::{self, candidate_grid};
use catt_core::engine::{Engine, Progress};
use catt_core::pipeline::Pipeline;
use catt_core::transform::{tb_throttle, warp_throttle};
use catt_ir::Kernel;
use catt_sim::config::DynctaConfig;
use catt_sim::GpuConfig;
use catt_tune::tune_workloads;
use catt_workloads::harness::{compile_catt, eval_config_32kb_l1d, eval_config_max_l1d, geomean};
use catt_workloads::registry::{self, all_workloads, ci_workloads, cs_workloads, Workload};
use catt_workloads::{micro, run_baseline, run_bftt, run_cached, run_catt, EvalError};
use std::error::Error;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// A rendered table, or why it could not be produced.
pub type Rendered = Result<String, Box<dyn Error>>;

/// A table's renderer.
pub type Render = fn() -> Rendered;

/// Every committed artifact — `results/<id>.txt` — with the function that
/// regenerates it, in `catt reproduce all` order.
pub static ARTIFACTS: [(&str, Render); 16] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("ablation_transforms", ablation_transforms),
    ("ablation_granularity", ablation_granularity),
    ("ablation_irregular", ablation_irregular),
    ("dyncta_comparison", dyncta_comparison),
    ("analysis_overhead", analysis_overhead),
    ("tune", tune),
];

/// The renderer of artifact `id`.
pub fn find(id: &str) -> Option<Render> {
    ARTIFACTS.iter().find(|(a, _)| *a == id).map(|(_, r)| *r)
}

/// Compare a fresh rendering of `id` with the committed text and name
/// the first line that differs (1-based; a missing line reads as empty).
/// Byte for byte, except that `analysis_overhead`'s compile-time cells
/// (host wall time, different on every run) are not compared.
pub fn compare(id: &str, fresh: &str, committed: &str) -> Option<String> {
    let mask = |line: &str| match line.rsplit_once("  ") {
        Some((cells, time)) if id == "analysis_overhead" && time.ends_with(" us") => {
            cells.trim_end().to_string()
        }
        _ => line.to_string(),
    };
    let (mut c, mut f) = (committed.split('\n'), fresh.split('\n'));
    for line in 1.. {
        let (a, b) = (c.next(), f.next());
        if a.is_none() && b.is_none() {
            break;
        }
        if a.map(mask) != b.map(mask) {
            let (a, b) = (a.unwrap_or_default(), b.unwrap_or_default());
            return Some(format!("line {line}: committed `{a}`, fresh `{b}`"));
        }
    }
    None
}

/// `catt reproduce <id> --check`: render `id` and [`compare`] it with
/// `<dir>/<id>.txt`. Returns the fresh text when it matches, or what went
/// wrong.
pub fn check(id: &str, dir: &Path) -> Result<String, String> {
    let render = find(id).ok_or("no such artifact")?;
    let committed = std::fs::read_to_string(dir.join(format!("{id}.txt")))
        .map_err(|e| format!("cannot read the committed table: {e}"))?;
    let fresh = render().map_err(|e| format!("cannot regenerate: {e}"))?;
    match compare(id, &fresh, &committed) {
        None => Ok(fresh),
        Some(drift) => Err(format!("drifted at {drift}")),
    }
}

/// Progress on stderr, unless the engine runs silent.
fn note(what: &str, abbrev: &str) {
    if Engine::global().progress() != Progress::Off {
        eprintln!("  {what} {abbrev} ...");
    }
}

/// Result of evaluating one application under the three policies.
pub struct AppEval {
    pub abbrev: &'static str,
    /// Cycles and L1D hit rate: baseline, best BFTT candidate, CATT.
    pub base_cycles: u64,
    pub base_hit: f64,
    pub bftt_cycles: u64,
    pub bftt_hit: f64,
    pub catt_cycles: u64,
    pub catt_hit: f64,
    /// Whether CATT transformed anything.
    pub catt_transformed: bool,
}

impl AppEval {
    /// Normalized execution times `(BFTT, CATT)` (baseline = 1.0), the
    /// y-axis of Figs. 7, 8 and 10.
    pub fn normalized(&self) -> (f64, f64) {
        let base = self.base_cycles as f64;
        (
            self.bftt_cycles as f64 / base,
            self.catt_cycles as f64 / base,
        )
    }

    /// Speedups `(BFTT, CATT)` over baseline.
    pub fn speedups(&self) -> (f64, f64) {
        let base = self.base_cycles as f64;
        (
            base / self.bftt_cycles as f64,
            base / self.catt_cycles as f64,
        )
    }
}

/// Evaluate one workload under baseline / BFTT / CATT on `config`, on the
/// global [`Engine`]. A failure names the workload (and, for BFTT, the
/// failing `(n, m)` candidate).
pub fn eval_app(w: &Workload, config: &GpuConfig) -> Result<AppEval, EvalError> {
    let base = run_baseline(w, config)?;
    let (catt, app) = run_catt(w, config)?;
    let sweep = run_bftt(w, config)?;
    let bftt = &sweep.best_candidate().stats;
    Ok(AppEval {
        abbrev: w.abbrev,
        base_cycles: base.cycles,
        base_hit: base.l1_hit_rate(),
        bftt_cycles: bftt.cycles,
        bftt_hit: bftt.l1_hit_rate(),
        catt_cycles: catt.cycles,
        catt_hit: catt.l1_hit_rate(),
        catt_transformed: app.kernels.iter().any(|k| k.is_transformed()),
    })
}

/// [`eval_app`] over a group, stopping at the first failing workload.
pub fn eval_group(workloads: &[Workload], config: &GpuConfig) -> Result<Vec<AppEval>, EvalError> {
    workloads
        .iter()
        .map(|w| {
            note("evaluating", w.abbrev);
            eval_app(w, config)
        })
        .collect()
}

/// Geomean speedup as a signed percentage gain (an empty set reads 0 %).
fn gain_pct(speedups: impl Iterator<Item = f64>) -> f64 {
    (geomean(&speedups.collect::<Vec<_>>()).unwrap_or(1.0) - 1.0) * 100.0
}

/// A normalized-execution-time figure (Figs. 7 / 8 / 10) and the geomean
/// speedup line the paper quotes.
pub fn normalized_figure(title: &str, evals: &[AppEval]) -> String {
    let mut s = format!(
        "{title}\n{:<8} {:>10} {:>10} {:>10}\n",
        "app", "baseline", "BFTT", "CATT"
    );
    for e in evals {
        let (b, c) = e.normalized();
        let _ = writeln!(s, "{:<8} {:>10.3} {:>10.3} {:>10.3}", e.abbrev, 1.0, b, c);
    }
    let _ = writeln!(
        s,
        "geomean speedup over baseline: BFTT {:+.2}% | CATT {:+.2}%",
        gain_pct(evals.iter().map(|e| e.speedups().0)),
        gain_pct(evals.iter().map(|e| e.speedups().1)),
    );
    s
}

/// An aligned-column table under `title`: the `|`-separated `headers`, a
/// dash rule, then the `|`-separated `rows` (no cell holds a `|`).
pub fn table(title: &str, headers: &str, rows: &[String]) -> String {
    let mut rows: Vec<Vec<&str>> = std::iter::once(headers)
        .chain(rows.iter().map(String::as_str))
        .map(|r| r.split('|').collect())
        .collect();
    let mut widths = vec![0; rows[0].len()];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    rows.insert(1, rule.iter().map(String::as_str).collect());
    let mut out = format!("{title}\n");
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:<w$}  ");
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// `cycles / base` to three decimals, the normalized-time cell.
fn ratio(cycles: u64, base: u64) -> String {
    format!("{:.3}", cycles as f64 / base as f64)
}

/// Table 1 — GPU specifications of the (simulated) Titan V.
fn table1() -> Rendered {
    let c = GpuConfig::titan_v();
    let l1_kb = |bytes: u32| bytes / 1024;
    let rows = [
        "GPU|Titan V (simulated)".to_string(),
        "Architecture|Volta".to_string(),
        format!("SMs|{}", c.num_sms),
        format!("Register file / SM|{} KB", l1_kb(c.regfile_bytes_per_sm)),
        format!(
            "L1 cache / SM|{}-{} KB (configurable)",
            l1_kb(c.onchip_bytes_per_sm - 96 * 1024),
            l1_kb(c.onchip_bytes_per_sm)
        ),
        "Shared memory / SM|0-96 KB (configurable)".to_string(),
        format!("Warp schedulers / SM|{}", c.schedulers_per_sm),
        format!("Max warps / SM|{}", c.max_warps_per_sm),
    ];
    let title = "Table 1: GPU specifications (simulated Nvidia Titan V)";
    Ok(table(title, "parameter|value", &rows))
}

/// Table 2 — GPGPU workload description (the registry, at sim scale).
fn table2() -> Rendered {
    let rows: Vec<String> = all_workloads()
        .iter()
        .map(|w| {
            let (group, kernels, smem) = (w.group.label(), w.launches.len(), w.smem_kb);
            let (abbrev, name, suite, input) = (w.abbrev, w.name, w.suite, w.input);
            format!("{group}|{abbrev}|{name}|{suite}|{smem:.2}|{input}|{kernels}")
        })
        .collect();
    Ok(table(
        "Table 2: GPGPU workload description (inputs at simulator scale)",
        "group|abbr.|application|suite|SMEM (KB)|input|kernels",
        &rows,
    ))
}

/// Table 3 — TLP `(#warps_TB, #TBs)` per kernel/loop selected by the
/// baseline and by CATT's static analysis at the 32 KB and maximum L1D,
/// CS group. (BFTT's pick needs the exhaustive sweep: Figs. 7 and 9.)
fn table3() -> Rendered {
    let mut rows = Vec::new();
    for w in cs_workloads() {
        let abbrev = w.abbrev;
        let at32 = compile_catt(&w, &eval_config_32kb_l1d())?;
        let atmax = compile_catt(&w, &eval_config_max_l1d())?;
        for (i, (k32, kmax)) in at32.kernels.iter().zip(&atmax.kernels).enumerate() {
            let (a32, amax) = (&k32.analysis, &kmax.analysis);
            let (kernel, base) = (i + 1, amax.baseline_tlp());
            if amax.loops.is_empty() {
                let b32 = a32.baseline_tlp();
                rows.push(format!("{abbrev}|#{kernel}|-|{base:?}|{b32:?}|{base:?}"));
            }
            for (l32, lmax) in a32.loops.iter().zip(&amax.loops) {
                let t32 = l32.tlp(a32.warps_per_tb, a32.plan.resident_tbs);
                let tmax = lmax.tlp(amax.warps_per_tb, amax.plan.resident_tbs);
                let l = lmax.loop_id + 1;
                rows.push(format!("{abbrev}|#{kernel}|{l}|{base:?}|{t32:?}|{tmax:?}"));
            }
        }
    }
    Ok(table(
        "Table 3: TLP (#warps_TB, #TBs) per loop — baseline vs CATT",
        "app|kernel|loop|baseline|CATT 32KB|CATT max L1D",
        &rows,
    ))
}

/// Fig. 2 — off-chip requests per memory instruction over time, CS apps,
/// baseline, in 40 buckets: high values are divergent phases, low values
/// coalesced ones — the fluctuation CATT's per-loop decisions exploit.
fn fig2() -> Rendered {
    const BUCKETS: usize = 40;
    let mut s = format!(
        "Fig. 2: off-chip requests per memory instruction over time (baseline)\n\
         (x: execution progress in {BUCKETS} buckets; y: avg 128B transactions per instruction)\n"
    );
    // Traced runs bypass the simulation cache (the trace is not stored),
    // but still report failures through the engine.
    let mut config = eval_config_max_l1d();
    config.trace_requests = true;
    for w in cs_workloads() {
        note("tracing", w.abbrev);
        let stats = run_cached(&w, &w.kernels(), &config)?;
        let series = stats.trace.bucketed(BUCKETS);
        let _ = write!(s, "{:<6}", w.abbrev);
        for v in &series {
            let _ = write!(s, " {v:5.1}");
        }
        // A sparkline-style indicator of the phase structure.
        let _ = write!(s, "\n{:<6}", "");
        for v in &series {
            let c = match *v as u32 {
                0..=1 => '.',
                2..=7 => '-',
                8..=19 => '=',
                _ => '#',
            };
            let _ = write!(s, " {c:>5}");
        }
        s.push('\n');
    }
    s.push_str("\nlegend: '.' coalesced (~1 req/inst), '#' divergent (>=20 req/inst)\n");
    Ok(s)
}

/// Fig. 3 — TLP vs cache footprint: the `L1D-full-with-{4,8,16}-warps`
/// microbenchmarks swept from 1 to 32 concurrent warps at fixed work.
fn fig3() -> Rendered {
    let mut config = GpuConfig::titan_v_1sm();
    config.l1_cap_bytes = Some(32 * 1024);
    // Fig. 3 isolates L1 contention; a warm L2 would flatten the U-shape.
    config.l2_kb = Some(0);
    let tlps = [1u32, 2, 4, 8, 16, 32];
    let rows: Vec<String> = [4u32, 8, 16]
        .into_iter()
        .map(|full| {
            let cycles = tlps
                .iter()
                .map(|&t| micro::run(full, t, &config).cycles.to_string());
            format!(
                "L1D-full-with-{full}-warps|{}",
                cycles.collect::<Vec<_>>().join("|")
            )
        })
        .collect();
    let headers: Vec<String> = tlps.iter().map(|t| format!("TLP {t}")).collect();
    Ok(table(
        "Fig. 3: execution time (cycles) vs TLP, fixed total work",
        &format!("microbenchmark|{}", headers.join("|")),
        &rows,
    ) + "\nExpected shape: per row, time falls with TLP until the fill point\n\
         (enough warps to fill the L1D) and rises past it as footprints thrash.\n")
}

/// Fig. 6 — L1D hit rates of baseline / BFTT / CATT, max L1D, CS group
/// (per application over all its launches; the paper splits per kernel).
fn fig6() -> Rendered {
    let pct = |h: f64| format!("{:5.1}%", 100.0 * h);
    let rows: Vec<String> = eval_group(&cs_workloads(), &eval_config_max_l1d())?
        .iter()
        .map(|e| {
            let (b, bftt, catt) = (pct(e.base_hit), pct(e.bftt_hit), pct(e.catt_hit));
            format!("{}|{b}|{bftt}|{catt}", e.abbrev)
        })
        .collect();
    let title = "Fig. 6: L1D load hit rate (max. L1D)";
    Ok(table(title, "app|baseline|BFTT|CATT", &rows))
}

/// Fig. 7 — normalized execution time, CS group, max L1D: the paper's
/// headline (CATT +42.96 % geomean, BFTT +31.19 % on its testbed).
fn fig7() -> Rendered {
    let evals = eval_group(&cs_workloads(), &eval_config_max_l1d())?;
    let title = "Fig. 7: normalized execution time, CS group (max. L1D)";
    Ok(normalized_figure(title, &evals))
}

/// Fig. 8 — normalized execution time, CI group, max L1D: CATT must be a
/// flat 1.0, no CI kernel needs throttling (§5.1.1).
fn fig8() -> Rendered {
    let evals = eval_group(&ci_workloads(), &eval_config_max_l1d())?;
    let title = "Fig. 8: normalized execution time, CI group (max. L1D)";
    let mut s = normalized_figure(title, &evals);
    let mistuned: Vec<&str> = evals
        .iter()
        .filter(|e| e.catt_transformed)
        .map(|e| e.abbrev)
        .collect();
    if mistuned.is_empty() {
        s.push_str("CATT left every CI application untouched (as the paper requires).\n");
    } else {
        let _ = writeln!(s, "WARNING: CATT transformed CI apps: {mistuned:?}");
    }
    Ok(s)
}

/// Fig. 9 — per-kernel factor sensitivity, 32 KB L1D: normalized app time
/// as one CS kernel's `(warps, TBs)` sweeps the grid, CATT's static pick
/// starred. Throttled kernels plus the irregular BFS/CFD ones.
fn fig9() -> Rendered {
    let config = eval_config_32kb_l1d();
    let mut s = String::from(
        "Fig. 9: normalized execution time vs per-kernel throttling factor (32 KB L1D)\n\
         (sweeping one kernel at a time, others at baseline; * = CATT's static pick)\n",
    );
    for w in cs_workloads() {
        let kernels = w.kernels();
        let (_, app) = run_catt(&w, &config)?;
        let base_cycles = run_cached(&w, &kernels, &config)?.cycles as f64;
        for (ki, ck) in app.kernels.iter().enumerate() {
            let a = &ck.analysis;
            let throttled = a.loops.iter().any(|l| l.decision.is_throttled());
            if !(throttled || matches!(w.abbrev, "BFS" | "CFD")) || a.loops.is_empty() {
                continue;
            }
            note("sweeping", &format!("{}#{}", w.abbrev, ki + 1));
            let tlp @ (warps, resident) = (a.warps_per_tb, a.plan.resident_tbs);
            let catt_pick = a
                .loops
                .iter()
                .filter(|l| l.decision.is_throttled())
                .map(|l| l.tlp(warps, resident))
                .min_by_key(|(w, t)| w * t)
                .unwrap_or((warps, resident));
            let _ = write!(s, "{}#{}", w.abbrev, ki + 1);
            for (n, m) in candidate_grid(warps, resident) {
                let ks = bftt::uniform(&kernels, Some(ki), (n, m), tlp, config.smem_carveout_bytes);
                let norm = run_cached(&w, &ks, &config)?.cycles as f64 / base_cycles;
                let (sw, st) = (warps / n, resident - m);
                let star = if (sw, st) == catt_pick { "*" } else { "" };
                let _ = write!(s, " ({sw:>2},{st:>2}){star}{norm:5.2}");
            }
            s.push('\n');
        }
    }
    s.push_str(
        "\nReading: < 1.00 beats the unthrottled baseline. The starred setting is\n\
         what CATT chose statically for this kernel's contended loop (the whole\n\
         application still runs CATT's per-loop code, which can combine several\n\
         settings). BFS/CFD rows carry no star when CATT leaves them untouched.\n",
    );
    Ok(s)
}

/// Fig. 10 — normalized execution time, CS group, 32 KB L1D (§5.1.3): the
/// paper reports +89.23 % (CATT) vs +68.17 % (BFTT) on its testbed.
fn fig10() -> Rendered {
    let evals = eval_group(&cs_workloads(), &eval_config_32kb_l1d())?;
    let title = "Fig. 10: normalized execution time, CS group (32 KB L1D)";
    Ok(normalized_figure(title, &evals))
}

/// Ablation — warp-level vs TB-level vs combined throttling (§4.3) on the
/// contended ATAX kernel 1, 32 KB L1D: warp-level throttling serializes
/// only the loop, TB-level throttling the whole kernel.
fn ablation_transforms() -> Rendered {
    let w = registry::find("ATAX").ok_or("ATAX is not in the registry")?;
    let config = eval_config_32kb_l1d();
    let kernels = w.kernels();
    let k1 = &kernels[0];
    let warps_per_tb = w.launch(0).warps_per_block();
    let warps = |k: &Kernel, n| warp_throttle(k, 0, n, warps_per_tb).ok_or("warp transform");
    let tbs = |k: &Kernel, m| tb_throttle(k, m, 96 * 1024, 0).ok_or("TB transform");
    // Variants of kernel 1 at (roughly) one quarter of the baseline TLP:
    // 2 of 8 warps  vs  baseline TBs reduced 4x  vs  half warps + half TBs.
    let variants = [
        ("baseline", k1.clone()),
        ("warp-level N=4", warps(k1, 4)?),
        ("TB-level -> 2 TBs", tbs(k1, 2)?),
        ("combined N=2 + 4 TBs", tbs(&warps(k1, 2)?, 4)?),
    ];
    let mut rows = Vec::new();
    let mut base = 0u64;
    for (name, variant) in variants {
        let mut ks = kernels.clone();
        ks[0] = variant;
        let stats = run_cached(&w, &ks, &config)?;
        if name == "baseline" {
            base = stats.cycles;
        }
        let (cycles, hit) = (stats.cycles, 100.0 * stats.l1_hit_rate());
        let (norm, reqs) = (ratio(cycles, base), stats.offchip_requests);
        rows.push(format!("{name}|{cycles}|{norm}|{hit:5.1}%|{reqs}"));
    }
    Ok(table(
        "Ablation: throttling mechanism on ATAX kernel 1 (32 KB L1D)",
        "variant|cycles|normalized|L1D hit|off-chip reqs",
        &rows,
    ))
}

/// Cycles of `w` with every kernel uniformly throttled to `nm` (the
/// baseline's when `None`).
fn uniform_cycles(
    w: &Workload,
    nm: Option<(u32, u32)>,
    base: &catt_sim::LaunchStats,
    config: &GpuConfig,
) -> Result<u64, EvalError> {
    let Some(nm) = nm else { return Ok(base.cycles) };
    let tlp = (w.block_launch().warps_per_block(), base.resident_tbs_per_sm);
    let ks = bftt::uniform(&w.kernels(), None, nm, tlp, config.smem_carveout_bytes);
    Ok(run_cached(w, &ks, config)?.cycles)
}

/// Ablation — per-loop vs per-application decisions, 32 KB L1D: CATT
/// collapsed to one factor per app (the strongest throttle any loop asked
/// for, everywhere: a static analysis at BFTT's granularity) against
/// per-loop CATT on the multi-phase apps — the paper's central claim.
fn ablation_granularity() -> Rendered {
    let config = eval_config_32kb_l1d();
    let mut rows = Vec::new();
    for abbrev in ["ATAX", "BICG", "MVT", "PF", "GSMV"] {
        let w = registry::find(abbrev).ok_or("workload missing from the registry")?;
        let base = run_cached(&w, &w.kernels(), &config)?;
        let (catt, app) = run_catt(&w, &config)?;
        let collapsed = app
            .kernels
            .iter()
            .flat_map(|k| k.analysis.loops.iter())
            .filter(|l| l.decision.is_throttled())
            .map(|l| (l.decision.n, l.decision.m))
            .max_by_key(|(n, m)| n * (m + 1));
        let per_loop = ratio(catt.cycles, base.cycles);
        let one = ratio(uniform_cycles(&w, collapsed, &base, &config)?, base.cycles);
        rows.push(format!("{abbrev}|{per_loop}|{one}|{collapsed:?}"));
    }
    Ok(table(
        "Ablation: decision granularity (32 KB L1D)",
        "app|per-loop CATT|collapsed (one factor)|collapsed (N,M)",
        &rows,
    ) + "\nExpected: on multi-phase apps (ATAX/BICG/MVT/PF) per-loop beats the\n\
         collapsed single factor because the coalesced phases keep full TLP;\n\
         on uniform apps (GSMV) the two coincide — §5.1's CATT-vs-BFTT argument.\n")
}

/// Ablation — irregular accesses (§4.2), max L1D: CATT's conservative
/// `C_tid := 1` against a pessimistic `C_tid := 32` (full divergence) on
/// BFS and CFD, the factor search redone with worst-case request counts
/// and its heaviest decision applied uniformly.
fn ablation_irregular() -> Rendered {
    let config = eval_config_max_l1d();
    let mut rows = Vec::new();
    for abbrev in ["BFS", "CFD"] {
        let w = registry::find(abbrev).ok_or("workload missing from the registry")?;
        let kernels = w.kernels();
        let base = run_cached(&w, &kernels, &config)?;
        let (catt, _) = run_catt(&w, &config)?;
        // The heavier of two throttles runs fewer concurrent warps; ties
        // keep the first found.
        let mut worst: Option<(u32, u32)> = None;
        for (i, k) in kernels.iter().enumerate() {
            let regs = catt_sim::lower(k)?.num_regs as u32;
            let a = analysis::analyze_kernel(k, w.launch(i), &config, regs)
                .ok_or_else(|| format!("{abbrev}: kernel `{}` does not analyze", k.name))?;
            let l1_lines = (a.plan.l1d_bytes / a.plan.config.l1_line_bytes) as u64;
            for l in &a.loops {
                let reqs = l
                    .accesses
                    .iter()
                    .map(|acc| acc.c_tid.map_or(32, |_| acc.req_warp));
                let per_round = reqs.map(u64::from).sum();
                let d = search_factors(per_round, a.warps_per_tb, a.plan.resident_tbs, l1_lines);
                let weight = |(n, m): (u32, u32)| n * (m + 1);
                if d.resolved
                    && (d.n > 1 || d.m > 0)
                    && worst.is_none_or(|p| weight(p) < weight((d.n, d.m)))
                {
                    worst = Some((d.n, d.m));
                }
            }
        }
        let cycles = base.cycles;
        let conservative = ratio(catt.cycles, cycles);
        let pessimistic = ratio(uniform_cycles(&w, worst, &base, &config)?, cycles);
        rows.push(format!(
            "{abbrev}|{cycles}|{conservative}|{pessimistic}|{worst:?}"
        ));
    }
    Ok(table(
        "Ablation: irregular-access handling (max. L1D)",
        "app|baseline cycles|conservative (CATT)|pessimistic (C_tid=32)|pessimistic (N,M)",
        &rows,
    ) + "\nExpected: conservative == 1.000 (untouched); pessimistic > 1.000 where\n\
         the worst-case estimate forces unnecessary throttling — the paper's\n\
         argument for C_tid := 1 (§4.2).\n")
}

/// Extension — dynamic vs compile-time throttling, 32 KB L1D, CS group:
/// the DYNCTA-style TB throttler (`DynctaConfig`) makes quantitative the
/// comparison §2.2 could only make qualitatively.
fn dyncta_comparison() -> Rendered {
    let config = eval_config_32kb_l1d();
    let mut dyn_config = config.clone();
    dyn_config.dyncta = Some(DynctaConfig::default());
    let (mut rows, mut speedups) = (Vec::new(), Vec::new());
    for w in cs_workloads() {
        note("evaluating", w.abbrev);
        let base = run_baseline(&w, &config)?.cycles;
        let dynr = run_baseline(&w, &dyn_config)?.cycles;
        let catt = run_catt(&w, &config)?.0.cycles;
        speedups.push((base as f64 / dynr as f64, base as f64 / catt as f64));
        rows.push(format!(
            "{}|{}|{}",
            w.abbrev,
            ratio(dynr, base),
            ratio(catt, base)
        ));
    }
    let title = "Dynamic (DYNCTA-style) vs compile-time (CATT) throttling, 32 KB L1D";
    let mut s = table(title, "app|DYNCTA (normalized)|CATT (normalized)", &rows);
    let _ = write!(
        s,
        "geomean speedup: DYNCTA {:+.2}% | CATT {:+.2}%\n\n\
         Expected (paper §2.2): the reactive scheme helps contended apps but\n\
         lags CATT — it spends warm-up windows converging, re-converges on every\n\
         phase change, and throttles at whole-TB granularity only.\n",
        gain_pct(speedups.iter().map(|s| s.0)),
        gain_pct(speedups.iter().map(|s| s.1)),
    );
    Ok(s)
}

/// §5.1.4 — host wall time of the full `parse -> analyze -> transform ->
/// emit` pipeline per application (the paper: 1-2 s with Antlr; the claim
/// checked is the linear scaling in source length). The time column
/// differs on every run; [`compare`] leaves it out.
fn analysis_overhead() -> Rendered {
    const REPS: u32 = 100;
    let pipe = Pipeline::new(eval_config_max_l1d());
    let mut rows = Vec::new();
    for w in all_workloads() {
        let kernels = w.kernels();
        let start = Instant::now();
        for _ in 0..REPS {
            for (i, k) in kernels.iter().enumerate() {
                pipe.compile_kernel(k, w.launch(i))?;
            }
        }
        let us = (start.elapsed() / REPS).as_secs_f64() * 1e6;
        rows.push(format!(
            "{}|{}|{us:.1} us",
            w.abbrev,
            w.source.lines().count()
        ));
    }
    let title = "Analysis overhead (full compile pipeline per application)";
    Ok(table(title, "app|source lines|compile time", &rows))
}

/// Extension — the feedback autotuner on every registry app at the max
/// L1D: the `catt tune all` table.
fn tune() -> Rendered {
    let summary = tune_workloads(&all_workloads(), &eval_config_max_l1d());
    if let Some((abbrev, e)) = summary.failures.first() {
        return Err(format!("tuning {abbrev} failed: {e}").into());
    }
    match summary.violations().first() {
        Some(v) => Err(format!("tuner self-check: {v}").into()),
        None => Ok(summary.render_table()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_app_runs_ci_quickly() {
        let w = registry::find("MC").unwrap();
        let e = eval_app(&w, &eval_config_max_l1d()).expect("MC evaluates");
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
            catt_cycles: 500,
            catt_hit: 0.9,
            catt_transformed: true,
        };
        assert_eq!(e.normalized(), (0.8, 0.5));
        assert_eq!(e.speedups(), (1.25, 2.0));
    }

    #[test]
    fn compare_names_the_first_drifted_line() {
        assert_eq!(compare("fig7", "a\nb\n", "a\nb\n"), None);
        assert_eq!(
            compare("fig7", "a\nc\n", "a\nb\n").as_deref(),
            Some("line 2: committed `b`, fresh `c`")
        );
        // A truncated rendering drifts where it ends.
        assert_eq!(
            compare("fig7", "a\n", "a\nb\n").as_deref(),
            Some("line 2: committed `b`, fresh ``")
        );
    }

    #[test]
    fn only_analysis_overhead_ignores_host_times() {
        let committed = "app  source lines  compile time\nGSMV  15            26.4 us\n";
        let fresh = committed.replace("26.4", "30.1");
        assert_eq!(compare("analysis_overhead", &fresh, committed), None);
        assert!(compare("fig7", &fresh, committed).is_some());
        let drift = compare("analysis_overhead", &fresh.replace("15", "16"), committed);
        assert!(drift.unwrap().starts_with("line 2:"));
    }

    #[test]
    fn every_id_is_unique_and_found() {
        let ids: std::collections::BTreeSet<&str> = ARTIFACTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), ARTIFACTS.len());
        assert!(ids.iter().all(|id| find(id).is_some()));
        assert!(find("fig1").is_none());
    }

    #[test]
    fn table_aligns_columns_and_trims_trailing_space() {
        let rows = ["a|bbb".to_string(), "cc|d".to_string()];
        assert_eq!(
            table("T", "x|y", &rows),
            "T\nx   y\n--  ---\na   bbb\ncc  d\n"
        );
    }
}
