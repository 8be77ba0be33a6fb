//! `sim-compute` and `sim-memory`: rounds of cold, uncached application
//! runs straight on the simulator — the same `sim` layer used two ways.

use super::probes::{self, Item, PROBE_OP};
use super::{recorder, repeat_setup, setup_rounds, start_timed, stop_timed, Args, Report};
use crate::gen::{self, GenKernel};
use crate::metrics::{Values, COMPUTE_APPS, MEMORY_APPS};
use crate::span::{timed, Recorder};
use crate::stats::{geomean, median};
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, LaunchStats, Program};
use catt_workloads::harness::{eval_config_max_l1d, run_profiled};
use catt_workloads::{registry, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Compute,
    Memory,
}

impl Mix {
    fn registry_apps(self) -> &'static [&'static str] {
        match self {
            Mix::Compute => &COMPUTE_APPS,
            Mix::Memory => &MEMORY_APPS,
        }
    }

    /// Generated kernels per round, and the row they are reported under.
    fn generated(self) -> (usize, &'static str) {
        match self {
            Mix::Compute => (4, "gen-alu"),
            Mix::Memory => (8, "gen-stride"),
        }
    }

    /// The two long simulations (1.3 s each; the rest of `sim-compute`
    /// together is under 0.6 s), left out of the overhead probes.
    fn is_long(self, name: &str) -> bool {
        self == Mix::Compute && matches!(name, "PF" | "DM")
    }

    /// Apps left out of the warm-up pass, which is there to fault in code
    /// and allocator state, not to repeat the round: the long simulations,
    /// and two of the three matrix-vector apps that share one shape.
    fn skips_warmup(self, name: &str) -> bool {
        self.is_long(name) || matches!(name, "BICG" | "MVT")
    }

    /// Apps a smoke run leaves out: everything over a quarter of a second.
    fn skips_smoke(self, name: &str) -> bool {
        self.skips_warmup(name) || name == "ATAX"
    }

    /// Apps re-run on 8 SMs, sequential and parallel.
    fn sm8_apps(self) -> &'static [&'static str] {
        match self {
            Mix::Compute => &["PF", "DM"],
            Mix::Memory => &["ATAX"],
        }
    }
}

/// One generated kernel, lowered, with its input and expected output.
struct Generated {
    kernel: GenKernel,
    item: Item,
    program: Program,
    input: Vec<f32>,
    expected: Vec<f32>,
}

enum Body {
    Registry(Workload, Vec<catt_ir::Kernel>),
    Generated(Box<Generated>),
}

/// One operation of a round.
struct App {
    /// Span name and failure label.
    name: String,
    /// Row of `sim.ns_per_warp_instr.<row>` it is reported under.
    row: &'static str,
    body: Body,
}

fn build(mix: Mix, seed: u64) -> Vec<App> {
    let mut apps: Vec<App> = mix
        .registry_apps()
        .iter()
        .map(|&abbrev| {
            let w = registry::find(abbrev).unwrap_or_else(|| panic!("no registry app {abbrev}"));
            let kernels = w.kernels();
            App {
                name: abbrev.to_string(),
                row: abbrev,
                body: Body::Registry(w, kernels),
            }
        })
        .collect();
    let (count, row) = mix.generated();
    let kind = match mix {
        Mix::Compute => gen::Kind::Alu,
        Mix::Memory => gen::Kind::Stride { classes: 3 },
    };
    for kernel in gen::corpus(seed, row.trim_start_matches("gen-"), count, kind) {
        let parsed = catt_frontend::parse_module(&kernel.source)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name))
            .kernels
            .remove(0);
        let program = catt_sim::lower(&parsed).unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        let input = gen::serve_fill(gen::N, 0);
        let expected = kernel.reference(&input, gen::N);
        apps.push(App {
            name: kernel.name.clone(),
            row,
            body: Body::Generated(Box::new(Generated {
                item: Item::generated(&kernel),
                kernel,
                program,
                input,
                expected,
            })),
        });
    }
    apps
}

/// What one run of one app gave.
struct RunOut {
    stats: LaunchStats,
    /// Seconds of the span the row's ns/warp-instr is taken from: the whole
    /// `(w.run)` for a registry app, `launch_program` for a generated one.
    sim_s: f64,
    /// Seconds of the whole operation (the latency sample).
    op_s: f64,
}

/// Run `app` once on `cfg`, uncached, checking its output.
fn run_app(
    rec: &mut Option<Recorder>,
    app: &App,
    cfg: &GpuConfig,
    op: u64,
) -> Result<RunOut, String> {
    match &app.body {
        Body::Registry(w, kernels) => {
            // `validate = true`: the runner compares device results with
            // its host reference and panics on a mismatch.
            let (res, secs) = timed(rec, &format!("run:{}", app.name), "sim", op, || {
                catch_unwind(AssertUnwindSafe(|| (w.run)(kernels, cfg, true)))
            });
            let stats = res.map_err(|p| format!("{}: {}", app.name, panic_text(&p)))?;
            Ok(RunOut {
                stats,
                sim_s: secs,
                op_s: secs,
            })
        }
        Body::Generated(g) => {
            let t0 = Instant::now();
            let id = rec
                .as_mut()
                .map(|r| r.open(&format!("op:{}", app.name), "bench", op));
            let mut mem = GlobalMem::new();
            let out = mem.alloc_f32(&vec![0.0; gen::N as usize]);
            let mut args = vec![Arg::Buf(out), Arg::I32(gen::N as i32)];
            if matches!(g.kernel.template, gen::Template::Stride { .. }) {
                args.insert(0, Arg::Buf(mem.alloc_f32(&g.input)));
            }
            let mut gpu = Gpu::new(cfg.clone());
            let (res, sim_s) = timed(rec, "launch_program", "sim", op, || {
                gpu.launch_program(&g.program, g.item.launch, &args, &mut mem)
            });
            let got = mem.read_f32(out);
            if let (Some(r), Some(id)) = (rec.as_mut(), id) {
                r.close(id);
            }
            let stats = res.map_err(|e| format!("{}: {e}", app.name))?;
            if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != g.expected[i].to_bits()) {
                return Err(format!(
                    "{}: out[{i}] = {} but the host reference says {}",
                    app.name, got[i], g.expected[i]
                ));
            }
            Ok(RunOut {
                stats,
                sim_s,
                op_s: t0.elapsed().as_secs_f64(),
            })
        }
    }
}

pub fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("panic")
        .to_string()
}

pub fn run(args: &Args, mix: Mix) -> Report {
    let mut report = Report {
        work_unit: "simulated warp-instructions",
        lat_op: "one cold app run",
        tail_pct: 75.0,
        ..Report::default()
    };
    let cfg = eval_config_max_l1d();
    let mut rec = recorder(args);
    let in_round = |app: &App| !(args.smoke && mix.skips_smoke(&app.name));

    // Set-up: find and parse the apps, generate and lower the seeded
    // kernels with their host references, then one warm-up pass.
    let apps = repeat_setup(setup_rounds(args), &mut report, |_| {
        let apps = build(mix, args.seed);
        for app in apps.iter().filter(|a| !mix.skips_warmup(&a.name)) {
            let _ = run_app(&mut None, app, &cfg, 0);
        }
        apps
    });
    let apps: Vec<&App> = apps.iter().filter(|a| in_round(a)).collect();

    // Cold probes (traced run): the first compile of each kernel has to
    // come before anything else compiles it.
    let items: Vec<Item> = apps
        .iter()
        .flat_map(|a| match &a.body {
            Body::Registry(w, _) => probes::registry_items(w),
            Body::Generated(g) => vec![g.item.clone()],
        })
        .collect();
    if args.trace {
        probes::staged_compile(&mut rec, &items, &cfg, &mut report.layer);
    }

    // Timed region: whole rounds until the time is up (at least one).
    let mut rounds: Vec<(&App, Tally)> = apps.iter().map(|a| (*a, Tally::default())).collect();
    let mut completed_rounds = 0u32;
    let start = start_timed();
    loop {
        let r0 = Instant::now();
        for (app, tally) in &mut rounds {
            report.attempted += 1;
            match run_app(&mut rec, app, &cfg, report.attempted) {
                Ok(out) => {
                    tally.walls.push(out.op_s);
                    tally.sims.push(out.sim_s);
                    report.lat_us.push(out.op_s * 1e6);
                    // The simulator is deterministic: every round must
                    // repeat the first one's statistics exactly.
                    match &tally.stats {
                        Some(first) if !same_counts(first, &out.stats) => {
                            report.fail(format!("{}: statistics differ between rounds", app.name))
                        }
                        Some(_) => {}
                        None => tally.stats = Some(out.stats),
                    }
                }
                Err(e) => report.fail(e),
            }
        }
        let last = r0.elapsed().as_secs_f64();
        completed_rounds += 1;
        if start.0.elapsed().as_secs_f64() + last / 2.0 >= args.seconds {
            break;
        }
    }
    stop_timed(&mut report, start);

    let round_instr: u64 = rounds.iter().map(|(_, t)| t.instructions()).sum();
    report.work = round_instr as f64 * completed_rounds as f64;
    // Σ instructions of a round ÷ the round's wall, each app at its median
    // over the rounds: a burst of host noise inflates one sample of one
    // app, not a whole round.
    let median_round: f64 = rounds.iter().map(|(_, t)| median(&t.walls)).sum();
    if median_round > 0.0 {
        report.work_per_s = round_instr as f64 / median_round;
    }

    if args.trace {
        layer_metrics(mix, &rounds, &cfg, &mut rec, &mut report);
    }
    report.recorder = rec;
    report
}

/// What the rounds recorded for one app.
#[derive(Default)]
struct Tally {
    /// Seconds of the whole operation, one per round.
    walls: Vec<f64>,
    /// Seconds of the span its `sim.ns_per_warp_instr` row is taken from.
    sims: Vec<f64>,
    /// The first round's statistics (every round must repeat them).
    stats: Option<LaunchStats>,
}

impl Tally {
    fn instructions(&self) -> u64 {
        self.stats.as_ref().map_or(0, |s| s.instructions)
    }
}

fn same_counts(a: &LaunchStats, b: &LaunchStats) -> bool {
    (a.cycles, a.instructions, a.l1_accesses, a.l1_hits)
        == (b.cycles, b.instructions, b.l1_accesses, b.l1_hits)
        && (a.l2_hits, a.offchip_requests) == (b.l2_hits, b.offchip_requests)
}

/// Per-layer metrics of a traced `sim-*` run: rows from the timed
/// region's spans, then the warm probes.
fn layer_metrics(
    mix: Mix,
    rounds: &[(&App, Tally)],
    cfg: &GpuConfig,
    rec: &mut Option<Recorder>,
    report: &mut Report,
) {
    let out: &mut Values = &mut report.layer;

    // Rows: median span ÷ instructions, per app; generated kernels pooled.
    let mut total = LaunchStats::default();
    let (mut all_s, mut all_instr) = (0.0, 0u64);
    let mut rows: Vec<(&str, f64, u64)> = Vec::new();
    for (app, tally) in rounds {
        let Some(st) = &tally.stats else { continue };
        let s = median(&tally.sims);
        total.accumulate(st);
        all_s += s;
        all_instr += st.instructions;
        match rows.iter_mut().find(|r| r.0 == app.row) {
            Some(r) => {
                r.1 += s;
                r.2 += st.instructions;
            }
            None => rows.push((app.row, s, st.instructions)),
        }
    }
    for (row, s, instr) in &rows {
        out.insert(
            format!("sim.ns_per_warp_instr.{row}"),
            s * 1e9 / (*instr).max(1) as f64,
        );
    }
    let ns_per_instr = all_s * 1e9 / all_instr.max(1) as f64;
    out.insert("sim.ns_per_warp_instr".into(), ns_per_instr);
    // The rows, weighted by instructions, against the end-to-end rate of
    // this same run (they differ by what a generated kernel's operation
    // does around its launch).
    if report.work_per_s > 0.0 {
        out.insert(
            "sim.rows_vs_e2e_frac".into(),
            ns_per_instr / (1e9 / report.work_per_s) - 1.0,
        );
    }
    probes::sim_counts(&total, out);

    // Observers on ÷ off over the same launches (long simulations left
    // out), and the memory-stall share from the profiled runs.
    let mut profiled_cfg = cfg.clone();
    profiled_cfg.profile = Some(true);
    let mut sanitized_cfg = cfg.clone();
    sanitized_cfg.sanitize = Some(true);
    let (mut prof_x, mut san_x) = (Vec::new(), Vec::new());
    let (mut stalled, mut slots) = (0u64, 0u64);
    for (i, (app, tally)) in rounds.iter().enumerate() {
        if mix.is_long(&app.name) || tally.sims.is_empty() {
            continue;
        }
        let op = PROBE_OP + 1000 + i as u64;
        let plain = median(&tally.sims);
        if let Body::Registry(w, _) = &app.body {
            let (res, s) = timed(
                rec,
                &format!("run_profiled:{}", app.name),
                "sim",
                op,
                || run_profiled(w, cfg),
            );
            if let Ok((_, profiles)) = res {
                prof_x.push(s / plain);
                for p in &profiles {
                    stalled += p.stall_totals()[catt_sim::StallReason::Memory as usize];
                    slots += p.issue_slots();
                }
            }
        } else if let Ok(r) = run_app(rec, app, &profiled_cfg, op) {
            prof_x.push(r.sim_s / plain);
        }
        if let Ok(r) = run_app(rec, app, &sanitized_cfg, op) {
            san_x.push(r.sim_s / plain);
        }
    }
    out.insert("sim.profile_overhead_x".into(), geomean(&prof_x));
    out.insert("sim.sanitize_overhead_x".into(), geomean(&san_x));
    if slots > 0 {
        out.insert("sim.mem_stall_frac".into(), stalled as f64 / slots as f64);
    }

    // 8 SMs, sequential vs parallel: no end-to-end metric runs more than
    // one SM, so this is the only evidence on the parallel-SM path.
    let mut cfg8 = cfg.clone();
    cfg8.num_sms = 8;
    let (mut seq_s, mut par_s, mut instr8) = (0.0, 0.0, 0u64);
    // (A smoke run has none of these apps in its round.)
    for (app, _) in rounds
        .iter()
        .filter(|(a, _)| mix.sm8_apps().contains(&a.name.as_str()))
    {
        for parallel in [false, true] {
            cfg8.sm_parallel = Some(parallel);
            if let Ok(r) = run_app(rec, app, &cfg8, PROBE_OP + 2000) {
                if parallel {
                    par_s += r.sim_s;
                } else {
                    seq_s += r.sim_s;
                    instr8 += r.stats.instructions;
                }
            }
        }
    }
    if instr8 > 0 && par_s > 0.0 {
        out.insert(
            "sim.sm8_seq_ns_per_warp_instr".into(),
            seq_s * 1e9 / instr8 as f64,
        );
        out.insert("sim.sm8_par_speedup_x".into(), seq_s / par_s);
    }

    probes::launch_fixed(rec, cfg, out);
    if let Some(Body::Registry(w, kernels)) = rounds.first().map(|(a, _)| &a.body) {
        probes::engine(rec, &kernels[0], w.launch(0), cfg, out);
    }
}
