//! `catt` — the command-line front end of the compiler.
//!
//! ```text
//! catt compile kernels.cu --launch atax_kernel1=320x256 [--l1 32] [-o out.cu]
//! catt analyze kernels.cu --launch atax_kernel1=320x256 [--l1 32]
//! catt run     kernels.cu --launch k=4x256 --args f:1024,f:1024 [--l1 32] [--fuel <cycles>] [--sanitize]
//! catt profile <ABBREV|all> [--l1 <KB>] [--trace-out <trace.json>]
//! catt tune    <ABBREV|all> [--l1 <KB>] [--out <tune.json>]
//! catt fuzz    [--seed <S>] [--iters <N>] [--shrink] [--unchecked] [--corpus <dir>] [--frontend]
//! catt reproduce <id|all> [--check]
//! ```
//!
//! * `analyze` prints the per-loop footprint analysis and throttling
//!   decisions (a Table 3 row for your kernel);
//! * `compile` additionally emits the throttled CUDA source;
//! * `run` lowers the kernel, allocates float/int buffers per `--args`
//!   (`f:<len>` / `i:<len>`, filled deterministically; `sf:<v>`/`si:<v>`
//!   for scalars), executes baseline and throttled variants on the
//!   simulator, and reports the speedup; `--sanitize` runs them under the
//!   dynamic sanitizer (a masked hazard becomes a `sanitizer: <kind>`
//!   error);
//! * `profile` runs a registry workload (by Table 2 abbreviation, or
//!   `all`) with the profiling sink armed and prints the nvprof-style
//!   stall breakdown, the per-set L1D heat map, and the Eq. 8
//!   predicted-vs-observed table; `--trace-out` additionally writes a
//!   Chrome `trace_event` JSON (open in `chrome://tracing`). Profile
//!   invariants and profile/stats reconciliation are re-checked on every
//!   run; any violation exits non-zero;
//! * `tune` runs the feedback-driven autotuner on a registry workload (or
//!   `all`): the measured argmin of the `(N, M)` throttle ladder, static
//!   CATT and the CTA-swizzle candidates at the chosen point, compared
//!   against baseline, static CATT, and BFTT. `--out` writes the
//!   machine-readable summary (the recorded 25-app table is
//!   `results/tune.txt`). Tuner self-checks run on every report; any
//!   violation exits non-zero;
//! * `fuzz` runs the `catt-verify` differential transform oracle:
//!   deterministic random kernels, every reachable throttle variant,
//!   bit-exact memory + `SimError`-classification comparison under the
//!   simulator sanitizer. `--corpus <dir>` first replays every recorded
//!   counterexample (they must all stay fixed), then persists any new
//!   findings there; `--shrink` minimizes findings first; `--unchecked`
//!   disables the legality analysis to exercise the oracle itself.
//!   Exits non-zero on any violation or failed replay. Same seed ⇒
//!   byte-identical report. `--frontend` runs the mutational
//!   lexer/parser campaign instead (byte flips, truncation, token
//!   splices over the registry workload sources; default 300 iters):
//!   no panics, every rejection carries an error diagnostic, every
//!   span in bounds;
//! * `reproduce` regenerates the paper's tables (`results/<id>.txt`, ids
//!   in `catt_repro::reproduce::ARTIFACTS`) in one process on one
//!   engine; `--check` writes nothing and exits non-zero naming each
//!   drifted table and its first differing line.
//!
//! Launch syntax: `<kernel>=<grid>x<block>` (1-D) or
//! `<kernel>=<gx>,<gy>x<bx>,<by>` (2-D). Repeat `--launch` per kernel.
//!
//! This file is where deployment settings enter: `CATT_DIAG_FORMAT`,
//! `CATT_ENGINE_WORKERS`, `CATT_ENGINE_PROGRESS`, `CATT_FAULT_PLAN` and
//! the `CATT_SERVE_*` tuning are parsed here, once, into the typed
//! configuration the library takes (table in EXPERIMENTS.md).

use catt_repro::core::{Engine, FaultPlan, Pipeline, Progress};
use catt_repro::ir::{Dim3, LaunchConfig};
use catt_repro::serve::{check_arg_bytes, materialize_args, parse_arg_spec};
use catt_repro::sim::{Gpu, GpuConfig};
use std::process::ExitCode;

/// Render diagnostics per `CATT_DIAG_FORMAT`: `human` (default) produces
/// caret listings against the source; `json` emits one JSON array of
/// diagnostic objects, on one line, for tooling.
fn render_diags(diags: &[catt_repro::diag::Diagnostic], src: &str, file: &str) -> String {
    let mut out = match std::env::var("CATT_DIAG_FORMAT").as_deref() {
        Ok("json") => catt_repro::diag::render_json(diags),
        _ => catt_repro::diag::render_human_all(diags, src, file),
    };
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// A positive integer from the environment variable `name`.
fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
}

/// The evaluation engine the environment asks for: worker bound from
/// `CATT_ENGINE_WORKERS`, stderr verbosity from `CATT_ENGINE_PROGRESS`
/// (`off` | `summary` | `full`; default `summary`), armed with `fault`.
fn engine_from_env(fault: &FaultPlan) -> Engine {
    let mut engine = Engine::new();
    if let Some(n) = env_u64("CATT_ENGINE_WORKERS") {
        engine = engine.with_worker_bound(n as usize);
    }
    engine.with_fault_plan(fault.clone()).with_progress(
        match std::env::var("CATT_ENGINE_PROGRESS").as_deref() {
            Ok("off") => Progress::Off,
            Ok("full") => Progress::Full,
            _ => Progress::Summary,
        },
    )
}

/// The daemon under `catt serve`: [`ServeConfig`]'s
/// defaults with the `CATT_SERVE_*` overrides applied (EXPERIMENTS.md),
/// over the engine [`engine_from_env`] builds.
fn serve_from_env(fault: &FaultPlan) -> (catt_repro::serve::ServeConfig, Engine) {
    use catt_repro::serve::ServeConfig;
    let d = ServeConfig::default();
    let get = |name: &str, default: u64| env_u64(name).unwrap_or(default);
    let config = ServeConfig {
        workers: get("CATT_SERVE_WORKERS", d.workers as u64) as usize,
        queue_high_water: get("CATT_SERVE_QUEUE", d.queue_high_water as u64) as usize,
        quota_rate: get("CATT_SERVE_QUOTA_RATE", d.quota_rate),
        quota_burst: get("CATT_SERVE_QUOTA_BURST", d.quota_burst),
        default_deadline_ms: get("CATT_SERVE_DEADLINE_MS", d.default_deadline_ms),
        breaker_threshold: get("CATT_SERVE_BREAKER_THRESHOLD", d.breaker_threshold as u64) as u32,
        breaker_cooldown_ms: get("CATT_SERVE_BREAKER_COOLDOWN_MS", d.breaker_cooldown_ms),
        drain_grace_ms: get("CATT_SERVE_DRAIN_MS", d.drain_grace_ms),
        quantum: get("CATT_SERVE_QUANTUM", d.quantum),
    };
    (config, engine_from_env(fault))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: catt <compile|analyze|run> <file.cu> --launch <kernel>=<grid>x<block> \
         [--launch ...] [--l1 <KB>] [--fuel <cycles>] [--sanitize] [--args <spec,...>] \
         [-o <out.cu>]\n\
         \x20      catt profile <ABBREV|all> [--l1 <KB>] [--trace-out <trace.json>]\n\
         \x20      catt tune <ABBREV|all> [--l1 <KB>] [--out <tune.json>]\n\
         \x20      catt fuzz [--seed <S>] [--iters <N>] [--shrink] [--unchecked] [--corpus <dir>] [--frontend]\n\
         \x20      catt serve [--stdio | --tcp <addr>]\n\
         \x20      catt reproduce <id|all> [--check]"
    );
    ExitCode::from(2)
}

/// The value of the numeric flag `--<flag>` of `catt <cmd>`, times `unit`
/// (1024 turns `--l1`'s KB into bytes). A non-number, or a product that
/// does not fit `T`, is a usage error naming the flag: a malformed value
/// never falls back to a default.
fn numeric<T: TryFrom<u64>>(cmd: &str, flag: &str, value: &str, unit: u64) -> Result<T, ExitCode> {
    value
        .parse::<u64>()
        .ok()
        .and_then(|v| v.checked_mul(unit))
        .and_then(|v| T::try_from(v).ok())
        .ok_or_else(|| {
            eprintln!("catt {cmd}: bad --{flag} value `{value}`");
            usage()
        })
}

/// `--l1 <KB>` of `catt <cmd>` in bytes: [`numeric`], and not 0, since an
/// L1D needs at least one set to simulate (a size under one set the
/// launch refuses with a typed error).
fn parse_l1(cmd: &str, value: &str) -> Result<u32, ExitCode> {
    match numeric(cmd, "l1", value, 1024)? {
        0 => {
            eprintln!("catt {cmd}: bad --l1 value `{value}`: an L1D of 0 KB holds no line");
            Err(usage())
        }
        bytes => Ok(bytes),
    }
}

/// `catt fuzz`: replay the regression corpus, then run a differential
/// fuzzing campaign, persisting any new counterexamples.
fn fuzz_main(args: &[String]) -> ExitCode {
    use catt_repro::verify::{corpus, run_fuzz, FuzzOptions};
    use std::path::Path;

    let mut opts = FuzzOptions {
        seed: 1,
        iters: 100,
        shrink: false,
        legality_checked: true,
    };
    let mut corpus_dir: Option<String> = None;
    let mut frontend = false;
    let mut iters_set = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" if i + 1 < args.len() => {
                match numeric("fuzz", "seed", &args[i + 1], 1) {
                    Ok(s) => opts.seed = s,
                    Err(code) => return code,
                }
                i += 2;
            }
            "--iters" if i + 1 < args.len() => {
                match numeric("fuzz", "iters", &args[i + 1], 1) {
                    Ok(n) => opts.iters = n,
                    Err(code) => return code,
                }
                iters_set = true;
                i += 2;
            }
            "--shrink" => {
                opts.shrink = true;
                i += 1;
            }
            "--unchecked" => {
                opts.legality_checked = false;
                i += 1;
            }
            "--frontend" => {
                frontend = true;
                i += 1;
            }
            "--corpus" if i + 1 < args.len() => {
                corpus_dir = Some(args[i + 1].clone());
                i += 2;
            }
            other => {
                eprintln!("catt fuzz: unknown option `{other}`");
                return usage();
            }
        }
    }

    if frontend {
        // Mutational lexer/parser campaign over the registry workload
        // sources: no panics, every rejection diagnosed, spans in bounds.
        use catt_repro::verify::{run_frontend_fuzz, FrontFuzzOptions};
        use catt_repro::workloads::registry;
        let seeds: Vec<String> = registry::all_workloads()
            .iter()
            .map(|w| w.source.to_string())
            .collect();
        let fopts = FrontFuzzOptions {
            seed: opts.seed,
            iters: if iters_set { opts.iters } else { 300 },
        };
        let report = run_frontend_fuzz(&seeds, &fopts);
        print!("{}", report.render());
        return if report.violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut failed = false;

    // Replay pass: every recorded counterexample must stay fixed.
    if let Some(dir) = &corpus_dir {
        let dir = Path::new(dir);
        if dir.is_dir() {
            match corpus::read_dir_sorted(dir) {
                Ok(entries) => {
                    for (path, entry) in &entries {
                        let name = path
                            .file_name()
                            .map(|n| n.to_string_lossy().into_owned())
                            .unwrap_or_else(|| path.display().to_string());
                        match corpus::replay(entry) {
                            Ok(variants) => {
                                println!("corpus replay: {name} clean ({variants} variants)")
                            }
                            Err(e) => {
                                eprintln!("corpus replay: {name} REGRESSED: {e}");
                                failed = true;
                            }
                        }
                    }
                    println!("corpus replay: {} entr(y/ies) checked", entries.len());
                }
                Err(e) => {
                    eprintln!("catt fuzz: cannot read corpus: {e}");
                    failed = true;
                }
            }
        }
    }

    let report = run_fuzz(&opts);
    print!("{}", report.render());

    if !report.violations.is_empty() {
        failed = true;
        if let Some(dir) = &corpus_dir {
            for v in &report.violations {
                match corpus::write_entry(Path::new(dir), v) {
                    Ok(p) => eprintln!("catt fuzz: new counterexample written to {}", p.display()),
                    Err(e) => eprintln!("catt fuzz: cannot persist counterexample: {e}"),
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `catt profile`: run registry workloads with the in-simulator tracer
/// armed and print the consumer reports.
fn profile_main(args: &[String]) -> ExitCode {
    use catt_repro::profile::{check_against_stats, chrome, model, report};
    use catt_repro::workloads::{harness, registry};

    let target = &args[0];
    let mut l1_bytes: Option<u32> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--l1" if i + 1 < args.len() => {
                match parse_l1("profile", &args[i + 1]) {
                    Ok(b) => l1_bytes = Some(b),
                    Err(code) => return code,
                }
                i += 2;
            }
            "--trace-out" if i + 1 < args.len() => {
                trace_out = Some(args[i + 1].clone());
                i += 2;
            }
            other => {
                eprintln!("catt profile: unknown option `{other}`");
                return usage();
            }
        }
    }
    let workloads = if target.eq_ignore_ascii_case("all") {
        registry::all_workloads()
    } else {
        match registry::find(target) {
            Some(w) => vec![w],
            None => {
                eprintln!(
                    "catt profile: no workload `{target}` (try a Table 2 abbreviation or `all`)"
                );
                return ExitCode::from(2);
            }
        }
    };
    let mut config = harness::eval_config_max_l1d();
    config.l1_cap_bytes = l1_bytes.or(config.l1_cap_bytes);

    // How many launches get a full per-launch report (iterative apps can
    // run dozens; the trace file always contains every launch).
    const MAX_REPORTED: usize = 4;
    let single = workloads.len() == 1;
    let mut failed = false;
    for w in &workloads {
        println!("==== {} ({}) ====", w.abbrev, w.name);
        let (out, profiles) = match harness::run_profiled(w, &config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("catt profile {}: {e}", w.abbrev);
                failed = true;
                continue;
            }
        };
        for p in profiles.iter().take(MAX_REPORTED) {
            print!("{}", report::stall_report(p));
            print!("{}", report::heat_map(p));
        }
        if profiles.len() > MAX_REPORTED {
            println!(
                "  (... {} more launches; all are in the trace file)",
                profiles.len() - MAX_REPORTED
            );
        }
        println!("  Eq. 8 model validation (static prediction vs profiled observation):");
        print!(
            "{}",
            model::render(&model::model_rows(w, &config, &profiles))
        );

        // Self-check: accounting invariants and profile/stats agreement.
        if let Err(e) = check_against_stats(&profiles, &out) {
            eprintln!("catt profile {}: INVARIANT VIOLATION: {e}", w.abbrev);
            failed = true;
        }

        if let Some(path) = &trace_out {
            let file = if single {
                path.clone()
            } else {
                format!("{path}.{}", w.abbrev)
            };
            let trace = chrome::chrome_trace(&profiles);
            if let Err(e) = catt_repro::diag::json::parse(&trace) {
                eprintln!(
                    "catt profile {}: emitted trace is not valid JSON: {e}",
                    w.abbrev
                );
                failed = true;
            }
            if let Err(e) = std::fs::write(&file, &trace) {
                eprintln!("catt profile {}: cannot write {file}: {e}", w.abbrev);
                failed = true;
            } else {
                println!("  wrote {file}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `catt tune`: the feedback-driven `(N, M, swizzle)` autotuner.
fn tune_main(args: &[String]) -> ExitCode {
    use catt_repro::tune::tune_workloads;
    use catt_repro::workloads::{harness, registry};

    let target = &args[0];
    let mut l1_bytes: Option<u32> = None;
    let mut out_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--l1" if i + 1 < args.len() => {
                match parse_l1("tune", &args[i + 1]) {
                    Ok(b) => l1_bytes = Some(b),
                    Err(code) => return code,
                }
                i += 2;
            }
            "--out" if i + 1 < args.len() => {
                out_path = Some(args[i + 1].clone());
                i += 2;
            }
            other => {
                eprintln!("catt tune: unknown option `{other}`");
                return usage();
            }
        }
    }
    let workloads = if target.eq_ignore_ascii_case("all") {
        registry::all_workloads()
    } else {
        let mut found = Vec::new();
        for abbrev in target.split(',') {
            match registry::find(abbrev) {
                Some(w) => found.push(w),
                None => {
                    eprintln!(
                        "catt tune: no workload `{abbrev}` (try a Table 2 abbreviation, \
                         a comma-separated list, or `all`)"
                    );
                    return ExitCode::from(2);
                }
            }
        }
        found
    };
    let mut config = harness::eval_config_max_l1d();
    config.l1_cap_bytes = l1_bytes.or(config.l1_cap_bytes);

    let summary = tune_workloads(&workloads, &config);
    print!("{}", summary.render_table());

    let mut failed = !summary.failures.is_empty();
    for e in summary.violations() {
        eprintln!("catt tune: SELF-CHECK VIOLATION: {e}");
        failed = true;
    }
    if let Some(path) = out_path {
        let json = summary.to_json();
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("catt tune: cannot write {path}: {e}");
            failed = true;
        } else {
            println!("wrote {path}");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse_dims(s: &str) -> Option<Dim3> {
    let parts: Vec<&str> = s.split(',').collect();
    match parts.len() {
        1 => Some(Dim3::x(parts[0].parse().ok()?)),
        2 => Some(Dim3::xy(parts[0].parse().ok()?, parts[1].parse().ok()?)),
        _ => None,
    }
}

/// A `--launch` spec, when some device can run it: every dimension at
/// least 1 and at most 1 024 threads per block (the bounds `catt serve`
/// puts on a request's `grid` and `block`).
fn parse_launch(spec: &str) -> Option<(String, LaunchConfig)> {
    let (name, dims) = spec.split_once('=')?;
    let (grid, block) = dims.split_once('x')?;
    let launch = LaunchConfig {
        grid: parse_dims(grid)?,
        block: parse_dims(block)?,
    };
    let dims = [launch.grid, launch.block];
    let runnable =
        dims.iter().all(|d| d.x >= 1 && d.y >= 1 && d.z >= 1) && launch.block.count() <= 1024;
    runnable.then(|| (name.to_string(), launch))
}

/// `catt serve`: the multi-tenant compile-and-simulate daemon. NDJSON
/// over stdio by default, or a TCP listener with `--tcp <addr>`. Tuning
/// comes from the environment, see [`serve_from_env`].
fn serve_main(args: &[String], fault: &FaultPlan) -> ExitCode {
    use catt_repro::serve::front::{serve_stdio, serve_tcp};
    use catt_repro::serve::Server;
    use std::sync::Arc;

    let mut tcp_addr: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stdio" => i += 1,
            "--tcp" if i + 1 < args.len() => {
                tcp_addr = Some(args[i + 1].clone());
                i += 2;
            }
            other => {
                eprintln!("catt serve: unknown option `{other}`");
                return usage();
            }
        }
    }
    let (config, engine) = serve_from_env(fault);
    let server = Arc::new(Server::new(config, engine));
    match tcp_addr {
        Some(addr) => {
            if let Err(e) = serve_tcp(server, &addr) {
                eprintln!("catt serve: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => serve_stdio(server),
    }
    ExitCode::SUCCESS
}

/// `catt reproduce`: regenerate `results/<id>.txt` for one artifact or
/// `all`, or with `--check` compare instead and name every drifted table.
fn reproduce_main(args: &[String]) -> ExitCode {
    use catt_repro::reproduce::{self, ARTIFACTS};
    use std::path::Path;

    let (mut target, mut check) = (None, false);
    for a in args {
        match a.as_str() {
            "--check" => check = true,
            id if target.is_none() && !id.starts_with('-') => target = Some(id),
            other => {
                eprintln!("catt reproduce: unexpected argument `{other}`");
                return usage();
            }
        }
    }
    let ids: Vec<&str> = match target {
        Some("all") => ARTIFACTS.iter().map(|(id, _)| *id).collect(),
        Some(id) if reproduce::find(id).is_some() => vec![id],
        _ => {
            let known: Vec<&str> = ARTIFACTS.iter().map(|(id, _)| *id).collect();
            eprintln!("catt reproduce: name one of {} or `all`", known.join(", "));
            return ExitCode::from(2);
        }
    };
    let dir = Path::new("results");
    let mut failed = false;
    for id in ids {
        let file = dir.join(format!("{id}.txt"));
        let outcome = if check {
            reproduce::check(id, dir).map(|fresh| {
                if id == "analysis_overhead" {
                    // Its host-time column is not compared; show it.
                    eprint!("{fresh}");
                }
                "ok     "
            })
        } else {
            let render = reproduce::find(id).expect("id checked above");
            (render().map_err(|e| e.to_string()))
                .and_then(|text| std::fs::write(&file, text).map_err(|e| e.to_string()))
                .map(|()| "wrote  ")
        };
        match outcome {
            Ok(done) => println!("{done} {}", file.display()),
            Err(e) => {
                println!("FAILED  {}: {e}", file.display());
                failed = true;
            }
        }
    }
    Engine::global().print_summary();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The chaos harness's plan (crates/core/src/fault.rs), for the engine
    // and the pipeline.
    let fault = FaultPlan::parse(&std::env::var("CATT_FAULT_PLAN").unwrap_or_default());
    // `fuzz` and `serve` have defaults for every flag, so they may
    // appear bare.
    match argv.first().map(String::as_str) {
        Some("fuzz") => return fuzz_main(&argv[1..]),
        Some("serve") => return serve_main(&argv[1..], &fault),
        _ => {}
    }
    if argv.len() < 2 {
        return usage();
    }
    let mode = argv[0].as_str();
    if matches!(mode, "profile" | "tune" | "reproduce") {
        // Registry workloads evaluate on the process-wide engine.
        Engine::init_global(engine_from_env(&fault));
        return match mode {
            "profile" => profile_main(&argv[1..]),
            "tune" => tune_main(&argv[1..]),
            _ => reproduce_main(&argv[1..]),
        };
    }
    let path = &argv[1];
    let mut launches: Vec<(String, LaunchConfig)> = Vec::new();
    let mut l1_bytes: Option<u32> = None;
    let mut fuel: Option<u64> = None;
    let mut sanitize = false;
    let mut out_path: Option<String> = None;
    let mut arg_spec: Option<String> = None;
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--launch" if i + 1 < argv.len() => {
                let Some(l) = parse_launch(&argv[i + 1]) else {
                    eprintln!("catt: bad --launch spec `{}`", argv[i + 1]);
                    return usage();
                };
                launches.push(l);
                i += 2;
            }
            "--l1" if i + 1 < argv.len() => {
                match parse_l1(mode, &argv[i + 1]) {
                    Ok(b) => l1_bytes = Some(b),
                    Err(code) => return code,
                }
                i += 2;
            }
            "--fuel" if i + 1 < argv.len() => {
                match numeric(mode, "fuel", &argv[i + 1], 1) {
                    Ok(c) => fuel = Some(c),
                    Err(code) => return code,
                }
                i += 2;
            }
            "--sanitize" => {
                sanitize = true;
                i += 1;
            }
            "--args" if i + 1 < argv.len() => {
                arg_spec = Some(argv[i + 1].clone());
                i += 2;
            }
            "-o" if i + 1 < argv.len() => {
                out_path = Some(argv[i + 1].clone());
                i += 2;
            }
            other => {
                eprintln!("catt: unknown option `{other}`");
                return usage();
            }
        }
    }
    if launches.is_empty() {
        eprintln!("catt: at least one --launch is required");
        return usage();
    }

    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("catt: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut config = GpuConfig::titan_v_1sm();
    config.l1_cap_bytes = l1_bytes.or(config.l1_cap_bytes);
    config.sim_fuel = fuel.or(config.sim_fuel);
    if sanitize {
        config.sanitize = Some(true);
    }
    let pipe = Pipeline::new(config.clone()).with_fault_plan(fault.clone());
    let refs: Vec<(&str, LaunchConfig)> = launches.iter().map(|(n, l)| (n.as_str(), *l)).collect();
    let app = match pipe.compile_source(&src, &refs) {
        Ok(a) => a,
        Err(e) => {
            eprint!("{}", render_diags(&e.diagnostics, &src, path));
            eprintln!("catt: {e}");
            return ExitCode::FAILURE;
        }
    };

    for ck in &app.kernels {
        let a = &ck.analysis;
        println!(
            "kernel `{}`: baseline TLP {:?}, L1D {} KB, smem carve-out {} KB, {} regs/thread",
            a.kernel_name,
            a.baseline_tlp(),
            a.plan.l1d_bytes / 1024,
            a.plan.smem_carveout_bytes / 1024,
            a.regs_per_thread,
        );
        for l in &a.loops {
            println!(
                "  loop {:>2}: {:>5} lines/round x TLP, contended={} resolved={} -> N={} M={} TLP {:?}",
                l.loop_id + 1,
                l.size_req_lines,
                l.contended,
                l.decision.resolved,
                l.decision.n,
                l.decision.m,
                l.tlp(a.warps_per_tb, a.plan.resident_tbs)
            );
        }
        if !ck.warnings.is_empty() {
            eprint!("{}", render_diags(&ck.warnings, &src, path));
        }
        if let Some(fb) = &ck.fallback_diagnostic {
            eprint!("{}", render_diags(std::slice::from_ref(fb), &src, path));
            eprintln!(
                "kernel `{}`: transform fell back to the original source ({})",
                a.kernel_name,
                fb.code.as_str()
            );
        }
    }

    match mode {
        "analyze" => ExitCode::SUCCESS,
        "compile" => {
            let emitted: String = app
                .kernels
                .iter()
                .map(|k| k.emitted_source.clone())
                .collect::<Vec<_>>()
                .join("\n");
            match out_path {
                Some(p) => {
                    if let Err(e) = std::fs::write(&p, emitted) {
                        eprintln!("catt: cannot write {p}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("wrote {p}");
                }
                None => println!("\n{emitted}"),
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let Some(spec) = arg_spec else {
                eprintln!("catt run: --args is required (e.g. --args f:1024,f:64,si:64)");
                return ExitCode::from(2);
            };
            let parsed = parse_arg_spec(&spec).and_then(|s| check_arg_bytes(&s).map(|()| s));
            let parsed = match parsed {
                Ok(parsed) => parsed,
                Err(e) => {
                    eprintln!("catt run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Baseline and throttled runs are memoized in memory; the
            // --args spec is part of the cache scope (input identity).
            let engine = engine_from_env(&fault);
            for (ki, ck) in app.kernels.iter().enumerate() {
                let exec = |kernel: &catt_repro::ir::Kernel| {
                    let (mut mem, args) = materialize_args(&parsed);
                    let mut gpu = Gpu::new(config.clone());
                    gpu.launch(kernel, ck.launch, &args, &mut mem)
                        .map_err(|e| e.to_string())
                };
                let exec = |kernel: &catt_repro::ir::Kernel| {
                    engine
                        .sim_app(
                            &format!("catt-run:{spec}"),
                            std::slice::from_ref(kernel),
                            &[ck.launch],
                            &config,
                            || exec(kernel).unwrap_or_else(|e| panic!("{e}")),
                        )
                        .map_err(|e| e.message)
                };
                let base = match exec(&ck.original) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("catt run `{}`: {e}", ck.original.name);
                        return ExitCode::FAILURE;
                    }
                };
                let catt = exec(&ck.transformed).expect("transformed variant");
                println!(
                    "kernel {} `{}`: baseline {} cycles ({:.1}% L1D hits) | CATT {} cycles ({:.1}% hits) | speedup {:.2}x",
                    ki + 1,
                    ck.original.name,
                    base.cycles,
                    100.0 * base.l1_hit_rate(),
                    catt.cycles,
                    100.0 * catt.l1_hit_rate(),
                    base.cycles as f64 / catt.cycles as f64,
                );
            }
            engine.print_summary();
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
