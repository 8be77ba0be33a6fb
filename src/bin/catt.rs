//! `catt` — the command-line front end of the compiler.
//!
//! ```text
//! catt compile kernels.cu --launch atax_kernel1=320x256 [--l1 32] [-o out.cu]
//! catt analyze kernels.cu --launch atax_kernel1=320x256 [--l1 32]
//! catt run     kernels.cu --launch k=4x256 --args f:1024,f:1024 [--l1 32] [--fuel <cycles>] [--sanitize]
//! catt profile <ABBREV|all> [--l1 <KB>] [--trace-out <trace.json>]
//! catt tune    <ABBREV|all> [--l1 <KB>] [--seed <S>] [--iters <N>] [--out <tune.json>]
//! catt fuzz    [--seed <S>] [--iters <N>] [--shrink] [--unchecked] [--corpus <dir>] [--frontend]
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
//!   `all`): an APEX-style increase/decrease-cap climb over the joint
//!   `(N, M, CTA-swizzle)` space steered by observed profile counters,
//!   compared against baseline, static CATT, and BFTT. `--out` writes the
//!   machine-readable summary (the recorded 25-app table is
//!   `results/tune.txt`). Tuner self-checks run on every report; any
//!   violation exits non-zero. Same seed ⇒ identical trajectory;
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
//!   span in bounds.
//!
//! Launch syntax: `<kernel>=<grid>x<block>` (1-D) or
//! `<kernel>=<gx>,<gy>x<bx>,<by>` (2-D). Repeat `--launch` per kernel.
//!
//! This file is where deployment settings enter: `CATT_DIAG_FORMAT`,
//! `CATT_SIMCACHE`, `CATT_ENGINE_WORKERS`, `CATT_ENGINE_PROGRESS` and the
//! `CATT_SERVE_*` tuning are parsed here, once, into the typed
//! configuration the library takes (table in EXPERIMENTS.md).

use catt_repro::core::{Engine, Pipeline, Progress};
use catt_repro::ir::{Dim3, LaunchConfig};
use catt_repro::sim::{Arg, GlobalMem, Gpu, GpuConfig};
use std::process::ExitCode;

/// Render diagnostics per `CATT_DIAG_FORMAT`: `human` (default) produces
/// caret listings against the source; `json` emits one object per line
/// for tooling.
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

/// The evaluation engine the environment asks for: cache mode from
/// `CATT_SIMCACHE` (`off` | `mem` | `<dir>`; unset means `default_dir`,
/// or in-memory without one), worker bound from `CATT_ENGINE_WORKERS`,
/// stderr verbosity from `CATT_ENGINE_PROGRESS` (`off` | `summary` |
/// `full`; default `summary`).
fn engine_from_env(default_dir: Option<&str>) -> Engine {
    let cache = std::env::var("CATT_SIMCACHE")
        .ok()
        .filter(|v| !v.is_empty());
    let mut engine = match cache.as_deref().or(default_dir) {
        Some("off") => Engine::uncached(),
        Some("mem") | None => Engine::new(),
        Some(dir) => Engine::persistent(dir),
    };
    if let Some(n) = env_u64("CATT_ENGINE_WORKERS") {
        engine = engine.with_worker_bound(n as usize);
    }
    engine.with_progress(match std::env::var("CATT_ENGINE_PROGRESS").as_deref() {
        Ok("off") => Progress::Off,
        Ok("full") => Progress::Full,
        _ => Progress::Summary,
    })
}

/// The daemon under `catt serve`: [`ServeConfig`]'s
/// defaults with the `CATT_SERVE_*` overrides applied (EXPERIMENTS.md),
/// over the engine `CATT_SIMCACHE` selects (a directory enables the
/// multi-writer-safe persistent cache).
fn serve_from_env() -> (catt_repro::serve::ServeConfig, Engine) {
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
    (config, engine_from_env(None))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: catt <compile|analyze|run> <file.cu> --launch <kernel>=<grid>x<block> \
         [--launch ...] [--l1 <KB>] [--fuel <cycles>] [--sanitize] [--args <spec,...>] \
         [-o <out.cu>]\n\
         \x20      catt profile <ABBREV|all> [--l1 <KB>] [--trace-out <trace.json>]\n\
         \x20      catt tune <ABBREV|all> [--l1 <KB>] [--seed <S>] [--iters <N>] [--out <tune.json>]\n\
         \x20      catt fuzz [--seed <S>] [--iters <N>] [--shrink] [--unchecked] [--corpus <dir>] [--frontend]\n\
         \x20      catt serve [--stdio | --tcp <addr>]"
    );
    ExitCode::from(2)
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
                let Ok(s) = args[i + 1].parse() else {
                    eprintln!("catt fuzz: bad --seed value `{}`", args[i + 1]);
                    return usage();
                };
                opts.seed = s;
                i += 2;
            }
            "--iters" if i + 1 < args.len() => {
                let Ok(n) = args[i + 1].parse() else {
                    eprintln!("catt fuzz: bad --iters value `{}`", args[i + 1]);
                    return usage();
                };
                opts.iters = n;
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
    use catt_repro::profile::{check_against_stats, chrome, json, model, report};
    use catt_repro::workloads::{harness, registry};

    let target = &args[0];
    let mut l1_kb: Option<u32> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--l1" if i + 1 < args.len() => {
                l1_kb = args[i + 1].parse().ok();
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
    if let Some(kb) = l1_kb {
        config.l1_cap_bytes = Some(kb * 1024);
    }

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
        if let Err(e) = check_against_stats(&profiles, &out.stats) {
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
            if let Err(e) = json::validate(&trace) {
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
    use catt_repro::tune::{tune_workloads, TuneOptions};
    use catt_repro::workloads::{harness, registry};

    let target = &args[0];
    let mut opts = TuneOptions::default();
    let mut l1_kb: Option<u32> = None;
    let mut out_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--l1" if i + 1 < args.len() => {
                l1_kb = args[i + 1].parse().ok();
                i += 2;
            }
            "--seed" if i + 1 < args.len() => {
                let Ok(s) = args[i + 1].parse() else {
                    eprintln!("catt tune: bad --seed value `{}`", args[i + 1]);
                    return usage();
                };
                opts.seed = s;
                i += 2;
            }
            "--iters" if i + 1 < args.len() => {
                let Ok(n) = args[i + 1].parse() else {
                    eprintln!("catt tune: bad --iters value `{}`", args[i + 1]);
                    return usage();
                };
                opts.max_iters = n;
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
    if let Some(kb) = l1_kb {
        config.l1_cap_bytes = Some(kb * 1024);
    }

    let summary = tune_workloads(&workloads, &config, &opts);
    print!("{}", summary.render_table());

    let mut failed = !summary.failures.is_empty();
    for r in &summary.reports {
        if let Err(e) = r.self_check(&opts) {
            eprintln!("catt tune: SELF-CHECK VIOLATION: {e}");
            failed = true;
        }
    }
    if let Some(path) = out_path {
        let json = summary.to_json(&opts);
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

fn parse_launch(spec: &str) -> Option<(String, LaunchConfig)> {
    let (name, dims) = spec.split_once('=')?;
    let (grid, block) = dims.split_once('x')?;
    Some((
        name.to_string(),
        LaunchConfig {
            grid: parse_dims(grid)?,
            block: parse_dims(block)?,
        },
    ))
}

/// `catt serve`: the multi-tenant compile-and-simulate daemon. NDJSON
/// over stdio by default, or a TCP listener with `--tcp <addr>`. Tuning
/// and cache mode come from the environment, see [`serve_from_env`].
fn serve_main(args: &[String]) -> ExitCode {
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
    let (config, engine) = serve_from_env();
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

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `fuzz` and `serve` have defaults for every flag, so they may
    // appear bare.
    match argv.first().map(String::as_str) {
        Some("fuzz") => return fuzz_main(&argv[1..]),
        Some("serve") => return serve_main(&argv[1..]),
        _ => {}
    }
    if argv.len() < 2 {
        return usage();
    }
    let mode = argv[0].as_str();
    if mode == "profile" || mode == "tune" {
        // Registry workloads evaluate on the process-wide engine.
        Engine::init_global(engine_from_env(None));
        return if mode == "profile" {
            profile_main(&argv[1..])
        } else {
            tune_main(&argv[1..])
        };
    }
    let path = &argv[1];
    let mut launches: Vec<(String, LaunchConfig)> = Vec::new();
    let mut l1_kb: Option<u32> = None;
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
                l1_kb = argv[i + 1].parse().ok();
                i += 2;
            }
            "--fuel" if i + 1 < argv.len() => {
                fuel = argv[i + 1].parse().ok();
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
    if let Some(kb) = l1_kb {
        config.l1_cap_bytes = Some(kb * 1024);
    }
    if let Some(n) = fuel {
        config.sim_fuel = Some(n);
    }
    if sanitize {
        config.sanitize = Some(true);
    }
    let pipe = Pipeline::new(config.clone());
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
            // Simulations are memoized in the persistent cache under
            // results/.simcache/ (CATT_SIMCACHE=off forces cold runs); the
            // --args spec is part of the cache scope (input identity).
            let engine = engine_from_env(Some("results/.simcache"));
            for (ki, ck) in app.kernels.iter().enumerate() {
                let exec = |kernel: &catt_repro::ir::Kernel| {
                    let mut mem = GlobalMem::new();
                    let mut args = Vec::new();
                    for (ai, part) in spec.split(',').enumerate() {
                        let Some((ty, val)) = part.split_once(':') else {
                            return Err(format!("bad arg spec `{part}`"));
                        };
                        let arg = match ty {
                            "f" => {
                                let len: u32 =
                                    val.parse().map_err(|_| format!("bad length `{val}`"))?;
                                let data: Vec<f32> = (0..len)
                                    .map(|v| ((v * 7 + ai as u32) % 13) as f32)
                                    .collect();
                                Arg::Buf(mem.alloc_f32(&data))
                            }
                            "i" => {
                                let len: u32 =
                                    val.parse().map_err(|_| format!("bad length `{val}`"))?;
                                let data: Vec<i32> =
                                    (0..len as i32).map(|v| (v * 5 + ai as i32) % 17).collect();
                                Arg::Buf(mem.alloc_i32(&data))
                            }
                            "sf" => Arg::F32(val.parse().map_err(|_| format!("bad f32 `{val}`"))?),
                            "si" => Arg::I32(val.parse().map_err(|_| format!("bad i32 `{val}`"))?),
                            other => return Err(format!("unknown arg type `{other}`")),
                        };
                        args.push(arg);
                    }
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
