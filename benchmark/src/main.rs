//! `catt-benchmark`: the one benchmark of the compile → simulate → consume
//! stack. See `README.md` beside this package for the workloads, the
//! metrics and what each is expected to move.
//!
//! ```text
//! catt-benchmark run --workload W --seed S --seconds N --trace 0|1 [--smoke] [--out-dir D]
//! catt-benchmark compare A.ndjson B.ndjson
//! catt-benchmark describe
//! ```
//!
//! `run` prints every metric by name, then — as the last line of standard
//! output — one JSON object with exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`. It exits non-zero when an operation failed.

mod compare;
mod gen;
mod heap;
mod host;
mod json;
mod metrics;
mod span;
mod stats;
mod workloads;

use metrics::{Def, Values, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Args, Report};

#[global_allocator]
static ALLOCATOR: heap::Counted = heap::Counted;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u32 = 12;

fn usage() -> ExitCode {
    eprintln!(
        "usage: catt-benchmark run --workload <name> [--seed <n>] [--seconds <n>] \
         [--trace 0|1] [--smoke] [--out-dir <dir>]\n       \
         catt-benchmark compare <A.ndjson> <B.ndjson>\n       \
         catt-benchmark describe\nworkloads: {}",
        metrics::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    host::apply_env_policy();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", metrics::benchmark_json(RUN_SECONDS));
            ExitCode::SUCCESS
        }
        Some("compare") if argv.len() == 3 => {
            compare::main(Path::new(&argv[1]), Path::new(&argv[2]))
        }
        Some("run") => run_main(&argv[1..]),
        _ => usage(),
    }
}

fn run_main(argv: &[String]) -> ExitCode {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut out_dir: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let ok = match flag.as_str() {
            "--workload" => value().map(|v| args.workload = v.to_string()).is_some(),
            "--seed" => value()
                .and_then(|v| v.parse().ok())
                .map(|v| args.seed = v)
                .is_some(),
            "--seconds" => value()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|v| v.is_finite() && *v > 0.0 && *v <= 120.0)
                .map(|v| args.seconds = v)
                .is_some(),
            "--trace" => match value() {
                Some("0") => true,
                Some("1") => {
                    args.trace = true;
                    true
                }
                _ => false,
            },
            "--smoke" => {
                args.smoke = true;
                true
            }
            "--out-dir" => value().map(|v| out_dir = Some(PathBuf::from(v))).is_some(),
            _ => false,
        };
        if !ok {
            eprintln!("catt-benchmark: bad argument `{flag}`");
            return usage();
        }
    }
    let mut report = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("catt-benchmark: {e}");
            return usage();
        }
    };

    let (defs, values): (&[Def], Values) = if args.trace {
        // For the record only: this run against the untraced run of the
        // same workload and seed, when its record is in the output
        // directory. The difference is mostly the host's drift.
        let untraced = out_dir
            .as_deref()
            .and_then(|d| compare::load(&record_path(d, &args, false)).ok())
            .and_then(|rs| {
                rs.first()
                    .and_then(|r| r.metrics.get("work_per_s").copied())
            });
        if let Some(base) = untraced.filter(|b| *b > 0.0) {
            report.notes.push(format!(
                "work_per_s traced {:.4} vs untraced {:.4}: {:+.1} % (host drift between the two runs included)",
                report.work_per_s,
                base,
                (report.work_per_s / base - 1.0) * 100.0
            ));
        }
        host_metrics(&mut report);
        (PER_LAYER, std::mem::take(&mut report.layer))
    } else {
        (&END_TO_END, end_to_end(&report))
    };

    // A metric that came out 0 or non-finite where one was due is a broken
    // measurement, not a result.
    let mut correct = report.failed == 0 && report.attempted > 0;
    if !args.trace {
        for d in defs {
            if !values
                .get(d.name)
                .is_some_and(|v| v.is_finite() && *v > 0.0)
            {
                report
                    .failures
                    .push(format!("metric {} has no value", d.name));
                correct = false;
            }
        }
    }

    print_human(&args, &report, defs, &values);
    let metrics_json = metrics::metrics_json(defs, &values);
    if let Some(dir) = &out_dir {
        if let Err(e) = write_outputs(dir, &args, &report, correct, &metrics_json) {
            eprintln!("catt-benchmark: cannot write under {}: {e}", dir.display());
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics_json}}}",
        report.attempted, report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics of a run.
fn end_to_end(report: &Report) -> Values {
    let lat = stats::sorted(report.lat_us.clone());
    let tail = stats::tail_percentile(lat.len(), report.tail_pct);
    let mut v = Values::new();
    v.insert("setup_s".into(), stats::median(&report.setup_s));
    v.insert("work_per_s".into(), report.work_per_s);
    v.insert("lat_p50_us".into(), stats::median(&lat));
    v.insert("lat_tail_us".into(), stats::percentile(&lat, tail));
    v.insert("peak_heap_mb".into(), report.peak_heap_mb);
    v
}

/// `host.*` of a traced run.
///
/// The tracing overhead is the recorder's own cost: spans recorded in the
/// timed region × the calibrated cost of recording one, over the timed
/// wall of the threads that recorded them. Spans are taken from outside, so
/// that is all tracing adds. Holding a traced run against an untraced one
/// would measure this host's drift between two runs (10–20 % here), which
/// is orders of magnitude larger; that difference is printed beside this
/// figure for the record when the untraced run's record is at hand.
fn host_metrics(report: &mut Report) {
    report.layer.insert(
        "host.cpu_util".into(),
        host::cpu_util(report.cpu_s, report.wall_s),
    );
    report
        .layer
        .insert("host.peak_rss_mb".into(), host::peak_rss_mb());
    let Some(rec) = &report.recorder else { return };
    let timed_spans = rec
        .spans()
        .iter()
        .filter(|s| s.op < workloads::probes::PROBE_OP)
        .count();
    let threads: std::collections::BTreeSet<u32> = rec.spans().iter().map(|s| s.tid).collect();
    let mut probe = Some(span::Recorder::new(std::time::Instant::now(), 0));
    let t0 = std::time::Instant::now();
    for _ in 0..10_000 {
        span::timed(&mut probe, "calibrate", "bench", 0, || ());
    }
    let per_span_s = t0.elapsed().as_secs_f64() / 10_000.0;
    report.layer.insert(
        "host.trace_overhead_frac".into(),
        timed_spans as f64 * per_span_s / (report.wall_s * threads.len().max(1) as f64).max(1e-9),
    );
}

fn print_human(args: &Args, report: &Report, defs: &[Def], values: &Values) {
    println!(
        "{} seed={} seconds={} trace={} nproc={}{}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host::nproc(),
        if args.smoke { " (smoke)" } else { "" }
    );
    let n = report.lat_us.len();
    let tail = stats::tail_percentile(n, report.tail_pct);
    for d in defs {
        let Some(v) = values.get(d.name) else {
            continue;
        };
        let note = match d.name {
            "setup_s" => format!("median of {} set-up(s)", report.setup_s.len()),
            "work_per_s" => format!(
                "{}; {:.0} done in a {:.2} s timed region",
                report.work_unit, report.work, report.wall_s
            ),
            "lat_p50_us" => format!("{}; n={n}", report.lat_op),
            "lat_tail_us" => format!("p{tail} of n={n} ({} beyond)", stats::beyond(n, tail)),
            "peak_heap_mb" => format!("{}; VmHWM {:.1} MB", d.what, host::peak_rss_mb()),
            _ => d.what.to_string(),
        };
        println!("  {:<34} {:>16.4} {:<6} {note}", d.name, v, d.unit);
    }
    println!(
        "  operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    if let Some(rec) = &report.recorder {
        // Where the recorded time went: each span's duration minus what its
        // child spans cover, summed per layer.
        let by_layer: Vec<String> = rec
            .self_ns_by_layer()
            .iter()
            .map(|(layer, ns)| format!("{layer} {:.3} s", *ns as f64 / 1e9))
            .collect();
        println!(
            "  self time by layer, {} spans: {}",
            rec.spans().len(),
            by_layer.join(", ")
        );
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
    for f in &report.failures {
        println!("  FAILED: {f}");
    }
}

fn record_path(dir: &Path, args: &Args, traced: bool) -> PathBuf {
    dir.join(format!(
        "{}-seed{}{}.json",
        args.workload,
        args.seed,
        if traced { "-traced" } else { "" }
    ))
}

/// Write the run's record (one JSON line: the result line plus what it was
/// measured from) and, for a traced run, the Chrome trace.
fn write_outputs(
    dir: &Path,
    args: &Args,
    report: &Report,
    correct: bool,
    metrics_json: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"nproc\":{},\
         \"correct\":{correct},\"attempted\":{},\"failed\":{},\"wall_s\":{},\"cpu_s\":{},\
         \"work\":{},\"work_unit\":\"{}\",\"lat_op\":\"{}\",\"lat_n\":{},\"metrics\":{metrics_json}}}\n",
        args.workload,
        args.seed,
        json::num(args.seconds),
        args.trace as u8,
        args.smoke,
        host::nproc(),
        report.attempted,
        report.failed,
        json::num(report.wall_s),
        json::num(report.cpu_s),
        json::num(report.work),
        report.work_unit,
        report.lat_op,
        report.lat_us.len()
    );
    std::fs::write(record_path(dir, args, args.trace), record)?;
    if let Some(rec) = &report.recorder {
        rec.write_chrome(&dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed)))?;
    }
    Ok(())
}
