//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is `catt-benchmark describe` verbatim (a unit test holds
//! the two together), and every run prints exactly these names.

use crate::json::{escape, num};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: share of the parent's median by which the metric may
    /// worsen before it is a regression. Unused for per-layer metrics.
    pub bound: f64,
    /// A count (or a ratio of simulated counts) that must repeat bit for
    /// bit at one seed; `compare` requires it identical.
    pub exact: bool,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        exact: false,
        what,
    }
}

const fn timing(name: &'static str, unit: &'static str, what: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: false,
        what,
    }
}

const fn gauge(name: &'static str, unit: &'static str, better: Better, what: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
        what,
    }
}

const fn count(name: &'static str, better: Better, what: &'static str) -> Def {
    Def {
        name,
        unit: "count",
        better,
        bound: 0.0,
        exact: true,
        what,
    }
}

/// A workload and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "sim-compute",
        why: "cold uncached runs of the 9 ALU-bound registry apps + 4 seeded gen-alu kernels: issue, scoreboard and warp pick do the work, caches almost none",
    },
    WorkloadDef {
        name: "sim-memory",
        why: "cold uncached runs of the 8 load-heavy registry apps + 8 seeded gen-stride kernels: coalescing, L1/L2 lookup and MSHR merge dominate",
    },
    WorkloadDef {
        name: "tune-sweep",
        why: "tune_workload on 9 apps through the process-wide engine as `catt tune` does: ~23 simulations per app, half of them the BFTT ladder; fixed work, not cut to --seconds",
    },
    WorkloadDef {
        name: "serve-cold",
        why: "closed loop, 2 clients, every request a distinct seeded kernel: parse + compile + lower + simulate, caches never hit, pass memo overflows",
    },
    WorkloadDef {
        name: "serve-hot",
        why: "closed loop, 2 clients, Zipf(1) over 64 pre-warmed kernels: sim does nothing; JSON, frontend, memoized compile, digest, cache lookup and queue hand-off do everything",
    },
    WorkloadDef {
        name: "fuzz-oracle",
        why: "run_fuzz one generated kernel at a time: tens of thousands of tiny sanitized launches, so per-launch fixed cost and the sanitizer dominate, not steady-state issue",
    },
];

/// End-to-end metrics, reported by every workload with tracing off. The
/// unit of work and the operation whose latency is taken are per workload
/// (README.md, "End-to-end metrics").
///
/// A bound is three times the widest spread (interquartile range over the
/// median, ten seeds) the metric showed on any workload on the two-core
/// sandbox this was written on, capped at the 0.25 the contract allows. The
/// three timings are at the cap because of `serve-hot` (two threads handing
/// requests to each other: 5–10 %) and `fuzz-oracle` (which kernels a seed
/// draws: 8–10 %); the single-threaded workloads repeat within 1–4 %.
pub const END_TO_END: [Def; 5] = [
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        "median set-up time incl. the warm-up pass",
    ),
    e2e(
        "work_per_s",
        "1/s",
        Better::Higher,
        0.25,
        "units of work per host second of the timed region",
    ),
    e2e(
        "lat_p50_us",
        "us",
        Better::Lower,
        0.25,
        "median latency of one operation",
    ),
    e2e(
        "lat_tail_us",
        "us",
        Better::Lower,
        0.25,
        "tail latency of one operation at the workload's designed percentile",
    ),
    e2e(
        "peak_heap_mb",
        "MB",
        Better::Lower,
        0.1,
        "peak live heap bytes the program requested",
    ),
];

/// Registry apps of `sim-compute`: every app with at most 0.15 L1 accesses
/// per warp-instruction that issues at least 100 k warp-instructions.
pub const COMPUTE_APPS: [&str; 9] = ["PF", "DM", "LVMD", "SYRK", "GEMM", "2MM", "3MM", "DC", "HP"];

/// Registry apps of `sim-memory`: every app with at least 0.45 L1 accesses
/// per warp-instruction.
pub const MEMORY_APPS: [&str; 8] = ["ATAX", "BICG", "MVT", "GSMV", "SYR2K", "KM", "CORR", "CFD"];

/// Apps `tune-sweep` tunes, and the two its warm-up tunes.
pub const TUNE_APPS: [&str; 9] = [
    "ATAX", "MVT", "SYR2K", "KM", "BFS", "GSMV", "CORR", "CFD", "GEMM",
];
pub const TUNE_WARMUP_APPS: [&str; 2] = ["GRAM", "DC"];

/// Per-layer metrics, reported by every workload's traced run (0 where a
/// layer is not on that workload's path).
pub const PER_LAYER: &[Def] = &[
    // frontend / ir / core: staged replay over the workload's kernels.
    timing(
        "frontend.parse_us_p50",
        "us",
        "parse_module over the workload's sources",
    ),
    timing(
        "frontend.parse_ns_per_byte",
        "ns/B",
        "parse time per source byte",
    ),
    timing(
        "ir.print_us_p50",
        "us",
        "kernel_to_string (emit + the analyze memo key)",
    ),
    timing(
        "core.compile_first_us_p50",
        "us",
        "compile_kernel on a never-seen kernel",
    ),
    timing(
        "core.compile_repeat_us_p50",
        "us",
        "compile_kernel on an already-compiled kernel",
    ),
    timing(
        "core.analyze_us_p50",
        "us",
        "analyze_kernel directly (what a memo hit saves)",
    ),
    count(
        "core.throttled_loops",
        Better::Higher,
        "loops CATT decided to throttle",
    ),
    count(
        "core.transformed_kernels",
        Better::Higher,
        "kernels the transform changed",
    ),
    count(
        "core.fallbacks",
        Better::Lower,
        "kernels that fell back to their original code",
    ),
    // sim
    timing("sim.lower_us_p50", "us", "bytecode lowering of one kernel"),
    timing(
        "sim.launch_fixed_us_p50",
        "us",
        "a 1-warp no-op launch: per-launch fixed cost",
    ),
    timing(
        "sim.ns_per_warp_instr",
        "ns",
        "host ns of the sim spans / simulated warp-instructions",
    ),
    timing("sim.ns_per_warp_instr.PF", "ns", "per app"),
    timing("sim.ns_per_warp_instr.DM", "ns", "per app"),
    timing("sim.ns_per_warp_instr.LVMD", "ns", "per app"),
    timing("sim.ns_per_warp_instr.SYRK", "ns", "per app"),
    timing("sim.ns_per_warp_instr.GEMM", "ns", "per app"),
    timing("sim.ns_per_warp_instr.2MM", "ns", "per app"),
    timing("sim.ns_per_warp_instr.3MM", "ns", "per app"),
    timing("sim.ns_per_warp_instr.DC", "ns", "per app"),
    timing("sim.ns_per_warp_instr.HP", "ns", "per app"),
    timing(
        "sim.ns_per_warp_instr.gen-alu",
        "ns",
        "the generated ALU kernels",
    ),
    timing("sim.ns_per_warp_instr.ATAX", "ns", "per app"),
    timing("sim.ns_per_warp_instr.BICG", "ns", "per app"),
    timing("sim.ns_per_warp_instr.MVT", "ns", "per app"),
    timing("sim.ns_per_warp_instr.GSMV", "ns", "per app"),
    timing("sim.ns_per_warp_instr.SYR2K", "ns", "per app"),
    timing("sim.ns_per_warp_instr.KM", "ns", "per app"),
    timing("sim.ns_per_warp_instr.CORR", "ns", "per app"),
    timing("sim.ns_per_warp_instr.CFD", "ns", "per app"),
    timing(
        "sim.ns_per_warp_instr.gen-stride",
        "ns",
        "the generated strided kernels",
    ),
    timing(
        "sim.rows_vs_e2e_frac",
        "frac",
        "per-app rows, weighted by instructions, over 1e9/work_per_s, minus 1",
    ),
    gauge(
        "sim.l1_accesses_per_warp_instr",
        "1",
        Better::Lower,
        "describes the load",
    ),
    gauge(
        "sim.ipc",
        "1",
        Better::Higher,
        "simulated warp-instructions per simulated cycle",
    ),
    gauge(
        "sim.mem_stall_frac",
        "frac",
        Better::Lower,
        "memory-stalled issue slots (run_profiled)",
    ),
    gauge(
        "sim.profile_overhead_x",
        "x",
        Better::Lower,
        "same launches with profile on / off, geomean",
    ),
    gauge(
        "sim.sanitize_overhead_x",
        "x",
        Better::Lower,
        "same launches with sanitize on / off, geomean",
    ),
    timing(
        "sim.sm8_seq_ns_per_warp_instr",
        "ns",
        "num_sms = 8, sm_parallel off",
    ),
    gauge(
        "sim.sm8_par_speedup_x",
        "x",
        Better::Higher,
        "num_sms = 8, sm_parallel on vs off",
    ),
    count(
        "sim.warp_instr",
        Better::Lower,
        "simulated warp-instructions of one round",
    ),
    count("sim.cycles", Better::Lower, "simulated cycles of one round"),
    count(
        "sim.l1_accesses",
        Better::Lower,
        "L1D load accesses of one round",
    ),
    count("sim.l1_hits", Better::Higher, "L1D load hits of one round"),
    count("sim.l2_hits", Better::Higher, "L2 load hits of one round"),
    count(
        "sim.offchip_requests",
        Better::Lower,
        "off-chip requests of one round",
    ),
    // engine
    timing(
        "engine.hit_us_p50",
        "us",
        "sim_app on a cached key (lower + digest + lookup)",
    ),
    timing(
        "engine.miss_overhead_us_p50",
        "us",
        "sim_app on a new key with a no-op closure",
    ),
    count(
        "engine.cache_hits",
        Better::Higher,
        "cache_counters() delta over the timed region",
    ),
    count(
        "engine.cache_misses",
        Better::Lower,
        "simulations actually run",
    ),
    count(
        "engine.coalesced",
        Better::Higher,
        "requests that joined an in-flight simulation",
    ),
    gauge(
        "engine.hit_ratio",
        "frac",
        Better::Higher,
        "hits / (hits + misses)",
    ),
    gauge(
        "engine.pool_speedup_x",
        "x",
        Better::Higher,
        "run_jobs of 16 x CFD, 2 workers vs 1",
    ),
    // bftt
    timing(
        "bftt.sweep_s",
        "s",
        "sweep_on with a fresh engine over the tuned apps",
    ),
    gauge(
        "bftt.share_of_wall",
        "frac",
        Better::Lower,
        "bftt.sweep_s over the tune wall time",
    ),
    count("bftt.candidates", Better::Lower, "ladder points simulated"),
    count(
        "bftt.faulted",
        Better::Lower,
        "ladder points whose simulation faulted",
    ),
    // tune
    count(
        "tune.evaluations",
        Better::Lower,
        "candidates measured, summed over apps",
    ),
    count(
        "tune.iterations",
        Better::Lower,
        "climb iterations, summed over apps",
    ),
    count(
        "tune.apps_at_iter_cap",
        Better::Lower,
        "apps that ran into max_iters",
    ),
    timing("tune.s_per_app_p50", "s", "median tune_workload wall"),
    gauge(
        "tune.span_sum_over_wall",
        "frac",
        Better::Higher,
        "per-app spans summed over the timed wall",
    ),
    gauge(
        "tune.profiled_share",
        "frac",
        Better::Lower,
        "run_profiled probes over the tune wall",
    ),
    gauge(
        "tune.catt_share",
        "frac",
        Better::Lower,
        "uncached CATT compile+run probes over the tune wall",
    ),
    Def {
        name: "tune.catt_geomean_x",
        unit: "x",
        better: Better::Higher,
        bound: 0.0,
        exact: true,
        what: "geomean baseline / static-CATT simulated cycles",
    },
    Def {
        name: "tune.tuned_geomean_x",
        unit: "x",
        better: Better::Higher,
        bound: 0.0,
        exact: true,
        what: "geomean baseline / tuned simulated cycles",
    },
    Def {
        name: "tune.bftt_geomean_x",
        unit: "x",
        better: Better::Higher,
        bound: 0.0,
        exact: true,
        what: "geomean baseline / best-fixed simulated cycles",
    },
    // serve
    timing(
        "serve.parse_request_us_p50",
        "us",
        "parse_request on a request line",
    ),
    timing("serve.render_us_p50", "us", "Response::render of a result"),
    timing(
        "serve.handoff_us_p50",
        "us",
        "request p50 minus the staged replay's summed p50: time waited, not worked",
    ),
    timing(
        "serve.staged_sum_us_p50",
        "us",
        "summed p50 of the staged replay",
    ),
    count(
        "serve.src_computed",
        Better::Lower,
        "replies simulated for this request",
    ),
    count(
        "serve.src_cache",
        Better::Higher,
        "replies served from the simcache",
    ),
    count(
        "serve.src_coalesced",
        Better::Higher,
        "replies that joined an in-flight simulation",
    ),
    count(
        "serve.non_ok",
        Better::Lower,
        "replies that were not a result",
    ),
    timing(
        "serve.queue_ms_p99",
        "ms",
        "queue_ms reported by the daemon",
    ),
    // verify
    count("verify.cases", Better::Higher, "kernels generated"),
    count(
        "verify.variants",
        Better::Higher,
        "transform variants executed and compared",
    ),
    count(
        "verify.dirty_skipped",
        Better::Lower,
        "originals the sanitizer screen flagged",
    ),
    count(
        "verify.violations",
        Better::Lower,
        "oracle disagreements (must be 0)",
    ),
    timing("verify.us_per_variant", "us", "timed wall / variants"),
    // host
    gauge(
        "host.cpu_util",
        "frac",
        Better::Higher,
        "(utime + stime) / (wall x nproc) over the timed region",
    ),
    gauge(
        "host.peak_rss_mb",
        "MB",
        Better::Lower,
        "VmHWM at exit of the traced run (spans included)",
    ),
    gauge(
        "host.trace_overhead_frac",
        "frac",
        Better::Lower,
        "the recorder's own cost (spans x cost of one) over the timed wall",
    ),
];

/// Serve replies and tuner counts depend on how many operations fit into
/// the run, so they are exact only for the fixed-work workloads.
pub fn exact_on(def: &Def, workload: &str) -> bool {
    def.exact
        && match def.name.split('.').next() {
            Some("sim" | "core" | "tune" | "bftt") => true,
            Some("engine") => workload == "tune-sweep",
            _ => false,
        }
}

/// A metric value by name.
pub type Values = BTreeMap<String, f64>;

/// The `metrics` object of a result line: every metric of `defs`, 0 where
/// the run produced no value.
pub fn metrics_json(defs: &[Def], values: &Values) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                num(values.get(d.name).copied().unwrap_or(0.0)),
                d.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// `BENCHMARK.json`, from the tables above.
pub fn benchmark_json(run_seconds: u32) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                escape(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.word(),
                num(d.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(name: &str) -> Option<&'static Def> {
        END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
    }

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        s.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_schema_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        assert!(names.iter().all(|n| name_ok(n)), "bad name");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {}",
                d.name,
                d.unit
            );
        }
        for d in &END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn every_sim_app_has_its_row() {
        for app in COMPUTE_APPS.iter().chain(&MEMORY_APPS) {
            assert!(
                find(&format!("sim.ns_per_warp_instr.{app}")).is_some(),
                "{app}"
            );
        }
    }

    /// The committed file is `describe` verbatim.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        let parsed = crate::json::parse(committed).expect("BENCHMARK.json parses");
        let seconds = parsed
            .get("run_seconds")
            .and_then(|v| v.as_f64())
            .expect("run_seconds");
        assert_eq!(committed, benchmark_json(seconds as u32));
        assert!(committed.len() <= 64 * 1024);
        assert_eq!(
            parsed.as_obj().unwrap().keys().collect::<Vec<_>>(),
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    #[test]
    fn metrics_json_carries_every_definition() {
        let mut values = Values::new();
        values.insert("setup_s".into(), 1.25);
        let text = metrics_json(&END_TO_END, &values);
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(parsed.as_obj().unwrap().len(), END_TO_END.len());
        let setup = parsed.get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            parsed
                .get("work_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
