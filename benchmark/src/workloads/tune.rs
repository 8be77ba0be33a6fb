//! `tune-sweep`: the researcher's loop. `tune_workload` with default
//! options on nine apps, through the process-wide in-memory engine,
//! exactly as `catt tune` runs it.
//!
//! The work is fixed: the nine apps are tuned once whatever `--seconds`
//! says, because the engine's cache is process-wide (a second pass would
//! be all hits) and tuning part of the list is a different workload. The
//! seed picks the order the apps are tuned in. It does not seed the tuner:
//! the tuner's restart point changes how many candidates it simulates
//! (11 to 14 per app), which would make the wall time a property of the
//! seed and not of the code.

use super::probes::{self, Item, PROBE_OP};
use super::sim::panic_text;
use super::{recorder, repeat_setup, start_timed, stop_timed, Args, Report};
use crate::metrics::{TUNE_APPS, TUNE_WARMUP_APPS};
use crate::span::timed;
use crate::stats::{geomean, median};
use catt_core::{bftt::sweep_on, Engine, Pipeline};
use catt_prng::Rng;
use catt_tune::{tune_workload, TuneOptions, TuneReport};
use catt_workloads::harness::{eval_config_max_l1d, run_catt, run_profiled};
use catt_workloads::{registry, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn find(abbrev: &str) -> Workload {
    registry::find(abbrev).unwrap_or_else(|| panic!("no registry app {abbrev}"))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report {
        work_unit: "apps tuned",
        lat_op: "one tune_workload call",
        // Nine samples: no percentile has ten beyond it, the median stands in.
        tail_pct: 50.0,
        ..Report::default()
    };
    let cfg = eval_config_max_l1d();
    let opts = TuneOptions::default();
    let mut rec = recorder(args);

    // Set-up, once (a repeat would be served from the process-wide cache):
    // find the apps, fix their order, and tune the two warm-up apps.
    let apps = repeat_setup(1, &mut report, |_| {
        let names: &[&str] = if args.smoke {
            &["GSMV", "CORR", "CFD"]
        } else {
            &TUNE_APPS
        };
        let mut apps: Vec<Workload> = names.iter().map(|a| find(a)).collect();
        let mut rng = Rng::seed(args.seed);
        for i in (1..apps.len()).rev() {
            apps.swap(i, rng.range_usize(0, i + 1));
        }
        for warm in TUNE_WARMUP_APPS {
            let _ = tune_workload(&find(warm), &cfg, &opts);
        }
        apps
    });

    // Cold probes (traced run): first compiles, before `run_catt` inside
    // the tuner compiles the same kernels.
    if args.trace {
        let items: Vec<Item> = apps.iter().flat_map(probes::registry_items).collect();
        probes::staged_compile(&mut rec, &items, &cfg, &mut report.layer);
    }

    // Timed region.
    let engine = Engine::global();
    let before = engine.cache_counters();
    let mut reports: Vec<TuneReport> = Vec::new();
    let start = start_timed();
    for (i, w) in apps.iter().enumerate() {
        report.attempted += 1;
        let (res, secs) = timed(
            &mut rec,
            &format!("tune_workload:{}", w.abbrev),
            "tune",
            i as u64 + 1,
            || catch_unwind(AssertUnwindSafe(|| tune_workload(w, &cfg, &opts))),
        );
        report.lat_us.push(secs * 1e6);
        match res {
            Ok(Ok(r)) => {
                if let Err(e) = r.self_check(&opts) {
                    report.fail(format!("self-check: {e}"));
                } else if r.tuned.cycles > r.baseline_cycles {
                    report.fail(format!("{}: tuned slower than baseline", w.abbrev));
                }
                reports.push(r);
            }
            Ok(Err(e)) => report.fail(format!("{}: {e}", w.abbrev)),
            Err(p) => report.fail(format!("{}: {}", w.abbrev, panic_text(&p))),
        }
    }
    stop_timed(&mut report, start);
    let after = engine.cache_counters();
    report.work = apps.len() as f64;
    report.work_per_s = report.work / report.wall_s;

    if args.trace {
        // Reports in a fixed order, so sums of floats repeat bit for bit
        // whatever order the seed tuned the apps in.
        reports.sort_by_key(|r| r.abbrev);
        let out = &mut report.layer;
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        out.insert("engine.cache_hits".into(), hits as f64);
        out.insert("engine.cache_misses".into(), misses as f64);
        out.insert(
            "engine.coalesced".into(),
            (after.coalesced - before.coalesced) as f64,
        );
        out.insert(
            "engine.hit_ratio".into(),
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let sum = |f: fn(&TuneReport) -> u32| reports.iter().map(|r| f(r) as f64).sum::<f64>();
        out.insert("tune.evaluations".into(), sum(|r| r.evaluations));
        out.insert("tune.iterations".into(), sum(|r| r.iterations));
        out.insert(
            "tune.apps_at_iter_cap".into(),
            reports
                .iter()
                .filter(|r| r.iterations >= opts.max_iters)
                .count() as f64,
        );
        let per_app_s: Vec<f64> = report.lat_us.iter().map(|us| us / 1e6).collect();
        out.insert("tune.s_per_app_p50".into(), median(&per_app_s));
        out.insert(
            "tune.span_sum_over_wall".into(),
            per_app_s.iter().sum::<f64>() / report.wall_s,
        );
        let geo = |f: fn(&TuneReport) -> f64| geomean(&reports.iter().map(f).collect::<Vec<_>>());
        out.insert("tune.catt_geomean_x".into(), geo(TuneReport::catt_speedup));
        out.insert(
            "tune.tuned_geomean_x".into(),
            geo(TuneReport::tuned_speedup),
        );
        out.insert("tune.bftt_geomean_x".into(), geo(TuneReport::bftt_speedup));
        out.insert(
            "sim.mem_stall_frac".into(),
            reports
                .iter()
                .map(|r| r.observed.mem_stall_frac)
                .sum::<f64>()
                / reports.len().max(1) as f64,
        );

        // Warm probes: what the tuner spends per app, replayed stage by
        // stage without its cache. Each is reported as a share of the wall.
        let fresh = Engine::with_workers(2);
        let pipe = Pipeline::new(cfg.clone());
        let (mut profiled_s, mut catt_s, mut sweep_s) = (0.0, 0.0, 0.0);
        let (mut candidates, mut faulted) = (0u64, 0u64);
        let mut sorted: Vec<&Workload> = apps.iter().collect();
        sorted.sort_by_key(|w| w.abbrev);
        for (i, w) in sorted.into_iter().enumerate() {
            let op = PROBE_OP + 1000 + i as u64;
            profiled_s += timed(&mut rec, "run_profiled", "sim", op, || {
                run_profiled(w, &cfg)
            })
            .1;
            // `run_catt` is a cache hit after the tuner ran it; what it cost
            // is its two halves run directly: compile, then simulate.
            let _ = run_catt(w, &cfg);
            let kernels = w.kernels();
            catt_s += timed(&mut rec, "catt:compile+run", "core", op, || {
                let transformed: Vec<_> = kernels
                    .iter()
                    .enumerate()
                    .filter_map(|(k, kernel)| pipe.compile_kernel(kernel, w.launch(k)).ok())
                    .map(|ck| ck.transformed)
                    .collect();
                catch_unwind(AssertUnwindSafe(|| (w.run)(&transformed, &cfg, true))).is_ok()
            })
            .1;
            let (sweep, secs) = timed(&mut rec, "sweep_on", "bftt", op, || {
                sweep_on(
                    &fresh,
                    &format!("{}#probe", w.abbrev),
                    &kernels,
                    w.launch(0),
                    &cfg,
                    |ks, c| (w.run)(ks, c, false),
                )
            });
            sweep_s += secs;
            if let Ok(result) = sweep {
                candidates += result.outcomes.len() as u64;
                faulted += result.faulted().len() as u64;
            }
        }
        out.insert("tune.profiled_share".into(), profiled_s / report.wall_s);
        out.insert("tune.catt_share".into(), catt_s / report.wall_s);
        out.insert("bftt.sweep_s".into(), sweep_s);
        out.insert("bftt.share_of_wall".into(), sweep_s / report.wall_s);
        out.insert("bftt.candidates".into(), candidates as f64);
        out.insert("bftt.faulted".into(), faulted as f64);

        // The worker pool: 16 independent CFD runs on 1 and on 2 workers.
        let cfd = find("CFD");
        let kernels = cfd.kernels();
        let jobs = [(); 16];
        let mut pool_s = [0.0; 2];
        for (slot, workers) in [1usize, 2].into_iter().enumerate() {
            let pool = Engine::with_workers(workers);
            pool_s[slot] = timed(&mut rec, "run_jobs:16xCFD", "engine", PROBE_OP, || {
                pool.run_jobs("bench-pool", &jobs, |_, _| {
                    Ok((cfd.run)(&kernels, &cfg, false))
                })
            })
            .1;
        }
        out.insert("engine.pool_speedup_x".into(), pool_s[0] / pool_s[1]);

        probes::launch_fixed(&mut rec, &cfg, out);
        probes::engine(&mut rec, &kernels[0], cfd.launch(0), &cfg, out);
    }
    report.recorder = rec;
    report
}
