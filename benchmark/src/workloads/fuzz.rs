//! `fuzz-oracle`: the differential transform oracle, one generated kernel
//! per `run_fuzz` call, until the time is up.

use super::probes;
use super::{recorder, repeat_setup, setup_rounds, start_timed, stop_timed, Args, Report};
use crate::span::timed;
use catt_prng::Rng;
use catt_verify::{run_fuzz, FuzzOptions};
use catt_workloads::harness::eval_config_max_l1d;

fn options(seed: u64, iters: u32) -> FuzzOptions {
    FuzzOptions {
        seed,
        iters,
        shrink: false,
        legality_checked: true,
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report {
        work_unit: "oracle variants checked",
        lat_op: "one generated kernel, all its variants",
        // Kernel costs are heavy-tailed (the slowest 1 % take a fifth of the
        // time), and which kernels a seed draws moves p99 by a quarter and
        // p90 by a tenth between seeds; p75 holds within 7 %.
        tail_pct: 75.0,
        ..Report::default()
    };
    let mut rec = recorder(args);

    // Set-up: a warm-up campaign on the neighbouring seed.
    let warm_iters = if args.smoke { 50 } else { 200 };
    repeat_setup(setup_rounds(args), &mut report, |_| {
        run_fuzz(&options(args.seed.wrapping_add(1), warm_iters));
    });

    // Timed region: `run_fuzz(seed, iters = 1)` per case, the case seeds
    // drawn from the workload seed — the campaign `run_fuzz(S, iters = n)`
    // would run, with a clock read between cases.
    let mut case_seeds = Rng::seed(args.seed);
    let (mut cases, mut variants, mut dirty) = (0u64, 0u64, 0u64);
    let start = start_timed();
    while start.0.elapsed().as_secs_f64() < args.seconds {
        let opts = options(case_seeds.next_u64(), 1);
        let (r, secs) = timed(&mut rec, "run_fuzz", "verify", cases + 1, || {
            run_fuzz(&opts)
        });
        report.lat_us.push(secs * 1e6);
        cases += r.cases as u64;
        variants += r.variants_checked as u64;
        dirty += r.skipped_dirty as u64;
        for v in &r.violations {
            report.fail(format!(
                "case seed {:#x}: {} ({} vs {})",
                v.case_seed,
                v.kind.label(),
                v.baseline,
                v.variant
            ));
        }
    }
    stop_timed(&mut report, start);
    report.attempted = variants;
    report.work = variants as f64;
    report.work_per_s = variants as f64 / report.wall_s;

    if args.trace {
        let out = &mut report.layer;
        out.insert("verify.cases".into(), cases as f64);
        out.insert("verify.variants".into(), variants as f64);
        out.insert("verify.dirty_skipped".into(), dirty as f64);
        out.insert("verify.violations".into(), report.failed as f64);
        out.insert(
            "verify.us_per_variant".into(),
            report.wall_s * 1e6 / variants.max(1) as f64,
        );
        // The oracle's kernels are generated inside `run_fuzz`; what can be
        // replayed from outside is the cost every tiny launch pays.
        let cfg = eval_config_max_l1d();
        let (plain, sanitized) = probes::launch_fixed(&mut rec, &cfg, out);
        if plain > 0.0 {
            out.insert("sim.sanitize_overhead_x".into(), sanitized / plain);
        }
    }
    report.recorder = rec;
    report
}
