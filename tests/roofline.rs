//! A roofline lower bound on every registry run and on a fixed range of
//! generated kernels (ROADMAP item 4): no run may take fewer cycles than
//! its warp-instructions need issue slots,
//! `cycles ≥ ⌈instructions / (schedulers_per_sm × num_sms)⌉`. A timing
//! change that drops or double-issues work breaks it; a comparison of the
//! simulator with its own past would not notice.
//!
//! The off-chip bound, `cycles ≥ offchip_requests × offchip_port`, is not
//! asserted: a launch ends when its last warp retires, while write-through
//! stores may still hold the off-chip port, and KM at 32 KB already ends
//! under it (DESIGN.md §6, "Roofline bounds").

use catt_repro::sim::{Arg, GlobalMem, Gpu, GpuConfig, Init, LaunchStats};
use catt_repro::verify::fill_f32;
use catt_repro::verify::generate::{generate_case, GenOptions};
use catt_repro::workloads::harness::{eval_config_32kb_l1d, eval_config_max_l1d};
use catt_repro::workloads::registry::all_workloads;

/// Generated kernels checked per configuration (seeds `0..GENERATED`).
const GENERATED: u64 = 1000;

/// `None` if `s` respects the issue bound under `cfg`, else the shortfall.
fn under_issue_bound(cfg: &GpuConfig, s: &LaunchStats) -> Option<String> {
    let slots = u64::from(cfg.schedulers_per_sm) * u64::from(cfg.num_sms);
    let bound = s.instructions.div_ceil(slots);
    (s.cycles < bound).then(|| format!("{} cycles < {bound}", s.cycles))
}

fn issue_bound_holds_on_every_app(cfg: &GpuConfig) {
    let mut short = Vec::new();
    for w in all_workloads() {
        let s = (w.run)(&w.kernels(), cfg, false);
        assert!(s.instructions > 0, "{}: no work", w.abbrev);
        if let Some(why) = under_issue_bound(cfg, &s) {
            short.push(format!("{}: {why}", w.abbrev));
        }
    }
    assert!(short.is_empty(), "under the issue bound: {short:?}");
}

/// Generated kernels bring shapes the registry lacks: barriers, shared
/// memory, nested and early-exit loops, grids of 1 to 4 blocks.
fn issue_bound_holds_on_generated_kernels(cfg: &GpuConfig) {
    let mut short = Vec::new();
    for seed in 0..GENERATED {
        let case = generate_case(seed, &GenOptions { dirty_p: 0.0 });
        let (mut mem, bufs) = GlobalMem::from_inits(
            case.buffers
                .iter()
                .map(|(_, len)| Init::F32((0..*len).map(fill_f32).collect())),
        );
        let args: Vec<Arg> = bufs.into_iter().map(Arg::Buf).collect();
        let s = Gpu::new(cfg.clone())
            .launch(&case.kernel, case.launch, &args, &mut mem)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(s.instructions > 0, "seed {seed}: no work");
        if let Some(why) = under_issue_bound(cfg, &s) {
            short.push(format!("seed {seed}: {why}"));
        }
    }
    assert!(short.is_empty(), "under the issue bound: {short:?}");
}

#[test]
fn issue_bound_at_max_l1d() {
    issue_bound_holds_on_every_app(&eval_config_max_l1d());
}

#[test]
fn issue_bound_at_32kb_l1d() {
    issue_bound_holds_on_every_app(&eval_config_32kb_l1d());
}

#[test]
fn issue_bound_on_generated_kernels_at_one_sm() {
    issue_bound_holds_on_generated_kernels(&eval_config_max_l1d());
}

/// Four SMs: the bound's `num_sms` factor, and round-robin block
/// distribution on fuzz shapes.
#[test]
fn issue_bound_on_generated_kernels_at_four_sms() {
    let mut cfg = eval_config_max_l1d();
    cfg.num_sms = 4;
    issue_bound_holds_on_generated_kernels(&cfg);
}
