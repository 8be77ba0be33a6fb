//! A roofline lower bound on every registry run (ROADMAP item 4): no
//! run may take fewer cycles than its warp-instructions need issue slots,
//! `cycles ≥ ⌈instructions / (schedulers_per_sm × num_sms)⌉`. A timing
//! change that drops or double-issues work breaks it; a comparison of the
//! simulator with its own past would not notice.
//!
//! The off-chip bound, `cycles ≥ offchip_requests × offchip_port`, is not
//! asserted: a launch ends when its last warp retires, while write-through
//! stores may still hold the off-chip port, and KM at 32 KB already ends
//! under it (DESIGN.md §6, "Roofline bounds").

use catt_repro::sim::GpuConfig;
use catt_repro::workloads::harness::{eval_config_32kb_l1d, eval_config_max_l1d};
use catt_repro::workloads::registry::all_workloads;

fn issue_bound_holds_on_every_app(cfg: &GpuConfig) {
    let slots = u64::from(cfg.schedulers_per_sm) * u64::from(cfg.num_sms);
    let mut short = Vec::new();
    for w in all_workloads() {
        let s = (w.run)(&w.kernels(), cfg, false);
        assert!(s.instructions > 0, "{}: no work", w.abbrev);
        let bound = s.instructions.div_ceil(slots);
        if s.cycles < bound {
            short.push(format!("{}: {} cycles < {bound}", w.abbrev, s.cycles));
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
