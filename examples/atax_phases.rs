//! The paper's headline scenario (§5.1): an application with *phases* of
//! different cache contention — ATAX's divergent kernel 1 vs its coalesced
//! kernel 2 — where CATT's per-loop decisions beat BFTT's single fixed
//! setting, and both beat the unthrottled baseline.
//!
//! Run with `cargo run --release --example atax_phases`.

use catt_repro::workloads::{self, registry};

fn main() {
    let w = registry::find("ATAX").expect("ATAX in registry");
    for (label, config) in [
        (
            "Max. L1D (128 KB)",
            workloads::harness::eval_config_max_l1d(),
        ),
        ("32 KB L1D", workloads::harness::eval_config_32kb_l1d()),
    ] {
        println!("=== {label} ===");
        let base = workloads::run_baseline(&w, &config).expect("baseline runs");
        let (catt, app) = workloads::run_catt(&w, &config).expect("CATT compiles and runs");
        let sweep = workloads::run_bftt(&w, &config).expect("BFTT sweep succeeds");

        for ck in &app.kernels {
            let a = &ck.analysis;
            let tlps: Vec<(u32, u32)> = a
                .loops
                .iter()
                .map(|l| l.tlp(a.warps_per_tb, a.plan.resident_tbs))
                .collect();
            println!(
                "  {}: baseline TLP {:?}, CATT per-loop TLPs {:?}",
                a.kernel_name,
                a.baseline_tlp(),
                tlps
            );
        }
        let best = sweep.best_candidate();
        println!(
            "  BFTT fixed setting: ({}, {}) out of {} candidates",
            best.warps,
            best.tbs,
            sweep.outcomes.len()
        );
        println!(
            "  cycles: baseline {:>9}  BFTT {:>9}  CATT {:>9}",
            base.cycles, best.stats.cycles, catt.cycles
        );
        println!(
            "  speedup over baseline: BFTT {:.2}x, CATT {:.2}x\n",
            base.cycles as f64 / best.stats.cycles as f64,
            base.cycles as f64 / catt.cycles as f64,
        );
    }
}
