//! Golden stall breakdowns of profiled runs: issue slots per
//! `StallReason`, recorded before stall classification was memoized per
//! scheduler (DESIGN.md §3e). The memo must charge every slot to the
//! reason a fresh partition scan gives; this file pins the totals on the
//! paths that move the memo's inputs most: barriers (HM), a uniformly
//! throttled program whose TB limit binds (ATAX at `n=4 m=4`), DYNCTA
//! pausing and resuming blocks (GSMV), and generated kernels (barriers,
//! shared memory, early exits, 1–4 blocks) with and without a DYNCTA that
//! moves its limit every few windows.
//!
//! It runs in the dev profile, so every memo hit is also checked against
//! a fresh classification by the simulator's own `debug_assert`.

use catt_repro::core::bftt::resident_tbs;
use catt_repro::core::pipeline::apply_uniform;
use catt_repro::ir::Kernel;
use catt_repro::sim::config::DynctaConfig;
use catt_repro::sim::profile::{set_capture, take_captured};
use catt_repro::sim::{Arg, GlobalMem, Gpu, GpuConfig};
use catt_repro::verify::generate::{generate_case, GenOptions};
use catt_repro::workloads::harness::eval_config_max_l1d;
use catt_repro::workloads::registry::{find, Workload};

/// `(kernel, [scoreboard, memory, barrier, throttled, idle, fuel])`.
type Rows = Vec<(String, [u64; 6])>;

/// Profile `kernels` of `w` on `cfg` directly (no simulation cache).
fn stall_rows(w: &Workload, kernels: &[Kernel], cfg: &GpuConfig) -> Rows {
    let mut cfg = cfg.clone();
    cfg.profile = Some(true);
    set_capture(true);
    (w.run)(kernels, &cfg, true);
    let profiles = take_captured();
    set_capture(false);
    profiles
        .iter()
        .map(|p| (p.kernel.clone(), p.stall_totals()))
        .collect()
}

fn expect(rows: &[(&str, [u64; 6])]) -> Rows {
    rows.iter().map(|&(k, s)| (k.to_string(), s)).collect()
}

/// A DYNCTA that pauses or resumes a block nearly every 64-cycle window.
fn twitchy(mut cfg: GpuConfig) -> GpuConfig {
    cfg.dyncta = Some(DynctaConfig {
        window: 64,
        t_high: 0.5,
        t_low: 0.45,
    });
    cfg
}

#[test]
fn barrier_app() {
    let w = find("HM").expect("registry app");
    assert_eq!(
        stall_rows(&w, &w.kernels(), &eval_config_max_l1d()),
        expect(&[("huffman_encode", [6_044, 51_404, 136, 0, 300, 0])])
    );
}

#[test]
fn uniformly_throttled_program() {
    let w = find("ATAX").expect("registry app");
    let cfg = eval_config_max_l1d();
    let kernels = w.kernels();
    let launch = w.block_launch();
    let resident = resident_tbs(&kernels, launch, &cfg);
    let throttled: Vec<Kernel> = kernels
        .iter()
        .map(|k| {
            apply_uniform(
                k,
                4,
                4,
                launch.warps_per_block(),
                resident,
                cfg.smem_carveout_bytes,
            )
        })
        .collect();
    assert_eq!(
        stall_rows(&w, &throttled, &cfg),
        expect(&[
            ("atax_kernel1", [1_349_368, 20_884_330, 23_555_206, 0, 0, 0]),
            ("atax_kernel2", [1_352_606, 16_808_642, 19_144_584, 0, 0, 0]),
        ])
    );
}

#[test]
fn dyncta_pauses_and_resumes_blocks() {
    let w = find("GSMV").expect("registry app");
    let mut cfg = eval_config_max_l1d();
    cfg.dyncta = Some(DynctaConfig::default());
    assert_eq!(
        stall_rows(&w, &w.kernels(), &cfg),
        expect(&[("gesummv_kernel", [57_637, 515_092, 0, 802, 12_301, 0])])
    );
    assert_eq!(
        stall_rows(&w, &w.kernels(), &twitchy(eval_config_max_l1d())),
        expect(&[("gesummv_kernel", [53_813, 419_022, 0, 1_414, 37_843, 0])])
    );
}

/// Stall totals summed over the first 500 generated kernels.
fn generated_totals(cfg: &GpuConfig) -> [u64; 6] {
    let mut cfg = cfg.clone();
    cfg.profile = Some(true);
    let mut totals = [0u64; 6];
    for seed in 0..500 {
        let case = generate_case(seed, &GenOptions { dirty_p: 0.0 });
        let mut mem = GlobalMem::new();
        let args: Vec<Arg> = case
            .buffers
            .iter()
            .map(|&(_, len)| Arg::Buf(mem.alloc_f32(&vec![1.5; len as usize])))
            .collect();
        set_capture(true);
        Gpu::new(cfg.clone())
            .launch(&case.kernel, case.launch, &args, &mut mem)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for p in take_captured() {
            for (t, v) in totals.iter_mut().zip(p.stall_totals()) {
                *t += v;
            }
        }
        set_capture(false);
    }
    totals
}

#[test]
fn generated_kernels() {
    assert_eq!(
        generated_totals(&eval_config_max_l1d()),
        [583_491, 1_994_147, 3_857, 0, 795_524, 0]
    );
    assert_eq!(
        generated_totals(&twitchy(eval_config_max_l1d())),
        [583_495, 1_994_072, 3_857, 13_323, 828_652, 0]
    );
}
