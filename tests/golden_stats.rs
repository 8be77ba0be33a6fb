//! Golden simulated statistics: literals recorded on the commit *before*
//! the issue-loop rewrite (age-ordered pick, decoded op table, shift/mask
//! coalescer), so a scheduler or cache change that shifts any count by one
//! fails here. Every other equivalence suite compares the simulator with
//! itself (parallel vs sequential, profiled vs unprofiled, run vs re-run)
//! and would pass such a shift.
//!
//! Runs call the workload runner directly (cold, no simulation cache)
//! except the CATT row, which needs the pipeline and goes through
//! `run_catt`.

use catt_repro::sim::config::DynctaConfig;
use catt_repro::sim::{GpuConfig, LaunchStats};
use catt_repro::workloads::harness::{
    eval_config_32kb_l1d, eval_config_max_l1d, run_catt, run_profiled,
};
use catt_repro::workloads::registry::find;

/// (instructions, cycles, l1_accesses, l1_hits, l2_hits, offchip_requests)
type Row = (u64, u64, u64, u64, u64, u64);

fn row(s: &LaunchStats) -> Row {
    (
        s.instructions,
        s.cycles,
        s.l1_accesses,
        s.l1_hits,
        s.l2_hits,
        s.offchip_requests,
    )
}

fn cold(abbrev: &str, cfg: &GpuConfig) -> Row {
    let w = find(abbrev).expect("registry app");
    row(&(w.run)(&w.kernels(), cfg, true))
}

/// Every registry app the two `sim-*` benchmark mixes and the tuner lean
/// on, at the maximum L1D.
const MAX_L1D: [(&str, Row); 14] = [
    ("GEMM", (579_744, 161_054, 55_584, 54_912, 0, 19_392)),
    ("SYRK", (436_896, 117_896, 41_760, 41_328, 0, 14_544)),
    ("DC", (252_016, 183_863, 24_576, 23_904, 0, 8_864)),
    ("HP", (136_864, 52_586, 13_392, 9_872, 0, 5_008)),
    ("LVMD", (2_267_648, 2_331_231, 2_304, 2_040, 0, 520)),
    (
        "ATAX",
        (1_967_088, 4_669_366, 1_515_520, 1_026_025, 406_710, 571_415),
    ),
    (
        "MVT",
        (1_967_088, 6_289_833, 1_515_520, 813_979, 617_433, 783_461),
    ),
    ("KM", (916_216, 656_838, 622_592, 613_876, 520, 13_068)),
    ("SYR2K", (796_672, 677_835, 622_592, 621_824, 0, 33_536)),
    ("CORR", (121_304, 726_321, 75_536, 69_852, 0, 74_052)),
    ("CFD", (180_624, 165_264, 88_968, 78_984, 0, 13_824)),
    ("GSMV", (49_552, 390_329, 101_376, 52_632, 43_439, 48_760)),
    ("BFS", (881_575, 764_625, 137_548, 104_130, 5_183, 88_567)),
    ("BT", (87_092, 37_576, 29_942, 29_667, 0, 403)),
];

#[test]
fn registry_apps_at_max_l1d() {
    let cfg = eval_config_max_l1d();
    let actual: Vec<(&str, Row)> = MAX_L1D.iter().map(|&(a, _)| (a, cold(a, &cfg))).collect();
    assert_eq!(actual, MAX_L1D);
}

#[test]
fn atax_at_32kb_l1d() {
    assert_eq!(
        cold("ATAX", &eval_config_32kb_l1d()),
        (1_967_088, 11_798_507, 1_515_520, 122_729, 1_310_632, 1_474_711)
    );
}

#[test]
fn atax_under_dyncta() {
    let mut cfg = eval_config_max_l1d();
    cfg.dyncta = Some(DynctaConfig::default());
    assert_eq!(
        cold("ATAX", &cfg),
        (1_967_088, 2_400_787, 1_515_520, 1_403_767, 27_140, 193_673)
    );
}

#[test]
fn atax_catt_transformed() {
    let w = find("ATAX").expect("registry app");
    let (out, app) = run_catt(&w, &eval_config_max_l1d()).expect("CATT runs");
    assert!(app.kernels.iter().any(|k| k.is_transformed()));
    assert_eq!(
        row(&out.stats),
        (1_968_048, 2_867_047, 1_515_520, 1_316_742, 116_300, 280_698)
    );
}

#[test]
fn dm_on_four_parallel_sms() {
    let mut cfg = eval_config_max_l1d();
    cfg.num_sms = 4;
    cfg.sm_parallel = Some(true);
    cfg.sm_threads = Some(2);
    assert_eq!(
        cold("DM", &cfg),
        (13_008_384, 1_168_888, 1_769_472, 1_723_392, 0, 48_384)
    );
}

/// Per-kernel stall slots of a profiled run, in `StallReason` index order
/// (scoreboard, memory, barrier, throttled, idle, fuel). The early-exit
/// scan may land skip-ahead on different cycles than the exhaustive scan
/// did; the slots charged must still come out the same.
fn stall_rows(abbrev: &str) -> Vec<(String, [u64; 6])> {
    let w = find(abbrev).expect("registry app");
    let (_, profiles) = run_profiled(&w, &eval_config_max_l1d()).expect("profiled run");
    profiles
        .iter()
        .map(|p| (p.kernel.clone(), p.stall_totals()))
        .collect()
}

#[test]
fn profiled_stall_breakdown() {
    let expect = |rows: &[(&str, [u64; 6])]| -> Vec<(String, [u64; 6])> {
        rows.iter().map(|&(k, s)| (k.to_string(), s)).collect()
    };
    assert_eq!(
        stall_rows("ATAX"),
        expect(&[
            ("atax_kernel1", [1_040_330, 13_862_106, 0, 0, 165_304, 0]),
            ("atax_kernel2", [742_446, 900_136, 0, 0, 54, 0]),
        ])
    );
    assert_eq!(
        stall_rows("KM"),
        expect(&[
            ("kmeans_membership", [370_013, 908_318, 0, 0, 221_073, 0]),
            ("kmeans_swap", [56_122, 134_778, 0, 0, 20_832, 0]),
        ])
    );
}
