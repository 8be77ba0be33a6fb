//! Shared-L2 model invariants.
//!
//! Three contracts pin the L2 (DESIGN.md §3h):
//!
//! * **disabled = pre-L2, bit for bit** — `l2_kb = 0` must reproduce the
//!   exact stats and memory image the simulator produced before the L2
//!   existed (golden numbers captured at that commit);
//! * **reconciliation** — stores bypass the L2 (write-through,
//!   no-allocate at both levels) and every L1D load miss probes it, so
//!   per launch `l2_accesses == l1_accesses − l1_hits` exactly, and the
//!   L2 never changes functional results (memory digests are identical
//!   with the L2 on, off, or resized — only cycles move);
//! * **capacity ordering** — a slice that covers the working set serves
//!   every warm miss (hit rate → 1 after cold fills), a tiny slice
//!   serves fewer, and cycles improve monotonically with hit rate.

use catt_frontend::parse_kernel;
use catt_ir::{Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, LaunchStats};

const MV_N: usize = 256;

fn mv_kernel() -> Kernel {
    let src = format!(
        "#define N {MV_N}
         __global__ void mv(float *A, float *B, float *tmp) {{
             int i = blockIdx.x * blockDim.x + threadIdx.x;
             if (i < N) {{
                 for (int j = 0; j < N; j++) {{
                     tmp[i] += A[i * N + j] * B[j];
                 }}
             }}
         }}"
    );
    parse_kernel(&src).unwrap()
}

/// Run the contended matrix-vector kernel on the 1-SM vehicle with a
/// 32 KB L1D cap and the given L2 capacity.
fn run_mv(l2_kb: u32) -> (LaunchStats, u64) {
    run_mv_on(1, LaunchConfig::d1(2, 128), l2_kb)
}

/// [`run_mv`] on `num_sms` Titan V SMs with the grid `launch`.
fn run_mv_on(num_sms: u32, launch: LaunchConfig, l2_kb: u32) -> (LaunchStats, u64) {
    let kernel = mv_kernel();
    let mut mem = GlobalMem::new();
    let a = mem.alloc_f32(
        &(0..MV_N * MV_N)
            .map(|v| (v % 13) as f32)
            .collect::<Vec<_>>(),
    );
    let b = mem.alloc_f32(&(0..MV_N).map(|v| (v % 7) as f32).collect::<Vec<_>>());
    let tmp = mem.alloc_zeroed(MV_N as u32);
    let mut config = GpuConfig::titan_v();
    config.num_sms = num_sms;
    config.l1_cap_bytes = Some(32 * 1024);
    config.l2_kb = Some(l2_kb);
    let stats = Gpu::new(config)
        .launch(
            &kernel,
            launch,
            &[Arg::Buf(a), Arg::Buf(b), Arg::Buf(tmp)],
            &mut mem,
        )
        .unwrap();
    (stats, mem.content_digest())
}

fn run_stream(l2_kb: u32) -> (LaunchStats, u64) {
    let src = "
        __global__ void stream(float *a, float *b, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { b[i] = a[i] * 2.0f + 1.0f; }
        }";
    let kernel = parse_kernel(src).unwrap();
    let mut mem = GlobalMem::new();
    let a = mem.alloc_f32(&(0..4096).map(|v| (v % 11) as f32).collect::<Vec<_>>());
    let b = mem.alloc_zeroed(4096);
    let mut config = GpuConfig::small();
    config.l2_kb = Some(l2_kb);
    let stats = Gpu::new(config)
        .launch(
            &kernel,
            LaunchConfig::d1(16, 256),
            &[Arg::Buf(a), Arg::Buf(b), Arg::I32(4096)],
            &mut mem,
        )
        .unwrap();
    (stats, mem.content_digest())
}

/// `l2_kb = 0` reproduces the pre-L2 simulator bit for bit. The golden
/// numbers were captured on the commit immediately before the L2 landed
/// (same kernels, inputs, and configs); any drift here means the
/// disabled path is not actually the old model.
#[test]
fn disabled_l2_matches_pre_l2_goldens() {
    let (mv, mv_mem) = run_mv(0);
    assert_eq!(mv.cycles, 178_002, "mv cycles");
    assert_eq!(mv.instructions, 49_264, "mv instructions");
    assert_eq!(mv.l1_accesses, 69_632, "mv l1_accesses");
    assert_eq!(mv.l1_hits, 53_501, "mv l1_hits");
    assert_eq!(mv.offchip_requests, 18_179, "mv offchip_requests");
    assert_eq!((mv.tbs, mv.warps), (2, 8), "mv geometry");
    assert_eq!(mv_mem, 0xdd86_a7b4_4213_e8fb, "mv memory image");
    assert_eq!(mv.l2_accesses, 0, "disabled L2 records nothing");
    assert_eq!(mv.l2_hits, 0);
    assert_eq!(mv.l2_evictions, 0);

    let (st, st_mem) = run_stream(0);
    assert_eq!(st.cycles, 7_966, "stream cycles");
    assert_eq!(st.instructions, 2_432, "stream instructions");
    assert_eq!(st.l1_accesses, 128, "stream l1_accesses");
    assert_eq!(st.l1_hits, 0, "stream l1_hits");
    assert_eq!(st.offchip_requests, 256, "stream offchip_requests");
    assert_eq!(st_mem, 0x2f58_0788_d142_cdb5, "stream memory image");
    assert_eq!(st.l2_accesses, 0);
}

/// The mv runs of the multi-SM cases: four SMs, where the L2 slice is
/// per-SM state.
fn run_mv_4sm(l2_kb: u32) -> (LaunchStats, u64) {
    run_mv_on(4, LaunchConfig::d1(8, 32), l2_kb)
}

/// Every L1D load miss probes the L2 and nothing else does:
/// `l2_accesses == l1_accesses − l1_hits`, on both a reuse-heavy and a
/// streaming kernel, across capacities, and on four SMs (each probes its
/// own slice).
#[test]
fn l2_accesses_reconcile_with_l1_misses() {
    for kb in [64, 512, 6144] {
        for (sms, (mv, _)) in [(1, run_mv(kb)), (4, run_mv_4sm(kb))] {
            assert!(mv.l2_accesses > 0, "mv, {sms} SMs: the L2 saw traffic");
            assert_eq!(
                mv.l2_accesses,
                mv.l1_accesses - mv.l1_hits,
                "mv, {sms} SMs, l2_kb={kb}: L2 accesses must equal L1 load misses"
            );
            assert!(mv.l2_hits <= mv.l2_accesses, "mv, {sms} SMs, l2_kb={kb}");
        }
        let (st, _) = run_stream(kb);
        assert_eq!(
            st.l2_accesses,
            st.l1_accesses - st.l1_hits,
            "stream, l2_kb={kb}"
        );
    }
}

/// The L2 never changes functional results: memory images and executed
/// work are identical across capacities, on one SM and on four. (L1
/// hit/miss *counters* may legitimately move — fill latencies steer the
/// warp schedule, and the access interleaving steers LRU state — but
/// what the kernel computes may not.)
#[test]
fn l2_is_functionally_transparent() {
    for run in [run_mv, run_mv_4sm] {
        let (base, base_mem) = run(0);
        for kb in [64, 512, 6144] {
            let (s, mem) = run(kb);
            assert_eq!(mem, base_mem, "l2_kb={kb}: memory image moved");
            assert_eq!(s.instructions, base.instructions, "l2_kb={kb}");
            assert_eq!((s.tbs, s.warps), (base.tbs, base.warps), "l2_kb={kb}");
        }
    }
}

/// Capacity ordering: a slice covering the mv working set (A 256 KB +
/// B 1 KB fits in 512 KB) hits more than a 64 KB slice and stops
/// evicting; and any L2 beats no L2 on cycles (hits shorten miss
/// latency; the off-chip port charge is identical either way). Cycles
/// between two *warm* L2 sizes are deliberately not ordered — fill
/// latencies steer the warp schedule, so a few percent of scheduling
/// noise can outweigh a small hit-rate edge.
#[test]
fn l2_capacity_orders_hit_rates_and_cycles() {
    let (no_l2, _) = run_mv(0);
    let (small, _) = run_mv(64);
    let (big, _) = run_mv(512);
    assert!(
        big.l2_hit_rate() > small.l2_hit_rate(),
        "covering slice must hit more: {:.3} vs {:.3}",
        big.l2_hit_rate(),
        small.l2_hit_rate()
    );
    // Warm hits dominate once the footprint fits: only the ~2064 cold
    // line fills (A + B + tmp over 128-byte lines) miss.
    assert!(
        big.l2_hit_rate() > 0.75,
        "covering slice hit rate {:.3}",
        big.l2_hit_rate()
    );
    assert!(big.cycles < no_l2.cycles, "L2 hits must shorten the launch");
    assert!(small.cycles < no_l2.cycles, "even a small L2 helps here");
    // Evictions appear exactly when the slice is too small.
    assert!(small.l2_evictions > 0, "thrashing slice must evict");
    assert_eq!(big.l2_evictions, 0, "covering slice must not evict");
}
