//! Parallel-vs-sequential equivalence for the per-SM launch path.
//!
//! The parallel path (DESIGN.md "Parallel SM execution") runs every SM of
//! one launch that has blocks on its own thread against a shared
//! pre-launch snapshot plus a private store log, then merges logs in
//! ascending SM-id order. This suite pins the contract:
//!
//! * bit-identical `LaunchStats` *and* output buffers between
//!   `sm_parallel = on` and `off` for every registry workload;
//! * the documented snapshot-vs-sequential memory-visibility difference
//!   on a deliberately cross-block-racy kernel;
//! * error-path equivalence;
//! * the same bit-identity on a kernel with barriers and partial warps,
//!   and on an adversarial launch where one SM carries nearly all the
//!   work (the LVMD shape).
//!
//! Modes are selected through `GpuConfig::sm_parallel`.

use catt_frontend::parse_kernel;
use catt_ir::LaunchConfig;
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, LaunchStats, SimError};
use catt_workloads::harness;
use catt_workloads::registry;

/// Multi-SM evaluation config forced into the given execution mode.
fn mode_config(parallel: bool) -> GpuConfig {
    let mut c = GpuConfig::titan_v();
    c.num_sms = 4;
    c.sm_parallel = Some(parallel);
    c
}

fn assert_stats_identical(a: &LaunchStats, b: &LaunchStats, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.instructions, b.instructions, "{what}: instructions");
    assert_eq!(a.l1_accesses, b.l1_accesses, "{what}: l1_accesses");
    assert_eq!(a.l1_hits, b.l1_hits, "{what}: l1_hits");
    assert_eq!(
        a.offchip_requests, b.offchip_requests,
        "{what}: offchip_requests"
    );
    assert_eq!(a.l2_accesses, b.l2_accesses, "{what}: l2_accesses");
    assert_eq!(a.l2_hits, b.l2_hits, "{what}: l2_hits");
    assert_eq!(a.l2_evictions, b.l2_evictions, "{what}: l2_evictions");
    assert_eq!(a.tbs, b.tbs, "{what}: tbs");
    assert_eq!(a.warps, b.warps, "{what}: warps");
    assert_eq!(
        a.resident_tbs_per_sm, b.resident_tbs_per_sm,
        "{what}: resident_tbs_per_sm"
    );
}

/// Every registry workload (validation on) produces bit-identical stats
/// and output buffers in both execution modes. The workloads' cross-block
/// stores are either to disjoint per-block ranges or write identical
/// values (BFS's frontier flags), so snapshot semantics cannot diverge
/// from the sequential order here.
#[test]
fn registry_workloads_are_bit_identical_across_modes() {
    harness::set_mem_digest_capture(true);
    for w in registry::all_workloads() {
        let kernels = w.kernels();
        let par = (w.run)(&kernels, &mode_config(true), true);
        let par_mem = harness::last_mem_digest()
            .unwrap_or_else(|| panic!("{}: no digest captured (parallel)", w.abbrev));
        let seq = (w.run)(&kernels, &mode_config(false), true);
        let seq_mem = harness::last_mem_digest()
            .unwrap_or_else(|| panic!("{}: no digest captured (sequential)", w.abbrev));
        assert_stats_identical(&par, &seq, w.abbrev);
        assert_eq!(
            par_mem, seq_mem,
            "{}: final memory image differs between modes",
            w.abbrev
        );
    }
    harness::set_mem_digest_capture(false);
}

/// A deliberately cross-block-racy kernel documenting the snapshot
/// semantics: block `b` publishes `a[b] = a[b + 1] + 1`, so what block
/// `b` *reads* depends on whether the block owning `a[b + 1]` already
/// ran.
///
/// * Parallel mode: every SM reads the pre-launch snapshot, so every
///   block sees the initial `a` — the semantics no real GPU is further
///   from guaranteeing than this.
/// * Sequential mode: SM 1 runs after SM 0 and observes its stores
///   mid-launch (the historical behaviour, kept as the fallback).
///
/// Neither order is "the right one" — CUDA leaves inter-block visibility
/// within a launch undefined — but each mode's result is deterministic,
/// and the two differ exactly where the race is.
#[test]
fn racy_cross_block_kernel_documents_snapshot_semantics() {
    let k = parse_kernel(
        "__global__ void chain(float *a) {
             if (threadIdx.x == 0) {
                 a[blockIdx.x] = a[blockIdx.x + 1] + 1.0f;
             }
         }",
    )
    .unwrap();
    let run = |parallel: bool| {
        let mut c = GpuConfig::titan_v();
        c.num_sms = 2; // SM 0: blocks 0, 2; SM 1: blocks 1, 3
        c.sm_parallel = Some(parallel);
        let mut mem = GlobalMem::new();
        let a = mem.alloc_f32(&[0.0, 0.0, 0.0, 0.0, 100.0]);
        let mut gpu = Gpu::new(c);
        gpu.launch(&k, LaunchConfig::d1(4, 32), &[Arg::Buf(a)], &mut mem)
            .unwrap();
        mem.read_f32(a)
    };
    // Snapshot: every block reads initial a = [0, 0, 0, 0, 100].
    assert_eq!(run(true), vec![1.0, 1.0, 1.0, 101.0, 100.0]);
    // Sequential: SM 0 commits a[0] = 1, a[2] = 1 first; SM 1 then reads
    // the updated a[2] for block 1 and the initial a[4] for block 3.
    assert_eq!(run(false), vec![1.0, 2.0, 1.0, 101.0, 100.0]);
}

/// Synthetic multi-SM kernel with barriers, shared memory, and partial
/// warps: stats and memory identical across modes.
#[test]
fn thread_budget_never_changes_results() {
    let k = parse_kernel(
        "__global__ void smem_sum(float *out, float *in, int n) {
             __shared__ float buf[48];
             int i = blockIdx.x * blockDim.x + threadIdx.x;
             buf[threadIdx.x] = (i < n) ? in[i] : 0.0f;
             __syncthreads();
             float acc = 0.0f;
             for (int j = 0; j < 48; j++) { acc = acc + buf[j]; }
             if (i < n) { out[i] = acc; }
         }",
    )
    .unwrap();
    let run = |parallel: bool| {
        let mut c = GpuConfig::titan_v();
        c.num_sms = 3;
        c.sm_parallel = Some(parallel);
        let mut mem = GlobalMem::new();
        let n = 7 * 48; // 7 blocks of 48 threads (partial warps) over 3 SMs
        let input: Vec<f32> = (0..n).map(|v| (v % 13) as f32).collect();
        let inb = mem.alloc_f32(&input);
        let outb = mem.alloc_zeroed(n as u32);
        let mut gpu = Gpu::new(c);
        let stats = gpu
            .launch(
                &k,
                LaunchConfig::d1(7, 48),
                &[Arg::Buf(outb), Arg::Buf(inb), Arg::I32(n)],
                &mut mem,
            )
            .unwrap();
        (stats, mem.read_f32(outb))
    };
    let (seq_stats, seq_out) = run(false);
    let (par_stats, par_out) = run(true);
    assert_stats_identical(&par_stats, &seq_stats, "smem_sum");
    assert_eq!(par_out, seq_out, "smem_sum output");
}

/// One dominant SM: every fourth block runs ~100× the work of the
/// others, and with `num_sms = 4` the round-robin split hands *all* heavy
/// blocks to SM 0 (LVMD's skew in miniature). SM 0 finishes last, yet
/// stats and memory must equal the sequential baseline bit-for-bit,
/// because outcomes commit in ascending SM-id order whatever order the
/// threads finish in.
#[test]
fn claim_order_is_bit_identical_on_a_dominant_sm() {
    let k = parse_kernel(
        "__global__ void skew(float *out, float *in) {
             int i = blockIdx.x * blockDim.x + threadIdx.x;
             int rounds = (blockIdx.x % 4 == 0) ? 96 : 1;
             float acc = 0.0f;
             for (int r = 0; r < rounds; r++) {
                 acc = acc + in[(i + r) % 256];
             }
             out[i] = acc;
         }",
    )
    .unwrap();
    let n = 16 * 64;
    let run = |parallel: bool| {
        let mut c = GpuConfig::titan_v();
        c.num_sms = 4; // blocks 0, 4, 8, 12 (the heavy ones) all land on SM 0
        c.sm_parallel = Some(parallel);
        let mut mem = GlobalMem::new();
        let input: Vec<f32> = (0..256).map(|v| (v % 7) as f32 + 0.5).collect();
        let inb = mem.alloc_f32(&input);
        let outb = mem.alloc_zeroed(n);
        let mut gpu = Gpu::new(c);
        let stats = gpu
            .launch(
                &k,
                LaunchConfig::d1(16, 64),
                &[Arg::Buf(outb), Arg::Buf(inb)],
                &mut mem,
            )
            .unwrap();
        (stats, mem.read_f32(outb))
    };
    let (seq_stats, seq_out) = run(false);
    assert!(seq_stats.cycles > 0);
    let (par_stats, par_out) = run(true);
    assert_stats_identical(&par_stats, &seq_stats, "skew");
    assert_eq!(par_out, seq_out, "skew output");
}

/// Error-path equivalence: a spinning kernel exhausts fuel identically in
/// both modes (same error variant, same reported cycle count), and the
/// parallel path reports the lowest failing SM id's error first — the
/// sequential order.
#[test]
fn fuel_exhaustion_is_identical_across_modes() {
    let k = parse_kernel(
        "__global__ void spin(float *a) {
             for (int i = 0; i >= 0; i++) { a[0] = a[0] + 1.0f; }
         }",
    )
    .unwrap();
    let run = |parallel: bool| {
        let mut c = GpuConfig::titan_v();
        c.num_sms = 2;
        c.sm_parallel = Some(parallel);
        c.sim_fuel = Some(5_000);
        let mut mem = GlobalMem::new();
        let a = mem.alloc_zeroed(8);
        let mut gpu = Gpu::new(c);
        gpu.launch(&k, LaunchConfig::d1(4, 32), &[Arg::Buf(a)], &mut mem)
            .unwrap_err()
    };
    let par = run(true);
    let seq = run(false);
    assert!(
        matches!(par, SimError::FuelExhausted { .. }),
        "parallel: {par:?}"
    );
    match (&par, &seq) {
        (
            SimError::FuelExhausted {
                cycles: pc,
                kernel: pk,
            },
            SimError::FuelExhausted {
                cycles: sc,
                kernel: sk,
            },
        ) => {
            assert_eq!(pc, sc, "cycle counts at exhaustion");
            assert_eq!(pk, sk);
        }
        other => panic!("mismatched error variants: {other:?}"),
    }
}

/// Post-error memory contract (mid-launch state on error is *unspecified*
/// by CUDA; each mode's behaviour is still deterministic and documented):
/// in both modes the error of the lowest failing SM id surfaces, and SMs
/// with lower ids that completed have their stores committed. The one
/// documented difference: the sequential path has already written the
/// failing SM's partial stores into memory, while the parallel path drops
/// the failing SM's log entirely.
#[test]
fn post_error_memory_commits_completed_lower_id_sms() {
    let k = parse_kernel(
        "__global__ void half_spin(float *a) {
             a[blockIdx.x] = 7.0f;
             if (blockIdx.x == 1) {
                 for (int i = 0; i >= 0; i++) { a[8] = a[8] + 1.0f; }
             }
         }",
    )
    .unwrap();
    let run = |parallel: bool| {
        let mut c = GpuConfig::titan_v();
        c.num_sms = 2; // SM 0: blocks 0, 2 (finish); SM 1: block 1 (spins)
        c.sm_parallel = Some(parallel);
        c.sim_fuel = Some(5_000);
        let mut mem = GlobalMem::new();
        let a = mem.alloc_zeroed(16);
        let mut gpu = Gpu::new(c);
        let err = gpu
            .launch(&k, LaunchConfig::d1(3, 32), &[Arg::Buf(a)], &mut mem)
            .unwrap_err();
        (err, mem.read_f32(a))
    };
    let (par_err, par_mem) = run(true);
    let (seq_err, seq_mem) = run(false);
    assert!(matches!(par_err, SimError::FuelExhausted { .. }));
    assert!(matches!(seq_err, SimError::FuelExhausted { .. }));
    // SM 0 completed: its stores are committed in both modes.
    for mem in [&par_mem, &seq_mem] {
        assert_eq!(mem[0], 7.0, "block 0 output committed");
        assert_eq!(mem[2], 7.0, "block 2 output committed");
    }
    // The failing SM's partial stores: visible sequentially (it wrote
    // memory in place), absent in parallel (its log is dropped).
    assert_eq!(seq_mem[1], 7.0);
    assert!(seq_mem[8] > 0.0, "sequential keeps the partial spin stores");
    assert_eq!(par_mem[1], 0.0);
    assert_eq!(par_mem[8], 0.0, "parallel drops the failing SM's log");
}
