//! Multi-SM launches: blocks go round-robin over the SMs, and the SMs are
//! simulated one after another against the one global memory (DESIGN.md
//! "Sequential SMs"). This suite pins what that order makes observable:
//!
//! * cross-SM memory visibility on a deliberately cross-block-racy kernel
//!   (SM *k + 1* sees SM *k*'s stores);
//! * the post-error memory contract;
//! * fuel exhaustion on a multi-SM launch.

use catt_frontend::parse_kernel;
use catt_ir::LaunchConfig;
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, SimError};

/// A deliberately cross-block-racy kernel: block `b` publishes
/// `a[b] = a[b + 1] + 1`, so what block `b` *reads* depends on whether the
/// block owning `a[b + 1]` already ran. SM 1 runs after SM 0 and observes
/// its stores mid-launch. CUDA leaves inter-block visibility within a
/// launch undefined; the simulator's order is fixed, so the result is
/// deterministic.
#[test]
fn racy_cross_block_kernel_sees_lower_sms_stores() {
    let k = parse_kernel(
        "__global__ void chain(float *a) {
             if (threadIdx.x == 0) {
                 a[blockIdx.x] = a[blockIdx.x + 1] + 1.0f;
             }
         }",
    )
    .unwrap();
    let mut c = GpuConfig::titan_v();
    c.num_sms = 2; // SM 0: blocks 0, 2; SM 1: blocks 1, 3
    let mut mem = GlobalMem::new();
    let a = mem.alloc_f32(&[0.0, 0.0, 0.0, 0.0, 100.0]);
    let mut gpu = Gpu::new(c);
    gpu.launch(&k, LaunchConfig::d1(4, 32), &[Arg::Buf(a)], &mut mem)
        .unwrap();
    // SM 0 writes a[0] = 1, a[2] = 1 first; SM 1 then reads the updated
    // a[2] for block 1 and the initial a[4] for block 3.
    assert_eq!(mem.read_f32(a), vec![1.0, 2.0, 1.0, 101.0, 100.0]);
}

/// A spinning kernel exhausts fuel on a multi-SM launch: the first
/// failing SM's error surfaces as `FuelExhausted`, naming the kernel.
#[test]
fn fuel_exhaustion_on_multiple_sms() {
    let k = parse_kernel(
        "__global__ void spin(float *a) {
             for (int i = 0; i >= 0; i++) { a[0] = a[0] + 1.0f; }
         }",
    )
    .unwrap();
    let mut c = GpuConfig::titan_v();
    c.num_sms = 2;
    c.sim_fuel = Some(5_000);
    let mut mem = GlobalMem::new();
    let a = mem.alloc_zeroed(8);
    let mut gpu = Gpu::new(c);
    let err = gpu
        .launch(&k, LaunchConfig::d1(4, 32), &[Arg::Buf(a)], &mut mem)
        .unwrap_err();
    match err {
        SimError::FuelExhausted { kernel, cycles } => {
            assert_eq!(kernel, "spin");
            assert!(cycles > 0);
        }
        other => panic!("expected FuelExhausted, got {other:?}"),
    }
}

/// Post-error memory contract (mid-launch state on error is *unspecified*
/// by CUDA; the simulator's is deterministic and documented): the error of
/// the lowest failing SM id surfaces, SMs with lower ids that completed
/// have their stores in memory, and so do the failing SM's partial stores
/// (it wrote memory in place).
#[test]
fn post_error_memory_keeps_lower_sms_and_partial_stores() {
    let k = parse_kernel(
        "__global__ void half_spin(float *a) {
             a[blockIdx.x] = 7.0f;
             if (blockIdx.x == 1) {
                 for (int i = 0; i >= 0; i++) { a[8] = a[8] + 1.0f; }
             }
         }",
    )
    .unwrap();
    let mut c = GpuConfig::titan_v();
    c.num_sms = 2; // SM 0: blocks 0, 2 (finish); SM 1: block 1 (spins)
    c.sim_fuel = Some(5_000);
    let mut mem = GlobalMem::new();
    let a = mem.alloc_zeroed(16);
    let mut gpu = Gpu::new(c);
    let err = gpu
        .launch(&k, LaunchConfig::d1(3, 32), &[Arg::Buf(a)], &mut mem)
        .unwrap_err();
    assert!(matches!(err, SimError::FuelExhausted { .. }));
    let mem = mem.read_f32(a);
    // SM 0 completed: its stores are in memory.
    assert_eq!(mem[0], 7.0, "block 0 output committed");
    assert_eq!(mem[2], 7.0, "block 2 output committed");
    // The failing SM's partial stores are there too.
    assert_eq!(mem[1], 7.0);
    assert!(mem[8] > 0.0, "the partial spin stores are kept");
}
