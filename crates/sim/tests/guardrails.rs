//! Guard-rail integration tests: every user-reachable failure on the
//! execution path must surface as a structured [`SimError`], never a
//! panic. Fuel budgets are set per-test through `GpuConfig::sim_fuel`.

use catt_frontend::parse_kernel;
use catt_ir::LaunchConfig;
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, SimError};

fn launch(
    src: &str,
    launch: LaunchConfig,
    args: &[Arg],
    mem: &mut GlobalMem,
    fuel: Option<u64>,
) -> Result<catt_sim::LaunchStats, SimError> {
    let k = parse_kernel(src).unwrap();
    let mut config = GpuConfig::small();
    config.sim_fuel = fuel;
    Gpu::new(config).launch(&k, launch, args, mem)
}

#[test]
fn starved_barrier_is_reported_as_deadlock() {
    // Warp 0 grinds through a long loop while warp 1 parks at the
    // barrier. Under a tiny fuel budget the loop never finishes, so the
    // exhaustion is classified as a barrier deadlock (a warp was still
    // parked waiting on peers when the budget ran out).
    let src = "
        __global__ void starve(float *a, int n) {
            int w = threadIdx.x / 32;
            if (w == 0) {
                for (int j = 0; j < n; j++) { a[j % 32] += 1.0; }
            }
            __syncthreads();
            a[threadIdx.x] = 2.0;
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(64);
    let err = launch(
        src,
        LaunchConfig::d1(1, 64),
        &[Arg::Buf(ba), Arg::I32(1_000_000)],
        &mut mem,
        Some(2_000),
    )
    .unwrap_err();
    match err {
        SimError::BarrierDeadlock {
            kernel,
            parked_warps,
        } => {
            assert_eq!(kernel, "starve");
            assert!(parked_warps >= 1, "parked {parked_warps}");
        }
        other => panic!("expected BarrierDeadlock, got {other}"),
    }
}

#[test]
fn runaway_loop_exhausts_fuel() {
    // A single warp spinning in a long loop with no barrier: fuel runs
    // out with nothing parked, so the error is FuelExhausted.
    let src = "
        __global__ void spin(float *a, int n) {
            for (int j = 0; j < n; j++) { a[j % 32] += 1.0; }
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(32);
    let err = launch(
        src,
        LaunchConfig::d1(1, 32),
        &[Arg::Buf(ba), Arg::I32(1_000_000)],
        &mut mem,
        Some(2_000),
    )
    .unwrap_err();
    match err {
        SimError::FuelExhausted { kernel, cycles } => {
            assert_eq!(kernel, "spin");
            assert!(cycles >= 2_000, "cycles {cycles}");
        }
        other => panic!("expected FuelExhausted, got {other}"),
    }
    // The message points the user at the escape hatch.
    let rendered = format!(
        "{}",
        SimError::FuelExhausted {
            kernel: "spin".into(),
            cycles: 2_000,
        }
    );
    assert!(rendered.contains("--fuel"), "{rendered}");
}

#[test]
fn fuel_exhaustion_never_overshoots_the_budget() {
    // Regression (ISSUE: fuel-budget overshoot in the skip-ahead path):
    // one warp issues a missing global load, then everything stalls on
    // the ~400-cycle off-chip latency. The idle-cycle skip-ahead would
    // jump straight past the 100-cycle budget and report an exhaustion
    // cycle count (and, profiled, charge stall slots) far beyond it; the
    // skip target must clamp to the fuel limit instead.
    let src = "
        __global__ void one_load(float *a) {
            a[threadIdx.x] = a[threadIdx.x] + 1.0f;
        }";
    let fuel = 100u64;
    let run = |profile: bool| {
        let k = parse_kernel(src).unwrap();
        let mut config = GpuConfig::small();
        config.sim_fuel = Some(fuel);
        config.profile = Some(profile);
        let mut mem = GlobalMem::new();
        let ba = mem.alloc_zeroed(32);
        Gpu::new(config)
            .launch(&k, LaunchConfig::d1(1, 32), &[Arg::Buf(ba)], &mut mem)
            .unwrap_err()
    };
    match run(false) {
        SimError::FuelExhausted { cycles, .. } => {
            assert_eq!(
                cycles, fuel,
                "exhaustion must report exactly the budget, not the skip target"
            );
        }
        other => panic!("expected FuelExhausted, got {other}"),
    }
    // Profiled variant: the partial shard's cycle count honours the
    // budget too, and the charged issue slots stay bounded by it (the
    // cut-off cycle adds one final Fuel charge per scheduler).
    catt_sim::profile::set_capture(true);
    let err = run(true);
    let profiles = catt_sim::profile::take_captured();
    catt_sim::profile::set_capture(false);
    assert!(matches!(err, SimError::FuelExhausted { .. }), "{err}");
    assert_eq!(profiles.len(), 1);
    let p = &profiles[0];
    assert!(!p.complete);
    for sm in &p.sms {
        assert_eq!(sm.cycles, fuel, "SM {}: profiled cycles", sm.sm_id);
        let stalls: u64 = sm.stall_cycles.iter().sum();
        let sched = sm.schedulers as u64;
        assert!(
            sm.instructions + stalls <= (fuel + 1) * sched,
            "SM {}: charged {} slots, budget allows at most {}",
            sm.sm_id,
            sm.instructions + stalls,
            (fuel + 1) * sched
        );
    }
}

#[test]
fn same_kernel_finishes_under_the_default_budget() {
    // The derived footprint-based budget is generous enough for a real
    // (finite) run of the same loop.
    let src = "
        __global__ void spin(float *a, int n) {
            for (int j = 0; j < n; j++) { a[j % 32] += 1.0; }
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(32);
    let stats = launch(
        src,
        LaunchConfig::d1(1, 32),
        &[Arg::Buf(ba), Arg::I32(100)],
        &mut mem,
        None,
    )
    .unwrap();
    assert!(stats.cycles > 0);
}

#[test]
fn argument_count_mismatch_is_a_bad_argument() {
    let src = "
        __global__ void two(float *a, int n) {
            a[threadIdx.x] = 1.0;
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(32);
    let err = launch(
        src,
        LaunchConfig::d1(1, 32),
        &[Arg::Buf(ba)], // kernel expects two arguments
        &mut mem,
        None,
    )
    .unwrap_err();
    match err {
        SimError::BadArgument { kernel, message } => {
            assert_eq!(kernel, "two");
            assert!(message.contains('2') && message.contains('1'), "{message}");
        }
        other => panic!("expected BadArgument, got {other}"),
    }
}

#[test]
fn host_write_past_buffer_end_names_the_buffer() {
    let mut mem = GlobalMem::new();
    let b = mem.alloc_zeroed(4);
    let err = mem.write_f32(b, &[0.0; 8]).unwrap_err();
    match err {
        SimError::OutOfBounds { buffer, .. } => {
            assert!(!buffer.is_empty());
        }
        other => panic!("expected OutOfBounds, got {other}"),
    }
    // The original contents are untouched after a rejected write.
    assert_eq!(mem.read_f32(b), vec![0.0; 4]);
}

/// A degenerate cache geometry is a configuration error, not a
/// division-by-zero panic in the coalescer or the set-index computation.
#[test]
fn degenerate_cache_geometry_is_a_bad_argument() {
    let src = "
        __global__ void copy(float *a, float *b) {
            b[threadIdx.x] = a[threadIdx.x];
        }";
    let k = parse_kernel(src).unwrap();
    // (field the error must name, line size, associativity)
    let cases = [
        ("l1_line_bytes", 0, 4),
        ("l1_line_bytes", 126, 4),
        ("l1_assoc", 128, 0),
    ];
    for (field, line_bytes, assoc) in cases {
        for profile in [false, true] {
            let mut config = GpuConfig::small();
            config.l1_line_bytes = line_bytes;
            config.l1_assoc = assoc;
            config.profile = Some(profile);
            let mut mem = GlobalMem::new();
            let (a, b) = (mem.alloc_zeroed(32), mem.alloc_zeroed(32));
            let err = Gpu::new(config)
                .launch(
                    &k,
                    LaunchConfig::d1(1, 32),
                    &[Arg::Buf(a), Arg::Buf(b)],
                    &mut mem,
                )
                .unwrap_err();
            match err {
                SimError::BadArgument { kernel, message } => {
                    assert_eq!(kernel, "copy");
                    assert!(message.contains(field), "{message}");
                }
                other => panic!("expected BadArgument naming {field}, got {other}"),
            }
        }
    }
}
