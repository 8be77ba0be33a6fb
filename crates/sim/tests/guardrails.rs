//! Guard-rail integration tests: every user-reachable failure on the
//! execution path must surface as a structured [`SimError`], never a
//! panic. Fuel budgets are set per-test through `GpuConfig::sim_fuel`.

use catt_frontend::parse_kernel;
use catt_ir::LaunchConfig;
use catt_sim::{Arg, CancelToken, ExecCounts, GlobalMem, Gpu, GpuConfig, SimError};
use std::time::{Duration, Instant};

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
/// division-by-zero panic in the coalescer or the set-index computation,
/// nor an L1D under one set (line size × associativity) simulated as one
/// full set.
#[test]
fn degenerate_cache_geometry_is_a_bad_argument() {
    let src = "
        __global__ void copy(float *a, float *b) {
            b[threadIdx.x] = a[threadIdx.x];
        }";
    let k = parse_kernel(src).unwrap();
    let run = |line_bytes, assoc, l1_bytes, profile| {
        let mut config = GpuConfig::small();
        config.l1_line_bytes = line_bytes;
        config.l1_assoc = assoc;
        config.l1_cap_bytes = Some(l1_bytes);
        config.profile = Some(profile);
        let mut mem = GlobalMem::new();
        let (a, b) = (mem.alloc_zeroed(32), mem.alloc_zeroed(32));
        let args = [Arg::Buf(a), Arg::Buf(b)];
        Gpu::new(config).launch(&k, LaunchConfig::d1(1, 32), &args, &mut mem)
    };
    // (what the error must name, line size, associativity, L1D bytes)
    let cases = [
        ("l1_line_bytes", 0, 4, 4096),
        ("l1_line_bytes", 126, 4, 4096),
        ("l1_assoc", 128, 0, 4096),
        ("l1d_bytes() = 0", 128, 4, 0),
        ("l1d_bytes() = 508", 128, 4, 508),
    ];
    for (field, line_bytes, assoc, l1_bytes) in cases {
        for profile in [false, true] {
            match run(line_bytes, assoc, l1_bytes, profile).unwrap_err() {
                SimError::BadArgument { kernel, message } => {
                    assert_eq!(kernel, "copy");
                    assert!(message.contains(field), "{message}");
                }
                other => panic!("expected BadArgument naming {field}, got {other}"),
            }
        }
    }
    assert!(run(128, 4, 512, false).is_ok(), "one set is enough");
}

/// A kernel that runs well past one cancellation poll period.
const LOOPY: &str = "__global__ void loopy(float *a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float s = 0.0f;
    for (int j = 0; j < n; j++) { s += a[(i + j) % 1024]; }
    a[i] = s;
}";

/// Run `LOOPY` with `n` iterations on both drivers, each on a fresh
/// `Gpu::new(config())` (so a deadline set by `config` starts per
/// driver): the timed launch's stats and the digest of the memory it
/// leaves, and the functional run's counts.
fn loopy_both_ways(
    n: i32,
    config: impl Fn() -> GpuConfig,
) -> (
    Result<(String, u64), SimError>,
    Result<ExecCounts, SimError>,
) {
    let k = parse_kernel(LOOPY).unwrap();
    let launch = LaunchConfig::d1(4, 256);
    let inputs = || {
        let mut mem = GlobalMem::new();
        let a = mem.alloc_f32(&[1.0; 1024]);
        (mem, [Arg::Buf(a), Arg::I32(n)])
    };
    let (mut mem, args) = inputs();
    let timed = Gpu::new(config())
        .launch(&k, launch, &args, &mut mem)
        .map(|stats| (format!("{stats:?}"), mem.content_digest()));
    let (mut mem, args) = inputs();
    let functional = Gpu::new(config()).execute(&k, launch, &args, &mut mem);
    (timed, functional)
}

/// `GpuConfig::small()` under a token whose deadline is `after` from now.
fn small_with_deadline(after: Duration) -> GpuConfig {
    let mut config = GpuConfig::small();
    config.cancel = Some(CancelToken::with_deadline(Instant::now() + after));
    config
}

/// A launch under a token whose deadline has already passed stops with
/// `Cancelled` on both drivers, before its first instruction.
#[test]
fn an_expired_token_cancels_both_drivers() {
    let (timed, functional) = loopy_both_ways(64, || small_with_deadline(Duration::ZERO));
    for err in [timed.unwrap_err(), functional.unwrap_err()] {
        match err {
            SimError::Cancelled { kernel, cycles } => {
                assert_eq!((kernel.as_str(), cycles), ("loopy", 0))
            }
            other => panic!("expected Cancelled, got {other}"),
        }
    }
}

/// A deadline that passes while a barrier-free block is still running
/// stops both drivers with `Cancelled`: the token is polled inside the
/// block, not only between barrier phases. Each block of this `LOOPY`
/// issues tens of millions of warp-instructions, far past the fuel budget
/// and far past the deadline.
#[test]
fn a_deadline_expiring_mid_block_cancels_both_drivers() {
    let (timed, functional) =
        loopy_both_ways(1 << 20, || small_with_deadline(Duration::from_millis(50)));
    match timed {
        Err(SimError::Cancelled { kernel, cycles }) => {
            assert_eq!(kernel, "loopy");
            assert!(cycles > 0, "the timed driver stopped mid-block");
        }
        other => panic!("timed: expected Cancelled, got {other:?}"),
    }
    match functional {
        Err(SimError::Cancelled { kernel, .. }) => assert_eq!(kernel, "loopy"),
        other => panic!("functional: expected Cancelled, got {other:?}"),
    }
}

/// A token whose deadline is far away changes nothing a launch computes:
/// stats, memory and functional counts equal a run without a token, on
/// one SM and on four.
#[test]
fn a_far_future_token_leaves_the_run_bit_identical() {
    for sms in [1, 4] {
        let mut plain = GpuConfig::small();
        plain.num_sms = sms;
        let tokened = || GpuConfig {
            num_sms: sms,
            ..small_with_deadline(Duration::from_secs(3600))
        };
        let (timed, functional) = loopy_both_ways(64, || plain.clone());
        let (timed_tok, functional_tok) = loopy_both_ways(64, tokened);
        let timed = timed.expect("the plain launch runs");
        assert_eq!(
            timed,
            timed_tok.expect("the tokened launch runs"),
            "{sms} SMs"
        );
        assert_eq!(functional.unwrap(), functional_tok.unwrap(), "{sms} SMs");
    }
}
