//! Functional execution (`Gpu::execute`) against the timed model
//! (`Gpu::launch`): the differential oracle runs on the former, so the two
//! must agree on everything the oracle compares — the final global memory
//! and the `SimError` class — and on the schedule-independent counts.
//!
//! Three populations: every registry workload (whose outputs the host
//! reference validates, so the comparison is not the simulator against
//! itself), a thousand generated kernels with dirty injections at 30 %,
//! and one directed kernel per error class.

use catt_repro::core::tb_throttle;
use catt_repro::frontend::parse_kernel;
use catt_repro::ir::{Kernel, LaunchConfig};
use catt_repro::sim::{Arg, CancelToken, GlobalMem, Gpu, GpuConfig};
use catt_repro::verify::generate::{generate_case, GenOptions};
use catt_repro::verify::oracle::{classify, sim_config};
use catt_repro::workloads::harness::{
    eval_config_max_l1d, last_mem_digest, set_functional_execution, set_mem_digest_capture,
};
use catt_repro::workloads::registry::all_workloads;

/// (classification, memory digest after the run, (instructions, tbs, warps)
/// of a clean completion).
type Outcome = (String, u64, Option<(u64, u64, u64)>);

/// Run `kernel` from the same initial memory on the timed model and
/// functionally.
fn both_ways(
    config: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    buffers: &[u32],
    scalars: &[Arg],
) -> (Outcome, Outcome) {
    let mut mem = GlobalMem::new();
    let mut args: Vec<Arg> = buffers
        .iter()
        .map(|&len| {
            let data: Vec<f32> = (0..len).map(catt_repro::verify::fill_f32).collect();
            Arg::Buf(mem.alloc_f32(&data))
        })
        .collect();
    args.extend_from_slice(scalars);
    let outcome = |class: String, mem: &GlobalMem, counts| (class, mem.content_digest(), counts);

    let mut timed_mem = mem.clone();
    let timed = match Gpu::new(config.clone()).launch(kernel, launch, &args, &mut timed_mem) {
        Ok(s) => outcome(
            "ok".into(),
            &timed_mem,
            Some((s.instructions, s.tbs, s.warps)),
        ),
        Err(e) => outcome(classify(&e), &timed_mem, None),
    };
    let functional = match Gpu::new(config.clone()).execute(kernel, launch, &args, &mut mem) {
        Ok(c) => outcome("ok".into(), &mem, Some((c.instructions, c.tbs, c.warps))),
        Err(e) => outcome(classify(&e), &mem, None),
    };
    (timed, functional)
}

#[test]
fn every_registry_workload_agrees_at_one_and_at_four_sms() {
    set_mem_digest_capture(true);
    for w in all_workloads() {
        let kernels = w.kernels();
        // Functional first, validated against the host reference.
        set_functional_execution(true);
        let f = (w.run)(&kernels, &eval_config_max_l1d(), true);
        set_functional_execution(false);
        let f_digest = last_mem_digest().expect("functional digest");
        assert_eq!(
            f.cycles, 0,
            "{}: functional runs compute no cycle",
            w.abbrev
        );

        for num_sms in [1, 4] {
            let mut cfg = eval_config_max_l1d();
            cfg.num_sms = num_sms;
            let t = (w.run)(&kernels, &cfg, false);
            assert_eq!(
                (t.instructions, t.tbs, t.warps),
                (f.instructions, f.tbs, f.warps),
                "{} at {num_sms} SM(s): counts",
                w.abbrev
            );
            assert_eq!(
                last_mem_digest(),
                Some(f_digest),
                "{} at {num_sms} SM(s): global memory",
                w.abbrev
            );
        }
    }
    set_mem_digest_capture(false);
}

#[test]
fn generated_cases_classify_and_compute_identically_dirty_ones_included() {
    let config = sim_config();
    let (mut clean, mut dirty) = (0, 0);
    for seed in 0..1200u64 {
        let case = generate_case(seed, &GenOptions { dirty_p: 0.3 });
        let lens: Vec<u32> = case.buffers.iter().map(|(_, len)| *len).collect();
        let (timed, functional) = both_ways(&config, &case.kernel, case.launch, &lens, &[]);
        assert_eq!(timed.0, functional.0, "seed {seed}: classification");
        if timed.0 == "ok" {
            // Mid-launch state on error is unspecified; clean runs are
            // bit-identical.
            assert_eq!(timed, functional, "seed {seed}");
            clean += 1;
        } else {
            dirty += 1;
        }
    }
    assert!(
        clean > 600 && dirty > 200,
        "population skewed: {clean} clean, {dirty} dirty"
    );
}

/// One directed kernel: source, launch, buffer lengths, scalar arguments,
/// and the class both executions must report.
struct Directed {
    src: &'static str,
    launch: LaunchConfig,
    buffers: &'static [u32],
    scalars: &'static [Arg],
    class: &'static str,
}

fn assert_class(config: &GpuConfig, kernel: &Kernel, d: &Directed) {
    let (timed, functional) = both_ways(config, kernel, d.launch, d.buffers, d.scalars);
    assert_eq!(timed.0, d.class, "timed: {}", d.src);
    assert_eq!(functional.0, d.class, "functional: {}", d.src);
}

#[test]
fn every_error_class_is_reported_both_ways() {
    let directed = [
        Directed {
            src: "__global__ void k(float *a) {
                      if (threadIdx.x % 2 == 0) { __syncthreads(); }
                      a[threadIdx.x] = 1.0f;
                  }",
            launch: LaunchConfig::d1(1, 32),
            buffers: &[32],
            scalars: &[],
            class: "sanitizer: barrier divergence",
        },
        Directed {
            // Both warps park, at different sites.
            src: "__global__ void k(float *a) {
                      if (threadIdx.x < 32) { __syncthreads(); } else { __syncthreads(); }
                      a[threadIdx.x] = 1.0f;
                  }",
            launch: LaunchConfig::d1(1, 64),
            buffers: &[64],
            scalars: &[],
            class: "sanitizer: barrier divergence",
        },
        Directed {
            // Warp 1 exits past the barrier warp 0 parks at.
            src: "__global__ void k(float *a) {
                      if (threadIdx.x < 32) { __syncthreads(); }
                      a[threadIdx.x] = 1.0f;
                  }",
            launch: LaunchConfig::d1(1, 64),
            buffers: &[64],
            scalars: &[],
            class: "sanitizer: barrier divergence",
        },
        Directed {
            src: "__global__ void k(float *a) {
                      __shared__ float s[32];
                      s[threadIdx.x + 8] = 1.0f;
                      __syncthreads();
                      a[threadIdx.x] = s[threadIdx.x];
                  }",
            launch: LaunchConfig::d1(1, 32),
            buffers: &[32],
            scalars: &[],
            class: "sanitizer: shared memory out of bounds",
        },
        Directed {
            // Inter-block write/write.
            src: "__global__ void k(float *a) { a[threadIdx.x] = (float)blockIdx.x; }",
            launch: LaunchConfig::d1(2, 32),
            buffers: &[32],
            scalars: &[],
            class: "sanitizer: global memory race",
        },
        Directed {
            // Inter-block read/write: every block reads a[0], block 0 writes it.
            src: "__global__ void k(float *a, float *out) {
                      int i = blockIdx.x * blockDim.x + threadIdx.x;
                      out[i] = a[0];
                      if (i == 0) { a[0] = 7.0f; }
                  }",
            launch: LaunchConfig::d1(2, 32),
            buffers: &[32, 64],
            scalars: &[],
            class: "sanitizer: global memory race",
        },
        Directed {
            src: "__global__ void k(float *a) { a[threadIdx.x] = a[threadIdx.x + 100]; }",
            launch: LaunchConfig::d1(1, 32),
            buffers: &[32],
            scalars: &[],
            class: "sanitizer: uninitialized global read",
        },
        Directed {
            src: "__global__ void k(float *a, float *b) { a[threadIdx.x] = 1.0f; }",
            launch: LaunchConfig::d1(1, 32),
            buffers: &[32],
            scalars: &[],
            class: "bad-argument",
        },
    ];
    let config = sim_config();
    for d in &directed {
        assert_class(&config, &parse_kernel(d.src).unwrap(), d);
    }
}

#[test]
fn a_spinning_sibling_is_a_barrier_deadlock_not_a_runaway() {
    // Warp 0 grinds through a loop the fuel cannot cover while warp 1 is
    // parked at the barrier: both drivers run out of fuel with a parked
    // warp and must call that the deadlock it is.
    let d = Directed {
        src: "__global__ void k(float *a, int n) {
                  if (threadIdx.x < 32) {
                      for (int j = 0; j < n; j++) { a[j % 32] += 1.0f; }
                  }
                  __syncthreads();
                  a[threadIdx.x] = 2.0f;
              }",
        launch: LaunchConfig::d1(1, 64),
        buffers: &[64],
        scalars: &[Arg::I32(1_000_000)],
        class: "barrier-deadlock",
    };
    let mut config = sim_config();
    config.sim_fuel = Some(2_000);
    assert_class(&config, &parse_kernel(d.src).unwrap(), &d);

    // With no barrier the same starvation is plain fuel exhaustion.
    let d = Directed {
        src: "__global__ void k(float *a, int n) {
                  for (int j = 0; j < n; j++) { a[threadIdx.x] += 1.0f; }
              }",
        class: "fuel-exhausted",
        ..d
    };
    assert_class(&config, &parse_kernel(d.src).unwrap(), &d);
}

#[test]
fn tb_throttle_padding_above_the_largest_carve_out_is_a_bad_argument() {
    // A variant whose dummy shared memory no carve-out can hold fails at
    // admission; the oracle relies on both drivers calling it the same.
    let d = Directed {
        src: "__global__ void k(float *a) { a[threadIdx.x] = 1.0f; }",
        launch: LaunchConfig::d1(2, 32),
        buffers: &[32],
        scalars: &[],
        class: "bad-argument",
    };
    let kernel = parse_kernel(d.src).unwrap();
    let padded = tb_throttle(&kernel, 1, 128 * 1024, 0).expect("one resident block is reachable");
    assert!(padded.shared_mem_bytes() > 96 * 1024);
    assert_class(&sim_config(), &padded, &d);
}

#[test]
fn a_cancelled_token_stops_both_before_any_store() {
    let d = Directed {
        src: "__global__ void k(float *a) { a[threadIdx.x] = 99.0f; }",
        launch: LaunchConfig::d1(1, 32),
        buffers: &[32],
        scalars: &[],
        class: "cancelled",
    };
    let token = CancelToken::new();
    token.cancel();
    let mut config = sim_config();
    config.cancel = Some(token);
    let (timed, functional) = both_ways(
        &config,
        &parse_kernel(d.src).unwrap(),
        d.launch,
        d.buffers,
        d.scalars,
    );
    assert_eq!(
        (timed.0.as_str(), functional.0.as_str()),
        (d.class, d.class)
    );
    assert_eq!(timed.1, functional.1, "neither may have stored anything");
}
