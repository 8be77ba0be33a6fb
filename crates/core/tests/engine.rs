//! Integration tests of the evaluation engine (ISSUE: engine determinism
//! and cache correctness): results must be byte-identical regardless of
//! worker count, warm (cached) reruns must equal cold runs, the digest
//! must invalidate when the GPU configuration or kernel source changes.

use catt_core::bftt::sweep_on;
use catt_core::engine::{job_digest, Engine, JobKey, SimSource};
use catt_frontend::parse_kernel;
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Arg, CancelToken, GlobalMem, Gpu, GpuConfig, LaunchStats};
use std::sync::atomic::{AtomicUsize, Ordering};

const N: usize = 256;

fn mv_kernel() -> Kernel {
    let src = format!(
        "#define N {N}
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

fn simulate(kernels: &[Kernel], launch: LaunchConfig, cfg: &GpuConfig) -> LaunchStats {
    let mut mem = GlobalMem::new();
    let a = mem.alloc_f32(&vec![1.0; N * N]);
    let b = mem.alloc_f32(&vec![1.0; N]);
    let tmp = mem.alloc_zeroed(N as u32);
    let mut gpu = Gpu::new(cfg.clone());
    gpu.launch(
        &kernels[0],
        launch,
        &[Arg::Buf(a), Arg::Buf(b), Arg::Buf(tmp)],
        &mut mem,
    )
    .unwrap()
}

/// The cache key of one run of `kernel`.
fn key_of(scope: &str, kernel: &Kernel, launch: LaunchConfig, cfg: &GpuConfig) -> JobKey {
    let program = catt_sim::lower(kernel).expect("the kernel lowers");
    job_digest(scope, std::slice::from_ref(&program), &[launch], cfg)
}

/// Every counter of `s`, the request trace left out (the one thing a
/// traced run adds).
fn counters(s: &LaunchStats) -> String {
    let untraced = LaunchStats {
        trace: Default::default(),
        ..s.clone()
    };
    format!("{untraced:?}")
}

fn contended_config() -> GpuConfig {
    let mut cfg = GpuConfig::titan_v_1sm();
    cfg.l1_cap_bytes = Some(32 * 1024);
    cfg
}

/// Same inputs must produce byte-identical statistics whether the sweep
/// runs on one worker or many — result ordering and content must not
/// depend on scheduling.
#[test]
fn sweep_results_are_identical_across_worker_counts() {
    let kernel = mv_kernel();
    let launch = LaunchConfig::d1(1, 256);
    let cfg = contended_config();
    let run = |kernels: &[Kernel], c: &GpuConfig| simulate(kernels, launch, c);

    let serial = sweep_on(
        &Engine::with_workers(1),
        "det",
        std::slice::from_ref(&kernel),
        launch,
        &cfg,
        run,
    )
    .expect("serial sweep succeeds");
    let parallel = sweep_on(
        &Engine::with_workers(4),
        "det",
        std::slice::from_ref(&kernel),
        launch,
        &cfg,
        run,
    )
    .expect("parallel sweep succeeds");

    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
    assert_eq!(serial.best, parallel.best);
    for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
        let (s, p) = (s.healthy().expect("healthy"), p.healthy().expect("healthy"));
        assert_eq!(
            (s.n, s.m),
            (p.n, p.m),
            "candidate order must be sweep order"
        );
        assert_eq!(
            counters(&s.stats),
            counters(&p.stats),
            "candidate (n={}, m={}) must be byte-identical across worker counts",
            s.n,
            s.m
        );
    }
}

/// A warm (cached) rerun must return exactly what the cold run computed,
/// without invoking the simulation again.
#[test]
fn warm_rerun_equals_cold_run() {
    let kernel = mv_kernel();
    let launch = LaunchConfig::d1(1, 256);
    let cfg = contended_config();
    let engine = Engine::with_workers(2);
    let computed = AtomicUsize::new(0);

    let run = || {
        engine
            .sim_app(
                "warm",
                std::slice::from_ref(&kernel),
                &[launch],
                &cfg,
                || {
                    computed.fetch_add(1, Ordering::SeqCst);
                    simulate(std::slice::from_ref(&kernel), launch, &cfg)
                },
            )
            .expect("sim_app succeeds")
    };
    let cold = run();
    let warm = run();
    assert_eq!(
        computed.load(Ordering::SeqCst),
        1,
        "warm run must not simulate"
    );
    assert_eq!(counters(&cold), counters(&warm));
    let c = engine.cache_counters();
    assert_eq!((c.hits, c.misses), (1, 1));
}

/// Changing the GPU configuration or the kernel source must change the
/// cache key — a warm entry must never be served for different inputs.
#[test]
fn cache_invalidates_on_config_or_source_change() {
    let kernel = mv_kernel();
    let launch = LaunchConfig::d1(1, 256);
    let cfg = contended_config();
    let key = key_of("inv", &kernel, launch, &cfg);

    let mut bigger = cfg.clone();
    bigger.l1_cap_bytes = Some(64 * 1024);
    let key_cfg = key_of("inv", &kernel, launch, &bigger);
    assert_ne!(key, key_cfg, "GpuConfig change must invalidate");

    let changed = parse_kernel(&format!(
        "#define N {N}
         __global__ void mv(float *A, float *B, float *tmp) {{
             int i = blockIdx.x * blockDim.x + threadIdx.x;
             if (i < N) {{
                 for (int j = 0; j < N; j++) {{
                     tmp[i] += A[i * N + j] * B[j] * 2.0f;
                 }}
             }}
         }}"
    ))
    .unwrap();
    let key_src = key_of("inv", &changed, launch, &cfg);
    assert_ne!(key, key_src, "kernel source change must invalidate");

    // End to end: the engine really recomputes for the changed config.
    let engine = Engine::with_workers(2);
    let computed = AtomicUsize::new(0);
    for c in [&cfg, &bigger] {
        engine
            .sim_app("inv", std::slice::from_ref(&kernel), &[launch], c, || {
                computed.fetch_add(1, Ordering::SeqCst);
                simulate(std::slice::from_ref(&kernel), launch, c)
            })
            .expect("sim_app succeeds");
    }
    assert_eq!(computed.load(Ordering::SeqCst), 2);
    assert_eq!(engine.cache_counters().hits, 0);
}

/// The cache rule for diagnostic runs. A profiled run always simulates and
/// yields its profile, and records stats equal to a plain run's, so the
/// plain run after it is a hit. A traced or sanitized run neither reads
/// nor writes the cache.
#[test]
fn profiled_runs_record_and_traced_or_sanitized_runs_bypass() {
    let kernel = mv_kernel();
    let ks = std::slice::from_ref(&kernel);
    let launch = LaunchConfig::d1(1, 256);
    let plain = contended_config();
    let variant = |set: fn(&mut GpuConfig)| {
        let mut c = plain.clone();
        set(&mut c);
        c
    };
    let profiled = variant(|c| c.profile = Some(true));
    let reference = counters(&simulate(ks, launch, &plain));
    let computed = AtomicUsize::new(0);
    // One `sim_app` call with profile capture armed: (stats, profiles captured).
    let run = |engine: &Engine, cfg: &GpuConfig| {
        catt_sim::profile::set_capture(true);
        let stats = engine
            .sim_app("rule", ks, &[launch], cfg, || {
                computed.fetch_add(1, Ordering::SeqCst);
                simulate(ks, launch, cfg)
            })
            .expect("sim_app succeeds");
        let profiles = catt_sim::profile::take_captured().len();
        catt_sim::profile::set_capture(false);
        (counters(&stats), profiles)
    };
    let counts = |engine: &Engine| {
        let c = engine.cache_counters();
        (computed.load(Ordering::SeqCst), c.hits, c.misses)
    };

    let engine = Engine::with_workers(1);
    assert_eq!(run(&engine, &profiled), (reference.clone(), 1));
    assert_eq!(counts(&engine), (1, 0, 0), "a profiled run never looks up");
    assert_eq!(run(&engine, &plain), (reference.clone(), 0));
    assert_eq!(
        counts(&engine),
        (1, 1, 0),
        "the profiled run seeded the entry"
    );
    assert_eq!(run(&engine, &profiled), (reference.clone(), 1));
    assert_eq!(
        counts(&engine),
        (2, 1, 0),
        "a profiled run simulates even when the entry exists"
    );

    // `sim_app_shared` follows the same rule.
    let shared = Engine::with_workers(1);
    let outcome = |cfg: &GpuConfig| {
        shared
            .sim_app_shared("rule", key_of("rule", &kernel, launch, cfg), cfg, || {
                Ok(simulate(ks, launch, cfg))
            })
            .expect("sim_app_shared succeeds")
            .source
    };
    assert_eq!(outcome(&profiled), SimSource::Computed);
    assert_eq!(outcome(&plain), SimSource::CacheHit);
    assert_eq!(outcome(&profiled), SimSource::Computed);

    for bypass in [
        variant(|c| c.trace_requests = true),
        variant(|c| c.sanitize = Some(true)),
    ] {
        computed.store(0, Ordering::SeqCst);
        let engine = Engine::with_workers(1);
        assert_eq!(run(&engine, &bypass).0, reference);
        assert_eq!(counts(&engine), (1, 0, 0), "no lookup");
        run(&engine, &plain);
        assert_eq!(
            counts(&engine),
            (2, 0, 1),
            "no insert: the plain run misses"
        );
        run(&engine, &bypass);
        assert_eq!(counts(&engine), (3, 0, 1), "no read: the entry is ignored");
    }
}

/// A failing candidate must surface as a `SweepError` naming its
/// `(n, m)` setting — not an opaque joined-thread panic.
#[test]
fn sweep_error_names_the_failing_candidate() {
    let kernel = mv_kernel();
    let launch = LaunchConfig::d1(1, 256);
    let cfg = contended_config();
    let err = sweep_on(
        &Engine::with_workers(2),
        "boom",
        std::slice::from_ref(&kernel),
        launch,
        &cfg,
        |_: &[Kernel], _: &GpuConfig| -> LaunchStats { panic!("validation failed: 3 vs 4") },
    )
    .expect_err("sweep must fail");
    // Candidates are reported in sweep order; the first is (n=1, m=0).
    assert_eq!((err.n, err.m), (1, 0));
    let msg = err.to_string();
    assert!(
        msg.contains("(n=1, m=0)"),
        "error must name the candidate: {msg}"
    );
    assert!(
        msg.contains("validation failed"),
        "error must carry the cause: {msg}"
    );
}

/// A cancelled single-flight leader must not publish its cancellation to
/// coalesced followers: it retires the slot, a waiting follower
/// re-contends, becomes the new leader, and computes under its own token
/// — no spurious deadline-exceeded for work never attempted on its
/// behalf.
#[test]
fn cancelled_leader_retires_slot_and_follower_recontends() {
    use catt_core::engine::{JobError, SimSource};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let engine = Engine::new();
    let kernel = mv_kernel();
    let launch = LaunchConfig::d1(1, 256);
    let cfg = contended_config();
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();

    std::thread::scope(|scope| {
        // Leader: signals once it is computing, then blocks until the
        // test releases it — and reports itself cancelled (the shape of
        // a deadline/drain token firing mid-simulation).
        let (engine_ref, kernel_ref, cfg_ref) = (&engine, &kernel, &cfg);
        let leader = scope.spawn(move || {
            engine_ref.sim_app_shared(
                "retire",
                key_of("retire", kernel_ref, launch, cfg_ref),
                cfg_ref,
                move || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Err(JobError::fatal("retire", "cancelled by its own deadline")
                        .with_code("cancelled"))
                },
            )
        });
        started_rx.recv().unwrap();
        // Follower: same digest, generous deadline of its own.
        let follower = scope.spawn(|| {
            let mut with_deadline = cfg.clone();
            with_deadline.cancel = Some(CancelToken::with_deadline(
                Instant::now() + Duration::from_secs(60),
            ));
            engine.sim_app_shared(
                "retire",
                key_of("retire", &kernel, launch, &cfg),
                &with_deadline,
                || Ok(simulate(std::slice::from_ref(&kernel), launch, &cfg)),
            )
        });
        // Give the follower a moment to park on the leader's slot, then
        // cancel the leader. (If it has not parked yet it simply finds
        // the retired slot gone and leads directly — same outcome.)
        std::thread::sleep(Duration::from_millis(50));
        release_tx.send(()).unwrap();

        let leader_result = leader.join().unwrap();
        assert_eq!(
            leader_result.unwrap_err().code,
            Some("cancelled"),
            "the leader keeps its own cancellation"
        );
        let follower_result = follower.join().unwrap().expect(
            "the follower must re-contend and compute, not inherit the leader's cancellation",
        );
        assert_eq!(follower_result.source, SimSource::Computed);
        assert!(follower_result.stats.cycles > 0);
    });
}

/// A follower waits on an identical in-flight simulation only until the
/// deadline of its own cancel token: it gets code `"deadline"` near that
/// deadline, without computing, and the leader's result is unaffected.
#[test]
fn follower_gives_up_at_its_token_deadline() {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let engine = Engine::new();
    let kernel = mv_kernel();
    let launch = LaunchConfig::d1(1, 256);
    let cfg = contended_config();
    let key = key_of("follow", &kernel, launch, &cfg);
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();

    std::thread::scope(|scope| {
        let (engine_ref, kernel_ref, cfg_ref) = (&engine, &kernel, &cfg);
        // Leader: holds the slot until the test releases it, or for 5 s,
        // so a follower that ignored its deadline fails instead of hanging.
        let leader = scope.spawn(move || {
            engine_ref.sim_app_shared("follow", key, cfg_ref, move || {
                started_tx.send(()).unwrap();
                let _ = release_rx.recv_timeout(Duration::from_secs(5));
                Ok(simulate(std::slice::from_ref(kernel_ref), launch, cfg_ref))
            })
        });
        // The leader's slot exists once its compute has started, so the
        // follower below parks on it.
        started_rx.recv().unwrap();
        let mut follower_cfg = cfg.clone();
        let wait = Duration::from_millis(50);
        let start = Instant::now();
        follower_cfg.cancel = Some(CancelToken::with_deadline(start + wait));
        let follower = engine.sim_app_shared("follow", key, &follower_cfg, || {
            panic!("a follower never computes while the leader holds the slot")
        });
        let waited = start.elapsed();
        let error = follower.expect_err("the follower gives up at its deadline");
        assert_eq!(error.code, Some("deadline"), "{error}");
        assert!(
            waited >= wait && waited < wait + Duration::from_secs(5),
            "the follower waited {waited:?} against a {wait:?} deadline"
        );

        release_tx.send(()).unwrap();
        let led = leader.join().unwrap().expect("the leader completes");
        assert_eq!(led.source, SimSource::Computed);
        let reference = simulate(std::slice::from_ref(&kernel), launch, &cfg);
        assert_eq!(format!("{:?}", led.stats), format!("{reference:?}"));
    });
    assert_eq!(
        engine.cache_counters().coalesced,
        0,
        "nothing was coalesced"
    );
}
