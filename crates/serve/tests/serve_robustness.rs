//! End-to-end robustness suite for the serve daemon (DESIGN.md
//! "catt-serve: service architecture & failure model"). Each scenario
//! drives a real [`Server`] — worker pool, reaper, and all — and checks
//! the contract `serve_load.rs` enforces at scale: every submission
//! ends in exactly one typed response, and overload, deadlines, faults,
//! and shutdown all degrade into *typed* outcomes, never hangs.
//!
//! Chaos comes from the engine's fault plan (the same `CATT_FAULT_PLAN`
//! grammar, injected via [`Engine::with_fault_plan`] so parallel tests
//! don't race on process environment): `delay-job=<ms>` makes workers
//! slow enough to observe queueing, shedding, and cancellation
//! deterministically.

use catt_core::engine::Engine;
use catt_core::fault::FaultPlan;
use catt_serve::proto::{ErrorKind, Response, SubmitRequest};
use catt_serve::server::{fuel_cost, ServeConfig, Server};
use std::sync::mpsc;
use std::time::Duration;

/// A small, valid kernel; `tag` varies a constant so tests get distinct
/// content digests (no cross-test cache or single-flight interference —
/// every test also builds its own engine).
fn kernel(tag: u32) -> String {
    format!(
        "__global__ void k(float *a, float *b, int n) {{
             int i = blockIdx.x * blockDim.x + threadIdx.x;
             if (i < n) {{ b[i] = a[i] * {tag}.0f; }}
         }}"
    )
}

/// Generous baseline: big quotas and queue so individual tests tighten
/// only the knob they exercise.
fn base_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_high_water: 64,
        quota_rate: u64::MAX / 4,
        quota_burst: u64::MAX / 4,
        default_deadline_ms: 30_000,
        breaker_threshold: 100,
        breaker_cooldown_ms: 1_000,
        drain_grace_ms: 5_000,
        quantum: 1 << 26,
    }
}

fn server_with(config: ServeConfig, fault_plan: &str) -> Server {
    let engine = Engine::new().with_fault_plan(FaultPlan::parse(fault_plan));
    Server::new(config, engine)
}

fn req(tenant: &str, source: &str, deadline_ms: Option<u64>) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_string(),
        kernel_source: source.to_string(),
        name: String::new(),
        grid: 2,
        block: 32,
        args: "f:64,f:64,si:64".to_string(),
        deadline_ms,
        weight: 1,
        emit: false,
    }
}

fn recv(rx: &mpsc::Receiver<Response>, what: &str) -> Response {
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("no response within 60s for {what} — a request hung"))
}

fn error_kind(resp: &Response) -> Option<ErrorKind> {
    match resp {
        Response::Error(e) => Some(e.kind),
        _ => None,
    }
}

/// Overload: with one slow worker and a tiny queue, a burst sheds with
/// `overloaded` + retry-after — and still answers every submission.
#[test]
fn overload_sheds_typed_and_answers_every_submission() {
    let server = server_with(
        ServeConfig {
            workers: 1,
            queue_high_water: 2,
            ..base_config()
        },
        "delay-job=100",
    );
    let src = kernel(1);
    let receivers: Vec<_> = (0..10)
        .map(|i| {
            let (tx, rx) = mpsc::channel();
            server.submit(format!("r{i}"), req("t", &src, Some(20_000)), tx);
            rx
        })
        .collect();
    let responses: Vec<Response> = receivers
        .iter()
        .enumerate()
        .map(|(i, rx)| recv(rx, &format!("burst request r{i}")))
        .collect();
    assert_eq!(responses.len(), 10, "every submission answered");
    let shed = responses
        .iter()
        .filter(|r| error_kind(r) == Some(ErrorKind::Overloaded))
        .count();
    assert!(
        shed >= 4,
        "tiny queue must shed most of a 10-burst, shed {shed}"
    );
    for r in &responses {
        if let Response::Error(e) = r {
            if e.kind == ErrorKind::Overloaded {
                assert!(
                    e.retry_after_ms.is_some(),
                    "overload shed must carry retry-after backpressure"
                );
            }
        }
    }
    let ok = responses
        .iter()
        .filter(|r| matches!(r, Response::Result(_)))
        .count();
    assert!(
        ok >= 1,
        "the worker should complete the admitted head of the burst"
    );
    server.drain();
}

/// A request whose deadline lapses while queued is answered
/// `deadline-exceeded` without ever simulating.
#[test]
fn deadline_expired_in_queue_is_never_simulated() {
    let server = server_with(
        ServeConfig {
            workers: 1,
            ..base_config()
        },
        "delay-job=150",
    );
    let (tx_a, rx_a) = mpsc::channel();
    server.submit("a".into(), req("t", &kernel(2), Some(20_000)), tx_a);
    let (tx_b, rx_b) = mpsc::channel();
    server.submit("b".into(), req("t", &kernel(3), Some(1)), tx_b);

    let b = recv(&rx_b, "queued request with 1ms deadline");
    match b {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::DeadlineExceeded);
            assert!(e.message.contains("queued"), "{}", e.message);
        }
        other => panic!("want deadline-exceeded, got {other:?}"),
    }
    assert!(
        matches!(recv(&rx_a, "head-of-line request"), Response::Result(_)),
        "the in-deadline request still completes"
    );
    server.drain();
}

/// A running simulation is cancelled by the reaper at its deadline —
/// cancelled, not completed late.
#[test]
fn running_simulation_is_cancelled_at_its_deadline() {
    let server = server_with(
        ServeConfig {
            workers: 1,
            ..base_config()
        },
        "delay-job=150",
    );
    let (tx, rx) = mpsc::channel();
    server.submit("slow".into(), req("t", &kernel(4), Some(30)), tx);
    let resp = recv(&rx, "30ms-deadline request against a 150ms-delay engine");
    assert_eq!(
        error_kind(&resp),
        Some(ErrorKind::DeadlineExceeded),
        "got {resp:?}"
    );
    server.drain();
}

/// Quota: a burst-sized first request drains the tenant's bucket; the
/// immediate second request sheds `quota-exhausted` with a refill hint.
#[test]
fn quota_exhaustion_sheds_with_retry_after() {
    let r1 = req("quota-tenant", &kernel(5), Some(20_000));
    let cost = fuel_cost(&r1);
    let server = server_with(
        ServeConfig {
            quota_burst: cost,
            quota_rate: 1_000,
            ..base_config()
        },
        "",
    );
    let (tx1, rx1) = mpsc::channel();
    server.submit("q1".into(), r1, tx1);
    let (tx2, rx2) = mpsc::channel();
    server.submit(
        "q2".into(),
        req("quota-tenant", &kernel(6), Some(20_000)),
        tx2,
    );

    let second = recv(&rx2, "over-quota request");
    match second {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::QuotaExhausted);
            assert!(e.retry_after_ms.unwrap_or(0) > 0, "refill hint missing");
        }
        other => panic!("want quota-exhausted, got {other:?}"),
    }
    assert!(
        matches!(recv(&rx1, "in-quota request"), Response::Result(_)),
        "the first request fits the burst"
    );
    server.drain();
}

/// An overload shed must not charge the tenant's quota: a submission the
/// server never accepted is free, so once the backlog clears the tenant
/// still has the fuel the shed request would have cost.
#[test]
fn overload_shed_does_not_charge_quota() {
    let probe = req("ot", &kernel(20), Some(20_000));
    let cost = fuel_cost(&probe);
    let server = server_with(
        ServeConfig {
            workers: 1,
            queue_high_water: 1,
            // Exactly three requests' worth of fuel, negligible refill:
            // r1 + r2 admitted (2×cost charged), r3 shed as overloaded
            // (must charge nothing), r4 must still fit the bucket.
            quota_burst: 3 * cost,
            quota_rate: 1,
            ..base_config()
        },
        "delay-job=100",
    );
    let (tx1, rx1) = mpsc::channel();
    server.submit("r1".into(), req("ot", &kernel(20), Some(20_000)), tx1);
    // Let the worker pick r1 up so r2 queues and r3 overflows.
    std::thread::sleep(Duration::from_millis(40));
    let (tx2, rx2) = mpsc::channel();
    server.submit("r2".into(), req("ot", &kernel(21), Some(20_000)), tx2);
    let (tx3, rx3) = mpsc::channel();
    server.submit("r3".into(), req("ot", &kernel(22), Some(20_000)), tx3);
    assert_eq!(
        error_kind(&recv(&rx3, "overflow request")),
        Some(ErrorKind::Overloaded),
        "r3 must shed at the full queue"
    );
    // Drain the backlog, then spend the third request's worth of fuel.
    assert!(matches!(recv(&rx1, "r1"), Response::Result(_)));
    assert!(matches!(recv(&rx2, "r2"), Response::Result(_)));
    let (tx4, rx4) = mpsc::channel();
    server.submit("r4".into(), req("ot", &kernel(23), Some(20_000)), tx4);
    let fourth = recv(&rx4, "post-overload request");
    assert!(
        matches!(fourth, Response::Result(_)),
        "the overloaded shed must not have drained the bucket, got {fourth:?}"
    );
    server.drain();
}

/// A half-open probe that is shed by a later admission gate (queue full)
/// must not consume the probe slot: the breaker stays open and the next
/// submission after the backlog clears still gets the probe — it is never
/// wedged half-open with no probe in flight.
#[test]
fn shed_probe_does_not_wedge_the_breaker() {
    let server = server_with(
        ServeConfig {
            workers: 1,
            queue_high_water: 1,
            breaker_threshold: 1,
            breaker_cooldown_ms: 100,
            ..base_config()
        },
        // Job 0 (the breaker-tenant's first request) panics; every job is
        // slow enough to observe queue overflow deterministically.
        "panic-job=0,delay-job=100",
    );
    // Trip the breaker with one fault.
    let (tx, rx) = mpsc::channel();
    server.submit("f1".into(), req("bt", &kernel(30), Some(20_000)), tx);
    assert_eq!(
        error_kind(&recv(&rx, "injected fault")),
        Some(ErrorKind::Fault)
    );
    let (tx, rx) = mpsc::channel();
    server.submit("f2".into(), req("bt", &kernel(31), Some(20_000)), tx);
    assert_eq!(
        error_kind(&recv(&rx, "open-breaker submission")),
        Some(ErrorKind::CircuitOpen)
    );
    // Cooldown expires; fill the queue from another tenant so the probe
    // is shed by the depth gate.
    std::thread::sleep(Duration::from_millis(150));
    let (tx_b1, rx_b1) = mpsc::channel();
    server.submit("b1".into(), req("other", &kernel(32), Some(20_000)), tx_b1);
    std::thread::sleep(Duration::from_millis(40));
    let (tx_b2, rx_b2) = mpsc::channel();
    server.submit("b2".into(), req("other", &kernel(33), Some(20_000)), tx_b2);
    let (tx, rx) = mpsc::channel();
    server.submit("probe1".into(), req("bt", &kernel(34), Some(20_000)), tx);
    assert_eq!(
        error_kind(&recv(&rx, "probe into a full queue")),
        Some(ErrorKind::Overloaded),
        "the probe past its cooldown reaches the depth gate, not circuit-open"
    );
    // Backlog clears; the probe slot must still be available.
    assert!(matches!(recv(&rx_b1, "blocker b1"), Response::Result(_)));
    assert!(matches!(recv(&rx_b2, "blocker b2"), Response::Result(_)));
    let (tx, rx) = mpsc::channel();
    server.submit("probe2".into(), req("bt", &kernel(35), Some(20_000)), tx);
    let resp = recv(&rx, "retried probe");
    assert!(
        matches!(resp, Response::Result(_)),
        "the shed probe must not have consumed the half-open slot, got {resp:?}"
    );
    server.drain();
}

/// Identical submissions from different tenants coalesce onto one
/// simulation (single-flight) or hit its cached result — exactly one
/// actually computes.
#[test]
fn identical_submissions_coalesce_to_one_simulation() {
    let server = server_with(base_config(), "delay-job=100");
    let src = kernel(7);
    let (tx1, rx1) = mpsc::channel();
    server.submit("dup1".into(), req("tenant-a", &src, Some(20_000)), tx1);
    let (tx2, rx2) = mpsc::channel();
    server.submit("dup2".into(), req("tenant-b", &src, Some(20_000)), tx2);

    let first = recv(&rx1, "dup submission 1");
    let second = recv(&rx2, "dup submission 2");
    let bodies: Vec<_> = [first, second]
        .into_iter()
        .map(|r| match r {
            Response::Result(b) => b,
            other => panic!("want ok, got {other:?}"),
        })
        .collect();
    let computed = bodies.iter().filter(|b| b.source == "computed").count();
    assert_eq!(computed, 1, "exactly one of two identical jobs computes");
    assert!(
        bodies
            .iter()
            .any(|b| b.source == "coalesced" || b.source == "cache"),
        "the other is coalesced (in flight) or served from cache"
    );
    assert_eq!(bodies[0].cycles, bodies[1].cycles, "same result either way");
    server.drain();
}

/// Graceful drain: a short grace period, then queued jobs are answered
/// (`deadline-exceeded`), running simulations cancelled, the simcache
/// flushed uncorrupted — and later submissions shed as draining.
#[test]
fn graceful_drain_answers_backlog_and_keeps_cache_valid() {
    let dir = std::env::temp_dir().join(format!("catt-serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::persistent(&dir).with_fault_plan(FaultPlan::parse("delay-job=100"));
    let server = Server::new(
        ServeConfig {
            workers: 1,
            drain_grace_ms: 50,
            ..base_config()
        },
        engine,
    );
    let receivers: Vec<_> = (0..5)
        .map(|i| {
            let (tx, rx) = mpsc::channel();
            server.submit(format!("d{i}"), req("t", &kernel(8 + i), Some(20_000)), tx);
            rx
        })
        .collect();
    server.drain();
    for (i, rx) in receivers.iter().enumerate() {
        let resp = rx
            .try_recv()
            .unwrap_or_else(|_| panic!("request d{i} unanswered after drain returned"));
        assert!(
            matches!(resp, Response::Result(_))
                || error_kind(&resp) == Some(ErrorKind::DeadlineExceeded),
            "drain must finish or cancel d{i}, got {resp:?}"
        );
    }
    // Post-drain submissions shed immediately with the draining message.
    let (tx, rx) = mpsc::channel();
    server.submit("late".into(), req("t", &kernel(99), None), tx);
    match recv(&rx, "post-drain submission") {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::Overloaded);
            assert!(e.message.contains("draining"), "{}", e.message);
        }
        other => panic!("want overloaded/draining, got {other:?}"),
    }
    // The flushed cache file loads cleanly in a fresh engine.
    let fresh = Engine::persistent(&dir);
    assert_eq!(
        fresh.cache_counters().skipped,
        0,
        "drain left corrupt lines in the simcache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The NDJSON front door: malformed lines, bad ops, probes, and
/// shutdown all produce exactly one typed line each.
#[test]
fn protocol_lines_always_get_one_typed_reply() {
    let server = server_with(base_config(), "");
    let (tx, rx) = mpsc::channel();

    assert!(server.handle_line(r#"{"id":"p1","op":"ping"}"#, &tx));
    let resp = recv(&rx, "ping");
    assert!(matches!(resp, Response::Info { ref id, .. } if id == "p1"));

    // Malformed JSON still correlates via the recovered id.
    assert!(server.handle_line(r#"{"id":"bad1", not json"#, &tx));
    match recv(&rx, "malformed line") {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::BadRequest);
            assert_eq!(e.id, "bad1");
        }
        other => panic!("want bad-request, got {other:?}"),
    }

    // A kernel name missing from the unit is a compile error, not a hang.
    let line = format!(
        r#"{{"id":"miss","kernel":"{}","name":"nope","grid":1,"block":32}}"#,
        "__global__ void k(float *a, int n) { }".replace('"', "\\\"")
    );
    assert!(server.handle_line(&line, &tx));
    match recv(&rx, "unknown kernel name") {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::CompileError),
        other => panic!("want compile-error, got {other:?}"),
    }

    assert!(server.handle_line(r#"{"id":"s1","op":"stats"}"#, &tx));
    assert!(matches!(recv(&rx, "stats"), Response::Info { .. }));

    // Shutdown drains and tells the transport to stop reading.
    assert!(!server.handle_line(r#"{"id":"bye","op":"shutdown"}"#, &tx));
    assert!(matches!(recv(&rx, "shutdown ack"), Response::Info { .. }));
    assert!(server.is_draining());
}
