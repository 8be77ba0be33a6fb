//! Chaos integration tests: the serve daemon under a fault plan (the
//! `CATT_FAULT_PLAN` grammar). Every test in this binary runs with the
//! SAME plan — `fuel=2000,delay-job=20` — armed on its engine.
//!
//! `fuel=2000` makes cache-straining kernels exhaust their cycle budget
//! (a fatal simulation fault), `delay-job=20` injects deterministic
//! latency. Under that weather the contracts still hold: every
//! submission ends in exactly one typed response, repeated faults trip
//! the tenant's breaker (and a cooldown half-opens it), and healthy
//! kernels that fit the budget keep completing.

use catt_core::engine::Engine;
use catt_core::FaultPlan;
use catt_serve::proto::{ErrorKind, Response, SubmitRequest};
use catt_serve::server::{ServeConfig, Server};
use std::sync::mpsc;
use std::time::Duration;

/// An engine under the suite's chaos plan.
fn chaos_engine() -> Engine {
    Engine::new().with_fault_plan(FaultPlan::parse("fuel=2000,delay-job=20"))
}

/// Exhausts any 2000-cycle budget: one warp grinds a long loop while the
/// other parks at the barrier (the guardrails suite's starvation shape).
const STARVING_KERNEL: &str = "__global__ void starve(float *a, int n) {
         int w = threadIdx.x / 32;
         if (w == 0) {
             for (int j = 0; j < n; j++) { a[j % 32] += 1.0; }
         }
         __syncthreads();
         a[threadIdx.x] = 2.0;
     }";

/// Small enough to finish inside 2000 cycles even under chaos; `tag`
/// varies the content digest.
fn tiny_kernel(tag: u32) -> String {
    format!(
        "__global__ void t(float *a, int n) {{
             int i = blockIdx.x * blockDim.x + threadIdx.x;
             if (i < n) {{ a[i] = a[i] + {tag}.0f; }}
         }}"
    )
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_high_water: 64,
        quota_rate: u64::MAX / 4,
        quota_burst: u64::MAX / 4,
        default_deadline_ms: 30_000,
        breaker_threshold: 2,
        breaker_cooldown_ms: 200,
        drain_grace_ms: 5_000,
        quantum: 1 << 26,
    }
}

fn starve_req(tenant: &str) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_string(),
        kernel_source: STARVING_KERNEL.to_string(),
        name: String::new(),
        grid: 1,
        block: 64,
        args: "f:64,si:1000000".to_string(),
        deadline_ms: Some(20_000),
        weight: 1,
        emit: false,
    }
}

fn tiny_req(tenant: &str, tag: u32) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_string(),
        kernel_source: tiny_kernel(tag),
        name: String::new(),
        grid: 1,
        block: 32,
        args: "f:32,si:32".to_string(),
        deadline_ms: Some(20_000),
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

/// Repeated fuel-exhaustion faults open the tenant's breaker; after the
/// cooldown exactly one probe is admitted (half-open), and its failure
/// re-opens the breaker.
#[test]
fn breaker_trips_then_half_opens_one_probe() {
    let server = Server::new(
        ServeConfig {
            workers: 1,
            ..config()
        },
        chaos_engine(),
    );
    let one = |label: &str| {
        let (tx, rx) = mpsc::channel();
        server.submit(label.to_string(), starve_req("chaos-tenant"), tx);
        recv(&rx, label)
    };
    assert_eq!(error_kind(&one("f1")), Some(ErrorKind::Fault));
    assert_eq!(error_kind(&one("f2")), Some(ErrorKind::Fault));
    // Threshold reached: shed at admission with a retry hint, no quota
    // charged, no simulation run.
    let shed = one("f3");
    assert_eq!(error_kind(&shed), Some(ErrorKind::CircuitOpen));
    if let Response::Error(e) = &shed {
        assert!(e.retry_after_ms.is_some(), "open breaker must hint retry");
    }
    // Cooldown elapses: one probe goes through (and faults again)...
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(error_kind(&one("probe")), Some(ErrorKind::Fault));
    // ...which re-opens the breaker immediately.
    assert_eq!(error_kind(&one("f4")), Some(ErrorKind::CircuitOpen));
    server.drain();
}

/// A faulting tenant's breaker does not leak onto other tenants, and
/// kernels that fit the chaotic fuel budget still complete.
#[test]
fn chaos_is_contained_per_tenant() {
    let server = Server::new(config(), chaos_engine());
    // Trip tenant `noisy`'s breaker with serial faults.
    for i in 0..2 {
        let (tx, rx) = mpsc::channel();
        server.submit(format!("n{i}"), starve_req("noisy"), tx);
        assert_eq!(
            error_kind(&recv(&rx, "noisy fault")),
            Some(ErrorKind::Fault)
        );
    }
    let (tx, rx) = mpsc::channel();
    server.submit("n2".into(), starve_req("noisy"), tx);
    assert_eq!(
        error_kind(&recv(&rx, "noisy post-trip")),
        Some(ErrorKind::CircuitOpen)
    );
    // A healthy tenant's small kernel still completes under the plan.
    let (tx, rx) = mpsc::channel();
    server.submit("h0".into(), tiny_req("healthy", 1), tx);
    assert!(
        matches!(recv(&rx, "healthy tenant"), Response::Result(_)),
        "another tenant's faults must not shed healthy work"
    );
    server.drain();
}

/// The zero-hung / zero-lost contract under chaos: a mixed burst of
/// starving and healthy submissions across tenants gets exactly one
/// typed response each.
#[test]
fn every_chaotic_submission_gets_one_typed_response() {
    let server = Server::new(config(), chaos_engine());
    let receivers: Vec<_> = (0..12)
        .map(|i| {
            let (tx, rx) = mpsc::channel();
            let tenant = format!("t{}", i % 3);
            let req = if i % 2 == 0 {
                starve_req(&tenant)
            } else {
                tiny_req(&tenant, i as u32)
            };
            server.submit(format!("c{i}"), req, tx);
            rx
        })
        .collect();
    let mut ok = 0;
    let mut typed_errors = 0;
    for (i, rx) in receivers.iter().enumerate() {
        match recv(rx, &format!("chaos burst c{i}")) {
            Response::Result(_) => ok += 1,
            Response::Error(_) => typed_errors += 1,
            Response::Info { .. } => panic!("submit answered with info"),
        }
    }
    assert_eq!(ok + typed_errors, 12, "exactly one response per submission");
    assert!(ok >= 1, "healthy kernels should complete under the plan");
    assert!(
        typed_errors >= 1,
        "starving kernels should fault under fuel=2000"
    );
    server.drain();
}

/// Malformed-source clients under the same chaos plan: every submission
/// still finishes (zero hangs), every compile rejection is typed
/// `compile-error`, and every one carries ≥1 structured diagnostic with
/// a stable code and an in-bounds span — on the wire, through a full
/// render/parse round trip.
#[test]
fn malformed_sources_are_rejected_with_spanned_diagnostics() {
    let server = Server::new(config(), chaos_engine());
    let malformed: Vec<String> = vec![
        // Statement-level garbage: two separate errors to recover past.
        "__global__ void k(float *a, int n) { a[0] = ; int x = @; }".to_string(),
        // Truncated mid-body.
        "__global__ void k(float *a, int n) { for (int i = 0; i < n; i++) {".to_string(),
        // Unterminated comment.
        "__global__ void k(float *a) { /* never closed".to_string(),
        // Lexer garbage bytes.
        "__global__ void k(float *a) { a[0] = 1.0; } \u{1}\u{2}$$".to_string(),
        // Parses fine, but the requested kernel name is absent.
        tiny_kernel(7),
    ];
    let receivers: Vec<_> = malformed
        .iter()
        .enumerate()
        .map(|(i, src)| {
            let (tx, rx) = mpsc::channel();
            server.submit(
                format!("m{i}"),
                SubmitRequest {
                    tenant: "mangler".to_string(),
                    kernel_source: src.clone(),
                    // The last source is valid but we ask for a kernel
                    // that is not there.
                    name: if i == 4 {
                        "ghost".to_string()
                    } else {
                        String::new()
                    },
                    grid: 1,
                    block: 32,
                    args: String::new(),
                    deadline_ms: Some(20_000),
                    weight: 1,
                    emit: false,
                },
                tx,
            );
            rx
        })
        .collect();
    for (i, rx) in receivers.iter().enumerate() {
        let resp = recv(rx, &format!("malformed m{i}"));
        // Round-trip through the NDJSON wire form: the structured
        // diagnostics must survive serialization.
        let wire = resp.render();
        let back = catt_serve::proto::parse_response(&wire)
            .unwrap_or_else(|e| panic!("m{i}: response line unparseable: {e}\n{wire}"));
        let Response::Error(e) = back else {
            panic!("m{i}: malformed source must be rejected, got {wire}");
        };
        assert_eq!(e.kind, ErrorKind::CompileError, "m{i}: {}", e.message);
        assert!(
            !e.diagnostics.is_empty(),
            "m{i}: rejection must carry structured diagnostics: {}",
            e.message
        );
        for d in &e.diagnostics {
            assert!(!d.code.as_str().is_empty(), "m{i}: stable code");
            if let Some(span) = d.span {
                assert!(
                    span.in_bounds(malformed[i].len()),
                    "m{i}: span {}..{} out of bounds for {}-byte source",
                    span.start,
                    span.end,
                    malformed[i].len()
                );
            }
        }
        // At least one diagnostic pins a source location.
        assert!(
            e.diagnostics.iter().any(|d| d.span.is_some()),
            "m{i}: at least one diagnostic must carry a span"
        );
    }
    server.drain();
}

/// A breaker opened by fuel faults closes when its half-open probe is
/// answered from the cache at admission: the answer books the success a
/// worker would, or the breaker would stay half-open with its one probe
/// spent.
#[test]
fn a_probe_answered_from_the_cache_closes_the_breaker() {
    let server = Server::new(
        ServeConfig {
            workers: 1,
            ..config()
        },
        chaos_engine(),
    );
    let one = |label: &str, req: SubmitRequest| {
        let (tx, rx) = mpsc::channel();
        server.submit(label.to_string(), req, tx);
        recv(&rx, label)
    };
    assert!(matches!(
        one("warm", tiny_req("probe-tenant", 77)),
        Response::Result(_)
    ));
    assert_eq!(
        error_kind(&one("f1", starve_req("probe-tenant"))),
        Some(ErrorKind::Fault)
    );
    assert_eq!(
        error_kind(&one("f2", starve_req("probe-tenant"))),
        Some(ErrorKind::Fault)
    );
    assert_eq!(
        error_kind(&one("open", tiny_req("probe-tenant", 77))),
        Some(ErrorKind::CircuitOpen)
    );
    std::thread::sleep(Duration::from_millis(250));
    match one("probe", tiny_req("probe-tenant", 77)) {
        Response::Result(b) => assert_eq!(b.source, "cache"),
        other => panic!("want the probe answered from the cache, got {other:?}"),
    }
    for i in 0..3 {
        let label = format!("closed-{i}");
        let reply = one(&label, tiny_req("probe-tenant", 77));
        assert!(
            matches!(reply, Response::Result(_)),
            "{label}: the breaker must be closed, got {reply:?}"
        );
    }
    server.drain();
}
