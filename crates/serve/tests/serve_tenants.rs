//! The tenant table is bounded (DESIGN.md §3g). Past `MAX_TENANTS`
//! names, a new name first drops every idle tenant (no job queued or
//! running, a full bucket, a breaker not shedding); if none is, the new
//! name is shed `quota-exhausted` with a retry-after. Existing tenants are
//! never turned away by the cap, a tenant whose job is still held by a
//! `delay-job` fault plan or whose breaker is open is never dropped, and
//! one whose last job faulted is dropped once idle.

use catt_core::engine::Engine;
use catt_core::fault::FaultPlan;
use catt_diag::json::Json;
use catt_serve::proto::{ErrorKind, Response, SubmitRequest};
use catt_serve::server::{fuel_cost, ServeConfig, Server, MAX_TENANTS};
use std::sync::mpsc;
use std::time::Duration;

/// The serve smoke batch's `ok-1` kernel: a miss the held job simulates.
const SMOKE: &str = "__global__ void k(float *a, float *b, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { b[i] = a[i] * 2.0f; } }";

/// A parse error: admitted, charged and answered `compile-error` at
/// admission, so its tenant holds no job.
const BAD: &str = "__global__ void k(float *a, float *b, int n) { b[0] = ; }";

/// How long the fault plan holds each simulation: far longer than
/// filling the table takes.
const HOLD: &str = "delay-job=2000";

fn submit(tenant: &str, source: &str) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_string(),
        kernel_source: source.to_string(),
        name: String::new(),
        grid: 2,
        block: 32,
        args: "f:64,f:64,si:64".to_string(),
        deadline_ms: None,
        weight: 1,
        emit: false,
    }
}

/// A bucket holds two submissions' fuel.
fn server(quota_rate: u64, plan: &str) -> Server {
    let cost = fuel_cost(&submit("t", SMOKE));
    let config = ServeConfig {
        quota_rate,
        quota_burst: 2 * cost,
        ..ServeConfig::default()
    };
    Server::new(
        config,
        Engine::new().with_fault_plan(FaultPlan::parse(plan)),
    )
}

/// Submit without waiting: the receiver gets the one reply.
fn send(server: &Server, tenant: &str, source: &str) -> mpsc::Receiver<Response> {
    let (tx, rx) = mpsc::channel();
    server.submit(tenant.to_string(), submit(tenant, source), tx);
    rx
}

fn reply(rx: mpsc::Receiver<Response>) -> Response {
    rx.recv_timeout(Duration::from_secs(60)).expect("one reply")
}

fn error_kind(response: &Response) -> ErrorKind {
    match response {
        Response::Error(e) => e.kind,
        other => panic!("want an error, got {other:?}"),
    }
}

fn stat(server: &Server, name: &str) -> u64 {
    let stats = server.stats_json();
    stats.get(name).and_then(Json::as_u64).expect(name)
}

/// `held` queues a job the fault plan holds; `t1` … `t{MAX_TENANTS - 1}`
/// are each answered `compile-error`, which spends from their buckets.
fn fill(server: &Server) -> mpsc::Receiver<Response> {
    let held = send(server, "held", SMOKE);
    for i in 1..MAX_TENANTS {
        let answered = reply(send(server, &format!("t{i}"), BAD));
        assert_eq!(error_kind(&answered), ErrorKind::CompileError, "t{i}");
    }
    assert_eq!(stat(server, "tenants"), MAX_TENANTS as u64);
    held
}

#[test]
fn a_full_table_of_spent_tenants_sheds_a_new_name_and_admits_known_ones() {
    // A bucket refills at one fuel unit a second: no tenant is ever fresh
    // again, so none can be dropped.
    let server = server(1, HOLD);
    let held = fill(&server);
    let admitted = stat(&server, "admitted");

    let shed = reply(send(&server, "newcomer", BAD));
    assert_eq!(error_kind(&shed), ErrorKind::QuotaExhausted);
    let Response::Error(e) = &shed else {
        unreachable!()
    };
    assert!(e.retry_after_ms.is_some_and(|ms| ms > 0), "{e:?}");
    assert_eq!(stat(&server, "shed_quota"), 1);
    assert_eq!(stat(&server, "tenants"), MAX_TENANTS as u64);

    // Known tenants pass: each can still afford one request.
    let known = reply(send(&server, "t1", BAD));
    assert_eq!(error_kind(&known), ErrorKind::CompileError);
    let again = reply(send(&server, "held", BAD));
    assert_eq!(error_kind(&again), ErrorKind::CompileError);
    assert_eq!(stat(&server, "admitted"), admitted + 2);

    let Response::Result(done) = reply(held) else {
        panic!("the held job must succeed")
    };
    assert_eq!(done.source, "computed");
    assert_eq!(stat(&server, "tenants"), MAX_TENANTS as u64);
    server.drain();
}

#[test]
fn a_new_name_drops_fresh_tenants_but_never_one_with_a_job() {
    // Buckets refill at once: every tenant without a job is fresh again
    // a millisecond after its answer.
    let server = server(u64::MAX / 4, HOLD);
    let held = fill(&server);
    std::thread::sleep(Duration::from_millis(5));

    let admitted = reply(send(&server, "newcomer", BAD));
    assert_eq!(error_kind(&admitted), ErrorKind::CompileError);
    assert_eq!(stat(&server, "tenants"), 2, "`held` and `newcomer` remain");
    assert_eq!(stat(&server, "shed_quota"), 0);

    let Response::Result(done) = reply(held) else {
        panic!("the held job must succeed")
    };
    assert_eq!(done.source, "computed");
    server.drain();
}

#[test]
fn tenants_whose_last_job_faulted_are_dropped_once_idle() {
    // A bucket refills in 100 ms, and no simulation finishes within the
    // plan's fuel. One fault each leaves every breaker closed with a
    // fault counted, which only a success would clear.
    let cost = fuel_cost(&submit("t", SMOKE));
    let server = server(20 * cost, "fuel=100");
    for i in 1..MAX_TENANTS {
        let faulted = reply(send(&server, &format!("t{i}"), SMOKE));
        assert_eq!(error_kind(&faulted), ErrorKind::Fault, "t{i}");
    }
    // `open` faults until its breaker opens for its 1 s cooldown, each
    // time with a bucket refilled enough to pay.
    let threshold = ServeConfig::default().breaker_threshold;
    for _ in 0..threshold {
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(
            error_kind(&reply(send(&server, "open", SMOKE))),
            ErrorKind::Fault
        );
    }
    assert_eq!(stat(&server, "tenants"), MAX_TENANTS as u64);
    std::thread::sleep(Duration::from_millis(150));

    let admitted = reply(send(&server, "newcomer", BAD));
    assert_eq!(error_kind(&admitted), ErrorKind::CompileError);
    assert_eq!(stat(&server, "tenants"), 2, "`open` and `newcomer` remain");
    let shed = reply(send(&server, "open", BAD));
    assert_eq!(error_kind(&shed), ErrorKind::CircuitOpen);
    assert_eq!(stat(&server, "shed_quota"), 0);
    server.drain();
}
