//! End-to-end robustness suite for the serve daemon (DESIGN.md
//! "catt-serve: service architecture & failure model"). Each scenario
//! drives a real [`Server`] — worker pool, deadline tokens and all — and checks
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
use catt_serve::server::{
    check_arg_bytes, fuel_cost, parse_arg_spec, ServeConfig, Server, MAX_ARG_BYTES,
};
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

/// A running simulation is cancelled at its deadline by the token it
/// polls — cancelled, not completed late.
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

/// An argument spec's buffers are bounded: one element past
/// `MAX_ARG_BYTES` is a `bad-request`, answered before anything is
/// allocated, although a new tenant's full bucket would admit it.
#[test]
fn an_argument_spec_over_the_buffer_cap_is_a_bad_request() {
    let server = server_with(base_config(), "");
    let elems = MAX_ARG_BYTES / 4;
    let mut over = req("new-tenant", &kernel(77), Some(20_000));
    over.args = format!("f:{elems},f:1,si:64");
    let (tx, rx) = mpsc::channel();
    server.submit("over".into(), over, tx);
    match recv(&rx, "over-cap spec") {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::BadRequest);
            assert!(e.message.contains("limit"), "{}", e.message);
        }
        other => panic!("want bad-request, got {other:?}"),
    }
    // The cap itself is allowed; `catt run --args` checks the same way.
    let checked = |spec: String| check_arg_bytes(&parse_arg_spec(&spec).unwrap());
    assert!(checked(format!("f:{elems},si:64")).is_ok());
    assert!(checked(format!("i:{elems},i:1")).is_err());
    assert!(checked(format!("f:{}", u32::MAX)).is_err());
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
/// (`deadline-exceeded`), running simulations cancelled — and later
/// submissions shed as draining.
#[test]
fn graceful_drain_answers_backlog_and_sheds_late_submissions() {
    let engine = Engine::new().with_fault_plan(FaultPlan::parse("delay-job=100"));
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

/// A submit line for `source` (grid 1 × block 32, arguments derived).
fn submit_line(id: &str, source: &str, deadline_ms: Option<u64>) -> String {
    use catt_diag::json::{obj, Json};
    let mut fields = vec![
        ("id", Json::Str(id.into())),
        ("kernel", Json::Str(source.into())),
        ("grid", Json::Num(1.0)),
        ("block", Json::Num(32.0)),
    ];
    if let Some(ms) = deadline_ms {
        fields.push(("deadline_ms", Json::Num(ms as f64)));
    }
    obj(fields).render()
}

/// `b[i] = ((…(a[i])…));` with `depth` parentheses: about 4 KB at 2 000.
fn deep_kernel(depth: usize) -> String {
    format!(
        "__global__ void deep(float *a, float *b) {{\n    int i = threadIdx.x;\n    b[i] = {}a[i]{};\n}}\n",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

/// Replies to `lines`, sent in order through `handle_line` on a thread
/// with a 2 MiB stack: the stack of a serve worker and of a TCP
/// connection thread.
fn replies_on_a_small_stack(server: &Server, lines: &[String]) -> Vec<Response> {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, || {
                let (tx, rx) = mpsc::channel();
                let mut replies = Vec::new();
                for line in lines {
                    server.handle_line(line, &tx);
                    replies.push(recv(&rx, line.get(..60).unwrap_or(line)));
                }
                replies
            })
            .expect("spawn a 2 MiB thread")
            .join()
            .expect("the 2 MiB thread survived")
    })
}

/// The deep request is a located `compile-error`, the daemon keeps
/// serving, and a shutdown behind it is answered.
fn assert_deep_normal_shutdown(replies: &[Response]) {
    assert_eq!(replies.len(), 3, "{replies:?}");
    match &replies[0] {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::CompileError, "{e:?}");
            let d = &e.diagnostics[0];
            assert_eq!(d.code.as_str(), "E023", "{d:?}");
            assert_eq!(d.pass, Some("parse"), "{d:?}");
            assert_eq!((d.line, d.col > 1), (3, true), "{d:?}");
        }
        other => panic!("want a compile-error, got {other:?}"),
    }
    assert!(
        matches!(&replies[1], Response::Result(b) if b.id == "normal"),
        "{:?}",
        replies[1]
    );
    assert!(
        replies[2].render().contains("\"drained\":true"),
        "{:?}",
        replies[2]
    );
}

/// A 2 000-deep request, a normal submit and a shutdown through
/// `handle_line` on a 2 MiB thread, where compiling now happens.
#[test]
fn deep_nesting_is_a_compile_error_on_a_small_stack() {
    let server = server_with(base_config(), "");
    let lines = [
        submit_line("deep", &deep_kernel(2000), None),
        submit_line("normal", &kernel(40), None),
        r#"{"id":"bye","op":"shutdown"}"#.to_string(),
    ];
    assert_deep_normal_shutdown(&replies_on_a_small_stack(&server, &lines));
}

/// The same sequence over TCP: the connection thread compiles, and an
/// over-long line or source is a `bad-request` that keeps the connection.
#[test]
fn deep_nesting_and_oversized_lines_over_tcp() {
    use catt_serve::front::serve_listener;
    use catt_serve::server::{MAX_LINE_BYTES, MAX_SOURCE_BYTES};
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    let server = Arc::new(server_with(base_config(), ""));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let daemon = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || serve_listener(server, listener))
    };
    let conn = TcpStream::connect(addr).expect("connect");
    let mut writer = conn.try_clone().expect("clone the stream");
    let mut reader = BufReader::new(conn);
    let mut exchange = |line: &str| {
        writeln!(writer, "{line}").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read a reply");
        catt_serve::proto::parse_response(&reply)
            .unwrap_or_else(|e| panic!("{e}: {}", reply.get(..200).unwrap_or(&reply)))
    };

    let long_line = format!(
        r#"{{"id":"long","op":"ping","pad":"{}"}}"#,
        "x".repeat(MAX_LINE_BYTES)
    );
    match exchange(&long_line) {
        Response::Error(e) => {
            assert_eq!((e.kind, e.id.as_str()), (ErrorKind::BadRequest, "long"));
            assert!(e.message.contains("longer than"), "{}", e.message);
        }
        other => panic!("want bad-request, got {other:?}"),
    }
    let big_source = format!("{}\n{}", " ".repeat(MAX_SOURCE_BYTES), kernel(41));
    match exchange(&submit_line("big", &big_source, None)) {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::BadRequest);
            assert!(e.message.contains("limit"), "{}", e.message);
        }
        other => panic!("want bad-request, got {other:?}"),
    }
    let replies = vec![
        exchange(&submit_line("deep", &deep_kernel(2000), None)),
        exchange(&submit_line("normal", &kernel(40), None)),
        exchange(r#"{"id":"bye","op":"shutdown"}"#),
    ];
    assert_deep_normal_shutdown(&replies);
    daemon
        .join()
        .expect("daemon thread")
        .expect("serve_listener");
}

/// Every kind of nesting at the deepest the parser accepts compiles,
/// lowers and simulates on 2 MiB stacks: the caller's for compiling, a
/// worker's for simulating.
#[test]
fn nesting_at_the_limit_compiles_and_simulates_on_a_small_stack() {
    let shapes = [
        ("parens", "(", ")"),
        ("unary", "- ", ""),
        ("casts", "(float)", ""),
        ("calls", "sqrtf(", ")"),
        ("index", "a[c[", "]]"),
    ];
    let body = |open: &str, close: &str, n: usize| {
        format!(
            "__global__ void k(float *a, float *b, int *c, int n) {{\n    int i = threadIdx.x;\n    \
             if (i < n) {{ b[i] = {}a[i]{}; }}\n}}\n",
            open.repeat(n),
            close.repeat(n)
        )
    };
    let ok = |src: &str| catt_frontend::parse_module(src).is_ok();
    let mut lines = Vec::new();
    for (name, open, close) in shapes {
        let deepest = (1..300).take_while(|&n| ok(&body(open, close, n))).last();
        let n = deepest.unwrap_or_else(|| panic!("{name}: nothing parses"));
        lines.push(submit_line(name, &body(open, close, n), None));
    }
    let chain = format!(
        "__global__ void k(float *a, float *b, int n) {{\n    int i = threadIdx.x;\n    \
         b[i] = a[i]{};\n}}\n",
        " + a[i]".repeat(120)
    );
    assert!(ok(&chain));
    lines.push(submit_line("chain", &chain, None));
    let blocks = format!(
        "__global__ void k(float *a, float *b, int n) {{\n    int i = threadIdx.x;\n    \
         {}b[i] = a[i];{}\n}}\n",
        "if (i < n) { ".repeat(120),
        " }".repeat(120)
    );
    assert!(ok(&blocks));
    lines.push(submit_line("blocks", &blocks, None));

    let server = server_with(base_config(), "");
    for reply in replies_on_a_small_stack(&server, &lines) {
        assert!(matches!(reply, Response::Result(_)), "{reply:?}");
    }
    server.drain();
}

/// A repeated submission is answered from the cache at admission:
/// `"source":"cache"`, `queue_ms` 0, one more cache hit and no miss. The
/// first one counts one miss and simulates.
#[test]
fn a_repeated_submission_is_a_cache_hit_answered_at_admission() {
    let server = server_with(base_config(), "");
    let counters = || server.engine().cache_counters();
    let (tx, rx) = mpsc::channel();
    let before = counters();
    server.handle_line(&submit_line("first", &kernel(50), None), &tx);
    let first = match recv(&rx, "first submission") {
        Response::Result(b) => b,
        other => panic!("want ok, got {other:?}"),
    };
    assert_eq!(first.source, "computed");
    let after_first = counters();
    assert_eq!(
        (after_first.hits, after_first.misses),
        (before.hits, before.misses + 1)
    );

    server.handle_line(&submit_line("again", &kernel(50), None), &tx);
    let again = match rx.try_recv() {
        Ok(Response::Result(b)) => b,
        other => panic!("a hit is answered before handle_line returns, got {other:?}"),
    };
    assert_eq!((again.source, again.queue_ms), ("cache", 0));
    assert_eq!(
        (again.cycles, again.n, again.m),
        (first.cycles, first.n, first.m)
    );
    let after_again = counters();
    assert_eq!(
        (after_again.hits, after_again.misses),
        (after_first.hits + 1, after_first.misses)
    );
    server.drain();
}

/// `deadline_ms: 0` (clamped to 1 ms) on a hit and on a miss, and
/// submissions after a drain: still one typed reply per line.
#[test]
fn zero_deadlines_and_drain_still_get_one_reply_per_line() {
    let server = server_with(base_config(), "delay-job=20");
    let (tx, rx) = mpsc::channel();
    server.handle_line(&submit_line("warm", &kernel(60), None), &tx);
    assert!(matches!(recv(&rx, "warm-up"), Response::Result(_)));
    let lines = [
        submit_line("hit-0", &kernel(60), Some(0)),
        submit_line("miss-0", &kernel(61), Some(0)),
        submit_line("miss-1", &kernel(62), None),
    ];
    for line in &lines {
        server.handle_line(line, &tx);
    }
    let mut replies: Vec<Response> = (0..lines.len())
        .map(|i| recv(&rx, &format!("line {i}")))
        .collect();
    server.drain();
    server.handle_line(&submit_line("late-hit", &kernel(60), None), &tx);
    replies.push(recv(&rx, "post-drain hit"));
    assert!(rx.try_recv().is_err(), "one reply per line");
    let by_id = |id: &str| {
        replies
            .iter()
            .find(|r| r.render().contains(&format!("\"id\":\"{id}\"")))
            .unwrap_or_else(|| panic!("no reply for {id}: {replies:?}"))
    };
    assert!(matches!(by_id("hit-0"), Response::Result(b) if b.source == "cache"));
    assert!(matches!(
        error_kind(by_id("miss-0")),
        Some(ErrorKind::DeadlineExceeded)
    ));
    assert!(matches!(by_id("miss-1"), Response::Result(_)));
    assert_eq!(error_kind(by_id("late-hit")), Some(ErrorKind::Overloaded));
}
