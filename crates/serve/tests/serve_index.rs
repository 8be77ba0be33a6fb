//! The request index (DESIGN.md §3g): a resubmission is answered from
//! the index with the reply its compile gave, a submission the index
//! does not know still finds the simcache through its program key, and
//! the admission gates apply to an indexed submission exactly as to a
//! compiled one.

use catt_core::engine::Engine;
use catt_core::fault::FaultPlan;
use catt_diag::json::Json;
use catt_serve::proto::{ErrorKind, Response, ResultBody, SubmitRequest};
use catt_serve::server::{fuel_cost, ServeConfig, Server};
use std::sync::mpsc;
use std::time::Duration;

/// The serve smoke batch's `ok-1` kernel, which CATT leaves alone.
const SMOKE: &str = "__global__ void k(float *a, float *b, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { b[i] = a[i] * 2.0f; } }";
const SMOKE_ARGS: &str = "f:64,f:64,si:64";

/// An ATAX-shaped kernel CATT warp-splits (`N` = 2) at 4 × 256.
const SPLIT: &str = "#define NX 1024
#define NY 64
__global__ void ws(float *A, float *B, float *tmp) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NX) {
        for (int j = 0; j < NY; j++) {
            tmp[i] += A[i * NY + j] * B[j];
        }
    }
}";

fn submit(tenant: &str, source: &str) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_string(),
        kernel_source: source.to_string(),
        name: String::new(),
        grid: 2,
        block: 32,
        args: SMOKE_ARGS.to_string(),
        deadline_ms: None,
        weight: 1,
        emit: false,
    }
}

fn split(tenant: &str) -> SubmitRequest {
    SubmitRequest {
        grid: 4,
        block: 256,
        args: "f:65536,f:64,f:1024".to_string(),
        ..submit(tenant, SPLIT)
    }
}

fn server(engine: Engine) -> Server {
    Server::new(ServeConfig::default(), engine)
}

fn ask(server: &Server, id: &str, req: SubmitRequest) -> Response {
    let (tx, rx) = mpsc::channel();
    server.submit(id.to_string(), req, tx);
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("no reply to {id}"))
}

fn result(response: Response) -> ResultBody {
    match response {
        Response::Result(body) => body,
        other => panic!("want a result, got {other:?}"),
    }
}

fn error_kind(response: &Response) -> ErrorKind {
    match response {
        Response::Error(e) => e.kind,
        other => panic!("want an error, got {other:?}"),
    }
}

/// A `stats` counter.
fn stat(server: &Server, name: &str) -> u64 {
    let stats = server.stats_json();
    stats.get(name).and_then(Json::as_u64).expect(name)
}

/// The reply without the four fields a cached answer may change.
fn body(reply: &ResultBody) -> ResultBody {
    ResultBody {
        id: String::new(),
        source: "",
        queue_ms: 0,
        total_ms: 0,
        ..reply.clone()
    }
}

#[test]
fn a_resubmission_is_answered_from_the_index_with_the_computed_reply() {
    let emit = SubmitRequest {
        emit: true,
        ..submit("a", SMOKE)
    };
    let cases = [
        ("smoke", FaultPlan::none(), submit("a", SMOKE)),
        ("warp split", FaultPlan::none(), split("a")),
        (
            "W002 fallback",
            FaultPlan::parse("fail-transform"),
            submit("a", SMOKE),
        ),
        ("emit", FaultPlan::none(), emit),
    ];
    for (case, plan, req) in cases {
        let server = server(Engine::with_workers(1).with_fault_plan(plan));
        let first = result(ask(&server, "first", req.clone()));
        assert_eq!(first.source, "computed", "{case}");
        assert_eq!(stat(&server, "index_entries"), 1, "{case}");
        let before = server.engine().cache_counters();
        for tenant in ["a", "b"] {
            let again = SubmitRequest {
                tenant: tenant.to_string(),
                ..req.clone()
            };
            let reply = result(ask(&server, "again", again));
            assert_eq!((reply.source, reply.queue_ms), ("cache", 0), "{case}");
            assert_eq!(body(&reply), body(&first), "{case}, tenant {tenant}");
            assert_eq!(
                Response::Result(body(&reply)).render(),
                Response::Result(body(&first)).render(),
                "{case}"
            );
        }
        let after = server.engine().cache_counters();
        assert_eq!(
            (after.hits, after.misses),
            (before.hits + 2, before.misses),
            "{case}: one engine hit per indexed answer"
        );
        assert_eq!(stat(&server, "index_hits"), 2, "{case}");
        assert_eq!(stat(&server, "index_entries"), 1, "{case}");
        match case {
            "warp split" => assert!(first.transformed && first.n == 2, "{first:?}"),
            "W002 fallback" => {
                let code = first.fallback.as_ref().map(|d| d.code.as_str());
                assert_eq!(code, Some("W002"), "{first:?}");
            }
            "emit" => assert!(first.emitted_source.is_some(), "{first:?}"),
            _ => assert!(!first.transformed && first.fallback.is_none()),
        }
        server.drain();
    }
}

#[test]
fn a_whitespace_variant_misses_the_index_and_hits_the_simcache() {
    let server = server(Engine::with_workers(1));
    let first = result(ask(&server, "first", submit("a", SMOKE)));
    let spaced = SMOKE.replace("{ ", "{  ");
    let variant = result(ask(&server, "variant", submit("a", &spaced)));
    assert_eq!(variant.source, "cache");
    assert_eq!(body(&variant), body(&first));
    assert_eq!(stat(&server, "index_hits"), 0, "the variant compiled");
    assert_eq!(stat(&server, "index_entries"), 2);
    let again = result(ask(&server, "again", submit("a", &spaced)));
    assert_eq!(again.source, "cache");
    assert_eq!(stat(&server, "index_hits"), 1);
    server.drain();
}

/// Each field that decides a reply separates index entries; the tenant,
/// deadline and weight do not.
#[test]
fn the_fingerprint_covers_what_decides_a_reply() {
    let server = server(Engine::with_workers(1));
    let base = submit("a", SMOKE);
    result(ask(&server, "base", base.clone()));
    let variants = [
        SubmitRequest {
            name: "k".to_string(),
            ..base.clone()
        },
        SubmitRequest {
            grid: 1,
            ..base.clone()
        },
        SubmitRequest {
            block: 64,
            ..base.clone()
        },
        SubmitRequest {
            args: "f:64,f:64,si:32".to_string(),
            ..base.clone()
        },
        SubmitRequest {
            emit: true,
            ..base.clone()
        },
    ];
    for (i, variant) in variants.into_iter().enumerate() {
        let emit = variant.emit;
        let reply = result(ask(&server, &format!("v{i}"), variant));
        assert_eq!(reply.emitted_source.is_some(), emit, "v{i}");
    }
    assert_eq!(stat(&server, "index_hits"), 0, "every variant compiled");
    assert_eq!(stat(&server, "index_entries"), 6);
    let same = SubmitRequest {
        tenant: "b".to_string(),
        deadline_ms: Some(5_000),
        weight: 7,
        ..base
    };
    assert_eq!(result(ask(&server, "same", same)).source, "cache");
    assert_eq!(stat(&server, "index_hits"), 1);
    server.drain();
}

/// A tenant out of quota is shed `quota-exhausted`, and a draining server
/// sheds `overloaded`, whether the index or a compile would answer: the
/// gates come first, and a shed submission counts no cache hit.
#[test]
fn the_gates_shed_an_indexed_submission_as_a_compiled_one() {
    let cost = fuel_cost(&submit("poor", SMOKE));
    let server = Server::new(
        ServeConfig {
            quota_burst: cost,
            quota_rate: 1,
            ..ServeConfig::default()
        },
        Engine::with_workers(1),
    );
    // `poor` spends its one request's quota; `rich` warms the index.
    assert_eq!(
        result(ask(&server, "spend", submit("poor", SMOKE))).source,
        "computed"
    );
    assert_eq!(
        result(ask(&server, "warm", submit("rich", SMOKE))).source,
        "cache"
    );
    let spaced = SMOKE.replace("{ ", "{  ");
    let hits = server.engine().cache_counters().hits;

    let indexed = ask(&server, "indexed", submit("poor", SMOKE));
    let compiled = ask(&server, "compiled", submit("poor", &spaced));
    assert_eq!(error_kind(&indexed), ErrorKind::QuotaExhausted);
    assert_eq!(error_kind(&compiled), ErrorKind::QuotaExhausted);

    server.drain();
    let indexed = ask(&server, "indexed", submit("rich", SMOKE));
    let compiled = ask(&server, "compiled", submit("rich", &spaced));
    assert_eq!(error_kind(&indexed), ErrorKind::Overloaded);
    assert_eq!(error_kind(&compiled), ErrorKind::Overloaded);

    assert_eq!(server.engine().cache_counters().hits, hits);
    assert_eq!(stat(&server, "index_hits"), 1, "only `warm`");
}
