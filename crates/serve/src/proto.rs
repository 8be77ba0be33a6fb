//! The serve wire protocol: newline-delimited JSON, one request or
//! response object per line, multiplexed by client-chosen `id`.
//!
//! ## Requests
//!
//! ```json
//! {"id":"r1","op":"submit","tenant":"team-a","kernel":"__global__ void k(float *a, int n){...}",
//!  "name":"k","grid":320,"block":256,"args":"f:1024,si:1024","deadline_ms":5000,
//!  "weight":2,"emit":true}
//! ```
//!
//! * `op` — `submit` (default), `ping`, `stats`, `shutdown`.
//! * `tenant` — quota/fairness/breaker identity (default `"anon"`).
//! * `kernel` — CUDA-C translation unit; `name` picks the kernel when the
//!   unit holds several (default: the only kernel / the first).
//! * `grid`/`block` — 1-D launch geometry (required for `submit`).
//! * `args` — optional `catt run`-style argument spec
//!   (`f:<len>,i:<len>,sf:<val>,si:<val>`, one per kernel parameter);
//!   omitted arguments are derived from the parameter types.
//! * `deadline_ms` — wall-clock budget; past it the simulation is
//!   *cancelled*, never completed late.
//! * `weight` — weighted-fair share (1–100, default 1).
//! * `emit` — include the throttled CUDA source in the response.
//!
//! ## Responses
//!
//! Success: `{"id":"r1","ok":true,"kernel":"k","n":2,"m":1,"transformed":true,
//! "cycles":...,"miss_rate":0.31,"source":"computed","queue_ms":1,"total_ms":17}`.
//!
//! Failure: `{"id":"r1","ok":false,"kind":"overloaded","retry_after_ms":40,
//! "message":"..."}` — `kind` is one of [`ErrorKind`]'s wire tokens; every
//! admitted request gets exactly one response, whatever happens.

use crate::json::{obj, parse, Json};
use catt_diag::{codes, Diagnostic, Note, Severity, Span};

/// Operations a request line can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Submit(SubmitRequest),
    /// Liveness probe; answered immediately, never queued.
    Ping,
    /// Daemon counters (queue depth, cache counters, shed counts).
    Stats,
    /// Begin graceful drain, answer when drained.
    Shutdown,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: String,
    pub op: Op,
}

/// A `submit` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    pub tenant: String,
    pub kernel_source: String,
    /// Kernel name within the translation unit (empty = first kernel).
    pub name: String,
    pub grid: u32,
    pub block: u32,
    /// `catt run`-style argument spec; empty = derive from parameters.
    pub args: String,
    /// Wall-clock budget in milliseconds (`None` = server default).
    pub deadline_ms: Option<u64>,
    /// Weighted-fair share, clamped to 1..=100.
    pub weight: u64,
    /// Include the emitted (throttled) source in the response.
    pub emit: bool,
}

/// Typed failure classes, mirroring the robustness taxonomy in DESIGN.md
/// ("catt-serve: service architecture & failure model").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Unparseable line / missing required fields.
    BadRequest,
    /// The CATT pipeline rejected the kernel (parse/lower/launch error).
    CompileError,
    /// Admission queue past its high-water mark (or draining).
    Overloaded,
    /// Tenant's fuel token-bucket is empty.
    QuotaExhausted,
    /// The request's deadline passed (queued too long, cancelled
    /// mid-simulation, or cut off by shutdown drain).
    DeadlineExceeded,
    /// Tenant's circuit breaker is open after repeated fatal faults.
    CircuitOpen,
    /// The simulation itself faulted (panic or fatal `SimError`).
    Fault,
}

impl ErrorKind {
    /// Wire token.
    pub fn token(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::CompileError => "compile-error",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::QuotaExhausted => "quota-exhausted",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::CircuitOpen => "circuit-open",
            ErrorKind::Fault => "fault",
        }
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Result(ResultBody),
    Error(ErrorBody),
    /// `ping` / `stats` / `shutdown` acknowledgement with free-form fields.
    Info {
        id: String,
        fields: Json,
    },
}

/// Success payload for a `submit`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultBody {
    pub id: String,
    pub kernel: String,
    /// Chosen warp-throttling factor N (max over throttled loops; 1 when
    /// nothing needed throttling).
    pub n: u32,
    /// Chosen TB-throttling factor M (0 = no TB throttling).
    pub m: u32,
    /// Whether CATT changed the kernel.
    pub transformed: bool,
    /// Predicted cycles of the throttled kernel on the target.
    pub cycles: u64,
    /// Predicted L1D miss rate of the throttled kernel.
    pub miss_rate: f64,
    /// `"computed"`, `"cache"`, or `"coalesced"` (single-flight).
    pub source: &'static str,
    /// Milliseconds spent queued before a worker picked the job up.
    pub queue_ms: u64,
    /// Milliseconds from admission to response.
    pub total_ms: u64,
    /// Emitted throttled CUDA source (only when requested via `emit`).
    pub emitted_source: Option<String>,
    /// The transform fell back to the original code: the typed fallback
    /// diagnostic (`W001`/`W002`, code + span) travels with the result.
    pub fallback: Option<Diagnostic>,
}

/// Failure payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBody {
    pub id: String,
    pub kind: ErrorKind,
    pub message: String,
    /// When retrying could help (overload, quota, open breaker).
    pub retry_after_ms: Option<u64>,
    /// Structured diagnostics for `compile-error` rejections: every one
    /// carries a stable code (`E0xx`/`W0xx`) and, where known, a byte
    /// span + line/col into the submitted source. Empty for other kinds.
    pub diagnostics: Vec<Diagnostic>,
}

/// Wire form of one diagnostic (same shape as `Diagnostic::to_json`).
fn diag_to_json(d: &Diagnostic) -> Json {
    let mut f: Vec<(&str, Json)> = vec![
        ("severity", Json::Str(d.severity.label().to_string())),
        ("code", Json::Str(d.code.as_str().to_string())),
        ("message", Json::Str(d.message.clone())),
    ];
    if let Some(s) = d.span {
        f.push((
            "span",
            obj(vec![
                ("start", Json::Num(s.start as f64)),
                ("end", Json::Num(s.end as f64)),
            ]),
        ));
    }
    if d.line > 0 {
        f.push(("line", Json::Num(d.line as f64)));
        f.push(("col", Json::Num(d.col as f64)));
    }
    if let Some(p) = d.pass {
        f.push(("pass", Json::Str(p.to_string())));
    }
    if !d.notes.is_empty() {
        f.push((
            "notes",
            Json::Arr(
                d.notes
                    .iter()
                    .map(|n| {
                        let mut nf = vec![("message", Json::Str(n.message.clone()))];
                        if let Some(s) = n.span {
                            nf.push((
                                "span",
                                obj(vec![
                                    ("start", Json::Num(s.start as f64)),
                                    ("end", Json::Num(s.end as f64)),
                                ]),
                            ));
                        }
                        obj(nf)
                    })
                    .collect(),
            ),
        ));
    }
    obj(f)
}

fn span_from_json(v: &Json) -> Option<Span> {
    Some(Span::new(
        v.get("start")?.as_u64()? as u32,
        v.get("end")?.as_u64()? as u32,
    ))
}

/// Parse a diagnostic back off the wire. Codes resolve through the
/// stable registry; unknown codes and severities are rejected (the
/// harness treats that as a malformed response).
fn diag_from_json(v: &Json) -> Option<Diagnostic> {
    let code = codes::lookup(v.get("code")?.as_str()?)?;
    let severity = match v.get("severity")?.as_str()? {
        "error" => Severity::Error,
        "warning" => Severity::Warning,
        "note" => Severity::Note,
        _ => return None,
    };
    let mut d = match severity {
        Severity::Error => Diagnostic::error(code, v.get("message")?.as_str()?),
        _ => Diagnostic::warning(code, v.get("message")?.as_str()?),
    };
    d.severity = severity;
    d.span = v.get("span").and_then(span_from_json);
    d.line = v.get("line").and_then(Json::as_u64).unwrap_or(0) as u32;
    d.col = v.get("col").and_then(Json::as_u64).unwrap_or(0) as u32;
    // Pass names are static strings; resolve through the known set.
    d.pass = v.get("pass").and_then(Json::as_str).and_then(|p| {
        ["parse", "analyze", "legalize", "transform", "emit"]
            .iter()
            .find(|k| **k == p)
            .copied()
    });
    if let Some(Json::Arr(notes)) = v.get("notes") {
        for n in notes {
            let msg = n.get("message").and_then(Json::as_str)?;
            d.notes.push(Note {
                message: msg.to_string(),
                span: n.get("span").and_then(span_from_json),
            });
        }
    }
    Some(d)
}

impl Response {
    /// The correlation id this response answers.
    pub fn id(&self) -> &str {
        match self {
            Response::Result(r) => &r.id,
            Response::Error(e) => &e.id,
            Response::Info { id, .. } => id,
        }
    }

    /// Render as one NDJSON line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Response::Result(r) => {
                let mut fields = vec![
                    ("id", Json::Str(r.id.clone())),
                    ("ok", Json::Bool(true)),
                    ("kernel", Json::Str(r.kernel.clone())),
                    ("n", Json::Num(r.n as f64)),
                    ("m", Json::Num(r.m as f64)),
                    ("transformed", Json::Bool(r.transformed)),
                    ("cycles", Json::Num(r.cycles as f64)),
                    ("miss_rate", Json::Num(r.miss_rate)),
                    ("source", Json::Str(r.source.to_string())),
                    ("queue_ms", Json::Num(r.queue_ms as f64)),
                    ("total_ms", Json::Num(r.total_ms as f64)),
                ];
                if let Some(src) = &r.emitted_source {
                    fields.push(("emitted_source", Json::Str(src.clone())));
                }
                if let Some(fb) = &r.fallback {
                    fields.push(("fallback", diag_to_json(fb)));
                }
                obj(fields).render()
            }
            Response::Error(e) => {
                let mut fields = vec![
                    ("id", Json::Str(e.id.clone())),
                    ("ok", Json::Bool(false)),
                    ("kind", Json::Str(e.kind.token().to_string())),
                    ("message", Json::Str(e.message.clone())),
                ];
                if let Some(ms) = e.retry_after_ms {
                    fields.push(("retry_after_ms", Json::Num(ms as f64)));
                }
                if !e.diagnostics.is_empty() {
                    fields.push((
                        "diagnostics",
                        Json::Arr(e.diagnostics.iter().map(diag_to_json).collect()),
                    ));
                }
                obj(fields).render()
            }
            Response::Info { id, fields } => {
                let mut all = vec![
                    ("id".to_string(), Json::Str(id.clone())),
                    ("ok".to_string(), Json::Bool(true)),
                ];
                if let Json::Obj(extra) = fields {
                    all.extend(extra.clone());
                }
                Json::Obj(all).render()
            }
        }
    }
}

/// Parse one request line. `Err` carries `(id, message)` — the id is
/// recovered from the malformed line when possible so the client can
/// still correlate the `bad-request` response.
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let v = match parse(line) {
        Ok(v) => v,
        Err(e) => {
            // Best-effort id recovery from broken JSON for correlation.
            let id = recover_id(line).unwrap_or_default();
            return Err((id, format!("malformed JSON: {e}")));
        }
    };
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let op = v.get("op").and_then(Json::as_str).unwrap_or("submit");
    let op = match op {
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "shutdown" => Op::Shutdown,
        "submit" => {
            let kernel_source = match v.get("kernel").and_then(Json::as_str) {
                Some(s) if !s.trim().is_empty() => s.to_string(),
                _ => return Err((id, "missing required field `kernel`".to_string())),
            };
            let grid = match v.get("grid").and_then(Json::as_u64) {
                Some(g) if (1..=1 << 20).contains(&g) => g as u32,
                _ => {
                    return Err((
                        id,
                        "missing or invalid `grid` (want 1..=1048576)".to_string(),
                    ))
                }
            };
            let block = match v.get("block").and_then(Json::as_u64) {
                Some(b) if (1..=1024).contains(&b) => b as u32,
                _ => return Err((id, "missing or invalid `block` (want 1..=1024)".to_string())),
            };
            Op::Submit(SubmitRequest {
                tenant: v
                    .get("tenant")
                    .and_then(Json::as_str)
                    .unwrap_or("anon")
                    .to_string(),
                kernel_source,
                name: v
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                grid,
                block,
                args: v
                    .get("args")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
                weight: v
                    .get("weight")
                    .and_then(Json::as_u64)
                    .unwrap_or(1)
                    .clamp(1, 100),
                emit: v.get("emit").and_then(Json::as_bool).unwrap_or(false),
            })
        }
        other => return Err((id, format!("unknown op `{other}`"))),
    };
    Ok(Request { id, op })
}

/// Fish an `"id":"..."` out of a line that failed to parse as JSON.
fn recover_id(line: &str) -> Option<String> {
    let start = line.find("\"id\"")? + 4;
    let rest = line.get(start..)?;
    let open = rest.find('"')?;
    let rest = rest.get(open + 1..)?;
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

/// Parse one response line back into a [`Response`] (used by clients:
/// the tests and the benchmark; `source` strings outside the known set
/// map to `"computed"`).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = parse(line)?;
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let ok = v.get("ok").and_then(Json::as_bool).ok_or("missing `ok`")?;
    if !ok {
        let kind = match v.get("kind").and_then(Json::as_str).unwrap_or("") {
            "bad-request" => ErrorKind::BadRequest,
            "compile-error" => ErrorKind::CompileError,
            "overloaded" => ErrorKind::Overloaded,
            "quota-exhausted" => ErrorKind::QuotaExhausted,
            "deadline-exceeded" => ErrorKind::DeadlineExceeded,
            "circuit-open" => ErrorKind::CircuitOpen,
            "fault" => ErrorKind::Fault,
            other => return Err(format!("unknown error kind `{other}`")),
        };
        let diagnostics = match v.get("diagnostics") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(diag_from_json)
                .collect::<Option<Vec<_>>>()
                .ok_or("malformed diagnostic in response")?,
            _ => Vec::new(),
        };
        return Ok(Response::Error(ErrorBody {
            id,
            kind,
            message: v
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64),
            diagnostics,
        }));
    }
    match v.get("kernel").and_then(Json::as_str) {
        Some(kernel) => Ok(Response::Result(ResultBody {
            id,
            kernel: kernel.to_string(),
            n: v.get("n").and_then(Json::as_u64).unwrap_or(1) as u32,
            m: v.get("m").and_then(Json::as_u64).unwrap_or(0) as u32,
            transformed: v
                .get("transformed")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            cycles: v.get("cycles").and_then(Json::as_u64).unwrap_or(0),
            miss_rate: v.get("miss_rate").and_then(Json::as_f64).unwrap_or(0.0),
            source: match v.get("source").and_then(Json::as_str) {
                Some("cache") => "cache",
                Some("coalesced") => "coalesced",
                _ => "computed",
            },
            queue_ms: v.get("queue_ms").and_then(Json::as_u64).unwrap_or(0),
            total_ms: v.get("total_ms").and_then(Json::as_u64).unwrap_or(0),
            emitted_source: v
                .get("emitted_source")
                .and_then(Json::as_str)
                .map(str::to_string),
            fallback: v.get("fallback").and_then(diag_from_json),
        })),
        None => Ok(Response::Info { id, fields: v }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips() {
        let line = r#"{"id":"r1","tenant":"a","kernel":"__global__ void k(float *x, int n){}","grid":4,"block":64,"deadline_ms":500,"weight":3}"#;
        let req = parse_request(line).unwrap();
        assert_eq!(req.id, "r1");
        let Op::Submit(s) = req.op else {
            panic!("want submit")
        };
        assert_eq!((s.grid, s.block, s.weight), (4, 64, 3));
        assert_eq!(s.deadline_ms, Some(500));
        assert_eq!(s.tenant, "a");
    }

    #[test]
    fn missing_kernel_is_bad_request_with_id() {
        let err = parse_request(r#"{"id":"r9","grid":1,"block":32}"#).unwrap_err();
        assert_eq!(err.0, "r9");
        assert!(err.1.contains("kernel"), "{}", err.1);
    }

    #[test]
    fn id_recovered_from_malformed_json() {
        let err = parse_request(r#"{"id":"r7","kernel": <<<"#).unwrap_err();
        assert_eq!(err.0, "r7");
    }

    #[test]
    fn responses_round_trip() {
        let r = Response::Result(ResultBody {
            id: "x".into(),
            kernel: "k".into(),
            n: 2,
            m: 1,
            transformed: true,
            cycles: 12345,
            miss_rate: 0.25,
            source: "coalesced",
            queue_ms: 3,
            total_ms: 40,
            emitted_source: None,
            fallback: None,
        });
        assert_eq!(parse_response(&r.render()).unwrap(), r);
        let e = Response::Error(ErrorBody {
            id: "y".into(),
            kind: ErrorKind::Overloaded,
            message: "queue full".into(),
            retry_after_ms: Some(40),
            diagnostics: Vec::new(),
        });
        assert_eq!(parse_response(&e.render()).unwrap(), e);
    }

    #[test]
    fn diagnostics_round_trip_on_the_wire() {
        let d = Diagnostic::error(codes::UNEXPECTED_TOKEN, "expected `;`")
            .with_span(Span::new(10, 13))
            .at(2, 4)
            .in_pass("parse")
            .note("while parsing the kernel body", None);
        let e = Response::Error(ErrorBody {
            id: "z".into(),
            kind: ErrorKind::CompileError,
            message: "expected `;`".into(),
            retry_after_ms: None,
            diagnostics: vec![d.clone()],
        });
        let back = parse_response(&e.render()).unwrap();
        let Response::Error(eb) = back else {
            panic!("want error")
        };
        assert_eq!(eb.diagnostics, vec![d]);

        let fb = Diagnostic::warning(codes::TRANSFORM_FALLBACK, "transform panicked: boom")
            .with_span(Span::new(17, 18));
        let r = Response::Result(ResultBody {
            id: "w".into(),
            kernel: "k".into(),
            n: 1,
            m: 0,
            transformed: false,
            cycles: 1,
            miss_rate: 0.0,
            source: "computed",
            queue_ms: 0,
            total_ms: 1,
            emitted_source: None,
            fallback: Some(fb.clone()),
        });
        let Response::Result(rb) = parse_response(&r.render()).unwrap() else {
            panic!("want result")
        };
        assert_eq!(rb.fallback, Some(fb));
    }
}
