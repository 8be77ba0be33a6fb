//! `catt serve-bench`: the chaos-driven load harness.
//!
//! Spawns thousands of synthetic clients (default 1000) against an
//! in-process serve daemon — either calling the admission path directly
//! (`--transport inproc`) or through real TCP connections multiplexed by
//! response id (`--transport tcp`, a handful of sockets shared by all
//! clients so the harness never exhausts file descriptors). Kernel
//! popularity is Zipf-distributed over a generated corpus, so the
//! content-addressed cache and single-flight layers see a realistic
//! skewed workload.
//!
//! Chaos runs are the same harness under `CATT_FAULT_PLAN` (e.g.
//! `delay-job=2,panic-job=7,fuel=2000`): the engine injects latency,
//! panics, and fuel exhaustion, and the harness checks the contract that
//! matters — **every request ends in exactly one typed response**, shed
//! or served, never hung or silently dropped. The run fails (non-zero
//! exit) on any hung/lost request.
//!
//! Output: `BENCH_serve.json` with latency percentiles, throughput, shed
//! rate, per-tenant fairness spread, and cache/coalesce hit rates.

use crate::json::{obj, Json};
use crate::proto::{parse_response, ErrorKind, Response, SubmitRequest};
use crate::server::{ServeConfig, Server};
use catt_core::Engine;
use catt_prng::Rng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Harness options (see `catt serve-bench --help`).
pub struct BenchOptions {
    pub clients: usize,
    pub requests_per_client: usize,
    pub kernels: usize,
    pub tenants: usize,
    pub transport: Transport,
    pub out_path: String,
    pub seed: u64,
    /// Percentage of requests that submit a deliberately mangled source
    /// (lexer garbage spliced in). Exercises the compile-error path: the
    /// harness hard-fails if any rejection arrives without structured
    /// diagnostics or with an out-of-bounds span.
    pub malformed_pct: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Clients call the admission path directly (measures the serve core).
    Inproc,
    /// Clients share a small pool of real TCP connections.
    Tcp,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions {
            clients: 1000,
            requests_per_client: 2,
            kernels: 8,
            tenants: 8,
            transport: Transport::Inproc,
            out_path: "BENCH_serve.json".to_string(),
            seed: 0xCA77,
            malformed_pct: 10,
        }
    }
}

/// Generate the kernel corpus: `count` distinct kernels (different
/// constants → different content digests), each with a cache-straining
/// inner loop so CATT has something to throttle.
fn corpus(count: usize) -> Vec<(String, String)> {
    (0..count)
        .map(|i| {
            let name = format!("bk{i}");
            let src = format!(
                "__global__ void {name}(float *a, float *b, int n) {{
                     int i = blockIdx.x * blockDim.x + threadIdx.x;
                     if (i < n) {{
                         float acc = 0.0f;
                         for (int j = 0; j < 8; j++) {{
                             acc += a[(i * 7 + j * {step}) % n] * {scale}.0f;
                         }}
                         b[i] = acc;
                     }}
                 }}",
                step = 13 + i,
                scale = i + 2,
            );
            (name, src)
        })
        .collect()
}

/// Zipf(s=1) cumulative distribution over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn sample_zipf(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.f64();
    cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len() - 1)
}

/// One client's record of one request.
struct Sample {
    tenant: usize,
    latency_us: u64,
    outcome: &'static str,
    source: Option<&'static str>,
    /// A `compile-error` response arrived without structured diagnostics.
    diag_missing: bool,
    /// A diagnostic span fell outside the submitted source.
    span_oob: bool,
}

/// Splice lexer garbage into a source at a PRNG-chosen byte (always a
/// guaranteed `E001`, so a mangled submission is always a compile error).
fn mangle(src: &str, rng: &mut Rng) -> String {
    let at = rng.bounded_u64(src.len().max(1) as u64) as usize;
    // Snap to a char boundary (corpus is ASCII, but stay safe).
    let at = (0..=at)
        .rev()
        .find(|&i| src.is_char_boundary(i))
        .unwrap_or(0);
    format!("{}@{}", &src[..at], &src[at..])
}

/// A TCP connection shared by many clients: writer guarded by a mutex,
/// one demux thread routing response lines by id.
struct SharedConn {
    writer: Mutex<TcpStream>,
    pending: Arc<Mutex<HashMap<String, mpsc::Sender<Response>>>>,
}

impl SharedConn {
    fn connect(addr: &str) -> std::io::Result<SharedConn> {
        let stream = TcpStream::connect(addr)?;
        let pending: Arc<Mutex<HashMap<String, mpsc::Sender<Response>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let demux_pending = Arc::clone(&pending);
        let read_half = stream.try_clone()?;
        std::thread::spawn(move || {
            let reader = BufReader::new(read_half);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if let Ok(resp) = parse_response(&line) {
                    let tx = demux_pending.lock().unwrap().remove(resp.id());
                    if let Some(tx) = tx {
                        let _ = tx.send(resp);
                    }
                }
            }
        });
        Ok(SharedConn {
            writer: Mutex::new(stream),
            pending,
        })
    }

    fn request(&self, id: &str, line: &str, timeout: Duration) -> Option<Response> {
        let (tx, rx) = mpsc::channel();
        self.pending.lock().unwrap().insert(id.to_string(), tx);
        {
            let mut w = self.writer.lock().unwrap();
            if writeln!(w, "{line}").is_err() {
                self.pending.lock().unwrap().remove(id);
                return None;
            }
        }
        match rx.recv_timeout(timeout) {
            Ok(resp) => Some(resp),
            Err(_) => {
                self.pending.lock().unwrap().remove(id);
                None
            }
        }
    }
}

fn outcome_token(resp: &Response) -> &'static str {
    match resp {
        Response::Result(_) => "ok",
        Response::Error(e) => e.kind.token(),
        Response::Info { .. } => "info",
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run the harness against a daemon built from `config` and `engine`
/// (whose fault plan is the chaos). Returns `Err` with a diagnostic when
/// the zero-hung / zero-lost contract is violated (the CLI exits
/// non-zero).
pub fn run(opts: &BenchOptions, config: ServeConfig, engine: Engine) -> Result<Json, String> {
    let fault_plan = engine.fault_plan().to_string();
    let server = Arc::new(Server::new(config, engine));
    let kernels = Arc::new(corpus(opts.kernels));
    let cdf = Arc::new(zipf_cdf(opts.kernels));
    let total_requests = opts.clients * opts.requests_per_client;
    eprintln!(
        "[serve-bench] {} clients x {} requests over {} kernels, {} tenants, {}% malformed, \
         {:?} transport{}",
        opts.clients,
        opts.requests_per_client,
        opts.kernels,
        opts.tenants,
        opts.malformed_pct,
        opts.transport,
        if fault_plan.is_empty() {
            " (clean)".to_string()
        } else {
            format!(" (chaos: {fault_plan})")
        }
    );

    // TCP mode: host the daemon on a loopback listener and share a small
    // connection pool across all clients (bounded fds).
    let conns: Arc<Vec<SharedConn>> = if opts.transport == Transport::Tcp {
        let listener =
            std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        {
            let server = Arc::clone(&server);
            std::thread::spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let server = Arc::clone(&server);
                        std::thread::spawn(move || crate::front::conn_for_bench(server, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            });
        }
        let pool = (0..16.min(opts.clients.max(1)))
            .map(|_| SharedConn::connect(&addr))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("connect: {e}"))?;
        Arc::new(pool)
    } else {
        Arc::new(Vec::new())
    };

    let samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
    let hung: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    let mut handles = Vec::new();
    for client in 0..opts.clients {
        let server = Arc::clone(&server);
        let kernels = Arc::clone(&kernels);
        let cdf = Arc::clone(&cdf);
        let samples = Arc::clone(&samples);
        let hung = Arc::clone(&hung);
        let conns = Arc::clone(&conns);
        let (requests, tenants, seed, transport, malformed_pct) = (
            opts.requests_per_client,
            opts.tenants,
            opts.seed,
            opts.transport,
            opts.malformed_pct,
        );
        let handle = std::thread::Builder::new()
            .name(format!("bench-client-{client}"))
            .stack_size(128 * 1024)
            .spawn(move || {
                let mut rng = Rng::seed(seed ^ (client as u64).wrapping_mul(0x9E37_79B9));
                let tenant = client % tenants;
                for r in 0..requests {
                    let ki = sample_zipf(&cdf, &mut rng);
                    let (name, src) = &kernels[ki];
                    let grid = if rng.bool(0.5) { 4 } else { 8 };
                    let id = format!("c{client}-r{r}");
                    let mangled = rng.bool(malformed_pct as f64 / 100.0);
                    let sent_src = if mangled {
                        mangle(src, &mut rng)
                    } else {
                        src.clone()
                    };
                    let req = SubmitRequest {
                        tenant: format!("tenant-{tenant}"),
                        kernel_source: sent_src.clone(),
                        name: if mangled { String::new() } else { name.clone() },
                        grid,
                        block: 64,
                        args: "f:1024,f:1024,si:1024".to_string(),
                        deadline_ms: Some(30_000),
                        weight: 1,
                        emit: false,
                    };
                    let t0 = Instant::now();
                    let resp = match transport {
                        Transport::Inproc => {
                            let (tx, rx) = mpsc::channel();
                            server.submit(id.clone(), req, tx);
                            rx.recv_timeout(Duration::from_secs(120)).ok()
                        }
                        Transport::Tcp => {
                            let line = submit_line(&id, &req);
                            let conn = &conns[client % conns.len()];
                            conn.request(&id, &line, Duration::from_secs(120))
                        }
                    };
                    let latency_us = t0.elapsed().as_micros() as u64;
                    match resp {
                        Some(resp) => {
                            let source = match &resp {
                                Response::Result(r) => Some(r.source),
                                _ => None,
                            };
                            let (mut diag_missing, mut span_oob) = (false, false);
                            if let Response::Error(e) = &resp {
                                if e.kind == ErrorKind::CompileError {
                                    diag_missing = e.diagnostics.is_empty();
                                    span_oob = e
                                        .diagnostics
                                        .iter()
                                        .filter_map(|d| d.span)
                                        .any(|s| !s.in_bounds(sent_src.len()));
                                }
                            }
                            samples.lock().unwrap().push(Sample {
                                tenant,
                                latency_us,
                                outcome: outcome_token(&resp),
                                source,
                                diag_missing,
                                span_oob,
                            });
                        }
                        None => hung.lock().unwrap().push(id),
                    }
                }
            })
            .map_err(|e| format!("spawn client {client}: {e}"))?;
        handles.push(handle);
    }
    for h in handles {
        h.join().map_err(|_| "client thread panicked".to_string())?;
    }
    let wall = started.elapsed();
    server.drain();

    let samples = Arc::try_unwrap(samples)
        .map_err(|_| "samples still shared")?
        .into_inner()
        .unwrap();
    let hung = hung.lock().unwrap().clone();

    // The contract: every request produced exactly one typed response.
    if !hung.is_empty() {
        return Err(format!(
            "{} of {} requests hung (no response within timeout): {:?}...",
            hung.len(),
            total_requests,
            &hung[..hung.len().min(5)]
        ));
    }
    if samples.len() != total_requests {
        return Err(format!(
            "response count {} != request count {total_requests} (lost requests)",
            samples.len()
        ));
    }
    // The diagnostics contract: every compile-error rejection carries
    // structured diagnostics with in-bounds spans.
    let compile_errors = samples
        .iter()
        .filter(|s| s.outcome == "compile-error")
        .count() as u64;
    let diag_missing = samples.iter().filter(|s| s.diag_missing).count() as u64;
    let span_oob = samples.iter().filter(|s| s.span_oob).count() as u64;
    if diag_missing > 0 || span_oob > 0 {
        return Err(format!(
            "{diag_missing} compile-error responses lacked structured diagnostics, \
             {span_oob} carried out-of-bounds spans (of {compile_errors} compile errors)"
        ));
    }

    // Aggregate.
    let mut outcome_counts: HashMap<&'static str, u64> = HashMap::new();
    let mut per_tenant_ok: HashMap<usize, u64> = HashMap::new();
    let mut source_counts: HashMap<&'static str, u64> = HashMap::new();
    let mut latencies: Vec<u64> = Vec::with_capacity(samples.len());
    let mut ok_latencies: Vec<u64> = Vec::new();
    for s in &samples {
        *outcome_counts.entry(s.outcome).or_insert(0) += 1;
        latencies.push(s.latency_us);
        if s.outcome == "ok" {
            ok_latencies.push(s.latency_us);
            *per_tenant_ok.entry(s.tenant).or_insert(0) += 1;
            if let Some(src) = s.source {
                *source_counts.entry(src).or_insert(0) += 1;
            }
        }
    }
    latencies.sort_unstable();
    ok_latencies.sort_unstable();
    let completed = ok_latencies.len() as u64;
    let shed = outcome_counts.get("overloaded").copied().unwrap_or(0)
        + outcome_counts.get("quota-exhausted").copied().unwrap_or(0)
        + outcome_counts.get("circuit-open").copied().unwrap_or(0);
    let (fair_min, fair_max) = per_tenant_ok
        .values()
        .fold((u64::MAX, 0u64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let fairness_spread = if completed > 0 && fair_min > 0 && fair_min != u64::MAX {
        fair_max as f64 / fair_min as f64
    } else {
        0.0
    };
    let cache = server.engine().cache_counters();
    let served_from_cache = source_counts.get("cache").copied().unwrap_or(0)
        + source_counts.get("coalesced").copied().unwrap_or(0);

    let mut outcome_fields: Vec<(String, Json)> = outcome_counts
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)))
        .collect();
    outcome_fields.sort_by(|a, b| a.0.cmp(&b.0));
    let mut tenant_fields: Vec<(String, Json)> = per_tenant_ok
        .iter()
        .map(|(t, v)| (format!("tenant-{t}"), Json::Num(*v as f64)))
        .collect();
    tenant_fields.sort_by(|a, b| a.0.cmp(&b.0));

    let report = obj(vec![
        ("bench", Json::Str("serve".to_string())),
        (
            "transport",
            Json::Str(
                match opts.transport {
                    Transport::Inproc => "inproc",
                    Transport::Tcp => "tcp",
                }
                .to_string(),
            ),
        ),
        ("fault_plan", Json::Str(fault_plan)),
        ("clients", Json::Num(opts.clients as f64)),
        ("requests", Json::Num(total_requests as f64)),
        ("kernels", Json::Num(opts.kernels as f64)),
        ("tenants", Json::Num(opts.tenants as f64)),
        ("wall_ms", Json::Num(wall.as_millis() as f64)),
        (
            "throughput_rps",
            Json::Num(total_requests as f64 / wall.as_secs_f64().max(1e-9)),
        ),
        ("completed", Json::Num(completed as f64)),
        ("shed_rate", Json::Num(shed as f64 / total_requests as f64)),
        ("hung", Json::Num(0.0)),
        ("malformed_pct", Json::Num(opts.malformed_pct as f64)),
        (
            "diagnostics",
            obj(vec![
                ("compile_errors", Json::Num(compile_errors as f64)),
                ("missing", Json::Num(diag_missing as f64)),
                ("span_out_of_bounds", Json::Num(span_oob as f64)),
            ]),
        ),
        ("outcomes", Json::Obj(outcome_fields)),
        (
            "latency_us",
            obj(vec![
                ("p50", Json::Num(percentile(&latencies, 0.50) as f64)),
                ("p95", Json::Num(percentile(&latencies, 0.95) as f64)),
                ("p99", Json::Num(percentile(&latencies, 0.99) as f64)),
                (
                    "max",
                    Json::Num(latencies.last().copied().unwrap_or(0) as f64),
                ),
            ]),
        ),
        (
            "ok_latency_us",
            obj(vec![
                ("p50", Json::Num(percentile(&ok_latencies, 0.50) as f64)),
                ("p95", Json::Num(percentile(&ok_latencies, 0.95) as f64)),
                ("p99", Json::Num(percentile(&ok_latencies, 0.99) as f64)),
            ]),
        ),
        (
            "fairness",
            obj(vec![
                ("per_tenant_completed", Json::Obj(tenant_fields)),
                ("spread_max_over_min", Json::Num(fairness_spread)),
            ]),
        ),
        (
            "cache",
            obj(vec![
                ("hits", Json::Num(cache.hits as f64)),
                ("misses", Json::Num(cache.misses as f64)),
                ("coalesced", Json::Num(cache.coalesced as f64)),
                (
                    "served_from_cache_or_coalesced",
                    Json::Num(served_from_cache as f64),
                ),
                (
                    "hit_rate",
                    Json::Num(if completed > 0 {
                        served_from_cache as f64 / completed as f64
                    } else {
                        0.0
                    }),
                ),
            ]),
        ),
    ]);
    Ok(report)
}

fn submit_line(id: &str, req: &SubmitRequest) -> String {
    obj(vec![
        ("id", Json::Str(id.to_string())),
        ("tenant", Json::Str(req.tenant.clone())),
        ("kernel", Json::Str(req.kernel_source.clone())),
        ("name", Json::Str(req.name.clone())),
        ("grid", Json::Num(req.grid as f64)),
        ("block", Json::Num(req.block as f64)),
        ("args", Json::Str(req.args.clone())),
        (
            "deadline_ms",
            req.deadline_ms.map_or(Json::Null, |d| Json::Num(d as f64)),
        ),
    ])
    .render()
}

/// CLI entry for `catt serve-bench`: the harness options come from
/// `args`, the daemon under test from `config` and `engine`. Returns the
/// process exit code.
pub fn bench_main(args: &[String], config: ServeConfig, engine: Engine) -> u8 {
    let mut opts = BenchOptions::default();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| args.get(i + 1).map(String::as_str);
        match args[i].as_str() {
            "--clients" => match need(i).and_then(|v| v.parse().ok()) {
                Some(n) => {
                    opts.clients = n;
                    i += 2;
                }
                None => return usage(),
            },
            "--requests" => match need(i).and_then(|v| v.parse().ok()) {
                Some(n) => {
                    opts.requests_per_client = n;
                    i += 2;
                }
                None => return usage(),
            },
            "--kernels" => match need(i).and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                Some(n) => {
                    opts.kernels = n;
                    i += 2;
                }
                None => return usage(),
            },
            "--tenants" => match need(i).and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                Some(n) => {
                    opts.tenants = n;
                    i += 2;
                }
                None => return usage(),
            },
            "--transport" => match need(i) {
                Some("inproc") => {
                    opts.transport = Transport::Inproc;
                    i += 2;
                }
                Some("tcp") => {
                    opts.transport = Transport::Tcp;
                    i += 2;
                }
                _ => return usage(),
            },
            "--out" => match need(i) {
                Some(p) => {
                    opts.out_path = p.to_string();
                    i += 2;
                }
                None => return usage(),
            },
            "--seed" => match need(i).and_then(|v| v.parse().ok()) {
                Some(s) => {
                    opts.seed = s;
                    i += 2;
                }
                None => return usage(),
            },
            "--malformed" => match need(i).and_then(|v| v.parse().ok()).filter(|&p| p <= 100) {
                Some(p) => {
                    opts.malformed_pct = p;
                    i += 2;
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    match run(&opts, config, engine) {
        Ok(report) => {
            let text = report.render();
            if let Err(e) = std::fs::write(&opts.out_path, format!("{text}\n")) {
                eprintln!("serve-bench: cannot write {}: {e}", opts.out_path);
                return 1;
            }
            eprintln!("[serve-bench] wrote {}", opts.out_path);
            println!("{text}");
            0
        }
        Err(e) => {
            eprintln!("serve-bench: FAILED: {e}");
            1
        }
    }
}

fn usage() -> u8 {
    eprintln!(
        "usage: catt serve-bench [--clients N] [--requests N] [--kernels K] [--tenants T] \
         [--transport inproc|tcp] [--out FILE] [--seed S] [--malformed PCT]"
    );
    2
}
