//! The daemon's contract under load and chaos, over both ways in: the
//! in-process admission path (`Server::submit`) and the TCP front end
//! (`serve_listener` on a loopback port, a few connections shared by all
//! clients and demultiplexed by response `id`).
//!
//! The load: 200 client threads × 2 submits each, kernel popularity
//! Zipf(1) over 8 generated kernels (so the content-addressed cache and
//! the single-flight layer see a skewed mix), 8 tenants, 10 % of the
//! sources mangled into a guaranteed lexer error. The weather: the engine
//! injects 2 ms of latency per simulation, panics one worker job, and
//! runs every simulation under a cycle budget. Quotas are sized so each
//! tenant *must* be shed part of its traffic.
//!
//! The contract: **every request ends in exactly one typed response** —
//! served, rejected with in-bounds diagnostics, shed, or faulted; never
//! hung, never lost — and a drained daemon returns even while clients
//! that have nothing more to say keep their connections open.
//!
//! What this suite does not do is time anything: throughput and latency
//! are `benchmark/`'s `serve-cold` / `serve-hot` workloads.

use catt_core::engine::Engine;
use catt_core::fault::FaultPlan;
use catt_prng::Rng;
use catt_serve::front::serve_listener;
use catt_serve::json::{obj, Json};
use catt_serve::proto::{parse_response, ErrorKind, Response, SubmitRequest};
use catt_serve::server::{fuel_cost, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const CLIENTS: usize = 200;
const REQUESTS_PER_CLIENT: usize = 2;
const KERNELS: usize = 8;
const TENANTS: usize = 8;
const MALFORMED: f64 = 0.10;
const TCP_CONNECTIONS: usize = 16;
/// How long a client waits for one response before calling it hung.
const HUNG_AFTER: Duration = Duration::from_secs(60);

/// `count` distinct kernels (different constants → different content
/// digests), each with a cache-straining inner loop so CATT has something
/// to throttle.
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
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64 / total;
            acc
        })
        .collect()
}

/// Splice a `@` into `src` at a PRNG-chosen byte: always a lexer error,
/// so a mangled submission is always a `compile-error`.
fn mangle(src: &str, rng: &mut Rng) -> String {
    let at = rng.bounded_u64(src.len() as u64) as usize;
    format!("{}@{}", &src[..at], &src[at..])
}

/// The two submissions of client `client`, the same on every run.
fn client_requests(client: usize) -> Vec<(String, SubmitRequest)> {
    let kernels = corpus(KERNELS);
    let cdf = zipf_cdf(KERNELS);
    let mut rng = Rng::seed(0xCA77 ^ (client as u64).wrapping_mul(0x9E37_79B9));
    (0..REQUESTS_PER_CLIENT)
        .map(|r| {
            let u = rng.f64();
            let rank = cdf.iter().position(|&c| u <= c).unwrap_or(KERNELS - 1);
            let (name, src) = &kernels[rank];
            let grid = if rng.bool(0.5) { 4 } else { 8 };
            let mangled = rng.bool(MALFORMED);
            let req = SubmitRequest {
                tenant: format!("tenant-{}", client % TENANTS),
                kernel_source: if mangled {
                    mangle(src, &mut rng)
                } else {
                    src.clone()
                },
                name: if mangled { String::new() } else { name.clone() },
                grid,
                block: 64,
                args: "f:1024,f:1024,si:1024".to_string(),
                deadline_ms: Some(30_000),
                weight: 1,
                emit: false,
            };
            (format!("c{client}-r{r}"), req)
        })
        .collect()
}

/// A daemon under the chaos plan. The queue and the breaker are generous;
/// the quota is the gate that sheds by design: a tenant's bucket covers 30
/// of the 50 submissions its 25 clients make and does not refill within
/// the run, so whatever the interleaving at least 20 per tenant are shed.
fn chaos_server() -> Arc<Server> {
    let cost = fuel_cost(&client_requests(0)[0].1);
    let config = ServeConfig {
        workers: 2,
        queue_high_water: 64,
        quota_rate: 1,
        quota_burst: 30 * cost,
        default_deadline_ms: 30_000,
        breaker_threshold: 100,
        breaker_cooldown_ms: 1_000,
        drain_grace_ms: 5_000,
        quantum: 1 << 26,
    };
    let plan = FaultPlan::parse("delay-job=2,panic-job=7,fuel=200000");
    Arc::new(Server::new(config, Engine::new().with_fault_plan(plan)))
}

/// Run the full load through `roundtrip` (client index, request id and
/// request in; its response out, `None` when none came) and hold every
/// answer to the contract.
fn drive_and_check(roundtrip: &(dyn Fn(usize, &str, &SubmitRequest) -> Option<Response> + Sync)) {
    let exchanges: Vec<(String, SubmitRequest, Option<Response>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    client_requests(client)
                        .into_iter()
                        .map(|(id, req)| {
                            let resp = roundtrip(client, &id, &req);
                            (id, req, resp)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    assert_eq!(exchanges.len(), CLIENTS * REQUESTS_PER_CLIENT);

    let (mut ok, mut shed, mut faults, mut compile_errors) = (0, 0, 0, 0);
    for (id, req, resp) in &exchanges {
        let resp = resp
            .as_ref()
            .unwrap_or_else(|| panic!("{id}: no response within {HUNG_AFTER:?} — hung or lost"));
        assert_eq!(resp.id(), id, "a response must answer the request it names");
        match resp {
            Response::Result(_) => ok += 1,
            Response::Info { .. } => panic!("{id}: a submit was answered with an info line"),
            Response::Error(e) => match e.kind {
                ErrorKind::CompileError => {
                    compile_errors += 1;
                    let len = req.kernel_source.len();
                    let mut spans = e.diagnostics.iter().filter_map(|d| d.span).peekable();
                    assert!(
                        spans.peek().is_some(),
                        "{id}: compile-error without a located diagnostic: {}",
                        e.message
                    );
                    for s in spans {
                        assert!(
                            s.in_bounds(len),
                            "{id}: span {}..{} outside the {len}-byte source",
                            s.start,
                            s.end
                        );
                    }
                }
                ErrorKind::Overloaded | ErrorKind::QuotaExhausted | ErrorKind::CircuitOpen => {
                    shed += 1
                }
                ErrorKind::Fault => faults += 1,
                ErrorKind::BadRequest | ErrorKind::DeadlineExceeded => {
                    panic!("{id}: unexpected {}: {}", e.kind.token(), e.message)
                }
            },
        }
    }
    assert!(ok >= 1, "healthy kernels must complete under the plan");
    assert!(
        shed >= 20 * TENANTS,
        "each tenant's quota covers 30 of its 50 submissions, yet only {shed} were shed"
    );
    assert!(
        compile_errors >= 1,
        "a tenth of the sources were mangled, yet none was rejected"
    );
    // `panic-job=7` fires only if an eighth simulation is led; the count
    // is reported for the log, not required.
    eprintln!("serve_load: {ok} ok, {shed} shed, {compile_errors} compile-error, {faults} fault");
}

#[test]
fn every_request_gets_one_typed_response_in_process() {
    let server = chaos_server();
    drive_and_check(&|_client, id, req| {
        let (tx, rx) = mpsc::channel();
        server.submit(id.to_string(), req.clone(), tx);
        rx.recv_timeout(HUNG_AFTER).ok()
    });
    server.drain();
}

/// Host `server` on a loopback port chosen by the OS. The receiver yields
/// `serve_listener`'s return value once it has returned.
fn spawn_listener(server: &Arc<Server>) -> (SocketAddr, mpsc::Receiver<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let (done_tx, done_rx) = mpsc::channel();
    let server = Arc::clone(server);
    std::thread::spawn(move || {
        let _ = done_tx.send(serve_listener(server, listener));
    });
    (addr, done_rx)
}

/// Send `{"id":"bye","op":"shutdown"}` on a connection of its own and
/// return once the daemon has acknowledged the drain.
fn shutdown_over(addr: SocketAddr) {
    let mut conn = TcpStream::connect(addr).expect("connect for shutdown");
    writeln!(conn, "{{\"id\":\"bye\",\"op\":\"shutdown\"}}").expect("send shutdown");
    let mut ack = String::new();
    BufReader::new(conn)
        .read_line(&mut ack)
        .expect("read shutdown ack");
    assert!(ack.contains("\"drained\":true"), "shutdown ack: {ack}");
}

/// One TCP connection shared by many clients: the write half behind a
/// mutex, one thread routing response lines to their waiters by `id`.
struct SharedConn {
    writer: Mutex<TcpStream>,
    pending: Arc<Mutex<HashMap<String, mpsc::Sender<Response>>>>,
    demux: std::thread::JoinHandle<()>,
}

impl SharedConn {
    fn connect(addr: SocketAddr) -> SharedConn {
        let stream = TcpStream::connect(addr).expect("connect to the daemon");
        let read_half = stream.try_clone().expect("clone the connection");
        let pending: Arc<Mutex<HashMap<String, mpsc::Sender<Response>>>> = Arc::default();
        let waiters = Arc::clone(&pending);
        let demux = std::thread::spawn(move || {
            for line in BufReader::new(read_half).lines() {
                let Ok(line) = line else { break };
                let resp = parse_response(&line)
                    .unwrap_or_else(|e| panic!("unparseable response line: {e}\n{line}"));
                if let Some(tx) = waiters.lock().unwrap().remove(resp.id()) {
                    let _ = tx.send(resp);
                }
            }
        });
        SharedConn {
            writer: Mutex::new(stream),
            pending,
            demux,
        }
    }

    fn roundtrip(&self, id: &str, req: &SubmitRequest) -> Option<Response> {
        let line = obj(vec![
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
        .render();
        let (tx, rx) = mpsc::channel();
        self.pending.lock().unwrap().insert(id.to_string(), tx);
        writeln!(self.writer.lock().unwrap(), "{line}").expect("send a request line");
        rx.recv_timeout(HUNG_AFTER).ok()
    }
}

#[test]
fn every_request_gets_one_typed_response_over_tcp() {
    let server = chaos_server();
    let (addr, listener_done) = spawn_listener(&server);
    let pool: Vec<SharedConn> = (0..TCP_CONNECTIONS)
        .map(|_| SharedConn::connect(addr))
        .collect();
    // A client keeps to one connection.
    drive_and_check(&|client, id, req| pool[client % pool.len()].roundtrip(id, req));
    // All sixteen connections are still open and silent. The daemon must
    // drain and return regardless, closing them on its way out.
    shutdown_over(addr);
    listener_done
        .recv_timeout(Duration::from_secs(5))
        .expect("serve_listener did not return after the drain")
        .expect("serve_listener failed");
    for conn in pool {
        conn.demux
            .join()
            .expect("a demux thread panicked (unparseable line)");
        assert!(
            conn.pending.lock().unwrap().is_empty(),
            "a request was never answered"
        );
    }
}

/// The drain bug: `serve_listener` used to join every connection handler,
/// and a handler sits in a blocking read for as long as its client keeps
/// the socket open — one idle client kept the daemon alive forever after
/// an acknowledged `shutdown`.
#[test]
fn an_idle_connection_does_not_outlive_the_drain() {
    let config = ServeConfig::default();
    let grace = Duration::from_millis(config.drain_grace_ms);
    let server = Arc::new(Server::new(config, Engine::new()));
    let (addr, listener_done) = spawn_listener(&server);

    // A ping round trip proves the idle connection was accepted and its
    // handler is parked in `read` before the shutdown arrives.
    let mut idle = TcpStream::connect(addr).expect("connect the idle client");
    writeln!(idle, "{{\"id\":\"p\",\"op\":\"ping\"}}").expect("send ping");
    let mut idle_reader = BufReader::new(idle.try_clone().expect("clone the idle connection"));
    let mut pong = String::new();
    idle_reader.read_line(&mut pong).expect("read pong");
    assert!(pong.contains("\"pong\":true"), "ping reply: {pong}");

    shutdown_over(addr);
    listener_done
        .recv_timeout(grace)
        .expect("an idle connection kept serve_listener alive past the drain grace")
        .expect("serve_listener failed");
    // The idle client is told, too: its connection reads end-of-file.
    let mut rest = Vec::new();
    idle_reader
        .read_to_end(&mut rest)
        .expect("read to end-of-file");
    assert!(rest.is_empty(), "unexpected bytes on the idle connection");
}
