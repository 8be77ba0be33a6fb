//! The serve core: admission control, weighted-fair scheduling, worker
//! pool, deadline propagation, circuit breakers, and graceful drain.
//!
//! Request lifecycle (see DESIGN.md "catt-serve: service architecture &
//! failure model"):
//!
//! ```text
//! line ──parse──▶ prepare ──▶ admission ──┬─▶ answer (compile error, index or cache hit)
//!                               │         └─▶ fair queue ──▶ worker ──▶ response
//!                               │ drain?  ──▶ overloaded (draining)
//!                               │ breaker ──▶ circuit-open (+retry-after)
//!                               │ depth   ──▶ overloaded (+retry-after)
//!                               │ quota   ──▶ quota-exhausted (+retry-after)
//! ```
//!
//! `prepare` runs on the caller's thread, before the admission lock:
//! the size cap, then the request index, then, for a submission the
//! index cannot answer, parse, kernel lookup, CATT compile, argument
//! spec and cache key. The parser's nesting limit
//! (`catt_frontend::parser::MAX_NESTING`) and [`MAX_SOURCE_BYTES`] bound
//! what that costs in time and stack. Admission then runs every gate in
//! one critical section. A request that passes them and that `prepare`
//! already rejected, or whose simulation is cached, is answered right
//! there (`queue_ms` 0); only a cache miss is queued, already compiled,
//! for a worker to simulate.
//!
//! The request index maps a [`Fingerprint`] of everything that decides a
//! reply (kernel source, kernel name, grid, block, argument spec, `emit`)
//! to the simcache key and the reply's compile-time fields ([`Indexed`]).
//! A resubmission whose key the engine still holds skips parse, compile,
//! lowering and `job_digest`; its reply is those fields plus the cached
//! stats, so it is the compiled reply byte for byte but for `id`,
//! `source`, `queue_ms` and `total_ms`. The index holds no simulation
//! result, so it cannot disagree with the simcache, and it indexes only
//! keys the engine holds: with the simcache off it stays empty. Like the
//! simcache, it lives as long as the server and grows by one entry per
//! distinct submission that yields a result.
//!
//! Gate order matters: the breaker is *checked* first (an open breaker
//! must not charge quota) but its half-open probe slot is only
//! *committed* after every other gate passes, and depth precedes quota so
//! a shed-as-overloaded submission never drains the tenant's bucket.
//!
//! Every admitted request terminates in exactly one typed response:
//! admission answers what needs no simulation, the worker answers
//! expired jobs without simulating, the deadline reaper cancels running
//! simulations through their [`CancelToken`], and drain answers whatever
//! is still queued. Identical submissions (same kernel, launch, arguments
//! — tenant excluded) coalesce through the engine's single-flight layer
//! onto one simulation.

use crate::breaker::Breaker;
use crate::fair::FairQueue;
use crate::proto::{
    parse_request, ErrorBody, ErrorKind, Op, Request, Response, ResultBody, SubmitRequest,
};
use crate::quota::TokenBucket;
use catt_core::engine::{job_digest, Engine, JobError, JobKey, SimSource};
use catt_core::pipeline::Pipeline;
use catt_diag::json::{obj, Json};
use catt_diag::{codes, Diagnostic};
use catt_ir::kernel::{Kernel, LaunchConfig, ParamTy};
use catt_ir::types::DType;
use catt_sim::{
    Arg, CancelToken, Fnv64, GlobalMem, Gpu, GpuConfig, LaunchStats, Program, SimError, FUEL_BASE,
    FUEL_PER_BYTE,
};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serve tuning knobs. `catt serve` fills each from its `CATT_SERVE_*`
/// environment variable (documented in EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulation worker threads (`CATT_SERVE_WORKERS`).
    pub workers: usize,
    /// Admission-queue high-water mark: submissions past this depth shed
    /// with `overloaded` (`CATT_SERVE_QUEUE`).
    pub queue_high_water: usize,
    /// Per-tenant token-bucket refill, fuel units/second
    /// (`CATT_SERVE_QUOTA_RATE`).
    pub quota_rate: u64,
    /// Per-tenant burst capacity, fuel units (`CATT_SERVE_QUOTA_BURST`).
    pub quota_burst: u64,
    /// Deadline applied when a request names none, ms
    /// (`CATT_SERVE_DEADLINE_MS`).
    pub default_deadline_ms: u64,
    /// Consecutive fatal faults before a tenant's breaker opens
    /// (`CATT_SERVE_BREAKER_THRESHOLD`).
    pub breaker_threshold: u32,
    /// Open-breaker cooldown before the half-open probe, ms
    /// (`CATT_SERVE_BREAKER_COOLDOWN_MS`).
    pub breaker_cooldown_ms: u64,
    /// Graceful-drain grace period before in-flight work is cancelled,
    /// ms (`CATT_SERVE_DRAIN_MS`).
    pub drain_grace_ms: u64,
    /// DRR quantum, fuel units per tenant visit (`CATT_SERVE_QUANTUM`).
    pub quantum: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_high_water: 64,
            quota_rate: 64 * FUEL_BASE,
            quota_burst: 256 * FUEL_BASE,
            default_deadline_ms: 10_000,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1_000,
            drain_grace_ms: 5_000,
            quantum: 4 * FUEL_BASE,
        }
    }
}

/// Estimated simulation fuel for a submission — the quota and fairness
/// cost unit. Footprint comes from the argument spec (buffer lengths);
/// requests with derived arguments, no buffers, or a spec
/// [`parse_arg_spec`] rejects are charged the default footprint.
pub fn fuel_cost(req: &SubmitRequest) -> u64 {
    let bytes: u64 = parse_arg_spec(&req.args)
        .unwrap_or_default()
        .iter()
        .map(|a| match a {
            ArgSpec::FBuf(len) | ArgSpec::IBuf(len) => *len as u64 * 4,
            ArgSpec::F32(_) | ArgSpec::I32(_) => 0,
        })
        .sum();
    let bytes = match bytes {
        0 => DERIVED_BUF_LEN as u64 * 4,
        b => b,
    };
    FUEL_BASE.saturating_add(bytes.saturating_mul(FUEL_PER_BYTE))
}

/// Buffer length used when a request derives arguments from parameter
/// types instead of supplying an `args` spec.
const DERIVED_BUF_LEN: u32 = 1024;

/// Hard ceiling on a request deadline (5 minutes).
const MAX_DEADLINE_MS: u64 = 300_000;

/// Longest request line [`Server::handle_line`] accepts, in bytes; the
/// transports buffer at most one byte more of any line. Like
/// [`MAX_SOURCE_BYTES`] it is a constant, not a [`ServeConfig`] field:
/// one value is in use, and callers build `ServeConfig` as a literal.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Longest `kernel` source a submission may carry, in bytes. Checked
/// before anything parses it.
pub const MAX_SOURCE_BYTES: usize = 256 << 10;

/// One admitted job, compiled and queued for a worker.
struct Job {
    id: String,
    tenant: String,
    compiled: Compiled,
    admitted: Instant,
    deadline: Instant,
    cancel: CancelToken,
    reply: mpsc::Sender<Response>,
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_quota: AtomicU64,
    shed_breaker: AtomicU64,
    bad_request: AtomicU64,
    compile_error: AtomicU64,
    deadline_exceeded: AtomicU64,
    faults: AtomicU64,
    /// Submissions answered from the request index.
    index_hits: AtomicU64,
}

/// One tenant's admission state.
struct Tenant {
    /// Fuel quota.
    bucket: TokenBucket,
    /// Circuit breaker over fatal simulation faults.
    breaker: Breaker,
}

struct QueueState {
    queue: FairQueue<Job>,
    tenants: HashMap<String, Tenant>,
    /// Jobs currently held by workers.
    running: usize,
    /// Cancel tokens of running jobs (for hard drain).
    running_tokens: Vec<CancelToken>,
    /// Worker threads alive (drain waits for them to finish).
    workers_alive: usize,
}

/// Deadline reaper bookkeeping: `(fire_at, token)` for running sims.
struct ReaperState {
    entries: Vec<(Instant, CancelToken)>,
    stop: bool,
}

struct Inner {
    config: ServeConfig,
    engine: Engine,
    pipe: Pipeline,
    base_config: GpuConfig,
    state: Mutex<QueueState>,
    /// Signals workers: queue non-empty or draining.
    work_cv: Condvar,
    /// Signals drain: a job finished / a worker exited.
    idle_cv: Condvar,
    reaper: Mutex<ReaperState>,
    reaper_cv: Condvar,
    epoch: Instant,
    draining: AtomicBool,
    counters: Counters,
    /// The request index (see the module docs).
    index: Mutex<HashMap<Fingerprint, Arc<Indexed>>>,
    /// The key of the fingerprint's second hash, random per server.
    index_keys: RandomState,
}

/// The daemon core. Construction spawns the worker pool and the deadline
/// reaper; [`Server::drain`] (idempotent) winds everything down.
pub struct Server {
    inner: Arc<Inner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// A server over `engine` (callers pick the cache mode) with the
    /// given tuning.
    pub fn new(config: ServeConfig, engine: Engine) -> Server {
        let mut base_config = GpuConfig::titan_v_1sm();
        // Chaos harness: a `fuel=C` fault plan starves every simulation,
        // and `fail-transform` fails every compile's transform.
        base_config.sim_fuel = engine.fault_plan().fuel;
        let pipe = Pipeline::new(base_config.clone()).with_fault_plan(engine.fault_plan().clone());
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            pipe,
            base_config,
            state: Mutex::new(QueueState {
                queue: FairQueue::new(config.quantum),
                tenants: HashMap::new(),
                running: 0,
                running_tokens: Vec::new(),
                workers_alive: workers,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            reaper: Mutex::new(ReaperState {
                entries: Vec::new(),
                stop: false,
            }),
            reaper_cv: Condvar::new(),
            epoch: Instant::now(),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
            index: Mutex::new(HashMap::new()),
            index_keys: RandomState::new(),
            config,
            engine,
        });
        let mut threads = Vec::new();
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker"),
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-reaper".to_string())
                    .spawn(move || reaper_loop(&inner))
                    .expect("spawn serve reaper"),
            );
        }
        Server {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// Milliseconds since server start (the quota/breaker clock).
    fn now_ms(&self) -> u64 {
        self.inner.epoch.elapsed().as_millis() as u64
    }

    /// Parse and dispatch one request line. Responses (exactly one per
    /// line, including unparseable ones) go to `reply`. Returns `false`
    /// after a `shutdown` op completed its drain — the caller should stop
    /// reading.
    pub fn handle_line(&self, line: &str, reply: &mpsc::Sender<Response>) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        if line.len() > MAX_LINE_BYTES {
            self.inner
                .counters
                .bad_request
                .fetch_add(1, Ordering::Relaxed);
            let id = crate::proto::recover_id(line).unwrap_or_default();
            let _ = reply.send(err(
                &id,
                ErrorKind::BadRequest,
                format!("request line longer than {MAX_LINE_BYTES} bytes"),
            ));
            return true;
        }
        match parse_request(line) {
            Err((id, message)) => {
                self.inner
                    .counters
                    .bad_request
                    .fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(Response::Error(ErrorBody {
                    id,
                    kind: ErrorKind::BadRequest,
                    message,
                    retry_after_ms: None,
                    diagnostics: Vec::new(),
                }));
                true
            }
            Ok(Request { id, op }) => match op {
                Op::Ping => {
                    let _ = reply.send(Response::Info {
                        id,
                        fields: obj(vec![("pong", Json::Bool(true))]),
                    });
                    true
                }
                Op::Stats => {
                    let _ = reply.send(Response::Info {
                        id,
                        fields: self.stats_json(),
                    });
                    true
                }
                Op::Shutdown => {
                    self.drain();
                    let _ = reply.send(Response::Info {
                        id,
                        fields: obj(vec![("drained", Json::Bool(true))]),
                    });
                    false
                }
                Op::Submit(req) => {
                    self.submit(id, req, reply.clone());
                    true
                }
            },
        }
    }

    /// Admission control. The submission is first prepared (compiled)
    /// on the caller's thread; then drain gate, circuit breaker, queue
    /// depth and quota run — in that order, in one critical section.
    /// Rejections reply immediately. An admitted submission that needs no
    /// simulation (a compile error, a cached result) is answered right
    /// away too; the rest reply from a worker later. The breaker's
    /// half-open probe slot is consumed only once the request is
    /// admitted, so a probe shed by the depth or quota gate cannot wedge
    /// the breaker half-open with no probe in flight.
    pub fn submit(&self, id: String, req: SubmitRequest, reply: mpsc::Sender<Response>) {
        let prepared = prepare(&self.inner, &id, &req);
        let c = &self.inner.counters;
        let now_ms = self.now_ms();
        let cost = fuel_cost(&req);
        let cfg = &self.inner.config;
        let mut st = self.inner.state.lock().unwrap();
        // Checked under the lock: workers exit once they see the drain
        // flag with an empty queue, so a job pushed after that would
        // never be answered.
        if self.inner.draining.load(Ordering::SeqCst) {
            drop(st);
            c.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(err(
                &id,
                ErrorKind::Overloaded,
                "server is draining (shutdown in progress)",
            ));
            return;
        }
        // One tenant lookup serves every gate. A new tenant's bucket is
        // born full, so creating it ahead of the depth gate leaves what
        // the quota gate sees unchanged.
        let queue_full = st.queue.len() >= cfg.queue_high_water;
        let tenant = st
            .tenants
            .entry(req.tenant.clone())
            .or_insert_with(|| Tenant {
                bucket: TokenBucket::new(cfg.quota_burst, cfg.quota_rate, now_ms),
                breaker: Breaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ms),
            });
        // Breaker first (check only: an open breaker must not charge
        // quota, and the half-open probe slot is committed below, after
        // every other gate passes).
        if let Err(retry_ms) = tenant.breaker.check(now_ms) {
            drop(st);
            c.shed_breaker.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Response::Error(ErrorBody {
                id,
                kind: ErrorKind::CircuitOpen,
                message: format!(
                    "tenant `{}` circuit breaker is open after repeated simulation faults",
                    req.tenant
                ),
                retry_after_ms: Some(retry_ms),
                diagnostics: Vec::new(),
            }));
            return;
        }
        // Depth before quota: a submission the server never accepts must
        // not drain the tenant's bucket, or sustained overload would
        // follow up with spurious quota-exhausted once the backlog clears.
        if queue_full {
            drop(st);
            c.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            // Retry-after scales with backlog per worker — honest
            // backpressure instead of a constant.
            let per_worker = cfg.queue_high_water / cfg.workers.max(1);
            let _ = reply.send(Response::Error(ErrorBody {
                id,
                kind: ErrorKind::Overloaded,
                message: format!("admission queue full ({} queued)", cfg.queue_high_water),
                retry_after_ms: Some((10 * per_worker.max(1) as u64).min(5_000)),
                diagnostics: Vec::new(),
            }));
            return;
        }
        if let Err(retry_ms) = tenant.bucket.try_take(cost, now_ms) {
            drop(st);
            c.shed_quota.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Response::Error(ErrorBody {
                id,
                kind: ErrorKind::QuotaExhausted,
                message: format!(
                    "tenant `{}` fuel quota exhausted (request cost {cost})",
                    req.tenant
                ),
                retry_after_ms: Some(retry_ms),
                diagnostics: Vec::new(),
            }));
            return;
        }
        // All gates passed — the request will run and report back, so the
        // half-open probe slot (if any) can safely be consumed now.
        tenant.breaker.commit(now_ms);
        c.admitted.fetch_add(1, Ordering::Relaxed);
        let admitted = Instant::now();
        let engine = &self.inner.engine;
        // An answer given here, as one from a worker, books a breaker
        // success.
        let compiled = match prepared {
            Err(rejected) => {
                tenant.breaker.on_success();
                return answer_now(st, c, &reply, || Response::Error(rejected));
            }
            Ok(Prepared::Indexed(entry, held)) => {
                // The counted lookup a compiled hit makes. It finds what
                // `prepare` saw: the simcache never drops an entry.
                let stats = engine
                    .cached(entry.key, &self.inner.base_config)
                    .unwrap_or(held);
                c.index_hits.fetch_add(1, Ordering::Relaxed);
                tenant.breaker.on_success();
                return answer_now(st, c, &reply, || {
                    let took = admitted.elapsed();
                    result_response(&id, &entry, stats, SimSource::CacheHit, 0, took)
                });
            }
            Ok(Prepared::Compiled(compiled)) => compiled,
        };
        if let Some(stats) = engine.cached(compiled.entry.key, &self.inner.base_config) {
            tenant.breaker.on_success();
            return answer_now(st, c, &reply, || {
                index(&self.inner, &compiled);
                let took = admitted.elapsed();
                result_response(&id, &compiled.entry, stats, SimSource::CacheHit, 0, took)
            });
        }
        let deadline_ms = req
            .deadline_ms
            .unwrap_or(cfg.default_deadline_ms)
            .clamp(1, MAX_DEADLINE_MS);
        let job = Job {
            id,
            tenant: req.tenant.clone(),
            compiled,
            deadline: admitted + Duration::from_millis(deadline_ms),
            admitted,
            cancel: CancelToken::new(),
            reply,
        };
        st.queue.push(&req.tenant, req.weight, cost, job);
        drop(st);
        self.inner.work_cv.notify_one();
    }

    /// Daemon counters as a JSON object (the `stats` op payload).
    pub fn stats_json(&self) -> Json {
        let c = &self.inner.counters;
        let cache = self.inner.engine.cache_counters();
        let index_entries = self.inner.index.lock().unwrap().len();
        let st = self.inner.state.lock().unwrap();
        obj(vec![
            ("queue_depth", Json::Num(st.queue.len() as f64)),
            ("running", Json::Num(st.running as f64)),
            (
                "draining",
                Json::Bool(self.inner.draining.load(Ordering::SeqCst)),
            ),
            (
                "admitted",
                Json::Num(c.admitted.load(Ordering::Relaxed) as f64),
            ),
            (
                "completed",
                Json::Num(c.completed.load(Ordering::Relaxed) as f64),
            ),
            (
                "shed_overloaded",
                Json::Num(c.shed_overloaded.load(Ordering::Relaxed) as f64),
            ),
            (
                "shed_quota",
                Json::Num(c.shed_quota.load(Ordering::Relaxed) as f64),
            ),
            (
                "shed_breaker",
                Json::Num(c.shed_breaker.load(Ordering::Relaxed) as f64),
            ),
            (
                "bad_request",
                Json::Num(c.bad_request.load(Ordering::Relaxed) as f64),
            ),
            (
                "compile_error",
                Json::Num(c.compile_error.load(Ordering::Relaxed) as f64),
            ),
            (
                "deadline_exceeded",
                Json::Num(c.deadline_exceeded.load(Ordering::Relaxed) as f64),
            ),
            ("faults", Json::Num(c.faults.load(Ordering::Relaxed) as f64)),
            ("cache_hits", Json::Num(cache.hits as f64)),
            ("cache_misses", Json::Num(cache.misses as f64)),
            ("coalesced", Json::Num(cache.coalesced as f64)),
            ("index_entries", Json::Num(index_entries as f64)),
            (
                "index_hits",
                Json::Num(c.index_hits.load(Ordering::Relaxed) as f64),
            ),
        ])
    }

    /// Graceful drain (idempotent): stop admitting, give in-flight and
    /// queued work `drain_grace_ms` to finish, then cancel what remains
    /// (queued jobs answered `deadline-exceeded`, running simulations
    /// cancelled through their tokens), and join the pool. Every admitted
    /// request still gets its one response.
    pub fn drain(&self) {
        let first = !self.inner.draining.swap(true, Ordering::SeqCst);
        self.inner.work_cv.notify_all();
        let grace_until = Instant::now() + Duration::from_millis(self.inner.config.drain_grace_ms);
        let mut st = self.inner.state.lock().unwrap();
        let mut aborted = false;
        while st.workers_alive > 0 {
            if !aborted && Instant::now() >= grace_until {
                aborted = true;
                // Grace expired: answer the backlog and cancel running sims.
                for job in st.queue.drain_all() {
                    self.inner
                        .counters
                        .deadline_exceeded
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = job.reply.send(Response::Error(ErrorBody {
                        id: job.id,
                        kind: ErrorKind::DeadlineExceeded,
                        message: "cancelled by shutdown drain".to_string(),
                        retry_after_ms: None,
                        diagnostics: Vec::new(),
                    }));
                }
                for tok in &st.running_tokens {
                    tok.cancel();
                }
                self.inner.work_cv.notify_all();
            }
            let wait = if aborted {
                Duration::from_millis(50)
            } else {
                grace_until
                    .saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(50))
                    .max(Duration::from_millis(1))
            };
            let (guard, _) = self.inner.idle_cv.wait_timeout(st, wait).unwrap();
            st = guard;
        }
        drop(st);
        if first {
            let mut r = self.inner.reaper.lock().unwrap();
            r.stop = true;
            drop(r);
            self.inner.reaper_cv.notify_all();
            let threads = std::mem::take(&mut *self.threads.lock().unwrap());
            for t in threads {
                let _ = t.join();
            }
        }
    }

    /// The engine (tests read cache counters through this).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Whether drain has begun.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }
}

/// Answer an admitted submission that needs no simulation (a compile
/// error, a cached result) on the caller's thread; the reply is built
/// after the lock is released.
fn answer_now(
    st: MutexGuard<'_, QueueState>,
    c: &Counters,
    reply: &mpsc::Sender<Response>,
    response: impl FnOnce() -> Response,
) {
    drop(st);
    let response = response();
    count_answer(c, &response);
    let _ = reply.send(response);
}

/// Count the answer to an admitted request under its outcome.
fn count_answer(c: &Counters, response: &Response) {
    let counter = match response {
        Response::Result(_) => &c.completed,
        Response::Error(e) => match e.kind {
            ErrorKind::BadRequest => &c.bad_request,
            ErrorKind::CompileError => &c.compile_error,
            ErrorKind::DeadlineExceeded => &c.deadline_exceeded,
            ErrorKind::Fault => &c.faults,
            ErrorKind::Overloaded | ErrorKind::QuotaExhausted | ErrorKind::CircuitOpen => return,
        },
        Response::Info { .. } => return,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if let Some((_, _, job)) = st.queue.pop() {
                    st.running += 1;
                    st.running_tokens.push(job.cancel.clone());
                    break job;
                }
                if inner.draining.load(Ordering::SeqCst) {
                    st.workers_alive -= 1;
                    drop(st);
                    inner.idle_cv.notify_all();
                    return;
                }
                st = inner.work_cv.wait(st).unwrap();
            }
        };
        let cancel = job.cancel.clone();
        let reply = job.reply.clone();
        let tenant = job.tenant.clone();
        let response = process_job(inner, job);
        count_answer(&inner.counters, &response);
        // Breaker bookkeeping: only genuine simulation faults count —
        // typed rejections prove the service is healthy for the tenant.
        {
            let now_ms = inner.epoch.elapsed().as_millis() as u64;
            let mut st = inner.state.lock().unwrap();
            if let Some(t) = st.tenants.get_mut(&tenant) {
                match &response {
                    Response::Error(e) if e.kind == ErrorKind::Fault => t.breaker.on_fatal(now_ms),
                    _ => t.breaker.on_success(),
                }
            }
            st.running -= 1;
            st.running_tokens.retain(|t| t != &cancel);
        }
        let _ = reply.send(response);
        inner.idle_cv.notify_all();
    }
}

/// One entry of an argument spec (`catt run --args`, a submission's
/// `args`).
#[derive(Debug)]
pub enum ArgSpec {
    /// `f:<len>`: a float buffer of `len` elements.
    FBuf(u32),
    /// `i:<len>`: an int buffer of `len` elements.
    IBuf(u32),
    /// `sf:<v>`: a float scalar.
    F32(f32),
    /// `si:<v>`: an int scalar.
    I32(i32),
}

/// Parse a comma-separated `<type>:<value>` argument spec. Empty parts
/// are skipped and values are trimmed.
pub fn parse_arg_spec(spec: &str) -> Result<Vec<ArgSpec>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (ty, val) = part
            .split_once(':')
            .ok_or_else(|| format!("bad arg spec `{part}` (want type:value)"))?;
        let val = val.trim();
        let arg = match ty {
            "f" => ArgSpec::FBuf(val.parse().map_err(|_| format!("bad length `{val}`"))?),
            "i" => ArgSpec::IBuf(val.parse().map_err(|_| format!("bad length `{val}`"))?),
            "sf" => ArgSpec::F32(val.parse().map_err(|_| format!("bad f32 `{val}`"))?),
            "si" => ArgSpec::I32(val.parse().map_err(|_| format!("bad i32 `{val}`"))?),
            other => return Err(format!("unknown arg type `{other}` (want f|i|sf|si)")),
        };
        out.push(arg);
    }
    Ok(out)
}

/// Derive a default argument spec from the kernel's parameter types
/// (buffers of [`DERIVED_BUF_LEN`], scalar bounds matching them).
fn derive_arg_spec(kernel: &Kernel) -> Result<Vec<ArgSpec>, String> {
    kernel
        .params
        .iter()
        .map(|p| match p.ty {
            ParamTy::Ptr(DType::F32) => Ok(ArgSpec::FBuf(DERIVED_BUF_LEN)),
            ParamTy::Ptr(_) => Ok(ArgSpec::IBuf(DERIVED_BUF_LEN)),
            ParamTy::Scalar(DType::F32) => Ok(ArgSpec::F32(1.0)),
            ParamTy::Scalar(_) => Ok(ArgSpec::I32(DERIVED_BUF_LEN as i32)),
        })
        .collect()
}

/// Canonical rendering of a spec (part of the cache scope, so derived
/// and explicit-but-identical specs share entries).
fn render_spec(spec: &[ArgSpec]) -> String {
    spec.iter()
        .map(|a| match a {
            ArgSpec::FBuf(n) => format!("f:{n}"),
            ArgSpec::IBuf(n) => format!("i:{n}"),
            ArgSpec::F32(v) => format!("sf:{v}"),
            ArgSpec::I32(v) => format!("si:{v}"),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Materialize the deterministic argument values into `mem`, so results
/// are reproducible from the spec alone.
pub fn materialize_args(spec: &[ArgSpec], mem: &mut GlobalMem) -> Vec<Arg> {
    spec.iter()
        .enumerate()
        .map(|(ai, a)| match a {
            ArgSpec::FBuf(len) => {
                let data: Vec<f32> = (0..*len)
                    .map(|v| ((v * 7 + ai as u32) % 13) as f32)
                    .collect();
                Arg::Buf(mem.alloc_f32(&data))
            }
            ArgSpec::IBuf(len) => {
                let data: Vec<i32> = (0..*len as i32).map(|v| (v * 5 + ai as i32) % 17).collect();
                Arg::Buf(mem.alloc_i32(&data))
            }
            ArgSpec::F32(v) => Arg::F32(*v),
            ArgSpec::I32(v) => Arg::I32(*v),
        })
        .collect()
}

fn err(id: &str, kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error(error_body(id, kind, message, Vec::new()))
}

/// A typed error; a `compile-error` carries its structured diagnostics
/// (stable code + byte span into the submitted source).
fn error_body(
    id: &str,
    kind: ErrorKind,
    message: impl Into<String>,
    diagnostics: Vec<Diagnostic>,
) -> ErrorBody {
    ErrorBody {
        id: id.to_string(),
        kind,
        message: message.into(),
        retry_after_ms: None,
        diagnostics,
    }
}

/// A 128-bit fingerprint of everything that decides a submission's
/// reply: kernel source, kernel name, grid, block, argument spec and
/// `emit`; not the id, tenant, deadline or weight. It is two independent
/// 64-bit hashes, FNV-1a and std's SipHash under the server's random key:
/// the index answers every tenant, and FNV alone can be collided on
/// purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Fingerprint(u64, u64);

impl Fingerprint {
    fn of(req: &SubmitRequest, keys: &RandomState) -> Fingerprint {
        let decides = (
            &req.kernel_source,
            &req.name,
            req.grid,
            req.block,
            &req.args,
            req.emit,
        );
        let mut fnv = Fnv64::new();
        decides.hash(&mut fnv);
        Fingerprint(Hasher::finish(&fnv), keys.hash_one(decides))
    }
}

/// A request-index entry: the simcache key of a submission and its
/// reply's compile-time fields. No simulation result: a reply's stats
/// always come from the engine.
struct Indexed {
    key: JobKey,
    kernel: String,
    /// Warp-throttling factor: the largest over the kernel's loops, 1
    /// when none is throttled.
    n: u32,
    m: u32,
    transformed: bool,
    /// Boxed: few compiles fall back, and the index keeps every entry.
    fallback: Option<Box<Diagnostic>>,
    /// Only when the submission set `emit`.
    emitted_source: Option<String>,
}

/// A submission ready for admission.
enum Prepared {
    /// Indexed, with the result the engine holds under its key (read
    /// without counting; admission counts the hit).
    Indexed(Arc<Indexed>, LaunchStats),
    /// Compiled by this request.
    Compiled(Compiled),
}

/// A submission compiled on the caller's thread: its index entry, to
/// add once it yields a result, and what its simulation needs.
struct Compiled {
    fingerprint: Fingerprint,
    entry: Arc<Indexed>,
    /// The transformed kernel, lowered: the cache key's program.
    program: Program,
    launch: LaunchConfig,
    spec: Vec<ArgSpec>,
    /// Cache scope: the canonical argument spec (tenant excluded, so
    /// identical cross-tenant submissions share cache entries and
    /// single-flight slots).
    scope: String,
}

/// Check the size cap and look the submission up in the request index;
/// failing that, parse, pick the kernel, run the CATT pipeline and
/// settle the arguments and cache key. Counts nothing: the caller
/// answers a rejection only once the request passes admission.
fn prepare(inner: &Inner, id: &str, req: &SubmitRequest) -> Result<Prepared, ErrorBody> {
    let source = &req.kernel_source;
    if source.len() > MAX_SOURCE_BYTES {
        let message = format!(
            "kernel source is {} bytes, over the {MAX_SOURCE_BYTES}-byte limit",
            source.len()
        );
        return Err(error_body(id, ErrorKind::BadRequest, message, Vec::new()));
    }
    let fingerprint = Fingerprint::of(req, &inner.index_keys);
    let indexed = inner.index.lock().unwrap().get(&fingerprint).cloned();
    if let Some(entry) = indexed {
        if let Some(stats) = inner.engine.held(entry.key, &inner.base_config) {
            return Ok(Prepared::Indexed(entry, stats));
        }
    }
    let module = inner.pipe.parse(source).map_err(|e| {
        let first = e.errors().next().map(|d| (d.line, d.col)).unwrap_or((0, 0));
        let message = format!("{}:{}: {}", first.0, first.1, e.message);
        error_body(id, ErrorKind::CompileError, message, e.diagnostics)
    })?;
    let kernel = if req.name.is_empty() {
        module.kernels.first()
    } else {
        module.kernels.iter().find(|k| k.name == req.name)
    };
    let Some(kernel) = kernel else {
        let message = format!("kernel `{}` not found in the translation unit", req.name);
        let diag = Diagnostic::error(codes::KERNEL_NOT_FOUND, message.clone())
            .with_span(catt_diag::Span::point(0))
            .at(1, 1);
        return Err(error_body(id, ErrorKind::CompileError, message, vec![diag]));
    };
    let launch = LaunchConfig::d1(req.grid, req.block);
    let compiled = inner.pipe.compile_kernel(kernel, launch).map_err(|mut e| {
        catt_diag::locate(&mut e.diagnostics, source);
        error_body(id, ErrorKind::CompileError, e.to_string(), e.diagnostics)
    })?;

    // Arguments: explicit spec (validated against the parameter count) or
    // derived from the parameter types.
    let spec = if req.args.is_empty() {
        derive_arg_spec(kernel)
    } else {
        match parse_arg_spec(&req.args) {
            Ok(s) if s.len() == kernel.params.len() => Ok(s),
            Ok(s) => Err(format!(
                "arg spec has {} entries, kernel `{}` has {} parameters",
                s.len(),
                kernel.name,
                kernel.params.len()
            )),
            Err(e) => Err(e),
        }
    }
    .map_err(|e| error_body(id, ErrorKind::BadRequest, e, Vec::new()))?;
    let scope = format!("catt-serve:{}", render_spec(&spec));
    let key = job_digest(
        &scope,
        std::slice::from_ref(&compiled.program),
        &[launch],
        &inner.base_config,
    );
    let analysis = &compiled.analysis;
    let n = analysis.loops.iter().map(|l| l.decision.n).max();
    let entry = Indexed {
        key,
        kernel: kernel.name.clone(),
        n: n.unwrap_or(1).max(1),
        m: analysis.tb_throttle_m(),
        transformed: compiled.is_transformed(),
        fallback: compiled.fallback_diagnostic.map(|mut fb| {
            catt_diag::locate(std::slice::from_mut(&mut fb), source);
            Box::new(fb)
        }),
        emitted_source: req.emit.then_some(compiled.emitted_source),
    };
    Ok(Prepared::Compiled(Compiled {
        fingerprint,
        entry: Arc::new(entry),
        program: compiled.program,
        launch,
        spec,
        scope,
    }))
}

/// Index a compiled submission that yielded a result, if the engine
/// holds it: with the simcache off, the index stays empty.
fn index(inner: &Inner, compiled: &Compiled) {
    if inner
        .engine
        .held(compiled.entry.key, &inner.base_config)
        .is_some()
    {
        let entry = Arc::clone(&compiled.entry);
        inner
            .index
            .lock()
            .unwrap()
            .insert(compiled.fingerprint, entry);
    }
}

/// The success reply: an index entry's fields and a simulation's stats.
fn result_response(
    id: &str,
    entry: &Indexed,
    stats: LaunchStats,
    source: SimSource,
    queue_ms: u64,
    total: Duration,
) -> Response {
    let miss_rate = if stats.l1_accesses > 0 {
        1.0 - stats.l1_hits as f64 / stats.l1_accesses as f64
    } else {
        0.0
    };
    Response::Result(ResultBody {
        id: id.to_string(),
        kernel: entry.kernel.clone(),
        n: entry.n,
        m: entry.m,
        transformed: entry.transformed,
        cycles: stats.cycles,
        miss_rate,
        source: match source {
            SimSource::Computed => "computed",
            SimSource::CacheHit => "cache",
            SimSource::Coalesced => "coalesced",
        },
        queue_ms,
        total_ms: total.as_millis() as u64,
        emitted_source: entry.emitted_source.clone(),
        fallback: entry.fallback.as_deref().cloned(),
    })
}

/// Simulate one admitted, compiled job. Always returns a typed response;
/// never panics (simulation panics are caught by the engine).
fn process_job(inner: &Arc<Inner>, job: Job) -> Response {
    let now = Instant::now();
    if now >= job.deadline || job.cancel.is_cancelled() {
        return err(
            &job.id,
            ErrorKind::DeadlineExceeded,
            "deadline expired while queued",
        );
    }
    let queue_ms = now.duration_since(job.admitted).as_millis() as u64;

    // Simulate the throttled kernel with the deadline token wired in.
    let p = &job.compiled;
    let mut config = inner.base_config.clone();
    config.cancel = Some(job.cancel.clone());
    let label = format!("serve `{}`", p.entry.kernel);
    // Register with the deadline reaper for the duration of the sim.
    reaper_register(inner, job.deadline, job.cancel.clone());
    let outcome =
        inner
            .engine
            .sim_app_shared(&p.scope, p.entry.key, &config, Some(job.deadline), || {
                let mut mem = GlobalMem::new();
                let args = materialize_args(&p.spec, &mut mem);
                let mut gpu = Gpu::new(config.clone());
                gpu.launch_program(&p.program, p.launch, &args, &mut mem)
                    .map_err(|e| match &e {
                        SimError::Cancelled { .. } => {
                            JobError::fatal(&label, e.to_string()).with_code("cancelled")
                        }
                        _ => JobError::fatal(&label, e.to_string()).with_code(e.code()),
                    })
            });
    reaper_unregister(inner, &job.cancel);

    match outcome {
        Ok(out) => {
            index(inner, p);
            let took = job.admitted.elapsed();
            result_response(&job.id, &p.entry, out.stats, out.source, queue_ms, took)
        }
        Err(e) if matches!(e.code, Some("cancelled" | "deadline")) => {
            err(&job.id, ErrorKind::DeadlineExceeded, e.message)
        }
        Err(e) => err(
            &job.id,
            ErrorKind::Fault,
            format!(
                "simulation fault{}: {}",
                e.code.map(|c| format!(" [{c}]")).unwrap_or_default(),
                e.message
            ),
        ),
    }
}

fn reaper_register(inner: &Arc<Inner>, fire_at: Instant, token: CancelToken) {
    let mut r = inner.reaper.lock().unwrap();
    r.entries.push((fire_at, token));
    drop(r);
    inner.reaper_cv.notify_all();
}

fn reaper_unregister(inner: &Arc<Inner>, token: &CancelToken) {
    let mut r = inner.reaper.lock().unwrap();
    r.entries.retain(|(_, t)| t != token);
}

/// The deadline reaper: sleeps until the earliest registered deadline and
/// fires the corresponding cancel tokens, bounding every running
/// simulation's wall-clock time.
fn reaper_loop(inner: &Arc<Inner>) {
    let mut r = inner.reaper.lock().unwrap();
    loop {
        if r.stop {
            return;
        }
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        r.entries.retain(|(fire_at, token)| {
            if *fire_at <= now {
                token.cancel();
                false
            } else {
                next = Some(next.map_or(*fire_at, |n: Instant| n.min(*fire_at)));
                true
            }
        });
        let wait = next
            .map(|n| n.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(200))
            .min(Duration::from_millis(200));
        let (guard, _) = inner.reaper_cv.wait_timeout(r, wait).unwrap();
        r = guard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A contended kernel CATT warp-splits.
    const ATAX: &str = "#define NX 4096
__global__ void atax1(float *A, float *B, float *tmp) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NX) {
        for (int j = 0; j < NX; j++) {
            tmp[i] += A[i * NX + j] * B[j];
        }
    }
}";

    /// The serve smoke batch's `ok-1` kernel, which CATT leaves alone.
    const SMOKE: &str = "__global__ void k(float *a, float *b, int n) { \
        int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { b[i] = a[i] * 2.0f; } }";

    fn submit(src: &str, grid: u32, block: u32, args: &str) -> SubmitRequest {
        SubmitRequest {
            tenant: "t".to_string(),
            kernel_source: src.to_string(),
            name: String::new(),
            grid,
            block,
            args: args.to_string(),
            deadline_ms: None,
            weight: 1,
            emit: false,
        }
    }

    /// `prepare` keys the cache on the compile's program without lowering
    /// again, and the keys are the ones recorded when the key was
    /// `job_digest` over the transformed kernel, lowered there: the
    /// daemon's key space did not move.
    #[test]
    fn prepare_keys_on_the_compiled_program() {
        let server = Server::new(ServeConfig::default(), Engine::with_workers(1));
        let cases = [
            (
                submit(SMOKE, 2, 32, "f:64,f:64,si:64"),
                false,
                0x33d8_cc47_23ff_b1f4,
            ),
            (submit(ATAX, 16, 256, ""), true, 0xb664_ca25_2669_2472),
        ];
        for (req, transformed, recorded) in cases {
            let Ok(Prepared::Compiled(p)) = prepare(&server.inner, "x", &req) else {
                panic!("{} does not compile", req.kernel_source);
            };
            assert_eq!(p.entry.transformed, transformed);
            let pipe = &server.inner.pipe;
            let module = pipe.parse(&req.kernel_source).expect("parses");
            let again = pipe
                .compile_kernel(&module.kernels[0], p.launch)
                .expect("compiles");
            let relowered = catt_sim::lower(&again.transformed).expect("lowers");
            let launch = [p.launch];
            let config = &server.inner.base_config;
            let fresh = job_digest(&p.scope, std::slice::from_ref(&relowered), &launch, config);
            assert_eq!(p.entry.key, fresh, "{}", p.scope);
            assert_eq!(p.entry.key.0, recorded, "{}: key moved", p.scope);
        }
        server.drain();
    }

    /// A spec is charged its buffers' bytes as `parse_arg_spec` reads
    /// them; no buffers, or a rejected spec, is charged the default
    /// footprint.
    #[test]
    fn fuel_cost_charges_the_parsed_buffers() {
        let cost = |args: &str| fuel_cost(&submit(SMOKE, 2, 32, args));
        let of = |bytes: u64| FUEL_BASE + bytes * FUEL_PER_BYTE;
        let default = of(DERIVED_BUF_LEN as u64 * 4);
        assert_eq!(cost("f:64,f:64,si:64"), of(512));
        assert_eq!(cost("i:1024,sf:0.5"), of(4096));
        // Empty parts are skipped and values trimmed, as the parser does.
        assert_eq!(cost("f: 100 ,,i:28"), of(512));
        assert_eq!(
            cost("f:4294967295,i:4294967295"),
            of(2 * 4 * u32::MAX as u64)
        );
        assert_eq!(cost("sf:1.5,si:3"), default);
        assert_eq!(cost(""), default);
        assert_eq!(cost("x:64"), default);
    }
}
