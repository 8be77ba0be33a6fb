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
//! what that costs in time and stack; [`MAX_ARG_BYTES`] bounds the device
//! memory a worker allocates for the spec. Admission then runs every gate
//! in one critical section. A request that passes them and that `prepare`
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
//! result, so it cannot disagree with the simcache; an entry whose key
//! the simcache no longer holds takes the compile path.
//!
//! Daemon state is bounded. The index holds at most
//! [`INDEX_BUDGET_BYTES`], each entry charged what it holds, and starts
//! over when an entry would pass that, as the simcache does past
//! `SIMCACHE_CAPACITY` results. The tenant table keeps at most
//! [`MAX_TENANTS`] names: a new name past that first drops every idle
//! tenant (no job queued or running, a full bucket, a breaker not
//! shedding), at most once a millisecond, and is shed `quota-exhausted`
//! if none is.
//!
//! Gate order matters: the breaker is *checked* first (an open breaker
//! must not charge quota) but its half-open probe slot is only
//! *committed* after every other gate passes, and depth precedes quota so
//! a shed-as-overloaded submission never drains the tenant's bucket.
//!
//! Every admitted request terminates in exactly one typed response:
//! admission answers what needs no simulation, the worker answers
//! expired jobs without simulating, and drain answers whatever is still
//! queued. A job's deadline lives in its [`CancelToken`]: the worker
//! checks it before simulating, the simulator polls it while running,
//! and a coalesced wait ends at it. Identical submissions (same kernel,
//! launch, arguments — tenant excluded) coalesce through the engine's
//! single-flight layer onto one simulation.

use crate::breaker::Breaker;
use crate::fair::FairQueue;
use crate::proto::{
    parse_request, ErrorBody, ErrorKind, Op, Request, Response, ResultBody, SubmitRequest,
};
use crate::quota::TokenBucket;
use catt_core::engine::{job_digest, Engine, JobError, JobKey, SimSource};
use catt_core::pipeline::Pipeline;
use catt_diag::json::{obj, Json};
use catt_diag::{codes, Diagnostic, Note};
use catt_ir::kernel::{Kernel, LaunchConfig, ParamTy};
use catt_ir::types::DType;
use catt_sim::{
    Arg, CancelToken, Fnv64, GlobalMem, Gpu, GpuConfig, Init, LaunchStats, Program, SimError,
    FUEL_BASE, FUEL_PER_BYTE,
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
/// [`parse_arg_spec`] rejects are charged the default footprint. A spec
/// over [`MAX_ARG_BYTES`] is charged in full before it is refused.
pub fn fuel_cost(req: &SubmitRequest) -> u64 {
    let bytes: u64 = parse_arg_spec(&req.args)
        .unwrap_or_default()
        .iter()
        .map(ArgSpec::buffer_bytes)
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

/// Most bytes the buffers of one argument spec may total, explicit or
/// derived ([`check_arg_bytes`]): three times the largest
/// registry app's footprint. Without it one request line could ask for a
/// 16 GiB buffer, and a new tenant's full token bucket would admit it.
pub const MAX_ARG_BYTES: u64 = 16 << 20;

/// What the request index may hold, in bytes ([`Indexed::bytes`] per
/// entry). `serve-hot`'s 64 kernels fit, and so do `serve-cold`'s
/// ≈ 1 480.
pub const INDEX_BUDGET_BYTES: usize = 4 << 20;

/// Most tenants the admission table keeps (see the module docs). With
/// `proto::MAX_TENANT_BYTES` this bounds what the table holds.
pub const MAX_TENANTS: usize = 1024;

/// One admitted job, compiled and queued for a worker.
struct Job {
    id: String,
    tenant: String,
    compiled: Compiled,
    admitted: Instant,
    /// Carries the job's deadline; drain also fires it.
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
    /// Jobs queued or running.
    jobs: usize,
}

struct QueueState {
    queue: FairQueue<Job>,
    tenants: HashMap<String, Tenant>,
    /// Cancel tokens of running jobs (for hard drain).
    running_tokens: Vec<CancelToken>,
    /// Worker threads alive (drain waits for them to finish).
    workers_alive: usize,
    /// When a full tenant table may next be swept for idle tenants.
    next_sweep_ms: u64,
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
    epoch: Instant,
    draining: AtomicBool,
    counters: Counters,
    /// The request index (see the module docs).
    index: Mutex<Index>,
    /// The key of the fingerprint's second hash, random per server.
    index_keys: RandomState,
}

/// The daemon core. Construction spawns the worker pool;
/// [`Server::drain`] (idempotent) winds everything down.
pub struct Server {
    inner: Arc<Inner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// A server over `engine` with the given tuning.
    pub fn new(config: ServeConfig, engine: Engine) -> Server {
        Server::build(config, engine, INDEX_BUDGET_BYTES)
    }

    /// [`Server::new`] with the index budget a parameter, so unit tests
    /// can fill a small one.
    fn build(config: ServeConfig, engine: Engine, index_budget: usize) -> Server {
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
                running_tokens: Vec::new(),
                workers_alive: workers,
                next_sweep_ms: 0,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            epoch: Instant::now(),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
            index: Mutex::new(Index {
                map: HashMap::new(),
                bytes: 0,
                budget: index_budget,
            }),
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
        let (line, bad_request) = (line.trim(), &self.inner.counters.bad_request);
        if line.is_empty() {
            return true;
        }
        if line.len() > MAX_LINE_BYTES {
            bad_request.fetch_add(1, Ordering::Relaxed);
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
                bad_request.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(err(&id, ErrorKind::BadRequest, message));
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
    /// on the caller's thread; then drain gate, tenant cap, circuit
    /// breaker, queue depth and quota run — in that order, in one
    /// critical section ([`gate`]).
    /// Rejections reply immediately. An admitted submission that needs no
    /// simulation (a compile error, a cached result) is answered right
    /// away too; the rest reply from a worker later. The breaker's
    /// half-open probe slot is consumed only once the request is
    /// admitted, so a probe shed by the depth or quota gate cannot wedge
    /// the breaker half-open with no probe in flight.
    pub fn submit(&self, id: String, req: SubmitRequest, reply: mpsc::Sender<Response>) {
        let prepared = prepare(&self.inner, &id, &req);
        self.admit(id, req, prepared, reply);
    }

    /// The gates and the answer or enqueue of [`Server::submit`].
    fn admit(
        &self,
        id: String,
        req: SubmitRequest,
        prepared: Result<Prepared, ErrorBody>,
        reply: mpsc::Sender<Response>,
    ) {
        let c = &self.inner.counters;
        let cost = fuel_cost(&req);
        let mut st = self.inner.state.lock().unwrap();
        let tenant = match gate(&self.inner, &mut st, &req, cost, self.now_ms()) {
            Ok(tenant) => tenant,
            Err((kind, message, retry_after_ms)) => {
                let mut shed = error_body(&id, kind, message, Vec::new());
                shed.retry_after_ms = retry_after_ms;
                return answer_now(st, c, &reply, || Response::Error(shed));
            }
        };
        c.admitted.fetch_add(1, Ordering::Relaxed);
        let admitted = Instant::now();
        // An answer given here, as one from a worker, books a breaker
        // success.
        let compiled = match prepared {
            Err(rejected) => {
                tenant.breaker.on_success();
                return answer_now(st, c, &reply, || Response::Error(rejected));
            }
            Ok(Prepared::Held(entry, held, fingerprint)) => {
                // The counted lookup. Should the simcache have started
                // over since `prepare` read `held`, the reply is `held`
                // and no hit is counted.
                let engine = &self.inner.engine;
                let stats = engine.cached(entry.key, &self.inner.base_config);
                tenant.breaker.on_success();
                return answer_now(st, c, &reply, || {
                    match fingerprint {
                        Some(fingerprint) => index(&self.inner, fingerprint, &entry),
                        None => _ = c.index_hits.fetch_add(1, Ordering::Relaxed),
                    }
                    let (stats, took) = (stats.unwrap_or(held), admitted.elapsed());
                    result_response(&id, &entry, stats, SimSource::CacheHit, 0, took)
                });
            }
            Ok(Prepared::Miss(compiled)) => compiled,
        };
        tenant.jobs += 1;
        let deadline_ms = req
            .deadline_ms
            .unwrap_or(self.inner.config.default_deadline_ms)
            .clamp(1, MAX_DEADLINE_MS);
        let job = Job {
            id,
            tenant: req.tenant.clone(),
            compiled,
            admitted,
            cancel: CancelToken::with_deadline(admitted + Duration::from_millis(deadline_ms)),
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
        let (index_entries, index_bytes) = {
            let index = self.inner.index.lock().unwrap();
            (index.map.len(), index.bytes)
        };
        let st = self.inner.state.lock().unwrap();
        let draining = self.inner.draining.load(Ordering::SeqCst);
        let count = |counter: &AtomicU64| Json::Num(counter.load(Ordering::Relaxed) as f64);
        obj(vec![
            ("queue_depth", Json::Num(st.queue.len() as f64)),
            ("running", Json::Num(st.running_tokens.len() as f64)),
            ("draining", Json::Bool(draining)),
            ("admitted", count(&c.admitted)),
            ("completed", count(&c.completed)),
            ("shed_overloaded", count(&c.shed_overloaded)),
            ("shed_quota", count(&c.shed_quota)),
            ("shed_breaker", count(&c.shed_breaker)),
            ("bad_request", count(&c.bad_request)),
            ("compile_error", count(&c.compile_error)),
            ("deadline_exceeded", count(&c.deadline_exceeded)),
            ("faults", count(&c.faults)),
            ("cache_hits", Json::Num(cache.hits as f64)),
            ("cache_misses", Json::Num(cache.misses as f64)),
            ("coalesced", Json::Num(cache.coalesced as f64)),
            ("index_entries", Json::Num(index_entries as f64)),
            ("index_hits", count(&c.index_hits)),
            ("index_bytes", Json::Num(index_bytes as f64)),
            ("tenants", Json::Num(st.tenants.len() as f64)),
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
                // Grace expired: answer the backlog and cancel running
                // sims. Tenants' job counts are left as they are: a
                // draining server admits nothing again.
                for job in st.queue.drain_all() {
                    self.inner
                        .counters
                        .deadline_exceeded
                        .fetch_add(1, Ordering::Relaxed);
                    let message = "cancelled by shutdown drain";
                    let _ = job
                        .reply
                        .send(err(&job.id, ErrorKind::DeadlineExceeded, message));
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

/// Admission's gates, in order, under the state lock: drain, the tenant
/// cap, breaker, depth, quota. `Ok` is the admitted submission's tenant,
/// charged, its half-open probe slot (if any) committed; `Err` is the
/// shed's kind, message and retry-after.
fn gate<'a>(
    inner: &Inner,
    st: &'a mut QueueState,
    req: &SubmitRequest,
    cost: u64,
    now_ms: u64,
) -> Result<&'a mut Tenant, (ErrorKind, String, Option<u64>)> {
    let (cfg, name) = (&inner.config, &req.tenant);
    // Checked under the lock: workers exit once they see the drain flag
    // with an empty queue, so a job pushed after that would never be
    // answered.
    if inner.draining.load(Ordering::SeqCst) {
        let message = "server is draining (shutdown in progress)";
        return Err((ErrorKind::Overloaded, message.to_string(), None));
    }
    // A new name past the tenant cap: drop every idle tenant (no job, a
    // full bucket, a breaker not shedding), or shed it as if its bucket
    // held nothing. It has no breaker or bucket yet, so shedding it here
    // charges nothing. Sweeping at most once a millisecond keeps names
    // minted against a table of busy tenants from scanning it on every
    // admission.
    if st.tenants.len() >= MAX_TENANTS && !st.tenants.contains_key(name) {
        if now_ms >= st.next_sweep_ms {
            st.next_sweep_ms = now_ms + 1;
            st.tenants.retain(|_, t| {
                t.jobs > 0 || !t.bucket.is_full(now_ms) || t.breaker.check(now_ms).is_err()
            });
        }
        if st.tenants.len() >= MAX_TENANTS {
            // Retry once an empty bucket could have refilled.
            let refill_s = cfg.quota_burst as f64 / cfg.quota_rate.max(1) as f64;
            let retry_ms = ((1000.0 * refill_s) as u64).max(1);
            let message = format!("{MAX_TENANTS} tenants are active; retry later");
            return Err((ErrorKind::QuotaExhausted, message, Some(retry_ms)));
        }
    }
    // One tenant lookup serves every gate. A new tenant's bucket is born
    // full, so creating it ahead of the depth gate leaves what the quota
    // gate sees unchanged.
    let queue_full = st.queue.len() >= cfg.queue_high_water;
    let tenant = st.tenants.entry(name.clone()).or_insert_with(|| Tenant {
        bucket: TokenBucket::new(cfg.quota_burst, cfg.quota_rate, now_ms),
        breaker: Breaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ms),
        jobs: 0,
    });
    // Breaker first (check only: an open breaker must not charge quota,
    // and the half-open probe slot is committed below, after every other
    // gate passes).
    tenant.breaker.check(now_ms).map_err(|retry_ms| {
        let message =
            format!("tenant `{name}` circuit breaker is open after repeated simulation faults");
        (ErrorKind::CircuitOpen, message, Some(retry_ms))
    })?;
    // Depth before quota: a submission the server never accepts must not
    // drain the tenant's bucket, or sustained overload would follow up
    // with spurious quota-exhausted once the backlog clears.
    if queue_full {
        // Retry-after scales with backlog per worker — honest
        // backpressure instead of a constant.
        let per_worker = cfg.queue_high_water / cfg.workers.max(1);
        let retry_ms = (10 * per_worker.max(1) as u64).min(5_000);
        let message = format!("admission queue full ({} queued)", cfg.queue_high_water);
        return Err((ErrorKind::Overloaded, message, Some(retry_ms)));
    }
    tenant.bucket.try_take(cost, now_ms).map_err(|retry_ms| {
        let message = format!("tenant `{name}` fuel quota exhausted (request cost {cost})");
        (ErrorKind::QuotaExhausted, message, Some(retry_ms))
    })?;
    // All gates passed — the request will run and report back, so the
    // half-open probe slot (if any) can safely be consumed now.
    tenant.breaker.commit(now_ms);
    Ok(tenant)
}

/// Answer a submission on the caller's thread: a shed, or an admitted
/// submission that needs no simulation (a compile error, a cached
/// result). The reply is built after the lock is released.
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

/// Count an answer under its outcome; a shed under its gate.
fn count_answer(c: &Counters, response: &Response) {
    let counter = match response {
        Response::Result(_) => &c.completed,
        Response::Error(e) => match e.kind {
            ErrorKind::BadRequest => &c.bad_request,
            ErrorKind::CompileError => &c.compile_error,
            ErrorKind::DeadlineExceeded => &c.deadline_exceeded,
            ErrorKind::Fault => &c.faults,
            ErrorKind::Overloaded => &c.shed_overloaded,
            ErrorKind::QuotaExhausted => &c.shed_quota,
            ErrorKind::CircuitOpen => &c.shed_breaker,
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
                t.jobs -= 1;
                match &response {
                    Response::Error(e) if e.kind == ErrorKind::Fault => t.breaker.on_fatal(now_ms),
                    _ => t.breaker.on_success(),
                }
            }
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

impl ArgSpec {
    /// Device bytes this entry allocates (0 for a scalar).
    fn buffer_bytes(&self) -> u64 {
        match self {
            ArgSpec::FBuf(len) | ArgSpec::IBuf(len) => *len as u64 * 4,
            ArgSpec::F32(_) | ArgSpec::I32(_) => 0,
        }
    }
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

/// Refuse a spec whose buffers total more than [`MAX_ARG_BYTES`].
pub fn check_arg_bytes(spec: &[ArgSpec]) -> Result<(), String> {
    let bytes: u64 = spec.iter().map(ArgSpec::buffer_bytes).sum();
    if bytes > MAX_ARG_BYTES {
        return Err(format!(
            "arg spec buffers total {bytes} bytes, over the {MAX_ARG_BYTES}-byte limit"
        ));
    }
    Ok(())
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

/// Device memory holding the deterministic argument values, and the
/// arguments, so results are reproducible from the spec alone. Each
/// buffer's data is generated straight into the allocation device memory
/// keeps.
pub fn materialize_args(spec: &[ArgSpec]) -> (GlobalMem, Vec<Arg>) {
    let inits = spec.iter().enumerate().filter_map(|(ai, a)| match a {
        ArgSpec::FBuf(len) => Some(Init::F32(
            (0..*len)
                .map(|v| ((v * 7 + ai as u32) % 13) as f32)
                .collect(),
        )),
        ArgSpec::IBuf(len) => Some(Init::I32(
            (0..*len as i32).map(|v| (v * 5 + ai as i32) % 17).collect(),
        )),
        ArgSpec::F32(_) | ArgSpec::I32(_) => None,
    });
    let (mem, bufs) = GlobalMem::from_inits(inits);
    let mut bufs = bufs.into_iter();
    let args = spec
        .iter()
        .map(|a| match a {
            ArgSpec::F32(v) => Arg::F32(*v),
            ArgSpec::I32(v) => Arg::I32(*v),
            ArgSpec::FBuf(_) | ArgSpec::IBuf(_) => {
                Arg::Buf(bufs.next().expect("one buffer per buffer entry"))
            }
        })
        .collect();
    (mem, args)
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
    /// Boxed: few compiles fall back.
    fallback: Option<Box<Diagnostic>>,
    /// Only when the submission set `emit`.
    emitted_source: Option<String>,
}

impl Indexed {
    /// What this entry holds in the index, in bytes: its map slot, the
    /// `Arc`'s allocation, and every string and diagnostic it owns.
    fn bytes(&self) -> usize {
        let fallback = self.fallback.as_deref().map_or(0, |d| {
            let notes: usize = d.notes.iter().map(|n| n.message.capacity()).sum();
            size_of::<Diagnostic>()
                + d.message.capacity()
                + d.notes.capacity() * size_of::<Note>()
                + notes
        });
        size_of::<(Fingerprint, Arc<Indexed>)>()
            + size_of::<(usize, usize, Indexed)>()
            + self.kernel.capacity()
            + self.emitted_source.as_ref().map_or(0, String::capacity)
            + fallback
    }
}

/// The request index: entries of at most `budget` bytes in all.
struct Index {
    map: HashMap<Fingerprint, Arc<Indexed>>,
    /// The sum of the entries' [`Indexed::bytes`].
    bytes: usize,
    budget: usize,
}

/// A submission ready for admission.
enum Prepared {
    /// The engine holds a result under the entry's key: the stats, read
    /// without counting (admission counts the hit), and the fingerprint
    /// to index when this request compiled; `None` when the index
    /// answered it.
    Held(Arc<Indexed>, LaunchStats, Option<Fingerprint>),
    /// Compiled, and not held: a worker simulates it.
    Miss(Compiled),
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
/// failing that, parse, pick the kernel, run the CATT pipeline, settle
/// the arguments and cache key, and ask the engine for the key. Counts
/// nothing: the caller answers only once the request passes admission.
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
    let indexed = inner.index.lock().unwrap().map.get(&fingerprint).cloned();
    if let Some(entry) = indexed {
        if let Some(stats) = inner.engine.held(entry.key, &inner.base_config) {
            return Ok(Prepared::Held(entry, stats, None));
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
    // derived from the parameter types, either one within the byte cap.
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
    .and_then(|s| check_arg_bytes(&s).map(|()| s))
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
    let entry = Arc::new(Indexed {
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
    });
    if let Some(stats) = inner.engine.held(key, &inner.base_config) {
        return Ok(Prepared::Held(entry, stats, Some(fingerprint)));
    }
    Ok(Prepared::Miss(Compiled {
        fingerprint,
        entry,
        program: compiled.program,
        launch,
        spec,
        scope,
    }))
}

/// Index a compiled submission that yielded a result. An entry that
/// would pass the budget starts the index over; one larger than the
/// whole budget is not kept.
fn index(inner: &Inner, fingerprint: Fingerprint, entry: &Arc<Indexed>) {
    let bytes = entry.bytes();
    let mut index = inner.index.lock().unwrap();
    if bytes > index.budget || index.map.contains_key(&fingerprint) {
        return;
    }
    if index.bytes + bytes > index.budget {
        index.map.clear();
        index.bytes = 0;
    }
    index.map.insert(fingerprint, Arc::clone(entry));
    index.bytes += bytes;
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
    if job.cancel.is_cancelled() {
        return err(
            &job.id,
            ErrorKind::DeadlineExceeded,
            "deadline expired while queued",
        );
    }
    let queue_ms = job.admitted.elapsed().as_millis() as u64;

    // Simulate the throttled kernel with the deadline token wired in.
    let p = &job.compiled;
    let mut config = inner.base_config.clone();
    config.cancel = Some(job.cancel.clone());
    let label = format!("serve `{}`", p.entry.kernel);
    let outcome = inner
        .engine
        .sim_app_shared(&p.scope, p.entry.key, &config, || {
            let (mut mem, args) = materialize_args(&p.spec);
            let mut gpu = Gpu::new(config.clone());
            gpu.launch_program(&p.program, p.launch, &args, &mut mem)
                .map_err(|e| match &e {
                    SimError::Cancelled { .. } => {
                        JobError::fatal(&label, e.to_string()).with_code("cancelled")
                    }
                    _ => JobError::fatal(&label, e.to_string()).with_code(e.code()),
                })
        });

    match outcome {
        Ok(out) => {
            index(inner, p.fingerprint, &p.entry);
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

    /// A server runs its workers and no other thread: deadlines live in
    /// the jobs' cancel tokens.
    #[test]
    fn a_server_spawns_only_its_workers() {
        for workers in [1, 3] {
            let config = ServeConfig {
                workers,
                ..ServeConfig::default()
            };
            let server = Server::new(config, Engine::with_workers(1));
            assert_eq!(server.threads.lock().unwrap().len(), workers);
            server.drain();
            assert!(
                server.threads.lock().unwrap().is_empty(),
                "drain joins them"
            );
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
            let Ok(Prepared::Miss(p)) = prepare(&server.inner, "x", &req) else {
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

    fn ask(server: &Server, req: SubmitRequest) -> ResultBody {
        let (tx, rx) = mpsc::channel();
        server.submit("r".to_string(), req, tx);
        result(rx)
    }

    fn result(rx: mpsc::Receiver<Response>) -> ResultBody {
        match rx.recv_timeout(Duration::from_secs(60)).expect("one reply") {
            Response::Result(body) => body,
            other => panic!("want a result, got {other:?}"),
        }
    }

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

    /// More distinct submissions than the index holds keep it within its
    /// budget; the first, sent again after the index started over,
    /// compiles and finds its result in the simcache.
    #[test]
    fn a_full_index_starts_over_within_its_budget() {
        let smoke = |grid| submit(SMOKE, grid, 32, "f:64,f:64,si:64");
        let probe = Server::new(ServeConfig::default(), Engine::with_workers(1));
        let Ok(Prepared::Miss(p)) = prepare(&probe.inner, "x", &smoke(1)) else {
            panic!("the smoke kernel compiles");
        };
        probe.drain();
        // Room for three entries of this size.
        let budget = 3 * p.entry.bytes() + p.entry.bytes() / 2;
        let server = Server::build(ServeConfig::default(), Engine::with_workers(1), budget);
        let first = ask(&server, smoke(1));
        assert_eq!(first.source, "computed");
        for grid in 2..=8 {
            assert_eq!(ask(&server, smoke(grid)).source, "computed");
            assert!(
                stat(&server, "index_bytes") as usize <= budget,
                "grid {grid}"
            );
        }
        assert!(stat(&server, "index_entries") < 8);
        let again = ask(&server, smoke(1));
        assert_eq!(stat(&server, "index_hits"), 0, "the first compiled again");
        assert_eq!((again.source, again.queue_ms), ("cache", 0));
        assert_eq!(body(&again), body(&first));
        assert!(stat(&server, "index_bytes") as usize <= budget);
        server.drain();

        // An entry larger than the whole budget is not kept.
        let budget = p.entry.bytes() - 1;
        let server = Server::build(ServeConfig::default(), Engine::with_workers(1), budget);
        assert_eq!(ask(&server, smoke(1)).source, "computed");
        assert_eq!(ask(&server, smoke(1)).source, "cache");
        assert_eq!(stat(&server, "index_entries"), 0);
        assert_eq!(stat(&server, "index_bytes"), 0);
        assert_eq!(stat(&server, "index_hits"), 0);
        server.drain();
    }

    /// A submission the index does not know, whose compile finds its key
    /// held, is answered before `submit` returns, while the one worker is
    /// busy, and then indexed.
    #[test]
    fn a_compiled_hit_is_answered_at_admission_and_indexed() {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let plan = catt_core::fault::FaultPlan::parse("delay-job=300");
        let server = Server::new(config, Engine::with_workers(1).with_fault_plan(plan));
        let args = "f:64,f:64,si:64";
        let first = ask(&server, submit(SMOKE, 2, 32, args));
        let (busy_tx, busy) = mpsc::channel();
        server.submit("busy".to_string(), submit(SMOKE, 3, 32, args), busy_tx);
        let spaced = submit(&SMOKE.replace("{ ", "{  "), 2, 32, args);
        let (tx, rx) = mpsc::channel();
        server.submit("spaced".to_string(), spaced.clone(), tx);
        let Ok(Response::Result(hit)) = rx.try_recv() else {
            panic!("a compiled hit is answered before `submit` returns");
        };
        assert_eq!((hit.source, hit.queue_ms), ("cache", 0));
        assert_eq!(body(&hit), body(&first));
        assert_eq!(stat(&server, "index_entries"), 2);
        assert_eq!(stat(&server, "index_hits"), 0);
        assert_eq!(ask(&server, spaced).source, "cache");
        assert_eq!(stat(&server, "index_hits"), 1);
        assert_eq!(result(busy).source, "computed");
        server.drain();
    }

    /// An indexed submission whose key the simcache drops between
    /// `prepare` and admission is answered from the stats `prepare` read,
    /// counting no hit; sent again, it compiles and simulates.
    #[test]
    fn a_key_dropped_after_prepare_is_answered_from_what_prepare_read() {
        let server = Server::new(ServeConfig::default(), Engine::with_workers(1));
        let req = submit(SMOKE, 2, 32, "f:64,f:64,si:64");
        let first = ask(&server, req.clone());
        let prepared = prepare(&server.inner, "again", &req);
        let Ok(Prepared::Held(entry, _, None)) = &prepared else {
            panic!("the index answers a resubmission");
        };
        let (engine, config) = (server.engine(), &server.inner.base_config);
        let key = entry.key;
        // Fill the simcache until it starts over.
        let mut filler = 0;
        while engine.held(key, config).is_some() {
            filler += 1;
            let stats = || Ok(LaunchStats::default());
            engine
                .sim_app_shared("filler", JobKey(filler), config, stats)
                .unwrap();
        }
        let hits = engine.cache_counters().hits;
        let (tx, rx) = mpsc::channel();
        server.admit("again".to_string(), req.clone(), prepared, tx);
        let again = result(rx);
        assert_eq!((again.source, again.queue_ms), ("cache", 0));
        assert_eq!(body(&again), body(&first));
        assert_eq!(engine.cache_counters().hits, hits, "no hit counted");
        assert_eq!(stat(&server, "index_hits"), 1);

        let third = ask(&server, req);
        assert_eq!(third.source, "computed", "the dropped key compiles");
        assert_eq!(body(&third), body(&first));
        assert_eq!(stat(&server, "index_hits"), 1);
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

    /// A spec derived from the parameter types meets the byte cap too.
    /// `prepare` never sees this kernel today: its parameters overflow the
    /// register file, so the launch check refuses it first (at about
    /// 2 000 pointers, ≈ 8 MiB derived).
    #[test]
    fn a_derived_spec_meets_the_byte_cap() {
        let derived = |pointers: u64| {
            let params: Vec<String> = (0..pointers).map(|p| format!("int *a{p}")).collect();
            let src = format!("__global__ void k({}) {{ a0[0] = 1; }}", params.join(", "));
            let kernel = catt_frontend::parse_kernel(&src).expect("parses");
            check_arg_bytes(&derive_arg_spec(&kernel).expect("derives"))
        };
        let at_cap = MAX_ARG_BYTES / (DERIVED_BUF_LEN as u64 * 4);
        assert!(derived(at_cap).is_ok());
        let err = derived(at_cap + 1).unwrap_err();
        assert!(err.contains("limit"), "{err}");
    }
}
