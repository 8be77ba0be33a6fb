//! The serve core: admission control, weighted-fair scheduling, worker
//! pool, deadline propagation, circuit breakers, and graceful drain.
//!
//! Request lifecycle (see DESIGN.md "catt-serve: service architecture &
//! failure model"):
//!
//! ```text
//! line ──parse──▶ admission ──▶ fair queue ──▶ worker ──▶ response
//!                  │ drain?  ──▶ overloaded (draining)
//!                  │ breaker ──▶ circuit-open (+retry-after)
//!                  │ depth   ──▶ overloaded (+retry-after)
//!                  │ quota   ──▶ quota-exhausted (+retry-after)
//! ```
//!
//! Gate order matters: the breaker is *checked* first (an open breaker
//! must not charge quota) but its half-open probe slot is only
//! *committed* after every other gate passes, and depth precedes quota so
//! a shed-as-overloaded submission never drains the tenant's bucket.
//!
//! Every admitted request terminates in exactly one typed response: the
//! worker answers expired jobs without simulating, the deadline reaper
//! cancels running simulations through their [`CancelToken`], and drain
//! answers whatever is still queued. Identical submissions (same kernel,
//! launch, arguments — tenant excluded) coalesce through the engine's
//! single-flight layer onto one simulation.

use crate::breaker::Breaker;
use crate::fair::FairQueue;
use crate::json::{obj, Json};
use crate::proto::{
    parse_request, ErrorBody, ErrorKind, Op, Request, Response, ResultBody, SubmitRequest,
};
use crate::quota::TokenBucket;
use catt_core::engine::{Engine, JobError, SimSource};
use catt_core::pipeline::{CompiledKernel, Pipeline};
use catt_diag::{codes, Diagnostic};
use catt_frontend::parse_module;
use catt_ir::kernel::{Kernel, LaunchConfig, ParamTy};
use catt_ir::types::DType;
use catt_sim::{Arg, CancelToken, GlobalMem, Gpu, GpuConfig, SimError, FUEL_BASE, FUEL_PER_BYTE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
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
/// requests with derived arguments are charged the default footprint.
pub fn fuel_cost(req: &SubmitRequest) -> u64 {
    let mut bytes = 0u64;
    for part in req.args.split(',').filter(|p| !p.is_empty()) {
        if let Some((ty, val)) = part.split_once(':') {
            if matches!(ty, "f" | "i") {
                bytes = bytes.saturating_add(val.trim().parse::<u64>().unwrap_or(0) * 4);
            }
        }
    }
    if bytes == 0 {
        bytes = DERIVED_BUF_LEN as u64 * 4;
    }
    FUEL_BASE.saturating_add(bytes.saturating_mul(FUEL_PER_BYTE))
}

/// Buffer length used when a request derives arguments from parameter
/// types instead of supplying an `args` spec.
const DERIVED_BUF_LEN: u32 = 1024;

/// Hard ceiling on a request deadline (5 minutes).
const MAX_DEADLINE_MS: u64 = 300_000;

/// One admitted job, queued for a worker.
struct Job {
    id: String,
    req: SubmitRequest,
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
}

struct QueueState {
    queue: FairQueue<Job>,
    quotas: HashMap<String, TokenBucket>,
    breakers: HashMap<String, Breaker>,
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
        // Chaos harness: a `fuel=C` fault plan starves every simulation.
        base_config.sim_fuel = engine.fault_plan().fuel;
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            pipe: Pipeline::new(base_config.clone()),
            base_config,
            state: Mutex::new(QueueState {
                queue: FairQueue::new(config.quantum),
                quotas: HashMap::new(),
                breakers: HashMap::new(),
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

    /// Admission control: drain gate, circuit breaker, queue depth,
    /// quota — in that order — then weighted-fair enqueue. Rejections
    /// reply immediately; admissions reply from a worker later. The
    /// breaker's half-open probe slot is consumed only once the request
    /// is actually enqueued, so a probe shed by the depth or quota gate
    /// cannot wedge the breaker half-open with no probe in flight.
    pub fn submit(&self, id: String, req: SubmitRequest, reply: mpsc::Sender<Response>) {
        let c = &self.inner.counters;
        if self.inner.draining.load(Ordering::SeqCst) {
            c.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Response::Error(ErrorBody {
                id,
                kind: ErrorKind::Overloaded,
                message: "server is draining (shutdown in progress)".to_string(),
                retry_after_ms: None,
                diagnostics: Vec::new(),
            }));
            return;
        }
        let now_ms = self.now_ms();
        let cost = fuel_cost(&req);
        let cfg = &self.inner.config;
        let mut st = self.inner.state.lock().unwrap();
        // Breaker first (check only: an open breaker must not charge
        // quota, and the half-open probe slot is committed below, after
        // every other gate passes).
        let breaker = st
            .breakers
            .entry(req.tenant.clone())
            .or_insert_with(|| Breaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ms));
        if let Err(retry_ms) = breaker.check(now_ms) {
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
        if st.queue.len() >= cfg.queue_high_water {
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
        let quota = st
            .quotas
            .entry(req.tenant.clone())
            .or_insert_with(|| TokenBucket::new(cfg.quota_burst, cfg.quota_rate, now_ms));
        if let Err(retry_ms) = quota.try_take(cost, now_ms) {
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
        if let Some(b) = st.breakers.get_mut(&req.tenant) {
            b.commit(now_ms);
        }
        let deadline_ms = req
            .deadline_ms
            .unwrap_or(cfg.default_deadline_ms)
            .clamp(1, MAX_DEADLINE_MS);
        let admitted = Instant::now();
        let job = Job {
            id,
            deadline: admitted + Duration::from_millis(deadline_ms),
            admitted,
            cancel: CancelToken::new(),
            reply,
            req,
        };
        c.admitted.fetch_add(1, Ordering::Relaxed);
        let (tenant, weight) = (job.req.tenant.clone(), job.req.weight);
        st.queue.push(&tenant, weight, cost, job);
        drop(st);
        self.inner.work_cv.notify_one();
    }

    /// Daemon counters as a JSON object (the `stats` op payload).
    pub fn stats_json(&self) -> Json {
        let c = &self.inner.counters;
        let cache = self.inner.engine.cache_counters();
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
        ])
    }

    /// Graceful drain (idempotent): stop admitting, give in-flight and
    /// queued work `drain_grace_ms` to finish, then cancel what remains
    /// (queued jobs answered `deadline-exceeded`, running simulations
    /// cancelled through their tokens), flush the simcache, and join the
    /// pool. Every admitted request still gets its one response.
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
            // Stop the reaper and flush acknowledged results to disk.
            let mut r = self.inner.reaper.lock().unwrap();
            r.stop = true;
            drop(r);
            self.inner.reaper_cv.notify_all();
            self.inner.engine.flush_cache();
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
        let tenant = job.req.tenant.clone();
        let response = process_job(inner, job);
        // Breaker bookkeeping: only genuine simulation faults count —
        // typed rejections prove the service is healthy for the tenant.
        {
            let now_ms = inner.epoch.elapsed().as_millis() as u64;
            let mut st = inner.state.lock().unwrap();
            if let Some(b) = st.breakers.get_mut(&tenant) {
                match &response {
                    Response::Error(e) if e.kind == ErrorKind::Fault => b.on_fatal(now_ms),
                    _ => b.on_success(),
                }
            }
            st.running -= 1;
            st.running_tokens.retain(|t| t != &cancel);
        }
        let _ = reply.send(response);
        inner.idle_cv.notify_all();
    }
}

/// Parsed `--args`-style spec entry.
enum ArgSpec {
    FBuf(u32),
    IBuf(u32),
    F32(f32),
    I32(i32),
}

fn parse_arg_spec(spec: &str) -> Result<Vec<ArgSpec>, String> {
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

/// Materialize the deterministic argument values (same patterns as
/// `catt run`, so results are reproducible from the spec alone).
fn materialize_args(spec: &[ArgSpec], mem: &mut GlobalMem) -> Vec<Arg> {
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
    Response::Error(ErrorBody {
        id: id.to_string(),
        kind,
        message: message.into(),
        retry_after_ms: None,
        diagnostics: Vec::new(),
    })
}

/// A `compile-error` response carrying its structured diagnostics
/// (stable code + byte span into the submitted source).
fn compile_err(id: &str, message: impl Into<String>, diagnostics: Vec<Diagnostic>) -> Response {
    Response::Error(ErrorBody {
        id: id.to_string(),
        kind: ErrorKind::CompileError,
        message: message.into(),
        retry_after_ms: None,
        diagnostics,
    })
}

/// Compile and simulate one admitted job. Always returns a typed
/// response; never panics (simulation panics are caught by the engine).
fn process_job(inner: &Arc<Inner>, job: Job) -> Response {
    let c = &inner.counters;
    let id = job.id.clone();
    let now = Instant::now();
    if now >= job.deadline || job.cancel.is_cancelled() {
        c.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        return err(
            &id,
            ErrorKind::DeadlineExceeded,
            "deadline expired while queued",
        );
    }
    let queue_ms = now.duration_since(job.admitted).as_millis() as u64;

    // Compile: parse the unit, pick the kernel, run the CATT pipeline.
    let module = match parse_module(&job.req.kernel_source) {
        Ok(m) => m,
        Err(e) => {
            c.compile_error.fetch_add(1, Ordering::Relaxed);
            return compile_err(&id, e.to_string(), e.diagnostics);
        }
    };
    let kernel = if job.req.name.is_empty() {
        module.kernels.first()
    } else {
        module.kernels.iter().find(|k| k.name == job.req.name)
    };
    let Some(kernel) = kernel else {
        c.compile_error.fetch_add(1, Ordering::Relaxed);
        let message = format!(
            "kernel `{}` not found in the translation unit",
            job.req.name
        );
        let diag = Diagnostic::error(codes::KERNEL_NOT_FOUND, message.clone())
            .with_span(catt_diag::Span::point(0))
            .at(1, 1);
        return compile_err(&id, message, vec![diag]);
    };
    let launch = LaunchConfig::d1(job.req.grid, job.req.block);
    let compiled: CompiledKernel = match inner.pipe.compile_kernel(kernel, launch) {
        Ok(ck) => ck,
        Err(mut e) => {
            c.compile_error.fetch_add(1, Ordering::Relaxed);
            catt_diag::locate(&mut e.diagnostics, &job.req.kernel_source);
            let message = e.to_string();
            return compile_err(&id, message, e.diagnostics);
        }
    };

    // Arguments: explicit spec (validated against the parameter count) or
    // derived from the parameter types.
    let spec = if job.req.args.is_empty() {
        match derive_arg_spec(kernel) {
            Ok(s) => s,
            Err(e) => {
                c.bad_request.fetch_add(1, Ordering::Relaxed);
                return err(&id, ErrorKind::BadRequest, e);
            }
        }
    } else {
        match parse_arg_spec(&job.req.args) {
            Ok(s) if s.len() == kernel.params.len() => s,
            Ok(s) => {
                c.bad_request.fetch_add(1, Ordering::Relaxed);
                return err(
                    &id,
                    ErrorKind::BadRequest,
                    format!(
                        "arg spec has {} entries, kernel `{}` has {} parameters",
                        s.len(),
                        kernel.name,
                        kernel.params.len()
                    ),
                );
            }
            Err(e) => {
                c.bad_request.fetch_add(1, Ordering::Relaxed);
                return err(&id, ErrorKind::BadRequest, e);
            }
        }
    };

    // Simulate the throttled kernel with the deadline token wired in. The
    // scope excludes the tenant, so identical cross-tenant submissions
    // share cache entries and single-flight slots.
    let mut config = inner.base_config.clone();
    config.cancel = Some(job.cancel.clone());
    let scope = format!("catt-serve:{}", render_spec(&spec));
    let transformed = compiled.transformed.clone();
    let label = format!("serve `{}`", kernel.name);
    // Register with the deadline reaper for the duration of the sim.
    reaper_register(inner, job.deadline, job.cancel.clone());
    let outcome = inner.engine.sim_app_shared(
        &scope,
        std::slice::from_ref(&transformed),
        &[launch],
        &config,
        Some(job.deadline),
        || {
            let mut mem = GlobalMem::new();
            let args = materialize_args(&spec, &mut mem);
            let mut gpu = Gpu::new(config.clone());
            gpu.launch(&transformed, launch, &args, &mut mem)
                .map_err(|e| match &e {
                    SimError::Cancelled { .. } => {
                        JobError::fatal(&label, e.to_string()).with_code("cancelled")
                    }
                    _ => JobError::fatal(&label, e.to_string()).with_code(e.code()),
                })
        },
    );
    reaper_unregister(inner, &job.cancel);

    match outcome {
        Ok(out) => {
            c.completed.fetch_add(1, Ordering::Relaxed);
            let a = &compiled.analysis;
            let n = a
                .loops
                .iter()
                .map(|l| l.decision.n)
                .max()
                .unwrap_or(1)
                .max(1);
            let stats = out.stats;
            let miss_rate = if stats.l1_accesses > 0 {
                1.0 - stats.l1_hits as f64 / stats.l1_accesses as f64
            } else {
                0.0
            };
            Response::Result(ResultBody {
                id,
                kernel: kernel.name.clone(),
                n,
                m: a.tb_throttle_m(),
                transformed: compiled.is_transformed(),
                cycles: stats.cycles,
                miss_rate,
                source: match out.source {
                    SimSource::Computed => "computed",
                    SimSource::CacheHit => "cache",
                    SimSource::Coalesced => "coalesced",
                },
                queue_ms,
                total_ms: job.admitted.elapsed().as_millis() as u64,
                emitted_source: job.req.emit.then(|| compiled.emitted_source.clone()),
                fallback: compiled.fallback_diagnostic.clone().map(|fb| {
                    let mut one = vec![fb];
                    catt_diag::locate(&mut one, &job.req.kernel_source);
                    one.pop().unwrap()
                }),
            })
        }
        Err(e) if matches!(e.code, Some("cancelled" | "deadline")) => {
            c.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            err(&id, ErrorKind::DeadlineExceeded, e.message)
        }
        Err(e) => {
            c.faults.fetch_add(1, Ordering::Relaxed);
            Response::Error(ErrorBody {
                id,
                kind: ErrorKind::Fault,
                message: format!(
                    "simulation fault{}: {}",
                    e.code.map(|c| format!(" [{c}]")).unwrap_or_default(),
                    e.message
                ),
                retry_after_ms: None,
                diagnostics: Vec::new(),
            })
        }
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
