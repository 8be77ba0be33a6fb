//! # Evaluation engine — bounded parallel simulation with a content-addressed cache
//!
//! The paper's evaluation (Tables 1–3, Figs. 2–10) re-runs the simulator
//! hundreds of times: a full BFTT sweep per application per cache
//! configuration, and the same (kernel, launch, config) points across
//! several figures, which `catt reproduce all` renders in one process.
//! Both structures are exploited here:
//!
//! * **Bounded worker pool** — simulation jobs run on at most
//!   [`Engine::workers`] OS threads (default: `available_parallelism()`),
//!   replacing the old one-unbounded-thread-per-candidate sweep. Results
//!   come back in job order regardless of completion order, and worker
//!   panics are caught and propagated as [`JobError`]s instead of
//!   poisoning the whole sweep.
//! * **Content-addressed simulation cache** — results are memoized under a
//!   stable digest of (lowered kernel programs, launch geometry,
//!   [`GpuConfig`], scope tag), in memory. The cache is always on and
//!   holds at most `SIMCACHE_CAPACITY` results: an insert past that
//!   starts the map over, so a long-lived `catt serve` stays bounded,
//!   while `catt reproduce all` (512 results) never reaches it. Nothing
//!   is persisted: one process reproduces every figure, and rendering
//!   them all cold costs about a minute. One rule
//!   (`CacheUse::of`) says how a run's
//!   configuration may use the cache: traced runs
//!   (`GpuConfig::trace_requests`) and sanitized runs
//!   (`GpuConfig::sanitize`) bypass it entirely — the request trace is a
//!   side channel the cache does not store, and a hit would skip the
//!   sanitizer's checks. Profiled runs (`GpuConfig::profile`) always
//!   simulate, since a hit would skip the run that produces the profile,
//!   but they *write* their stats, which are bit-identical to an
//!   unprofiled run's: the profiled baseline of `catt tune` seeds the
//!   plain baseline's entry.
//!
//! ## Guard rails
//!
//! The engine is the fault boundary of the evaluation stack. Every job
//! failure — a [`catt_sim::SimError`], a panic, a validation failure — is
//! deterministic, so a failed job is reported once as a [`JobError`] and
//! never rerun; what bounds a job's run time is the simulator's fuel
//! budget and, under `catt serve`, the request's cancel token. The
//! [`crate::fault`] module can inject worker panics and job delays to
//! exercise all of it.
//!
//! The engine takes its settings from its constructors and builders —
//! worker bound ([`Engine::new`], [`Engine::with_worker_bound`]), stderr
//! verbosity ([`Engine::with_progress`], silent by default), fault plan
//! ([`Engine::with_fault_plan`], none by default; see [`crate::fault`]) —
//! and never consults the environment; the binaries map
//! `CATT_ENGINE_WORKERS`, `CATT_ENGINE_PROGRESS` and `CATT_FAULT_PLAN`
//! onto these at start-up.

use crate::fault::FaultPlan;
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{CancelToken, Fnv64, GpuConfig, LaunchStats, Program};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A simulation job failed: the closure panicked (failed validation,
/// lowering assert, out-of-range access) or returned an error itself.
#[derive(Debug, Clone, PartialEq)]
pub struct JobError {
    /// Which job failed (caller-supplied label, e.g. `"ATAX (n=4, m=0)"`).
    pub label: String,
    /// What went wrong.
    pub message: String,
    /// Stable machine-readable classification, when one exists: a
    /// `catt_sim::SimError::code()` token (`"fuel-exhausted"`,
    /// `"cancelled"`, ...) or `"panic"` for caught panics. `catt serve`
    /// maps this to its structured API error kinds; human-facing paths
    /// only read `message`.
    pub code: Option<&'static str>,
}

impl JobError {
    /// A failed job: a deterministic simulator error, failed validation,
    /// or any other fault (rerunning cannot fix any of them).
    pub fn fatal(label: impl Into<String>, message: impl Into<String>) -> JobError {
        JobError {
            label: label.into(),
            message: message.into(),
            code: None,
        }
    }

    /// Attach a machine-readable classification code (builder-style).
    pub fn with_code(mut self, code: &'static str) -> JobError {
        self.code = Some(code);
        self
    }

    /// Build an error for `label` out of a caught panic payload.
    fn from_panic(label: &str, payload: Box<dyn std::any::Any + Send>) -> JobError {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "job panicked (non-string payload)".to_string());
        JobError::fatal(label, message).with_code("panic")
    }
}

/// Stderr verbosity of the engine: `Off` (the default) is silent,
/// `Summary` prints one line per job batch, `Full` adds the live per-job
/// ticker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Progress {
    /// No engine output at all.
    Off,
    /// One line per batch plus the final cache summary.
    Summary,
    /// Per-job progress ticker on top of `Summary`.
    Full,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation job `{}` failed: {}",
            self.label, self.message
        )
    }
}

impl std::error::Error for JobError {}

/// Cache hit/miss counters (cumulative over the engine's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Jobs answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing, so the job simulated. Profiled runs
    /// never look up (see the module docs) and count as neither.
    pub misses: u64,
    /// Jobs that coalesced onto another caller's identical in-flight
    /// simulation instead of running their own (single-flight dedupe,
    /// see [`Engine::sim_app_shared`]). Not counted in `hits`.
    pub coalesced: u64,
}

impl CacheCounters {
    /// Hit fraction over all cache-eligible jobs (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Stable identity of one simulation job. See [`job_digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobKey(pub u64);

/// Content digest of a simulation job: `scope` (application + input
/// identity — the workload abbreviation for registry apps), the *lowered*
/// program of every kernel the job runs, the launch geometry, and the
/// full GPU configuration. Keying on programs means two sources with
/// identical lowering share one cache entry, and any change to the
/// lowering itself changes every digest (automatic invalidation). The
/// caller lowers: a compile already holds its kernel's program
/// ([`crate::pipeline::CompiledKernel::program`]).
pub fn job_digest(
    scope: &str,
    programs: &[Program],
    launches: &[LaunchConfig],
    config: &GpuConfig,
) -> JobKey {
    let mut h = Fnv64::new();
    h.write_str("catt-simcache-v1").write_str(scope);
    for program in programs {
        program.content_digest().hash(&mut h);
    }
    launches.hash(&mut h);
    config.content_digest().hash(&mut h);
    JobKey(h.finish())
}

/// [`job_digest`] of `kernels`, lowering each; a kernel that does not
/// lower is the job's error.
fn kernels_digest(
    scope: &str,
    kernels: &[Kernel],
    launches: &[LaunchConfig],
    config: &GpuConfig,
) -> Result<JobKey, JobError> {
    let programs = kernels
        .iter()
        .map(|k| {
            catt_sim::lower(k)
                .map_err(|e| JobError::fatal(scope, format!("kernel `{}`: {e}", k.name)))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(job_digest(scope, &programs, launches, config))
}

/// How a run may use the simulation cache: the one rule both
/// [`Engine::sim_app`] and [`Engine::sim_app_shared`] follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheUse {
    /// Neither read nor written: traced runs carry a request trace the
    /// cache does not store, and a hit would skip a sanitized run's checks.
    Bypass,
    /// Always simulated (a hit would skip the run that produces the
    /// profile), then recorded: a profiled run's stats are bit-identical
    /// to an unprofiled run's (`catt-sim`'s `profile_transparency` suite).
    WriteOnly,
    /// Everything else: served from the cache when present.
    ReadWrite,
}

impl CacheUse {
    fn of(config: &GpuConfig) -> CacheUse {
        if config.trace_requests || config.sanitize_enabled() {
            CacheUse::Bypass
        } else if config.profile_enabled() {
            CacheUse::WriteOnly
        } else {
            CacheUse::ReadWrite
        }
    }
}

/// The most results the simulation cache holds. `LaunchStats` has a
/// fixed size on every run that may use the cache, so this bounds its
/// memory.
const SIMCACHE_CAPACITY: usize = 16_384;

/// The content-addressed simulation cache: one in-memory map of at most
/// `capacity` results, which starts over when an insert would pass it.
struct SimCache {
    mem: Mutex<HashMap<u64, LaunchStats>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Jobs that waited on another caller's identical in-flight
    /// simulation (single-flight dedupe, see [`Engine::sim_app_shared`]).
    coalesced: AtomicU64,
}

impl SimCache {
    fn new(capacity: usize) -> SimCache {
        SimCache {
            mem: Mutex::new(HashMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    fn lookup(&self, key: JobKey) -> Option<LaunchStats> {
        let found = self.peek(key);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Like [`SimCache::lookup`], but a miss counts nothing: the caller
    /// goes on to a counted lookup.
    fn peek(&self, key: JobKey) -> Option<LaunchStats> {
        let found = self.get(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// The entry under `key`, counting nothing.
    fn get(&self, key: JobKey) -> Option<LaunchStats> {
        self.mem.lock().unwrap().get(&key.0).cloned()
    }

    fn insert(&self, key: JobKey, stats: &LaunchStats) {
        let mut mem = self.mem.lock().unwrap();
        if mem.len() >= self.capacity && !mem.contains_key(&key.0) {
            mem.clear();
        }
        mem.insert(key.0, stats.clone());
    }

    fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

/// Where a [`Engine::sim_app_shared`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimSource {
    /// This caller ran the simulation itself.
    Computed,
    /// Served from the content-addressed cache.
    CacheHit,
    /// Waited on another caller's identical in-flight simulation
    /// (single-flight dedupe).
    Coalesced,
}

/// A [`Engine::sim_app_shared`] result plus its provenance — `catt serve`
/// reports provenance per request.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The simulation result.
    pub stats: LaunchStats,
    /// How it was obtained.
    pub source: SimSource,
}

/// The evaluation engine: a bounded worker pool plus the simulation cache.
pub struct Engine {
    workers: usize,
    cache: SimCache,
    /// Armed fault injections ([`Engine::with_fault_plan`]).
    fault: FaultPlan,
    /// Lifetime job-execution counter (drives `panic-job=N` injection).
    job_seq: AtomicU64,
    progress: Progress,
    /// Single-flight table: cache key → slot the leader publishes into.
    /// See [`Engine::sim_app_shared`].
    inflight: Mutex<HashMap<u64, Arc<InflightSlot>>>,
}

/// One in-flight simulation: the leader publishes into `state` and
/// notifies; followers wait (bounded by their own deadline).
struct InflightSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

/// Lifecycle of an [`InflightSlot`].
enum SlotState {
    /// The leader is still computing.
    Pending,
    /// Terminal result, shared with every follower.
    Done(Result<LaunchStats, JobError>),
    /// The leader was cancelled — a fact about *its* deadline or drain
    /// token, not about the job. Followers re-contend (one becomes the
    /// new leader) instead of inheriting a cancellation that isn't
    /// theirs.
    Retired,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

/// The process-wide engine used by the harness and `catt reproduce`.
static GLOBAL: OnceLock<Engine> = OnceLock::new();

impl Engine {
    /// Default worker bound: `available_parallelism()`, read once per
    /// process (on Linux every call re-parses cgroup files).
    fn default_workers() -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
    }

    /// Assemble an engine: the given worker bound, silent progress, and
    /// no fault armed.
    fn build(workers: usize) -> Engine {
        Engine {
            workers: workers.max(1),
            cache: SimCache::new(SIMCACHE_CAPACITY),
            fault: FaultPlan::none(),
            job_seq: AtomicU64::new(0),
            progress: Progress::Off,
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Engine with the default worker bound.
    pub fn new() -> Engine {
        Self::build(Self::default_workers())
    }

    /// Engine with an explicit worker bound (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> Engine {
        Self::build(workers)
    }

    /// Replace the worker-pool bound (builder-style, clamped to ≥ 1).
    pub fn with_worker_bound(mut self, workers: usize) -> Engine {
        self.workers = workers.max(1);
        self
    }

    /// Replace the fault plan (builder-style; the chaos harness and the
    /// fault-injection tests).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Engine {
        self.fault = plan;
        self
    }

    /// Replace the progress mode (builder-style).
    pub fn with_progress(mut self, progress: Progress) -> Engine {
        self.progress = progress;
        self
    }

    /// The process-wide engine. Unless a binary installed its own with
    /// [`Engine::init_global`] first, this is [`Engine::new`]: in-memory
    /// cache (tests and library users get memoization without touching
    /// the filesystem), `available_parallelism` workers, silent.
    pub fn global() -> &'static Engine {
        GLOBAL.get_or_init(Engine::new)
    }

    /// Install `engine` as the process-wide engine and return it. Call
    /// once at the top of a binary's `main`; if the global engine already
    /// exists it is returned and `engine` is dropped.
    pub fn init_global(engine: Engine) -> &'static Engine {
        GLOBAL.get_or_init(|| engine)
    }

    /// The worker-pool bound.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cumulative cache counters.
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// The stderr verbosity this engine runs at.
    pub fn progress(&self) -> Progress {
        self.progress
    }

    /// The armed fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Print a one-line cache/pool summary to stderr (the `catt` binary
    /// calls this after its last evaluation). Silent under [`Progress::Off`].
    pub fn print_summary(&self) {
        if self.progress == Progress::Off {
            return;
        }
        let c = self.cache_counters();
        eprintln!(
            "[engine] {} workers | simcache: {} hits / {} misses ({:.0}% hit)",
            self.workers,
            c.hits,
            c.misses,
            c.hit_rate() * 100.0
        );
    }

    /// Execute one job body under the fault plan (`delay-job`,
    /// `panic-job`, counted over every job this engine runs), with a
    /// panic caught and surfaced as a [`JobError`] named `label`.
    fn run_injected<T>(
        &self,
        label: &dyn fmt::Display,
        body: impl FnOnce() -> Result<T, JobError>,
    ) -> Result<T, JobError> {
        let seq = self.job_seq.fetch_add(1, Ordering::Relaxed);
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(ms) = self.fault.delay_job_ms {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if self.fault.panic_at_job == Some(seq) {
                panic!("fault injection: worker panic at job {seq}");
            }
            body()
        }))
        .unwrap_or_else(|payload| Err(JobError::from_panic(&label.to_string(), payload)))
    }

    /// Run `jobs` through `f` on the bounded pool. Results come back in
    /// job order; each job's panic is caught and surfaced as its own
    /// `Err`. `label` names the batch in the stderr progress line.
    pub fn run_jobs<J, T, F>(&self, label: &str, jobs: &[J], f: F) -> Vec<Result<T, JobError>>
    where
        J: Sync,
        T: Send,
        F: Fn(usize, &J) -> Result<T, JobError> + Sync,
    {
        let total = jobs.len();
        if total == 0 {
            return Vec::new();
        }
        let started = Instant::now();
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<T, JobError>>> = Vec::new();
        slots.resize_with(total, || None);
        let (tx, rx) = mpsc::channel::<(usize, Duration, Result<T, JobError>)>();
        let threads = self.workers.min(total);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let t0 = Instant::now();
                    let result = self.run_injected(&format_args!("job #{i}"), || f(i, &jobs[i]));
                    if tx.send((i, t0.elapsed(), result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut done = 0usize;
            while let Ok((i, took, result)) = rx.recv() {
                slots[i] = Some(result);
                done += 1;
                if self.progress == Progress::Full {
                    let c = self.cache_counters();
                    eprint!(
                        "\r[engine] {label}: {done}/{total} jobs | cache {}h/{}m | last {:>6.1?}   ",
                        c.hits, c.misses, took
                    );
                }
            }
            if self.progress >= Progress::Summary {
                eprintln!(
                    "\r[engine] {label}: {total}/{total} jobs in {:.2?} on {} workers        ",
                    started.elapsed(),
                    threads
                );
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every job slot filled by the pool"))
            .collect()
    }

    /// Get-or-simulate one application run. The cache key is
    /// [`job_digest`] of `(scope, kernels lowered, launch, config)`; a
    /// kernel that does not lower fails the job. On a miss
    /// `compute` runs — with panics converted into `Err` — and the result
    /// enters the cache. Traced and sanitized runs compute without
    /// touching the cache; profiled runs compute without reading it and
    /// then record their stats (see the module docs).
    pub fn sim_app<F>(
        &self,
        scope: &str,
        kernels: &[Kernel],
        launches: &[LaunchConfig],
        config: &GpuConfig,
        compute: F,
    ) -> Result<LaunchStats, JobError>
    where
        F: FnOnce() -> LaunchStats,
    {
        let caught = |compute: F| {
            catch_unwind(AssertUnwindSafe(compute))
                .map_err(|payload| JobError::from_panic(scope, payload))
        };
        match CacheUse::of(config) {
            CacheUse::Bypass => caught(compute),
            CacheUse::WriteOnly => {
                let stats = caught(compute)?;
                // The key is derived after the run, so a profiled run's
                // errors are always the run's own.
                if let Ok(key) = kernels_digest(scope, kernels, launches, config) {
                    self.cache.insert(key, &stats);
                }
                Ok(stats)
            }
            CacheUse::ReadWrite => {
                let key = kernels_digest(scope, kernels, launches, config)?;
                if let Some(stats) = self.cache.lookup(key) {
                    return Ok(stats);
                }
                let stats = caught(compute)?;
                self.cache.insert(key, &stats);
                Ok(stats)
            }
        }
    }

    /// The cached result under `key` — the [`job_digest`] of a run on
    /// `config` — without simulating. A hit counts as a cache hit; a miss
    /// counts nothing, because the caller then runs the job through
    /// [`Engine::sim_app_shared`], which counts it. A run that may not
    /// read the cache (see the module docs) always misses.
    pub fn cached(&self, key: JobKey, config: &GpuConfig) -> Option<LaunchStats> {
        if CacheUse::of(config) != CacheUse::ReadWrite {
            return None;
        }
        self.cache.peek(key)
    }

    /// Like [`Engine::cached`], but counts nothing, not even a hit: what
    /// the cache holds under `key`. A later [`Engine::cached`] of the
    /// same key finds it too unless the cache started over in between.
    pub fn held(&self, key: JobKey, config: &GpuConfig) -> Option<LaunchStats> {
        if CacheUse::of(config) != CacheUse::ReadWrite {
            return None;
        }
        self.cache.get(key)
    }

    /// Like [`Engine::sim_app`], but keyed by the caller's [`job_digest`]
    /// `key` (`scope` only names the job in errors), and with
    /// **single-flight dedupe**: when
    /// several callers submit the same job (same digest) concurrently,
    /// exactly one — the *leader* — simulates; the rest block on its slot
    /// and receive the identical result marked [`SimSource::Coalesced`].
    /// This is how `catt serve` collapses a stampede of identical
    /// submissions (across tenants) into one unit of simulation work.
    ///
    /// Differences from `sim_app`:
    /// * `compute` is fallible — the serve path surfaces [`SimError`]s as
    ///   typed failures instead of panicking; only `Ok` results enter the
    ///   cache, and failures propagate (cloned) to every coalesced waiter.
    /// * The deadline of `config.cancel` bounds a *follower's* wait too.
    ///   A leader is never interrupted here (the same token bounds its
    ///   simulation); a follower whose deadline passes gets a fatal
    ///   `JobError` with code `"deadline"`. Without a token, or with one
    ///   that has no deadline, a follower waits for the leader.
    /// * A **cancelled leader retires the slot** instead of publishing:
    ///   its cancellation reflects its own deadline (or a drain), not the
    ///   job, so followers with unexpired deadlines re-contend — one
    ///   becomes the new leader and simulates under its own token —
    ///   rather than receiving a spurious cancellation for work that was
    ///   never attempted on their behalf.
    /// * Fault injection (`delay-job`, `panic-job`) applies to the leader's
    ///   compute, mirroring [`Engine::run_jobs`] workers.
    ///
    /// Traced, sanitized and profiled runs use the cache as in `sim_app`,
    /// and never coalesce: each is computed by its own caller.
    ///
    /// [`SimError`]: catt_sim::SimError
    pub fn sim_app_shared<F>(
        &self,
        scope: &str,
        key: JobKey,
        config: &GpuConfig,
        compute: F,
    ) -> Result<SimOutcome, JobError>
    where
        F: FnOnce() -> Result<LaunchStats, JobError>,
    {
        let computed = |stats: LaunchStats| SimOutcome {
            stats,
            source: SimSource::Computed,
        };
        match CacheUse::of(config) {
            CacheUse::Bypass => return self.run_injected(&scope, compute).map(computed),
            CacheUse::WriteOnly => {
                let stats = self.run_injected(&scope, compute)?;
                self.cache.insert(key, &stats);
                return Ok(computed(stats));
            }
            CacheUse::ReadWrite => {}
        }
        // A request leads at most once (the leader branch returns), but a
        // follower can re-contend after a retired slot — hence the loop
        // and the Option around the one-shot compute closure.
        let mut compute = Some(compute);
        loop {
            // Decide leader vs. follower under the inflight lock. The
            // cache check lives inside the critical section: a leader
            // inserts into the cache *before* removing its inflight
            // entry, so "no entry" here implies any earlier leader's
            // result is already visible.
            let role = {
                let mut map = self.inflight.lock().unwrap();
                if let Some(slot) = map.get(&key.0) {
                    Err(Arc::clone(slot))
                } else if let Some(stats) = self.cache.lookup(key) {
                    return Ok(SimOutcome {
                        stats,
                        source: SimSource::CacheHit,
                    });
                } else {
                    let slot = Arc::new(InflightSlot {
                        state: Mutex::new(SlotState::Pending),
                        cv: Condvar::new(),
                    });
                    map.insert(key.0, Arc::clone(&slot));
                    Ok(slot)
                }
            };
            match role {
                Ok(slot) => {
                    // Leader: simulate, cache on success, publish
                    // unconditionally (followers must never hang), then
                    // retire the slot.
                    let result = self.run_injected(
                        &scope,
                        compute.take().expect("a request leads at most once"),
                    );
                    if let Ok(stats) = &result {
                        self.cache.insert(key, stats);
                    }
                    if matches!(&result, Err(e) if e.code == Some("cancelled")) {
                        // Cancelled leader: no verdict about the job, so
                        // nothing to publish. Remove the map entry first
                        // (re-contending followers must find a fresh
                        // leader or an empty slot, never this retired
                        // one), then wake the waiters to re-contend.
                        self.inflight.lock().unwrap().remove(&key.0);
                        *slot.state.lock().unwrap() = SlotState::Retired;
                        slot.cv.notify_all();
                    } else {
                        *slot.state.lock().unwrap() = SlotState::Done(result.clone());
                        slot.cv.notify_all();
                        self.inflight.lock().unwrap().remove(&key.0);
                    }
                    return result.map(computed);
                }
                Err(slot) => {
                    let deadline = config.cancel.as_ref().and_then(CancelToken::deadline);
                    let mut state = slot.state.lock().unwrap();
                    loop {
                        match &*state {
                            SlotState::Done(result) => {
                                self.cache.coalesced.fetch_add(1, Ordering::Relaxed);
                                return result.clone().map(|stats| SimOutcome {
                                    stats,
                                    source: SimSource::Coalesced,
                                });
                            }
                            // Leader cancelled: drop the slot lock and
                            // re-contend from the top.
                            SlotState::Retired => break,
                            SlotState::Pending => {}
                        }
                        match deadline {
                            None => state = slot.cv.wait(state).unwrap(),
                            Some(deadline) => {
                                let now = Instant::now();
                                if now >= deadline {
                                    return Err(JobError::fatal(
                                        scope,
                                        "deadline passed while waiting on an identical \
                                         in-flight simulation",
                                    )
                                    .with_code("deadline"));
                                }
                                let (guard, _) =
                                    slot.cv.wait_timeout(state, deadline - now).unwrap();
                                state = guard;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_frontend::parse_kernel;

    fn key(scope: &str, k: &Kernel, launch: LaunchConfig, config: &GpuConfig) -> JobKey {
        let program = catt_sim::lower(k).unwrap();
        job_digest(scope, std::slice::from_ref(&program), &[launch], config)
    }

    fn kernel() -> Kernel {
        parse_kernel(
            "__global__ void k(float *a, int n) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (i < n) { a[i] = a[i] * 2.0f; }
             }",
        )
        .unwrap()
    }

    #[test]
    fn job_order_is_preserved() {
        let engine = Engine::with_workers(4);
        let jobs: Vec<usize> = (0..64).collect();
        let out = engine.run_jobs("order", &jobs, |_, &j| Ok(j * 10));
        let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, (0..64).map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn panics_become_job_errors() {
        let engine = Engine::with_workers(2);
        let jobs = vec![1u32, 2, 3];
        let out = engine.run_jobs("panics", &jobs, |_, &j| {
            if j == 2 {
                panic!("boom {j}");
            }
            Ok(j)
        });
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[2], Ok(3));
        let err = out[1].as_ref().unwrap_err();
        assert!(err.message.contains("boom 2"), "{err}");
    }

    #[test]
    fn pool_never_exceeds_worker_bound() {
        use std::sync::atomic::AtomicIsize;
        let engine = Engine::with_workers(3);
        let live = AtomicIsize::new(0);
        let peak = AtomicIsize::new(0);
        let jobs: Vec<u32> = (0..40).collect();
        engine.run_jobs("bound", &jobs, |_, _| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        });
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {:?}", peak);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let k = kernel();
        let launch = LaunchConfig::d1(4, 128);
        let config = GpuConfig::small();
        let a = key("S", &k, launch, &config);
        let b = key("S", &k, launch, &config);
        assert_eq!(a, b);
        // Scope, launch, and config all separate keys.
        assert_ne!(a, key("T", &k, launch, &config));
        assert_ne!(a, key("S", &k, LaunchConfig::d1(8, 128), &config));
        let mut capped = config.clone();
        capped.l1_cap_bytes = Some(2 * 1024);
        assert_ne!(a, key("S", &k, launch, &capped));
    }

    #[test]
    fn sim_app_memoizes() {
        let engine = Engine::with_workers(2);
        let k = kernel();
        let launch = LaunchConfig::d1(1, 32);
        let config = GpuConfig::small();
        let mut calls = 0u32;
        let run = |calls: &mut u32| {
            *calls += 1;
            LaunchStats {
                cycles: 42,
                ..LaunchStats::default()
            }
        };
        let a = engine
            .sim_app("memo", std::slice::from_ref(&k), &[launch], &config, || {
                run(&mut calls)
            })
            .unwrap();
        let b = engine
            .sim_app("memo", std::slice::from_ref(&k), &[launch], &config, || {
                run(&mut calls)
            })
            .unwrap();
        assert_eq!(calls, 1, "second run must be served from cache");
        assert_eq!(a.cycles, b.cycles);
        let c = engine.cache_counters();
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn cached_counts_a_hit_and_never_a_miss() {
        let engine = Engine::with_workers(1);
        let k = kernel();
        let launch = LaunchConfig::d1(1, 32);
        let config = GpuConfig::small();
        let key = key("peek", &k, launch, &config);
        assert!(engine.cached(key, &config).is_none());
        assert_eq!(engine.cache_counters(), CacheCounters::default());
        let stats = LaunchStats {
            cycles: 7,
            ..LaunchStats::default()
        };
        let computed = engine
            .sim_app_shared("peek", key, &config, || Ok(stats.clone()))
            .unwrap();
        assert_eq!(computed.source, SimSource::Computed);
        let c = engine.cache_counters();
        assert_eq!((c.hits, c.misses), (0, 1));
        assert_eq!(engine.cached(key, &config).map(|s| s.cycles), Some(7));
        let c = engine.cache_counters();
        assert_eq!((c.hits, c.misses), (1, 1));
        // A run that may not read the cache never hits.
        let mut traced = config.clone();
        traced.trace_requests = true;
        assert!(engine.cached(key, &traced).is_none());
        assert_eq!(engine.cache_counters().hits, 1);
    }

    #[test]
    fn a_full_simcache_starts_over_and_counts_right() {
        let cache = SimCache::new(2);
        let stats = |cycles| LaunchStats {
            cycles,
            ..LaunchStats::default()
        };
        cache.insert(JobKey(1), &stats(1));
        cache.insert(JobKey(2), &stats(2));
        // Re-inserting a held key does not pass the capacity.
        cache.insert(JobKey(2), &stats(2));
        assert_eq!(cache.lookup(JobKey(1)).map(|s| s.cycles), Some(1));
        cache.insert(JobKey(3), &stats(3));
        assert!(
            cache.lookup(JobKey(1)).is_none(),
            "the third insert starts over"
        );
        assert!(cache.lookup(JobKey(2)).is_none());
        assert_eq!(cache.lookup(JobKey(3)).map(|s| s.cycles), Some(3));
        assert!(cache.get(JobKey(4)).is_none(), "`get` counts nothing");
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.coalesced), (2, 2, 0));
        assert_eq!(cache.mem.lock().unwrap().len(), 1);
    }

    #[test]
    fn sim_app_propagates_panics() {
        let engine = Engine::with_workers(1);
        let k = kernel();
        let launch = LaunchConfig::d1(1, 32);
        let config = GpuConfig::small();
        let err = engine
            .sim_app(
                "exploding",
                std::slice::from_ref(&k),
                &[launch],
                &config,
                || panic!("validation failed: device 3 vs host 4"),
            )
            .unwrap_err();
        assert!(err.message.contains("validation failed"), "{err}");
        assert_eq!(err.label, "exploding");
    }
}
