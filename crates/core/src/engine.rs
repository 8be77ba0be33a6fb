//! # Evaluation engine — bounded parallel simulation with a content-addressed cache
//!
//! The paper's evaluation (Tables 1–3, Figs. 2–10) re-runs the simulator
//! hundreds of times: a full BFTT sweep per application per cache
//! configuration, and the same (kernel, launch, config) points across
//! several figure binaries. Both structures are exploited here:
//!
//! * **Bounded worker pool** — simulation jobs run on at most
//!   [`Engine::workers`] OS threads (default: `available_parallelism()`),
//!   replacing the old one-unbounded-thread-per-candidate sweep. Results
//!   come back in job order regardless of completion order, and worker
//!   panics are caught and propagated as [`JobError`]s instead of
//!   poisoning the whole sweep.
//! * **Content-addressed simulation cache** — results are memoized under a
//!   stable digest of (lowered kernel programs, launch geometry,
//!   [`GpuConfig`], scope tag). An in-memory layer serves repeats within a
//!   process; an optional persistent JSONL layer under
//!   `results/.simcache/` makes warm re-runs of any table/figure binary
//!   near-instant. Traced runs (`GpuConfig::trace_requests`) and profiled
//!   runs (`GpuConfig::profile`) bypass the cache — the
//!   request trace and the launch profile are diagnostic side channels
//!   the cache deliberately does not store.
//!
//! ## Guard rails
//!
//! The engine is the fault boundary of the evaluation stack. Every job
//! failure — a [`catt_sim::SimError`], a panic, a validation failure — is
//! deterministic, so a failed job is reported once as a [`JobError`] and
//! never rerun; what bounds a job's run time is the simulator's fuel
//! budget and, under `catt serve`, the request's cancel token. The
//! persistent simcache is versioned and checksummed per line, appended
//! per insert under a cross-process lock, compacted atomically
//! (tempfile-then-rename) on load repair and flush, and corrupt or stale
//! lines are skipped with a reported count — never a crash. The
//! [`crate::fault`] module can inject worker panics and cache corruption
//! to exercise all of it.
//!
//! The engine takes its settings from its constructors and builders —
//! cache mode ([`Engine::new`] / [`Engine::persistent`] /
//! [`Engine::uncached`]), worker bound ([`Engine::with_worker_bound`];
//! published to `catt-sim` for the duration of each batch, so per-launch
//! SM parallelism budgets `available_parallelism / workers` threads per
//! launch instead of oversubscribing the machine), stderr verbosity
//! ([`Engine::with_progress`], silent by default) — and never consults
//! the environment for them; the binaries map `CATT_SIMCACHE`,
//! `CATT_ENGINE_WORKERS` and `CATT_ENGINE_PROGRESS` onto these at
//! start-up. The one exception is the chaos harness: every constructor
//! arms the `CATT_FAULT_PLAN` plan, see [`crate::fault`].

use crate::fault::FaultPlan;
use catt_ir::kernel::{Kernel, LaunchConfig};
use catt_sim::{Fnv64, GpuConfig, LaunchStats};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// Jobs answered from the in-memory or persistent layer.
    pub hits: u64,
    /// Jobs actually simulated.
    pub misses: u64,
    /// Persistent-cache lines dropped at load time (corrupt checksum,
    /// stale version, unparsable) — each skip costs one recomputation,
    /// never a crash.
    pub skipped: u64,
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

impl JobKey {
    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Content digest of a simulation job: `scope` (application + input
/// identity — the workload abbreviation for registry apps), the *lowered*
/// program of every kernel the job runs, the launch geometry, and the
/// full GPU configuration. Kernels are lowered here so that two sources
/// with identical lowering share one cache entry, and any change to the
/// lowering itself changes every digest (automatic invalidation).
pub fn job_digest(
    scope: &str,
    kernels: &[Kernel],
    launches: &[LaunchConfig],
    config: &GpuConfig,
) -> Result<JobKey, JobError> {
    let mut h = Fnv64::new();
    h.write_str("catt-simcache-v1").write_str(scope);
    for k in kernels {
        let program = catt_sim::lower(k)
            .map_err(|e| JobError::fatal(scope, format!("kernel `{}`: {e}", k.name)))?;
        h.write_debug(&program.content_digest());
    }
    h.write_debug(&launches);
    h.write_debug(&config.content_digest());
    Ok(JobKey(h.finish()))
}

/// Where cached results live.
enum CacheMode {
    /// No caching at all (every job simulates).
    Off,
    /// In-memory map only.
    Memory,
    /// In-memory map backed by a JSONL append log.
    Persistent(PathBuf),
}

/// The content-addressed simulation cache.
///
/// Persistent format (v2): one JSON object per line,
/// `{"v":2,"crc":"<16 hex>","key":"<16 hex>",<stat fields>}`, where `crc`
/// is the FNV-1a 64 digest of everything after it (`"key":...` to the
/// closing brace, exclusive). Loads drop any line whose version, checksum,
/// or fields don't check out — counting them in
/// [`CacheCounters::skipped`] — and immediately rewrite a clean file.
/// Inserts *append* one line under the cross-process [`CacheLock`] — O(1)
/// disk traffic per miss instead of rewriting the whole file — while the
/// full merge-and-rewrite (tempfile then `rename`, disk map merged in
/// first so another writer's lines survive) runs only on load repair and
/// explicit flush. Duplicate keys from racing appenders are harmless:
/// the store is content-addressed (identical key ⇒ identical stats) and
/// loads keep the last occurrence. A killed process can truncate at most
/// a final line that the next load repairs, never wedge the file.
struct SimCache {
    mode: CacheMode,
    mem: Mutex<HashMap<u64, LaunchStats>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Lines dropped at load time (bad checksum / stale version).
    skipped: AtomicU64,
    /// Jobs that waited on another caller's identical in-flight
    /// simulation (single-flight dedupe, see [`Engine::sim_app_shared`]).
    coalesced: AtomicU64,
    /// Fault injection: corrupt the checksum of one persisted line.
    corrupt_armed: AtomicBool,
    /// The key whose line is rendered with a poisoned checksum.
    poisoned: Mutex<Option<u64>>,
}

impl SimCache {
    const FILE: &'static str = "cache.jsonl";
    const LINE_PREFIX: &'static str = "{\"v\":2,\"crc\":\"";

    fn new(mode: CacheMode) -> SimCache {
        let (mem, skipped) = match &mode {
            CacheMode::Persistent(dir) => Self::load(dir),
            _ => (HashMap::new(), 0),
        };
        let cache = SimCache {
            mode,
            mem: Mutex::new(mem),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped: AtomicU64::new(skipped),
            coalesced: AtomicU64::new(0),
            corrupt_armed: AtomicBool::new(false),
            poisoned: Mutex::new(None),
        };
        // Repair the file right away when corrupt/stale lines were
        // dropped, so the damage is paid for exactly once.
        if skipped > 0 {
            cache.persist();
        }
        cache
    }

    /// Arm fault injection: the next inserted entry is persisted with a
    /// deliberately wrong checksum (see [`FaultPlan::corrupt_cache`]).
    fn arm_corruption(&self) {
        self.corrupt_armed.store(true, Ordering::Relaxed);
    }

    /// The `"key":...` payload of one persistent line.
    fn line_payload(key: u64, stats: &LaunchStats) -> String {
        format!(
            "\"key\":\"{}\",{}",
            JobKey(key).hex(),
            stats.to_json_fields()
        )
    }

    /// Checksum of a line payload.
    fn crc(payload: &str) -> u64 {
        Fnv64::new().write_str(payload).finish()
    }

    /// Render one v2 line; a poisoned line gets a bitwise-inverted
    /// checksum so the next load must reject it.
    fn render_line(key: u64, stats: &LaunchStats, poison: bool) -> String {
        let payload = Self::line_payload(key, stats);
        let mut crc = Self::crc(&payload);
        if poison {
            crc = !crc;
        }
        format!("{}{:016x}\",{}}}", Self::LINE_PREFIX, crc, payload)
    }

    /// Parse and verify one v2 line.
    fn parse_line(line: &str) -> Option<(u64, LaunchStats)> {
        let rest = line.strip_prefix(Self::LINE_PREFIX)?;
        let crc = u64::from_str_radix(rest.get(..16)?, 16).ok()?;
        let payload = rest.get(16..)?.strip_prefix("\",")?.strip_suffix('}')?;
        if Self::crc(payload) != crc {
            return None;
        }
        let key_hex = payload.strip_prefix("\"key\":\"")?.get(..16)?;
        let key = u64::from_str_radix(key_hex, 16).ok()?;
        Some((key, LaunchStats::from_json_line(payload)?))
    }

    /// Read the JSONL log. Every line that fails the version, checksum,
    /// or field check is dropped and counted — a truncated final line
    /// from a killed process or a flipped bit on disk costs one
    /// recomputation, never a wedged cache.
    fn load(dir: &Path) -> (HashMap<u64, LaunchStats>, u64) {
        let mut map = HashMap::new();
        let mut skipped = 0u64;
        let Ok(text) = fs::read_to_string(dir.join(Self::FILE)) else {
            return (map, skipped);
        };
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            match Self::parse_line(line) {
                Some((key, stats)) => {
                    map.insert(key, stats);
                }
                None => skipped += 1,
            }
        }
        (map, skipped)
    }

    fn lookup(&self, key: JobKey) -> Option<LaunchStats> {
        if matches!(self.mode, CacheMode::Off) {
            return None;
        }
        let found = self.mem.lock().unwrap().get(&key.0).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Rewrite the persistent file atomically from the in-memory map:
    /// render every entry (sorted by key for determinism) into
    /// `cache.jsonl.tmp.<pid>`, then `rename` over the live file. Holding
    /// the `mem` lock across the write serializes concurrent persists
    /// within the process; a [`CacheLock`] file serializes writers across
    /// processes. Under the lock the on-disk file is re-read and merged
    /// into the in-memory map before the rewrite, so entries another
    /// writer persisted since our load survive — the store is
    /// content-addressed (identical key ⇒ identical stats), which makes
    /// the union conflict-free and no acknowledged line is ever lost.
    fn persist(&self) {
        let CacheMode::Persistent(dir) = &self.mode else {
            return;
        };
        let _ = fs::create_dir_all(dir);
        let lock = CacheLock::acquire(dir);
        if lock.is_none() {
            eprintln!(
                "[engine] warning: simcache lock under {} unavailable; persisting unlocked",
                dir.display()
            );
        }
        let mut mem = self.mem.lock().unwrap();
        let (disk, _) = Self::load(dir);
        for (key, stats) in disk {
            mem.entry(key).or_insert(stats);
        }
        let mem = &*mem;
        let poisoned = *self.poisoned.lock().unwrap();
        let mut entries: Vec<(&u64, &LaunchStats)> = mem.iter().collect();
        entries.sort_by_key(|(k, _)| **k);
        let mut text = String::new();
        for (key, stats) in entries {
            text.push_str(&Self::render_line(*key, stats, poisoned == Some(*key)));
            text.push('\n');
        }
        let tmp = dir.join(format!("{}.tmp.{}", Self::FILE, std::process::id()));
        let write = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .and_then(|_| fs::rename(&tmp, dir.join(Self::FILE)));
        if let Err(e) = write {
            let _ = fs::remove_file(&tmp);
            eprintln!(
                "[engine] warning: cannot persist simcache under {}: {e}",
                dir.display()
            );
        }
    }

    /// Append one just-inserted entry to the JSONL log. O(1) per insert
    /// (the merge-and-rewrite path is reserved for load repair and
    /// flush), done *outside* the `mem` lock, and serialized against
    /// other writers' appends and rewrites by the same [`CacheLock`] —
    /// an unlocked appender racing a tempfile-rename rewrite could land
    /// its line on the doomed inode and lose an acknowledged entry.
    fn append_line(&self, key: u64, stats: &LaunchStats) {
        let CacheMode::Persistent(dir) = &self.mode else {
            return;
        };
        let _ = fs::create_dir_all(dir);
        let lock = CacheLock::acquire(dir);
        if lock.is_none() {
            eprintln!(
                "[engine] warning: simcache lock under {} unavailable; appending unlocked",
                dir.display()
            );
        }
        let poison = *self.poisoned.lock().unwrap() == Some(key);
        let mut line = Self::render_line(key, stats, poison);
        line.push('\n');
        let write = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(Self::FILE))
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = write {
            eprintln!(
                "[engine] warning: cannot append to simcache under {}: {e}",
                dir.display()
            );
        }
    }

    fn insert(&self, key: JobKey, stats: &LaunchStats) {
        match &self.mode {
            CacheMode::Off => {}
            CacheMode::Memory => {
                self.mem.lock().unwrap().insert(key.0, stats.clone());
            }
            CacheMode::Persistent(_) => {
                self.mem.lock().unwrap().insert(key.0, stats.clone());
                if self.corrupt_armed.swap(false, Ordering::Relaxed) {
                    *self.poisoned.lock().unwrap() = Some(key.0);
                }
                self.append_line(key.0, stats);
            }
        }
    }

    fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

/// An advisory cross-process lock over the persistent simcache file,
/// taken with `O_CREAT|O_EXCL` (`create_new`) on a sibling `.lock` file —
/// the one filesystem primitive that is atomic everywhere std runs.
/// Holders that die without unlinking are broken by age: a lock file
/// older than [`CacheLock::STALE`] is presumed orphaned and removed.
/// Waiting is bounded; on timeout the writer proceeds *unlocked* (a
/// last-writer-wins persist is strictly better than a wedged engine).
struct CacheLock {
    path: PathBuf,
}

impl CacheLock {
    const STALE: Duration = Duration::from_secs(10);
    const WAIT: Duration = Duration::from_secs(10);

    fn acquire(dir: &Path) -> Option<CacheLock> {
        let path = dir.join(format!("{}.lock", SimCache::FILE));
        let deadline = Instant::now() + Self::WAIT;
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Some(CacheLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|md| md.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > Self::STALE);
                    if stale {
                        // Orphaned by a killed holder; break it. Two
                        // waiters may both remove and race to recreate —
                        // `create_new` lets exactly one win.
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return None;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return None,
            }
        }
    }
}

impl Drop for CacheLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
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
    /// Armed fault injections (from `CATT_FAULT_PLAN` or
    /// [`Engine::with_fault_plan`]).
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

/// The process-wide engine used by the harness and bench binaries.
static GLOBAL: OnceLock<Engine> = OnceLock::new();

impl Engine {
    /// Default worker bound: `available_parallelism()`.
    fn default_workers() -> usize {
        catt_sim::host_parallelism().unwrap_or(4)
    }

    /// Assemble an engine: the given cache mode and worker bound, silent
    /// progress, and the `CATT_FAULT_PLAN` fault plan.
    fn build(workers: usize, mode: CacheMode) -> Engine {
        let fault = FaultPlan::from_env();
        let engine = Engine {
            workers: workers.max(1),
            cache: SimCache::new(mode),
            fault,
            job_seq: AtomicU64::new(0),
            progress: Progress::Off,
            inflight: Mutex::new(HashMap::new()),
        };
        if engine.fault.corrupt_cache {
            engine.cache.arm_corruption();
        }
        engine
    }

    /// Engine with an in-memory cache and the default worker bound.
    pub fn new() -> Engine {
        Self::build(Self::default_workers(), CacheMode::Memory)
    }

    /// Engine with an explicit worker bound (clamped to ≥ 1) and an
    /// in-memory cache.
    pub fn with_workers(workers: usize) -> Engine {
        Self::build(workers, CacheMode::Memory)
    }

    /// Engine whose cache persists as JSONL under `dir` (loaded eagerly,
    /// one checksummed line appended per miss, compacted atomically on
    /// load repair and [`Engine::flush_cache`]).
    pub fn persistent(dir: impl Into<PathBuf>) -> Engine {
        Self::build(Self::default_workers(), CacheMode::Persistent(dir.into()))
    }

    /// Engine with caching disabled (every job simulates).
    pub fn uncached() -> Engine {
        Self::build(Self::default_workers(), CacheMode::Off)
    }

    /// Replace the worker-pool bound (builder-style, clamped to ≥ 1).
    pub fn with_worker_bound(mut self, workers: usize) -> Engine {
        self.workers = workers.max(1);
        self
    }

    /// Replace the fault plan (builder-style; used by the fault-injection
    /// tests — production engines read `CATT_FAULT_PLAN` on construction).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Engine {
        if plan.corrupt_cache {
            self.cache.arm_corruption();
        }
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

    /// Print a one-line cache/pool summary to stderr (bench binaries call
    /// this after their last evaluation). Silent under [`Progress::Off`].
    pub fn print_summary(&self) {
        if self.progress == Progress::Off {
            return;
        }
        let c = self.cache_counters();
        let mut extras = String::new();
        if c.skipped > 0 {
            extras.push_str(&format!(" | {} corrupt line(s) skipped", c.skipped));
        }
        eprintln!(
            "[engine] {} workers | simcache: {} hits / {} misses ({:.0}% hit){extras}",
            self.workers,
            c.hits,
            c.misses,
            c.hit_rate() * 100.0
        );
    }

    /// Execute one job body with fault injection and panic capture.
    fn run_one<J, T, F>(&self, i: usize, job: &J, f: &F) -> Result<T, JobError>
    where
        F: Fn(usize, &J) -> Result<T, JobError>,
    {
        let seq = self.job_seq.fetch_add(1, Ordering::Relaxed);
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(ms) = self.fault.delay_job_ms {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if self.fault.panic_at_job == Some(seq) {
                panic!("fault injection: worker panic at job {seq}");
            }
            f(i, job)
        }))
        .unwrap_or_else(|payload| Err(JobError::from_panic(&format!("job #{i}"), payload)))
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
        // Publish this batch's worker count to the simulator so per-launch
        // SM parallelism divides the machine instead of multiplying into
        // it (W workers × S SM threads): each job's launches derive their
        // SM thread budget as available_parallelism / active workers. The
        // RAII guard deregisters on any exit from this function — an
        // unwinding job must not leak the hint, or every later launch in
        // the process runs with a permanently shrunken thread budget.
        let _workers_hint = catt_sim::engine_workers_guard(threads);
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
                    let result = self.run_one(i, &jobs[i], f);
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
    /// [`job_digest`] of `(scope, kernels, launch, config)`; on a miss (or
    /// for traced/uncacheable configs) `compute` runs — with panics
    /// converted into `Err` — and the result enters both cache layers.
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
        // Traced runs carry a request trace the cache does not store, and
        // profiled runs exist *for* their side-channel profile — a cache
        // hit would skip the simulation that produces it. Both bypass the
        // cache (and never pollute it: their `LaunchStats` are identical
        // to an unprofiled run's, but skipping the insert keeps the
        // bypass symmetric and the cache read-only under diagnostics).
        // Sanitized runs also bypass (and never populate) the cache: a
        // cache hit would skip the very checks sanitize mode exists for.
        if config.trace_requests || config.profile_enabled() || config.sanitize_enabled() {
            return caught(compute);
        }
        let key = job_digest(scope, kernels, launches, config)?;
        if let Some(stats) = self.cache.lookup(key) {
            return Ok(stats);
        }
        let stats = caught(compute)?;
        self.cache.insert(key, &stats);
        Ok(stats)
    }

    /// Like [`Engine::sim_app`], but with **single-flight dedupe**: when
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
    /// * `wait_deadline` bounds a *follower's* wait. A leader is never
    ///   interrupted here (its own `GpuConfig::cancel` token bounds the
    ///   simulation); a follower whose deadline passes gets a fatal
    ///   `JobError` with code `"deadline"`.
    /// * A **cancelled leader retires the slot** instead of publishing:
    ///   its cancellation reflects its own deadline (or a drain), not the
    ///   job, so followers with unexpired deadlines re-contend — one
    ///   becomes the new leader and simulates under its own token —
    ///   rather than receiving a spurious cancellation for work that was
    ///   never attempted on their behalf.
    /// * Fault injection (`delay-job`, `panic-job`) applies to the leader's
    ///   compute, mirroring [`Engine::run_jobs`] workers.
    ///
    /// Bypass configs (trace / profile / sanitize) behave as in `sim_app`:
    /// computed directly, no cache, no dedupe.
    ///
    /// [`SimError`]: catt_sim::SimError
    pub fn sim_app_shared<F>(
        &self,
        scope: &str,
        kernels: &[Kernel],
        launches: &[LaunchConfig],
        config: &GpuConfig,
        wait_deadline: Option<Instant>,
        compute: F,
    ) -> Result<SimOutcome, JobError>
    where
        F: FnOnce() -> Result<LaunchStats, JobError>,
    {
        let injected = |compute: F| {
            let seq = self.job_seq.fetch_add(1, Ordering::Relaxed);
            catch_unwind(AssertUnwindSafe(|| {
                if let Some(ms) = self.fault.delay_job_ms {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                if self.fault.panic_at_job == Some(seq) {
                    panic!("fault injection: worker panic at job {seq}");
                }
                compute()
            }))
            .unwrap_or_else(|payload| Err(JobError::from_panic(scope, payload)))
        };
        if config.trace_requests || config.profile_enabled() || config.sanitize_enabled() {
            return injected(compute).map(|stats| SimOutcome {
                stats,
                source: SimSource::Computed,
            });
        }
        let key = job_digest(scope, kernels, launches, config)?;
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
                    let result = injected(compute.take().expect("a request leads at most once"));
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
                    return result.map(|stats| SimOutcome {
                        stats,
                        source: SimSource::Computed,
                    });
                }
                Err(slot) => {
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
                        match wait_deadline {
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

    /// Flush the in-memory cache to its persistent backing now (a no-op
    /// for in-memory / disabled caches). `catt serve` calls this during
    /// graceful drain so a SIGTERM never costs acknowledged results.
    pub fn flush_cache(&self) {
        self.cache.persist();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_frontend::parse_kernel;

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
    fn run_jobs_publishes_engine_worker_count_to_the_simulator() {
        // The simulator's SM thread budget divides by the active worker
        // count; each job must observe at least this batch's pool size
        // (other concurrently-running test batches can only add to it).
        let engine = Engine::with_workers(3);
        let jobs: Vec<u32> = (0..6).collect();
        let out = engine.run_jobs("hint", &jobs, |_, _| Ok(catt_sim::engine_workers_hint()));
        for r in out {
            assert!(r.unwrap() >= 3);
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let k = kernel();
        let launch = LaunchConfig::d1(4, 128);
        let config = GpuConfig::small();
        let a = job_digest("S", std::slice::from_ref(&k), &[launch], &config).unwrap();
        let b = job_digest("S", std::slice::from_ref(&k), &[launch], &config).unwrap();
        assert_eq!(a, b);
        // Scope, launch, and config all separate keys.
        let other_scope = job_digest("T", std::slice::from_ref(&k), &[launch], &config).unwrap();
        assert_ne!(a, other_scope);
        let other_launch = job_digest(
            "S",
            std::slice::from_ref(&k),
            &[LaunchConfig::d1(8, 128)],
            &config,
        )
        .unwrap();
        assert_ne!(a, other_launch);
        let mut capped = config.clone();
        capped.l1_cap_bytes = Some(2 * 1024);
        let other_config = job_digest("S", std::slice::from_ref(&k), &[launch], &capped).unwrap();
        assert_ne!(a, other_config);
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
