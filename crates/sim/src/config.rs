//! Simulated GPU configuration (geometry, capacities, latencies).

/// Cooperative cancellation handle for an in-flight launch. Cloning
/// shares the flag; [`CancelToken::cancel`] makes every simulation loop
/// holding a clone return [`SimError::Cancelled`](crate::SimError) at its
/// next poll point (the top of the per-SM run loop, where the fuel budget
/// is checked too). This is the wall-clock escape hatch `catt serve`
/// threads a request deadline through: fuel bounds simulated cycles, the
/// token bounds real time.
///
/// Equality is identity (`Arc::ptr_eq`) — two tokens are equal only when
/// they are the same flag — and the token never participates in
/// [`GpuConfig::content_digest`]: cancellation is an execution concern,
/// not a simulated parameter, so tokenless and token-carrying configs
/// share cache entries.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation: every launch polling this token stops with
    /// [`SimError::Cancelled`](crate::SimError) at its next poll.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &CancelToken) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The shared-memory carve-out options per SM on Volta, in KB (paper §4.1:
/// "The Nvidia Volta GPU can configure the size of shared memory to be 0,
/// 8, 16, 32, 64, or 96 KB per SM"). The L1D receives the remainder of the
/// 128 KB unified on-chip memory.
pub const SMEM_CONFIGS_KB: [u32; 6] = [0, 8, 16, 32, 64, 96];

/// L1 data-cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (128 on Nvidia hardware; the unit the paper's
    /// footprint analysis counts in).
    pub line_bytes: u32,
    /// Set associativity.
    pub assoc: u32,
}

impl L1Config {
    /// Number of sets.
    pub fn num_sets(&self) -> u32 {
        (self.size_bytes / self.line_bytes / self.assoc).max(1)
    }

    /// Number of lines.
    pub fn num_lines(&self) -> u32 {
        self.size_bytes / self.line_bytes
    }
}

/// Latency model, in SM cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// ALU dependent-use latency.
    pub alu: u64,
    /// Special-function (sqrt/exp/...) latency.
    pub sfu: u64,
    /// L1D hit latency.
    pub l1_hit: u64,
    /// L2 hit latency: an L1D miss that the shared L2 slice serves
    /// (see [`GpuConfig::l2_kb`]). ~193 cycles on Volta per the
    /// Citadel microbenchmark paper; we round to 180 SM cycles.
    pub l2_hit: u64,
    /// DRAM service latency for an L1D miss that also misses the L2
    /// (with `l2_kb = 0` the L2 is disabled and every L1D miss pays
    /// this, which reproduces the pre-L2 model bit-for-bit — the
    /// contention effect comes from the miss *rate* and the off-chip
    /// bandwidth limit, not the precise latency split).
    pub offchip: u64,
    /// Shared-memory access latency.
    pub shared: u64,
    /// Cycles the off-chip port is occupied per 128-byte request: the
    /// inverse per-SM off-chip bandwidth. This is what makes thrashing
    /// hurt beyond raw latency — divergent misses queue behind each
    /// other. 8 cycles/128 B = 16 B/cycle/SM, between Volta's per-SM L2
    /// bandwidth and its DRAM share (a thrashing working set spills past
    /// the L2).
    pub offchip_port: u64,
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies {
            alu: 4,
            sfu: 16,
            l1_hit: 28,
            l2_hit: 180,
            offchip: 380,
            shared: 24,
            offchip_port: 8,
        }
    }
}

/// Full simulated-GPU configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Warp size (32 on all Nvidia architectures).
    pub warp_size: u32,
    /// Maximum resident warps per SM (64 on Volta).
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM (32 on Volta).
    pub max_tbs_per_sm: u32,
    /// Warp schedulers per SM (4 on Volta).
    pub schedulers_per_sm: u32,
    /// Register file per SM in bytes (256 KB on Volta).
    pub regfile_bytes_per_sm: u32,
    /// Unified on-chip memory per SM in bytes (128 KB on Volta), split
    /// between shared memory and L1D.
    pub onchip_bytes_per_sm: u32,
    /// Shared-memory carve-out in bytes (one of [`SMEM_CONFIGS_KB`] × 1024).
    pub smem_carveout_bytes: u32,
    /// Optional cap on the L1D size in bytes, *below* what the carve-out
    /// would leave. Used for the paper's 32 KB-L1D sensitivity study
    /// (§5.1.3) where the L1D is fixed at 32 KB regardless of carve-out.
    pub l1_cap_bytes: Option<u32>,
    /// L1D line size in bytes.
    pub l1_line_bytes: u32,
    /// L1D associativity.
    pub l1_assoc: u32,
    /// Total shared L2 capacity in KB, modeled as per-SM slices of
    /// `l2_kb × 1024 / num_sms` bytes sitting between each SM's L1D and
    /// DRAM (set-associative, [`L2_ASSOC`]-way, L1-line-sized lines,
    /// MSHR-merged misses). Slicing keeps every SM's timing state
    /// private, which is what preserves the parallel-/sequential-SM
    /// bit-identity guarantee — cross-SM sharing of one L2 image is a
    /// documented substitution (DESIGN.md §3h). `Some(0)` disables the
    /// L2 entirely (bit-identical to the pre-L2 model); `None` is the
    /// Volta-like default [`L2_DEFAULT_KB`]. Unlike the
    /// execution-strategy knobs, the resolved capacity is
    /// *architectural* and is canonicalized into
    /// [`GpuConfig::content_digest`].
    pub l2_kb: Option<u32>,
    /// Latency model.
    pub latencies: Latencies,
    /// Record the per-instruction off-chip request trace (paper Fig. 2).
    /// Costs memory; off by default.
    pub trace_requests: bool,
    /// Enable DYNCTA-style *dynamic* thread-block throttling (the
    /// hardware-monitoring baseline of paper §2.2): the SM samples its
    /// stall behaviour and raises/lowers the number of schedulable
    /// resident blocks at run time. `None` = plain hardware.
    pub dyncta: Option<DynctaConfig>,
    /// Explicit cycle-fuel budget per launch. `None` derives a generous
    /// default from the memory footprint (see [`GpuConfig::fuel_budget`]).
    /// Excluded from [`GpuConfig::content_digest`] — fuel bounds the
    /// simulation, it does not change its result.
    pub sim_fuel: Option<u64>,
    /// Run the per-SM simulation loops of one launch on parallel worker
    /// threads (snapshot + store-log memory, bit-identical results — see
    /// DESIGN.md "Parallel SM execution"). `None` is on *iff* the SM
    /// thread budget exceeds 1 (see [`GpuConfig::sm_parallel_enabled`]).
    /// Excluded from [`GpuConfig::content_digest`] — parallelism is an
    /// execution strategy, not a simulated parameter.
    pub sm_parallel: Option<bool>,
    /// Cap on the number of SM worker threads per launch. `None` derives
    /// `available_parallelism / active engine workers` (min 1) so a sweep
    /// of W engine workers × S SM threads cannot oversubscribe the
    /// machine (see [`engine_workers_hint`]). Excluded from
    /// [`GpuConfig::content_digest`].
    pub sm_threads: Option<usize>,
    /// Record a full [`crate::profile::LaunchProfile`] per launch (stall
    /// breakdowns, per-set L1 counters, the windowed miss curve, phase
    /// timelines). `None` is off. Profiled and unprofiled runs are
    /// bit-identical (the sink only observes), so
    /// the knob is excluded from [`GpuConfig::content_digest`]; profiled
    /// runs bypass the simulation cache so the profile is always produced
    /// by a real run (see `catt_core::engine`).
    pub profile: Option<bool>,
    /// Run launches under the dynamic sanitizer (see [`crate::sanitize`]):
    /// barrier-divergence, inter-block race, wild-read and shared-memory
    /// overflow detection, surfaced as
    /// [`SimError::Sanitizer`](crate::SimError::Sanitizer). `None` is
    /// off. The sanitizer only observes — a clean sanitized launch is
    /// bit-identical to an unsanitized one — so the knob is excluded from
    /// [`GpuConfig::content_digest`]; sanitized runs bypass the
    /// simulation cache (a cache hit would skip the checks) and run on
    /// the sequential SM path so one launch-wide state sees every block.
    pub sanitize: Option<bool>,
    /// Cooperative cancellation token polled at the top of every SM run
    /// loop (next to the fuel check). `None` — the default everywhere
    /// outside `catt serve` — costs one pointer test per loop iteration.
    /// A fired token surfaces as
    /// [`SimError::Cancelled`](crate::SimError::Cancelled). Excluded from
    /// [`GpuConfig::content_digest`]: cancellation bounds wall-clock time,
    /// it never changes the result of a launch that completes.
    pub cancel: Option<CancelToken>,
}

/// Baseline cycle allowance of the derived fuel budget (covers dispatch
/// and small kernels regardless of footprint).
pub const FUEL_BASE: u64 = 1 << 24;

/// Derived-fuel cycles granted per byte of allocated global memory. Real
/// workloads re-walk their footprint many times; 4096 cycles/byte is
/// orders of magnitude above any legitimate workload in this repo while
/// still terminating a runaway loop in bounded time.
pub const FUEL_PER_BYTE: u64 = 4096;

/// Default total shared L2 capacity in KB when [`GpuConfig::l2_kb`] is
/// `None`: Volta's 6 MB.
pub const L2_DEFAULT_KB: u32 = 6144;

/// Associativity of each SM's L2 slice (Volta's L2 is 16-way).
pub const L2_ASSOC: u32 = 16;

/// Parameters of the DYNCTA-style dynamic throttler (Kayiran et al.,
/// PACT'13, as summarized in the paper's §2.2): sample the fraction of
/// issue slots lost to stalls over a window; if the SM looks
/// memory-congested, pause one resident block, and if it looks
/// underutilized, resume one. This is the *reactive* scheme CATT's
/// compile-time decisions are contrasted against — it needs warm-up
/// windows before converging and re-converges on every phase change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynctaConfig {
    /// Sampling window in cycles.
    pub window: u64,
    /// Stall fraction above which a block is paused (memory congestion).
    pub t_high: f64,
    /// Stall fraction below which a paused block is resumed.
    pub t_low: f64,
}

impl Default for DynctaConfig {
    fn default() -> DynctaConfig {
        DynctaConfig {
            window: 4096,
            t_high: 0.7,
            t_low: 0.3,
        }
    }
}

impl GpuConfig {
    /// Titan V (Volta)-like preset, the paper's Table 1: 80 SMs, 256 KB
    /// register file per SM, 128 KB unified on-chip memory per SM.
    pub fn titan_v() -> GpuConfig {
        GpuConfig {
            num_sms: 80,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_tbs_per_sm: 32,
            schedulers_per_sm: 4,
            regfile_bytes_per_sm: 256 * 1024,
            onchip_bytes_per_sm: 128 * 1024,
            smem_carveout_bytes: 0,
            l1_cap_bytes: None,
            l1_line_bytes: 128,
            l1_assoc: 4,
            l2_kb: None,
            latencies: Latencies::default(),
            trace_requests: false,
            dyncta: None,
            sim_fuel: None,
            sm_parallel: None,
            sm_threads: None,
            profile: None,
            sanitize: None,
            cancel: None,
        }
    }

    /// A single-SM Titan V, the default evaluation vehicle: cache
    /// contention is a per-SM phenomenon, and simulating one SM with the
    /// thread blocks it would receive reproduces it at a fraction of the
    /// cost (see DESIGN.md "Substitutions").
    pub fn titan_v_1sm() -> GpuConfig {
        GpuConfig {
            num_sms: 1,
            ..GpuConfig::titan_v()
        }
    }

    /// A deliberately small GPU for unit tests: 1 SM, 8 warp slots,
    /// 4 KB L1D — so tests can provoke capacity effects with tiny inputs.
    pub fn small() -> GpuConfig {
        GpuConfig {
            num_sms: 1,
            warp_size: 32,
            max_warps_per_sm: 8,
            max_tbs_per_sm: 4,
            schedulers_per_sm: 2,
            regfile_bytes_per_sm: 256 * 1024,
            onchip_bytes_per_sm: 128 * 1024,
            smem_carveout_bytes: 0,
            l1_cap_bytes: Some(4 * 1024),
            l1_line_bytes: 128,
            l1_assoc: 4,
            l2_kb: Some(64),
            latencies: Latencies::default(),
            trace_requests: false,
            dyncta: None,
            sim_fuel: None,
            sm_parallel: None,
            sm_threads: None,
            profile: None,
            sanitize: None,
            cancel: None,
        }
    }

    /// The per-launch cycle-fuel budget for a kernel touching
    /// `footprint_bytes` of global memory: [`GpuConfig::sim_fuel`] when
    /// set, otherwise the derived default [`FUEL_BASE`]
    /// `+ footprint_bytes ×` [`FUEL_PER_BYTE`] (saturating).
    pub fn fuel_budget(&self, footprint_bytes: u64) -> u64 {
        self.sim_fuel.unwrap_or_else(|| {
            FUEL_BASE.saturating_add(footprint_bytes.saturating_mul(FUEL_PER_BYTE))
        })
    }

    /// Configure the shared-memory carve-out to the smallest option (in
    /// [`SMEM_CONFIGS_KB`]) that still provides `needed_bytes` of shared
    /// memory, maximizing the L1D with the rest (paper §4.1, Eq. 4's
    /// consumer). Returns `None` if the requirement exceeds 96 KB.
    pub fn with_smem_for(mut self, needed_bytes: u32) -> Option<GpuConfig> {
        let kb = SMEM_CONFIGS_KB
            .iter()
            .copied()
            .find(|kb| kb * 1024 >= needed_bytes)?;
        self.smem_carveout_bytes = kb * 1024;
        Some(self)
    }

    /// The L1D capacity in bytes implied by the carve-out (and the
    /// optional explicit cap).
    pub fn l1d_bytes(&self) -> u32 {
        let from_carveout = self.onchip_bytes_per_sm - self.smem_carveout_bytes;
        match self.l1_cap_bytes {
            Some(cap) => cap.min(from_carveout),
            None => from_carveout,
        }
    }

    /// L1D geometry.
    pub fn l1_config(&self) -> L1Config {
        L1Config {
            size_bytes: self.l1d_bytes(),
            line_bytes: self.l1_line_bytes,
            assoc: self.l1_assoc,
        }
    }

    /// The total shared L2 capacity in KB: [`GpuConfig::l2_kb`], or the
    /// Volta-like default [`L2_DEFAULT_KB`].
    pub fn l2_kb_resolved(&self) -> u32 {
        self.l2_kb.unwrap_or(L2_DEFAULT_KB)
    }

    /// Geometry of one SM's slice of the shared L2 (capacity
    /// `l2_kb / num_sms`, [`L2_ASSOC`]-way, L1-line-sized lines), or
    /// `None` when the L2 is disabled: resolved capacity 0, or a slice
    /// too small to hold even one full set. With `None` every L1D miss
    /// goes straight to DRAM at `latencies.offchip`, bit-identical to
    /// the pre-L2 model.
    pub fn l2_slice_config(&self) -> Option<L1Config> {
        let total = self.l2_kb_resolved() as u64 * 1024;
        let slice = (total / self.num_sms.max(1) as u64) as u32;
        if slice < self.l1_line_bytes * L2_ASSOC {
            return None;
        }
        Some(L1Config {
            size_bytes: slice,
            line_bytes: self.l1_line_bytes,
            assoc: L2_ASSOC,
        })
    }

    /// Register file capacity in 32-bit registers per SM.
    pub fn regs_per_sm(&self) -> u32 {
        self.regfile_bytes_per_sm / 4
    }

    /// Whether this launch may run its SMs on parallel worker threads:
    /// [`GpuConfig::sm_parallel`] when set, otherwise on *iff* the SM
    /// thread budget exceeds 1. On a one-thread budget (single-core host,
    /// or a sweep whose engine workers already own every core) the
    /// parallel path's snapshot + store-log machinery is pure overhead, so
    /// the sequential path is the default there. Parallel and sequential
    /// execution produce bit-identical results (see DESIGN.md), so this
    /// is purely a throughput knob.
    pub fn sm_parallel_enabled(&self) -> bool {
        self.sm_parallel
            .unwrap_or_else(|| self.sm_thread_budget() > 1)
    }

    /// The SM worker-thread budget for one launch (≥ 1):
    /// [`GpuConfig::sm_threads`] when set, otherwise
    /// `available_parallelism / active engine workers` — so W engine
    /// workers each running a launch get `cores / W` SM threads apiece
    /// instead of W × cores oversubscription.
    pub fn sm_thread_budget(&self) -> usize {
        if let Some(n) = self.sm_threads {
            return n.max(1);
        }
        (host_parallelism().unwrap_or(1) / engine_workers_hint().max(1)).max(1)
    }

    /// Whether launches under this config record a
    /// [`crate::profile::LaunchProfile`] ([`GpuConfig::profile`]; off
    /// when `None`).
    pub fn profile_enabled(&self) -> bool {
        self.profile.unwrap_or(false)
    }

    /// Whether launches under this config run the dynamic sanitizer
    /// ([`GpuConfig::sanitize`]; off when `None`).
    pub fn sanitize_enabled(&self) -> bool {
        self.sanitize.unwrap_or(false)
    }
}

/// `std::thread::available_parallelism()`, read once per process (`None`
/// if the host cannot say). On Linux every call re-parses cgroup files —
/// ≈ 25 µs, which was most of a small launch's fixed cost.
pub fn host_parallelism() -> Option<usize> {
    static CORES: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().ok().map(|n| n.get()))
}

/// Number of engine worker threads currently running simulation jobs in
/// this process. `catt_core::engine` raises it for the duration of each
/// `run_jobs` batch; the per-launch SM thread budget divides
/// `available_parallelism` by it (see [`GpuConfig::sm_thread_budget`]).
static ACTIVE_ENGINE_WORKERS: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);

/// Register `n` additional active engine workers (call when a worker
/// batch starts; pair with [`remove_active_engine_workers`]). Counting —
/// rather than set/restore — keeps concurrent batches correct: two
/// overlapping pools of 2 workers really are 4 threads competing for the
/// machine.
pub fn add_active_engine_workers(n: usize) {
    ACTIVE_ENGINE_WORKERS.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
}

/// Deregister `n` active engine workers (batch finished).
pub fn remove_active_engine_workers(n: usize) {
    ACTIVE_ENGINE_WORKERS.fetch_sub(n, std::sync::atomic::Ordering::Relaxed);
}

/// The current engine-worker count used to divide the machine between
/// sweep-level and SM-level parallelism (≥ 1; 1 when no engine batch is
/// running, i.e. single-launch paths get the whole machine).
pub fn engine_workers_hint() -> usize {
    ACTIVE_ENGINE_WORKERS
        .load(std::sync::atomic::Ordering::Relaxed)
        .max(1)
}

/// RAII registration of `n` active engine workers: deregisters on drop,
/// so an early return or panic between batch start and end cannot leak
/// the count (a leaked hint permanently shrinks every later
/// [`GpuConfig::sm_thread_budget`] in the process). Prefer this over the
/// raw [`add_active_engine_workers`]/[`remove_active_engine_workers`]
/// pair.
#[must_use = "the guard deregisters the workers when dropped"]
pub struct EngineWorkersGuard {
    n: usize,
}

/// Register `n` active engine workers for the lifetime of the returned
/// guard.
pub fn engine_workers_guard(n: usize) -> EngineWorkersGuard {
    add_active_engine_workers(n);
    EngineWorkersGuard { n }
}

impl Drop for EngineWorkersGuard {
    fn drop(&mut self) {
        remove_active_engine_workers(self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_v_matches_table1() {
        let c = GpuConfig::titan_v();
        assert_eq!(c.num_sms, 80);
        assert_eq!(c.regfile_bytes_per_sm, 256 * 1024);
        // 0 KB smem → max 128 KB L1D; 96 KB smem → 32 KB L1D.
        assert_eq!(c.l1d_bytes(), 128 * 1024);
        let c96 = c.clone().with_smem_for(96 * 1024).unwrap();
        assert_eq!(c96.l1d_bytes(), 32 * 1024);
    }

    #[test]
    fn smem_carveout_picks_smallest_fit() {
        let c = GpuConfig::titan_v();
        assert_eq!(c.clone().with_smem_for(0).unwrap().smem_carveout_bytes, 0);
        assert_eq!(
            c.clone().with_smem_for(1).unwrap().smem_carveout_bytes,
            8 * 1024
        );
        assert_eq!(
            c.clone()
                .with_smem_for(8 * 1024)
                .unwrap()
                .smem_carveout_bytes,
            8 * 1024
        );
        assert_eq!(
            c.clone()
                .with_smem_for(8 * 1024 + 1)
                .unwrap()
                .smem_carveout_bytes,
            16 * 1024
        );
        assert!(c.clone().with_smem_for(97 * 1024).is_none());
    }

    #[test]
    fn l1_cap_clamps() {
        let mut c = GpuConfig::titan_v();
        c.l1_cap_bytes = Some(32 * 1024);
        assert_eq!(c.l1d_bytes(), 32 * 1024);
        // Cap never *raises* the size.
        c.smem_carveout_bytes = 96 * 1024;
        c.l1_cap_bytes = Some(64 * 1024);
        assert_eq!(c.l1d_bytes(), 32 * 1024);
    }

    #[test]
    fn fuel_resolution_order() {
        // Explicit field wins, otherwise the budget derives from the
        // footprint.
        let mut c = GpuConfig::small();
        assert_eq!(c.fuel_budget(0), FUEL_BASE);
        assert_eq!(c.fuel_budget(10), FUEL_BASE + 10 * FUEL_PER_BYTE);
        c.sim_fuel = Some(500);
        assert_eq!(c.fuel_budget(1 << 20), 500);
        // Saturates instead of overflowing on absurd footprints.
        c.sim_fuel = None;
        assert_eq!(c.fuel_budget(u64::MAX), u64::MAX);
    }

    #[test]
    fn l1_geometry() {
        let c = GpuConfig::small();
        let l1 = c.l1_config();
        assert_eq!(l1.num_lines(), 32);
        assert_eq!(l1.num_sets(), 8);
    }

    #[test]
    fn sm_parallel_follows_the_thread_budget_unless_explicit() {
        // On a one-thread budget the snapshot + store-log machinery is
        // pure overhead, so the derived default is sequential there.
        let mut c = GpuConfig::small();
        c.sm_threads = Some(1);
        assert!(!c.sm_parallel_enabled());
        c.sm_threads = Some(4);
        assert!(c.sm_parallel_enabled());
        c.sm_threads = Some(1);
        c.sm_parallel = Some(true);
        assert!(c.sm_parallel_enabled(), "explicit field wins");
        c.sm_threads = Some(4);
        c.sm_parallel = Some(false);
        assert!(!c.sm_parallel_enabled(), "explicit field wins");
    }

    #[test]
    fn profile_and_sanitize_default_off() {
        let mut c = GpuConfig::small();
        assert!(!c.profile_enabled() && !c.sanitize_enabled());
        c.profile = Some(true);
        c.sanitize = Some(true);
        assert!(c.profile_enabled() && c.sanitize_enabled());
    }

    #[test]
    fn explicit_sm_thread_budget_wins_and_clamps() {
        let mut c = GpuConfig::small();
        c.sm_threads = Some(6);
        assert_eq!(c.sm_thread_budget(), 6);
        c.sm_threads = Some(0);
        assert_eq!(c.sm_thread_budget(), 1, "budget is clamped to >= 1");
        c.sm_threads = None;
        assert!(c.sm_thread_budget() >= 1);
    }

    #[test]
    fn engine_worker_accounting_divides_the_derived_budget() {
        // This test is the only unit-test user of the counter in this
        // process, so exact arithmetic is safe.
        assert_eq!(engine_workers_hint(), 1, "idle process counts as 1");
        add_active_engine_workers(3);
        assert_eq!(engine_workers_hint(), 3);
        add_active_engine_workers(2);
        assert_eq!(engine_workers_hint(), 5, "concurrent batches sum");
        remove_active_engine_workers(5);
        assert_eq!(engine_workers_hint(), 1);
        // With many engine workers active, the derived SM budget bottoms
        // out at 1 instead of underflowing.
        add_active_engine_workers(1_000);
        assert_eq!(GpuConfig::small().sm_thread_budget(), 1);
        remove_active_engine_workers(1_000);
        // The RAII guard restores the count on drop — including an
        // unwinding drop, which is what makes it leak-proof where the
        // raw add/remove pair was not.
        {
            let _g = engine_workers_guard(4);
            assert_eq!(engine_workers_hint(), 4);
        }
        assert_eq!(engine_workers_hint(), 1, "guard restored on drop");
        let unwound = std::panic::catch_unwind(|| {
            let _g = engine_workers_guard(7);
            assert_eq!(engine_workers_hint(), 7);
            panic!("boom");
        });
        assert!(unwound.is_err());
        assert_eq!(engine_workers_hint(), 1, "guard restored across unwind");
    }
}
