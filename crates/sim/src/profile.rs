//! In-simulator profiling: the event model behind `catt-profile`.
//!
//! The paper validates CATT with nvprof-derived evidence — stall-cycle
//! breakdowns, L1D hit rates, and the claim that the Eq. 8 footprint
//! model predicts observed contention. This module is the simulator side
//! of that observability: a [`ProfileSink`] trait threaded through the SM
//! run loop as a *generic parameter*, so the disabled path ([`NullSink`],
//! `ENABLED = false`) monomorphizes to straight-line code with every hook
//! compiled out — profiling off costs nothing, and results are
//! bit-identical either way (the sink only observes, never steers).
//!
//! The enabled path records, per SM:
//!
//! * **stall accounting** — every issue slot of every scheduler on every
//!   cycle is either an issued instruction or a stall charged to one
//!   [`StallReason`], so `Σ stalls + instructions = cycles × schedulers`
//!   holds exactly (the invariant `catt profile` re-checks on every run);
//! * **per-set L1D counters** — accesses/hits/misses/evictions/stores per
//!   cache set, the raw material of the heat maps, plus the unique-line
//!   working set and a bucketed miss curve (Eq. 8 validation);
//! * **phase timelines** — per-warp exec/barrier segments and per-block
//!   residency spans, which is what makes a throttled kernel's
//!   group-alternation visible in `chrome://tracing`.
//!
//! Per-SM shards merge into a [`LaunchProfile`] in ascending SM-id order,
//! the order the SMs are simulated in, so a profile is deterministic.
//! Profiles are delivered through a thread-local capture buffer
//! ([`set_capture`]/[`take_captured`], the same pattern as the harness's
//! memory-digest capture); profiling state is excluded from the
//! simulation-cache digest, and profiled runs never read the cache but
//! write their stats to it (see `catt_core::engine`).

use crate::config::L1Config;
use crate::digest::Fnv64;
use std::cell::RefCell;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;

/// A set of L1 line addresses. Every profiled L1 transaction inserts one,
/// so the set is keyed with FNV-1a rather than the default SipHash.
pub type LineSet = HashSet<u32, BuildHasherDefault<Fnv64>>;

/// Why an issue slot of one scheduler went unused for one cycle.
///
/// The taxonomy mirrors nvprof's stall reasons at the granularity this
/// simulator models: register dependencies (short scoreboard), memory
/// (L1D port serialization or outstanding load data — long scoreboard),
/// barriers, throttling pauses, dispatch drain, and fuel cut-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// A ready warp waits on a register produced by a short-latency
    /// (ALU/SFU) instruction.
    Scoreboard = 0,
    /// A ready warp waits on the L1D port or on data from an outstanding
    /// global load.
    Memory = 1,
    /// Every schedulable warp of the partition is parked at a
    /// `__syncthreads()` barrier.
    Barrier = 2,
    /// Ready warps exist but their blocks are paused by dynamic
    /// throttling (DYNCTA's issue gate).
    Throttled = 3,
    /// No resident warp can ever use the slot (dispatch drain, finished
    /// partitions).
    Idle = 4,
    /// Slots charged when a launch is cut off by the cycle-fuel budget;
    /// always zero for launches that complete.
    Fuel = 5,
}

impl StallReason {
    /// Number of reasons (array dimension of the per-reason counters).
    pub const COUNT: usize = 6;

    /// Every reason, in counter-index order.
    pub const ALL: [StallReason; StallReason::COUNT] = [
        StallReason::Scoreboard,
        StallReason::Memory,
        StallReason::Barrier,
        StallReason::Throttled,
        StallReason::Idle,
        StallReason::Fuel,
    ];

    /// Human-readable name (report rows, trace labels).
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Scoreboard => "scoreboard",
            StallReason::Memory => "memory",
            StallReason::Barrier => "barrier",
            StallReason::Throttled => "throttled",
            StallReason::Idle => "idle",
            StallReason::Fuel => "fuel",
        }
    }
}

/// Per-cache-set counters (one row of the heat map).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetCounters {
    /// Load accesses mapped to this set.
    pub accesses: u64,
    /// Load accesses that hit (MSHR merges included, as in
    /// `LaunchStats::l1_hits`).
    pub hits: u64,
    /// Load misses (each one an off-chip request).
    pub misses: u64,
    /// Misses that displaced a valid resident line.
    pub evictions: u64,
    /// Write-through stores mapped to this set.
    pub stores: u64,
}

impl SetCounters {
    /// Fold another set's counters into this one.
    pub fn add(&mut self, o: &SetCounters) {
        self.accesses += o.accesses;
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.stores += o.stores;
    }
}

/// What a timeline segment represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// A warp executing (from dispatch or barrier release to the next
    /// barrier arrival or completion).
    Exec,
    /// A warp parked at a `__syncthreads()` barrier.
    Barrier,
    /// A thread block resident in its SM slot (`warp` holds the TB slot).
    Block,
}

/// One closed timeline segment on an SM.
#[derive(Debug, Clone, Copy)]
pub struct PhaseEvent {
    /// Warp slot for `Exec`/`Barrier` segments; TB slot for `Block`.
    pub warp: u32,
    /// Linear block id the segment belongs to.
    pub block: u32,
    /// Segment kind.
    pub kind: PhaseKind,
    /// First cycle of the segment.
    pub start: u64,
    /// One past the last cycle of the segment.
    pub end: u64,
}

/// One window of the miss curve: `misses` out of `accesses` load
/// accesses, in execution order.
#[derive(Debug, Clone, Copy, Default)]
pub struct MissWindow {
    /// Load accesses in the window (= [`SmProfile::MISS_WINDOW`] except
    /// for the final partial window).
    pub accesses: u32,
    /// How many of them missed.
    pub misses: u32,
}

/// The recording sink: one SM's shard of a launch profile.
#[derive(Debug, Clone)]
pub struct SmProfile {
    /// Which SM this shard describes.
    pub sm_id: u32,
    /// Cycles this SM ran (its share of the launch).
    pub cycles: u64,
    /// Warp schedulers on the SM (issue slots per cycle).
    pub schedulers: u32,
    /// Warp-instructions issued on this SM.
    pub instructions: u64,
    /// Stall cycles per [`StallReason`], indexed by the enum
    /// discriminant. Together with `instructions` these account for every
    /// issue slot: `Σ stall_cycles + instructions = cycles × schedulers`.
    pub stall_cycles: [u64; StallReason::COUNT],
    /// Per-set L1D counters, indexed by set.
    pub sets: Vec<SetCounters>,
    /// Unique 128-byte line addresses touched (loads and stores) — the
    /// observed working set Eq. 8's `SIZE_req` predicts.
    pub unique_lines: LineSet,
    /// Bucketed miss curve over load accesses in execution order.
    pub miss_curve: Vec<MissWindow>,
    /// Closed timeline segments, in close order.
    pub events: Vec<PhaseEvent>,
    /// Segments dropped after [`SmProfile::MAX_EVENTS`] was reached.
    pub dropped_events: u64,
    /// L2 load accesses from this SM (its L1D load misses). Zero when
    /// the L2 is disabled.
    pub l2_accesses: u64,
    /// L2 load hits (MSHR merges included).
    pub l2_hits: u64,
    /// Valid L2 lines displaced by fills.
    pub l2_evictions: u64,
    /// Open segment per warp slot: (start cycle, kind, block).
    open: Vec<Option<(u64, PhaseKind, u32)>>,
    /// Open residency span per TB slot: (start cycle).
    tb_open: Vec<Option<u64>>,
    /// Miss-curve window currently being filled.
    window: MissWindow,
}

impl SmProfile {
    /// Cap on stored timeline segments per SM (excess is counted in
    /// [`SmProfile::dropped_events`], never an error).
    pub const MAX_EVENTS: usize = 1 << 16;

    /// Load accesses per miss-curve window.
    pub const MISS_WINDOW: u32 = 256;

    /// Cap on stored miss-curve windows per SM.
    pub const MAX_WINDOWS: usize = 1 << 16;

    /// Total stall cycles, all reasons.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// Issue slots this SM offered (`cycles × schedulers`).
    pub fn issue_slots(&self) -> u64 {
        self.cycles * self.schedulers as u64
    }

    fn push_event(&mut self, e: PhaseEvent) {
        if e.end <= e.start {
            return; // zero-length segments carry no information
        }
        if self.events.len() < Self::MAX_EVENTS {
            self.events.push(e);
        } else {
            self.dropped_events += 1;
        }
    }

    /// Close warp `w`'s open segment at `cycle` and optionally open a new
    /// one of `next` kind.
    fn roll_segment(&mut self, w: usize, cycle: u64, next: Option<PhaseKind>) {
        let Some(slot) = self.open.get_mut(w) else {
            return;
        };
        let prev = slot.take();
        if let Some((start, kind, block)) = prev {
            self.push_event(PhaseEvent {
                warp: w as u32,
                block,
                kind,
                start,
                end: cycle,
            });
            if let Some(k) = next {
                self.open[w] = Some((cycle, k, block));
            }
        }
    }
}

/// Observation hooks threaded through the SM run loop.
///
/// The trait is a *generic parameter* of the run loop, so with
/// [`NullSink`] (`ENABLED = false`) every hook is an empty inlined call
/// and every `if S::ENABLED` block is dead code — the off path compiles
/// to exactly the pre-profiling loop. Implementations only observe:
/// nothing a sink does may influence simulated state, which is what makes
/// profiled and unprofiled runs bit-identical.
pub trait ProfileSink: Sized {
    /// Whether the hooks record anything (compile-time constant; gates
    /// the classification work in the run loop).
    const ENABLED: bool;

    /// Construct the sink for one SM of a launch.
    fn for_sm(sm_id: u32, l1: L1Config, warps: usize, tbs: usize) -> Self;

    /// Merge this SM's shard into the launch profile. Called in ascending
    /// SM-id order, as each SM finishes.
    fn finish_into(self, out: &mut LaunchProfile);

    /// `cycles` issue slots of one scheduler went unused for `reason`.
    #[inline]
    fn stall(&mut self, _reason: StallReason, _cycles: u64) {}

    /// One coalesced load transaction reached L1 set `set` for line
    /// address `line` (line index, not bytes).
    #[inline]
    fn l1_load(&mut self, _set: u32, _line: u32, _hit: bool, _evicted: bool) {}

    /// One write-through store transaction reached L1 set `set`.
    #[inline]
    fn l1_store(&mut self, _set: u32, _line: u32) {}

    /// An L1D load miss probed this SM's L2 slice (never called with the
    /// L2 disabled; stores bypass the L2).
    #[inline]
    fn l2_load(&mut self, _hit: bool, _evicted: bool) {}

    /// Block `block` was dispatched into TB slot `slot`.
    #[inline]
    fn tb_start(&mut self, _slot: usize, _block: u32, _cycle: u64) {}

    /// Block `block` retired from TB slot `slot`.
    #[inline]
    fn tb_end(&mut self, _slot: usize, _block: u32, _cycle: u64) {}

    /// Warp slot `warp` started executing `block`.
    #[inline]
    fn warp_begin(&mut self, _warp: usize, _block: u32, _cycle: u64) {}

    /// Warp slot `warp` arrived at a barrier.
    #[inline]
    fn warp_barrier(&mut self, _warp: usize, _cycle: u64) {}

    /// Warp slot `warp` was released from a barrier.
    #[inline]
    fn warp_release(&mut self, _warp: usize, _cycle: u64) {}

    /// Warp slot `warp` finished its block's work.
    #[inline]
    fn warp_done(&mut self, _warp: usize, _cycle: u64) {}

    /// The SM finished its block list (final per-SM aggregates).
    #[inline]
    fn sm_end(&mut self, _cycles: u64, _schedulers: u32, _instructions: u64) {}
}

/// The disabled sink: no state, no recording, `ENABLED = false`. The run
/// loop monomorphized over `NullSink` contains no profiling code at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ProfileSink for NullSink {
    const ENABLED: bool = false;

    #[inline]
    fn for_sm(_sm_id: u32, _l1: L1Config, _warps: usize, _tbs: usize) -> NullSink {
        NullSink
    }

    #[inline]
    fn finish_into(self, _out: &mut LaunchProfile) {}
}

impl ProfileSink for SmProfile {
    const ENABLED: bool = true;

    fn for_sm(sm_id: u32, l1: L1Config, warps: usize, tbs: usize) -> SmProfile {
        SmProfile {
            sm_id,
            cycles: 0,
            schedulers: 0,
            instructions: 0,
            stall_cycles: [0; StallReason::COUNT],
            sets: vec![SetCounters::default(); l1.num_sets() as usize],
            unique_lines: LineSet::default(),
            miss_curve: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
            l2_accesses: 0,
            l2_hits: 0,
            l2_evictions: 0,
            open: vec![None; warps],
            tb_open: vec![None; tbs],
            window: MissWindow::default(),
        }
    }

    fn finish_into(mut self, out: &mut LaunchProfile) {
        // Flush the partial miss-curve window; open segments were closed
        // by `sm_end` (and are empty for error-terminated SMs anyway).
        if self.window.accesses > 0 && self.miss_curve.len() < Self::MAX_WINDOWS {
            self.miss_curve.push(self.window);
            self.window = MissWindow::default();
        }
        self.open.clear();
        self.tb_open.clear();
        out.sms.push(self);
    }

    fn stall(&mut self, reason: StallReason, cycles: u64) {
        self.stall_cycles[reason as usize] += cycles;
    }

    fn l1_load(&mut self, set: u32, line: u32, hit: bool, evicted: bool) {
        if let Some(s) = self.sets.get_mut(set as usize) {
            s.accesses += 1;
            if hit {
                s.hits += 1;
            } else {
                s.misses += 1;
            }
            if evicted {
                s.evictions += 1;
            }
        }
        self.unique_lines.insert(line);
        self.window.accesses += 1;
        if !hit {
            self.window.misses += 1;
        }
        if self.window.accesses >= Self::MISS_WINDOW {
            if self.miss_curve.len() < Self::MAX_WINDOWS {
                self.miss_curve.push(self.window);
            }
            self.window = MissWindow::default();
        }
    }

    fn l2_load(&mut self, hit: bool, evicted: bool) {
        self.l2_accesses += 1;
        if hit {
            self.l2_hits += 1;
        }
        if evicted {
            self.l2_evictions += 1;
        }
    }

    fn l1_store(&mut self, set: u32, line: u32) {
        if let Some(s) = self.sets.get_mut(set as usize) {
            s.stores += 1;
        }
        self.unique_lines.insert(line);
    }

    fn tb_start(&mut self, slot: usize, _block: u32, cycle: u64) {
        if let Some(t) = self.tb_open.get_mut(slot) {
            *t = Some(cycle);
        }
    }

    fn tb_end(&mut self, slot: usize, block: u32, cycle: u64) {
        let start = self.tb_open.get_mut(slot).and_then(|t| t.take());
        if let Some(start) = start {
            self.push_event(PhaseEvent {
                warp: slot as u32,
                block,
                kind: PhaseKind::Block,
                start,
                end: cycle,
            });
        }
    }

    fn warp_begin(&mut self, warp: usize, block: u32, cycle: u64) {
        if let Some(slot) = self.open.get_mut(warp) {
            *slot = Some((cycle, PhaseKind::Exec, block));
        }
    }

    fn warp_barrier(&mut self, warp: usize, cycle: u64) {
        self.roll_segment(warp, cycle, Some(PhaseKind::Barrier));
    }

    fn warp_release(&mut self, warp: usize, cycle: u64) {
        self.roll_segment(warp, cycle, Some(PhaseKind::Exec));
    }

    fn warp_done(&mut self, warp: usize, cycle: u64) {
        self.roll_segment(warp, cycle, None);
    }

    fn sm_end(&mut self, cycles: u64, schedulers: u32, instructions: u64) {
        self.cycles = cycles;
        self.schedulers = schedulers;
        self.instructions = instructions;
        // Close any segments left open (blocks in flight when an error
        // cut the run short).
        for w in 0..self.open.len() {
            self.roll_segment(w, cycles, None);
        }
        for slot in 0..self.tb_open.len() {
            if let Some(start) = self.tb_open[slot].take() {
                self.push_event(PhaseEvent {
                    warp: slot as u32,
                    block: u32::MAX,
                    kind: PhaseKind::Block,
                    start,
                    end: cycles,
                });
            }
        }
    }
}

/// A launch's merged profile: per-SM shards in ascending SM-id order plus
/// the launch-level context the consumers need.
#[derive(Debug, Clone)]
pub struct LaunchProfile {
    /// Kernel name.
    pub kernel: String,
    /// Launch geometry.
    pub launch: catt_ir::LaunchConfig,
    /// L1D geometry the launch ran with (heat-map dimensions).
    pub l1: L1Config,
    /// Whether the launch completed (false: the profile is the partial
    /// record of an errored launch — fuel exhaustion, deadlock).
    pub complete: bool,
    /// Per-SM shards, ascending SM id. SMs that received no blocks have
    /// no shard.
    pub sms: Vec<SmProfile>,
}

impl LaunchProfile {
    /// Empty profile for a launch of `kernel`.
    pub fn new(kernel: String, launch: catt_ir::LaunchConfig, l1: L1Config) -> LaunchProfile {
        LaunchProfile {
            kernel,
            launch,
            l1,
            complete: false,
            sms: Vec::new(),
        }
    }

    /// Stall cycles per reason, summed over SMs.
    pub fn stall_totals(&self) -> [u64; StallReason::COUNT] {
        let mut t = [0u64; StallReason::COUNT];
        for sm in &self.sms {
            for (acc, v) in t.iter_mut().zip(sm.stall_cycles.iter()) {
                *acc += v;
            }
        }
        t
    }

    /// Issue slots over all SMs.
    pub fn issue_slots(&self) -> u64 {
        self.sms.iter().map(|s| s.issue_slots()).sum()
    }

    /// Instructions issued over all SMs.
    pub fn instructions(&self) -> u64 {
        self.sms.iter().map(|s| s.instructions).sum()
    }

    /// Per-set counters summed over SMs (every SM has its own L1D of the
    /// same geometry, so sets align index-by-index).
    pub fn set_totals(&self) -> Vec<SetCounters> {
        let mut totals = vec![SetCounters::default(); self.l1.num_sets() as usize];
        for sm in &self.sms {
            for (t, s) in totals.iter_mut().zip(sm.sets.iter()) {
                t.add(s);
            }
        }
        totals
    }

    /// Unique lines touched, unioned over SMs (each SM caches its own
    /// share, so the union is the launch's working set; the per-SM count
    /// is what Eq. 8's per-SM `SIZE_req` predicts).
    pub fn unique_lines(&self) -> usize {
        let mut all = LineSet::default();
        for sm in &self.sms {
            all.extend(sm.unique_lines.iter().copied());
        }
        all.len()
    }

    /// Largest per-SM unique-line working set (the quantity Eq. 8's
    /// per-SM footprint bounds).
    pub fn max_unique_lines_per_sm(&self) -> usize {
        self.sms
            .iter()
            .map(|s| s.unique_lines.len())
            .max()
            .unwrap_or(0)
    }

    /// Timeline segments dropped across SMs (0 = timelines are complete).
    pub fn dropped_events(&self) -> u64 {
        self.sms.iter().map(|s| s.dropped_events).sum()
    }

    /// L2 totals over SMs as `(accesses, hits, evictions)`. All zero
    /// when the L2 is disabled.
    pub fn l2_totals(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for sm in &self.sms {
            t.0 += sm.l2_accesses;
            t.1 += sm.l2_hits;
            t.2 += sm.l2_evictions;
        }
        t
    }
}

thread_local! {
    /// Capture buffer for profiles produced on this thread (`None` =
    /// capture off, profiles are dropped at the end of the launch).
    static CAPTURE: RefCell<Option<Vec<LaunchProfile>>> = const { RefCell::new(None) };
}

/// Arm or disarm profile capture on this thread. Arming clears any
/// previously captured profiles. Profiling itself is controlled by
/// `GpuConfig::profile_enabled`; capture only decides whether the
/// resulting [`LaunchProfile`]s are retained for [`take_captured`] (off
/// by default so long profiled sweeps cannot accumulate unbounded state).
pub fn set_capture(enabled: bool) {
    CAPTURE.with(|c| {
        *c.borrow_mut() = if enabled { Some(Vec::new()) } else { None };
    });
}

/// Take every profile captured on this thread since the last call (or
/// since capture was armed), in launch order. Empty when capture is off.
pub fn take_captured() -> Vec<LaunchProfile> {
    CAPTURE.with(|c| match c.borrow_mut().as_mut() {
        Some(v) => std::mem::take(v),
        None => Vec::new(),
    })
}

/// Deliver a finished launch profile to the capture buffer (dropped when
/// capture is off).
pub(crate) fn submit(p: LaunchProfile) {
    CAPTURE.with(|c| {
        if let Some(v) = c.borrow_mut().as_mut() {
            v.push(p);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Config {
        L1Config {
            size_bytes: 4 * 1024,
            line_bytes: 128,
            assoc: 4,
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // pins the zero-cost contract
    fn null_sink_is_disabled_and_empty() {
        assert!(!NullSink::ENABLED);
        let s = NullSink::for_sm(0, l1(), 8, 2);
        let mut p = LaunchProfile::new("k".into(), catt_ir::LaunchConfig::d1(1, 32), l1());
        s.finish_into(&mut p);
        assert!(p.sms.is_empty());
    }

    #[test]
    fn set_counters_roll_up() {
        let mut s = SmProfile::for_sm(0, l1(), 4, 1);
        s.l1_load(0, 10, false, false);
        s.l1_load(0, 10, true, false);
        s.l1_load(3, 11, false, true);
        s.l1_store(3, 12);
        s.sm_end(100, 2, 7);
        let mut p = LaunchProfile::new("k".into(), catt_ir::LaunchConfig::d1(1, 32), l1());
        s.finish_into(&mut p);
        let totals = p.set_totals();
        assert_eq!(totals[0].accesses, 2);
        assert_eq!(totals[0].hits, 1);
        assert_eq!(totals[0].misses, 1);
        assert_eq!(totals[3].misses, 1);
        assert_eq!(totals[3].evictions, 1);
        assert_eq!(totals[3].stores, 1);
        assert_eq!(p.unique_lines(), 3);
        // Partial miss window flushed on finish.
        assert_eq!(p.sms[0].miss_curve.len(), 1);
        assert_eq!(p.sms[0].miss_curve[0].accesses, 3);
        assert_eq!(p.sms[0].miss_curve[0].misses, 2);
    }

    #[test]
    fn warp_segments_alternate_exec_and_barrier() {
        let mut s = SmProfile::for_sm(0, l1(), 2, 1);
        s.tb_start(0, 5, 0);
        s.warp_begin(0, 5, 0);
        s.warp_barrier(0, 10);
        s.warp_release(0, 14);
        s.warp_done(0, 30);
        s.tb_end(0, 5, 31);
        s.sm_end(40, 2, 9);
        assert_eq!(s.events.len(), 4);
        assert_eq!(s.events[0].kind, PhaseKind::Exec);
        assert_eq!((s.events[0].start, s.events[0].end), (0, 10));
        assert_eq!(s.events[1].kind, PhaseKind::Barrier);
        assert_eq!((s.events[1].start, s.events[1].end), (10, 14));
        assert_eq!(s.events[2].kind, PhaseKind::Exec);
        assert_eq!((s.events[2].start, s.events[2].end), (14, 30));
        assert_eq!(s.events[3].kind, PhaseKind::Block);
        assert_eq!((s.events[3].start, s.events[3].end), (0, 31));
        assert_eq!(s.dropped_events, 0);
    }

    #[test]
    fn l2_hook_counts_hits_and_evictions() {
        let mut s = SmProfile::for_sm(0, l1(), 4, 1);
        s.l2_load(false, false);
        s.l2_load(true, false);
        s.l2_load(false, true);
        let mut p = LaunchProfile::new("k".into(), catt_ir::LaunchConfig::d1(1, 32), l1());
        s.finish_into(&mut p);
        assert_eq!(p.l2_totals(), (3, 1, 1));
    }

    #[test]
    fn stall_accounting_sums() {
        let mut s = SmProfile::for_sm(1, l1(), 2, 1);
        s.stall(StallReason::Memory, 10);
        s.stall(StallReason::Scoreboard, 5);
        s.stall(StallReason::Memory, 2);
        assert_eq!(s.total_stall_cycles(), 17);
        assert_eq!(s.stall_cycles[StallReason::Memory as usize], 12);
    }

    #[test]
    fn capture_is_explicit_and_draining() {
        set_capture(false);
        submit(LaunchProfile::new(
            "dropped".into(),
            catt_ir::LaunchConfig::d1(1, 32),
            l1(),
        ));
        assert!(take_captured().is_empty(), "capture off drops profiles");
        set_capture(true);
        submit(LaunchProfile::new(
            "kept".into(),
            catt_ir::LaunchConfig::d1(1, 32),
            l1(),
        ));
        let got = take_captured();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kernel, "kept");
        assert!(take_captured().is_empty(), "take drains the buffer");
        set_capture(false);
    }
}
