//! Dynamic launch sanitizer — undefined-behaviour detection for kernels.
//!
//! The functional simulator is deliberately forgiving: out-of-bounds
//! device accesses are benign, `__syncthreads()` releases on arrival
//! counts (warps that exited count as arrived), and cross-block store
//! order is fixed by the deterministic merge. Real hardware is not
//! forgiving — the same kernels deadlock, corrupt memory, or return
//! schedule-dependent garbage. Sanitize mode
//! ([`crate::GpuConfig::sanitize`], `catt run --sanitize`) keeps the
//! forgiving semantics but *reports* the would-be undefined behaviour as
//! a structured [`SanitizerReport`] through
//! [`SimError::Sanitizer`](crate::SimError::Sanitizer):
//!
//! * [`SanitizerKind::BarrierDivergence`] — `__syncthreads()` reached
//!   under intra-warp divergence, warps of one block parked at
//!   *different* barrier sites (pc or dynamic arrival count differ), or a
//!   warp that ran to completion without arriving at a barrier its
//!   siblings are parked at. Arrival-count release masks all three; on
//!   hardware they deadlock or desynchronize the block.
//! * [`SanitizerKind::GlobalRace`] — two different thread blocks touch
//!   the same global-memory word within one launch and at least one
//!   access is a write. Blocks have no execution-order guarantee, so the
//!   result is schedule-dependent on hardware even though the simulator's
//!   fixed merge order hides it.
//! * [`SanitizerKind::UninitializedRead`] — a global load from an address
//!   no allocation covers (alignment padding between buffers, or past the
//!   footprint). The simulator returns 0; hardware returns garbage or
//!   faults.
//! * [`SanitizerKind::SharedOutOfBounds`] — a shared-memory access past
//!   the kernel's declared `__shared__` storage. The simulator clamps
//!   (loads 0, drops stores); hardware corrupts a neighbouring block's
//!   shared data.
//!
//! One launch-wide [`SanitizerState`] observes every block's accesses,
//! on every SM; results remain bit-identical to unsanitized runs (the
//! sanitizer only observes), so the knob is excluded from
//! [`crate::GpuConfig::content_digest`].

use std::collections::HashMap;
use std::fmt;

/// The class of undefined behaviour a sanitized launch detected. See the
/// module docs for the full taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizerKind {
    /// `__syncthreads()` under divergence: a partial warp mask at the
    /// barrier, mismatched barrier sites within a block, or a warp that
    /// finished without arriving.
    BarrierDivergence,
    /// Two different blocks accessed the same global word, at least one
    /// writing.
    GlobalRace,
    /// A global load from an address outside every allocation.
    UninitializedRead,
    /// A shared-memory access past the declared `__shared__` storage.
    SharedOutOfBounds,
}

impl SanitizerKind {
    /// Human-readable name of the check.
    pub fn name(&self) -> &'static str {
        match self {
            SanitizerKind::BarrierDivergence => "barrier divergence",
            SanitizerKind::GlobalRace => "global memory race",
            SanitizerKind::UninitializedRead => "uninitialized global read",
            SanitizerKind::SharedOutOfBounds => "shared memory out of bounds",
        }
    }
}

/// One detected undefined behaviour, reported through
/// [`SimError::Sanitizer`](crate::SimError::Sanitizer). The launch stops
/// at the first finding (like `compute-sanitizer --error-exitcode`), so a
/// report always describes the earliest detection point in the
/// deterministic schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Which check fired.
    pub kind: SanitizerKind,
    /// Kernel being executed.
    pub kernel: String,
    /// Program counter of the faulting instruction (the parked barrier's
    /// pc for release-time divergence findings).
    pub pc: u32,
    /// What exactly was observed (lane, address, blocks involved).
    pub detail: String,
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in `{}` (pc {}): {}",
            self.kind.name(),
            self.kernel,
            self.pc,
            self.detail
        )
    }
}

/// Per-word access record for the launch-wide race detector, 12 bytes.
/// Block ids are stored `+ 1`, so the all-zero record is an untouched word.
#[derive(Clone, Copy, Default)]
struct WordAccess {
    /// Last block to write this word (`+ 1`; 0 = never written).
    writer: u32,
    /// First block to read this word (`+ 1`; 0 = never read).
    reader: u32,
    /// Whether blocks other than `reader` also read it.
    multi_reader: bool,
}

impl WordAccess {
    /// Record a load of `word` by `block`; a race description if a
    /// *different* block previously wrote it.
    #[inline(always)]
    fn load(&mut self, word: u32, block: u32) -> Option<String> {
        if self.writer != 0 && self.writer != block + 1 {
            return Some(self.race(word, block, false));
        }
        if self.reader == 0 {
            self.reader = block + 1;
        } else if self.reader != block + 1 {
            self.multi_reader = true;
        }
        None
    }

    /// Record a store to `word` by `block`; a race description if a
    /// *different* block previously wrote or read it.
    #[inline(always)]
    fn store(&mut self, word: u32, block: u32) -> Option<String> {
        if (self.writer != 0 && self.writer != block + 1)
            || (self.reader != 0 && (self.multi_reader || self.reader != block + 1))
        {
            return Some(self.race(word, block, true));
        }
        self.writer = block + 1;
        None
    }

    /// Describe the race `block`'s access to `word` completes. Out of line:
    /// the per-lane record path stays a handful of compares.
    #[cold]
    fn race(&self, word: u32, block: u32, is_store: bool) -> String {
        let what = if self.writer != 0 && self.writer != block + 1 {
            let writer = self.writer - 1;
            if is_store {
                format!("written by both block {writer} and block {block}")
            } else {
                format!("written by block {writer} and read by block {block}")
            }
        } else if self.multi_reader && self.reader == block + 1 {
            // Some other block read it too; name that fact rather than the
            // same-block first reader.
            format!("read by multiple blocks and written by block {block}")
        } else {
            let reader = self.reader - 1;
            format!("read by block {reader} and written by block {block}")
        };
        let addr = word * 4;
        format!("word at byte address {addr:#x} {what} with no ordering between blocks")
    }
}

/// Words per lazily-allocated shadow page.
const PAGE_WORDS: usize = 1024;

/// Launch-wide sanitizer state: which block last wrote / first read each
/// global word. One instance observes the whole launch, every SM of it,
/// so races between blocks on different SMs are caught. The shadow is a
/// word-indexed table over the launch footprint whose pages allocate on
/// first touch: one index, no hash, per lane access, and a kernel pays
/// for the pages it touches.
/// Words past the footprint (wild stores are recorded, by design) fall
/// back to a map, never iterated, so its order cannot leak into results.
#[derive(Default)]
pub struct SanitizerState {
    pages: Vec<Option<Box<[WordAccess; PAGE_WORDS]>>>,
    beyond: HashMap<u32, WordAccess>,
}

impl SanitizerState {
    /// Fresh state with no footprint: every word is kept in the map.
    pub fn new() -> SanitizerState {
        SanitizerState::default()
    }

    /// Fresh state for one launch over `footprint_bytes` of global memory.
    pub fn with_footprint(footprint_bytes: usize) -> SanitizerState {
        let pages = footprint_bytes.div_ceil(4 * PAGE_WORDS);
        SanitizerState {
            pages: (0..pages).map(|_| None).collect(),
            beyond: HashMap::new(),
        }
    }

    #[inline(always)]
    fn word(&mut self, word: u32) -> &mut WordAccess {
        match self.pages.get_mut(word as usize / PAGE_WORDS) {
            Some(page) => {
                let page =
                    page.get_or_insert_with(|| Box::new([WordAccess::default(); PAGE_WORDS]));
                &mut page[word as usize % PAGE_WORDS]
            }
            None => self.beyond.entry(word).or_default(),
        }
    }

    /// Record a global load of `byte_addr` by `block`. Returns a race
    /// description if a *different* block previously wrote the word.
    #[inline(always)]
    pub fn record_global_load(&mut self, byte_addr: u32, block: u32) -> Option<String> {
        let word = byte_addr / 4;
        self.word(word).load(word, block)
    }

    /// Record a global store to `byte_addr` by `block`. Returns a race
    /// description if a *different* block previously wrote or read the
    /// word.
    #[inline(always)]
    pub fn record_global_store(&mut self, byte_addr: u32, block: u32) -> Option<String> {
        let word = byte_addr / 4;
        self.word(word).store(word, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arg, GlobalMem, Gpu, GpuConfig, SimError};
    use catt_ir::LaunchConfig;
    use catt_prng::Rng;

    /// The `HashMap<u32, _>`-of-`Option`s implementation the paged shadow
    /// replaced, kept as the reference the property test compares against.
    #[derive(Clone, Copy, Default)]
    struct RefWord {
        writer: Option<u32>,
        reader: Option<u32>,
        multi_reader: bool,
    }

    #[derive(Default)]
    struct RefState {
        words: HashMap<u32, RefWord>,
    }

    impl RefState {
        fn record_global_load(&mut self, byte_addr: u32, block: u32) -> Option<String> {
            let word = byte_addr / 4;
            let w = self.words.entry(word).or_default();
            if let Some(writer) = w.writer {
                if writer != block {
                    return Some(format!(
                        "word at byte address {:#x} written by block {} and read by block {} \
                         with no ordering between blocks",
                        word * 4,
                        writer,
                        block
                    ));
                }
            }
            match w.reader {
                None => w.reader = Some(block),
                Some(r) if r != block => w.multi_reader = true,
                Some(_) => {}
            }
            None
        }

        fn record_global_store(&mut self, byte_addr: u32, block: u32) -> Option<String> {
            let word = byte_addr / 4;
            let w = self.words.entry(word).or_default();
            if let Some(writer) = w.writer {
                if writer != block {
                    return Some(format!(
                        "word at byte address {:#x} written by both block {} and block {} \
                         with no ordering between blocks",
                        word * 4,
                        writer,
                        block
                    ));
                }
            }
            if let Some(reader) = w.reader {
                if w.multi_reader || reader != block {
                    let reader = if w.multi_reader && reader == block {
                        None
                    } else {
                        Some(reader)
                    };
                    return Some(format!(
                        "word at byte address {:#x} read by {} and written by block {} \
                         with no ordering between blocks",
                        word * 4,
                        match reader {
                            Some(r) => format!("block {r}"),
                            None => "multiple blocks".to_string(),
                        },
                        block
                    ));
                }
            }
            w.writer = Some(block);
            None
        }
    }

    #[test]
    fn word_record_is_packed() {
        assert!(std::mem::size_of::<WordAccess>() <= 12);
    }

    #[test]
    fn paged_shadow_matches_the_hashmap_reference_on_random_streams() {
        // A footprint of two pages and a bit: words on both sides of every
        // page boundary, inside the last (partial) page past the footprint,
        // and far past it (the fallback map), each with a few sub-word
        // byte offsets; few enough that blocks keep colliding on them.
        let footprint_words = 2 * PAGE_WORDS + 100;
        let words: Vec<u32> = [0, 1, 63, 64, 1023, 1024, 1025, 2047, 2048, 2147, 2148]
            .into_iter()
            .chain([
                3071,
                3072,
                3073,
                4096,
                1 << 20,
                (u32::MAX / 4) - 1,
                u32::MAX / 4,
            ])
            .collect();
        for seed in 0..200u64 {
            let mut r = Rng::seed(seed);
            let mut paged = SanitizerState::with_footprint(footprint_words * 4);
            let mut reference = RefState::default();
            let blocks = 2 + r.bounded_u64(4) as u32;
            for step in 0..400 {
                let addr = *r.choose(&words) * 4 + r.range_u32(0, 4);
                let block = r.range_u32(0, blocks);
                let (got, want) = if r.bool(0.4) {
                    (
                        paged.record_global_store(addr, block),
                        reference.record_global_store(addr, block),
                    )
                } else {
                    (
                        paged.record_global_load(addr, block),
                        reference.record_global_load(addr, block),
                    )
                };
                assert_eq!(
                    got, want,
                    "seed {seed} step {step}: {addr:#x} block {block}"
                );
            }
            assert!(paged.pages.len() == 3 && !paged.beyond.is_empty());
        }
    }

    /// Block 0 writes `a[5]`; block 1 loads `a[idx[t]]` in the lanes whose
    /// `on[t]` is set. Blocks run in order ([`Gpu::execute`]), so every
    /// block-1 lane with `idx == 5` races and every lane whose index leaves
    /// the 40-word buffer is a wild load.
    const GATHER: &str = "
        __global__ void gather(int *idx, int *on, float *a, float *out) {
            int t = threadIdx.x;
            if (blockIdx.x == 0) {
                if (t == 0) { a[5] = 1.0f; }
            } else {
                if (on[t] != 0) { out[t] = a[idx[t]]; }
            }
        }";

    #[test]
    fn the_first_offending_lane_is_reported_for_wild_loads_mixed_with_races() {
        let kernel = catt_frontend::parse_kernel(GATHER).unwrap();
        let mut config = GpuConfig::small();
        config.sanitize = Some(true);
        let mut r = Rng::from_tag("first-lane");
        for case in 0..300 {
            // Per lane: clean, racy, in the alignment padding after `a`
            // (words 40..64), or far past the footprint.
            let idx: Vec<i32> = (0..32)
                .map(|_| match r.bounded_u64(8) {
                    0 => 5,
                    1 => r.range_u32(40, 64) as i32,
                    2 => 1 << 20,
                    _ => r.range_u32(6, 40) as i32,
                })
                .collect();
            let random = r.next_u32();
            let mask = *r.choose(&[u32::MAX, random, random & 0xFFFF_0000]);
            let on: Vec<i32> = (0..32).map(|l| (mask >> l & 1) as i32).collect();
            let mut mem = GlobalMem::new();
            let args = [
                Arg::Buf(mem.alloc_i32(&idx)),
                Arg::Buf(mem.alloc_i32(&on)),
                Arg::Buf(mem.alloc_f32(&[0.0; 40])),
                Arg::Buf(mem.alloc_zeroed(32)),
            ];
            let got =
                Gpu::new(config.clone()).execute(&kernel, LaunchConfig::d1(2, 32), &args, &mut mem);
            let first = (0..32).find(|&l| mask >> l & 1 != 0 && !(6..40).contains(&idx[l]));
            match (first, got) {
                (None, Ok(_)) => {}
                (Some(l), Err(SimError::Sanitizer(report))) => {
                    let (kind, lane) = if idx[l] == 5 {
                        (SanitizerKind::GlobalRace, format!("lane {l}: "))
                    } else {
                        (SanitizerKind::UninitializedRead, format!("lane {l} loads "))
                    };
                    assert_eq!(report.kind, kind, "case {case}: {report}");
                    assert!(report.detail.starts_with(&lane), "case {case}: {report}");
                }
                (first, got) => panic!("case {case}: first offender {first:?}, got {got:?}"),
            }
        }
    }

    #[test]
    fn same_block_accesses_are_clean() {
        let mut s = SanitizerState::new();
        assert!(s.record_global_store(0x100, 3).is_none());
        assert!(s.record_global_load(0x100, 3).is_none());
        assert!(s.record_global_store(0x100, 3).is_none());
    }

    #[test]
    fn write_write_race_between_blocks() {
        let mut s = SanitizerState::new();
        assert!(s.record_global_store(0x40, 0).is_none());
        let d = s.record_global_store(0x40, 1).unwrap();
        assert!(d.contains("block 0") && d.contains("block 1"), "{d}");
    }

    #[test]
    fn read_write_race_between_blocks() {
        let mut s = SanitizerState::new();
        assert!(s.record_global_load(0x40, 0).is_none());
        let d = s.record_global_store(0x40, 1).unwrap();
        assert!(d.contains("read by block 0"), "{d}");
    }

    #[test]
    fn write_read_race_between_blocks() {
        let mut s = SanitizerState::new();
        assert!(s.record_global_store(0x40, 2).is_none());
        let d = s.record_global_load(0x40, 5).unwrap();
        assert!(d.contains("written by block 2"), "{d}");
    }

    #[test]
    fn disjoint_words_do_not_race() {
        let mut s = SanitizerState::new();
        assert!(s.record_global_store(0x0, 0).is_none());
        assert!(s.record_global_store(0x4, 1).is_none());
        assert!(s.record_global_load(0x8, 2).is_none());
    }

    #[test]
    fn shared_read_then_own_write_races_via_multi_reader() {
        let mut s = SanitizerState::new();
        assert!(s.record_global_load(0x40, 0).is_none());
        assert!(s.record_global_load(0x40, 1).is_none());
        // Block 0 read first, but block 1 also read: block 0's write races
        // with block 1's read.
        let d = s.record_global_store(0x40, 0).unwrap();
        assert!(d.contains("multiple blocks"), "{d}");
    }

    #[test]
    fn report_display_names_kind_kernel_and_pc() {
        let r = SanitizerReport {
            kind: SanitizerKind::GlobalRace,
            kernel: "k".into(),
            pc: 7,
            detail: "words collide".into(),
        };
        let msg = r.to_string();
        assert!(
            msg.contains("global memory race") && msg.contains("`k`") && msg.contains("pc 7"),
            "{msg}"
        );
    }
}
