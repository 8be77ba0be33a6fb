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
//! Sanitized launches run on the sequential SM path so one launch-wide
//! [`SanitizerState`] observes every block's accesses; results remain
//! bit-identical to unsanitized runs (the sanitizer only observes), so
//! the knob is excluded from [`crate::GpuConfig::content_digest`].

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

/// Per-word access record for the launch-wide race detector.
#[derive(Clone, Copy, Default)]
struct WordAccess {
    /// Last block to write this word, if any.
    writer: Option<u32>,
    /// First block to read this word, if any.
    reader: Option<u32>,
    /// Whether blocks other than `reader` also read it.
    multi_reader: bool,
}

/// Launch-wide sanitizer state: which block last wrote / first read each
/// global word. One instance observes the whole launch (sanitized
/// launches force the sequential SM path), so races between blocks on
/// different SMs are caught. Never iterated — violations are reported at
/// detection time — so map order cannot leak into results.
#[derive(Default)]
pub struct SanitizerState {
    words: HashMap<u32, WordAccess>,
}

impl SanitizerState {
    /// Fresh state for one launch.
    pub fn new() -> SanitizerState {
        SanitizerState::default()
    }

    /// Record a global load of `byte_addr` by `block`. Returns a race
    /// description if a *different* block previously wrote the word.
    pub fn record_global_load(&mut self, byte_addr: u32, block: u32) -> Option<String> {
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

    /// Record a global store to `byte_addr` by `block`. Returns a race
    /// description if a *different* block previously wrote or read the
    /// word.
    pub fn record_global_store(&mut self, byte_addr: u32, block: u32) -> Option<String> {
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
                    // Some other block read it too; name that fact rather
                    // than the same-block first reader.
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

#[cfg(test)]
mod tests {
    use super::*;

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
