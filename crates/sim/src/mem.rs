//! Simulated global (off-chip) memory and kernel arguments.
//!
//! Two views of device memory exist behind the [`DeviceMem`] trait:
//! [`GlobalMem`] is the flat backing store every launch ultimately commits
//! to, and [`ShadowMem`] is the per-SM view used by the parallel launch
//! path — a shared read-only snapshot of pre-launch memory overlaid with
//! the SM's own [`StoreLog`], merged back in ascending SM-id order after
//! all SMs finish (see DESIGN.md "Parallel SM execution").

use crate::error::SimError;

/// Handle to a device buffer in [`GlobalMem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer {
    /// Byte address of the first element in the flat device address space.
    pub addr: u32,
    /// Length in 32-bit elements.
    pub len: u32,
}

/// A kernel launch argument; must match the kernel parameter list
/// positionally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// Pointer argument.
    Buf(Buffer),
    /// Scalar `int`.
    I32(i32),
    /// Scalar `unsigned int`.
    U32(u32),
    /// Scalar `float`.
    F32(f32),
}

impl Arg {
    /// The 32-bit register image of the argument (base address for
    /// buffers, bit pattern for scalars).
    pub fn register_image(&self) -> u32 {
        match self {
            Arg::Buf(b) => b.addr,
            Arg::I32(v) => *v as u32,
            Arg::U32(v) => *v,
            Arg::F32(v) => v.to_bits(),
        }
    }
}

/// Flat simulated device memory. All buffers live in one 32-bit byte
/// address space; allocation is a bump allocator with 256-byte alignment
/// (mirroring `cudaMalloc`'s alignment guarantees, and ensuring distinct
/// buffers never share a cache line).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalMem {
    /// Backing store, indexed by word (byte address / 4).
    words: Vec<u32>,
    /// Allocation spans as (start word, length in words), in ascending
    /// address order (the bump allocator only grows). Consulted by the
    /// sanitizer's wild-read check through [`DeviceMem::allocated_span`];
    /// never part of [`GlobalMem::content_digest`], which hashes contents
    /// only.
    spans: Vec<(u32, u32)>,
}

const ALIGN_BYTES: u32 = 256;

impl GlobalMem {
    /// Empty memory.
    pub fn new() -> GlobalMem {
        GlobalMem::default()
    }

    fn alloc_words(&mut self, len: u32) -> Buffer {
        let addr_bytes = (self.words.len() as u32 * 4).next_multiple_of(ALIGN_BYTES);
        let start_word = (addr_bytes / 4) as usize;
        self.words.resize(start_word + len as usize, 0);
        self.spans.push((start_word as u32, len));
        Buffer {
            addr: addr_bytes,
            len,
        }
    }

    /// The allocation covering `byte_addr`, as (start word, length in
    /// words): the last span starting at or before the word, if the word
    /// falls inside it. `None` in the alignment padding between buffers,
    /// past the footprint, and at the address of a zero-length buffer.
    pub fn allocated_span(&self, byte_addr: u32) -> Option<(u32, u32)> {
        let word = byte_addr / 4;
        let i = self.spans.partition_point(|&(start, _)| start <= word);
        let (start, len) = *self.spans.get(i.checked_sub(1)?)?;
        (word - start < len).then_some((start, len))
    }

    /// Whether `byte_addr` falls inside some allocation.
    pub fn is_allocated(&self, byte_addr: u32) -> bool {
        self.allocated_span(byte_addr).is_some()
    }

    /// Allocate and initialize a float buffer.
    pub fn alloc_f32(&mut self, data: &[f32]) -> Buffer {
        let b = self.alloc_words(data.len() as u32);
        for (i, v) in data.iter().enumerate() {
            self.words[b.addr as usize / 4 + i] = v.to_bits();
        }
        b
    }

    /// Allocate and initialize an int buffer.
    pub fn alloc_i32(&mut self, data: &[i32]) -> Buffer {
        let b = self.alloc_words(data.len() as u32);
        for (i, v) in data.iter().enumerate() {
            self.words[b.addr as usize / 4 + i] = *v as u32;
        }
        b
    }

    /// Allocate a zero-filled float buffer of `len` elements.
    pub fn alloc_zeroed(&mut self, len: u32) -> Buffer {
        self.alloc_words(len)
    }

    /// Read a buffer back as floats.
    pub fn read_f32(&self, b: Buffer) -> Vec<f32> {
        let start = b.addr as usize / 4;
        self.words[start..start + b.len as usize]
            .iter()
            .map(|w| f32::from_bits(*w))
            .collect()
    }

    /// Read a buffer back as ints.
    pub fn read_i32(&self, b: Buffer) -> Vec<i32> {
        let start = b.addr as usize / 4;
        self.words[start..start + b.len as usize]
            .iter()
            .map(|w| *w as i32)
            .collect()
    }

    /// Check that a host-side write of `len` elements fits in `b`,
    /// reporting the first out-of-range byte address and the offending
    /// buffer handle otherwise.
    fn check_write(b: Buffer, len: usize) -> Result<(), SimError> {
        if len as u32 <= b.len {
            Ok(())
        } else {
            Err(SimError::OutOfBounds {
                kernel: "<host>".into(),
                pc: 0,
                addr: b.addr + b.len * 4,
                buffer: format!("{b:?}"),
            })
        }
    }

    /// Overwrite a buffer's contents with floats. Writes past the end of
    /// the allocation return [`SimError::OutOfBounds`] naming the buffer.
    pub fn write_f32(&mut self, b: Buffer, data: &[f32]) -> Result<(), SimError> {
        Self::check_write(b, data.len())?;
        let start = b.addr as usize / 4;
        for (i, v) in data.iter().enumerate() {
            self.words[start + i] = v.to_bits();
        }
        Ok(())
    }

    /// Overwrite a buffer's contents with ints. Writes past the end of
    /// the allocation return [`SimError::OutOfBounds`] naming the buffer.
    pub fn write_i32(&mut self, b: Buffer, data: &[i32]) -> Result<(), SimError> {
        Self::check_write(b, data.len())?;
        let start = b.addr as usize / 4;
        for (i, v) in data.iter().enumerate() {
            self.words[start + i] = *v as u32;
        }
        Ok(())
    }

    /// Load a word by byte address. Out-of-bounds reads return 0 (the
    /// simulator's equivalent of reading unmapped memory without faulting;
    /// workloads are written to stay in bounds and tests assert on data).
    #[inline]
    pub fn load(&self, byte_addr: u32) -> u32 {
        self.words.get(byte_addr as usize / 4).copied().unwrap_or(0)
    }

    /// Store a word by byte address. Out-of-bounds writes are dropped.
    #[inline]
    pub fn store(&mut self, byte_addr: u32, value: u32) {
        if let Some(w) = self.words.get_mut(byte_addr as usize / 4) {
            *w = value;
        }
    }

    /// Total allocated footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Stable FNV-1a digest of the full memory image. Used by the
    /// parallel-vs-sequential equivalence tests to assert bit-identical
    /// output buffers without enumerating them.
    pub fn content_digest(&self) -> u64 {
        let mut h = crate::digest::Fnv64::new();
        for w in &self.words {
            h.write(&w.to_le_bytes());
        }
        h.finish()
    }
}

/// Functional device memory as seen by one SM during a launch. The
/// sequential path hands every SM the real [`GlobalMem`]; the parallel
/// path hands each SM a [`ShadowMem`] so SMs never contend on (or observe)
/// each other's stores mid-launch.
pub trait DeviceMem {
    /// Load a word by byte address (out-of-bounds reads return 0).
    fn load(&self, byte_addr: u32) -> u32;
    /// Store a word by byte address (out-of-bounds writes are dropped).
    fn store(&mut self, byte_addr: u32, value: u32);
    /// The allocation covering `byte_addr` as (start word, length in
    /// words), `None` when no allocation covers it. Consulted only by the
    /// sanitizer's wild-read check; views that cannot tell answer with one
    /// span covering everything (never a false positive).
    fn allocated_span(&self, _byte_addr: u32) -> Option<(u32, u32)> {
        Some((0, u32::MAX))
    }

    /// Whether `byte_addr` falls inside some allocation.
    fn is_allocated(&self, byte_addr: u32) -> bool {
        self.allocated_span(byte_addr).is_some()
    }
}

impl DeviceMem for GlobalMem {
    #[inline]
    fn load(&self, byte_addr: u32) -> u32 {
        GlobalMem::load(self, byte_addr)
    }

    #[inline]
    fn store(&mut self, byte_addr: u32, value: u32) {
        GlobalMem::store(self, byte_addr, value)
    }

    #[inline]
    fn allocated_span(&self, byte_addr: u32) -> Option<(u32, u32)> {
        GlobalMem::allocated_span(self, byte_addr)
    }
}

/// Words per lazily-allocated [`StoreLog`] page.
const PAGE_WORDS: usize = 1024;

/// One overlay page: values plus a word-granular presence bitmask.
struct LogPage {
    words: Box<[u32; PAGE_WORDS]>,
    written: [u64; PAGE_WORDS / 64],
}

impl LogPage {
    fn new() -> LogPage {
        LogPage {
            words: Box::new([0; PAGE_WORDS]),
            written: [0; PAGE_WORDS / 64],
        }
    }
}

/// The stores one SM performed during a launch, kept as a sparse paged
/// overlay over the pre-launch snapshot. Pages allocate on first store to
/// their range, so an SM writing one disjoint output slice pays memory
/// proportional to that slice, not the whole footprint. Stores beyond the
/// snapshot's footprint are dropped, matching [`GlobalMem::store`]'s
/// out-of-bounds semantics exactly.
pub struct StoreLog {
    pages: Vec<Option<LogPage>>,
    /// Footprint bound (in words) at snapshot time; stores at or past it
    /// are dropped.
    limit_words: usize,
}

impl StoreLog {
    /// Empty log covering a snapshot of `limit_words` words.
    fn new(limit_words: usize) -> StoreLog {
        StoreLog {
            pages: Vec::new(),
            limit_words,
        }
    }

    /// The logged value at word index `word`, if this SM stored there.
    #[inline]
    fn lookup(&self, word: usize) -> Option<u32> {
        let page = self.pages.get(word / PAGE_WORDS)?.as_ref()?;
        let o = word % PAGE_WORDS;
        if page.written[o / 64] & (1 << (o % 64)) != 0 {
            Some(page.words[o])
        } else {
            None
        }
    }

    /// Record a store at word index `word` (last store wins, as in the
    /// sequential interpreter).
    #[inline]
    fn record(&mut self, word: usize, value: u32) {
        if word >= self.limit_words {
            return; // out of bounds at snapshot time: dropped
        }
        let pi = word / PAGE_WORDS;
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, || None);
        }
        let page = self.pages[pi].get_or_insert_with(LogPage::new);
        let o = word % PAGE_WORDS;
        page.words[o] = value;
        page.written[o / 64] |= 1 << (o % 64);
    }

    /// Number of distinct words this log holds.
    pub fn stored_words(&self) -> usize {
        self.pages
            .iter()
            .flatten()
            .map(|p| {
                p.written
                    .iter()
                    .map(|m| m.count_ones() as usize)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Commit every logged store into `mem`, in ascending address order.
    /// Logs are applied SM 0, SM 1, ... so a word several SMs wrote ends
    /// up with the highest-id SM's value — a fixed, documented order, not
    /// a scheduler-dependent race.
    pub fn apply(&self, mem: &mut GlobalMem) {
        for (pi, page) in self.pages.iter().enumerate() {
            let Some(page) = page else { continue };
            let base = pi * PAGE_WORDS;
            for (mi, &mask) in page.written.iter().enumerate() {
                let mut m = mask;
                while m != 0 {
                    let bit = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let o = mi * 64 + bit;
                    if let Some(w) = mem.words.get_mut(base + o) {
                        *w = page.words[o];
                    }
                }
            }
        }
    }
}

/// A per-SM view of device memory for the parallel launch path: loads read
/// this SM's own stores first (read-your-own-writes, required by
/// read-modify-write kernels like ATAX's `tmp[i] +=` loop) and fall back
/// to the shared pre-launch snapshot; stores go to the private log only.
pub struct ShadowMem<'a> {
    base: &'a GlobalMem,
    log: StoreLog,
}

impl<'a> ShadowMem<'a> {
    /// A fresh shadow over the pre-launch snapshot `base`.
    pub fn new(base: &'a GlobalMem) -> ShadowMem<'a> {
        ShadowMem {
            log: StoreLog::new(base.words.len()),
            base,
        }
    }

    /// Consume the shadow, keeping only the store log for merging.
    pub fn into_log(self) -> StoreLog {
        self.log
    }
}

impl DeviceMem for ShadowMem<'_> {
    #[inline]
    fn load(&self, byte_addr: u32) -> u32 {
        let word = byte_addr as usize / 4;
        match self.log.lookup(word) {
            Some(v) => v,
            None => self.base.load(byte_addr),
        }
    }

    #[inline]
    fn store(&mut self, byte_addr: u32, value: u32) {
        self.log.record(byte_addr as usize / 4, value);
    }

    #[inline]
    fn allocated_span(&self, byte_addr: u32) -> Option<(u32, u32)> {
        self.base.allocated_span(byte_addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_line_aligned_and_disjoint() {
        let mut m = GlobalMem::new();
        let a = m.alloc_f32(&[1.0; 3]);
        let b = m.alloc_f32(&[2.0; 5]);
        assert_eq!(a.addr % ALIGN_BYTES, 0);
        assert_eq!(b.addr % ALIGN_BYTES, 0);
        assert!(b.addr >= a.addr + 3 * 4);
        assert_eq!(m.read_f32(a), vec![1.0; 3]);
        assert_eq!(m.read_f32(b), vec![2.0; 5]);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m = GlobalMem::new();
        let a = m.alloc_zeroed(4);
        m.store(a.addr + 8, 7);
        assert_eq!(m.load(a.addr + 8), 7);
        assert_eq!(m.read_i32(a), vec![0, 0, 7, 0]);
    }

    #[test]
    fn out_of_bounds_access_is_benign() {
        let mut m = GlobalMem::new();
        assert_eq!(m.load(1 << 30), 0);
        m.store(1 << 30, 42); // dropped
        assert_eq!(m.footprint_bytes(), 0);
    }

    #[test]
    fn arg_register_images() {
        assert_eq!(Arg::I32(-1).register_image(), u32::MAX);
        assert_eq!(Arg::F32(1.0).register_image(), 1.0f32.to_bits());
        let b = Buffer { addr: 512, len: 4 };
        assert_eq!(Arg::Buf(b).register_image(), 512);
    }

    #[test]
    fn write_f32_overwrites() {
        let mut m = GlobalMem::new();
        let a = m.alloc_zeroed(3);
        m.write_f32(a, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.read_f32(a), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn oversized_write_reports_the_buffer_handle() {
        let mut m = GlobalMem::new();
        let a = m.alloc_zeroed(2);
        let err = m.write_f32(a, &[0.0; 3]).unwrap_err();
        match &err {
            SimError::OutOfBounds { kernel, buffer, .. } => {
                assert_eq!(kernel, "<host>");
                assert_eq!(buffer, &format!("{a:?}"));
            }
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
        let err = m.write_i32(a, &[0; 5]).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn shadow_reads_own_writes_and_falls_back_to_snapshot() {
        let mut m = GlobalMem::new();
        let a = m.alloc_i32(&[10, 20, 30]);
        let mut sh = ShadowMem::new(&m);
        assert_eq!(sh.load(a.addr + 4), 20, "snapshot visible through shadow");
        sh.store(a.addr + 4, 99);
        assert_eq!(sh.load(a.addr + 4), 99, "own store shadows the snapshot");
        assert_eq!(sh.load(a.addr + 8), 30, "untouched words still read base");
        assert_eq!(
            m.read_i32(a),
            vec![10, 20, 30],
            "base unchanged until merge"
        );
        let log = sh.into_log();
        assert_eq!(log.stored_words(), 1);
        log.apply(&mut m);
        assert_eq!(m.read_i32(a), vec![10, 99, 30]);
    }

    #[test]
    fn shadow_oob_matches_global_mem_semantics() {
        let mut m = GlobalMem::new();
        let a = m.alloc_zeroed(2);
        let digest = m.content_digest();
        let mut sh = ShadowMem::new(&m);
        assert_eq!(sh.load(1 << 30), 0, "OOB load is 0, like GlobalMem");
        sh.store(1 << 30, 42); // dropped
        sh.store(a.addr + 4 * 2, 7); // first word past the footprint: dropped
        let log = sh.into_log();
        assert_eq!(log.stored_words(), 0);
        log.apply(&mut m);
        assert_eq!(m.content_digest(), digest, "dropped stores never merge");
    }

    #[test]
    fn store_log_spans_pages_and_keeps_last_store() {
        let mut m = GlobalMem::new();
        let a = m.alloc_zeroed(3000); // crosses the 1024-word page size
        let mut sh = ShadowMem::new(&m);
        sh.store(a.addr, 1);
        sh.store(a.addr, 2); // last store wins
        sh.store(a.addr + 4 * 2999, 5);
        let log = sh.into_log();
        assert_eq!(log.stored_words(), 2);
        log.apply(&mut m);
        let out = m.read_i32(a);
        assert_eq!(out[0], 2);
        assert_eq!(out[2999], 5);
    }

    #[test]
    fn is_allocated_tracks_spans_not_padding() {
        let mut m = GlobalMem::new();
        assert!(!m.is_allocated(0), "empty memory has no allocations");
        let a = m.alloc_f32(&[1.0; 3]);
        let b = m.alloc_zeroed(2);
        assert!(m.is_allocated(a.addr));
        assert!(m.is_allocated(a.addr + 8), "last word of a");
        assert!(
            !m.is_allocated(a.addr + 12),
            "alignment padding between buffers is not allocated"
        );
        assert!(m.is_allocated(b.addr + 4), "last word of b");
        assert!(!m.is_allocated(b.addr + 8), "past the footprint");
        assert!(!m.is_allocated(1 << 30));
        // Spans never affect the content digest.
        let mut twin = GlobalMem::new();
        let ta = twin.alloc_f32(&[1.0; 3]);
        twin.alloc_zeroed(2);
        assert_eq!(ta, a);
        assert_eq!(twin.content_digest(), m.content_digest());
        // A zero-length buffer owns no word, even where it starts: here
        // that is the first byte past the footprint.
        let e = m.alloc_f32(&[]);
        assert_eq!(e.addr as usize, m.footprint_bytes());
        assert!(!m.is_allocated(e.addr), "empty buffer's start address");
        assert_eq!(m.allocated_span(b.addr + 4), Some((b.addr / 4, 2)));
    }

    #[test]
    fn shadow_delegates_is_allocated_to_base() {
        let mut m = GlobalMem::new();
        let a = m.alloc_zeroed(2);
        let sh = ShadowMem::new(&m);
        assert!(DeviceMem::is_allocated(&sh, a.addr));
        assert!(!DeviceMem::is_allocated(&sh, a.addr + 8));
    }

    #[test]
    fn content_digest_tracks_contents() {
        let mut m = GlobalMem::new();
        let a = m.alloc_i32(&[1, 2, 3]);
        let before = m.content_digest();
        assert_eq!(before, m.content_digest(), "digest is deterministic");
        m.store(a.addr, 9);
        assert_ne!(before, m.content_digest());
    }
}
