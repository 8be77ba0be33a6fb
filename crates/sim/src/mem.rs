//! Simulated global (off-chip) memory and kernel arguments.
//!
//! [`GlobalMem`] is the one flat backing store of a launch: every SM
//! loads from and stores to it in place, one SM after another (see
//! DESIGN.md "Sequential SMs").

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

/// A buffer's initial contents, handed to [`GlobalMem::with_buffers`] by
/// value so device memory can keep the caller's allocation instead of
/// copying out of it.
#[derive(Debug)]
pub enum Init {
    /// Float data.
    F32(Vec<f32>),
    /// Int data.
    I32(Vec<i32>),
    /// This many zero words.
    Zeroed(u32),
}

impl Init {
    fn len(&self) -> usize {
        match self {
            Init::F32(v) => v.len(),
            Init::I32(v) => v.len(),
            Init::Zeroed(n) => *n as usize,
        }
    }

    /// The data as device words, in the same allocation: the element types
    /// share size and alignment, so `collect` converts in place. `None` for
    /// a zero-filled buffer.
    fn into_words(self) -> Option<Vec<u32>> {
        match self {
            Init::F32(v) => Some(v.into_iter().map(f32::to_bits).collect()),
            Init::I32(v) => Some(v.into_iter().map(|x| x as u32).collect()),
            Init::Zeroed(_) => None,
        }
    }
}

/// Flat simulated device memory. All buffers live in one 32-bit byte
/// address space; allocation is a bump allocator with 256-byte alignment
/// (mirroring `cudaMalloc`'s alignment guarantees, and ensuring distinct
/// buffers never share a cache line). The backing store's capacity is its
/// footprint: it grows exactly, never by amortized doubling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalMem {
    /// Backing store, indexed by word (byte address / 4).
    words: Vec<u32>,
    /// Allocation spans as (start word, length in words), in ascending
    /// address order (the bump allocator only grows). Consulted by the
    /// sanitizer's wild-read check through [`GlobalMem::allocated_span`];
    /// never part of [`GlobalMem::content_digest`], which hashes contents
    /// only.
    spans: Vec<(u32, u32)>,
}

const ALIGN_BYTES: u32 = 256;

/// The word at which a buffer allocated after `end` words starts.
fn aligned_start(end: usize) -> usize {
    end.next_multiple_of(ALIGN_BYTES as usize / 4)
}

impl GlobalMem {
    /// Empty memory.
    pub fn new() -> GlobalMem {
        GlobalMem::default()
    }

    /// Memory holding `inits` in order, at the addresses successive
    /// `alloc_*` calls would give them, with the buffer handles.
    pub fn with_buffers<const N: usize>(inits: [Init; N]) -> (GlobalMem, [Buffer; N]) {
        let (mem, bufs) = GlobalMem::from_inits(inits);
        (mem, std::array::from_fn(|i| bufs[i]))
    }

    /// [`GlobalMem::with_buffers`] for a buffer count known at run time.
    ///
    /// The first input's allocation, if it holds data, becomes the backing
    /// store: it already sits at address 0, and grows once to the
    /// footprint. Every other input is copied in and freed, so only the
    /// inputs after the first are held twice, until they are copied, and
    /// the store is never reallocated per buffer.
    pub fn from_inits(inits: impl IntoIterator<Item = Init>) -> (GlobalMem, Vec<Buffer>) {
        let mut inits: Vec<Init> = inits.into_iter().collect();
        let mut spans = Vec::with_capacity(inits.len());
        let mut end = 0;
        for init in &inits {
            let start = aligned_start(end);
            end = start + init.len();
            spans.push((start as u32, init.len() as u32));
        }
        let first = inits
            .first_mut()
            .and_then(|init| std::mem::replace(init, Init::Zeroed(0)).into_words());
        let mut words = match first {
            Some(mut words) => {
                words.reserve_exact(end - words.len());
                words.resize(end, 0);
                words.shrink_to_fit();
                words
            }
            None => vec![0; end],
        };
        for (init, &(start, len)) in inits.into_iter().zip(&spans) {
            if let Some(data) = init.into_words() {
                let start = start as usize;
                words[start..start + len as usize].copy_from_slice(&data);
            }
        }
        let bufs = spans
            .iter()
            .map(|&(start, len)| Buffer {
                addr: start * 4,
                len,
            })
            .collect();
        (GlobalMem { words, spans }, bufs)
    }

    fn alloc_words(&mut self, len: u32) -> Buffer {
        let start = aligned_start(self.words.len());
        let end = start + len as usize;
        self.words.reserve_exact(end - self.words.len());
        self.words.resize(end, 0);
        self.spans.push((start as u32, len));
        Buffer {
            addr: start as u32 * 4,
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

    /// Allocate and initialize a float buffer (a copy of `data`; see
    /// [`GlobalMem::with_buffers`] to hand the data over instead).
    pub fn alloc_f32(&mut self, data: &[f32]) -> Buffer {
        let b = self.alloc_words(data.len() as u32);
        for (i, v) in data.iter().enumerate() {
            self.words[b.addr as usize / 4 + i] = v.to_bits();
        }
        b
    }

    /// Allocate and initialize an int buffer (a copy of `data`).
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

    /// A buffer's contents as floats, read in place.
    pub fn f32s(&self, b: Buffer) -> impl ExactSizeIterator<Item = f32> + '_ {
        let start = b.addr as usize / 4;
        self.words[start..start + b.len as usize]
            .iter()
            .map(|w| f32::from_bits(*w))
    }

    /// Read a buffer back as floats.
    pub fn read_f32(&self, b: Buffer) -> Vec<f32> {
        self.f32s(b).collect()
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

    /// Stable FNV-1a digest of the full memory image. Lets tests assert
    /// bit-identical output buffers without enumerating them.
    pub fn content_digest(&self) -> u64 {
        let mut h = crate::digest::Fnv64::new();
        for w in &self.words {
            h.write(&w.to_le_bytes());
        }
        h.finish()
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
    fn content_digest_tracks_contents() {
        let mut m = GlobalMem::new();
        let a = m.alloc_i32(&[1, 2, 3]);
        let before = m.content_digest();
        assert_eq!(before, m.content_digest(), "digest is deterministic");
        m.store(a.addr, 9);
        assert_ne!(before, m.content_digest());
    }

    #[test]
    fn with_buffers_matches_successive_allocs_at_footprint_capacity() {
        let big: Vec<f32> = (0..5000).map(|v| v as f32 * 0.5).collect();
        let ints = vec![-3, 7, 11];
        let floats = vec![2.5; 9];
        // The allocator of record: one `alloc_*` call per buffer.
        let mut want = GlobalMem::new();
        let want_bufs = [
            want.alloc_f32(&big),
            want.alloc_i32(&ints),
            want.alloc_zeroed(70),
            want.alloc_f32(&floats),
            want.alloc_f32(&[]),
        ];
        let (m, bufs) = GlobalMem::with_buffers([
            Init::F32(big.clone()),
            Init::I32(ints.clone()),
            Init::Zeroed(70),
            Init::F32(floats.clone()),
            Init::F32(Vec::new()),
        ]);
        assert_eq!(bufs, want_bufs, "same addresses and lengths");
        assert_eq!(m, want, "same words and spans");
        assert_eq!(m.content_digest(), want.content_digest());
        assert_eq!(m.read_f32(bufs[0]), big);
        assert_eq!(m.read_i32(bufs[1]), ints);
        assert_eq!(m.read_f32(bufs[2]), vec![0.0; 70]);
        assert_eq!(m.read_f32(bufs[3]), floats);
        for mem in [&m, &want] {
            assert_eq!(mem.words.capacity(), mem.words.len(), "no amortized slack");
        }
        // A small first input and a zero-filled one: the store is built
        // fresh and every input copied in, at the same addresses.
        let (m, [z, a, b]) = GlobalMem::with_buffers([
            Init::Zeroed(5),
            Init::I32(vec![1, 2]),
            Init::F32(big.clone()),
        ]);
        let mut want = GlobalMem::new();
        let want_bufs = [
            want.alloc_zeroed(5),
            want.alloc_i32(&[1, 2]),
            want.alloc_f32(&big),
        ];
        assert_eq!([z, a, b], want_bufs);
        assert_eq!(m, want);
        assert_eq!(m.words.capacity(), m.words.len());
        // All zero-filled, and empty.
        let (m, [z]) = GlobalMem::with_buffers([Init::Zeroed(3)]);
        assert_eq!((z.addr, m.read_i32(z)), (0, vec![0; 3]));
        let (m, bufs) = GlobalMem::from_inits([]);
        assert!(bufs.is_empty());
        assert_eq!(m, GlobalMem::new());
    }
}
