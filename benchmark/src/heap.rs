//! Peak live heap: what the program asked the allocator for, at its most.
//!
//! `VmHWM` is what the end-to-end memory metric was meant to be, but on the
//! threaded workloads it is a property of glibc's arenas as much as of the
//! program: which arena a worker lands in and what the allocator keeps after
//! a free moved it by ±15–20 % between identical runs here (with
//! `MALLOC_ARENA_MAX=1` it repeats within 3 %, and `serve-hot` runs four times
//! slower). Bytes requested do not depend on any of that, and they are what
//! a change to the program changes. `VmHWM` is still printed beside them.
//!
//! The counter must not slow the allocation-heavy paths it watches, so each
//! thread keeps its own running delta and publishes it to the shared total
//! only once it has drifted by [`FLUSH`] bytes: the total is exact to
//! `FLUSH` × threads, and the hot path is one thread-local add.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counted.
pub struct Counted;

/// Drift at which a thread publishes its delta.
const FLUSH: isize = 64 * 1024;

// Statistics: they publish no other data, so `Relaxed` is enough.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching them from
    // inside the allocator neither allocates nor registers anything.
    static PENDING: Cell<isize> = const { Cell::new(0) };
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with this thread's allocations left out of the count. For the
/// benchmark's own per-operation sample buffers: they grow with the number
/// of operations, so counting them would turn a faster program into a
/// bigger one.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = UNCOUNTED.replace(true);
    let out = f();
    UNCOUNTED.set(was);
    out
}

fn publish(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn note(delta: isize) {
    if UNCOUNTED.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    let due = PENDING.try_with(|p| {
        let pending = p.get() + delta;
        if pending.abs() >= FLUSH {
            p.set(0);
            pending
        } else {
            p.set(pending);
            0
        }
    });
    match due {
        Ok(0) => {}
        Ok(pending) => publish(pending),
        // The thread is past its thread-local storage: count directly.
        Err(_) => publish(delta),
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns its result unchanged; the
// bookkeeping around the call touches no allocator state and does not
// allocate (see `PENDING`).
unsafe impl GlobalAlloc for Counted {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`. Forwarded rather than left to the default
        // (alloc + memset) so large zeroed tables keep their calloc path.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Peak live heap so far, in MB (exact to `FLUSH` × threads).
pub fn peak_mb() -> f64 {
    PENDING.with(|p| publish(p.replace(0)));
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncounted_allocations_leave_the_peak_alone() {
        // 256 MB would stand out against anything the other tests allocate.
        let big = uncounted(|| vec![0u8; 256 << 20]);
        assert_eq!(big.len(), 256 << 20);
        assert!(peak_mb() < 256.0);
        uncounted(|| drop(big));
    }

    #[test]
    fn the_peak_follows_a_large_allocation_and_outlives_it() {
        let before = peak_mb();
        let big = vec![1u8; 32 << 20];
        assert!(big.iter().map(|&b| b as usize).sum::<usize>() == 32 << 20);
        let during = peak_mb();
        drop(big);
        let after = peak_mb();
        // Other tests allocate concurrently; 32 MB stands out regardless.
        assert!(during >= before.max(32.0), "{before} -> {during}");
        assert!(after >= during, "the peak never falls: {during} -> {after}");
    }
}
