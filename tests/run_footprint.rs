//! Device memory is the only copy of a run's data: a validated run of any
//! registry app peaks at most [`SLACK_BYTES`] of heap above its device
//! footprint. Each app computes its host-reference expectation from the
//! generated inputs, then moves the inputs into device memory, which grows
//! to its footprint exactly. A host copy of an input kept for the check,
//! a staging copy made on the way in, or an amortized doubling of the
//! store would each break the bound on ATAX, BICG and MVT, whose matrix
//! alone is 5 MiB.
//!
//! The binary counts its own allocations, so it holds this one test: a
//! second test running beside it would be counted too.

use catt_repro::workloads::harness::{
    eval_config_max_l1d, last_mem_footprint, set_functional_execution,
};
use catt_repro::workloads::registry::all_workloads;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// What a run may hold beyond its footprint: the lowered program, the
/// simulator's per-launch state, the expectation and the outputs read
/// back to compare with it.
const SLACK_BYTES: usize = 1 << 20;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// The system allocator, counting live bytes and their peak.
struct Counted;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result unchanged; the counters around the call neither
// allocate nor touch allocator state.
unsafe impl GlobalAlloc for Counted {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static COUNTED: Counted = Counted;

#[test]
fn a_validated_run_peaks_within_its_device_footprint() {
    // Functional execution: the same host orchestration and data, without
    // the timing model's caches, which the footprint does not cover.
    set_functional_execution(true);
    let cfg = eval_config_max_l1d();
    let mut rows = Vec::new();
    let mut over = Vec::new();
    for w in all_workloads() {
        let kernels = w.kernels();
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        (w.run)(&kernels, &cfg, true);
        let peak = PEAK.load(Ordering::Relaxed) - base;
        let footprint = last_mem_footprint().expect("the run recorded its footprint");
        rows.push(format!(
            "{:>6}: peak {peak:>9} B, footprint {footprint:>9} B",
            w.abbrev
        ));
        if peak > footprint + SLACK_BYTES {
            over.push(w.abbrev);
        }
    }
    set_functional_execution(false);
    assert!(
        over.is_empty(),
        "peak over footprint + {SLACK_BYTES} B: {over:?}\n{}",
        rows.join("\n")
    );
}
