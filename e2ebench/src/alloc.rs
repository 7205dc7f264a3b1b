//! A counting global allocator over [`System`]: relaxed atomic counters of
//! allocation calls and of live heap bytes (with their peak), so runs can
//! report exact allocations per line, per address and per publish, and
//! peak heap use, without any change to the program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocation calls (including reallocations) process-wide.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

/// Allocations made by every thread since the process started.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Restarts the heap peak at the bytes live now, and returns them. Pass
/// the result to [`peak_mib_above`] to get the peak of what was allocated
/// since, without the benchmark's own data that was live already.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The most heap bytes live at once since [`reset_peak`] returned `base`,
/// above `base`, in MiB. Unlike the resident set, it does not depend on
/// how the C allocator's per-thread arenas happen to return memory after
/// a daemon shuts down.
pub fn peak_mib_above(base: u64) -> f64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(base) as f64 / (1024.0 * 1024.0)
}

/// Runs `f` and returns its result with the allocations made meanwhile.
/// Exact only while no other thread allocates.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = count();
    let out = f();
    (out, count() - before)
}
