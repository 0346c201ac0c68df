//! A counting wrapper around the system allocator.
//!
//! This VM exposes no PMU, so heap allocations per unit of work stand in
//! for an instruction count: they are exact and repeat to within a handful
//! on the deterministic sim (std seeds `HashMap`'s hasher per process).
//! Counting is off except around the one untimed repeat that reports it, so
//! timed repeats pay two relaxed loads per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator; the `perf` binary installs it as `#[global_allocator]`.
pub struct CountingAlloc;

fn note(size: usize) {
    // Relaxed: the counters are statistics read after the counted region
    // ends on the same thread; they publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` via this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and bytes requested inside one counted region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// Runs `f` with counting on. Returns zeros when [`CountingAlloc`] is not
/// the global allocator (library tests).
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let (c0, b0) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ENABLED.store(true, Ordering::Relaxed);
    let r = f();
    ENABLED.store(false, Ordering::Relaxed);
    let count = AllocCount {
        calls: CALLS.load(Ordering::Relaxed) - c0,
        bytes: BYTES.load(Ordering::Relaxed) - b0,
    };
    (r, count)
}

/// Runs `f` with counting off, restoring the previous state afterwards: the
/// benchmark's own bookkeeping inside a counted region (the reference
/// kernel) must not be charged to the code under test.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = ENABLED.swap(false, Ordering::Relaxed);
    let r = f();
    ENABLED.store(was, Ordering::Relaxed);
    r
}
