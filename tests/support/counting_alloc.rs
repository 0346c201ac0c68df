//! A counting global allocator shared by the allocation-budget tests.
//!
//! Each test includes this file with `#[path]`, installs [`Counting`] with
//! its own `#[global_allocator]` line and measures a closure with
//! [`counted`]. The counter is process-wide, so each such test file holds
//! one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `System`, counting every allocating call while [`counted`] runs.
pub struct Counting;

// Relaxed: statistics written and read by the one test thread; they publish
// no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` via this wrapper; same contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `work` and returns its result with the allocator calls it made.
pub fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    COUNTING.store(true, Ordering::Relaxed);
    let before = CALLS.load(Ordering::Relaxed);
    let out = work();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    COUNTING.store(false, Ordering::Relaxed);
    (out, calls)
}
