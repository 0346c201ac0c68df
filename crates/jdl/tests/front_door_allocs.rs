//! The front door's allocation budget: how many heap allocations turning one
//! job's JDL text into an analysed [`JobDescription`] costs.
//!
//! Every job pays parse → validate → analyse before matchmaking starts, so an
//! allocation per token, per lookup or per vocabulary entry is paid per job on
//! every workload. What is left is what the job keeps: its attribute names
//! and values, the AST of `Requirements` / `Rank`, their compiled forms. This
//! test counts, because the benchmark's `allocs_per_op` bound (12 %) would
//! let an owned token or a case-folded copy per lookup creep back unnoticed.
//!
//! The file holds one test on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cg_jdl::JobDescription;

struct Counting;

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

#[global_allocator]
static ALLOC: Counting = Counting;

fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    COUNTING.store(true, Ordering::Relaxed);
    let before = CALLS.load(Ordering::Relaxed);
    let out = work();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    COUNTING.store(false, Ordering::Relaxed);
    (out, calls)
}

/// `(parse, analyze)` allocations for `src`, after one warm-up pass has built
/// the process-wide vocabularies and interned the machine attribute names.
fn front_door(src: &str) -> (u64, u64) {
    let parse = || JobDescription::parse(src).expect("valid JDL");
    let warm_up = parse().analyze();
    assert!(!warm_up.has_errors(), "{:?}", warm_up.diagnostics);
    let (job, parsing) = counted(parse);
    let (analysis, analysing) = counted(|| job.analyze());
    drop(analysis);
    (parsing, analysing)
}

#[test]
fn the_front_door_allocates_what_the_job_keeps() {
    let (parse, analyze) = front_door(include_str!("../../../examples/jdl/figure2.jdl"));
    assert!(
        parse + analyze <= 100,
        "figure2.jdl: {parse} to parse + {analyze} to analyse"
    );

    let (parse, analyze) = front_door(include_str!("../../../examples/jdl/policy_forecast.jdl"));
    assert!(
        parse + analyze <= 30,
        "policy_forecast.jdl: {parse} to parse + {analyze} to analyse"
    );
    assert_eq!(
        analyze, 0,
        "an ad with neither Requirements nor Rank has nothing to compile"
    );
}
