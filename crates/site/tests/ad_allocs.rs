//! The machine ad's allocation budget: what writing an attribute and making
//! a site's next ad cost in heap allocations.
//!
//! Every site makes a new machine ad whenever an MDS refresh or a live query
//! finds its state changed, so on the paper's 18-site testbed that is paid
//! several times per job. An attribute is one allocation holding its
//! lower-cased key and its spelling, and a string or list value is one
//! shared allocation too, so a copy of the ad copies neither; the next ad is
//! the previous one with its three dynamic attributes overwritten in place.
//! This test counts, because the benchmark's `allocs_per_op` bound (12 %)
//! would let a rebuilt ad, a copied name or a copied value creep back
//! unnoticed.
//!
//! The file holds one test on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cg_jdl::{Ad, Value};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{LocalJobSpec, Site, SiteConfig};

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

#[test]
fn writing_an_attribute_and_making_the_next_machine_ad_allocate_twice() {
    // Overwriting a value in the spelling it was set with keeps the name.
    let mut ad = Ad::new();
    ad.set_int("FreeCpus", 4).set_str("Site", "uab");
    let ((), calls) = counted(|| {
        ad.set_int("FreeCpus", 3).set_bool("FreeCpus", false);
    });
    assert_eq!(calls, 0, "a same-spelling overwrite allocated");
    assert_eq!(ad.iter().next(), Some(("FreeCpus", &Value::Bool(false))));
    // Another spelling is another name to print: one allocation.
    let ((), calls) = counted(|| {
        ad.set_int("FREECPUS", 2);
    });
    assert_eq!(calls, 1);

    // The next machine ad after a state change: the `Arc` and the attribute
    // vector — nothing per name, string or list, however many there are.
    let config = || SiteConfig {
        tags: vec!["CROSSGRID".into(), "MPICH-G2".into(), "HEP".into()],
        ..SiteConfig::default()
    };
    let mut sim = Sim::new(1);
    let site = Site::new(config());
    let first = site.machine_ad_arc();
    site.lrms().submit(
        &mut sim,
        LocalJobSpec::simple(SimDuration::from_secs(100)),
        |_, _, _| {},
    );
    sim.run_until(SimTime::from_secs(10));
    let (next, calls) = counted(|| site.machine_ad_arc());
    assert_ne!(
        next.get("FreeCpus"),
        first.get("FreeCpus"),
        "the state changed"
    );
    let strings = next
        .iter()
        .filter(|(_, v)| matches!(v, Value::Str(_) | Value::List(_)))
        .count();
    assert_eq!(strings, 4, "Arch, OpSys, Site and the three-tag Tags list");
    assert_eq!(calls, 2, "allocations for the next machine ad");
    // Shared, not copied: the patched ad's string and list values are the
    // first ad's allocations.
    for ((_, a), (_, b)) in first.iter().zip(next.iter()) {
        match (a, b) {
            (Value::Str(a), Value::Str(b)) => assert!(std::sync::Arc::ptr_eq(a, b)),
            (Value::List(a), Value::List(b)) => assert!(std::sync::Arc::ptr_eq(a, b)),
            _ => {}
        }
    }
    let (again, calls) = counted(|| site.machine_ad_arc());
    assert_eq!(calls, 0, "an unchanged state hands out the same ad");
    assert!(std::sync::Arc::ptr_eq(&next, &again));

    // The patched ad is the one a site in that state builds on its first read.
    let mut sim = Sim::new(1);
    let fresh = Site::new(config());
    fresh.lrms().submit(
        &mut sim,
        LocalJobSpec::simple(SimDuration::from_secs(100)),
        |_, _, _| {},
    );
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(*next, *fresh.machine_ad_arc());
}
