//! The live sweep's allocation budget: how many heap allocations one more
//! shortlisted site costs a job.
//!
//! A matched job live-queries every site on its shortlist (§6.1), so at
//! 1 000 sites whatever a query allocates is paid some 430 times per
//! placement. The query path — two kernel events, the candidate, the
//! policy signals — is built to allocate nothing per site; this test counts,
//! because the benchmark's `allocs_per_op` bound (12 %) would let one
//! allocation per site creep back unnoticed.
//!
//! The file holds one test on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cg_jdl::JobDescription;
use cg_net::{Link, LinkProfile};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{Site, SiteConfig};
use crossbroker::{BrokerConfig, CrossBroker, JobState, SiteHandle};

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

/// Allocations from the submission of one exclusive interactive job to 30 s
/// later — discovery, a fan-out-8 live sweep of all `sites` sites, selection,
/// commit and the start of the job — on an idle grid between two index
/// refreshes and before the first fair-share tick.
fn allocations_of_one_matched_job(sites: usize) -> u64 {
    let mut sim = Sim::new(21);
    let handles = (0..sites)
        .map(|i| SiteHandle {
            site: Site::new(SiteConfig {
                name: format!("site{i:03}"),
                nodes: 4,
                ..SiteConfig::default()
            }),
            broker_link: Link::new(LinkProfile::campus()),
            ui_link: Link::new(LinkProfile::campus()),
        })
        .collect();
    let config = BrokerConfig {
        live_query_fanout: 8,
        ..BrokerConfig::default()
    };
    let settled = SimTime::ZERO + config.index_refresh + SimDuration::from_secs(10);
    let mds = Link::new(LinkProfile::wan_mds());
    let broker = CrossBroker::new(&mut sim, handles, mds, config);
    sim.run_until(settled);
    let job = JobDescription::parse(
        r#"Executable = "x"; JobType = "interactive"; MachineAccess = "exclusive";
           User = "carol";"#,
    )
    .expect("valid JDL");

    COUNTING.store(true, Ordering::Relaxed);
    let before = CALLS.load(Ordering::Relaxed);
    let id = broker.submit(&mut sim, job, SimDuration::from_secs(600));
    sim.run_until(settled + SimDuration::from_secs(30));
    let allocations = CALLS.load(Ordering::Relaxed) - before;
    COUNTING.store(false, Ordering::Relaxed);

    assert!(
        matches!(broker.record(id).state, JobState::Running { .. }),
        "the job was placed: {:?}",
        broker.record(id).state
    );
    assert_eq!(
        broker.metrics().counter("selection.live_ads_reused"),
        sites as u64,
        "every site was queried, answered and was a candidate"
    );
    allocations
}

#[test]
fn a_live_query_allocates_nothing() {
    let (few, many) = (64, 256);
    let (at_few, at_many) = (
        allocations_of_one_matched_job(few),
        allocations_of_one_matched_job(many),
    );
    let per_site = (at_many as f64 - at_few as f64) / (many - few) as f64;
    assert!(
        per_site < 1.0,
        "{per_site:.2} allocations per shortlisted site \
         ({at_few} for the job over {few} sites, {at_many} over {many})"
    );
}
