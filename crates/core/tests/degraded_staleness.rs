//! Regression tests for the degraded-matchmaking staleness bound.
//!
//! The old code bounded degraded mode on the index-global `refreshed_at()`
//! — the instant the last refresh *cycle* ran. But a site whose publish
//! path is down keeps its old column while the cycle stamp advances, so
//! per-site `published_at` can lag `refreshed_at` arbitrarily: degraded
//! mode would match onto ancient columns while believing them fresh.
//! The fix bounds each site on its own `published_at`, drops
//! over-the-bound sites from the shortlist, and fails the job only when
//! *no* column is trustworthy.

use std::cell::RefCell;
use std::rc::Rc;

use cg_jdl::JobDescription;
use cg_net::{FaultSchedule, Link, LinkProfile};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{MembershipConfig, Policy, Site, SiteConfig};
use cg_trace::Event;
use crossbroker::{BrokerConfig, CrossBroker, JobId, JobState, SiteHandle};

const INTERACTIVE: &str = r#"
    Executable = "iapp"; JobType = "interactive";
    MachineAccess = "exclusive"; User = "alice";
"#;

/// Two sites. `stalestar` has more nodes, so its (stale) column wins the
/// default free-CPUs rank — but its publish path dies at t=100, freezing
/// `published_at(0)` at 0 while refresh cycles keep advancing
/// `refreshed_at`. `fresh` publishes cleanly throughout. Membership
/// thresholds are raised sky-high so the failure detector never hides
/// the stale site: what's under test is the staleness bound itself.
fn partitioned_grid(sim: &mut Sim, fresh_down_too: bool) -> CrossBroker {
    let mut handles = Vec::new();
    for (name, nodes) in [("stalestar", 8), ("fresh", 2)] {
        let site = Site::new(SiteConfig {
            name: name.into(),
            nodes,
            policy: Policy::Fifo,
            ..SiteConfig::default()
        });
        handles.push(SiteHandle {
            site,
            broker_link: Link::new(LinkProfile::campus()),
            ui_link: Link::new(LinkProfile::campus()),
        });
    }
    let forever = (SimTime::from_secs(100), SimTime::from_secs(1_000_000));
    let mut publish_faults = vec![FaultSchedule::from_windows(vec![forever])];
    if fresh_down_too {
        publish_faults.push(FaultSchedule::from_windows(vec![forever]));
    }
    let config = BrokerConfig {
        publish_faults,
        degraded_max_staleness: SimDuration::from_secs(900),
        index_refresh: SimDuration::from_secs(300),
        membership: MembershipConfig {
            suspect_after_missed_refreshes: 1_000,
            suspect_after_failed_queries: 1_000,
            dead_after_missed_refreshes: 2_000,
            dead_after_failed_queries: 2_000,
            rejoin_probation_refreshes: 2,
        },
        ..BrokerConfig::default()
    };
    // The broker→MDS path is dead the whole run: every discovery query
    // fails, forcing the degraded fallback onto the broker's own index.
    let mds = Link::with_faults(
        LinkProfile::wan_mds(),
        FaultSchedule::from_windows(vec![(SimTime::ZERO, SimTime::from_secs(1_000_000))]),
    );
    CrossBroker::new(sim, handles, mds, config)
}

/// Submits one interactive job at t=1000 — when `stalestar`'s column is
/// 1000 s old (over the 900 s bound) but the last refresh cycle ran at
/// t=900 (under it, which is exactly what fooled the old global check).
fn submit_at_1000(sim: &mut Sim, broker: &CrossBroker) -> Rc<RefCell<Option<JobId>>> {
    let id = Rc::new(RefCell::new(None));
    let id2 = Rc::clone(&id);
    let broker = broker.clone();
    sim.schedule_in(SimDuration::from_secs(1000), move |sim| {
        let job = JobDescription::parse(INTERACTIVE).unwrap();
        *id2.borrow_mut() = Some(broker.submit(sim, job, SimDuration::from_secs(60)));
    });
    id
}

#[test]
fn degraded_mode_refuses_sites_whose_own_column_aged_past_the_bound() {
    let mut sim = Sim::new(41);
    let broker = partitioned_grid(&mut sim, false);
    let id = submit_at_1000(&mut sim, &broker);
    sim.run_until(SimTime::from_secs(2000));
    let id = id.borrow().expect("job submitted");

    let record = broker.record(id);
    assert!(
        matches!(record.state, JobState::Done),
        "job must complete on the trusted site: {:?}",
        record.state
    );
    let events = broker.event_log().snapshot();
    let dispatched: Vec<&str> = events
        .iter()
        .filter_map(|e| match &e.event {
            Event::JobDispatched { job, target, .. } if *job == id.0 => Some(&**target),
            _ => None,
        })
        .collect();
    // The old global bound saw staleness = now − refreshed_at ≈ 100 s,
    // trusted the whole snapshot, and ranked `stalestar`'s frozen
    // 8-free-CPUs column first. The per-site bound drops it.
    assert_eq!(dispatched, vec!["site:fresh"], "{events:?}");
    let degraded: Vec<u64> = events
        .iter()
        .filter_map(|e| match &e.event {
            Event::DegradedMatch { job, staleness_ns } if *job == id.0 => Some(*staleness_ns),
            _ => None,
        })
        .collect();
    assert_eq!(degraded.len(), 1, "degraded fallback must be traced");
    let staleness_s = degraded[0] as f64 / 1e9;
    assert!(
        (100.0..115.0).contains(&staleness_s),
        "reported staleness must be the worst *trusted* column's age \
         (fresh's ≈100 s), got {staleness_s}s"
    );
}

#[test]
fn degraded_mode_fails_only_when_no_column_is_trustworthy() {
    let mut sim = Sim::new(42);
    // Both publish paths die at t=100: by t=1000 every column is over
    // the bound, even though the refresh cycle stamp is only 100 s old.
    // The old global check would happily match on 1000 s-old data here;
    // the fix refuses.
    let broker = partitioned_grid(&mut sim, true);
    let id = submit_at_1000(&mut sim, &broker);
    sim.run_until(SimTime::from_secs(2000));
    let id = id.borrow().expect("job submitted");

    let record = broker.record(id);
    assert!(
        matches!(record.state, JobState::Failed { .. }),
        "no trustworthy column ⇒ the job must fail, not match on ancient \
         data: {:?}",
        record.state
    );
    let events = broker.event_log().snapshot();
    assert!(
        !events
            .iter()
            .any(|e| matches!(&e.event, Event::DegradedMatch { job, .. } if *job == id.0)),
        "no degraded match may be recorded when every column is distrusted"
    );
}
