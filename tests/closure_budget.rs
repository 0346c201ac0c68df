//! The closure budget and the drain gate of the typed-event design.
//!
//! Every step a job takes after submission — GSI legs, GRAM two-phase
//! commit and staging, LRMS dispatch and timers, the MDS query, the live
//! sweep, agent start-up and direct submission, console start-up, the
//! broker's own timers — is a typed event whose state waits in a slab slot.
//! So a day of jobs schedules no closure once the arrivals are in the queue
//! ([`Sim::boxed_scheduled`] stays where set-up left it), and once the day
//! has drained every slab is empty, only the periodic refresh is pending,
//! and the broker goes when the world is dropped.

use cg_jdl::JobDescription;
use cg_net::Link;
use cg_sim::{Sim, SimDuration, SimRng, SimTime};
use cg_workloads::{crossgrid_testbed, synthetic_grid};
use crossbroker::{BrokerConfig, CrossBroker, JobState, SiteHandle};

/// The job mix of the benchmark's testbed day: batch, shared and exclusive
/// interactive jobs in both streaming modes, and 2-node MPICH-G2 jobs both
/// ways. Job `k` of a day.
fn jdl(k: usize) -> (String, u64) {
    let mode = if k.is_multiple_of(2) {
        "fast"
    } else {
        "reliable"
    };
    match k % 8 {
        0..=3 => (
            format!(
                "Executable = \"batch_{k}\"; JobType = \"batch\"; User = \"user{}\";\n\
                 Requirements = member(\"CROSSGRID\", other.Tags);\n\
                 Rank = 0 - other.QueueDepth;",
                k % 5
            ),
            600 + (k as u64 * 37) % 1_800,
        ),
        4 => (
            format!(
                "Executable = \"shared_{k}\"; JobType = \"interactive\";\n\
                 MachineAccess = \"shared\"; StreamingMode = \"{mode}\";\n\
                 PerformanceLoss = 10; User = \"user{}\";",
                k % 5
            ),
            300,
        ),
        5 => (
            format!(
                "Executable = \"exclusive_{k}\"; JobType = \"interactive\";\n\
                 MachineAccess = \"exclusive\"; StreamingMode = \"{mode}\";\n\
                 User = \"user{}\"; Rank = other.FreeCpus * other.SpeedFactor;",
                k % 5
            ),
            400,
        ),
        access => (
            format!(
                "Executable = \"g2_{k}\"; JobType = {{\"interactive\", \"mpich-g2\"}};\n\
                 NodeNumber = 2; StreamingMode = \"reliable\"; PerformanceLoss = 10;\n\
                 MachineAccess = \"{}\"; User = \"user{}\";\n\
                 Requirements = other.FreeCpus >= NodeNumber;",
                if access == 6 { "shared" } else { "exclusive" },
                k % 5
            ),
            500,
        ),
    }
}

/// Schedules `jobs` arrivals 30 s apart on `broker`, as the benchmark does:
/// one closure per arrival, all in the queue before the first fires.
fn arrivals(sim: &mut Sim, broker: &CrossBroker, jobs: usize) -> SimTime {
    for k in 0..jobs {
        let broker = broker.clone();
        let at = SimTime::from_secs(60 + 30 * k as u64);
        sim.schedule_at(at, move |sim| {
            let (text, runtime) = jdl(k);
            let job = JobDescription::parse(&text).expect("the mix parses");
            broker.submit(sim, job, SimDuration::from_secs(runtime));
        });
    }
    SimTime::from_secs(60 + 30 * jobs as u64)
}

/// Runs a day on `broker` and checks the closure budget and the drain gate.
/// `quiet` is an instant after the drain at which no refresh sweep is open.
fn day_drains_without_closures(mut sim: Sim, broker: CrossBroker, jobs: usize, quiet: SimTime) {
    arrivals(&mut sim, &broker, jobs);
    let set_up = sim.boxed_scheduled();
    sim.run_until(quiet);
    assert_eq!(
        sim.boxed_scheduled() - set_up,
        0,
        "a step after submission boxed a closure"
    );

    let records = broker.records();
    assert_eq!(records.len(), jobs, "every arrival was submitted");
    let started = records.iter().filter(|r| r.started_at.is_some()).count();
    assert!(
        started * 2 > jobs,
        "the day ran its jobs: {started} of {jobs}"
    );
    assert!(
        records
            .iter()
            .all(|r| matches!(r.state, JobState::Done | JobState::Failed { .. })),
        "the day drained"
    );
    assert_eq!(broker.steps_in_flight(), 0, "a slab kept a step");
    assert_eq!(
        sim.pending(),
        1,
        "only the information index's refresh is due"
    );

    let gone = broker.downgrade();
    drop(broker);
    drop(sim);
    assert!(gone.upgrade().is_none(), "the broker outlived its world");
}

#[test]
fn a_testbed_day_boxes_no_closure_after_submission_and_drains_clean() {
    let mut rng = SimRng::new(0x51);
    let scenario = crossgrid_testbed(&mut rng, false);
    let handles = (0..scenario.sites.len())
        .map(|i| SiteHandle {
            site: scenario.sites[i].0.clone(),
            broker_link: scenario.broker_site_link(i),
            ui_link: scenario.ui_site_link(i),
        })
        .collect();
    let mut sim = Sim::new(7);
    let broker = CrossBroker::new(
        &mut sim,
        handles,
        scenario.mds_link(),
        BrokerConfig::default(),
    );
    // Eight hours after the last arrival; the legacy refresh is a single
    // event at a time, so any instant is quiet.
    day_drains_without_closures(sim, broker, 240, SimTime::from_secs(8 * 3_600 + 7_260));
}

#[test]
fn a_windowed_grid_day_boxes_no_closure_after_submission_and_drains_clean() {
    let mut rng = SimRng::new(0x51);
    let grid = synthetic_grid(&mut rng, 100, 32);
    let handles = grid
        .sites
        .iter()
        .zip(&grid.link_profiles)
        .map(|(site, profile)| SiteHandle {
            site: site.clone(),
            broker_link: Link::new(profile.clone()),
            ui_link: Link::new(profile.clone()),
        })
        .collect();
    let config = BrokerConfig {
        live_query_fanout: 8,
        refresh_fanout: 8,
        publish_latency: grid.publish_latency.clone(),
        ..BrokerConfig::default()
    };
    let refresh = config.index_refresh;
    let mut sim = Sim::new(7);
    let mds = Link::new(cg_net::LinkProfile::wan_mds());
    let broker = CrossBroker::new(&mut sim, handles, mds, config);
    // Just before a refresh tick, long after the previous sweep closed.
    let ticks = (6 * 3_600) / refresh.as_nanos().div_ceil(1_000_000_000);
    let quiet = SimTime::ZERO + refresh * ticks - SimDuration::from_secs(1);
    day_drains_without_closures(sim, broker, 120, quiet);
}
