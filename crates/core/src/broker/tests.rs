//! The broker's ownership and lifetime: a dropped world frees the broker,
//! and a job holds a live entry exactly until it ends.

use super::{BrokerConfig, CrossBroker, Placement, SiteHandle};
use crate::job::{JobId, JobState};
use cg_jdl::JobDescription;
use cg_net::{Link, LinkProfile};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{LocalJobSpec, Site, SiteConfig};
use std::cell::Cell;
use std::rc::Rc;

fn world(sim: &mut Sim, n: usize, config: BrokerConfig) -> (CrossBroker, Vec<Site>) {
    let (handles, mds, sites) = parts(n);
    (CrossBroker::new(sim, handles, mds, config), sites)
}

/// `n` four-node sites on campus links and an MDS link: what a broker is
/// built or recovered over.
pub(super) fn parts(n: usize) -> (Vec<SiteHandle>, Link, Vec<Site>) {
    let sites: Vec<Site> = (0..n)
        .map(|i| {
            Site::new(SiteConfig {
                name: format!("site{i}"),
                nodes: 4,
                ..SiteConfig::default()
            })
        })
        .collect();
    let handles = sites
        .iter()
        .map(|site| SiteHandle {
            site: site.clone(),
            broker_link: Link::new(LinkProfile::campus()),
            ui_link: Link::new(LinkProfile::campus()),
        })
        .collect();
    (handles, Link::new(LinkProfile::wan_mds()), sites)
}

#[test]
fn a_world_dropped_with_live_agents_and_running_jobs_is_freed() {
    // Regression: the callbacks the broker parks inside a site's LRMS and
    // an agent's VM held it strongly, the gatekeeper's LRMS callback
    // held the LRMS, and an agent held its site — so a world that ended
    // with a live glide-in agent (or any job still running) was a knot
    // of reference cycles and leaked whole.
    let mut sim = Sim::new(3);
    let (broker, _) = world(&mut sim, 3, BrokerConfig::default());
    let day = SimDuration::from_secs(86_400);
    for (jdl, runtime) in [
        // Finishes, and leaves its agent idle in the pool.
        (
            r#"Executable = "i"; JobType = "interactive"; MachineAccess = "shared";
               PerformanceLoss = 10; User = "alice";"#,
            SimDuration::from_secs(30),
        ),
        // Still on an agent's batch VM when the world ends.
        (r#"Executable = "b"; JobType = "batch"; User = "bob";"#, day),
        // Still under an LRMS when the world ends.
        (
            r#"Executable = "x"; JobType = "interactive"; MachineAccess = "exclusive";
               User = "carol";"#,
            day,
        ),
    ] {
        broker.submit(&mut sim, JobDescription::parse(jdl).unwrap(), runtime);
    }
    sim.run_until(SimTime::from_secs(900));
    assert_eq!(broker.agent_count(), 2, "both agents are live");
    assert_eq!(broker.stats().started, 3);
    assert_eq!(broker.stats().finished, 1);

    let weak = Rc::downgrade(&broker.inner);
    let agents: Vec<_> = broker
        .inner
        .borrow()
        .agents
        .values()
        .map(|e| Rc::downgrade(&e.agent))
        .collect();
    drop(broker);
    drop(sim);
    assert!(weak.upgrade().is_none(), "the broker outlived its world");
    for agent in agents {
        assert!(agent.upgrade().is_none(), "an agent outlived its world");
    }
}

#[test]
fn neither_the_sweep_handler_nor_a_sweep_in_flight_keeps_the_broker_alive() {
    let exclusive = r#"Executable = "x"; JobType = "interactive";
                       MachineAccess = "exclusive"; User = "carol";"#;
    let submit = |sim: &mut Sim, broker: &CrossBroker| {
        let job = JobDescription::parse(exclusive).unwrap();
        broker.submit(sim, job, SimDuration::from_secs(30))
    };

    // A world that ran its job to the end and is let go while the `Sim`
    // lives on, the index's refresh cycle with it: the broker's
    // receivers reach the broker through a `Weak`.
    let mut sim = Sim::new(3);
    let (broker, sites) = world(&mut sim, 3, BrokerConfig::default());
    let id = submit(&mut sim, &broker);
    sim.run_until(SimTime::from_secs(3_600));
    assert!(matches!(broker.record(id).state, JobState::Done));
    let weak = Rc::downgrade(&broker.inner);
    drop(broker);
    assert!(weak.upgrade().is_none(), "something in the sim holds on");
    sim.run_until(SimTime::from_secs(7_200));
    drop(sites);

    // A world that ends in the middle of a sweep: the table owns the
    // sweep and the sweep owns its continuation, which must not own the
    // broker back.
    let mut sim = Sim::new(3);
    let (broker, _sites) = world(&mut sim, 3, BrokerConfig::default());
    submit(&mut sim, &broker);
    while broker.inner.borrow().sweeps.in_flight() == 0 {
        assert!(sim.step(), "the job reaches its sweep");
    }
    let weak = Rc::downgrade(&broker.inner);
    drop(broker);
    drop(sim);
    assert!(weak.upgrade().is_none(), "the broker outlived its world");
}

/// Runs `sim` one event at a time through `until` (the marker scheduled
/// there fires after every event due earlier), calling `check` after each.
fn step_through(sim: &mut Sim, until: u64, check: &impl Fn()) {
    let reached = Rc::new(Cell::new(false));
    let flag = Rc::clone(&reached);
    sim.schedule_at(SimTime::from_secs(until), move |_| flag.set(true));
    while !reached.get() {
        assert!(sim.step(), "the day runs through {until} s");
        check();
    }
}

#[test]
fn a_job_has_a_live_entry_exactly_until_it_ends() {
    // A mixed day through every submission path and every terminal
    // transition: finished (five paths, one a co-allocation over two
    // sites), rejected by the JDL gate, failed, cancelled while running and
    // cancelled while parked. After every event the live entries are the
    // jobs that have not ended.
    let mut sim = Sim::new(17);
    let (broker, sites) = world(&mut sim, 3, BrokerConfig::default());
    let coallocated = Cell::new(None);
    let (most_sites, most_subjobs) = (Cell::new(0), Cell::new(0));
    let check = || {
        let inner = broker.inner.borrow();
        let mut live: Vec<JobId> = inner.live.keys().copied().collect();
        let mut ongoing = Vec::new();
        inner.jobs.for_each(|id, r| {
            if !matches!(r.state, JobState::Done | JobState::Failed { .. }) {
                ongoing.push(id);
            }
        });
        live.sort_unstable();
        ongoing.sort_unstable();
        assert_eq!(
            live,
            ongoing,
            "after {} trace events",
            inner.trace.recorded()
        );
        if let Some(entry) = coallocated.get().and_then(|id| inner.live.get(&id)) {
            let mut at: Vec<usize> = entry
                .placements
                .iter()
                .filter_map(|p| match p {
                    Placement::Site { site_index, .. } => Some(*site_index),
                    _ => None,
                })
                .collect();
            at.sort_unstable();
            at.dedup();
            most_sites.set(most_sites.get().max(at.len()));
            most_subjobs.set(most_subjobs.get().max(entry.subjobs));
        }
    };
    broker.predeploy_agent(&mut sim, 0, |_, ok| assert!(ok));
    step_through(&mut sim, 300, &check);
    let submit = |sim: &mut Sim, jdl: &str, secs: u64| {
        let job = JobDescription::parse(jdl).unwrap();
        broker.submit(sim, job, SimDuration::from_secs(secs))
    };
    let shared = r#"Executable = "i"; JobType = "interactive"; MachineAccess = "shared";
                    PerformanceLoss = 10; User = "alice";"#;
    let exclusive = r#"Executable = "x"; JobType = "interactive";
                       MachineAccess = "exclusive"; User = "carol";"#;
    let batch = r#"Executable = "b"; JobType = "batch"; User = "bob";"#;
    submit(&mut sim, shared, 60);
    submit(&mut sim, batch, 120);
    submit(&mut sim, exclusive, 60);
    step_through(&mut sim, 900, &check);
    // Five nodes on 4-node sites: a co-allocation over at least two.
    coallocated.set(Some(submit(
        &mut sim,
        r#"Executable = "g"; JobType = {"interactive", "mpich-g2"}; NodeNumber = 5;
           User = "carol";"#,
        60,
    )));
    step_through(&mut sim, 1_500, &check);
    submit(
        &mut sim,
        r#"Executable = "p"; JobType = {"interactive", "mpich-p4"}; NodeNumber = 3;
           MachineAccess = "shared"; User = "dora";"#,
        60,
    );
    submit(
        &mut sim,
        r#"Executable = "r"; JobType = "batch"; User = "eve";
           Requirements = other.NoSuchAttribute > 1;"#,
        60,
    );
    submit(
        &mut sim,
        r#"Executable = "f"; JobType = {"interactive", "mpich-g2"}; NodeNumber = 64;
           User = "carol";"#,
        60,
    );
    let running = submit(&mut sim, exclusive, 5_000);
    step_through(&mut sim, 2_400, &check);
    assert!(broker.cancel(&mut sim, running), "cancelled while running");
    check();
    // Saturate every site beyond its queue-admission bound so a batch
    // job parks in the broker, then cancel it there.
    for site in &sites {
        for _ in 0..24 {
            site.lrms().submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(400)),
                |_, _, _| {},
            );
        }
    }
    step_through(&mut sim, 2_500, &check);
    let parked = submit(&mut sim, batch, 60);
    step_through(&mut sim, 2_600, &check);
    assert!(matches!(
        broker.record(parked).state,
        JobState::BrokerQueued
    ));
    assert!(broker.cancel(&mut sim, parked), "cancelled while parked");
    check();
    step_through(&mut sim, 20_000, &check);

    assert!(
        most_sites.get() >= 2 && most_subjobs.get() >= 2,
        "the co-allocation ran on {} sites, {} subjobs",
        most_sites.get(),
        most_subjobs.get()
    );
    let stats = broker.stats();
    assert!(stats.finished >= 5, "every path finished a job: {stats:?}");
    assert!(stats.rejected >= 1 && stats.failed + stats.rejected >= 2);
    assert_eq!(stats.cancelled, 2);
    assert_eq!(
        stats.finished + stats.failed + stats.rejected + stats.cancelled,
        stats.submitted,
        "the day drained: {stats:?}"
    );
    let inner = broker.inner.borrow();
    assert!(inner.live.is_empty(), "live: {}", inner.live.len());
    assert!(inner.queue.is_empty(), "queue: {}", inner.queue.len());
}
