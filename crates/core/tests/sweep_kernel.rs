//! The live sweep's kernel budget: how many events one more shortlisted
//! site costs a job.
//!
//! A matched job live-queries every site on its shortlist (§6.1), so at
//! 1 000 sites each event a query schedules is paid some 430 times per
//! placement. A query schedules two — its request and its reply; the
//! attempts' deadlines share one timer per sweep, which a reply leaves
//! alone. Every schedule call takes the next `seq`, so the `seq` span of a
//! probe scheduled before the job and one scheduled after it counts them.

use cg_jdl::JobDescription;
use cg_net::{Link, LinkProfile};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{Site, SiteConfig};
use crossbroker::{BrokerConfig, CrossBroker, JobState, SiteHandle};

/// The `seq` of an event scheduled now, cancelled at once.
fn probe(sim: &mut Sim) -> u64 {
    let id = sim.schedule_in(SimDuration::from_secs(1), |_| {});
    sim.cancel(id);
    id.raw()
}

/// Schedule calls from the submission of one exclusive interactive job to
/// 30 s later — discovery, a fan-out-8 live sweep of all `sites` sites,
/// selection, commit and the start of the job — on an idle grid between two
/// index refreshes and before the first fair-share tick.
fn schedule_calls_of_one_matched_job(sites: usize) -> u64 {
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

    let before = probe(&mut sim);
    let id = broker.submit(&mut sim, job, SimDuration::from_secs(600));
    sim.run_until(settled + SimDuration::from_secs(30));
    let calls = probe(&mut sim) - before - 1;

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
    calls
}

#[test]
fn a_live_query_schedules_two_events() {
    let (few, many) = (64, 256);
    let (at_few, at_many) = (
        schedule_calls_of_one_matched_job(few),
        schedule_calls_of_one_matched_job(many),
    );
    let per_site = (at_many as f64 - at_few as f64) / (many - few) as f64;
    assert!(
        per_site <= 2.0,
        "{per_site:.2} schedule calls per shortlisted site \
         ({at_few} for the job over {few} sites, {at_many} over {many})"
    );
}
