//! The sweep's outcomes: answered queries leave nothing queued, deadlines
//! and late replies, answer order, and sweeps that outlive one another.

use super::{AfterSweep, CrossBroker, JobId};
use crate::broker::SiteHandle;
use crate::config::BrokerConfig;
use cg_net::{Link, LinkProfile};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{LocalJobSpec, Site, SiteConfig};
use cg_trace::Event;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Starts a sweep whose end runs `done`.
fn live_query_chain(
    sim: &mut Sim,
    broker: &CrossBroker,
    job: JobId,
    pending: std::collections::VecDeque<usize>,
    done: impl FnOnce(&mut Sim, &CrossBroker, Vec<(usize, Arc<cg_jdl::Ad>)>) + 'static,
) {
    super::live_query_chain(sim, broker, job, pending, AfterSweep::Test(Box::new(done)));
}

/// A broker over `n` four-node sites whose broker links share `profile`;
/// returns the sites and (clones of) those links beside it.
fn small_grid(
    sim: &mut Sim,
    n: usize,
    profile: &LinkProfile,
    config: BrokerConfig,
) -> (CrossBroker, Vec<Site>, Vec<Link>) {
    let sites: Vec<Site> = (0..n)
        .map(|i| {
            Site::new(SiteConfig {
                name: format!("site{i}"),
                nodes: 4,
                ..SiteConfig::default()
            })
        })
        .collect();
    let links: Vec<Link> = (0..n).map(|_| Link::new(profile.clone())).collect();
    let handles = sites
        .iter()
        .zip(&links)
        .map(|(site, link)| SiteHandle {
            site: site.clone(),
            broker_link: link.clone(),
            ui_link: Link::new(LinkProfile::campus()),
        })
        .collect();
    let mds = Link::new(LinkProfile::wan_mds());
    let broker = CrossBroker::new(sim, handles, mds, config);
    (broker, sites, links)
}

#[test]
fn snapshot_site_and_live_sweep_share_one_machine_ad() {
    // After a refresh, and until a site's state next changes, the MDS
    // snapshot's column, the site's own shared ad and the ad a live
    // query collects are one allocation — in both refresh modes, for a
    // site that changed before the refresh and for sites that never did.
    for refresh_fanout in [0, 2] {
        let mut sim = Sim::new(5);
        let config = BrokerConfig {
            refresh_fanout,
            ..BrokerConfig::default()
        };
        let refresh = config.index_refresh;
        let (broker, sites, _) = small_grid(&mut sim, 3, &LinkProfile::campus(), config);
        let boot = broker.index().snapshot_arc();
        sites[0].lrms().submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(86_400)),
            |_, _, _| {},
        );
        sim.run_until(SimTime::ZERO + refresh + SimDuration::from_secs(10));

        let pending_before = sim.pending();
        let collected = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&collected);
        live_query_chain(
            &mut sim,
            &broker,
            JobId(0),
            (0..sites.len()).collect(),
            move |_, _, ads| *sink.borrow_mut() = ads,
        );
        // Short of the 60 s deadlines: an answered query took its own
        // deadline out of the queue, it did not wait for it to fire.
        sim.run_until(SimTime::ZERO + refresh + SimDuration::from_secs(60));
        assert_eq!(
            sim.pending(),
            pending_before,
            "the sweep left events behind"
        );

        let snap = broker.index().snapshot_arc();
        assert_eq!(snap.free_cpus(0), 3, "the refresh published the busy node");
        assert!(!Arc::ptr_eq(snap.ad_arc(0), boot.ad_arc(0)));
        assert!(Arc::ptr_eq(snap.ad_arc(1), boot.ad_arc(1)));
        let collected = collected.borrow();
        assert_eq!(collected.len(), sites.len(), "every site answered");
        for (i, live) in collected.iter() {
            assert!(
                Arc::ptr_eq(live, snap.ad_arc(*i)),
                "site {i}: sweep vs snapshot"
            );
            assert!(
                Arc::ptr_eq(live, &sites[*i].machine_ad_arc()),
                "site {i}: sweep vs site"
            );
        }
    }
}

#[test]
fn answers_are_collected_in_site_index_order() {
    // A jittery link and a fan-out of four: answers land out of order,
    // and the sweep is handed a shortlist that is not sorted either.
    let profile = LinkProfile {
        jitter_s: 0.05,
        ..LinkProfile::campus()
    };
    let config = BrokerConfig {
        live_query_fanout: 4,
        ..BrokerConfig::default()
    };
    let mut sim = Sim::new(3);
    let (broker, sites, _) = small_grid(&mut sim, 12, &profile, config);
    let order = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&order);
    live_query_chain(
        &mut sim,
        &broker,
        JobId(1),
        [5, 0, 11, 3, 7, 1, 10, 2, 8, 4, 9, 6].into(),
        move |_, _, ads| *sink.borrow_mut() = ads.iter().map(|(i, _)| *i).collect(),
    );
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(*order.borrow(), (0..sites.len()).collect::<Vec<_>>());
}

#[test]
fn a_deadline_that_beats_the_reply_retries_and_late_replies_are_ignored() {
    // One-way latency 10 s, deadline 9.9 s: every attempt times out, and
    // its reply (sent all the same: the request did arrive) lands at
    // ≈ 20.1 s after the launch — while the *next* attempt, launched
    // ≈ 0.5 s after the timeout, is still waiting for its own.
    let profile = LinkProfile {
        base_latency_s: 10.0,
        jitter_s: 0.0,
        ..LinkProfile::campus()
    };
    let config = BrokerConfig {
        live_query_fanout: 2,
        live_query_timeout: SimDuration::from_secs_f64(9.9),
        ..BrokerConfig::default()
    };
    let attempts = config.live_query_retries + 1;
    let mut sim = Sim::new(9);
    let (broker, sites, links) = small_grid(&mut sim, 2, &profile, config);

    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&outcomes);
    live_query_chain(
        &mut sim,
        &broker,
        JobId(7),
        (0..sites.len()).collect(),
        move |_, _, ads| sink.borrow_mut().push(ads),
    );
    {
        let mut inner = broker.inner.borrow_mut();
        let sweep = inner
            .sweeps
            .get_mut(0)
            .expect("the first sweep is serial 0");
        assert_eq!(sweep.live.len(), 2, "both sites in flight at once");
    }
    sim.run_until(SimTime::from_secs(200));

    assert_eq!(outcomes.borrow().len(), 1, "`done` runs exactly once");
    assert!(outcomes.borrow()[0].is_empty(), "no site answered in time");
    assert_eq!(broker.inner.borrow().sweeps.in_flight(), 0);
    for link in &links {
        let stats = link.stats();
        assert_eq!(
            (stats.delivered, stats.failed),
            (2 * u64::from(attempts), 0),
            "every request and every (late) reply was delivered"
        );
    }
    // Per site: timeout 1, retry 2, timeout 2, …, timeout `attempts`.
    let events = broker.event_log().snapshot();
    for site in &sites {
        let seen: Vec<(&str, u32)> = events
            .iter()
            .filter_map(|e| match &e.event {
                Event::LiveQueryTimeout {
                    job: 7,
                    site: s,
                    attempt,
                } if &**s == site.name() => Some(("timeout", *attempt)),
                Event::QueryRetry {
                    job: 7,
                    site: s,
                    attempt,
                    ..
                } if &**s == site.name() => Some(("retry", *attempt)),
                _ => None,
            })
            .collect();
        let expected: Vec<(&str, u32)> = (1..=attempts)
            .flat_map(|a| [("retry", a), ("timeout", a)])
            .skip(1)
            .collect();
        assert_eq!(seen, expected, "{}", site.name());
    }
}

#[test]
fn a_reply_that_outlives_its_sweep_is_not_credited_to_the_next_one() {
    // One site, 10 s each way. Sweep A allows 9.9 s and no retry: it ends
    // empty at 9.9 s with its request still on the wire; the site
    // answers all the same, and that reply lands at ≈ 20.1 s. By then
    // sweep B — the same site, and its first attempt too — has been
    // waiting since 15 s, on a deadline that can afford the round trip.
    // A's reply names A's serial, finds no such sweep and is dropped: B
    // ends when its own reply lands at ≈ 35.1 s, not at 20.1 s.
    let profile = LinkProfile {
        base_latency_s: 10.0,
        jitter_s: 0.0,
        ..LinkProfile::campus()
    };
    let config = BrokerConfig {
        live_query_timeout: SimDuration::from_secs_f64(9.9),
        live_query_retries: 0,
        ..BrokerConfig::default()
    };
    let mut sim = Sim::new(9);
    let (broker, _sites, links) = small_grid(&mut sim, 1, &profile, config);
    let ended = Rc::new(RefCell::new(Vec::new()));
    let start = |sim: &mut Sim, job: u64| {
        let sink = Rc::clone(&ended);
        live_query_chain(sim, &broker, JobId(job), [0].into(), move |sim, _, ads| {
            sink.borrow_mut().push((job, sim.now(), ads.len()));
        });
    };

    start(&mut sim, 1);
    sim.run_until(SimTime::from_secs(15));
    let timed_out = SimTime::ZERO + SimDuration::from_secs_f64(9.9);
    assert_eq!(*ended.borrow(), [(1, timed_out, 0)]);
    assert_eq!(links[0].stats().delivered, 2, "A's reply is on its way");

    broker.inner.borrow_mut().config.live_query_timeout = SimDuration::from_secs(60);
    start(&mut sim, 2);
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(ended.borrow().len(), 1, "A's reply did not end B");
    assert_eq!(broker.inner.borrow().sweeps.in_flight(), 1);

    sim.run_until(SimTime::from_secs(100));
    let (job, at, ads) = ended.borrow()[1];
    assert_eq!((job, ads), (2, 1), "B collected its own site's answer");
    assert!(
        at > SimTime::from_secs(35) && at < SimTime::from_secs(36),
        "B ended at {at}"
    );
    assert_eq!(broker.inner.borrow().sweeps.in_flight(), 0);
    assert_eq!(links[0].stats().delivered, 4);
}
