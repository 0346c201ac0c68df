//! The live sweep: the second matchmaking step (§6.1, the ≈ 3 s "selection"
//! of Table I) — one live query per shortlisted site, windowed by
//! `BrokerConfig::live_query_fanout`, each attempt racing a deadline and
//! feeding the membership failure detector.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use cg_jdl::Ad;
use cg_net::{rpc_call, Dir};
use cg_sim::{EventId, Sim, SimDuration};
use cg_trace::Event;

use super::settle::backoff_delay;
use super::CrossBroker;
use crate::job::JobId;
use crate::shard::job_rng;

/// Continuation invoked with the index-sorted live ads once a sweep ends.
type SweepDone = Box<dyn FnOnce(&mut Sim, Vec<(usize, Arc<Ad>)>)>;

/// In-flight state of one windowed live-query sweep over the shortlist.
struct LiveQuerySweep {
    broker: CrossBroker,
    /// The job this sweep selects for — seeds the retry-jitter stream.
    job: JobId,
    /// Site indices not yet queried, in shortlist order.
    pending: VecDeque<usize>,
    in_flight: usize,
    /// The unsettled attempts — `(site, attempt, deadline event)`, at most
    /// one per fan-out slot. A reply or a deadline that does not find its
    /// attempt here lost the race and does nothing.
    live: Vec<(usize, u32, EventId)>,
    /// Each answering site's shared machine ad — the allocation the site
    /// itself and (until the site changes) the MDS snapshot hold.
    collected: Vec<(usize, Arc<Ad>)>,
    done: Option<SweepDone>,
}

impl LiveQuerySweep {
    /// Claims an attempt for whichever of its reply and its deadline gets
    /// here first; the other one finds nothing.
    fn take_live(&mut self, site_index: usize, attempt: u32) -> Option<EventId> {
        let at = self
            .live
            .iter()
            .position(|&(s, a, _)| (s, a) == (site_index, attempt))?;
        Some(self.live.swap_remove(at).2)
    }
}

/// Salt folded into [`job_rng`] for query-retry jitter, so the retry
/// stream never collides with the job's selection stream.
const QUERY_RETRY_SALT: u64 = 0x515259; // "QRY"

/// Live-queries each site in `pending`, keeping up to
/// `BrokerConfig::live_query_fanout` RPCs in flight at once. With fanout 1
/// this is exactly the paper's sequential chain (the ≈3 s selection step);
/// wider windows overlap the per-site round trips. Either way `done`
/// receives the successful ads sorted by site index — the same list in the
/// same order the sequential chain produces — so selection outcomes do not
/// depend on the fanout width, only wall-clock does.
pub(super) fn live_query_chain(
    sim: &mut Sim,
    broker: CrossBroker,
    job: JobId,
    pending: VecDeque<usize>,
    done: impl FnOnce(&mut Sim, Vec<(usize, Arc<Ad>)>) + 'static,
) {
    let window = broker.inner.borrow().config.live_query_fanout.max(1);
    let sweep = Rc::new(RefCell::new(LiveQuerySweep {
        broker,
        job,
        live: Vec::with_capacity(window.min(pending.len())),
        pending,
        in_flight: 0,
        collected: Vec::new(),
        done: Some(Box::new(done)),
    }));
    live_query_pump(sim, &sweep);
}

/// Launches queries until the fan-out window is full, and finishes the
/// sweep once nothing is pending or in flight. A site's fan-out slot stays
/// occupied across its retries; it frees only when the site settles.
fn live_query_pump(sim: &mut Sim, sweep: &Rc<RefCell<LiveQuerySweep>>) {
    loop {
        let site_index = {
            let mut s = sweep.borrow_mut();
            let Some(&site_index) = s.pending.front() else {
                if s.in_flight == 0 {
                    if let Some(done) = s.done.take() {
                        let mut collected = std::mem::take(&mut s.collected);
                        collected.sort_by_key(|(i, _)| *i);
                        drop(s);
                        sim.schedule_now(move |sim| done(sim, collected));
                    }
                }
                return;
            };
            let fanout = s.broker.inner.borrow().config.live_query_fanout.max(1);
            if s.in_flight >= fanout {
                return;
            }
            s.pending.pop_front();
            s.in_flight += 1;
            site_index
        };
        live_query_attempt(sim, sweep, site_index, 1);
    }
}

/// One live-query attempt against a site. The RPC races a per-attempt
/// deadline; whichever settles first decides the outcome: a reply cancels
/// the deadline it beat, and a reply that comes after its deadline is
/// dropped on the floor. Every settled attempt feeds the membership failure
/// detector via [`InformationIndex::report_query`].
fn live_query_attempt(
    sim: &mut Sim,
    sweep: &Rc<RefCell<LiveQuerySweep>>,
    site_index: usize,
    attempt: u32,
) {
    let (link, service, timeout) = {
        let s = sweep.borrow();
        let inner = s.broker.inner.borrow();
        (
            inner.sites[site_index].broker_link.clone(),
            SimDuration::from_secs_f64(inner.config.live_query_service_s),
            inner.config.live_query_timeout,
        )
    };

    let sweep_rpc = Rc::clone(sweep);
    rpc_call(sim, &link, Dir::AToB, 300, 1_200, service, move |sim, r| {
        let ad = {
            let mut s = sweep_rpc.borrow_mut();
            let Some(deadline) = s.take_live(site_index, attempt) else {
                return; // the deadline already wrote this attempt off
            };
            sim.cancel(deadline);
            let inner = s.broker.inner.borrow();
            r.is_ok()
                .then(|| inner.sites[site_index].site.machine_ad_arc())
        };
        live_query_settle(sim, &sweep_rpc, site_index, attempt, ad);
    });

    let sweep_deadline = Rc::clone(sweep);
    let deadline = sim.schedule_in(timeout, move |sim| {
        {
            let mut s = sweep_deadline.borrow_mut();
            if s.take_live(site_index, attempt).is_none() {
                return; // the response won the race
            }
            let inner = s.broker.inner.borrow();
            inner.trace.record(
                sim.now(),
                Event::LiveQueryTimeout {
                    job: s.job.0,
                    site: inner.sites[site_index].site.name().to_string(),
                    attempt,
                },
            );
        }
        live_query_settle(sim, &sweep_deadline, site_index, attempt, None);
    });
    sweep
        .borrow_mut()
        .live
        .push((site_index, attempt, deadline));
}

/// Books the outcome of one attempt: a success collects the ad and frees
/// the slot; a failure either schedules a bounded, jittered retry (from
/// the job's own deterministic RNG stream — never the wall clock) or
/// gives the site up for this sweep.
fn live_query_settle(
    sim: &mut Sim,
    sweep: &Rc<RefCell<LiveQuerySweep>>,
    site_index: usize,
    attempt: u32,
    ad: Option<Arc<Ad>>,
) {
    let (broker, job) = {
        let s = sweep.borrow();
        (s.broker.clone(), s.job)
    };
    let index = broker.inner.borrow().index.clone();
    // May demote the site (Suspect/Dead) through the membership observer.
    index.report_query(sim, site_index, ad.is_some());
    if let Some(ad) = ad {
        let mut s = sweep.borrow_mut();
        s.collected.push((site_index, ad));
        s.in_flight -= 1;
        drop(s);
        live_query_pump(sim, sweep);
        return;
    }
    let (retries, base, cap, jitter, site_name) = {
        let inner = broker.inner.borrow();
        (
            inner.config.live_query_retries,
            inner.config.query_backoff_base,
            inner.config.query_backoff_max,
            inner.config.query_backoff_jitter,
            inner.sites[site_index].site.name().to_string(),
        )
    };
    // Budget spent, or the detector has since declared the site unhealthy
    // — either way it is not worth another attempt this sweep.
    if attempt > retries || !index.is_schedulable(site_index) {
        let mut s = sweep.borrow_mut();
        s.in_flight -= 1;
        drop(s);
        live_query_pump(sim, sweep);
        return;
    }
    let next = attempt + 1;
    let mut rng = job_rng(
        QUERY_RETRY_SALT ^ ((site_index as u64) << 8) ^ u64::from(attempt),
        job,
    );
    let delay = backoff_delay(base, cap, jitter, attempt, &mut rng);
    {
        let inner = broker.inner.borrow();
        inner.trace.record(
            sim.now(),
            Event::QueryRetry {
                job: job.0,
                site: site_name,
                attempt: next,
                delay_ns: delay.as_nanos(),
            },
        );
    }
    let sweep2 = Rc::clone(sweep);
    sim.schedule_in(delay, move |sim| {
        live_query_attempt(sim, &sweep2, site_index, next);
    });
}

#[cfg(test)]
mod tests {
    use super::{live_query_chain, live_query_pump, CrossBroker, JobId, LiveQuerySweep};
    use crate::broker::SiteHandle;
    use crate::config::BrokerConfig;
    use cg_net::{Link, LinkProfile};
    use cg_sim::{Sim, SimDuration, SimTime};
    use cg_site::{LocalJobSpec, Site, SiteConfig};
    use cg_trace::Event;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

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
                broker.clone(),
                JobId(0),
                (0..sites.len()).collect(),
                move |_, ads| *sink.borrow_mut() = ads,
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
        let sweep = Rc::new(RefCell::new(LiveQuerySweep {
            broker: broker.clone(),
            job: JobId(7),
            pending: (0..sites.len()).collect(),
            in_flight: 0,
            live: Vec::new(),
            collected: Vec::new(),
            done: Some(Box::new(move |_, ads| sink.borrow_mut().push(ads))),
        }));
        live_query_pump(&mut sim, &sweep);
        assert_eq!(sweep.borrow().live.len(), 2, "both sites in flight at once");
        sim.run_until(SimTime::from_secs(200));

        assert_eq!(outcomes.borrow().len(), 1, "`done` runs exactly once");
        assert!(outcomes.borrow()[0].is_empty(), "no site answered in time");
        let s = sweep.borrow();
        assert_eq!((s.in_flight, s.live.len(), s.pending.len()), (0, 0, 0));
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
                    } if s == site.name() => Some(("timeout", *attempt)),
                    Event::QueryRetry {
                        job: 7,
                        site: s,
                        attempt,
                        ..
                    } if s == site.name() => Some(("retry", *attempt)),
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
}
