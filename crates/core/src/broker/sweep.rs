//! The live sweep: the second matchmaking step (§6.1, the ≈ 3 s "selection"
//! of Table I) — one live query per shortlisted site, windowed by
//! `BrokerConfig::live_query_fanout`, each attempt racing a deadline and
//! feeding the membership failure detector.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use cg_jdl::Ad;
use cg_net::{rpc_call, Dir};
use cg_sim::{Sim, SimDuration};
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
    /// Each answering site's shared machine ad — the allocation the site
    /// itself and (until the site changes) the MDS snapshot hold.
    collected: Vec<(usize, Arc<Ad>)>,
    done: Option<SweepDone>,
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
    let sweep = Rc::new(RefCell::new(LiveQuerySweep {
        broker,
        job,
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
        live_query_attempt(sim, Rc::clone(sweep), site_index, 1);
    }
}

/// One live-query attempt against a site. The RPC races a per-attempt
/// deadline; whichever settles first decides the outcome, and the loser —
/// usually a late response — is dropped on the floor. Every settled
/// attempt feeds the membership failure detector via
/// [`InformationIndex::report_query`].
fn live_query_attempt(
    sim: &mut Sim,
    sweep: Rc<RefCell<LiveQuerySweep>>,
    site_index: usize,
    attempt: u32,
) {
    let (job, link, site, service, timeout) = {
        let s = sweep.borrow();
        let inner = s.broker.inner.borrow();
        (
            s.job,
            inner.sites[site_index].broker_link.clone(),
            inner.sites[site_index].site.clone(),
            SimDuration::from_secs_f64(inner.config.live_query_service_s),
            inner.config.live_query_timeout,
        )
    };
    let settled = Rc::new(Cell::new(false));

    let settled_rpc = Rc::clone(&settled);
    let sweep_rpc = Rc::clone(&sweep);
    let ad_site = site.clone();
    rpc_call(sim, &link, Dir::AToB, 300, 1_200, service, move |sim, r| {
        if settled_rpc.replace(true) {
            return; // the deadline already wrote this attempt off
        }
        let ad = r.is_ok().then(|| ad_site.machine_ad_arc());
        live_query_settle(sim, &sweep_rpc, site_index, attempt, ad);
    });

    sim.schedule_in(timeout, move |sim| {
        if settled.replace(true) {
            return; // the response won the race
        }
        {
            let s = sweep.borrow();
            let inner = s.broker.inner.borrow();
            inner.trace.record(
                sim.now(),
                Event::LiveQueryTimeout {
                    job: job.0,
                    site: site.name().to_string(),
                    attempt,
                },
            );
        }
        live_query_settle(sim, &sweep, site_index, attempt, None);
    });
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
        live_query_attempt(sim, sweep2, site_index, next);
    });
}

#[cfg(test)]
mod tests {
    use super::{live_query_chain, CrossBroker, JobId};
    use crate::broker::SiteHandle;
    use crate::config::BrokerConfig;
    use cg_net::{Link, LinkProfile};
    use cg_sim::{Sim, SimDuration, SimTime};
    use cg_site::{LocalJobSpec, Site, SiteConfig};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    #[test]
    fn snapshot_site_and_live_sweep_share_one_machine_ad() {
        // After a refresh, and until a site's state next changes, the MDS
        // snapshot's column, the site's own shared ad and the ad a live
        // query collects are one allocation — in both refresh modes, for a
        // site that changed before the refresh and for sites that never did.
        for refresh_fanout in [0, 2] {
            let mut sim = Sim::new(5);
            let sites: Vec<Site> = (0..3)
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
            let config = BrokerConfig {
                refresh_fanout,
                ..BrokerConfig::default()
            };
            let refresh = config.index_refresh;
            let mds = Link::new(LinkProfile::wan_mds());
            let broker = CrossBroker::new(&mut sim, handles, mds, config);
            let boot = broker.index().snapshot_arc();
            sites[0].lrms().submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(86_400)),
                |_, _, _| {},
            );
            sim.run_until(SimTime::ZERO + refresh + SimDuration::from_secs(10));

            let collected = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&collected);
            live_query_chain(
                &mut sim,
                broker.clone(),
                JobId(0),
                (0..sites.len()).collect(),
                move |_, ads| *sink.borrow_mut() = ads,
            );
            sim.run_until(SimTime::ZERO + refresh + SimDuration::from_secs(60));

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
}
