//! The live sweep: the second matchmaking step (§6.1, the ≈ 3 s "selection"
//! of Table I) — one live query per shortlisted site, windowed by
//! `BrokerConfig::live_query_fanout`, each attempt racing a deadline and
//! feeding the membership failure detector.
//!
//! A query is three kernel events — request delivered and served, reply
//! delivered, deadline — and at 1 000 sites a job stands behind some 430
//! queries, so none of the three is a closure: each is a [`TypedEvent`]
//! naming `(sweep, site, attempt, leg)`, received by the sweep receiver the
//! broker builds when it is built. The sweeps themselves live in the
//! broker's [`SweepTable`]; a sweep that is over waits in the broker's
//! stages for its selection event, holding what selection needs.

use std::collections::VecDeque;
use std::sync::Arc;

use cg_jdl::Ad;
use cg_net::{delivery_outcome, Dir};
use cg_sim::{EventId, Sim, SimDuration, TypedEvent};
use cg_trace::Event;

use super::discovery::Selection;
use super::events::Stage;
use super::settle::backoff_delay;
use super::CrossBroker;
use crate::config::BrokerConfig;
use crate::job::JobId;
use crate::shard::job_rng;

/// A test's own continuation of a sweep, handed the broker and the live ads.
#[cfg(test)]
type TestDone = Box<dyn FnOnce(&mut Sim, &CrossBroker, Vec<(usize, Arc<Ad>)>)>;

/// What follows a sweep: selection, with everything it needs.
// Only test builds have a second, small variant; a boxed selection would
// cost every job an allocation.
#[cfg_attr(test, allow(clippy::large_enum_variant))]
pub(super) enum AfterSweep {
    /// Re-check, pick and commit ([`CrossBroker::finish_selection`]).
    Select(Selection),
    /// A test's own continuation.
    #[cfg(test)]
    Test(TestDone),
}

/// A sweep that is over, waiting for its selection event: the index-sorted
/// live ads and what follows.
pub(super) struct FinishedSweep {
    then: AfterSweep,
    collected: Vec<(usize, Arc<Ad>)>,
}

/// In-flight state of one windowed live-query sweep over the shortlist.
struct LiveQuerySweep {
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
    then: AfterSweep,
    /// `BrokerConfig::live_query_fanout`, `live_query_service_s` and
    /// `live_query_timeout` as every attempt of this sweep uses them.
    fanout: usize,
    service: SimDuration,
    timeout: SimDuration,
}

impl LiveQuerySweep {
    fn new(config: &BrokerConfig, job: JobId, pending: VecDeque<usize>, then: AfterSweep) -> Self {
        let fanout = config.live_query_fanout.max(1);
        LiveQuerySweep {
            job,
            in_flight: 0,
            live: Vec::with_capacity(fanout.min(pending.len())),
            collected: Vec::with_capacity(pending.len()),
            pending,
            then,
            fanout,
            service: SimDuration::from_secs_f64(config.live_query_service_s),
            timeout: config.live_query_timeout,
        }
    }

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

/// The broker's sweeps in flight, by serial. Serials count up and are never
/// reused, so an event that outlives its sweep — the reply to a query whose
/// deadline already closed the sweep — looks its serial up and finds
/// nothing, whatever has started on that site since.
#[derive(Default)]
pub(super) struct SweepTable {
    /// The serial of `window[0]`.
    base: u32,
    /// `window[n]` is sweep `base + n`, `None` once it has finished.
    /// Finished sweeps leave from the front, so the window is as long as
    /// the oldest sweep in flight is old, counted in sweeps.
    window: VecDeque<Option<LiveQuerySweep>>,
}

impl SweepTable {
    fn insert(&mut self, sweep: LiveQuerySweep) -> u32 {
        let serial = u32::try_from(self.window.len())
            .ok()
            .and_then(|n| self.base.checked_add(n))
            .expect("sweep serials exhausted");
        self.window.push_back(Some(sweep));
        serial
    }

    fn get_mut(&mut self, serial: u32) -> Option<&mut LiveQuerySweep> {
        // A serial below `base` wraps to an index past any window.
        let at = serial.wrapping_sub(self.base) as usize;
        self.window.get_mut(at)?.as_mut()
    }

    fn remove(&mut self, serial: u32) -> Option<LiveQuerySweep> {
        let at = serial.wrapping_sub(self.base) as usize;
        let sweep = self.window.get_mut(at)?.take();
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.base += 1;
        }
        sweep
    }

    /// Sweeps in flight.
    pub(super) fn in_flight(&self) -> usize {
        self.window.iter().flatten().count()
    }
}

/// Which of a query's events this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// The request reached the site and was served (or failed to arrive).
    Request,
    /// The reply reached the broker (or failed to).
    Reply,
    /// The attempt's `live_query_timeout` ran out.
    Deadline,
    /// The back-off before this attempt is over: launch it.
    Retry,
}

/// What a sweep's events carry, packed into a [`TypedEvent`]'s `payload`
/// (serial, leg, site) and `aux` (attempt); `tag` is the link's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SweepEvent {
    serial: u32,
    site_index: usize,
    attempt: u32,
    leg: Leg,
}

/// Sites a broker can address in a [`SweepEvent`]: 30 bits of the payload.
pub(super) const MAX_SITES: usize = 1 << 30;
/// Attempts a [`SweepEvent`] can count: its 16 `aux` bits.
const MAX_ATTEMPT: u32 = u16::MAX as u32;

impl SweepEvent {
    fn pack(self) -> TypedEvent {
        debug_assert!(self.site_index < MAX_SITES && self.attempt <= MAX_ATTEMPT);
        let leg = match self.leg {
            Leg::Request => 0,
            Leg::Reply => 1,
            Leg::Deadline => 2,
            Leg::Retry => 3,
        };
        TypedEvent {
            tag: 0,
            aux: self.attempt as u16,
            payload: u64::from(self.serial) << 32 | leg << 30 | self.site_index as u64,
        }
    }

    fn unpack(event: TypedEvent) -> SweepEvent {
        SweepEvent {
            serial: (event.payload >> 32) as u32,
            site_index: (event.payload & (MAX_SITES as u64 - 1)) as usize,
            attempt: u32::from(event.aux),
            leg: match (event.payload >> 30) & 3 {
                0 => Leg::Request,
                1 => Leg::Reply,
                2 => Leg::Deadline,
                _ => Leg::Retry,
            },
        }
    }
}

/// Salt folded into [`job_rng`] for query-retry jitter, so the retry
/// stream never collides with the job's selection stream.
const QUERY_RETRY_SALT: u64 = 0x515259; // "QRY"

/// First live-query retry delay; each further attempt doubles it.
const QUERY_BACKOFF_BASE: SimDuration = SimDuration::from_millis(500);
/// Upper bound on the live-query retry backoff.
const QUERY_BACKOFF_MAX: SimDuration = SimDuration::from_secs(5);
/// Jitter fraction on each query retry delay, drawn from the job's own
/// deterministic RNG stream (never the wall clock).
const QUERY_BACKOFF_JITTER: f64 = 0.2;
const _: () = assert!(QUERY_BACKOFF_BASE.as_nanos() <= QUERY_BACKOFF_MAX.as_nanos());
const _: () = assert!(QUERY_BACKOFF_JITTER >= 0.0 && QUERY_BACKOFF_JITTER < 1.0);

/// Bytes of a live query and of its answer on the broker ↔ site link.
const QUERY_BYTES: u64 = 300;
const ANSWER_BYTES: u64 = 1_200;

/// A sweep with a site pending or an attempt unsettled is in the table.
const UNFINISHED: &str = "an unfinished sweep is in the table";

/// Live-queries each site in `pending`, keeping up to
/// `BrokerConfig::live_query_fanout` RPCs in flight at once. With fanout 1
/// this is exactly the paper's sequential chain (the ≈3 s selection step);
/// wider windows overlap the per-site round trips. Either way `done`
/// receives the successful ads sorted by site index — the same list in the
/// same order the sequential chain produces — so selection outcomes do not
/// depend on the fanout width, only wall-clock does.
pub(super) fn live_query_chain(
    sim: &mut Sim,
    broker: &CrossBroker,
    job: JobId,
    pending: VecDeque<usize>,
    then: AfterSweep,
) {
    let serial = {
        let mut inner = broker.inner.borrow_mut();
        let sweep = LiveQuerySweep::new(&inner.config, job, pending, then);
        inner.sweeps.insert(sweep)
    };
    live_query_pump(sim, broker, serial);
}

/// Launches queries until the fan-out window is full, and finishes the
/// sweep — takes it out of the table and schedules what follows — once nothing is
/// pending or in flight. A site's fan-out slot stays occupied across its
/// retries; it frees only when the site settles.
fn live_query_pump(sim: &mut Sim, broker: &CrossBroker, serial: u32) {
    loop {
        let site_index = {
            let mut inner = broker.inner.borrow_mut();
            let sweep = inner.sweeps.get_mut(serial).expect(UNFINISHED);
            let Some(&site_index) = sweep.pending.front() else {
                if sweep.in_flight == 0 {
                    let sweep = inner.sweeps.remove(serial).expect(UNFINISHED);
                    let (then, mut collected) = (sweep.then, sweep.collected);
                    collected.sort_by_key(|(i, _)| *i);
                    let finished = FinishedSweep { then, collected };
                    let slot = inner.stages.finished_sweeps.insert(finished);
                    drop(inner);
                    broker.schedule(sim, SimDuration::ZERO, Stage::SweepDone, slot);
                }
                return;
            };
            if sweep.in_flight >= sweep.fanout {
                return;
            }
            sweep.pending.pop_front();
            sweep.in_flight += 1;
            site_index
        };
        live_query_attempt(sim, broker, serial, site_index, 1);
    }
}

/// One live-query attempt against a site: the request leg goes out held by
/// the site's service time, and a deadline is set beside it. Whichever of
/// reply and deadline settles first decides the outcome: a reply cancels
/// the deadline it beat, and a reply that comes after its deadline is
/// dropped on the floor. Every settled attempt feeds the membership failure
/// detector via [`InformationIndex::report_query`].
fn live_query_attempt(
    sim: &mut Sim,
    broker: &CrossBroker,
    serial: u32,
    site_index: usize,
    attempt: u32,
) {
    let mut guard = broker.inner.borrow_mut();
    let inner = &mut *guard;
    let sweep = inner.sweeps.get_mut(serial).expect(UNFINISHED);
    let event = |leg| {
        SweepEvent {
            serial,
            site_index,
            attempt,
            leg,
        }
        .pack()
    };
    let receiver = &inner.sweep_receiver;
    inner.sites[site_index].broker_link.send_event(
        sim,
        Dir::AToB,
        QUERY_BYTES,
        sweep.service,
        receiver,
        event(Leg::Request),
    );
    let deadline = sim.schedule_event_in(sweep.timeout, receiver, event(Leg::Deadline));
    sweep.live.push((site_index, attempt, deadline));
}

impl CrossBroker {
    /// The receiver of every sweep's events.
    pub(super) fn on_sweep_event(&self, sim: &mut Sim, event: TypedEvent) {
        let sweep_event = SweepEvent::unpack(event);
        let SweepEvent {
            serial,
            site_index,
            attempt,
            leg,
        } = sweep_event;
        match leg {
            Leg::Request => match delivery_outcome(event) {
                // The site has answered, and the answer travels — draws its
                // flight time, counts in the link's statistics — whether or
                // not anybody is still waiting for it.
                Ok(()) => {
                    let reply = SweepEvent {
                        leg: Leg::Reply,
                        ..sweep_event
                    };
                    let inner = self.inner.borrow();
                    inner.sites[site_index].broker_link.send_event(
                        sim,
                        Dir::BToA,
                        ANSWER_BYTES,
                        SimDuration::ZERO,
                        &inner.sweep_receiver,
                        reply.pack(),
                    );
                }
                Err(_) => self.query_answered(sim, serial, site_index, attempt, false),
            },
            Leg::Reply => {
                let ok = delivery_outcome(event).is_ok();
                self.query_answered(sim, serial, site_index, attempt, ok);
            }
            Leg::Deadline => {
                {
                    let mut guard = self.inner.borrow_mut();
                    let inner = &mut *guard;
                    let Some(sweep) = inner.sweeps.get_mut(serial) else {
                        return;
                    };
                    if sweep.take_live(site_index, attempt).is_none() {
                        return; // the response won the race
                    }
                    inner.trace.record(
                        sim.now(),
                        Event::LiveQueryTimeout {
                            job: sweep.job.0,
                            site: inner.site_name(site_index),
                            attempt,
                        },
                    );
                }
                live_query_settle(sim, self, serial, site_index, attempt, None);
            }
            Leg::Retry => live_query_attempt(sim, self, serial, site_index, attempt),
        }
    }

    /// A sweep's selection event: what followed the sweep runs on the live
    /// ads it collected.
    pub(super) fn sweep_done(&self, sim: &mut Sim, slot: u64) {
        let finished = self.inner.borrow_mut().stages.finished_sweeps.remove(slot);
        let FinishedSweep { then, collected } = finished.expect("one event per finished sweep");
        match then {
            AfterSweep::Select(selection) => self.finish_selection(sim, selection, collected),
            #[cfg(test)]
            AfterSweep::Test(done) => done(sim, self, collected),
        }
    }

    /// The RPC of an attempt came back, with the site's answer or with a
    /// network error. It counts only if the attempt is still unsettled: the
    /// sweep may be over, or the deadline may have written the attempt off.
    fn query_answered(
        &self,
        sim: &mut Sim,
        serial: u32,
        site_index: usize,
        attempt: u32,
        ok: bool,
    ) {
        let ad = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let Some(deadline) = inner
                .sweeps
                .get_mut(serial)
                .and_then(|sweep| sweep.take_live(site_index, attempt))
            else {
                return;
            };
            sim.cancel(deadline);
            ok.then(|| inner.sites[site_index].site.machine_ad_arc())
        };
        live_query_settle(sim, self, serial, site_index, attempt, ad);
    }
}

/// Books the outcome of one attempt: a success collects the ad and frees
/// the slot; a failure either schedules a bounded, jittered retry (from
/// the job's own deterministic RNG stream — never the wall clock) or
/// gives the site up for this sweep.
fn live_query_settle(
    sim: &mut Sim,
    broker: &CrossBroker,
    serial: u32,
    site_index: usize,
    attempt: u32,
    ad: Option<Arc<Ad>>,
) {
    let index = broker.inner.borrow().index.clone();
    // May demote the site (Suspect/Dead) through the membership observer.
    index.report_query(sim, site_index, ad.is_some());
    let mut guard = broker.inner.borrow_mut();
    let inner = &mut *guard;
    let sweep = inner.sweeps.get_mut(serial).expect(UNFINISHED);
    let config = &inner.config;
    // An event counts attempts in 16 bits.
    let retries = config.live_query_retries.min(MAX_ATTEMPT - 1);
    // An answer settles the site; so does a spent budget, or a detector that
    // has since declared the site unhealthy — either way it is not worth
    // another attempt this sweep.
    if ad.is_some() || attempt > retries || !index.is_schedulable(site_index) {
        sweep.collected.extend(ad.map(|ad| (site_index, ad)));
        sweep.in_flight -= 1;
        drop(guard);
        live_query_pump(sim, broker, serial);
        return;
    }
    let mut rng = job_rng(
        QUERY_RETRY_SALT ^ ((site_index as u64) << 8) ^ u64::from(attempt),
        sweep.job,
    );
    let delay = backoff_delay(
        QUERY_BACKOFF_BASE,
        QUERY_BACKOFF_MAX,
        QUERY_BACKOFF_JITTER,
        attempt,
        &mut rng,
    );
    let next = attempt + 1;
    inner.trace.record(
        sim.now(),
        Event::QueryRetry {
            job: sweep.job.0,
            site: inner.site_name(site_index),
            attempt: next,
            delay_ns: delay.as_nanos(),
        },
    );
    let retry = SweepEvent {
        serial,
        site_index,
        attempt: next,
        leg: Leg::Retry,
    };
    sim.schedule_event_in(delay, &inner.sweep_receiver, retry.pack());
}

#[cfg(test)]
mod tests {
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
}
