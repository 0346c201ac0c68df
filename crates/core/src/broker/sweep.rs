//! The live sweep: the second matchmaking step (§6.1, the ≈ 3 s "selection"
//! of Table I) — one live query per shortlisted site, windowed by
//! `BrokerConfig::live_query_fanout`, each attempt racing a deadline and
//! feeding the membership failure detector.
//!
//! A query is two kernel events — request delivered and served, reply
//! delivered — and at 1 000 sites a job stands behind some 430 queries, so
//! neither is a closure: each is a [`TypedEvent`] naming `(sweep, site,
//! attempt, leg)`, received by the sweep receiver the broker builds when it
//! is built. The deadlines are not events of their own: a sweep keeps one
//! timer, armed at or before the earliest deadline of its unsettled
//! attempts, which times out whatever is due when it fires and re-arms at
//! the next deadline; a reply cancels nothing. The sweeps themselves live in
//! the broker's [`SweepTable`]; a sweep that is over waits in the broker's
//! stages for its selection event, holding what selection needs.

use std::collections::VecDeque;
use std::sync::Arc;

use cg_jdl::Ad;
use cg_net::{delivery_outcome, Dir};
use cg_sim::{EventId, Sim, SimDuration, SimTime, TypedEvent};
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
    /// The unsettled attempts — `(site, attempt, deadline)`, at most one per
    /// fan-out slot, in launch order and so in deadline order: every attempt
    /// waits the same `timeout`. A reply that does not find its attempt here
    /// lost the race to the deadline and does nothing.
    live: Vec<(usize, u32, SimTime)>,
    /// The sweep's one deadline event. Whenever `live` is not empty it is
    /// armed, at or before the first deadline in `live` (the attempt it was
    /// armed for may have been answered since); only while it fires is it
    /// `None` with attempts live.
    timer: Option<EventId>,
    /// Each answering site's shared machine ad — the allocation the site
    /// itself and (until the site changes) the MDS snapshot hold — in
    /// site-index order.
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
            timer: None,
            collected: Vec::with_capacity(pending.len()),
            pending,
            then,
            fanout,
            service: SimDuration::from_secs_f64(config.live_query_service_s),
            timeout: config.live_query_timeout,
        }
    }

    /// Claims an attempt for its reply, unless its deadline got here first.
    /// `remove` keeps `live` in launch order; it holds at most `fanout`
    /// entries.
    fn take_live(&mut self, site_index: usize, attempt: u32) -> bool {
        let Some(at) = self
            .live
            .iter()
            .position(|&(s, a, _)| (s, a) == (site_index, attempt))
        else {
            return false;
        };
        self.live.remove(at);
        true
    }

    /// Files an answer in site-index order. Answers come nearly in the
    /// shortlist's order, which is site-index order, so the place is found
    /// from the back and the finished sweep needs no sort.
    fn collect(&mut self, site_index: usize, ad: Arc<Ad>) {
        let at = self
            .collected
            .iter()
            .rposition(|&(i, _)| i < site_index)
            .map_or(0, |before| before + 1);
        self.collected.insert(at, (site_index, ad));
    }

    /// Takes out the first unsettled attempt if its deadline is `now` or
    /// earlier.
    fn take_due(&mut self, now: SimTime) -> Option<(usize, u32)> {
        let &(site_index, attempt, deadline) = self.live.first()?;
        (deadline <= now).then(|| {
            self.live.remove(0);
            (site_index, attempt)
        })
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
    /// The sweep's timer: some attempt's `live_query_timeout` may have run
    /// out.
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
                    if let Some(timer) = sweep.timer {
                        sim.cancel(timer);
                    }
                    let (then, collected) = (sweep.then, sweep.collected);
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
/// the site's service time, and its deadline joins the sweep's `live` list
/// (arming the sweep's timer if no attempt was live). Whichever of reply and
/// deadline settles first decides the outcome: a reply takes its attempt
/// off the list, and a reply that comes after its deadline is dropped on
/// the floor. Every settled attempt feeds the membership failure detector
/// via [`InformationIndex::report_query`].
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
    let request = SweepEvent {
        serial,
        site_index,
        attempt,
        leg: Leg::Request,
    };
    let receiver = &inner.sweep_receiver;
    inner.sites[site_index].broker_link.send_event(
        sim,
        Dir::AToB,
        QUERY_BYTES,
        sweep.service,
        receiver,
        request.pack(),
    );
    let deadline = sim.now().saturating_add(sweep.timeout);
    // With attempts live the timer is armed no later than this deadline —
    // or it is firing, and re-arms at the first deadline when it is done.
    if sweep.live.is_empty() && sweep.timer.is_none() {
        sweep.timer = Some(sim.schedule_event_at(deadline, receiver, timer_event(serial)));
    }
    sweep.live.push((site_index, attempt, deadline));
}

/// The event of sweep `serial`'s timer.
fn timer_event(serial: u32) -> TypedEvent {
    SweepEvent {
        serial,
        site_index: 0,
        attempt: 0,
        leg: Leg::Deadline,
    }
    .pack()
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
            Leg::Deadline => self.sweep_timer(sim, serial),
            Leg::Retry => live_query_attempt(sim, self, serial, site_index, attempt),
        }
    }

    /// Sweep `serial`'s timer fired: times out every attempt whose deadline
    /// has come, in launch order, then re-arms at the next deadline. (A
    /// finishing sweep cancels its timer, so the sweep is still there.)
    fn sweep_timer(&self, sim: &mut Sim, serial: u32) {
        let now = sim.now();
        if let Some(sweep) = self.inner.borrow_mut().sweeps.get_mut(serial) {
            sweep.timer = None;
        }
        loop {
            let (site_index, attempt) = {
                let mut guard = self.inner.borrow_mut();
                let inner = &mut *guard;
                let Some(sweep) = inner.sweeps.get_mut(serial) else {
                    return; // the last timeout finished the sweep
                };
                let Some((site_index, attempt)) = sweep.take_due(now) else {
                    // A launch onto an empty `live` list may have armed it.
                    if let (None, Some(&(_, _, next))) = (sweep.timer, sweep.live.first()) {
                        let event = timer_event(serial);
                        sweep.timer =
                            Some(sim.schedule_event_at(next, &inner.sweep_receiver, event));
                    }
                    return;
                };
                inner.trace.record(
                    now,
                    Event::LiveQueryTimeout {
                        job: sweep.job.0,
                        site: inner.site_name(site_index),
                        attempt,
                    },
                );
                (site_index, attempt)
            };
            live_query_settle(sim, self, serial, site_index, attempt, None);
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
            let taken = inner
                .sweeps
                .get_mut(serial)
                .is_some_and(|sweep| sweep.take_live(site_index, attempt));
            if !taken {
                return;
            }
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
        if let Some(ad) = ad {
            sweep.collect(site_index, ad);
        }
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
mod tests;
