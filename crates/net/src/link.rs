//! A bidirectional simulated link: profile + fault schedule + in-order
//! delivery bookkeeping.
//!
//! `Link` is a cheap clonable handle. Messages sent in one direction are
//! delivered in send order (TCP-stream discipline): each delivery is clamped
//! to be no earlier than the previous one in that direction.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use cg_sim::{EventId, Receiver, Sim, SimDuration, SimTime, TypedEvent};

use crate::fault::FaultSchedule;
use crate::profile::LinkProfile;

/// Direction of travel over a [`Link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// From the A endpoint to the B endpoint.
    AToB,
    /// From the B endpoint to the A endpoint.
    BToA,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::AToB => Dir::BToA,
            Dir::BToA => Dir::AToB,
        }
    }
}

/// Why a network operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The link was down when the operation started.
    LinkDown,
    /// The link went down while the message was in flight.
    BrokenMidTransfer,
    /// The remote side did not answer within the deadline.
    Timeout,
    /// Authentication (GSI-lite handshake) was rejected.
    AuthFailed,
    /// Nothing is listening at the remote endpoint.
    ConnectionRefused,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NetError::LinkDown => "link down",
            NetError::BrokenMidTransfer => "link failed mid-transfer",
            NetError::Timeout => "timeout",
            NetError::AuthFailed => "authentication failed",
            NetError::ConnectionRefused => "connection refused",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NetError {}

/// A delivery outcome as the tag byte of a [`TypedEvent`].
fn outcome_tag(outcome: Result<(), NetError>) -> u8 {
    match outcome {
        Ok(()) => 0,
        Err(NetError::LinkDown) => 1,
        Err(NetError::BrokenMidTransfer) => 2,
        Err(NetError::Timeout) => 3,
        Err(NetError::AuthFailed) => 4,
        Err(NetError::ConnectionRefused) => 5,
    }
}

/// How the message behind an event scheduled by [`Link::send_event`] fared —
/// what [`Link::send`] would have passed to its callback.
///
/// # Panics
/// Panics on an event `send_event` did not schedule.
pub fn delivery_outcome(event: TypedEvent) -> Result<(), NetError> {
    match event.tag {
        0 => Ok(()),
        1 => Err(NetError::LinkDown),
        2 => Err(NetError::BrokenMidTransfer),
        3 => Err(NetError::Timeout),
        4 => Err(NetError::AuthFailed),
        5 => Err(NetError::ConnectionRefused),
        tag => panic!("event tag {tag} is not a delivery outcome"),
    }
}

/// Per-link traffic counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Messages successfully delivered.
    pub delivered: u64,
    /// Messages that failed (link down or broken mid-transfer).
    pub failed: u64,
    /// Payload bytes successfully delivered.
    pub bytes: u64,
}

struct Inner {
    profile: LinkProfile,
    faults: FaultSchedule,
    /// Per-direction last scheduled delivery instant (stream ordering).
    last_delivery: [SimTime; 2],
    stats: LinkStats,
}

/// A bidirectional point-to-point link. Clones share state.
#[derive(Clone)]
pub struct Link {
    inner: Rc<RefCell<Inner>>,
}

impl Link {
    /// Creates a link with the given profile and no outages.
    pub fn new(profile: LinkProfile) -> Self {
        Link::with_faults(profile, FaultSchedule::none())
    }

    /// Creates a link with a fault schedule.
    pub fn with_faults(profile: LinkProfile, faults: FaultSchedule) -> Self {
        Link {
            inner: Rc::new(RefCell::new(Inner {
                profile,
                faults,
                last_delivery: [SimTime::ZERO; 2],
                stats: LinkStats::default(),
            })),
        }
    }

    /// The link's profile (cloned; profiles are small).
    pub fn profile(&self) -> LinkProfile {
        self.inner.borrow().profile.clone()
    }

    /// `f` applied to the link's profile in place, without the clone
    /// [`Link::profile`] makes.
    pub fn with_profile<T>(&self, f: impl FnOnce(&LinkProfile) -> T) -> T {
        f(&self.inner.borrow().profile)
    }

    /// The profile's [`LinkProfile::nominal_rtt`], read in place.
    pub fn nominal_rtt(&self) -> SimDuration {
        self.inner.borrow().profile.nominal_rtt()
    }

    /// Is the link down at `t`?
    pub fn is_down(&self, t: SimTime) -> bool {
        self.inner.borrow().faults.is_down(t)
    }

    /// When the outage covering `t` ends, if one does.
    pub fn up_at(&self, t: SimTime) -> Option<SimTime> {
        self.inner.borrow().faults.up_at(t)
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> LinkStats {
        self.inner.borrow().stats
    }

    /// Sends `bytes` in direction `dir`. Exactly one of the outcomes is
    /// scheduled:
    /// - delivered: `on` runs with `Ok(())` at the (in-order) delivery instant;
    /// - link down at send time: `on` runs with `Err(LinkDown)` after the
    ///   failure-detection delay;
    /// - link fails while in flight: `on` runs with `Err(BrokenMidTransfer)`
    ///   at the moment the outage starts.
    ///
    /// The callback runs on the **receiving** side for `Ok`, on the sending
    /// side for `Err` — model code decides what those mean.
    pub fn send(
        &self,
        sim: &mut Sim,
        dir: Dir,
        bytes: u64,
        on: impl FnOnce(&mut Sim, Result<(), NetError>) + 'static,
    ) {
        self.send_held(sim, dir, bytes, SimDuration::ZERO, on);
    }

    /// [`Link::send`], except that a delivered message's `Ok` callback runs
    /// `hold` after the delivery instant — the receiver's processing time
    /// folded into the delivery event ([`crate::rpc_call`]'s service step).
    /// Everything else is `send`'s: see [`Link::decide`].
    pub(crate) fn send_held(
        &self,
        sim: &mut Sim,
        dir: Dir,
        bytes: u64,
        hold: SimDuration,
        on: impl FnOnce(&mut Sim, Result<(), NetError>) + 'static,
    ) {
        let (when, outcome) = self.decide(sim, dir, bytes, hold);
        sim.schedule_at(when, move |sim| on(sim, outcome));
    }

    /// `send` with a `hold` (see [`crate::rpc_call`]), for a sender that
    /// schedules typed events instead of closures: the same message, decided
    /// the same way at the same instant, but what fires is `event` for
    /// `receiver`, with its `tag` replaced by the outcome
    /// ([`delivery_outcome`] reads it back). Allocates nothing.
    pub fn send_event(
        &self,
        sim: &mut Sim,
        dir: Dir,
        bytes: u64,
        hold: SimDuration,
        receiver: &Receiver,
        event: TypedEvent,
    ) -> EventId {
        let (when, outcome) = self.decide(sim, dir, bytes, hold);
        let tag = outcome_tag(outcome);
        sim.schedule_event_at(when, receiver, TypedEvent { tag, ..event })
    }

    /// Everything about one message except the event that reports it: the
    /// fault checks, the RNG draw, the in-order bookkeeping and the counters
    /// happen now and describe the delivery itself. Returns the outcome and
    /// the instant the sender's callback (for `Err`) or the receiver's (for
    /// `Ok`, `hold` after the delivery) is due.
    fn decide(
        &self,
        sim: &mut Sim,
        dir: Dir,
        bytes: u64,
        hold: SimDuration,
    ) -> (SimTime, Result<(), NetError>) {
        /// How long a sender takes to notice a dead link (TCP timeout
        /// analogue).
        const FAIL_DETECT: SimDuration = SimDuration::from_millis(200);
        let now = sim.now();
        let mut inner = self.inner.borrow_mut();
        if inner.faults.is_down(now) {
            inner.stats.failed += 1;
            return (now.saturating_add(FAIL_DETECT), Err(NetError::LinkDown));
        }
        let flight = inner.profile.one_way(sim.rng(), bytes);
        let slot = match dir {
            Dir::AToB => 0,
            Dir::BToA => 1,
        };
        let arrival = (now + flight).max(inner.last_delivery[slot]);
        if !inner.faults.clear_between(now, arrival) {
            // The outage interrupts this transfer; the sender learns when the
            // outage begins (its TCP stream resets).
            inner.stats.failed += 1;
            let fail_at = inner
                .faults
                .next_outage_after(now)
                .map(|(s, _)| s)
                .unwrap_or(arrival);
            return (fail_at.max(now), Err(NetError::BrokenMidTransfer));
        }
        inner.last_delivery[slot] = arrival;
        inner.stats.delivered += 1;
        inner.stats.bytes += bytes;
        (arrival.saturating_add(hold), Ok(()))
    }
}

impl fmt::Debug for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Link")
            .field("profile", &inner.profile.name)
            .field("stats", &inner.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_sim::{Sim, SimRng};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn delivery_happens_after_one_way_delay() {
        let mut sim = Sim::new(1);
        let link = Link::new(LinkProfile::loopback());
        let delivered = Rc::new(RefCell::new(None));
        let d = Rc::clone(&delivered);
        link.send(&mut sim, Dir::AToB, 100, move |sim, r| {
            assert!(r.is_ok());
            *d.borrow_mut() = Some(sim.now());
        });
        sim.run();
        let t = delivered.borrow().unwrap();
        assert!(t > SimTime::ZERO);
        assert!(t.as_secs_f64() < 1e-3, "loopback delivery took {t}");
        assert_eq!(link.stats().delivered, 1);
        assert_eq!(link.stats().bytes, 100);
    }

    #[test]
    fn same_direction_messages_deliver_in_order() {
        let mut sim = Sim::new(7);
        // High jitter relative to latency would reorder without clamping.
        let mut p = LinkProfile::campus();
        p.jitter_s = p.base_latency_s; // extreme jitter
        let link = Link::with_faults(p, FaultSchedule::none());
        let arrivals: Rc<RefCell<Vec<(u32, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..50u32 {
            let a = Rc::clone(&arrivals);
            link.send(&mut sim, Dir::AToB, 10, move |sim, r| {
                assert!(r.is_ok());
                a.borrow_mut().push((i, sim.now()));
            });
        }
        sim.run();
        let arrivals = arrivals.borrow();
        for w in arrivals.windows(2) {
            assert!(w[0].0 < w[1].0, "messages arrived out of order");
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn send_during_outage_fails_with_link_down() {
        let mut sim = Sim::new(1);
        let faults = FaultSchedule::from_windows(vec![(SimTime::ZERO, SimTime::from_secs(10))]);
        let link = Link::with_faults(LinkProfile::campus(), faults);
        let result = Rc::new(RefCell::new(None));
        let r2 = Rc::clone(&result);
        link.send(&mut sim, Dir::AToB, 10, move |_, r| {
            *r2.borrow_mut() = Some(r);
        });
        sim.run();
        assert_eq!(*result.borrow(), Some(Err(NetError::LinkDown)));
        assert_eq!(link.stats().failed, 1);
        // The error surfaced after the detection delay, not instantly.
        assert!(sim.now() >= SimTime::ZERO + SimDuration::from_millis(200));
    }

    #[test]
    fn outage_mid_transfer_breaks_the_send() {
        let mut sim = Sim::new(1);
        // Outage begins 1 µs after the send; WAN latency is ms-scale, so the
        // message is in flight when the link dies.
        let faults =
            FaultSchedule::from_windows(vec![(SimTime::from_nanos(1_000), SimTime::from_secs(5))]);
        let link = Link::with_faults(LinkProfile::wan_ifca(), faults);
        let result = Rc::new(RefCell::new(None));
        let r2 = Rc::clone(&result);
        link.send(&mut sim, Dir::AToB, 10_000, move |_, r| {
            *r2.borrow_mut() = Some(r);
        });
        sim.run();
        assert_eq!(*result.borrow(), Some(Err(NetError::BrokenMidTransfer)));
    }

    #[test]
    fn opposite_directions_do_not_serialize_each_other() {
        let mut sim = Sim::new(3);
        let link = Link::new(LinkProfile::campus());
        let times: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        for dir in [Dir::AToB, Dir::BToA] {
            let t = Rc::clone(&times);
            link.send(&mut sim, dir, 1_000_000, move |sim, r| {
                assert!(r.is_ok());
                t.borrow_mut().push(sim.now());
            });
        }
        sim.run();
        let times = times.borrow();
        // Both large transfers complete at roughly the same instant — full
        // duplex, no head-of-line blocking across directions.
        let diff = (times[0].as_secs_f64() - times[1].as_secs_f64()).abs();
        assert!(diff < 0.05 * times[0].as_secs_f64().max(times[1].as_secs_f64()) + 1e-3);
    }

    /// The sends of one run as they reported: `(which send, when, outcome)`
    /// in firing order.
    type Reports = Vec<(u64, SimTime, Result<(), NetError>)>;
    /// [`Reports`], then the link's counters, the next draw of the sim's
    /// random stream and the number of events executed.
    type Reported = (Reports, (u64, u64, u64), u64, u64);

    /// Forty sends, 7.3 ms apart, both directions, some held, across two
    /// outages: `send(sim, link, i, dir, bytes, hold)` makes the `i`-th.
    fn seeded_sends(
        seed: u64,
        log: &Rc<RefCell<Reports>>,
        mut sim: Sim,
        send: impl Fn(&mut Sim, &Link, u64, Dir, u64, SimDuration) + Clone + 'static,
    ) -> Reported {
        let ms = SimDuration::from_millis;
        let faults = FaultSchedule::from_windows(vec![
            (SimTime::ZERO + ms(50), SimTime::ZERO + ms(80)),
            (SimTime::ZERO + ms(200), SimTime::ZERO + ms(230)),
        ]);
        let link = Link::with_faults(LinkProfile::wan_ifca(), faults);
        let mut plan = SimRng::new(seed ^ 0x5EED);
        for i in 0..40u64 {
            let dir = if plan.chance(0.5) {
                Dir::AToB
            } else {
                Dir::BToA
            };
            let bytes = 100 + plan.u64() % 50_000;
            let hold = ms(plan.u64() % 3 * 40);
            let (link, send) = (link.clone(), send.clone());
            sim.schedule_at(SimTime::ZERO + ms(73) * i / 10, move |sim| {
                send(sim, &link, i, dir, bytes, hold);
            });
        }
        sim.run();
        let stats = link.stats();
        (
            log.take(),
            (stats.delivered, stats.failed, stats.bytes),
            sim.rng().u64(),
            sim.events_executed(),
        )
    }

    #[test]
    fn send_event_is_send_held_with_the_outcome_in_the_tag() {
        let mut outcomes = std::collections::BTreeSet::new();
        for seed in 0..16 {
            let log = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&log);
            let held = seeded_sends(
                seed,
                &log,
                Sim::new(seed),
                move |sim, link, i, dir, b, h| {
                    let sink = Rc::clone(&sink);
                    link.send_held(sim, dir, b, h, move |sim, r| {
                        sink.borrow_mut().push((i, sim.now(), r));
                    });
                },
            );

            let sink = Rc::clone(&log);
            let receiver: Receiver = Rc::new(move |sim, event| {
                assert_eq!(event.aux, 0xA5A5, "only the tag is the link's");
                let entry = (event.payload, sim.now(), delivery_outcome(event));
                sink.borrow_mut().push(entry);
            });
            let typed = seeded_sends(
                seed,
                &log,
                Sim::new(seed),
                move |sim, link, i, dir, b, h| {
                    let event = TypedEvent {
                        tag: 0xFF,
                        aux: 0xA5A5,
                        payload: i,
                    };
                    link.send_event(sim, dir, b, h, &receiver, event);
                },
            );

            assert_eq!(held, typed, "seed {seed}");
            assert_eq!(held.0.len(), 40, "every send reported exactly once");
            outcomes.extend(held.0.iter().map(|(_, _, r)| outcome_tag(*r)));
        }
        assert_eq!(
            outcomes.into_iter().collect::<Vec<_>>(),
            [
                Ok(()),
                Err(NetError::LinkDown),
                Err(NetError::BrokenMidTransfer)
            ]
            .map(outcome_tag),
            "the schedule covers a delivery, a dead link and a cut transfer"
        );
    }

    #[test]
    fn dir_flip() {
        assert_eq!(Dir::AToB.flip(), Dir::BToA);
        assert_eq!(Dir::BToA.flip(), Dir::AToB);
    }
}
