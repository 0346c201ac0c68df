//! Session-level transport: connection establishment with a configurable
//! handshake ([`Handshake`], a value its caller steps on typed events), and
//! request/response RPC on top of [`Link`].
//!
//! The number of handshake legs is the knob that differentiates transports in
//! the paper's comparison: plain TCP (3 legs), ssh (TCP + key exchange), and
//! GSI-secured channels (TCP + TLS-style exchange + proxy-certificate
//! verification) all pay different setup costs, and Glogin pays the GSI cost
//! on its data path too.

use cg_sim::{Receiver, Sim, SimDuration, TypedEvent};

use crate::link::{delivery_outcome, Dir, Link, NetError};

/// Handshake shape for establishing a session.
#[derive(Debug, Clone)]
pub struct HandshakeProfile {
    /// Alternating message legs exchanged before the session is usable
    /// (TCP SYN/SYN-ACK/ACK = 3).
    pub legs: u32,
    /// Bytes carried by each leg (certificates make GSI legs fat).
    pub leg_bytes: u64,
    /// Fixed CPU time spent at each end (crypto, certificate checks), seconds.
    pub cpu_s: f64,
}

impl HandshakeProfile {
    /// Plain TCP three-way handshake.
    pub fn tcp() -> Self {
        HandshakeProfile {
            legs: 3,
            leg_bytes: 60,
            cpu_s: 50e-6,
        }
    }

    /// GSI-lite: TCP + TLS-style exchange + proxy-certificate verification.
    /// Used by the Grid Console ("all the network communications are
    /// GSI-enabled", §4).
    pub fn gsi() -> Self {
        HandshakeProfile {
            legs: 9,
            leg_bytes: 1_800, // certificate chains
            cpu_s: 18e-3,     // 2006-era RSA verification
        }
    }
}

/// A connection being established: the handshake legs still to run, as a
/// value the caller keeps — in a slab slot of its own — and steps on each
/// event the handshake scheduled for the caller's [`Receiver`].
///
/// One event per leg, plus the hand-off: each leg's delivery event is held
/// `cpu_s` past the delivery instant — the endpoint's processing before it
/// answers — and sends the next leg itself, as [`rpc_call`]'s request does
/// its reply; after the last leg the hand-off is scheduled at once, and
/// stepping on it reports the connection up. A failed leg reports its
/// error in its own delivery event. Nothing here allocates.
///
/// Connections do not own the link; several can multiplex one link (each
/// MPICH-G2 subjob's Console Agent connects to the shadow over the same
/// site-to-UI path).
#[derive(Clone)]
pub struct Handshake {
    link: Link,
    /// The direction the next leg travels.
    leg_dir: Dir,
    /// Legs not yet delivered; zero once the hand-off is scheduled.
    left: u32,
    leg_bytes: u64,
    cpu: SimDuration,
}

impl Handshake {
    /// Starts the handshake over `link`, the client sending the first leg
    /// in direction `dir`. Every event it schedules is `event` for
    /// `receiver`, the `tag` aside (the link's outcome); hand each one to
    /// [`Handshake::step`].
    pub fn start(
        sim: &mut Sim,
        link: Link,
        dir: Dir,
        profile: &HandshakeProfile,
        receiver: &Receiver,
        event: TypedEvent,
    ) -> Handshake {
        let handshake = Handshake {
            link,
            leg_dir: dir,
            left: profile.legs,
            leg_bytes: profile.leg_bytes,
            cpu: SimDuration::from_secs_f64(profile.cpu_s),
        };
        handshake.next(sim, receiver, event);
        handshake
    }

    /// Sends the next leg, or schedules the hand-off after the last one.
    fn next(&self, sim: &mut Sim, receiver: &Receiver, event: TypedEvent) {
        if self.left == 0 {
            sim.schedule_event_now(receiver, TypedEvent { tag: 0, ..event });
        } else {
            let (dir, bytes) = (self.leg_dir, self.leg_bytes);
            self.link
                .send_event(sim, dir, bytes, self.cpu, receiver, event);
        }
    }

    /// Steps on `event`, one this handshake scheduled: `None` while legs
    /// remain (the next one is on its way), the failed leg's error, or
    /// `Ok` on the hand-off.
    pub fn step(
        &mut self,
        sim: &mut Sim,
        receiver: &Receiver,
        event: TypedEvent,
    ) -> Option<Result<(), NetError>> {
        if self.left == 0 {
            return Some(Ok(()));
        }
        if let Err(e) = delivery_outcome(event) {
            return Some(Err(e));
        }
        self.left -= 1;
        self.leg_dir = self.leg_dir.flip();
        self.next(sim, receiver, event);
        None
    }

    /// The link the connection runs over.
    pub fn link(&self) -> &Link {
        &self.link
    }
}

/// One request/response exchange: request travels `dir`, the server spends
/// `service` processing, the response returns. `on` receives the first error
/// or `Ok` at response delivery.
///
/// Two scheduled events on the happy path: the request's delivery event is
/// held `service` past the delivery instant and sends the reply itself, so
/// the reply's fault check, RNG draw and bookkeeping happen at
/// arrive + `service`, where a separate service event would make them.
pub fn rpc_call(
    sim: &mut Sim,
    link: &Link,
    dir: Dir,
    req_bytes: u64,
    resp_bytes: u64,
    service: SimDuration,
    on: impl FnOnce(&mut Sim, Result<(), NetError>) + 'static,
) {
    let reply_link = link.clone();
    link.send_held(sim, dir, req_bytes, service, move |sim, r| match r {
        Err(e) => on(sim, Err(e)),
        Ok(()) => reply_link.send(sim, dir.flip(), resp_bytes, on),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSchedule;
    use crate::profile::LinkProfile;
    use cg_sim::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Drives a [`Handshake`] the way a component does — the value in a
    /// slot of the caller's, stepped by the caller's receiver — and hands
    /// the outcome to `on`. The receiver holds the slot, and the slot the
    /// receiver, until the handshake ends.
    fn connect(sim: &mut Sim, link: &Link, dir: Dir, profile: &HandshakeProfile, on: OnDone) {
        type Slot = (Option<Handshake>, Option<OnDone>, Option<Receiver>);
        let slot: Rc<RefCell<Slot>> = Rc::new(RefCell::new((None, Some(on), None)));
        let state = Rc::clone(&slot);
        let receiver: Receiver = Rc::new(move |sim, event| {
            let receiver = state.borrow().2.clone().expect("live until the end");
            let mut handshake = state.borrow_mut().0.take().expect("started");
            let done = handshake.step(sim, &receiver, event);
            state.borrow_mut().0 = Some(handshake);
            if let Some(result) = done {
                let on = {
                    let mut state = state.borrow_mut();
                    state.2 = None;
                    state.1.take().expect("one outcome")
                };
                on(sim, result);
            }
        });
        let event = TypedEvent::default();
        let handshake = Handshake::start(sim, link.clone(), dir, profile, &receiver, event);
        let mut slot = slot.borrow_mut();
        slot.0 = Some(handshake);
        slot.2 = Some(receiver);
    }

    /// When a connect over `link` ended and how.
    fn connect_outcome(
        sim: &mut Sim,
        link: &Link,
        profile: &HandshakeProfile,
    ) -> (SimTime, Result<(), NetError>) {
        let done = Rc::new(RefCell::new(None));
        let d = Rc::clone(&done);
        let on: OnDone = Box::new(move |sim, r| *d.borrow_mut() = Some((sim.now(), r)));
        connect(sim, link, Dir::AToB, profile, on);
        sim.run();
        done.take().expect("the handshake ended")
    }

    #[test]
    fn tcp_connect_takes_about_one_and_a_half_rtts() {
        let mut sim = Sim::new(1);
        let link = Link::new(LinkProfile::wan_ifca());
        let (at, result) = connect_outcome(&mut sim, &link, &HandshakeProfile::tcp());
        assert_eq!(result, Ok(()));
        let t = at.as_secs_f64();
        // 3 legs ≈ 1.5 RTT ≈ 42 ms on the IFCA path (+ jitter + cpu).
        assert!((0.025..0.12).contains(&t), "tcp connect took {t}s");
    }

    #[test]
    fn gsi_connect_is_much_slower_than_tcp() {
        let time_for = |hs: HandshakeProfile| {
            let mut sim = Sim::new(2);
            let link = Link::new(LinkProfile::wan_ifca());
            let (at, result) = connect_outcome(&mut sim, &link, &hs);
            assert_eq!(result, Ok(()));
            at.as_secs_f64()
        };
        let tcp = time_for(HandshakeProfile::tcp());
        let gsi = time_for(HandshakeProfile::gsi());
        assert!(gsi > 2.0 * tcp, "gsi {gsi} tcp {tcp}");
    }

    #[test]
    fn connect_fails_when_link_is_down() {
        let mut sim = Sim::new(1);
        let faults = FaultSchedule::from_windows(vec![(SimTime::ZERO, SimTime::from_secs(60))]);
        let link = Link::with_faults(LinkProfile::campus(), faults);
        let (_, result) = connect_outcome(&mut sim, &link, &HandshakeProfile::tcp());
        assert_eq!(result, Err(NetError::LinkDown));
    }

    #[test]
    fn rpc_call_includes_service_time() {
        let mut sim = Sim::new(4);
        let link = Link::new(LinkProfile::loopback());
        let done = Rc::new(RefCell::new(None));
        let d = Rc::clone(&done);
        rpc_call(
            &mut sim,
            &link,
            Dir::AToB,
            100,
            100,
            SimDuration::from_secs(2),
            move |sim, r| {
                r.unwrap();
                *d.borrow_mut() = Some(sim.now());
            },
        );
        sim.run();
        let t = done.borrow().unwrap().as_secs_f64();
        assert!((2.0..2.01).contains(&t), "rpc took {t}s");
    }

    #[test]
    fn rpc_propagates_request_failure() {
        let mut sim = Sim::new(5);
        let faults = FaultSchedule::from_windows(vec![(SimTime::ZERO, SimTime::from_secs(60))]);
        let link = Link::with_faults(LinkProfile::campus(), faults);
        let result = Rc::new(RefCell::new(None));
        let r = Rc::clone(&result);
        rpc_call(
            &mut sim,
            &link,
            Dir::AToB,
            10,
            10,
            SimDuration::ZERO,
            move |_, res| {
                *r.borrow_mut() = Some(res);
            },
        );
        sim.run();
        assert_eq!(*result.borrow(), Some(Err(NetError::LinkDown)));
    }

    /// What an exchange looked like from outside: when `on` ran and with
    /// what, the link's counters, the next draw of the sim's random stream,
    /// and how many events the sim executed.
    type Exchange = (SimTime, Result<(), NetError>, (u64, u64, u64), u64, u64);
    type OnDone = Box<dyn FnOnce(&mut Sim, Result<(), NetError>)>;

    fn exchange(
        seed: u64,
        faults: &FaultSchedule,
        call: impl FnOnce(&mut Sim, &Link, OnDone),
    ) -> Exchange {
        let mut sim = Sim::new(seed);
        let link = Link::with_faults(LinkProfile::wan_ifca(), faults.clone());
        let done = Rc::new(RefCell::new(None));
        let d = Rc::clone(&done);
        call(
            &mut sim,
            &link,
            Box::new(move |sim, r| *d.borrow_mut() = Some((sim.now(), r))),
        );
        sim.run();
        let (at, result) = done.borrow_mut().take().expect("`on` ran");
        let stats = link.stats();
        (
            at,
            result,
            (stats.delivered, stats.failed, stats.bytes),
            sim.rng().u64(),
            sim.events_executed(),
        )
    }

    #[test]
    fn rpc_call_is_the_three_step_chain_in_two_events() {
        const SERVICE: SimDuration = SimDuration::from_millis(110);
        const FAIL_DETECT: SimDuration = SimDuration::from_millis(200);
        // The exchange spelt out with the public pieces: deliver the
        // request, a service event, send the reply.
        fn chain(sim: &mut Sim, link: &Link, on: OnDone) {
            let link2 = link.clone();
            link.send(sim, Dir::AToB, 300, move |sim, r| match r {
                Err(e) => on(sim, Err(e)),
                Ok(()) => {
                    sim.schedule_in(SERVICE, move |sim| link2.send(sim, Dir::BToA, 1_200, on));
                }
            });
        }
        // Runs both under one fault schedule; returns what they agree on
        // and the two event counts.
        let run = |seed: u64, faults: &FaultSchedule| {
            let (at, result, stats, rng, events) = exchange(seed, faults, |sim, link, on| {
                rpc_call(sim, link, Dir::AToB, 300, 1_200, SERVICE, on);
            });
            let spelt_out = exchange(seed, faults, chain);
            assert_eq!(
                (at, result, stats, rng),
                (spelt_out.0, spelt_out.1, spelt_out.2, spelt_out.3),
                "seed {seed}, faults {faults:?}"
            );
            (at, result, events, spelt_out.4)
        };
        let outage_from = |from: SimTime| {
            FaultSchedule::from_windows(vec![(from, from + SimDuration::from_secs(5))])
        };
        for seed in 0..8 {
            // A lone request on the same seed draws the same flight time.
            let (arrive, ..) = exchange(seed, &FaultSchedule::none(), |sim, link, on| {
                link.send(sim, Dir::AToB, 300, on);
            });
            let replied = arrive + SERVICE;

            let (done, result, events, chain_events) = run(seed, &FaultSchedule::none());
            assert_eq!(result, Ok(()));
            assert!(done > replied);
            assert_eq!((events, chain_events), (2, 3));

            // Down before the send.
            let (at, result, ..) = run(seed, &outage_from(SimTime::ZERO));
            assert_eq!(
                (at, result),
                (SimTime::ZERO + FAIL_DETECT, Err(NetError::LinkDown))
            );
            // Fails while the request is in flight.
            let cut = SimTime::ZERO + (arrive - SimTime::ZERO) / 2;
            let (at, result, ..) = run(seed, &outage_from(cut));
            assert_eq!((at, result), (cut, Err(NetError::BrokenMidTransfer)));
            // Fails while the server works: the request was delivered, and
            // the reply finds the link down once the service time is over.
            let (at, result, ..) = run(seed, &outage_from(arrive + SERVICE / 2));
            assert_eq!(
                (at, result),
                (replied + FAIL_DETECT, Err(NetError::LinkDown))
            );
            // Fails while the reply is in flight.
            let cut = replied + (done - replied) / 2;
            let (at, result, ..) = run(seed, &outage_from(cut));
            assert_eq!((at, result), (cut, Err(NetError::BrokenMidTransfer)));
        }
    }

    /// The handshake spelt out as a closure chain, two events per leg:
    /// deliver the leg, an endpoint CPU event, send the next leg. Logs each
    /// leg's delivery instant into `arrivals`.
    fn spelt_out_connect(
        sim: &mut Sim,
        link: Link,
        hs: HandshakeProfile,
        left: u32,
        leg_dir: Dir,
        arrivals: Rc<RefCell<Vec<SimTime>>>,
        on: OnDone,
    ) {
        if left == 0 {
            sim.schedule_now(move |sim| on(sim, Ok(())));
            return;
        }
        let cpu = SimDuration::from_secs_f64(hs.cpu_s);
        let bytes = hs.leg_bytes;
        let next = link.clone();
        link.send(sim, leg_dir, bytes, move |sim, r| match r {
            Err(e) => on(sim, Err(e)),
            Ok(()) => {
                arrivals.borrow_mut().push(sim.now());
                sim.schedule_in(cpu, move |sim| {
                    spelt_out_connect(sim, next, hs, left - 1, leg_dir.flip(), arrivals, on);
                });
            }
        });
    }

    #[test]
    fn connect_holds_each_leg_into_its_delivery_event() {
        const FAIL_DETECT: SimDuration = SimDuration::from_millis(200);
        let outage_from = |from: SimTime| {
            FaultSchedule::from_windows(vec![(from, from + SimDuration::from_secs(5))])
        };
        for hs in [HandshakeProfile::tcp(), HandshakeProfile::gsi()] {
            let legs = hs.legs as usize;
            let cpu = SimDuration::from_secs_f64(hs.cpu_s);
            // Runs both under one fault schedule; returns what they agree
            // on, the two event counts and the spelt-out legs' arrivals.
            let run = |seed: u64, faults: &FaultSchedule| {
                let held = exchange(seed, faults, |sim, link, on| {
                    connect(sim, link, Dir::AToB, &hs, on);
                });
                let arrivals = Rc::new(RefCell::new(Vec::new()));
                let log = Rc::clone(&arrivals);
                let spelt_out = exchange(seed, faults, |sim, link, on| {
                    spelt_out_connect(sim, link.clone(), hs.clone(), hs.legs, Dir::AToB, log, on);
                });
                assert_eq!(
                    (held.0, held.1, held.2, held.3),
                    (spelt_out.0, spelt_out.1, spelt_out.2, spelt_out.3),
                    "{} legs, seed {seed}, faults {faults:?}",
                    hs.legs
                );
                (held.0, held.1, (held.4, spelt_out.4), arrivals.take())
            };
            for seed in 0..8 {
                let (done, result, events, arrive) = run(seed, &FaultSchedule::none());
                assert_eq!(result, Ok(()));
                assert_eq!(arrive.len(), legs);
                assert_eq!(done, arrive[legs - 1] + cpu);
                assert_eq!(events, (hs.legs as u64 + 1, 2 * hs.legs as u64 + 1));
                // When leg `k` leaves: at once, or after the previous leg's
                // delivery and its endpoint's CPU time.
                let depart = |k: usize| {
                    if k == 0 {
                        SimTime::ZERO
                    } else {
                        arrive[k - 1] + cpu
                    }
                };
                let mid_flight = |k: usize| depart(k) + (arrive[k] - depart(k)) / 2;

                // Down before the first send.
                let (at, result, ..) = run(seed, &outage_from(SimTime::ZERO));
                assert_eq!(
                    (at, result),
                    (SimTime::ZERO + FAIL_DETECT, Err(NetError::LinkDown))
                );
                // Fails while a middle leg is in flight.
                let cut = mid_flight(legs / 2);
                let (at, result, ..) = run(seed, &outage_from(cut));
                assert_eq!((at, result), (cut, Err(NetError::BrokenMidTransfer)));
                // Fails inside a leg's CPU hold: the leg was delivered, and
                // the next one finds the link down once the hold is over.
                let k = legs / 2;
                let (at, result, ..) = run(seed, &outage_from(arrive[k] + cpu / 2));
                assert_eq!(
                    (at, result),
                    (arrive[k] + cpu + FAIL_DETECT, Err(NetError::LinkDown))
                );
                // Fails while the last leg is in flight.
                let cut = mid_flight(legs - 1);
                let (at, result, ..) = run(seed, &outage_from(cut));
                assert_eq!((at, result), (cut, Err(NetError::BrokenMidTransfer)));
            }
        }
    }
}
