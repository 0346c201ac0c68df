//! Session-level transport: connection establishment with a configurable
//! handshake, and request/response RPC on top of [`Link`].
//!
//! The number of handshake legs is the knob that differentiates transports in
//! the paper's comparison: plain TCP (3 legs), ssh (TCP + key exchange), and
//! GSI-secured channels (TCP + TLS-style exchange + proxy-certificate
//! verification) all pay different setup costs, and Glogin pays the GSI cost
//! on its data path too.

use cg_sim::{Sim, SimDuration};
use serde::{Deserialize, Serialize};

use crate::link::{Dir, Link, NetError};

/// Handshake shape for establishing a session.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// An established session over a link.
///
/// Sessions do not own the link; several sessions can multiplex one link
/// (each MPICH-G2 subjob's Console Agent holds its own session to the shadow
/// over the same site-to-UI path).
#[derive(Clone)]
pub struct Session {
    link: Link,
    /// Direction of client→server traffic.
    dir: Dir,
}

impl Session {
    /// Establishes a session: runs the handshake legs in alternating
    /// directions, then hands the session to `on`. Any failed leg aborts
    /// with the underlying error.
    pub fn connect(
        sim: &mut Sim,
        link: Link,
        dir: Dir,
        handshake: HandshakeProfile,
        on: impl FnOnce(&mut Sim, Result<Session, NetError>) + 'static,
    ) {
        fn leg(
            sim: &mut Sim,
            link: Link,
            dir: Dir,
            hs: HandshakeProfile,
            left: u32,
            leg_dir: Dir,
            on: impl FnOnce(&mut Sim, Result<Session, NetError>) + 'static,
        ) {
            if left == 0 {
                let session = Session { link, dir };
                sim.schedule_now(move |sim| on(sim, Ok(session)));
                return;
            }
            let cpu = SimDuration::from_secs_f64(hs.cpu_s);
            let bytes = hs.leg_bytes;
            let link2 = link.clone();
            link.send(sim, leg_dir, bytes, move |sim, r| match r {
                Err(e) => on(sim, Err(e)),
                Ok(()) => {
                    // Endpoint processing before answering the next leg.
                    sim.schedule_in(cpu, move |sim| {
                        leg(sim, link2, dir, hs, left - 1, leg_dir.flip(), on);
                    });
                }
            });
        }
        let first = dir;
        let legs = handshake.legs;
        leg(sim, link, dir, handshake, legs, first, on);
    }

    /// Sends client→server.
    pub fn send(
        &self,
        sim: &mut Sim,
        bytes: u64,
        on: impl FnOnce(&mut Sim, Result<(), NetError>) + 'static,
    ) {
        self.link.send(sim, self.dir, bytes, on);
    }

    /// Sends server→client.
    pub fn send_back(
        &self,
        sim: &mut Sim,
        bytes: u64,
        on: impl FnOnce(&mut Sim, Result<(), NetError>) + 'static,
    ) {
        self.link.send(sim, self.dir.flip(), bytes, on);
    }

    /// The underlying link.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Client→server direction.
    pub fn dir(&self) -> Dir {
        self.dir
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

    #[test]
    fn tcp_connect_takes_about_one_and_a_half_rtts() {
        let mut sim = Sim::new(1);
        let link = Link::new(LinkProfile::wan_ifca());
        let done = Rc::new(RefCell::new(None));
        let d = Rc::clone(&done);
        Session::connect(
            &mut sim,
            link,
            Dir::AToB,
            HandshakeProfile::tcp(),
            move |sim, r| {
                assert!(r.is_ok());
                *d.borrow_mut() = Some(sim.now());
            },
        );
        sim.run();
        let t = done.borrow().unwrap().as_secs_f64();
        // 3 legs ≈ 1.5 RTT ≈ 42 ms on the IFCA path (+ jitter + cpu).
        assert!((0.025..0.12).contains(&t), "tcp connect took {t}s");
    }

    #[test]
    fn gsi_connect_is_much_slower_than_tcp() {
        let time_for = |hs: HandshakeProfile| {
            let mut sim = Sim::new(2);
            let link = Link::new(LinkProfile::wan_ifca());
            let done = Rc::new(RefCell::new(None));
            let d = Rc::clone(&done);
            Session::connect(&mut sim, link, Dir::AToB, hs, move |sim, r| {
                assert!(r.is_ok());
                *d.borrow_mut() = Some(sim.now());
            });
            sim.run();
            let t = done.borrow().unwrap();
            t.as_secs_f64()
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
        let result = Rc::new(RefCell::new(None));
        let r = Rc::clone(&result);
        Session::connect(
            &mut sim,
            link,
            Dir::AToB,
            HandshakeProfile::tcp(),
            move |_, res| {
                *r.borrow_mut() = Some(res.map(|_| ()));
            },
        );
        sim.run();
        assert_eq!(*result.borrow(), Some(Err(NetError::LinkDown)));
    }

    #[test]
    fn session_round_trip_works_both_ways() {
        let mut sim = Sim::new(3);
        let link = Link::new(LinkProfile::campus());
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let log2 = Rc::clone(&log);
        Session::connect(
            &mut sim,
            link,
            Dir::AToB,
            HandshakeProfile::tcp(),
            move |sim, r| {
                let s = r.unwrap();
                let s2 = s.clone();
                let log3 = Rc::clone(&log2);
                s.send(sim, 100, move |sim, r| {
                    r.unwrap();
                    log3.borrow_mut().push("request-at-server");
                    let log4 = Rc::clone(&log3);
                    s2.send_back(sim, 200, move |_, r| {
                        r.unwrap();
                        log4.borrow_mut().push("response-at-client");
                    });
                });
            },
        );
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec!["request-at-server", "response-at-client"]
        );
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
}
