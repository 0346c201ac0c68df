//! The site gatekeeper — a Globus 2.4 GRAM model.
//!
//! Submission from the broker to a worker node traverses: GSI
//! authentication, the gatekeeper fork of a jobmanager, optional two-phase
//! commit (CrossBroker "uses a two phase commit protocol that guarantees a
//! better detection of error conditions at submission time", §6.1), input
//! sandbox staging, and finally the local batch system. Each layer's cost is
//! explicit so Table I decomposes the same way the paper's numbers do.

use std::cell::RefCell;
use std::rc::Rc;

use cg_net::{delivery_outcome, Dir, Handshake, HandshakeProfile, Link, NetError};
use cg_sim::{Receiver, Sim, SimDuration, Slab, TypedEvent};

use crate::backend::BackendHandle;
use crate::lrms::{LocalJobId, LocalJobSpec, LrmsEvent};

/// Shared submitter-side event callback.
type GramCallback = Rc<dyn Fn(&mut Sim, &GramEvent)>;

/// Calibrated costs of the Globus-era middleware layers.
#[derive(Debug, Clone)]
pub struct GramCosts {
    /// Median time for the gatekeeper to authenticate, authorize (gridmap
    /// lookup) and fork a jobmanager process, seconds. Globus 2.x was
    /// notoriously heavy here.
    pub jobmanager_median_s: f64,
    /// Log-normal sigma of the jobmanager cost (long tail under load).
    pub jobmanager_sigma: f64,
    /// Fixed GridFTP session setup for sandbox staging, seconds.
    pub staging_setup_s: f64,
    /// Job-request message size, bytes (RSL + delegated proxy).
    pub request_bytes: u64,
    /// Status/ack message size, bytes.
    pub ack_bytes: u64,
    /// Whether the submitter runs the two-phase commit exchange.
    pub two_phase_commit: bool,
}

impl GramCosts {
    /// Calibration for the 2006 testbed (Globus 2.4 on Pentium-class
    /// gatekeepers). With LRMS dispatch and console startup this lands the
    /// "Idle" row of Table I near the paper's 17.2 s.
    pub fn globus24() -> Self {
        GramCosts {
            jobmanager_median_s: 12.3,
            jobmanager_sigma: 0.15,
            staging_setup_s: 1.2,
            request_bytes: 6_000,
            ack_bytes: 400,
            two_phase_commit: true,
        }
    }
}

/// Events the submitter observes, each delivered after the status message
/// crosses the broker↔site link.
#[derive(Debug, Clone, PartialEq)]
pub enum GramEvent {
    /// The jobmanager accepted the job and handed it to the LRMS.
    Accepted {
        /// LRMS-local job id.
        local_id: LocalJobId,
    },
    /// The LRMS queued the job (it did NOT start immediately — the signal
    /// CrossBroker's on-line scheduling reacts to by resubmitting elsewhere).
    Queued,
    /// The job started on worker nodes.
    Started {
        /// Allocated node indices.
        nodes: Vec<usize>,
    },
    /// The job finished normally.
    Finished,
    /// The job was killed at the site.
    Killed {
        /// Why.
        reason: String,
    },
    /// Submission failed before reaching the LRMS.
    Failed(NetError),
}

/// A GRAM submission between `submit` and the LRMS hand-off — what its
/// events name by slot.
struct Submission {
    link: Link,
    spec: LocalJobSpec,
    sandbox: u64,
    on_event: GramCallback,
    /// The GSI authentication, while it runs.
    handshake: Option<Handshake>,
}

/// Which step of a submission a gatekeeper event is: its `aux`. The
/// payload is the submission's slot, or for [`Step::Status`] the status
/// message's; a step that crossed the link carries the outcome in `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A GSI handshake leg, or the hand-off after the last one.
    Gsi,
    /// The job request (RSL + proxy) reached the gatekeeper.
    Request,
    /// The jobmanager fork is done.
    Fork,
    /// The two-phase commit's ready ack reached the submitter.
    Ready,
    /// The commit reached the gatekeeper.
    Commit,
    /// The GridFTP session for the sandbox is set up.
    Setup,
    /// The input sandbox arrived.
    Sandbox,
    /// Report the failure in `tag` to the submitter.
    Failed,
    /// A forwarded LRMS status message arrived, or was lost.
    Status,
}

impl Step {
    const ALL: [Step; 9] = [
        Step::Gsi,
        Step::Request,
        Step::Fork,
        Step::Ready,
        Step::Commit,
        Step::Setup,
        Step::Sandbox,
        Step::Failed,
        Step::Status,
    ];

    fn event(self, slot: u64) -> TypedEvent {
        TypedEvent::new(self as u16, slot)
    }

    fn of(event: TypedEvent) -> Step {
        Step::ALL[usize::from(event.aux)]
    }
}

/// What a gatekeeper's events reach: the submissions in flight and the
/// status messages on the wire, each in a slab slot.
#[derive(Default)]
struct Desk {
    submissions: Slab<Submission>,
    statuses: Slab<(GramCallback, GramEvent)>,
    /// Built at the first submission, reaching [`Shared`] through a `Weak`.
    receiver: Option<Receiver>,
}

struct Shared {
    lrms: BackendHandle,
    costs: GramCosts,
    desk: RefCell<Desk>,
}

const LIVE: &str = "a submission's events find its slot";

/// A site's gatekeeper: front door from the broker network to the local
/// execution backend. Clones share state.
#[derive(Clone)]
pub struct Gatekeeper {
    shared: Rc<Shared>,
}

impl Gatekeeper {
    /// Wraps an execution backend behind GRAM semantics. Accepts anything
    /// convertible to a [`BackendHandle`] — a bare [`crate::Lrms`] included.
    pub fn new(lrms: impl Into<BackendHandle>, costs: GramCosts) -> Self {
        Gatekeeper {
            shared: Rc::new(Shared {
                lrms: lrms.into(),
                costs,
                desk: RefCell::new(Desk::default()),
            }),
        }
    }

    /// The execution backend behind this gatekeeper.
    pub fn lrms(&self) -> &BackendHandle {
        &self.shared.lrms
    }

    /// Submissions between `submit` and the LRMS hand-off, plus status
    /// messages on their way back: zero once a drained world is idle.
    pub fn in_flight(&self) -> usize {
        let desk = self.shared.desk.borrow();
        desk.submissions.len() + desk.statuses.len()
    }

    fn receiver(&self) -> Receiver {
        let mut desk = self.shared.desk.borrow_mut();
        let receiver = desk.receiver.get_or_insert_with(|| {
            let weak = Rc::downgrade(&self.shared);
            Rc::new(move |sim, event| {
                if let Some(shared) = weak.upgrade() {
                    Gatekeeper { shared }.on_step(sim, event);
                }
            })
        });
        Rc::clone(receiver)
    }

    /// Submits a job through the full GRAM pipeline. `link` is the
    /// broker↔site path; `sandbox_bytes` is staged before the LRMS sees the
    /// job. `on_event` observes [`GramEvent`]s on the broker side.
    ///
    /// Every step is a typed event for the gatekeeper's own receiver, the
    /// submission in a slab slot until the LRMS takes the job:
    /// 1. GSI authentication ([`Handshake`]);
    /// 2. the job request to the gatekeeper;
    /// 3. the jobmanager fork;
    /// 4. the optional two-phase commit — ready ack back, commit forward;
    /// 5. GridFTP setup and the sandbox transfer;
    /// 6. the hand-off to the LRMS, whose status messages are forwarded
    ///    across the link.
    pub fn submit(
        &self,
        sim: &mut Sim,
        link: Link,
        spec: LocalJobSpec,
        sandbox_bytes: u64,
        on_event: impl Fn(&mut Sim, &GramEvent) + 'static,
    ) {
        let receiver = self.receiver();
        let slot = self
            .shared
            .desk
            .borrow_mut()
            .submissions
            .insert(Submission {
                link: link.clone(),
                spec,
                sandbox: sandbox_bytes,
                on_event: Rc::new(on_event),
                handshake: None,
            });
        let gsi = HandshakeProfile::gsi();
        let event = Step::Gsi.event(slot);
        let handshake = Handshake::start(sim, link, Dir::AToB, &gsi, &receiver, event);
        let mut desk = self.shared.desk.borrow_mut();
        desk.submissions.get_mut(slot).expect(LIVE).handshake = Some(handshake);
    }

    /// Sends the submission's next message; its arrival is `step`.
    fn send(
        &self,
        sim: &mut Sim,
        receiver: &Receiver,
        slot: u64,
        dir: Dir,
        bytes: u64,
        step: Step,
    ) {
        let desk = self.shared.desk.borrow();
        let link = &desk.submissions.get(slot).expect(LIVE).link;
        link.send_event(
            sim,
            dir,
            bytes,
            SimDuration::ZERO,
            receiver,
            step.event(slot),
        );
    }

    /// The receiver of every gatekeeper event.
    fn on_step(&self, sim: &mut Sim, event: TypedEvent) {
        let receiver = self.receiver();
        let costs = &self.shared.costs;
        let slot = event.payload;
        let step = Step::of(event);
        // A submission message that did not arrive fails the submission, in
        // an event of its own.
        let fail = |sim: &mut Sim| {
            let failed = TypedEvent {
                aux: Step::Failed as u16,
                ..event
            };
            sim.schedule_event_now(&receiver, failed);
        };
        let sent = matches!(
            step,
            Step::Request | Step::Ready | Step::Commit | Step::Sandbox
        );
        if sent && delivery_outcome(event).is_err() {
            fail(sim);
            return;
        }
        match step {
            Step::Gsi => {
                let connected = {
                    let mut desk = self.shared.desk.borrow_mut();
                    let submission = desk.submissions.get_mut(slot).expect(LIVE);
                    let handshake = submission.handshake.as_mut().expect("authenticating");
                    handshake.step(sim, &receiver, event)
                };
                match connected {
                    None => {}
                    Some(Err(_)) => fail(sim),
                    Some(Ok(())) => {
                        let bytes = costs.request_bytes;
                        self.send(sim, &receiver, slot, Dir::AToB, bytes, Step::Request);
                    }
                }
            }
            Step::Request => {
                let fork = sim
                    .rng()
                    .log_normal_duration(costs.jobmanager_median_s, costs.jobmanager_sigma);
                sim.schedule_event_in(fork, &receiver, Step::Fork.event(slot));
            }
            Step::Fork if costs.two_phase_commit => {
                self.send(
                    sim,
                    &receiver,
                    slot,
                    Dir::BToA,
                    costs.ack_bytes,
                    Step::Ready,
                );
            }
            Step::Ready => {
                self.send(
                    sim,
                    &receiver,
                    slot,
                    Dir::AToB,
                    costs.ack_bytes,
                    Step::Commit,
                );
            }
            Step::Fork | Step::Commit => {
                let setup = SimDuration::from_secs_f64(costs.staging_setup_s);
                sim.schedule_event_in(setup, &receiver, Step::Setup.event(slot));
            }
            Step::Setup => {
                let sandbox = {
                    let desk = self.shared.desk.borrow();
                    desk.submissions.get(slot).expect(LIVE).sandbox
                };
                if sandbox == 0 {
                    self.hand_off(sim, slot);
                } else {
                    self.send(sim, &receiver, slot, Dir::AToB, sandbox, Step::Sandbox);
                }
            }
            Step::Sandbox => self.hand_off(sim, slot),
            Step::Failed => {
                let e = delivery_outcome(event).expect_err("a failure carries its error");
                let submission = self.shared.desk.borrow_mut().submissions.remove(slot);
                (submission.expect(LIVE).on_event)(sim, &GramEvent::Failed(e));
            }
            Step::Status => {
                let status = self.shared.desk.borrow_mut().statuses.remove(slot);
                let (on_event, status) = status.expect("one delivery per status message");
                // Status messages lost to outages are dropped — the paper's
                // broker re-learns state by polling; models that care use
                // reliable console streams instead.
                if delivery_outcome(event).is_ok() {
                    on_event(sim, &status);
                }
            }
        }
    }

    /// Hands the staged job to the LRMS, which keeps one callback for it;
    /// every lifecycle event is forwarded across the link from there.
    fn hand_off(&self, sim: &mut Sim, slot: u64) {
        let submission = self.shared.desk.borrow_mut().submissions.remove(slot);
        let Submission {
            link,
            spec,
            on_event,
            ..
        } = submission.expect(LIVE);
        // The LRMS stores this callback for as long as the job is live; a
        // strong handle in it would keep the LRMS (and its gatekeeper) alive.
        let weak = Rc::downgrade(&self.shared);
        self.shared
            .lrms
            .submit(sim, spec, move |sim, local_id, ev| {
                let Some(shared) = weak.upgrade() else {
                    return;
                };
                let gatekeeper = Gatekeeper { shared };
                let mapped = match ev {
                    LrmsEvent::Queued => GramEvent::Accepted { local_id },
                    LrmsEvent::Started { nodes } => GramEvent::Started {
                        nodes: nodes.clone(),
                    },
                    LrmsEvent::Finished => GramEvent::Finished,
                    LrmsEvent::Killed { reason } => GramEvent::Killed {
                        reason: reason.clone(),
                    },
                };
                gatekeeper.forward(sim, &link, &on_event, mapped);
                // A job that is queued and not started within the scheduler
                // cycle is reported as Queued (the broker's resubmission
                // trigger).
                if matches!(ev, LrmsEvent::Queued) && lrms_is_backed_up(&gatekeeper.shared.lrms) {
                    gatekeeper.forward(sim, &link, &on_event, GramEvent::Queued);
                }
            });
    }

    /// Sends one status message across the link to the submitter.
    fn forward(&self, sim: &mut Sim, link: &Link, on_event: &GramCallback, status: GramEvent) {
        let receiver = self.receiver();
        let slot = {
            let mut desk = self.shared.desk.borrow_mut();
            desk.statuses.insert((Rc::clone(on_event), status))
        };
        let bytes = self.shared.costs.ack_bytes;
        let event = Step::Status.event(slot);
        link.send_event(sim, Dir::BToA, bytes, SimDuration::ZERO, &receiver, event);
    }
}

fn lrms_is_backed_up(lrms: &crate::Lrms) -> bool {
    lrms.free_nodes() == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrms::{Lrms, Policy};
    use cg_net::LinkProfile;
    use cg_sim::SimTime;
    use std::cell::RefCell;

    type Log = Rc<RefCell<Vec<(String, f64)>>>;

    fn logging(log: Log) -> impl Fn(&mut Sim, &GramEvent) {
        move |sim, ev| {
            let tag = match ev {
                GramEvent::Accepted { .. } => "accepted".into(),
                GramEvent::Queued => "queued".into(),
                GramEvent::Started { .. } => "started".into(),
                GramEvent::Finished => "finished".into(),
                GramEvent::Killed { reason } => format!("killed:{reason}"),
                GramEvent::Failed(e) => format!("failed:{e}"),
            };
            log.borrow_mut().push((tag, sim.now().as_secs_f64()));
        }
    }

    fn submit_one(
        link_profile: LinkProfile,
        free_nodes: usize,
        sandbox: u64,
    ) -> (Vec<(String, f64)>, Lrms) {
        let mut sim = Sim::new(42);
        let lrms = Lrms::new(
            Policy::Fifo,
            free_nodes.max(1),
            SimDuration::from_millis(1500),
        );
        if free_nodes == 0 {
            // Occupy the single node with a long batch job.
            lrms.submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(100_000)),
                |_, _, _| {},
            );
            sim.run_until(cg_sim::SimTime::from_secs(10));
        }
        let gk = Gatekeeper::new(lrms.clone(), GramCosts::globus24());
        let link = Link::new(link_profile);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        gk.submit(
            &mut sim,
            link,
            LocalJobSpec::simple(SimDuration::from_secs(60)),
            sandbox,
            logging(Rc::clone(&log)),
        );
        sim.run_until(cg_sim::SimTime::from_secs(4_000));
        let out = log.borrow().clone();
        (out, lrms)
    }

    /// The GRAM pipeline as a closure chain, the way it was written before
    /// its steps became typed events — the oracle of the typed submission.
    /// Each step is a closure, each GSI leg is held into its delivery event,
    /// and the instant each step ends is marked.
    mod closure_chain {
        use super::*;
        use cg_sim::{Receiver, SimTime, TypedEvent};
        use std::cell::{Cell, RefCell};

        pub(super) type Marks = Rc<RefCell<Vec<(&'static str, SimTime)>>>;
        type Fail = Rc<dyn Fn(&mut Sim, NetError)>;
        type Done = Box<dyn FnOnce(&mut Sim, Result<(), NetError>)>;

        /// What every step after the request carries along.
        #[derive(Clone)]
        struct Ctx {
            lrms: Lrms,
            costs: GramCosts,
            link: Link,
            spec: LocalJobSpec,
            sandbox: u64,
            marks: Marks,
            on_event: GramCallback,
            fail: Fail,
        }

        /// `link.send` held `hold` past the delivery, with a closure to run.
        fn send_held(
            sim: &mut Sim,
            link: &Link,
            dir: Dir,
            bytes: u64,
            hold: SimDuration,
            then: impl FnOnce(&mut Sim, Result<(), NetError>) + 'static,
        ) {
            let then = Cell::new(Some(then));
            let receiver: Receiver = Rc::new(move |sim, event| {
                if let Some(then) = then.take() {
                    then(sim, delivery_outcome(event));
                }
            });
            link.send_event(sim, dir, bytes, hold, &receiver, TypedEvent::default());
        }

        fn connect(sim: &mut Sim, link: Link, leg_dir: Dir, left: u32, on: Done) {
            if left == 0 {
                sim.schedule_now(move |sim| on(sim, Ok(())));
                return;
            }
            let gsi = HandshakeProfile::gsi();
            let cpu = SimDuration::from_secs_f64(gsi.cpu_s);
            let next = link.clone();
            send_held(
                sim,
                &link,
                leg_dir,
                gsi.leg_bytes,
                cpu,
                move |sim, r| match r {
                    Err(e) => on(sim, Err(e)),
                    Ok(()) => connect(sim, next, leg_dir.flip(), left - 1, on),
                },
            );
        }

        pub(super) fn submit(
            sim: &mut Sim,
            (lrms, costs, link): (&Lrms, &GramCosts, &Link),
            spec: LocalJobSpec,
            sandbox: u64,
            marks: &Marks,
            on_event: GramCallback,
        ) {
            let on = Rc::clone(&on_event);
            let fail: Fail = Rc::new(move |sim: &mut Sim, e: NetError| {
                let on = Rc::clone(&on);
                sim.schedule_now(move |sim| on(sim, &GramEvent::Failed(e)));
            });
            let ctx = Ctx {
                lrms: lrms.clone(),
                costs: costs.clone(),
                link: link.clone(),
                spec,
                sandbox,
                marks: Rc::clone(marks),
                on_event,
                fail,
            };
            let legs = HandshakeProfile::gsi().legs;
            connect(
                sim,
                link.clone(),
                Dir::AToB,
                legs,
                Box::new(move |sim, r| request(sim, ctx, r)),
            );
        }

        fn request(sim: &mut Sim, ctx: Ctx, connected: Result<(), NetError>) {
            if let Err(e) = connected {
                return (ctx.fail)(sim, e);
            }
            ctx.marks.borrow_mut().push(("connected", sim.now()));
            let link = ctx.link.clone();
            link.send(sim, Dir::AToB, ctx.costs.request_bytes, move |sim, r| {
                if let Err(e) = r {
                    return (ctx.fail)(sim, e);
                }
                let (median, sigma) = (ctx.costs.jobmanager_median_s, ctx.costs.jobmanager_sigma);
                let fork = sim.rng().log_normal_duration(median, sigma);
                sim.schedule_in(fork, move |sim| forked(sim, ctx));
            });
        }

        fn forked(sim: &mut Sim, ctx: Ctx) {
            ctx.marks.borrow_mut().push(("forked", sim.now()));
            if !ctx.costs.two_phase_commit {
                return stage(sim, ctx);
            }
            let (link, ack) = (ctx.link.clone(), ctx.costs.ack_bytes);
            link.send(sim, Dir::BToA, ack, move |sim, r| {
                if let Err(e) = r {
                    return (ctx.fail)(sim, e);
                }
                let link = ctx.link.clone();
                link.send(sim, Dir::AToB, ack, move |sim, r| match r {
                    Err(e) => (ctx.fail)(sim, e),
                    Ok(()) => stage(sim, ctx),
                });
            });
        }

        fn stage(sim: &mut Sim, ctx: Ctx) {
            let setup = SimDuration::from_secs_f64(ctx.costs.staging_setup_s);
            sim.schedule_in(setup, move |sim| {
                ctx.marks.borrow_mut().push(("set up", sim.now()));
                if ctx.sandbox == 0 {
                    return hand_off(sim, ctx);
                }
                let link = ctx.link.clone();
                link.send(sim, Dir::AToB, ctx.sandbox, move |sim, r| match r {
                    Err(e) => (ctx.fail)(sim, e),
                    Ok(()) => hand_off(sim, ctx),
                });
            });
        }

        fn hand_off(sim: &mut Sim, ctx: Ctx) {
            ctx.marks.borrow_mut().push(("handed off", sim.now()));
            let Ctx {
                lrms,
                costs,
                link,
                spec,
                on_event,
                ..
            } = ctx;
            let forward = move |sim: &mut Sim, status: GramEvent| {
                let on_event = Rc::clone(&on_event);
                link.send(sim, Dir::BToA, costs.ack_bytes, move |sim, r| {
                    if r.is_ok() {
                        on_event(sim, &status);
                    }
                });
            };
            let weak = lrms.downgrade();
            lrms.submit(sim, spec, move |sim, local_id, ev| {
                let status = match ev {
                    LrmsEvent::Queued => GramEvent::Accepted { local_id },
                    LrmsEvent::Started { nodes } => GramEvent::Started {
                        nodes: nodes.clone(),
                    },
                    LrmsEvent::Finished => GramEvent::Finished,
                    LrmsEvent::Killed { reason } => GramEvent::Killed {
                        reason: reason.clone(),
                    },
                };
                forward(sim, status);
                if matches!(ev, LrmsEvent::Queued)
                    && weak.upgrade().is_some_and(|l| lrms_is_backed_up(&l))
                {
                    forward(sim, GramEvent::Queued);
                }
            });
        }
    }

    /// A submission seen from outside: the submitter's events and when, the
    /// link's counters, the sim's next random draw and its event count.
    type Observed = (Vec<(String, f64)>, (u64, u64, u64), u64, u64);

    /// One submission over a WAN link under `faults`, through the typed
    /// gatekeeper or (with `marks`) the closure chain.
    fn observe(
        seed: u64,
        faults: &cg_net::FaultSchedule,
        (sandbox, two_phase_commit): (u64, bool),
        marks: Option<&closure_chain::Marks>,
    ) -> Observed {
        let mut sim = Sim::new(seed);
        // Two nodes, one taken: the job starts, and the LRMS is backed up
        // when it does, so `Queued` is forwarded too.
        let lrms = Lrms::new(Policy::Fifo, 2, SimDuration::from_millis(1_500));
        lrms.submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(9_000)),
            |_, _, _| {},
        );
        let costs = GramCosts {
            two_phase_commit,
            ..GramCosts::globus24()
        };
        let link = Link::with_faults(LinkProfile::wan_ifca(), faults.clone());
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let on_event = logging(Rc::clone(&log));
        let spec = LocalJobSpec::simple(SimDuration::from_secs(60));
        let gatekeeper = Gatekeeper::new(lrms.clone(), costs.clone());
        match marks {
            Some(marks) => {
                let parts = (&lrms, &costs, &link);
                closure_chain::submit(&mut sim, parts, spec, sandbox, marks, Rc::new(on_event));
            }
            None => gatekeeper.submit(&mut sim, link.clone(), spec, sandbox, on_event),
        }
        sim.run();
        assert_eq!(gatekeeper.in_flight(), 0, "the desk drained");
        let stats = link.stats();
        let seen = log.borrow().clone();
        let draw = sim.rng().u64();
        (
            seen,
            (stats.delivered, stats.failed, stats.bytes),
            draw,
            sim.events_executed(),
        )
    }

    #[test]
    fn a_typed_submission_is_the_closure_chain_under_every_fault() {
        let outage = |from: SimTime, lasting: SimDuration| {
            cg_net::FaultSchedule::from_windows(vec![(from, from + lasting)])
        };
        let just_after = |t: SimTime| t + SimDuration::from_nanos(1_000);
        for seed in 0..6 {
            for shape in [(1_000_000, true), (0, true), (1_000_000, false)] {
                let run = |faults: &cg_net::FaultSchedule| {
                    let marks = closure_chain::Marks::default();
                    let chain = observe(seed, faults, shape, Some(&marks));
                    let typed = observe(seed, faults, shape, None);
                    assert_eq!(typed, chain, "seed {seed}, {shape:?}, {faults:?}");
                    (typed, marks.take())
                };
                let (clean, marks) = run(&cg_net::FaultSchedule::none());
                assert!(clean.0.iter().any(|(t, _)| t == "finished"), "{clean:?}");
                let at = |step: &str| marks.iter().find(|(s, _)| *s == step).expect(step).1;
                let mid = |a: SimTime, b: SimTime| a + (b - a) / 2;
                let five = SimDuration::from_secs(5);
                let mut cases = vec![
                    ("link down before connect", SimTime::ZERO, five),
                    ("mid-handshake", mid(SimTime::ZERO, at("connected")), five),
                    // Down from mid-fork until after it: the jobmanager's
                    // next message finds the link down.
                    (
                        "during the fork",
                        mid(at("connected"), at("forked")),
                        at("forked") - mid(at("connected"), at("forked")) + five,
                    ),
                    ("a lost status forward", just_after(at("handed off")), five),
                ];
                if shape.1 {
                    cases.push(("inside the 2PC", just_after(at("forked")), five));
                }
                if shape.0 > 0 {
                    cases.push(("mid-sandbox", just_after(at("set up")), five));
                }
                for (case, from, lasting) in cases {
                    let (faulted, _) = run(&outage(from, lasting));
                    assert_ne!(faulted.0, clean.0, "{case}: the outage changed nothing");
                }
            }
        }
    }

    #[test]
    fn a_live_job_does_not_keep_its_lrms_alive() {
        // Regression: the callback the LRMS stores while a job is live held
        // a strong handle to that LRMS, so a site dropped with a running
        // job (a glide-in agent's carrier, say) leaked its backend.
        let mut sim = Sim::new(7);
        let gk = Gatekeeper::new(
            Lrms::new(Policy::Fifo, 1, SimDuration::from_millis(1500)),
            GramCosts::globus24(),
        );
        gk.submit(
            &mut sim,
            Link::new(LinkProfile::campus()),
            LocalJobSpec::simple(SimDuration::from_secs(100_000)),
            0,
            |_, _| {},
        );
        sim.run_until(cg_sim::SimTime::from_secs(60));
        assert_eq!(gk.lrms().running_count(), 1);
        let weak = gk.lrms().downgrade();
        drop(gk);
        drop(sim);
        assert!(weak.upgrade().is_none(), "the LRMS outlived its site");
    }

    #[test]
    fn idle_site_submission_lands_in_globus_era_range() {
        let (log, _) = submit_one(LinkProfile::campus(), 4, 1_000_000);
        let started = log
            .iter()
            .find(|(t, _)| t == "started")
            .expect("job started");
        // GSI + jobmanager fork + 2PC + staging + dispatch: several seconds,
        // the order of magnitude Table I reports for the middleware path.
        assert!(
            (8.0..25.0).contains(&started.1),
            "submission pipeline took {}s",
            started.1
        );
        let accepted = log.iter().find(|(t, _)| t == "accepted").unwrap();
        assert!(accepted.1 < started.1);
    }

    #[test]
    fn busy_site_reports_queued() {
        let (log, lrms) = submit_one(LinkProfile::campus(), 0, 0);
        assert!(
            log.iter().any(|(t, _)| t == "queued"),
            "broker must learn the job queued: {log:?}"
        );
        assert!(log.iter().all(|(t, _)| t != "started"));
        assert_eq!(lrms.queue_depth(), 1);
    }

    #[test]
    fn finished_event_reaches_broker() {
        let (log, _) = submit_one(LinkProfile::campus(), 2, 0);
        let finished = log.iter().find(|(t, _)| t == "finished").expect("finished");
        let started = log.iter().find(|(t, _)| t == "started").unwrap();
        assert!(
            (finished.1 - started.1 - 60.0).abs() < 1.0,
            "runtime ≈ 60 s"
        );
    }

    #[test]
    fn dead_link_fails_submission() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 1, SimDuration::ZERO);
        let gk = Gatekeeper::new(lrms, GramCosts::globus24());
        let faults = cg_net::FaultSchedule::from_windows(vec![(
            cg_sim::SimTime::ZERO,
            cg_sim::SimTime::from_secs(1_000),
        )]);
        let link = Link::with_faults(LinkProfile::campus(), faults);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        gk.submit(
            &mut sim,
            link,
            LocalJobSpec::simple(SimDuration::from_secs(1)),
            0,
            logging(Rc::clone(&log)),
        );
        sim.run();
        assert!(
            log.borrow()[0].0.starts_with("failed:"),
            "{:?}",
            log.borrow()
        );
    }

    #[test]
    fn wan_submission_slower_than_campus() {
        let started_at = |p: LinkProfile| {
            let (log, _) = submit_one(p, 4, 1_000_000);
            log.iter().find(|(t, _)| t == "started").unwrap().1
        };
        let campus = started_at(LinkProfile::campus());
        let wan = started_at(LinkProfile::wan_ifca());
        assert!(wan > campus, "wan {wan} campus {campus}");
    }
}
