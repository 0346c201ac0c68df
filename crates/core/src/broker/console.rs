//! Grid Console start-up (§4): the tail of every interactive subjob, ending
//! with the first output reaching the user.

use std::rc::Rc;
use std::sync::Arc;

use cg_net::{delivery_outcome, Dir, Handshake, HandshakeProfile, Link};
use cg_sim::{Sim, SimDuration, TypedEvent};
use cg_trace::Event;

use super::commit::Run;
use super::events::Stage;
use super::{label, CrossBroker};

/// One Console Agent's start-up in flight, in the broker's stages.
pub(super) struct Console {
    run: Rc<Run>,
    ui_link: Link,
    /// Failed attempts so far.
    tries: u32,
    /// The GSI session to the shadow, while it is being established.
    handshake: Option<Handshake>,
    /// `console:{job}`, the reliable-mode spool's stream label: made at the
    /// first append and shared by every later append and ack.
    stream: Option<Arc<str>>,
}

const LIVE: &str = "a console start-up in flight";

impl CrossBroker {
    /// The tail of every interactive path: the Console Agent starts on the
    /// WN, opens a GSI session back to the shadow, and sends the first
    /// output; the barrier in [`CrossBroker::console_up`] hears how it went.
    /// In *reliable* streaming mode the output is spooled (a small disk
    /// cost) and failed connections are retried at the configured interval;
    /// in *fast* mode any failure ends the startup (§4).
    pub(super) fn console_startup(&self, sim: &mut Sim, run: &Rc<Run>, ui_link: &Link) {
        let console = Console {
            run: Rc::clone(run),
            ui_link: ui_link.clone(),
            tries: 0,
            handshake: None,
            stream: None,
        };
        let slot = self.inner.borrow_mut().stages.consoles.insert(console);
        let start = SimDuration::from_secs_f64(run.console.ca_start_s);
        self.schedule(sim, start, Stage::ConsoleStart, slot);
    }

    /// A console start-up's events.
    pub(super) fn on_console(&self, sim: &mut Sim, stage: Stage, event: TypedEvent) {
        let slot = event.payload;
        let (run, receiver, trace) = {
            let inner = self.inner.borrow();
            let console = inner.stages.consoles.get(slot).expect(LIVE);
            let run = Rc::clone(&console.run);
            (run, Rc::clone(&inner.receiver), inner.trace.clone())
        };
        let (job, costs) = (run.id.0, run.console);
        let reliable = run.job.streaming_mode == cg_jdl::StreamingMode::Reliable;
        let tries = |this: &Self| {
            this.inner
                .borrow()
                .stages
                .consoles
                .get(slot)
                .expect(LIVE)
                .tries
        };
        match stage {
            Stage::ConsoleStart | Stage::ConsoleRetry => {
                if stage == Stage::ConsoleRetry {
                    let mut inner = self.inner.borrow_mut();
                    inner.stages.consoles.get_mut(slot).expect(LIVE).tries += 1;
                }
                // CA (at the site, endpoint B) connects home to the shadow (A).
                let link = {
                    let inner = self.inner.borrow();
                    inner.stages.consoles.get(slot).expect(LIVE).ui_link.clone()
                };
                let gsi = HandshakeProfile::gsi();
                let legs = Stage::ConsoleGsi.event(slot);
                let handshake = Handshake::start(sim, link, Dir::BToA, &gsi, &receiver, legs);
                let mut inner = self.inner.borrow_mut();
                inner.stages.consoles.get_mut(slot).expect(LIVE).handshake = Some(handshake);
            }
            Stage::ConsoleGsi => {
                let connected = {
                    let mut inner = self.inner.borrow_mut();
                    let console = inner.stages.consoles.get_mut(slot).expect(LIVE);
                    let handshake = console.handshake.as_mut().expect("connecting");
                    handshake.step(sim, &receiver, event)
                };
                match connected {
                    None => {}
                    Some(Err(_)) => self.console_retry_or_fail(sim, slot, reliable),
                    Some(Ok(())) => {
                        trace.record(sim.now(), Event::ConsoleConnected { job });
                        // Reliable mode spools the output before sending.
                        let spool = if reliable {
                            SimDuration::from_secs_f64(costs.spool_op_s)
                        } else {
                            SimDuration::ZERO
                        };
                        self.schedule(sim, spool, Stage::Spooled, slot);
                    }
                }
            }
            Stage::Spooled => {
                if reliable {
                    let seq = u64::from(tries(self)) + 1;
                    let stream = self.console_stream(slot, job);
                    trace.record(sim.now(), Event::SpoolAppend { stream, seq });
                }
                let link = {
                    let mut inner = self.inner.borrow_mut();
                    let console = inner.stages.consoles.get_mut(slot).expect(LIVE);
                    console.handshake.take().expect("connected").link().clone()
                };
                let output = Stage::FirstOutput.event(slot);
                let bytes = costs.first_output_bytes;
                link.send_event(sim, Dir::BToA, bytes, SimDuration::ZERO, &receiver, output);
            }
            Stage::FirstOutput if delivery_outcome(event).is_ok() => {
                if reliable {
                    let seq = u64::from(tries(self)) + 1;
                    let stream = self.console_stream(slot, job);
                    trace.record(sim.now(), Event::SpoolAck { stream, seq });
                }
                trace.record(sim.now(), Event::ConsoleReady { job });
                self.console_done(sim, slot, true);
            }
            Stage::FirstOutput => self.console_retry_or_fail(sim, slot, reliable),
            _ => unreachable!("not a console event: {stage:?}"),
        }
    }

    /// The console's spool stream label, made on first use.
    fn console_stream(&self, slot: u64, job: u64) -> Arc<str> {
        let mut inner = self.inner.borrow_mut();
        let console = inner.stages.consoles.get_mut(slot).expect(LIVE);
        Arc::clone(console.stream.get_or_insert_with(|| label("console:", job)))
    }

    /// A failed attempt: reliable mode retries after the interval while the
    /// budget lasts; otherwise the start-up has failed.
    fn console_retry_or_fail(&self, sim: &mut Sim, slot: u64, reliable: bool) {
        let (tries, costs, job, trace) = {
            let inner = self.inner.borrow();
            let console = inner.stages.consoles.get(slot).expect(LIVE);
            let run = &console.run;
            (console.tries, run.console, run.id.0, inner.trace.clone())
        };
        if reliable && tries < costs.max_retries {
            let attempt = tries + 1;
            trace.record(sim.now(), Event::ConsoleRetry { job, attempt });
            let interval = SimDuration::from_secs_f64(costs.retry_interval_s);
            self.schedule(sim, interval, Stage::ConsoleRetry, slot);
        } else {
            self.console_done(sim, slot, false);
        }
    }

    /// The start-up is over: the barrier hears whether it worked.
    fn console_done(&self, sim: &mut Sim, slot: u64, ok: bool) {
        let console = self.inner.borrow_mut().stages.consoles.remove(slot);
        let Console { run, ui_link, .. } = console.expect(LIVE);
        self.console_up(sim, &run, ok, &ui_link);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::SiteHandle;
    use crate::config::{BrokerConfig, ConsoleCosts};
    use crate::job::JobId;
    use cg_jdl::{JobDescription, StreamingMode};
    use cg_net::{FaultSchedule, LinkProfile, NetError};
    use cg_sim::{Receiver, SimTime};
    use cg_site::{Site, SiteConfig};
    use cg_trace::EventLog;
    use std::cell::{Cell, RefCell};

    type Done = Box<dyn FnOnce(&mut Sim, Result<(), NetError>)>;

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

    /// The GSI handshake as a closure chain, each leg held into its
    /// delivery event.
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

    /// Console start-up as a closure chain, the way it was written before
    /// its steps became typed events — the oracle of the typed start-up.
    #[derive(Clone)]
    struct Chain {
        ui_link: Link,
        costs: ConsoleCosts,
        reliable: bool,
        trace: EventLog,
        job: u64,
    }

    fn startup(sim: &mut Sim, chain: Chain) {
        let start = SimDuration::from_secs_f64(chain.costs.ca_start_s);
        sim.schedule_in(start, move |sim| attempt(sim, chain, 0));
    }

    fn attempt(sim: &mut Sim, chain: Chain, tries: u32) {
        let retry_or_fail = {
            let chain = chain.clone();
            move |sim: &mut Sim| {
                if chain.reliable && tries < chain.costs.max_retries {
                    let retry = Event::ConsoleRetry {
                        job: chain.job,
                        attempt: tries + 1,
                    };
                    chain.trace.record(sim.now(), retry);
                    let interval = SimDuration::from_secs_f64(chain.costs.retry_interval_s);
                    sim.schedule_in(interval, move |sim| attempt(sim, chain, tries + 1));
                }
            }
        };
        let legs = HandshakeProfile::gsi().legs;
        let link = chain.ui_link.clone();
        let on: Done = Box::new(move |sim, r| {
            if r.is_err() {
                return retry_or_fail(sim);
            }
            let job = chain.job;
            chain
                .trace
                .record(sim.now(), Event::ConsoleConnected { job });
            let spool = if chain.reliable {
                SimDuration::from_secs_f64(chain.costs.spool_op_s)
            } else {
                SimDuration::ZERO
            };
            sim.schedule_in(spool, move |sim| {
                let seq = u64::from(tries) + 1;
                if chain.reliable {
                    let stream = format!("console:{job}").into();
                    chain
                        .trace
                        .record(sim.now(), Event::SpoolAppend { stream, seq });
                }
                let (link, bytes) = (chain.ui_link.clone(), chain.costs.first_output_bytes);
                link.send(sim, Dir::BToA, bytes, move |sim, r| match r {
                    Ok(()) => {
                        if chain.reliable {
                            let stream = format!("console:{job}").into();
                            chain
                                .trace
                                .record(sim.now(), Event::SpoolAck { stream, seq });
                        }
                        chain.trace.record(sim.now(), Event::ConsoleReady { job });
                    }
                    Err(_) => retry_or_fail(sim),
                });
            });
        });
        connect(sim, link, Dir::BToA, legs, on);
    }

    /// A start-up seen from outside: the console's trace, the instant of
    /// every event the sim ran, the UI link's counters and the sim's next
    /// random draw.
    type Observed = (String, Vec<u64>, (u64, u64, u64), u64);

    fn observe(seed: u64, faults: &FaultSchedule, mode: &str, typed: bool) -> Observed {
        let mut sim = Sim::new(seed);
        let ran = Rc::new(RefCell::new(Vec::new()));
        let times = Rc::clone(&ran);
        let ui_link = Link::with_faults(LinkProfile::wan_ifca(), faults.clone());
        let costs = ConsoleCosts::default();
        let (trace, _broker) = if typed {
            let site = Site::new(SiteConfig::default());
            let handle = SiteHandle {
                site,
                broker_link: Link::new(LinkProfile::campus()),
                ui_link: ui_link.clone(),
            };
            let mds = Link::new(LinkProfile::wan_mds());
            let broker = CrossBroker::new(&mut sim, vec![handle], mds, BrokerConfig::default());
            let jdl = format!(
                "Executable = \"x\"; JobType = \"interactive\"; StreamingMode = \"{mode}\";"
            );
            let job = JobDescription::parse(&jdl).expect("a console job");
            let run = Rc::new(Run::detached(&broker, JobId(7), job, costs));
            sim.set_trace(move |at, _| times.borrow_mut().push(at.as_nanos()));
            broker.console_startup(&mut sim, &run, &ui_link);
            (broker.event_log(), Some(broker))
        } else {
            let trace = EventLog::new(1_024);
            let chain = Chain {
                ui_link: ui_link.clone(),
                costs,
                reliable: mode == "reliable",
                trace: trace.clone(),
                job: 7,
            };
            sim.set_trace(move |at, _| times.borrow_mut().push(at.as_nanos()));
            startup(&mut sim, chain);
            (trace, None)
        };
        // Before the index's first refresh: only the console runs.
        sim.run_until(SimTime::from_secs(250));
        let stats = ui_link.stats();
        let ran = ran.take();
        (
            trace.to_jsonl(),
            ran,
            (stats.delivered, stats.failed, stats.bytes),
            sim.rng().u64(),
        )
    }

    #[test]
    fn a_typed_console_startup_is_the_closure_chain() {
        assert_eq!(
            StreamingMode::Reliable,
            JobDescription::parse(r#"Executable = "x"; StreamingMode = "reliable";"#)
                .unwrap()
                .streaming_mode
        );
        let window = |from: u64, until: u64| {
            FaultSchedule::from_windows(vec![(SimTime::from_secs(from), SimTime::from_secs(until))])
        };
        let cut = |at_ms: u64| {
            let at = SimTime::from_nanos(at_ms * 1_000_000);
            FaultSchedule::from_windows(vec![(at, at + SimDuration::from_secs(3))])
        };
        for seed in 0..6 {
            let cases = [
                ("reliable", FaultSchedule::none(), "ready"),
                // Down until 20 s: attempts fail and retry until one gets through.
                ("reliable", window(0, 20), "ready"),
                // Down past the retry budget: the start-up fails.
                ("reliable", window(0, 200), "failed"),
                // Cut mid-handshake: one retry.
                ("reliable", cut(1_150), "ready"),
                // Fast mode: any failure ends the start-up.
                ("fast", window(0, 20), "failed"),
                ("fast", cut(1_150), "failed"),
                ("fast", FaultSchedule::none(), "ready"),
            ];
            for (mode, faults, outcome) in cases {
                let typed = observe(seed, &faults, mode, true);
                let chain = observe(seed, &faults, mode, false);
                assert_eq!(typed, chain, "seed {seed}, {mode}, {faults:?}");
                let ready = typed.0.contains("ConsoleReady");
                assert_eq!(ready, outcome == "ready", "seed {seed}, {mode}, {faults:?}");
                if faults.is_down(SimTime::from_secs(1)) && mode == "reliable" {
                    assert!(typed.0.contains("ConsoleRetry"), "seed {seed}: no retry");
                }
            }
        }
    }
}
