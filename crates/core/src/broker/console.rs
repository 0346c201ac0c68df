//! Grid Console start-up (§4): the tail of every interactive subjob, ending
//! with the first output reaching the user.

use cg_net::{Dir, HandshakeProfile, Link, Session};
use cg_sim::{Sim, SimDuration};
use cg_trace::{Event, EventLog};

/// Completion callback of a [`console_startup`] attempt chain.
type ConsoleDone = Box<dyn FnOnce(&mut Sim, bool)>;

/// Everything a console-startup attempt carries between retries.
#[derive(Clone)]
struct ConsoleStartup {
    ui_link: Link,
    costs: crate::config::ConsoleCosts,
    mode: cg_jdl::StreamingMode,
    trace: EventLog,
    job: u64,
}

/// The tail of every interactive path: the Console Agent starts on the WN,
/// opens a GSI session back to the shadow, and sends the first output.
/// In *reliable* streaming mode the output is spooled (a small disk cost)
/// and failed connections are retried at the configured interval; in *fast*
/// mode any failure ends the startup (§4).
pub(super) fn console_startup(
    sim: &mut Sim,
    ui_link: Link,
    costs: crate::config::ConsoleCosts,
    mode: cg_jdl::StreamingMode,
    trace: EventLog,
    job: u64,
    done: impl FnOnce(&mut Sim, bool) + 'static,
) {
    fn attempt(sim: &mut Sim, ctx: ConsoleStartup, tries: u32, done: ConsoleDone) {
        let ConsoleStartup {
            ui_link,
            costs,
            mode,
            trace,
            job,
        } = ctx.clone();
        let reliable = mode == cg_jdl::StreamingMode::Reliable;
        let trace2 = trace.clone();
        let retry_or_fail = move |sim: &mut Sim, done: ConsoleDone| {
            if reliable && tries < costs.max_retries {
                trace2.record(
                    sim.now(),
                    Event::ConsoleRetry {
                        job,
                        attempt: tries + 1,
                    },
                );
                let interval = SimDuration::from_secs_f64(costs.retry_interval_s);
                sim.schedule_in(interval, move |sim| attempt(sim, ctx, tries + 1, done));
            } else {
                done(sim, false);
            }
        };
        // CA (at the site, endpoint B) connects home to the shadow (A).
        Session::connect(
            sim,
            ui_link,
            Dir::BToA,
            HandshakeProfile::gsi(),
            move |sim, r| {
                match r {
                    Err(_) => retry_or_fail(sim, done),
                    Ok(session) => {
                        trace.record(sim.now(), Event::ConsoleConnected { job });
                        // Reliable mode spools the output before sending.
                        let spool = if reliable {
                            SimDuration::from_secs_f64(costs.spool_op_s)
                        } else {
                            SimDuration::ZERO
                        };
                        sim.schedule_in(spool, move |sim| {
                            if reliable {
                                trace.record(
                                    sim.now(),
                                    Event::SpoolAppend {
                                        stream: format!("console:{job}"),
                                        seq: tries as u64 + 1,
                                    },
                                );
                            }
                            session.send(sim, costs.first_output_bytes, move |sim, r| match r {
                                Ok(()) => {
                                    if reliable {
                                        trace.record(
                                            sim.now(),
                                            Event::SpoolAck {
                                                stream: format!("console:{job}"),
                                                seq: tries as u64 + 1,
                                            },
                                        );
                                    }
                                    trace.record(sim.now(), Event::ConsoleReady { job });
                                    done(sim, true);
                                }
                                Err(_) => retry_or_fail(sim, done),
                            });
                        });
                    }
                }
            },
        );
    }
    let start = SimDuration::from_secs_f64(costs.ca_start_s);
    sim.schedule_in(start, move |sim| {
        let ctx = ConsoleStartup {
            ui_link,
            costs,
            mode,
            trace,
            job,
        };
        attempt(sim, ctx, 0, Box::new(done));
    });
}
