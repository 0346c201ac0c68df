//! The broker's own events. Every step a job takes after submission is a
//! typed event for one of the broker's two receivers: the live sweep's
//! (`sweep.rs`), and this one, whose events name their [`Stage`] in `aux`
//! and the stage's slab slot — or a value — in `payload`; an event that is
//! a message's arrival carries the link's outcome in `tag`. Both receivers
//! hold the broker through a `Weak`, so a pending event never keeps it
//! alive, and the state a step needs waits in [`Stages`] until the step's
//! event fires (DESIGN §7l has which stage owns which slab).

use std::collections::HashSet;
use std::rc::Rc;

use cg_jdl::JobDescription;
use cg_sim::{EventId, Sim, SimDuration, Slab, TypedEvent};

use super::console::Console;
use super::discovery::Discovery;
use super::staging::Staging;
use super::sweep::FinishedSweep;
use super::CrossBroker;
use crate::job::JobId;

/// What a broker event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Stage {
    /// A live sweep is over: select from what it collected.
    SweepDone,
    /// Delegation to an agent is done: send it the sandbox.
    Delegated,
    /// The sandbox reached the agent (or did not).
    Staged,
    /// The Console Agent has started on the worker node.
    ConsoleStart,
    /// A leg of the console's GSI handshake, or its hand-off.
    ConsoleGsi,
    /// Reliable mode has spooled the first output.
    Spooled,
    /// The first output reached the user (or did not).
    FirstOutput,
    /// A failed console attempt's retry interval is over.
    ConsoleRetry,
    /// A resubmission's back-off is over.
    Resubmit,
    /// The broker queue's retry interval is over.
    QueueRetry,
    /// The fair-share tick.
    Tick,
    /// Deploy a replacement agent at the site in the payload.
    Redeploy,
    /// Snapshot the journal; the payload is the period in nanoseconds.
    Snapshot,
}

impl Stage {
    const ALL: [Stage; 13] = [
        Stage::SweepDone,
        Stage::Delegated,
        Stage::Staged,
        Stage::ConsoleStart,
        Stage::ConsoleGsi,
        Stage::Spooled,
        Stage::FirstOutput,
        Stage::ConsoleRetry,
        Stage::Resubmit,
        Stage::QueueRetry,
        Stage::Tick,
        Stage::Redeploy,
        Stage::Snapshot,
    ];

    /// The event for this stage with `payload`.
    pub(super) fn event(self, payload: u64) -> TypedEvent {
        TypedEvent::new(self as u16, payload)
    }
}

/// A job waiting out its resubmission back-off.
pub(super) struct Resubmission {
    pub(super) id: JobId,
    pub(super) job: JobDescription,
    pub(super) runtime: SimDuration,
    pub(super) excluded: HashSet<usize>,
}

/// The state of every step in flight, one slab per stage that has any.
#[derive(Default)]
pub(super) struct Stages {
    /// MDS queries, by query token (`discovery`).
    pub(super) discoveries: Slab<Discovery>,
    /// Sweeps that are over, until their selection event (`sweep`).
    pub(super) finished_sweeps: Slab<FinishedSweep>,
    /// Delegations and sandbox transfers to agents (`commit`).
    pub(super) stagings: Slab<Staging>,
    /// Console start-ups (`console`).
    pub(super) consoles: Slab<Console>,
    /// Resubmission back-offs (`commit`).
    pub(super) resubmissions: Slab<Resubmission>,
}

impl Stages {
    /// Steps in flight: zero once a drained world is idle.
    pub(super) fn in_flight(&self) -> usize {
        self.discoveries.len()
            + self.finished_sweeps.len()
            + self.stagings.len()
            + self.consoles.len()
            + self.resubmissions.len()
    }
}

impl CrossBroker {
    /// Schedules `stage`'s event with `payload` after `delay`.
    pub(super) fn schedule(
        &self,
        sim: &mut Sim,
        delay: SimDuration,
        stage: Stage,
        payload: u64,
    ) -> EventId {
        let receiver = Rc::clone(&self.inner.borrow().receiver);
        sim.schedule_event_in(delay, &receiver, stage.event(payload))
    }

    /// The receiver of every broker event but the live sweep's.
    pub(super) fn on_event(&self, sim: &mut Sim, event: TypedEvent) {
        let stage = Stage::ALL[usize::from(event.aux)];
        match stage {
            Stage::SweepDone => self.sweep_done(sim, event.payload),
            Stage::Delegated | Stage::Staged => self.on_staging(sim, stage, event),
            Stage::ConsoleStart
            | Stage::ConsoleGsi
            | Stage::Spooled
            | Stage::FirstOutput
            | Stage::ConsoleRetry => self.on_console(sim, stage, event),
            Stage::Resubmit => {
                let waiting = self
                    .inner
                    .borrow_mut()
                    .stages
                    .resubmissions
                    .remove(event.payload);
                let r = waiting.expect("one event per resubmission");
                self.route(sim, r.id, r.job, r.runtime, r.excluded);
            }
            Stage::QueueRetry => {
                self.inner.borrow_mut().queue_retry_scheduled = false;
                self.retry_broker_queue(sim);
            }
            Stage::Tick => self.fairshare_tick(sim),
            Stage::Redeploy => self.redeploy_agent(sim, event.payload as usize),
            Stage::Snapshot => self.snapshot_tick(sim, SimDuration::from_nanos(event.payload)),
        }
    }
}
