//! Staging to an agent: delegation, then the application's sandbox over
//! the broker ↔ site link — the step between an agent slot's dispatch and
//! the application starting on it (§5.2), for an interactive subjob and for
//! the batch job that brought an agent in.

use std::cell::RefCell;
use std::rc::Rc;

use cg_jdl::JobDescription;
use cg_net::{delivery_outcome, Dir, Link};
use cg_sim::{Sim, SimDuration, TypedEvent};
use cg_vm::{Agent, AgentId};

use super::commit::Run;
use super::events::Stage;
use super::CrossBroker;
use crate::job::JobId;

/// Broker-side work for a direct (shared-VM) dispatch: matching the job to
/// the agent ad and proxy delegation to the agent (3.9 s).
const SHARED_DELEGATION: SimDuration = SimDuration::from_millis(3_900);

/// What runs once an agent has the application's sandbox.
pub(super) enum AfterStaging {
    /// A subjob of `run` starts on the agent's interactive-vm.
    Interactive {
        run: Rc<Run>,
        aid: AgentId,
        agent: Rc<RefCell<Agent>>,
        ui_link: Link,
    },
    /// The batch job that brought the agent in runs on its batch-vm.
    Batch {
        aid: AgentId,
        agent: Rc<RefCell<Agent>>,
        runtime: SimDuration,
        job: JobDescription,
    },
}

/// A delegation and sandbox transfer to an agent in flight.
pub(super) struct Staging {
    pub(super) id: JobId,
    pub(super) link: Link,
    pub(super) sandbox: u64,
    pub(super) then: AfterStaging,
}

impl CrossBroker {
    /// Delegation, then the sandbox transfer over the staging's link to an
    /// agent; what follows runs once the application is staged.
    pub(super) fn stage_to_agent(&self, sim: &mut Sim, staging: Staging) {
        let slot = self.inner.borrow_mut().stages.stagings.insert(staging);
        self.schedule(sim, SHARED_DELEGATION, Stage::Delegated, slot);
    }

    /// A staging's events: delegation done, then the sandbox's arrival.
    pub(super) fn on_staging(&self, sim: &mut Sim, stage: Stage, event: TypedEvent) {
        let slot = event.payload;
        if stage == Stage::Delegated {
            let (receiver, link, sandbox) = {
                let inner = self.inner.borrow();
                let staging = inner
                    .stages
                    .stagings
                    .get(slot)
                    .expect("a staging in flight");
                (
                    Rc::clone(&inner.receiver),
                    staging.link.clone(),
                    staging.sandbox,
                )
            };
            let staged = Stage::Staged.event(slot);
            link.send_event(
                sim,
                Dir::AToB,
                sandbox,
                SimDuration::ZERO,
                &receiver,
                staged,
            );
            return;
        }
        let staging = self.inner.borrow_mut().stages.stagings.remove(slot);
        let staging = staging.expect("a staging in flight");
        if delivery_outcome(event).is_err() {
            self.fail(sim, staging.id, "staging to agent failed");
            return;
        }
        match staging.then {
            AfterStaging::Interactive {
                run,
                aid,
                agent,
                ui_link,
            } => self.agent_staged(sim, &run, aid, &agent, ui_link),
            AfterStaging::Batch {
                aid,
                agent,
                runtime,
                job,
            } => self.batch_staged(sim, staging.id, aid, &agent, runtime, &job),
        }
    }
}
