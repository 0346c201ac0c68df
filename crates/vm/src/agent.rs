//! The glide-in agent: how the broker acquires worker nodes behind the
//! site's back.
//!
//! "This multi-programming scheme takes advantage of the Condor Glide-In
//! mechanism, and is based on the transparent submission of job agents …
//! The agent gains control of remote machines independently of the
//! local-site job manager." (§5.2)
//!
//! The agent travels *as a batch job* through the gatekeeper and LRMS; once
//! it starts on a worker node it splits the node into a batch-vm and an
//! interactive-vm ([`VmMachine`]) and registers directly with the broker.
//! From then on the broker talks to it over a direct connection — the reason
//! shared-mode submission skips the Globus/LRMS layers and lands at 6.79 s in
//! Table I. If the agent dies (LRMS kill, node failure) the broker is told so
//! it can resubmit a replacement.

use std::cell::RefCell;
use std::rc::Rc;

use cg_net::{rpc_call, Dir, Link, NetError};
use cg_sim::{Sim, SimDuration};
use cg_site::{GramEvent, LocalJobSpec, Site};

use crate::slot::{SlotError, TaskId, VmMachine};

/// Shared broker-side lifecycle callback.
type AgentCallback = Rc<dyn Fn(&mut Sim, &AgentEvent)>;

/// Broker-side identifier of a deployed agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub u64);

/// Lifecycle events the broker observes for a deployed agent.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentEvent {
    /// The agent's carrier batch job was accepted by the site LRMS.
    Submitted {
        /// LRMS id of the carrier job (used to make the agent leave later).
        carrier: cg_site::LocalJobId,
    },
    /// The carrier job queued behind other work (no free node yet).
    Queued,
    /// The agent is running and registered: its VM slots are usable.
    Ready {
        /// Worker-node index it controls.
        node: usize,
    },
    /// The agent died (killed by the LRMS, node failure, …). The broker
    /// "will submit new agents when possible" (§5.2).
    Died {
        /// Why.
        reason: String,
    },
    /// Deployment failed before the agent started.
    Failed(NetError),
}

/// Calibrated costs of agent-side operations.
#[derive(Debug, Clone, Copy)]
pub struct AgentCosts {
    /// Size of the agent executable staged with the carrier job, bytes.
    pub binary_bytes: u64,
    /// Time for the agent to initialize its VM slots and register, seconds.
    pub startup_s: f64,
    /// Direct-submission request size (job description + proxy), bytes.
    pub submit_req_bytes: u64,
    /// Agent-side processing for a direct interactive start: spawn the
    /// Console Agent and the application, seconds.
    pub exec_start_s: f64,
}

impl Default for AgentCosts {
    fn default() -> Self {
        AgentCosts {
            // The glide-in package carries a private Condor universe —
            // tens of MB; its transfer is a visible part of the paper's
            // 29.3 s job+agent row.
            binary_bytes: 60_000_000,
            startup_s: 4.4,
            submit_req_bytes: 4_000,
            exec_start_s: 0.9,
        }
    }
}

/// A deployed (or deploying) glide-in agent. It holds no handle to the site
/// it runs at: the site's LRMS keeps the carrier job's callback, which keeps
/// the agent, so a site handle here would be a reference cycle that leaks
/// both for as long as the agent lives.
pub struct Agent {
    /// Broker-side id.
    pub id: AgentId,
    /// Broker↔site link (direct agent communication uses it too).
    pub link: Link,
    /// The VM slots, once running.
    pub vm: VmMachine,
    /// Worker node it controls, once running.
    pub node: Option<usize>,
    /// Costs model.
    pub costs: AgentCosts,
    alive: Rc<RefCell<bool>>,
}

impl Agent {
    /// True once `Ready` and until `Died`.
    pub fn is_alive(&self) -> bool {
        *self.alive.borrow() && self.node.is_some()
    }

    /// Marks the agent dead (used by deployment plumbing and tests).
    pub fn mark_dead(&self) {
        *self.alive.borrow_mut() = false;
    }

    /// Free interactive slots right now.
    pub fn interactive_free(&self) -> usize {
        if self.is_alive() {
            self.vm.interactive_free()
        } else {
            0
        }
    }

    /// Submits an interactive job **directly** to the agent, bypassing
    /// Globus and the LRMS: one RPC over the broker↔site link, the agent
    /// spawns the Console Agent + application, and the task runs on the
    /// interactive VM throttling the co-resident batch job by
    /// `performance_loss`.
    ///
    /// `on_started` fires when the application is running (the Table I
    /// "virtual machine" submission path); `on_done` when it finishes.
    pub fn submit_interactive(
        &self,
        sim: &mut Sim,
        work: SimDuration,
        performance_loss: u8,
        on_started: impl FnOnce(&mut Sim) + 'static,
        on_done: impl FnOnce(&mut Sim) + 'static,
    ) -> Result<(), SlotError> {
        if self.vm.interactive_free() == 0 {
            return Err(SlotError::InteractiveBusy);
        }
        let vm = self.vm.clone();
        let exec_start = SimDuration::from_secs_f64(self.costs.exec_start_s);
        let req = self.costs.submit_req_bytes;
        let link = self.link.clone();
        rpc_call(
            sim,
            &link,
            Dir::AToB,
            req,
            200,
            exec_start,
            move |sim, r| {
                match r {
                    Err(_) => {
                        // Direct path failed; the broker's scheduling layer
                        // handles resubmission. The slot was never taken.
                        on_done(sim);
                    }
                    Ok(()) => {
                        on_started(sim);
                        // Run on the interactive VM.
                        let _ = vm.run_interactive(sim, work, performance_loss, on_done);
                    }
                }
            },
        );
        Ok(())
    }

    /// Cancels whatever interactive task is running on this agent's
    /// interactive-vm (user abort). Returns how many tasks were cancelled.
    pub fn cancel_interactive(&self, sim: &mut Sim) -> usize {
        self.vm.cancel_all_interactive(sim)
    }

    /// Runs a batch job on the batch VM (the §5.2 scenario 1 flow where the
    /// batch job triggered the deployment).
    pub fn run_batch(
        &self,
        sim: &mut Sim,
        work: SimDuration,
        on_done: impl FnOnce(&mut Sim) + 'static,
    ) -> Result<TaskId, SlotError> {
        self.vm.run_batch(sim, work, on_done)
    }
}

/// Deploys an agent at `site` over `link`, submitting it through the
/// gatekeeper as a batch job. `on_event` observes the lifecycle; the
/// returned handle's `vm`/`node` become usable at `Ready`.
pub fn deploy_agent(
    sim: &mut Sim,
    id: AgentId,
    site: &Site,
    link: &Link,
    share_efficiency: f64,
    costs: AgentCosts,
    on_event: impl Fn(&mut Sim, &AgentEvent) + 'static,
) -> Rc<RefCell<Agent>> {
    let vm = VmMachine::new(share_efficiency);
    let alive = Rc::new(RefCell::new(false));
    let agent = Rc::new(RefCell::new(Agent {
        id,
        link: link.clone(),
        vm,
        node: None,
        costs,
        alive: Rc::clone(&alive),
    }));
    let carrier = LocalJobSpec {
        nodes: 1,
        runtime: None, // the agent leaves only when told (or killed)
        walltime: None,
        priority: 0,
        user: "glide-in".into(),
    };
    let startup = SimDuration::from_secs_f64(costs.startup_s);
    let agent2 = Rc::clone(&agent);
    let on_event: AgentCallback = Rc::new(on_event);
    site.gatekeeper().submit(
        sim,
        link.clone(),
        carrier,
        costs.binary_bytes,
        move |sim, ev| match ev {
            GramEvent::Accepted { local_id } => {
                on_event(sim, &AgentEvent::Submitted { carrier: *local_id });
            }
            GramEvent::Queued => on_event(sim, &AgentEvent::Queued),
            GramEvent::Started { nodes } => {
                let node = nodes.first().copied().unwrap_or(0);
                // The agent initializes its VM slots, then registers with
                // the broker; it is usable only after `startup`.
                let agent3 = Rc::clone(&agent2);
                let alive2 = Rc::clone(&alive);
                let on_event2 = Rc::clone(&on_event);
                sim.schedule_in(startup, move |sim| {
                    agent3.borrow_mut().node = Some(node);
                    *alive2.borrow_mut() = true;
                    on_event2(sim, &AgentEvent::Ready { node });
                });
            }
            GramEvent::Finished => {
                *alive.borrow_mut() = false;
                agent2.borrow_mut().node = None;
                on_event(
                    sim,
                    &AgentEvent::Died {
                        reason: "agent left the machine".into(),
                    },
                );
            }
            GramEvent::Killed { reason } => {
                *alive.borrow_mut() = false;
                agent2.borrow_mut().node = None;
                on_event(
                    sim,
                    &AgentEvent::Died {
                        reason: reason.clone(),
                    },
                );
            }
            GramEvent::Failed(e) => on_event(sim, &AgentEvent::Failed(*e)),
        },
    );
    agent
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_net::LinkProfile;
    use cg_sim::SimTime;
    use cg_site::{Policy, SiteConfig};

    type EventLog = Rc<RefCell<Vec<(String, f64)>>>;

    fn make_site(nodes: usize) -> Site {
        Site::new(SiteConfig {
            name: "uab".into(),
            nodes,
            policy: Policy::Fifo,
            ..SiteConfig::default()
        })
    }

    /// The site is returned so that it outlives the helper: nothing else in
    /// these tests holds it once the carrier job has started.
    fn deploy_and_run(nodes: usize, busy: bool) -> (Sim, Site, Rc<RefCell<Agent>>, EventLog) {
        let mut sim = Sim::new(7);
        let site = make_site(nodes);
        if busy {
            for _ in 0..nodes {
                site.lrms().submit(
                    &mut sim,
                    LocalJobSpec::simple(SimDuration::from_secs(50_000)),
                    |_, _, _| {},
                );
            }
            sim.run_until(SimTime::from_secs(30));
        }
        let link = Link::new(LinkProfile::campus());
        let log: Rc<RefCell<Vec<(String, f64)>>> = Rc::new(RefCell::new(Vec::new()));
        let log2 = Rc::clone(&log);
        let agent = deploy_agent(
            &mut sim,
            AgentId(1),
            &site,
            &link,
            0.92,
            AgentCosts::default(),
            move |sim, ev| {
                let tag = match ev {
                    AgentEvent::Submitted { .. } => "submitted".to_string(),
                    AgentEvent::Queued => "queued".to_string(),
                    AgentEvent::Ready { node } => format!("ready:{node}"),
                    AgentEvent::Died { reason } => format!("died:{reason}"),
                    AgentEvent::Failed(e) => format!("failed:{e}"),
                };
                log2.borrow_mut().push((tag, sim.now().as_secs_f64()));
            },
        );
        (sim, site, agent, log)
    }

    #[test]
    fn agent_deploys_on_idle_site_and_becomes_ready() {
        let (mut sim, _site, agent, log) = deploy_and_run(2, false);
        sim.run_until(SimTime::from_secs(120));
        let log = log.borrow();
        assert!(log.iter().any(|(t, _)| t == "submitted"), "{log:?}");
        assert!(log.iter().any(|(t, _)| t.starts_with("ready:")), "{log:?}");
        assert!(agent.borrow().is_alive());
        assert_eq!(agent.borrow().interactive_free(), 1);
    }

    #[test]
    fn agent_queues_on_busy_site() {
        let (mut sim, _site, agent, log) = deploy_and_run(1, true);
        sim.run_until(SimTime::from_secs(120));
        assert!(
            log.borrow().iter().any(|(t, _)| t == "queued"),
            "{:?}",
            log.borrow()
        );
        assert!(!agent.borrow().is_alive());
    }

    #[test]
    fn interactive_submission_through_agent_is_fast() {
        let (mut sim, _site, agent, _log) = deploy_and_run(2, false);
        sim.run_until(SimTime::from_secs(120));
        assert!(agent.borrow().is_alive());
        let t0 = sim.now();
        let started = Rc::new(RefCell::new(None));
        let finished = Rc::new(RefCell::new(None));
        {
            let s = Rc::clone(&started);
            let f = Rc::clone(&finished);
            let t0c = t0;
            agent
                .borrow()
                .submit_interactive(
                    &mut sim,
                    SimDuration::from_secs(30),
                    10,
                    move |sim| *s.borrow_mut() = Some((sim.now() - t0c).as_secs_f64()),
                    move |sim| *f.borrow_mut() = Some((sim.now() - t0c).as_secs_f64()),
                )
                .unwrap();
        }
        sim.run();
        let started = started.borrow().unwrap();
        // Direct path: one campus RPC + exec start ≈ 1 s — far below the
        // Globus path's many seconds. (Table I contrast.)
        assert!(started < 2.0, "direct start took {started}s");
        let finished = finished.borrow().unwrap();
        assert!(finished >= started + 30.0, "app ran its 30 s: {finished}");
    }

    #[test]
    fn batch_and_interactive_share_the_vm() {
        let (mut sim, _site, agent, _log) = deploy_and_run(2, false);
        sim.run_until(SimTime::from_secs(120));
        let done_batch = Rc::new(RefCell::new(None));
        {
            let d = Rc::clone(&done_batch);
            let t0 = sim.now();
            agent
                .borrow()
                .run_batch(&mut sim, SimDuration::from_secs(100), move |sim| {
                    *d.borrow_mut() = Some((sim.now() - t0).as_secs_f64());
                })
                .unwrap();
        }
        {
            agent
                .borrow()
                .submit_interactive(&mut sim, SimDuration::from_secs(50), 25, |_| {}, |_| {})
                .unwrap();
        }
        sim.run();
        let batch_took = done_batch.borrow().unwrap();
        assert!(
            batch_took > 130.0,
            "batch must be slowed by the interactive job: {batch_took}s"
        );
    }

    #[test]
    fn second_interactive_refused_never_preempts() {
        let (mut sim, _site, agent, _log) = deploy_and_run(2, false);
        sim.run_until(SimTime::from_secs(120));
        agent
            .borrow()
            .submit_interactive(&mut sim, SimDuration::from_secs(500), 10, |_| {}, |_| {})
            .unwrap();
        sim.run_until(SimTime::from_secs(200));
        let err = agent
            .borrow()
            .submit_interactive(&mut sim, SimDuration::from_secs(5), 10, |_| {}, |_| {})
            .unwrap_err();
        assert_eq!(err, SlotError::InteractiveBusy);
    }

    #[test]
    fn lrms_kill_marks_agent_dead() {
        let (mut sim, site, agent, log) = deploy_and_run(1, false);
        sim.run_until(SimTime::from_secs(120));
        assert!(agent.borrow().is_alive());
        // The site kills the carrier job (e.g. maintenance drain). The
        // carrier is the only running job — find it by killing id 0.
        let lrms = site.lrms();
        assert!(lrms.kill(&mut sim, cg_site::LocalJobId(0), "drained"));
        sim.run_until(SimTime::from_secs(240));
        assert!(!agent.borrow().is_alive());
        assert!(
            log.borrow()
                .iter()
                .any(|(t, _)| t.starts_with("died:drained")),
            "{:?}",
            log.borrow()
        );
    }
}
