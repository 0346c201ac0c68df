//! The glide-in agent pool (§5.2): deploying an agent as a batch job
//! through a site's gatekeeper, the redeploy breaker for agents that die
//! young, the batch-vm bookkeeping of the batch job that brought the agent
//! in, and the agent's departure once that job and its guests are done.

use std::cell::{OnceCell, RefCell};
use std::collections::hash_map::Entry;
use std::rc::Rc;
use std::sync::Arc;

use cg_sim::{Sim, SimDuration, SimTime};
use cg_trace::Event;
use cg_vm::{deploy_agent, Agent, AgentCosts, AgentEvent, AgentId};

use super::events::Stage;
use super::{label, AgentEntry, CrossBroker};
use crate::fairshare::UsageKind;
use crate::job::JobId;

/// Delivered fraction of the nominal batch share on shared machines.
const SHARE_EFFICIENCY: f64 = 0.92;
const _: () = assert!(SHARE_EFFICIENCY >= 0.5 && SHARE_EFFICIENCY <= 1.0);
/// Wait before a replacement deployment ("new agents will be submitted when
/// possible", §5.2).
const AGENT_REDEPLOY_DELAY: SimDuration = SimDuration::from_secs(30);
/// Consecutive short-lived involuntary deaths per site tolerated before
/// giving up on redeployment there.
const AGENT_REDEPLOY_BUDGET: u32 = 3;
/// An agent surviving at least this long counts as healthy and resets the
/// site's redeploy breaker.
const AGENT_MIN_UPTIME: SimDuration = SimDuration::from_secs(600);

/// Type-erased continuation of an agent deployment.
type DeployCallback = Box<dyn FnOnce(&mut Sim, CrossBroker, Option<AgentId>)>;

impl CrossBroker {
    /// Pre-deploys a glide-in agent at `site_index` — operators (and the
    /// Table I experiment) warm the pool this way so interactive jobs find a
    /// live interactive-vm immediately.
    pub fn predeploy_agent(
        &self,
        sim: &mut Sim,
        site_index: usize,
        then: impl FnOnce(&mut Sim, bool) + 'static,
    ) {
        self.deploy_agent_at(sim, site_index, move |sim, _broker, aid| {
            then(sim, aid.is_some());
        });
    }

    pub(super) fn agent(&self, aid: AgentId) -> Option<Rc<RefCell<Agent>>> {
        let inner = self.inner.borrow();
        inner.agents.get(&aid).map(|e| Rc::clone(&e.agent))
    }

    /// Deploys a glide-in agent at the given site; `then` receives the agent
    /// id once `Ready`, or `None` on failure.
    pub(super) fn deploy_agent_at(
        &self,
        sim: &mut Sim,
        site_index: usize,
        then: impl FnOnce(&mut Sim, CrossBroker, Option<AgentId>) + 'static,
    ) {
        self.deploy_agent_at_boxed(sim, site_index, Box::new(then));
    }

    /// Non-generic body of [`Self::deploy_agent_at`]; the redeploy-on-death
    /// path re-enters here, so the callback must be type-erased to avoid
    /// recursive monomorphization.
    fn deploy_agent_at_boxed(&self, sim: &mut Sim, site_index: usize, then: DeployCallback) {
        let (site, link, aid) = {
            let mut inner = self.inner.borrow_mut();
            let aid = AgentId(inner.next_agent);
            inner.next_agent += 1;
            inner.stats.agents_deployed += 1;
            inner.trace.record(
                sim.now(),
                Event::AgentDeployed {
                    agent: aid.0,
                    site: inner.site_name(site_index),
                },
            );
            let s = &inner.sites[site_index];
            (s.site.clone(), s.broker_link.clone(), aid)
        };
        let weak = self.downgrade();
        let then = RefCell::new(Some(then));
        let agent_slot: Rc<RefCell<Option<Rc<RefCell<Agent>>>>> = Rc::new(RefCell::new(None));
        let agent_slot2 = Rc::clone(&agent_slot);
        // The glide-in costs are cg-vm's calibrated defaults.
        let (share_eff, costs) = (SHARE_EFFICIENCY, AgentCosts::default());
        let agent = deploy_agent(sim, aid, &site, &link, share_eff, costs, move |sim, ev| {
            let Some(this) = weak.upgrade() else {
                return;
            };
            // The pool entry appears with the first of `Submitted`/`Ready`
            // to arrive after `deploy_agent` handed the agent back.
            let with_entry = |update: &dyn Fn(&mut AgentEntry)| {
                let mut inner = this.inner.borrow_mut();
                let entry = match inner.agents.entry(aid) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(v) => {
                        let Some(agent) = agent_slot2.borrow().clone() else {
                            return;
                        };
                        v.insert(AgentEntry {
                            agent,
                            site_index,
                            target: OnceCell::new(),
                            carrier: None,
                            leased_until: SimTime::ZERO,
                            batch_usage: None,
                            batch_done: false,
                            has_batch: false,
                            ready_at: SimTime::MAX,
                        })
                    }
                };
                update(entry);
            };
            let finish = |sim: &mut Sim, aid: Option<AgentId>| {
                if let Some(f) = then.borrow_mut().take() {
                    f(sim, this.clone(), aid);
                }
            };
            match ev {
                AgentEvent::Submitted { carrier } => {
                    with_entry(&|e| e.carrier = Some(*carrier));
                }
                AgentEvent::Ready { .. } => {
                    with_entry(&|e| e.ready_at = sim.now());
                    {
                        let inner = this.inner.borrow();
                        inner
                            .trace
                            .record(sim.now(), Event::AgentReady { agent: aid.0 });
                        // Route the agent's VM slot transitions into the
                        // broker-wide log.
                        if let Some(e) = inner.agents.get(&aid) {
                            e.agent
                                .borrow()
                                .vm
                                .set_trace(inner.trace.clone(), label("agent-", aid.0));
                        }
                    }
                    finish(sim, Some(aid));
                }
                AgentEvent::Died { reason } => {
                    let voluntary = reason == "agent left the machine";
                    let redeploy = {
                        let mut inner = this.inner.borrow_mut();
                        inner.trace.record(
                            sim.now(),
                            Event::AgentDied {
                                agent: aid.0,
                                reason: reason.clone(),
                                voluntary,
                            },
                        );
                        let mut uptime = SimDuration::ZERO;
                        if let Some(e) = inner.agents.remove(&aid) {
                            if let Some(u) = e.batch_usage {
                                inner.fairshare.release(u);
                            }
                            uptime = sim.now().saturating_since(e.ready_at);
                        }
                        if voluntary {
                            false
                        } else {
                            // A healthy long-lived agent resets the site's
                            // breaker; a short-lived one trips it further.
                            if uptime >= AGENT_MIN_UPTIME {
                                inner.sites[site_index].agent_deaths = 1;
                            } else {
                                inner.sites[site_index].agent_deaths += 1;
                            }
                            inner.sites[site_index].agent_deaths <= AGENT_REDEPLOY_BUDGET
                        }
                    };
                    if redeploy {
                        // "New agents will be submitted when possible" (§5.2).
                        let site = site_index as u64;
                        this.schedule(sim, AGENT_REDEPLOY_DELAY, Stage::Redeploy, site);
                    }
                    finish(sim, None);
                }
                AgentEvent::Failed(_) => finish(sim, None),
                AgentEvent::Queued => {}
            }
        });
        *agent_slot.borrow_mut() = Some(agent);
    }

    /// A replacement for an agent that died young.
    pub(super) fn redeploy_agent(&self, sim: &mut Sim, site_index: usize) {
        self.deploy_agent_at_boxed(sim, site_index, Box::new(|_, _, _| {}));
    }

    /// The batch job that brought the agent in is executing on its batch-vm,
    /// at the agent's site.
    pub(super) fn batch_started(&self, sim: &mut Sim, id: JobId, aid: AgentId, user: &Arc<str>) {
        let sites = {
            let mut inner = self.inner.borrow_mut();
            let usage = inner
                .fairshare
                .register(Arc::clone(user), UsageKind::Batch, 1);
            let site_index = inner.agents.get_mut(&aid).map(|e| {
                e.has_batch = true;
                e.batch_done = false;
                e.batch_usage = Some(usage);
                e.site_index
            });
            site_index.map(|i| inner.site_name(i)).into_iter().collect()
        };
        self.mark_running(sim, id, sites, None);
        self.ensure_fairshare_tick(sim);
    }

    /// The agent's batch job is over (finished or cancelled).
    pub(super) fn batch_ended(&self, now: SimTime, aid: AgentId) {
        let mut inner = self.inner.borrow_mut();
        if let Some(e) = inner.agents.get_mut(&aid) {
            e.batch_done = true;
            if let Some(u) = e.batch_usage.take() {
                inner.fairshare.release(u);
            }
            inner
                .trace
                .record(now, Event::AgentBatchFinished { agent: aid.0 });
        }
    }

    /// "After completion of the batch job, the agent leaves the machine" —
    /// once no interactive job is using it either.
    pub(super) fn maybe_agent_departs(&self, sim: &mut Sim, aid: AgentId) {
        let action = {
            let inner = self.inner.borrow();
            let Some(entry) = inner.agents.get(&aid) else {
                return;
            };
            let idle_interactive = entry.agent.borrow().interactive_free() >= 1;
            if entry.has_batch && entry.batch_done && idle_interactive {
                entry
                    .carrier
                    .map(|c| (inner.sites[entry.site_index].site.clone(), c))
            } else {
                None
            }
        };
        if let Some((site, carrier)) = action {
            site.lrms().complete(sim, carrier);
            // The deploy callback maps the carrier's Finished to Died and
            // prunes the pool entry.
        }
    }
}
