//! Commit: the paper's one submission mechanism (§3, §5.1, §5.2) — grant
//! the exclusive temporal lease, record the dispatch, launch every subjob
//! (two-phase-commit through a gatekeeper, or directly onto an agent's
//! interactive-vm), react to a subjob that queues or is refused, and hold
//! the console start barrier that ends with the first output reaching the
//! user. An interactive submission is a [`Plan`] of [`Slot`]s; the shared,
//! shared-parallel, exclusive and co-allocated paths differ only in the
//! plan they hand to [`CrossBroker::commit`]. One rule serves every plan:
//! its slots label it, its site slots get `EstimatedRuntime` × 4 of
//! walltime, the barrier's last console samples its session, and it is
//! done with its last subjob (an MPI job ends with its last rank).
//! Batch jobs lease and record the same way, then ride an agent's batch-vm.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

use cg_jdl::JobDescription;
use cg_net::{Link, NetError};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{GramEvent, LocalJobSpec};
use cg_trace::Event;
use cg_vm::{Agent, AgentId};

use super::events::{Resubmission, Stage};
use super::staging::{AfterStaging, Staging};
use super::{label, CrossBroker, Inner, Placement, WeakBroker};
use crate::config::ConsoleCosts;
use crate::fairshare::UsageKind;
use crate::job::{JobId, JobState};

/// Where one subjob of an interactive submission runs.
pub(super) enum Slot {
    /// On a pooled glide-in agent's interactive-vm (one node).
    AgentInteractive(AgentId),
    /// `nodes` nodes under a site's LRMS, through its gatekeeper.
    Site { index: usize, nodes: u32 },
}

/// What happens when a slot does not take its subjob: an agent that
/// vanished, died or lost its free slot between selection and delegation,
/// or a site whose LRMS queued the subjob (withdrawn first) or whose
/// two-phase submission failed.
pub(super) enum Refusal {
    /// On-line scheduling (§3): re-enter the job's path after a backoff,
    /// with the refusing site — the problem is the site, not the job —
    /// added to `excluded`.
    Resubmit { excluded: HashSet<usize> },
    /// The plan as a whole is void: fail the job. `withdrawn` is the kill
    /// reason the queued copy's LRMS sees, `reason` the job's.
    Fail {
        withdrawn: &'static str,
        reason: &'static str,
    },
}

/// An interactive submission: the slots its subjobs take and the policies
/// that distinguish the paths (DESIGN.md "Broker pipeline" has the table);
/// its label, walltime, session and finish follow one rule for every plan.
pub(super) struct Plan {
    /// Agent slots first, then site slots; launched in this order.
    pub slots: Vec<Slot>,
    /// Whether a dispatch overwrites `dispatched_at` (the agent paths) or
    /// keeps the first attempt's stamp (the matched paths); Table I's
    /// per-step times read it.
    pub restamp: bool,
    pub refusal: Refusal,
    /// Whether a queued site subjob counts as refused.
    pub refuse_queued: bool,
    /// Fair-share is charged when the application starts on the agent,
    /// with the job's `PerformanceLoss` and one node — rather than at the
    /// barrier, with PL 0 and every node.
    pub charge_at_start: bool,
    /// A site slot runs one console per allocated node, not one per subjob.
    pub console_per_node: bool,
}

impl Plan {
    /// A barrier plan over `slots` with every path-specific policy off.
    pub(super) fn new(slots: Vec<Slot>, refusal: Refusal) -> Plan {
        Plan {
            slots,
            restamp: false,
            refusal,
            refuse_queued: true,
            charge_at_start: false,
            console_per_node: false,
        }
    }
}

/// LRMS walltime of every site slot: the job's `EstimatedRuntime` with a 4×
/// safety factor (the usual operator convention); `None` when undeclared.
fn declared_walltime(job: &JobDescription) -> Option<SimDuration> {
    job.estimated_runtime_s
        .map(|s| SimDuration::from_secs_f64(s * 4.0))
}

/// One dispatched plan in flight: what its subjob callbacks share, and the
/// console start barrier. Subjob callbacks live inside LRMSs and agent VMs,
/// so the broker is held weakly.
pub(super) struct Run {
    broker: WeakBroker,
    pub(super) id: JobId,
    pub(super) job: JobDescription,
    runtime: SimDuration,
    plan: Plan,
    sandbox: u64,
    pub(super) console: ConsoleCosts,
    /// The hosting site of every slot, in slot order.
    site_names: Vec<Arc<str>>,
    consoles_total: u32,
    consoles_up: Cell<u32>,
    failed: Cell<bool>,
    /// The first copy this run placed; see [`CrossBroker::owns`].
    placed: Cell<Option<Placement>>,
}

#[cfg(test)]
impl Run {
    /// A run of `job` with no plan behind it and one console, for driving a
    /// console start-up on its own.
    pub(super) fn detached(
        broker: &CrossBroker,
        id: JobId,
        job: JobDescription,
        console: ConsoleCosts,
    ) -> Run {
        let refusal = Refusal::Fail {
            withdrawn: "",
            reason: "",
        };
        Run {
            broker: broker.downgrade(),
            id,
            job,
            runtime: SimDuration::ZERO,
            plan: Plan::new(Vec::new(), refusal),
            sandbox: 0,
            console,
            site_names: Vec::new(),
            consoles_total: 1,
            consoles_up: Cell::new(0),
            failed: Cell::new(false),
            placed: Cell::new(None),
        }
    }
}

/// Application sandbox size when the job declares none, bytes.
const DEFAULT_SANDBOX_BYTES: u64 = 10_000_000;
fn job_sandbox_bytes(job: &JobDescription) -> u64 {
    let declared = job.sandbox_bytes();
    if declared > 0 {
        declared
    } else {
        DEFAULT_SANDBOX_BYTES
    }
}

/// The lease and dispatch target of a slot: its agent's or site's label,
/// made on first use and shared from then on.
fn slot_label(inner: &Inner, slot: &Slot) -> Arc<str> {
    match slot {
        Slot::AgentInteractive(aid) => match inner.agents.get(aid) {
            Some(e) => Arc::clone(e.target.get_or_init(|| label("agent:", aid.0))),
            // Died since selection: the dispatch fails, the label is traced.
            None => label("agent:", aid.0),
        },
        Slot::Site { index, .. } => site_target(inner, *index),
    }
}

/// A plan's dispatch labels — the site it is `Scheduled` on and the
/// `JobDispatched` target: one slot's host and label, or for several slots
/// `k agent slot(s) + m site(s)` (`m sites` when k = 0) for both.
fn plan_labels(inner: &Inner, slots: &[Slot], site_names: &[Arc<str>]) -> (Arc<str>, Arc<str>) {
    let agents = slots
        .iter()
        .filter(|s| matches!(s, Slot::AgentInteractive(_)))
        .count();
    let label: Arc<str> = match (slots, site_names, agents) {
        ([slot], [host], _) => return (Arc::clone(host), slot_label(inner, slot)),
        ([_], ..) => return Default::default(), // its agent vanished; unused
        (.., 0) => format!("{} sites", slots.len()).into(),
        (.., k) => format!("{k} agent slot(s) + {} site(s)", slots.len() - k).into(),
    };
    (Arc::clone(&label), label)
}

/// `site:{name}`, made on first use.
fn site_target(inner: &Inner, site_index: usize) -> Arc<str> {
    let e = &inner.sites[site_index];
    Arc::clone(e.target.get_or_init(|| label("site:", e.site.name())))
}

impl CrossBroker {
    /// Grants the exclusive temporal lease (§3) on a slot's agent or site.
    pub(super) fn lease(&self, now: SimTime, id: JobId, slot: &Slot) {
        let mut inner = self.inner.borrow_mut();
        let until = now + inner.config.lease;
        match slot {
            Slot::AgentInteractive(aid) => {
                if let Some(e) = inner.agents.get_mut(aid) {
                    e.leased_until = until;
                }
            }
            Slot::Site { index, .. } => inner.sites[*index].leased_until = until,
        }
        inner.trace.record(
            now,
            Event::LeaseGranted {
                job: id.0,
                target: slot_label(&inner, slot),
                until_ns: until.as_nanos(),
            },
        );
    }

    /// The dispatch record: the job is `Scheduled` on `scheduled`, stamped,
    /// and `JobDispatched` to `target` is traced with the execution backend
    /// of the site at `backend_of` (uniform across a plan in practice).
    fn record_dispatch(
        &self,
        now: SimTime,
        id: JobId,
        scheduled: Arc<str>,
        target: Arc<str>,
        backend_of: Option<usize>,
        restamp: bool,
    ) {
        let inner = self.inner.borrow();
        inner.jobs.update(id, |r| {
            if restamp {
                r.dispatched_at = Some(now);
            } else {
                r.dispatched_at.get_or_insert(now);
            }
            r.state = JobState::Scheduled { site: scheduled };
        });
        let backend = inner
            .names
            .backend(backend_of.map_or(cg_site::BackendKind::SimLrms, |i| {
                inner.sites[i].site.backend_kind()
            }));
        inner.trace.record(
            now,
            Event::JobDispatched {
                job: id.0,
                target,
                backend,
            },
        );
    }

    /// Leases every slot of the plan, then dispatches it.
    pub(super) fn commit(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
        plan: Plan,
    ) {
        for slot in &plan.slots {
            self.lease(sim.now(), id, slot);
        }
        self.dispatch(sim, id, job, runtime, plan);
    }

    /// Records the dispatch and launches every subjob of a leased plan.
    pub(super) fn dispatch(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
        plan: Plan,
    ) {
        let (run, (scheduled, target), backend_of) = {
            let inner = self.inner.borrow();
            let hosts: Vec<usize> = plan
                .slots
                .iter()
                .filter_map(|slot| match slot {
                    Slot::AgentInteractive(aid) => inner.agents.get(aid).map(|e| e.site_index),
                    Slot::Site { index, .. } => Some(*index),
                })
                .collect();
            let site_names: Vec<Arc<str>> = hosts.iter().map(|&i| inner.site_name(i)).collect();
            let labels = plan_labels(&inner, &plan.slots, &site_names);
            // One dispatch record covers a mixed plan; label it with the
            // first site slot's backend, else the first agent's site's.
            let backend_of = plan
                .slots
                .iter()
                .position(|s| matches!(s, Slot::Site { .. }))
                .or(Some(0))
                .and_then(|p| hosts.get(p).copied());
            let consoles_total = plan
                .slots
                .iter()
                .map(|slot| match slot {
                    Slot::Site { nodes, .. } if plan.console_per_node => *nodes,
                    _ => 1,
                })
                .sum();
            let run = Run {
                broker: self.downgrade(),
                id,
                sandbox: job_sandbox_bytes(&job),
                job,
                runtime,
                plan,
                console: inner.config.console,
                site_names,
                consoles_total,
                consoles_up: Cell::new(0),
                failed: Cell::new(false),
                placed: Cell::new(None),
            };
            (Rc::new(run), labels, backend_of)
        };
        if run.site_names.len() != run.plan.slots.len() {
            // Selection raced an agent's death.
            self.agent_refused(sim, &run, "agent vanished before dispatch");
            return;
        }
        let restamp = run.plan.restamp;
        self.record_dispatch(sim.now(), id, scheduled, target, backend_of, restamp);
        if let Some(live) = self.inner.borrow_mut().live.get_mut(&id) {
            live.subjobs = run.plan.slots.len();
            live.counted.clear();
        }
        for slot in &run.plan.slots {
            match slot {
                Slot::AgentInteractive(aid) => self.launch_agent_subjob(sim, &run, *aid),
                Slot::Site { index, nodes } => self.launch_site_subjob(sim, &run, *index, *nodes),
            }
        }
    }

    /// Direct dispatch of one subjob to a glide-in agent: delegation +
    /// sandbox transfer + agent exec + console startup.
    fn launch_agent_subjob(&self, sim: &mut Sim, run: &Rc<Run>, aid: AgentId) {
        let (agent, broker_link, ui_link) = {
            let inner = self.inner.borrow();
            let entry = &inner.agents[&aid]; // `dispatch` resolved it this instant
            let site = &inner.sites[entry.site_index];
            (
                Rc::clone(&entry.agent),
                site.broker_link.clone(),
                site.ui_link.clone(),
            )
        };
        let staging = Staging {
            id: run.id,
            link: broker_link,
            sandbox: run.sandbox,
            then: AfterStaging::Interactive {
                run: Rc::clone(run),
                aid,
                agent,
                ui_link,
            },
        };
        self.stage_to_agent(sim, staging);
    }

    /// The subjob's application is on the agent: start it there.
    pub(super) fn agent_staged(
        &self,
        sim: &mut Sim,
        run: &Rc<Run>,
        aid: AgentId,
        agent: &Rc<RefCell<Agent>>,
        ui_link: Link,
    ) {
        // The agent may have been killed while the sandbox was in flight;
        // where races resubmit, a dead target is one.
        if matches!(run.plan.refusal, Refusal::Resubmit { .. })
            && !(self.inner.borrow().agents.contains_key(&aid) && agent.borrow().is_alive())
        {
            self.agent_refused(sim, run, "agent died during dispatch");
            return;
        }
        self.place(run, Placement::AgentInteractive { aid });
        let (started, finished) = (Rc::clone(run), Rc::clone(run));
        let result = agent.borrow().submit_interactive(
            sim,
            run.runtime,
            run.job.performance_loss,
            move |sim| {
                if let Some(this) = started.broker.upgrade() {
                    this.agent_subjob_started(sim, &started, aid, &ui_link);
                }
            },
            // The batch job gets its CPU back, then the subjob settles.
            move |sim| {
                if let Some(this) = finished.broker.upgrade() {
                    this.restore_batch(sim.now(), finished.id, aid);
                    let copy = Placement::AgentInteractive { aid };
                    this.subjob_finished(sim, finished.id, Some(copy));
                }
            },
        );
        if result.is_err() {
            self.agent_refused(sim, run, "agent slot taken concurrently");
        }
    }

    /// The application is running on the agent: the co-resident batch job
    /// yields (its user is charged a_f = PL/100, §5.1) and the console
    /// comes up.
    fn agent_subjob_started(&self, sim: &mut Sim, run: &Rc<Run>, aid: AgentId, ui_link: &Link) {
        {
            let mut inner = self.inner.borrow_mut();
            let performance_loss = run.job.performance_loss;
            if let Some(usage) = inner.agents.get(&aid).and_then(|e| e.batch_usage) {
                let kind = UsageKind::YieldedBatch { performance_loss };
                inner.fairshare.set_kind(usage, kind);
                inner.trace.record(
                    sim.now(),
                    Event::BatchYielded {
                        agent: aid.0,
                        job: run.id.0,
                        performance_loss: u32::from(performance_loss),
                    },
                );
            }
            if run.plan.charge_at_start {
                inner.charge_interactive(run.id, &run.job.user, performance_loss, 1);
            }
        }
        self.console_startup(sim, run, ui_link);
    }

    /// The co-resident batch job of an agent whose interactive subjob ended
    /// (or was cancelled) goes back to normal charging.
    pub(super) fn restore_batch(&self, now: SimTime, id: JobId, aid: AgentId) {
        let mut inner = self.inner.borrow_mut();
        let entry = inner.agents.get(&aid).filter(|e| !e.batch_done);
        if let Some(usage) = entry.and_then(|e| e.batch_usage) {
            inner.fairshare.set_kind(usage, UsageKind::Batch);
            inner.trace.record(
                now,
                Event::BatchRestored {
                    agent: aid.0,
                    job: id.0,
                },
            );
        }
    }

    /// One subjob through a site's gatekeeper (two-phase commit, §6.1).
    fn launch_site_subjob(&self, sim: &mut Sim, run: &Rc<Run>, site_index: usize, nodes: u32) {
        let (site, broker_link, ui_link) = {
            let inner = self.inner.borrow();
            let e = &inner.sites[site_index];
            (e.site.clone(), e.broker_link.clone(), e.ui_link.clone())
        };
        let spec = LocalJobSpec {
            nodes,
            runtime: Some(run.runtime),
            walltime: declared_walltime(&run.job),
            priority: 0,
            user: Arc::clone(&run.job.user),
        };
        let (online, withdrawn) = match run.plan.refusal {
            Refusal::Resubmit { .. } => (true, "withdrawn by broker (on-line scheduling)"),
            Refusal::Fail { withdrawn, .. } => (false, withdrawn),
        };
        let consoles = if run.plan.console_per_node { nodes } else { 1 };
        let run = Rc::clone(run);
        let started = Cell::new(false);
        let local = Cell::new(None);
        site.gatekeeper()
            .submit(sim, broker_link, spec, run.sandbox, move |sim, ev| {
                let Some(this) = run.broker.upgrade() else {
                    return;
                };
                if !this.owns(&run) {
                    // The job has moved on without this run; the copy's
                    // finish still frees its nodes for the broker queue.
                    if matches!(ev, GramEvent::Finished) {
                        this.retry_broker_queue(sim);
                    }
                    return;
                }
                match ev {
                    GramEvent::Accepted { local_id } => {
                        local.set(Some(*local_id));
                        let local = *local_id;
                        this.place(&run, Placement::Site { site_index, local });
                    }
                    GramEvent::Started { .. } => {
                        started.set(true);
                        if online {
                            this.note_lease_result(site_index, true);
                        }
                        for _ in 0..consoles {
                            this.console_startup(sim, &run, &ui_link);
                        }
                    }
                    GramEvent::Queued
                        if run.plan.refuse_queued && !started.get() && !run.failed.get() =>
                    {
                        // It queued instead of starting: withdraw the copy
                        // so it never takes nodes behind the broker's back,
                        // and forget where it was.
                        if let Some(lid) = local.get() {
                            let lrms = this.inner.borrow().sites[site_index].site.lrms().clone();
                            lrms.kill(sim, lid, withdrawn);
                            this.remove_site_placement(run.id, site_index, lid);
                        }
                        this.site_refused(sim, &run, site_index, None);
                    }
                    GramEvent::Finished => {
                        let copy = local
                            .get()
                            .map(|local| Placement::Site { site_index, local });
                        this.subjob_finished(sim, run.id, copy);
                    }
                    // A kill before the start is our own withdrawal; one
                    // after it takes the job down, whatever the plan (a
                    // barrier job cannot run short a subjob).
                    GramEvent::Killed { reason } if started.get() => {
                        this.fail_run(sim, &run, &format!("killed at site: {reason}"));
                    }
                    // The two-phase submission detected the error before
                    // the job reached the LRMS (§6.1).
                    GramEvent::Failed(e) => this.site_refused(sim, &run, site_index, Some(e)),
                    GramEvent::Queued | GramEvent::Killed { .. } => {}
                }
            });
    }

    fn agent_refused(&self, sim: &mut Sim, run: &Run, reason: &str) {
        match &run.plan.refusal {
            Refusal::Resubmit { excluded } => {
                let exhausted = format!("{reason}; resubmission budget exhausted");
                self.resubmit(sim, run, excluded.clone(), &exhausted);
            }
            Refusal::Fail { .. } => self.fail_run(sim, run, reason),
        }
    }

    /// A site queued the subjob (`error` is `None`; the copy is already
    /// withdrawn) or failed its submission.
    fn site_refused(&self, sim: &mut Sim, run: &Run, site_index: usize, error: Option<&NetError>) {
        match &run.plan.refusal {
            Refusal::Resubmit { excluded } => {
                self.note_lease_result(site_index, false);
                let mut excluded = excluded.clone();
                excluded.insert(site_index);
                let exhausted = error.map_or_else(
                    || "resubmission budget exhausted".to_string(),
                    |e| format!("submission failed: {e}"),
                );
                self.resubmit(sim, run, excluded, &exhausted);
            }
            Refusal::Fail { reason, .. } => {
                let reason =
                    error.map_or_else(|| (*reason).to_string(), |e| format!("subjob failed: {e}"));
                self.fail_run(sim, run, &reason);
            }
        }
    }

    /// Resubmission with exclusion: books the attempt and re-enters the
    /// job's path after the backoff, or fails it with `exhausted` when the
    /// budget is spent.
    fn resubmit(&self, sim: &mut Sim, run: &Run, excluded: HashSet<usize>, exhausted: &str) {
        let Some(delay) = self.begin_resubmit(sim, run.id) else {
            self.fail(sim, run.id, exhausted);
            return;
        };
        let waiting = Resubmission {
            id: run.id,
            job: run.job.clone(),
            runtime: run.runtime,
            excluded,
        };
        let slot = self.inner.borrow_mut().stages.resubmissions.insert(waiting);
        self.schedule(sim, delay, Stage::Resubmit, slot);
    }

    /// Records a copy `run` placed, remembering the first one.
    fn place(&self, run: &Run, p: Placement) {
        if run.placed.get().is_none() {
            run.placed.set(Some(p));
        }
        self.add_placement(run.id, p);
    }

    /// Whether `run` still acts for its job: the job is live (it has not
    /// ended, so its entry is there), and the first copy the run placed is
    /// still one of the job's placements. Dead-site re-matching drops them
    /// all before it routes the job afresh; a run that has placed nothing
    /// yet cannot have been re-routed (only a job with a copy on the dead
    /// site is).
    fn owns(&self, run: &Run) -> bool {
        let inner = self.inner.borrow();
        inner.live.get(&run.id).is_some_and(|live| {
            run.placed
                .get()
                .is_none_or(|p| live.placements.contains(&p))
        })
    }

    /// Fails the job once per run, and keeps the barrier from completing.
    fn fail_run(&self, sim: &mut Sim, run: &Run, reason: &str) {
        if !run.failed.replace(true) {
            self.fail(sim, run.id, reason);
        }
    }

    /// The console start barrier: the job is interactive-ready — `Running`,
    /// charged to its user — when every subjob's console has delivered its
    /// first output.
    pub(super) fn console_up(&self, sim: &mut Sim, run: &Run, ok: bool, ui_link: &Link) {
        if !self.owns(run) {
            return;
        }
        if !ok {
            self.fail_run(sim, run, "console startup failed");
            return;
        }
        run.consoles_up.set(run.consoles_up.get() + 1);
        if run.consoles_up.get() != run.consoles_total || run.failed.get() {
            return;
        }
        if !run.plan.charge_at_start {
            let (user, nodes) = (&run.job.user, run.job.node_number);
            self.inner
                .borrow_mut()
                .charge_interactive(run.id, user, 0, nodes);
            self.ensure_fairshare_tick(sim);
        }
        let session = Some((run.job.streaming_mode, ui_link.clone()));
        self.mark_running(sim, run.id, run.site_names.clone(), session);
    }

    /// Batch submission (§5.2 arrow 1) onto a leased site: deploy the
    /// agent, then run the batch job on its batch-vm.
    pub(super) fn submit_batch_with_agent(
        &self,
        sim: &mut Sim,
        id: JobId,
        site_index: usize,
        job: JobDescription,
        runtime: SimDuration,
    ) {
        let (site_name, target) = {
            let inner = self.inner.borrow();
            (inner.site_name(site_index), site_target(&inner, site_index))
        };
        self.record_dispatch(sim.now(), id, site_name, target, Some(site_index), false);
        self.deploy_agent_at(sim, site_index, move |sim, broker, aid| {
            let Some(aid) = aid else {
                broker.fail(sim, id, "agent deployment failed");
                return;
            };
            // Ship the batch application to the agent and run it batch-vm.
            let staging = {
                let inner = broker.inner.borrow();
                let entry = &inner.agents[&aid];
                Staging {
                    id,
                    link: inner.sites[entry.site_index].broker_link.clone(),
                    sandbox: job_sandbox_bytes(&job),
                    then: AfterStaging::Batch {
                        aid,
                        agent: Rc::clone(&entry.agent),
                        runtime,
                        job,
                    },
                }
            };
            broker.stage_to_agent(sim, staging);
        });
    }

    /// The batch application is on its agent: run it on the batch-vm.
    pub(super) fn batch_staged(
        &self,
        sim: &mut Sim,
        id: JobId,
        aid: AgentId,
        agent: &Rc<RefCell<Agent>>,
        runtime: SimDuration,
        job: &JobDescription,
    ) {
        let weak = self.downgrade();
        let result = agent.borrow().run_batch(sim, runtime, move |sim| {
            if let Some(broker) = weak.upgrade() {
                broker.batch_ended(sim.now(), aid);
                broker.subjob_finished(sim, id, None);
                broker.maybe_agent_departs(sim, aid);
                broker.retry_broker_queue(sim);
            }
        });
        match result {
            Err(_) => self.fail(sim, id, "batch VM busy"),
            Ok(task) => {
                self.add_placement(id, Placement::AgentBatch { aid, task });
                self.batch_started(sim, id, aid, &job.user);
            }
        }
    }
}
