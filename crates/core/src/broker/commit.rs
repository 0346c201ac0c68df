//! Commit: the paper's one submission mechanism (§3, §5.1, §5.2) — grant
//! the exclusive temporal lease, record the dispatch, launch every subjob
//! (two-phase-commit through a gatekeeper, or directly onto an agent's
//! interactive-vm), react to a subjob that queues or is refused, and hold
//! the console start barrier that ends with the first output reaching the
//! user. An interactive submission is a [`Plan`] of [`Slot`]s; the shared,
//! shared-parallel, exclusive and co-allocated paths differ only in the
//! plan they hand to [`CrossBroker::commit`]. Batch jobs lease and record
//! the same way, then ride an agent's batch-vm.

use std::cell::Cell;
use std::collections::HashSet;
use std::rc::Rc;

use cg_jdl::JobDescription;
use cg_net::{Dir, Link, LinkProfile, NetError};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{GramEvent, LocalJobSpec};
use cg_trace::Event;
use cg_vm::AgentId;

use super::console::console_startup;
use super::{CrossBroker, Inner, Placement, WeakBroker};
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
/// that distinguish the paths (DESIGN.md "Broker pipeline" has the table).
pub(super) struct Plan {
    /// Agent slots first, then site slots; launched in this order.
    pub slots: Vec<Slot>,
    /// The dispatch label of a multi-slot plan; a single-slot plan is
    /// labelled by its slot.
    pub summary: Option<String>,
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
    /// The job finishes with its last subjob rather than its first.
    pub wait_all_tasks: bool,
    /// Session latency is sampled over the first slot's UI path rather
    /// than the path of the console that completed the barrier.
    pub fixed_session: bool,
    /// LRMS walltime limit for site slots.
    pub walltime: Option<SimDuration>,
}

impl Plan {
    /// A barrier plan over `slots` with every path-specific policy off.
    pub(super) fn new(slots: Vec<Slot>, refusal: Refusal) -> Plan {
        Plan {
            slots,
            summary: None,
            restamp: false,
            refusal,
            refuse_queued: true,
            charge_at_start: false,
            console_per_node: false,
            wait_all_tasks: false,
            fixed_session: false,
            walltime: None,
        }
    }
}

/// One dispatched plan in flight: what its subjob callbacks share, and the
/// console start barrier. Subjob callbacks live inside LRMSs and agent VMs,
/// so the broker is held weakly.
struct Run {
    broker: WeakBroker,
    id: JobId,
    job: JobDescription,
    runtime: SimDuration,
    plan: Plan,
    sandbox: u64,
    console: ConsoleCosts,
    /// The hosting site of every slot, in slot order.
    site_names: Vec<String>,
    session: Option<LinkProfile>,
    consoles_total: u32,
    consoles_up: Cell<u32>,
    tasks_done: Cell<u32>,
    failed: Cell<bool>,
}

/// Application sandbox size when the job declares none, bytes.
const DEFAULT_SANDBOX_BYTES: u64 = 10_000_000;
/// Broker-side work for a direct (shared-VM) dispatch: matching the job to
/// the agent ad and proxy delegation to the agent (3.9 s).
const SHARED_DELEGATION: SimDuration = SimDuration::from_millis(3_900);

fn job_sandbox_bytes(job: &JobDescription) -> u64 {
    let declared = job.sandbox_bytes();
    if declared > 0 {
        declared
    } else {
        DEFAULT_SANDBOX_BYTES
    }
}

fn slot_label(inner: &Inner, slot: &Slot) -> String {
    match slot {
        Slot::AgentInteractive(aid) => format!("agent:{}", aid.0),
        Slot::Site { index, .. } => format!("site:{}", inner.sites[*index].site.name()),
    }
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
        scheduled: String,
        target: String,
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
        let backend = backend_of
            .map(|i| inner.sites[i].site.backend_kind())
            .map_or("sim-lrms", cg_site::BackendKind::as_str)
            .to_string();
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
            let site_names: Vec<String> = hosts
                .iter()
                .map(|&i| inner.sites[i].site.name().to_string())
                .collect();
            let labels = match (&plan.summary, site_names.first()) {
                (Some(summary), _) => (summary.clone(), summary.clone()),
                (None, Some(host)) => (host.clone(), slot_label(&inner, &plan.slots[0])),
                (None, None) => Default::default(), // its agent vanished; unused
            };
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
            let session = hosts
                .first()
                .filter(|_| plan.fixed_session)
                .map(|&i| inner.sites[i].ui_link.profile());
            let run = Run {
                broker: self.downgrade(),
                id,
                sandbox: job_sandbox_bytes(&job),
                job,
                runtime,
                plan,
                console: inner.config.console,
                site_names,
                session,
                consoles_total,
                consoles_up: Cell::new(0),
                tasks_done: Cell::new(0),
                failed: Cell::new(false),
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
        for slot in &run.plan.slots {
            match slot {
                Slot::AgentInteractive(aid) => self.launch_agent_subjob(sim, &run, *aid),
                Slot::Site { index, nodes } => self.launch_site_subjob(sim, &run, *index, *nodes),
            }
        }
    }

    /// Delegation, then the sandbox transfer over `link` to an agent; `then`
    /// runs once the application is staged.
    fn stage_to_agent(
        &self,
        sim: &mut Sim,
        id: JobId,
        link: Link,
        sandbox: u64,
        then: impl FnOnce(&mut Sim, &CrossBroker) + 'static,
    ) {
        let this = self.clone();
        sim.schedule_in(SHARED_DELEGATION, move |sim| {
            link.send(sim, Dir::AToB, sandbox, move |sim, r| {
                if r.is_err() {
                    this.fail(sim, id, "staging to agent failed", false);
                } else {
                    then(sim, &this);
                }
            });
        });
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
        let run = Rc::clone(run);
        self.stage_to_agent(sim, run.id, broker_link, run.sandbox, move |sim, this| {
            // The agent may have been killed while the sandbox was in
            // flight; where races resubmit, a dead target is one.
            if matches!(run.plan.refusal, Refusal::Resubmit { .. })
                && !(this.inner.borrow().agents.contains_key(&aid) && agent.borrow().is_alive())
            {
                this.agent_refused(sim, &run, "agent died during dispatch");
                return;
            }
            this.add_placement(run.id, Placement::AgentInteractive { aid });
            let (started, finished) = (Rc::clone(&run), Rc::clone(&run));
            let result = agent.borrow().submit_interactive(
                sim,
                run.runtime,
                run.job.performance_loss,
                move |sim| {
                    if let Some(this) = started.broker.upgrade() {
                        this.agent_subjob_started(sim, &started, aid, &ui_link);
                    }
                },
                move |sim| {
                    if let Some(this) = finished.broker.upgrade() {
                        this.agent_subjob_finished(sim, &finished, aid);
                    }
                },
            );
            if result.is_err() {
                this.agent_refused(sim, &run, "agent slot taken concurrently");
            }
        });
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
        self.start_console(sim, run, ui_link);
    }

    /// The agent's subjob ended: the batch job gets its CPU back, the agent
    /// may leave, and the job may be done. (The order of the last two is
    /// each path's own — it is the order of same-instant events.)
    fn agent_subjob_finished(&self, sim: &mut Sim, run: &Run, aid: AgentId) {
        self.restore_batch(sim.now(), run.id, aid);
        if run.plan.wait_all_tasks {
            self.maybe_agent_departs(sim, aid);
            self.task_done(sim, run);
        } else {
            self.mark_done(sim, run.id);
            self.maybe_agent_departs(sim, aid);
            self.retry_broker_queue(sim);
        }
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
            walltime: run.plan.walltime,
            priority: 0,
            user: run.job.user.clone(),
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
                match ev {
                    GramEvent::Accepted { local_id } => {
                        local.set(Some(*local_id));
                        let local = *local_id;
                        this.add_placement(run.id, Placement::Site { site_index, local });
                    }
                    GramEvent::Started { .. } => {
                        started.set(true);
                        if online {
                            this.note_lease_result(site_index, true);
                        }
                        for _ in 0..consoles {
                            this.start_console(sim, &run, &ui_link);
                        }
                    }
                    GramEvent::Queued
                        if run.plan.refuse_queued && !started.get() && !run.failed.get() =>
                    {
                        // It queued instead of starting: withdraw the copy
                        // so it never takes nodes behind the broker's back.
                        if let Some(lid) = local.get() {
                            let lrms = this.inner.borrow().sites[site_index].site.lrms().clone();
                            lrms.kill(sim, lid, withdrawn);
                        }
                        this.site_refused(sim, &run, site_index, None);
                    }
                    GramEvent::Finished => this.task_done(sim, &run),
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
            self.fail(sim, run.id, exhausted, false);
            return;
        };
        let (this, id, job, runtime) = (self.clone(), run.id, run.job.clone(), run.runtime);
        sim.schedule_in(delay, move |sim| {
            this.route(sim, id, job, runtime, excluded);
        });
    }

    /// Fails the job once per run, and keeps the barrier from completing.
    fn fail_run(&self, sim: &mut Sim, run: &Run, reason: &str) {
        if !run.failed.replace(true) {
            self.fail(sim, run.id, reason, false);
        }
    }

    fn task_done(&self, sim: &mut Sim, run: &Run) {
        let done = run.tasks_done.get() + 1;
        run.tasks_done.set(done);
        if !run.plan.wait_all_tasks || done as usize == run.plan.slots.len() {
            self.finish_job(sim, run.id);
        }
    }

    /// The tail of every interactive subjob: the Console Agent starts on
    /// the worker node and reports to the barrier.
    fn start_console(&self, sim: &mut Sim, run: &Rc<Run>, ui_link: &Link) {
        let log = self.inner.borrow().trace.clone();
        let (this, run2, ui) = (self.clone(), Rc::clone(run), ui_link.clone());
        let mode = run.job.streaming_mode;
        console_startup(
            sim,
            ui_link.clone(),
            run.console,
            mode,
            log,
            run.id.0,
            move |sim, ok| this.console_up(sim, &run2, ok, &ui),
        );
    }

    /// The console start barrier: the job is interactive-ready — `Running`,
    /// charged to its user — when every subjob's console has delivered its
    /// first output.
    fn console_up(&self, sim: &mut Sim, run: &Run, ok: bool, ui_link: &Link) {
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
        let profile = run.session.clone().unwrap_or_else(|| ui_link.profile());
        let session = Some((run.job.streaming_mode, profile));
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
            let name = inner.sites[site_index].site.name().to_string();
            let target = format!("site:{name}");
            (name, target)
        };
        self.record_dispatch(sim.now(), id, site_name, target, Some(site_index), false);
        self.deploy_agent_at(sim, site_index, move |sim, broker, aid| {
            let Some(aid) = aid else {
                broker.fail(sim, id, "agent deployment failed", false);
                return;
            };
            // Ship the batch application to the agent and run it batch-vm.
            let (agent, broker_link, sandbox) = {
                let inner = broker.inner.borrow();
                let entry = &inner.agents[&aid];
                (
                    Rc::clone(&entry.agent),
                    inner.sites[entry.site_index].broker_link.clone(),
                    job_sandbox_bytes(&job),
                )
            };
            broker.stage_to_agent(sim, id, broker_link, sandbox, move |sim, broker| {
                let weak = broker.downgrade();
                let result = agent.borrow().run_batch(sim, runtime, move |sim| {
                    if let Some(broker) = weak.upgrade() {
                        broker.batch_ended(sim.now(), aid);
                        broker.finish_job(sim, id);
                        broker.maybe_agent_departs(sim, aid);
                        broker.retry_broker_queue(sim);
                    }
                });
                match result {
                    Err(_) => broker.fail(sim, id, "batch VM busy", false),
                    Ok(task) => {
                        broker.add_placement(id, Placement::AgentBatch { aid, task });
                        broker.batch_started(sim, id, aid, &job.user);
                    }
                }
            });
        });
    }
}
