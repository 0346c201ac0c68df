//! CrossBroker: the resource-management service for interactive jobs.
//!
//! Orchestrates everything the paper describes (§3, §5): two-step resource
//! discovery/selection against the stale MDS index plus live per-site
//! queries, randomized selection among equals, exclusive temporal leases,
//! on-line scheduling with resubmission when an interactive job queues
//! instead of starting, fair-share admission (Eq. 1), the glide-in agent
//! pool with direct shared-VM dispatch, MPICH-P4/-G2 (co-)allocation, and
//! the Grid Console startup that ends every interactive submission with the
//! first output reaching the user.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::{Rc, Weak};
use std::sync::Arc;

use cg_jdl::{Ad, Interactivity, JobDescription, MachineAccess, Parallelism};
use cg_net::{rpc_call, Dir, HandshakeProfile, Link, Session};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{
    GramEvent, InformationIndex, LocalJobSpec, MembershipState, RefreshWindow, Site, Transition,
};
use cg_trace::replay::{Phase, ReplayAgent, ReplayJob, ReplayState, SpoolMark};
use cg_trace::{Event, EventLog, MetricsRegistry};
use cg_vm::{deploy_agent, Agent, AgentEvent, AgentId};

use crate::config::BrokerConfig;
use crate::fairshare::{FairShare, UsageId, UsageKind};
use crate::job::{JobId, JobRecord, JobState};
use crate::matchmaking::{
    filter_candidates, filter_candidates_columnar, filter_candidates_compiled, Candidate,
    CompiledJob,
};
use crate::policy::{
    coallocate_with, select_detailed_with, PolicyKind, PolicySignals, QueueForecaster, SiteSignals,
};
use crate::shard::{job_rng, ShardedJobTable, DEFAULT_SHARDS};

/// One site as the broker sees it.
pub struct SiteHandle {
    /// The site.
    pub site: Site,
    /// Broker ↔ gatekeeper path.
    pub broker_link: Link,
    /// User machine ↔ worker-node path (the console route).
    pub ui_link: Link,
}

struct SiteEntry {
    site: Site,
    broker_link: Link,
    ui_link: Link,
    leased_until: SimTime,
    /// Consecutive involuntary agent deaths at this site (redeploy breaker).
    agent_deaths: u32,
    /// Consecutive dispatches that queued or failed at this site since the
    /// last successful start — the `lease-backoff` policy's input signal.
    lease_failures: u32,
}

struct AgentEntry {
    agent: Rc<RefCell<Agent>>,
    site_index: usize,
    carrier: Option<cg_site::LocalJobId>,
    leased_until: SimTime,
    batch_usage: Option<UsageId>,
    batch_done: bool,
    has_batch: bool,
    ready_at: SimTime,
}

/// Aggregate broker metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrokerStats {
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs that reached Running.
    pub started: u64,
    /// Jobs finished normally.
    pub finished: u64,
    /// Jobs rejected by fair-share admission.
    pub rejected: u64,
    /// Jobs failed for other reasons.
    pub failed: u64,
    /// On-line-scheduling resubmissions performed.
    pub resubmissions: u64,
    /// Jobs cancelled by their user.
    pub cancelled: u64,
    /// Glide-in agents deployed.
    pub agents_deployed: u64,
}

struct Inner {
    config: BrokerConfig,
    sites: Vec<SiteEntry>,
    index: InformationIndex,
    mds_link: Link,
    agents: HashMap<AgentId, AgentEntry>,
    fairshare: FairShare,
    /// The job table, sharded by id with one lock per shard. The sim loop
    /// drives it single-threaded, but the structure is `Send + Sync`, so the
    /// parallel matchmaking engine ([`crate::ParallelMatcher`]) writes the
    /// same table type from worker threads.
    jobs: ShardedJobTable<JobRecord>,
    next_job: u64,
    next_agent: u64,
    queue: Vec<(JobId, JobDescription, SimDuration)>,
    /// Per-job compiled `Requirements`/`Rank` from the submit-time
    /// analyzer; the selection loop evaluates these instead of the raw AST.
    compiled: HashMap<JobId, Rc<CompiledJob>>,
    /// Re-parseable JDL source + declared runtime for every live job — the
    /// commit record that lets crash recovery re-arm in-flight work. Dropped
    /// once the job is terminal.
    job_ads: HashMap<JobId, RetainedAd>,
    /// Per-stream spool ack watermarks seeded by crash recovery; recovery
    /// invariant rule 8 forbids these from regressing.
    spool_watermarks: HashMap<String, u64>,
    interactive_usages: HashMap<JobId, UsageId>,
    placements: HashMap<JobId, Vec<Placement>>,
    /// Per-op console round-trip latencies sampled for running interactive
    /// jobs (1 KiB steering ops over each job's UI path and streaming mode).
    session_latency: cg_sim::SampleSet,
    tick_scheduled: bool,
    queue_retry_scheduled: bool,
    /// Per-site EWMA of LRMS queue depth, advanced on fair-share ticks —
    /// the `queue-forecast` policy's input signal.
    queue_forecast: QueueForecaster,
    stats: BrokerStats,
    /// Broker-wide lifecycle event log (shared with fair-share, sites,
    /// agents' VMs and the console path).
    trace: EventLog,
    /// Counters/gauges/histograms behind the event log.
    metrics: MetricsRegistry,
}

/// The submit-time commit record retained for a live job: everything crash
/// recovery needs to re-create and re-route it.
#[derive(Clone)]
struct RetainedAd {
    jdl: String,
    runtime: SimDuration,
    interactive: bool,
}

/// Events the ring buffer keeps; a simulated day of the Table I workload
/// stays well under this.
const TRACE_CAPACITY: usize = 65_536;

/// Type-erased continuation of an agent deployment.
type DeployCallback = Box<dyn FnOnce(&mut Sim, CrossBroker, Option<AgentId>)>;

/// Where (part of) a job physically runs — what `cancel` must tear down.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// Under a site's LRMS.
    Site {
        site_index: usize,
        local: cg_site::LocalJobId,
    },
    /// On a glide-in agent's interactive VM.
    AgentInteractive { aid: AgentId },
    /// On a glide-in agent's batch VM.
    AgentBatch { aid: AgentId, task: cg_vm::TaskId },
}

/// The broker handle. Clones share state.
#[derive(Clone)]
pub struct CrossBroker {
    inner: Rc<RefCell<Inner>>,
}

/// A broker handle that does not keep the broker alive. Callbacks stored
/// inside something the broker owns — a site's LRMS, an agent's VM, the
/// information index — hold this: a strong handle there closes a reference
/// cycle (broker → site → LRMS → callback → broker) and a world dropped
/// with a job or glide-in agent still live would never be freed. Closures
/// scheduled on the `Sim` keep their strong handles; the sim owns those.
#[derive(Clone)]
struct WeakBroker(Weak<RefCell<Inner>>);

impl WeakBroker {
    /// The broker, unless every handle to it has been dropped.
    fn upgrade(&self) -> Option<CrossBroker> {
        self.0.upgrade().map(|inner| CrossBroker { inner })
    }
}

impl CrossBroker {
    fn downgrade(&self) -> WeakBroker {
        WeakBroker(Rc::downgrade(&self.inner))
    }

    /// Builds a broker over the given sites and starts the information
    /// index's refresh cycle.
    pub fn new(
        sim: &mut Sim,
        sites: Vec<SiteHandle>,
        mds_link: Link,
        config: BrokerConfig,
    ) -> Self {
        // A non-default broker backend rebuilds every site still on the
        // stock sim LRMS; sites that picked their own backend keep it.
        // Handles cloned before this point go stale — see the
        // `BrokerConfig::backend` doc.
        let sites: Vec<SiteHandle> = if config.backend == cg_site::BackendSpec::Sim {
            sites
        } else {
            sites
                .into_iter()
                .map(|mut s| {
                    if s.site.config().backend == cg_site::BackendSpec::Sim {
                        s.site = s
                            .site
                            .with_backend(config.backend.clone())
                            .expect("BrokerConfig::backend must describe a buildable backend");
                    }
                    s
                })
                .collect()
        };
        let total_cpus: u32 = sites
            .iter()
            .map(|s| s.site.lrms().total_nodes() as u32)
            .sum();
        let index = if config.refresh_fanout > 0 {
            InformationIndex::start_windowed(
                sim,
                sites.iter().map(|s| s.site.clone()).collect(),
                config.index_refresh,
                RefreshWindow {
                    fanout: config.refresh_fanout,
                    latency: config.publish_latency.clone(),
                },
                config.publish_faults.clone(),
                config.membership,
            )
        } else {
            InformationIndex::start_with_faults(
                sim,
                sites.iter().map(|s| s.site.clone()).collect(),
                config.index_refresh,
                config.publish_faults.clone(),
                config.membership,
            )
        };
        let metrics = MetricsRegistry::new();
        let trace = EventLog::with_metrics(TRACE_CAPACITY, metrics.clone());
        let mut fairshare = FairShare::new(config.fairshare.clone(), total_cpus.max(1));
        fairshare.set_trace(trace.clone());
        let queue_forecast =
            QueueForecaster::new(config.fairshare.half_life, config.fairshare.delta_t);
        for s in &sites {
            s.site.lrms().set_trace(trace.clone(), s.site.name());
        }
        let broker = CrossBroker {
            inner: Rc::new(RefCell::new(Inner {
                config,
                sites: sites
                    .into_iter()
                    .map(|s| SiteEntry {
                        site: s.site,
                        broker_link: s.broker_link,
                        ui_link: s.ui_link,
                        leased_until: SimTime::ZERO,
                        agent_deaths: 0,
                        lease_failures: 0,
                    })
                    .collect(),
                index,
                mds_link,
                agents: HashMap::new(),
                fairshare,
                jobs: ShardedJobTable::new(DEFAULT_SHARDS),
                next_job: 0,
                next_agent: 0,
                queue: Vec::new(),
                compiled: HashMap::new(),
                job_ads: HashMap::new(),
                spool_watermarks: HashMap::new(),
                interactive_usages: HashMap::new(),
                placements: HashMap::new(),
                session_latency: cg_sim::SampleSet::new(),
                tick_scheduled: false,
                queue_retry_scheduled: false,
                queue_forecast,
                stats: BrokerStats::default(),
                trace,
                metrics,
            })),
        };
        // The failure detector's obituaries drive the broker: trace
        // events, dead-site re-matching, streak resets. A weak handle
        // breaks the broker → index → observer reference cycle.
        let weak = broker.downgrade();
        broker
            .inner
            .borrow()
            .index
            .set_membership_observer(move |sim, site_index, tr| {
                if let Some(broker) = weak.upgrade() {
                    broker.on_membership_transition(sim, site_index, tr);
                }
            });
        broker
    }

    /// Submits a job with the given natural runtime. The returned id indexes
    /// [`CrossBroker::record`].
    pub fn submit(&self, sim: &mut Sim, job: JobDescription, runtime: SimDuration) -> JobId {
        let now = sim.now();
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = JobId(inner.next_job);
            inner.next_job += 1;
            inner.stats.submitted += 1;
            let record = JobRecord::new(id, job.user.clone(), now);
            inner.jobs.insert(id, record);
            inner.trace.record(
                now,
                Event::JobSubmitted {
                    job: id.0,
                    user: job.user.clone(),
                    interactive: job.is_interactive(),
                },
            );
            // The JobAd commit record: together with JobSubmitted it carries
            // everything recovery needs to re-arm the job after a crash.
            inner.trace.record(
                now,
                Event::JobAd {
                    job: id.0,
                    jdl: job.ad.to_string(),
                    runtime_ns: runtime.as_nanos(),
                },
            );
            inner.job_ads.insert(
                id,
                RetainedAd {
                    jdl: job.ad.to_string(),
                    runtime,
                    interactive: job.is_interactive(),
                },
            );
            id
        };

        // Submit-time static analysis: warnings are traced, errors reject
        // the ad outright — a job whose Requirements can never match must
        // not enter matchmaking and wait forever.
        let analysis = job.analyze();
        {
            let mut inner = self.inner.borrow_mut();
            for d in &analysis.diagnostics {
                inner.trace.record(
                    now,
                    Event::JdlDiagnostic {
                        job: id.0,
                        severity: d.severity.as_str().to_string(),
                        code: d.code.to_string(),
                        message: d.message.clone(),
                    },
                );
            }
            if analysis.has_errors() {
                let errors = analysis.error_count() as u32;
                inner.jobs.update(id, |r| {
                    r.state = JobState::Failed {
                        reason: format!("rejected by JDL analysis ({errors} errors)"),
                    };
                    r.finished_at = Some(now);
                });
                inner.stats.rejected += 1;
                inner
                    .trace
                    .record(now, Event::JdlRejected { job: id.0, errors });
                inner.job_ads.remove(&id);
                return id;
            }
            inner.compiled.insert(
                id,
                Rc::new(CompiledJob {
                    requirements: analysis.requirements,
                    rank: analysis.rank,
                }),
            );
        }
        self.ensure_fairshare_tick(sim);

        // Fair-share admission under scarcity (§5.1).
        let scarce = self.resources_scarce(&job);
        {
            let inner = self.inner.borrow();
            if scarce && inner.fairshare.should_reject_under_scarcity(&job.user) {
                drop(inner);
                self.fail(
                    sim,
                    id,
                    "rejected: user priority too low under scarcity",
                    true,
                );
                return id;
            }
        }

        match (job.interactivity, job.machine_access) {
            // Parallel shared jobs: "it is possible to have a combination of
            // machines with and without agents for executing a parallel
            // interactive application" (§5.2).
            (Interactivity::Interactive, MachineAccess::Shared) if job.is_parallel() => {
                self.shared_parallel_path(sim, id, job, runtime);
            }
            (Interactivity::Interactive, MachineAccess::Shared) => {
                self.shared_path(sim, id, job, runtime);
            }
            (Interactivity::Interactive, MachineAccess::Exclusive) => {
                self.matched_path(sim, id, job, runtime, HashSet::new());
            }
            (Interactivity::Batch, _) => {
                self.matched_path(sim, id, job, runtime, HashSet::new());
            }
        }
        id
    }

    /// A job's current record.
    pub fn record(&self, id: JobId) -> JobRecord {
        self.inner.borrow().jobs.get(id).expect("job exists")
    }

    /// All job records (for experiment summaries), sorted by id. Visits the
    /// sharded table in place and clones each record once into the result —
    /// no intermediate whole-table snapshot.
    pub fn records(&self) -> Vec<JobRecord> {
        let inner = self.inner.borrow();
        let mut out = Vec::with_capacity(inner.jobs.len());
        inner.jobs.for_each(|_, r| out.push(r.clone()));
        out.sort_by_key(|r| r.id);
        out
    }

    /// A user's fair-share priority (higher = worse).
    pub fn priority(&self, user: &str) -> f64 {
        self.inner.borrow().fairshare.priority(user)
    }

    /// Live agents in the pool.
    pub fn agent_count(&self) -> usize {
        self.inner
            .borrow()
            .agents
            .values()
            .filter(|a| a.agent.borrow().is_alive())
            .count()
    }

    /// Free interactive VM slots across the pool.
    pub fn free_interactive_slots(&self) -> usize {
        self.inner
            .borrow()
            .agents
            .values()
            .map(|a| a.agent.borrow().interactive_free())
            .sum()
    }

    /// Aggregate metrics.
    pub fn stats(&self) -> BrokerStats {
        self.inner.borrow().stats
    }

    /// The broker-wide lifecycle event log. Clones share the buffer, so this
    /// handle sees everything the broker, its sites, agents and consoles
    /// record from now on — snapshot it for invariant checks or JSONL dumps.
    pub fn event_log(&self) -> EventLog {
        self.inner.borrow().trace.clone()
    }

    /// The broker's information index: snapshot columns, per-site
    /// staleness and the membership failure detector.
    pub fn index(&self) -> InformationIndex {
        self.inner.borrow().index.clone()
    }

    /// The site's consecutive lease-failure streak — the `lease-backoff`
    /// policy's input signal. Reset by a successful start, a `Dead`
    /// obituary, or a rejoin (a streak earned before an outage says
    /// nothing about the recovered site).
    pub fn lease_failure_streak(&self, site_index: usize) -> u32 {
        self.inner.borrow().sites[site_index].lease_failures
    }

    /// The metrics registry behind the event log: per-event-kind counters
    /// plus broker histograms such as `response_s`.
    pub fn metrics(&self) -> MetricsRegistry {
        self.inner.borrow().metrics.clone()
    }

    /// Console round-trip latencies sampled for every interactive job that
    /// reached Running — the "feeling of interactivity" metric (§4) under
    /// whatever mix the broker actually scheduled.
    pub fn session_latencies(&self) -> cg_sim::SampleSet {
        self.inner.borrow().session_latency.clone()
    }

    /// Cancels a job at the user's request — the paper's *on-line output
    /// control*: "the ability to control application output online and to
    /// enable the user to decide whether to cancel this in accordance with
    /// the output results" (§1). Tears the job down wherever it is (broker
    /// queue, site LRMS, agent VM slots) and restores the co-resident batch
    /// job's priority. Returns `false` when the job is unknown or already
    /// terminal.
    pub fn cancel(&self, sim: &mut Sim, id: JobId) -> bool {
        {
            let mut inner = self.inner.borrow_mut();
            match inner.jobs.with(id, |r| {
                matches!(r.state, JobState::Done | JobState::Failed { .. })
            }) {
                None | Some(true) => return false,
                Some(false) => {}
            }
            if let Some(pos) = inner.queue.iter().position(|(qid, _, _)| *qid == id) {
                inner.queue.remove(pos);
            }
        }
        let placements = self
            .inner
            .borrow_mut()
            .placements
            .remove(&id)
            .unwrap_or_default();
        for p in placements {
            match p {
                Placement::Site { site_index, local } => {
                    let site = {
                        let inner = self.inner.borrow();
                        inner.sites[site_index].site.clone()
                    };
                    site.lrms().kill(sim, local, "cancelled by user");
                }
                Placement::AgentInteractive { aid } => {
                    let agent = self
                        .inner
                        .borrow()
                        .agents
                        .get(&aid)
                        .map(|e| Rc::clone(&e.agent));
                    if let Some(agent) = agent {
                        agent.borrow().cancel_interactive(sim);
                    }
                    // Restore the batch job's normal charging.
                    {
                        let mut inner = self.inner.borrow_mut();
                        if let Some(e) = inner.agents.get(&aid) {
                            if let Some(u) = e.batch_usage {
                                if !e.batch_done {
                                    inner.fairshare.set_kind(u, UsageKind::Batch);
                                    inner.trace.record(
                                        sim.now(),
                                        Event::BatchRestored {
                                            agent: aid.0,
                                            job: id.0,
                                        },
                                    );
                                }
                            }
                        }
                    }
                    self.maybe_agent_departs(sim, aid);
                }
                Placement::AgentBatch { aid, task } => {
                    let agent = self
                        .inner
                        .borrow()
                        .agents
                        .get(&aid)
                        .map(|e| Rc::clone(&e.agent));
                    if let Some(agent) = agent {
                        agent.borrow().vm.cancel(sim, task);
                        let mut inner = self.inner.borrow_mut();
                        if let Some(e) = inner.agents.get_mut(&aid) {
                            e.batch_done = true;
                            if let Some(u) = e.batch_usage.take() {
                                inner.fairshare.release(u);
                            }
                            inner
                                .trace
                                .record(sim.now(), Event::AgentBatchFinished { agent: aid.0 });
                        }
                    }
                    self.maybe_agent_departs(sim, aid);
                }
            }
        }
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.cancelled += 1;
            if let Some(usage) = inner.interactive_usages.remove(&id) {
                inner.fairshare.release(usage);
            }
            inner.jobs.update(id, |r| {
                r.state = JobState::Failed {
                    reason: "cancelled by user".into(),
                };
                r.finished_at = Some(sim.now());
            });
            inner
                .trace
                .record(sim.now(), Event::JobCancelled { job: id.0 });
            inner.job_ads.remove(&id);
        }
        self.retry_broker_queue(sim);
        true
    }

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

    // ------------------------------------------------------------------
    // Crash recovery: journal snapshots + reconstruction plumbing
    // ------------------------------------------------------------------

    /// Projects the broker's live tables into the stream-state model
    /// ([`ReplayState`]) used by journal snapshots and the recovery
    /// invariants: the job table (with retained JDL commit records), the
    /// live agent registry, and spool watermarks (seeded recovery marks
    /// merged with whatever the event ring has seen).
    pub fn replay_state(&self) -> ReplayState {
        let inner = self.inner.borrow();
        let mut state = ReplayState::default();
        // Visit the job table in place: `state.jobs` is a BTreeMap, so the
        // per-shard (non-global) visit order lands in sorted order anyway,
        // and no intermediate Vec of cloned records is built.
        inner.jobs.for_each(|id, r| {
            let ad = inner.job_ads.get(&id);
            let phase = match &r.state {
                JobState::Submitted => Phase::Submitted,
                JobState::Matching => Phase::Matching,
                JobState::Scheduled { .. } => Phase::Dispatched,
                JobState::BrokerQueued => Phase::Queued,
                JobState::Running { .. } => Phase::Running,
                JobState::Done => Phase::Finished,
                JobState::Failed { .. } => Phase::Failed,
            };
            let fail_reason = match &r.state {
                JobState::Failed { reason } => Some(reason.clone()),
                _ => None,
            };
            state.jobs.insert(
                id.0,
                ReplayJob {
                    user: r.user.clone(),
                    interactive: ad.is_some_and(|a| a.interactive),
                    phase,
                    queued: matches!(r.state, JobState::BrokerQueued),
                    attempts: r.resubmissions,
                    started: r.started_at.is_some(),
                    submitted_at_ns: r.submitted_at.as_nanos(),
                    started_at_ns: r.started_at.map(SimTime::as_nanos),
                    finished_at_ns: r.finished_at.map(SimTime::as_nanos),
                    lease: None,
                    jdl: ad.map(|a| a.jdl.clone()),
                    runtime_ns: ad.map(|a| a.runtime.as_nanos()),
                    fail_reason,
                },
            );
        });
        for (aid, e) in &inner.agents {
            if !e.agent.borrow().is_alive() {
                continue;
            }
            state.agents.insert(
                aid.0,
                ReplayAgent {
                    site: inner.sites[e.site_index].site.name().to_string(),
                    alive: true,
                    ready: e.ready_at != SimTime::MAX,
                },
            );
        }
        for (stream, acked) in &inner.spool_watermarks {
            state.spools.insert(
                stream.clone(),
                SpoolMark {
                    appended: *acked,
                    acked: *acked,
                },
            );
        }
        let ring = inner.trace.snapshot();
        for te in &ring {
            match &te.event {
                Event::SpoolAppend { stream, seq } => {
                    let m = state.spools.entry(stream.clone()).or_default();
                    m.appended = m.appended.max(*seq);
                }
                Event::SpoolAck { stream, seq } => {
                    let m = state.spools.entry(stream.clone()).or_default();
                    m.acked = m.acked.max(*seq);
                }
                _ => {}
            }
        }
        if let Some(last) = ring.last() {
            state.last_seq = Some(last.seq);
            state.last_at_ns = last.at.as_nanos();
        }
        state
    }

    /// Writes a snapshot of the broker's current state into the attached
    /// journal, bounding how many tail events a later recovery must replay.
    /// Returns `Ok(false)` when no journal is attached (never attached, or
    /// already sealed by a crash plan) or nothing has been recorded yet.
    ///
    /// # Errors
    /// Propagates the journal file's I/O errors.
    pub fn journal_snapshot(&self) -> std::io::Result<bool> {
        let log = self.event_log();
        let Some(journal) = log.journal() else {
            return Ok(false);
        };
        let recorded = log.recorded();
        if recorded == 0 {
            return Ok(false);
        }
        let blob = cg_trace::encode_state(&self.replay_state());
        journal.append_snapshot(recorded - 1, &blob)?;
        Ok(true)
    }

    /// Snapshots the attached journal every `every` of simulated time, so
    /// recovery replays a bounded tail instead of the whole history. Stops
    /// by itself once the journal detaches (crash plan) or turns sick.
    pub fn enable_periodic_snapshots(&self, sim: &mut Sim, every: SimDuration) {
        let this = self.clone();
        sim.schedule_in(every, move |sim| {
            if this.event_log().journal().is_none() {
                return;
            }
            if this.journal_snapshot().is_ok() {
                this.enable_periodic_snapshots(sim, every);
            }
        });
    }

    /// Installs a job reconstructed from the journal, bucket-faithfully:
    /// the recovered table must land every job in the same coarse
    /// disposition the stream last saw (recovery invariant rule 6).
    pub(crate) fn install_restored_job(&self, id: u64, rj: &ReplayJob) {
        let mut inner = self.inner.borrow_mut();
        let jid = JobId(id);
        inner.next_job = inner.next_job.max(id + 1);
        let state = match rj.phase {
            Phase::Submitted => JobState::Submitted,
            Phase::Matching | Phase::Leased | Phase::Dispatched => JobState::Matching,
            Phase::Queued => JobState::BrokerQueued,
            Phase::Running => JobState::Running { sites: Vec::new() },
            Phase::Finished => JobState::Done,
            Phase::Failed => JobState::Failed {
                reason: rj
                    .fail_reason
                    .clone()
                    .unwrap_or_else(|| "failed before the broker crash".into()),
            },
            Phase::Cancelled => JobState::Failed {
                reason: "cancelled by user".into(),
            },
            Phase::Rejected => JobState::Failed {
                reason: "rejected by JDL analysis".into(),
            },
        };
        let record = JobRecord {
            id: jid,
            user: rj.user.clone(),
            state,
            submitted_at: SimTime::from_nanos(rj.submitted_at_ns),
            discovered_at: None,
            selected_at: None,
            dispatched_at: None,
            started_at: rj.started_at_ns.map(SimTime::from_nanos),
            finished_at: rj.finished_at_ns.map(SimTime::from_nanos),
            resubmissions: rj.attempts,
        };
        inner.jobs.insert(jid, record);
        if !rj.phase.is_terminal() {
            if let (Some(jdl), Some(runtime_ns)) = (&rj.jdl, rj.runtime_ns) {
                inner.job_ads.insert(
                    jid,
                    RetainedAd {
                        jdl: jdl.clone(),
                        runtime: SimDuration::from_nanos(runtime_ns),
                        interactive: rj.interactive,
                    },
                );
            }
        }
    }

    /// Overwrites the aggregate counters with values rebuilt from the
    /// stream (crash recovery).
    pub(crate) fn set_restored_stats(&self, stats: BrokerStats) {
        self.inner.borrow_mut().stats = stats;
    }

    /// Keeps freshly deployed agents' ids clear of the pre-crash id space.
    pub(crate) fn reserve_agent_ids(&self, next_agent: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.next_agent = inner.next_agent.max(next_agent);
    }

    /// Seeds a spool ack watermark from the journal; recovery invariant
    /// rule 8 forbids recovery from regressing these.
    pub(crate) fn seed_spool_watermark(&self, stream: &str, acked: u64) {
        self.inner
            .borrow_mut()
            .spool_watermarks
            .insert(stream.to_string(), acked);
    }

    /// Terminal failure entry point for recovery (private `fail` is not
    /// visible from the recovery module).
    pub(crate) fn fail_restored(&self, sim: &mut Sim, id: JobId, reason: &str) {
        self.fail(sim, id, reason, false);
    }

    /// Re-runs submit-time static analysis for a restored job so the
    /// matchmaking loop gets its compiled expressions back. Returns `false`
    /// (and fails the job, mirroring `submit`) when the ad no longer passes.
    pub(crate) fn reanalyze_restored(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: &JobDescription,
    ) -> bool {
        let analysis = job.analyze();
        let now = sim.now();
        let mut inner = self.inner.borrow_mut();
        if analysis.has_errors() {
            let errors = analysis.error_count() as u32;
            inner.jobs.update(id, |r| {
                r.state = JobState::Failed {
                    reason: format!("rejected by JDL analysis ({errors} errors)"),
                };
                r.finished_at = Some(now);
            });
            inner.stats.rejected += 1;
            inner
                .trace
                .record(now, Event::JdlRejected { job: id.0, errors });
            inner.job_ads.remove(&id);
            return false;
        }
        inner.compiled.insert(
            id,
            Rc::new(CompiledJob {
                requirements: analysis.requirements,
                rank: analysis.rank,
            }),
        );
        true
    }

    /// Puts a restored batch job back on the broker queue and arms the
    /// retry cycle.
    pub(crate) fn requeue_restored(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
    ) {
        if !self.reanalyze_restored(sim, id, &job) {
            return;
        }
        {
            let mut inner = self.inner.borrow_mut();
            inner.jobs.update(id, |r| r.state = JobState::BrokerQueued);
            inner.queue.push((id, job, runtime));
            inner
                .trace
                .record(sim.now(), Event::JobQueued { job: id.0 });
        }
        self.schedule_queue_retry(sim);
    }

    /// Routes a restored in-flight job back through its submission path, as
    /// a resubmission (the pre-crash attempt is gone with the broker).
    pub(crate) fn rearm_restored(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
    ) {
        if !self.reanalyze_restored(sim, id, &job) {
            return;
        }
        self.ensure_fairshare_tick(sim);
        match (job.interactivity, job.machine_access) {
            (Interactivity::Interactive, MachineAccess::Shared) if job.is_parallel() => {
                self.shared_parallel_path(sim, id, job, runtime);
            }
            (Interactivity::Interactive, MachineAccess::Shared) => {
                self.shared_path(sim, id, job, runtime);
            }
            _ => {
                self.matched_path(sim, id, job, runtime, HashSet::new());
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn resources_scarce(&self, job: &JobDescription) -> bool {
        let inner = self.inner.borrow();
        match (job.interactivity, job.machine_access) {
            (Interactivity::Interactive, MachineAccess::Shared) => {
                let free_slots: usize = inner
                    .agents
                    .values()
                    .map(|a| a.agent.borrow().interactive_free())
                    .sum();
                let idle: usize = inner.sites.iter().map(|s| s.site.lrms().free_nodes()).sum();
                free_slots < job.node_number as usize && idle < job.node_number as usize
            }
            (Interactivity::Interactive, MachineAccess::Exclusive) => {
                let idle: usize = inner.sites.iter().map(|s| s.site.lrms().free_nodes()).sum();
                idle < job.node_number as usize
            }
            (Interactivity::Batch, _) => false, // batch can always queue
        }
    }

    fn fail(&self, sim: &mut Sim, id: JobId, reason: &str, rejected: bool) {
        let mut inner = self.inner.borrow_mut();
        let failed_now = inner.jobs.update(id, |r| {
            if matches!(r.state, JobState::Done | JobState::Failed { .. }) {
                return false; // already terminal; late events must not re-fail it
            }
            r.state = JobState::Failed {
                reason: reason.to_string(),
            };
            r.finished_at = Some(sim.now());
            true
        });
        if failed_now == Some(false) {
            return;
        }
        if failed_now == Some(true) {
            inner.trace.record(
                sim.now(),
                Event::JobFailed {
                    job: id.0,
                    reason: reason.to_string(),
                },
            );
        }
        if rejected {
            inner.stats.rejected += 1;
        } else {
            inner.stats.failed += 1;
        }
        if let Some(usage) = inner.interactive_usages.remove(&id) {
            inner.fairshare.release(usage);
        }
        inner.placements.remove(&id);
        inner.job_ads.remove(&id);
    }

    /// Books one resubmission attempt for `id` — stats, the job record's
    /// attempt counter and the `JobResubmitted` event — and returns the
    /// jittered exponential backoff delay to wait before re-entering
    /// matchmaking, or `None` when the attempt budget is exhausted. The
    /// chosen delay is recorded as a `JobBackoff` event.
    fn begin_resubmit(&self, sim: &mut Sim, id: JobId) -> Option<SimDuration> {
        let (attempt, max_resub, base, cap, jitter) = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.resubmissions += 1;
            let attempt = inner
                .jobs
                .update(id, |r| {
                    r.resubmissions += 1;
                    r.resubmissions
                })
                .expect("job exists");
            inner
                .trace
                .record(sim.now(), Event::JobResubmitted { job: id.0, attempt });
            (
                attempt,
                inner.config.max_resubmissions,
                inner.config.resubmit_backoff_base,
                inner.config.resubmit_backoff_max,
                inner.config.resubmit_backoff_jitter,
            )
        };
        if attempt > max_resub {
            return None;
        }
        let delay = backoff_delay(base, cap, jitter, attempt, sim.rng());
        self.inner.borrow().trace.record(
            sim.now(),
            Event::JobBackoff {
                job: id.0,
                attempt,
                delay_ns: delay.as_nanos(),
            },
        );
        Some(delay)
    }

    /// Resubmits a shared-mode interactive job down [`Self::shared_path`]
    /// after a dispatch-time race (agent died, vanished, or lost its free
    /// slot between selection and delegation), honouring the resubmission
    /// budget and backoff. Falls back to failing the job with `reason` when
    /// the budget is spent.
    fn resubmit_shared(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
        reason: &str,
    ) {
        if let Some(delay) = self.begin_resubmit(sim, id) {
            let this = self.clone();
            sim.schedule_in(delay, move |sim| {
                this.shared_path(sim, id, job, runtime);
            });
        } else {
            self.fail(
                sim,
                id,
                &format!("{reason}; resubmission budget exhausted"),
                false,
            );
        }
    }

    /// The job's analyzer-compiled expressions, when it passed submit-time
    /// analysis (jobs injected through test back doors have none and fall
    /// back to raw AST evaluation).
    fn compiled_for(&self, id: JobId) -> Option<Rc<CompiledJob>> {
        self.inner.borrow().compiled.get(&id).cloned()
    }

    fn add_placement(&self, id: JobId, p: Placement) {
        self.inner
            .borrow_mut()
            .placements
            .entry(id)
            .or_default()
            .push(p);
    }

    fn set_state(&self, id: JobId, state: JobState) {
        self.inner.borrow_mut().jobs.update(id, |r| r.state = state);
    }

    /// The effective selection policy for a job: its own JDL
    /// `SelectionPolicy` when the name is registered (the analyzer already
    /// warned about unknown spellings), otherwise the broker default.
    fn policy_for(&self, job: &JobDescription) -> PolicyKind {
        job.selection_policy
            .as_deref()
            .and_then(PolicyKind::parse)
            .unwrap_or(self.inner.borrow().config.selection_policy)
    }

    /// Snapshots the per-site signals the policies score `candidates`
    /// against: current and forecast LRMS queue depth, nominal broker-link
    /// RTT, the consecutive lease-failure counter, and the age of the
    /// site's information-index column. Selection reads signals at
    /// candidate indices only, so no other site is sampled.
    fn site_signals(&self, now: SimTime, candidates: &[Candidate]) -> PolicySignals {
        let inner = self.inner.borrow();
        let mut signals = PolicySignals::new();
        for i in candidates.iter().map(|c| c.site_index) {
            let s = &inner.sites[i];
            signals.set(
                i,
                SiteSignals {
                    queue_depth: s.site.lrms().queue_depth() as i64,
                    queue_forecast: inner.queue_forecast.forecast(i),
                    rtt_s: s.broker_link.profile().nominal_rtt().as_secs_f64(),
                    lease_failures: s.lease_failures,
                    staleness_s: inner.index.staleness(i, now).as_secs_f64(),
                },
            );
        }
        signals
    }

    /// Reacts to a membership transition from the information index's
    /// failure detector: records the obituary/rejoin in the trace and
    /// routes work away from (or back toward) the site.
    fn on_membership_transition(&self, sim: &mut Sim, site_index: usize, tr: &Transition) {
        let now = sim.now();
        match tr {
            Transition::Suspected {
                missed_refreshes,
                failed_queries,
            } => {
                let inner = self.inner.borrow();
                inner.trace.record(
                    now,
                    Event::SiteSuspect {
                        site: inner.sites[site_index].site.name().to_string(),
                        missed_refreshes: *missed_refreshes,
                        failed_queries: *failed_queries,
                    },
                );
            }
            Transition::Died => self.site_died(sim, site_index),
            Transition::Rejoined { down_since } => {
                {
                    let mut inner = self.inner.borrow_mut();
                    let site = inner.sites[site_index].site.name().to_string();
                    // A rejoin wipes the lease-failure streak: consecutive
                    // pre-outage failures say nothing about the recovered
                    // site, and a stale streak would keep `lease-backoff`
                    // steering work away from a healthy member.
                    inner.sites[site_index].lease_failures = 0;
                    inner.trace.record(
                        now,
                        Event::SiteRejoin {
                            site,
                            down_ns: now.saturating_since(*down_since).as_nanos(),
                        },
                    );
                }
                self.reconcile_rejoined_site(sim, site_index);
            }
            Transition::Joined | Transition::Stabilized => {}
        }
    }

    /// A site crossed into `Dead`: void its lease, clear its failure
    /// streak (the obituary supersedes per-dispatch bookkeeping), record
    /// the `SiteDead` obituary with the in-flight count, and re-match
    /// every job still waiting in the dead site's LRMS — without burning
    /// resubmission budget, exactly like crash recovery's re-arm: the
    /// attempt died with the site, the job did not misbehave.
    fn site_died(&self, sim: &mut Sim, site_index: usize) {
        let now = sim.now();
        let (victims, lrms) = {
            let mut inner = self.inner.borrow_mut();
            inner.sites[site_index].leased_until = SimTime::ZERO;
            inner.sites[site_index].lease_failures = 0;
            // Jobs with any placement on this site (LRMS copies or
            // glide-in agents hosted there) count as in flight.
            let agents_here: HashSet<AgentId> = inner
                .agents
                .iter()
                .filter(|(_, e)| e.site_index == site_index)
                .map(|(aid, _)| *aid)
                .collect();
            let mut in_flight = 0u32;
            let mut victims: Vec<(JobId, cg_site::LocalJobId)> = Vec::new();
            for (id, placements) in &inner.placements {
                let here = placements.iter().any(|p| match p {
                    Placement::Site { site_index: s, .. } => *s == site_index,
                    Placement::AgentInteractive { aid } | Placement::AgentBatch { aid, .. } => {
                        agents_here.contains(aid)
                    }
                });
                if !here {
                    continue;
                }
                in_flight += 1;
                // Only jobs still waiting in the dead LRMS (dispatched but
                // not running) are withdrawn and re-matched; running work
                // rides out the outage on the site itself.
                let scheduled = inner
                    .jobs
                    .with(*id, |r| matches!(r.state, JobState::Scheduled { .. }))
                    .unwrap_or(false);
                if scheduled {
                    if let Some(local) = placements.iter().find_map(|p| match p {
                        Placement::Site {
                            site_index: s,
                            local,
                        } if *s == site_index => Some(*local),
                        _ => None,
                    }) {
                        victims.push((*id, local));
                    }
                }
            }
            inner.trace.record(
                now,
                Event::SiteDead {
                    site: inner.sites[site_index].site.name().to_string(),
                    in_flight,
                },
            );
            (victims, inner.sites[site_index].site.lrms().clone())
        };
        for (id, local) in victims {
            lrms.kill(sim, local, "site declared dead by the broker");
            self.rematch_from_dead_site(sim, id, site_index);
        }
    }

    /// Re-enters matchmaking for a job whose dispatched copy died with
    /// its site. Unlike on-line-scheduling resubmission this books no
    /// attempt against `max_resubmissions` and takes no backoff: the
    /// failure is the infrastructure's, and the membership filter already
    /// keeps the next match off the dead site.
    fn rematch_from_dead_site(&self, sim: &mut Sim, id: JobId, site_index: usize) {
        let retained = {
            let mut inner = self.inner.borrow_mut();
            inner.placements.remove(&id);
            inner.job_ads.get(&id).cloned()
        };
        let Some(retained) = retained else {
            self.fail(sim, id, "site died with no retained ad to re-match", false);
            return;
        };
        match JobDescription::parse(&retained.jdl) {
            Ok(job) => {
                let mut excluded = HashSet::new();
                excluded.insert(site_index);
                self.matched_path(sim, id, job, retained.runtime, excluded);
            }
            Err(e) => {
                self.fail(sim, id, &format!("re-match parse failed: {e}"), false);
            }
        }
    }

    /// A rejoined site may hold outcomes the broker never heard: GRAM
    /// status messages that crossed the dead link were dropped (the
    /// gatekeeper does not retry them), so a job that finished or was
    /// killed during the outage stays `Running` broker-side forever.
    /// Model the paper's "broker re-learns state by polling": one status
    /// poll per placement still on the site, delivering the outcome the
    /// lost message carried. Best-effort — a poll that fails (the link
    /// flapped again) leaves the job for the site's next rejoin.
    fn reconcile_rejoined_site(&self, sim: &mut Sim, site_index: usize) {
        let (stranded, link, lrms) = {
            let inner = self.inner.borrow();
            let stranded: Vec<(JobId, cg_site::LocalJobId)> = inner
                .placements
                .iter()
                .filter(|(id, _)| {
                    inner
                        .jobs
                        .with(**id, |r| {
                            matches!(
                                r.state,
                                JobState::Scheduled { .. } | JobState::Running { .. }
                            )
                        })
                        .unwrap_or(false)
                })
                .filter_map(|(id, placements)| {
                    placements.iter().find_map(|p| match p {
                        Placement::Site {
                            site_index: s,
                            local,
                        } if *s == site_index => Some((*id, *local)),
                        _ => None,
                    })
                })
                .collect();
            (
                stranded,
                inner.sites[site_index].broker_link.clone(),
                inner.sites[site_index].site.lrms().clone(),
            )
        };
        for (id, local) in stranded {
            let this = self.clone();
            let lrms = lrms.clone();
            let service = SimDuration::from_secs_f64(0.3);
            rpc_call(sim, &link, Dir::AToB, 300, 400, service, move |sim, r| {
                if r.is_err() {
                    return;
                }
                match lrms.disposition(local) {
                    Some(cg_site::LocalDisposition::Finished) => this.finish_job(sim, id),
                    Some(cg_site::LocalDisposition::Killed) => {
                        this.fail(sim, id, "killed at site while the link was down", false);
                    }
                    // Still queued/running (its push events will cross the
                    // healed link), or never accepted — nothing to deliver.
                    _ => {}
                }
            });
        }
    }

    /// Records a dispatch outcome at a site for the `lease-backoff`
    /// signal: a successful start clears the streak, a queued-withdrawal
    /// or submission failure extends it.
    fn note_lease_result(&self, site_index: usize, ok: bool) {
        let mut inner = self.inner.borrow_mut();
        let entry = &mut inner.sites[site_index];
        entry.lease_failures = if ok {
            0
        } else {
            entry.lease_failures.saturating_add(1)
        };
    }

    fn ensure_fairshare_tick(&self, sim: &mut Sim) {
        let mut inner = self.inner.borrow_mut();
        if inner.tick_scheduled {
            return;
        }
        inner.tick_scheduled = true;
        let dt = inner.config.fairshare.delta_t;
        drop(inner);
        let this = self.clone();
        sim.schedule_in(dt, move |sim| {
            let keep = {
                let mut inner = this.inner.borrow_mut();
                inner.tick_scheduled = false;
                let now = sim.now();
                inner.fairshare.tick(now);
                // Observe every site's LRMS queue depth on the same tick
                // cadence: the queue-forecast EWMA shares the fair-share
                // δt/half-life and its same-δt no-double-decay contract.
                let depths: Vec<i64> = inner
                    .sites
                    .iter()
                    .map(|s| s.site.lrms().queue_depth() as i64)
                    .collect();
                for (i, depth) in depths.into_iter().enumerate() {
                    inner.queue_forecast.observe(i, depth);
                }
                inner.queue_forecast.tick(now);
                // Keep ticking while anything is charged or decaying.
                inner.fairshare.active_usages() > 0
                    || inner
                        .jobs
                        .any(|j| matches!(j.state, JobState::Running { .. }))
            };
            if keep {
                this.ensure_fairshare_tick(sim);
            }
        });
    }

    // ------------------------------------------------------------------
    // Shared (agent) path — §5.2 arrow 4
    // ------------------------------------------------------------------

    fn shared_path(&self, sim: &mut Sim, id: JobId, job: JobDescription, runtime: SimDuration) {
        let now = sim.now();
        {
            // Discovery+selection are "a combined step inside CrossBroker"
            // using local agent information only (§6.1).
            let inner = self.inner.borrow_mut();
            inner
                .jobs
                .update(id, |r| {
                    r.state = JobState::Matching;
                    r.discovered_at = Some(now);
                    r.selected_at = Some(now);
                })
                .expect("job exists");
        }

        // Find a live agent with a free interactive slot whose lease allows.
        let pick = {
            let inner = self.inner.borrow();
            let mut best: Option<AgentId> = None;
            for (aid, entry) in &inner.agents {
                if entry.leased_until > now {
                    continue;
                }
                if entry.agent.borrow().interactive_free() >= 1 {
                    best = Some(match best {
                        None => *aid,
                        Some(prev) => prev.min(*aid), // deterministic
                    });
                }
            }
            best
        };

        match pick {
            Some(aid) => {
                {
                    let mut inner = self.inner.borrow_mut();
                    let lease = inner.config.lease;
                    if let Some(e) = inner.agents.get_mut(&aid) {
                        e.leased_until = now + lease;
                    }
                    inner.trace.record(
                        now,
                        Event::LeaseGranted {
                            job: id.0,
                            target: format!("agent:{}", aid.0),
                            until_ns: (now + lease).as_nanos(),
                        },
                    );
                }
                self.dispatch_to_agent(sim, id, aid, job, runtime);
            }
            None => {
                // "If no free interactive agents are found, CrossBroker
                // searches for an idle machine and submits the agent and the
                // application in a similar way as it does for a batch job."
                let idle_site = {
                    let inner = self.inner.borrow();
                    (0..inner.sites.len()).find(|&i| {
                        let s = &inner.sites[i];
                        s.leased_until <= now
                            && s.site.lrms().free_nodes() >= 1
                            && inner.index.is_schedulable(i)
                    })
                };
                match idle_site {
                    Some(site_index) => {
                        self.lease_site(sim, site_index);
                        {
                            let inner = self.inner.borrow();
                            let entry = &inner.sites[site_index];
                            inner.trace.record(
                                now,
                                Event::LeaseGranted {
                                    job: id.0,
                                    target: format!("site:{}", entry.site.name()),
                                    until_ns: entry.leased_until.as_nanos(),
                                },
                            );
                        }
                        let this = self.clone();
                        self.deploy_agent_at(sim, site_index, move |sim, broker, aid| match aid {
                            Some(aid) => {
                                broker.dispatch_to_agent(sim, id, aid, job.clone(), runtime);
                            }
                            None => this.fail(sim, id, "agent deployment failed", false),
                        });
                    }
                    None => {
                        // "If there are not enough machines (with or without
                        // agents) to execute an interactive application, its
                        // submission will fail."
                        self.fail(sim, id, "no machines available for interactive job", false);
                    }
                }
            }
        }
    }

    /// Direct dispatch of an interactive job to a glide-in agent: delegation
    /// + sandbox transfer + agent exec + console startup.
    fn dispatch_to_agent(
        &self,
        sim: &mut Sim,
        id: JobId,
        aid: AgentId,
        job: JobDescription,
        runtime: SimDuration,
    ) {
        let (agent, broker_link, ui_link, delegation, sandbox, console, site_name, backend) = {
            let inner = self.inner.borrow();
            let Some(entry) = inner.agents.get(&aid) else {
                drop(inner);
                // Selection raced an agent death: resubmit rather than fail —
                // another agent (or an idle node) may still take the job.
                self.resubmit_shared(sim, id, job, runtime, "agent vanished before dispatch");
                return;
            };
            let site = &inner.sites[entry.site_index];
            (
                Rc::clone(&entry.agent),
                site.broker_link.clone(),
                site.ui_link.clone(),
                SimDuration::from_secs_f64(inner.config.shared_delegation_s),
                job_sandbox_bytes(&job, &inner.config),
                inner.config.console,
                site.site.name().to_string(),
                site.site.backend_kind().as_str().to_string(),
            )
        };
        {
            let inner = self.inner.borrow_mut();
            inner.jobs.update(id, |r| {
                r.dispatched_at = Some(sim.now());
                r.state = JobState::Scheduled {
                    site: site_name.clone(),
                };
            });
            inner.trace.record(
                sim.now(),
                Event::JobDispatched {
                    job: id.0,
                    target: format!("agent:{}", aid.0),
                    backend,
                },
            );
        }

        let this = self.clone();
        let pl = job.performance_loss;
        let smode = job.streaming_mode;
        let user = job.user.clone();
        sim.schedule_in(delegation, move |sim| {
            // Stage the application directly to the agent.
            let this2 = this.clone();
            let agent2 = Rc::clone(&agent);
            broker_link
                .clone()
                .send(sim, Dir::AToB, sandbox, move |sim, r| {
                    if r.is_err() {
                        this2.fail(sim, id, "staging to agent failed", false);
                        return;
                    }
                    // The agent may have been killed while the sandbox was in
                    // flight; a dead target is a race, not a job failure.
                    let alive = this2.inner.borrow().agents.contains_key(&aid)
                        && agent2.borrow().is_alive();
                    if !alive {
                        this2.resubmit_shared(sim, id, job, runtime, "agent died during dispatch");
                        return;
                    }
                    let weak3 = this2.downgrade();
                    let weak4 = this2.downgrade();
                    let ui_link2 = ui_link.clone();
                    let user2 = user.clone();
                    let sites = vec![site_name.clone()];
                    this2.add_placement(id, Placement::AgentInteractive { aid });
                    let result = agent2.borrow().submit_interactive(
                        sim,
                        runtime,
                        pl,
                        move |sim| {
                            let Some(this3) = weak3.upgrade() else {
                                return;
                            };
                            // Application is running: co-resident batch yields,
                            // fair-share charges the interactive user, console
                            // comes up and the first output travels home.
                            this3.on_interactive_started(sim, id, aid, &user2, pl);
                            let this5 = this3.clone();
                            let sites2 = sites.clone();
                            let log = this3.inner.borrow().trace.clone();
                            console_startup(
                                sim,
                                ui_link2.clone(),
                                console,
                                smode,
                                log,
                                id.0,
                                move |sim, ok| {
                                    if ok {
                                        this5.mark_running(
                                            sim,
                                            id,
                                            sites2.clone(),
                                            Some((smode, ui_link2.profile())),
                                        );
                                    } else {
                                        this5.fail(sim, id, "console startup failed", false);
                                    }
                                },
                            );
                        },
                        move |sim| {
                            if let Some(this4) = weak4.upgrade() {
                                this4.on_interactive_finished(sim, id, aid);
                            }
                        },
                    );
                    if result.is_err() {
                        this2.resubmit_shared(
                            sim,
                            id,
                            job,
                            runtime,
                            "agent slot taken concurrently",
                        );
                    }
                });
        });
    }

    fn on_interactive_started(&self, sim: &mut Sim, id: JobId, aid: AgentId, user: &str, pl: u8) {
        let mut inner = self.inner.borrow_mut();
        // Batch co-resident yields: its user is charged a_f = PL/100 (§5.1).
        if let Some(entry) = inner.agents.get(&aid) {
            if let Some(usage) = entry.batch_usage {
                inner.fairshare.set_kind(
                    usage,
                    UsageKind::YieldedBatch {
                        performance_loss: pl,
                    },
                );
                inner.trace.record(
                    sim.now(),
                    Event::BatchYielded {
                        agent: aid.0,
                        job: id.0,
                        performance_loss: pl as u32,
                    },
                );
            }
        }
        let usage = inner.fairshare.register(
            user,
            UsageKind::Interactive {
                performance_loss: pl,
            },
            1,
        );
        // Remember the interactive usage on the job record via a side map in
        // the agent entry is overkill; stash in jobs' resubmissions? Use a
        // dedicated map:
        inner.interactive_usages.insert(id, usage);
    }

    fn on_interactive_finished(&self, sim: &mut Sim, id: JobId, aid: AgentId) {
        {
            let mut inner = self.inner.borrow_mut();
            if let Some(usage) = inner.interactive_usages.remove(&id) {
                inner.fairshare.release(usage);
            }
            // Restore the batch job's normal charging.
            if let Some(entry) = inner.agents.get(&aid) {
                if let Some(usage) = entry.batch_usage {
                    if !entry.batch_done {
                        inner.fairshare.set_kind(usage, UsageKind::Batch);
                        inner.trace.record(
                            sim.now(),
                            Event::BatchRestored {
                                agent: aid.0,
                                job: id.0,
                            },
                        );
                    }
                }
            }
            let finished = inner.jobs.update(id, |r| {
                if matches!(r.state, JobState::Failed { .. }) {
                    return false;
                }
                r.state = JobState::Done;
                r.finished_at = Some(sim.now());
                true
            });
            if finished == Some(true) {
                inner.stats.finished += 1;
                inner
                    .trace
                    .record(sim.now(), Event::JobFinished { job: id.0 });
            }
        }
        self.maybe_agent_departs(sim, aid);
        self.retry_broker_queue(sim);
    }

    fn maybe_agent_departs(&self, sim: &mut Sim, aid: AgentId) {
        let action = {
            let inner = self.inner.borrow();
            let Some(entry) = inner.agents.get(&aid) else {
                return;
            };
            // "After completion of the batch job, the agent leaves the
            // machine" — once no interactive job is using it either.
            let agent = entry.agent.borrow();
            let idle_interactive = agent.interactive_free() >= 1;
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

    /// Combination path for parallel shared jobs (§5.2): free interactive-vm
    /// slots host subjobs first, idle machines (direct gatekeeper
    /// submissions) cover the remainder. The job starts when every subjob's
    /// console has delivered output; it fails outright if agents plus idle
    /// machines cannot cover `NodeNumber` — an interactive application never
    /// waits and never preempts another interactive application.
    fn shared_parallel_path(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
    ) {
        let now = sim.now();
        {
            // Combined local discovery/selection: agents and site states are
            // known to the broker directly.
            let inner = self.inner.borrow_mut();
            inner
                .jobs
                .update(id, |r| {
                    r.state = JobState::Matching;
                    r.discovered_at = Some(now);
                    r.selected_at = Some(now);
                })
                .expect("job exists");
        }

        // 1. Claim free agent slots (one subjob each).
        let nodes_needed = job.node_number;
        let agent_picks: Vec<AgentId> = {
            let inner = self.inner.borrow();
            let mut picks: Vec<AgentId> = inner
                .agents
                .iter()
                .filter(|(_, e)| e.leased_until <= now && e.agent.borrow().interactive_free() >= 1)
                .map(|(aid, _)| *aid)
                .collect();
            picks.sort(); // deterministic
            picks.truncate(nodes_needed as usize);
            picks
        };
        let remaining = nodes_needed - agent_picks.len() as u32;

        // 2. Cover the remainder with idle machines (unleased sites).
        let site_plan: Vec<(usize, u32)> = if remaining == 0 {
            Vec::new()
        } else {
            let inner = self.inner.borrow();
            let mut left = remaining;
            let mut plan = Vec::new();
            let mut order: Vec<usize> = (0..inner.sites.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(inner.sites[i].site.lrms().free_nodes()));
            for i in order {
                if left == 0 {
                    break;
                }
                let e = &inner.sites[i];
                if e.leased_until > now || !inner.index.is_schedulable(i) {
                    continue;
                }
                let free = e.site.lrms().free_nodes() as u32;
                if free == 0 {
                    continue;
                }
                let take = free.min(left);
                plan.push((i, take));
                left -= take;
            }
            if left > 0 {
                drop(inner);
                self.fail(
                    sim,
                    id,
                    "not enough machines (with or without agents) for the parallel interactive job",
                    false,
                );
                return;
            }
            plan
        };

        // 3. Lease everything we are about to use.
        {
            let mut inner = self.inner.borrow_mut();
            let lease = inner.config.lease;
            for aid in &agent_picks {
                if let Some(e) = inner.agents.get_mut(aid) {
                    e.leased_until = now + lease;
                }
                inner.trace.record(
                    now,
                    Event::LeaseGranted {
                        job: id.0,
                        target: format!("agent:{}", aid.0),
                        until_ns: (now + lease).as_nanos(),
                    },
                );
            }
            for &(i, _) in &site_plan {
                inner.sites[i].leased_until = now + lease;
                let name = inner.sites[i].site.name().to_string();
                inner.trace.record(
                    now,
                    Event::LeaseGranted {
                        job: id.0,
                        target: format!("site:{name}"),
                        until_ns: (now + lease).as_nanos(),
                    },
                );
            }
            let target = format!(
                "{} agent slot(s) + {} site(s)",
                agent_picks.len(),
                site_plan.len()
            );
            inner.jobs.update(id, |r| {
                r.dispatched_at = Some(now);
                r.state = JobState::Scheduled {
                    site: target.clone(),
                };
            });
            // One dispatch record covers the whole mixed plan; label it with
            // the first execution target's backend (uniform in practice).
            let backend = site_plan
                .first()
                .map(|&(i, _)| inner.sites[i].site.backend_kind())
                .or_else(|| {
                    agent_picks.first().and_then(|aid| {
                        inner
                            .agents
                            .get(aid)
                            .map(|e| inner.sites[e.site_index].site.backend_kind())
                    })
                })
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

        // Barrier/completion bookkeeping. Consoles: one CA per subjob (§4);
        // completions: one per agent task plus one per site job.
        struct MpiShared {
            consoles_up: u32,
            consoles_total: u32,
            tasks_done: u32,
            tasks_total: u32,
            failed: bool,
            site_names: Vec<String>,
        }
        let site_names: Vec<String> = {
            let inner = self.inner.borrow();
            agent_picks
                .iter()
                .filter_map(|aid| {
                    inner
                        .agents
                        .get(aid)
                        .map(|e| inner.sites[e.site_index].site.name().to_string())
                })
                .chain(
                    site_plan
                        .iter()
                        .map(|&(i, _)| inner.sites[i].site.name().to_string()),
                )
                .collect()
        };
        let state = Rc::new(RefCell::new(MpiShared {
            consoles_up: 0,
            consoles_total: nodes_needed,
            tasks_done: 0,
            tasks_total: agent_picks.len() as u32 + site_plan.len() as u32,
            failed: false,
            site_names,
        }));

        // Representative UI path for session-latency sampling (first agent's
        // site, else the first co-allocated site).
        let session_profile: Option<(cg_jdl::StreamingMode, cg_net::LinkProfile)> = {
            let inner = self.inner.borrow();
            agent_picks
                .first()
                .and_then(|aid| {
                    inner
                        .agents
                        .get(aid)
                        .map(|e| inner.sites[e.site_index].ui_link.profile())
                })
                .or_else(|| {
                    site_plan
                        .first()
                        .map(|&(i, _)| inner.sites[i].ui_link.profile())
                })
                .map(|p| (job.streaming_mode, p))
        };
        // Both continuations end up inside LRMS and agent-VM callbacks, so
        // they hold the broker weakly.
        let on_console_up = {
            let weak = self.downgrade();
            let state = Rc::clone(&state);
            let user = job.user.clone();
            let total_nodes = nodes_needed;
            move |sim: &mut Sim, ok: bool| {
                let Some(this) = weak.upgrade() else {
                    return;
                };
                let mut st = state.borrow_mut();
                if !ok {
                    if !st.failed {
                        st.failed = true;
                        drop(st);
                        this.fail(sim, id, "console startup failed", false);
                    }
                    return;
                }
                st.consoles_up += 1;
                if st.consoles_up == st.consoles_total && !st.failed {
                    let names = st.site_names.clone();
                    drop(st);
                    {
                        let mut inner = this.inner.borrow_mut();
                        let usage = inner.fairshare.register(
                            &user,
                            UsageKind::Interactive {
                                performance_loss: 0,
                            },
                            total_nodes,
                        );
                        inner.interactive_usages.insert(id, usage);
                    }
                    this.ensure_fairshare_tick(sim);
                    this.mark_running(sim, id, names, session_profile.clone());
                }
            }
        };
        let on_console_up = Rc::new(on_console_up);
        let on_task_done = {
            let weak = self.downgrade();
            let state = Rc::clone(&state);
            move |sim: &mut Sim| {
                let Some(this) = weak.upgrade() else {
                    return;
                };
                let mut st = state.borrow_mut();
                st.tasks_done += 1;
                if st.tasks_done == st.tasks_total {
                    drop(st);
                    this.finish_job(sim, id);
                }
            }
        };
        let on_task_done = Rc::new(on_task_done);

        // 4a. Agent subjobs: delegation + staging + direct execution.
        let (delegation, sandbox, console) = {
            let inner = self.inner.borrow();
            (
                SimDuration::from_secs_f64(inner.config.shared_delegation_s),
                job_sandbox_bytes(&job, &inner.config),
                inner.config.console,
            )
        };
        let pl = job.performance_loss;
        let smode = job.streaming_mode;
        for aid in agent_picks {
            let (agent, broker_link, ui_link) = {
                let inner = self.inner.borrow();
                let e = &inner.agents[&aid];
                let site = &inner.sites[e.site_index];
                (
                    Rc::clone(&e.agent),
                    site.broker_link.clone(),
                    site.ui_link.clone(),
                )
            };
            let this = self.clone();
            let up = Rc::clone(&on_console_up);
            let done = Rc::clone(&on_task_done);
            sim.schedule_in(delegation, move |sim| {
                let this2 = this.clone();
                let agent2 = Rc::clone(&agent);
                broker_link
                    .clone()
                    .send(sim, Dir::AToB, sandbox, move |sim, r| {
                        if r.is_err() {
                            this2.fail(sim, id, "staging to agent failed", false);
                            return;
                        }
                        let up2 = Rc::clone(&up);
                        let done2 = Rc::clone(&done);
                        let weak3 = this2.downgrade();
                        let weak4 = this2.downgrade();
                        let ui2 = ui_link.clone();
                        this2.add_placement(id, Placement::AgentInteractive { aid });
                        let result = agent2.borrow().submit_interactive(
                            sim,
                            runtime,
                            pl,
                            move |sim| {
                                let Some(this3) = weak3.upgrade() else {
                                    return;
                                };
                                // Co-resident batch yields; console comes up.
                                {
                                    let mut inner = this3.inner.borrow_mut();
                                    if let Some(entry) = inner.agents.get(&aid) {
                                        if let Some(u) = entry.batch_usage {
                                            inner.fairshare.set_kind(
                                                u,
                                                UsageKind::YieldedBatch {
                                                    performance_loss: pl,
                                                },
                                            );
                                            inner.trace.record(
                                                sim.now(),
                                                Event::BatchYielded {
                                                    agent: aid.0,
                                                    job: id.0,
                                                    performance_loss: pl as u32,
                                                },
                                            );
                                        }
                                    }
                                }
                                let up3 = Rc::clone(&up2);
                                let log = this3.inner.borrow().trace.clone();
                                console_startup(
                                    sim,
                                    ui2.clone(),
                                    console,
                                    smode,
                                    log,
                                    id.0,
                                    move |sim, ok| up3(sim, ok),
                                );
                            },
                            move |sim| {
                                let Some(this4) = weak4.upgrade() else {
                                    return;
                                };
                                // Restore the batch job's charging; task done.
                                {
                                    let mut inner = this4.inner.borrow_mut();
                                    if let Some(entry) = inner.agents.get(&aid) {
                                        if let Some(u) = entry.batch_usage {
                                            if !entry.batch_done {
                                                inner.fairshare.set_kind(u, UsageKind::Batch);
                                                inner.trace.record(
                                                    sim.now(),
                                                    Event::BatchRestored {
                                                        agent: aid.0,
                                                        job: id.0,
                                                    },
                                                );
                                            }
                                        }
                                    }
                                }
                                this4.maybe_agent_departs(sim, aid);
                                done2(sim);
                            },
                        );
                        if result.is_err() {
                            this2.fail(sim, id, "agent slot taken concurrently", false);
                        }
                    });
            });
        }

        // 4b. Idle-machine subjobs: direct gatekeeper submissions, one
        //     console per allocated node.
        for (site_index, nodes) in site_plan {
            let (site, broker_link, ui_link) = {
                let inner = self.inner.borrow();
                let e = &inner.sites[site_index];
                (e.site.clone(), e.broker_link.clone(), e.ui_link.clone())
            };
            let spec = LocalJobSpec {
                nodes,
                runtime: Some(runtime),
                walltime: None,
                priority: 0,
                user: job.user.clone(),
            };
            let weak = self.downgrade();
            let up = Rc::clone(&on_console_up);
            let done = Rc::clone(&on_task_done);
            let state2 = Rc::clone(&state);
            site.gatekeeper().submit(sim, broker_link, spec, sandbox, move |sim, ev| {
                let Some(this) = weak.upgrade() else {
                    return;
                };
                match ev {
                    GramEvent::Accepted { local_id } => {
                        this.add_placement(
                            id,
                            Placement::Site {
                                site_index,
                                local: *local_id,
                            },
                        );
                    }
                    GramEvent::Started { nodes } => {
                        for _ in 0..nodes.len() {
                            let up2 = Rc::clone(&up);
                            let log = this.inner.borrow().trace.clone();
                            console_startup(sim, ui_link.clone(), console, smode, log, id.0, move |sim, ok| {
                                up2(sim, ok);
                            });
                        }
                    }
                    GramEvent::Queued
                        // The live view raced a local submission; this path
                        // does not resubmit — the job fails cleanly.
                        if !state2.borrow().failed => {
                            state2.borrow_mut().failed = true;
                            this.fail(sim, id, "idle machine stolen mid-submission", false);
                        }
                    GramEvent::Finished => done(sim),
                    GramEvent::Failed(e)
                        if !state2.borrow().failed => {
                            state2.borrow_mut().failed = true;
                            this.fail(sim, id, &format!("subjob failed: {e}"), false);
                        }
                    _ => {}
                }
            });
        }
    }

    // ------------------------------------------------------------------
    // Matched path (discovery → selection → submission)
    // ------------------------------------------------------------------

    fn matched_path(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
        excluded: HashSet<usize>,
    ) {
        self.set_state(id, JobState::Matching);
        let this = self.clone();
        let (index, mds_link) = {
            let inner = self.inner.borrow();
            (inner.index.clone(), inner.mds_link.clone())
        };
        let index2 = index.clone();
        index.query(sim, &mds_link, move |sim, result| {
            let (stale, distrusted) = match result {
                Ok(stale) => (stale, HashSet::new()),
                Err(_) => {
                    // Health-gated degradation: the information system is
                    // unreachable, so fall back to the broker's own last
                    // snapshot — but the trust bound is *per site*. A
                    // site's `published_at` lags the index-global
                    // `refreshed_at` whenever its publish path was down,
                    // so bounding on the global stamp (the old code)
                    // would match onto arbitrarily stale columns while
                    // believing them fresh. Sites beyond the bound are
                    // dropped from the shortlist; the job fails only
                    // when no column is trustworthy.
                    let now = sim.now();
                    let inner = this.inner.borrow();
                    let bound = inner.config.degraded_max_staleness;
                    let snap = inner.index.snapshot_arc();
                    let mut worst = SimDuration::ZERO;
                    let mut distrusted = HashSet::new();
                    for i in 0..snap.len() {
                        let age = inner.index.staleness(i, now);
                        if age > bound {
                            distrusted.insert(i);
                        } else if age > worst {
                            worst = age;
                        }
                    }
                    if distrusted.len() == snap.len() {
                        drop(inner);
                        this.fail(sim, id, "information system unreachable", false);
                        return;
                    }
                    inner.trace.record(
                        now,
                        Event::DegradedMatch {
                            job: id.0,
                            staleness_ns: worst.as_nanos(),
                        },
                    );
                    (snap, distrusted)
                }
            };
            {
                let inner = this.inner.borrow_mut();
                inner.jobs.update(id, |r| {
                    r.discovered_at.get_or_insert(sim.now());
                });
            }
            // Stale-info filter decides which sites to live-query. The
            // compiled path scans the MDS columnar snapshot in place (no
            // per-query ad clones); per-site matching is independent, so
            // dropping excluded sites after the filter is equivalent to
            // dropping them before.
            // MPICH-G2 co-allocation sums free CPUs across sites, so a
            // single site need not host the whole job.
            let require_full = job.is_interactive() && job.parallelism != Parallelism::MpichG2;
            let shortlist: Vec<Candidate> = match this.compiled_for(id) {
                Some(c) => filter_candidates_columnar(&job, &c, &stale, require_full),
                // Uncompiled jobs scan the same columns with raw
                // expression eval (`CompiledJob::default()` carries no
                // compiled forms) — identical semantics, no per-job ad
                // clones.
                None => {
                    filter_candidates_columnar(&job, &CompiledJob::default(), &stale, require_full)
                }
            }
            .into_iter()
            // Membership gate: `Dead` sites are dropped from the sweep
            // entirely; `Suspect` sites stay on the shortlist — the live
            // query doubles as the probe that can rejoin them — but the
            // selection step below still refuses to lease or dispatch
            // onto anything unhealthy. Degraded mode additionally drops
            // sites whose column aged past the trust bound.
            .filter(|c| {
                !excluded.contains(&c.site_index)
                    && !distrusted.contains(&c.site_index)
                    && index2.membership_state(c.site_index) != MembershipState::Dead
            })
            .collect();
            if shortlist.is_empty() {
                this.no_candidates(sim, id, job, runtime);
                return;
            }
            // Live queries, sequentially — the ≈3 s selection step.
            let this2 = this.clone();
            live_query_chain(
                sim,
                this.clone(),
                id,
                shortlist.iter().map(|c| c.site_index).collect(),
                move |sim, live_ads| {
                    this2.finish_selection(sim, id, job, runtime, live_ads, excluded);
                },
            );
        });
    }

    fn finish_selection(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
        live_ads: Vec<(usize, Arc<Ad>)>,
        excluded: HashSet<usize>,
    ) {
        let now = sim.now();
        {
            let inner = self.inner.borrow_mut();
            inner.jobs.update(id, |r| r.selected_at = Some(now));
        }
        let require_full = job.is_interactive() && job.parallelism != Parallelism::MpichG2;
        // Exclude leased sites, and sites the failure detector demoted
        // while the live queries were in flight.
        let usable: Vec<(usize, Arc<Ad>)> = {
            let inner = self.inner.borrow();
            live_ads
                .into_iter()
                .filter(|(i, _)| {
                    inner.sites[*i].leased_until <= now && inner.index.is_schedulable(*i)
                })
                .collect()
        };
        let candidates = match self.compiled_for(id) {
            Some(c) => filter_candidates_compiled(&job, &c, &usable, require_full),
            None => filter_candidates(&job, &usable, require_full),
        };
        if candidates.is_empty() {
            self.no_candidates(sim, id, job, runtime);
            return;
        }

        let kind = self.policy_for(&job);
        let signals = self.site_signals(now, &candidates);
        let policy = kind.policy();

        if job.parallelism == Parallelism::MpichG2 && job.node_number > 1 {
            match coallocate_with(policy, &signals, &candidates, job.node_number) {
                Some(plan) => {
                    {
                        let inner = self.inner.borrow();
                        for &(site_index, _) in &plan {
                            let c = candidates
                                .iter()
                                .find(|c| c.site_index == site_index)
                                .expect("planned site is a candidate");
                            inner.trace.record(
                                now,
                                Event::PolicyDecision {
                                    job: id.0,
                                    policy: kind.name().to_string(),
                                    site: c.site.clone(),
                                    score: policy.score(c, &signals.get(site_index)),
                                },
                            );
                        }
                    }
                    self.submit_coallocated(sim, id, job, runtime, plan);
                }
                None => self.no_candidates(sim, id, job, runtime),
            }
            return;
        }

        let selection = select_detailed_with(policy, &signals, &candidates, sim.rng());
        if !selection.nan_discarded.is_empty() {
            let inner = self.inner.borrow();
            for c in &selection.nan_discarded {
                inner.trace.record(
                    now,
                    Event::RankNanDiscarded {
                        job: id.0,
                        site: c.site.clone(),
                    },
                );
            }
        }
        let Some(chosen) = selection.winner else {
            self.no_candidates(sim, id, job, runtime);
            return;
        };
        {
            let inner = self.inner.borrow();
            inner.trace.record(
                now,
                Event::PolicyDecision {
                    job: id.0,
                    policy: kind.name().to_string(),
                    site: chosen.site.clone(),
                    score: policy.score(&chosen, &signals.get(chosen.site_index)),
                },
            );
        }
        {
            let mut inner = self.inner.borrow_mut();
            let lease = inner.config.lease;
            inner.sites[chosen.site_index].leased_until = now + lease;
            let name = inner.sites[chosen.site_index].site.name().to_string();
            inner.trace.record(
                now,
                Event::LeaseGranted {
                    job: id.0,
                    target: format!("site:{name}"),
                    until_ns: (now + lease).as_nanos(),
                },
            );
        }

        if job.interactivity == Interactivity::Batch {
            self.submit_batch_with_agent(sim, id, chosen.site_index, job, runtime);
        } else {
            self.submit_exclusive(sim, id, chosen.site_index, job, runtime, excluded);
        }
    }

    fn no_candidates(&self, sim: &mut Sim, id: JobId, job: JobDescription, runtime: SimDuration) {
        if job.interactivity == Interactivity::Batch {
            // §5.2 arrow 2: wait in the broker for a machine to become idle.
            let mut inner = self.inner.borrow_mut();
            inner.jobs.update(id, |r| r.state = JobState::BrokerQueued);
            inner.queue.push((id, job, runtime));
            inner
                .trace
                .record(sim.now(), Event::JobQueued { job: id.0 });
            drop(inner);
            self.schedule_queue_retry(sim);
        } else {
            self.fail(sim, id, "no resources match the interactive job", false);
        }
    }

    fn schedule_queue_retry(&self, sim: &mut Sim) {
        let mut inner = self.inner.borrow_mut();
        if inner.queue_retry_scheduled || inner.queue.is_empty() {
            return;
        }
        inner.queue_retry_scheduled = true;
        let retry = inner.config.broker_queue_retry;
        drop(inner);
        let this = self.clone();
        sim.schedule_in(retry, move |sim| {
            this.inner.borrow_mut().queue_retry_scheduled = false;
            this.retry_broker_queue(sim);
        });
    }

    fn retry_broker_queue(&self, sim: &mut Sim) {
        let next = {
            let mut inner = self.inner.borrow_mut();
            if inner.queue.is_empty() {
                None
            } else {
                Some(inner.queue.remove(0))
            }
        };
        if let Some((id, job, runtime)) = next {
            self.inner
                .borrow()
                .trace
                .record(sim.now(), Event::QueueRetry { job: id.0 });
            self.matched_path(sim, id, job, runtime, HashSet::new());
        }
        self.schedule_queue_retry(sim);
    }

    /// Exclusive-mode interactive submission (§5.2 arrow 3): through the
    /// gatekeeper, no agent; on-line scheduling resubmits if it queues.
    fn submit_exclusive(
        &self,
        sim: &mut Sim,
        id: JobId,
        site_index: usize,
        job: JobDescription,
        runtime: SimDuration,
        excluded: HashSet<usize>,
    ) {
        let (site, broker_link, ui_link, console, sandbox, resubmit) = {
            let inner = self.inner.borrow();
            let s = &inner.sites[site_index];
            (
                s.site.clone(),
                s.broker_link.clone(),
                s.ui_link.clone(),
                inner.config.console,
                job_sandbox_bytes(&job, &inner.config),
                inner.config.resubmit_on_queue,
            )
        };
        {
            let inner = self.inner.borrow_mut();
            inner.jobs.update(id, |r| {
                r.dispatched_at.get_or_insert(sim.now());
                r.state = JobState::Scheduled {
                    site: site.name().to_string(),
                };
            });
            inner.trace.record(
                sim.now(),
                Event::JobDispatched {
                    job: id.0,
                    target: format!("site:{}", site.name()),
                    backend: site.backend_kind().as_str().to_string(),
                },
            );
        }
        let spec = LocalJobSpec {
            nodes: job.node_number,
            runtime: Some(runtime),
            walltime: declared_walltime(&job),
            priority: 0,
            user: job.user.clone(),
        };
        let weak = self.downgrade();
        let site_name = site.name().to_string();
        let smode = job.streaming_mode;
        let started = Rc::new(RefCell::new(false));
        let local_id: Rc<RefCell<Option<cg_site::LocalJobId>>> = Rc::new(RefCell::new(None));
        site.gatekeeper()
            .submit(sim, broker_link, spec, sandbox, move |sim, ev| {
                let Some(this) = weak.upgrade() else {
                    return;
                };
                match ev {
                    GramEvent::Accepted { local_id: lid } => {
                        *local_id.borrow_mut() = Some(*lid);
                        this.add_placement(
                            id,
                            Placement::Site {
                                site_index,
                                local: *lid,
                            },
                        );
                    }
                    GramEvent::Started { .. } => {
                        *started.borrow_mut() = true;
                        this.note_lease_result(site_index, true);
                        let this2 = this.clone();
                        let user = job.user.clone();
                        let nodes = job.node_number;
                        let site_name2 = site_name.clone();
                        let ui_profile = ui_link.profile();
                        let log = this.inner.borrow().trace.clone();
                        console_startup(
                            sim,
                            ui_link.clone(),
                            console,
                            smode,
                            log,
                            id.0,
                            move |sim, ok| {
                                if ok {
                                    {
                                        let mut inner = this2.inner.borrow_mut();
                                        let usage = inner.fairshare.register(
                                            &user,
                                            UsageKind::Interactive {
                                                performance_loss: 0,
                                            },
                                            nodes,
                                        );
                                        inner.interactive_usages.insert(id, usage);
                                    }
                                    this2.ensure_fairshare_tick(sim);
                                    this2.mark_running(
                                        sim,
                                        id,
                                        vec![site_name2.clone()],
                                        Some((smode, ui_profile.clone())),
                                    );
                                } else {
                                    this2.fail(sim, id, "console startup failed", false);
                                }
                            },
                        );
                    }
                    GramEvent::Queued if resubmit && !*started.borrow() => {
                        // On-line scheduling (§3): it queued instead of starting —
                        // kill it here and resubmit elsewhere.
                        // Withdraw the queued copy before resubmitting elsewhere.
                        if let Some(lid) = *local_id.borrow() {
                            let lrms = this.inner.borrow().sites[site_index].site.lrms().clone();
                            lrms.kill(sim, lid, "withdrawn by broker (on-line scheduling)");
                        }
                        this.note_lease_result(site_index, false);
                        let mut excluded2 = excluded.clone();
                        excluded2.insert(site_index);
                        if let Some(delay) = this.begin_resubmit(sim, id) {
                            let this2 = this.clone();
                            let job2 = job.clone();
                            sim.schedule_in(delay, move |sim| {
                                this2.matched_path(sim, id, job2, runtime, excluded2);
                            });
                        } else {
                            this.fail(sim, id, "resubmission budget exhausted", false);
                        }
                    }
                    GramEvent::Finished => {
                        this.finish_job(sim, id);
                    }
                    GramEvent::Killed { reason } => {
                        if !*started.borrow() {
                            // Expected when we resubmitted away.
                        } else {
                            this.fail(sim, id, &format!("killed at site: {reason}"), false);
                        }
                    }
                    GramEvent::Failed(e) => {
                        // The two-phase submission detected the error before
                        // the job reached the LRMS (§6.1) — the site is the
                        // problem, not the job, so try the next match with
                        // this site excluded rather than failing outright.
                        this.note_lease_result(site_index, false);
                        let mut excluded2 = excluded.clone();
                        excluded2.insert(site_index);
                        if let Some(delay) = this.begin_resubmit(sim, id) {
                            let this2 = this.clone();
                            let job2 = job.clone();
                            sim.schedule_in(delay, move |sim| {
                                this2.matched_path(sim, id, job2, runtime, excluded2);
                            });
                        } else {
                            this.fail(sim, id, &format!("submission failed: {e}"), false);
                        }
                    }
                    GramEvent::Queued => {}
                }
            });
    }

    /// Batch submission (§5.2 arrow 1): deploy the agent, then run the batch
    /// job on its batch-vm.
    fn submit_batch_with_agent(
        &self,
        sim: &mut Sim,
        id: JobId,
        site_index: usize,
        job: JobDescription,
        runtime: SimDuration,
    ) {
        {
            let inner = self.inner.borrow_mut();
            let site_name = inner.sites[site_index].site.name().to_string();
            inner.jobs.update(id, |r| {
                r.dispatched_at.get_or_insert(sim.now());
                r.state = JobState::Scheduled {
                    site: site_name.clone(),
                };
            });
            inner.trace.record(
                sim.now(),
                Event::JobDispatched {
                    job: id.0,
                    target: format!("site:{site_name}"),
                    backend: inner.sites[site_index]
                        .site
                        .backend_kind()
                        .as_str()
                        .to_string(),
                },
            );
        }
        self.deploy_agent_at(sim, site_index, move |sim, broker, aid| {
            let Some(aid) = aid else {
                broker.fail(sim, id, "agent deployment failed", false);
                return;
            };
            // Ship the batch application to the agent and run it batch-vm.
            let (agent, broker_link, sandbox, delegation, user) = {
                let inner = broker.inner.borrow();
                let entry = &inner.agents[&aid];
                let site = &inner.sites[entry.site_index];
                (
                    Rc::clone(&entry.agent),
                    site.broker_link.clone(),
                    job_sandbox_bytes(&job, &inner.config),
                    SimDuration::from_secs_f64(inner.config.shared_delegation_s),
                    job.user.clone(),
                )
            };
            let broker2 = broker.clone();
            sim.schedule_in(delegation, move |sim| {
                let broker3 = broker2.clone();
                broker_link
                    .clone()
                    .send(sim, Dir::AToB, sandbox, move |sim, r| {
                        if r.is_err() {
                            broker3.fail(sim, id, "staging to agent failed", false);
                            return;
                        }
                        let broker4 = broker3.clone();
                        let weak5 = broker3.downgrade();
                        let user2 = user.clone();
                        let result = agent.borrow().run_batch(sim, runtime, move |sim| {
                            let Some(broker5) = weak5.upgrade() else {
                                return;
                            };
                            // Batch job done.
                            {
                                let mut inner = broker5.inner.borrow_mut();
                                if let Some(e) = inner.agents.get_mut(&aid) {
                                    e.batch_done = true;
                                    if let Some(u) = e.batch_usage.take() {
                                        inner.fairshare.release(u);
                                    }
                                    inner.trace.record(
                                        sim.now(),
                                        Event::AgentBatchFinished { agent: aid.0 },
                                    );
                                }
                            }
                            broker5.finish_job(sim, id);
                            broker5.maybe_agent_departs(sim, aid);
                            broker5.retry_broker_queue(sim);
                        });
                        match result {
                            Err(_) => broker4.fail(sim, id, "batch VM busy", false),
                            Ok(task) => {
                                broker4.add_placement(id, Placement::AgentBatch { aid, task });
                                let mut inner = broker4.inner.borrow_mut();
                                let usage = inner.fairshare.register(&user2, UsageKind::Batch, 1);
                                if let Some(e) = inner.agents.get_mut(&aid) {
                                    e.has_batch = true;
                                    e.batch_done = false;
                                    e.batch_usage = Some(usage);
                                }
                                let response = inner.jobs.update(id, |r| {
                                    r.started_at = Some(sim.now());
                                    r.state = JobState::Running {
                                        sites: vec![String::new()],
                                    };
                                    sim.now().saturating_since(r.submitted_at).as_secs_f64()
                                });
                                if let Some(response) = response {
                                    inner.stats.started += 1;
                                    inner
                                        .trace
                                        .record(sim.now(), Event::JobStarted { job: id.0 });
                                    inner.metrics.observe("response_s", response);
                                }
                                drop(inner);
                                broker4.ensure_fairshare_tick(sim);
                            }
                        }
                    });
            });
        });
    }

    /// MPICH-G2 co-allocated submission across several sites.
    fn submit_coallocated(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
        plan: Vec<(usize, u32)>,
    ) {
        let now = sim.now();
        let total_subjobs = plan.len() as u32;
        {
            let mut inner = self.inner.borrow_mut();
            let lease = inner.config.lease;
            for &(i, _) in &plan {
                inner.sites[i].leased_until = now + lease;
                let name = inner.sites[i].site.name().to_string();
                inner.trace.record(
                    now,
                    Event::LeaseGranted {
                        job: id.0,
                        target: format!("site:{name}"),
                        until_ns: (now + lease).as_nanos(),
                    },
                );
            }
            inner.jobs.update(id, |r| {
                r.dispatched_at.get_or_insert(now);
                r.state = JobState::Scheduled {
                    site: format!("{} sites", plan.len()),
                };
            });
            inner.trace.record(
                now,
                Event::JobDispatched {
                    job: id.0,
                    target: format!("{} sites", plan.len()),
                    backend: plan
                        .first()
                        .map(|&(i, _)| inner.sites[i].site.backend_kind())
                        .map_or("sim-lrms", cg_site::BackendKind::as_str)
                        .to_string(),
                },
            );
        }
        // Barrier: the job is interactive-ready when every subjob's console
        // has delivered its first output.
        let ready = Rc::new(RefCell::new(0u32));
        let site_names: Vec<String> = {
            let inner = self.inner.borrow();
            plan.iter()
                .map(|&(i, _)| inner.sites[i].site.name().to_string())
                .collect()
        };
        let failed = Rc::new(RefCell::new(false));

        let smode = job.streaming_mode;
        for &(site_index, nodes) in &plan {
            let (site, broker_link, ui_link, console, sandbox) = {
                let inner = self.inner.borrow();
                let s = &inner.sites[site_index];
                (
                    s.site.clone(),
                    s.broker_link.clone(),
                    s.ui_link.clone(),
                    inner.config.console,
                    job_sandbox_bytes(&job, &inner.config),
                )
            };
            let spec = LocalJobSpec {
                nodes,
                runtime: Some(runtime),
                walltime: None,
                priority: 0,
                user: job.user.clone(),
            };
            let weak = self.downgrade();
            let ready2 = Rc::clone(&ready);
            let failed2 = Rc::clone(&failed);
            let user = job.user.clone();
            let names = site_names.clone();
            let total_nodes = job.node_number;
            let interactive = job.is_interactive();
            let subjob_local: Rc<RefCell<Option<cg_site::LocalJobId>>> =
                Rc::new(RefCell::new(None));
            site.gatekeeper()
                .submit(sim, broker_link, spec, sandbox, move |sim, ev| {
                    let Some(this) = weak.upgrade() else {
                        return;
                    };
                    match ev {
                        GramEvent::Accepted { local_id } => {
                            *subjob_local.borrow_mut() = Some(*local_id);
                            this.add_placement(
                                id,
                                Placement::Site {
                                    site_index,
                                    local: *local_id,
                                },
                            );
                        }
                        GramEvent::Queued if interactive && !*failed2.borrow() => {
                            // The co-allocation plan promised immediately
                            // leasable CPUs here, but the LRMS queued the
                            // subjob (the live view raced a local
                            // submission). Honour the planner/dispatch
                            // contract: withdraw the queued copy and fail
                            // the whole job cleanly rather than leaving an
                            // interactive job wedged behind a queue.
                            *failed2.borrow_mut() = true;
                            if let Some(lid) = *subjob_local.borrow() {
                                let lrms =
                                    this.inner.borrow().sites[site_index].site.lrms().clone();
                                lrms.kill(sim, lid, "withdrawn by broker (co-allocation)");
                            }
                            this.fail(
                                sim,
                                id,
                                "co-allocated subjob queued instead of starting",
                                false,
                            );
                        }
                        GramEvent::Started { .. } => {
                            let this2 = this.clone();
                            let ready3 = Rc::clone(&ready2);
                            let failed3 = Rc::clone(&failed2);
                            let user2 = user.clone();
                            let names2 = names.clone();
                            let ui_profile = ui_link.profile();
                            let log = this.inner.borrow().trace.clone();
                            console_startup(
                                sim,
                                ui_link.clone(),
                                console,
                                smode,
                                log,
                                id.0,
                                move |sim, ok| {
                                    if !ok {
                                        if !*failed3.borrow() {
                                            *failed3.borrow_mut() = true;
                                            this2.fail(sim, id, "console startup failed", false);
                                        }
                                        return;
                                    }
                                    *ready3.borrow_mut() += 1;
                                    if *ready3.borrow() == total_subjobs && !*failed3.borrow() {
                                        {
                                            let mut inner = this2.inner.borrow_mut();
                                            let usage = inner.fairshare.register(
                                                &user2,
                                                UsageKind::Interactive {
                                                    performance_loss: 0,
                                                },
                                                total_nodes,
                                            );
                                            inner.interactive_usages.insert(id, usage);
                                        }
                                        this2.ensure_fairshare_tick(sim);
                                        this2.mark_running(
                                            sim,
                                            id,
                                            names2.clone(),
                                            Some((smode, ui_profile.clone())),
                                        );
                                    }
                                },
                            );
                        }
                        GramEvent::Finished => {
                            // Last subjob to finish completes the job.
                            this.finish_job(sim, id);
                        }
                        GramEvent::Failed(e) if !*failed2.borrow() => {
                            *failed2.borrow_mut() = true;
                            this.fail(sim, id, &format!("subjob failed: {e}"), false);
                        }
                        _ => {}
                    }
                });
        }
    }

    fn mark_running(
        &self,
        sim: &mut Sim,
        id: JobId,
        sites: Vec<String>,
        session: Option<(cg_jdl::StreamingMode, cg_net::LinkProfile)>,
    ) {
        let mut inner = self.inner.borrow_mut();
        let response = inner.jobs.update(id, |r| {
            if r.started_at.is_some() {
                return None;
            }
            r.started_at = Some(sim.now());
            r.state = JobState::Running { sites };
            Some(sim.now().saturating_since(r.submitted_at).as_secs_f64())
        });
        let Some(Some(response)) = response else {
            return;
        };
        inner.stats.started += 1;
        inner
            .trace
            .record(sim.now(), Event::JobStarted { job: id.0 });
        inner.metrics.observe("response_s", response);
        // Sample the interactive session's steering latency: 1 KiB console
        // round trips over the job's UI path in its streaming mode.
        if let Some((mode, profile)) = session {
            let costs = match mode {
                cg_jdl::StreamingMode::Fast => cg_console::MethodCosts::fast(),
                cg_jdl::StreamingMode::Reliable => cg_console::MethodCosts::reliable(),
            };
            drop(inner);
            let mut samples = Vec::with_capacity(25);
            for _ in 0..25 {
                samples.push(costs.sequence_rtt(sim.rng(), &profile, 1024).as_secs_f64());
            }
            let mut inner = self.inner.borrow_mut();
            for x in samples {
                inner.session_latency.record(x);
            }
        }
    }

    fn finish_job(&self, sim: &mut Sim, id: JobId) {
        let mut inner = self.inner.borrow_mut();
        inner.placements.remove(&id);
        if let Some(usage) = inner.interactive_usages.remove(&id) {
            inner.fairshare.release(usage);
        }
        let finished = inner.jobs.update(id, |r| {
            if !matches!(
                r.state,
                JobState::Running { .. } | JobState::Scheduled { .. }
            ) {
                return false;
            }
            r.state = JobState::Done;
            r.finished_at = Some(sim.now());
            true
        });
        if finished == Some(true) {
            inner.stats.finished += 1;
            inner
                .trace
                .record(sim.now(), Event::JobFinished { job: id.0 });
            inner.job_ads.remove(&id);
        }
        drop(inner);
        self.retry_broker_queue(sim);
    }

    fn lease_site(&self, sim: &mut Sim, site_index: usize) {
        let mut inner = self.inner.borrow_mut();
        let lease = inner.config.lease;
        inner.sites[site_index].leased_until = sim.now() + lease;
    }

    /// Deploys a glide-in agent at the given site; `then` receives the agent
    /// id once `Ready`, or `None` on failure.
    fn deploy_agent_at(
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
        let (site, link, share_eff, costs, aid) = {
            let mut inner = self.inner.borrow_mut();
            let aid = AgentId(inner.next_agent);
            inner.next_agent += 1;
            inner.stats.agents_deployed += 1;
            let s = &inner.sites[site_index];
            inner.trace.record(
                sim.now(),
                Event::AgentDeployed {
                    agent: aid.0,
                    site: s.site.name().to_string(),
                },
            );
            (
                s.site.clone(),
                s.broker_link.clone(),
                inner.config.share_efficiency,
                inner.config.agent_costs,
                aid,
            )
        };
        let weak = self.downgrade();
        let then = Rc::new(RefCell::new(Some(then)));
        let agent_slot: Rc<RefCell<Option<Rc<RefCell<Agent>>>>> = Rc::new(RefCell::new(None));
        let agent_slot2 = Rc::clone(&agent_slot);
        let agent = deploy_agent(sim, aid, &site, &link, share_eff, costs, move |sim, ev| {
            let Some(this) = weak.upgrade() else {
                return;
            };
            match ev {
                AgentEvent::Submitted { carrier } => {
                    let mut inner = this.inner.borrow_mut();
                    if let Some(e) = inner.agents.get_mut(&aid) {
                        e.carrier = Some(*carrier);
                    } else {
                        // Entry created at Ready; remember via pre-entry.
                        let agent_rc = agent_slot2.borrow().clone();
                        if let Some(agent_rc) = agent_rc {
                            inner.agents.insert(
                                aid,
                                AgentEntry {
                                    agent: agent_rc,
                                    site_index,
                                    carrier: Some(*carrier),
                                    leased_until: SimTime::ZERO,
                                    batch_usage: None,
                                    batch_done: false,
                                    has_batch: false,
                                    ready_at: SimTime::MAX,
                                },
                            );
                        }
                    }
                }
                AgentEvent::Ready { .. } => {
                    {
                        let mut inner = this.inner.borrow_mut();
                        if let Some(e) = inner.agents.get_mut(&aid) {
                            e.ready_at = sim.now();
                        }
                        if let std::collections::hash_map::Entry::Vacant(e) =
                            inner.agents.entry(aid)
                        {
                            let agent_rc = agent_slot2.borrow().clone();
                            if let Some(agent_rc) = agent_rc {
                                e.insert(AgentEntry {
                                    agent: agent_rc,
                                    site_index,
                                    carrier: None,
                                    leased_until: SimTime::ZERO,
                                    batch_usage: None,
                                    batch_done: false,
                                    has_batch: false,
                                    ready_at: sim.now(),
                                });
                            }
                        }
                        inner
                            .trace
                            .record(sim.now(), Event::AgentReady { agent: aid.0 });
                        // Route the agent's VM slot transitions into the
                        // broker-wide log.
                        if let Some(e) = inner.agents.get(&aid) {
                            e.agent
                                .borrow()
                                .vm
                                .set_trace(inner.trace.clone(), format!("agent-{}", aid.0));
                        }
                    }
                    if let Some(f) = then.borrow_mut().take() {
                        f(sim, this.clone(), Some(aid));
                    }
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
                            if uptime >= inner.config.agent_min_uptime {
                                inner.sites[site_index].agent_deaths = 1;
                            } else {
                                inner.sites[site_index].agent_deaths += 1;
                            }
                            inner.config.redeploy_agents
                                && inner.sites[site_index].agent_deaths
                                    <= inner.config.agent_redeploy_budget
                        }
                    };
                    if redeploy {
                        // "New agents will be submitted when possible" (§5.2).
                        let this2 = this.clone();
                        let delay = this.inner.borrow().config.agent_redeploy_delay;
                        sim.schedule_in(delay, move |sim| {
                            this2.deploy_agent_at_boxed(sim, site_index, Box::new(|_, _, _| {}));
                        });
                    }
                    if let Some(f) = then.borrow_mut().take() {
                        f(sim, this.clone(), None);
                    }
                }
                AgentEvent::Failed(_) => {
                    if let Some(f) = then.borrow_mut().take() {
                        f(sim, this.clone(), None);
                    }
                }
                AgentEvent::Queued => {}
            }
        });
        *agent_slot.borrow_mut() = Some(agent);
    }
}

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
fn console_startup(
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

/// Continuation invoked with the index-sorted live ads once a sweep ends.
type SweepDone = Box<dyn FnOnce(&mut Sim, Vec<(usize, Arc<Ad>)>)>;

/// In-flight state of one windowed live-query sweep over the shortlist.
struct LiveQuerySweep {
    broker: CrossBroker,
    /// The job this sweep selects for — seeds the retry-jitter stream.
    job: JobId,
    /// Site indices not yet queried, in shortlist order.
    pending: VecDeque<usize>,
    in_flight: usize,
    /// Each answering site's shared machine ad — the allocation the site
    /// itself and (until the site changes) the MDS snapshot hold.
    collected: Vec<(usize, Arc<Ad>)>,
    done: Option<SweepDone>,
}

/// Salt folded into [`job_rng`] for query-retry jitter, so the retry
/// stream never collides with the job's selection stream.
const QUERY_RETRY_SALT: u64 = 0x515259; // "QRY"

/// Live-queries each site in `pending`, keeping up to
/// `BrokerConfig::live_query_fanout` RPCs in flight at once. With fanout 1
/// this is exactly the paper's sequential chain (the ≈3 s selection step);
/// wider windows overlap the per-site round trips. Either way `done`
/// receives the successful ads sorted by site index — the same list in the
/// same order the sequential chain produces — so selection outcomes do not
/// depend on the fanout width, only wall-clock does.
fn live_query_chain(
    sim: &mut Sim,
    broker: CrossBroker,
    job: JobId,
    pending: VecDeque<usize>,
    done: impl FnOnce(&mut Sim, Vec<(usize, Arc<Ad>)>) + 'static,
) {
    let sweep = Rc::new(RefCell::new(LiveQuerySweep {
        broker,
        job,
        pending,
        in_flight: 0,
        collected: Vec::new(),
        done: Some(Box::new(done)),
    }));
    live_query_pump(sim, &sweep);
}

/// Launches queries until the fan-out window is full, and finishes the
/// sweep once nothing is pending or in flight. A site's fan-out slot stays
/// occupied across its retries; it frees only when the site settles.
fn live_query_pump(sim: &mut Sim, sweep: &Rc<RefCell<LiveQuerySweep>>) {
    loop {
        let site_index = {
            let mut s = sweep.borrow_mut();
            let Some(&site_index) = s.pending.front() else {
                if s.in_flight == 0 {
                    if let Some(done) = s.done.take() {
                        let mut collected = std::mem::take(&mut s.collected);
                        collected.sort_by_key(|(i, _)| *i);
                        drop(s);
                        sim.schedule_now(move |sim| done(sim, collected));
                    }
                }
                return;
            };
            let fanout = s.broker.inner.borrow().config.live_query_fanout.max(1);
            if s.in_flight >= fanout {
                return;
            }
            s.pending.pop_front();
            s.in_flight += 1;
            site_index
        };
        live_query_attempt(sim, Rc::clone(sweep), site_index, 1);
    }
}

/// One live-query attempt against a site. The RPC races a per-attempt
/// deadline; whichever settles first decides the outcome, and the loser —
/// usually a late response — is dropped on the floor. Every settled
/// attempt feeds the membership failure detector via
/// [`InformationIndex::report_query`].
fn live_query_attempt(
    sim: &mut Sim,
    sweep: Rc<RefCell<LiveQuerySweep>>,
    site_index: usize,
    attempt: u32,
) {
    let (job, link, site, service, timeout) = {
        let s = sweep.borrow();
        let inner = s.broker.inner.borrow();
        (
            s.job,
            inner.sites[site_index].broker_link.clone(),
            inner.sites[site_index].site.clone(),
            SimDuration::from_secs_f64(inner.config.live_query_service_s),
            inner.config.live_query_timeout,
        )
    };
    let settled = Rc::new(Cell::new(false));

    let settled_rpc = Rc::clone(&settled);
    let sweep_rpc = Rc::clone(&sweep);
    let ad_site = site.clone();
    rpc_call(sim, &link, Dir::AToB, 300, 1_200, service, move |sim, r| {
        if settled_rpc.replace(true) {
            return; // the deadline already wrote this attempt off
        }
        let ad = r.is_ok().then(|| ad_site.machine_ad_arc());
        live_query_settle(sim, &sweep_rpc, site_index, attempt, ad);
    });

    sim.schedule_in(timeout, move |sim| {
        if settled.replace(true) {
            return; // the response won the race
        }
        {
            let s = sweep.borrow();
            let inner = s.broker.inner.borrow();
            inner.trace.record(
                sim.now(),
                Event::LiveQueryTimeout {
                    job: job.0,
                    site: site.name().to_string(),
                    attempt,
                },
            );
        }
        live_query_settle(sim, &sweep, site_index, attempt, None);
    });
}

/// Books the outcome of one attempt: a success collects the ad and frees
/// the slot; a failure either schedules a bounded, jittered retry (from
/// the job's own deterministic RNG stream — never the wall clock) or
/// gives the site up for this sweep.
fn live_query_settle(
    sim: &mut Sim,
    sweep: &Rc<RefCell<LiveQuerySweep>>,
    site_index: usize,
    attempt: u32,
    ad: Option<Arc<Ad>>,
) {
    let (broker, job) = {
        let s = sweep.borrow();
        (s.broker.clone(), s.job)
    };
    let index = broker.inner.borrow().index.clone();
    // May demote the site (Suspect/Dead) through the membership observer.
    index.report_query(sim, site_index, ad.is_some());
    if let Some(ad) = ad {
        let mut s = sweep.borrow_mut();
        s.collected.push((site_index, ad));
        s.in_flight -= 1;
        drop(s);
        live_query_pump(sim, sweep);
        return;
    }
    let (retries, base, cap, jitter, site_name) = {
        let inner = broker.inner.borrow();
        (
            inner.config.live_query_retries,
            inner.config.query_backoff_base,
            inner.config.query_backoff_max,
            inner.config.query_backoff_jitter,
            inner.sites[site_index].site.name().to_string(),
        )
    };
    // Budget spent, or the detector has since declared the site unhealthy
    // — either way it is not worth another attempt this sweep.
    if attempt > retries || !index.is_schedulable(site_index) {
        let mut s = sweep.borrow_mut();
        s.in_flight -= 1;
        drop(s);
        live_query_pump(sim, sweep);
        return;
    }
    let next = attempt + 1;
    let mut rng = job_rng(
        QUERY_RETRY_SALT ^ ((site_index as u64) << 8) ^ u64::from(attempt),
        job,
    );
    let delay = backoff_delay(base, cap, jitter, attempt, &mut rng);
    {
        let inner = broker.inner.borrow();
        inner.trace.record(
            sim.now(),
            Event::QueryRetry {
                job: job.0,
                site: site_name,
                attempt: next,
                delay_ns: delay.as_nanos(),
            },
        );
    }
    let sweep2 = Rc::clone(sweep);
    sim.schedule_in(delay, move |sim| {
        live_query_attempt(sim, sweep2, site_index, next);
    });
}

/// LRMS walltime derived from the job's `EstimatedRuntime` (4× safety
/// factor, the usual operator convention); `None` when undeclared.
fn declared_walltime(job: &JobDescription) -> Option<SimDuration> {
    job.estimated_runtime_s
        .map(|s| SimDuration::from_secs_f64(s * 4.0))
}

fn job_sandbox_bytes(job: &JobDescription, config: &BrokerConfig) -> u64 {
    let declared = job.sandbox_bytes();
    if declared > 0 {
        declared
    } else {
        config.default_sandbox_bytes
    }
}

/// Bounded exponential backoff with jitter: `base * 2^(attempt-1)` capped at
/// `cap`, then scaled by a uniform factor in `1 ± jitter_frac`. Keeps a
/// burst of racing resubmissions from hammering the same shortlist in
/// lockstep.
fn backoff_delay(
    base: SimDuration,
    cap: SimDuration,
    jitter_frac: f64,
    attempt: u32,
    rng: &mut cg_sim::SimRng,
) -> SimDuration {
    let mut delay = if base.is_zero() {
        SimDuration::from_nanos(1)
    } else {
        base
    };
    for _ in 1..attempt.min(64) {
        if delay >= cap {
            break;
        }
        delay = delay * 2;
    }
    if delay > cap {
        delay = cap;
    }
    let jitter_frac = jitter_frac.clamp(0.0, 1.0);
    let factor = 1.0 - jitter_frac + 2.0 * jitter_frac * rng.f64();
    delay.mul_f64(factor)
}

#[cfg(test)]
mod tests {
    use super::{backoff_delay, live_query_chain, BrokerConfig, CrossBroker, JobId, SiteHandle};
    use cg_jdl::JobDescription;
    use cg_net::{Link, LinkProfile};
    use cg_sim::{Sim, SimDuration, SimTime};
    use cg_site::{LocalJobSpec, Site, SiteConfig};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    #[test]
    fn a_world_dropped_with_live_agents_and_running_jobs_is_freed() {
        // Regression: the callbacks the broker parks inside a site's LRMS and
        // an agent's VM held it strongly, the gatekeeper's LRMS callback
        // held the LRMS, and an agent held its site — so a world that ended
        // with a live glide-in agent (or any job still running) was a knot
        // of reference cycles and leaked whole.
        let mut sim = Sim::new(3);
        let handles = (0..3)
            .map(|i| SiteHandle {
                site: Site::new(SiteConfig {
                    name: format!("site{i}"),
                    nodes: 4,
                    ..SiteConfig::default()
                }),
                broker_link: Link::new(LinkProfile::campus()),
                ui_link: Link::new(LinkProfile::campus()),
            })
            .collect();
        let mds = Link::new(LinkProfile::wan_mds());
        let broker = CrossBroker::new(&mut sim, handles, mds, BrokerConfig::default());
        let day = SimDuration::from_secs(86_400);
        for (jdl, runtime) in [
            // Finishes, and leaves its agent idle in the pool.
            (
                r#"Executable = "i"; JobType = "interactive"; MachineAccess = "shared";
                   PerformanceLoss = 10; User = "alice";"#,
                SimDuration::from_secs(30),
            ),
            // Still on an agent's batch VM when the world ends.
            (r#"Executable = "b"; JobType = "batch"; User = "bob";"#, day),
            // Still under an LRMS when the world ends.
            (
                r#"Executable = "x"; JobType = "interactive"; MachineAccess = "exclusive";
                   User = "carol";"#,
                day,
            ),
        ] {
            broker.submit(&mut sim, JobDescription::parse(jdl).unwrap(), runtime);
        }
        sim.run_until(SimTime::from_secs(900));
        assert_eq!(broker.agent_count(), 2, "both agents are live");
        assert_eq!(broker.stats().started, 3);
        assert_eq!(broker.stats().finished, 1);

        let weak = Rc::downgrade(&broker.inner);
        let agents: Vec<_> = broker
            .inner
            .borrow()
            .agents
            .values()
            .map(|e| Rc::downgrade(&e.agent))
            .collect();
        drop(broker);
        drop(sim);
        assert!(weak.upgrade().is_none(), "the broker outlived its world");
        for agent in agents {
            assert!(agent.upgrade().is_none(), "an agent outlived its world");
        }
    }

    #[test]
    fn snapshot_site_and_live_sweep_share_one_machine_ad() {
        // After a refresh, and until a site's state next changes, the MDS
        // snapshot's column, the site's own shared ad and the ad a live
        // query collects are one allocation — in both refresh modes, for a
        // site that changed before the refresh and for sites that never did.
        for refresh_fanout in [0, 2] {
            let mut sim = Sim::new(5);
            let sites: Vec<Site> = (0..3)
                .map(|i| {
                    Site::new(SiteConfig {
                        name: format!("site{i}"),
                        nodes: 4,
                        ..SiteConfig::default()
                    })
                })
                .collect();
            let handles = sites
                .iter()
                .map(|site| SiteHandle {
                    site: site.clone(),
                    broker_link: Link::new(LinkProfile::campus()),
                    ui_link: Link::new(LinkProfile::campus()),
                })
                .collect();
            let config = BrokerConfig {
                refresh_fanout,
                ..BrokerConfig::default()
            };
            let refresh = config.index_refresh;
            let mds = Link::new(LinkProfile::wan_mds());
            let broker = CrossBroker::new(&mut sim, handles, mds, config);
            let boot = broker.index().snapshot_arc();
            sites[0].lrms().submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(86_400)),
                |_, _, _| {},
            );
            sim.run_until(SimTime::ZERO + refresh + SimDuration::from_secs(10));

            let collected = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&collected);
            live_query_chain(
                &mut sim,
                broker.clone(),
                JobId(0),
                (0..sites.len()).collect(),
                move |_, ads| *sink.borrow_mut() = ads,
            );
            sim.run_until(SimTime::ZERO + refresh + SimDuration::from_secs(60));

            let snap = broker.index().snapshot_arc();
            assert_eq!(snap.free_cpus(0), 3, "the refresh published the busy node");
            assert!(!Arc::ptr_eq(snap.ad_arc(0), boot.ad_arc(0)));
            assert!(Arc::ptr_eq(snap.ad_arc(1), boot.ad_arc(1)));
            let collected = collected.borrow();
            assert_eq!(collected.len(), sites.len(), "every site answered");
            for (i, live) in collected.iter() {
                assert!(
                    Arc::ptr_eq(live, snap.ad_arc(*i)),
                    "site {i}: sweep vs snapshot"
                );
                assert!(
                    Arc::ptr_eq(live, &sites[*i].machine_ad_arc()),
                    "site {i}: sweep vs site"
                );
            }
        }
    }

    #[test]
    fn backoff_spacing_grows_and_is_bounded() {
        let mut sim = Sim::new(7);
        let base = SimDuration::from_secs(2);
        let cap = SimDuration::from_secs(60);
        // Without jitter the ladder is exactly 2, 4, 8, … capped at 60.
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=8 {
            let d = backoff_delay(base, cap, 0.0, attempt, sim.rng());
            assert!(d >= prev, "attempt {attempt} shrank: {d:?} < {prev:?}");
            assert!(d <= cap);
            prev = d;
        }
        assert_eq!(prev, cap, "the ladder must saturate at the cap");
        assert_eq!(
            backoff_delay(base, cap, 0.0, 3, sim.rng()),
            SimDuration::from_secs(8)
        );
    }

    #[test]
    fn backoff_jitter_stays_within_the_band() {
        let mut sim = Sim::new(11);
        let base = SimDuration::from_secs(2);
        let cap = SimDuration::from_secs(60);
        let lo = base.mul_f64(0.8);
        let hi = base.mul_f64(1.2);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..64 {
            let d = backoff_delay(base, cap, 0.2, 1, sim.rng());
            assert!(d >= lo && d <= hi, "jittered delay {d:?} outside ±20%");
            distinct.insert(d);
        }
        assert!(distinct.len() > 1, "jitter must actually vary the delay");
    }

    #[test]
    fn backoff_tolerates_degenerate_inputs() {
        let mut sim = Sim::new(3);
        let cap = SimDuration::from_secs(60);
        // Zero base must still yield a forward-progress delay.
        let d = backoff_delay(SimDuration::ZERO, cap, 0.0, 40, sim.rng());
        assert!(d > SimDuration::ZERO && d <= cap);
        // Huge attempt numbers must not overflow past the cap.
        let d = backoff_delay(SimDuration::from_secs(2), cap, 0.0, u32::MAX, sim.rng());
        assert_eq!(d, cap);
    }
}
