//! CrossBroker: the resource-management service for interactive jobs.
//!
//! Orchestrates everything the paper describes (§3, §5) as a pipeline of
//! stages, one module each, with typed hand-offs:
//!
//! ```text
//! admission ─► discovery ─► sweep ─► selection ─► commit ─► settle
//!  submit       MDS query    live     re-check     lease      running
//!  JDL gate     degraded     queries  policy       dispatch   finished
//!  fair-share   shortlist             decision     subjobs    failed
//!  routing      membership   (shared paths plan    barrier    cancelled
//!  queue        gate          from local state)    ▲          resubmit
//!                                                  │
//!                                        pool (glide-in agents)
//! ```
//!
//! plus `churn` (the failure detector's obituaries: dead-site re-match,
//! rejoin reconciliation) and `restore` (journal snapshots and the crash
//! recovery hooks). Every interactive submission — shared, shared-parallel,
//! exclusive, co-allocated — is a `commit::Plan` of slots executed by one
//! function; batch is "deploy an agent, run on its batch-vm". See DESIGN.md
//! "Broker pipeline" for the plan table and who owns which state.

mod admission;
mod churn;
mod commit;
mod console;
mod discovery;
mod pool;
mod restore;
mod selection;
mod settle;
mod sweep;

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::{Rc, Weak};

use cg_jdl::JobDescription;
use cg_net::Link;
use cg_sim::{HandlerId, Sim, SimDuration, SimTime};
use cg_site::{InformationIndex, RefreshWindow, Site};
use cg_trace::{EventLog, MetricsRegistry};
use cg_vm::{Agent, AgentId};

use crate::config::BrokerConfig;
use crate::fairshare::{FairShare, UsageId, UsageKind};
use crate::job::{JobId, JobRecord, JobState};
use crate::matchmaking::CompiledJob;
use crate::policy::QueueForecaster;
use crate::shard::{ShardedJobTable, DEFAULT_SHARDS};

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

/// A glide-in agent in the pool; owned by the `pool` stage.
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

/// The submit-time commit record retained for a live job: everything crash
/// recovery needs to re-create and re-route it.
#[derive(Clone)]
struct RetainedAd {
    jdl: String,
    runtime: SimDuration,
    interactive: bool,
}

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

/// The five per-job side tables: state that exists only while a job is
/// live. The job table itself (`Inner::jobs`) keeps terminal records for
/// the experiments; everything here is cleared by [`Inner::retire`], which
/// every terminal transition in `settle` goes through.
#[derive(Default)]
struct SideTables {
    /// Batch jobs waiting in the broker for a machine to become idle
    /// (§5.2 arrow 2), in arrival order.
    queue: VecDeque<(JobId, JobDescription, SimDuration)>,
    /// Compiled `Requirements`/`Rank` from the submit-time analyzer; the
    /// selection loop evaluates these instead of the raw AST.
    compiled: HashMap<JobId, Rc<CompiledJob>>,
    /// Re-parseable JDL source + declared runtime — the commit record that
    /// lets crash recovery and dead-site re-matching re-arm in-flight work.
    ads: HashMap<JobId, RetainedAd>,
    /// The fair-share charge of a started interactive job.
    usages: HashMap<JobId, UsageId>,
    placements: HashMap<JobId, Vec<Placement>>,
}

struct Inner {
    config: BrokerConfig,
    sites: Vec<SiteEntry>,
    index: InformationIndex,
    mds_link: Link,
    agents: HashMap<AgentId, AgentEntry>,
    fairshare: FairShare,
    /// The job table, sharded by id with one lock per shard. The sim loop
    /// drives it single-threaded, but the structure is `Send + Sync`, so a
    /// stats or monitoring reader on another thread never stops the loop.
    jobs: ShardedJobTable<JobRecord>,
    side: SideTables,
    /// The live sweeps in flight, and the handler their events go to
    /// (`CrossBroker::on_sweep_event`); owned by the `sweep` stage.
    sweeps: sweep::SweepTable,
    sweep_handler: HandlerId,
    next_job: u64,
    next_agent: u64,
    /// Per-stream spool ack watermarks seeded by crash recovery; recovery
    /// invariant rule 8 forbids these from regressing.
    spool_watermarks: HashMap<String, u64>,
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

impl Inner {
    /// Drops everything the broker holds for a job that just turned
    /// terminal and releases its fair-share charge. (A job leaves `queue`
    /// by being popped for a retry; `cancel` — the only terminal transition
    /// a parked job can take — dequeues it before retiring it.)
    fn retire(&mut self, id: JobId) {
        self.side.compiled.remove(&id);
        self.side.ads.remove(&id);
        self.side.placements.remove(&id);
        if let Some(usage) = self.side.usages.remove(&id) {
            self.fairshare.release(usage);
        }
    }

    /// Charges `user` for a started interactive job (§5.1).
    fn charge_interactive(&mut self, id: JobId, user: &str, performance_loss: u8, cpus: u32) {
        let kind = UsageKind::Interactive { performance_loss };
        let usage = self.fairshare.register(user, kind, cpus);
        self.side.usages.insert(id, usage);
    }
}

/// Events the ring buffer keeps; a simulated day of the Table I workload
/// stays well under this.
const TRACE_CAPACITY: usize = 65_536;

/// The broker handle. Clones share state.
#[derive(Clone)]
pub struct CrossBroker {
    inner: Rc<RefCell<Inner>>,
}

/// A broker handle that does not keep the broker alive. Callbacks stored
/// inside something the broker owns — a site's LRMS, an agent's VM, the
/// information index — hold this: a strong handle there closes a reference
/// cycle (broker → site → LRMS → callback → broker) and a world dropped
/// with a job or glide-in agent still live would never be freed. The
/// sweep-event handler registered with the `Sim` holds one too: it lives as
/// long as the `Sim` does. Closures scheduled on the `Sim` keep their strong
/// handles; the sim owns those and drops each as it fires.
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
        assert!(
            sites.len() <= sweep::MAX_SITES,
            "a sweep event addresses at most {} sites",
            sweep::MAX_SITES
        );
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
            inner: Rc::new_cyclic(|weak| {
                let weak = WeakBroker(weak.clone());
                let sweep_handler = sim.register_handler(move |sim, event| {
                    if let Some(broker) = weak.upgrade() {
                        broker.on_sweep_event(sim, event);
                    }
                });
                RefCell::new(Inner {
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
                    side: SideTables::default(),
                    sweeps: sweep::SweepTable::default(),
                    sweep_handler,
                    next_job: 0,
                    next_agent: 0,
                    spool_watermarks: HashMap::new(),
                    session_latency: cg_sim::SampleSet::new(),
                    tick_scheduled: false,
                    queue_retry_scheduled: false,
                    queue_forecast,
                    stats: BrokerStats::default(),
                    trace,
                    metrics,
                })
            }),
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

    // ------------------------------------------------------------------
    // Bookkeeping every stage shares
    // ------------------------------------------------------------------

    /// The job's analyzer-compiled expressions — there from the JDL gate
    /// until the job is retired.
    fn compiled_for(&self, id: JobId) -> Option<Rc<CompiledJob>> {
        self.inner.borrow().side.compiled.get(&id).cloned()
    }

    fn add_placement(&self, id: JobId, p: Placement) {
        self.inner
            .borrow_mut()
            .side
            .placements
            .entry(id)
            .or_default()
            .push(p);
    }

    fn set_state(&self, id: JobId, state: JobState) {
        self.inner.borrow_mut().jobs.update(id, |r| r.state = state);
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
                let inner = &mut *this.inner.borrow_mut();
                inner.tick_scheduled = false;
                let now = sim.now();
                inner.fairshare.tick(now);
                // Observe every site's LRMS queue depth on the same tick
                // cadence: the queue-forecast EWMA shares the fair-share
                // δt/half-life and its same-δt no-double-decay contract.
                for (i, s) in inner.sites.iter().enumerate() {
                    let depth = s.site.lrms().queue_depth() as i64;
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
}

#[cfg(test)]
mod tests {
    use super::{BrokerConfig, CrossBroker, SiteHandle};
    use cg_jdl::JobDescription;
    use cg_net::{Link, LinkProfile};
    use cg_sim::{Sim, SimDuration, SimTime};
    use cg_site::{LocalJobSpec, Site, SiteConfig};
    use std::rc::Rc;

    fn world(sim: &mut Sim, n: usize, config: BrokerConfig) -> (CrossBroker, Vec<Site>) {
        let sites: Vec<Site> = (0..n)
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
        let mds = Link::new(LinkProfile::wan_mds());
        (CrossBroker::new(sim, handles, mds, config), sites)
    }

    #[test]
    fn a_world_dropped_with_live_agents_and_running_jobs_is_freed() {
        // Regression: the callbacks the broker parks inside a site's LRMS and
        // an agent's VM held it strongly, the gatekeeper's LRMS callback
        // held the LRMS, and an agent held its site — so a world that ended
        // with a live glide-in agent (or any job still running) was a knot
        // of reference cycles and leaked whole.
        let mut sim = Sim::new(3);
        let (broker, _) = world(&mut sim, 3, BrokerConfig::default());
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
    fn neither_the_sweep_handler_nor_a_sweep_in_flight_keeps_the_broker_alive() {
        let exclusive = r#"Executable = "x"; JobType = "interactive";
                           MachineAccess = "exclusive"; User = "carol";"#;
        let submit = |sim: &mut Sim, broker: &CrossBroker| {
            let job = JobDescription::parse(exclusive).unwrap();
            broker.submit(sim, job, SimDuration::from_secs(30))
        };

        // A world that ran its job to the end and is let go while the `Sim`
        // lives on, its handler registry and the index's refresh cycle with
        // it: the handler reaches the broker through a `Weak`.
        let mut sim = Sim::new(3);
        let (broker, sites) = world(&mut sim, 3, BrokerConfig::default());
        let id = submit(&mut sim, &broker);
        sim.run_until(SimTime::from_secs(3_600));
        assert!(matches!(broker.record(id).state, crate::JobState::Done));
        let weak = Rc::downgrade(&broker.inner);
        drop(broker);
        assert!(weak.upgrade().is_none(), "something in the sim holds on");
        sim.run_until(SimTime::from_secs(7_200));
        drop(sites);

        // A world that ends in the middle of a sweep: the table owns the
        // sweep and the sweep owns its continuation, which must not own the
        // broker back.
        let mut sim = Sim::new(3);
        let (broker, _sites) = world(&mut sim, 3, BrokerConfig::default());
        submit(&mut sim, &broker);
        while broker.inner.borrow().sweeps.in_flight() == 0 {
            assert!(sim.step(), "the job reaches its sweep");
        }
        let weak = Rc::downgrade(&broker.inner);
        drop(broker);
        drop(sim);
        assert!(weak.upgrade().is_none(), "the broker outlived its world");
    }

    #[test]
    fn terminal_jobs_leave_no_side_table_entries() {
        // A mixed day through every submission path and every terminal
        // transition: finished (five paths), rejected by the JDL gate,
        // failed, cancelled while running and cancelled while parked.
        let mut sim = Sim::new(17);
        let (broker, sites) = world(&mut sim, 3, BrokerConfig::default());
        broker.predeploy_agent(&mut sim, 0, |_, ok| assert!(ok));
        sim.run_until(SimTime::from_secs(300));
        let submit = |sim: &mut Sim, jdl: &str, secs: u64| {
            let job = JobDescription::parse(jdl).unwrap();
            broker.submit(sim, job, SimDuration::from_secs(secs))
        };
        let shared = r#"Executable = "i"; JobType = "interactive"; MachineAccess = "shared";
                        PerformanceLoss = 10; User = "alice";"#;
        let exclusive = r#"Executable = "x"; JobType = "interactive";
                           MachineAccess = "exclusive"; User = "carol";"#;
        let batch = r#"Executable = "b"; JobType = "batch"; User = "bob";"#;
        submit(&mut sim, shared, 60);
        submit(&mut sim, batch, 120);
        submit(&mut sim, exclusive, 60);
        sim.run_until(SimTime::from_secs(900));
        submit(
            &mut sim,
            r#"Executable = "g"; JobType = {"interactive", "mpich-g2"}; NodeNumber = 5;
               User = "carol";"#,
            60,
        );
        sim.run_until(SimTime::from_secs(1_500));
        submit(
            &mut sim,
            r#"Executable = "p"; JobType = {"interactive", "mpich-p4"}; NodeNumber = 3;
               MachineAccess = "shared"; User = "dora";"#,
            60,
        );
        submit(
            &mut sim,
            r#"Executable = "r"; JobType = "batch"; User = "eve";
               Requirements = other.NoSuchAttribute > 1;"#,
            60,
        );
        submit(
            &mut sim,
            r#"Executable = "f"; JobType = {"interactive", "mpich-g2"}; NodeNumber = 64;
               User = "carol";"#,
            60,
        );
        let running = submit(&mut sim, exclusive, 5_000);
        sim.run_until(SimTime::from_secs(2_400));
        assert!(broker.cancel(&mut sim, running), "cancelled while running");
        // Saturate every site beyond its queue-admission bound so a batch
        // job parks in the broker, then cancel it there.
        for site in &sites {
            for _ in 0..24 {
                site.lrms().submit(
                    &mut sim,
                    LocalJobSpec::simple(SimDuration::from_secs(400)),
                    |_, _, _| {},
                );
            }
        }
        sim.run_until(SimTime::from_secs(2_500));
        let parked = submit(&mut sim, batch, 60);
        sim.run_until(SimTime::from_secs(2_600));
        assert!(matches!(
            broker.record(parked).state,
            crate::JobState::BrokerQueued
        ));
        assert!(broker.cancel(&mut sim, parked), "cancelled while parked");
        sim.run_until(SimTime::from_secs(20_000));

        let stats = broker.stats();
        assert!(stats.finished >= 5, "every path finished a job: {stats:?}");
        assert!(stats.rejected >= 1 && stats.failed + stats.rejected >= 2);
        assert_eq!(stats.cancelled, 2);
        assert_eq!(
            stats.finished + stats.failed + stats.rejected + stats.cancelled,
            stats.submitted,
            "the day drained: {stats:?}"
        );
        let inner = broker.inner.borrow();
        let side = &inner.side;
        assert!(side.queue.is_empty(), "queue");
        assert!(
            side.compiled.is_empty(),
            "compiled: {}",
            side.compiled.len()
        );
        assert!(side.ads.is_empty(), "ads: {}", side.ads.len());
        assert!(side.usages.is_empty(), "usages: {}", side.usages.len());
        assert!(
            side.placements.is_empty(),
            "placements: {:?}",
            side.placements
        );
    }
}
