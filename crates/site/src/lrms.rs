//! Local Resource Management System — the per-site batch scheduler (PBS- or
//! Condor-like) that owns the worker nodes.
//!
//! The paper's premise is that "the existence of batch systems at each Grid
//! site that have full control over local resources … imposes significant
//! restrictions on the fast startup of interactive jobs" (§1). This module is
//! that adversary: jobs queue, dispatch carries latency, and nothing here
//! knows or cares that a job is interactive.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use cg_sim::{EventId, OnlineStats, Receiver, Sim, SimDuration, SimTime, Slab, TypedEvent};

use crate::backend::{BackendCallback, BackendError};

/// Default cap on retained terminal dispositions (see
/// [`Lrms::set_disposition_retention`]). High enough that every existing
/// scenario retains all its jobs; bounded so a long-lived site cannot grow
/// its poll-back record forever.
pub const DEFAULT_DISPOSITION_RETENTION: usize = 4096;

/// Scheduling policy of the local queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Strict FIFO: the head blocks everything behind it (PBS default-like).
    Fifo,
    /// FIFO with backfill: later jobs may jump a blocked head if they fit now.
    FifoBackfill,
    /// Priority order (smaller value first), FIFO among equals (Condor-like).
    Priority,
}

/// What a submitted job asks of the LRMS.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalJobSpec {
    /// Nodes required (entire nodes; the testbed scheduled whole WNs).
    pub nodes: u32,
    /// Natural runtime once started. `None` = runs until completed/killed
    /// externally (glide-in agents do this).
    pub runtime: Option<SimDuration>,
    /// Walltime limit enforced by the LRMS, if any.
    pub walltime: Option<SimDuration>,
    /// Priority (lower = runs earlier) under [`Policy::Priority`].
    pub priority: i64,
    /// Owner, for accounting: the submitter's shared name.
    pub user: Arc<str>,
}

impl LocalJobSpec {
    /// A single-node job with a fixed runtime — the common case.
    pub fn simple(runtime: SimDuration) -> Self {
        LocalJobSpec {
            nodes: 1,
            runtime: Some(runtime),
            walltime: None,
            priority: 0,
            user: "anonymous".into(),
        }
    }
}

/// Identifies a job within one LRMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalJobId(pub u64);

/// Job lifecycle notifications delivered to the submitter's callback.
#[derive(Debug, Clone, PartialEq)]
pub enum LrmsEvent {
    /// The job entered the queue (always first, even if it starts instantly).
    Queued,
    /// The job started on the given nodes.
    Started {
        /// Indices of the allocated worker nodes.
        nodes: Vec<usize>,
    },
    /// The job ran to completion.
    Finished,
    /// The job was killed (walltime exceeded, explicit kill, node loss).
    Killed {
        /// Why.
        reason: String,
    },
}

/// Where a local job is in its lifecycle, as a GRAM status poll would
/// report it. Terminal dispositions are retained after the job leaves the
/// queue/running tables, so a submitter whose status messages were lost to
/// a link outage can re-learn the outcome once the path heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalDisposition {
    /// Not started: waiting in the queue, or inside the dispatch-latency
    /// window.
    Queued,
    /// Running on worker nodes.
    Running,
    /// Ran to completion.
    Finished,
    /// Killed (walltime exceeded, explicit kill, node loss).
    Killed,
}

type Callback = BackendCallback;

struct QueuedJob {
    id: LocalJobId,
    spec: LocalJobSpec,
    callback: Callback,
    queued_at: SimTime,
    seq: u64,
}

/// A job that holds nodes: inside the dispatch-latency window while
/// `start_event` is set, running once it has fired.
struct RunningJob {
    callback: Callback,
    nodes: Vec<usize>,
    /// The spec's runtime and walltime, for the timers set at the start.
    runtime: Option<SimDuration>,
    walltime: Option<SimDuration>,
    /// The pending start, so a kill inside the window can cancel it.
    start_event: Option<EventId>,
    finish_event: Option<EventId>,
    kill_event: Option<EventId>,
}

/// Aggregate LRMS metrics.
#[derive(Debug, Clone, Default)]
pub struct LrmsStats {
    /// Queue-wait times of started jobs, seconds.
    pub wait: OnlineStats,
    /// Jobs accepted by `submit`.
    pub submitted: u64,
    /// Jobs finished normally.
    pub finished: u64,
    /// Jobs killed.
    pub killed: u64,
}

struct Inner {
    policy: Policy,
    node_busy: Vec<bool>,
    /// How many entries of `node_busy` are `false` — read once per live
    /// query, so counted where a node changes hands instead of scanned for.
    free: usize,
    queue: VecDeque<QueuedJob>,
    /// Every job that holds nodes, started or not.
    running: std::collections::HashMap<LocalJobId, RunningJob>,
    /// How many entries of `running` are popped from the queue with their
    /// nodes reserved but have not started yet — the dispatch-latency
    /// window (fork, image activation). Without it, `submitted = queued +
    /// running + dispatching + finished + killed` would not balance at
    /// arbitrary probe instants.
    dispatching: usize,
    next_id: u64,
    next_seq: u64,
    /// Scheduler cycle latency: time between a dispatch decision and the job
    /// actually starting on the node (fork, image activation).
    dispatch_latency: SimDuration,
    stats: LrmsStats,
    /// Terminal dispositions of departed jobs — the poll-back record.
    /// Ordered by id (ids are monotonic, so id order == completion-record
    /// order) so eviction drops the oldest record first.
    done: BTreeMap<LocalJobId, LocalDisposition>,
    /// Cap on `done`: oldest records are evicted (and traced) past this.
    retention: usize,
    /// Lifecycle event sink and this scheduler's site label.
    trace: Option<(cg_trace::EventLog, Arc<str>)>,
    /// Lifecycle notices waiting for their event: `(callback, job, what)`.
    notices: Slab<(Callback, LocalJobId, LrmsEvent)>,
    /// What the scheduler's own events reach, built at the first
    /// submission; it holds the scheduler through a `Weak`.
    receiver: Option<Receiver>,
}

/// Which of the scheduler's own events this is: the `aux` of a typed event
/// for its receiver. The payload is a notice's slot or a job's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Deliver a lifecycle notice to its submitter.
    Notice,
    /// A scheduler pass over the queue.
    Dispatch,
    /// A dispatched job leaves the dispatch-latency window.
    Start,
    /// A job's runtime is over.
    Finish,
    /// A job's walltime is over.
    Walltime,
}

impl Step {
    const ALL: [Step; 5] = [
        Step::Notice,
        Step::Dispatch,
        Step::Start,
        Step::Finish,
        Step::Walltime,
    ];

    fn event(self, payload: u64) -> TypedEvent {
        TypedEvent::new(self as u16, payload)
    }
}

/// A local batch scheduler handle. Clones share state.
#[derive(Clone)]
pub struct Lrms {
    inner: Rc<RefCell<Inner>>,
}

/// See [`Lrms::downgrade`].
#[cfg(test)]
pub(crate) struct WeakLrms {
    inner: std::rc::Weak<RefCell<Inner>>,
}

#[cfg(test)]
impl WeakLrms {
    /// The scheduler, unless every strong handle has been dropped.
    pub(crate) fn upgrade(&self) -> Option<Lrms> {
        self.inner.upgrade().map(|inner| Lrms { inner })
    }
}

impl Lrms {
    /// A handle that does not keep the scheduler alive: what a leak test
    /// holds to see the scheduler go.
    #[cfg(test)]
    pub(crate) fn downgrade(&self) -> WeakLrms {
        WeakLrms {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// Creates an LRMS over `nodes` worker nodes.
    ///
    /// # Panics
    /// Panics when `nodes == 0`; use [`Lrms::try_new`] for a typed error.
    pub fn new(policy: Policy, nodes: usize, dispatch_latency: SimDuration) -> Self {
        Lrms::try_new(policy, nodes, dispatch_latency).expect("LRMS with no worker nodes")
    }

    /// Creates an LRMS over `nodes` worker nodes, rejecting configurations
    /// that could never dispatch a job.
    ///
    /// # Errors
    /// [`BackendError::ZeroNodes`] when `nodes == 0` — such a scheduler
    /// accepts submissions but can never start them (every job wedges in
    /// the queue), so construction is the right place to fail.
    pub fn try_new(
        policy: Policy,
        nodes: usize,
        dispatch_latency: SimDuration,
    ) -> Result<Self, BackendError> {
        if nodes == 0 {
            return Err(BackendError::ZeroNodes);
        }
        Ok(Lrms {
            inner: Rc::new(RefCell::new(Inner {
                policy,
                node_busy: vec![false; nodes],
                free: nodes,
                queue: VecDeque::new(),
                running: std::collections::HashMap::new(),
                dispatching: 0,
                next_id: 0,
                next_seq: 0,
                dispatch_latency,
                stats: LrmsStats::default(),
                done: BTreeMap::new(),
                retention: DEFAULT_DISPOSITION_RETENTION,
                trace: None,
                notices: Slab::default(),
                receiver: None,
            })),
        })
    }

    fn receiver(&self) -> Receiver {
        let mut inner = self.inner.borrow_mut();
        let receiver = inner.receiver.get_or_insert_with(|| {
            let weak = Rc::downgrade(&self.inner);
            Rc::new(move |sim, event| {
                if let Some(inner) = weak.upgrade() {
                    Lrms { inner }.on_step(sim, event);
                }
            })
        });
        Rc::clone(receiver)
    }

    /// The receiver of every event the scheduler schedules for itself.
    fn on_step(&self, sim: &mut Sim, event: TypedEvent) {
        let id = LocalJobId(event.payload);
        match Step::ALL[usize::from(event.aux)] {
            Step::Notice => {
                let notice = self.inner.borrow_mut().notices.remove(event.payload);
                let (callback, id, what) = notice.expect("one delivery per notice");
                callback(sim, id, &what);
            }
            Step::Dispatch => self.try_dispatch(sim),
            Step::Start => self.start(sim, id),
            Step::Finish => self.end_job(sim, id, None),
            Step::Walltime => self.end_job(sim, id, Some("walltime exceeded".into())),
        }
    }

    /// Schedules `what` for `callback` at the current instant.
    fn notify(&self, sim: &mut Sim, callback: Callback, id: LocalJobId, what: LrmsEvent) {
        let receiver = self.receiver();
        let slot = self.inner.borrow_mut().notices.insert((callback, id, what));
        sim.schedule_event_now(&receiver, Step::Notice.event(slot));
    }

    /// Schedules a scheduler pass at the current instant.
    fn schedule_dispatch(&self, sim: &mut Sim) {
        let receiver = self.receiver();
        sim.schedule_event_now(&receiver, Step::Dispatch.event(0));
    }

    /// Notices not yet delivered: zero once a drained world is idle.
    pub fn notices_pending(&self) -> usize {
        self.inner.borrow().notices.len()
    }

    /// Caps how many terminal dispositions [`Lrms::disposition`] retains.
    /// When a newly recorded outcome pushes the table past `cap`, the
    /// oldest records are evicted and traced as `DispositionEvicted` — a
    /// rejoining broker polling for a job older than the cap gets `None`
    /// and must treat the outcome as unknown.
    ///
    /// # Panics
    /// Panics when `cap == 0`: a site that retains nothing breaks rejoin
    /// reconciliation outright.
    pub fn set_disposition_retention(&self, cap: usize) {
        assert!(cap > 0, "disposition retention cap must be >= 1");
        self.inner.borrow_mut().retention = cap;
    }

    /// Routes this scheduler's queue/start/finish/kill transitions into
    /// `log`, labelled with `site` — the site's own name, shared by every
    /// event.
    pub fn set_trace(&self, log: cg_trace::EventLog, site: impl Into<Arc<str>>) {
        self.inner.borrow_mut().trace = Some((log, site.into()));
    }

    fn trace_event(&self, sim: &Sim, make: impl FnOnce(Arc<str>) -> cg_trace::Event) {
        if let Some((log, site)) = &self.inner.borrow().trace {
            log.record(sim.now(), make(Arc::clone(site)));
        }
    }

    fn trace_evictions(&self, sim: &Sim, evicted: &[LocalJobId]) {
        for &old in evicted {
            self.trace_event(sim, |site| cg_trace::Event::DispositionEvicted {
                site,
                job: old.0,
            });
        }
    }

    /// Submits a job; `callback` observes every lifecycle event. Returns the
    /// job id (also passed to the callback, so one callback can serve many
    /// jobs).
    pub fn submit(
        &self,
        sim: &mut Sim,
        spec: LocalJobSpec,
        callback: impl Fn(&mut Sim, LocalJobId, &LrmsEvent) + 'static,
    ) -> LocalJobId {
        self.submit_rc(sim, spec, Rc::new(callback))
    }

    /// [`Lrms::submit`] with an already-shared callback — the one method
    /// [`crate::BackendHandle`] wraps instead of inheriting.
    pub(crate) fn submit_rc(
        &self,
        sim: &mut Sim,
        spec: LocalJobSpec,
        callback: Callback,
    ) -> LocalJobId {
        assert!(spec.nodes >= 1, "job requesting zero nodes");
        let mut inner = self.inner.borrow_mut();
        inner.stats.submitted += 1;
        let id = LocalJobId(inner.next_id);
        inner.next_id += 1;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queue.push_back(QueuedJob {
            id,
            spec,
            callback: Rc::clone(&callback),
            queued_at: sim.now(),
            seq,
        });
        drop(inner);
        self.trace_event(sim, |site| cg_trace::Event::LrmsQueued { site, job: id.0 });
        self.notify(sim, callback, id, LrmsEvent::Queued);
        self.schedule_dispatch(sim);
        id
    }

    /// Ends a running job early with `Finished` (used by components whose
    /// jobs have no natural runtime, like glide-in agents leaving a machine).
    /// No-op when the job is not running.
    pub fn complete(&self, sim: &mut Sim, id: LocalJobId) {
        self.end_job(sim, id, None);
    }

    /// Kills a queued, dispatching or running job. Returns whether the job
    /// was known. A job that has not started — queued, or inside the
    /// dispatch-latency window — is delivered `Killed` and never `Started`.
    pub fn kill(&self, sim: &mut Sim, id: LocalJobId, reason: impl Into<String>) -> bool {
        let reason = reason.into();
        {
            let mut inner = self.inner.borrow_mut();
            if let Some(pos) = inner.queue.iter().position(|q| q.id == id) {
                let q = inner.queue.remove(pos).expect("position was valid");
                inner.stats.killed += 1;
                let evicted = record_done(&mut inner, id, LocalDisposition::Killed);
                drop(inner);
                self.trace_event(sim, |site| cg_trace::Event::LrmsKilled {
                    site,
                    job: id.0,
                    reason: reason.clone(),
                });
                self.trace_evictions(sim, &evicted);
                self.notify(sim, q.callback, id, LrmsEvent::Killed { reason });
                return true;
            }
        }
        if self.inner.borrow().running.contains_key(&id) {
            self.end_job(sim, id, Some(reason));
            true
        } else {
            false
        }
    }

    /// Free nodes right now.
    pub fn free_nodes(&self) -> usize {
        let inner = self.inner.borrow();
        debug_assert_eq!(
            inner.free,
            inner.node_busy.iter().filter(|b| !**b).count(),
            "free-node count out of step with the node table"
        );
        inner.free
    }

    /// Total nodes.
    pub fn total_nodes(&self) -> usize {
        self.inner.borrow().node_busy.len()
    }

    /// Jobs waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Jobs currently running.
    pub fn running_count(&self) -> usize {
        let inner = self.inner.borrow();
        inner.running.len() - inner.dispatching
    }

    /// Jobs inside the dispatch-latency window: off the queue, nodes
    /// reserved, not started yet. These are invisible to both
    /// [`Lrms::queue_depth`] and [`Lrms::running_count`], so conservation
    /// checks must count them separately.
    pub fn dispatching_count(&self) -> usize {
        self.inner.borrow().dispatching
    }

    /// Whether the queue has room by this site's admission policy — CrossGrid
    /// sites bounded their queues; the broker checks before submitting.
    /// (Modelled as a fixed multiple of the node count.)
    pub fn accepts_queued_jobs(&self) -> bool {
        self.ad_state().2
    }

    /// [`Lrms::free_nodes`], [`Lrms::queue_depth`] and
    /// [`Lrms::accepts_queued_jobs`] under one borrow.
    pub fn ad_state(&self) -> (usize, usize, bool) {
        let inner = self.inner.borrow();
        let queued = inner.queue.len();
        (inner.free, queued, queued < 4 * inner.node_busy.len())
    }

    /// Scheduler metrics so far.
    pub fn stats(&self) -> LrmsStats {
        self.inner.borrow().stats.clone()
    }

    /// Answers a status poll for one local job: where it is now, or how it
    /// ended. `None` for ids this LRMS never accepted; a job inside the
    /// dispatch-latency window has not started and reads `Queued`. Unlike
    /// the push notifications (which ride the broker↔site link and are
    /// dropped on outages), this is the authoritative site-local record.
    pub fn disposition(&self, id: LocalJobId) -> Option<LocalDisposition> {
        let inner = self.inner.borrow();
        if inner.queue.iter().any(|q| q.id == id) {
            return Some(LocalDisposition::Queued);
        }
        if let Some(job) = inner.running.get(&id) {
            return Some(match job.start_event {
                Some(_) => LocalDisposition::Queued,
                None => LocalDisposition::Running,
            });
        }
        inner.done.get(&id).copied()
    }

    /// Ends a job that holds nodes. A kill also ends one still inside the
    /// dispatch-latency window: its start is cancelled, so it frees its
    /// nodes and is delivered `Killed` without ever having `Started`.
    fn end_job(&self, sim: &mut Sim, id: LocalJobId, kill_reason: Option<String>) {
        let mut inner = self.inner.borrow_mut();
        let starting = |j: &RunningJob| j.start_event.is_some();
        if kill_reason.is_none() && inner.running.get(&id).is_some_and(starting) {
            return; // `complete` before the start: not running, so a no-op
        }
        let Some(job) = inner.running.remove(&id) else {
            return;
        };
        if starting(&job) {
            inner.dispatching -= 1;
        }
        for &n in &job.nodes {
            inner.node_busy[n] = false;
        }
        inner.free += job.nodes.len();
        let evicted = if kill_reason.is_some() {
            inner.stats.killed += 1;
            record_done(&mut inner, id, LocalDisposition::Killed)
        } else {
            inner.stats.finished += 1;
            record_done(&mut inner, id, LocalDisposition::Finished)
        };
        drop(inner);
        for ev in [job.start_event, job.finish_event, job.kill_event]
            .into_iter()
            .flatten()
        {
            sim.cancel(ev);
        }
        self.trace_event(sim, |site| match &kill_reason {
            Some(reason) => cg_trace::Event::LrmsKilled {
                site,
                job: id.0,
                reason: reason.clone(),
            },
            None => cg_trace::Event::LrmsFinished { site, job: id.0 },
        });
        self.trace_evictions(sim, &evicted);
        let event = match kill_reason {
            Some(reason) => LrmsEvent::Killed { reason },
            None => LrmsEvent::Finished,
        };
        self.notify(sim, job.callback, id, event);
        self.schedule_dispatch(sim);
    }

    /// Dispatches what fits, by policy, until nothing does. A job's nodes
    /// are the lowest-numbered free ones.
    fn try_dispatch(&self, sim: &mut Sim) {
        loop {
            let mut inner = self.inner.borrow_mut();
            if inner.queue.is_empty() {
                return;
            }
            let free = inner.free;
            // Pick the next job per policy.
            let pick = match inner.policy {
                Policy::Fifo => {
                    let head = &inner.queue[0];
                    (head.spec.nodes as usize <= free).then_some(0)
                }
                Policy::FifoBackfill => {
                    (0..inner.queue.len()).find(|&i| inner.queue[i].spec.nodes as usize <= free)
                }
                Policy::Priority => {
                    let mut best: Option<usize> = None;
                    for i in 0..inner.queue.len() {
                        if inner.queue[i].spec.nodes as usize > free {
                            continue;
                        }
                        best = Some(match best {
                            None => i,
                            Some(j) => {
                                let (a, b) = (&inner.queue[i], &inner.queue[j]);
                                if (a.spec.priority, a.seq) < (b.spec.priority, b.seq) {
                                    i
                                } else {
                                    j
                                }
                            }
                        });
                    }
                    best
                }
            };
            let Some(pick) = pick else { return };
            let job = inner.queue.remove(pick).expect("pick index valid");
            let nodes: Vec<usize> = inner
                .node_busy
                .iter()
                .enumerate()
                .filter_map(|(i, busy)| (!busy).then_some(i))
                .take(job.spec.nodes as usize)
                .collect();
            for &n in &nodes {
                inner.node_busy[n] = true;
            }
            inner.free -= nodes.len();
            let wait = sim.now().saturating_since(job.queued_at);
            inner.stats.wait.record_duration(wait);
            inner.dispatching += 1;
            let dispatch = inner.dispatch_latency;
            drop(inner);

            let id = job.id;
            let receiver = self.receiver();
            let start_event = sim.schedule_event_in(dispatch, &receiver, Step::Start.event(id.0));
            self.inner.borrow_mut().running.insert(
                id,
                RunningJob {
                    callback: job.callback,
                    nodes,
                    runtime: job.spec.runtime,
                    walltime: job.spec.walltime,
                    start_event: Some(start_event),
                    finish_event: None,
                    kill_event: None,
                },
            );
        }
    }

    /// A dispatched job leaves the dispatch-latency window: its timers are
    /// set, then it is announced.
    fn start(&self, sim: &mut Sim, id: LocalJobId) {
        let receiver = self.receiver();
        let (runtime, walltime) = {
            let inner = self.inner.borrow();
            let job = inner
                .running
                .get(&id)
                .expect("a kill inside the window cancels this event");
            (job.runtime, job.walltime)
        };
        let mut finish_event = None;
        let mut kill_event = None;
        if let Some(rt) = runtime {
            let run = match walltime {
                Some(w) if w < rt => None, // walltime fires first
                _ => Some(rt),
            };
            if let Some(rt) = run {
                finish_event = Some(sim.schedule_event_in(rt, &receiver, Step::Finish.event(id.0)));
            }
        }
        if let Some(w) = walltime {
            if runtime.is_none_or(|rt| w < rt) {
                kill_event = Some(sim.schedule_event_in(w, &receiver, Step::Walltime.event(id.0)));
            }
        }
        let (callback, nodes) = {
            let mut inner = self.inner.borrow_mut();
            inner.dispatching -= 1;
            let job = inner.running.get_mut(&id).expect("checked above");
            job.start_event = None;
            job.finish_event = finish_event;
            job.kill_event = kill_event;
            (Rc::clone(&job.callback), job.nodes.clone())
        };
        self.trace_event(sim, |site| cg_trace::Event::LrmsStarted {
            site,
            job: id.0,
            nodes: nodes.len() as u32,
        });
        callback(sim, id, &LrmsEvent::Started { nodes });
    }
}

/// Records a terminal disposition and evicts the oldest records past the
/// retention cap. Returns the evicted ids so the caller can trace them
/// after releasing the borrow (ids are monotonic, so the just-inserted id
/// is always the newest and never self-evicts).
fn record_done(inner: &mut Inner, id: LocalJobId, disp: LocalDisposition) -> Vec<LocalJobId> {
    inner.done.insert(id, disp);
    let mut evicted = Vec::new();
    while inner.done.len() > inner.retention {
        let (old, _) = inner.done.pop_first().expect("len > cap >= 1");
        evicted.push(old);
    }
    evicted
}

impl std::fmt::Debug for Lrms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Lrms")
            .field("policy", &inner.policy)
            .field("nodes", &inner.node_busy.len())
            .field("queued", &inner.queue.len())
            .field("running", &(inner.running.len() - inner.dispatching))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<(u64, String, f64)>>>;

    fn logging_cb(log: Log) -> impl Fn(&mut Sim, LocalJobId, &LrmsEvent) {
        move |sim, id, ev| {
            let tag = match ev {
                LrmsEvent::Queued => "queued".to_string(),
                LrmsEvent::Started { .. } => "started".to_string(),
                LrmsEvent::Finished => "finished".to_string(),
                LrmsEvent::Killed { reason } => format!("killed:{reason}"),
            };
            log.borrow_mut().push((id.0, tag, sim.now().as_secs_f64()));
        }
    }

    fn events_for(log: &Log, id: u64) -> Vec<(String, f64)> {
        log.borrow()
            .iter()
            .filter(|(i, _, _)| *i == id)
            .map(|(_, t, at)| (t.clone(), *at))
            .collect()
    }

    #[test]
    fn job_runs_through_lifecycle() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 2, SimDuration::from_secs(1));
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let id = lrms.submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(10)),
            logging_cb(Rc::clone(&log)),
        );
        sim.run();
        let evs = events_for(&log, id.0);
        assert_eq!(evs[0].0, "queued");
        assert_eq!(evs[1], ("started".into(), 1.0), "dispatch latency applied");
        assert_eq!(evs[2], ("finished".into(), 11.0));
        assert_eq!(lrms.stats().finished, 1);
    }

    #[test]
    fn fifo_head_blocks_backfill_does_not() {
        // 3 nodes. Job A (2 nodes, 10 s) runs, leaving one node free; job B
        // (2 nodes) must wait; job C (1 node) behind B: FIFO blocks it behind
        // the stuck head, backfill runs it immediately on the free node.
        let run = |policy: Policy| {
            let mut sim = Sim::new(1);
            let lrms = Lrms::new(policy, 3, SimDuration::ZERO);
            let log: Log = Rc::new(RefCell::new(Vec::new()));
            let mk = |nodes| LocalJobSpec {
                nodes,
                runtime: Some(SimDuration::from_secs(10)),
                walltime: None,
                priority: 0,
                user: "u".into(),
            };
            let _a = lrms.submit(&mut sim, mk(2), logging_cb(Rc::clone(&log)));
            let _b = lrms.submit(&mut sim, mk(2), logging_cb(Rc::clone(&log)));
            let c = lrms.submit(&mut sim, mk(1), logging_cb(Rc::clone(&log)));
            sim.run();
            events_for(&log, c.0)
                .iter()
                .find(|(t, _)| t == "started")
                .map(|&(_, at)| at)
                .unwrap()
        };
        assert_eq!(
            run(Policy::Fifo),
            10.0,
            "FIFO: C waits behind the blocked head"
        );
        assert_eq!(
            run(Policy::FifoBackfill),
            0.0,
            "backfill: C jumps the blocked head"
        );
    }

    #[test]
    fn priority_policy_reorders_queue() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Priority, 1, SimDuration::ZERO);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let mk = |priority| LocalJobSpec {
            nodes: 1,
            runtime: Some(SimDuration::from_secs(5)),
            walltime: None,
            priority,
            user: "u".into(),
        };
        // All three land in the queue in the same instant, so the first
        // dispatch already sees the full queue and priority decides alone.
        let low = lrms.submit(&mut sim, mk(10), logging_cb(Rc::clone(&log)));
        let worst = lrms.submit(&mut sim, mk(99), logging_cb(Rc::clone(&log)));
        let best = lrms.submit(&mut sim, mk(1), logging_cb(Rc::clone(&log)));
        sim.run();
        let started_at = |id: LocalJobId| {
            events_for(&log, id.0)
                .iter()
                .find(|(t, _)| t == "started")
                .map(|&(_, at)| at)
                .unwrap()
        };
        assert_eq!(started_at(best), 0.0, "best priority runs first");
        assert_eq!(started_at(low), 5.0);
        assert_eq!(started_at(worst), 10.0);
    }

    #[test]
    fn walltime_kills_overrunning_job() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 1, SimDuration::ZERO);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let spec = LocalJobSpec {
            nodes: 1,
            runtime: Some(SimDuration::from_secs(100)),
            walltime: Some(SimDuration::from_secs(30)),
            priority: 0,
            user: "u".into(),
        };
        let id = lrms.submit(&mut sim, spec, logging_cb(Rc::clone(&log)));
        sim.run();
        let evs = events_for(&log, id.0);
        assert_eq!(evs.last().unwrap().0, "killed:walltime exceeded");
        assert_eq!(evs.last().unwrap().1, 30.0);
        assert_eq!(lrms.free_nodes(), 1, "node freed after kill");
    }

    #[test]
    fn indefinite_job_runs_until_completed() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 1, SimDuration::ZERO);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let spec = LocalJobSpec {
            nodes: 1,
            runtime: None,
            walltime: None,
            priority: 0,
            user: "agent".into(),
        };
        let id = lrms.submit(&mut sim, spec, logging_cb(Rc::clone(&log)));
        sim.run_until(cg_sim::SimTime::from_secs(1_000));
        assert_eq!(lrms.running_count(), 1, "agent still holding the node");
        lrms.complete(&mut sim, id);
        sim.run();
        assert_eq!(events_for(&log, id.0).last().unwrap().0, "finished");
        assert_eq!(lrms.free_nodes(), 1);
    }

    #[test]
    fn kill_queued_job_never_starts() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 1, SimDuration::ZERO);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let blocker = lrms.submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(50)),
            logging_cb(Rc::clone(&log)),
        );
        let victim = lrms.submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(1)),
            logging_cb(Rc::clone(&log)),
        );
        sim.run_until(cg_sim::SimTime::from_secs(5));
        assert!(lrms.kill(&mut sim, victim, "user abort"));
        assert!(
            !lrms.kill(&mut sim, LocalJobId(999), "no such"),
            "unknown id"
        );
        sim.run();
        let evs = events_for(&log, victim.0);
        assert!(evs.iter().all(|(t, _)| t != "started"));
        assert_eq!(evs.last().unwrap().0, "killed:user abort");
        let _ = blocker;
        assert_eq!(lrms.stats().killed, 1);
    }

    #[test]
    fn kill_inside_the_dispatch_window_never_starts() {
        // One node, 1.5 s of dispatch latency: at t = 0.2 s the victim is
        // off the queue with its node reserved and has not started.
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 1, SimDuration::from_millis(1_500));
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let long = LocalJobSpec::simple(SimDuration::from_secs(10_000));
        let victim = lrms.submit(&mut sim, long.clone(), logging_cb(Rc::clone(&log)));
        let next = lrms.submit(&mut sim, long, logging_cb(Rc::clone(&log)));
        sim.run_until(cg_sim::SimTime::from_nanos(200_000_000));
        assert_eq!((lrms.dispatching_count(), lrms.free_nodes()), (1, 0));
        assert_eq!(lrms.disposition(victim), Some(LocalDisposition::Queued));
        lrms.complete(&mut sim, victim);
        assert_eq!(lrms.dispatching_count(), 1, "complete: not running, no-op");

        assert!(lrms.kill(&mut sim, victim, "user abort"));
        assert_eq!((lrms.dispatching_count(), lrms.free_nodes()), (0, 1));
        assert_eq!(lrms.disposition(victim), Some(LocalDisposition::Killed));
        sim.run_until(cg_sim::SimTime::from_secs(600));
        assert_eq!(
            events_for(&log, victim.0),
            [("queued".into(), 0.0), ("killed:user abort".into(), 0.2)],
            "the cancelled start never fires"
        );
        // The freed node went to the job behind it, a full latency later.
        assert_eq!(events_for(&log, next.0)[1], ("started".into(), 1.7));
        let stats = lrms.stats();
        assert_eq!((stats.killed, lrms.running_count()), (1, 1));
        assert_eq!(stats.submitted, 2);
    }

    #[test]
    fn wait_times_are_recorded() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 1, SimDuration::ZERO);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        lrms.submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(10)),
            logging_cb(Rc::clone(&log)),
        );
        lrms.submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(10)),
            logging_cb(Rc::clone(&log)),
        );
        sim.run();
        let stats = lrms.stats();
        assert_eq!(stats.wait.count(), 2);
        assert_eq!(stats.wait.min(), Some(0.0));
        assert_eq!(stats.wait.max(), Some(10.0));
    }

    #[test]
    fn queue_admission_bound() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 1, SimDuration::ZERO);
        assert!(lrms.accepts_queued_jobs());
        for _ in 0..6 {
            lrms.submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(1_000)),
                |_, _, _| {},
            );
        }
        sim.run_until(cg_sim::SimTime::from_secs(1));
        // 1 running, 5 queued > 4×1 nodes.
        assert!(!lrms.accepts_queued_jobs());
    }

    #[test]
    fn zero_node_construction_is_a_typed_error() {
        assert_eq!(
            Lrms::try_new(Policy::Fifo, 0, SimDuration::ZERO).err(),
            Some(crate::backend::BackendError::ZeroNodes)
        );
        assert!(Lrms::try_new(Policy::Fifo, 1, SimDuration::ZERO).is_ok());
    }

    #[test]
    fn disposition_retention_evicts_oldest_and_keeps_recent() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 4, SimDuration::ZERO);
        lrms.set_disposition_retention(4);
        let ids: Vec<LocalJobId> = (0..10)
            .map(|_| {
                lrms.submit(
                    &mut sim,
                    LocalJobSpec::simple(SimDuration::from_secs(1)),
                    |_, _, _| {},
                )
            })
            .collect();
        sim.run();
        // The 6 oldest outcomes were evicted; the 4 newest still answer
        // status polls — a rejoining broker finds its *recent* dispatches.
        for id in &ids[..6] {
            assert_eq!(lrms.disposition(*id), None, "evicted {id:?}");
        }
        for id in &ids[6..] {
            assert_eq!(
                lrms.disposition(*id),
                Some(LocalDisposition::Finished),
                "retained {id:?}"
            );
        }
        assert_eq!(lrms.stats().finished, 10, "stats are not evicted");
    }

    #[test]
    fn disposition_eviction_is_traced() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 1, SimDuration::ZERO);
        lrms.set_disposition_retention(1);
        let log = cg_trace::EventLog::new(1024);
        lrms.set_trace(log.clone(), "uab");
        for _ in 0..3 {
            lrms.submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(1)),
                |_, _, _| {},
            );
        }
        sim.run();
        let evicted: Vec<u64> = log
            .snapshot()
            .iter()
            .filter_map(|r| match &r.event {
                cg_trace::Event::DispositionEvicted { site, job } => {
                    assert_eq!(&**site, "uab");
                    Some(*job)
                }
                _ => None,
            })
            .collect();
        assert_eq!(evicted, [0, 1], "oldest two records evicted in order");
    }

    #[test]
    fn stats_submitted_balances_terminal_counters() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 2, SimDuration::ZERO);
        for i in 0..5u64 {
            lrms.submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(5 + i)),
                |_, _, _| {},
            );
        }
        sim.run_until(cg_sim::SimTime::from_secs(1));
        lrms.kill(&mut sim, LocalJobId(4), "balance test");
        sim.run();
        let stats = lrms.stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(
            stats.submitted,
            lrms.queue_depth() as u64 + lrms.running_count() as u64 + stats.finished + stats.killed
        );
    }

    #[test]
    fn multi_node_job_takes_whole_nodes() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 4, SimDuration::ZERO);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let spec = LocalJobSpec {
            nodes: 3,
            runtime: Some(SimDuration::from_secs(10)),
            walltime: None,
            priority: 0,
            user: "mpi".into(),
        };
        lrms.submit(&mut sim, spec, logging_cb(Rc::clone(&log)));
        sim.run_until(cg_sim::SimTime::from_secs(1));
        assert_eq!(lrms.free_nodes(), 1);
        sim.run();
        assert_eq!(lrms.free_nodes(), 4);
        let started_nodes = log
            .borrow()
            .iter()
            .filter(|(_, t, _)| t == "started")
            .count();
        assert_eq!(started_nodes, 1);
    }
}
