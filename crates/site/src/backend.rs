//! Pluggable execution backends — the abstraction over "the thing that runs
//! jobs at a site".
//!
//! The paper's broker drives exactly one kind of local resource manager (a
//! PBS-like batch scheduler, modelled by [`Lrms`]). Real brokers dispatch to
//! heterogeneous execution services — Venugopal et al.'s Gridbus broker
//! abstracts the middleware interface for exactly this reason. The
//! [`Backend`] trait is that seam: the gatekeeper, the MDS publisher and the
//! broker's dispatch/reconciliation paths all speak to a [`BackendHandle`]
//! and never name a concrete executor.
//!
//! Two implementations ship:
//!
//! * the sim [`Lrms`] itself (the default — bit-identical to the
//!   pre-refactor behavior, since it *is* the pre-refactor type);
//! * [`ProcessBackend`] — an external-process runner that spawns and reaps a
//!   real child process per started job (what a GRAM job manager does),
//!   with real elapsed time observed only through the
//!   [`cg_console::mono_ns`] chokepoint.
//!
//! **The sim-time bridging rule** (DESIGN §7k): every backend delegates all
//! *sim-visible* scheduling — queueing, dispatch latency, node accounting,
//! lifecycle events, terminal dispositions — to the deterministic [`Lrms`]
//! core. Real execution (child processes) rides *alongside* the sim and
//! reports only into backend-local counters ([`RealExecStats`]), read via
//! `mono_ns()` so deterministic harnesses can inject a fake clock. Nothing a
//! real executor does may influence event order, job outcomes or stats seen
//! by the sim: same seed, same schedule, on any machine, under any backend.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use cg_console::mono_ns;
use cg_sim::{Sim, SimDuration};
use serde::{Deserialize, Serialize};

use crate::lrms::{LocalDisposition, LocalJobId, LocalJobSpec, Lrms, LrmsEvent, LrmsStats, Policy};

/// Shared lifecycle callback handed to [`Backend::submit_rc`]: observes every
/// [`LrmsEvent`] for the submitted job, exactly as [`Lrms::submit`]'s
/// callback does.
pub type BackendCallback = Rc<dyn Fn(&mut Sim, LocalJobId, &LrmsEvent)>;

/// Which concrete executor sits behind a [`BackendHandle`]. Recorded on
/// dispatch trace events so replays know what ran the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// The simulated batch scheduler ([`Lrms`]) — the default.
    SimLrms,
    /// External-process runner ([`ProcessBackend`]).
    Process,
}

impl BackendKind {
    /// Stable label used in trace events and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::SimLrms => "sim-lrms",
            BackendKind::Process => "process",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Typed construction failure for backends (and [`Lrms::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendError {
    /// A backend over zero worker nodes can never dispatch anything; the
    /// old `Lrms::new` wedged silently on this.
    ZeroNodes,
    /// A process backend with an empty program path.
    EmptyProgram,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::ZeroNodes => f.write_str("backend configured with zero worker nodes"),
            BackendError::EmptyProgram => {
                f.write_str("process backend configured with an empty program path")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Declarative backend choice, carried by `SiteConfig` and `BrokerConfig`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendSpec {
    /// The simulated LRMS (default).
    #[default]
    Sim,
    /// External-process runner spawning `program` once per started job.
    Process {
        /// Program to spawn (argument-less; must be non-empty).
        program: String,
    },
}

impl BackendSpec {
    /// The kind this spec builds.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendSpec::Sim => BackendKind::SimLrms,
            BackendSpec::Process { .. } => BackendKind::Process,
        }
    }

    /// Builds the backend over `nodes` worker nodes.
    ///
    /// # Errors
    /// Returns a [`BackendError`] when the spec is structurally invalid
    /// (zero nodes, empty program).
    pub fn build(
        &self,
        policy: Policy,
        nodes: usize,
        dispatch_latency: SimDuration,
        disposition_retention: usize,
    ) -> Result<BackendHandle, BackendError> {
        let handle = match self {
            BackendSpec::Sim => {
                BackendHandle::from(Lrms::try_new(policy, nodes, dispatch_latency)?)
            }
            BackendSpec::Process { program } => BackendHandle::from(ProcessBackend::new(
                policy,
                nodes,
                dispatch_latency,
                program.clone(),
            )?),
        };
        handle.set_disposition_retention(disposition_retention);
        Ok(handle)
    }
}

/// Counters a real executor accumulates *outside* the sim: how many real
/// processes it launched, reaped and failed to launch, and the real
/// nanoseconds they took as observed through `mono_ns()`. Purely
/// informational — by the sim-time bridging rule these never feed back into
/// scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RealExecStats {
    /// Real processes launched.
    pub launched: u64,
    /// Real processes that ran and were reaped.
    pub completed: u64,
    /// Launch attempts that failed (spawn error).
    pub failed: u64,
    /// Total real execution time, nanoseconds via `mono_ns()`.
    pub real_ns: u64,
}

/// The execution-backend contract. Semantics mirror [`Lrms`] exactly; the
/// conformance suite (`tests/backend_conformance.rs`) holds every
/// implementation to it:
///
/// 1. `Queued` is always the first event, dispatch applies
///    `dispatch_latency` before `Started` (dispatch-latency ordering);
/// 2. killing a queued job delivers `Killed` without ever `Started`;
/// 3. terminal [`LocalDisposition`]s are retained (up to the configured cap)
///    for rejoin reconciliation to poll;
/// 4. [`Backend::accepts_queued_jobs`] reflects the bounded-queue admission
///    rule the broker's co-allocation path consults;
/// 5. same seed ⇒ same event schedule, regardless of real execution.
pub trait Backend {
    /// Which concrete executor this is.
    fn kind(&self) -> BackendKind;

    /// Submits a job; `callback` observes every lifecycle event. See
    /// [`Lrms::submit`].
    fn submit_rc(&self, sim: &mut Sim, spec: LocalJobSpec, callback: BackendCallback)
        -> LocalJobId;

    /// Ends a running job early with `Finished`. See [`Lrms::complete`].
    fn complete(&self, sim: &mut Sim, id: LocalJobId);

    /// Kills a queued or running job. Returns whether the job was known.
    fn kill(&self, sim: &mut Sim, id: LocalJobId, reason: &str) -> bool;

    /// Status poll: where the job is now, or how it ended. See
    /// [`Lrms::disposition`].
    fn disposition(&self, id: LocalJobId) -> Option<LocalDisposition>;

    /// Free nodes right now.
    fn free_nodes(&self) -> usize;

    /// Total nodes.
    fn total_nodes(&self) -> usize;

    /// Jobs waiting in the queue.
    fn queue_depth(&self) -> usize;

    /// Jobs currently running.
    fn running_count(&self) -> usize;

    /// Jobs inside the dispatch-latency window (off the queue, not yet
    /// started) — see [`Lrms::dispatching_count`].
    fn dispatching_count(&self) -> usize;

    /// Whether the queue has room by the site's admission policy.
    fn accepts_queued_jobs(&self) -> bool;

    /// `(free_nodes, queue_depth, accepts_queued_jobs)` in one call — the
    /// state a site's machine ad is built from, read once per live query.
    fn ad_state(&self) -> (usize, usize, bool);

    /// Scheduler metrics so far.
    fn stats(&self) -> LrmsStats;

    /// Routes lifecycle transitions into `log`, labelled with `site`.
    fn set_trace(&self, log: cg_trace::EventLog, site: String);

    /// Caps how many terminal dispositions are retained for status polls.
    fn set_disposition_retention(&self, cap: usize);

    /// Real-execution counters. Zero for purely simulated backends.
    fn real_exec(&self) -> RealExecStats {
        RealExecStats::default()
    }
}

/// A cloneable, type-erased backend. Clones share the underlying executor.
///
/// The inherent methods mirror [`Lrms`]'s API one-for-one so code written
/// against `site.lrms()` keeps compiling unchanged against any backend.
#[derive(Clone)]
pub struct BackendHandle {
    inner: Rc<dyn Backend>,
}

/// See [`BackendHandle::downgrade`].
pub(crate) struct WeakBackendHandle {
    inner: std::rc::Weak<dyn Backend>,
}

impl WeakBackendHandle {
    /// The backend, unless every strong handle has been dropped.
    pub(crate) fn upgrade(&self) -> Option<BackendHandle> {
        self.inner.upgrade().map(|inner| BackendHandle { inner })
    }
}

impl BackendHandle {
    /// Wraps a concrete backend.
    pub fn new(backend: impl Backend + 'static) -> Self {
        BackendHandle {
            inner: Rc::new(backend),
        }
    }

    /// A handle that does not keep the backend alive — for callbacks the
    /// backend itself stores (a strong handle there is a reference cycle
    /// that leaks the backend while the job is live).
    pub(crate) fn downgrade(&self) -> WeakBackendHandle {
        WeakBackendHandle {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// Which concrete executor this handle drives.
    pub fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    /// Submits a job; `callback` observes every lifecycle event.
    pub fn submit(
        &self,
        sim: &mut Sim,
        spec: LocalJobSpec,
        callback: impl Fn(&mut Sim, LocalJobId, &LrmsEvent) + 'static,
    ) -> LocalJobId {
        self.inner.submit_rc(sim, spec, Rc::new(callback))
    }

    /// Submits with an already-shared callback.
    pub fn submit_rc(
        &self,
        sim: &mut Sim,
        spec: LocalJobSpec,
        callback: BackendCallback,
    ) -> LocalJobId {
        self.inner.submit_rc(sim, spec, callback)
    }

    /// Ends a running job early with `Finished`.
    pub fn complete(&self, sim: &mut Sim, id: LocalJobId) {
        self.inner.complete(sim, id);
    }

    /// Kills a queued or running job. Returns whether the job was known.
    pub fn kill(&self, sim: &mut Sim, id: LocalJobId, reason: impl Into<String>) -> bool {
        self.inner.kill(sim, id, &reason.into())
    }

    /// Status poll: where the job is now, or how it ended.
    pub fn disposition(&self, id: LocalJobId) -> Option<LocalDisposition> {
        self.inner.disposition(id)
    }

    /// Free nodes right now.
    pub fn free_nodes(&self) -> usize {
        self.inner.free_nodes()
    }

    /// Total nodes.
    pub fn total_nodes(&self) -> usize {
        self.inner.total_nodes()
    }

    /// Jobs waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    /// Jobs currently running.
    pub fn running_count(&self) -> usize {
        self.inner.running_count()
    }

    /// Jobs inside the dispatch-latency window.
    pub fn dispatching_count(&self) -> usize {
        self.inner.dispatching_count()
    }

    /// Whether the queue has room by the site's admission policy.
    pub fn accepts_queued_jobs(&self) -> bool {
        self.inner.accepts_queued_jobs()
    }

    /// `(free_nodes, queue_depth, accepts_queued_jobs)` in one call.
    pub fn ad_state(&self) -> (usize, usize, bool) {
        self.inner.ad_state()
    }

    /// Scheduler metrics so far.
    pub fn stats(&self) -> LrmsStats {
        self.inner.stats()
    }

    /// Routes lifecycle transitions into `log`, labelled with `site`.
    pub fn set_trace(&self, log: cg_trace::EventLog, site: impl Into<String>) {
        self.inner.set_trace(log, site.into());
    }

    /// Caps how many terminal dispositions are retained for status polls.
    pub fn set_disposition_retention(&self, cap: usize) {
        self.inner.set_disposition_retention(cap);
    }

    /// Real-execution counters (zero for the sim backend).
    pub fn real_exec(&self) -> RealExecStats {
        self.inner.real_exec()
    }
}

impl std::fmt::Debug for BackendHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendHandle")
            .field("kind", &self.kind())
            .field("nodes", &self.total_nodes())
            .field("queued", &self.queue_depth())
            .field("running", &self.running_count())
            .finish()
    }
}

impl From<Lrms> for BackendHandle {
    fn from(lrms: Lrms) -> Self {
        BackendHandle::new(lrms)
    }
}

impl From<ProcessBackend> for BackendHandle {
    fn from(b: ProcessBackend) -> Self {
        BackendHandle::new(b)
    }
}

impl Backend for Lrms {
    fn kind(&self) -> BackendKind {
        BackendKind::SimLrms
    }

    fn submit_rc(
        &self,
        sim: &mut Sim,
        spec: LocalJobSpec,
        callback: BackendCallback,
    ) -> LocalJobId {
        Lrms::submit_rc(self, sim, spec, callback)
    }

    fn complete(&self, sim: &mut Sim, id: LocalJobId) {
        Lrms::complete(self, sim, id);
    }

    fn kill(&self, sim: &mut Sim, id: LocalJobId, reason: &str) -> bool {
        Lrms::kill(self, sim, id, reason)
    }

    fn disposition(&self, id: LocalJobId) -> Option<LocalDisposition> {
        Lrms::disposition(self, id)
    }

    fn free_nodes(&self) -> usize {
        Lrms::free_nodes(self)
    }

    fn total_nodes(&self) -> usize {
        Lrms::total_nodes(self)
    }

    fn queue_depth(&self) -> usize {
        Lrms::queue_depth(self)
    }

    fn running_count(&self) -> usize {
        Lrms::running_count(self)
    }

    fn dispatching_count(&self) -> usize {
        Lrms::dispatching_count(self)
    }

    fn accepts_queued_jobs(&self) -> bool {
        Lrms::accepts_queued_jobs(self)
    }

    fn ad_state(&self) -> (usize, usize, bool) {
        Lrms::ad_state(self)
    }

    fn stats(&self) -> LrmsStats {
        Lrms::stats(self)
    }

    fn set_trace(&self, log: cg_trace::EventLog, site: String) {
        Lrms::set_trace(self, log, site);
    }

    fn set_disposition_retention(&self, cap: usize) {
        Lrms::set_disposition_retention(self, cap);
    }
}

// ── External-process backend ────────────────────────────────────────────

struct LiveChild {
    job: u64,
    child: std::process::Child,
    spawned_ns: u64,
}

/// Spawns and reaps one real child process per started job. Sim-side only —
/// no extra threads — so plain `Cell`/`RefCell` state suffices.
struct ProcessRunner {
    program: String,
    children: RefCell<Vec<LiveChild>>,
    spawned: Cell<u64>,
    reaped: Cell<u64>,
    failed: Cell<u64>,
    real_ns: Cell<u64>,
}

impl ProcessRunner {
    fn spawn_for(&self, job: u64) {
        let spawned_ns = mono_ns();
        match std::process::Command::new(&self.program)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
        {
            Ok(child) => {
                self.spawned.set(self.spawned.get() + 1);
                self.children.borrow_mut().push(LiveChild {
                    job,
                    child,
                    spawned_ns,
                });
            }
            Err(_) => self.failed.set(self.failed.get() + 1),
        }
    }

    fn reap(&self, job: u64) {
        let live = {
            let mut children = self.children.borrow_mut();
            children
                .iter()
                .position(|c| c.job == job)
                .map(|at| children.swap_remove(at))
        };
        if let Some(mut live) = live {
            let _ = live.child.kill();
            let _ = live.child.wait();
            self.reaped.set(self.reaped.get() + 1);
            self.real_ns
                .set(self.real_ns.get() + mono_ns().saturating_sub(live.spawned_ns));
        }
    }

    fn snapshot(&self) -> RealExecStats {
        RealExecStats {
            launched: self.spawned.get() + self.failed.get(),
            completed: self.reaped.get(),
            failed: self.failed.get(),
            real_ns: self.real_ns.get(),
        }
    }
}

impl Drop for ProcessRunner {
    fn drop(&mut self) {
        for live in self.children.get_mut().drain(..) {
            let mut child = live.child;
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// External-process runner.
///
/// Delegates all sim-visible scheduling to a deterministic [`Lrms`] core;
/// each `Started` event additionally spawns `program` as a real child
/// process, reaped when the sim delivers the job's terminal event (or at
/// drop). Dispositions come from the core's recorded terminal outcomes, so
/// the backend stays deterministic under the sim governor even though the
/// child's real lifetime is arbitrary.
pub struct ProcessBackend {
    core: Lrms,
    runner: Rc<ProcessRunner>,
}

impl ProcessBackend {
    /// Builds the backend; `program` is spawned once per started job.
    ///
    /// # Errors
    /// [`BackendError::ZeroNodes`] / [`BackendError::EmptyProgram`] on
    /// structurally useless configurations.
    pub fn new(
        policy: Policy,
        nodes: usize,
        dispatch_latency: SimDuration,
        program: String,
    ) -> Result<Self, BackendError> {
        if program.is_empty() {
            return Err(BackendError::EmptyProgram);
        }
        Ok(ProcessBackend {
            core: Lrms::try_new(policy, nodes, dispatch_latency)?,
            runner: Rc::new(ProcessRunner {
                program,
                children: RefCell::new(Vec::new()),
                spawned: Cell::new(0),
                reaped: Cell::new(0),
                failed: Cell::new(0),
                real_ns: Cell::new(0),
            }),
        })
    }

    /// The default real program: exits immediately, exists everywhere.
    pub fn default_program() -> String {
        "true".to_string()
    }
}

impl Backend for ProcessBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Process
    }

    fn submit_rc(
        &self,
        sim: &mut Sim,
        spec: LocalJobSpec,
        callback: BackendCallback,
    ) -> LocalJobId {
        let runner = Rc::clone(&self.runner);
        self.core.submit_rc(
            sim,
            spec,
            Rc::new(move |sim, id, ev| {
                match ev {
                    LrmsEvent::Started { .. } => runner.spawn_for(id.0),
                    LrmsEvent::Finished | LrmsEvent::Killed { .. } => runner.reap(id.0),
                    LrmsEvent::Queued => {}
                }
                callback(sim, id, ev);
            }),
        )
    }

    fn complete(&self, sim: &mut Sim, id: LocalJobId) {
        self.core.complete(sim, id);
    }

    fn kill(&self, sim: &mut Sim, id: LocalJobId, reason: &str) -> bool {
        self.core.kill(sim, id, reason)
    }

    fn disposition(&self, id: LocalJobId) -> Option<LocalDisposition> {
        self.core.disposition(id)
    }

    fn free_nodes(&self) -> usize {
        self.core.free_nodes()
    }

    fn total_nodes(&self) -> usize {
        self.core.total_nodes()
    }

    fn queue_depth(&self) -> usize {
        self.core.queue_depth()
    }

    fn running_count(&self) -> usize {
        self.core.running_count()
    }

    fn dispatching_count(&self) -> usize {
        self.core.dispatching_count()
    }

    fn accepts_queued_jobs(&self) -> bool {
        self.core.accepts_queued_jobs()
    }

    fn ad_state(&self) -> (usize, usize, bool) {
        self.core.ad_state()
    }

    fn stats(&self) -> LrmsStats {
        self.core.stats()
    }

    fn set_trace(&self, log: cg_trace::EventLog, site: String) {
        self.core.set_trace(log, site);
    }

    fn set_disposition_retention(&self, cap: usize) {
        self.core.set_disposition_retention(cap);
    }

    fn real_exec(&self) -> RealExecStats {
        self.runner.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_sim::SimTime;

    fn drive_one(handle: &BackendHandle) -> (LocalJobId, Vec<String>) {
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let log2 = Rc::clone(&log);
        let id = handle.submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(5)),
            move |_, _, ev| {
                log2.borrow_mut().push(match ev {
                    LrmsEvent::Queued => "queued".into(),
                    LrmsEvent::Started { .. } => "started".into(),
                    LrmsEvent::Finished => "finished".into(),
                    LrmsEvent::Killed { reason } => format!("killed:{reason}"),
                });
            },
        );
        sim.run();
        let out = log.borrow().clone();
        (id, out)
    }

    #[test]
    fn process_backend_spawns_and_reaps() {
        let backend = ProcessBackend::new(
            Policy::Fifo,
            1,
            SimDuration::ZERO,
            ProcessBackend::default_program(),
        )
        .expect("valid config");
        let handle = BackendHandle::from(backend);
        let (id, events) = drive_one(&handle);
        assert_eq!(events, ["queued", "started", "finished"]);
        assert_eq!(handle.disposition(id), Some(LocalDisposition::Finished));
        let real = handle.real_exec();
        // Either the spawn worked and was reaped, or the environment lacks
        // the program — both leave sim outcomes (asserted above) intact.
        assert_eq!(real.launched, 1);
        assert_eq!(real.completed + real.failed, 1);
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        assert_eq!(
            ProcessBackend::new(
                Policy::Fifo,
                0,
                SimDuration::ZERO,
                ProcessBackend::default_program()
            )
            .err(),
            Some(BackendError::ZeroNodes)
        );
        assert_eq!(
            ProcessBackend::new(Policy::Fifo, 1, SimDuration::ZERO, String::new()).err(),
            Some(BackendError::EmptyProgram)
        );
        assert_eq!(
            BackendSpec::Sim
                .build(Policy::Fifo, 0, SimDuration::ZERO, 16)
                .err(),
            Some(BackendError::ZeroNodes)
        );
    }

    #[test]
    fn same_seed_same_schedule_across_backends() {
        // The deterministic core drives all sim-visible behavior: every
        // backend must produce the identical event sequence and timings.
        let spec_for = |spec: &BackendSpec| {
            spec.build(Policy::FifoBackfill, 2, SimDuration::from_millis(1_500), 64)
                .expect("valid")
        };
        let run = |handle: &BackendHandle| {
            let mut sim = Sim::new(7);
            let log: Rc<RefCell<Vec<(u64, String, u64)>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..6u64 {
                let log2 = Rc::clone(&log);
                let spec = LocalJobSpec {
                    nodes: 1 + u32::try_from(i % 2).expect("small"),
                    runtime: Some(SimDuration::from_secs(3 + i)),
                    walltime: None,
                    priority: 0,
                    user: "conf".into(),
                };
                handle.submit(&mut sim, spec, move |sim, id, ev| {
                    let tag = match ev {
                        LrmsEvent::Queued => "q",
                        LrmsEvent::Started { .. } => "s",
                        LrmsEvent::Finished => "f",
                        LrmsEvent::Killed { .. } => "k",
                    };
                    log2.borrow_mut()
                        .push((id.0, tag.into(), sim.now().as_nanos()));
                });
            }
            sim.run_until(SimTime::from_secs(2));
            // Kill one queued straggler mid-flight, then drain.
            let mut sim2 = sim;
            handle.kill(&mut sim2, LocalJobId(5), "conformance kill");
            sim2.run();
            let out = log.borrow().clone();
            out
        };
        let sim_events = run(&spec_for(&BackendSpec::Sim));
        let proc_events = run(&spec_for(&BackendSpec::Process {
            program: ProcessBackend::default_program(),
        }));
        assert_eq!(sim_events, proc_events, "process runner diverged from sim");
    }
}
