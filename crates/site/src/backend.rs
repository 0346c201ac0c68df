//! The execution backend of a site: one scheduler, an optional real-exec
//! hook.
//!
//! The paper's broker drives exactly one kind of local resource manager (a
//! PBS-like batch scheduler, modelled by [`Lrms`]). Real brokers dispatch to
//! heterogeneous execution services — Venugopal et al.'s Gridbus broker
//! abstracts the middleware so that *dispatch* differs per resource while
//! one scheduler owns the state. [`BackendHandle`] is that shape: the
//! gatekeeper, the MDS publisher and the broker's dispatch/reconciliation
//! paths all hold one, and it *is* the site's [`Lrms`] (it derefs to it)
//! plus, for [`BackendSpec::Process`], a runner that spawns and reaps a real
//! child process per started job (what a GRAM job manager does), with real
//! elapsed time observed only through the [`cg_console::mono_ns`]
//! chokepoint.
//!
//! **The sim-time bridging rule** (DESIGN §7k): all *sim-visible*
//! scheduling — queueing, dispatch latency, node accounting, lifecycle
//! events, terminal dispositions — is the deterministic [`Lrms`] core's,
//! under either executor. The only code that differs between the two is
//! [`BackendHandle::submit_rc`], which wraps the lifecycle callback so the
//! runner hears `Started` and the terminal event. The runner's methods take
//! a job id and nothing else — no `Sim`, no `Lrms` — and report only into
//! [`RealExecStats`], so nothing a real executor does can influence event
//! order, job outcomes or stats seen by the sim: same seed, same schedule,
//! on any machine, under either backend.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use cg_console::mono_ns;
use cg_sim::{Sim, SimDuration};
use serde::{Deserialize, Serialize};

use crate::lrms::{LocalJobId, LocalJobSpec, Lrms, LrmsEvent, Policy};

/// Shared lifecycle callback handed to [`BackendHandle::submit_rc`]:
/// observes every [`LrmsEvent`] for the submitted job, exactly as
/// [`Lrms::submit`]'s callback does.
pub type BackendCallback = Rc<dyn Fn(&mut Sim, LocalJobId, &LrmsEvent)>;

/// Which executor sits behind a [`BackendHandle`]. Recorded on dispatch
/// trace events so replays know what ran the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// The simulated batch scheduler ([`Lrms`]) alone — the default.
    SimLrms,
    /// The scheduler plus one real child process per started job.
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

/// Declarative backend choice, carried by `SiteConfig` — the one door
/// through which a site's executor is chosen.
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

    /// The default real program: exits immediately, exists everywhere.
    pub fn default_program() -> String {
        "true".to_string()
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
        let runner = match self {
            BackendSpec::Sim => None,
            BackendSpec::Process { program } if program.is_empty() => {
                return Err(BackendError::EmptyProgram)
            }
            BackendSpec::Process { program } => Some(Rc::new(ProcessRunner::new(program.clone()))),
        };
        let core = Lrms::try_new(policy, nodes, dispatch_latency)?;
        core.set_disposition_retention(disposition_retention);
        Ok(BackendHandle { core, runner })
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

/// A site's execution backend: the [`Lrms`] core and, for
/// [`BackendKind::Process`], the real-exec hook. Clones share both.
///
/// It derefs to the [`Lrms`], so every query and every other operation
/// (`kill`, `complete`, `disposition`, `stats`, …) *is* the core's; only
/// submission goes through the handle's own [`BackendHandle::submit_rc`].
/// The conformance suite (`tests/backend_conformance.rs`) holds every
/// [`BackendSpec`] to the core's contract:
///
/// 1. `Queued` is always the first event, dispatch applies
///    `dispatch_latency` before `Started` (dispatch-latency ordering);
/// 2. killing a job that has not started — queued, or inside the dispatch
///    window — delivers `Killed` without ever `Started`;
/// 3. terminal dispositions are retained (up to the configured cap) for
///    rejoin reconciliation to poll;
/// 4. [`Lrms::accepts_queued_jobs`] reflects the bounded-queue admission
///    rule the broker's co-allocation path consults;
/// 5. same seed ⇒ same event schedule, regardless of real execution.
#[derive(Clone)]
pub struct BackendHandle {
    core: Lrms,
    runner: Option<Rc<ProcessRunner>>,
}

impl std::ops::Deref for BackendHandle {
    type Target = Lrms;

    fn deref(&self) -> &Lrms {
        &self.core
    }
}

impl From<Lrms> for BackendHandle {
    fn from(core: Lrms) -> Self {
        BackendHandle { core, runner: None }
    }
}

impl BackendHandle {
    /// Which executor this handle drives.
    pub fn kind(&self) -> BackendKind {
        match self.runner {
            None => BackendKind::SimLrms,
            Some(_) => BackendKind::Process,
        }
    }

    /// Submits a job; `callback` observes every lifecycle event.
    pub fn submit(
        &self,
        sim: &mut Sim,
        spec: LocalJobSpec,
        callback: impl Fn(&mut Sim, LocalJobId, &LrmsEvent) + 'static,
    ) -> LocalJobId {
        self.submit_rc(sim, spec, Rc::new(callback))
    }

    /// Submits with an already-shared callback. With a real-exec hook the
    /// callback is wrapped so `Started` spawns the job's child process and
    /// the terminal event reaps it, before `callback` sees either.
    pub fn submit_rc(
        &self,
        sim: &mut Sim,
        spec: LocalJobSpec,
        callback: BackendCallback,
    ) -> LocalJobId {
        let Some(runner) = self.runner.clone() else {
            return self.core.submit_rc(sim, spec, callback);
        };
        self.core.submit_rc(
            sim,
            spec,
            Rc::new(move |sim, id, ev| {
                match ev {
                    LrmsEvent::Started { .. } => runner.spawn_for(id),
                    LrmsEvent::Finished | LrmsEvent::Killed { .. } => runner.reap(id),
                    LrmsEvent::Queued => {}
                }
                callback(sim, id, ev);
            }),
        )
    }

    /// Real-execution counters (zero for the sim backend).
    pub fn real_exec(&self) -> RealExecStats {
        self.runner
            .as_ref()
            .map(|r| r.snapshot())
            .unwrap_or_default()
    }
}

impl std::fmt::Debug for BackendHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendHandle")
            .field("kind", &self.kind())
            .field("core", &self.core)
            .finish_non_exhaustive()
    }
}

// ── The real-exec hook ──────────────────────────────────────────────────

struct LiveChild {
    job: LocalJobId,
    child: std::process::Child,
    spawned_ns: u64,
}

/// Spawns and reaps one real child process per started job. Sim-side only —
/// no extra threads — so plain `Cell`/`RefCell` state suffices. Its methods
/// are handed a job id and nothing of the sim: the child's real lifetime is
/// arbitrary, and it has no way to tell the scheduler about it.
struct ProcessRunner {
    program: String,
    children: RefCell<Vec<LiveChild>>,
    spawned: Cell<u64>,
    reaped: Cell<u64>,
    failed: Cell<u64>,
    real_ns: Cell<u64>,
}

impl ProcessRunner {
    fn new(program: String) -> Self {
        ProcessRunner {
            program,
            children: RefCell::new(Vec::new()),
            spawned: Cell::new(0),
            reaped: Cell::new(0),
            failed: Cell::new(0),
            real_ns: Cell::new(0),
        }
    }

    fn spawn_for(&self, job: LocalJobId) {
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

    fn reap(&self, job: LocalJobId) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrms::LocalDisposition;
    use cg_sim::SimTime;

    fn process() -> BackendSpec {
        BackendSpec::Process {
            program: BackendSpec::default_program(),
        }
    }

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
        let handle = process()
            .build(Policy::Fifo, 1, SimDuration::ZERO, 16)
            .expect("valid config");
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
        let build = |spec: &BackendSpec, nodes| {
            spec.build(Policy::Fifo, nodes, SimDuration::ZERO, 16).err()
        };
        assert_eq!(build(&process(), 0), Some(BackendError::ZeroNodes));
        let no_program = BackendSpec::Process {
            program: String::new(),
        };
        assert_eq!(build(&no_program, 1), Some(BackendError::EmptyProgram));
        assert_eq!(build(&BackendSpec::Sim, 0), Some(BackendError::ZeroNodes));
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
        let proc_events = run(&spec_for(&process()));
        assert_eq!(sim_events, proc_events, "process runner diverged from sim");
    }
}
