//! The lightweight virtual machines: execution slots with rate-based CPU
//! progress.
//!
//! "The machine only runs one O/S, but we split the machine into two separate
//! execution slots" (§5.2). A [`VmMachine`] runs at most one batch task and
//! up to `interactive_capacity` interactive tasks (the paper uses 1; the
//! degree-of-multiprogramming ablation raises it). Tasks progress at rates
//! set by who is co-resident:
//!
//! - batch alone: rate 1;
//! - batch + interactive(s): batch throttles to `eff × PL/100`, the
//!   interactive tasks share the rest;
//! - when the interactive job finishes "the original priority of the batch
//!   job is restored".
//!
//! Rate changes re-derive every task's remaining work and reschedule its
//! completion event — a small generalized-processor-sharing engine.

use std::cell::RefCell;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use cg_net::{delivery_outcome, Dir, Link};
use cg_sim::{EventId, Receiver, Sim, SimDuration, SimTime, Slab, TypedEvent};
use cg_trace::{Event, EventLog};

use crate::share::share;

/// Identifies a task within one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(u64);

/// Completion continuation of a task.
type DoneCallback = Box<dyn FnOnce(&mut Sim)>;

/// What a machine keeps of its [`Receiver`].
type WeakReceiver = Weak<dyn Fn(&mut Sim, TypedEvent)>;

/// A direct submission between the request leaving and the reply landing
/// ([`VmMachine::submit_direct`]).
struct Direct {
    link: Link,
    resp_bytes: u64,
    work: SimDuration,
    performance_loss: u8,
    on_started: DoneCallback,
    on_done: DoneCallback,
}

/// Which of the machine's own events this is: the `aux` of a typed event
/// for its receiver. The payload is a task id or a direct submission's
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A task's work is done at its current rate.
    Finish,
    /// A direct submission reached the agent and was served (or not).
    Request,
    /// Its reply reached the broker (or did not).
    Reply,
}

impl Step {
    fn event(self, payload: u64) -> TypedEvent {
        TypedEvent::new(self as u16, payload)
    }
}

/// Why an interactive submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotError {
    /// All interactive slots are occupied — an interactive job never preempts
    /// another interactive job (§5.2).
    InteractiveBusy,
    /// The batch slot is occupied.
    BatchBusy,
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::InteractiveBusy => write!(f, "interactive slots busy"),
            SlotError::BatchBusy => write!(f, "batch slot busy"),
        }
    }
}

impl std::error::Error for SlotError {}

struct Task {
    id: TaskId,
    /// Remaining work in seconds at rate 1.
    remaining: f64,
    /// Current progress rate.
    rate: f64,
    /// When `remaining` was last brought up to date.
    updated: SimTime,
    finish_event: Option<EventId>,
    on_done: Option<DoneCallback>,
    /// PerformanceLoss carried by interactive tasks.
    pl: u8,
}

struct Inner {
    batch: Option<Task>,
    interactive: Vec<Task>,
    interactive_capacity: usize,
    /// Delivered fraction of nominal share (nice-level approximation).
    share_efficiency: f64,
    next_id: u64,
    /// Was the batch task throttled by co-resident interactives at the
    /// last reschedule? Drives the Preempted/Restored trace transitions.
    batch_throttled: bool,
    /// Lifecycle event sink and this machine's label.
    trace: Option<(EventLog, Arc<str>)>,
    /// Direct submissions on the wire.
    direct: Slab<Direct>,
    /// What the machine's own events reach. It holds the machine, and the
    /// machine holds it only weakly: like the closures it replaces, a
    /// pending event keeps the machine running — a batch task on an agent
    /// that has died still finishes — and nothing is left in a cycle once
    /// no event is pending.
    receiver: Option<WeakReceiver>,
}

/// A worker node split into VM slots. Clones share state.
#[derive(Clone)]
pub struct VmMachine {
    inner: Rc<RefCell<Inner>>,
}

impl VmMachine {
    /// A machine with one batch and one interactive slot (the paper's
    /// configuration) and the given share efficiency.
    pub fn new(share_efficiency: f64) -> Self {
        Self::with_capacity(share_efficiency, 1)
    }

    /// A machine allowing `interactive_capacity` concurrent interactive
    /// tasks (the §5.2 "larger degree of multi-programming" extension).
    pub fn with_capacity(share_efficiency: f64, interactive_capacity: usize) -> Self {
        assert!(
            interactive_capacity >= 1,
            "need at least one interactive slot"
        );
        VmMachine {
            inner: Rc::new(RefCell::new(Inner {
                batch: None,
                interactive: Vec::new(),
                interactive_capacity,
                share_efficiency,
                next_id: 0,
                batch_throttled: false,
                trace: None,
                direct: Slab::default(),
                receiver: None,
            })),
        }
    }

    /// The machine's receiver: the one its pending events hold, or a new
    /// one when none is pending.
    fn receiver(&self) -> Receiver {
        let mut inner = self.inner.borrow_mut();
        if let Some(receiver) = inner.receiver.as_ref().and_then(Weak::upgrade) {
            return receiver;
        }
        let machine = Rc::clone(&self.inner);
        let receiver: Receiver = Rc::new(move |sim, event| {
            let inner = Rc::clone(&machine);
            VmMachine { inner }.on_step(sim, event);
        });
        inner.receiver = Some(Rc::downgrade(&receiver));
        receiver
    }

    /// The receiver of every event the machine schedules for itself.
    fn on_step(&self, sim: &mut Sim, event: TypedEvent) {
        match event.aux {
            a if a == Step::Finish as u16 => self.finish(sim, TaskId(event.payload)),
            a if a == Step::Request as u16 && delivery_outcome(event).is_ok() => {
                // Served: the reply travels back.
                let receiver = self.receiver();
                let (link, bytes) = {
                    let inner = self.inner.borrow();
                    let direct = inner
                        .direct
                        .get(event.payload)
                        .expect("a submission in flight");
                    (direct.link.clone(), direct.resp_bytes)
                };
                let reply = Step::Reply.event(event.payload);
                link.send_event(sim, Dir::BToA, bytes, SimDuration::ZERO, &receiver, reply);
            }
            _ => {
                let direct = self.inner.borrow_mut().direct.remove(event.payload);
                let direct = direct.expect("a submission in flight");
                if delivery_outcome(event).is_err() {
                    // The slot was never taken.
                    (direct.on_done)(sim);
                    return;
                }
                (direct.on_started)(sim);
                let (work, pl) = (direct.work, direct.performance_loss);
                let _ = self.start_interactive(sim, work, pl, direct.on_done);
            }
        }
    }

    /// An interactive task submitted from across `link`: the request
    /// (`req_bytes`, the agent spending `exec_start` on it) goes out, the
    /// reply (`resp_bytes`) comes back, and then the task starts here —
    /// `on_started` first. A lost request or reply calls `on_done` instead,
    /// and the slot is never taken. Two typed events, the exchange in a
    /// slab slot.
    // The exchange's parameters are its call site's, one for one.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_direct(
        &self,
        sim: &mut Sim,
        link: &Link,
        (req_bytes, resp_bytes): (u64, u64),
        exec_start: SimDuration,
        work: SimDuration,
        performance_loss: u8,
        on_started: impl FnOnce(&mut Sim) + 'static,
        on_done: impl FnOnce(&mut Sim) + 'static,
    ) {
        let receiver = self.receiver();
        let slot = self.inner.borrow_mut().direct.insert(Direct {
            link: link.clone(),
            resp_bytes,
            work,
            performance_loss,
            on_started: Box::new(on_started),
            on_done: Box::new(on_done),
        });
        let request = Step::Request.event(slot);
        link.send_event(sim, Dir::AToB, req_bytes, exec_start, &receiver, request);
    }

    /// Direct submissions on the wire: zero once a drained world is idle.
    pub fn direct_in_flight(&self) -> usize {
        self.inner.borrow().direct.len()
    }

    /// Routes this machine's slot transitions into `log` under `machine`,
    /// the label every event shares.
    pub fn set_trace(&self, log: EventLog, machine: impl Into<Arc<str>>) {
        self.inner.borrow_mut().trace = Some((log, machine.into()));
    }

    /// Records a slot event, if tracing is on. Must not be called while
    /// `inner` is borrowed.
    fn trace_event(&self, now: SimTime, make: impl FnOnce(Arc<str>) -> Event) {
        let inner = self.inner.borrow();
        if let Some((log, machine)) = &inner.trace {
            log.record(now, make(Arc::clone(machine)));
        }
    }

    /// Starts a batch task of `work` CPU-seconds in the batch slot.
    pub fn run_batch(
        &self,
        sim: &mut Sim,
        work: SimDuration,
        on_done: impl FnOnce(&mut Sim) + 'static,
    ) -> Result<TaskId, SlotError> {
        {
            let inner = self.inner.borrow();
            if inner.batch.is_some() {
                return Err(SlotError::BatchBusy);
            }
        }
        let id = self.insert_task(sim, work, 0, true, Box::new(on_done));
        self.trace_event(sim.now(), |machine| Event::SlotStarted {
            machine,
            interactive: false,
        });
        self.reschedule(sim);
        Ok(id)
    }

    /// Starts an interactive task; `performance_loss` is the CPU share it
    /// leaves to the batch slot.
    pub fn run_interactive(
        &self,
        sim: &mut Sim,
        work: SimDuration,
        performance_loss: u8,
        on_done: impl FnOnce(&mut Sim) + 'static,
    ) -> Result<TaskId, SlotError> {
        self.start_interactive(sim, work, performance_loss, Box::new(on_done))
    }

    fn start_interactive(
        &self,
        sim: &mut Sim,
        work: SimDuration,
        performance_loss: u8,
        on_done: DoneCallback,
    ) -> Result<TaskId, SlotError> {
        {
            let inner = self.inner.borrow();
            if inner.interactive.len() >= inner.interactive_capacity {
                return Err(SlotError::InteractiveBusy);
            }
        }
        let id = self.insert_task(sim, work, performance_loss, false, on_done);
        self.trace_event(sim.now(), |machine| Event::SlotStarted {
            machine,
            interactive: true,
        });
        self.reschedule(sim);
        Ok(id)
    }

    /// Cancels a task (job kill). Returns whether it was running here.
    pub fn cancel(&self, sim: &mut Sim, id: TaskId) -> bool {
        let mut inner = self.inner.borrow_mut();
        let mut found = false;
        if inner.batch.as_ref().is_some_and(|t| t.id == id) {
            let t = inner.batch.take().expect("checked");
            if let Some(ev) = t.finish_event {
                sim.cancel(ev);
            }
            found = true;
        } else if let Some(pos) = inner.interactive.iter().position(|t| t.id == id) {
            let t = inner.interactive.remove(pos);
            if let Some(ev) = t.finish_event {
                sim.cancel(ev);
            }
            found = true;
        }
        drop(inner);
        if found {
            self.reschedule(sim);
        }
        found
    }

    /// Cancels every interactive task (user abort of the job using the
    /// slot). Returns how many were cancelled; their completion callbacks
    /// never fire. The batch slot speeds back up.
    pub fn cancel_all_interactive(&self, sim: &mut Sim) -> usize {
        let ids: Vec<TaskId> = self
            .inner
            .borrow()
            .interactive
            .iter()
            .map(|t| t.id)
            .collect();
        let mut n = 0;
        for id in ids {
            if self.cancel(sim, id) {
                n += 1;
            }
        }
        n
    }

    /// Is the batch slot free?
    pub fn batch_free(&self) -> bool {
        self.inner.borrow().batch.is_none()
    }

    /// Number of free interactive slots.
    pub fn interactive_free(&self) -> usize {
        let inner = self.inner.borrow();
        inner.interactive_capacity - inner.interactive.len()
    }

    /// Current rate of the batch task (1.0 alone, throttled when sharing).
    pub fn batch_rate(&self) -> Option<f64> {
        self.inner.borrow().batch.as_ref().map(|t| t.rate)
    }

    fn insert_task(
        &self,
        sim: &mut Sim,
        work: SimDuration,
        pl: u8,
        is_batch: bool,
        on_done: DoneCallback,
    ) -> TaskId {
        let mut inner = self.inner.borrow_mut();
        let id = TaskId(inner.next_id);
        inner.next_id += 1;
        let task = Task {
            id,
            remaining: work.as_secs_f64(),
            rate: 0.0,
            updated: sim.now(),
            finish_event: None,
            on_done: Some(on_done),
            pl,
        };
        if is_batch {
            inner.batch = Some(task);
        } else {
            inner.interactive.push(task);
        }
        id
    }

    /// Brings progress up to date, recomputes rates, reschedules finishes.
    fn reschedule(&self, sim: &mut Sim) {
        let now = sim.now();
        let mut inner = self.inner.borrow_mut();

        // 1. Progress everything at its old rate.
        let advance = |t: &mut Task, now: SimTime| {
            let dt = now.saturating_since(t.updated).as_secs_f64();
            t.remaining = (t.remaining - dt * t.rate).max(0.0);
            t.updated = now;
        };
        if let Some(b) = inner.batch.as_mut() {
            advance(b, now);
        }
        for t in &mut inner.interactive {
            advance(t, now);
        }

        // 2. New rates.
        let eff = inner.share_efficiency;
        let n_iv = inner.interactive.len();
        let batch_present = inner.batch.is_some();
        let batch_share = if n_iv == 0 {
            1.0
        } else {
            // The batch slot keeps eff × max(PL) of the CPU.
            let max_pl = inner.interactive.iter().map(|t| t.pl).max().unwrap_or(0);
            share(eff, max_pl)
        };
        let iv_share_total = if batch_present {
            1.0 - batch_share
        } else {
            1.0
        };
        let iv_rate = if n_iv == 0 {
            0.0
        } else {
            iv_share_total / n_iv as f64
        };
        if let Some(b) = inner.batch.as_mut() {
            b.rate = batch_share;
        }
        for t in &mut inner.interactive {
            t.rate = iv_rate;
        }

        // Trace the throttle transitions ("the original priority of the
        // batch job is restored").
        let now_throttled = batch_present && n_iv > 0;
        let was_throttled = inner.batch_throttled;
        inner.batch_throttled = now_throttled;
        let preempted = now_throttled && !was_throttled;
        let restored = batch_present && was_throttled && !now_throttled;

        // 3. Reschedule finish events.
        let mut plan: Vec<(TaskId, Option<EventId>, f64, f64)> = Vec::new();
        if let Some(b) = inner.batch.as_ref() {
            plan.push((b.id, b.finish_event, b.remaining, b.rate));
        }
        for t in &inner.interactive {
            plan.push((t.id, t.finish_event, t.remaining, t.rate));
        }
        drop(inner);
        // Held across the cancels below, so that cancelling the last pending
        // event does not let the receiver go just before it is needed again.
        let receiver = (!plan.is_empty()).then(|| self.receiver());
        if preempted {
            let pct = (batch_share * 100.0).round() as u32;
            self.trace_event(now, |machine| Event::SlotPreempted {
                machine,
                batch_rate_pct: pct,
            });
        }
        if restored {
            self.trace_event(now, |machine| Event::SlotRestored { machine });
        }
        for (id, old_event, remaining, rate) in plan {
            if let Some(ev) = old_event {
                sim.cancel(ev);
            }
            let new_event = match &receiver {
                Some(receiver) if rate > 0.0 => {
                    let eta = SimDuration::from_secs_f64(remaining / rate);
                    Some(sim.schedule_event_in(eta, receiver, Step::Finish.event(id.0)))
                }
                _ => None,
            };
            let mut inner = self.inner.borrow_mut();
            if let Some(b) = inner.batch.as_mut() {
                if b.id == id {
                    b.finish_event = new_event;
                    continue;
                }
            }
            if let Some(t) = inner.interactive.iter_mut().find(|t| t.id == id) {
                t.finish_event = new_event;
            }
        }
    }

    fn finish(&self, sim: &mut Sim, id: TaskId) {
        let mut inner = self.inner.borrow_mut();
        let was_batch = inner.batch.as_ref().is_some_and(|t| t.id == id);
        let task = if was_batch {
            inner.batch.take()
        } else {
            inner
                .interactive
                .iter()
                .position(|t| t.id == id)
                .map(|pos| inner.interactive.remove(pos))
        };
        drop(inner);
        let Some(mut task) = task else { return };
        self.trace_event(sim.now(), |machine| Event::SlotFinished {
            machine,
            interactive: !was_batch,
        });
        if let Some(cb) = task.on_done.take() {
            cb(sim);
        }
        // Survivors speed back up ("original priority … restored").
        self.reschedule(sim);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    /// A shared slot emits Started/Preempted/Restored/Finished in order and
    /// tracing does not perturb the GPS numerics.
    #[test]
    fn slot_lifecycle_is_traced() {
        let mut sim = Sim::new(1);
        let log = EventLog::new(256);
        let vm = VmMachine::new(0.5);
        vm.set_trace(log.clone(), "wn0");
        vm.run_batch(&mut sim, SimDuration::from_secs(100), |_| {})
            .unwrap();
        sim.run_until(SimTime::from_secs(10));
        vm.run_interactive(&mut sim, SimDuration::from_secs(30), 50, |_| {})
            .unwrap();
        sim.run();
        let kinds: Vec<&str> = log.snapshot().iter().map(|e| e.event.kind()).collect();
        assert_eq!(
            kinds,
            [
                "SlotStarted",   // batch
                "SlotStarted",   // interactive
                "SlotPreempted", // batch throttled to eff × PL
                "SlotFinished",  // interactive done
                "SlotRestored",  // batch back to full rate
                "SlotFinished",  // batch done
            ]
        );
        let events = log.snapshot();
        match &events[2].event {
            Event::SlotPreempted { batch_rate_pct, .. } => {
                // eff 0.5 × PL 50% = 25% of one CPU.
                assert_eq!(*batch_rate_pct, 25);
            }
            other => panic!("expected SlotPreempted, got {:?}", other.kind()),
        }
        // Interactive: 30 s of work at rate 0.75 → finishes 40 s in.
        assert_eq!(events[3].at, SimTime::from_secs(50));
        // Batch: 10 s at 1.0 + 40 s at 0.25 = 20 s done; 80 left at 1.0.
        assert_eq!(events[5].at, SimTime::from_secs(130));
    }

    /// Cancelling the last interactive restores the batch rate (traced),
    /// without a Finished event for the cancelled task.
    #[test]
    fn cancel_traces_restore_only() {
        let mut sim = Sim::new(1);
        let log = EventLog::new(256);
        let vm = VmMachine::new(0.5);
        vm.set_trace(log.clone(), "wn1");
        vm.run_batch(&mut sim, SimDuration::from_secs(1000), |_| {})
            .unwrap();
        let iv = vm
            .run_interactive(&mut sim, SimDuration::from_secs(500), 40, |_| {})
            .unwrap();
        sim.run_until(SimTime::from_secs(5));
        assert!(vm.cancel(&mut sim, iv));
        let kinds: Vec<&str> = log.snapshot().iter().map(|e| e.event.kind()).collect();
        assert_eq!(
            kinds,
            [
                "SlotStarted",
                "SlotStarted",
                "SlotPreempted",
                "SlotRestored"
            ]
        );
        assert_eq!(vm.batch_rate(), Some(1.0));
    }
}

impl std::fmt::Debug for VmMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("VmMachine")
            .field("batch_busy", &inner.batch.is_some())
            .field("interactive", &inner.interactive.len())
            .field("capacity", &inner.interactive_capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<(&'static str, f64)>>>;

    fn done(log: &Log, tag: &'static str) -> impl FnOnce(&mut Sim) {
        let log = Rc::clone(log);
        move |sim| log.borrow_mut().push((tag, sim.now().as_secs_f64()))
    }

    #[test]
    fn batch_alone_runs_at_full_rate() {
        let mut sim = Sim::new(1);
        let vm = VmMachine::new(1.0);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        vm.run_batch(&mut sim, SimDuration::from_secs(100), done(&log, "batch"))
            .unwrap();
        assert_eq!(vm.batch_rate(), Some(1.0));
        sim.run();
        assert_eq!(*log.borrow(), vec![("batch", 100.0)]);
        assert!(vm.batch_free());
    }

    #[test]
    fn interactive_throttles_batch_then_priority_restored() {
        // eff = 1.0 for round numbers. Batch 100 s work; at t=10 an
        // interactive job (50 s work, PL=20) arrives:
        //   interactive rate 0.8 → finishes at 10 + 62.5 = 72.5
        //   batch: 10 s done, then rate 0.2 for 62.5 s → 12.5 more done,
        //   77.5 s left at rate 1 → finishes at 150.
        let mut sim = Sim::new(1);
        let vm = VmMachine::new(1.0);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        vm.run_batch(&mut sim, SimDuration::from_secs(100), done(&log, "batch"))
            .unwrap();
        {
            let vm2 = vm.clone();
            let log2 = Rc::clone(&log);
            sim.schedule_at(SimTime::from_secs(10), move |sim| {
                vm2.run_interactive(sim, SimDuration::from_secs(50), 20, done(&log2, "iv"))
                    .unwrap();
                assert_eq!(vm2.batch_rate(), Some(0.2));
            });
        }
        sim.run();
        let log = log.borrow();
        assert_eq!(log[0].0, "iv");
        assert!((log[0].1 - 72.5).abs() < 1e-6, "iv at {}", log[0].1);
        assert_eq!(log[1].0, "batch");
        assert!((log[1].1 - 150.0).abs() < 1e-6, "batch at {}", log[1].1);
    }

    #[test]
    fn pl_zero_stops_batch_entirely_while_shared() {
        let mut sim = Sim::new(1);
        let vm = VmMachine::new(1.0);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        vm.run_batch(&mut sim, SimDuration::from_secs(10), done(&log, "batch"))
            .unwrap();
        vm.run_interactive(&mut sim, SimDuration::from_secs(100), 0, done(&log, "iv"))
            .unwrap();
        assert_eq!(vm.batch_rate(), Some(0.0));
        sim.run();
        // Batch makes zero progress until the interactive job ends at 100,
        // then needs its full 10 s.
        assert_eq!(log.borrow()[0], ("iv", 100.0));
        assert_eq!(log.borrow()[1], ("batch", 110.0));
    }

    #[test]
    fn share_efficiency_scales_batch_rate() {
        let mut sim = Sim::new(1);
        let vm = VmMachine::new(0.92);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        vm.run_batch(&mut sim, SimDuration::from_secs(1_000), done(&log, "b"))
            .unwrap();
        vm.run_interactive(&mut sim, SimDuration::from_secs(10), 25, done(&log, "i"))
            .unwrap();
        let rate = vm.batch_rate().unwrap();
        assert!((rate - 0.92 * 0.25).abs() < 1e-12, "rate {rate}");
    }

    #[test]
    fn second_interactive_rejected_at_default_capacity() {
        let mut sim = Sim::new(1);
        let vm = VmMachine::new(1.0);
        vm.run_interactive(&mut sim, SimDuration::from_secs(10), 10, |_| {})
            .unwrap();
        let err = vm
            .run_interactive(&mut sim, SimDuration::from_secs(10), 10, |_| {})
            .unwrap_err();
        assert_eq!(err, SlotError::InteractiveBusy);
        assert_eq!(vm.interactive_free(), 0);
    }

    #[test]
    fn higher_capacity_splits_the_interactive_share() {
        let mut sim = Sim::new(1);
        let vm = VmMachine::with_capacity(1.0, 2);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        // No batch job: two interactive tasks of 50 s work each share the
        // CPU → both finish at 100 s.
        vm.run_interactive(&mut sim, SimDuration::from_secs(50), 0, done(&log, "a"))
            .unwrap();
        vm.run_interactive(&mut sim, SimDuration::from_secs(50), 0, done(&log, "b"))
            .unwrap();
        sim.run();
        let log = log.borrow();
        assert!((log[0].1 - 100.0).abs() < 1e-6);
        assert!((log[1].1 - 100.0).abs() < 1e-6);
    }

    #[test]
    fn batch_slot_busy_rejected() {
        let mut sim = Sim::new(1);
        let vm = VmMachine::new(1.0);
        vm.run_batch(&mut sim, SimDuration::from_secs(10), |_| {})
            .unwrap();
        assert_eq!(
            vm.run_batch(&mut sim, SimDuration::from_secs(10), |_| {})
                .unwrap_err(),
            SlotError::BatchBusy
        );
    }

    #[test]
    fn cancel_frees_slot_and_restores_rates() {
        let mut sim = Sim::new(1);
        let vm = VmMachine::new(1.0);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        vm.run_batch(&mut sim, SimDuration::from_secs(100), done(&log, "batch"))
            .unwrap();
        let iv = vm
            .run_interactive(
                &mut sim,
                SimDuration::from_secs(1_000),
                10,
                done(&log, "iv"),
            )
            .unwrap();
        sim.run_until(SimTime::from_secs(10));
        assert!(vm.cancel(&mut sim, iv));
        assert!(!vm.cancel(&mut sim, iv), "second cancel is a no-op");
        sim.run();
        // Batch: 10 s at rate 0.1 (1 s done) + 99 s at rate 1 → ends at 109.
        let log = log.borrow();
        assert_eq!(log.len(), 1, "cancelled task's callback never fires");
        assert_eq!(log[0].0, "batch");
        assert!((log[0].1 - 109.0).abs() < 1e-6, "batch at {}", log[0].1);
    }

    #[test]
    fn zero_work_interactive_finishes_immediately() {
        let mut sim = Sim::new(1);
        let vm = VmMachine::new(1.0);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        vm.run_interactive(&mut sim, SimDuration::ZERO, 10, done(&log, "iv"))
            .unwrap();
        sim.run();
        assert_eq!(*log.borrow(), vec![("iv", 0.0)]);
    }
}
