//! Property tests for the simulation engine's core invariants.

use cg_sim::{EventId, Receiver, RunOutcome, Sim, SimDuration, SimTime, TypedEvent};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

// ── The queue differential: `Sim` against a sorted map ──────────────────
//
// Both sides interpret one generated program: outer steps between runs,
// and a handler script per event that schedules and cancels from inside
// the event loop. An event's tag is its creation index, which is also the
// `seq` the kernel must have given it. Every third event the real side
// schedules is a typed one, whose handler runs the same script a closure
// would: the model cannot tell the two apart, and neither may the order.
//
// A program runs at one of two scales. The narrow one draws delays of a few
// nanoseconds, so instants tie all the time. The wide one draws them from
// 1 ns to days, piles up thousands of far-future events (and same-instant
// ties among them), cancels among the piles and stops its runs between
// distant events: the radix queue files a key by the highest bit where it
// differs from the last key taken out, and only delays of every magnitude
// reach every bucket, and the refiling of each.

/// One step of a handler script or of the outer loop.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `schedule_in` this many nanoseconds.
    ScheduleIn(u64),
    /// `count` schedule calls at `delay`, `delay + 1` and `delay + 2` ns in
    /// turn: a pile-up of same-instant ties.
    Burst { count: usize, delay: u64 },
    /// Cancel the event created `n`-th (mod the number created so far):
    /// live, fired or already cancelled, possibly due at this very instant.
    Cancel(usize),
    /// Cancel one of the eight most recently created events, which are
    /// the ones most likely still pending.
    CancelRecent(usize),
    /// Inside a handler: cancel the event created this many after the
    /// running one — in a pile-up, a sibling due at or just after now.
    CancelLater(usize),
    /// Inside a handler: cancel the running event itself.
    CancelSelf,
}

#[derive(Debug, Clone, Copy)]
enum Scale {
    Narrow,
    Wide,
}

impl Scale {
    /// Events created per case are capped so that scripts which schedule
    /// more than they retire still terminate.
    fn cap(self) -> usize {
        match self {
            Scale::Narrow => 400,
            Scale::Wide => 6_000,
        }
    }

    /// A delay of 1 ns to 6.5 days, with a little jitter.
    fn wide(arg: u64) -> u64 {
        (1 << (arg % 50)) + (arg >> 60)
    }

    /// A handler script's step, or (`outer`) one the outer loop takes between
    /// runs. Out there delays reach past the run horizons below, so that
    /// events pile up, and `CancelSelf` / `CancelLater` find no running
    /// event and do nothing.
    fn op(self, outer: bool, (kind, arg): (u8, u64)) -> Op {
        match (self, kind) {
            (Scale::Narrow, 0..=2) => Op::ScheduleIn(arg % if outer { 64 } else { 12 }),
            (Scale::Wide, 0 | 1) => Op::ScheduleIn(Scale::wide(arg)),
            (Scale::Wide, 2) => Op::Burst {
                count: 1 + (arg >> 8) as usize % if outer { 2_048 } else { 64 },
                delay: Scale::wide(arg),
            },
            (_, 3) => Op::Cancel(arg as usize),
            (_, 4 | 5) => Op::CancelRecent(arg as usize),
            (Scale::Wide, 6) => Op::CancelLater(1 + arg as usize % 4),
            _ => Op::CancelSelf,
        }
    }

    /// How far past `now` a partial run stops.
    fn horizon(self, arg: u64) -> u64 {
        match self {
            Scale::Narrow => arg % 16,
            Scale::Wide => Scale::wide(arg),
        }
    }

    /// How many more events a budgeted run may fire.
    fn budget(self, arg: u64) -> u64 {
        match self {
            Scale::Narrow => arg % 8,
            Scale::Wide => arg % 256,
        }
    }
}

/// What both sides interpret: the scale, and the handler script of the
/// event tagged `tag`, which is `scripts[tag % scripts.len()]`.
struct Program {
    scale: Scale,
    scripts: Vec<Vec<Op>>,
}

/// What the two sides must agree on, in order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Obs {
    Fired { tag: usize, at: u64 },
    Cancel { tag: usize, hit: bool },
    Pending(usize),
}

trait Kernel {
    fn now(&self) -> u64;
    fn pending(&self) -> usize;
    fn created(&self) -> usize;
    fn schedule_in(&mut self, program: &Rc<Program>, delay: u64);
    fn cancel(&mut self, tag: usize) -> bool;
    fn log(&mut self, obs: Obs);
}

fn apply<K: Kernel>(k: &mut K, program: &Rc<Program>, running: Option<usize>, op: Op) {
    let room = program.scale.cap().saturating_sub(k.created());
    let target = match op {
        Op::ScheduleIn(delay) => {
            if room > 0 {
                k.schedule_in(program, delay);
            }
            None
        }
        Op::Burst { count, delay } => {
            for i in 0..count.min(room) {
                k.schedule_in(program, delay + i as u64 % 3);
            }
            None
        }
        Op::Cancel(n) => (k.created() > 0).then(|| n % k.created()),
        Op::CancelRecent(n) => (k.created() > 0).then(|| k.created() - 1 - n % k.created().min(8)),
        Op::CancelLater(n) => running.map(|tag| tag + n).filter(|tag| *tag < k.created()),
        Op::CancelSelf => running,
    };
    if let Some(tag) = target {
        let hit = k.cancel(tag);
        k.log(Obs::Cancel { tag, hit });
    }
    let pending = k.pending();
    k.log(Obs::Pending(pending));
}

fn fire<K: Kernel>(k: &mut K, program: &Rc<Program>, tag: usize) {
    let at = k.now();
    k.log(Obs::Fired { tag, at });
    for &op in &program.scripts[tag % program.scripts.len()] {
        apply(k, program, Some(tag), op);
    }
}

#[derive(Default)]
struct RealState {
    ids: Vec<EventId>,
    log: Vec<Obs>,
    receiver: Option<Receiver>,
}

/// The kernel under test, as the outer loop and as a running handler see it.
struct Real<'a> {
    sim: &'a mut Sim,
    state: &'a Rc<RefCell<RealState>>,
    /// Receives the typed events; their payload is the tag.
    receiver: Receiver,
}

impl Kernel for Real<'_> {
    fn now(&self) -> u64 {
        self.sim.now().as_nanos()
    }
    fn pending(&self) -> usize {
        self.sim.pending()
    }
    fn created(&self) -> usize {
        self.state.borrow().ids.len()
    }
    fn schedule_in(&mut self, program: &Rc<Program>, delay: u64) {
        let tag = self.created();
        let (program, state) = (Rc::clone(program), Rc::clone(self.state));
        let receiver = Rc::clone(&self.receiver);
        let action = move |sim: &mut Sim| {
            let state = &state;
            fire(
                &mut Real {
                    sim,
                    state,
                    receiver,
                },
                &program,
                tag,
            );
        };
        let event = TypedEvent {
            tag: tag as u8,
            aux: (tag >> 8) as u16,
            payload: tag as u64,
        };
        let at = self.sim.now() + SimDuration::from_nanos(delay);
        // The five ways in are one way in.
        let id = match (tag % 3, delay) {
            (2, _) if tag.is_multiple_of(2) => {
                self.sim
                    .schedule_event_in(SimDuration::from_nanos(delay), &self.receiver, event)
            }
            (2, _) => self.sim.schedule_event_at(at, &self.receiver, event),
            (_, 0) => self.sim.schedule_now(action),
            _ if tag.is_multiple_of(2) => {
                self.sim.schedule_in(SimDuration::from_nanos(delay), action)
            }
            _ => self.sim.schedule_at(at, action),
        };
        assert_eq!(id.raw(), tag as u64, "every schedule call consumes one seq");
        self.state.borrow_mut().ids.push(id);
    }
    fn cancel(&mut self, tag: usize) -> bool {
        let id = self.state.borrow().ids[tag];
        self.sim.cancel(id)
    }
    fn log(&mut self, obs: Obs) {
        self.state.borrow_mut().log.push(obs);
    }
}

/// The reference: pending events in a map sorted by `(time, seq)`.
#[derive(Default)]
struct Model {
    now: u64,
    executed: u64,
    queue: BTreeMap<(u64, u64), usize>,
    /// Per tag: when it is due, while it is pending.
    due: Vec<Option<u64>>,
    log: Vec<Obs>,
}

impl Kernel for Model {
    fn now(&self) -> u64 {
        self.now
    }
    fn pending(&self) -> usize {
        self.queue.len()
    }
    fn created(&self) -> usize {
        self.due.len()
    }
    fn schedule_in(&mut self, _: &Rc<Program>, delay: u64) {
        let tag = self.due.len();
        let at = self.now + delay;
        self.queue.insert((at, tag as u64), tag);
        self.due.push(Some(at));
    }
    fn cancel(&mut self, tag: usize) -> bool {
        match self.due[tag].take() {
            Some(at) => self.queue.remove(&(at, tag as u64)).is_some(),
            None => false,
        }
    }
    fn log(&mut self, obs: Obs) {
        self.log.push(obs);
    }
}

impl Model {
    fn run_until(&mut self, program: &Rc<Program>, horizon: u64, budget: u64) -> RunOutcome {
        loop {
            let Some((&(at, seq), &tag)) = self.queue.first_key_value() else {
                return RunOutcome::Drained;
            };
            if at > horizon {
                self.now = horizon;
                return RunOutcome::HorizonReached;
            }
            if self.executed >= budget {
                return RunOutcome::BudgetExhausted;
            }
            self.queue.remove(&(at, seq));
            self.due[tag] = None;
            self.now = at;
            self.executed += 1;
            fire(self, program, tag);
        }
    }
}

/// Compares what both sides logged since the last call, then forgets it.
fn assert_agree(sim: &Sim, real: &mut RealState, model: &mut Model) {
    assert_eq!(real.log, model.log);
    assert_eq!(sim.now().as_nanos(), model.now);
    assert_eq!(sim.pending(), model.queue.len());
    assert_eq!(sim.events_executed(), model.executed);
    real.log.clear();
    model.log.clear();
}

/// Runs one generated program on `Sim` and on the model, step by step: the
/// kernel must fire the same events in the same order as the sorted map,
/// answer every `cancel` the same way, and count the same events as pending
/// after every step.
fn differential(scale: Scale, scripts: Vec<Vec<(u8, u64)>>, steps: Vec<(u8, u64)>) {
    let program = Rc::new(Program {
        scale,
        scripts: scripts
            .into_iter()
            .map(|s| s.into_iter().map(|op| scale.op(false, op)).collect())
            .collect(),
    });
    let mut sim = Sim::new(0);
    let state = Rc::new(RefCell::new(RealState::default()));
    // The receiver reaches itself through the state it logs into: a cycle,
    // which a test can afford.
    let receiver: Receiver = {
        let (program, state) = (Rc::clone(&program), Rc::clone(&state));
        Rc::new(move |sim, event| {
            let tag = event.payload as usize;
            assert_eq!((event.tag, event.aux), (tag as u8, (tag >> 8) as u16));
            let receiver = state.borrow().receiver.clone().expect("set below");
            let state = &state;
            fire(
                &mut Real {
                    sim,
                    state,
                    receiver,
                },
                &program,
                tag,
            );
        })
    };
    state.borrow_mut().receiver = Some(Rc::clone(&receiver));
    let mut model = Model::default();
    for (kind, arg) in steps {
        let mut real = Real {
            sim: &mut sim,
            state: &state,
            receiver: Rc::clone(&receiver),
        };
        match kind {
            0..=7 => {
                let op = scale.op(true, (kind, arg));
                apply(&mut real, &program, None, op);
                apply(&mut model, &program, None, op);
            }
            8..=10 => {
                let horizon = model.now.saturating_add(scale.horizon(arg));
                assert_eq!(
                    sim.run_until(SimTime::from_nanos(horizon)),
                    model.run_until(&program, horizon, u64::MAX)
                );
            }
            11 | 12 => {
                let budget = model.executed + scale.budget(arg);
                sim.set_event_budget(budget);
                assert_eq!(sim.run(), model.run_until(&program, u64::MAX, budget));
                sim.set_event_budget(u64::MAX);
            }
            _ => {
                // `step` is a run with room for one more event.
                let before = model.executed;
                model.run_until(&program, u64::MAX, before + 1);
                assert_eq!(sim.step(), model.executed > before);
            }
        }
        assert_agree(&sim, &mut state.borrow_mut(), &mut model);
    }
    assert_eq!(sim.run(), model.run_until(&program, u64::MAX, u64::MAX));
    assert_agree(&sim, &mut state.borrow_mut(), &mut model);
    assert_eq!(sim.pending(), 0);
}

proptest! {
    /// Random interleavings of scheduling, cancelling (from the outer loop and
    /// from inside handlers) and partial runs, with delays of a few
    /// nanoseconds: instants tie all the time.
    #[test]
    fn queue_matches_a_sorted_map(
        scripts in prop::collection::vec(prop::collection::vec((0u8..8, any::<u64>()), 0..4), 1..6),
        steps in prop::collection::vec((0u8..14, any::<u64>()), 1..80),
    ) {
        differential(Scale::Narrow, scripts, steps);
    }

    /// The same, with delays from 1 ns to days, pile-ups of thousands of
    /// far-future events, cancels among them before and after their bucket
    /// is refiled, and runs that stop between distant events.
    #[test]
    fn queue_matches_a_sorted_map_across_every_bucket(
        scripts in prop::collection::vec(prop::collection::vec((0u8..8, any::<u64>()), 0..4), 1..6),
        steps in prop::collection::vec((0u8..14, any::<u64>()), 1..80),
    ) {
        differential(Scale::Wide, scripts, steps);
    }

    /// Events always execute in nondecreasing time order, whatever the
    /// schedule pattern, including events scheduled from inside handlers.
    #[test]
    fn execution_order_is_monotone(delays in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut sim = Sim::new(0);
        let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for &d in &delays {
            let times = Rc::clone(&times);
            sim.schedule_in(SimDuration::from_nanos(d), move |sim| {
                times.borrow_mut().push(sim.now().as_nanos());
                // Half the handlers schedule a follow-up.
                if d % 2 == 0 {
                    let times = Rc::clone(&times);
                    sim.schedule_in(SimDuration::from_nanos(d / 2 + 1), move |sim| {
                        times.borrow_mut().push(sim.now().as_nanos());
                    });
                }
            });
        }
        sim.run();
        let times = times.borrow();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The clock after a drained run equals the max scheduled instant.
    #[test]
    fn final_clock_is_latest_event(delays in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let mut sim = Sim::new(0);
        for &d in &delays {
            sim.schedule_in(SimDuration::from_nanos(d), |_| {});
        }
        sim.run();
        prop_assert_eq!(sim.now().as_nanos(), *delays.iter().max().unwrap());
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn cancellation_is_exact(spec in prop::collection::vec((0u64..10_000, any::<bool>()), 1..100)) {
        let mut sim = Sim::new(0);
        let fired: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let mut cancel_ids = Vec::new();
        let mut kept = Vec::new();
        for (i, &(d, cancel)) in spec.iter().enumerate() {
            let fired = Rc::clone(&fired);
            let id = sim.schedule_in(SimDuration::from_nanos(d), move |_| {
                fired.borrow_mut().push(i);
            });
            if cancel {
                cancel_ids.push(id);
            } else {
                kept.push(i);
            }
        }
        for id in cancel_ids {
            prop_assert!(sim.cancel(id));
        }
        sim.run();
        let mut got = fired.borrow().clone();
        got.sort_unstable();
        prop_assert_eq!(got, kept);
    }

    /// Same seed, same model: identical event count and final clock.
    /// Different seeds: the randomized model diverges (almost surely).
    #[test]
    fn determinism_under_seed(seed in any::<u64>(), n in 1u32..50) {
        fn run(seed: u64, n: u32) -> (u64, SimTime) {
            let mut sim = Sim::new(seed);
            fn arrival(sim: &mut Sim, left: u32) {
                if left == 0 { return; }
                let d = sim.rng().exp(1.0);
                sim.schedule_in(d, move |sim| arrival(sim, left - 1));
            }
            sim.schedule_now(move |sim| arrival(sim, n));
            sim.run();
            (sim.events_executed(), sim.now())
        }
        prop_assert_eq!(run(seed, n), run(seed, n));
    }

    /// Horizon splitting is transparent: running to t then to the end visits
    /// the same number of events as running straight through.
    #[test]
    fn run_until_composes(delays in prop::collection::vec(0u64..1_000, 1..100), split in 0u64..1_000) {
        let build = |sim: &mut Sim, delays: &[u64]| {
            for &d in delays {
                sim.schedule_in(SimDuration::from_nanos(d), |_| {});
            }
        };
        let mut whole = Sim::new(0);
        build(&mut whole, &delays);
        whole.run();

        let mut split_sim = Sim::new(0);
        build(&mut split_sim, &delays);
        split_sim.run_until(SimTime::from_nanos(split));
        split_sim.run();

        prop_assert_eq!(whole.events_executed(), split_sim.events_executed());
        prop_assert_eq!(whole.now().as_nanos(), split_sim.now().as_nanos());
    }
}
