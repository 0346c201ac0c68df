//! The event loop.
//!
//! [`Sim`] owns a priority queue of scheduled events. A pending event is a
//! [`Receiver`] — an `Rc<dyn Fn(&mut Sim, TypedEvent)>` — and the
//! [`TypedEvent`] it will be handed: a tag byte, sixteen `aux` bits and a
//! 64-bit payload. A component builds its receiver once, holding a `Weak`
//! to its own state, and schedules every event it sends itself against it
//! ([`Sim::schedule_event_at`]): a clone of an `Rc`, no allocation. A
//! closure ([`Sim::schedule_at`]) rides the same slot as a one-shot
//! receiver, so set-up code, tests and baselines can still schedule any
//! `FnOnce(&mut Sim)`; each one costs an allocation, and
//! [`Sim::boxed_scheduled`] counts them. Ties in time break on the
//! monotonically increasing sequence number, which makes the execution order
//! a pure function of the schedule calls — runs with the same seed are
//! identical.
//!
//! A receiver is named by the event itself, not by an index into a table
//! the `Sim` keeps, so any component can schedule typed events — one built
//! without a `Sim` in reach, like a gatekeeper or an LRMS, and a thousand
//! of them, where a one-byte handler id ran out at 255.
//!
//! The queue is a monotone radix queue (a radix heap: Ahuja, Mehlhorn, Orlin
//! and Tarjan, 1990) of `(time, seq, slot)` keys over a slab of actions. It
//! relies on what the kernel guarantees anyway: no event is scheduled in the
//! past and `seq` only grows, so every key it receives is later than the
//! last one it handed out. A key is filed in one of 129 buckets by the
//! highest bit where it differs from that last key; scheduling is a `Vec`
//! push, and firing scans the lowest non-empty bucket and files the rest of
//! it one level down. Every slab slot knows its key's bucket and index, so
//! [`Sim::cancel`] removes an event — key, slot and receiver — at once, in
//! O(1): a cancelled event leaves nothing behind to skip or to sweep later.
//! Every `schedule_*` call, closure or typed, consumes a `seq` whether or not
//! the event is later cancelled, so the events that do fire, fire in the
//! `(time, seq)` order of their schedule calls.

use std::cell::Cell;
use std::rc::Rc;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Handle for a scheduled event, usable to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    seq: u64,
    /// Where the event's action lives while it is pending. Slots are reused;
    /// `seq` never is, which is what tells a live handle from a stale one.
    slot: u32,
}

impl EventId {
    /// The raw sequence number (unique per simulation run).
    pub fn raw(self) -> u64 {
        self.seq
    }
}

/// The receiver of [`TypedEvent`]s: what a component builds once and hands
/// to every event it schedules for itself. It reaches the component's state
/// through a `Weak`, so a pending event never keeps its component alive.
pub type Receiver = Rc<dyn Fn(&mut Sim, TypedEvent)>;

/// An event that is data, not a closure: scheduling one allocates nothing.
/// When it fires, the [`Receiver`] it was scheduled for gets it back
/// unchanged; what `tag`, `aux` and `payload` mean is between the scheduler
/// and that receiver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypedEvent {
    /// Eight payload bits.
    pub tag: u8,
    /// Sixteen payload bits.
    pub aux: u16,
    /// Sixty-four payload bits.
    pub payload: u64,
}

impl TypedEvent {
    /// The event a component schedules for itself: what it is in `aux`, the
    /// slot or value it concerns in `payload`, and `tag` left to whoever
    /// delivers it (`cg-net` writes a message's outcome there).
    pub const fn new(aux: u16, payload: u64) -> TypedEvent {
        TypedEvent {
            tag: 0,
            aux,
            payload,
        }
    }
}

/// A closure as a one-shot receiver: the first call runs it, and nothing
/// calls it twice — a slot's receiver is taken out of the slot to fire.
fn once(action: impl FnOnce(&mut Sim) + 'static) -> Receiver {
    let action = Cell::new(Some(action));
    Rc::new(move |sim, _| {
        if let Some(action) = action.take() {
            action(sim);
        }
    })
}

/// One queue entry: when the event is due, and its id — the `seq` that
/// breaks ties in time and the slab slot holding the action. Keys are
/// compared in place, never through the slab.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    id: EventId,
}

impl Key {
    /// `(time, seq)` as one integer: "earlier" is a single comparison, and
    /// the highest bit where two keys differ is what files a key in the
    /// queue.
    fn order(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.id.seq)
    }
}

/// One slab slot: the receiver of a pending event and the event's three
/// payload fields. `link` is where the event's key sits while the slot is
/// live — its bucket in the top eight bits, its index in that bucket in the
/// low [`INDEX_BITS`] — and the next free slot (or [`NO_SLOT`]) while it is
/// free. A closure is a one-shot receiver whose payload is zero; a free
/// slot has no receiver, and no live key points at one.
struct Slot {
    receiver: Option<Receiver>,
    payload: u64,
    link: u32,
    tag: u8,
    aux: u16,
}

impl Slot {
    fn new(receiver: Receiver, event: TypedEvent) -> Slot {
        Slot {
            receiver: Some(receiver),
            payload: event.payload,
            link: 0,
            tag: event.tag,
            aux: event.aux,
        }
    }

    fn free(next: u32) -> Slot {
        Slot {
            receiver: None,
            payload: 0,
            link: next,
            tag: 0,
            aux: 0,
        }
    }

    fn event(&self) -> TypedEvent {
        TypedEvent {
            tag: self.tag,
            aux: self.aux,
            payload: self.payload,
        }
    }
}

const NO_SLOT: u32 = u32::MAX;

/// One bucket per bit of the 128-bit order, plus bucket 0 for a key equal
/// to the last one taken out.
const BUCKETS: usize = 129;

/// The low bits of a live slot's `link`: the key's index in its bucket. The
/// eight bits above hold the bucket, which is at most 128.
const INDEX_BITS: u32 = 24;

/// Where a pending key sits: its bucket and its index there.
#[derive(Clone, Copy)]
struct Pos {
    bucket: usize,
    index: usize,
}

impl Pos {
    fn link(self) -> u32 {
        ((self.bucket as u32) << INDEX_BITS) | self.index as u32
    }

    fn of_link(link: u32) -> Pos {
        Pos {
            bucket: (link >> INDEX_BITS) as usize,
            index: (link & ((1 << INDEX_BITS) - 1)) as usize,
        }
    }
}

/// The pending events: a monotone radix queue of [`Key`]s plus the slab
/// they point into. Every key the queue receives is later than `last`, the
/// key it last handed out, so a key is filed under the highest bit where it
/// differs from `last`: bucket `b` holds the keys that agree with `last`
/// above bit `b - 1` and differ from it there. Every key in a lower bucket
/// is earlier than every key in a higher one, so the earliest key is the
/// earliest of the lowest non-empty bucket.
///
/// Invariant: for every key, `slab[key.slot].link` names the key's bucket
/// and index, that slot is not a free one, and the key sits in the bucket
/// its order and `last` put it in; `occupied` has bit `b` set exactly when
/// bucket `b` is non-empty.
struct Queue {
    /// A bucket allocates on its first push, so a new queue allocates
    /// nothing.
    buckets: [Vec<Key>; BUCKETS],
    occupied: [u64; 3],
    last: u128,
    len: usize,
    slab: Vec<Slot>,
    free: u32,
}

impl Queue {
    fn new() -> Self {
        Queue {
            buckets: [const { Vec::new() }; BUCKETS],
            occupied: [0; 3],
            last: 0,
            len: 0,
            slab: Vec::new(),
            free: NO_SLOT,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// `(time, seq)` must be later than the last key taken out; `Sim::push`
    /// makes sure of it.
    fn push(&mut self, time: SimTime, seq: u64, entry: Slot) -> EventId {
        let slot = if let Some(free) = self.slab.get_mut(self.free as usize) {
            let slot = self.free;
            self.free = std::mem::replace(free, entry).link;
            slot
        } else {
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        };
        let id = EventId { seq, slot };
        self.insert(Key { time, id });
        self.len += 1;
        id
    }

    /// Files `key` under the bucket `last` puts it in and links its slot.
    fn insert(&mut self, key: Key) {
        debug_assert!(key.order() >= self.last, "key earlier than `last`");
        let diff = key.order() ^ self.last;
        let bucket = (u128::BITS - diff.leading_zeros()) as usize;
        let keys = &mut self.buckets[bucket];
        // The index must fit beside the bucket in `link`. The slab's length
        // is bounded by the pending events, so this also keeps `NO_SLOT` out
        // of its range.
        assert!(keys.len() < 1 << INDEX_BITS, "too many pending events");
        let pos = Pos {
            bucket,
            index: keys.len(),
        };
        keys.push(key);
        self.slab[key.id.slot as usize].link = pos.link();
        self.occupied[bucket / 64] |= 1 << (bucket % 64);
    }

    /// Where the earliest pending key sits, and the key. Changes nothing,
    /// so a caller may look and then leave the key pending.
    fn peek(&self) -> Option<(Pos, Key)> {
        let word = self.occupied.iter().position(|w| *w != 0)?;
        let bucket = word * 64 + self.occupied[word].trailing_zeros() as usize;
        let keys = &self.buckets[bucket];
        let mut index = 0;
        for (i, key) in keys.iter().enumerate().skip(1) {
            if key.order() < keys[index].order() {
                index = i;
            }
        }
        Some((Pos { bucket, index }, keys[index]))
    }

    /// Takes out the earliest key, at `pos` as [`Queue::peek`] found it.
    /// This is the only place `last` moves: to the key taken, with the rest
    /// of its bucket filed again under the new `last` — every one of them
    /// in a lower bucket, into capacity that bucket already has once the
    /// queue has warmed up.
    fn pop(&mut self, pos: Pos) -> (Key, Slot) {
        if pos.bucket == 0 {
            return self.remove_at(pos);
        }
        let mut rest = std::mem::take(&mut self.buckets[pos.bucket]);
        self.occupied[pos.bucket / 64] &= !(1 << (pos.bucket % 64));
        // Every other key is refiled, which links its slot afresh.
        let key = rest.swap_remove(pos.index);
        self.last = key.order();
        for &key in &rest {
            self.insert(key);
        }
        rest.clear();
        self.buckets[pos.bucket] = rest;
        (key, self.free_slot(key))
    }

    /// Removes the event `id` names if it is still pending.
    fn remove(&mut self, id: EventId) -> Option<Slot> {
        // A free slot's `link` is a slot index, not a position; no pending
        // key names a free slot, so the comparison fails for it too.
        let pos = Pos::of_link(self.slab.get(id.slot as usize)?.link);
        let key = self.buckets.get(pos.bucket)?.get(pos.index)?;
        (key.id == id).then(|| self.remove_at(pos).1)
    }

    /// Takes the key at `pos` out of its bucket — the bucket's last key
    /// fills the gap — and frees its slot.
    fn remove_at(&mut self, pos: Pos) -> (Key, Slot) {
        let keys = &mut self.buckets[pos.bucket];
        let key = keys.swap_remove(pos.index);
        if let Some(moved) = keys.get(pos.index) {
            self.slab[moved.id.slot as usize].link = pos.link();
        } else if keys.is_empty() {
            self.occupied[pos.bucket / 64] &= !(1 << (pos.bucket % 64));
        }
        (key, self.free_slot(key))
    }

    /// Frees the slot of `key`, which has left its bucket, and returns what
    /// the slot held.
    fn free_slot(&mut self, key: Key) -> Slot {
        self.len -= 1;
        let slot = key.id.slot;
        let freed = Slot::free(self.free);
        self.free = slot;
        let entry = std::mem::replace(&mut self.slab[slot as usize], freed);
        debug_assert!(
            entry.receiver.is_some(),
            "pending key pointed at a free slot"
        );
        entry
    }
}

/// Outcome of [`Sim::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    Drained,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The configured event budget was exhausted (runaway guard).
    BudgetExhausted,
}

/// A deterministic discrete-event simulation.
///
/// ```
/// use cg_sim::{Sim, SimDuration};
///
/// let mut sim = Sim::new(42);
/// sim.schedule_in(SimDuration::from_secs(5), |sim| {
///     assert_eq!(sim.now().as_secs_f64(), 5.0);
/// });
/// sim.run();
/// assert_eq!(sim.now().as_secs_f64(), 5.0);
/// ```
pub struct Sim {
    now: SimTime,
    next_seq: u64,
    queue: Queue,
    /// Closures scheduled so far ([`Sim::boxed_scheduled`]).
    boxed: u64,
    rng: SimRng,
    executed: u64,
    event_budget: u64,
    trace: Option<Box<dyn FnMut(SimTime, EventId)>>,
}

impl Sim {
    /// Creates a simulation whose random stream is derived from `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: Queue::new(),
            boxed: 0,
            rng: SimRng::new(seed),
            executed: 0,
            event_budget: u64::MAX,
            trace: None,
        }
    }

    /// Caps the total number of events executed; exceeding it stops the run
    /// with [`RunOutcome::BudgetExhausted`]. A guard against runaway models.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Installs a hook invoked before each event executes (debug tracing).
    pub fn set_trace(&mut self, hook: impl FnMut(SimTime, EventId) + 'static) {
        self.trace = Some(Box::new(hook));
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending: scheduled, not yet fired and not
    /// cancelled.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The simulation's deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Number of closures scheduled so far ([`Sim::schedule_at`] and its
    /// two siblings). Each is one allocation; a [`TypedEvent`] is none.
    pub fn boxed_scheduled(&self) -> u64 {
        self.boxed
    }

    /// Schedules `action` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time is always
    /// a model bug and silently clamping would hide it.
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Sim) + 'static) -> EventId {
        self.boxed += 1;
        self.push(at, Slot::new(once(action), TypedEvent::default()))
    }

    /// The one way into the queue: every event, closure or typed, takes the
    /// next `seq` here.
    fn push(&mut self, at: SimTime, entry: Slot) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(at, seq, entry)
    }

    /// Schedules `action` after `delay` of simulated time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut Sim) + 'static,
    ) -> EventId {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, action)
    }

    /// Schedules `action` to run at the current instant, after all events
    /// already scheduled for this instant.
    pub fn schedule_now(&mut self, action: impl FnOnce(&mut Sim) + 'static) -> EventId {
        self.schedule_at(self.now, action)
    }

    /// Schedules `event` for `receiver` at the absolute instant `at`, as
    /// [`Sim::schedule_at`] schedules a closure: same panic on a past
    /// instant, one `seq` consumed, cancellable through the returned id.
    /// The slot holds a clone of `receiver`; nothing is allocated.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_event_at(
        &mut self,
        at: SimTime,
        receiver: &Receiver,
        event: TypedEvent,
    ) -> EventId {
        self.push(at, Slot::new(Rc::clone(receiver), event))
    }

    /// Schedules `event` for `receiver` after `delay` of simulated time.
    pub fn schedule_event_in(
        &mut self,
        delay: SimDuration,
        receiver: &Receiver,
        event: TypedEvent,
    ) -> EventId {
        let at = self.now.saturating_add(delay);
        self.schedule_event_at(at, receiver, event)
    }

    /// Schedules `event` for `receiver` at the current instant, after all
    /// events already scheduled for this instant.
    pub fn schedule_event_now(&mut self, receiver: &Receiver, event: TypedEvent) -> EventId {
        self.schedule_event_at(self.now, receiver, event)
    }

    /// Cancels a pending event: removes it from the queue and drops its
    /// closure now. Returns `true` if the event was pending; an id that has
    /// fired (including the running event's own), was already cancelled, or
    /// was never issued returns `false` and leaves nothing behind.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.remove(id).is_some()
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs events with `time <= horizon`. On return the clock reads the
    /// time of the last executed event (drained, or budget exhausted — the
    /// events the budget held back stay pending) or `horizon`, unless
    /// `horizon` is in the past: the clock never runs backwards.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            // Looking leaves the queue as it was: after a stop the caller may
            // schedule at `now`, earlier than the event found here.
            let Some((pos, next)) = self.queue.peek() else {
                return RunOutcome::Drained;
            };
            if next.time > horizon {
                // A clock turned back would let a schedule call hand the
                // queue a key earlier than one it has already handed out.
                self.now = self.now.max(horizon);
                return RunOutcome::HorizonReached;
            }
            if self.executed >= self.event_budget {
                return RunOutcome::BudgetExhausted;
            }
            self.fire(pos);
        }
    }

    /// Runs a single event if one is pending; returns whether one ran.
    pub fn step(&mut self) -> bool {
        let next = self.queue.peek();
        if let Some((pos, _)) = next {
            self.fire(pos);
        }
        next.is_some()
    }

    /// Takes the earliest pending event, at `pos` as the queue's `peek`
    /// found it, and runs it.
    fn fire(&mut self, pos: Pos) {
        let (key, entry) = self.queue.pop(pos);
        debug_assert!(key.time >= self.now, "event queue returned a past event");
        self.now = key.time;
        self.executed += 1;
        if let Some(hook) = self.trace.as_mut() {
            hook(key.time, key.id);
        }
        let event = entry.event();
        let receiver = entry.receiver.expect("a pending key names a live slot");
        receiver(self, event);
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn a_pending_event_is_56_bytes_of_queue() {
        // Set-up phases schedule thousands of events back to back; what one
        // costs beside a closure's allocation is a key and a slot.
        assert_eq!(std::mem::size_of::<Key>(), 24);
        assert_eq!(std::mem::size_of::<Slot>(), 32);
    }

    /// A receiver that logs `(which, payload)` for every event it gets.
    fn logging(log: &Rc<RefCell<Vec<(u8, u64)>>>, which: u8) -> Receiver {
        let log = Rc::clone(log);
        Rc::new(move |_, event| log.borrow_mut().push((which, event.payload)))
    }

    #[test]
    fn typed_events_take_their_turn_among_closures() {
        // One instant, closures and typed events scheduled alternately: they
        // fire in the order of the schedule calls, and each typed event
        // arrives as it was scheduled.
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let seen = Rc::clone(&log);
        let receiver: Receiver = Rc::new(move |sim, event| {
            assert_eq!(sim.now(), SimTime::from_secs(1));
            assert_eq!((event.tag, event.aux), (7, 0xBEEF));
            seen.borrow_mut().push(event.payload);
        });
        for n in 0..10u64 {
            let id = if n % 2 == 0 {
                let log = Rc::clone(&log);
                sim.schedule_at(SimTime::from_secs(1), move |_| log.borrow_mut().push(n))
            } else {
                let event = TypedEvent {
                    tag: 7,
                    aux: 0xBEEF,
                    payload: n,
                };
                sim.schedule_event_in(SimDuration::from_secs(1), &receiver, event)
            };
            assert_eq!(id.raw(), n, "closure or typed, one seq per schedule call");
        }
        assert_eq!(sim.boxed_scheduled(), 5, "only the closures are counted");
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn typed_events_cancel_like_closures_and_reach_their_own_handler() {
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<(u8, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let receivers: Vec<Receiver> = (0..3u8).map(|h| logging(&log, h)).collect();
        let event = |payload| TypedEvent {
            payload,
            ..TypedEvent::default()
        };
        sim.schedule_event_in(SimDuration::from_secs(3), &receivers[2], event(30));
        let gone = sim.schedule_event_in(SimDuration::from_secs(2), &receivers[1], event(20));
        sim.schedule_event_in(SimDuration::from_secs(1), &receivers[0], event(10));
        assert_eq!(Rc::strong_count(&receivers[1]), 2, "the slot holds a clone");
        assert!(sim.cancel(gone));
        assert_eq!(Rc::strong_count(&receivers[1]), 1, "cancel drops it");
        assert!(!sim.cancel(gone));
        assert_eq!(sim.pending(), 2);
        // A closure takes over the cancelled event's slot.
        sim.schedule_in(SimDuration::from_secs(2), |sim| {
            assert_eq!(sim.now(), SimTime::from_secs(2));
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![(0, 10), (2, 30)]);
        assert_eq!(sim.events_executed(), 3);
        assert!(
            receivers.iter().all(|r| Rc::strong_count(r) == 1),
            "a fired event lets go of its receiver"
        );
    }

    #[test]
    fn a_receiver_holding_a_weak_does_not_keep_its_component_alive() {
        // The idiom every component follows: the receiver reaches the state
        // through a `Weak`, so the events pending in the `Sim` do not own it,
        // and an event that outlives its component does nothing.
        let mut sim = Sim::new(1);
        let state = Rc::new(RefCell::new(0u64));
        let weak = Rc::downgrade(&state);
        let receiver: Receiver = Rc::new(move |_, event| {
            if let Some(state) = weak.upgrade() {
                *state.borrow_mut() += event.payload;
            }
        });
        for (secs, payload) in [(1, 5), (2, 7)] {
            let event = TypedEvent {
                payload,
                ..TypedEvent::default()
            };
            sim.schedule_event_in(SimDuration::from_secs(secs), &receiver, event);
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*state.borrow(), 5);
        let gone = Rc::downgrade(&state);
        drop(state);
        assert!(gone.upgrade().is_none(), "the pending event held its state");
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for (delay, tag) in [(3u64, 3u32), (1, 1), (2, 2)] {
            let log = Rc::clone(&log);
            sim.schedule_in(SimDuration::from_secs(delay), move |_| {
                log.borrow_mut().push(tag);
            });
        }
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..10u32 {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_secs(1), move |_| log.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more() {
        let mut sim = Sim::new(1);
        let count = Rc::new(RefCell::new(0u32));
        fn tick(sim: &mut Sim, count: Rc<RefCell<u32>>, left: u32) {
            *count.borrow_mut() += 1;
            if left > 0 {
                sim.schedule_in(SimDuration::from_millis(10), move |sim| {
                    tick(sim, count, left - 1);
                });
            }
        }
        let c = Rc::clone(&count);
        sim.schedule_now(move |sim| tick(sim, c, 4));
        sim.run();
        assert_eq!(*count.borrow(), 5);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(40));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new(1);
        let fired = Rc::new(RefCell::new(false));
        let f = Rc::clone(&fired);
        let id = sim.schedule_in(SimDuration::from_secs(1), move |_| *f.borrow_mut() = true);
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double cancel reports false");
        sim.run();
        assert!(!*fired.borrow());
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut sim = Sim::new(1);
        assert!(!sim.cancel(EventId { seq: 999, slot: 0 }));
        // Nor does a pending event in the slot the unknown id names.
        sim.schedule_now(|_| {});
        assert!(!sim.cancel(EventId { seq: 999, slot: 0 }));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn cancel_after_fire_is_false_even_once_the_slot_is_reused() {
        let mut sim = Sim::new(1);
        let id = sim.schedule_in(SimDuration::from_secs(1), |_| {});
        sim.run();
        assert!(!sim.cancel(id), "fired");
        // The next event takes over the fired one's slot; the stale handle
        // must not reach it.
        let fired = Rc::new(RefCell::new(false));
        let f = Rc::clone(&fired);
        let next = sim.schedule_in(SimDuration::from_secs(1), move |_| *f.borrow_mut() = true);
        assert_eq!(next.slot, id.slot);
        assert!(!sim.cancel(id));
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert!(*fired.borrow());
    }

    #[test]
    fn an_event_cannot_cancel_itself() {
        let mut sim = Sim::new(1);
        let own_id = Rc::new(RefCell::new(None));
        let result = Rc::new(RefCell::new(None));
        let (own, res) = (Rc::clone(&own_id), Rc::clone(&result));
        let id = sim.schedule_now(move |sim| {
            *res.borrow_mut() = Some(sim.cancel(own.borrow().unwrap()));
        });
        *own_id.borrow_mut() = Some(id);
        sim.run();
        assert_eq!(*result.borrow(), Some(false));
    }

    #[test]
    fn cancel_removes_the_event_and_drops_its_closure_at_once() {
        let mut sim = Sim::new(1);
        let captured = Rc::new(());
        let held = Rc::clone(&captured);
        sim.schedule_in(SimDuration::from_secs(1), |_| {});
        let id = sim.schedule_in(SimDuration::from_secs(2), move |_| drop(held));
        sim.schedule_in(SimDuration::from_secs(3), |_| {});
        assert_eq!(sim.pending(), 3);
        assert_eq!(Rc::strong_count(&captured), 2);
        assert!(sim.cancel(id));
        assert_eq!(sim.pending(), 2, "pending drops at cancel, not at t = 2 s");
        assert_eq!(Rc::strong_count(&captured), 1, "closure dropped by cancel");
        assert!(!sim.cancel(id), "cancel twice is true then false");
        assert_eq!(sim.pending(), 2);
        sim.run();
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Sim::new(1);
        let fired = Rc::new(RefCell::new(0u32));
        for s in [1u64, 2, 3] {
            let f = Rc::clone(&fired);
            sim.schedule_in(SimDuration::from_secs(s), move |_| *f.borrow_mut() += 1);
        }
        assert_eq!(
            sim.run_until(SimTime::from_secs(2)),
            RunOutcome::HorizonReached
        );
        assert_eq!(*fired.borrow(), 2);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*fired.borrow(), 3);
    }

    #[test]
    fn a_horizon_stop_leaves_room_for_an_event_at_now() {
        // The queue looks at the 10 s event to stop at the 5 s horizon; it
        // must not have taken it out, or a key at 5 s would be earlier than
        // the last key handed out.
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for s in [1u64, 10] {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_secs(s), move |sim| {
                log.borrow_mut().push(sim.now().as_nanos() / 1_000_000_000);
            });
        }
        assert_eq!(
            sim.run_until(SimTime::from_secs(5)),
            RunOutcome::HorizonReached
        );
        assert_eq!(sim.now(), SimTime::from_secs(5));
        let l = Rc::clone(&log);
        sim.schedule_now(move |sim| l.borrow_mut().push(sim.now().as_nanos() / 1_000_000_000));
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![1, 5, 10]);
    }

    #[test]
    fn a_past_horizon_leaves_the_clock_where_it_is() {
        // After the 1 s event has fired, a horizon of 0.5 s must not turn
        // the clock back: an event scheduled "now" would then be earlier
        // than the last key the queue handed out.
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for ms in [1_000u64, 10_000] {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(ms * 1_000_000), move |sim| {
                log.borrow_mut().push(sim.now().as_nanos() / 1_000_000);
            });
        }
        let horizon = SimTime::from_secs(5);
        assert_eq!(sim.run_until(horizon), RunOutcome::HorizonReached);
        assert_eq!(
            sim.run_until(SimTime::from_nanos(500_000_000)),
            RunOutcome::HorizonReached
        );
        assert_eq!(sim.now(), horizon);
        let l = Rc::clone(&log);
        sim.schedule_now(move |sim| l.borrow_mut().push(sim.now().as_nanos() / 1_000_000));
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![1_000, 5_000, 10_000]);
    }

    #[test]
    fn a_budget_stop_inside_a_redistribution_drops_nothing() {
        // Sixty-four events a few hours out share one high bucket. Firing
        // the first files the rest one level down; a budget stop right
        // after it, cancels among the refiled keys and new events at `now`
        // must leave every survivor to fire exactly once, in order.
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let far = SimTime::from_secs(3 * 3_600);
        let ids: Vec<EventId> = (0..64u64)
            .map(|i| {
                let log = Rc::clone(&log);
                let at = far + SimDuration::from_millis(i * 997 % 64 * 250);
                sim.schedule_at(at, move |_| log.borrow_mut().push(i))
            })
            .collect();
        sim.set_event_budget(1);
        assert_eq!(sim.run(), RunOutcome::BudgetExhausted);
        assert_eq!(*log.borrow(), vec![0]);
        assert_eq!(sim.pending(), 63);
        for id in ids.iter().skip(1).step_by(5) {
            assert!(sim.cancel(*id));
        }
        let l = Rc::clone(&log);
        sim.schedule_now(move |_| l.borrow_mut().push(100));
        sim.set_event_budget(20);
        assert_eq!(sim.run(), RunOutcome::BudgetExhausted);
        sim.set_event_budget(u64::MAX);
        assert_eq!(sim.run(), RunOutcome::Drained);
        let mut want: Vec<u64> = (0..64).filter(|i| i % 5 != 1).collect();
        want.sort_by_key(|i| i * 997 % 64);
        want.insert(1, 100);
        assert_eq!(*log.borrow(), want);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new(1);
        sim.schedule_in(SimDuration::from_secs(5), |sim| {
            sim.schedule_at(SimTime::from_secs(1), |_| {});
        });
        sim.run();
    }

    #[test]
    fn event_budget_halts_runaway() {
        let mut sim = Sim::new(1);
        sim.set_event_budget(100);
        fn forever(sim: &mut Sim) {
            sim.schedule_in(SimDuration::from_nanos(1), forever);
        }
        sim.schedule_now(forever);
        assert_eq!(sim.run(), RunOutcome::BudgetExhausted);
        assert_eq!(sim.events_executed(), 100);
    }

    #[test]
    fn budget_exhaustion_drops_no_event() {
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..10u32 {
            let log = Rc::clone(&log);
            sim.schedule_in(SimDuration::from_secs(u64::from(tag)), move |_| {
                log.borrow_mut().push(tag);
            });
        }
        sim.set_event_budget(4);
        assert_eq!(sim.run(), RunOutcome::BudgetExhausted);
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(sim.pending(), 6, "the event the budget held back is kept");
        assert_eq!(sim.now(), SimTime::from_secs(3));
        sim.set_event_budget(u64::MAX);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn identical_seeds_identical_traces() {
        fn trace_of(seed: u64) -> Vec<(u64, u64)> {
            let trace = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Sim::new(seed);
            let t = Rc::clone(&trace);
            sim.set_trace(move |time, id| t.borrow_mut().push((time.as_nanos(), id.raw())));
            // A little model with randomized delays.
            fn arrival(sim: &mut Sim, left: u32) {
                if left == 0 {
                    return;
                }
                let d = sim.rng().exp(0.5);
                sim.schedule_in(d, move |sim| arrival(sim, left - 1));
            }
            sim.schedule_now(move |sim| arrival(sim, 50));
            sim.run();
            let out = trace.borrow().clone();
            out
        }
        assert_eq!(trace_of(7), trace_of(7));
        assert_ne!(trace_of(7), trace_of(8));
    }

    #[test]
    fn step_executes_one_event() {
        let mut sim = Sim::new(1);
        let fired = Rc::new(RefCell::new(0u32));
        for _ in 0..3 {
            let f = Rc::clone(&fired);
            sim.schedule_in(SimDuration::from_secs(1), move |_| *f.borrow_mut() += 1);
        }
        assert!(sim.step());
        assert_eq!(*fired.borrow(), 1);
        assert!(sim.step());
        assert!(sim.step());
        assert!(!sim.step());
    }
}
