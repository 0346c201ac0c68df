//! The event loop.
//!
//! [`Sim`] owns a priority queue of scheduled events. An event is either a
//! boxed `FnOnce(&mut Sim)`, so handlers can schedule further events, advance
//! statistics, or mutate components captured as `Rc<RefCell<_>>`, or a
//! [`TypedEvent`]: a few `Copy` words handed to a handler registered once
//! ([`Sim::register_handler`]), for the events a model schedules by the
//! thousand and does not want to allocate for. Ties in time break on the
//! monotonically increasing sequence number, which makes the execution order
//! a pure function of the schedule calls — runs with the same seed are
//! identical.
//!
//! The queue is an indexed 4-ary min-heap of `(time, seq, slot)` keys over a
//! slab of actions. Every slab slot knows where its key sits in the heap, so
//! [`Sim::cancel`] removes an event — key, slot and closure — at once, in
//! O(log live): a cancelled event leaves nothing behind to sift past or to
//! sweep later. Every `schedule_*` call, closure or typed, consumes a `seq`
//! whether or not the event is later cancelled, so the events that do fire,
//! fire in the `(time, seq)` order of their schedule calls.

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

type Closure = Box<dyn FnOnce(&mut Sim)>;

/// Names a handler registered with [`Sim::register_handler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandlerId(u8);

/// An event that is data, not a closure: scheduling one allocates nothing.
/// When it fires, the handler `handler` names receives it back unchanged;
/// what `tag`, `aux` and `payload` mean is between the scheduler and that
/// handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypedEvent {
    /// Who receives the event.
    pub handler: HandlerId,
    /// Eight payload bits.
    pub tag: u8,
    /// Sixteen payload bits.
    pub aux: u16,
    /// Sixty-four payload bits.
    pub payload: u64,
}

type Handler = Rc<dyn Fn(&mut Sim, TypedEvent)>;

/// What a pending event does when it fires: run a closure, or hand these 64
/// payload bits (and the handler, tag and aux beside them in the [`Slot`])
/// to a registered handler. A `Box` is never null, so the two variants share
/// 16 bytes.
enum Action {
    Boxed(Closure),
    Typed(u64),
}

/// One heap entry: when the event is due, and its id — the `seq` that
/// breaks ties in time and the slab slot holding the action. Keys are
/// compared in place, never through the slab.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    id: EventId,
}

impl Key {
    /// `(time, seq)` as one integer, so that "earlier" is a single
    /// comparison the compiler can turn into a conditional move.
    fn order(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.id.seq)
    }

    fn before(&self, other: &Key) -> bool {
        self.order() < other.order()
    }
}

/// One slab slot. `link` is the position of the event's key in the heap
/// while the slot is live, and the next free slot (or [`NO_SLOT`]) while it
/// is free. `handler`, `tag` and `aux` are the rest of a [`TypedEvent`] and
/// occupy what would otherwise be padding; a closure's slot leaves them
/// zero, and a free slot is a typed one for [`NO_HANDLER`], which no live
/// key points at and no handler answers to.
struct Slot {
    action: Action,
    link: u32,
    handler: u8,
    tag: u8,
    aux: u16,
}

impl Slot {
    fn boxed(closure: Closure) -> Slot {
        Slot {
            action: Action::Boxed(closure),
            link: 0,
            handler: 0,
            tag: 0,
            aux: 0,
        }
    }

    fn typed(event: TypedEvent) -> Slot {
        Slot {
            action: Action::Typed(event.payload),
            link: 0,
            handler: event.handler.0,
            tag: event.tag,
            aux: event.aux,
        }
    }

    fn free(next: u32) -> Slot {
        Slot {
            action: Action::Typed(0),
            link: next,
            handler: NO_HANDLER,
            tag: 0,
            aux: 0,
        }
    }
}

/// The handler id of a free slot; [`Sim::register_handler`] never issues it.
const NO_HANDLER: u8 = u8::MAX;

const NO_SLOT: u32 = u32::MAX;

/// Children per heap node: half the levels of a binary heap, so half the
/// `link` writes on the way down, and the four siblings compared at a level
/// are 96 adjacent bytes.
const ARITY: usize = 4;

/// The pending events: [`Key`]s in heap order plus the slab they point into.
/// Invariant: for every heap position `p`, `slab[heap[p].slot].link == p`
/// and that slot is not a free one.
struct Queue {
    heap: Vec<Key>,
    slab: Vec<Slot>,
    free: u32,
}

impl Queue {
    fn new() -> Self {
        Queue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: NO_SLOT,
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn next_time(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.time)
    }

    fn push(&mut self, time: SimTime, seq: u64, mut entry: Slot) -> EventId {
        let pos = self.heap.len();
        entry.link = pos as u32;
        let slot = if let Some(free) = self.slab.get_mut(self.free as usize) {
            let slot = self.free;
            self.free = std::mem::replace(free, entry).link;
            slot
        } else {
            // `free` is `NO_SLOT`, which must stay out of the slab's range.
            assert!(
                self.slab.len() < NO_SLOT as usize,
                "too many pending events"
            );
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        };
        let id = EventId { seq, slot };
        let key = Key { time, id };
        self.heap.push(key);
        // Key and slot already agree on `pos`; most events are scheduled
        // later than what is pending and stay there.
        if pos > 0 && key.before(&self.heap[(pos - 1) / ARITY]) {
            self.sift_up(pos, key);
        }
        id
    }

    /// Removes and returns the earliest event. The queue must not be empty.
    fn pop(&mut self) -> (Key, Slot) {
        let key = self.heap[0];
        (key, self.remove_at(0))
    }

    /// Removes the event `id` names if it is still pending.
    fn remove(&mut self, id: EventId) -> Option<Slot> {
        // A free slot's `link` is a slot index, not a heap position; no key
        // in the heap names a free slot, so the comparison fails for it too.
        let pos = self.slab.get(id.slot as usize)?.link as usize;
        (self.heap.get(pos)?.id == id).then(|| self.remove_at(pos))
    }

    /// Takes the key at `pos` out of the heap and frees its slot.
    fn remove_at(&mut self, pos: usize) -> Slot {
        let slot = self.heap[pos].id.slot;
        let last = self.heap.pop().expect("remove_at on an empty heap");
        if pos < self.heap.len() {
            // The former last key fills the hole. It is a leaf, so it most
            // likely belongs near the bottom: walk the hole down to a leaf
            // along the earliest children without comparing against it, then
            // let it climb (past `pos`, if the removed key was not the root
            // and sat below a later branch).
            let hole = self.sink_hole(pos);
            self.sift_up(hole, last);
        }
        let freed = Slot::free(self.free);
        self.free = slot;
        let entry = std::mem::replace(&mut self.slab[slot as usize], freed);
        debug_assert!(
            entry.handler != NO_HANDLER,
            "heap key pointed at a free slot"
        );
        entry
    }

    /// Moves the hole at `pos` down to a leaf, pulling the earliest child up
    /// at every level; returns the leaf position.
    fn sink_hole(&mut self, mut hole: usize) -> usize {
        let len = self.heap.len();
        loop {
            let first = hole * ARITY + 1;
            let min = if let Some(c) = self.heap.get(first..first + ARITY) {
                // A full set of children: a two-round tournament whose
                // outcomes select indices, not branches — which child is
                // earliest is as good as random, and a mispredicted branch
                // costs more than the whole level otherwise does.
                let a = usize::from(c[1].before(&c[0]));
                let b = 2 + usize::from(c[3].before(&c[2]));
                first + if c[b].before(&c[a]) { b } else { a }
            } else if first < len {
                let mut min = first;
                for child in first + 1..len {
                    if self.heap[child].before(&self.heap[min]) {
                        min = child;
                    }
                }
                min
            } else {
                return hole;
            };
            self.place(hole, self.heap[min]);
            hole = min;
        }
    }

    /// Puts `key` into the hole at `pos`, or as far above it as `key` is
    /// earlier than the keys on the path to the root.
    fn sift_up(&mut self, mut hole: usize, key: Key) {
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if !key.before(&self.heap[parent]) {
                break;
            }
            self.place(hole, self.heap[parent]);
            hole = parent;
        }
        self.place(hole, key);
    }

    fn place(&mut self, pos: usize, key: Key) {
        self.heap[pos] = key;
        self.slab[key.id.slot as usize].link = pos as u32;
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
    /// The typed events' receivers, indexed by [`HandlerId`].
    handlers: Vec<Handler>,
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
            handlers: Vec::new(),
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

    /// Schedules `action` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time is always
    /// a model bug and silently clamping would hide it.
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Sim) + 'static) -> EventId {
        self.push(at, Slot::boxed(Box::new(action)))
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

    /// Registers the receiver of the [`TypedEvent`]s scheduled under the
    /// returned id. Handlers live as long as the `Sim`; a component registers
    /// one when it is built and reaches its own state from inside it through
    /// a `Weak`, so that the `Sim` does not keep the component alive.
    ///
    /// # Panics
    /// Panics on the 256th registration: the id is one byte of the event.
    pub fn register_handler(
        &mut self,
        handler: impl Fn(&mut Sim, TypedEvent) + 'static,
    ) -> HandlerId {
        let id = u8::try_from(self.handlers.len())
            .ok()
            .filter(|id| *id != NO_HANDLER)
            .expect("too many typed-event handlers");
        self.handlers.push(Rc::new(handler));
        HandlerId(id)
    }

    /// Schedules `event` for its handler at the absolute instant `at`, as
    /// [`Sim::schedule_at`] schedules a closure: same panic on a past
    /// instant, one `seq` consumed, cancellable through the returned id.
    ///
    /// # Panics
    /// Panics if `at` is in the past, or if `event.handler` was not issued
    /// by this `Sim`.
    pub fn schedule_event_at(&mut self, at: SimTime, event: TypedEvent) -> EventId {
        assert!(
            usize::from(event.handler.0) < self.handlers.len(),
            "typed event for an unregistered handler"
        );
        self.push(at, Slot::typed(event))
    }

    /// Schedules `event` for its handler after `delay` of simulated time.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: TypedEvent) -> EventId {
        let at = self.now.saturating_add(delay);
        self.schedule_event_at(at, event)
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
    /// events the budget held back stay pending) or `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            let Some(next_time) = self.queue.next_time() else {
                return RunOutcome::Drained;
            };
            if next_time > horizon {
                self.now = horizon;
                return RunOutcome::HorizonReached;
            }
            if self.executed >= self.event_budget {
                return RunOutcome::BudgetExhausted;
            }
            self.fire_next();
        }
    }

    /// Runs a single event if one is pending; returns whether one ran.
    pub fn step(&mut self) -> bool {
        let pending = self.queue.len() > 0;
        if pending {
            self.fire_next();
        }
        pending
    }

    /// Removes the earliest pending event and runs it. The queue must not be
    /// empty.
    fn fire_next(&mut self) {
        let (key, entry) = self.queue.pop();
        debug_assert!(key.time >= self.now, "event queue returned a past event");
        self.now = key.time;
        self.executed += 1;
        if let Some(hook) = self.trace.as_mut() {
            hook(key.time, key.id);
        }
        match entry.action {
            Action::Boxed(closure) => closure(self),
            Action::Typed(payload) => {
                let handler = Rc::clone(&self.handlers[usize::from(entry.handler)]);
                handler(
                    self,
                    TypedEvent {
                        handler: HandlerId(entry.handler),
                        tag: entry.tag,
                        aux: entry.aux,
                        payload,
                    },
                );
            }
        }
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
    fn a_pending_event_is_48_bytes_of_queue() {
        // Set-up phases schedule thousands of events back to back; what one
        // costs beside its boxed closure is a key and a slot.
        assert_eq!(std::mem::size_of::<Key>(), 24);
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }

    #[test]
    fn typed_events_take_their_turn_among_closures() {
        // One instant, closures and typed events scheduled alternately: they
        // fire in the order of the schedule calls, and each typed event
        // arrives as it was scheduled.
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let seen = Rc::clone(&log);
        let handler = sim.register_handler(move |sim, event| {
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
                    handler,
                    tag: 7,
                    aux: 0xBEEF,
                    payload: n,
                };
                sim.schedule_event_in(SimDuration::from_secs(1), event)
            };
            assert_eq!(id.raw(), n, "closure or typed, one seq per schedule call");
        }
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn typed_events_cancel_like_closures_and_reach_their_own_handler() {
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<(u8, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let handlers: Vec<HandlerId> = (0..3u8)
            .map(|h| {
                let log = Rc::clone(&log);
                sim.register_handler(move |_, event| log.borrow_mut().push((h, event.payload)))
            })
            .collect();
        let event = |h: usize, payload| TypedEvent {
            handler: handlers[h],
            tag: 0,
            aux: 0,
            payload,
        };
        sim.schedule_event_in(SimDuration::from_secs(3), event(2, 30));
        let gone = sim.schedule_event_in(SimDuration::from_secs(2), event(1, 20));
        sim.schedule_event_in(SimDuration::from_secs(1), event(0, 10));
        assert!(sim.cancel(gone));
        assert!(!sim.cancel(gone));
        assert_eq!(sim.pending(), 2);
        // A closure takes over the cancelled event's slot.
        sim.schedule_in(SimDuration::from_secs(2), |sim| {
            assert_eq!(sim.now(), SimTime::from_secs(2));
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![(0, 10), (2, 30)]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    #[should_panic(expected = "unregistered handler")]
    fn a_typed_event_needs_a_handler_of_this_sim() {
        let handler = Sim::new(1).register_handler(|_, _| {});
        let event = TypedEvent {
            handler,
            tag: 0,
            aux: 0,
            payload: 0,
        };
        Sim::new(2).schedule_event_in(SimDuration::ZERO, event);
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
