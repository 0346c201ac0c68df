//! The kernel's allocation budget: what the event queue itself allocates.
//!
//! Every step the paper times is a kernel event, so a job pays for the
//! queue dozens of times (hundreds at 1 000 sites). A typed event is data in
//! a slab slot, and the queue files its key into buckets that keep their
//! capacity; once those have grown, scheduling, cancelling and firing
//! allocate nothing. This test counts, because the benchmark's
//! `allocs_per_op` bound (12 %) would let an allocation per event creep back
//! unnoticed.
//!
//! The file holds one test on purpose: the counter is process-wide.

use std::rc::Rc;

use cg_sim::{Receiver, RunOutcome, Sim, SimDuration, SimTime, TypedEvent};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

/// The `n`-th delay of a fixed sequence: 1 µs to 2.4 h, a power of two
/// apart, with a little jitter, so that keys land in every bucket a model's
/// delays reach.
fn delay(n: u64) -> SimDuration {
    let x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    SimDuration::from_nanos((1_000 << (x % 34)) + x % 997)
}

/// 2⁴⁶ ns, about 19.5 h: longer than everything [`day`] schedules.
const BLOCK: u64 = 1 << 46;

/// More `seq`s than a [`day`] consumes.
const SEQS: u64 = 1 << 15;

/// The day that starts `blocks` [`BLOCK`]s after t = 0: a first event at
/// that instant, 2 000 typed events spread over hours, 10 000 rounds of two
/// typed events scheduled, the second cancelled and the earliest pending
/// one fired, and then the rest fired.
///
/// A bucket grows only when it holds more keys than ever before, and a key
/// lands in the bucket of the highest bit where its `(time, seq)` differs
/// from the last key taken out. The first event takes the first `seq` that
/// is a multiple of [`SEQS`] (the calls before it are cancelled at once),
/// so a day moved by whole blocks of time and of `seq`s puts every key in
/// the bucket it went to before, and meets that bucket with the capacity
/// the earlier day left it. (The first event's own bucket depends on the
/// last key of the day before: the same for a day after an even block as
/// for the first day.)
fn day(sim: &mut Sim, receiver: &Receiver, blocks: u64) {
    let event = |payload| TypedEvent {
        tag: 1,
        aux: 2,
        payload,
    };
    let start = SimTime::from_nanos(blocks * BLOCK);
    loop {
        let id = sim.schedule_event_at(start, receiver, event(0));
        if id.raw().is_multiple_of(SEQS) {
            break;
        }
        assert!(sim.cancel(id));
    }
    assert_eq!(sim.run(), RunOutcome::Drained);
    for n in 0..2_000 {
        sim.schedule_event_in(delay(1_000_000 + n), receiver, event(n));
    }
    for n in 0..10_000 {
        sim.schedule_event_in(delay(2 * n), receiver, event(n));
        let doomed = sim.schedule_event_in(delay(2 * n + 1), receiver, event(n));
        assert!(sim.cancel(doomed));
        assert!(sim.step());
        assert_eq!(sim.pending(), 2_000);
    }
    assert_eq!(sim.run(), RunOutcome::Drained);
    assert!(sim.now() < start + SimDuration::from_nanos(BLOCK));
}

#[test]
fn the_queue_allocates_nothing_once_warm() {
    let (mut sim, calls) = counted(|| Sim::new(27));
    assert_eq!(calls, 0, "Sim::new allocates");
    let receiver: Receiver = Rc::new(|_, _| {});
    day(&mut sim, &receiver, 1);
    day(&mut sim, &receiver, 2);
    let fired = sim.events_executed();
    let ((), calls) = counted(|| day(&mut sim, &receiver, 3));
    assert_eq!(sim.events_executed() - fired, 1 + 2_000 + 10_000);
    assert_eq!(
        calls, 0,
        "a replayed day of 10 000 schedule / cancel / fire rounds of typed events"
    );
}
