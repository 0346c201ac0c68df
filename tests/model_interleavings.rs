//! Model-checked interleavings of the broker's two hot critical sections —
//! always-on mirrors of the algorithms, explored exhaustively by the
//! `loom` deterministic-schedule shim.
//!
//! These tests run in tier-1 (no special cfg): they model the *algorithms*
//! — gap-free seq allocation as `EventLog` implements it, and per-shard
//! locking as `ShardedJobTable` implements it — with the shim's own
//! primitives, so every schedule of the critical sections is visited. The
//! companion `loom_model.rs` tests in `cg-trace` and `crossbroker` run the
//! *real types* under `--cfg cg_loom` (CI's model-check job).
//!
//! Two kinds of assertion matter here:
//! - the correct algorithm holds its invariant under EVERY interleaving;
//! - a deliberately broken variant (two-phase read-then-write allocation)
//!   is CAUGHT — proving the explorer actually distinguishes schedules
//!   rather than replaying one.

use loom::sync::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The `EventLog` allocation algorithm: each `record` takes the lock once
/// and allocates one seq under it. Under every interleaving of two writers
/// recording twice each, seqs must come out gap-free and duplicate-free.
#[test]
fn seq_allocation_is_gap_free_under_every_interleaving() {
    const WRITERS: usize = 2;
    const RECORDS: u64 = 2;
    let iterations = loom::model(|| {
        let next_seq = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..WRITERS)
            .map(|_| {
                let next_seq = Arc::clone(&next_seq);
                loom::thread::spawn(move || {
                    // One lock hold per record, exactly like LogInner::append
                    // driven by EventLog::record.
                    (0..RECORDS)
                        .map(|_| {
                            let mut seq = next_seq.lock().unwrap();
                            *seq += 1;
                            *seq - 1
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let distinct: BTreeSet<u64> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "duplicate seqs: {all:?}");
        assert_eq!(
            distinct,
            (0..(WRITERS as u64) * RECORDS).collect::<BTreeSet<u64>>(),
            "gap in allocated seqs"
        );
    });
    assert!(
        iterations > 1,
        "expected the explorer to visit multiple interleavings, got {iterations}"
    );
}

/// The explorer has teeth: split the allocation into read-unlock-write (the
/// classic lost-update shape) and the exploration MUST surface a schedule
/// where two writers allocate the same seq. If this test ever fails, the
/// shim has stopped distinguishing schedules and the green result above
/// means nothing.
#[test]
fn explorer_catches_two_phase_allocation_race() {
    let saw_duplicate = AtomicBool::new(false);
    let saw_distinct = AtomicBool::new(false);
    loom::model(|| {
        let next_seq = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let next_seq = Arc::clone(&next_seq);
                loom::thread::spawn(move || {
                    // Broken on purpose: the read and the increment are two
                    // separate critical sections.
                    let read = *next_seq.lock().unwrap();
                    loom::thread::yield_now();
                    *next_seq.lock().unwrap() = read + 1;
                    read
                })
            })
            .collect();
        let seqs: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        if seqs[0] == seqs[1] {
            saw_duplicate.store(true, Ordering::Relaxed);
        } else {
            saw_distinct.store(true, Ordering::Relaxed);
        }
    });
    assert!(
        saw_distinct.load(Ordering::Relaxed),
        "serial schedule missed"
    );
    assert!(
        saw_duplicate.load(Ordering::Relaxed),
        "no schedule produced the lost-update duplicate: the explorer is not exploring"
    );
}

/// The `ShardedJobTable` contract, mirrored: writers hold one shard lock at
/// a time, `for_each` locks shards strictly one at a time. Each shard read
/// is atomic (no torn values), but the traversal is NOT a cross-shard
/// snapshot — and the exploration must exhibit exactly the documented set
/// of observable states, including the torn-across-shards one.
#[test]
fn shard_traversal_is_per_shard_atomic_but_not_a_snapshot() {
    use std::sync::Mutex as StdMutex;
    let observed: StdMutex<BTreeSet<Vec<u64>>> = StdMutex::new(BTreeSet::new());
    loom::model(|| {
        let shards: Arc<Vec<Mutex<Vec<u64>>>> =
            Arc::new((0..2).map(|_| Mutex::new(Vec::new())).collect());
        let writer = {
            let shards = Arc::clone(&shards);
            loom::thread::spawn(move || {
                // Two inserts, two independent lock holds — like
                // ShardedJobTable::insert on ids hashing to different shards.
                shards[0].lock().unwrap().push(10);
                shards[1].lock().unwrap().push(11);
            })
        };
        let reader = {
            let shards = Arc::clone(&shards);
            loom::thread::spawn(move || {
                // for_each: one shard lock at a time, in shard order.
                let mut seen = Vec::new();
                for s in shards.iter() {
                    seen.extend(s.lock().unwrap().iter().copied());
                }
                seen
            })
        };
        writer.join().unwrap();
        let seen = reader.join().unwrap();
        observed.lock().unwrap().insert(seen);
    });
    let observed = observed.into_inner().unwrap();
    let expected: BTreeSet<Vec<u64>> = [
        vec![],       // reader ran first
        vec![10],     // between the two inserts
        vec![11],     // torn: shard 0 read before insert, shard 1 after
        vec![10, 11], // reader ran last
    ]
    .into_iter()
    .collect();
    assert_eq!(
        observed, expected,
        "exhaustive exploration must exhibit exactly the documented observable states"
    );
}
