//! Model-checked interleavings of the REAL `EventLog` under the loom shim.
//!
//! Compiled only under `RUSTFLAGS="--cfg cg_loom"` (CI's model-check job):
//! that cfg swaps `cg_trace::sync::{Mutex, MutexGuard}` — the lock inside
//! `EventLog` — to `loom::sync`, so `loom::model` exhaustively explores the
//! schedules of the seq-allocation critical section with the production
//! code, not a mirror of it.
#![cfg(cg_loom)]

use cg_sim::SimTime;
use cg_trace::{Event, EventLog};
use std::collections::BTreeSet;

fn ev(job: u64) -> Event {
    Event::JobQueued { job }
}

/// Two writers calling the real `EventLog::record` concurrently: under
/// every schedule the allocated seqs are gap-free and duplicate-free.
#[test]
fn concurrent_record_allocates_gap_free_seqs() {
    let iterations = loom::model(|| {
        let log = EventLog::new(64);
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let log = log.clone();
                loom::thread::spawn(move || {
                    for k in 0..2u64 {
                        log.record(SimTime::from_nanos(k), ev(w * 10 + k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let seqs: Vec<u64> = log.snapshot().iter().map(|t| t.seq).collect();
        let distinct: BTreeSet<u64> = seqs.iter().copied().collect();
        assert_eq!(distinct.len(), seqs.len(), "duplicate seq: {seqs:?}");
        assert_eq!(
            distinct,
            (0..4).collect::<BTreeSet<u64>>(),
            "seqs not gap-free: {seqs:?}"
        );
    });
    assert!(iterations > 1, "only {iterations} interleaving(s) explored");
}
