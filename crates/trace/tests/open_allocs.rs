//! The journal reader's allocation budget: what `open_journal` costs in heap
//! allocations as a journal grows behind its last snapshot.
//!
//! The reader checks every event frame but builds only the events past the
//! last snapshot, so two journals with the same tail open with the same
//! number of allocations however many summarised events lie before it. A
//! reader that decoded every event and then dropped the summarised ones would
//! pay one allocation per string field of every event in the file; this test
//! counts.
//!
//! The file holds one test on purpose: the counter is process-wide.

use std::path::PathBuf;

use cg_sim::SimTime;
use cg_trace::{open_journal, Event, Journal, JournalConfig, LoadedJournal, TimedEvent};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

const SNAPSHOTS: u64 = 10;
const TAIL: u64 = 50;

/// One event naming a user and one naming a site, in turn: a string field
/// each, as most of a run's events have.
fn event(seq: u64) -> TimedEvent {
    let event = if seq.is_multiple_of(2) {
        Event::JobSubmitted {
            job: seq,
            user: format!("user-{}", seq % 7).into(),
            interactive: seq.is_multiple_of(3),
        }
    } else {
        Event::LrmsQueued {
            site: format!("site-{}", seq % 18).into(),
            job: seq,
        }
    };
    TimedEvent {
        at: SimTime::from_nanos(seq * 1_000),
        seq,
        event,
    }
}

/// Writes `summarised` events under `SNAPSHOTS` evenly spaced snapshots of
/// one fixed blob, then the `TAIL` events no snapshot covers.
fn write_journal(summarised: u64) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cg-open-allocs-{}-{summarised}.jrnl",
        std::process::id()
    ));
    let journal = Journal::create(&path, JournalConfig::default()).unwrap();
    let state = vec![0x5a; 4096];
    let interval = summarised / SNAPSHOTS;
    for seq in 0..summarised + TAIL {
        journal.append_event(&event(seq)).unwrap();
        if (seq + 1).is_multiple_of(interval) && seq < summarised {
            journal.append_snapshot(seq, &state).unwrap();
        }
    }
    journal.sync().unwrap();
    path
}

fn open_counted(summarised: u64) -> u64 {
    let path = write_journal(summarised);
    let (loaded, calls) = counted(|| open_journal(&path));
    let loaded: LoadedJournal = loaded.unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.truncated_bytes, 0);
    assert_eq!(
        loaded.snapshot.map(|s| s.through_seq),
        Some(summarised - 1),
        "the last snapshot covers every summarised event"
    );
    let seqs: Vec<u64> = loaded.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (summarised..summarised + TAIL).collect::<Vec<_>>());
    calls
}

#[test]
fn opening_allocates_for_the_tail_not_for_the_summarised_events() {
    let small = open_counted(2_000);
    let large = open_counted(20_000);
    // Ten times the summarised events may cost only what the reader's
    // buffers take to grow to a longer snapshot interval: a few doublings.
    assert!(
        small.abs_diff(large) <= 16,
        "2 000 summarised events: {small} allocations; 20 000: {large}"
    );
    // Decoding the tail is one allocation per string field plus the events
    // vector; the rest is the file, the read window and the reader's
    // buffers.
    let bound = 2 * TAIL + 32;
    assert!(
        small.max(large) <= bound,
        "{small} / {large} allocations over a {TAIL}-event tail (bound {bound})"
    );
}
