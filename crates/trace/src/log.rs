//! The shared, bounded event log.

use crate::sync::{Mutex, MutexGuard};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use cg_sim::SimTime;

use crate::event::{Event, TimedEvent};
use crate::journal::Journal;
use crate::metrics::MetricsRegistry;
use crate::replay::SpoolMark;

/// A deterministic kill point: the broker "crashes" immediately after the
/// event with this sequence number is journalled. Used by the kill-point
/// sweep to crash a scenario at every event boundary.
///
/// A crash here means the durable journal is sealed — synced and detached —
/// exactly after `after_event_seq`; everything the process does afterwards
/// is lost, precisely like power failing between two appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Seal the journal right after the event with this sequence number.
    pub after_event_seq: u64,
}

/// What the log remembers of the **whole** stream, however little of it the
/// ring still holds: a journal snapshot's bookkeeping reads this instead of
/// scanning (or cloning) the ring, and marks older than the ring survive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamFold {
    /// `(seq, at)` of the last recorded event.
    pub last: Option<(u64, SimTime)>,
    /// Spool watermarks folded over every `SpoolAppend`/`SpoolAck` recorded.
    pub spools: BTreeMap<Arc<str>, SpoolMark>,
}

/// Prefix of the per-kind event counters; [`LogInner::counter`] holds it
/// followed by the kind being counted.
const COUNTER_PREFIX: &str = "events.";

struct LogInner {
    ring: VecDeque<TimedEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    fold: StreamFold,
    metrics: Option<MetricsRegistry>,
    /// Scratch for the `events.<Kind>` counter name, reused across events.
    counter: String,
    journal: Option<Journal>,
    crash_after: Option<u64>,
    crashed: bool,
    journal_error: Option<String>,
}

impl LogInner {
    /// The single append path: seq allocation, ring eviction, journal
    /// append and the kill point all happen under the caller-held lock, so
    /// concurrent writers can never produce a gap, a duplicate seq, or a
    /// journal whose order disagrees with the ring.
    fn append(&mut self, at: SimTime, event: Event) {
        if let Some(metrics) = &self.metrics {
            self.counter.truncate(COUNTER_PREFIX.len());
            self.counter.push_str(event.kind());
            metrics.inc(&self.counter);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.fold.last = Some((seq, at));
        SpoolMark::fold(&mut self.fold.spools, &event);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let timed = TimedEvent { at, seq, event };
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append_event(&timed) {
                // A poisoned writer repeats its first error on every event;
                // only that first one is worth a message.
                self.journal_error
                    .get_or_insert_with(|| format!("journal append failed at seq {seq}: {e}"));
            }
        }
        if self.crash_after == Some(seq) {
            // The kill point: make everything up to and including `seq`
            // durable, then detach — later events are lost with the crash.
            if let Some(journal) = self.journal.take() {
                if let Err(e) = journal.sync() {
                    self.journal_error
                        .get_or_insert_with(|| format!("journal sync failed at crash point: {e}"));
                }
            }
            self.crashed = true;
        }
        self.ring.push_back(timed);
    }
}

/// A ring-buffered lifecycle event log.
///
/// Clones share the same buffer, so one log can be threaded through the
/// broker, agents, consoles and sites and read back in a single snapshot.
/// The ring keeps the newest `capacity` events; `dropped()` counts how many
/// older ones were evicted (sequence numbers stay gap-free regardless).
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<Mutex<LogInner>>,
}

impl EventLog {
    /// Creates a log keeping at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EventLog {
            inner: Arc::new(Mutex::new(LogInner {
                ring: VecDeque::new(),
                capacity: capacity.max(1),
                next_seq: 0,
                dropped: 0,
                fold: StreamFold::default(),
                metrics: None,
                counter: COUNTER_PREFIX.to_string(),
                journal: None,
                crash_after: None,
                crashed: false,
                journal_error: None,
            })),
        }
    }

    /// Creates a log that also bumps `events.<Kind>` counters in `metrics`
    /// for every recorded event.
    pub fn with_metrics(capacity: usize, metrics: MetricsRegistry) -> Self {
        let log = EventLog::new(capacity);
        log.lock().metrics = Some(metrics);
        log
    }

    fn lock(&self) -> MutexGuard<'_, LogInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attaches a durable journal: every event recorded from now on is
    /// also appended to it. Attach before the first `record` call if the
    /// journal must contain the whole stream.
    pub fn set_journal(&self, journal: Journal) {
        self.lock().journal = Some(journal);
    }

    /// The attached journal, if any (and not yet sealed by a crash).
    pub fn journal(&self) -> Option<Journal> {
        self.lock().journal.clone()
    }

    /// Arms a deterministic kill point (see [`CrashPlan`]).
    pub fn arm_crash(&self, plan: CrashPlan) {
        self.lock().crash_after = Some(plan.after_event_seq);
    }

    /// True once an armed [`CrashPlan`] has fired and sealed the journal.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// The first journal append/sync failure, if one occurred. Journal I/O
    /// trouble never takes the simulation down; it is surfaced here, and the
    /// journal writer refuses everything after it (no record lands behind a
    /// hole).
    pub fn journal_error(&self) -> Option<String> {
        self.lock().journal_error.clone()
    }

    /// Appends an event at sim time `at`.
    pub fn record(&self, at: SimTime, event: Event) {
        self.lock().append(at, event);
    }

    /// Appends a batch of events at sim time `at` under a single lock
    /// acquisition: the batch occupies one contiguous, gap-free run of
    /// sequence numbers with no other writer's events interleaved, so a
    /// group that belongs together (one job's lifecycle events, say) is
    /// never split by a writer on another thread.
    pub fn record_many<I: IntoIterator<Item = Event>>(&self, at: SimTime, events: I) {
        let mut inner = self.lock();
        for event in events {
            inner.append(at, event);
        }
    }

    /// The whole-stream fold (see [`StreamFold`]): O(streams), and unmoved
    /// by ring eviction or [`EventLog::clear`].
    pub fn stream_fold(&self) -> StreamFold {
        self.lock().fold.clone()
    }

    /// Copies out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.lock().ring.is_empty()
    }

    /// Events evicted by the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.lock().next_seq
    }

    /// Discards all retained events (sequence numbering continues).
    pub fn clear(&self) {
        self.lock().ring.clear();
    }

    /// Renders the retained events as JSON Lines, one object per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.lock().ring {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// What a dump of the ring must say once the ring has overflowed: how
    /// many events were evicted and where the retained stream starts.
    fn truncation_warning(&self) -> Option<String> {
        let inner = self.lock();
        let first = inner.ring.front().map_or(inner.next_seq, |e| e.seq);
        (inner.dropped > 0).then(|| {
            format!(
                "the event ring evicted {} event(s); the dump starts mid-stream at seq {first}",
                inner.dropped
            )
        })
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("EventLog")
            .field("len", &inner.ring.len())
            .field("capacity", &inner.capacity)
            .field("dropped", &inner.dropped)
            .finish()
    }
}

/// Writes `log` as JSONL to the file named by the environment variable
/// `env_var`, if set. Returns the path written, `None` when the variable is
/// unset or empty. Bench binaries call this after their run so
/// `CG_TRACE_JSONL=out.jsonl cargo run --bin …` captures the event stream
/// with no extra flags. A ring that has overflowed holds only the tail of
/// the stream; the dump is still written, with one warning on stderr.
pub fn dump_jsonl_env(log: &EventLog, env_var: &str) -> Option<std::path::PathBuf> {
    let path = std::env::var(env_var).ok().filter(|p| !p.is_empty())?;
    let path = std::path::PathBuf::from(path);
    if let Some(warning) = log.truncation_warning() {
        eprintln!("warning: {}: {warning}", path.display());
    }
    if let Err(e) = std::fs::write(&path, log.to_jsonl()) {
        eprintln!("warning: could not write {}: {e}", path.display());
        return None;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(job: u64) -> Event {
        Event::JobStarted { job }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let log = EventLog::new(3);
        for i in 0..5 {
            log.record(SimTime::from_secs(i), ev(i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.recorded(), 5);
        let snap = log.snapshot();
        assert_eq!(snap[0].seq, 2, "oldest retained is the third event");
        assert_eq!(snap[2].seq, 4);
    }

    #[test]
    fn a_dump_of_an_overflowed_ring_says_where_it_starts() {
        let log = EventLog::new(3);
        for i in 0..3 {
            log.record(SimTime::from_secs(i), ev(i));
        }
        assert_eq!(log.truncation_warning(), None, "nothing evicted yet");
        for i in 3..5 {
            log.record(SimTime::from_secs(i), ev(i));
        }
        let warning = log.truncation_warning().expect("two events were evicted");
        assert!(warning.contains("evicted 2 event(s)"), "{warning}");
        assert!(warning.contains("at seq 2"), "{warning}");
        assert!(log
            .to_jsonl()
            .starts_with("{\"at_ns\":2000000000,\"seq\":2,"));
    }

    /// The regression behind the fold: a snapshot taken after the ring had
    /// wrapped past a stream's last ack used to drop that stream's marks.
    #[test]
    fn the_stream_fold_outlives_ring_eviction_and_clear() {
        let log = EventLog::new(8);
        assert_eq!(log.stream_fold(), StreamFold::default());
        let stream: Arc<str> = "console:1".into();
        for seq in [1, 3, 2] {
            let stream = stream.clone();
            log.record(SimTime::from_secs(1), Event::SpoolAppend { stream, seq });
        }
        log.record(
            SimTime::from_secs(2),
            Event::SpoolAck {
                stream: stream.clone(),
                seq: 2,
            },
        );
        for i in 0..20 {
            log.record(SimTime::from_secs(10 + i), ev(i));
        }
        assert!(
            log.snapshot()
                .iter()
                .all(|e| e.event.kind() == "JobStarted"),
            "the ring has forgotten the spool events"
        );
        let want = StreamFold {
            last: Some((23, SimTime::from_secs(29))),
            spools: [(
                stream,
                SpoolMark {
                    appended: 3,
                    acked: 2,
                },
            )]
            .into(),
        };
        assert_eq!(log.stream_fold(), want);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.stream_fold(), want, "clear() empties the ring only");
    }

    #[test]
    fn clones_share_the_buffer() {
        let log = EventLog::new(16);
        let clone = log.clone();
        clone.record(SimTime::ZERO, ev(1));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn metrics_count_event_kinds() {
        let metrics = MetricsRegistry::new();
        let log = EventLog::with_metrics(16, metrics.clone());
        log.record(SimTime::ZERO, ev(1));
        log.record(SimTime::ZERO, ev(2));
        log.record(SimTime::ZERO, Event::JobFinished { job: 1 });
        assert_eq!(metrics.counter("events.JobStarted"), 2);
        assert_eq!(metrics.counter("events.JobFinished"), 1);
    }

    #[test]
    fn threads_can_record_concurrently() {
        let log = EventLog::new(1024);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = log.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        log.record(SimTime::from_nanos(i), ev(t));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 400);
        // Sequence numbers are unique even under contention.
        let mut seqs: Vec<u64> = log.snapshot().iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 400);
    }

    #[test]
    fn concurrent_writers_keep_the_journal_gap_free() {
        use crate::journal::{open_journal, Journal, JournalConfig};
        let path = std::env::temp_dir().join(format!(
            "cg-log-conc-{}-{:?}.jrnl",
            std::process::id(),
            std::thread::current().id()
        ));
        let log = EventLog::new(4096);
        log.set_journal(Journal::create(&path, JournalConfig { fsync_every: 64 }).unwrap());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let log = log.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        log.record(SimTime::from_nanos(i), ev(t));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        log.journal().unwrap().sync().unwrap();
        assert_eq!(log.journal_error(), None);
        let loaded = open_journal(&path).unwrap();
        let seqs: Vec<u64> = loaded.events.iter().map(|e| e.seq).collect();
        assert_eq!(
            seqs,
            (0..400).collect::<Vec<u64>>(),
            "journal order is the allocation order: monotonic and gap-free"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_many_keeps_batches_contiguous_under_contention() {
        let log = EventLog::new(4096);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let log = log.clone();
                std::thread::spawn(move || {
                    for _ in 0..40 {
                        // One job's lifecycle flushed as an atomic batch.
                        log.record_many(
                            SimTime::from_nanos(t),
                            [Event::JobStarted { job: t }, Event::JobFinished { job: t }],
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 640);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "gap-free under contention");
        }
        // Every batch is contiguous: a JobStarted is always immediately
        // followed by the same writer's JobFinished.
        for pair in snap.chunks(2) {
            let (Event::JobStarted { job: a }, Event::JobFinished { job: b }) =
                (&pair[0].event, &pair[1].event)
            else {
                panic!("interleaved batch at seq {}", pair[0].seq);
            };
            assert_eq!(a, b, "batch from one writer stayed together");
        }
    }

    #[test]
    fn armed_crash_seals_the_journal_at_the_kill_point() {
        use crate::journal::{open_journal, Journal, JournalConfig};
        let path = std::env::temp_dir().join(format!(
            "cg-log-crash-{}-{:?}.jrnl",
            std::process::id(),
            std::thread::current().id()
        ));
        let log = EventLog::new(64);
        log.set_journal(Journal::create(&path, JournalConfig { fsync_every: 1 }).unwrap());
        log.arm_crash(CrashPlan { after_event_seq: 2 });
        for i in 0..6 {
            log.record(SimTime::from_secs(i), ev(i));
        }
        assert!(log.crashed());
        assert!(
            log.journal().is_none(),
            "journal detached at the kill point"
        );
        assert_eq!(log.len(), 6, "the in-memory ring keeps running");
        let loaded = open_journal(&path).unwrap();
        let seqs: Vec<u64> = loaded.events.iter().map(|e| e.seq).collect();
        assert_eq!(
            seqs,
            vec![0, 1, 2],
            "exactly the pre-crash prefix is durable"
        );
        assert_eq!(log.journal_error(), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn golden_jsonl_shape() {
        let log = EventLog::new(16);
        log.record(
            SimTime::from_secs(1),
            Event::JobSubmitted {
                job: 7,
                user: "al\"ice".into(),
                interactive: true,
            },
        );
        log.record(
            SimTime::from_secs(2),
            Event::LeaseGranted {
                job: 7,
                target: "agent:0".into(),
                until_ns: 2_500_000_000,
            },
        );
        log.record(
            SimTime::from_secs(3),
            Event::Measurement {
                name: "response_s".into(),
                value: 2.0,
            },
        );
        let expected = concat!(
            "{\"at_ns\":1000000000,\"seq\":0,\"event\":\"JobSubmitted\",",
            "\"job\":7,\"user\":\"al\\\"ice\",\"interactive\":true}\n",
            "{\"at_ns\":2000000000,\"seq\":1,\"event\":\"LeaseGranted\",",
            "\"job\":7,\"target\":\"agent:0\",\"until_ns\":2500000000}\n",
            "{\"at_ns\":3000000000,\"seq\":2,\"event\":\"Measurement\",",
            "\"name\":\"response_s\",\"value\":2.0}\n",
        );
        assert_eq!(log.to_jsonl(), expected);
    }

    #[test]
    fn jsonl_lines_are_schema_clean() {
        // Every line must start with the three envelope fields in order and
        // be a structurally balanced flat object — a cheap stand-in for a
        // JSON parser in this no-serde workspace.
        let log = EventLog::new(64);
        log.record(SimTime::ZERO, ev(1));
        log.record(
            SimTime::from_secs(9),
            Event::JobFailed {
                job: 1,
                reason: "lease expired\n(retry)".into(),
            },
        );
        log.record(
            SimTime::from_secs(10),
            Event::BufferFlush {
                stream: "stdout-r0".into(),
                reason: "timeout".into(),
                bytes: 42,
            },
        );
        for line in log.to_jsonl().lines() {
            assert!(line.starts_with("{\"at_ns\":"), "envelope first: {line}");
            assert!(line.contains("\"seq\":"), "seq present: {line}");
            assert!(line.contains("\"event\":\""), "kind present: {line}");
            assert!(line.ends_with('}'), "closed object: {line}");
            // Balanced, non-nested braces and an even number of unescaped
            // quotes mean the object is structurally sound.
            let bare = line.replace("\\\"", "").replace("\\\\", "");
            assert_eq!(bare.matches('{').count(), 1, "flat object: {line}");
            assert_eq!(bare.matches('}').count(), 1, "flat object: {line}");
            assert_eq!(bare.matches('"').count() % 2, 0, "quotes paired: {line}");
            assert!(!bare.contains('\n'), "one line per event");
        }
    }
}
