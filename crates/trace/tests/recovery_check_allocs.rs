//! The recovery check's allocation budget: what `check_recovery_invariants`
//! costs in heap allocations as the job table grows behind a fixed tail.
//!
//! Rule 6a refolds the tail over copies of just the jobs the tail names, and
//! rule 6b looks each job up in the rebuilt side once, so two states with the
//! same tail are checked with the same number of allocations however many
//! jobs they hold. A check that cloned the whole state to refold it would pay
//! at least one allocation per job (each job's retained JDL string); this
//! test counts, with the rebuilt side a `ReplayState` and a view answering
//! from a hash table by id, as the rebuilt broker answers from its own.
//!
//! The file holds one test on purpose: the counter is process-wide.

use std::collections::HashMap;
use std::sync::Arc;

use cg_sim::SimTime;
use cg_trace::{
    check_recovery_invariants, Event, RecoveredJob, RecoveredView, ReplayState, TimedEvent,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

const TAIL: usize = 50;

/// The events of one job from submission to `steps` of its lifecycle:
/// submitted, described, leased, dispatched, started, finished.
fn job_events(job: u64, steps: usize) -> impl Iterator<Item = Event> {
    let lifecycle = [
        Event::JobSubmitted {
            job,
            user: format!("user-{}", job % 8).into(),
            interactive: job.is_multiple_of(3),
        },
        Event::JobAd {
            job,
            jdl: "Executable = \"sim\"; Requirements = other.FreeCpus > 0;".into(),
            runtime_ns: 60_000_000_000,
        },
        Event::LeaseGranted {
            job,
            target: format!("site:site-{}", job % 18).into(),
            until_ns: u64::MAX,
        },
        Event::JobDispatched {
            job,
            target: format!("site:site-{}", job % 18).into(),
            backend: "sim-lrms".into(),
        },
        Event::JobStarted { job },
        Event::JobFinished { job },
    ];
    lifecycle.into_iter().take(steps)
}

fn timed(events: impl IntoIterator<Item = Event>, first_seq: u64) -> Vec<TimedEvent> {
    events
        .into_iter()
        .zip(first_seq..)
        .map(|(event, seq)| TimedEvent {
            at: SimTime::from_nanos(seq * 1_000_000),
            seq,
            event,
        })
        .collect()
}

/// A rebuilt side that holds only what the check reads, by id.
struct ById {
    jobs: HashMap<u64, RecoveredJob>,
    acked: HashMap<Arc<str>, u64>,
}

impl RecoveredView for ById {
    fn job(&self, id: u64) -> Option<RecoveredJob> {
        self.jobs.get(&id).cloned()
    }

    fn job_count(&self) -> usize {
        self.jobs.len()
    }

    fn job_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.jobs.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn agent_alive(&self, _id: u64) -> bool {
        false
    }

    fn acked(&self, stream: &str) -> u64 {
        self.acked.get(stream).copied().unwrap_or(0)
    }

    fn leased_and_queued(&self, _crash_at_ns: u64) -> Vec<u64> {
        Vec::new()
    }
}

/// `jobs` finished jobs, then a tail of `TAIL` events: eight more jobs from
/// submission to start, a spool stream and an agent. Returns the check's
/// allocations against a `ReplayState` and against a by-id view.
fn check_counted(jobs: u64) -> (u64, u64) {
    let prefix: Vec<Event> = (0..jobs).flat_map(|job| job_events(job, 6)).collect();
    let mut tail_events: Vec<Event> = (jobs..jobs + 8)
        .flat_map(|job| job_events(job, 5))
        .collect();
    tail_events.extend([
        Event::AgentDeployed {
            agent: 0,
            site: "site-0".into(),
        },
        Event::AgentReady { agent: 0 },
        Event::AgentDied {
            agent: 0,
            reason: "walltime".into(),
            voluntary: true,
        },
    ]);
    for seq in 1..=7 {
        tail_events.push(if seq % 2 == 1 {
            Event::SpoolAppend {
                stream: "job-1.stdout".into(),
                seq,
            }
        } else {
            Event::SpoolAck {
                stream: "job-1.stdout".into(),
                seq: seq - 1,
            }
        });
    }
    assert_eq!(tail_events.len(), TAIL);
    let tail = timed(tail_events, prefix.len() as u64);
    let mut expected = ReplayState::from_events(&timed(prefix, 0));
    for ev in &tail {
        expected.apply(ev);
    }
    assert_eq!(expected.jobs.len() as u64, jobs + 8);
    let recovered = expected.clone();
    let (violations, calls) = counted(|| check_recovery_invariants(&tail, &expected, &recovered));
    assert!(violations.is_empty(), "{violations:?}");
    let by_id = ById {
        jobs: (expected.jobs.iter())
            .map(|(id, job)| (*id, RecoveredJob::from(job)))
            .collect(),
        acked: (expected.spools.iter())
            .map(|(stream, mark)| (Arc::clone(stream), mark.acked))
            .collect(),
    };
    let (violations, by_id_calls) = counted(|| check_recovery_invariants(&tail, &expected, &by_id));
    assert!(violations.is_empty(), "{violations:?}");
    (calls, by_id_calls)
}

#[test]
fn the_recovery_check_allocates_for_the_tail_not_for_the_table() {
    let small = check_counted(1_000);
    let large = check_counted(10_000);
    assert_eq!(
        small, large,
        "(ReplayState, by id) 1 000 jobs: {small:?} allocations; 10 000 jobs: {large:?}"
    );
}
