//! The trace's allocation budget for names: what recording and decoding an
//! event cost in heap allocations.
//!
//! A job leaves about seventeen events naming its user, its site, its lease
//! target, its VM slot and the policy that placed it. Each of those names is
//! an `Arc<str>` its owner made once, so building the event from the held
//! names and recording it into a full ring allocates nothing; reading an
//! event back from the journal makes exactly one allocation per string
//! field, straight from the buffer's bytes. The benchmark's `allocs_per_op`
//! bound (12 %) would let a copied name per event creep back unnoticed, so
//! this test counts.
//!
//! The file holds one test on purpose: the counter is process-wide.

use std::sync::Arc;

use cg_sim::SimTime;
use cg_trace::{
    decode_event, encode_event, Event, EventLog, FieldSamples, MetricsRegistry, TimedEvent,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

/// The names one job's events carry, as their owners hold them.
struct Names {
    user: Arc<str>,
    site: Arc<str>,
    target: Arc<str>,
    backend: Arc<str>,
    policy: Arc<str>,
    kind: Arc<str>,
    machine: Arc<str>,
    stream: Arc<str>,
}

/// Every per-job event that names something, built from the held names.
fn job_events(n: &Names, job: u64) -> [Event; 15] {
    let name = Arc::clone;
    [
        Event::JobSubmitted {
            job,
            user: name(&n.user),
            interactive: true,
        },
        Event::PolicyDecision {
            job,
            policy: name(&n.policy),
            site: name(&n.site),
            score: 1.5,
        },
        Event::LeaseGranted {
            job,
            target: name(&n.target),
            until_ns: 9,
        },
        Event::JobDispatched {
            job,
            target: name(&n.target),
            backend: name(&n.backend),
        },
        Event::AgentDeployed {
            agent: job,
            site: name(&n.site),
        },
        Event::LrmsQueued {
            site: name(&n.site),
            job,
        },
        Event::LrmsStarted {
            site: name(&n.site),
            job,
            nodes: 1,
        },
        Event::SlotStarted {
            machine: name(&n.machine),
            interactive: true,
        },
        Event::SlotPreempted {
            machine: name(&n.machine),
            batch_rate_pct: 10,
        },
        Event::PriorityChanged {
            usage: job,
            kind: name(&n.kind),
        },
        Event::SpoolAppend {
            stream: name(&n.stream),
            seq: 1,
        },
        Event::SpoolAck {
            stream: name(&n.stream),
            seq: 1,
        },
        Event::SlotRestored {
            machine: name(&n.machine),
        },
        Event::SlotFinished {
            machine: name(&n.machine),
            interactive: true,
        },
        Event::LrmsFinished {
            site: name(&n.site),
            job,
        },
    ]
}

#[test]
fn recording_shares_names_and_decoding_copies_each_string_once() {
    // Sharing names must not grow the ring's element: 96 bytes is its size
    // with every name a `String`.
    assert!(
        size_of::<TimedEvent>() <= 96,
        "TimedEvent grew to {} bytes",
        size_of::<TimedEvent>()
    );

    let names = Names {
        user: "alice".into(),
        site: "cesga".into(),
        target: "site:cesga".into(),
        backend: "sim-lrms".into(),
        policy: "free-cpus-rank".into(),
        kind: "interactive".into(),
        machine: "agent-3".into(),
        stream: "console:7".into(),
    };
    // A full ring, as in a long run: every record evicts the oldest, and
    // every per-kind counter already exists.
    let log = EventLog::with_metrics(64, MetricsRegistry::new());
    for job in 0..8 {
        for event in job_events(&names, job) {
            log.record(SimTime::from_secs(job), event);
        }
    }
    assert_eq!(log.len(), 64);
    let ((), calls) = counted(|| {
        for job in 8..40 {
            for event in job_events(&names, job) {
                log.record(SimTime::from_secs(job), event);
            }
        }
    });
    assert_eq!(calls, 0, "recording a job's named events allocated");
    assert_eq!(log.dropped(), 32 * 15 + 8 * 15 - 64);

    // Reading back: one allocation per string field, whichever of the two
    // string types holds it.
    let samples = FieldSamples {
        u64s: [7, 9],
        u32: 3,
        flag: true,
        f64: 0.5,
        strs: ["cesga", "agent:3"],
    };
    for (seq, event) in (0u64..).zip(Event::catalog(samples)) {
        let te = TimedEvent {
            at: SimTime::from_nanos(seq),
            seq,
            event,
        };
        let mut buf = Vec::new();
        encode_event(&te, &mut buf);
        // A string field renders as `"name":"value"`, as does the `event`
        // kind before them, and no sample holds `":"`.
        let strings = te.to_json().matches("\":\"").count() as u64 - 1;
        let (back, calls) = counted(|| decode_event(&buf));
        assert_eq!(back.as_ref(), Ok(&te));
        assert_eq!(
            calls,
            strings,
            "{}: {strings} string fields",
            te.event.kind()
        );
    }
}
