//! Backend conformance harness: one parameterized suite proving every
//! execution backend — the sim LRMS and the external-process runner —
//! satisfies the same contract:
//!
//! - dispatch-latency ordering of the job lifecycle,
//! - kill-during-queue and kill-during-the-dispatch-window semantics
//!   (terminal, never started),
//! - disposition retention, including across rejoin reconciliation,
//! - `accepts_queued_jobs` agreement with the published machine ad,
//! - `ad_state()` agreement with the three reads it stands for, after every
//!   event of the single-backend scenarios,
//! - whole-stream invariant rules 1–8 + 5b on a full broker run,
//! - same-seed replay identity (real execution never perturbs the sim),
//! - `LrmsStats` balance under arbitrary interleavings, and the real-exec
//!   counters agreeing with the `Started` events delivered (proptest).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crossgrid::net::FaultSchedule;
use crossgrid::prelude::*;
use crossgrid::sim::RunOutcome;
use crossgrid::site::{
    BackendError, BackendHandle, BackendSpec, LocalDisposition, LocalJobId, LocalJobSpec,
    LrmsEvent, Policy,
};
use crossgrid::trace::replay::{Bucket, ReplayState};
use crossgrid::trace::{check_recovery_invariants, TimedEvent};
use proptest::prelude::*;

mod common;
use common::{all_backend_specs, bucket_of};

const SEED: u64 = 7;

fn latency() -> SimDuration {
    SimDuration::from_millis(1_500)
}

fn build(spec: &BackendSpec, policy: Policy, nodes: usize) -> BackendHandle {
    spec.build(policy, nodes, latency(), 64)
        .expect("conformance specs are structurally valid")
}

/// Per-job lifecycle recording: `(job, tag, nanos)` per callback delivery.
type Lifecycle = Rc<RefCell<Vec<(u64, &'static str, u64)>>>;

fn tag(ev: &LrmsEvent) -> &'static str {
    match ev {
        LrmsEvent::Queued => "queued",
        LrmsEvent::Started { .. } => "started",
        LrmsEvent::Finished => "finished",
        LrmsEvent::Killed { .. } => "killed",
    }
}

fn submit_recorded(
    backend: &BackendHandle,
    sim: &mut Sim,
    runtime: SimDuration,
    trace: &Lifecycle,
) -> LocalJobId {
    let t = Rc::clone(trace);
    backend.submit(sim, LocalJobSpec::simple(runtime), move |sim, id, ev| {
        t.borrow_mut().push((id.0, tag(ev), sim.now().as_nanos()));
    })
}

/// `ad_state()` is the three reads a machine ad is keyed on, taken together.
fn assert_ad_state_agrees(b: &BackendHandle) {
    assert_eq!(
        b.ad_state(),
        (b.free_nodes(), b.queue_depth(), b.accepts_queued_jobs()),
        "{:?} at {} queued, {} running",
        b.kind(),
        b.queue_depth(),
        b.running_count()
    );
}

/// `sim.run_until(horizon)`, one event at a time, with
/// [`assert_ad_state_agrees`] before the first event and after each.
fn run_checked(sim: &mut Sim, backend: &BackendHandle, horizon: SimTime) {
    loop {
        assert_ad_state_agrees(backend);
        sim.set_event_budget(sim.events_executed() + 1);
        if sim.run_until(horizon) != RunOutcome::BudgetExhausted {
            break;
        }
    }
    sim.set_event_budget(u64::MAX);
    assert_ad_state_agrees(backend);
}

fn events_of(trace: &Lifecycle, id: LocalJobId) -> Vec<(&'static str, u64)> {
    trace
        .borrow()
        .iter()
        .filter(|(j, _, _)| *j == id.0)
        .map(|(_, t, at)| (*t, *at))
        .collect()
}

// ---------------------------------------------------------------------------
// Construction and dispatch-latency ordering
// ---------------------------------------------------------------------------

#[test]
fn invalid_capacity_is_a_typed_error_for_every_backend() {
    for spec in all_backend_specs() {
        assert!(
            matches!(
                spec.build(Policy::Fifo, 0, latency(), 64),
                Err(BackendError::ZeroNodes)
            ),
            "{spec:?}: zero nodes must be rejected"
        );
    }
    assert!(matches!(
        BackendSpec::Process {
            program: String::new()
        }
        .build(Policy::Fifo, 2, latency(), 64),
        Err(BackendError::EmptyProgram)
    ));
    assert!(
        Site::try_new(SiteConfig {
            nodes: 0,
            ..SiteConfig::default()
        })
        .is_err(),
        "Site::try_new must propagate backend construction errors"
    );
}

#[test]
fn dispatch_latency_orders_every_lifecycle() {
    for spec in all_backend_specs() {
        let mut sim = Sim::new(11);
        let backend = build(&spec, Policy::Fifo, 2);
        let trace: Lifecycle = Rc::new(RefCell::new(Vec::new()));
        let ids: Vec<LocalJobId> = (0..3)
            .map(|_| submit_recorded(&backend, &mut sim, SimDuration::from_secs(5), &trace))
            .collect();
        run_checked(&mut sim, &backend, SimTime::from_secs(60));

        let mut finish_of_first_wave = u64::MAX;
        for (i, id) in ids.iter().enumerate() {
            let evs = events_of(&trace, *id);
            assert_eq!(
                evs.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
                vec!["queued", "started", "finished"],
                "{spec:?}: job {i} lifecycle out of order: {evs:?}"
            );
            let queued_at = evs[0].1;
            let started_at = evs[1].1;
            assert!(
                started_at >= queued_at + latency().as_nanos(),
                "{spec:?}: job {i} started {started_at} before its dispatch \
                 latency elapsed (queued {queued_at})"
            );
            if i < 2 {
                finish_of_first_wave = finish_of_first_wave.min(evs[2].1);
            } else {
                // Two nodes: the third job cannot start until a first-wave
                // job has freed its node.
                assert!(
                    started_at >= finish_of_first_wave,
                    "{spec:?}: job 2 started at {started_at} while both \
                     nodes were still busy (first free at {finish_of_first_wave})"
                );
            }
        }
        let stats = backend.stats();
        assert_eq!(stats.submitted, 3, "{spec:?}");
        assert_eq!(stats.finished, 3, "{spec:?}");
        assert_eq!(stats.killed, 0, "{spec:?}");
    }
}

#[test]
fn kill_during_queue_is_terminal_and_never_starts() {
    for spec in all_backend_specs() {
        let mut sim = Sim::new(13);
        let backend = build(&spec, Policy::Fifo, 1);
        let trace: Lifecycle = Rc::new(RefCell::new(Vec::new()));
        let a = submit_recorded(&backend, &mut sim, SimDuration::from_secs(100), &trace);
        let b = submit_recorded(&backend, &mut sim, SimDuration::from_secs(10), &trace);

        // `b` is still queued behind `a` at t=5 s; kill it there.
        let killer = backend.clone();
        sim.schedule_at(SimTime::from_secs(5), move |sim| {
            assert!(killer.kill(sim, b, "conformance"), "queued kill must land");
            assert_eq!(killer.disposition(b), Some(LocalDisposition::Killed));
            assert_eq!(killer.queue_depth(), 0);
        });
        run_checked(&mut sim, &backend, SimTime::from_secs(300));

        assert_eq!(
            events_of(&trace, b)
                .iter()
                .map(|(t, _)| *t)
                .collect::<Vec<_>>(),
            vec!["queued", "killed"],
            "{spec:?}: a queue-killed job must never start"
        );
        assert_eq!(backend.disposition(a), Some(LocalDisposition::Finished));
        let stats = backend.stats();
        assert_eq!((stats.submitted, stats.finished, stats.killed), (2, 1, 1));
        assert!(
            !backend.kill(&mut sim, LocalJobId(99), "unknown"),
            "{spec:?}: killing an unknown job must report it"
        );
    }
}

#[test]
fn kill_during_the_dispatch_window_is_terminal_and_never_starts() {
    for spec in all_backend_specs() {
        let mut sim = Sim::new(13);
        let backend = build(&spec, Policy::Fifo, 1);
        let trace: Lifecycle = Rc::new(RefCell::new(Vec::new()));
        let a = submit_recorded(&backend, &mut sim, SimDuration::from_secs(100), &trace);
        let b = submit_recorded(&backend, &mut sim, SimDuration::from_secs(10), &trace);

        // At t=1 s `a` is off the queue with the node reserved and 0.5 s of
        // dispatch latency still to run; kill it there.
        let killer = backend.clone();
        sim.schedule_at(SimTime::from_secs(1), move |sim| {
            assert_eq!(killer.dispatching_count(), 1, "the window is open");
            assert!(killer.kill(sim, a, "conformance"), "window kill must land");
            assert_eq!(killer.disposition(a), Some(LocalDisposition::Killed));
            assert_eq!((killer.dispatching_count(), killer.free_nodes()), (0, 1));
            let s = killer.stats();
            let live = killer.queue_depth() + killer.dispatching_count() + killer.running_count();
            assert_eq!(s.submitted, live as u64 + s.finished + s.killed);
        });
        run_checked(&mut sim, &backend, SimTime::from_secs(300));

        let tags = |id| {
            let evs = events_of(&trace, id);
            evs.iter().map(|(t, _)| *t).collect::<Vec<_>>()
        };
        assert_eq!(
            tags(a),
            ["queued", "killed"],
            "{spec:?}: a window-killed job must never start"
        );
        assert_eq!(
            tags(b),
            ["queued", "started", "finished"],
            "{spec:?}: the freed node goes to the next job"
        );
        let stats = backend.stats();
        assert_eq!((stats.submitted, stats.finished, stats.killed), (2, 1, 1));
        assert_eq!(backend.free_nodes(), 1, "{spec:?}");
    }
}

// ---------------------------------------------------------------------------
// Disposition retention
// ---------------------------------------------------------------------------

#[test]
fn disposition_retention_evicts_oldest_for_every_backend() {
    for spec in all_backend_specs() {
        let mut sim = Sim::new(17);
        let backend = spec
            .build(Policy::Fifo, 1, SimDuration::ZERO, 4)
            .expect("valid spec");
        let ids: Vec<LocalJobId> = (0..10)
            .map(|_| {
                backend.submit(
                    &mut sim,
                    LocalJobSpec::simple(SimDuration::from_secs(1)),
                    |_, _, _| {},
                )
            })
            .collect();
        run_checked(&mut sim, &backend, SimTime::from_secs(60));

        for id in &ids[..6] {
            assert_eq!(
                backend.disposition(*id),
                None,
                "{spec:?}: evicted disposition resurfaced"
            );
        }
        for id in &ids[6..] {
            assert_eq!(
                backend.disposition(*id),
                Some(LocalDisposition::Finished),
                "{spec:?}: recent disposition evicted"
            );
        }
        assert_eq!(backend.stats().finished, 10, "{spec:?}");
    }
}

// ---------------------------------------------------------------------------
// Admission-policy agreement with the published ad
// ---------------------------------------------------------------------------

#[test]
fn accepts_queued_agrees_with_the_published_machine_ad() {
    for spec in all_backend_specs() {
        let site = Site::try_new(SiteConfig {
            name: "conf".into(),
            nodes: 1,
            backend: spec.clone(),
            ..SiteConfig::default()
        })
        .expect("valid spec");
        let mut sim = Sim::new(19);
        let published = |site: &Site| {
            site.machine_ad()
                .get("AcceptsQueued")
                .and_then(crossgrid::jdl::Value::as_bool)
                .expect("AcceptsQueued is published as a bool")
        };

        assert!(site.lrms().accepts_queued_jobs(), "{spec:?}: fresh site");
        assert!(published(&site), "{spec:?}: fresh ad must accept");

        // One running + four queued jobs saturate the bounded queue
        // (4 × nodes): the backend and its ad must close together.
        for _ in 0..5 {
            site.lrms().submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(500)),
                |_, _, _| {},
            );
        }
        run_checked(&mut sim, site.lrms(), SimTime::from_secs(10));
        assert!(
            !site.lrms().accepts_queued_jobs(),
            "{spec:?}: queue at 4×nodes must refuse admission"
        );
        assert!(
            !published(&site),
            "{spec:?}: the ad must publish the refusal the co-allocation \
             filter keys on"
        );
    }
}

// ---------------------------------------------------------------------------
// Rejoin reconciliation (broker-level retention regression)
// ---------------------------------------------------------------------------

fn outage() -> FaultSchedule {
    FaultSchedule::from_windows(vec![(SimTime::from_secs(20), SimTime::from_secs(1_300))])
}

fn exclusive() -> crossgrid::jdl::JobDescription {
    crossgrid::jdl::JobDescription::parse(
        r#"Executable = "viz"; JobType = "interactive"; MachineAccess = "exclusive"; User = "alice";"#,
    )
    .unwrap()
}

/// A dispatched job finishes at the site while its link is down, so the
/// GRAM completion message is lost; once the site rejoins, the broker's
/// reconciliation poll must find the (recent, retained) disposition and
/// terminate the job. Run per backend; a retention cap of 4 pins the
/// regression from the unbounded-retention fix.
#[test]
fn rejoin_reconciliation_finds_recent_dispositions() {
    for spec in all_backend_specs() {
        let site = Site::try_new(SiteConfig {
            name: "alpha".into(),
            nodes: 2,
            policy: Policy::Fifo,
            backend: spec.clone(),
            disposition_retention: 4,
            ..SiteConfig::default()
        })
        .expect("valid spec");
        let backend = site.lrms().clone();
        let handles = vec![SiteHandle {
            site,
            broker_link: Link::with_faults(LinkProfile::campus(), outage()),
            ui_link: Link::with_faults(LinkProfile::campus(), outage()),
        }];
        let mds = Link::with_faults(LinkProfile::wan_mds(), FaultSchedule::none());
        let mut sim = Sim::new(SEED);
        let broker = CrossBroker::new(
            &mut sim,
            handles,
            mds,
            BrokerConfig {
                publish_faults: vec![outage()],
                ..BrokerConfig::default()
            },
        );
        // Dispatched before the outage (t≈5 s), finishes inside it
        // (t≈310 s): the completion message dies on the downed link.
        let id = broker.submit(&mut sim, exclusive(), SimDuration::from_secs(300));

        let mid_outage: Rc<RefCell<Option<JobState>>> = Rc::new(RefCell::new(None));
        let probe = Rc::clone(&mid_outage);
        let b = broker.clone();
        sim.schedule_at(SimTime::from_secs(1_000), move |_| {
            *probe.borrow_mut() = Some(b.record(id).state);
        });
        sim.run_until(SimTime::from_secs(2_400));

        let stranded = mid_outage.borrow().clone().expect("probe fired");
        assert!(
            !matches!(stranded, JobState::Done | JobState::Failed { .. }),
            "{spec:?}: at t=1000 s the broker cannot yet know the outcome \
             (got {stranded:?}) — otherwise this test proves nothing"
        );
        assert_eq!(
            broker.record(id).state,
            JobState::Done,
            "{spec:?}: rejoin reconciliation must deliver the retained \
             disposition"
        );
        assert_eq!(backend.stats().finished, 1, "{spec:?}");
    }
}

// ---------------------------------------------------------------------------
// Full-broker invariants + same-seed replay identity
// ---------------------------------------------------------------------------

fn grid_world(spec: &BackendSpec) -> (Vec<SiteHandle>, Link) {
    let handles = ["alpha", "beta"]
        .iter()
        .map(|name| {
            let site = Site::try_new(SiteConfig {
                name: (*name).into(),
                nodes: 2,
                policy: Policy::Fifo,
                backend: spec.clone(),
                ..SiteConfig::default()
            })
            .expect("valid spec");
            SiteHandle {
                site,
                broker_link: Link::with_faults(LinkProfile::campus(), FaultSchedule::none()),
                ui_link: Link::with_faults(LinkProfile::campus(), FaultSchedule::none()),
            }
        })
        .collect();
    (
        handles,
        Link::with_faults(LinkProfile::wan_mds(), FaultSchedule::none()),
    )
}

fn shared() -> crossgrid::jdl::JobDescription {
    crossgrid::jdl::JobDescription::parse(
        r#"Executable = "viz"; JobType = "interactive"; MachineAccess = "shared";
           PerformanceLoss = 10; User = "bob";"#,
    )
    .unwrap()
}

fn broken() -> crossgrid::jdl::JobDescription {
    crossgrid::jdl::JobDescription::parse(
        r#"Executable = "viz"; JobType = "interactive"; MachineAccess = "exclusive";
           User = "mallory"; Requirements = frob(1);"#,
    )
    .unwrap()
}

fn grid_run(spec: &BackendSpec, seed: u64) -> (Vec<TimedEvent>, Vec<JobRecord>, ReplayState) {
    let mut sim = Sim::new(seed);
    let (handles, mds) = grid_world(spec);
    let broker = CrossBroker::new(
        &mut sim,
        handles,
        mds,
        BrokerConfig {
            max_resubmissions: 10,
            ..BrokerConfig::default()
        },
    );
    for _ in 0..2 {
        broker.submit(&mut sim, exclusive(), SimDuration::from_secs(10));
    }
    let b = broker.clone();
    sim.schedule_at(SimTime::from_secs(1), move |sim| {
        b.submit(sim, broken(), SimDuration::from_secs(10));
    });
    let b = broker.clone();
    sim.schedule_at(SimTime::from_secs(45), move |sim| {
        b.submit(sim, exclusive(), SimDuration::from_secs(10));
    });
    let b = broker.clone();
    sim.schedule_at(SimTime::from_secs(120), move |sim| {
        b.submit(sim, shared(), SimDuration::from_secs(20));
    });
    sim.run_until(SimTime::from_secs(600));
    let state = broker.replay_state();
    (broker.event_log().snapshot(), broker.records(), state)
}

/// Blanks the per-backend label so streams from different backends can be
/// compared byte-for-byte: everything except the label must be identical.
fn neutral(mut e: TimedEvent) -> TimedEvent {
    if let Event::JobDispatched { backend, .. } = &mut e.event {
        *backend = String::new();
    }
    e
}

#[test]
fn full_grid_obeys_invariants_and_replays_bit_identically() {
    let mut bucket_sets: Vec<BTreeMap<u64, Bucket>> = Vec::new();
    let mut neutral_streams: Vec<Vec<TimedEvent>> = Vec::new();
    for spec in all_backend_specs() {
        let (events, records, recovered) = grid_run(&spec, SEED);
        assert_eq!(records.len(), 5, "{spec:?}");

        // Rules 1–5 + 5b on the whole stream.
        let violations = check_invariants(&events);
        assert!(violations.is_empty(), "{spec:?}: {violations:?}");

        // Rules 6–8: the stream's fold and the broker's live projection
        // (job table + spool watermarks) agree. Rule 6's agent clause
        // models a crash — glide-in agents never survive one, so an agent
        // alive on both sides is flagged. No crash happened here, so drop
        // the registry from the recovered view to keep the clause out of
        // a comparison it was never written for.
        let mut expected = ReplayState::default();
        for ev in &events {
            expected.apply(ev);
        }
        let mut recovered = recovered;
        recovered.agents.clear();
        let violations = check_recovery_invariants(&[], &expected, &recovered);
        assert!(violations.is_empty(), "{spec:?}: {violations:?}");

        // Dispatch events carry this backend's label.
        let mut dispatches = 0;
        for e in &events {
            if let Event::JobDispatched { backend, .. } = &e.event {
                assert_eq!(backend, spec.kind().as_str(), "{spec:?}");
                dispatches += 1;
            }
        }
        assert!(dispatches >= 4, "{spec:?}: workload barely dispatched");

        // Same-seed replay identity: a second run is bit-identical.
        let (replay, _, _) = grid_run(&spec, SEED);
        assert_eq!(events, replay, "{spec:?}: same-seed run diverged");

        bucket_sets.push(
            records
                .iter()
                .map(|r| (r.id.0, bucket_of(&r.state)))
                .collect(),
        );
        neutral_streams.push(events.into_iter().map(neutral).collect());
    }

    // Cross-backend: real execution must not perturb the sim at all — the
    // streams are identical once the dispatch label is blanked, and every
    // job lands in the same terminal bucket.
    for (i, spec) in all_backend_specs().iter().enumerate().skip(1) {
        assert_eq!(
            bucket_sets[i], bucket_sets[0],
            "{spec:?}: terminal buckets diverged from the sim backend"
        );
        assert_eq!(
            neutral_streams[i], neutral_streams[0],
            "{spec:?}: event stream diverged from the sim backend"
        );
    }
}

// ---------------------------------------------------------------------------
// Stats balance under arbitrary interleavings
// ---------------------------------------------------------------------------

proptest! {
    /// At every step of an arbitrary submit/kill/complete interleaving,
    /// `submitted = queued + dispatching + running + finished + killed` —
    /// a job is in exactly one of those states at any instant, on every
    /// backend — and so is a node: free, reserved for a dispatching job or
    /// held by a running one (every job here asks for one node). After the
    /// drain, the real-exec hook heard exactly the `Started` events the sim
    /// delivered and reaped every one; the sim backend has no hook.
    #[test]
    fn stats_balance_under_arbitrary_interleavings(
        ops in prop::collection::vec((0u8..3u8, 1u64..40u64), 1..25),
        seed in 1u64..1_000u64,
    ) {
        for spec in all_backend_specs() {
            let mut sim = Sim::new(seed);
            let backend = build(&spec, Policy::FifoBackfill, 2);
            let known: Rc<RefCell<Vec<LocalJobId>>> = Rc::new(RefCell::new(Vec::new()));
            let imbalances: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
            let started = Rc::new(std::cell::Cell::new(0u64));
            for (i, &(kind, x)) in ops.iter().enumerate() {
                let at = SimTime::from_secs(i as u64 * 7 + x);
                let b = backend.clone();
                let known = Rc::clone(&known);
                let imbalances = Rc::clone(&imbalances);
                let started = Rc::clone(&started);
                sim.schedule_at(at, move |sim| {
                    let pick = |ks: &[LocalJobId]| {
                        if ks.is_empty() {
                            None
                        } else {
                            Some(ks[x as usize % ks.len()])
                        }
                    };
                    match kind {
                        0 => {
                            let id = b.submit(
                                sim,
                                LocalJobSpec::simple(SimDuration::from_secs(x)),
                                move |_, _, ev| {
                                    if matches!(ev, LrmsEvent::Started { .. }) {
                                        started.set(started.get() + 1);
                                    }
                                },
                            );
                            known.borrow_mut().push(id);
                        }
                        1 => {
                            if let Some(id) = pick(&known.borrow()) {
                                b.kill(sim, id, "interleaving");
                            }
                        }
                        _ => {
                            if let Some(id) = pick(&known.borrow()) {
                                b.complete(sim, id);
                            }
                        }
                    }
                    assert_ad_state_agrees(&b);
                    let s = b.stats();
                    let live =
                        (b.queue_depth() + b.dispatching_count() + b.running_count()) as u64;
                    if s.submitted != live + s.finished + s.killed {
                        imbalances.borrow_mut().push(format!(
                            "op {i} ({kind},{x}): submitted {} != live {live} + \
                             finished {} + killed {}",
                            s.submitted, s.finished, s.killed
                        ));
                    }
                    let held = b.dispatching_count() + b.running_count();
                    if b.free_nodes() + held != b.total_nodes() {
                        imbalances.borrow_mut().push(format!(
                            "op {i} ({kind},{x}): {} free + {held} held != {} nodes",
                            b.free_nodes(),
                            b.total_nodes()
                        ));
                    }
                });
            }
            sim.run_until(SimTime::from_secs(25 * 7 + 100));
            prop_assert!(
                imbalances.borrow().is_empty(),
                "{:?}: {:?}",
                spec,
                imbalances.borrow()
            );
            let s = backend.stats();
            let live = (backend.queue_depth()
                + backend.dispatching_count()
                + backend.running_count()) as u64;
            prop_assert_eq!(
                s.submitted,
                live + s.finished + s.killed,
                "{:?}: final balance", spec
            );
            sim.run();
            let real = backend.real_exec();
            let heard = match spec {
                BackendSpec::Sim => 0,
                BackendSpec::Process { .. } => started.get(),
            };
            prop_assert_eq!(real.launched, heard, "{:?}: one launch per `Started`", spec);
            prop_assert_eq!(real.completed + real.failed, real.launched, "{:?}", spec);
        }
    }
}
