//! The rebuilt broker read in place gives the recovery check exactly what
//! its snapshot projection gives it, on a faithful rebuild and on one
//! tampered with field by field.

use cg_jdl::JobDescription;
use cg_sim::{Sim, SimDuration, SimTime};
use cg_trace::replay::Phase;
use cg_trace::{check_recovery_invariants, LoadedJournal, ReplayState};
use cg_vm::AgentId;

use super::super::tests::parts;
use super::{CrossBroker, Inner};
use crate::config::BrokerConfig;
use crate::job::{JobId, JobRecord, JobState};

impl CrossBroker {
    /// Edits the rebuilt tables behind recovery's back.
    fn tamper(&self, edit: impl FnOnce(&mut Inner)) {
        edit(&mut self.inner.borrow_mut());
    }
}

/// A run cut at 200 s, journaled whole: a finished shared job whose
/// reliable console left spool marks and whose glide-in is still alive,
/// jobs still running on an agent and under an LRMS, and a rejected one.
fn crashed_run() -> (CrossBroker, LoadedJournal) {
    let mut sim = Sim::new(5);
    let (handles, mds, _) = parts(3);
    let broker = CrossBroker::new(&mut sim, handles, mds, BrokerConfig::default());
    let day = SimDuration::from_secs(86_400);
    for (jdl, runtime) in [
        (
            r#"Executable = "i"; JobType = "interactive"; MachineAccess = "shared";
               PerformanceLoss = 10; StreamingMode = "reliable"; User = "alice";"#,
            SimDuration::from_secs(30),
        ),
        (r#"Executable = "b"; JobType = "batch"; User = "bob";"#, day),
        (
            r#"Executable = "x"; JobType = "interactive"; MachineAccess = "exclusive";
               User = "carol";"#,
            day,
        ),
        (
            r#"Executable = "r"; JobType = "batch"; User = "mallory";
               Requirements = frob(1);"#,
            day,
        ),
    ] {
        broker.submit(&mut sim, JobDescription::parse(jdl).unwrap(), runtime);
    }
    sim.run_until(SimTime::from_secs(200));
    assert_eq!(broker.event_log().dropped(), 0);
    let loaded = LoadedJournal {
        events: broker.event_log().snapshot(),
        ..LoadedJournal::default()
    };
    (broker, loaded)
}

/// A clean recovery of `loaded` into a fresh world (re-arm never runs).
fn recovered(loaded: &LoadedJournal) -> CrossBroker {
    let mut sim = Sim::new(6);
    let (handles, mds, _) = parts(3);
    let (broker, report) =
        CrossBroker::recover(&mut sim, handles, mds, BrokerConfig::default(), loaded).unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    broker
}

/// The check read in place, after asserting the projection reads the same.
fn check(loaded: &LoadedJournal, expected: &ReplayState, broker: &CrossBroker) -> Vec<String> {
    let in_place = check_recovery_invariants(&loaded.events, expected, &broker.rebuilt());
    let projected = check_recovery_invariants(&loaded.events, expected, &broker.replay_state());
    assert_eq!(in_place, projected);
    in_place
}

type Tampering = Box<dyn FnOnce(&mut Inner)>;

#[test]
fn the_rebuilt_broker_checks_as_its_projection_does() {
    let (before, loaded) = crashed_run();
    let expected = loaded.replay_state().unwrap();
    let phase = |want: Phase| {
        let found = expected.jobs.iter().find(|(_, j)| j.phase == want);
        *found
            .unwrap_or_else(|| panic!("no {want:?} job: {:?}", expected.jobs))
            .0
    };
    let (done, running) = (phase(Phase::Finished), phase(Phase::Running));
    let agent = expected.agents.iter().find(|(_, a)| a.alive);
    let agent = AgentId(*agent.expect("a glide-in alive at the crash").0);
    let (stream, mark) = expected.spools.iter().next().expect("spool marks");
    let (stream, acked) = (stream.clone(), mark.acked);
    assert!(acked > 0);

    assert_eq!(
        check(&loaded, &expected, &recovered(&loaded)),
        Vec::<String>::new()
    );
    let entry = before.inner.borrow_mut().agents.remove(&agent).unwrap();
    let edit = move |id: u64, f: fn(&mut JobRecord)| -> Tampering {
        Box::new(move |inner: &mut Inner| {
            inner.jobs.update(JobId(id), f).unwrap();
        })
    };
    let tamperings: Vec<(&str, Tampering)> = vec![
        (
            "bucket",
            edit(done, |r| {
                r.state = JobState::Failed {
                    reason: "drifted".into(),
                };
            }),
        ),
        (
            "resubmission attempts",
            edit(running, |r| r.resubmissions += 1),
        ),
        ("under user", edit(running, |r| r.user = "eve".into())),
        ("started=", edit(running, |r| r.started_at = None)),
        (
            "missing after recovery",
            Box::new(move |inner| {
                inner.jobs.remove(JobId(done)).unwrap();
            }),
        ),
        (
            // Two ids in different shards, the higher one's shard first.
            "appeared from nowhere",
            Box::new(|inner| {
                for id in [1_001, 10] {
                    inner
                        .jobs
                        .insert(JobId(id), JobRecord::new(JobId(id), "eve", SimTime::ZERO));
                }
            }),
        ),
        (
            "resurrected",
            Box::new(move |inner| {
                inner.agents.insert(agent, entry);
            }),
        ),
        (
            "regressed",
            Box::new(move |inner| {
                inner.spool_watermarks.insert(stream, acked - 1);
            }),
        ),
    ];
    for (want, tampering) in tamperings {
        let broker = recovered(&loaded);
        broker.tamper(tampering);
        let v = check(&loaded, &expected, &broker);
        assert!(v.iter().any(|m| m.contains(want)), "{want}: {v:?}");
    }
}
