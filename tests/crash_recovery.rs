//! Crash-recovery integration tests: the deterministic kill-point sweep
//! (crash after every journaled event, recover, and demand the same
//! terminal outcome per job), snapshot-bounded recovery, and journal
//! corruption fuzzing (torn tails and bit flips must surface as typed
//! errors, never panics or silent partial replays).

use std::collections::BTreeMap;
use std::path::PathBuf;

use crossgrid::broker::RecoveryReport;
use crossgrid::jdl::JobDescription;
use crossgrid::net::{FaultSchedule, Link, LinkProfile};
use crossgrid::prelude::*;
use crossgrid::site::{BackendSpec, Policy, SiteConfig};
use crossgrid::trace::journal::{
    open_journal, parse_journal, Journal, JournalConfig, JournalError,
};
use crossgrid::trace::replay::Bucket;
use crossgrid::trace::CrashPlan;

mod common;
use common::{bucket_of, fnv1a};

const SEED: u64 = 7;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cg-crashrec-{}-{name}.journal", std::process::id()));
    p
}

fn config() -> BrokerConfig {
    // A generous resubmission budget keeps the reference scenario's outcome
    // independent of transient placement collisions, in the original run
    // and in every recovered epoch of the sweep.
    BrokerConfig {
        max_resubmissions: 10,
        ..BrokerConfig::default()
    }
}

fn world_with(backend: &BackendSpec) -> (Vec<SiteHandle>, Link) {
    let handles = ["alpha", "beta"]
        .iter()
        .map(|name| {
            let site = Site::new(SiteConfig {
                name: (*name).into(),
                nodes: 2,
                policy: Policy::Fifo,
                backend: backend.clone(),
                ..SiteConfig::default()
            });
            SiteHandle {
                site,
                broker_link: Link::with_faults(LinkProfile::campus(), FaultSchedule::none()),
                ui_link: Link::with_faults(LinkProfile::campus(), FaultSchedule::none()),
            }
        })
        .collect();
    let mds = Link::with_faults(LinkProfile::wan_mds(), FaultSchedule::none());
    (handles, mds)
}

fn exclusive() -> JobDescription {
    JobDescription::parse(
        r#"Executable = "viz"; JobType = "interactive"; MachineAccess = "exclusive"; User = "alice";"#,
    )
    .unwrap()
}

fn shared() -> JobDescription {
    JobDescription::parse(
        r#"Executable = "viz"; JobType = "interactive"; MachineAccess = "shared";
           PerformanceLoss = 10; User = "bob";"#,
    )
    .unwrap()
}

/// Parses fine but fails submit-time static analysis (unknown function in
/// `Requirements`), so the broker rejects it deterministically in any world.
fn broken() -> JobDescription {
    JobDescription::parse(
        r#"Executable = "viz"; JobType = "interactive"; MachineAccess = "exclusive";
           User = "mallory"; Requirements = frob(1);"#,
    )
    .unwrap()
}

/// The reference scenario: two exclusive interactive jobs at t=0 (one per
/// site — exclusive submissions lease a whole site, so two is the most
/// this world runs concurrently), an analyzer-rejected job at t=1, a third
/// exclusive job at t=45 once the leases have lapsed, and a shared job at
/// t=120 that rides a freshly deployed glide-in agent. Every job's outcome
/// is capacity-independent, so any recovered epoch must reproduce it.
fn drive(sim: &mut Sim, broker: &CrossBroker) {
    for _ in 0..2 {
        broker.submit(sim, exclusive(), SimDuration::from_secs(10));
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
}

/// Runs the reference scenario with a journal at `path`. Returns the total
/// event count and whether the armed kill point fired.
fn journaled_run(
    path: &PathBuf,
    crash_after: Option<u64>,
    snapshot_at: Option<u64>,
) -> (u64, bool) {
    journaled_run_with(path, crash_after, snapshot_at, &BackendSpec::Sim)
}

fn journaled_run_with(
    path: &PathBuf,
    crash_after: Option<u64>,
    snapshot_at: Option<u64>,
    backend: &BackendSpec,
) -> (u64, bool) {
    journaled_run_cfg(
        path,
        crash_after,
        snapshot_at,
        backend,
        JournalConfig::default(),
    )
}

fn journaled_run_cfg(
    path: &PathBuf,
    crash_after: Option<u64>,
    snapshot_at: Option<u64>,
    backend: &BackendSpec,
    journal: JournalConfig,
) -> (u64, bool) {
    let _ = std::fs::remove_file(path);
    let mut sim = Sim::new(SEED);
    let (handles, mds) = world_with(backend);
    let broker = CrossBroker::new(&mut sim, handles, mds, config());
    let log = broker.event_log();
    log.set_journal(Journal::create(path, journal).unwrap());
    if let Some(k) = crash_after {
        log.arm_crash(CrashPlan { after_event_seq: k });
    }
    if let Some(secs) = snapshot_at {
        let b = broker.clone();
        sim.schedule_at(SimTime::from_secs(secs), move |_sim| {
            b.journal_snapshot().unwrap();
        });
    }
    drive(&mut sim, &broker);
    sim.run_until(SimTime::from_secs(600));
    if let Some(j) = log.journal() {
        j.sync().unwrap();
    }
    (log.recorded(), log.crashed())
}

/// Recovers from `path` into a fresh world and runs it to quiescence.
fn recover_and_run(path: &PathBuf, seed: u64) -> (CrossBroker, RecoveryReport, Sim) {
    recover_and_run_with(path, seed, &BackendSpec::Sim)
}

fn recover_and_run_with(
    path: &PathBuf,
    seed: u64,
    backend: &BackendSpec,
) -> (CrossBroker, RecoveryReport, Sim) {
    let loaded = open_journal(path).unwrap();
    let mut sim = Sim::new(seed);
    let (handles, mds) = world_with(backend);
    let (broker, report) = CrossBroker::recover(&mut sim, handles, mds, config(), &loaded).unwrap();
    sim.run_until(report.crash_at + SimDuration::from_secs(600));
    (broker, report, sim)
}

#[test]
fn kill_point_sweep_recovers_identical_terminal_stats() {
    let base = tmp("sweep-base");
    let (total, crashed) = journaled_run(&base, None, None);
    assert!(!crashed);
    assert!(total > 20, "reference scenario too small: {total} events");

    let baseline = open_journal(&base).unwrap().replay_state().unwrap();
    assert_eq!(baseline.jobs.len(), 5);
    let mut base_buckets: BTreeMap<u64, Bucket> = BTreeMap::new();
    for (id, rj) in &baseline.jobs {
        assert!(
            rj.phase.is_terminal(),
            "baseline job {id} not terminal: {:?}",
            rj.phase
        );
        base_buckets.insert(*id, rj.phase.bucket());
    }
    assert_eq!(
        base_buckets
            .values()
            .filter(|b| **b == Bucket::Done)
            .count(),
        4,
        "healthy run: everything but the rejected job finishes: {:?}",
        baseline.jobs
    );

    let crash = tmp("sweep-crash");
    for k in 0..total {
        let (_, crashed) = journaled_run(&crash, Some(k), None);
        assert!(crashed, "kill point {k} of {total} must fire");

        let loaded = open_journal(&crash).unwrap();
        let expected = loaded.replay_state().unwrap();
        let (broker, report, _sim) = recover_and_run(&crash, 1_000 + k);
        assert!(
            report.violations.is_empty(),
            "k={k}: recovery invariants violated: {:?}",
            report.violations
        );

        for (id, rj) in &expected.jobs {
            let state = broker.record(JobId(*id)).state;
            assert!(
                matches!(state, JobState::Done | JobState::Failed { .. }),
                "k={k}: job {id} never reached a terminal state: {state:?}"
            );
            // A job whose JobAd commit record missed the journal was never
            // durably submitted: recovery aborts it. Every other journaled
            // job must end in the same bucket as the uncrashed run.
            let want = if !rj.phase.is_terminal() && (rj.jdl.is_none() || rj.runtime_ns.is_none()) {
                Bucket::Errored
            } else {
                base_buckets[id]
            };
            assert_eq!(
                bucket_of(&state),
                want,
                "k={k}: job {id} diverged from the uncrashed run: {state:?}"
            );
        }

        let new_epoch = crossgrid::trace::check_invariants(&broker.event_log().snapshot());
        assert!(
            new_epoch.is_empty(),
            "k={k}: new-epoch stream broken: {new_epoch:?}"
        );
    }
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&crash);
}

/// The kill-point sweep again, but with every site on the process
/// backend: a real child is spawned and reaped per started job alongside
/// the sim. By the sim-time bridging rule that must not perturb the journal
/// or recovery at all, so the uncrashed run journals the same number of
/// events as the sim run, every job lands in the sim run's bucket, and a
/// strided sweep of kill points recovers (into a process-backend world) to
/// those same buckets.
#[test]
fn kill_point_sweep_is_backend_invariant_under_the_process_backend() {
    let spec = BackendSpec::Process {
        program: BackendSpec::default_program(),
    };

    let sim_base = tmp("proc-sim-base");
    let (sim_total, _) = journaled_run(&sim_base, None, None);
    let sim_state = open_journal(&sim_base).unwrap().replay_state().unwrap();
    let base_buckets: BTreeMap<u64, Bucket> = sim_state
        .jobs
        .iter()
        .map(|(id, rj)| (*id, rj.phase.bucket()))
        .collect();

    let proc_base = tmp("proc-base");
    let (proc_total, crashed) = journaled_run_with(&proc_base, None, None, &spec);
    assert!(!crashed);
    assert_eq!(
        proc_total, sim_total,
        "the process backend journaled a different event count than the sim"
    );
    let proc_state = open_journal(&proc_base).unwrap().replay_state().unwrap();
    assert_eq!(proc_state.jobs.len(), base_buckets.len());
    for (id, rj) in &proc_state.jobs {
        assert_eq!(
            rj.phase.bucket(),
            base_buckets[id],
            "job {id} diverged from the sim backend under the process backend"
        );
    }

    // Strided sweep: enough kill points to cross every lifecycle phase
    // without re-running the full per-event sweep a second time.
    let crash = tmp("proc-crash");
    for k in (0..proc_total).step_by(5) {
        let (_, crashed) = journaled_run_with(&crash, Some(k), None, &spec);
        assert!(crashed, "kill point {k} of {proc_total} must fire");

        let expected = open_journal(&crash).unwrap().replay_state().unwrap();
        let (broker, report, _sim) = recover_and_run_with(&crash, 5_000 + k, &spec);
        assert!(
            report.violations.is_empty(),
            "k={k}: recovery invariants violated: {:?}",
            report.violations
        );
        for (id, rj) in &expected.jobs {
            let state = broker.record(JobId(*id)).state;
            let want = if !rj.phase.is_terminal() && (rj.jdl.is_none() || rj.runtime_ns.is_none()) {
                Bucket::Errored
            } else {
                base_buckets[id]
            };
            assert_eq!(
                bucket_of(&state),
                want,
                "k={k}: job {id} diverged from the sim-backend run: {state:?}"
            );
        }
    }
    let _ = std::fs::remove_file(&sim_base);
    let _ = std::fs::remove_file(&proc_base);
    let _ = std::fs::remove_file(&crash);
}

/// The churn world: alpha's gatekeeper link and MDS publication path share
/// one long outage window (so the failure detector sees both signals die
/// together), beta stays clean. Live queries suspect alpha fast (three
/// failed probes at ~47 s), but Suspect sites get exactly one probe per
/// sweep, so the query streak alone never reaches the dead threshold —
/// it is the missed refreshes (t = 300/600/900/1200) that harden alpha
/// to `Dead` at 1_200 s. The window ends at 1_300 s so the t = 1_500 s
/// refresh publishes cleanly and the uncrashed run journals the rejoin.
fn churn_outage() -> FaultSchedule {
    FaultSchedule::from_windows(vec![(SimTime::from_secs(20), SimTime::from_secs(1_300))])
}

fn churn_world() -> (Vec<SiteHandle>, Link) {
    let handles = ["alpha", "beta"]
        .iter()
        .map(|name| {
            let site = Site::new(SiteConfig {
                name: (*name).into(),
                nodes: 2,
                policy: Policy::Fifo,
                ..SiteConfig::default()
            });
            let faults = if *name == "alpha" {
                churn_outage()
            } else {
                FaultSchedule::none()
            };
            SiteHandle {
                site,
                broker_link: Link::with_faults(LinkProfile::campus(), faults.clone()),
                ui_link: Link::with_faults(LinkProfile::campus(), faults),
            }
        })
        .collect();
    let mds = Link::with_faults(LinkProfile::wan_mds(), FaultSchedule::none());
    (handles, mds)
}

fn churn_config() -> BrokerConfig {
    BrokerConfig {
        max_resubmissions: 10,
        publish_faults: vec![churn_outage(), FaultSchedule::none()],
        ..BrokerConfig::default()
    }
}

/// Exclusive interactive jobs thrown across the outage timeline: before it
/// (0 s), into the suspect window (45 s drives the three failed probes;
/// 300 s and 700 s keep probing without retries), while alpha is dead
/// (1_250 s — the site must vanish from the sweep), and after its rejoin
/// (1_600 s). Submissions are spaced past the 30 s exclusive lease so at
/// most one job is ever in flight: a kill point therefore resubmits at
/// most one job into the recovered epoch, and every job lands `Done` on
/// beta alone regardless of alpha's health.
fn churn_drive(sim: &mut Sim, broker: &CrossBroker) {
    broker.submit(sim, exclusive(), SimDuration::from_secs(10));
    for at in [45u64, 300, 700, 1_250, 1_600] {
        let b = broker.clone();
        sim.schedule_at(SimTime::from_secs(at), move |sim| {
            b.submit(sim, exclusive(), SimDuration::from_secs(10));
        });
    }
}

fn churn_journaled_run(path: &PathBuf, crash_after: Option<u64>) -> (u64, bool) {
    let _ = std::fs::remove_file(path);
    let mut sim = Sim::new(SEED);
    let (handles, mds) = churn_world();
    let broker = CrossBroker::new(&mut sim, handles, mds, churn_config());
    let log = broker.event_log();
    log.set_journal(Journal::create(path, JournalConfig::default()).unwrap());
    if let Some(k) = crash_after {
        log.arm_crash(CrashPlan { after_event_seq: k });
    }
    churn_drive(&mut sim, &broker);
    sim.run_until(SimTime::from_secs(2_400));
    if let Some(j) = log.journal() {
        j.sync().unwrap();
    }
    (log.recorded(), log.crashed())
}

#[test]
fn churn_kill_point_sweep_rebuilds_membership_from_the_journal() {
    use crossgrid::site::MembershipState;
    use crossgrid::trace::replay::SiteHealth;

    let base = tmp("churn-base");
    let (total, crashed) = churn_journaled_run(&base, None);
    assert!(!crashed);

    // The reference run must actually exercise the whole lifecycle, or the
    // sweep proves nothing about membership recovery.
    let loaded = open_journal(&base).unwrap();
    let kinds: Vec<&str> = loaded.events.iter().map(|e| e.event.kind()).collect();
    for needed in ["SiteSuspect", "SiteDead", "SiteRejoin", "QueryRetry"] {
        assert!(kinds.contains(&needed), "reference run never saw {needed}");
    }
    let baseline = loaded.replay_state().unwrap();
    assert_eq!(baseline.jobs.len(), 6);
    let mut base_buckets: BTreeMap<u64, Bucket> = BTreeMap::new();
    for (id, rj) in &baseline.jobs {
        assert!(
            rj.phase.is_terminal(),
            "baseline job {id} not terminal: {:?}",
            rj.phase
        );
        base_buckets.insert(*id, rj.phase.bucket());
    }
    assert!(
        baseline.site_health.is_empty(),
        "the outage ends inside the run: alpha must have rejoined"
    );

    let crash = tmp("churn-crash");
    let mut mid_outage_kill_points = 0usize;
    for k in 0..total {
        let (_, crashed) = churn_journaled_run(&crash, Some(k));
        assert!(crashed, "kill point {k} of {total} must fire");

        let loaded = open_journal(&crash).unwrap();
        let expected = loaded.replay_state().unwrap();
        let mut sim = Sim::new(3_000 + k);
        let (handles, mds) = churn_world();
        let (broker, report) =
            CrossBroker::recover(&mut sim, handles, mds, churn_config(), &loaded).unwrap();
        assert!(
            report.violations.is_empty(),
            "k={k}: recovery invariants violated: {:?}",
            report.violations
        );

        // Before the recovered epoch runs: the failure detector's verdicts
        // must be rebuilt exactly as the journal last saw them.
        let index = broker.index();
        for (site, health) in &expected.site_health {
            let i = ["alpha", "beta"]
                .iter()
                .position(|n| n == site)
                .unwrap_or_else(|| panic!("k={k}: unknown site {site} in the health registry"));
            let want = match health {
                SiteHealth::Suspect => MembershipState::Suspect,
                SiteHealth::Dead => MembershipState::Dead,
            };
            assert_eq!(
                index.membership_state(i),
                want,
                "k={k}: {site} membership not rebuilt from the journal"
            );
            assert!(
                !index.is_schedulable(i),
                "k={k}: {site} schedulable while {want:?}"
            );
            mid_outage_kill_points += 1;
        }
        if expected.site_health.is_empty() {
            assert!(
                index.is_schedulable(0) && index.is_schedulable(1),
                "k={k}: healthy sites must come back schedulable"
            );
        }

        // The recovered epoch must converge to the uncrashed run's buckets.
        sim.run_until(report.crash_at + SimDuration::from_secs(2_400));
        for (id, rj) in &expected.jobs {
            let state = broker.record(JobId(*id)).state;
            assert!(
                matches!(state, JobState::Done | JobState::Failed { .. }),
                "k={k}: job {id} never reached a terminal state: {state:?}"
            );
            let want = if !rj.phase.is_terminal() && (rj.jdl.is_none() || rj.runtime_ns.is_none()) {
                Bucket::Errored
            } else {
                base_buckets[id]
            };
            assert_eq!(
                bucket_of(&state),
                want,
                "k={k}: job {id} diverged from the uncrashed run: {state:?}"
            );
        }
        let new_epoch = crossgrid::trace::check_invariants(&broker.event_log().snapshot());
        assert!(
            new_epoch.is_empty(),
            "k={k}: new-epoch stream broken: {new_epoch:?}"
        );
    }
    assert!(
        mid_outage_kill_points > 0,
        "no kill point landed while alpha was Suspect/Dead — the sweep is vacuous"
    );
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&crash);
}

#[test]
fn snapshot_bounds_the_replayed_tail() {
    let base = tmp("snap-base");
    let (total, _) = journaled_run(&base, None, Some(60));
    let baseline = open_journal(&base).unwrap().replay_state().unwrap();

    // Crash near the end: well after the t=60 s snapshot was written.
    let crash = tmp("snap-crash");
    let k = total - 3;
    let (_, crashed) = journaled_run(&crash, Some(k), Some(60));
    assert!(crashed);

    let loaded = open_journal(&crash).unwrap();
    let snap = loaded.snapshot.as_ref().expect("snapshot present");
    assert!(
        loaded.events.iter().all(|e| e.seq > snap.through_seq),
        "tail must start after the snapshot"
    );
    assert!(
        (loaded.events.len() as u64) < total,
        "snapshot did not bound the tail"
    );

    let (broker, report, _sim) = recover_and_run(&crash, 42);
    assert!(report.from_snapshot);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    for (id, rj) in &baseline.jobs {
        let state = broker.record(JobId(*id)).state;
        assert_eq!(
            bucket_of(&state),
            rj.phase.bucket(),
            "job {id} diverged across snapshot-bounded recovery"
        );
    }
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&crash);
}

#[test]
fn torn_tails_and_bit_flips_never_panic_and_corruption_is_typed() {
    let path = tmp("fuzz");
    journaled_run(&path, None, None);
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.len() > 1_000, "journal too small to fuzz");

    // Torn tails: every cut inside the final records, strided elsewhere.
    // Reopening must yield a clean (possibly shorter) journal or a typed
    // error — and folding whatever survived must not panic either.
    let dense_from = bytes.len().saturating_sub(600);
    for cut in (0..bytes.len()).filter(|i| *i >= dense_from || i % 7 == 0) {
        match parse_journal(&bytes[..cut]) {
            Ok(loaded) => {
                let _ = loaded.replay_state();
            }
            Err(JournalError::Corrupt { .. }) => {}
            Err(e) => panic!("cut={cut}: unexpected error kind: {e:?}"),
        }
    }

    // Bit flips: every flip is either caught by the CRC (typed Corrupt), or
    // lands in framing where it reads as a torn tail (shorter clean
    // journal). Nothing may panic, and the CRC must actually catch some.
    let mut corrupt = 0usize;
    for pos in (8..bytes.len()).step_by(11) {
        for bit in [0u8, 3, 7] {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1 << bit;
            match parse_journal(&mutated) {
                Ok(loaded) => {
                    let _ = loaded.replay_state();
                }
                Err(JournalError::Corrupt { .. }) => corrupt += 1,
                Err(e) => panic!("pos={pos} bit={bit}: unexpected error kind: {e:?}"),
            }
        }
    }
    assert!(
        corrupt > 0,
        "no bit flip tripped the CRC — framing is not actually checked"
    );
    let _ = std::fs::remove_file(&path);
}

/// The file format is a contract with every journal already on disk: the
/// reference scenario (with its t=60 s snapshot) must write the same bytes
/// whatever the writer does internally and however often it syncs. The
/// hash was recorded at the parent of PR 17 (one `write` per record); a PR
/// that moves it changes the format and must say so.
#[test]
fn journal_bytes_match_the_recorded_golden_under_every_fsync_cadence() {
    for fsync_every in [1, 64, 0] {
        let path = tmp(&format!("golden-{fsync_every}"));
        let (total, _) = journaled_run_cfg(
            &path,
            None,
            Some(60),
            &BackendSpec::Sim,
            JournalConfig { fsync_every },
        );
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            fnv1a(&bytes),
            0xf8f7_0047_06ef_cf78,
            "fsync_every={fsync_every}: journal bytes changed ({total} events, {} bytes)",
            bytes.len()
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn recovery_from_a_healthy_complete_journal_is_a_no_op_rebuild() {
    let path = tmp("complete");
    let (total, crashed) = journaled_run(&path, None, None);
    assert!(!crashed);

    let (broker, report, _sim) = recover_and_run(&path, 99);
    assert_eq!(report.jobs, 5);
    assert_eq!(
        report.terminal, 5,
        "complete journal: nothing left in flight"
    );
    assert_eq!(report.requeued + report.resubmitted + report.aborted, 0);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.tail_events, total);
    let stats = broker.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.finished, 4);
    assert_eq!(stats.rejected, 1);
    let _ = std::fs::remove_file(&path);
}
