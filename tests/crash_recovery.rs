//! Crash-recovery integration tests: the deterministic kill-point sweep
//! (crash after every journaled event, recover, and demand the same
//! terminal outcome per job), snapshot-bounded recovery, and journal
//! corruption fuzzing (torn tails and bit flips must surface as typed
//! errors, never panics or silent partial replays).

use std::collections::BTreeMap;
use std::path::PathBuf;

use crossgrid::broker::{BrokerStats, RecoveryReport};
use crossgrid::jdl::JobDescription;
use crossgrid::net::{FaultSchedule, Link, LinkProfile};
use crossgrid::prelude::*;
use crossgrid::site::{BackendSpec, Policy, SiteConfig};
use crossgrid::trace::journal::{
    open_journal, parse_journal, Journal, JournalConfig, JournalError,
};
use crossgrid::trace::replay::{Bucket, ReplayState};
use crossgrid::trace::{check_stream_recovery_invariants, CrashPlan};

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

/// A two-node campus site whose gatekeeper and UI links share `faults`.
fn handle(name: &str, backend: &BackendSpec, faults: FaultSchedule) -> SiteHandle {
    SiteHandle {
        site: Site::new(SiteConfig {
            name: name.into(),
            nodes: 2,
            policy: Policy::Fifo,
            backend: backend.clone(),
            ..SiteConfig::default()
        }),
        broker_link: Link::with_faults(LinkProfile::campus(), faults.clone()),
        ui_link: Link::with_faults(LinkProfile::campus(), faults),
    }
}

fn mds() -> Link {
    Link::with_faults(LinkProfile::wan_mds(), FaultSchedule::none())
}

fn world_with(backend: &BackendSpec) -> (Vec<SiteHandle>, Link) {
    let handles = ["alpha", "beta"]
        .iter()
        .map(|name| handle(name, backend, FaultSchedule::none()))
        .collect();
    (handles, mds())
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

/// Runs `scenario` (which drives the simulation to its horizon) over
/// `world` with a journal at `path`, the kill point armed after event
/// `crash_after` and a snapshot written at `snapshot_at` seconds. Returns
/// the broker, the total event count and whether the kill point fired.
fn journaled(
    path: &PathBuf,
    (handles, mds): (Vec<SiteHandle>, Link),
    config: BrokerConfig,
    (crash_after, snapshot_at): (Option<u64>, Option<u64>),
    journal: JournalConfig,
    scenario: impl FnOnce(&mut Sim, &CrossBroker),
) -> (CrossBroker, u64, bool) {
    let _ = std::fs::remove_file(path);
    let mut sim = Sim::new(SEED);
    let broker = CrossBroker::new(&mut sim, handles, mds, config);
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
    scenario(&mut sim, &broker);
    if let Some(j) = log.journal() {
        j.sync().unwrap();
    }
    (broker, log.recorded(), log.crashed())
}

/// Runs the reference scenario with a journal at `path`. Returns the total
/// event count and whether the armed kill point fired.
fn journaled_run(
    path: &PathBuf,
    crash_after: Option<u64>,
    snapshot_at: Option<u64>,
) -> (u64, bool) {
    let journal = JournalConfig::default();
    journaled_run_cfg(path, crash_after, snapshot_at, &BackendSpec::Sim, journal)
}

fn journaled_run_cfg(
    path: &PathBuf,
    crash_after: Option<u64>,
    snapshot_at: Option<u64>,
    backend: &BackendSpec,
    journal: JournalConfig,
) -> (u64, bool) {
    let points = (crash_after, snapshot_at);
    let (_, total, crashed) = journaled(
        path,
        world_with(backend),
        config(),
        points,
        journal,
        |sim, b| {
            drive(sim, b);
            sim.run_until(SimTime::from_secs(600));
        },
    );
    (total, crashed)
}

/// Recovers from `path` into a fresh world and runs it to quiescence.
fn recover_and_run(path: &PathBuf, seed: u64) -> (CrossBroker, RecoveryReport, Sim) {
    recover_and_run_in(path, seed, world_with(&BackendSpec::Sim))
}

fn recover_and_run_in(
    path: &PathBuf,
    seed: u64,
    (handles, mds): (Vec<SiteHandle>, Link),
) -> (CrossBroker, RecoveryReport, Sim) {
    let loaded = open_journal(path).unwrap();
    let mut sim = Sim::new(seed);
    let (broker, report) = CrossBroker::recover(&mut sim, handles, mds, config(), &loaded).unwrap();
    sim.run_until(report.crash_at + SimDuration::from_secs(600));
    (broker, report, sim)
}

/// Each job of an uncrashed run's journal, which must have ended, by id:
/// the bucket every recovery must land it in.
fn terminal_buckets(baseline: &ReplayState) -> BTreeMap<u64, Bucket> {
    baseline
        .jobs
        .iter()
        .map(|(id, rj)| {
            assert!(
                rj.phase.is_terminal(),
                "baseline job {id} not terminal: {rj:?}"
            );
            (*id, rj.phase.bucket())
        })
        .collect()
}

/// After kill point `k`, every job the journal holds ended, and in the
/// uncrashed run's bucket (`base`) — except a job whose commit record
/// (`JobSubmitted` + `JobAd`) missed the journal: it was never durably
/// submitted, and recovery aborts it.
fn assert_recovered_buckets(
    broker: &CrossBroker,
    expected: &ReplayState,
    base: &BTreeMap<u64, Bucket>,
    k: u64,
) {
    for (id, rj) in &expected.jobs {
        let state = broker.record(JobId(*id)).state;
        assert!(
            matches!(state, JobState::Done | JobState::Failed { .. }),
            "k={k}: job {id} never reached a terminal state: {state:?}"
        );
        let lost = !rj.phase.is_terminal() && (rj.jdl.is_none() || rj.runtime_ns.is_none());
        let want = if lost { Bucket::Errored } else { base[id] };
        assert_eq!(
            bucket_of(&state),
            want,
            "k={k}: job {id} diverged from the uncrashed run: {state:?}"
        );
    }
}

#[test]
fn kill_point_sweep_recovers_identical_terminal_stats() {
    kill_point_sweep("sweep", None);
}

/// The sweep again with the t = 60 s snapshot: every kill point after it
/// recovers from the rotated file (the snapshot and its tail alone) to the
/// same buckets.
#[test]
fn kill_point_sweep_across_a_rotation_recovers_identical_terminal_stats() {
    let from_snapshot = kill_point_sweep("sweep-rotated", Some(60));
    assert!(
        from_snapshot > 0,
        "no kill point fell after the snapshot — the sweep never read a rotated file"
    );
}

/// Crashes the reference scenario after every event seq (with a snapshot
/// at `snapshot_at` seconds), checks each crashed journal as `cgrun
/// recover` does, recovers it, and checks the buckets against the
/// uncrashed run's. Returns how many kill points recovered from a
/// snapshot.
fn kill_point_sweep(name: &str, snapshot_at: Option<u64>) -> usize {
    let base = tmp(&format!("{name}-base"));
    let (total, crashed) = journaled_run(&base, None, None);
    assert!(!crashed);
    assert!(total > 20, "reference scenario too small: {total} events");

    let baseline = open_journal(&base).unwrap().replay_state().unwrap();
    assert_eq!(baseline.jobs.len(), 5);
    let base_buckets = terminal_buckets(&baseline);
    assert_eq!(
        base_buckets
            .values()
            .filter(|b| **b == Bucket::Done)
            .count(),
        4,
        "healthy run: everything but the rejected job finishes: {:?}",
        baseline.jobs
    );

    let crash = tmp(&format!("{name}-crash"));
    let mut from_snapshot = 0;
    let mut agent_alive = 0;
    for k in 0..total {
        let (_, crashed) = journaled_run(&crash, Some(k), snapshot_at);
        assert!(crashed, "kill point {k} of {total} must fire");

        let loaded = open_journal(&crash).unwrap();
        let expected = loaded.replay_state().unwrap();
        let offline = check_stream_recovery_invariants(&loaded.events, &expected);
        assert!(offline.is_empty(), "k={k}: the journal alone: {offline:?}");
        agent_alive += usize::from(expected.agents.values().any(|a| a.alive));
        let (broker, report, _sim) = recover_and_run(&crash, 1_000 + k);
        assert!(
            report.violations.is_empty(),
            "k={k}: recovery invariants violated: {:?}",
            report.violations
        );
        from_snapshot += usize::from(report.from_snapshot);

        assert_recovered_buckets(&broker, &expected, &base_buckets, k);

        let new_epoch = crossgrid::trace::check_invariants(&broker.event_log().snapshot());
        assert!(
            new_epoch.is_empty(),
            "k={k}: new-epoch stream broken: {new_epoch:?}"
        );
    }
    assert!(agent_alive > 0, "no kill point had a glide-in alive");
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&crash);
    from_snapshot
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
    let base_buckets = terminal_buckets(&sim_state);

    let proc_base = tmp("proc-base");
    let (proc_total, crashed) =
        journaled_run_cfg(&proc_base, None, None, &spec, JournalConfig::default());
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
        let (_, crashed) =
            journaled_run_cfg(&crash, Some(k), None, &spec, JournalConfig::default());
        assert!(crashed, "kill point {k} of {proc_total} must fire");

        let expected = open_journal(&crash).unwrap().replay_state().unwrap();
        let (broker, report, _sim) = recover_and_run_in(&crash, 5_000 + k, world_with(&spec));
        assert!(
            report.violations.is_empty(),
            "k={k}: recovery invariants violated: {:?}",
            report.violations
        );
        assert_recovered_buckets(&broker, &expected, &base_buckets, k);
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
    let alpha = handle("alpha", &BackendSpec::Sim, churn_outage());
    let beta = handle("beta", &BackendSpec::Sim, FaultSchedule::none());
    (vec![alpha, beta], mds())
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
    let points = (crash_after, None);
    let journal = JournalConfig::default();
    let (_, total, crashed) = journaled(
        path,
        churn_world(),
        churn_config(),
        points,
        journal,
        |sim, b| {
            churn_drive(sim, b);
            sim.run_until(SimTime::from_secs(2_400));
        },
    );
    (total, crashed)
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
    let base_buckets = terminal_buckets(&baseline);
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
                .position(|n| *n == &**site)
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
        assert_recovered_buckets(&broker, &expected, &base_buckets, k);
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

/// The kinds of a journal file's whole frames (1 = event, 2 = snapshot), in
/// file order: a frame is a kind byte, a `u32` LE length and a CRC, then
/// the payload.
fn frame_kinds(bytes: &[u8]) -> Vec<u8> {
    let mut at = 8;
    let mut kinds = Vec::new();
    while let Some(header) = bytes.get(at..at + 9) {
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
        if at + 9 + len > bytes.len() {
            break;
        }
        kinds.push(header[0]);
        at += 9 + len;
    }
    kinds
}

/// The reference journal, rotated or not, read torn and bit-flipped.
#[test]
fn torn_tails_and_bit_flips_never_panic_and_corruption_is_typed() {
    for snapshot_at in [None, Some(60)] {
        let path = tmp(&format!("fuzz-{snapshot_at:?}"));
        journaled_run(&path, None, snapshot_at);
        let bytes = std::fs::read(&path).unwrap();
        if snapshot_at.is_some() {
            assert_eq!(frame_kinds(&bytes).first(), Some(&2), "a rotated journal");
        }
        torn_tails_and_bit_flips(&bytes);
        let _ = std::fs::remove_file(&path);
    }
}

fn torn_tails_and_bit_flips(bytes: &[u8]) {
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
            let mut mutated = bytes.to_vec();
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
}

/// The file format is a contract with every journal already on disk: the
/// reference scenario (with its t=60 s snapshot) must write the same bytes
/// whatever the writer does internally and however often it syncs. The
/// hash was re-recorded once, when a snapshot began to start the file over:
/// the file is now the magic followed by exactly the bytes the append-only
/// writer wrote from its snapshot frame on (checked byte for byte under all
/// three cadences before recording), so the frames did not change, only
/// the prefix the snapshot summarises is gone. A change that moves the hash
/// changes the format and must say so.
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
        let kinds = frame_kinds(&bytes);
        assert!(
            kinds.first() == Some(&2) && !kinds[1..].contains(&2),
            "fsync_every={fsync_every}: the only snapshot is the first frame: {kinds:?}"
        );
        assert_eq!(
            fnv1a(&bytes),
            0x4102_a0a1_39d2_19fc,
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

/// One site of two nodes: two long shared jobs of one user fill it, so the
/// same user's third is refused by fair-share under scarcity (§5.1).
fn hog_world() -> (Vec<SiteHandle>, Link) {
    (
        vec![handle("alpha", &BackendSpec::Sim, FaultSchedule::none())],
        mds(),
    )
}

fn hog() -> JobDescription {
    JobDescription::parse(
        r#"Executable = "iapp"; JobType = "interactive"; MachineAccess = "shared";
           PerformanceLoss = 0; User = "hog";"#,
    )
    .unwrap()
}

/// Every way a job ends: the hog's first job finishes, the analyzer
/// rejects a job at t=1, the hog's third job is refused at t=4 000 s (its
/// first two fill the site and its priority has grown), and its second is
/// cancelled at t=4 100 s. Journals to `path`, snapshots at `snapshot_at`
/// seconds, and returns the live counters.
fn endings_run(path: &PathBuf, snapshot_at: Option<u64>) -> BrokerStats {
    let journal = JournalConfig::default();
    let points = (None, snapshot_at);
    let (broker, _, _) = journaled(path, hog_world(), config(), points, journal, |sim, b| {
        b.submit(sim, hog(), SimDuration::from_secs(6_000));
        sim.run_until(SimTime::from_secs(1));
        b.submit(sim, broken(), SimDuration::from_secs(10));
        sim.run_until(SimTime::from_secs(400));
        let second = b.submit(sim, hog(), SimDuration::from_secs(6_000));
        sim.run_until(SimTime::from_secs(4_000));
        let refused = b.submit(sim, hog(), SimDuration::from_secs(100));
        sim.run_until(SimTime::from_secs(4_100));
        match b.record(refused).state {
            JobState::Failed { reason } => assert!(reason.contains("under scarcity"), "{reason}"),
            other => panic!("the hog's third job must be refused, got {other:?}"),
        }
        assert!(b.cancel(sim, second));
        sim.run_until(SimTime::from_secs(10_000));
    });
    broker.stats()
}

/// Recovering a complete journal counts every ending as the live run did,
/// whether the endings come back through the stream or through a snapshot
/// that holds the refusal, the rejection and the cancellation as failed
/// jobs with their reasons.
#[test]
fn recovered_counters_match_the_live_run_for_every_ending() {
    for snapshot_at in [None, Some(5_000)] {
        let path = tmp(&format!("endings-{snapshot_at:?}"));
        let live = endings_run(&path, snapshot_at);
        assert_eq!(
            (live.finished, live.failed, live.rejected, live.cancelled),
            (1, 0, 2, 1),
            "one job finishes, two are rejected (analyzer, fair-share), one is cancelled"
        );

        let (broker, report, _sim) = recover_and_run_in(&path, SEED, hog_world());
        assert_eq!(report.from_snapshot, snapshot_at.is_some());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.terminal, 4);
        let got = broker.stats();
        assert_eq!(
            (got.finished, got.failed, got.rejected, got.cancelled),
            (live.finished, live.failed, live.rejected, live.cancelled),
            "snapshot at {snapshot_at:?}: recovered counters differ from the live run"
        );
        let _ = std::fs::remove_file(&path);
    }
}
