//! Policy conformance suite: every registered [`PolicyKind`] must satisfy
//! the selection contracts whatever the grid or job stream —
//!
//! 1. NaN scores are discarded (never preferred) and winners are drawn
//!    from the exact `total_cmp`-equal tie group of the maximum score —
//!    so a job never lands outside the candidates it was handed;
//! 2. crash-recovery replay under a non-default policy lands every job in
//!    the same terminal bucket as the uncrashed run.
//!
//! Candidates and signals are generated from property-test seeds, so each
//! case is a fresh random world that reproduces deterministically.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crossgrid::broker::{
    select_detailed_with, BrokerConfig, Candidate, CrossBroker, JobId, JobState, PolicyKind,
    PolicySignals, SiteSignals,
};
use crossgrid::jdl::JobDescription;
use crossgrid::net::{FaultSchedule, Link, LinkProfile};
use crossgrid::prelude::*;
use crossgrid::sim::SimRng;
use crossgrid::site::{MembershipState, Policy, SiteConfig};
use crossgrid::trace::journal::{open_journal, Journal, JournalConfig};
use crossgrid::trace::replay::Bucket;
use crossgrid::trace::CrashPlan;
use proptest::prelude::*;

mod common;
use common::bucket_of;

/// Random per-site signals: queue depths, forecasts, RTTs and lease-failure
/// streaks, all finite (NaN enters only through job ranks).
fn random_signals(seed: u64, n: usize) -> PolicySignals {
    let mut rng = SimRng::new(seed ^ 0x5167_4A15);
    let mut signals = PolicySignals::new();
    for i in 0..n {
        signals.set(
            i,
            SiteSignals {
                queue_depth: rng.index(6) as i64,
                queue_forecast: rng.f64() * 5.0,
                rtt_s: rng.f64() * 0.05,
                lease_failures: rng.index(3) as u32,
                staleness_s: rng.f64() * 600.0,
            },
        );
    }
    signals
}

proptest! {
    /// Contract 1: `select_detailed_with` — the selection `submit()` runs —
    /// under every policy discards exactly the NaN-scored candidates, and
    /// the winner's score is `total_cmp`-equal to the maximum across the
    /// comparable ones. The winner is therefore always one of the
    /// candidates handed in: a policy cannot place a job outside its
    /// matched candidate set.
    #[test]
    fn nan_scores_are_discarded_and_winners_come_from_the_exact_tie_group(
        seed in any::<u64>(),
        ranks in prop::collection::vec(
            prop::sample::select(vec![
                f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
                -1.5, 0.0, 0.5, 1.0, 1.0, 2.0, 2.0, 7.25,
            ]),
            1usize..12,
        ),
    ) {
        let candidates: Vec<Candidate> = ranks
            .iter()
            .enumerate()
            .map(|(i, &rank)| Candidate {
                site_index: i,
                rank,
                free_cpus: 1 + (i as i64 % 4),
            })
            .collect();
        let signals = random_signals(seed, candidates.len());
        for kind in PolicyKind::ALL {
            let policy = kind.policy();
            let scores: Vec<f64> = candidates
                .iter()
                .map(|c| policy.score(c, &signals.get(c.site_index)))
                .collect();
            let mut rng = SimRng::new(seed);
            let selection =
                select_detailed_with(policy, &signals, &candidates, &mut rng);
            // Finite signals: a score is NaN exactly when the rank is.
            let nan_sites: BTreeSet<usize> = scores
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_nan())
                .map(|(i, _)| i)
                .collect();
            let discarded: BTreeSet<usize> = selection
                .nan_discarded
                .iter()
                .map(|c| c.site_index)
                .collect();
            prop_assert_eq!(&discarded, &nan_sites, "{}", kind.name());
            let best = scores.iter().copied().filter(|s| !s.is_nan()).reduce(f64::max);
            match (best, &selection.winner) {
                (None, None) => {}
                (Some(best), Some(winner)) => {
                    let ties: BTreeSet<usize> = scores
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.total_cmp(&best).is_eq())
                        .map(|(i, _)| i)
                        .collect();
                    prop_assert!(
                        ties.contains(&winner.site_index),
                        "{}: winner outside the exact tie group", kind.name()
                    );
                }
                (best, winner) => prop_assert!(
                    false,
                    "{}: winner {:?} but best comparable score {:?}",
                    kind.name(), winner, best
                ),
            }
            // Same seed, same inputs: the draw is reproducible.
            let mut rng2 = SimRng::new(seed);
            let again = select_detailed_with(policy, &signals, &candidates, &mut rng2);
            prop_assert_eq!(
                again.winner.as_ref().map(|c| c.site_index),
                selection.winner.as_ref().map(|c| c.site_index)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Contract 2: crash-recovery replay under a non-default policy.
// ---------------------------------------------------------------------------

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cg-polconf-{}-{name}.journal", std::process::id()));
    p
}

fn policy_config(kind: PolicyKind) -> BrokerConfig {
    BrokerConfig {
        max_resubmissions: 10,
        selection_policy: kind,
        ..BrokerConfig::default()
    }
}

fn world() -> (Vec<SiteHandle>, Link) {
    let handles = ["alpha", "beta"]
        .iter()
        .map(|name| {
            let site = Site::new(SiteConfig {
                name: (*name).into(),
                nodes: 2,
                policy: Policy::Fifo,
                ..SiteConfig::default()
            });
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

fn drive(sim: &mut Sim, broker: &CrossBroker) {
    let exclusive = || {
        JobDescription::parse(
            r#"Executable = "viz"; JobType = "interactive"; MachineAccess = "exclusive";
               User = "alice"; SelectionPolicy = "queue-forecast";"#,
        )
        .unwrap()
    };
    for _ in 0..2 {
        broker.submit(sim, exclusive(), SimDuration::from_secs(10));
    }
    let b = broker.clone();
    sim.schedule_at(SimTime::from_secs(45), move |sim| {
        b.submit(sim, exclusive(), SimDuration::from_secs(10));
    });
    let b = broker.clone();
    sim.schedule_at(SimTime::from_secs(120), move |sim| {
        let batch =
            JobDescription::parse(r#"Executable = "bapp"; JobType = "batch"; User = "bob";"#)
                .unwrap();
        b.submit(sim, batch, SimDuration::from_secs(20));
    });
}

fn journaled_run(path: &PathBuf, kind: PolicyKind, crash_after: Option<u64>) -> (u64, bool) {
    let _ = std::fs::remove_file(path);
    let mut sim = Sim::new(11);
    let (handles, mds) = world();
    let broker = CrossBroker::new(&mut sim, handles, mds, policy_config(kind));
    let log = broker.event_log();
    log.set_journal(Journal::create(path, JournalConfig::default()).unwrap());
    if let Some(k) = crash_after {
        log.arm_crash(CrashPlan { after_event_seq: k });
    }
    drive(&mut sim, &broker);
    sim.run_until(SimTime::from_secs(600));
    if let Some(j) = log.journal() {
        j.sync().unwrap();
    }
    (log.recorded(), log.crashed())
}

/// The kill-point sweep under a non-default engine policy (and a per-job
/// JDL override on every interactive job): recovery must land every
/// journaled job in the bucket of the uncrashed run. A stride keeps the
/// sweep affordable; the full every-event sweep lives in `crash_recovery`.
#[test]
fn recovery_under_non_default_policy_reproduces_the_uncrashed_buckets() {
    let kind = PolicyKind::QueueForecast;
    let base = tmp("base");
    let (total, crashed) = journaled_run(&base, kind, None);
    assert!(!crashed);
    assert!(total > 15, "reference scenario too small: {total} events");

    let baseline = open_journal(&base).unwrap().replay_state().unwrap();
    assert_eq!(baseline.jobs.len(), 4);
    let mut base_buckets: BTreeMap<u64, Bucket> = BTreeMap::new();
    for (id, rj) in &baseline.jobs {
        assert!(
            rj.phase.is_terminal(),
            "job {id} not terminal: {:?}",
            rj.phase
        );
        base_buckets.insert(*id, rj.phase.bucket());
    }

    let crash = tmp("crash");
    for k in (0..total).step_by(5) {
        let (_, crashed) = journaled_run(&crash, kind, Some(k));
        assert!(crashed, "kill point {k} of {total} must fire");
        let loaded = open_journal(&crash).unwrap();
        let expected = loaded.replay_state().unwrap();
        let mut sim = Sim::new(9_000 + k);
        let (handles, mds) = world();
        let (broker, report) =
            CrossBroker::recover(&mut sim, handles, mds, policy_config(kind), &loaded).unwrap();
        sim.run_until(report.crash_at + SimDuration::from_secs(600));
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
    }
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&crash);
}

/// Builds a world where alpha earns a lease-failure streak the honest way:
/// a job pinned to alpha selects it while the link is still up, then the
/// GRAM submission pipeline dies when alpha's outage opens at t = 4 s —
/// `GramEvent::Failed` books one failure against the `lease-backoff`
/// signal. Beta exists so the grid is not degenerate; the pin keeps the
/// resubmission from landing anywhere.
fn streak_world() -> (Sim, CrossBroker) {
    let mut sim = Sim::new(11);
    let outage =
        FaultSchedule::from_windows(vec![(SimTime::from_secs(4), SimTime::from_secs(1_000))]);
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
                outage.clone()
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
    let broker = CrossBroker::new(
        &mut sim,
        handles,
        mds,
        policy_config(PolicyKind::LeaseBackoff),
    );
    let pinned = JobDescription::parse(
        r#"Executable = "viz"; JobType = "interactive"; MachineAccess = "exclusive";
           User = "carol"; Requirements = other.Site == "alpha";"#,
    )
    .unwrap();
    broker.submit(&mut sim, pinned, SimDuration::from_secs(5));
    sim.run_until(SimTime::from_secs(60));
    (sim, broker)
}

/// Contract for the `lease-backoff` input signal: a `Dead` obituary wipes
/// the site's failure streak (the obituary supersedes per-dispatch
/// bookkeeping), while `Suspect` alone leaves it untouched.
#[test]
fn dead_obituary_resets_the_lease_backoff_streak() {
    let (mut sim, broker) = streak_world();
    assert_eq!(
        broker.lease_failure_streak(0),
        1,
        "the failed submission must have extended alpha's streak"
    );
    let index = broker.index();
    for _ in 0..3 {
        index.report_query(&mut sim, 0, false);
    }
    assert_eq!(index.membership_state(0), MembershipState::Suspect);
    assert_eq!(
        broker.lease_failure_streak(0),
        1,
        "Suspect alone must not wipe the streak"
    );
    for _ in 0..3 {
        index.report_query(&mut sim, 0, false);
    }
    assert_eq!(index.membership_state(0), MembershipState::Dead);
    assert_eq!(
        broker.lease_failure_streak(0),
        0,
        "the Dead obituary must reset the streak"
    );
}

/// The rejoin side of the same contract: a streak earned before the
/// outage says nothing about the recovered site, so `Rejoined` resets it
/// and `lease-backoff` stops steering work away from a healthy member.
#[test]
fn rejoin_resets_the_lease_backoff_streak() {
    let (mut sim, broker) = streak_world();
    let index = broker.index();
    for _ in 0..3 {
        index.report_query(&mut sim, 0, false);
    }
    assert_eq!(index.membership_state(0), MembershipState::Suspect);
    assert_eq!(broker.lease_failure_streak(0), 1);
    index.report_query(&mut sim, 0, true);
    assert_eq!(index.membership_state(0), MembershipState::Rejoined);
    assert_eq!(
        broker.lease_failure_streak(0),
        0,
        "the rejoin must reset the streak"
    );
}
