//! Crash recovery: rebuilding a broker from its durable journal.
//!
//! The event log doubles as a write-ahead journal (see `cg_trace::journal`):
//! every state-shaping event is CRC-framed on disk before the broker acts
//! on it, and periodic snapshots bound how much tail a recovery replays.
//! [`CrossBroker::recover`] folds snapshot + tail into the stream-state
//! model, rebuilds a fresh broker's tables from it, validates the
//! reconstruction against the extended invariants (rules 6–8 in
//! `cg_trace::check_recovery_invariants`, which looks each of the fold's
//! jobs up in the rebuilt tables in place, plus the whole-stream rules when
//! the journal carries the complete prefix), and only then re-arms the
//! in-flight work:
//!
//! * jobs parked on the broker queue go back on the queue;
//! * in-flight jobs (matched, dispatched, even running — their sessions
//!   died with the broker) re-enter their submission path from the retained
//!   JDL commit record;
//! * non-terminal jobs whose `JobAd` commit record never reached the disk
//!   are aborted — an incomplete commit record means the submission never
//!   happened, durably speaking;
//! * agents are glide-ins living in broker-held leases: all of them are
//!   lost with the broker and recorded as dead in the new epoch's stream.

use cg_jdl::JobDescription;
use cg_net::Link;
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::MembershipState;
use cg_trace::replay::{Phase, SiteHealth};
use cg_trace::{check_invariants, check_recovery_invariants, Event, JournalError, LoadedJournal};

use crate::broker::{CrossBroker, SiteHandle};
use crate::config::BrokerConfig;
use crate::job::JobId;

/// What a [`CrossBroker::recover`] call found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Jobs reconstructed from the journal.
    pub jobs: u64,
    /// Of those, jobs already terminal before the crash.
    pub terminal: u64,
    /// Batch jobs put back on the broker queue.
    pub requeued: u64,
    /// In-flight jobs routed back through their submission path.
    pub resubmitted: u64,
    /// Non-terminal jobs aborted because their JDL commit record never
    /// reached the journal.
    pub aborted: u64,
    /// Agents the stream saw alive at the crash — all lost with the broker.
    pub agents_lost: u64,
    /// Bytes cut from the journal's torn tail when it was opened.
    pub truncated_bytes: u64,
    /// Whether a snapshot bounded the replay.
    pub from_snapshot: bool,
    /// Events replayed after the snapshot (or from the start).
    pub tail_events: u64,
    /// Simulated time of the last journaled event — the crash instant.
    pub crash_at: SimTime,
    /// Invariant violations found in the journaled stream or in the
    /// reconstruction. Empty in a healthy recovery; a non-empty list means
    /// the journal and the rebuilt broker disagree and the recovered state
    /// should not be trusted.
    pub violations: Vec<String>,
}

impl CrossBroker {
    /// Rebuilds a broker from a loaded journal into a fresh simulation
    /// world.
    ///
    /// The job table, aggregate stats, retained job ads and spool ack
    /// watermarks are reconstructed from the journal's snapshot + tail; the
    /// reconstruction is validated (rules 6–8, and the whole-stream rules
    /// 1–5 when no snapshot hides the prefix) **before** any re-arm work is
    /// scheduled, so `report.violations` describes the pure rebuild. Re-arm
    /// actions — requeueing parked batch jobs, resubmitting in-flight jobs,
    /// aborting jobs with incomplete commit records — are scheduled at the
    /// crash instant and run when the caller resumes the simulation.
    ///
    /// # Errors
    /// [`JournalError::Corrupt`] when the journal's snapshot blob does not
    /// decode. (Framing corruption is surfaced earlier, by
    /// `cg_trace::open_journal`.)
    pub fn recover(
        sim: &mut Sim,
        sites: Vec<SiteHandle>,
        mds_link: Link,
        config: BrokerConfig,
        loaded: &LoadedJournal,
    ) -> Result<(CrossBroker, RecoveryReport), JournalError> {
        let expected = loaded.replay_state()?;
        let crash_at = SimTime::from_nanos(expected.last_at_ns);
        let broker = CrossBroker::new(sim, sites, mds_link, config);

        let mut report = RecoveryReport {
            jobs: expected.jobs.len() as u64,
            truncated_bytes: loaded.truncated_bytes,
            from_snapshot: loaded.snapshot.is_some(),
            tail_events: loaded.events.len() as u64,
            crash_at,
            ..RecoveryReport::default()
        };

        // 1. Rebuild the tables from the stream state.
        for (id, rj) in &expected.jobs {
            broker.install_restored_job(*id, rj);
            if rj.phase.is_terminal() {
                report.terminal += 1;
            }
        }
        broker.restore_agents(
            expected.agents.len() as u64,
            expected.agents.keys().max().map_or(0, |m| m + 1),
        );
        for (stream, mark) in &expected.spools {
            broker.seed_spool_watermark(stream, mark.acked);
        }
        // Rebuild the failure detector's verdicts: sites the stream last
        // saw Suspect/Dead stay out of matchmaking until fresh
        // observations clear them. Counters restart clean — an ongoing
        // outage re-accumulates evidence, an ended one rejoins on the
        // next clean observation.
        for (site, health) in &expected.site_health {
            let state = match health {
                SiteHealth::Suspect => MembershipState::Suspect,
                SiteHealth::Dead => MembershipState::Dead,
            };
            broker.index().restore_membership(site, state, crash_at);
        }
        report.agents_lost = expected.agents.values().filter(|a| a.alive).count() as u64;

        // 2. Validate the reconstruction before any re-arm work runs. The
        // whole-stream rules only apply when the journal carries the
        // complete prefix — behind a snapshot the tail alone would trip
        // lease/yield lookbacks spuriously.
        if loaded.snapshot.is_none() {
            report.violations = check_invariants(&loaded.events);
        }
        report.violations.extend(check_recovery_invariants(
            &loaded.events,
            &expected,
            &broker.rebuilt(),
        ));

        // 3. Re-arm at the crash instant: the new epoch's stream opens with
        // the recovery marker and the glide-in pool's obituaries.
        let log = broker.event_log();
        for (aid, agent) in &expected.agents {
            if agent.alive {
                log.record(
                    crash_at,
                    Event::AgentDied {
                        agent: *aid,
                        reason: "lost in broker crash".into(),
                        voluntary: false,
                    },
                );
            }
        }
        let mut rearm: Vec<(JobId, JobDescription, SimDuration, bool)> = Vec::new();
        for (id, rj) in &expected.jobs {
            if rj.phase.is_terminal() {
                continue;
            }
            let id = JobId(*id);
            let parsed = match (&rj.jdl, rj.runtime_ns) {
                (Some(jdl), Some(runtime_ns)) => JobDescription::parse(jdl)
                    .ok()
                    .map(|job| (job, SimDuration::from_nanos(runtime_ns))),
                _ => None,
            };
            match parsed {
                Some((job, runtime)) => {
                    let queued = rj.phase == Phase::Queued;
                    if queued {
                        report.requeued += 1;
                    } else {
                        report.resubmitted += 1;
                    }
                    rearm.push((id, job, runtime, queued));
                }
                None => {
                    // The commit record (JobSubmitted + JobAd) is incomplete:
                    // the durable submission never happened. Abort.
                    report.aborted += 1;
                    let broker2 = broker.clone();
                    sim.schedule_at(crash_at, move |sim| {
                        broker2.fail(sim, id, "job description lost with the broker crash");
                    });
                }
            }
        }
        log.record(
            crash_at,
            Event::BrokerRecovered {
                jobs: report.jobs,
                requeued: report.requeued,
                resubmitted: report.resubmitted,
                agents_lost: report.agents_lost,
            },
        );
        for (id, job, runtime, queued) in rearm {
            let broker2 = broker.clone();
            sim.schedule_at(crash_at, move |sim| {
                broker2.rearm_restored(sim, id, job, runtime, queued);
            });
        }

        Ok((broker, report))
    }
}
