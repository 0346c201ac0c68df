//! Restore: the broker's durable face — projecting live tables into the
//! stream-state model for journal snapshots, and the hooks crash recovery
//! (`crate::recovery`) uses to rebuild the tables and re-arm in-flight
//! work through the same admission gate and routing as `submit`.

use std::collections::HashSet;

use cg_jdl::JobDescription;
use cg_sim::{Sim, SimDuration, SimTime};
use cg_trace::replay::{Phase, ReplayAgent, ReplayJob, ReplayState};

use super::{BrokerStats, CrossBroker, RetainedAd};
use crate::job::{JobId, JobRecord, JobState};

impl CrossBroker {
    /// Projects the broker's live tables into the stream-state model
    /// ([`ReplayState`]) used by journal snapshots and the recovery
    /// invariants: the job table (with retained JDL commit records), the
    /// live agent registry, and spool watermarks (seeded recovery marks
    /// merged with the event log's whole-stream fold).
    pub fn replay_state(&self) -> ReplayState {
        let inner = self.inner.borrow();
        let mut state = ReplayState::default();
        // Visit the job table in place: `state.jobs` is a BTreeMap, so the
        // per-shard (non-global) visit order lands in sorted order anyway,
        // and no intermediate Vec of cloned records is built.
        inner.jobs.for_each(|id, r| {
            let ad = inner.side.ads.get(&id);
            let phase = match &r.state {
                JobState::Submitted => Phase::Submitted,
                JobState::Matching => Phase::Matching,
                JobState::Scheduled { .. } => Phase::Dispatched,
                JobState::BrokerQueued => Phase::Queued,
                JobState::Running { .. } => Phase::Running,
                JobState::Done => Phase::Finished,
                JobState::Failed { .. } => Phase::Failed,
            };
            let fail_reason = match &r.state {
                JobState::Failed { reason } => Some(reason.clone()),
                _ => None,
            };
            state.jobs.insert(
                id.0,
                ReplayJob {
                    user: r.user.clone(),
                    interactive: ad.is_some_and(|a| a.interactive),
                    phase,
                    queued: matches!(r.state, JobState::BrokerQueued),
                    attempts: r.resubmissions,
                    started: r.started_at.is_some(),
                    submitted_at_ns: r.submitted_at.as_nanos(),
                    started_at_ns: r.started_at.map(SimTime::as_nanos),
                    finished_at_ns: r.finished_at.map(SimTime::as_nanos),
                    lease: None,
                    jdl: ad.map(|a| a.jdl.clone()),
                    runtime_ns: ad.map(|a| a.runtime.as_nanos()),
                    fail_reason,
                },
            );
        });
        for (aid, e) in &inner.agents {
            if !e.agent.borrow().is_alive() {
                continue;
            }
            state.agents.insert(
                aid.0,
                ReplayAgent {
                    site: inner.sites[e.site_index].site.name().to_string(),
                    alive: true,
                    ready: e.ready_at != SimTime::MAX,
                },
            );
        }
        // The log folds `(seq, at)` and the spool marks over every event it
        // ever recorded, so this is O(streams) and sees marks the ring has
        // long evicted; recovery's seeded watermarks are merged in on top.
        let fold = inner.trace.stream_fold();
        state.spools = fold.spools;
        for (stream, acked) in &inner.spool_watermarks {
            let m = state.spools.entry(stream.clone()).or_default();
            m.appended = m.appended.max(*acked);
            m.acked = m.acked.max(*acked);
        }
        if let Some((seq, at)) = fold.last {
            state.last_seq = Some(seq);
            state.last_at_ns = at.as_nanos();
        }
        state
    }

    /// Writes a snapshot of the broker's current state into the attached
    /// journal, bounding how many tail events a later recovery must replay.
    /// Returns `Ok(false)` when no journal is attached (never attached, or
    /// already sealed by a crash plan) or nothing has been recorded yet.
    ///
    /// # Errors
    /// Propagates the journal file's I/O errors.
    pub fn journal_snapshot(&self) -> std::io::Result<bool> {
        let log = self.event_log();
        let Some(journal) = log.journal() else {
            return Ok(false);
        };
        let recorded = log.recorded();
        if recorded == 0 {
            return Ok(false);
        }
        let blob = cg_trace::encode_state(&self.replay_state());
        journal.append_snapshot(recorded - 1, &blob)?;
        Ok(true)
    }

    /// Snapshots the attached journal every `every` of simulated time, so
    /// recovery replays a bounded tail instead of the whole history. Stops
    /// by itself once the journal detaches (crash plan) or turns sick.
    pub fn enable_periodic_snapshots(&self, sim: &mut Sim, every: SimDuration) {
        let this = self.clone();
        sim.schedule_in(every, move |sim| {
            if this.event_log().journal().is_none() {
                return;
            }
            if this.journal_snapshot().is_ok() {
                this.enable_periodic_snapshots(sim, every);
            }
        });
    }

    /// Installs a job reconstructed from the journal, bucket-faithfully:
    /// the recovered table must land every job in the same coarse
    /// disposition the stream last saw (recovery invariant rule 6).
    pub(crate) fn install_restored_job(&self, id: u64, rj: &ReplayJob) {
        let mut inner = self.inner.borrow_mut();
        let jid = JobId(id);
        inner.next_job = inner.next_job.max(id + 1);
        let state = match rj.phase {
            Phase::Submitted => JobState::Submitted,
            Phase::Matching | Phase::Leased | Phase::Dispatched => JobState::Matching,
            Phase::Queued => JobState::BrokerQueued,
            Phase::Running => JobState::Running { sites: Vec::new() },
            Phase::Finished => JobState::Done,
            Phase::Failed => JobState::Failed {
                reason: rj
                    .fail_reason
                    .clone()
                    .unwrap_or_else(|| "failed before the broker crash".into()),
            },
            Phase::Cancelled => JobState::Failed {
                reason: "cancelled by user".into(),
            },
            Phase::Rejected => JobState::Failed {
                reason: "rejected by JDL analysis".into(),
            },
        };
        let record = JobRecord {
            id: jid,
            user: rj.user.clone(),
            state,
            submitted_at: SimTime::from_nanos(rj.submitted_at_ns),
            discovered_at: None,
            selected_at: None,
            dispatched_at: None,
            started_at: rj.started_at_ns.map(SimTime::from_nanos),
            finished_at: rj.finished_at_ns.map(SimTime::from_nanos),
            resubmissions: rj.attempts,
        };
        inner.jobs.insert(jid, record);
        if !rj.phase.is_terminal() {
            if let (Some(jdl), Some(runtime_ns)) = (&rj.jdl, rj.runtime_ns) {
                inner.side.ads.insert(
                    jid,
                    RetainedAd {
                        jdl: jdl.clone(),
                        runtime: SimDuration::from_nanos(runtime_ns),
                        interactive: rj.interactive,
                    },
                );
            }
        }
    }

    /// Overwrites the aggregate counters with values rebuilt from the
    /// stream (crash recovery).
    pub(crate) fn set_restored_stats(&self, stats: BrokerStats) {
        self.inner.borrow_mut().stats = stats;
    }

    /// Keeps freshly deployed agents' ids clear of the pre-crash id space.
    pub(crate) fn reserve_agent_ids(&self, next_agent: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.next_agent = inner.next_agent.max(next_agent);
    }

    /// Seeds a spool ack watermark from the journal; recovery invariant
    /// rule 8 forbids recovery from regressing these.
    pub(crate) fn seed_spool_watermark(&self, stream: &str, acked: u64) {
        self.inner
            .borrow_mut()
            .spool_watermarks
            .insert(stream.to_string(), acked);
    }

    /// Terminal failure entry point for recovery.
    pub(crate) fn fail_restored(&self, sim: &mut Sim, id: JobId, reason: &str) {
        self.fail(sim, id, reason, false);
    }

    /// Puts a restored batch job back on the broker queue and arms the
    /// retry cycle — after the same JDL gate as `submit`, which gives the
    /// matchmaking loop its compiled expressions back (or rejects the job
    /// when its ad no longer passes).
    pub(crate) fn requeue_restored(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
    ) {
        if self.jdl_gate(sim.now(), id, job.analyze()) {
            self.park(sim, id, job, runtime);
        }
    }

    /// Routes a restored in-flight job back through its submission path, as
    /// a resubmission (the pre-crash attempt is gone with the broker).
    pub(crate) fn rearm_restored(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
    ) {
        if self.jdl_gate(sim.now(), id, job.analyze()) {
            self.ensure_fairshare_tick(sim);
            self.route(sim, id, job, runtime, HashSet::new());
        }
    }
}
