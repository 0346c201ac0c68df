//! Restore: the broker's durable face — projecting live tables into the
//! stream-state model for journal snapshots, the read-only view crash
//! recovery (`crate::recovery`) checks its rebuild through, and the hooks it
//! uses to rebuild the tables and re-arm in-flight work through the same
//! admission gate and routing as `submit`.

use std::cell::Ref;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use cg_jdl::JobDescription;
use cg_sim::{Sim, SimDuration, SimTime};
use cg_trace::replay::{Phase, ReplayAgent, ReplayJob, ReplayState, SpoolMark};
use cg_trace::{RecoveredJob, RecoveredView};
use cg_vm::AgentId;

use super::events::Stage;
use super::settle::Ending;
use super::{CrossBroker, Inner, Live};
use crate::job::{JobId, JobRecord, JobState};

/// A job state in the stream's terms: the one mapping the snapshot
/// projection and the recovery view share.
fn phase_of(state: &JobState) -> Phase {
    match state {
        JobState::Submitted => Phase::Submitted,
        JobState::Matching => Phase::Matching,
        JobState::Scheduled { .. } => Phase::Dispatched,
        JobState::BrokerQueued => Phase::Queued,
        JobState::Running { .. } => Phase::Running,
        JobState::Done => Phase::Finished,
        JobState::Failed { .. } => Phase::Failed,
    }
}

/// The rebuilt broker as the recovery check reads it (rules 6b–8): one
/// lookup per job in the live tables, with nothing copied out but the
/// event log's spool marks. Its job records hold no lease, so it reports no
/// leased-and-queued job, as the snapshot projection shows none.
pub(crate) struct Rebuilt<'a> {
    inner: Ref<'a, Inner>,
    /// The event log's whole-stream spool fold; the seeded recovery
    /// watermarks are merged in on lookup.
    spools: BTreeMap<Arc<str>, SpoolMark>,
}

impl RecoveredView for Rebuilt<'_> {
    fn job(&self, id: u64) -> Option<RecoveredJob> {
        self.inner.jobs.with(JobId(id), |r| RecoveredJob {
            bucket: phase_of(&r.state).bucket(),
            attempts: r.resubmissions,
            user: Arc::clone(&r.user),
            started: r.started_at.is_some(),
        })
    }

    fn job_count(&self) -> usize {
        self.inner.jobs.len()
    }

    fn job_ids(&self) -> Vec<u64> {
        let mut ids = Vec::with_capacity(self.inner.jobs.len());
        self.inner.jobs.for_each(|id, _| ids.push(id.0));
        ids.sort_unstable();
        ids
    }

    fn agent_alive(&self, id: u64) -> bool {
        self.inner
            .agents
            .get(&AgentId(id))
            .is_some_and(|e| e.agent.borrow().is_alive())
    }

    fn acked(&self, stream: &str) -> u64 {
        let folded = self.spools.get(stream).map_or(0, |m| m.acked);
        let seeded = self.inner.spool_watermarks.get(stream).copied();
        folded.max(seeded.unwrap_or(0))
    }

    fn leased_and_queued(&self, _crash_at_ns: u64) -> Vec<u64> {
        Vec::new()
    }
}

impl CrossBroker {
    /// Projects the broker's live tables into the stream-state model
    /// ([`ReplayState`]) that journal snapshots encode: the job table (with
    /// retained JDL commit records), the live agent registry, and spool
    /// watermarks (seeded recovery marks merged with the event log's
    /// whole-stream fold).
    pub fn replay_state(&self) -> ReplayState {
        let inner = self.inner.borrow();
        let mut state = ReplayState::default();
        // Visit the job table in place: `state.jobs` is a BTreeMap, so the
        // per-shard (non-global) visit order lands in sorted order anyway,
        // and no intermediate Vec of cloned records is built.
        inner.jobs.for_each(|id, r| {
            let live = inner.live.get(&id);
            let fail_reason = match &r.state {
                JobState::Failed { reason } => Some(reason.clone()),
                _ => None,
            };
            state.jobs.insert(
                id.0,
                ReplayJob {
                    user: Arc::clone(&r.user),
                    interactive: live.is_some_and(|l| l.interactive),
                    phase: phase_of(&r.state),
                    queued: matches!(r.state, JobState::BrokerQueued),
                    attempts: r.resubmissions,
                    started: r.started_at.is_some(),
                    submitted_at_ns: r.submitted_at.as_nanos(),
                    started_at_ns: r.started_at.map(SimTime::as_nanos),
                    finished_at_ns: r.finished_at.map(SimTime::as_nanos),
                    lease: None,
                    jdl: live.map(|l| l.jdl.clone()),
                    runtime_ns: live.map(|l| l.runtime.as_nanos()),
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
                    site: inner.site_name(e.site_index),
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

    /// The rebuilt broker as a [`RecoveredView`], read in place: what
    /// crash recovery validates its rebuild through instead of a
    /// [`Self::replay_state`] projection.
    pub(crate) fn rebuilt(&self) -> Rebuilt<'_> {
        let inner = self.inner.borrow();
        let spools = inner.trace.stream_fold().spools;
        Rebuilt { inner, spools }
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
        self.schedule(sim, every, Stage::Snapshot, every.as_nanos());
    }

    /// A periodic snapshot is due.
    pub(super) fn snapshot_tick(&self, sim: &mut Sim, every: SimDuration) {
        if self.event_log().journal().is_none() {
            return;
        }
        if self.journal_snapshot().is_ok() {
            self.enable_periodic_snapshots(sim, every);
        }
    }

    /// Installs a job reconstructed from the journal, bucket-faithfully:
    /// the recovered table must land every job in the same coarse
    /// disposition the stream last saw (recovery invariant rule 6). The job
    /// counts as it did live: submitted, started, its resubmissions, and a
    /// terminal one ends through the ending table as it ended before.
    pub(crate) fn install_restored_job(&self, id: u64, rj: &ReplayJob) {
        let mut inner = self.inner.borrow_mut();
        let jid = JobId(id);
        inner.next_job = inner.next_job.max(id + 1);
        let state = match rj.phase {
            Phase::Submitted => JobState::Submitted,
            Phase::Matching | Phase::Leased | Phase::Dispatched => JobState::Matching,
            Phase::Queued => JobState::BrokerQueued,
            // Running, and every ending's guard admits it.
            _ => JobState::Running { sites: Vec::new() },
        };
        let mut record = JobRecord::new(
            jid,
            rj.user.clone(),
            SimTime::from_nanos(rj.submitted_at_ns),
        );
        record.state = state;
        record.started_at = rj.started_at_ns.map(SimTime::from_nanos);
        record.finished_at = rj.finished_at_ns.map(SimTime::from_nanos);
        record.resubmissions = rj.attempts;
        inner.jobs.insert(jid, record);
        inner.stats.submitted += 1;
        inner.stats.started += u64::from(rj.started);
        inner.stats.resubmissions += u64::from(rj.attempts);
        if let Some(ending) = Ending::journaled(rj) {
            let at = rj.finished_at_ns.unwrap_or(rj.submitted_at_ns);
            inner.end(jid, ending, SimTime::from_nanos(at), false);
        } else if let (Some(jdl), Some(runtime_ns)) = (&rj.jdl, rj.runtime_ns) {
            let runtime = SimDuration::from_nanos(runtime_ns);
            inner
                .live
                .insert(jid, Live::new(jdl.clone(), runtime, rj.interactive));
        }
    }

    /// Restores the glide-in pool's count, and keeps freshly deployed
    /// agents' ids clear of the pre-crash id space.
    pub(crate) fn restore_agents(&self, deployed: u64, next_agent: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.stats.agents_deployed = deployed;
        inner.next_agent = inner.next_agent.max(next_agent);
    }

    /// Seeds a spool ack watermark from the journal; recovery invariant
    /// rule 8 forbids recovery from regressing these.
    pub(crate) fn seed_spool_watermark(&self, stream: &Arc<str>, acked: u64) {
        self.inner
            .borrow_mut()
            .spool_watermarks
            .insert(Arc::clone(stream), acked);
    }

    /// Re-arms a restored live job after the same JDL gate as `submit`,
    /// which gives the matchmaking loop its compiled expressions back (or
    /// rejects the job when its ad no longer passes): a `queued` batch job
    /// goes back on the broker queue and arms the retry cycle, any other
    /// re-enters its submission path as a resubmission (the pre-crash
    /// attempt is gone with the broker).
    pub(crate) fn rearm_restored(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
        queued: bool,
    ) {
        if !self.jdl_gate(sim.now(), id, job.analyze()) {
            return;
        }
        if queued {
            self.park(sim, id, job, runtime);
        } else {
            self.ensure_fairshare_tick(sim);
            self.route(sim, id, job, runtime, HashSet::new());
        }
    }
}

#[cfg(test)]
mod tests;
