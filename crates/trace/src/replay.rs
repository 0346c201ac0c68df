//! Deterministic state reconstruction from an event stream.
//!
//! [`ReplayState`] is a pure fold over [`TimedEvent`]s: apply every event in
//! order and you get the broker-visible state at the end of the stream —
//! job table, agent registry, VM slot occupancy, spool watermarks. Crash
//! recovery folds a journal's snapshot + tail through here, and the
//! recovery invariants compare this "what the stream says" view against the
//! freshly reconstructed broker.
//!
//! The fold is **idempotent on its comparison core**: re-applying the same
//! events to an already-folded state leaves jobs, agents and spool
//! watermarks unchanged (terminal phases never downgrade, attempts and
//! watermarks are max-based). That property is what the "recovered state is
//! a fixpoint of the event stream" invariant checks. Slot occupancy is the
//! one counter-based field and is excluded from the fixpoint core.

use crate::codec::{put_bool, put_str, put_u32, put_u64, put_u8, CodecError, Cursor};
use crate::event::{Event, TimedEvent};
use crate::journal::{JournalError, LoadedJournal};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Fine-grained job lifecycle position, as reconstructable from events.
/// The discriminant is the phase's tag in a snapshot blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// `JobSubmitted` seen, nothing further.
    Submitted = 0,
    /// Parked on the broker queue (batch, no candidates).
    Queued = 1,
    /// Back in matchmaking after a queue retry or resubmission.
    Matching = 2,
    /// Holding a lease on a target.
    Leased = 3,
    /// Sent towards a target.
    Dispatched = 4,
    /// Computing.
    Running = 5,
    /// Terminal: completed normally.
    Finished = 6,
    /// Terminal: failed.
    Failed = 7,
    /// Terminal: cancelled by the user.
    Cancelled = 8,
    /// Terminal: rejected by JDL static analysis.
    Rejected = 9,
}

/// Coarse disposition buckets used for cross-recovery comparison. The
/// broker's own job table is lossier than the event stream (e.g. cancelled
/// and rejected jobs both persist as `Failed { reason }`), so equality
/// across a crash is defined at this granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// In matchmaking or dispatch, not yet running.
    Pending,
    /// On the broker queue.
    Queued,
    /// Computing.
    Running,
    /// Finished normally.
    Done,
    /// Failed, cancelled or rejected.
    Errored,
}

impl Phase {
    /// Every phase, indexed by its tag.
    pub const ALL: [Phase; 10] = [
        Phase::Submitted,
        Phase::Queued,
        Phase::Matching,
        Phase::Leased,
        Phase::Dispatched,
        Phase::Running,
        Phase::Finished,
        Phase::Failed,
        Phase::Cancelled,
        Phase::Rejected,
    ];

    /// The phase's coarse disposition bucket.
    #[must_use]
    pub fn bucket(self) -> Bucket {
        match self {
            Phase::Submitted | Phase::Matching | Phase::Leased | Phase::Dispatched => {
                Bucket::Pending
            }
            Phase::Queued => Bucket::Queued,
            Phase::Running => Bucket::Running,
            Phase::Finished => Bucket::Done,
            Phase::Failed | Phase::Cancelled | Phase::Rejected => Bucket::Errored,
        }
    }

    /// True for the four terminal phases.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            Phase::Finished | Phase::Failed | Phase::Cancelled | Phase::Rejected
        )
    }
}

/// One job as seen by the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayJob {
    /// Submitting user, shared with the event that named it.
    pub user: Arc<str>,
    /// Whether the job is interactive.
    pub interactive: bool,
    /// Current lifecycle phase.
    pub phase: Phase,
    /// On the broker queue right now.
    pub queued: bool,
    /// Highest resubmission attempt seen.
    pub attempts: u32,
    /// The job has started computing at least once.
    pub started: bool,
    /// `JobSubmitted` timestamp, nanoseconds.
    pub submitted_at_ns: u64,
    /// First `JobStarted` timestamp.
    pub started_at_ns: Option<u64>,
    /// Terminal-event timestamp.
    pub finished_at_ns: Option<u64>,
    /// Most recent lease: `(target, until_ns)`.
    pub lease: Option<(Arc<str>, u64)>,
    /// Re-parseable JDL source from the `JobAd` commit record.
    pub jdl: Option<String>,
    /// Declared runtime from the `JobAd` commit record.
    pub runtime_ns: Option<u64>,
    /// Failure reason for `Phase::Failed`.
    pub fail_reason: Option<String>,
}

impl ReplayJob {
    fn new(at_ns: u64) -> Self {
        ReplayJob {
            user: Arc::default(),
            interactive: false,
            phase: Phase::Submitted,
            queued: false,
            attempts: 0,
            started: false,
            submitted_at_ns: at_ns,
            started_at_ns: None,
            finished_at_ns: None,
            lease: None,
            jdl: None,
            runtime_ns: None,
            fail_reason: None,
        }
    }

    /// Moves to `phase` unless a terminal phase has already been reached —
    /// terminal states win, which is what makes re-application idempotent.
    fn advance(&mut self, phase: Phase) {
        if !self.phase.is_terminal() {
            self.phase = phase;
        }
    }

    fn terminate(&mut self, phase: Phase, at_ns: u64) {
        if !self.phase.is_terminal() {
            self.phase = phase;
            self.finished_at_ns = Some(at_ns);
            self.queued = false;
            self.lease = None;
        }
    }
}

/// One glide-in agent as seen by the event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayAgent {
    /// Hosting site.
    pub site: Arc<str>,
    /// Deployed and not yet died.
    pub alive: bool,
    /// Reached `AgentReady`.
    pub ready: bool,
}

/// Per-machine VM slot occupancy (running task counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotUse {
    /// Interactive tasks currently on the slot.
    pub interactive: i64,
    /// Batch tasks currently on the slot.
    pub batch: i64,
}

/// Per-stream spool watermarks (max-based, monotone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpoolMark {
    /// Highest appended record sequence.
    pub appended: u64,
    /// Highest acknowledged record sequence.
    pub acked: u64,
}

impl SpoolMark {
    /// Folds a `SpoolAppend`/`SpoolAck` into the per-stream watermarks;
    /// every other event is ignored. The one definition of the fold:
    /// [`ReplayState::apply`] and the [`crate::EventLog`]'s running fold
    /// both go through it, so a snapshot's marks equal the journal's.
    pub fn fold(spools: &mut BTreeMap<Arc<str>, SpoolMark>, event: &Event) {
        let (stream, appended, acked) = match event {
            Event::SpoolAppend { stream, seq } => (stream, *seq, 0),
            Event::SpoolAck { stream, seq } => (stream, 0, *seq),
            _ => return,
        };
        // The key is the event's own stream label, shared.
        let m = spools.entry(Arc::clone(stream)).or_default();
        m.appended = m.appended.max(appended);
        m.acked = m.acked.max(acked);
    }
}

/// Membership verdict on an unhealthy site, as reconstructable from the
/// obituary events. Healthy sites never appear in the registry — a
/// `SiteRejoin` removes the entry — so the fold is last-writer-wins and
/// idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteHealth {
    /// `SiteSuspect` seen, no rejoin since.
    Suspect,
    /// `SiteDead` seen, no rejoin since.
    Dead,
}

/// Broker-visible state reconstructed from an event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayState {
    /// Job table, by broker job id.
    pub jobs: BTreeMap<u64, ReplayJob>,
    /// Agent registry, by agent id.
    pub agents: BTreeMap<u64, ReplayAgent>,
    /// VM slot occupancy, by machine label. Counter-based: excluded from
    /// the fixpoint comparison core.
    pub slots: BTreeMap<Arc<str>, SlotUse>,
    /// Spool watermarks, by stream label.
    pub spools: BTreeMap<Arc<str>, SpoolMark>,
    /// Sites currently held `Suspect`/`Dead` by the failure detector.
    pub site_health: BTreeMap<Arc<str>, SiteHealth>,
    /// Highest event sequence number applied.
    pub last_seq: Option<u64>,
    /// Timestamp of the last applied event, nanoseconds.
    pub last_at_ns: u64,
}

impl ReplayState {
    /// Folds a whole stream into a fresh state.
    #[must_use]
    pub fn from_events(events: &[TimedEvent]) -> Self {
        let mut s = ReplayState::default();
        for e in events {
            s.apply(e);
        }
        s
    }

    /// Job `id`'s entry, made at `at_ns` by the first event that names it.
    fn job(&mut self, id: u64, at_ns: u64) -> &mut ReplayJob {
        self.jobs.entry(id).or_insert_with(|| ReplayJob::new(at_ns))
    }

    /// Applies one event.
    ///
    /// A job arm touches only the job its event names, through the one
    /// accessor `job(id, at_ns)`: it reads and writes no other entry of the
    /// job table. The recovery check relies on this to refold a tail over
    /// just the jobs the tail names ([`crate::check_recovery_invariants`],
    /// rule 6a).
    pub fn apply(&mut self, te: &TimedEvent) {
        let at_ns = te.at.as_nanos();
        self.last_seq = Some(self.last_seq.map_or(te.seq, |s| s.max(te.seq)));
        self.last_at_ns = self.last_at_ns.max(at_ns);
        match &te.event {
            Event::JobSubmitted {
                job,
                user,
                interactive,
            } => {
                let j = self.job(*job, at_ns);
                j.user = Arc::clone(user);
                j.interactive = *interactive;
            }
            Event::JobAd {
                job,
                jdl,
                runtime_ns,
            } => {
                let j = self.job(*job, at_ns);
                j.jdl = Some(jdl.clone());
                j.runtime_ns = Some(*runtime_ns);
            }
            Event::JobQueued { job } => {
                let j = self.job(*job, at_ns);
                if !j.phase.is_terminal() {
                    j.queued = true;
                }
                j.advance(Phase::Queued);
            }
            Event::QueueRetry { job } => {
                let j = self.job(*job, at_ns);
                if !j.phase.is_terminal() {
                    j.queued = false;
                }
                j.advance(Phase::Matching);
            }
            Event::LeaseGranted {
                job,
                target,
                until_ns,
            } => {
                let j = self.job(*job, at_ns);
                if !j.phase.is_terminal() {
                    j.lease = Some((Arc::clone(target), *until_ns));
                }
                if !matches!(j.phase, Phase::Running) {
                    j.advance(Phase::Leased);
                }
            }
            Event::JobDispatched { job, .. } => {
                let j = self.job(*job, at_ns);
                if !matches!(j.phase, Phase::Running) {
                    j.advance(Phase::Dispatched);
                }
            }
            Event::JobStarted { job } => {
                let j = self.job(*job, at_ns);
                j.started = true;
                if j.started_at_ns.is_none() {
                    j.started_at_ns = Some(at_ns);
                }
                j.advance(Phase::Running);
            }
            Event::JobResubmitted { job, attempt } => {
                let j = self.job(*job, at_ns);
                j.attempts = j.attempts.max(*attempt);
                j.advance(Phase::Matching);
            }
            Event::JobBackoff { job, .. } => self.job(*job, at_ns).advance(Phase::Matching),
            Event::JobFinished { job } => self.job(*job, at_ns).terminate(Phase::Finished, at_ns),
            Event::JobFailed { job, reason } => {
                let j = self.job(*job, at_ns);
                if !j.phase.is_terminal() {
                    j.fail_reason = Some(reason.clone());
                }
                j.terminate(Phase::Failed, at_ns);
            }
            Event::JobCancelled { job } => self.job(*job, at_ns).terminate(Phase::Cancelled, at_ns),
            Event::JdlRejected { job, .. } => {
                self.job(*job, at_ns).terminate(Phase::Rejected, at_ns);
            }
            Event::AgentDeployed { agent, site } => {
                let a = self.agents.entry(*agent).or_insert_with(|| ReplayAgent {
                    site: Arc::clone(site),
                    alive: true,
                    ready: false,
                });
                a.site = Arc::clone(site);
            }
            Event::AgentReady { agent } => {
                if let Some(a) = self.agents.get_mut(agent) {
                    a.ready = true;
                }
            }
            Event::AgentDied { agent, .. } => {
                if let Some(a) = self.agents.get_mut(agent) {
                    a.alive = false;
                }
            }
            Event::SlotStarted {
                machine,
                interactive,
            } => {
                let s = self.slots.entry(Arc::clone(machine)).or_default();
                if *interactive {
                    s.interactive += 1;
                } else {
                    s.batch += 1;
                }
            }
            Event::SlotFinished {
                machine,
                interactive,
            } => {
                let s = self.slots.entry(Arc::clone(machine)).or_default();
                if *interactive {
                    s.interactive -= 1;
                } else {
                    s.batch -= 1;
                }
            }
            Event::SpoolAppend { .. } | Event::SpoolAck { .. } => {
                SpoolMark::fold(&mut self.spools, &te.event);
            }
            Event::SiteSuspect { site, .. } => {
                self.site_health
                    .insert(Arc::clone(site), SiteHealth::Suspect);
            }
            Event::SiteDead { site, .. } => {
                self.site_health.insert(Arc::clone(site), SiteHealth::Dead);
            }
            Event::SiteRejoin { site, .. } => {
                self.site_health.remove(&**site);
            }
            // Fair-share ticks, console lifecycle, buffer flushes, LRMS
            // bookkeeping and measurements don't shape recoverable state.
            _ => {}
        }
    }
}

impl LoadedJournal {
    /// Reconstructs the broker-visible state at the crash point: decodes
    /// the snapshot (if any) and folds the tail events over it.
    ///
    /// # Errors
    /// [`JournalError::Corrupt`] when the snapshot blob does not decode.
    pub fn replay_state(&self) -> Result<ReplayState, JournalError> {
        let mut s = match &self.snapshot {
            Some(sn) => decode_state(&sn.state).map_err(|e| JournalError::Corrupt {
                offset: 0,
                reason: format!("undecodable snapshot state: {e}"),
            })?,
            None => ReplayState::default(),
        };
        for e in &self.events {
            s.apply(e);
        }
        Ok(s)
    }
}

// ── snapshot blob codec ─────────────────────────────────────────────────

const STATE_VERSION: u8 = 2;

fn phase_tag(p: Phase) -> u8 {
    p as u8
}

fn phase_from_tag(t: u8) -> Result<Phase, CodecError> {
    Phase::ALL
        .get(usize::from(t))
        .copied()
        .ok_or(CodecError::BadTag(t))
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            put_u8(out, 1);
            put_u64(out, x);
        }
        None => put_u8(out, 0),
    }
}

fn get_opt_u64(c: &mut Cursor<'_>) -> Result<Option<u64>, CodecError> {
    Ok(if c.u8()? != 0 { Some(c.u64()?) } else { None })
}

fn put_opt_str(out: &mut Vec<u8>, v: Option<&str>) {
    match v {
        Some(s) => {
            put_u8(out, 1);
            put_str(out, s);
        }
        None => put_u8(out, 0),
    }
}

fn get_opt_str(c: &mut Cursor<'_>) -> Result<Option<String>, CodecError> {
    Ok(if c.u8()? != 0 { Some(c.str()?) } else { None })
}

fn get_name(c: &mut Cursor<'_>) -> Result<Arc<str>, CodecError> {
    c.str_ref().map(Arc::from)
}

/// The user and site names one blob has decoded so far, so that every job
/// of a user (every agent at a site) shares one `Arc` as it did live. It
/// lives for one [`decode_state`] call.
#[derive(Default)]
struct SharedNames<'a>(BTreeMap<&'a str, Arc<str>>);

impl<'a> SharedNames<'a> {
    fn get(&mut self, c: &mut Cursor<'a>) -> Result<Arc<str>, CodecError> {
        let name = c.str_ref()?;
        Ok(Arc::clone(
            self.0.entry(name).or_insert_with(|| Arc::from(name)),
        ))
    }
}

/// Serializes a [`ReplayState`] into the versioned snapshot blob format.
#[must_use]
pub fn encode_state(state: &ReplayState) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_u8(&mut out, STATE_VERSION);
    put_opt_u64(&mut out, state.last_seq);
    put_u64(&mut out, state.last_at_ns);

    put_u32(&mut out, state.jobs.len() as u32);
    for (id, j) in &state.jobs {
        put_u64(&mut out, *id);
        put_str(&mut out, &j.user);
        put_bool(&mut out, j.interactive);
        put_u8(&mut out, phase_tag(j.phase));
        put_bool(&mut out, j.queued);
        put_u32(&mut out, j.attempts);
        put_bool(&mut out, j.started);
        put_u64(&mut out, j.submitted_at_ns);
        put_opt_u64(&mut out, j.started_at_ns);
        put_opt_u64(&mut out, j.finished_at_ns);
        match &j.lease {
            Some((target, until)) => {
                put_u8(&mut out, 1);
                put_str(&mut out, target);
                put_u64(&mut out, *until);
            }
            None => put_u8(&mut out, 0),
        }
        put_opt_str(&mut out, j.jdl.as_deref());
        put_opt_u64(&mut out, j.runtime_ns);
        put_opt_str(&mut out, j.fail_reason.as_deref());
    }

    put_u32(&mut out, state.agents.len() as u32);
    for (id, a) in &state.agents {
        put_u64(&mut out, *id);
        put_str(&mut out, &a.site);
        put_bool(&mut out, a.alive);
        put_bool(&mut out, a.ready);
    }

    put_u32(&mut out, state.slots.len() as u32);
    for (machine, s) in &state.slots {
        put_str(&mut out, machine);
        put_u64(&mut out, s.interactive.cast_unsigned());
        put_u64(&mut out, s.batch.cast_unsigned());
    }

    put_u32(&mut out, state.spools.len() as u32);
    for (stream, m) in &state.spools {
        put_str(&mut out, stream);
        put_u64(&mut out, m.appended);
        put_u64(&mut out, m.acked);
    }

    put_u32(&mut out, state.site_health.len() as u32);
    for (site, h) in &state.site_health {
        put_str(&mut out, site);
        put_u8(
            &mut out,
            match h {
                SiteHealth::Suspect => 0,
                SiteHealth::Dead => 1,
            },
        );
    }
    out
}

/// Decodes a snapshot blob produced by [`encode_state`].
///
/// # Errors
/// Returns a [`CodecError`] for truncated, mis-versioned or malformed
/// blobs.
pub fn decode_state(bytes: &[u8]) -> Result<ReplayState, CodecError> {
    let mut c = Cursor::new(bytes);
    let version = c.u8()?;
    if version != STATE_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let mut state = ReplayState {
        last_seq: get_opt_u64(&mut c)?,
        last_at_ns: c.u64()?,
        ..ReplayState::default()
    };

    let mut names = SharedNames::default();
    let n_jobs = c.u32()?;
    for _ in 0..n_jobs {
        let id = c.u64()?;
        let job = ReplayJob {
            user: names.get(&mut c)?,
            interactive: c.bool()?,
            phase: phase_from_tag(c.u8()?)?,
            queued: c.bool()?,
            attempts: c.u32()?,
            started: c.bool()?,
            submitted_at_ns: c.u64()?,
            started_at_ns: get_opt_u64(&mut c)?,
            finished_at_ns: get_opt_u64(&mut c)?,
            lease: if c.u8()? != 0 {
                Some((get_name(&mut c)?, c.u64()?))
            } else {
                None
            },
            jdl: get_opt_str(&mut c)?,
            runtime_ns: get_opt_u64(&mut c)?,
            fail_reason: get_opt_str(&mut c)?,
        };
        state.jobs.insert(id, job);
    }

    let n_agents = c.u32()?;
    for _ in 0..n_agents {
        let id = c.u64()?;
        let agent = ReplayAgent {
            site: names.get(&mut c)?,
            alive: c.bool()?,
            ready: c.bool()?,
        };
        state.agents.insert(id, agent);
    }

    let n_slots = c.u32()?;
    for _ in 0..n_slots {
        let machine = get_name(&mut c)?;
        let interactive = c.u64()?.cast_signed();
        let batch = c.u64()?.cast_signed();
        state.slots.insert(machine, SlotUse { interactive, batch });
    }

    let n_spools = c.u32()?;
    for _ in 0..n_spools {
        let stream = get_name(&mut c)?;
        let appended = c.u64()?;
        let acked = c.u64()?;
        state.spools.insert(stream, SpoolMark { appended, acked });
    }

    let n_health = c.u32()?;
    for _ in 0..n_health {
        let site = get_name(&mut c)?;
        let health = match c.u8()? {
            0 => SiteHealth::Suspect,
            1 => SiteHealth::Dead,
            other => return Err(CodecError::BadTag(other)),
        };
        state.site_health.insert(site, health);
    }

    if !c.is_empty() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_sim::SimTime;

    fn te(seq: u64, event: Event) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(seq),
            seq,
            event,
        }
    }

    fn little_stream() -> Vec<TimedEvent> {
        vec![
            te(
                0,
                Event::JobSubmitted {
                    job: 0,
                    user: "alice".into(),
                    interactive: true,
                },
            ),
            te(
                1,
                Event::JobAd {
                    job: 0,
                    jdl: "Executable = \"i\";".into(),
                    runtime_ns: 1,
                },
            ),
            te(
                2,
                Event::LeaseGranted {
                    job: 0,
                    target: "site:a".into(),
                    until_ns: 99_000_000_000,
                },
            ),
            te(
                3,
                Event::JobDispatched {
                    job: 0,
                    target: "site:a".into(),
                    backend: "sim-lrms".into(),
                },
            ),
            te(4, Event::JobStarted { job: 0 }),
            te(
                5,
                Event::JobSubmitted {
                    job: 1,
                    user: "bob".into(),
                    interactive: false,
                },
            ),
            te(6, Event::JobQueued { job: 1 }),
            te(
                7,
                Event::AgentDeployed {
                    agent: 0,
                    site: "a".into(),
                },
            ),
            te(8, Event::AgentReady { agent: 0 }),
            te(
                9,
                Event::SpoolAppend {
                    stream: "stdout".into(),
                    seq: 5,
                },
            ),
            te(
                10,
                Event::SpoolAck {
                    stream: "stdout".into(),
                    seq: 3,
                },
            ),
            te(11, Event::JobFinished { job: 0 }),
        ]
    }

    #[test]
    fn fold_reconstructs_the_table() {
        let s = ReplayState::from_events(&little_stream());
        assert_eq!(s.jobs.len(), 2);
        let j0 = &s.jobs[&0];
        assert_eq!(j0.phase, Phase::Finished);
        assert!(j0.started && !j0.queued && j0.lease.is_none());
        assert_eq!(j0.jdl.as_deref(), Some("Executable = \"i\";"));
        let j1 = &s.jobs[&1];
        assert_eq!(j1.phase, Phase::Queued);
        assert!(j1.queued);
        assert!(s.agents[&0].alive && s.agents[&0].ready);
        assert_eq!(s.spools["stdout"].appended, 5);
        assert_eq!(s.spools["stdout"].acked, 3);
        assert_eq!(s.last_seq, Some(11));
    }

    #[test]
    fn refolding_the_stream_is_a_fixpoint() {
        let events = little_stream();
        let once = ReplayState::from_events(&events);
        let mut twice = once.clone();
        for e in &events {
            twice.apply(e);
        }
        assert_eq!(once.jobs, twice.jobs, "job table must be idempotent");
        assert_eq!(once.agents, twice.agents);
        assert_eq!(once.spools, twice.spools);
    }

    #[test]
    fn terminal_phases_never_downgrade() {
        let mut s = ReplayState::default();
        s.apply(&te(0, Event::JobFinished { job: 0 }));
        s.apply(&te(1, Event::JobStarted { job: 0 }));
        s.apply(&te(2, Event::JobQueued { job: 0 }));
        assert_eq!(s.jobs[&0].phase, Phase::Finished);
        assert!(!s.jobs[&0].queued);
    }

    #[test]
    fn site_obituaries_fold_into_the_health_registry() {
        let mut s = ReplayState::default();
        s.apply(&te(
            0,
            Event::SiteSuspect {
                site: "a".into(),
                missed_refreshes: 2,
                failed_queries: 0,
            },
        ));
        s.apply(&te(
            1,
            Event::SiteDead {
                site: "b".into(),
                in_flight: 3,
            },
        ));
        assert_eq!(s.site_health["a"], SiteHealth::Suspect);
        assert_eq!(s.site_health["b"], SiteHealth::Dead);
        // Dead supersedes suspect; rejoin clears.
        s.apply(&te(
            2,
            Event::SiteDead {
                site: "a".into(),
                in_flight: 0,
            },
        ));
        assert_eq!(s.site_health["a"], SiteHealth::Dead);
        s.apply(&te(
            3,
            Event::SiteRejoin {
                site: "a".into(),
                down_ns: 7,
            },
        ));
        assert!(!s.site_health.contains_key("a"));
        // Idempotent: refolding the surviving entry changes nothing.
        let before = s.clone();
        s.apply(&te(
            1,
            Event::SiteDead {
                site: "b".into(),
                in_flight: 3,
            },
        ));
        assert_eq!(s.site_health, before.site_health);
    }

    #[test]
    fn state_codec_round_trips() {
        let mut s = ReplayState::from_events(&little_stream());
        s.site_health.insert("a".into(), SiteHealth::Suspect);
        s.site_health.insert("b".into(), SiteHealth::Dead);
        let again = s.jobs[&0].clone();
        s.jobs.insert(2, again);
        let blob = encode_state(&s);
        let back = decode_state(&blob).unwrap();
        assert_eq!(back, s);
        // Two jobs of one user share the decoded name.
        assert!(Arc::ptr_eq(&back.jobs[&0].user, &back.jobs[&2].user));
    }

    #[test]
    fn state_codec_rejects_truncation_and_bad_version() {
        let s = ReplayState::from_events(&little_stream());
        let blob = encode_state(&s);
        for cut in 0..blob.len() {
            assert!(decode_state(&blob[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = blob;
        bad[0] = 99;
        assert_eq!(decode_state(&bad), Err(CodecError::BadVersion(99)));
    }

    #[test]
    fn every_phase_tag_round_trips_and_no_other_decodes() {
        for (t, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(phase_tag(phase)), t, "{phase:?}");
            assert_eq!(phase_from_tag(phase_tag(phase)), Ok(phase));
        }
        for t in 10..=u8::MAX {
            assert_eq!(phase_from_tag(t), Err(CodecError::BadTag(t)));
        }
    }

    #[test]
    fn buckets_partition_the_phases() {
        assert_eq!(Phase::Submitted.bucket(), Bucket::Pending);
        assert_eq!(Phase::Leased.bucket(), Bucket::Pending);
        assert_eq!(Phase::Queued.bucket(), Bucket::Queued);
        assert_eq!(Phase::Running.bucket(), Bucket::Running);
        assert_eq!(Phase::Finished.bucket(), Bucket::Done);
        assert_eq!(Phase::Cancelled.bucket(), Bucket::Errored);
        assert_eq!(Phase::Rejected.bucket(), Bucket::Errored);
    }
}
