//! Whole-stream protocol invariants.
//!
//! These encode cross-layer rules no single component can check for
//! itself: the broker grants leases, agents dispatch, the fair-share
//! engine restores priorities, and only the merged event stream shows
//! whether the handshakes actually happened in order.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::event::{Event, TimedEvent};
use crate::replay::{Bucket, ReplayJob, ReplayState};

/// Checks the event stream (oldest first) against the broker-stack
/// protocol invariants; returns one human-readable line per violation
/// (empty = clean).
///
/// 1. **Dispatch after lease** — every `JobDispatched` is preceded by a
///    `LeaseGranted` for the same job; the broker never ships a job
///    without first claiming a target.
/// 2. **Single terminal state** — no job sees more than one of
///    `JobFinished` / `JobFailed` / `JobCancelled`.
///
/// 2b (companion to rule 2): **terminal is final** — after a job's terminal
/// event (`JobFinished`, `JobFailed`, `JobCancelled` or `JdlRejected`) no
/// `LeaseGranted`, `JobDispatched` or `JobStarted` names it; a copy the job
/// has left behind must not act for it. (Rule 5 reports a lease or dispatch
/// after `JdlRejected` in its own words.)
///
/// 3. **Ack within append** — per stream, a `SpoolAck` sequence never
///    exceeds the highest `SpoolAppend` seen, so the reliable console
///    never acknowledges data that was never written.
/// 4. **Priority restored** — for every `BatchYielded` whose interactive
///    job later departs (reaches a terminal state inside the stream),
///    a matching `BatchRestored` / `AgentBatchFinished` / `AgentDied`
///    follows the yield: an interactive departure always hands the CPU
///    back to the batch job it demoted.
/// 5. **Rejection is final** — a job rejected by the submit-time JDL
///    analyzer (`JdlRejected`, a terminal state like the other three)
///    never acquires a lease or dispatches anywhere in the stream; the
///    broker must not run matchmaking on an ad it refused.
///
/// 5b (companion to rule 5): **no traffic to the sick** — once a site is
/// declared `SiteSuspect` or `SiteDead`, no `LeaseGranted` /
/// `JobDispatched` whose target is `site:<name>` may land on it until a
/// `SiteRejoin` clears the obituary; the broker must route around
/// membership it has itself declared unhealthy.
///
/// The caller should pass a snapshot whose ring has not dropped events
/// ([`crate::EventLog::dropped`] == 0); on a truncated stream the checker
/// can report spurious lease/yield violations.
pub fn check_invariants(events: &[TimedEvent]) -> Vec<String> {
    let mut violations = Vec::new();

    // 1 + 2 + 2b + 5 + 5b: single forward pass.
    let mut leased: HashSet<u64> = HashSet::new();
    let mut terminal: HashMap<u64, &'static str> = HashMap::new();
    let mut rejected: HashSet<u64> = HashSet::new();
    // 5b: sites currently under an obituary (Suspect or Dead, not yet
    // rejoined), mapped to the state that put them there.
    let mut unhealthy: HashMap<&str, &'static str> = HashMap::new();
    // 3: per-stream high-water marks.
    let mut appended: HashMap<&str, u64> = HashMap::new();
    for ev in events {
        // 2b. A lease or dispatch after `JdlRejected` is rule 5's to report.
        let late = match &ev.event {
            Event::LeaseGranted { job, .. } | Event::JobDispatched { job, .. }
                if !rejected.contains(job) =>
            {
                Some(*job)
            }
            Event::JobStarted { job } => Some(*job),
            _ => None,
        };
        if let Some((job, first)) =
            late.and_then(|job| terminal.get(&job).map(|first| (job, first)))
        {
            violations.push(format!(
                "job {job}: {} at {}s after its terminal {first}",
                ev.event.kind(),
                ev.at.as_secs_f64()
            ));
        }
        match &ev.event {
            Event::LeaseGranted { job, target, .. } => {
                leased.insert(*job);
                if rejected.contains(job) {
                    violations.push(format!(
                        "job {job} granted a lease at {}s after JdlRejected",
                        ev.at.as_secs_f64()
                    ));
                }
                if let Some(state) = target
                    .strip_prefix("site:")
                    .and_then(|site| unhealthy.get(site))
                {
                    violations.push(format!(
                        "job {job} granted a lease on {target} at {}s while the site is {state}",
                        ev.at.as_secs_f64()
                    ));
                }
            }
            Event::JobDispatched { job, target, .. } => {
                if !leased.contains(job) {
                    violations.push(format!(
                        "job {job} dispatched to {target} at {}s without a prior lease",
                        ev.at.as_secs_f64()
                    ));
                }
                if rejected.contains(job) {
                    violations.push(format!(
                        "job {job} dispatched to {target} at {}s after JdlRejected",
                        ev.at.as_secs_f64()
                    ));
                }
                if let Some(state) = target
                    .strip_prefix("site:")
                    .and_then(|site| unhealthy.get(site))
                {
                    violations.push(format!(
                        "job {job} dispatched to {target} at {}s while the site is {state}",
                        ev.at.as_secs_f64()
                    ));
                }
            }
            Event::SiteSuspect { site, .. } => {
                unhealthy.insert(&**site, "SiteSuspect");
            }
            Event::SiteDead { site, .. } => {
                unhealthy.insert(&**site, "SiteDead");
            }
            Event::SiteRejoin { site, .. } => {
                unhealthy.remove(&**site);
            }
            Event::JdlRejected { job, .. } => {
                if leased.contains(job) {
                    violations.push(format!(
                        "job {job} rejected at {}s after already holding a lease",
                        ev.at.as_secs_f64()
                    ));
                }
                rejected.insert(*job);
                let kind = ev.event.kind();
                if let Some(first) = terminal.insert(*job, kind) {
                    violations.push(format!(
                        "job {job} reached a second terminal state {kind} at {}s (already {first})",
                        ev.at.as_secs_f64()
                    ));
                }
            }
            Event::JobFinished { job }
            | Event::JobFailed { job, .. }
            | Event::JobCancelled { job } => {
                let kind = ev.event.kind();
                if let Some(first) = terminal.insert(*job, kind) {
                    violations.push(format!(
                        "job {job} reached a second terminal state {kind} at {}s (already {first})",
                        ev.at.as_secs_f64()
                    ));
                }
            }
            Event::SpoolAppend { stream, seq } => {
                let high = appended.entry(&**stream).or_insert(0);
                *high = (*high).max(*seq);
            }
            Event::SpoolAck { stream, seq } => {
                let high = appended.get(&**stream).copied().unwrap_or(0);
                if *seq > high {
                    violations.push(format!(
                        "stream {stream}: ack of seq {seq} at {}s exceeds highest append {high}",
                        ev.at.as_secs_f64()
                    ));
                }
            }
            _ => {}
        }
    }

    // 4: for each yield, look ahead for the interactive departure and the
    // matching restore. Yield counts are tiny next to the stream length,
    // so the quadratic look-ahead is fine.
    for (i, ev) in events.iter().enumerate() {
        let Event::BatchYielded { agent, job, .. } = &ev.event else {
            continue;
        };
        let departed = events[i + 1..].iter().any(|later| {
            matches!(
                &later.event,
                Event::JobFinished { job: j }
                | Event::JobFailed { job: j, .. }
                | Event::JobCancelled { job: j } if j == job
            )
        });
        if !departed {
            continue; // interactive job still running at snapshot time
        }
        let restored = events[i + 1..].iter().any(|later| match &later.event {
            Event::BatchRestored { agent: a, .. }
            | Event::AgentBatchFinished { agent: a }
            | Event::AgentDied { agent: a, .. } => a == agent,
            _ => false,
        });
        if !restored {
            violations.push(format!(
                "agent {agent}: batch priority never restored after interactive job {job} \
                 (yielded at {}s) departed",
                ev.at.as_secs_f64()
            ));
        }
    }

    violations
}

/// One job as the rebuilt broker holds it: the four fields rule 6b
/// compares with the stream's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJob {
    /// Coarse disposition bucket.
    pub bucket: Bucket,
    /// Resubmission attempts.
    pub attempts: u32,
    /// Submitting user.
    pub user: Arc<str>,
    /// Whether the job ever started computing.
    pub started: bool,
}

impl From<&ReplayJob> for RecoveredJob {
    fn from(job: &ReplayJob) -> Self {
        RecoveredJob {
            bucket: job.phase.bucket(),
            attempts: job.attempts,
            user: Arc::clone(&job.user),
            started: job.started,
        }
    }
}

/// What [`check_recovery_invariants`] reads of the rebuilt side, one
/// lookup at a time, so a rebuilt broker is checked in place instead of
/// being projected into a second [`ReplayState`]. A `ReplayState` is a view
/// of itself.
pub trait RecoveredView {
    /// Job `id`, if the rebuilt side holds it.
    fn job(&self, id: u64) -> Option<RecoveredJob>;
    /// How many jobs the rebuilt side holds.
    fn job_count(&self) -> usize;
    /// Every job id the rebuilt side holds, in id order. Read only when it
    /// holds a job the stream lacks.
    fn job_ids(&self) -> Vec<u64>;
    /// Whether agent `id` is alive.
    fn agent_alive(&self, id: u64) -> bool;
    /// `stream`'s spool ack watermark; 0 for a stream it does not know.
    fn acked(&self, stream: &str) -> u64;
    /// The jobs on the broker queue that hold a lease still live at
    /// `crash_at_ns`, in id order.
    fn leased_and_queued(&self, crash_at_ns: u64) -> Vec<u64>;
}

impl RecoveredView for ReplayState {
    fn job(&self, id: u64) -> Option<RecoveredJob> {
        self.jobs.get(&id).map(RecoveredJob::from)
    }

    fn job_count(&self) -> usize {
        self.jobs.len()
    }

    fn job_ids(&self) -> Vec<u64> {
        self.jobs.keys().copied().collect()
    }

    fn agent_alive(&self, id: u64) -> bool {
        self.agents.get(&id).is_some_and(|a| a.alive)
    }

    fn acked(&self, stream: &str) -> u64 {
        self.spools.get(stream).map_or(0, |m| m.acked)
    }

    fn leased_and_queued(&self, crash_at_ns: u64) -> Vec<u64> {
        self.jobs
            .iter()
            .filter(|(_, job)| {
                job.queued
                    && job
                        .lease
                        .as_ref()
                        .is_some_and(|(_, until_ns)| *until_ns > crash_at_ns)
            })
            .map(|(id, _)| *id)
            .collect()
    }
}

/// Checks the three crash-recovery invariants over the journal tail and
/// the two state views it produces: `expected` is the pure event-stream
/// fold (snapshot + tail, see [`ReplayState::from_events`]) and
/// `recovered` is what the reconstructed broker actually holds, read in
/// place after state rebuild, before re-arm (`CrossBroker::recover` passes
/// the rebuilt broker itself). Returns one line per violation (empty =
/// clean).
///
/// 6. **Fixpoint** — the recovered state is a fixpoint of the event
///    stream: (a) re-applying the tail events to `expected` changes
///    nothing (the fold is idempotent on its comparison core), and (b)
///    `recovered` agrees with `expected` job-for-job on disposition
///    bucket, resubmission attempts, user and started-flag, and
///    stream-for-stream on the spool ack watermark. Agents alive in the
///    stream must not resurrect in `recovered` without a fresh
///    deployment — the crash killed them.
/// 7. **No leased-and-queued job** — in both views, no job sits on the
///    broker queue while holding a lease still live at crash time.
/// 8. **Spool acks never regress** — every stream's recovered ack
///    watermark is at least the stream's.
///
/// Rule 6b looks each of `expected`'s jobs up in `recovered` once; the
/// jobs only `recovered` holds are reported after every per-job line, in
/// id order.
pub fn check_recovery_invariants(
    tail: &[TimedEvent],
    expected: &ReplayState,
    recovered: &impl RecoveredView,
) -> Vec<String> {
    let mut violations = Vec::new();
    let crash_at_ns = expected.last_at_ns;
    check_fold_is_idempotent(tail, expected, &mut violations);

    // 6b: the broker's reconstruction matches the stream.
    let mut found = 0;
    for (id, want) in &expected.jobs {
        let Some(got) = recovered.job(*id) else {
            violations.push(format!("job {id} in the stream is missing after recovery"));
            continue;
        };
        found += 1;
        compare_job(*id, &got, want, &mut violations);
    }
    if recovered.job_count() > found {
        violations.extend(
            recovered
                .job_ids()
                .into_iter()
                .filter(|id| !expected.jobs.contains_key(id))
                .map(|id| format!("job {id} appeared from nowhere during recovery")),
        );
    }
    for (id, agent) in &expected.agents {
        if agent.alive && recovered.agent_alive(*id) {
            violations.push(format!(
                "agent {id} resurrected across the crash without redeployment"
            ));
        }
    }

    // 7: leased ∧ queued is contradictory in either view.
    check_leased_and_queued("stream", expected, crash_at_ns, &mut violations);
    check_leased_and_queued("recovered", recovered, crash_at_ns, &mut violations);

    // 8: ack watermarks are durable.
    for (stream, want) in &expected.spools {
        let got = recovered.acked(stream);
        if got < want.acked {
            violations.push(format!(
                "stream {stream}: ack watermark regressed across recovery ({got} < {})",
                want.acked
            ));
        }
    }

    violations
}

/// The recovery rules that read the journal alone, for a check with no
/// rebuilt broker to compare (`cgrun recover`): rule 6a, and rule 7 on the
/// stream's view. The same code as in [`check_recovery_invariants`], whose
/// output holds these lines in the same order.
pub fn check_stream_recovery_invariants(
    tail: &[TimedEvent],
    expected: &ReplayState,
) -> Vec<String> {
    let mut violations = Vec::new();
    check_fold_is_idempotent(tail, expected, &mut violations);
    check_leased_and_queued("stream", expected, expected.last_at_ns, &mut violations);
    violations
}

/// Rule 6a: idempotence of the fold on the comparison core. A job arm of
/// `apply` touches only the job its event names, so the refold starts from
/// copies of just the jobs the tail names (the keys of the tail's own
/// fold); every other entry would come out of the refold unchanged. A
/// named job `expected` lacks is made by the refold and so differs.
fn check_fold_is_idempotent(
    tail: &[TimedEvent],
    expected: &ReplayState,
    violations: &mut Vec<String>,
) {
    let mut refolded = ReplayState {
        agents: expected.agents.clone(),
        spools: expected.spools.clone(),
        site_health: expected.site_health.clone(),
        ..ReplayState::default()
    };
    for id in ReplayState::from_events(tail).jobs.into_keys() {
        if let Some(job) = expected.jobs.get(&id) {
            refolded.jobs.insert(id, job.clone());
        }
    }
    for ev in tail {
        refolded.apply(ev);
    }
    if refolded
        .jobs
        .iter()
        .any(|(id, job)| expected.jobs.get(id) != Some(job))
    {
        violations.push("replay fold is not idempotent over the job table".into());
    }
    if refolded.agents != expected.agents {
        violations.push("replay fold is not idempotent over the agent registry".into());
    }
    if refolded.spools != expected.spools {
        violations.push("replay fold is not idempotent over the spool watermarks".into());
    }
    if refolded.site_health != expected.site_health {
        violations.push("replay fold is not idempotent over the site-health registry".into());
    }
}

/// Rule 7 for one view, labelled `label` in its lines.
fn check_leased_and_queued(
    label: &str,
    view: &impl RecoveredView,
    crash_at_ns: u64,
    violations: &mut Vec<String>,
) {
    for id in view.leased_and_queued(crash_at_ns) {
        violations.push(format!(
            "{label}: job {id} is on the broker queue while holding a live lease"
        ));
    }
}

/// Rule 6b for one job present in both views.
fn compare_job(id: u64, got: &RecoveredJob, want: &ReplayJob, violations: &mut Vec<String>) {
    if got.bucket != want.phase.bucket() {
        violations.push(format!(
            "job {id} recovered into bucket {:?}, stream says {:?}",
            got.bucket,
            want.phase.bucket()
        ));
    }
    if got.attempts != want.attempts {
        violations.push(format!(
            "job {id} recovered with {} resubmission attempts, stream says {}",
            got.attempts, want.attempts
        ));
    }
    if got.user != want.user {
        violations.push(format!(
            "job {id} recovered under user {:?}, stream says {:?}",
            got.user, want.user
        ));
    }
    if got.started != want.started {
        violations.push(format!(
            "job {id} recovered with started={}, stream says {}",
            got.started, want.started
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_sim::SimTime;

    fn stream(events: Vec<Event>) -> Vec<TimedEvent> {
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TimedEvent {
                at: SimTime::from_secs(i as u64),
                seq: i as u64,
                event,
            })
            .collect()
    }

    fn lease(job: u64) -> Event {
        Event::LeaseGranted {
            job,
            target: "agent:0".into(),
            until_ns: 0,
        }
    }

    fn dispatch(job: u64) -> Event {
        Event::JobDispatched {
            job,
            target: "agent:0".into(),
            backend: "sim-lrms".into(),
        }
    }

    #[test]
    fn clean_stream_passes() {
        let s = stream(vec![
            Event::JobSubmitted {
                job: 1,
                user: "alice".into(),
                interactive: true,
            },
            lease(1),
            dispatch(1),
            Event::JobStarted { job: 1 },
            Event::JobFinished { job: 1 },
        ]);
        assert!(check_invariants(&s).is_empty());
    }

    #[test]
    fn dispatch_without_lease_is_flagged() {
        let s = stream(vec![dispatch(1)]);
        let v = check_invariants(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("without a prior lease"), "{v:?}");
    }

    #[test]
    fn lease_after_dispatch_does_not_count() {
        let s = stream(vec![dispatch(1), lease(1)]);
        assert_eq!(check_invariants(&s).len(), 1);
    }

    #[test]
    fn double_terminal_is_flagged() {
        let s = stream(vec![
            Event::JobFinished { job: 2 },
            Event::JobFailed {
                job: 2,
                reason: "late failure".into(),
            },
        ]);
        let v = check_invariants(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("second terminal state"), "{v:?}");
    }

    #[test]
    fn terminal_is_final() {
        // The stream of a job whose copy finished while its reliable
        // console was still retrying, and whose console then connected.
        let s = stream(vec![
            lease(3),
            dispatch(3),
            Event::JobFinished { job: 3 },
            Event::ConsoleConnected { job: 3 },
            Event::ConsoleReady { job: 3 },
            Event::JobStarted { job: 3 },
        ]);
        let v = check_invariants(&s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("JobStarted at 5s after its terminal JobFinished"),
            "{v:?}"
        );
        // A lease and a dispatch after a failure; another job is unaffected.
        let s = stream(vec![
            Event::JobFailed {
                job: 3,
                reason: "killed at site".into(),
            },
            lease(3),
            dispatch(3),
            lease(4),
            dispatch(4),
        ]);
        let v = check_invariants(&s);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(
            v.iter()
                .all(|m| m.contains("job 3") && m.contains("JobFailed")),
            "{v:?}"
        );
        // After a cancellation, and after a rejection: a start is flagged by
        // this rule, a lease by rule 5 alone.
        for (end, expect) in [
            (
                Event::JobCancelled { job: 5 },
                "after its terminal JobCancelled",
            ),
            (
                Event::JdlRejected { job: 5, errors: 1 },
                "after its terminal JdlRejected",
            ),
        ] {
            let v = check_invariants(&stream(vec![end.clone(), Event::JobStarted { job: 5 }]));
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].contains(expect), "{v:?}");
        }
        let v = check_invariants(&stream(vec![
            Event::JdlRejected { job: 5, errors: 1 },
            lease(5),
        ]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("after JdlRejected"), "{v:?}");
    }

    #[test]
    fn ack_beyond_append_is_flagged_per_stream() {
        let s = stream(vec![
            Event::SpoolAppend {
                stream: "a".into(),
                seq: 5,
            },
            Event::SpoolAck {
                stream: "a".into(),
                seq: 5,
            },
            Event::SpoolAck {
                stream: "b".into(),
                seq: 1,
            },
        ]);
        let v = check_invariants(&s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("stream b"), "{v:?}");
    }

    #[test]
    fn rejected_job_must_not_lease_or_dispatch() {
        let rejected = Event::JdlRejected { job: 7, errors: 2 };
        // A rejection with no later activity is clean.
        let s = stream(vec![
            Event::JobSubmitted {
                job: 7,
                user: "alice".into(),
                interactive: false,
            },
            Event::JdlDiagnostic {
                job: 7,
                severity: "error".into(),
                code: "E108".into(),
                message: "Requirements can never match".into(),
            },
            rejected.clone(),
        ]);
        assert!(check_invariants(&s).is_empty());
        // Lease after rejection: flagged.
        let s = stream(vec![rejected.clone(), lease(7), dispatch(7)]);
        let v = check_invariants(&s);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("after JdlRejected"), "{v:?}");
        // Lease before rejection: flagged too.
        let s = stream(vec![lease(7), rejected.clone()]);
        let v = check_invariants(&s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("already holding a lease"), "{v:?}");
        // Rejection is terminal: a later JobFinished double-terminates.
        let s = stream(vec![rejected, Event::JobFinished { job: 7 }]);
        let v = check_invariants(&s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("second terminal state"), "{v:?}");
    }

    #[test]
    fn traffic_to_a_suspect_or_dead_site_is_flagged_until_rejoin() {
        let site_lease = |job| Event::LeaseGranted {
            job,
            target: "site:cesga".into(),
            until_ns: 0,
        };
        let site_dispatch = |job| Event::JobDispatched {
            job,
            target: "site:cesga".into(),
            backend: "sim-lrms".into(),
        };
        let suspect = Event::SiteSuspect {
            site: "cesga".into(),
            missed_refreshes: 2,
            failed_queries: 1,
        };
        let dead = Event::SiteDead {
            site: "cesga".into(),
            in_flight: 0,
        };
        let rejoin = Event::SiteRejoin {
            site: "cesga".into(),
            down_ns: 90_000_000_000,
        };
        // Lease before the obituary: clean.
        let s = stream(vec![site_lease(1), site_dispatch(1), suspect.clone()]);
        assert!(check_invariants(&s).is_empty());
        // Lease + dispatch while suspect: both flagged.
        let s = stream(vec![suspect.clone(), site_lease(1), site_dispatch(1)]);
        let v = check_invariants(&s);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("SiteSuspect"), "{v:?}");
        // Dead supersedes suspect in the message.
        let s = stream(vec![suspect.clone(), dead, site_lease(2)]);
        let v = check_invariants(&s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("SiteDead"), "{v:?}");
        // Rejoin clears the obituary.
        let s = stream(vec![suspect, rejoin, site_lease(3), site_dispatch(3)]);
        assert!(check_invariants(&s).is_empty());
        // Other sites are unaffected.
        let s = stream(vec![
            Event::SiteDead {
                site: "ifca".into(),
                in_flight: 3,
            },
            site_lease(4),
        ]);
        assert!(check_invariants(&s).is_empty());
    }

    #[test]
    fn yield_without_restore_is_flagged_only_after_departure() {
        let yielded = Event::BatchYielded {
            agent: 3,
            job: 9,
            performance_loss: 20,
        };
        // Interactive still running: no violation.
        let s = stream(vec![yielded.clone()]);
        assert!(check_invariants(&s).is_empty());
        // Departed without restore: violation.
        let s = stream(vec![yielded.clone(), Event::JobFinished { job: 9 }]);
        assert_eq!(check_invariants(&s).len(), 1);
        // Restored before departure: clean.
        let s = stream(vec![
            yielded.clone(),
            Event::BatchRestored { agent: 3, job: 9 },
            Event::JobFinished { job: 9 },
        ]);
        assert!(check_invariants(&s).is_empty());
        // Batch finished while yielded also closes the yield.
        let s = stream(vec![
            yielded.clone(),
            Event::AgentBatchFinished { agent: 3 },
            Event::JobFinished { job: 9 },
        ]);
        assert!(check_invariants(&s).is_empty());
        // Agent death closes it too.
        let s = stream(vec![
            yielded,
            Event::AgentDied {
                agent: 3,
                reason: "walltime exceeded".into(),
                voluntary: false,
            },
            Event::JobFailed {
                job: 9,
                reason: "agent died".into(),
            },
        ]);
        assert!(check_invariants(&s).is_empty());
    }

    fn recovery_stream() -> Vec<TimedEvent> {
        stream(vec![
            Event::JobSubmitted {
                job: 0,
                user: "alice".into(),
                interactive: true,
            },
            Event::LeaseGranted {
                job: 0,
                target: "site:a".into(),
                until_ns: u64::MAX,
            },
            Event::JobSubmitted {
                job: 1,
                user: "bob".into(),
                interactive: false,
            },
            Event::JobQueued { job: 1 },
            Event::SpoolAppend {
                stream: "stdout".into(),
                seq: 9,
            },
            Event::SpoolAck {
                stream: "stdout".into(),
                seq: 7,
            },
        ])
    }

    #[test]
    fn faithful_recovery_passes_the_new_rules() {
        let tail = recovery_stream();
        let expected = ReplayState::from_events(&tail);
        let recovered = expected.clone();
        let v = check_recovery_invariants(&tail, &expected, &recovered);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn bucket_drift_and_lost_jobs_violate_the_fixpoint_rule() {
        let tail = recovery_stream();
        let expected = ReplayState::from_events(&tail);
        // Bucket drift: job 0 "recovered" as finished.
        let mut drifted = expected.clone();
        drifted.jobs.get_mut(&0).unwrap().phase = crate::replay::Phase::Finished;
        let v = check_recovery_invariants(&tail, &expected, &drifted);
        assert!(v.iter().any(|m| m.contains("bucket")), "{v:?}");
        // Lost job: job 1 missing entirely.
        let mut lost = expected.clone();
        lost.jobs.remove(&1);
        let v = check_recovery_invariants(&tail, &expected, &lost);
        assert!(
            v.iter().any(|m| m.contains("missing after recovery")),
            "{v:?}"
        );
    }

    #[test]
    fn leased_and_queued_is_contradictory() {
        let mut tail = recovery_stream();
        // Queue job 0 while its (unexpired) lease is outstanding.
        tail.push(TimedEvent {
            at: SimTime::from_secs(90),
            seq: tail.len() as u64,
            event: Event::JobQueued { job: 0 },
        });
        let expected = ReplayState::from_events(&tail);
        let recovered = expected.clone();
        let v = check_recovery_invariants(&tail, &expected, &recovered);
        assert!(
            v.iter().any(|m| m.contains("live lease")),
            "both views must flag leased∧queued: {v:?}"
        );
    }

    #[test]
    fn spool_ack_regression_is_flagged() {
        let tail = recovery_stream();
        let expected = ReplayState::from_events(&tail);
        let mut regressed = expected.clone();
        regressed.spools.get_mut("stdout").unwrap().acked = 3;
        let v = check_recovery_invariants(&tail, &expected, &regressed);
        assert!(v.iter().any(|m| m.contains("regressed")), "{v:?}");
    }

    #[test]
    fn resurrected_agents_are_flagged() {
        let tail = stream(vec![Event::AgentDeployed {
            agent: 4,
            site: "a".into(),
        }]);
        let expected = ReplayState::from_events(&tail);
        // A faithful recovery reports the agent dead (the crash killed it).
        let mut honest = expected.clone();
        honest.agents.get_mut(&4).unwrap().alive = false;
        assert!(check_recovery_invariants(&tail, &expected, &honest).is_empty());
        // Claiming it alive without a fresh deployment is a violation.
        let v = check_recovery_invariants(&tail, &expected, &expected.clone());
        assert!(v.iter().any(|m| m.contains("resurrected")), "{v:?}");
    }

    /// The recovery check as it was before its refold was scoped to the
    /// tail's jobs: a whole-state clone refolded and compared table for
    /// table, then one lookup per job each way. Kept as the oracle.
    fn full_clone_check(
        tail: &[TimedEvent],
        expected: &ReplayState,
        recovered: &ReplayState,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        let crash_at_ns = expected.last_at_ns;

        let mut refolded = expected.clone();
        for ev in tail {
            refolded.apply(ev);
        }
        if refolded.jobs != expected.jobs {
            violations.push("replay fold is not idempotent over the job table".into());
        }
        if refolded.agents != expected.agents {
            violations.push("replay fold is not idempotent over the agent registry".into());
        }
        if refolded.spools != expected.spools {
            violations.push("replay fold is not idempotent over the spool watermarks".into());
        }
        if refolded.site_health != expected.site_health {
            violations.push("replay fold is not idempotent over the site-health registry".into());
        }

        for (id, want) in &expected.jobs {
            let Some(got) = recovered.jobs.get(id) else {
                violations.push(format!("job {id} in the stream is missing after recovery"));
                continue;
            };
            compare_job(*id, &got.into(), want, &mut violations);
        }
        for id in recovered.jobs.keys() {
            if !expected.jobs.contains_key(id) {
                violations.push(format!("job {id} appeared from nowhere during recovery"));
            }
        }
        for (id, agent) in &expected.agents {
            if agent.alive && recovered.agents.get(id).is_some_and(|a| a.alive) {
                violations.push(format!(
                    "agent {id} resurrected across the crash without redeployment"
                ));
            }
        }

        for (label, view) in [("stream", expected), ("recovered", recovered)] {
            for (id, job) in &view.jobs {
                let lease_live = job
                    .lease
                    .as_ref()
                    .is_some_and(|(_, until_ns)| *until_ns > crash_at_ns);
                if job.queued && lease_live {
                    violations.push(format!(
                        "{label}: job {id} is on the broker queue while holding a live lease"
                    ));
                }
            }
        }

        for (stream, want) in &expected.spools {
            let got = recovered.spools.get(stream).map_or(0, |m| m.acked);
            if got < want.acked {
                violations.push(format!(
                    "stream {stream}: ack watermark regressed across recovery ({got} < {})",
                    want.acked
                ));
            }
        }

        violations
    }

    /// Every `(tail, expected, recovered)` the recovery tests above use, and
    /// the cases the scoped check must get exactly right: a drifted, a lost
    /// and an extra job (alone and together, so that the merge walk
    /// interleaves them) and hand-edited `expected` states the tail does
    /// not refold to.
    fn recovery_cases() -> Vec<(&'static str, Vec<TimedEvent>, ReplayState, ReplayState)> {
        let mut cases = Vec::new();
        let tail = recovery_stream();
        let expected = ReplayState::from_events(&tail);
        let mut add = |name, tail: &[TimedEvent], expected: &ReplayState, recovered| {
            cases.push((name, tail.to_vec(), expected.clone(), recovered));
        };

        add("faithful", &tail, &expected, expected.clone());
        let mut drifted = expected.clone();
        drifted.jobs.get_mut(&0).unwrap().phase = crate::replay::Phase::Finished;
        add("drifted", &tail, &expected, drifted.clone());
        let mut lost = expected.clone();
        lost.jobs.remove(&1);
        add("lost", &tail, &expected, lost);
        let mut extra = expected.clone();
        extra.jobs.insert(7, expected.jobs[&1].clone());
        add("extra", &tail, &expected, extra);
        // Job 9, which the tail never names, puts an extra id (5) between
        // two jobs both views hold: its line still comes last.
        let mut wide = expected.clone();
        wide.jobs.insert(9, expected.jobs[&1].clone());
        let mut mixed = drifted;
        mixed.jobs.remove(&1);
        for id in [5, 9, 1_000] {
            mixed.jobs.insert(id, expected.jobs[&0].clone());
        }
        let job = mixed.jobs.get_mut(&0).unwrap();
        job.attempts = 3;
        job.user = "mallory".into();
        job.started = true;
        add("drifted, lost and extra", &tail, &wide, mixed);
        let mut regressed = expected.clone();
        regressed.spools.get_mut("stdout").unwrap().acked = 3;
        add("ack regressed", &tail, &expected, regressed);

        let mut queued_tail = recovery_stream();
        queued_tail.push(TimedEvent {
            at: SimTime::from_secs(90),
            seq: queued_tail.len() as u64,
            event: Event::JobQueued { job: 0 },
        });
        let queued = ReplayState::from_events(&queued_tail);
        add("leased and queued", &queued_tail, &queued, queued.clone());

        let agent_tail = stream(vec![Event::AgentDeployed {
            agent: 4,
            site: "a".into(),
        }]);
        let agents = ReplayState::from_events(&agent_tail);
        let mut honest = agents.clone();
        honest.agents.get_mut(&4).unwrap().alive = false;
        add("agent honest", &agent_tail, &agents, honest);
        add("agent resurrected", &agent_tail, &agents, agents.clone());

        // Hand-edited `expected` states: a named job moved back, a named
        // job dropped, a job the tail never names edited (the refold leaves
        // it alone in both checks), and each registry off its fold.
        let mut edits: Vec<(&str, ReplayState)> = Vec::new();
        let mut back = expected.clone();
        back.jobs.get_mut(&1).unwrap().phase = crate::replay::Phase::Submitted;
        edits.push(("named job moved back", back));
        let mut dropped = expected.clone();
        dropped.jobs.remove(&0);
        edits.push(("named job dropped", dropped));
        let mut unnamed = expected.clone();
        unnamed.jobs.insert(9, expected.jobs[&1].clone());
        unnamed.jobs.get_mut(&9).unwrap().attempts = 4;
        edits.push(("unnamed job edited", unnamed));
        let mut spools = expected.clone();
        spools.spools.get_mut("stdout").unwrap().appended = 2;
        edits.push(("spool mark lowered", spools));
        for (name, edited) in edits {
            add(name, &tail, &edited, expected.clone());
            add(name, &tail, &edited, edited.clone());
        }
        let mut agent_edit = agents.clone();
        agent_edit.agents.get_mut(&4).unwrap().site = "b".into();
        add("agent site edited", &agent_tail, &agent_edit, agents);
        let health_tail = stream(vec![Event::SiteSuspect {
            site: "a".into(),
            missed_refreshes: 2,
            failed_queries: 0,
        }]);
        let mut health = ReplayState::from_events(&health_tail);
        health
            .site_health
            .insert("a".into(), crate::replay::SiteHealth::Dead);
        add("site health edited", &health_tail, &health, health.clone());
        cases
    }

    #[test]
    fn the_scoped_check_returns_what_the_full_clone_check_returns() {
        let mut not_idempotent = 0;
        for (name, tail, expected, recovered) in recovery_cases() {
            let want = full_clone_check(&tail, &expected, &recovered);
            assert_eq!(
                check_recovery_invariants(&tail, &expected, &recovered),
                want,
                "{name}"
            );
            not_idempotent += usize::from(want.iter().any(|m| m.contains("not idempotent")));
        }
        // Every hand-edited state but the unnamed job's reaches a verdict.
        assert_eq!(not_idempotent, 8);
    }
}
