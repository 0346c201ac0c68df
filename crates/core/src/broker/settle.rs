//! Settle: every transition out of `Scheduled` — the job reaches `Running`
//! (and its console session is sampled), finishes, fails, is cancelled by
//! its user, or books a resubmission attempt with jittered backoff — and
//! the ending table ([`Ending`], [`Inner::end`]): the one place any job
//! ends, admission's refusals and crash recovery's restored endings
//! included. Each ending retires the job's live entry through
//! `Inner::retire`.

use std::sync::Arc;

use cg_jdl::JobDescription;
use cg_sim::{Sim, SimDuration, SimTime};
use cg_trace::replay::{Phase, ReplayJob};
use cg_trace::Event;

use super::{CrossBroker, Inner, Placement};
use crate::job::{JobId, JobState};

/// First resubmission backoff delay; each further attempt doubles it.
const RESUBMIT_BACKOFF_BASE: SimDuration = SimDuration::from_secs(2);
/// Upper bound on the exponential resubmission backoff.
const RESUBMIT_BACKOFF_MAX: SimDuration = SimDuration::from_secs(60);
/// Jitter fraction applied to each backoff delay: the scheduled wait is
/// drawn uniformly from `delay * (1 ± jitter)`.
const RESUBMIT_BACKOFF_JITTER: f64 = 0.2;
const _: () = assert!(RESUBMIT_BACKOFF_BASE.as_nanos() <= RESUBMIT_BACKOFF_MAX.as_nanos());
const _: () = assert!(RESUBMIT_BACKOFF_JITTER >= 0.0 && RESUBMIT_BACKOFF_JITTER < 1.0);

/// Bounded exponential backoff with jitter: `base * 2^(attempt-1)` capped at
/// `cap`, then scaled by a uniform factor in `1 ± jitter_frac`. Keeps a
/// burst of racing resubmissions from hammering the same shortlist in
/// lockstep.
pub(super) fn backoff_delay(
    base: SimDuration,
    cap: SimDuration,
    jitter_frac: f64,
    attempt: u32,
    rng: &mut cg_sim::SimRng,
) -> SimDuration {
    let mut delay = if base.is_zero() {
        SimDuration::from_nanos(1)
    } else {
        base
    };
    for _ in 1..attempt.min(64) {
        if delay >= cap {
            break;
        }
        delay = delay * 2;
    }
    if delay > cap {
        delay = cap;
    }
    let jitter_frac = jitter_frac.clamp(0.0, 1.0);
    let factor = 1.0 - jitter_frac + 2.0 * jitter_frac * rng.f64();
    delay.mul_f64(factor)
}

/// Reason text of a fair-share refusal.
const REFUSED: &str = "rejected: user priority too low under scarcity";
/// Reason text of a cancellation.
const CANCELLED: &str = "cancelled by user";
/// Reason text of a JDL rejection, around its error count (as
/// [`Inner::end`] formats it).
const JDL_REJECTED: (&str, &str) = ("rejected by JDL analysis (", " errors)");

/// The five ways a job ends (§3, §5.1). [`Inner::end`] is their one table:
/// for each it decides the guard, the terminal [`JobState`] and its reason,
/// the [`super::BrokerStats`] counter, the trace event and the retirement.
#[derive(Debug, Clone, Copy)]
pub(super) enum Ending<'a> {
    /// Ran to completion (`JobFinished`, counted `finished`).
    Finished,
    /// Failed for this reason (`JobFailed`, counted `failed`).
    Failed(&'a str),
    /// Refused by fair-share admission under scarcity (`JobFailed`,
    /// counted `rejected`).
    Refused,
    /// Rejected by the JDL gate with this many errors (`JdlRejected`,
    /// counted `rejected`).
    JdlRejected(u32),
    /// Cancelled by its user (`JobCancelled`, counted `cancelled`).
    Cancelled,
}

impl<'a> Ending<'a> {
    /// The guard: whether a job in `state` can end this way. A job finishes
    /// only from `Running` or `Scheduled`; every other ending takes any job
    /// that has not ended yet.
    fn ends(self, state: &JobState) -> bool {
        match self {
            Ending::Finished => {
                matches!(state, JobState::Running { .. } | JobState::Scheduled { .. })
            }
            _ => !matches!(state, JobState::Done | JobState::Failed { .. }),
        }
    }

    /// How a journaled job ended, or `None` while it is live. A snapshot
    /// holds every ending but `Finished` as `Phase::Failed` with the reason
    /// text [`Inner::end`] wrote, so that text alone tells the endings apart
    /// and each counts as it did live.
    pub(super) fn journaled(rj: &'a ReplayJob) -> Option<Self> {
        Some(match rj.phase {
            Phase::Finished => Ending::Finished,
            Phase::Cancelled => Ending::Cancelled,
            // The stream's fold keeps no error count: the gate's analysis
            // of the retained ad is run again.
            Phase::Rejected => Ending::JdlRejected(
                rj.jdl
                    .as_deref()
                    .and_then(|jdl| JobDescription::parse(jdl).ok())
                    .map_or(0, |job| job.analyze().error_count() as u32),
            ),
            Phase::Failed => match rj
                .fail_reason
                .as_deref()
                .unwrap_or("failed before the broker crash")
            {
                REFUSED => Ending::Refused,
                CANCELLED => Ending::Cancelled,
                reason => reason
                    .strip_prefix(JDL_REJECTED.0)
                    .and_then(|rest| rest.strip_suffix(JDL_REJECTED.1))
                    .and_then(|errors| errors.parse().ok())
                    .map_or(Ending::Failed(reason), Ending::JdlRejected),
            },
            _ => return None,
        })
    }
}

impl Inner {
    /// Ends job `id` at `at` the way `ending` says, if its guard lets it:
    /// the terminal state and its reason, `finished_at`, the counter, and
    /// for a `live` ending the trace event and `retire`. Crash recovery
    /// installs endings that are not live: their events are in its journal
    /// and their live entries were never built.
    pub(super) fn end(&mut self, id: JobId, ending: Ending<'_>, at: SimTime, live: bool) {
        let ended = self.jobs.update(id, |r| {
            let ends = ending.ends(&r.state);
            if ends {
                let reason = match ending {
                    Ending::Finished => None,
                    Ending::Failed(reason) => Some(reason.to_string()),
                    Ending::Refused => Some(REFUSED.to_string()),
                    Ending::JdlRejected(errors) => {
                        Some(format!("rejected by JDL analysis ({errors} errors)"))
                    }
                    Ending::Cancelled => Some(CANCELLED.to_string()),
                };
                r.state = reason.map_or(JobState::Done, |reason| JobState::Failed { reason });
                r.finished_at = Some(at);
            }
            ends
        });
        if ended != Some(true) {
            return;
        }
        let stats = &mut self.stats;
        *match ending {
            Ending::Finished => &mut stats.finished,
            Ending::Failed(_) => &mut stats.failed,
            Ending::Refused | Ending::JdlRejected(_) => &mut stats.rejected,
            Ending::Cancelled => &mut stats.cancelled,
        } += 1;
        if live {
            let job = id.0;
            let event = match ending {
                Ending::Finished => Event::JobFinished { job },
                Ending::Failed(reason) => Event::JobFailed {
                    job,
                    reason: reason.to_string(),
                },
                Ending::Refused => Event::JobFailed {
                    job,
                    reason: REFUSED.to_string(),
                },
                Ending::JdlRejected(errors) => Event::JdlRejected { job, errors },
                Ending::Cancelled => Event::JobCancelled { job },
            };
            self.trace.record(at, event);
            self.retire(id);
        }
    }
}

impl CrossBroker {
    /// The job is interactive-ready (or, for a batch job, executing).
    pub(super) fn mark_running(
        &self,
        sim: &mut Sim,
        id: JobId,
        sites: Vec<Arc<str>>,
        session: Option<(cg_jdl::StreamingMode, cg_net::Link)>,
    ) {
        let mut inner = self.inner.borrow_mut();
        let response = inner.jobs.update(id, |r| {
            // A job re-run after crash recovery is `Running` again, but its
            // first start is the one stamped and counted.
            if r.started_at.is_some() {
                if !matches!(r.state, JobState::Done | JobState::Failed { .. }) {
                    r.state = JobState::Running { sites };
                }
                return None;
            }
            r.started_at = Some(sim.now());
            r.state = JobState::Running { sites };
            Some(sim.now().saturating_since(r.submitted_at).as_secs_f64())
        });
        let Some(Some(response)) = response else {
            return;
        };
        inner.stats.started += 1;
        inner
            .trace
            .record(sim.now(), Event::JobStarted { job: id.0 });
        inner.metrics.observe("response_s", response);
        // Sample the interactive session's steering latency: 1 KiB console
        // round trips over the job's UI path in its streaming mode.
        if let Some((mode, link)) = session {
            let costs = match mode {
                cg_jdl::StreamingMode::Fast => cg_console::MethodCosts::fast(),
                cg_jdl::StreamingMode::Reliable => cg_console::MethodCosts::reliable(),
            };
            drop(inner);
            let mut samples = Vec::with_capacity(25);
            for _ in 0..25 {
                let rtt = link.with_profile(|p| costs.sequence_rtt(sim.rng(), p, 1024));
                samples.push(rtt.as_secs_f64());
            }
            let mut inner = self.inner.borrow_mut();
            for x in samples {
                inner.session_latency.record(x);
            }
        }
    }

    /// One subjob of job `id` finished, wherever it ran (`copy`): the job is
    /// done with its last subjob (a job with no plan in flight has one),
    /// then an agent that hosted the subjob may leave, then the broker queue
    /// gets a turn. A copy counted already — pushed, then polled again after
    /// its site rejoined — changes nothing.
    pub(super) fn subjob_finished(&self, sim: &mut Sim, id: JobId, copy: Option<Placement>) {
        let last = match self.inner.borrow_mut().live.get_mut(&id) {
            None => true,
            Some(live) if copy.is_some_and(|c| live.counted.contains(&c)) => return,
            Some(live) => {
                live.subjobs = live.subjobs.saturating_sub(1);
                if live.subjobs > 0 {
                    live.counted.extend(copy); // the last one ends the job
                }
                live.subjobs == 0
            }
        };
        if last {
            let now = sim.now();
            self.inner.borrow_mut().end(id, Ending::Finished, now, true);
        }
        if let Some(Placement::AgentInteractive { aid }) = copy {
            self.maybe_agent_departs(sim, aid);
        }
        self.retry_broker_queue(sim);
    }

    /// Terminal: the job failed. Late events of an already terminal job
    /// change nothing.
    pub(crate) fn fail(&self, sim: &mut Sim, id: JobId, reason: &str) {
        self.inner
            .borrow_mut()
            .end(id, Ending::Failed(reason), sim.now(), true);
    }

    /// Cancels a job at the user's request — the paper's *on-line output
    /// control*: "the ability to control application output online and to
    /// enable the user to decide whether to cancel this in accordance with
    /// the output results" (§1). Tears the job down wherever it is (broker
    /// queue, site LRMS, agent VM slots) and restores the co-resident batch
    /// job's priority. Returns `false` when the job is unknown or already
    /// terminal.
    pub fn cancel(&self, sim: &mut Sim, id: JobId) -> bool {
        let placements = {
            let mut inner = self.inner.borrow_mut();
            if inner.jobs.with(id, |r| Ending::Cancelled.ends(&r.state)) != Some(true) {
                return false;
            }
            inner.queue.retain(|(queued, _, _)| *queued != id);
            let live = inner.live.get_mut(&id);
            live.map_or_else(Vec::new, |live| std::mem::take(&mut live.placements))
        };
        for p in placements {
            match p {
                Placement::Site { site_index, local } => {
                    let site = self.inner.borrow().sites[site_index].site.clone();
                    site.lrms().kill(sim, local, "cancelled by user");
                }
                Placement::AgentInteractive { aid } => {
                    if let Some(agent) = self.agent(aid) {
                        agent.borrow().cancel_interactive(sim);
                    }
                    self.restore_batch(sim.now(), id, aid);
                    self.maybe_agent_departs(sim, aid);
                }
                Placement::AgentBatch { aid, task } => {
                    if let Some(agent) = self.agent(aid) {
                        agent.borrow().vm.cancel(sim, task);
                        self.batch_ended(sim.now(), aid);
                    }
                    self.maybe_agent_departs(sim, aid);
                }
            }
        }
        self.inner
            .borrow_mut()
            .end(id, Ending::Cancelled, sim.now(), true);
        self.retry_broker_queue(sim);
        true
    }

    /// Books one resubmission attempt for `id` — stats, the job record's
    /// attempt counter and the `JobResubmitted` event — and returns the
    /// jittered exponential backoff delay to wait before re-entering
    /// matchmaking, or `None` when the attempt budget is exhausted. The
    /// chosen delay is recorded as a `JobBackoff` event.
    pub(super) fn begin_resubmit(&self, sim: &mut Sim, id: JobId) -> Option<SimDuration> {
        let (attempt, max_resub) = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.resubmissions += 1;
            let attempt = inner
                .jobs
                .update(id, |r| {
                    r.resubmissions += 1;
                    r.resubmissions
                })
                .expect("job exists");
            inner
                .trace
                .record(sim.now(), Event::JobResubmitted { job: id.0, attempt });
            (attempt, inner.config.max_resubmissions)
        };
        if attempt > max_resub {
            return None;
        }
        let delay = backoff_delay(
            RESUBMIT_BACKOFF_BASE,
            RESUBMIT_BACKOFF_MAX,
            RESUBMIT_BACKOFF_JITTER,
            attempt,
            sim.rng(),
        );
        self.inner.borrow().trace.record(
            sim.now(),
            Event::JobBackoff {
                job: id.0,
                attempt,
                delay_ns: delay.as_nanos(),
            },
        );
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::backoff_delay;
    use crate::broker::{BrokerConfig, CrossBroker};
    use crate::job::{JobId, JobState};
    use cg_net::{Link, LinkProfile};
    use cg_sim::{Sim, SimDuration, SimTime};
    use cg_trace::replay::{Phase, ReplayJob};
    use cg_trace::Event;
    use std::sync::Arc;

    #[test]
    fn a_job_restarted_after_recovery_runs_again_but_starts_once() {
        let mut sim = Sim::new(5);
        let mds = Link::new(LinkProfile::wan_mds());
        let broker = CrossBroker::new(&mut sim, Vec::new(), mds, BrokerConfig::default());
        // Running at the crash: started once, at 100 s.
        let first = SimTime::from_secs(100);
        broker.install_restored_job(
            1,
            &ReplayJob {
                user: "bob".into(),
                interactive: false,
                phase: Phase::Running,
                queued: false,
                attempts: 0,
                started: true,
                submitted_at_ns: SimTime::from_secs(10).as_nanos(),
                started_at_ns: Some(first.as_nanos()),
                finished_at_ns: None,
                lease: None,
                jdl: None,
                runtime_ns: None,
                fail_reason: None,
            },
        );
        let id = JobId(1);
        // Recovery re-matched it and dispatched it again.
        let site: Arc<str> = "site0".into();
        broker.inner.borrow_mut().jobs.update(id, |r| {
            r.state = JobState::Scheduled {
                site: Arc::clone(&site),
            };
        });
        sim.run_until(SimTime::from_secs(500));
        broker.mark_running(&mut sim, id, vec![Arc::clone(&site)], None);

        let replayed = &broker.replay_state().jobs[&1];
        assert_eq!(replayed.phase, Phase::Running, "a re-run job is running");
        assert_eq!(replayed.started_at_ns, Some(first.as_nanos()));
        assert_eq!(broker.stats().started, 1, "the first start is counted once");
        let starts = broker.event_log().snapshot();
        assert!(
            !starts
                .iter()
                .any(|e| matches!(e.event, Event::JobStarted { .. })),
            "a re-run records no second JobStarted"
        );
    }

    #[test]
    fn backoff_spacing_grows_and_is_bounded() {
        let mut sim = Sim::new(7);
        let base = SimDuration::from_secs(2);
        let cap = SimDuration::from_secs(60);
        // Without jitter the ladder is exactly 2, 4, 8, … capped at 60.
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=8 {
            let d = backoff_delay(base, cap, 0.0, attempt, sim.rng());
            assert!(d >= prev, "attempt {attempt} shrank: {d:?} < {prev:?}");
            assert!(d <= cap);
            prev = d;
        }
        assert_eq!(prev, cap, "the ladder must saturate at the cap");
        assert_eq!(
            backoff_delay(base, cap, 0.0, 3, sim.rng()),
            SimDuration::from_secs(8)
        );
    }

    #[test]
    fn backoff_jitter_stays_within_the_band() {
        let mut sim = Sim::new(11);
        let base = SimDuration::from_secs(2);
        let cap = SimDuration::from_secs(60);
        let lo = base.mul_f64(0.8);
        let hi = base.mul_f64(1.2);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..64 {
            let d = backoff_delay(base, cap, 0.2, 1, sim.rng());
            assert!(d >= lo && d <= hi, "jittered delay {d:?} outside ±20%");
            distinct.insert(d);
        }
        assert!(distinct.len() > 1, "jitter must actually vary the delay");
    }

    #[test]
    fn backoff_tolerates_degenerate_inputs() {
        let mut sim = Sim::new(3);
        let cap = SimDuration::from_secs(60);
        // Zero base must still yield a forward-progress delay.
        let d = backoff_delay(SimDuration::ZERO, cap, 0.0, 40, sim.rng());
        assert!(d > SimDuration::ZERO && d <= cap);
        // Huge attempt numbers must not overflow past the cap.
        let d = backoff_delay(SimDuration::from_secs(2), cap, 0.0, u32::MAX, sim.rng());
        assert_eq!(d, cap);
    }
}
