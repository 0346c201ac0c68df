//! Settle: every transition out of `Scheduled` — the job reaches `Running`
//! (and its console session is sampled), finishes, fails, is cancelled by
//! its user, or books a resubmission attempt with jittered backoff. Each
//! terminal transition retires the job's side tables through
//! `Inner::retire`.

use cg_sim::{Sim, SimDuration};
use cg_trace::Event;

use super::{CrossBroker, Placement};
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

impl CrossBroker {
    /// The job is interactive-ready (or, for a batch job, executing).
    pub(super) fn mark_running(
        &self,
        sim: &mut Sim,
        id: JobId,
        sites: Vec<String>,
        session: Option<(cg_jdl::StreamingMode, cg_net::LinkProfile)>,
    ) {
        let mut inner = self.inner.borrow_mut();
        let response = inner.jobs.update(id, |r| {
            if r.started_at.is_some() {
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
        if let Some((mode, profile)) = session {
            let costs = match mode {
                cg_jdl::StreamingMode::Fast => cg_console::MethodCosts::fast(),
                cg_jdl::StreamingMode::Reliable => cg_console::MethodCosts::reliable(),
            };
            drop(inner);
            let mut samples = Vec::with_capacity(25);
            for _ in 0..25 {
                samples.push(costs.sequence_rtt(sim.rng(), &profile, 1024).as_secs_f64());
            }
            let mut inner = self.inner.borrow_mut();
            for x in samples {
                inner.session_latency.record(x);
            }
        }
    }

    /// Terminal: the job ran to completion. Late completions of an already
    /// terminal job (a co-allocated job's other subjobs) change nothing.
    pub(super) fn mark_done(&self, sim: &mut Sim, id: JobId) {
        let mut inner = self.inner.borrow_mut();
        let finished = inner.jobs.update(id, |r| {
            if !matches!(
                r.state,
                JobState::Running { .. } | JobState::Scheduled { .. }
            ) {
                return false;
            }
            r.state = JobState::Done;
            r.finished_at = Some(sim.now());
            true
        });
        if finished == Some(true) {
            inner.stats.finished += 1;
            inner
                .trace
                .record(sim.now(), Event::JobFinished { job: id.0 });
            inner.retire(id);
        }
    }

    /// [`Self::mark_done`], then the broker queue gets a turn at whatever
    /// the job freed.
    pub(super) fn finish_job(&self, sim: &mut Sim, id: JobId) {
        self.mark_done(sim, id);
        self.retry_broker_queue(sim);
    }

    /// Terminal: the job failed (`rejected`: by fair-share admission).
    pub(super) fn fail(&self, sim: &mut Sim, id: JobId, reason: &str, rejected: bool) {
        let mut inner = self.inner.borrow_mut();
        let failed_now = inner.jobs.update(id, |r| {
            if matches!(r.state, JobState::Done | JobState::Failed { .. }) {
                return false; // already terminal; late events must not re-fail it
            }
            r.state = JobState::Failed {
                reason: reason.to_string(),
            };
            r.finished_at = Some(sim.now());
            true
        });
        if failed_now == Some(false) {
            return;
        }
        if failed_now == Some(true) {
            inner.trace.record(
                sim.now(),
                Event::JobFailed {
                    job: id.0,
                    reason: reason.to_string(),
                },
            );
        }
        if rejected {
            inner.stats.rejected += 1;
        } else {
            inner.stats.failed += 1;
        }
        inner.retire(id);
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
            match inner.jobs.with(id, |r| {
                matches!(r.state, JobState::Done | JobState::Failed { .. })
            }) {
                None | Some(true) => return false,
                Some(false) => {}
            }
            inner.side.queue.retain(|(queued, _, _)| *queued != id);
            inner.side.placements.remove(&id).unwrap_or_default()
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
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.cancelled += 1;
            inner.jobs.update(id, |r| {
                r.state = JobState::Failed {
                    reason: "cancelled by user".into(),
                };
                r.finished_at = Some(sim.now());
            });
            inner
                .trace
                .record(sim.now(), Event::JobCancelled { job: id.0 });
            inner.retire(id);
        }
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
    use cg_sim::{Sim, SimDuration};

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
