//! Broker-side job model: identities, states, and the timestamped record the
//! experiments measure.

use std::sync::Arc;

use cg_sim::SimTime;

/// Broker-wide job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Where a job is in its life.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Accepted by the broker, not yet matched.
    Submitted,
    /// Discovery/selection in progress.
    Matching,
    /// Matched; submission to the resource under way.
    Scheduled {
        /// Chosen site (or a co-allocated plan's summary).
        site: Arc<str>,
    },
    /// Waiting in the broker's own queue (no resource available — batch
    /// jobs only, §5.2 arrow 2).
    BrokerQueued,
    /// Running (for interactive jobs: first output has reached the user).
    Running {
        /// Site(s) hosting it.
        sites: Vec<Arc<str>>,
    },
    /// Finished normally.
    Done,
    /// Rejected or failed.
    Failed {
        /// Why.
        reason: String,
    },
}

/// What happened to a job, when — the measurement record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Its id.
    pub id: JobId,
    /// Submitting user, shared with the job's description.
    pub user: Arc<str>,
    /// Current state.
    pub state: JobState,
    /// When the broker accepted it.
    pub submitted_at: SimTime,
    /// When discovery finished (if it ran).
    pub discovered_at: Option<SimTime>,
    /// When selection finished (if it ran).
    pub selected_at: Option<SimTime>,
    /// When the job was handed to the resource (submission start).
    pub dispatched_at: Option<SimTime>,
    /// When the job was running / first output reached the user.
    pub started_at: Option<SimTime>,
    /// When it finished.
    pub finished_at: Option<SimTime>,
    /// Times the broker resubmitted it elsewhere (on-line scheduling).
    pub resubmissions: u32,
}

impl JobRecord {
    /// Fresh record at submission time.
    pub fn new(id: JobId, user: impl Into<Arc<str>>, now: SimTime) -> Self {
        JobRecord {
            id,
            user: user.into(),
            state: JobState::Submitted,
            submitted_at: now,
            discovered_at: None,
            selected_at: None,
            dispatched_at: None,
            started_at: None,
            finished_at: None,
            resubmissions: 0,
        }
    }

    /// Resource-discovery phase length, seconds.
    pub fn discovery_s(&self) -> Option<f64> {
        self.discovered_at
            .map(|t| t.saturating_since(self.submitted_at).as_secs_f64())
    }

    /// Resource-selection phase length, seconds.
    pub fn selection_s(&self) -> Option<f64> {
        match (self.discovered_at, self.selected_at) {
            (Some(d), Some(s)) => Some(s.saturating_since(d).as_secs_f64()),
            _ => None,
        }
    }

    /// The Table I "Submission" column: from dispatch to first output.
    pub fn submission_s(&self) -> Option<f64> {
        match (self.dispatched_at, self.started_at) {
            (Some(d), Some(s)) => Some(s.saturating_since(d).as_secs_f64()),
            _ => None,
        }
    }

    /// Total response time: submission-to-first-output.
    pub fn response_s(&self) -> Option<f64> {
        self.started_at
            .map(|t| t.saturating_since(self.submitted_at).as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accessors_decompose_the_timeline() {
        let mut r = JobRecord::new(JobId(1), "alice", SimTime::from_secs(100));
        r.discovered_at = Some(SimTime::from_secs(101));
        r.selected_at = Some(SimTime::from_secs(104));
        r.dispatched_at = Some(SimTime::from_secs(104));
        r.started_at = Some(SimTime::from_secs(111));
        assert_eq!(r.discovery_s(), Some(1.0));
        assert_eq!(r.selection_s(), Some(3.0));
        assert_eq!(r.submission_s(), Some(7.0));
        assert_eq!(r.response_s(), Some(11.0));
    }

    #[test]
    fn missing_phases_are_none() {
        let r = JobRecord::new(JobId(2), "bob", SimTime::ZERO);
        assert_eq!(r.discovery_s(), None);
        assert_eq!(r.selection_s(), None);
        assert_eq!(r.submission_s(), None);
        assert_eq!(r.response_s(), None);
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(JobId(42).to_string(), "job42");
    }
}
