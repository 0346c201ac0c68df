//! Admission: everything between `submit` and a job entering a submission
//! path — the commit record, the JDL analysis gate, fair-share rejection
//! under scarcity (§5.1), routing by job type, and the broker queue where
//! batch jobs wait for a machine to become idle (§5.2 arrow 2).

use std::collections::HashSet;
use std::fmt::Write;
use std::rc::Rc;
use std::sync::Arc;

use cg_jdl::analyze::Analysis;
use cg_jdl::{Interactivity, JobDescription, MachineAccess};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_trace::Event;

use super::events::Stage;
use super::settle::Ending;
use super::{CrossBroker, Live};
use crate::job::{JobId, JobRecord, JobState};
use crate::matchmaking::CompiledJob;

/// Room a printed ad is given per attribute (`  Name = value;` and a
/// newline). The paper's attributes print in about 32 bytes each; an ad of
/// longer ones grows its buffer as any `String` does.
const COMMIT_RECORD_BYTES_PER_ATTR: usize = 48;

/// Retry period for batch jobs parked in the broker queue.
const BROKER_QUEUE_RETRY: SimDuration = SimDuration::from_secs(30);

impl CrossBroker {
    /// Submits a job with the given natural runtime. The returned id indexes
    /// [`CrossBroker::record`].
    pub fn submit(&self, sim: &mut Sim, job: JobDescription, runtime: SimDuration) -> JobId {
        let now = sim.now();
        // Submit-time static analysis: warnings are traced, errors reject
        // the ad outright — a job whose Requirements can never match must
        // not enter matchmaking and wait forever.
        let analysis = job.analyze();
        let interactive = job.is_interactive();
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = JobId(inner.next_job);
            inner.next_job += 1;
            inner.stats.submitted += 1;
            inner
                .jobs
                .insert(id, JobRecord::new(id, Arc::clone(&job.user), now));
            inner.trace.record(
                now,
                Event::JobSubmitted {
                    job: id.0,
                    user: Arc::clone(&job.user),
                    interactive,
                },
            );
            // The JobAd commit record: together with JobSubmitted it carries
            // everything recovery needs to re-arm the job after a crash.
            // Rendered once, into a buffer that need not grow on the way.
            let mut jdl = String::with_capacity(COMMIT_RECORD_BYTES_PER_ATTR * job.ad.len());
            write!(jdl, "{}", job.ad).expect("writing to a String cannot fail");
            inner.trace.record(
                now,
                Event::JobAd {
                    job: id.0,
                    jdl: jdl.clone(),
                    runtime_ns: runtime.as_nanos(),
                },
            );
            inner.live.insert(id, Live::new(jdl, runtime, interactive));
            for d in &analysis.diagnostics {
                inner.trace.record(
                    now,
                    Event::JdlDiagnostic {
                        job: id.0,
                        severity: d.severity.as_str().to_string(),
                        code: d.code.to_string(),
                        message: d.message.clone(),
                    },
                );
            }
            id
        };
        if !self.jdl_gate(now, id, analysis) {
            return id;
        }
        self.ensure_fairshare_tick(sim);

        // Fair-share admission under scarcity (§5.1).
        if self.resources_scarce(&job)
            && self
                .inner
                .borrow()
                .fairshare
                .should_reject_under_scarcity(&job.user)
        {
            self.inner.borrow_mut().end(id, Ending::Refused, now, true);
            return id;
        }
        self.route(sim, id, job, runtime, HashSet::new());
        id
    }

    /// The JDL gate `submit` and crash recovery share: an ad with
    /// `Error`-severity findings is rejected terminally (returns `false`);
    /// one that passes gets its compiled expressions stored in its live
    /// entry for the matchmaking loop.
    pub(super) fn jdl_gate(&self, now: SimTime, id: JobId, analysis: Analysis) -> bool {
        let mut inner = self.inner.borrow_mut();
        if analysis.has_errors() {
            let errors = analysis.error_count() as u32;
            inner.end(id, Ending::JdlRejected(errors), now, true);
            return false;
        }
        if let Some(live) = inner.live.get_mut(&id) {
            live.compiled = Some(Rc::new(CompiledJob {
                requirements: analysis.requirements,
                rank: analysis.rank,
            }));
        }
        true
    }

    fn resources_scarce(&self, job: &JobDescription) -> bool {
        if !job.is_interactive() {
            return false; // batch can always queue
        }
        let need = job.node_number as usize;
        let inner = self.inner.borrow();
        let idle: usize = inner.sites.iter().map(|s| s.site.lrms().free_nodes()).sum();
        idle < need
            && (job.machine_access == MachineAccess::Exclusive
                || self.free_interactive_slots() < need)
    }

    /// Sends an admitted job down its submission path — also the re-entry
    /// point of every resubmission and of crash recovery's re-arm.
    /// `excluded` sites are skipped by the matched paths.
    pub(super) fn route(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
        excluded: HashSet<usize>,
    ) {
        match (job.interactivity, job.machine_access) {
            // Parallel shared jobs: "it is possible to have a combination of
            // machines with and without agents for executing a parallel
            // interactive application" (§5.2).
            (Interactivity::Interactive, MachineAccess::Shared) if job.is_parallel() => {
                self.shared_parallel_path(sim, id, job, runtime);
            }
            (Interactivity::Interactive, MachineAccess::Shared) => {
                self.shared_path(sim, id, job, runtime);
            }
            _ => self.matched_path(sim, id, job, runtime, excluded),
        }
    }

    // ------------------------------------------------------------------
    // Broker queue
    // ------------------------------------------------------------------

    /// Parks a batch job in the broker until a machine becomes idle and
    /// arms the retry cycle.
    pub(super) fn park(&self, sim: &mut Sim, id: JobId, job: JobDescription, runtime: SimDuration) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.jobs.update(id, |r| r.state = JobState::BrokerQueued);
            inner.queue.push_back((id, job, runtime));
            inner
                .trace
                .record(sim.now(), Event::JobQueued { job: id.0 });
        }
        self.schedule_queue_retry(sim);
    }

    fn schedule_queue_retry(&self, sim: &mut Sim) {
        let mut inner = self.inner.borrow_mut();
        if inner.queue_retry_scheduled || inner.queue.is_empty() {
            return;
        }
        inner.queue_retry_scheduled = true;
        drop(inner);
        self.schedule(sim, BROKER_QUEUE_RETRY, Stage::QueueRetry, 0);
    }

    /// Re-matches the job at the head of the broker queue; every finished
    /// or cancelled job calls this, since it may have freed a machine.
    pub(super) fn retry_broker_queue(&self, sim: &mut Sim) {
        let next = self.inner.borrow_mut().queue.pop_front();
        if let Some((id, job, runtime)) = next {
            self.inner
                .borrow()
                .trace
                .record(sim.now(), Event::QueueRetry { job: id.0 });
            self.matched_path(sim, id, job, runtime, HashSet::new());
        }
        self.schedule_queue_retry(sim);
    }
}
