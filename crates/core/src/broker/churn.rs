//! Site churn: the broker's reaction to the information index's failure
//! detector — obituaries and rejoins in the trace, dead-site re-matching,
//! and the status polls that re-learn what a rejoined site did while its
//! link was down. Victims are handled in ascending job-id order, so a
//! site dying under several jobs replays identically in every process.

use std::collections::HashSet;

use cg_jdl::JobDescription;
use cg_net::{rpc_call, Dir};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{LocalJobId, Transition};
use cg_trace::Event;
use cg_vm::AgentId;

use super::{CrossBroker, Inner, Placement};
use crate::job::{JobId, JobState};

impl Inner {
    /// Jobs with an LRMS copy at `site_index` whose state satisfies
    /// `wanted`, with that copy's local id, in ascending job-id order.
    fn lrms_copies_at(
        &self,
        site_index: usize,
        wanted: impl Fn(&JobState) -> bool,
    ) -> Vec<(JobId, LocalJobId)> {
        let mut copies: Vec<(JobId, LocalJobId)> = self
            .side
            .placements
            .iter()
            .filter(|(id, _)| self.jobs.with(**id, |r| wanted(&r.state)).unwrap_or(false))
            .filter_map(|(id, placements)| {
                placements.iter().find_map(|p| match p {
                    Placement::Site {
                        site_index: s,
                        local,
                    } if *s == site_index => Some((*id, *local)),
                    _ => None,
                })
            })
            .collect();
        copies.sort_by_key(|(id, _)| *id);
        copies
    }
}

impl CrossBroker {
    /// Reacts to a membership transition from the information index's
    /// failure detector: records the obituary/rejoin in the trace and
    /// routes work away from (or back toward) the site.
    pub(super) fn on_membership_transition(
        &self,
        sim: &mut Sim,
        site_index: usize,
        tr: &Transition,
    ) {
        let now = sim.now();
        match tr {
            Transition::Suspected {
                missed_refreshes,
                failed_queries,
            } => {
                let inner = self.inner.borrow();
                inner.trace.record(
                    now,
                    Event::SiteSuspect {
                        site: inner.sites[site_index].site.name().to_string(),
                        missed_refreshes: *missed_refreshes,
                        failed_queries: *failed_queries,
                    },
                );
            }
            Transition::Died => self.site_died(sim, site_index),
            Transition::Rejoined { down_since } => {
                {
                    let mut inner = self.inner.borrow_mut();
                    let site = inner.sites[site_index].site.name().to_string();
                    // A rejoin wipes the lease-failure streak: consecutive
                    // pre-outage failures say nothing about the recovered
                    // site, and a stale streak would keep `lease-backoff`
                    // steering work away from a healthy member.
                    inner.sites[site_index].lease_failures = 0;
                    inner.trace.record(
                        now,
                        Event::SiteRejoin {
                            site,
                            down_ns: now.saturating_since(*down_since).as_nanos(),
                        },
                    );
                }
                self.reconcile_rejoined_site(sim, site_index);
            }
            Transition::Joined | Transition::Stabilized => {}
        }
    }

    /// A site crossed into `Dead`: void its lease, clear its failure
    /// streak (the obituary supersedes per-dispatch bookkeeping), record
    /// the `SiteDead` obituary with the in-flight count, and re-match
    /// every job still waiting in the dead site's LRMS — without burning
    /// resubmission budget, exactly like crash recovery's re-arm: the
    /// attempt died with the site, the job did not misbehave.
    fn site_died(&self, sim: &mut Sim, site_index: usize) {
        let now = sim.now();
        let (victims, lrms) = {
            let mut inner = self.inner.borrow_mut();
            inner.sites[site_index].leased_until = SimTime::ZERO;
            inner.sites[site_index].lease_failures = 0;
            // Jobs with any placement on this site (LRMS copies or
            // glide-in agents hosted there) count as in flight.
            let agents_here: HashSet<AgentId> = inner
                .agents
                .iter()
                .filter(|(_, e)| e.site_index == site_index)
                .map(|(aid, _)| *aid)
                .collect();
            let here = |p: &Placement| match p {
                Placement::Site { site_index: s, .. } => *s == site_index,
                Placement::AgentInteractive { aid } | Placement::AgentBatch { aid, .. } => {
                    agents_here.contains(aid)
                }
            };
            let in_flight = inner
                .side
                .placements
                .values()
                .filter(|placements| placements.iter().any(here))
                .count() as u32;
            inner.trace.record(
                now,
                Event::SiteDead {
                    site: inner.sites[site_index].site.name().to_string(),
                    in_flight,
                },
            );
            // Only jobs still waiting in the dead LRMS (dispatched but not
            // running) are withdrawn and re-matched; running work rides out
            // the outage on the site itself.
            let victims =
                inner.lrms_copies_at(site_index, |s| matches!(s, JobState::Scheduled { .. }));
            (victims, inner.sites[site_index].site.lrms().clone())
        };
        for (id, local) in victims {
            lrms.kill(sim, local, "site declared dead by the broker");
            self.rematch_from_dead_site(sim, id, site_index);
        }
    }

    /// Re-enters matchmaking for a job whose dispatched copy died with
    /// its site. Unlike on-line-scheduling resubmission this books no
    /// attempt against `max_resubmissions` and takes no backoff: the
    /// failure is the infrastructure's, and the membership filter already
    /// keeps the next match off the dead site.
    fn rematch_from_dead_site(&self, sim: &mut Sim, id: JobId, site_index: usize) {
        let retained = {
            let mut inner = self.inner.borrow_mut();
            inner.side.placements.remove(&id);
            inner.side.ads.get(&id).cloned()
        };
        let Some(retained) = retained else {
            self.fail(sim, id, "site died with no retained ad to re-match", false);
            return;
        };
        match JobDescription::parse(&retained.jdl) {
            Ok(job) => {
                let excluded = HashSet::from([site_index]);
                self.matched_path(sim, id, job, retained.runtime, excluded);
            }
            Err(e) => {
                self.fail(sim, id, &format!("re-match parse failed: {e}"), false);
            }
        }
    }

    /// A rejoined site may hold outcomes the broker never heard: GRAM
    /// status messages that crossed the dead link were dropped (the
    /// gatekeeper does not retry them), so a job that finished or was
    /// killed during the outage stays `Running` broker-side forever.
    /// Model the paper's "broker re-learns state by polling": one status
    /// poll per placement still on the site, delivering the outcome the
    /// lost message carried. Best-effort — a poll that fails (the link
    /// flapped again) leaves the job for the site's next rejoin.
    fn reconcile_rejoined_site(&self, sim: &mut Sim, site_index: usize) {
        let (stranded, link, lrms) = {
            let inner = self.inner.borrow();
            let stranded = inner.lrms_copies_at(site_index, |s| {
                matches!(s, JobState::Scheduled { .. } | JobState::Running { .. })
            });
            (
                stranded,
                inner.sites[site_index].broker_link.clone(),
                inner.sites[site_index].site.lrms().clone(),
            )
        };
        for (id, local) in stranded {
            let this = self.clone();
            let lrms = lrms.clone();
            let service = SimDuration::from_secs_f64(0.3);
            rpc_call(sim, &link, Dir::AToB, 300, 400, service, move |sim, r| {
                if r.is_err() {
                    return;
                }
                match lrms.disposition(local) {
                    Some(cg_site::LocalDisposition::Finished) => this.finish_job(sim, id),
                    Some(cg_site::LocalDisposition::Killed) => {
                        this.fail(sim, id, "killed at site while the link was down", false);
                    }
                    // Still queued/running (its push events will cross the
                    // healed link), or never accepted — nothing to deliver.
                    _ => {}
                }
            });
        }
    }
}
