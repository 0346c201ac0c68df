//! Discovery: the first of the paper's two matchmaking steps (§6.1) — one
//! query to the information system, the stale-information shortlist over
//! its columnar snapshot, and the gates that keep excluded, distrusted and
//! dead sites off the live sweep.

use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

use cg_jdl::{JobDescription, Parallelism};
use cg_net::NetError;
use cg_sim::{Sim, SimDuration};
use cg_site::{AdSnapshot, MembershipState};
use cg_trace::Event;

use super::sweep::{live_query_chain, AfterSweep};
use super::CrossBroker;
use crate::job::{JobId, JobState};
use crate::matchmaking::{filter_candidates_columnar, Candidate, CompiledJob};

/// What discovery hands through the live sweep to selection.
pub(super) struct Discovered {
    /// The stale candidates in site-index order — one for every site the
    /// sweep queries.
    pub(super) shortlist: Vec<Candidate>,
    /// The snapshot they were matched over.
    pub(super) stale: Arc<AdSnapshot>,
    /// Sites this pass may not use (earlier attempts of a resubmitted job).
    pub(super) excluded: HashSet<usize>,
}

/// A job whose MDS query is in flight; the query's token is its slot.
pub(super) struct Discovery {
    id: JobId,
    job: JobDescription,
    runtime: SimDuration,
    excluded: HashSet<usize>,
    /// The job's compiled expressions as matching found them.
    compiled: Rc<CompiledJob>,
}

/// What selection needs once the live sweep is back.
pub(super) struct Selection {
    pub(super) id: JobId,
    pub(super) job: JobDescription,
    pub(super) runtime: SimDuration,
    pub(super) discovered: Discovered,
}

/// Whether a single site must host the whole job. MPICH-G2 co-allocation
/// sums free CPUs across sites; batch jobs may queue.
pub(super) fn requires_full_site(job: &JobDescription) -> bool {
    job.is_interactive() && job.parallelism != Parallelism::MpichG2
}

impl CrossBroker {
    /// The matched path (discovery → live sweep → selection → commit) that
    /// batch, exclusive and co-allocated jobs take.
    pub(super) fn matched_path(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
        excluded: HashSet<usize>,
    ) {
        // Every job that reaches here passed the JDL gate; a job without
        // compiled expressions has since been retired (cancelled or failed
        // while a resubmission was pending) and must not be matched again.
        let Some(compiled) = self.compiled_for(id) else {
            return;
        };
        self.set_state(id, JobState::Matching);
        let (index, mds_link, reply, token) = {
            let mut inner = self.inner.borrow_mut();
            let token = inner.stages.discoveries.insert(Discovery {
                id,
                job,
                runtime,
                excluded,
                compiled,
            });
            let reply = Rc::clone(&inner.query_reply);
            (inner.index.clone(), inner.mds_link.clone(), reply, token)
        };
        index.query(sim, &mds_link, &reply, token);
    }

    /// The information index answered discovery's query `token` (or the
    /// query failed): shortlist the stale candidates and start the sweep.
    pub(super) fn discovered(
        &self,
        sim: &mut Sim,
        token: u64,
        result: Result<Arc<AdSnapshot>, NetError>,
    ) {
        let discovery = self.inner.borrow_mut().stages.discoveries.remove(token);
        let Discovery {
            id,
            job,
            runtime,
            excluded,
            compiled,
        } = discovery.expect("one answer per query");
        let index2 = self.inner.borrow().index.clone();
        let (stale, distrusted) = match result {
            Ok(stale) => (stale, HashSet::new()),
            Err(_) => {
                // Health-gated degradation: the information system is
                // unreachable, so fall back to the broker's own last
                // snapshot — but the trust bound is *per site*. A
                // site's `published_at` lags the index-global
                // `refreshed_at` whenever its publish path was down,
                // so bounding on the global stamp would match onto
                // arbitrarily stale columns while believing them
                // fresh. Sites beyond the bound are dropped from the
                // shortlist; the job fails only when no column is
                // trustworthy.
                let now = sim.now();
                let inner = self.inner.borrow();
                let bound = inner.config.degraded_max_staleness;
                let snap = inner.index.snapshot_arc();
                let mut worst = SimDuration::ZERO;
                let mut distrusted = HashSet::new();
                for i in 0..snap.len() {
                    let age = inner.index.staleness(i, now);
                    if age > bound {
                        distrusted.insert(i);
                    } else if age > worst {
                        worst = age;
                    }
                }
                if distrusted.len() == snap.len() {
                    drop(inner);
                    self.fail(sim, id, "information system unreachable", false);
                    return;
                }
                inner.trace.record(
                    now,
                    Event::DegradedMatch {
                        job: id.0,
                        staleness_ns: worst.as_nanos(),
                    },
                );
                (snap, distrusted)
            }
        };
        {
            let inner = self.inner.borrow_mut();
            inner.jobs.update(id, |r| {
                r.discovered_at.get_or_insert(sim.now());
            });
        }
        // Stale-info filter decides which sites to live-query. It scans
        // the MDS columnar snapshot in place (no per-query ad clones);
        // per-site matching is independent, so dropping excluded sites
        // after the filter is equivalent to dropping them before.
        let shortlist: Vec<Candidate> =
            filter_candidates_columnar(&job, &compiled, &stale, requires_full_site(&job))
                .into_iter()
                // Membership gate: `Dead` sites are dropped from the
                // sweep entirely; `Suspect` sites stay on the shortlist
                // — the live query doubles as the probe that can rejoin
                // them — but selection still refuses to lease or
                // dispatch onto anything unhealthy. Degraded mode
                // additionally drops sites whose column aged past the
                // trust bound.
                .filter(|c| {
                    !excluded.contains(&c.site_index)
                        && !distrusted.contains(&c.site_index)
                        && index2.membership_state(c.site_index) != MembershipState::Dead
                })
                .collect();
        if shortlist.is_empty() {
            self.no_candidates(sim, id, job, runtime);
            return;
        }
        // Live queries, sequentially — the ≈3 s selection step. The
        // shortlist and the snapshot it was matched over ride along, so
        // selection re-matches only the sites whose ad has changed.
        let pending = shortlist.iter().map(|c| c.site_index).collect();
        let selection = Selection {
            id,
            job,
            runtime,
            discovered: Discovered {
                shortlist,
                stale,
                excluded,
            },
        };
        live_query_chain(sim, self, id, pending, AfterSweep::Select(selection));
    }
}
