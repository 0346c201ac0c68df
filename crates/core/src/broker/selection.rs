//! Selection: turning candidates into a [`Plan`]. The matched paths
//! re-check the live ads, score them with the job's policy and record the
//! `PolicyDecision`; the shared paths plan from the broker's own knowledge
//! of its agent pool ("a combined step inside CrossBroker", §6.1).

use std::collections::HashSet;
use std::sync::Arc;

use cg_jdl::{Ad, Interactivity, JobDescription, Parallelism};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::AdSnapshot;
use cg_trace::Event;
use cg_vm::AgentId;

use super::commit::{Plan, Refusal, Slot};
use super::discovery::{requires_full_site, Discovered};
use super::CrossBroker;
use crate::job::{JobId, JobState};
use crate::matchmaking::{filter_candidates_compiled, Candidate, CompiledJob};
use crate::policy::{
    coallocate_with, select_detailed_with, PolicyKind, PolicySignals, SiteSignals,
};

/// LRMS walltime derived from the job's `EstimatedRuntime` (4× safety
/// factor, the usual operator convention); `None` when undeclared.
fn declared_walltime(job: &JobDescription) -> Option<SimDuration> {
    job.estimated_runtime_s
        .map(|s| SimDuration::from_secs_f64(s * 4.0))
}

impl CrossBroker {
    /// The effective selection policy for a job: its own JDL
    /// `SelectionPolicy` when the name is registered (the analyzer already
    /// warned about unknown spellings), otherwise the broker default.
    fn policy_for(&self, job: &JobDescription) -> PolicyKind {
        job.selection_policy
            .as_deref()
            .and_then(PolicyKind::parse)
            .unwrap_or(self.inner.borrow().config.selection_policy)
    }

    /// Snapshots the per-site signals the policies score `candidates`
    /// against: current and forecast LRMS queue depth, nominal broker-link
    /// RTT, the consecutive lease-failure counter, and the age of the
    /// site's information-index column. Selection reads signals at
    /// candidate indices only, so no other site is sampled.
    fn site_signals(&self, now: SimTime, candidates: &[Candidate]) -> PolicySignals {
        let inner = self.inner.borrow();
        let mut signals = PolicySignals::new();
        for i in candidates.iter().map(|c| c.site_index) {
            let s = &inner.sites[i];
            signals.set(
                i,
                SiteSignals {
                    queue_depth: s.site.lrms().queue_depth() as i64,
                    queue_forecast: inner.queue_forecast.forecast(i),
                    rtt_s: s.broker_link.nominal_rtt().as_secs_f64(),
                    lease_failures: s.lease_failures,
                    staleness_s: inner.index.staleness(i, now).as_secs_f64(),
                },
            );
        }
        signals
    }

    /// Re-checks the live ads against the job. A site whose live ad *is*
    /// the allocation discovery matched — the site's shared machine ad has
    /// not changed since the index published it — was already evaluated:
    /// its stale candidate moves across as it is. Only a site whose ad is a
    /// different allocation is matched again, on the fresh ad. The result
    /// is what re-matching every live ad would give, in site-index order.
    fn recheck(
        &self,
        job: &JobDescription,
        compiled: &CompiledJob,
        usable: Vec<(usize, Arc<Ad>)>,
        shortlist: Vec<Candidate>,
        snapshot: &AdSnapshot,
    ) -> Vec<Candidate> {
        let mut stale = shortlist.into_iter().peekable();
        let mut candidates = Vec::with_capacity(usable.len());
        let mut reused = 0;
        for live in &usable {
            let (i, ad) = live;
            while stale.next_if(|c| c.site_index < *i).is_some() {}
            if Arc::ptr_eq(ad, snapshot.ad_arc(*i)) {
                reused += 1;
                candidates.extend(stale.next_if(|c| c.site_index == *i));
            } else {
                candidates.extend(filter_candidates_compiled(
                    job,
                    compiled,
                    std::slice::from_ref(live),
                    requires_full_site(job),
                ));
            }
        }
        let inner = self.inner.borrow();
        inner.metrics.add("selection.live_ads_reused", reused);
        let rematched = usable.len() as u64 - reused;
        inner.metrics.add("selection.live_ads_rematched", rematched);
        candidates
    }

    /// The live sweep is back: re-check the fresh ads, let the policy pick,
    /// and commit the resulting plan.
    pub(super) fn finish_selection(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
        live_ads: Vec<(usize, Arc<Ad>)>,
        discovered: Discovered,
    ) {
        let Discovered {
            shortlist,
            stale,
            excluded,
        } = discovered;
        // Retired (cancelled, failed) while the sweep was in flight.
        let Some(compiled) = self.compiled_for(id) else {
            return;
        };
        let now = sim.now();
        {
            let inner = self.inner.borrow_mut();
            inner.jobs.update(id, |r| r.selected_at = Some(now));
        }
        // Exclude leased sites, and sites the failure detector demoted
        // while the live queries were in flight.
        let usable: Vec<(usize, Arc<Ad>)> = {
            let inner = self.inner.borrow();
            live_ads
                .into_iter()
                .filter(|(i, _)| {
                    inner.sites[*i].leased_until <= now && inner.index.is_schedulable(*i)
                })
                .collect()
        };
        let candidates = self.recheck(&job, &compiled, usable, shortlist, &stale);
        if candidates.is_empty() {
            self.no_candidates(sim, id, job, runtime);
            return;
        }

        let kind = self.policy_for(&job);
        let signals = self.site_signals(now, &candidates);
        let policy = kind.policy();
        let decide = |c: &Candidate| {
            let inner = self.inner.borrow();
            inner.trace.record(
                now,
                Event::PolicyDecision {
                    job: id.0,
                    policy: kind.name().to_string(),
                    site: inner.sites[c.site_index].site.name().to_string(),
                    score: policy.score(c, &signals.get(c.site_index)),
                },
            );
        };

        if job.parallelism == Parallelism::MpichG2 && job.node_number > 1 {
            let Some(sites) = coallocate_with(policy, &signals, &candidates, job.node_number)
            else {
                self.no_candidates(sim, id, job, runtime);
                return;
            };
            for &(site_index, _) in &sites {
                decide(
                    candidates
                        .iter()
                        .find(|c| c.site_index == site_index)
                        .expect("planned site is a candidate"),
                );
            }
            // MPICH-G2 co-allocation: the job is interactive-ready when
            // every subjob's console has delivered its first output. The
            // plan promised immediately leasable CPUs, so an interactive
            // subjob that queues (the live view raced a local submission)
            // is withdrawn and the whole job fails cleanly rather than
            // sitting wedged behind a queue.
            let plan = Plan {
                summary: Some(format!("{} sites", sites.len())),
                refuse_queued: job.is_interactive(),
                ..Plan::new(
                    sites
                        .into_iter()
                        .map(|(index, nodes)| Slot::Site { index, nodes })
                        .collect(),
                    Refusal::Fail {
                        withdrawn: "withdrawn by broker (co-allocation)",
                        reason: "co-allocated subjob queued instead of starting",
                    },
                )
            };
            self.commit(sim, id, job, runtime, plan);
            return;
        }

        let selection = select_detailed_with(policy, &signals, &candidates, sim.rng());
        if !selection.nan_discarded.is_empty() {
            let inner = self.inner.borrow();
            for c in &selection.nan_discarded {
                inner.trace.record(
                    now,
                    Event::RankNanDiscarded {
                        job: id.0,
                        site: inner.sites[c.site_index].site.name().to_string(),
                    },
                );
            }
        }
        let Some(chosen) = selection.winner else {
            self.no_candidates(sim, id, job, runtime);
            return;
        };
        decide(&chosen);
        let slot = Slot::Site {
            index: chosen.site_index,
            nodes: job.node_number,
        };
        if job.interactivity == Interactivity::Batch {
            self.lease(now, id, &slot);
            self.submit_batch_with_agent(sim, id, chosen.site_index, job, runtime);
        } else {
            // Exclusive-mode interactive submission (§5.2 arrow 3): through
            // the gatekeeper, no agent; on-line scheduling resubmits
            // elsewhere if the subjob queues instead of starting.
            let plan = Plan {
                refuse_queued: self.inner.borrow().config.resubmit_on_queue,
                walltime: declared_walltime(&job),
                ..Plan::new(vec![slot], Refusal::Resubmit { excluded })
            };
            self.commit(sim, id, job, runtime, plan);
        }
    }

    pub(super) fn no_candidates(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
    ) {
        if job.interactivity == Interactivity::Batch {
            // §5.2 arrow 2: wait in the broker for a machine to become idle.
            self.park(sim, id, job, runtime);
        } else {
            self.fail(sim, id, "no resources match the interactive job", false);
        }
    }

    // ------------------------------------------------------------------
    // Shared paths — §5.2 arrow 4
    // ------------------------------------------------------------------

    /// Discovery+selection are "a combined step inside CrossBroker" using
    /// local agent information only (§6.1).
    fn mark_locally_matched(&self, id: JobId, now: SimTime) {
        let inner = self.inner.borrow_mut();
        inner
            .jobs
            .update(id, |r| {
                r.state = JobState::Matching;
                r.discovered_at = Some(now);
                r.selected_at = Some(now);
            })
            .expect("job exists");
    }

    /// Live agents with a free interactive slot whose lease allows, in
    /// ascending id order (deterministic).
    fn free_agents(&self, now: SimTime) -> Vec<AgentId> {
        let inner = self.inner.borrow();
        let mut picks: Vec<AgentId> = inner
            .agents
            .iter()
            .filter(|(_, e)| e.leased_until <= now && e.agent.borrow().interactive_free() >= 1)
            .map(|(aid, _)| *aid)
            .collect();
        picks.sort();
        picks
    }

    /// A sequential shared job runs on one agent's interactive-vm.
    pub(super) fn shared_path(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
    ) {
        let now = sim.now();
        self.mark_locally_matched(id, now);
        // A dispatch-time race (the agent died, vanished or lost its slot
        // between selection and delegation) resubmits: another agent, or an
        // idle node, may still take the job.
        let plan = |aid| Plan {
            restamp: true,
            charge_at_start: true,
            ..Plan::new(
                vec![Slot::AgentInteractive(aid)],
                Refusal::Resubmit {
                    excluded: HashSet::new(),
                },
            )
        };
        if let Some(&aid) = self.free_agents(now).first() {
            self.commit(sim, id, job, runtime, plan(aid));
            return;
        }
        // "If no free interactive agents are found, CrossBroker searches
        // for an idle machine and submits the agent and the application in
        // a similar way as it does for a batch job."
        let idle_site = {
            let inner = self.inner.borrow();
            (0..inner.sites.len()).find(|&i| {
                let s = &inner.sites[i];
                s.leased_until <= now
                    && s.site.lrms().free_nodes() >= 1
                    && inner.index.is_schedulable(i)
            })
        };
        let Some(index) = idle_site else {
            // "If there are not enough machines (with or without agents) to
            // execute an interactive application, its submission will fail."
            self.fail(sim, id, "no machines available for interactive job", false);
            return;
        };
        self.lease(now, id, &Slot::Site { index, nodes: 1 });
        self.deploy_agent_at(sim, index, move |sim, broker, aid| match aid {
            Some(aid) => broker.dispatch(sim, id, job, runtime, plan(aid)),
            None => broker.fail(sim, id, "agent deployment failed", false),
        });
    }

    /// Combination path for parallel shared jobs (§5.2): free interactive-vm
    /// slots host subjobs first, idle machines (direct gatekeeper
    /// submissions, one console per allocated node) cover the remainder.
    /// The job starts when every subjob's console has delivered output and
    /// finishes with its last subjob; it fails outright if agents plus idle
    /// machines cannot cover `NodeNumber` — an interactive application never
    /// waits and never preempts another interactive application.
    pub(super) fn shared_parallel_path(
        &self,
        sim: &mut Sim,
        id: JobId,
        job: JobDescription,
        runtime: SimDuration,
    ) {
        let now = sim.now();
        self.mark_locally_matched(id, now);

        // 1. Claim free agent slots (one subjob each).
        let mut agents = self.free_agents(now);
        agents.truncate(job.node_number as usize);
        let mut left = job.node_number - agents.len() as u32;
        let mut slots: Vec<Slot> = agents.into_iter().map(Slot::AgentInteractive).collect();
        let agent_slots = slots.len();

        // 2. Cover the remainder with idle machines (unleased sites).
        if left > 0 {
            let inner = self.inner.borrow();
            let mut order: Vec<usize> = (0..inner.sites.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(inner.sites[i].site.lrms().free_nodes()));
            for index in order {
                let e = &inner.sites[index];
                let free = e.site.lrms().free_nodes() as u32;
                if left == 0 {
                    break;
                }
                if e.leased_until > now || !inner.index.is_schedulable(index) || free == 0 {
                    continue;
                }
                let nodes = free.min(left);
                slots.push(Slot::Site { index, nodes });
                left -= nodes;
            }
        }
        if left > 0 {
            let reason =
                "not enough machines (with or without agents) for the parallel interactive job";
            self.fail(sim, id, reason, false);
            return;
        }

        // 3. Lease and dispatch everything we are about to use. The live
        //    view may race a local submission; this path does not resubmit
        //    — the queued copy is withdrawn and the job fails cleanly.
        let plan = Plan {
            summary: Some(format!(
                "{agent_slots} agent slot(s) + {} site(s)",
                slots.len() - agent_slots
            )),
            restamp: true,
            console_per_node: true,
            wait_all_tasks: true,
            fixed_session: true,
            ..Plan::new(
                slots,
                Refusal::Fail {
                    withdrawn: "withdrawn by broker (idle machine stolen)",
                    reason: "idle machine stolen mid-submission",
                },
            )
        };
        self.commit(sim, id, job, runtime, plan);
    }
}
