//! Discovery: the first of the paper's two matchmaking steps (§6.1) — one
//! query to the information system, the stale-information shortlist over
//! its columnar snapshot, and the gates that keep excluded, distrusted and
//! dead sites off the live sweep.
//!
//! The shortlist depends on the job only through what it matches with, and
//! the snapshot changes once per index refresh, so jobs that match alike
//! over one snapshot share one pass ([`ShortlistMemo`]).

use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

use cg_jdl::{CompiledExpr, JobDescription, Parallelism, Value};
use cg_net::NetError;
use cg_sim::{Sim, SimDuration};
use cg_site::{AdSnapshot, MembershipState};
use cg_trace::{Event, MetricsRegistry};

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

/// Most shortlists one snapshot keeps. Jobs draw from a handful of
/// `Requirements`/`Rank` templates; a snapshot that meets more signatures
/// than this matches the rest per job.
const SHORTLISTS_PER_SNAPSHOT: usize = 32;

/// The stale shortlists of the current snapshot, by matching signature.
///
/// Over one snapshot, [`filter_candidates_columnar`] is a function of the
/// job's compiled `Requirements` and `Rank`, its node count and whether one
/// site must host it all — as long as evaluation cannot read the job's own
/// ad. It can when a compiled tree [`reads_own`](CompiledExpr::reads_own)
/// and when a machine ad stores an expression (evaluated with the job as
/// `other`):
/// such a job, or any job over such a snapshot, is matched on its own.
#[derive(Default)]
pub(super) struct ShortlistMemo {
    /// The snapshot the shortlists were matched over, compared by pointer;
    /// holding it keeps its address from being reused.
    snapshot: Option<Arc<AdSnapshot>>,
    /// Whether some ad of `snapshot` stores an expression.
    stores_expr: bool,
    shortlists: Vec<(Signature, Rc<[Candidate]>)>,
}

/// What a shortlist depends on besides the snapshot: the compiled
/// expressions of the job that matched first, its node count and its
/// [`requires_full_site`].
struct Signature {
    compiled: Rc<CompiledJob>,
    nodes: u32,
    full_site: bool,
}

impl Signature {
    fn matches(&self, compiled: &CompiledJob, nodes: u32, full_site: bool) -> bool {
        let same = |a: &Option<CompiledExpr>, b: &Option<CompiledExpr>| match (a, b) {
            (Some(a), Some(b)) => a.same_as(b),
            (a, b) => a.is_none() && b.is_none(),
        };
        self.nodes == nodes
            && self.full_site == full_site
            && same(&self.compiled.requirements, &compiled.requirements)
            && same(&self.compiled.rank, &compiled.rank)
    }
}

/// Whether matching can read the job's own ad (see [`ShortlistMemo`]).
fn reads_own_ad(compiled: &CompiledJob) -> bool {
    [&compiled.requirements, &compiled.rank]
        .into_iter()
        .flatten()
        .any(CompiledExpr::reads_own)
}

impl ShortlistMemo {
    /// `job`'s stale shortlist over `snap`, in site-index order: the one a
    /// job that matches alike left here, or a new pass — kept for the next
    /// such job while there is room.
    fn shortlist(
        &mut self,
        job: &JobDescription,
        compiled: &Rc<CompiledJob>,
        snap: &Arc<AdSnapshot>,
        metrics: &MetricsRegistry,
    ) -> Rc<[Candidate]> {
        if !self.snapshot.as_ref().is_some_and(|s| Arc::ptr_eq(s, snap)) {
            self.stores_expr = snap
                .ads()
                .iter()
                .any(|ad| ad.slots().any(|(_, v)| matches!(v, Value::Expr(_))));
            self.snapshot = Some(Arc::clone(snap));
            self.shortlists.clear();
        }
        let full_site = requires_full_site(job);
        let shareable = !self.stores_expr && !reads_own_ad(compiled);
        if shareable {
            let found = self
                .shortlists
                .iter()
                .find(|(sig, _)| sig.matches(compiled, job.node_number, full_site));
            if let Some((_, shortlist)) = found {
                metrics.add("discovery.shortlists_shared", 1);
                return Rc::clone(shortlist);
            }
        }
        metrics.add("discovery.shortlists_built", 1);
        let shortlist: Rc<[Candidate]> =
            filter_candidates_columnar(job, compiled, snap, full_site).into();
        if shareable && self.shortlists.len() < SHORTLISTS_PER_SNAPSHOT {
            let sig = Signature {
                compiled: Rc::clone(compiled),
                nodes: job.node_number,
                full_site,
            };
            self.shortlists.push((sig, Rc::clone(&shortlist)));
        }
        shortlist
    }
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
                    self.fail(sim, id, "information system unreachable");
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
        // the MDS columnar snapshot in place (no per-query ad clones), or
        // shares the scan of a job that matches alike; per-site matching is
        // independent, so dropping excluded sites after the filter is
        // equivalent to dropping them before.
        let stale_shortlist = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            inner
                .shortlists
                .shortlist(&job, &compiled, &stale, &inner.metrics)
        };
        let shortlist: Vec<Candidate> = stale_shortlist
            .iter()
            .copied()
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

#[cfg(test)]
mod tests {
    use std::rc::Rc;
    use std::sync::Arc;

    use cg_jdl::{parse_expr, Ad, JobDescription, Value};
    use cg_sim::SimRng;
    use cg_site::AdSnapshot;
    use cg_trace::MetricsRegistry;

    use super::{requires_full_site, ShortlistMemo, SHORTLISTS_PER_SNAPSHOT};
    use crate::matchmaking::{filter_candidates_columnar, CompiledJob};

    const SITES: usize = 24;

    /// Jobs that match alike over a snapshot, whatever their own ads say.
    const SHAREABLE: [&str; 5] = [
        r#"Executable = "a"; JobType = "batch"; Requirements = other.TotalCpus >= 6; Rank = -other.FreeCpus;"#,
        r#"Executable = "a"; JobType = {"batch", "mpich-p4"}; NodeNumber = 3; Requirements = other.TotalCpus >= 6; Rank = -other.FreeCpus;"#,
        r#"Executable = "a"; JobType = "interactive"; MachineAccess = "exclusive"; Requirements = other.TotalCpus >= 6; Rank = -other.FreeCpus;"#,
        r#"Executable = "a"; JobType = "interactive"; User = "dave";"#,
        r#"Executable = "a"; JobType = "batch"; Rank = other.FreeCpus * -0.0;"#,
    ];
    /// One `Requirements` text, three own ads: the first two compile to one
    /// tree that reads the stored `Want` (and select differently), the
    /// third folds the ternary onto the branch left to the raw walker.
    const READS_OWN: [&str; 3] = [
        r#"Executable = "a"; JobType = "batch"; UseWant = true; Want = other.TotalCpus - 2;
           Requirements = UseWant ? other.FreeCpus >= Want : other.FreeCpus >= bogus(2);"#,
        r#"Executable = "a"; JobType = "batch"; UseWant = true; Want = other.TotalCpus - 6;
           Requirements = UseWant ? other.FreeCpus >= Want : other.FreeCpus >= bogus(2);"#,
        r#"Executable = "a"; JobType = "batch"; UseWant = false; Want = 1;
           Requirements = UseWant ? other.FreeCpus >= Want : other.FreeCpus >= bogus(2);"#,
    ];
    /// One `Rank` text over a machine attribute that may hold a stored
    /// expression reading the job's `Priority`.
    const READS_BONUS: [&str; 2] = [
        r#"Executable = "a"; JobType = "batch"; Priority = 1; Rank = other.Bonus;"#,
        r#"Executable = "a"; JobType = "batch"; Priority = 3; Rank = other.Bonus;"#,
    ];

    struct Job {
        job: JobDescription,
        compiled: Rc<CompiledJob>,
    }

    fn job(src: &str) -> Job {
        let job = JobDescription::parse(src).expect("valid JDL");
        let compiled = Rc::new(CompiledJob::prepare(&job));
        Job { job, compiled }
    }

    fn machine(i: usize, free: i64) -> Arc<Ad> {
        let mut ad = Ad::new();
        ad.set_str("Site", format!("site{i}"))
            .set_int("FreeCpus", free)
            .set_int("TotalCpus", 4 + (i % 5) as i64)
            .set_bool("AcceptsQueued", !i.is_multiple_of(3));
        Arc::new(ad)
    }

    /// `snap` with site `i`'s ad storing `Bonus = other.Priority * 2`.
    fn with_bonus(snap: &AdSnapshot, i: usize) -> AdSnapshot {
        let mut ad = (**snap.ad_arc(i)).clone();
        let bonus = parse_expr("other.Priority * 2").expect("valid expression");
        ad.set("Bonus", Value::Expr(bonus));
        snap.apply_delta(&[(i, Arc::new(ad))])
    }

    /// The memo's answer, checked against a pass of its own.
    fn shortlist(
        memo: &mut ShortlistMemo,
        snap: &Arc<AdSnapshot>,
        job: &Job,
        metrics: &MetricsRegistry,
    ) -> Vec<(usize, u64, i64)> {
        let bits =
            |c: &crate::matchmaking::Candidate| (c.site_index, c.rank.to_bits(), c.free_cpus);
        let got: Vec<_> = memo
            .shortlist(&job.job, &job.compiled, snap, metrics)
            .iter()
            .map(bits)
            .collect();
        let full_site = requires_full_site(&job.job);
        let direct: Vec<_> = filter_candidates_columnar(&job.job, &job.compiled, snap, full_site)
            .iter()
            .map(bits)
            .collect();
        assert_eq!(got, direct, "{:?}", job.job.ad);
        got
    }

    fn counters(metrics: &MetricsRegistry) -> (u64, u64) {
        (
            metrics.counter("discovery.shortlists_built"),
            metrics.counter("discovery.shortlists_shared"),
        )
    }

    #[test]
    fn a_shared_shortlist_is_the_one_the_job_would_build() {
        let metrics = MetricsRegistry::new();
        let mut memo = ShortlistMemo::default();
        let ads = (0..SITES).map(|i| machine(i, (i % 9) as i64)).collect();
        let mut snap = Arc::new(AdSnapshot::build_shared(ads));

        // Two parses of one text share; a snapshot change starts over.
        let first = shortlist(&mut memo, &snap, &job(SHAREABLE[0]), &metrics);
        shortlist(&mut memo, &snap, &job(SHAREABLE[0]), &metrics);
        assert_eq!(counters(&metrics), (1, 1));
        let mut ad = (**snap.ad_arc(8)).clone();
        ad.set_int("FreeCpus", 0);
        snap = Arc::new(snap.apply_delta(&[(8, Arc::new(ad))]));
        let second = shortlist(&mut memo, &snap, &job(SHAREABLE[0]), &metrics);
        assert_eq!(counters(&metrics), (2, 1));
        assert_ne!(first, second, "the change shows");

        // One tree over two own ads selects differently; neither, nor the
        // raw walker's job, shares.
        let own: Vec<_> = READS_OWN
            .iter()
            .map(|src| shortlist(&mut memo, &snap, &job(src), &metrics))
            .collect();
        let (a, b) = (job(READS_OWN[0]), job(READS_OWN[1]));
        assert_eq!(a.compiled.requirements, b.compiled.requirements);
        assert!(a.compiled.requirements.as_ref().unwrap().reads_own());
        assert!(job(READS_OWN[2])
            .compiled
            .requirements
            .as_ref()
            .unwrap()
            .reads_own());
        assert_ne!(own[0], own[1]);
        assert_eq!(counters(&metrics), (5, 1));

        // `==` takes -0.0 for 0.0; the memo does not.
        let zero = job(&SHAREABLE[4].replace("-0.0", "0.0"));
        assert_eq!(zero.compiled.rank, job(SHAREABLE[4]).compiled.rank);
        let ranks = [
            shortlist(&mut memo, &snap, &zero, &metrics),
            shortlist(&mut memo, &snap, &job(SHAREABLE[4]), &metrics),
        ];
        assert_ne!(ranks[0], ranks[1]);
        assert_eq!(counters(&metrics), (7, 1));

        // A machine ad storing an expression hands it the job: nothing over
        // that snapshot is shared.
        snap = Arc::new(with_bonus(&snap, 5));
        let bonus: Vec<_> = READS_BONUS
            .iter()
            .map(|src| shortlist(&mut memo, &snap, &job(src), &metrics))
            .collect();
        assert_ne!(bonus[0], bonus[1]);
        shortlist(&mut memo, &snap, &job(SHAREABLE[0]), &metrics);
        shortlist(&mut memo, &snap, &job(SHAREABLE[0]), &metrics);
        assert_eq!(counters(&metrics), (11, 1));
    }

    #[test]
    fn a_full_memo_matches_without_keeping() {
        let metrics = MetricsRegistry::new();
        let mut memo = ShortlistMemo::default();
        let snap = Arc::new(AdSnapshot::build_shared(
            (0..SITES).map(|i| machine(i, 4)).collect(),
        ));
        let nth = |k: usize| {
            job(&format!(
                r#"Executable = "a"; JobType = "batch"; Requirements = other.FreeCpus >= {k};"#
            ))
        };
        let kept = SHORTLISTS_PER_SNAPSHOT as u64;
        for k in 0..SHORTLISTS_PER_SNAPSHOT + 4 {
            shortlist(&mut memo, &snap, &nth(k), &metrics);
        }
        shortlist(&mut memo, &snap, &nth(0), &metrics);
        shortlist(&mut memo, &snap, &nth(SHORTLISTS_PER_SNAPSHOT), &metrics);
        assert_eq!(counters(&metrics), (kept + 5, 1));
    }

    #[test]
    fn a_seeded_stream_over_changing_snapshots_matches_direct_evaluation() {
        let metrics = MetricsRegistry::new();
        let mut memo = ShortlistMemo::default();
        let mut rng = SimRng::new(0x0053_484f_5254);
        let ads = (0..SITES)
            .map(|i| machine(i, rng.index(9) as i64))
            .collect();
        // The index's ads evolve by deltas; now and then one snapshot has a
        // site storing an expression.
        let mut plain = AdSnapshot::build_shared(ads);
        let mut snap = Arc::new(plain.clone());
        let sources: Vec<&str> = SHAREABLE
            .iter()
            .chain(&READS_OWN)
            .chain(&READS_BONUS)
            .copied()
            .collect();
        let jobs: Vec<Job> = sources.iter().map(|src| job(src)).collect();
        let rounds = 4_000;
        for _ in 0..rounds {
            if rng.chance(0.05) {
                let changes: Vec<_> = (0..=rng.index(3))
                    .map(|_| {
                        let i = rng.index(SITES);
                        (i, machine(i, rng.index(9) as i64))
                    })
                    .collect();
                plain = plain.apply_delta(&changes);
                snap = Arc::new(if rng.chance(0.3) {
                    with_bonus(&plain, rng.index(SITES))
                } else {
                    plain.clone()
                });
            }
            // Half the time a fresh parse: sharing must not hang on the
            // job's own `Rc`.
            let pick = rng.index(jobs.len());
            if rng.chance(0.5) {
                shortlist(&mut memo, &snap, &jobs[pick], &metrics);
            } else {
                shortlist(&mut memo, &snap, &job(sources[pick]), &metrics);
            }
        }
        let (built, shared) = counters(&metrics);
        assert_eq!(built + shared, rounds);
        assert!(shared > rounds / 4, "{shared} of {rounds} shared");
    }
}
