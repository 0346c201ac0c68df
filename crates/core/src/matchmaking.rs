//! Matchmaking: filtering sites against job requirements, ranking, and the
//! paper's randomized selection among equals.

use cg_jdl::{Ad, CompiledExpr, Ctx, Expr, JobDescription, SiteSet};
use cg_sim::SimRng;
use cg_site::AdSnapshot;

/// One candidate after filtering, with its rank. Selection builds one per
/// shortlisted site per job, so it carries numbers only; whoever needs the
/// site's name has the list `site_index` points into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Index into the site list the ads came from.
    pub site_index: usize,
    /// Rank value (higher is better; ClassAd convention).
    pub rank: f64,
    /// Free CPUs advertised.
    pub free_cpus: i64,
}

/// Filters machine ads against the job's `Requirements` plus the broker's
/// built-in constraints (enough free CPUs for the node count — or queueable
/// for batch jobs). Accepts owned ads or `Arc`-shared ones — the filter
/// only ever borrows.
pub fn filter_candidates<A: std::borrow::Borrow<Ad>>(
    job: &JobDescription,
    ads: &[(usize, A)],
    require_free_cpus: bool,
) -> Vec<Candidate> {
    filter_candidates_inner(job, None, ads, require_free_cpus)
}

/// A job's matchmaking expressions compiled by the submit-time analyzer
/// ([`cg_jdl::analyze`]): own attributes substituted, constants folded,
/// lookup keys pre-lowercased. The broker caches one of these per job so
/// the per-site selection loop never re-walks the raw AST.
#[derive(Debug, Clone, Default)]
pub struct CompiledJob {
    /// Compiled `Requirements`, when the job declares one.
    pub requirements: Option<CompiledExpr>,
    /// Compiled `Rank`, when the job declares one.
    pub rank: Option<CompiledExpr>,
}

impl CompiledJob {
    /// Compiles a job's expressions directly, without running the full
    /// analyzer (used when an `Analysis` is not already at hand).
    pub fn prepare(job: &JobDescription) -> CompiledJob {
        CompiledJob {
            requirements: job
                .requirements()
                .map(|e| CompiledExpr::compile(&e, &job.ad)),
            rank: job.rank().map(|e| CompiledExpr::compile(&e, &job.ad)),
        }
    }
}

/// [`filter_candidates`] over pre-compiled expressions — identical
/// semantics, without per-site AST walks over the job's own attributes.
pub fn filter_candidates_compiled<A: std::borrow::Borrow<Ad>>(
    job: &JobDescription,
    compiled: &CompiledJob,
    ads: &[(usize, A)],
    require_free_cpus: bool,
) -> Vec<Candidate> {
    filter_candidates_inner(job, Some(compiled), ads, require_free_cpus)
}

fn filter_candidates_inner<A: std::borrow::Borrow<Ad>>(
    job: &JobDescription,
    compiled: Option<&CompiledJob>,
    ads: &[(usize, A)],
    require_free_cpus: bool,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    // As in the columnar pass: a raw expression is read only where there
    // is no compiled form.
    let creq = compiled.and_then(|c| c.requirements.as_ref());
    let crank = compiled.and_then(|c| c.rank.as_ref());
    let raw_requirements = creq.is_none().then(|| job.requirements()).flatten();
    let raw_rank = crank.is_none().then(|| job.rank()).flatten();
    for (site_index, ad) in ads {
        let ad = ad.borrow();
        // `get_norm` with the lower-cased names: `Ad::get` would allocate a
        // lower-cased copy of each key per ad.
        let free = ad
            .get_norm("freecpus")
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        if require_free_cpus && free < job.node_number as i64 {
            continue;
        }
        if !require_free_cpus {
            // Batch path: the site must at least accept queued jobs.
            let accepts = ad
                .get_norm("acceptsqueued")
                .and_then(|v| v.as_bool())
                .unwrap_or(true);
            if free < job.node_number as i64 && !accepts {
                continue;
            }
        }
        // Undefined or false ⇒ no match; eval errors ⇒ no match (a
        // malformed requirement must not crash the broker).
        let matched = match (creq, &raw_requirements) {
            (Some(creq), _) => creq.matches(&job.ad, ad),
            (None, Some(req)) => {
                let ctx = Ctx {
                    own: &job.ad,
                    other: ad,
                };
                matches!(req.eval_requirement(ctx), Ok(true))
            }
            (None, None) => true,
        };
        if !matched {
            continue;
        }
        let rank = match (crank, &raw_rank) {
            (Some(crank), _) => crank.rank(&job.ad, ad),
            (None, Some(r)) => eval_rank_or_default(r, job, ad),
            // Default rank: prefer more free CPUs (the EDG broker default).
            (None, None) => free as f64,
        };
        out.push(Candidate {
            site_index: *site_index,
            rank,
            free_cpus: free,
        });
    }
    out
}

fn eval_rank_or_default(rank: &Expr, job: &JobDescription, ad: &Ad) -> f64 {
    let ctx = Ctx {
        own: &job.ad,
        other: ad,
    };
    rank.eval_rank(ctx).unwrap_or(0.0)
}

/// [`filter_candidates_compiled`] over a columnar [`AdSnapshot`] — identical
/// semantics and bit-identical candidates, computed column by column: the
/// admission test and then each top-level conjunct of `Requirements` narrow
/// one bitset of sites ([`cg_jdl::BoundExpr::retain_matches`]), and only the
/// sites left in it are ranked. Every attribute is read from its
/// column by site index; no ad is searched by name.
pub fn filter_candidates_columnar(
    job: &JobDescription,
    compiled: &CompiledJob,
    snap: &AdSnapshot,
    require_free_cpus: bool,
) -> Vec<Candidate> {
    let nodes = job.node_number as i64;
    let mut alive = SiteSet::full(snap.len());
    // Admission is the first conjunct: room for the whole job now or, on
    // the batch path, at least a queue that accepts it.
    alive.retain(|i| snap.free_cpus(i) >= nodes || (!require_free_cpus && snap.accepts_queued(i)));
    // Undefined or false ⇒ no match; eval errors ⇒ no match (a malformed
    // requirement must not crash the broker).
    // The raw expressions are read out of the job's ad only where there is
    // no compiled form to evaluate instead.
    if let Some(creq) = &compiled.requirements {
        creq.bind(&job.ad, snap.columns(), snap.ads())
            .retain_matches(&mut alive);
    } else if let Some(req) = job.requirements() {
        alive.retain(|i| {
            let ctx = Ctx {
                own: &job.ad,
                other: snap.ad(i),
            };
            matches!(req.eval_requirement(ctx), Ok(true))
        });
    }
    let crank = compiled
        .rank
        .as_ref()
        .map(|c| c.bind(&job.ad, snap.columns(), snap.ads()));
    let raw_rank = crank.is_none().then(|| job.rank()).flatten();
    alive
        .iter()
        .map(|i| {
            let free = snap.free_cpus(i);
            let rank = match (&crank, &raw_rank) {
                (Some(crank), _) => crank.rank(i),
                (None, Some(r)) => eval_rank_or_default(r, job, snap.ad(i)),
                // Default rank: prefer more free CPUs (the EDG broker default).
                (None, None) => free as f64,
            };
            Candidate {
                site_index: i,
                rank,
                free_cpus: free,
            }
        })
        .collect()
}

/// Result of a selection pass: the winner (if any) plus the candidates the
/// pass had to discard because their `Rank` evaluated to NaN. The broker
/// traces one diagnostic per discarded candidate so a misbehaving `Rank`
/// expression (e.g. `0.0/0.0`) is visible instead of silently shrinking the
/// candidate pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The chosen candidate, `None` when no candidate has a comparable rank.
    pub winner: Option<Candidate>,
    /// Candidates excluded because their rank was NaN.
    pub nan_discarded: Vec<Candidate>,
}

/// Picks the winner: best rank, with **randomized selection** among
/// rank-ties — "used to generate different answers when there are multiple
/// resource choices" (§3), which also prevents broker herds.
///
/// Ties are detected with exact [`f64::total_cmp`] equality: two sites tie
/// only when their ranks are the same float, never "close enough" under an
/// absolute epsilon (which tied 1e9 with 1e9+1e-13 but not 1e-13 with 0).
/// NaN ranks are excluded up front and reported in
/// [`Selection::nan_discarded`]; an all-NaN candidate set selects nothing.
pub fn select_detailed(candidates: &[Candidate], rng: &mut SimRng) -> Selection {
    crate::policy::select_detailed_with(
        &crate::policy::FreeCpusRank,
        &crate::policy::PolicySignals::new(),
        candidates,
        rng,
    )
}

/// [`select_detailed`] with the diagnostics dropped — the winner only.
pub fn select(candidates: &[Candidate], rng: &mut SimRng) -> Option<Candidate> {
    select_detailed(candidates, rng).winner
}

/// Greedy MPICH-G2 co-allocation: spread `nodes` across candidate sites,
/// biggest free pool first. Returns `(site_index, nodes_there)` or `None`
/// when the grid cannot host the job.
///
/// The planner's contract with dispatch: a plan claims **immediately
/// leasable** capacity only. Candidates at zero free CPUs (admitted into
/// the candidate list by the batch filter when the site `AcceptsQueued`)
/// are excluded here — queued capacity cannot host a co-allocated subjob
/// now, and a plan built on it would "succeed" only to stall at the
/// gatekeeper. The dispatch side enforces the same contract by failing the
/// job if a planned subjob queues anyway (a plan/dispatch race).
///
/// The plan is deterministic under ties: sites are ordered by free pool
/// (descending), then rank (descending, [`f64::total_cmp`] so NaN orders
/// last instead of poisoning the sort), then site index (ascending).
pub fn coallocate(candidates: &[Candidate], nodes: u32) -> Option<Vec<(usize, u32)>> {
    crate::policy::coallocate_with(
        &crate::policy::FreeCpusRank,
        &crate::policy::PolicySignals::new(),
        candidates,
        nodes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site_ad(name: &str, free: i64, arch: &str) -> Ad {
        let mut ad = Ad::new();
        ad.set_str("Site", name)
            .set_str("Arch", arch)
            .set_int("FreeCpus", free)
            .set_int("TotalCpus", free.max(4))
            .set_bool("AcceptsQueued", true);
        ad
    }

    fn job(src: &str) -> JobDescription {
        JobDescription::parse(src).unwrap()
    }

    #[test]
    fn requirements_filter_sites() {
        let j = job(
            r#"Executable = "a"; JobType = {"interactive","mpich-p4"}; NodeNumber = 4;
               Requirements = other.Arch == "i686";"#,
        );
        let ads = vec![
            (0, site_ad("big-sparc", 16, "sparc")),
            (1, site_ad("small-i686", 2, "i686")),
            (2, site_ad("big-i686", 8, "i686")),
        ];
        let c = filter_candidates(&j, &ads, true);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].site_index, 2, "big-i686");
    }

    #[test]
    fn default_rank_prefers_free_cpus() {
        let j = job(r#"Executable = "a";"#);
        let ads = vec![(0, site_ad("a", 2, "i686")), (1, site_ad("b", 9, "i686"))];
        let c = filter_candidates(&j, &ads, true);
        let mut rng = SimRng::new(1);
        assert_eq!(select(&c, &mut rng).unwrap().site_index, 1);
    }

    #[test]
    fn explicit_rank_wins_over_default() {
        let j = job(
            r#"Executable = "a"; Rank = 0 - other.FreeCpus;"#, // prefer FEWER cpus
        );
        let ads = vec![(0, site_ad("a", 2, "i686")), (1, site_ad("b", 9, "i686"))];
        let c = filter_candidates(&j, &ads, true);
        let mut rng = SimRng::new(1);
        assert_eq!(select(&c, &mut rng).unwrap().site_index, 0);
    }

    #[test]
    fn randomized_selection_spreads_ties() {
        let j = job(r#"Executable = "a"; Rank = 1;"#);
        let ads: Vec<(usize, Ad)> = (0..4)
            .map(|i| (i, site_ad(&format!("s{i}"), 4, "i686")))
            .collect();
        let c = filter_candidates(&j, &ads, true);
        let mut rng = SimRng::new(42);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(select(&c, &mut rng).unwrap().site_index);
        }
        assert_eq!(seen.len(), 4, "all tied sites get picked over time");
    }

    #[test]
    fn empty_candidates_select_none() {
        let mut rng = SimRng::new(1);
        assert!(select(&[], &mut rng).is_none());
    }

    #[test]
    fn malformed_requirement_excludes_instead_of_crashing() {
        let j = job(r#"Executable = "a"; Requirements = other.FreeCpus + "oops" == 3;"#);
        let ads = vec![(0, site_ad("x", 4, "i686"))];
        assert!(filter_candidates(&j, &ads, true).is_empty());
    }

    #[test]
    fn batch_jobs_accept_queueing_sites() {
        let j = job(r#"Executable = "a";"#);
        let mut full = site_ad("full", 0, "i686");
        full.set_bool("AcceptsQueued", true);
        let mut closed = site_ad("closed", 0, "i686");
        closed.set_bool("AcceptsQueued", false);
        let ads = vec![(0, full), (1, closed)];
        let c = filter_candidates(&j, &ads, false);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].site_index, 0, "full");
        // Interactive path (require_free_cpus) rejects both.
        assert!(filter_candidates(&j, &ads, true).is_empty());
    }

    #[test]
    fn compiled_path_agrees_with_raw_eval() {
        let jobs = [
            r#"Executable = "a"; JobType = {"interactive","mpich-p4"}; NodeNumber = 2;
               Requirements = other.FreeCpus >= NodeNumber && member("CROSSGRID", other.Tags);
               Rank = other.FreeCpus * other.SpeedFactor;"#,
            r#"Executable = "a"; Requirements = other.Arch == "i686";"#,
            r#"Executable = "a"; Rank = 0 - other.FreeCpus;"#,
            r#"Executable = "a"; Requirements = other.FreeCpus + "oops" == 3;"#,
            r#"Executable = "a";"#,
        ];
        let mut tagged = site_ad("tagged", 6, "i686");
        tagged.set(
            "Tags",
            cg_jdl::Value::List(vec![cg_jdl::Value::Str("CROSSGRID".into())]),
        );
        tagged.set_double("SpeedFactor", 1.5);
        let ads = vec![
            (0, site_ad("plain", 4, "i686")),
            (1, tagged),
            (2, site_ad("sparc", 16, "sparc")),
        ];
        for src in jobs {
            let j = job(src);
            let compiled = CompiledJob::prepare(&j);
            for require_free in [true, false] {
                let raw = filter_candidates(&j, &ads, require_free);
                let fast = filter_candidates_compiled(&j, &compiled, &ads, require_free);
                assert_eq!(raw.len(), fast.len(), "{src}");
                for (a, b) in raw.iter().zip(&fast) {
                    assert_eq!(a.site_index, b.site_index, "{src}");
                    assert_eq!(a.rank, b.rank, "{src}");
                    assert_eq!(a.free_cpus, b.free_cpus, "{src}");
                }
            }
        }
    }

    #[test]
    fn columnar_path_agrees_with_compiled_path() {
        let jobs = [
            r#"Executable = "a"; JobType = {"interactive","mpich-p4"}; NodeNumber = 2;
               Requirements = other.FreeCpus >= NodeNumber && member("CROSSGRID", other.Tags);
               Rank = other.FreeCpus * other.SpeedFactor;"#,
            r#"Executable = "a"; Requirements = other.Arch == "i686";"#,
            r#"Executable = "a"; Rank = 0 - other.FreeCpus;"#,
            r#"Executable = "a"; Requirements = other.FreeCpus + "oops" == 3;"#,
            r#"Executable = "a";"#,
        ];
        let mut tagged = site_ad("tagged", 6, "i686");
        tagged.set(
            "Tags",
            cg_jdl::Value::List(vec![cg_jdl::Value::Str("CROSSGRID".into())]),
        );
        tagged.set_double("SpeedFactor", 1.5);
        let mut unnamed = site_ad("x", 4, "i686");
        unnamed.remove("Site"); // a candidate is its index; the name is not consulted
        let ads = vec![
            site_ad("plain", 4, "i686"),
            tagged,
            site_ad("sparc", 16, "sparc"),
            unnamed,
        ];
        let indexed: Vec<(usize, Ad)> = ads.iter().cloned().enumerate().collect();
        let snap = AdSnapshot::build(ads);
        for src in jobs {
            let j = job(src);
            let compiled = CompiledJob::prepare(&j);
            for require_free in [true, false] {
                let map = filter_candidates_compiled(&j, &compiled, &indexed, require_free);
                let col = filter_candidates_columnar(&j, &compiled, &snap, require_free);
                assert_eq!(map, col, "{src} require_free={require_free}");
            }
        }
    }

    fn cand(site_index: usize, rank: f64, free: i64) -> Candidate {
        Candidate {
            site_index,
            rank,
            free_cpus: free,
        }
    }

    #[test]
    fn nan_ranks_are_discarded_not_silently_skipped() {
        let mut rng = SimRng::new(7);
        let c = vec![cand(0, f64::NAN, 4), cand(1, 2.0, 4), cand(2, f64::NAN, 4)];
        let sel = select_detailed(&c, &mut rng);
        assert_eq!(sel.winner.as_ref().unwrap().site_index, 1);
        let discarded: Vec<usize> = sel.nan_discarded.iter().map(|c| c.site_index).collect();
        assert_eq!(discarded, vec![0, 2], "every NaN candidate is reported");
    }

    #[test]
    fn all_nan_candidate_set_selects_nothing() {
        let mut rng = SimRng::new(7);
        let c = vec![cand(0, f64::NAN, 4), cand(1, f64::NAN, 4)];
        let sel = select_detailed(&c, &mut rng);
        assert!(sel.winner.is_none());
        assert_eq!(sel.nan_discarded.len(), 2);
        assert!(select(&c, &mut rng).is_none());
    }

    #[test]
    fn ties_require_exact_rank_equality() {
        // 1e9 vs 1e9 + 1: under the old absolute-epsilon test these could
        // never tie anyway, but 1.0 vs 1.0 + 5e-13 *did* — the epsilon
        // blurred genuinely different ranks into one tie group.
        let close = vec![cand(0, 1.0, 4), cand(1, 1.0 + 5e-13, 4)];
        let mut rng = SimRng::new(3);
        for _ in 0..50 {
            let w = select(&close, &mut rng).unwrap();
            assert_eq!(w.site_index, 1, "the strictly larger rank always wins");
        }
        // Bit-identical ranks still tie and spread.
        let tied = vec![cand(0, 1.0, 4), cand(1, 1.0, 4)];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(select(&tied, &mut rng).unwrap().site_index);
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn negative_infinity_is_a_real_rank_unlike_nan() {
        // -inf is comparable ("worst possible") and selectable when it is
        // all there is; NaN is not a rank at all.
        let mut rng = SimRng::new(1);
        let c = vec![cand(0, f64::NEG_INFINITY, 4)];
        assert_eq!(select(&c, &mut rng).unwrap().site_index, 0);
    }

    #[test]
    fn coallocation_spreads_over_sites() {
        let j = job(r#"Executable = "a"; JobType = {"interactive","mpich-g2"}; NodeNumber = 10;"#);
        let ads = vec![
            (0, site_ad("a", 6, "i686")),
            (1, site_ad("b", 3, "i686")),
            (2, site_ad("c", 2, "i686")),
        ];
        let c = filter_candidates(&j, &ads, false);
        let plan = coallocate(&c, j.node_number).unwrap();
        let total: u32 = plan.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 10);
        assert_eq!(plan[0], (0, 6), "biggest pool first");
        assert_eq!(plan[1], (1, 3));
        assert_eq!(plan[2], (2, 1));
    }

    #[test]
    fn coallocation_fails_when_grid_too_small() {
        let ads = vec![(0, site_ad("a", 3, "i686"))];
        let j = job(r#"Executable = "a"; JobType = {"interactive","mpich-g2"}; NodeNumber = 10;"#);
        let c = filter_candidates(&j, &ads, false);
        assert!(coallocate(&c, 10).is_none());
    }

    #[test]
    fn coallocation_never_plans_on_queued_capacity() {
        // The batch filter admits an AcceptsQueued site at 0 free CPUs into
        // the candidate list; the planner must not count it. With 4 free
        // CPUs at site 0 and only queued capacity at site 1, a 5-node job
        // has no valid plan — planning 4+1 would hand dispatch a subjob
        // the gatekeeper can only queue, never lease.
        let j = job(r#"Executable = "a"; JobType = {"interactive","mpich-g2"}; NodeNumber = 5;"#);
        let ads = vec![
            (0, site_ad("small", 4, "i686")),
            (1, site_ad("full", 0, "i686")),
        ];
        let c = filter_candidates(&j, &ads, false);
        assert_eq!(c.len(), 2, "the batch filter admits the queueing site");
        assert!(
            coallocate(&c, 5).is_none(),
            "planner refuses plans that need queued capacity"
        );
        // A 4-node job fits entirely on leasable capacity and never touches
        // the queued site.
        let plan = coallocate(&c, 4).unwrap();
        assert_eq!(plan, vec![(0, 4)]);
    }

    #[test]
    fn coallocation_plan_is_deterministic_under_ties() {
        // Equal rank, equal pool: ordering falls through to site_index, so
        // repeated planning gives byte-identical plans.
        let c = vec![cand(2, 1.0, 4), cand(0, 1.0, 4), cand(1, 1.0, 4)];
        let first = coallocate(&c, 10).unwrap();
        assert_eq!(first, vec![(0, 4), (1, 4), (2, 2)]);
        for _ in 0..10 {
            assert_eq!(coallocate(&c, 10).unwrap(), first);
        }
        // A NaN rank orders after real ranks (total_cmp) instead of making
        // the comparator panic or the order run-dependent.
        let with_nan = vec![cand(0, f64::NAN, 4), cand(1, 0.0, 4)];
        assert_eq!(coallocate(&with_nan, 6).unwrap(), vec![(1, 4), (0, 2)]);
    }
}
