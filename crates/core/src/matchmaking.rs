//! Matchmaking: filtering sites against job requirements, ranking, and the
//! paper's randomized selection among equals.

use cg_jdl::{Ad, CompiledExpr, Ctx, JobDescription, SiteSet};
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
/// only ever borrows. This walks the raw AST and is the oracle the compiled
/// paths ([`filter_one`], [`filter_candidates_columnar`]) are held to.
pub fn filter_candidates<A: std::borrow::Borrow<Ad>>(
    job: &JobDescription,
    ads: &[(usize, A)],
    require_free_cpus: bool,
) -> Vec<Candidate> {
    let requirements = job.requirements();
    let rank = job.rank();
    ads.iter()
        .filter_map(|(site_index, ad)| {
            let ad = ad.borrow();
            let free = admitted_free_cpus(job, ad, require_free_cpus)?;
            let ctx = Ctx {
                own: &job.ad,
                other: ad,
            };
            // Undefined or false ⇒ no match; eval errors ⇒ no match (a
            // malformed requirement must not crash the broker).
            if requirements
                .as_ref()
                .is_some_and(|req| !matches!(req.eval_requirement(ctx), Ok(true)))
            {
                return None;
            }
            Some(Candidate {
                site_index: *site_index,
                rank: rank
                    .as_ref()
                    .map_or(free as f64, |r| r.eval_rank(ctx).unwrap_or(0.0)),
                free_cpus: free,
            })
        })
        .collect()
}

/// A job's matchmaking expressions compiled by the submit-time analyzer
/// ([`cg_jdl::analyze`]): own attributes substituted, constants folded,
/// lookup keys pre-lowercased. The broker caches one of these per job so
/// the per-site selection loop never re-walks the raw AST.
///
/// Invariant: each field is `Some` exactly when the job declares that
/// expression — [`CompiledJob::prepare`] and the analyzer build it so. The
/// compiled paths read nothing else: a raw expression without its
/// compiled form would be ignored.
#[derive(Debug, Clone)]
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

/// The admission test every filter opens with: the ad's free CPUs when it
/// has room for the whole job now or, on the batch path, at least a queue
/// that accepts it; `None` otherwise.
fn admitted_free_cpus(job: &JobDescription, ad: &Ad, require_free_cpus: bool) -> Option<i64> {
    // `get_norm` with the lower-cased names: `Ad::get` would allocate a
    // lower-cased copy of each key per ad.
    let free = ad
        .get_norm("freecpus")
        .and_then(|v| v.as_i64())
        .unwrap_or(0);
    let accepts = || {
        ad.get_norm("acceptsqueued")
            .and_then(|v| v.as_bool())
            .unwrap_or(true)
    };
    (free >= job.node_number as i64 || (!require_free_cpus && accepts())).then_some(free)
}

/// [`filter_candidates`] for one ad over pre-compiled expressions —
/// identical semantics, without AST walks over the job's own attributes:
/// the candidate `ad` makes at `site_index`, or `None` when it does not
/// match. The live re-check calls this per changed site, so it allocates
/// nothing.
pub fn filter_one(
    job: &JobDescription,
    compiled: &CompiledJob,
    site_index: usize,
    ad: &Ad,
    require_free_cpus: bool,
) -> Option<Candidate> {
    let free = admitted_free_cpus(job, ad, require_free_cpus)?;
    if compiled
        .requirements
        .as_ref()
        .is_some_and(|req| !req.matches(&job.ad, ad))
    {
        return None;
    }
    Some(Candidate {
        site_index,
        // Default rank: prefer more free CPUs (the EDG broker default).
        rank: compiled
            .rank
            .as_ref()
            .map_or(free as f64, |r| r.rank(&job.ad, ad)),
        free_cpus: free,
    })
}

/// [`filter_one`] over every site of a columnar [`AdSnapshot`] — identical
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
    if let Some(creq) = &compiled.requirements {
        creq.bind(&job.ad, snap.columns(), snap.ads())
            .retain_matches(&mut alive);
    }
    let crank = compiled
        .rank
        .as_ref()
        .map(|c| c.bind(&job.ad, snap.columns(), snap.ads()));
    alive
        .iter()
        .map(|i| {
            let free = snap.free_cpus(i);
            Candidate {
                site_index: i,
                // Default rank: prefer more free CPUs (the EDG broker default).
                rank: crank.as_ref().map_or(free as f64, |c| c.rank(i)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{coallocate_with, select_detailed_with, FreeCpusRank, PolicySignals};
    use cg_sim::SimRng;

    /// Selection under the default policy (the score is the rank).
    fn select_by_rank(candidates: &[Candidate], rng: &mut SimRng) -> Selection {
        select_detailed_with(&FreeCpusRank, &PolicySignals::new(), candidates, rng)
    }

    /// Co-allocation under the default policy.
    fn coallocate_by_rank(candidates: &[Candidate], nodes: u32) -> Option<Vec<(usize, u32)>> {
        coallocate_with(&FreeCpusRank, &PolicySignals::new(), candidates, nodes)
    }

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
        assert_eq!(select_by_rank(&c, &mut rng).winner.unwrap().site_index, 1);
    }

    #[test]
    fn explicit_rank_wins_over_default() {
        let j = job(
            r#"Executable = "a"; Rank = 0 - other.FreeCpus;"#, // prefer FEWER cpus
        );
        let ads = vec![(0, site_ad("a", 2, "i686")), (1, site_ad("b", 9, "i686"))];
        let c = filter_candidates(&j, &ads, true);
        let mut rng = SimRng::new(1);
        assert_eq!(select_by_rank(&c, &mut rng).winner.unwrap().site_index, 0);
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
            seen.insert(select_by_rank(&c, &mut rng).winner.unwrap().site_index);
        }
        assert_eq!(seen.len(), 4, "all tied sites get picked over time");
    }

    #[test]
    fn empty_candidates_select_none() {
        let mut rng = SimRng::new(1);
        assert!(select_by_rank(&[], &mut rng).winner.is_none());
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
            cg_jdl::Value::List([cg_jdl::Value::Str("CROSSGRID".into())].into()),
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
                let fast: Vec<Candidate> = ads
                    .iter()
                    .filter_map(|(i, ad)| filter_one(&j, &compiled, *i, ad, require_free))
                    .collect();
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
            cg_jdl::Value::List([cg_jdl::Value::Str("CROSSGRID".into())].into()),
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
                let map: Vec<Candidate> = indexed
                    .iter()
                    .filter_map(|(i, ad)| filter_one(&j, &compiled, *i, ad, require_free))
                    .collect();
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
        let sel = select_by_rank(&c, &mut rng);
        assert_eq!(sel.winner.as_ref().unwrap().site_index, 1);
        let discarded: Vec<usize> = sel.nan_discarded.iter().map(|c| c.site_index).collect();
        assert_eq!(discarded, vec![0, 2], "every NaN candidate is reported");
    }

    #[test]
    fn all_nan_candidate_set_selects_nothing() {
        let mut rng = SimRng::new(7);
        let c = vec![cand(0, f64::NAN, 4), cand(1, f64::NAN, 4)];
        let sel = select_by_rank(&c, &mut rng);
        assert!(sel.winner.is_none());
        assert_eq!(sel.nan_discarded.len(), 2);
        assert!(select_by_rank(&c, &mut rng).winner.is_none());
    }

    #[test]
    fn ties_require_exact_rank_equality() {
        // 1e9 vs 1e9 + 1: under the old absolute-epsilon test these could
        // never tie anyway, but 1.0 vs 1.0 + 5e-13 *did* — the epsilon
        // blurred genuinely different ranks into one tie group.
        let close = vec![cand(0, 1.0, 4), cand(1, 1.0 + 5e-13, 4)];
        let mut rng = SimRng::new(3);
        for _ in 0..50 {
            let w = select_by_rank(&close, &mut rng).winner.unwrap();
            assert_eq!(w.site_index, 1, "the strictly larger rank always wins");
        }
        // Bit-identical ranks still tie and spread.
        let tied = vec![cand(0, 1.0, 4), cand(1, 1.0, 4)];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(select_by_rank(&tied, &mut rng).winner.unwrap().site_index);
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn negative_infinity_is_a_real_rank_unlike_nan() {
        // -inf is comparable ("worst possible") and selectable when it is
        // all there is; NaN is not a rank at all.
        let mut rng = SimRng::new(1);
        let c = vec![cand(0, f64::NEG_INFINITY, 4)];
        assert_eq!(select_by_rank(&c, &mut rng).winner.unwrap().site_index, 0);
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
        let plan = coallocate_by_rank(&c, j.node_number).unwrap();
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
        assert!(coallocate_by_rank(&c, 10).is_none());
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
            coallocate_by_rank(&c, 5).is_none(),
            "planner refuses plans that need queued capacity"
        );
        // A 4-node job fits entirely on leasable capacity and never touches
        // the queued site.
        let plan = coallocate_by_rank(&c, 4).unwrap();
        assert_eq!(plan, vec![(0, 4)]);
    }

    #[test]
    fn coallocation_plan_is_deterministic_under_ties() {
        // Equal rank, equal pool: ordering falls through to site_index, so
        // repeated planning gives byte-identical plans.
        let c = vec![cand(2, 1.0, 4), cand(0, 1.0, 4), cand(1, 1.0, 4)];
        let first = coallocate_by_rank(&c, 10).unwrap();
        assert_eq!(first, vec![(0, 4), (1, 4), (2, 2)]);
        for _ in 0..10 {
            assert_eq!(coallocate_by_rank(&c, 10).unwrap(), first);
        }
        // A NaN rank orders after real ranks (total_cmp) instead of making
        // the comparator panic or the order run-dependent.
        let with_nan = vec![cand(0, f64::NAN, 4), cand(1, 0.0, 4)];
        assert_eq!(
            coallocate_by_rank(&with_nan, 6).unwrap(),
            vec![(1, 4), (0, 2)]
        );
    }
}
