//! Columnar-matchmaking equivalence: the SoA `AdSnapshot` path must be
//! bit-identical to the map-based compiled path over arbitrary ads and
//! requirements, epoch deltas must re-match exactly the dirty sites with
//! outcomes identical to a full re-match, and the columnar `ParallelMatcher`
//! engine must reproduce the map engine's outcome vector at every thread
//! count.

use std::sync::Arc;

use cg_jdl::{Ad, JobDescription, Value};
use cg_site::AdSnapshot;
use cg_trace::EventLog;
use crossbroker::{
    filter_candidates_columnar, filter_candidates_compiled, CompiledJob, IncrementalMatch, JobId,
    MatchRequest, ParallelMatcher, ShardedJobTable, DEFAULT_SHARDS,
};
use proptest::prelude::*;

/// Arbitrary machine ads exercising every column edge the map path has:
/// missing or wrong-typed `FreeCpus` (⇒ 0), missing `AcceptsQueued`
/// (⇒ true), missing `Site` (⇒ `"<unnamed>"` fallback in the candidate),
/// plus the attributes the requirement/rank pools reference.
fn ad_strategy() -> impl Strategy<Value = Ad> {
    (
        (
            prop::option::of(prop_oneof![(0i64..40).prop_map(Some), Just(None)]),
            prop::option::of(any::<bool>()),
            prop::option::of(0usize..3),
        ),
        (
            prop::collection::vec(0usize..2, 0..3),
            any::<bool>(),
            prop::option::of(0u8..4),
        ),
    )
        .prop_map(|((free, accepts, name), (tags, i686, speed))| {
            let mut ad = Ad::new();
            match free {
                Some(Some(n)) => {
                    ad.set_int("FreeCpus", n);
                }
                Some(None) => {
                    ad.set_str("FreeCpus", "busted"); // wrong type ⇒ treated as 0
                }
                None => {}
            }
            if let Some(b) = accepts {
                ad.set_bool("AcceptsQueued", b);
            }
            if let Some(n) = name {
                ad.set_str("Site", format!("site{n}"));
            }
            let list = tags
                .into_iter()
                .map(|t| {
                    Value::Str(if t == 0 {
                        "CROSSGRID".into()
                    } else {
                        "MPI".into()
                    })
                })
                .collect();
            ad.set("Tags", Value::List(list));
            ad.set_str("Arch", if i686 { "i686" } else { "sparc" });
            if let Some(s) = speed {
                ad.set_double("SpeedFactor", f64::from(s) * 0.5 + 0.5);
            }
            ad
        })
}

/// Requirement/rank pools covering the compiled paths: plain comparisons,
/// `member()`, an always-erroring expression, `isUndefined`, and absent.
const REQUIREMENTS: [&str; 5] = [
    "",
    "Requirements = other.FreeCpus >= NodeNumber && member(\"CROSSGRID\", other.Tags);",
    "Requirements = other.Arch == \"i686\";",
    "Requirements = other.FreeCpus + \"oops\" == 3;",
    "Requirements = isUndefined(other.MemoryMb);",
];
const RANKS: [&str; 3] = [
    "",
    "Rank = other.FreeCpus * other.SpeedFactor;",
    "Rank = 0 - other.FreeCpus;",
];

fn make_job(req: usize, rank: usize, nodes: u32) -> JobDescription {
    let src = format!(
        r#"Executable = "a"; JobType = {{"interactive","mpich-p4"}}; NodeNumber = {nodes};
           {} {}"#,
        REQUIREMENTS[req], RANKS[rank],
    );
    JobDescription::parse(&src).unwrap()
}

proptest! {
    /// Bit-identity: over arbitrary ads and every requirement/rank pool
    /// entry, the columnar filter produces exactly the map-based compiled
    /// filter's candidates — same order, same names (including the
    /// `"<unnamed>"` fallback), bit-identical ranks.
    #[test]
    fn columnar_filtering_is_bit_identical_to_the_map_path(
        ads in prop::collection::vec(ad_strategy(), 0..12),
        req in 0usize..REQUIREMENTS.len(),
        rank in 0usize..RANKS.len(),
        nodes in 1u32..5,
    ) {
        let job = make_job(req, rank, nodes);
        let compiled = CompiledJob::prepare(&job);
        let indexed: Vec<(usize, Ad)> = ads.iter().cloned().enumerate().collect();
        let snap = AdSnapshot::build(ads);
        for require_free in [true, false] {
            let map = filter_candidates_compiled(&job, &compiled, &indexed, require_free);
            let col = filter_candidates_columnar(&job, &compiled, &snap, require_free);
            prop_assert_eq!(map.len(), col.len(), "candidate count differs");
            for (a, b) in map.iter().zip(&col) {
                prop_assert_eq!(a.site_index, b.site_index);
                prop_assert_eq!(&a.site, &b.site);
                prop_assert_eq!(
                    a.rank.to_bits(), b.rank.to_bits(),
                    "rank bits differ at site {}", a.site_index
                );
                prop_assert_eq!(a.free_cpus, b.free_cpus);
            }
        }
    }

    /// Legacy-refresh equivalence: the information index publishes a tick as
    /// `apply_delta` over the sites whose shared ad is not the snapshot's
    /// own allocation. Over arbitrary ad churn — sites that change and
    /// change back between ticks, sites read by a live query in between,
    /// sites whose publish path is down — that chain equals the `advance`
    /// chain over the same inputs: columns, ads, per-site epochs, dirty sets.
    #[test]
    fn delta_refresh_is_bit_identical_to_advance(
        initial in prop::collection::vec(ad_strategy(), 1..8),
        rounds in prop::collection::vec(
            (
                prop::collection::vec((any::<usize>(), ad_strategy(), any::<bool>()), 0..6),
                any::<u8>(),
            ),
            1..6,
        ),
    ) {
        let n = initial.len();
        // What each site would publish right now, and its memoized shared
        // ad: rebuilt on a read that finds it out of date, never otherwise.
        let mut truth = initial.clone();
        let mut shared: Vec<Arc<Ad>> = initial.iter().cloned().map(Arc::new).collect();
        fn read(truth: &[Ad], shared: &mut [Arc<Ad>], i: usize) {
            if *shared[i] != truth[i] {
                shared[i] = Arc::new(truth[i].clone());
            }
        }
        let mut by_delta = AdSnapshot::build_shared(shared.clone());
        let mut by_advance = AdSnapshot::build(initial);
        for (muts, down) in rounds {
            for (pick, ad, live_query) in muts {
                let i = pick % n;
                truth[i] = ad;
                if live_query {
                    read(&truth, &mut shared, i);
                }
            }
            let mut changes = Vec::new();
            let mut fresh = Vec::new();
            for i in 0..n {
                if down >> i & 1 == 1 {
                    // A down publish path keeps the stale column.
                    fresh.push(by_advance.ad(i).clone());
                    continue;
                }
                read(&truth, &mut shared, i);
                fresh.push(truth[i].clone());
                if !Arc::ptr_eq(&shared[i], by_delta.ad_arc(i)) {
                    changes.push((i, Arc::clone(&shared[i])));
                }
            }
            let before = by_delta.epoch();
            by_delta = by_delta.apply_delta(&changes);
            by_advance = by_advance.advance(fresh);
            prop_assert_eq!(by_delta.epoch(), by_advance.epoch());
            prop_assert_eq!(
                by_delta.dirty_since(before).collect::<Vec<_>>(),
                by_advance.dirty_since(before).collect::<Vec<_>>()
            );
            for i in 0..n {
                prop_assert_eq!(by_delta.ad(i), by_advance.ad(i), "ad of site {}", i);
                prop_assert_eq!(by_delta.site_epoch(i), by_advance.site_epoch(i));
                prop_assert_eq!(by_delta.free_cpus(i), by_advance.free_cpus(i));
                prop_assert_eq!(by_delta.accepts_queued(i), by_advance.accepts_queued(i));
                prop_assert_eq!(by_delta.site_name(i), by_advance.site_name(i));
            }
        }
    }

    /// Epoch deltas: a refresh that changes one site bumps exactly that
    /// site's epoch, the incremental matcher recomputes exactly the dirty
    /// sites, and its assembled candidate list is identical to a full
    /// columnar re-match after every step.
    #[test]
    fn epoch_deltas_rematch_only_dirty_sites(
        frees in prop::collection::vec(0i64..8, 1..10),
        muts in prop::collection::vec((any::<usize>(), 0i64..8), 0..12),
    ) {
        let job = make_job(0, 0, 2);
        let compiled = CompiledJob::prepare(&job);
        let build = |frees: &[i64]| -> Vec<Ad> {
            frees
                .iter()
                .enumerate()
                .map(|(i, &f)| {
                    let mut ad = Ad::new();
                    ad.set_str("Site", format!("s{i}"))
                        .set_int("FreeCpus", f)
                        .set_bool("AcceptsQueued", true);
                    ad
                })
                .collect()
        };
        let mut working = frees;
        let mut snap = AdSnapshot::build(build(&working));
        let mut inc = IncrementalMatch::new(true);
        let first = inc.rematch(&job, &compiled, &snap);
        prop_assert_eq!(first, filter_candidates_columnar(&job, &compiled, &snap, true));
        prop_assert_eq!(inc.last_rematched(), working.len(), "first call is a full pass");
        for (pick, new_free) in muts {
            let i = pick % working.len();
            let changed = working[i] != new_free;
            working[i] = new_free;
            let next = snap.advance(build(&working));
            prop_assert_eq!(next.epoch(), snap.epoch() + 1);
            let dirty: Vec<usize> = next.dirty_since(snap.epoch()).collect();
            if changed {
                prop_assert_eq!(dirty, vec![i], "exactly the mutated site is dirty");
            } else {
                prop_assert!(dirty.is_empty(), "a same-content refresh dirties nothing");
            }
            let got = inc.rematch(&job, &compiled, &next);
            let full = filter_candidates_columnar(&job, &compiled, &next, true);
            prop_assert_eq!(got, full, "incremental result diverged from full re-match");
            prop_assert_eq!(inc.last_rematched(), usize::from(changed));
            snap = next;
        }
    }
}

/// The columnar engine reproduces the map engine's outcome vector — same
/// seed, same ads, every thread count — which is what lets the broker swap
/// stores without perturbing a single selection.
#[test]
fn parallel_matcher_columnar_engine_is_bit_identical_to_map_engine() {
    let ads: Vec<Ad> = (0..200)
        .map(|i| {
            let mut ad = Ad::new();
            ad.set_str("Site", format!("s{i}"))
                .set_int("FreeCpus", (i % 5) as i64)
                .set_bool("AcceptsQueued", i % 3 != 0);
            if i % 2 == 0 {
                ad.set("Tags", Value::List(vec![Value::Str("CROSSGRID".into())]));
                ad.set_double("SpeedFactor", 1.0 + (i % 4) as f64 * 0.25);
            }
            ad
        })
        .collect();
    let requests: Vec<MatchRequest> = (0..300)
        .map(|i| {
            let nodes = 1 + i % 3;
            let src = if i % 2 == 0 {
                format!(
                    r#"Executable = "iapp"; JobType = {{"interactive","mpich-p4"}};
                       NodeNumber = {nodes};
                       Requirements = member("CROSSGRID", other.Tags);
                       Rank = other.FreeCpus * other.SpeedFactor;"#
                )
            } else {
                r#"Executable = "bapp"; JobType = "batch";"#.to_string()
            };
            MatchRequest {
                id: JobId(i as u64),
                job: JobDescription::parse(&src).unwrap(),
            }
        })
        .collect();

    let snap = Arc::new(AdSnapshot::build(ads));
    let map_engine = ParallelMatcher::from_indexed(snap.indexed_ads(), 0xC055);
    let col_engine = ParallelMatcher::from_snapshot(Arc::clone(&snap), 0xC055);
    let run = |engine: &ParallelMatcher, threads: usize| {
        let log = EventLog::new(requests.len() * 4);
        let table = ShardedJobTable::new(DEFAULT_SHARDS);
        engine.run(&requests, threads, &log, &table)
    };
    let base = run(&map_engine, 1);
    for threads in [1, 2, 4] {
        assert_eq!(
            run(&col_engine, threads),
            base,
            "columnar engine diverged from the map engine at {threads} threads"
        );
    }
}
