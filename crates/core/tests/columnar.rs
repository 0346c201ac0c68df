//! Columnar-matchmaking equivalence: the `AdSnapshot` pass must be
//! bit-identical to the map-based compiled path and — over a wider pool of
//! expression shapes and cell types — to the raw AST walker, whose
//! evaluator the columnar path shares no tree walk with; a snapshot reached
//! through a chain of deltas must carry the columns a fresh build of the
//! same ads carries.

use std::sync::Arc;

use cg_jdl::{parse_expr, Ad, JobDescription, Value};
use cg_site::AdSnapshot;
use crossbroker::{
    filter_candidates, filter_candidates_columnar, filter_candidates_compiled, Candidate,
    CompiledJob,
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

/// What the `Mixed` attribute of [`wide_ad_strategy`] holds: every cell
/// type a column has, so that one column is an integer at one site, a string
/// at another, a stored expression at a third and missing at a fourth.
/// Stored expressions evaluate in the machine's frame (`other` is the job):
/// one reads the job, one the machine's own possibly wrong-typed `FreeCpus`,
/// one is undefined, one is an error.
fn mixed_values() -> Vec<Value> {
    let stored = |src: &str| Value::Expr(parse_expr(src).unwrap());
    vec![
        Value::Int(7),
        Value::Int(2),
        Value::Str("seven".into()),
        Value::Str("SEVEN".into()),
        Value::Double(3.5),
        Value::Bool(true),
        Value::Bool(false),
        Value::List(vec![Value::Int(7), Value::Str("x".into())]),
        stored("other.NodeNumber + 5"),
        stored("FreeCpus > 1"),
        stored("1 / 0"),
        stored("!3"),
    ]
}

/// [`ad_strategy`] plus a delimited-string attribute and the shape-shifting
/// `Mixed`, and sometimes without `Tags` — the attribute that sorts last, so
/// that deltas also drop an ad's final slot.
fn wide_ad_strategy() -> impl Strategy<Value = Ad> {
    (
        ad_strategy(),
        prop::option::of(prop::sample::select(mixed_values())),
        prop::option::of(0usize..3),
        0u8..4,
    )
        .prop_map(|(mut ad, mixed, env, tags)| {
            if tags == 0 {
                ad.remove("Tags");
            }
            if let Some(value) = mixed {
                ad.set("Mixed", value);
            }
            if let Some(e) = env {
                ad.set_str("Env", ["CROSSGRID, MPI", "mpi", "glite;Mpi"][e]);
            }
            ad
        })
}

/// Requirement shapes the columnar pass treats differently: conjuncts it
/// runs over a column (comparisons either way round, a bare flag,
/// `member`), ones it walks site by site (`||`, `!`, a ternary, `&&` under
/// `||`, calls), and conjunctions whose order it changes — an erroring
/// conjunct before and after a false or an undefined one.
const WIDE_REQUIREMENTS: [&str; 30] = [
    "other.FreeCpus >= 2 || other.Arch == \"SPARC\"",
    "!(other.Arch == \"i686\")",
    "!other.AcceptsQueued",
    "other.AcceptsQueued",
    "other.AcceptsQueued && other.FreeCpus > 3 && member(\"mpi\", other.Tags)",
    "other.FreeCpus > 4 ? other.Arch == \"I686\" : member(\"mpi\", other.Tags)",
    "(other.FreeCpus >= 1 && other.Arch == \"i686\") || member(\"CROSSGRID\", other.Tags)",
    "other.FreeCpus + \"oops\" == 3 && other.Arch == \"nope\"",
    "other.Arch == \"nope\" && other.FreeCpus + \"oops\" == 3",
    "other.FreeCpus + \"oops\" == 3 && other.NoSuch > 1",
    "other.NoSuch > 1 && other.FreeCpus + \"oops\" == 3",
    "member(\"crossgrid\", other.Tags) && other.FreeCpus + \"oops\" == 3 && other.FreeCpus > 1",
    "other.Arch < \"J\"",
    "\"SPARC\" == other.Arch",
    "\"j\" > other.Arch && other.Arch != \"I686\"",
    "other.Arch >= \"I686\" && other.Arch <= \"i686\"",
    "stringListMember(\"mpi\", other.Env)",
    "stringListMember(other.Arch, \"I686;alpha\", \";\") && other.FreeCpus >= 1",
    "other.Mixed > 3",
    "3 < other.Mixed && other.FreeCpus >= NodeNumber",
    "other.Mixed == \"seven\"",
    "other.Mixed != 7",
    "other.Mixed",
    "other.Mixed && other.FreeCpus > 0",
    "member(7, other.Mixed)",
    "member(\"Seven\", other.Mixed) || member(other.Arch, other.Tags)",
    "isUndefined(other.Mixed) || other.Mixed != 7",
    "other.SpeedFactor * 2 > 2.5 && other.FreeCpus % 2 == 0",
    "other.FreeCpus > 1 && (other.Mixed > 3 || isUndefined(other.Mixed)) && other.Site != \"site1\"",
    "other.FreeCpus == 3.0 && other.SpeedFactor >= 1",
];
const WIDE_RANKS: [&str; 7] = [
    "",
    "Rank = other.FreeCpus * other.SpeedFactor;",
    "Rank = other.Mixed;",
    "Rank = other.FreeCpus > 2 ? other.SpeedFactor : 0 - other.FreeCpus;",
    "Rank = min(other.FreeCpus, 3) + real(other.Mixed);",
    "Rank = other.Arch;",
    "Rank = other.Mixed * 2 - other.NoSuch;",
];

fn make_wide_job(req: usize, rank: usize, nodes: u32) -> JobDescription {
    let src = format!(
        r#"Executable = "a"; JobType = {{"interactive","mpich-p4"}}; NodeNumber = {nodes};
           Requirements = {}; {}"#,
        WIDE_REQUIREMENTS[req], WIDE_RANKS[rank],
    );
    JobDescription::parse(&src).unwrap()
}

/// Index, rank bits and free CPUs of every candidate, in order.
fn assert_same_candidates(want: &[Candidate], got: &[Candidate]) {
    let key = |c: &Candidate| (c.site_index, c.rank.to_bits(), c.free_cpus);
    assert_eq!(
        want.iter().map(key).collect::<Vec<_>>(),
        got.iter().map(key).collect::<Vec<_>>()
    );
}

/// Every column of either snapshot, cell for cell (a column one of them
/// never needed is all-missing in the other).
fn assert_same_columns(a: &AdSnapshot, b: &AdSnapshot) {
    assert_eq!(a.len(), b.len());
    for (name, _) in a.columns().iter().chain(b.columns().iter()) {
        for i in 0..a.len() {
            assert_eq!(
                a.columns().cell(name, i),
                b.columns().cell(name, i),
                "column {name} at site {i}"
            );
        }
    }
}

proptest! {
    /// Bit-identity: over arbitrary ads and every requirement/rank pool
    /// entry, the columnar filter produces exactly the map-based compiled
    /// filter's candidates — same sites in the same order, bit-identical
    /// ranks.
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
            assert_same_columns(&by_delta, &by_advance);
        }
    }

    /// The oracle is the raw AST walker, which shares no tree walk with the
    /// columnar pass: over the wide requirement, rank and cell-type pools
    /// the columnar filter returns the raw walker's candidates bit for bit —
    /// from a freshly built snapshot and from one reached through a chain
    /// of deltas in which attributes change type, appear and disappear,
    /// whose columns are those of the fresh build.
    #[test]
    fn columnar_filtering_is_bit_identical_to_the_raw_walker(
        initial in prop::collection::vec(wide_ad_strategy(), 1..10),
        rounds in prop::collection::vec(
            prop::collection::vec((any::<usize>(), wide_ad_strategy()), 0..5),
            0..4,
        ),
        req in 0usize..WIDE_REQUIREMENTS.len(),
        rank in 0usize..WIDE_RANKS.len(),
        nodes in 1u32..5,
    ) {
        let n = initial.len();
        let mut ads = initial.clone();
        let mut chained = AdSnapshot::build(initial);
        for round in rounds {
            let changes: Vec<(usize, Arc<Ad>)> = round
                .into_iter()
                .map(|(pick, ad)| (pick % n, Arc::new(ad)))
                .collect();
            for (i, ad) in &changes {
                ads[*i] = (**ad).clone();
            }
            chained = chained.apply_delta(&changes);
        }
        let fresh = AdSnapshot::build(ads.clone());
        assert_same_columns(&fresh, &chained);

        let job = make_wide_job(req, rank, nodes);
        let compiled = CompiledJob::prepare(&job);
        let indexed: Vec<(usize, Ad)> = ads.into_iter().enumerate().collect();
        for require_free in [true, false] {
            let raw = filter_candidates(&job, &indexed, require_free);
            for snap in [&fresh, &chained] {
                let col = filter_candidates_columnar(&job, &compiled, snap, require_free);
                assert_same_candidates(&raw, &col);
            }
        }
    }
}

/// One column that is an integer at one site, a string at another, a stored
/// expression at a third and missing at a fourth — and then changes under
/// every one of them — read by every conjunct shape: the hand-checked case
/// behind the proptest above.
#[test]
fn a_column_of_every_cell_type_matches_like_the_raw_walker() {
    let site = |name: &str, mixed: Option<Value>| {
        let mut ad = Ad::new();
        ad.set_str("Site", name)
            .set_int("FreeCpus", 4)
            .set_str("Arch", "i686");
        if let Some(v) = mixed {
            ad.set("Mixed", v);
        }
        ad
    };
    let stored = |src: &str| Value::Expr(parse_expr(src).unwrap());
    let before = vec![
        site("int", Some(Value::Int(7))),
        site("str", Some(Value::Str("seven".into()))),
        site("expr", Some(stored("other.NodeNumber + 5"))),
        site("missing", None),
        site("bool", Some(Value::Bool(true))),
    ];
    let after = vec![
        site("int", Some(Value::Str("7".into()))),
        site("str", None),
        site("expr", Some(Value::Int(1))),
        site("missing", Some(stored("FreeCpus > 1"))),
        site("bool", Some(Value::Double(7.0))),
    ];
    let s0 = AdSnapshot::build(before.clone());
    let changes: Vec<(usize, Arc<Ad>)> = after.iter().cloned().map(Arc::new).enumerate().collect();
    let s1 = s0.apply_delta(&changes);
    assert_same_columns(&s1, &AdSnapshot::build(after.clone()));

    let names = |c: Vec<Candidate>, snap: &AdSnapshot| {
        c.into_iter()
            .map(|c| snap.site_name(c.site_index).expect("named").to_string())
            .collect::<Vec<_>>()
    };
    let run = |req: &str, ads: &[Ad], snap: &AdSnapshot| {
        let job = JobDescription::parse(&format!(
            r#"Executable = "a"; JobType = {{"interactive","mpich-p4"}}; NodeNumber = 2;
               Requirements = {req}; Rank = other.Mixed;"#
        ))
        .unwrap();
        let indexed: Vec<(usize, Ad)> = ads.iter().cloned().enumerate().collect();
        let raw = filter_candidates(&job, &indexed, true);
        let col = filter_candidates_columnar(&job, &CompiledJob::prepare(&job), snap, true);
        assert_same_candidates(&raw, &col);
        names(col, snap)
    };
    // 7, "seven" (no order against a number), 2 + 5, undefined, true.
    assert_eq!(run("other.Mixed > 3", &before, &s0), ["int", "expr"]);
    assert_eq!(run("other.Mixed == \"SEVEN\"", &before, &s0), ["str"]);
    assert_eq!(run("other.Mixed", &before, &s0), ["bool"]);
    assert_eq!(run("member(7, other.Mixed)", &before, &s0), ["int"]);
    // "7", gone, 1, (4 > 1), 7.0.
    assert_eq!(run("other.Mixed > 3", &after, &s1), ["bool"]);
    assert_eq!(run("other.Mixed", &after, &s1), ["missing"]);
    assert_eq!(run("member(7, other.Mixed)", &after, &s1), ["bool"]);
    assert_eq!(
        run("other.Mixed != 7 && other.FreeCpus > 1", &after, &s1),
        ["int", "expr", "missing"]
    );
}
