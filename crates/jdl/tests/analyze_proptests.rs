//! Property tests for the static analyzer and the compiled matchmaking path:
//!
//! 1. Compilation (constant folding + own-ref substitution) preserves the
//!    raw evaluator's semantics *exactly* — same `Ok` value or same
//!    error-ness — on arbitrary expression trees, including ill-typed ones.
//! 2. The broker-facing projections agree: `CompiledExpr::matches` with
//!    `eval_requirement`, `CompiledExpr::rank` with `eval_rank`.
//! 3. Any ad the analyzer accepts (no `Error`-severity diagnostics) never
//!    raises an `EvalError` at match time, against machine ads that may be
//!    missing any subset of the advertised vocabulary.
//! 4. A compiled expression bound to a columnar store of machine ads —
//!    conjuncts split, reordered and run column by column — matches and
//!    ranks every ad exactly as the raw walker does on that ad alone.

use std::sync::Arc;

use cg_jdl::{
    analyze_ad, parse_expr, Ad, BinOp, Columns, CompiledExpr, Ctx, Expr, Scope, SiteSet, Value,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies: arbitrary (possibly ill-typed) expressions and ads
// ---------------------------------------------------------------------------

/// A small pool of attribute names so refs sometimes hit the generated ads
/// and sometimes dangle (evaluating to `undefined`).
const NAMES: &[&str] = &["Alpha", "Beta", "Gamma", "Delta", "Tags"];

fn small_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::Int),
        (-40.0f64..40.0).prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        prop::sample::select(vec!["x", "y", "CROSSGRID", ""]).prop_map(|s| Value::Str(s.into())),
    ]
}

fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        small_scalar(),
        prop::collection::vec(small_scalar(), 0..3).prop_map(|items| Value::List(items.into())),
    ]
}

/// An ad with a random subset of the name pool bound to random values.
fn ad_strategy() -> impl Strategy<Value = Ad> {
    prop::collection::vec((prop::sample::select(NAMES.to_vec()), small_value()), 0..4).prop_map(
        |attrs| {
            let mut ad = Ad::new();
            for (name, value) in attrs {
                ad.set(name, value);
            }
            ad
        },
    )
}

/// [`ad_strategy`], now and then with a stored expression — evaluated in the
/// storing ad's frame, so `other` in it is the job. None refers back to the
/// ad it is stored in: a cyclic ad has no value to compare.
fn storing_ad_strategy() -> impl Strategy<Value = Ad> {
    let stored = prop::sample::select(vec![
        "other.Alpha > 0",
        "other.Beta",
        "1 + 1",
        "\"x\"",
        "true",
        "undefined",
        "!1",
    ]);
    (
        ad_strategy(),
        prop::option::of((prop::sample::select(NAMES.to_vec()), stored)),
    )
        .prop_map(|(mut ad, expr)| {
            if let Some((name, src)) = expr {
                ad.set(name, Value::Expr(parse_expr(src).unwrap()));
            }
            ad
        })
}

fn leaf_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (-50i64..50).prop_map(Expr::Int),
        (-40.0f64..40.0).prop_map(Expr::Double),
        any::<bool>().prop_map(Expr::Bool),
        prop::sample::select(vec!["x", "CROSSGRID"]).prop_map(|s| Expr::Str(s.into())),
        Just(Expr::Undefined),
        prop::sample::select(NAMES.to_vec()).prop_map(|n| Expr::Ref {
            scope: Scope::Bare,
            name: n.into(),
        }),
        prop::sample::select(NAMES.to_vec()).prop_map(|n| Expr::Ref {
            scope: Scope::Other,
            name: n.into(),
        }),
    ]
}

const OPS: &[BinOp] = &[
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
];

/// Arbitrary expression trees: every operator, negations, ternaries, calls
/// (known and unknown, right and wrong arity), over mixed-type leaves.
/// Many are ill-typed or divide by zero — the compiled path must reproduce
/// the raw walker's behaviour on those too, not just on clean inputs.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    leaf_expr().prop_recursive(3, 48, 3, |inner| {
        prop_oneof![
            (
                prop::sample::select(OPS.to_vec()),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, a, b)| Expr::Ternary(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
            (
                prop::sample::select(vec![
                    "member",
                    "isUndefined",
                    "floor",
                    "ceiling",
                    "round",
                    "abs",
                    "min",
                    "max",
                    "int",
                    "real",
                    "bogus",
                ]),
                prop::collection::vec(inner, 0..3),
            )
                .prop_map(|(f, args)| Expr::Call(f.into(), args)),
        ]
    })
}

/// Debug formatting gives exact structural comparison that also treats NaN
/// as equal to itself (both paths run the identical arithmetic kernels, so
/// equal inputs yield bit-identical floats).
fn canon(r: &Result<cg_jdl::Cv, cg_jdl::EvalError>) -> String {
    format!("{r:?}")
}

// ---------------------------------------------------------------------------
// Strategies: vocabulary-conforming job ads and machine ads
// ---------------------------------------------------------------------------

const INT_MACHINE_ATTRS: &[&str] = &[
    "TotalCpus",
    "FreeCpus",
    "QueueDepth",
    "MemoryMb",
    "StorageGb",
];

/// A machine ad advertising a random subset of the cg-site vocabulary, with
/// correctly-typed values. Missing attributes model partial MDS answers and
/// must surface as `undefined`, never as an `EvalError`.
fn machine_ad_strategy() -> impl Strategy<Value = Ad> {
    (
        (
            prop::collection::vec(any::<bool>(), 11..12),
            0i64..64,
            0i64..64,
        ),
        (0i64..20, 128i64..16384, 0i64..500),
        (
            0.5f64..4.0,
            any::<bool>(),
            prop::collection::vec(
                prop::sample::select(vec!["CROSSGRID", "MPI", "STORAGE", "HEP"]),
                0..3,
            ),
        ),
    )
        .prop_map(
            |((keep, total, free), (depth, mem, storage), (speed, queued, tags))| {
                let mut ad = Ad::new();
                let mut k = keep.into_iter();
                let mut put = |name: &str, v: Value| {
                    if k.next().unwrap_or(true) {
                        ad.set(name, v);
                    }
                };
                put("Site", Value::Str("cg-site".into()));
                put("Arch", Value::Str("i686".into()));
                put("OpSys", Value::Str("LINUX".into()));
                put("TotalCpus", Value::Int(total));
                put("FreeCpus", Value::Int(free));
                put("QueueDepth", Value::Int(depth));
                put("MemoryMb", Value::Int(mem));
                put("StorageGb", Value::Int(storage));
                put("SpeedFactor", Value::Double(speed));
                put("AcceptsQueued", Value::Bool(queued));
                put(
                    "Tags",
                    Value::List(tags.into_iter().map(|t| Value::Str(t.into())).collect()),
                );
                ad
            },
        )
}

/// Boolean-valued expressions over the machine vocabulary — the shapes real
/// `Requirements` clauses take. Type-correct by construction but free to
/// reference attributes the machine ad may not advertise.
fn requirements_strategy() -> impl Strategy<Value = Expr> {
    let cmp_ops = || {
        prop::sample::select(vec![
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ])
    };
    let other = |name: &str| Expr::Ref {
        scope: Scope::Other,
        name: name.into(),
    };
    let leaf = prop_oneof![
        // Numeric comparison against an integer bound.
        (
            prop::sample::select(INT_MACHINE_ATTRS.to_vec()),
            cmp_ops(),
            0i64..32,
        )
            .prop_map(move |(attr, op, bound)| Expr::Bin(
                op,
                Box::new(other(attr)),
                Box::new(Expr::Int(bound)),
            )),
        // Speed factor against a double bound.
        (cmp_ops(), 0.5f64..4.0).prop_map(move |(op, bound)| Expr::Bin(
            op,
            Box::new(other("SpeedFactor")),
            Box::new(Expr::Double(bound)),
        )),
        // String equality on site identity attributes.
        (
            prop::sample::select(vec!["Site", "Arch", "OpSys"]),
            prop::sample::select(vec!["cg-site", "i686", "LINUX", "elsewhere"]),
        )
            .prop_map(move |(attr, s)| Expr::Bin(
                BinOp::Eq,
                Box::new(other(attr)),
                Box::new(Expr::Str(s.into())),
            )),
        // Direct boolean attribute.
        Just(other("AcceptsQueued")),
        // Presence probe — always defined, always boolean.
        prop::sample::select(vec![
            "Site",
            "FreeCpus",
            "SpeedFactor",
            "AcceptsQueued",
            "Tags",
        ])
        .prop_map(move |attr| Expr::Call("isUndefined".into(), vec![other(attr)])),
        // Tag membership.
        prop::sample::select(vec!["CROSSGRID", "MPI", "ABSENT"]).prop_map(move |tag| Expr::Call(
            "member".into(),
            vec![Expr::Str(tag.into()), other("Tags")],
        )),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Bin(
                BinOp::And,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Bin(
                BinOp::Or,
                Box::new(a),
                Box::new(b)
            )),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

/// Numeric-valued expressions over the machine vocabulary — `Rank` shapes.
fn rank_strategy() -> impl Strategy<Value = Expr> {
    let other = |name: &str| Expr::Ref {
        scope: Scope::Other,
        name: name.into(),
    };
    let leaf = prop_oneof![
        prop::sample::select(INT_MACHINE_ATTRS.to_vec()).prop_map(other),
        Just(other("SpeedFactor")),
        (0i64..100).prop_map(Expr::Int),
        (0.0f64..10.0).prop_map(Expr::Double),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (
                prop::sample::select(vec![BinOp::Add, BinOp::Sub, BinOp::Mul]),
                inner.clone(),
                inner.clone(),
            )
                .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Call("max".into(), vec![a, b])),
            inner.prop_map(|e| Expr::Neg(Box::new(e))),
        ]
    })
}

/// A vocabulary-conforming job ad with generated Requirements and Rank.
fn job_ad_strategy() -> impl Strategy<Value = Ad> {
    (
        requirements_strategy(),
        rank_strategy(),
        (any::<bool>(), 1i64..8).prop_map(|(some, n)| some.then_some(n)),
        (
            any::<bool>(),
            prop::sample::select(vec!["none", "reliable", "besteffort"]),
        )
            .prop_map(|(some, s)| some.then_some(s)),
    )
        .prop_map(|(req, rank, nodes, streaming)| {
            let mut ad = Ad::new();
            ad.set("Executable", Value::Str("app".into()));
            // NodeNumber > 1 needs a parallel job type to pass validation.
            if let Some(n) = nodes {
                ad.set(
                    "JobType",
                    Value::List(
                        [
                            Value::Str("interactive".into()),
                            Value::Str("mpich-g2".into()),
                        ]
                        .into(),
                    ),
                );
                ad.set("NodeNumber", Value::Int(n));
            } else {
                ad.set("JobType", Value::Str("batch".into()));
            }
            if let Some(s) = streaming {
                ad.set("StreamingMode", Value::Str(s.into()));
            }
            ad.set("Requirements", Value::Expr(req));
            ad.set("Rank", Value::Expr(rank));
            ad
        })
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    /// Folding + own-ref substitution preserve `eval` exactly: the compiled
    /// expression produces the same `Ok` value (or the same error) as the
    /// raw tree walker, for arbitrary — including ill-typed — expressions.
    #[test]
    fn compilation_preserves_eval_semantics(
        e in expr_strategy(),
        own in ad_strategy(),
        other in ad_strategy(),
    ) {
        let compiled = CompiledExpr::compile(&e, &own);
        let raw = e.eval(Ctx { own: &own, other: &other });
        let fast = compiled.eval(&own, &other);
        prop_assert_eq!(canon(&raw), canon(&fast), "expr: {}", e);
    }

    /// The broker-facing projections agree with the raw walker's: a compiled
    /// requirement matches exactly when `eval_requirement` returns
    /// `Ok(true)`, and a compiled rank equals `eval_rank().unwrap_or(0.0)`.
    #[test]
    fn compilation_preserves_requirement_and_rank_semantics(
        e in expr_strategy(),
        own in ad_strategy(),
        other in ad_strategy(),
    ) {
        let compiled = CompiledExpr::compile(&e, &own);
        let ctx = Ctx { own: &own, other: &other };
        let raw_match = matches!(e.eval_requirement(ctx), Ok(true));
        prop_assert_eq!(raw_match, compiled.matches(&own, &other), "expr: {}", e);
        let raw_rank = e.eval_rank(ctx).unwrap_or(0.0);
        let fast_rank = compiled.rank(&own, &other);
        // Bit-compare via total ordering so NaN == NaN.
        prop_assert_eq!(raw_rank.to_bits(), fast_rank.to_bits(), "expr: {}", e);
    }

    /// Binding to a columnar store changes how a requirement is evaluated —
    /// its top-level conjuncts are split, sorted by cost and run one column
    /// at a time over a bitset — and must not change what it evaluates to:
    /// over arbitrary conjunctions of arbitrary (ill-typed, erroring,
    /// undefined) conjuncts and ads whose attributes hold every value type,
    /// stored expressions included, the surviving sites and every site's
    /// rank are the raw walker's. The store is taken both freshly built and
    /// reached by replacing the ads of another one.
    #[test]
    fn bound_evaluation_over_columns_is_the_raw_walkers(
        conjuncts in prop::collection::vec(expr_strategy(), 1..4),
        own in ad_strategy(),
        sites in prop::collection::vec((storing_ad_strategy(), storing_ad_strategy()), 0..8),
    ) {
        let e = conjuncts
            .into_iter()
            .reduce(|a, b| Expr::Bin(BinOp::And, Box::new(a), Box::new(b)))
            .expect("at least one conjunct");
        let compiled = CompiledExpr::compile(&e, &own);
        let (before, ads): (Vec<Ad>, Vec<Ad>) = sites.into_iter().unzip();
        let ads: Vec<Arc<Ad>> = ads.into_iter().map(Arc::new).collect();
        let mut replaced = Columns::build(&before);
        for (i, ad) in ads.iter().enumerate() {
            replaced.replace(i, &before[i], ad);
        }
        let matching: Vec<usize> = (0..ads.len())
            .filter(|&i| {
                let ctx = Ctx { own: &own, other: &ads[i] };
                matches!(e.eval_requirement(ctx), Ok(true))
            })
            .collect();
        for columns in [&Columns::build(&ads), &replaced] {
            let bound = compiled.bind(&own, columns, &ads);
            let mut alive = SiteSet::full(ads.len());
            bound.retain_matches(&mut alive);
            prop_assert_eq!(alive.iter().collect::<Vec<_>>(), matching.clone(), "expr: {}", e);
            for (i, ad) in ads.iter().enumerate() {
                let raw = e.eval_rank(Ctx { own: &own, other: ad }).unwrap_or(0.0);
                prop_assert_eq!(raw.to_bits(), bound.rank(i).to_bits(), "expr: {}", e);
            }
        }
    }

    /// Any job ad the analyzer accepts (no Error-severity diagnostics) never
    /// raises an `EvalError` at match time — neither through the raw walker
    /// nor through the compiled fast path — against machine ads that may be
    /// missing any subset of the advertised vocabulary.
    #[test]
    fn analyzer_accepted_ads_never_error_at_match_time(
        job in job_ad_strategy(),
        machine in machine_ad_strategy(),
    ) {
        let analysis = analyze_ad(&job, None, &cg_jdl::Schema::machine());
        if analysis.has_errors() {
            // Rejected at submit — never reaches matchmaking. (The generator
            // can produce statically unsatisfiable requirements, e.g.
            // `FreeCpus > 20 && FreeCpus < 10`; those are exactly the ads
            // the analyzer exists to stop.)
            return;
        }
        let ctx = Ctx { own: &job, other: &machine };
        if let Some(Value::Expr(req)) = job.get("Requirements") {
            prop_assert!(
                req.eval_requirement(ctx).is_ok(),
                "raw Requirements errored: {:?}",
                req.eval_requirement(ctx)
            );
        }
        if let Some(Value::Expr(rank)) = job.get("Rank") {
            prop_assert!(rank.eval_rank(ctx).is_ok());
        }
        if let Some(compiled) = &analysis.requirements {
            prop_assert!(compiled.eval(&job, &machine).is_ok());
        }
        if let Some(compiled) = &analysis.rank {
            prop_assert!(compiled.eval(&job, &machine).is_ok());
        }
    }
}
