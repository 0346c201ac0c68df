//! The front door's allocation budget: how many heap allocations turning one
//! job's JDL text into an analysed [`JobDescription`] costs.
//!
//! Every job pays parse → validate → analyse before matchmaking starts, so an
//! allocation per token, per lookup or per vocabulary entry is paid per job on
//! every workload. What is left is what the job keeps: its attribute names
//! and values, the AST of `Requirements` / `Rank`, their compiled forms. This
//! test counts, because the benchmark's `allocs_per_op` bound (12 %) would
//! let an owned token or a case-folded copy per lookup creep back unnoticed.
//!
//! The file holds one test on purpose: the counter is process-wide.

use cg_jdl::JobDescription;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(parse, analyze)` allocations for `src`, after one warm-up pass has built
/// the process-wide vocabularies and interned the machine attribute names.
fn front_door(src: &str) -> (u64, u64) {
    let parse = || JobDescription::parse(src).expect("valid JDL");
    let warm_up = parse().analyze();
    assert!(!warm_up.has_errors(), "{:?}", warm_up.diagnostics);
    let (job, parsing) = counted(parse);
    let (analysis, analysing) = counted(|| job.analyze());
    drop(analysis);
    (parsing, analysing)
}

#[test]
fn the_front_door_allocates_what_the_job_keeps() {
    let (parse, analyze) = front_door(include_str!("../../../examples/jdl/figure2.jdl"));
    assert!(
        parse + analyze <= 100,
        "figure2.jdl: {parse} to parse + {analyze} to analyse"
    );

    let (parse, analyze) = front_door(include_str!("../../../examples/jdl/policy_forecast.jdl"));
    assert!(
        parse + analyze <= 30,
        "policy_forecast.jdl: {parse} to parse + {analyze} to analyse"
    );
    assert_eq!(
        analyze, 0,
        "an ad with neither Requirements nor Rank has nothing to compile"
    );
}
