//! §6.1 scaling: discovery and selection cost versus the number of sites.
//! The paper reports ≈0.5 s discovery and ≈3 s selection with 20 sites; this
//! sweep shows where those numbers come from (per-site live queries).
//!
//! Also measures the sharded broker core: multi-thread matchmaking
//! throughput over 1000 synthetic sites, with a bit-identical-outcome
//! assertion against the single-threaded run.
//!
//! ```text
//! cargo run -p cg-bench --release --bin selection_scaling [samples]
//! cargo run -p cg-bench --release --bin selection_scaling -- --check
//! ```
//!
//! `--check` runs the quick CI gates only: the compiled-matchmaking margin,
//! the columnar gates (the `AdSnapshot` pass must be bit-identical to the
//! compiled map path and cost at most half of it from 20 sites up,
//! single-threaded, and no more than it at every worker count), and the
//! multi-thread speedup. The first three are single-threaded comparisons
//! and run on any machine; only the speedup gate needs 4 cores (override:
//! `CG_CHECK_CORES`). A run that had to skip a gate — that one for want of
//! cores, or every timing gate because the binary was built without
//! optimisation — prints a `SKIPPED` marker and exits 77 instead of 0 once
//! the gates that could run have passed, so a log reader can never mistake
//! a skipped gate for a green one.

use std::sync::Arc;
use std::time::Instant;

use cg_bench::report::{print_table, TraceSink};
use cg_bench::response::sample_discovery_selection;
use cg_bench::write_csv;
use cg_jdl::{Ad, JobDescription};
use cg_sim::SampleSet;
use cg_site::{AdSnapshot, Site, SiteConfig};
use cg_trace::EventLog;
use crossbroker::{
    filter_candidates, filter_candidates_columnar, filter_candidates_compiled, CompiledJob, JobId,
    MatchRequest, ParallelMatcher, ShardedJobTable, DEFAULT_SHARDS,
};

/// A figure-2-shaped interactive job: an own-ad reference (`NodeNumber`),
/// a list-membership test, and an arithmetic rank — the expression shapes
/// the submit-time compiler is built to speed up.
fn bench_job() -> JobDescription {
    JobDescription::parse(
        r#"
        Executable   = "hep_event_display";
        JobType      = {"interactive", "mpich-g2"};
        NodeNumber   = 2;
        Requirements = other.FreeCpus >= NodeNumber && member("CROSSGRID", other.Tags);
        Rank         = other.FreeCpus * other.SpeedFactor;
    "#,
    )
    .expect("bench job parses")
}

/// MDS answers from `n` sites, half of them tagged CROSSGRID.
fn bench_ads(n: usize) -> Vec<(usize, Ad)> {
    (0..n)
        .map(|i| {
            let site = Site::new(SiteConfig {
                name: format!("site{i:02}"),
                nodes: 2 + i % 6,
                tags: if i % 2 == 0 {
                    vec!["CROSSGRID".into(), "MPI".into()]
                } else {
                    vec!["MPI".into()]
                },
                ..SiteConfig::default()
            });
            (i, site.machine_ad())
        })
        .collect()
}

/// Mean microseconds per `filter_candidates` call over `iters` calls.
fn time_us(iters: u32, mut f: impl FnMut() -> usize) -> f64 {
    // Warm-up, and keep the result observable so the calls can't be elided.
    let mut total = f();
    let start = Instant::now();
    for _ in 0..iters {
        total += f();
    }
    let elapsed = start.elapsed().as_secs_f64() / f64::from(iters) * 1e6;
    assert!(total > 0, "matchmaking found no candidates");
    elapsed
}

/// Raw-AST vs compiled matchmaking over the same job and site ads.
/// Returns (raw, compiled) µs/pass at the largest site count.
fn matchmaking_comparison(sink: &TraceSink) -> (f64, f64) {
    let job = bench_job();
    let compiled = CompiledJob::prepare(&job);
    let mut rows = Vec::new();
    let mut last = (0.0, 0.0);
    let mut csv = String::from("sites,raw_us,compiled_us,speedup\n");
    for n in [5usize, 10, 20, 40, 80] {
        let ads = bench_ads(n);
        assert_eq!(
            filter_candidates(&job, &ads, true),
            filter_candidates_compiled(&job, &compiled, &ads, true),
            "compiled path must select identical candidates"
        );
        let iters = (200_000 / n) as u32;
        let raw = time_us(iters, || filter_candidates(&job, &ads, true).len());
        let fast = time_us(iters, || {
            filter_candidates_compiled(&job, &compiled, &ads, true).len()
        });
        sink.measure(format!("selection_scaling.{n}_sites.raw_eval_us"), raw);
        sink.measure(format!("selection_scaling.{n}_sites.compiled_us"), fast);
        rows.push(vec![
            format!("{n}"),
            format!("{raw:.2}"),
            format!("{fast:.2}"),
            format!("{:.2}x", raw / fast),
        ]);
        csv.push_str(&format!("{n},{raw},{fast},{}\n", raw / fast));
        last = (raw, fast);
    }
    print_table(
        "Matchmaking: raw AST walk vs submit-time compiled Requirements/Rank (µs per pass)",
        &["sites", "raw", "compiled", "speedup"],
        &rows,
    );
    let path = write_csv("matchmaking_compiled.csv", &csv);
    println!("CSV: {}\n", path.display());
    last
}

/// Site counts from which the columnar pass must cost at most
/// [`COLUMNAR_GATE`] of the map path. Below them a pass is a microsecond
/// and its fixed costs (binding, the bitset) show.
const COLUMNAR_GATE_FROM: usize = 20;
/// The `--check` ceiling on columnar/map µs per pass.
const COLUMNAR_GATE: f64 = 0.50;

/// Map-shaped compiled matchmaking vs the columnar [`AdSnapshot`] pass.
/// Returns the worst columnar/map ratio over the site counts from
/// [`COLUMNAR_GATE_FROM`] up — the `--check` gate holds it under
/// [`COLUMNAR_GATE`].
fn columnar_comparison(sink: &TraceSink) -> f64 {
    let job = bench_job();
    let compiled = CompiledJob::prepare(&job);
    let mut rows = Vec::new();
    let mut csv = String::from("sites,map_us,columnar_us\n");
    let mut worst = 0.0f64;
    for n in [5usize, 10, 20, 40, 80] {
        let ads = bench_ads(n);
        let snap = AdSnapshot::build(ads.iter().map(|(_, ad)| ad.clone()).collect());
        assert_eq!(
            filter_candidates_compiled(&job, &compiled, &ads, true),
            filter_candidates_columnar(&job, &compiled, &snap, true),
            "columnar path must select identical candidates"
        );
        let iters = (200_000 / n) as u32;
        let map_us = time_us(iters, || {
            filter_candidates_compiled(&job, &compiled, &ads, true).len()
        });
        let col_us = time_us(iters, || {
            filter_candidates_columnar(&job, &compiled, &snap, true).len()
        });
        sink.measure(format!("selection_scaling.{n}_sites.map_us"), map_us);
        sink.measure(format!("selection_scaling.{n}_sites.columnar_us"), col_us);
        if n >= COLUMNAR_GATE_FROM {
            worst = worst.max(col_us / map_us);
        }
        rows.push(vec![
            format!("{n}"),
            format!("{map_us:.2}"),
            format!("{col_us:.2}"),
            format!("{:.2}x", map_us / col_us),
        ]);
        csv.push_str(&format!("{n},{map_us},{col_us}\n"));
    }
    print_table(
        "Matchmaking: compiled map scan vs columnar snapshot (µs per pass)",
        &["sites", "map", "columnar", "col speedup"],
        &rows,
    );
    let path = write_csv("matchmaking_columnar.csv", &csv);
    println!("CSV: {}\n", path.display());
    worst
}

/// The two [`ParallelMatcher`] stores head-to-head over 1000 sites: the
/// map-shaped engine vs the columnar one, same seed, asserting the outcome
/// vectors are bit-identical at every thread count. Returns
/// `(threads, map_us, columnar_us)` per measured count for the gate.
fn parallel_columnar(sink: &TraceSink, quick: bool) -> Vec<(usize, f64, f64)> {
    let sites = 1_000;
    let batch = if quick { 256 } else { 512 };
    let snap = Arc::new(AdSnapshot::build(
        bench_ads(sites).into_iter().map(|(_, ad)| ad).collect(),
    ));
    let map_engine = ParallelMatcher::from_indexed(snap.indexed_ads(), 0xC055);
    let col_engine = ParallelMatcher::from_snapshot(Arc::clone(&snap), 0xC055);
    let jobs: Vec<MatchRequest> = (0..batch)
        .map(|i| MatchRequest {
            id: JobId(i),
            job: bench_job(),
        })
        .collect();
    let run = |engine: &ParallelMatcher, threads: usize| {
        let mut best = f64::INFINITY;
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let log = EventLog::new(jobs.len() * 4);
            let table = ShardedJobTable::new(DEFAULT_SHARDS);
            let start = Instant::now();
            outcomes = engine.run(&jobs, threads, &log, &table);
            best = best.min(start.elapsed().as_secs_f64() / jobs.len() as f64 * 1e6);
        }
        (best, outcomes)
    };
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (map_us, map_outcomes) = run(&map_engine, threads);
        let (col_us, col_outcomes) = run(&col_engine, threads);
        assert_eq!(
            col_outcomes, map_outcomes,
            "columnar engine outcomes diverged from the map engine at {threads} threads"
        );
        sink.measure(
            format!("selection_scaling.columnar.{threads}_threads_map_us"),
            map_us,
        );
        sink.measure(
            format!("selection_scaling.columnar.{threads}_threads_columnar_us"),
            col_us,
        );
        rows.push(vec![
            format!("{threads}"),
            format!("{map_us:.1}"),
            format!("{col_us:.1}"),
            format!("{:.2}x", map_us / col_us),
        ]);
        out.push((threads, map_us, col_us));
    }
    print_table(
        &format!("Parallel matchmaking stores over {sites} sites (µs per job, outcome-identical)"),
        &["threads", "map", "columnar", "col speedup"],
        &rows,
    );
    out
}

/// Multi-thread matchmaking over 1000 synthetic sites: µs/job at each
/// worker count, asserting the outcome vector is bit-identical to the
/// single-threaded run. Returns the speedup at 4 workers.
fn parallel_matching(sink: &TraceSink, quick: bool) -> f64 {
    let sites = 1_000;
    let batch = if quick { 256 } else { 512 };
    let engine = ParallelMatcher::new(bench_ads(sites), 0xC055);
    let jobs: Vec<MatchRequest> = (0..batch)
        .map(|i| MatchRequest {
            id: JobId(i),
            job: bench_job(),
        })
        .collect();
    let run = |threads: usize| {
        let mut best = f64::INFINITY;
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let log = EventLog::new(jobs.len() * 4);
            let table = ShardedJobTable::new(DEFAULT_SHARDS);
            let start = Instant::now();
            outcomes = engine.run(&jobs, threads, &log, &table);
            let us = start.elapsed().as_secs_f64() / jobs.len() as f64 * 1e6;
            best = best.min(us);
        }
        (best, outcomes)
    };
    let (base_us, base_outcomes) = run(1);
    let mut rows = vec![vec!["1".into(), format!("{base_us:.1}"), "1.00x".into()]];
    sink.measure("selection_scaling.parallel.1_threads_us_per_job", base_us);
    let mut speedup_at_4 = 0.0;
    for threads in [2usize, 4, 8] {
        let (us, outcomes) = run(threads);
        assert_eq!(
            outcomes, base_outcomes,
            "{threads}-thread outcomes diverged from the sequential run"
        );
        let speedup = base_us / us;
        if threads == 4 {
            speedup_at_4 = speedup;
        }
        sink.measure(
            format!("selection_scaling.parallel.{threads}_threads_us_per_job"),
            us,
        );
        rows.push(vec![
            format!("{threads}"),
            format!("{us:.1}"),
            format!("{speedup:.2}x"),
        ]);
    }
    print_table(
        &format!("Parallel matchmaking over {sites} sites (µs per job, outcome-identical)"),
        &["threads", "us/job", "speedup"],
        &rows,
    );
    speedup_at_4
}

/// Exit status for a `--check` run that skipped a gate: distinct from both
/// success (0) and failure (1/101) so CI logs can tell "passed" from
/// "never ran". 77 is the automake/lit convention for a skipped test.
const EXIT_SKIPPED: i32 = 77;

/// The single-threaded gates: compiled matchmaking must keep a clear margin
/// over the raw AST walk, and the columnar pass must halve the map path and
/// not trail it inside the parallel engine. They need one core.
fn single_threaded_gates(sink: &TraceSink) {
    let (raw, compiled) = matchmaking_comparison(sink);
    // The compiled path normally beats the raw AST walk outright; failing
    // means its µs/job regressed by more than 20% past the raw baseline —
    // the submit-time compiler stopped paying for itself.
    assert!(
        compiled < raw * 1.2,
        "compiled matchmaking regressed >20% past the raw walk: \
         {compiled:.2}µs vs raw {raw:.2}µs"
    );
    // Columnar gates: column-at-a-time over typed cells against a by-name
    // search of every ad, and the same comparison inside the parallel
    // engine at every measured thread count — both functions also assert
    // the two paths produce bit-identical candidates/outcomes before timing.
    let worst = columnar_comparison(sink);
    assert!(
        worst <= COLUMNAR_GATE,
        "columnar matchmaking costs more than {COLUMNAR_GATE} of the map path \
         from {COLUMNAR_GATE_FROM} sites up: worst columnar/map ratio {worst:.2}"
    );
    for (threads, map_us, col_us) in parallel_columnar(sink, true) {
        assert!(
            col_us <= map_us * 1.10,
            "columnar engine slower than the map engine at {threads} threads: \
             {col_us:.1}µs vs {map_us:.1}µs"
        );
    }
}

/// The CI perf gates (`--check`): the [`single_threaded_gates`], which run
/// on any machine, and the sharded core's ≥2× throughput at 4 workers,
/// which runs when the machine has the cores for it.
///
/// Returns the process exit code: 0 when every gate ran and passed,
/// [`EXIT_SKIPPED`] when some gate could not run — the speedup gate below
/// 4 cores, every timing gate in an unoptimised build, where a ratio of
/// two timings says nothing about the code (each skip prints its own
/// marker; the gates that could run ran and passed). Gate *failures* still
/// panic (exit 101) so a regression can never masquerade as a skip.
fn run_checks(sink: &TraceSink) -> i32 {
    let optimised = !cfg!(debug_assertions);
    let mut skipped = false;
    if optimised {
        single_threaded_gates(sink);
    } else {
        println!(
            "selection_scaling --check: SKIPPED timing gates \
             (unoptimised build; run with --release)"
        );
        skipped = true;
    }
    // `CG_CHECK_CORES` overrides detection so the skip path itself is
    // testable on any machine (and so CI can force the gate on or off).
    let cores = std::env::var("CG_CHECK_CORES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get));
    if cores < 4 {
        // Loud, machine-grep-able marker + distinct exit code: exit 77
        // means "a gate never ran", not a green run.
        println!(
            "selection_scaling --check: SKIPPED speedup gate \
             (only {cores} cores, need 4)"
        );
        skipped = true;
    } else if optimised {
        let speedup = parallel_matching(sink, true);
        assert!(
            speedup >= 2.0,
            "sharded core below 2x at 4 workers on {cores} cores: {speedup:.2}x"
        );
    }
    if skipped {
        println!("selection_scaling --check: the gates that ran passed; exiting {EXIT_SKIPPED}");
        return EXIT_SKIPPED;
    }
    println!("selection_scaling --check: all gates passed");
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sink = TraceSink::new();
    if args.iter().any(|a| a == "--check") {
        let code = run_checks(&sink);
        sink.dump();
        std::process::exit(code);
    }
    let samples: u32 = args.first().and_then(|s| s.parse().ok()).unwrap_or(30);
    matchmaking_comparison(&sink);
    columnar_comparison(&sink);
    parallel_matching(&sink, false);
    parallel_columnar(&sink, false);
    let mut rows = Vec::new();
    let mut csv = String::from("sites,discovery_mean_s,selection_mean_s\n");
    for n in [1usize, 2, 5, 10, 15, 20, 30, 40] {
        let mut disc = SampleSet::new();
        let mut sel = SampleSet::new();
        for i in 0..samples {
            if let Some((d, s)) = sample_discovery_selection(n, 0x5E1 ^ (n as u64) << 8 ^ i as u64)
            {
                disc.record(d);
                sel.record(s);
            }
        }
        sink.measure(
            format!("selection_scaling.{n}_sites.discovery_mean_s"),
            disc.mean(),
        );
        sink.measure(
            format!("selection_scaling.{n}_sites.selection_mean_s"),
            sel.mean(),
        );
        rows.push(vec![
            format!("{n}"),
            format!("{:.3}", disc.mean()),
            format!("{:.3}", sel.mean()),
        ]);
        csv.push_str(&format!("{n},{},{}\n", disc.mean(), sel.mean()));
    }
    print_table(
        "Discovery & selection vs site count (seconds; paper: 0.5 / 3.0 @ 20 sites)",
        &["sites", "discovery", "selection"],
        &rows,
    );
    let path = write_csv("selection_scaling.csv", &csv);
    println!("\nCSV: {}", path.display());
    sink.dump();
}
