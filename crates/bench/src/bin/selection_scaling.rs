//! §6.1 scaling: discovery and selection cost versus the number of sites.
//! The paper reports ≈0.5 s discovery and ≈3 s selection with 20 sites; this
//! sweep shows where those numbers come from (per-site live queries).
//!
//! Also times the three matchmaking evaluators against each other: the
//! raw AST walk, the submit-time compiled path and the columnar
//! `AdSnapshot` pass, each asserted bit-identical to the next before timing.
//!
//! ```text
//! cargo run -p cg-bench --release --bin selection_scaling [samples]
//! cargo run -p cg-bench --release --bin selection_scaling -- --check
//! ```
//!
//! `--check` runs the quick CI gates only: the compiled-matchmaking margin
//! and the columnar gate (the `AdSnapshot` pass must be bit-identical to the
//! compiled map path and cost at most half of it from 20 sites up). Both are
//! single-threaded ratios of two timings, so they run on any machine — but
//! only in an optimised build: `--check` without `--release` is a usage
//! error (exit 2), because a ratio of unoptimised timings says nothing
//! about the code.

use std::time::Instant;

use cg_bench::report::{print_table, TraceSink};
use cg_bench::response::sample_discovery_selection;
use cg_bench::write_csv;
use cg_jdl::{Ad, JobDescription};
use cg_sim::SampleSet;
use cg_site::{AdSnapshot, Site, SiteConfig};
use crossbroker::{
    filter_candidates, filter_candidates_columnar, filter_one, Candidate, CompiledJob,
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

/// The compiled map path: the live re-check's [`filter_one`], ad by ad.
fn filter_compiled(
    job: &JobDescription,
    compiled: &CompiledJob,
    ads: &[(usize, Ad)],
) -> Vec<Candidate> {
    ads.iter()
        .filter_map(|(i, ad)| filter_one(job, compiled, *i, ad, true))
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
            filter_compiled(&job, &compiled, &ads),
            "compiled path must select identical candidates"
        );
        let iters = (200_000 / n) as u32;
        let raw = time_us(iters, || filter_candidates(&job, &ads, true).len());
        let fast = time_us(iters, || filter_compiled(&job, &compiled, &ads).len());
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
            filter_compiled(&job, &compiled, &ads),
            filter_candidates_columnar(&job, &compiled, &snap, true),
            "columnar path must select identical candidates"
        );
        let iters = (200_000 / n) as u32;
        let map_us = time_us(iters, || filter_compiled(&job, &compiled, &ads).len());
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

/// The CI perf gates (`--check`): compiled matchmaking must keep a clear
/// margin over the raw AST walk, and the columnar pass must halve the map
/// path. Gate failures panic (exit 101).
fn run_checks(sink: &TraceSink) {
    let (raw, compiled) = matchmaking_comparison(sink);
    // The compiled path normally beats the raw AST walk outright; failing
    // means its µs/job regressed by more than 20% past the raw baseline —
    // the submit-time compiler stopped paying for itself.
    assert!(
        compiled < raw * 1.2,
        "compiled matchmaking regressed >20% past the raw walk: \
         {compiled:.2}µs vs raw {raw:.2}µs"
    );
    // Column-at-a-time over typed cells against a by-name search of every
    // ad; the comparison also asserts the two paths produce bit-identical
    // candidates before timing.
    let worst = columnar_comparison(sink);
    assert!(
        worst <= COLUMNAR_GATE,
        "columnar matchmaking costs more than {COLUMNAR_GATE} of the map path \
         from {COLUMNAR_GATE_FROM} sites up: worst columnar/map ratio {worst:.2}"
    );
    println!("selection_scaling --check: all gates passed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sink = TraceSink::new();
    if args.iter().any(|a| a == "--check") {
        if cfg!(debug_assertions) {
            eprintln!(
                "selection_scaling --check: the gates are ratios of timings and need \
                 an optimised build; run with --release"
            );
            std::process::exit(2);
        }
        run_checks(&sink);
        sink.dump();
        return;
    }
    let samples: u32 = args.first().and_then(|s| s.parse().ok()).unwrap_or(30);
    matchmaking_comparison(&sink);
    columnar_comparison(&sink);
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
