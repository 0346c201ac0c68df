//! Selection-policy A/B harness: replay one seeded workload under every
//! registered [`PolicyKind`] and compare the outcomes.
//!
//! Two levels, same policies:
//!
//! - **Matcher level** — a fixed discovery snapshot plus engineered
//!   per-site signals, pushed through [`ParallelMatcher`] once per policy.
//!   This is where the hard guarantees live: every dispatched site must be
//!   a member of the job's matched candidate set, outcomes must be
//!   bit-identical across worker-thread counts, and `free-cpus-rank` must
//!   reproduce the pre-policy (PR 4) matcher exactly — checked against an
//!   independent inline reimplementation of that matcher.
//! - **Simulation level** — a full [`CrossBroker`] day on an identical
//!   seeded grid, workload and fault-free schedule per policy, reporting
//!   p50/p90/p99 response times split interactive vs batch.
//!
//! ```text
//! cargo run -p cg-bench --release --bin policy_ab
//! cargo run -p cg-bench --release --bin policy_ab -- --check
//! ```
//!
//! `--check` additionally enforces the gates above and exits non-zero on
//! any violation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::rc::Rc;

use cg_bench::report::{print_table, TraceSink};
use cg_bench::write_csv;
use cg_jdl::{Ad, Interactivity, JobDescription};
use cg_net::{Link, LinkProfile};
use cg_sim::{SampleSet, Sim, SimDuration, SimRng, SimTime};
use cg_site::{Policy, Site, SiteConfig};
use cg_trace::EventLog;
use cg_workloads::{poisson_arrivals, JobMix};
use crossbroker::{
    filter_candidates, job_rng, BrokerConfig, Candidate, CrossBroker, JobId, MatchOutcome,
    MatchRequest, ParallelMatcher, PolicyKind, PolicySignals, ShardedJobTable, SiteHandle,
    SiteSignals, DEFAULT_SHARDS,
};

/// Roots every per-job RNG in the matcher-level replay.
const ENGINE_SEED: u64 = 0x0AB1;
/// Jobs in the matcher-level batch.
const BATCH: usize = 300;
/// Sites in the matcher-level snapshot.
const SITES: usize = 24;

/// The fixed discovery snapshot: heterogeneous node counts, three quarters
/// of the sites tagged CROSSGRID (the rest never match the CROSSGRID jobs).
fn ab_ads() -> Vec<(usize, Ad)> {
    (0..SITES)
        .map(|i| {
            let site = Site::new(SiteConfig {
                name: format!("ab{i:02}"),
                nodes: 2 + (i * 3) % 7,
                tags: if i % 4 == 3 {
                    vec!["MPI".into()]
                } else {
                    vec!["CROSSGRID".into(), "MPI".into()]
                },
                ..SiteConfig::default()
            });
            (i, site.machine_ad())
        })
        .collect()
}

/// Engineered per-site signals, a deterministic function of the site index.
/// Spread wide enough that each signal-driven policy reorders at least one
/// preference list relative to the plain rank.
fn ab_signals() -> PolicySignals {
    let mut signals = PolicySignals::new();
    for i in 0..SITES {
        signals.set(
            i,
            SiteSignals {
                queue_depth: ((i * 7) % 5) as i64,
                queue_forecast: ((i * 13) % 11) as f64 / 2.0,
                rtt_s: if i % 3 == 0 {
                    0.000_4 // campus
                } else {
                    0.012 + 0.004 * ((i % 5) as f64) // WAN, 12–28 ms one-way
                },
                lease_failures: if i % 4 == 0 { 2 } else { 0 },
                staleness_s: ((i * 17) % 7) as f64 * 60.0,
            },
        );
    }
    signals
}

/// The replayed batch: two thirds figure-2-shaped interactive jobs (rank
/// collides heavily, exercising the tie shuffle), one third batch
/// singletons ranked by free CPUs.
fn ab_requests() -> Vec<MatchRequest> {
    (0..BATCH as u64)
        .map(|i| {
            let src = if i % 3 == 0 {
                format!(
                    r#"
                    Executable   = "batch_{i}";
                    JobType      = "batch";
                    User         = "u{}";
                    Requirements = member("CROSSGRID", other.Tags);
                    Rank         = other.FreeCpus;
                    "#,
                    i % 5
                )
            } else {
                format!(
                    r#"
                    Executable   = "hep_{i}";
                    JobType      = {{"interactive", "mpich-g2"}};
                    NodeNumber   = 2;
                    User         = "u{}";
                    Requirements = other.FreeCpus >= NodeNumber && member("CROSSGRID", other.Tags);
                    Rank         = other.FreeCpus;
                    "#,
                    i % 5
                )
            };
            MatchRequest {
                id: JobId(i),
                job: JobDescription::parse(&src).expect("generated JDL parses"),
            }
        })
        .collect()
}

/// One matcher-level replay of the batch under `kind` at `threads` workers.
fn replay(kind: PolicyKind, threads: usize) -> Vec<(JobId, MatchOutcome)> {
    let engine = ParallelMatcher::new(ab_ads(), ENGINE_SEED)
        .with_policy(kind)
        .with_signals(ab_signals());
    let requests = ab_requests();
    let log = EventLog::new(requests.len() * 4);
    let table = ShardedJobTable::new(DEFAULT_SHARDS);
    engine.run(&requests, threads, &log, &table)
}

/// Independent reimplementation of the PR-4 matcher (pre-policy-trait):
/// filter → rank-descending with NaN partitioned out → exact-equal-rank
/// groups shuffled by [`job_rng`] → ascending-id commit against free CPUs.
/// Deliberately written against [`Candidate::rank`] directly, not through
/// [`PolicyKind::policy`], so it can only agree with the trait path if the
/// refactor really preserved the semantics.
fn pr4_baseline(requests: &[MatchRequest], ads: &[(usize, Ad)]) -> Vec<(JobId, MatchOutcome)> {
    struct Matched {
        prefs: Vec<Candidate>,
        nodes: u32,
        interactive: bool,
    }
    let mut matched: BTreeMap<JobId, Matched> = BTreeMap::new();
    for req in requests {
        let interactive = req.job.is_interactive();
        let candidates = filter_candidates(&req.job, ads, interactive);
        let (mut ranked, _nan): (Vec<Candidate>, Vec<Candidate>) =
            candidates.into_iter().partition(|c| !c.rank.is_nan());
        ranked.sort_by(|a, b| {
            b.rank
                .total_cmp(&a.rank)
                .then(a.site_index.cmp(&b.site_index))
        });
        let mut rng = job_rng(ENGINE_SEED, req.id);
        let mut prefs: Vec<Candidate> = Vec::with_capacity(ranked.len());
        let mut i = 0;
        while i < ranked.len() {
            let mut j = i + 1;
            while j < ranked.len() && ranked[j].rank.total_cmp(&ranked[i].rank).is_eq() {
                j += 1;
            }
            let mut group = ranked[i..j].to_vec();
            rng.shuffle(&mut group);
            prefs.extend(group);
            i = j;
        }
        matched.insert(
            req.id,
            Matched {
                prefs,
                nodes: req.job.node_number,
                interactive,
            },
        );
    }
    let mut free: BTreeMap<usize, i64> = ads
        .iter()
        .map(|(i, ad)| (*i, ad.get("FreeCpus").and_then(|v| v.as_i64()).unwrap_or(0)))
        .collect();
    let mut outcomes: BTreeMap<JobId, MatchOutcome> = BTreeMap::new();
    for (id, m) in &matched {
        let chosen = m.prefs.iter().find(|c| {
            free.get(&c.site_index)
                .is_some_and(|&f| f >= i64::from(m.nodes))
        });
        let outcome = match chosen {
            Some(c) => {
                *free.get_mut(&c.site_index).expect("site exists") -= i64::from(m.nodes);
                let site = ads
                    .iter()
                    .find(|(i, _)| *i == c.site_index)
                    .and_then(|(_, ad)| ad.get("Site"))
                    .and_then(|v| v.as_str())
                    .unwrap_or("<unnamed>");
                MatchOutcome::Dispatched {
                    site_index: c.site_index,
                    site: site.to_string(),
                }
            }
            None if !m.interactive => MatchOutcome::Queued,
            None => MatchOutcome::NoResources,
        };
        outcomes.insert(*id, outcome);
    }
    requests
        .iter()
        .map(|r| (r.id, outcomes[&r.id].clone()))
        .collect()
}

/// Sites a dispatched job may legally land on: its matched candidate set.
fn candidate_sets(requests: &[MatchRequest], ads: &[(usize, Ad)]) -> Vec<BTreeSet<usize>> {
    requests
        .iter()
        .map(|req| {
            filter_candidates(&req.job, ads, req.job.is_interactive())
                .into_iter()
                .map(|c| c.site_index)
                .collect()
        })
        .collect()
}

/// Matcher-level replay of every policy with the hard gates applied.
/// Returns `(rows, diffs_vs_default)` for the report; panics on any gate
/// violation so `--check` can never pass vacuously.
fn matcher_ab(sink: &TraceSink) -> (Vec<Vec<String>>, usize) {
    let ads = ab_ads();
    let requests = ab_requests();
    let sets = candidate_sets(&requests, &ads);
    let default_run = replay(PolicyKind::default(), 1);

    // Gate: free-cpus-rank reproduces the PR-4 matcher bit-for-bit.
    let baseline = pr4_baseline(&requests, &ads);
    assert_eq!(
        default_run, baseline,
        "free-cpus-rank diverged from the inline PR-4 baseline"
    );

    let mut rows = Vec::new();
    let mut total_diffs = 0usize;
    for kind in PolicyKind::ALL {
        let run = replay(kind, 1);
        // Gate: thread count never changes the outcome vector.
        for threads in [2usize, 4, 8] {
            assert_eq!(
                replay(kind, threads),
                run,
                "{}: {threads}-thread outcomes diverged from 1-thread",
                kind.name()
            );
        }
        // Gate: dispatches stay inside the matched candidate set.
        let mut dispatched = 0usize;
        let mut queued = 0usize;
        let mut failed = 0usize;
        for (i, (id, outcome)) in run.iter().enumerate() {
            match outcome {
                MatchOutcome::Dispatched { site_index, .. } => {
                    dispatched += 1;
                    assert!(
                        sets[i].contains(site_index),
                        "{}: job {id:?} dispatched to site {site_index} outside its candidate set",
                        kind.name()
                    );
                }
                MatchOutcome::Queued => queued += 1,
                MatchOutcome::NoResources => failed += 1,
            }
        }
        let diffs = run.iter().zip(&default_run).filter(|(a, b)| a != b).count();
        total_diffs += diffs;
        sink.measure(
            format!("policy_ab.{}.dispatched", kind.name()),
            dispatched as f64,
        );
        sink.measure(
            format!("policy_ab.{}.diff_vs_default", kind.name()),
            diffs as f64,
        );
        rows.push(vec![
            kind.name().to_string(),
            format!("{dispatched}"),
            format!("{queued}"),
            format!("{failed}"),
            format!("{diffs}"),
        ]);
    }
    (rows, total_diffs)
}

/// The simulation-level grid: ten CROSSGRID sites, three on campus links
/// and seven increasingly far across the WAN — so `network-proximity` has
/// something to trade against raw free capacity.
fn sim_grid() -> Vec<SiteHandle> {
    (0..10)
        .map(|i| {
            let site = Site::new(SiteConfig {
                name: format!("s{i:02}"),
                nodes: 3 + i % 4,
                policy: Policy::Fifo,
                tags: vec!["CROSSGRID".into()],
                ..SiteConfig::default()
            });
            let profile = if i < 3 {
                LinkProfile::campus()
            } else {
                LinkProfile {
                    name: format!("wan{i}"),
                    base_latency_s: 0.010 + 0.006 * (i as f64 - 3.0),
                    jitter_s: 2e-3,
                    bandwidth_bps: 20e6,
                    loss_prob: 2e-4,
                    per_msg_overhead_s: 30e-6,
                }
            };
            SiteHandle {
                site,
                broker_link: Link::new(profile.clone()),
                ui_link: Link::new(profile),
            }
        })
        .collect()
}

/// Response-time distributions from one full-broker run under `kind`.
struct SimAb {
    interactive: SampleSet,
    batch: SampleSet,
    started: u64,
    submitted: u64,
}

/// Replays the identical seeded workload (same grid, same arrivals, same
/// runtimes) under `kind` and collects response times per job class.
fn sim_run(kind: PolicyKind) -> SimAb {
    let mut sim = Sim::new(0x51AB);
    let config = BrokerConfig {
        selection_policy: kind,
        ..BrokerConfig::default()
    };
    let broker = CrossBroker::new(
        &mut sim,
        sim_grid(),
        Link::new(LinkProfile::wan_mds()),
        config,
    );
    let mix = JobMix {
        interactive_fraction: 0.4,
        batch_runtime_mean_s: 900.0,
        interactive_runtime_median_s: 300.0,
        users: 6,
        ..JobMix::default()
    };
    let horizon = SimTime::from_secs(2 * 3_600);
    let mut wrng = SimRng::new(0xAB_57EA);
    let arrivals = poisson_arrivals(&mut wrng, &mix, SimDuration::from_secs(40), horizon);
    let submitted: Rc<RefCell<Vec<(JobId, bool)>>> = Rc::new(RefCell::new(Vec::new()));
    for arrival in arrivals {
        let broker = broker.clone();
        let submitted = Rc::clone(&submitted);
        let interactive = arrival.job.interactivity == Interactivity::Interactive;
        let job = arrival.job;
        let runtime = arrival.runtime;
        sim.schedule_at(arrival.at, move |sim| {
            let id = broker.submit(sim, job, runtime);
            submitted.borrow_mut().push((id, interactive));
        });
    }
    sim.run_until(horizon + SimDuration::from_secs(3_600));
    let mut out = SimAb {
        interactive: SampleSet::new(),
        batch: SampleSet::new(),
        started: broker.stats().started,
        submitted: broker.stats().submitted,
    };
    for (id, interactive) in submitted.borrow().iter() {
        if let Some(resp) = broker.record(*id).response_s() {
            if *interactive {
                out.interactive.record(resp);
            } else {
                out.batch.record(resp);
            }
        }
    }
    out
}

fn percentile_row(kind: PolicyKind, ab: &SimAb, sink: &TraceSink, csv: &mut String) -> Vec<String> {
    let p = |set: &SampleSet, q: f64| set.percentile(q).unwrap_or(f64::NAN);
    for (class, set) in [("interactive", &ab.interactive), ("batch", &ab.batch)] {
        for q in [50.0, 90.0, 99.0] {
            sink.measure(
                format!("policy_ab.{}.{class}.p{q:.0}_response_s", kind.name()),
                p(set, q),
            );
        }
        csv.push_str(&format!(
            "{},{class},{},{},{},{}\n",
            kind.name(),
            set.len(),
            p(set, 50.0),
            p(set, 90.0),
            p(set, 99.0),
        ));
    }
    vec![
        kind.name().to_string(),
        format!("{}/{}", ab.started, ab.submitted),
        format!("{:.1}", p(&ab.interactive, 50.0)),
        format!("{:.1}", p(&ab.interactive, 90.0)),
        format!("{:.1}", p(&ab.interactive, 99.0)),
        format!("{:.1}", p(&ab.batch, 50.0)),
        format!("{:.1}", p(&ab.batch, 90.0)),
        format!("{:.1}", p(&ab.batch, 99.0)),
    ]
}

fn main() {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let sink = TraceSink::new();

    let (rows, total_diffs) = matcher_ab(&sink);
    print_table(
        &format!(
            "Matcher-level A/B: {BATCH} jobs, {SITES} sites, identical seed \
             (diff = outcomes differing from free-cpus-rank)"
        ),
        &["policy", "dispatched", "queued", "no-resources", "diff"],
        &rows,
    );

    let mut csv = String::from("policy,class,samples,p50_s,p90_s,p99_s\n");
    let mut rows = Vec::new();
    for kind in PolicyKind::ALL {
        let ab = sim_run(kind);
        rows.push(percentile_row(kind, &ab, &sink, &mut csv));
    }
    print_table(
        "Full-broker A/B: identical seeded 2 h workload per policy \
         (response time to first output, seconds)",
        &[
            "policy",
            "started",
            "int p50",
            "int p90",
            "int p99",
            "batch p50",
            "batch p90",
            "batch p99",
        ],
        &rows,
    );
    let path = write_csv("policy_ab.csv", &csv);
    println!("CSV: {}", path.display());
    sink.dump();

    if check {
        // The membership / determinism / PR-4-bit-identity gates already
        // ran inside matcher_ab (they panic on violation). The last gate:
        // the A/B must measure a real difference, or the harness proves
        // nothing.
        assert!(
            total_diffs > 0,
            "no policy produced an outcome differing from free-cpus-rank — \
             the A/B harness has lost its signal"
        );
        println!("policy_ab --check: all gates passed");
    }
}
