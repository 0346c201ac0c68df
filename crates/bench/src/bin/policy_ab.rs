//! Selection-policy A/B harness: replay one seeded workload under every
//! registered [`PolicyKind`] and compare the outcomes.
//!
//! Each policy gets a full [`CrossBroker`] day on an identical seeded grid,
//! workload and fault-free schedule — the signals a policy scores with are
//! the ones the live pipeline produces, not engineered ones — and the
//! report is p50/p90/p99 response times split interactive vs batch, plus
//! how many jobs landed somewhere other than where `free-cpus-rank` put
//! them.
//!
//! ```text
//! cargo run -p cg-bench --release --bin policy_ab
//! cargo run -p cg-bench --release --bin policy_ab -- --check
//! ```
//!
//! `--check` additionally requires that the A/B has signal — some policy
//! places at least one job differently from the default — and exits
//! non-zero otherwise.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use cg_bench::report::{print_table, TraceSink};
use cg_bench::write_csv;
use cg_jdl::Interactivity;
use cg_net::{Link, LinkProfile};
use cg_sim::{SampleSet, Sim, SimDuration, SimRng, SimTime};
use cg_site::{Policy, Site, SiteConfig};
use cg_trace::Event;
use cg_workloads::{poisson_arrivals, JobMix};
use crossbroker::{BrokerConfig, CrossBroker, JobId, PolicyKind, SiteHandle};

/// The grid: ten CROSSGRID sites, three on campus links and seven
/// increasingly far across the WAN — so `network-proximity` has something
/// to trade against raw free capacity.
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

/// Response-time distributions and placements from one full-broker run
/// under `kind`.
struct SimAb {
    interactive: SampleSet,
    batch: SampleSet,
    started: u64,
    submitted: u64,
    /// Job id → the target of its last `JobDispatched`.
    placements: BTreeMap<u64, String>,
}

impl SimAb {
    /// Jobs placed somewhere other than where `default` placed them (or
    /// placed by only one of the two runs).
    fn placements_differing_from(&self, default: &SimAb) -> usize {
        let ids: BTreeSet<&u64> = self
            .placements
            .keys()
            .chain(default.placements.keys())
            .collect();
        ids.into_iter()
            .filter(|id| self.placements.get(id) != default.placements.get(id))
            .count()
    }
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
        placements: BTreeMap::new(),
    };
    for ev in broker.event_log().snapshot() {
        if let Event::JobDispatched { job, target, .. } = ev.event {
            out.placements.insert(job, target);
        }
    }
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

fn percentile_row(
    kind: PolicyKind,
    ab: &SimAb,
    diff: usize,
    sink: &TraceSink,
    csv: &mut String,
) -> Vec<String> {
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
        format!("{diff}"),
    ]
}

fn main() {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let sink = TraceSink::new();

    let runs = PolicyKind::ALL.map(|kind| (kind, sim_run(kind)));
    let (_, default_run) = runs
        .iter()
        .find(|(kind, _)| *kind == PolicyKind::default())
        .expect("the default policy is registered");
    let mut csv = String::from("policy,class,samples,p50_s,p90_s,p99_s\n");
    let mut rows = Vec::new();
    let mut total_diffs = 0usize;
    for &(kind, ref ab) in &runs {
        let diff = ab.placements_differing_from(default_run);
        total_diffs += diff;
        sink.measure(
            format!("policy_ab.{}.diff_vs_default", kind.name()),
            diff as f64,
        );
        rows.push(percentile_row(kind, ab, diff, &sink, &mut csv));
    }
    print_table(
        "Full-broker A/B: identical seeded 2 h workload per policy \
         (response time to first output, seconds; diff = jobs placed \
         differently from free-cpus-rank)",
        &[
            "policy",
            "started",
            "int p50",
            "int p90",
            "int p99",
            "batch p50",
            "batch p90",
            "batch p99",
            "diff",
        ],
        &rows,
    );
    let path = write_csv("policy_ab.csv", &csv);
    println!("CSV: {}", path.display());
    sink.dump();

    if check {
        // The A/B must measure a real difference, or the harness proves
        // nothing.
        assert!(
            total_diffs > 0,
            "no policy placed a job differently from free-cpus-rank — \
             the A/B harness has lost its signal"
        );
        println!("policy_ab --check: all gates passed");
    }
}
