//! Site-churn resilience suite: every [`ChurnKind`] shape run through a
//! full broker day, with the membership failure detector driven from both
//! signals at once — the outage schedules are applied to the
//! broker↔gatekeeper links *and* to the sites' MDS publication paths
//! (`BrokerConfig::publish_faults`).
//!
//! ```text
//! cargo run -p cg-bench --release --bin churn_suite
//! cargo run -p cg-bench --release --bin churn_suite -- --check
//! ```
//!
//! `--check` enforces the resilience gates per scenario:
//!
//! * **zero lost jobs** — after the drain, every submitted job sits in a
//!   terminal bucket (`Done` or `Failed`); nothing hangs in `Matching`,
//!   `Scheduled` or `Running` forever because its site vanished;
//! * **invariant-clean stream** — `cg_trace::check_invariants` over the
//!   whole event log, which includes rule 5b: no lease or dispatch ever
//!   lands on a `Suspect`/`Dead` site;
//! * **run-to-run determinism** — the same seed replays to bit-identical
//!   per-job terminal outcomes (all retry jitter comes from per-job
//!   seeded RNG streams, never the wall clock);
//! * **the detector actually fired** — across the suite the log carries
//!   suspects, obituaries, rejoins and query retries, so none of the
//!   gates can pass vacuously against a churn-free day;
//! * **backend invariance** — the first scenario re-runs with every site
//!   on the external-process execution backend and must reproduce the sim
//!   backend's per-job terminal outcomes bit-identically (the sim-time
//!   bridging rule: real executors never perturb the schedule).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use cg_bench::report::{print_table, TraceSink};
use cg_bench::write_csv;
use cg_net::{FaultSchedule, Link, LinkProfile};
use cg_sim::{Sim, SimDuration, SimRng, SimTime};
use cg_site::{BackendSpec, GiisRoot, Policy, Site, SiteConfig};
use cg_trace::{check_invariants, Event, EventLog};
use cg_workloads::{churn_faults, poisson_arrivals, synthetic_grid, ChurnKind, JobMix};
use crossbroker::{BrokerConfig, CrossBroker, JobId, JobState, SiteHandle};

/// Sites in the churned pool (the paper's testbed size).
const SITES: usize = 18;
/// Submission window; churn schedules cover the same span.
const HORIZON: SimTime = SimTime::from_secs(4 * 3_600);
/// Extra time after the last arrival for queues to drain and the pool to
/// settle — long enough that every churn shape has ended and rejoined.
const DRAIN: SimDuration = SimDuration::from_secs(4 * 3_600);
/// Roots every per-run RNG; the per-kind seed is derived from it.
const SUITE_SEED: u64 = 0xC4A2;

/// One pool member: heterogeneous node counts, everything CROSSGRID so
/// matchmaking never filters a site for reasons other than health.
fn churn_site(i: usize, backend: &BackendSpec) -> Site {
    Site::new(SiteConfig {
        name: format!("churn{i:02}"),
        nodes: 3 + (i * 5) % 7,
        policy: Policy::Fifo,
        tags: vec!["CROSSGRID".into(), "MPI".into()],
        backend: backend.clone(),
        ..SiteConfig::default()
    })
}

/// Campus links for a third of the pool, WAN for the rest — wide enough
/// spread that query responses see realistic queueing behind sandboxes.
fn churn_profile(i: usize) -> LinkProfile {
    if i.is_multiple_of(3) {
        LinkProfile::campus()
    } else {
        LinkProfile {
            name: format!("churn-wan{i}"),
            base_latency_s: 0.008 + 0.004 * ((i % 6) as f64),
            jitter_s: 2e-3,
            bandwidth_bps: 20e6,
            loss_prob: 2e-4,
            per_msg_overhead_s: 30e-6,
        }
    }
}

/// What one full-broker churn day produced.
struct ChurnRun {
    /// Per-job terminal bucket, submission order — the determinism unit.
    outcomes: Vec<(u64, String)>,
    /// Jobs still non-terminal after the drain (the "lost" gate).
    lost: Vec<(u64, String)>,
    done: usize,
    failed: usize,
    suspects: usize,
    deads: usize,
    rejoins: usize,
    retries: usize,
    timeouts: usize,
    degraded: usize,
    violations: Vec<String>,
    log: EventLog,
}

/// One seeded broker day under `kind`: churn on every path, the standard
/// interactive/batch mix arriving across the horizon, then the drain.
fn sim_run(kind: ChurnKind, index: usize) -> ChurnRun {
    sim_run_with(kind, index, &BackendSpec::Sim)
}

/// [`sim_run`] with every site built on `backend`: the backend-invariance
/// gate compares its outcomes against the sim backend's.
fn sim_run_with(kind: ChurnKind, index: usize, backend: &BackendSpec) -> ChurnRun {
    let seed = SUITE_SEED ^ ((index as u64 + 1) << 16);
    let mut sim = Sim::new(seed);
    let mut frng = SimRng::new(seed ^ 0xFA17);
    let faults = churn_faults(kind, SITES, HORIZON, &mut frng);
    let handles: Vec<SiteHandle> = (0..SITES)
        .map(|i| SiteHandle {
            site: churn_site(i, backend),
            broker_link: Link::with_faults(churn_profile(i), faults[i].clone()),
            ui_link: Link::with_faults(churn_profile(i), faults[i].clone()),
        })
        .collect();
    let config = BrokerConfig {
        publish_faults: faults,
        ..BrokerConfig::default()
    };
    let broker = CrossBroker::new(&mut sim, handles, Link::new(LinkProfile::wan_mds()), config);

    let mix = JobMix {
        interactive_fraction: 0.5,
        users: 6,
        ..JobMix::default()
    };
    let mut wrng = SimRng::new(seed ^ 0x10AD);
    let submitted: Rc<RefCell<Vec<JobId>>> = Rc::new(RefCell::new(Vec::new()));
    for arrival in poisson_arrivals(&mut wrng, &mix, SimDuration::from_secs(90), HORIZON) {
        let broker2 = broker.clone();
        let submitted = Rc::clone(&submitted);
        let job = arrival.job;
        let runtime = arrival.runtime;
        sim.schedule_at(arrival.at, move |sim| {
            let id = broker2.submit(sim, job, runtime);
            submitted.borrow_mut().push(id);
        });
    }
    sim.run_until(HORIZON + DRAIN);

    let mut run = ChurnRun {
        outcomes: Vec::new(),
        lost: Vec::new(),
        done: 0,
        failed: 0,
        suspects: 0,
        deads: 0,
        rejoins: 0,
        retries: 0,
        timeouts: 0,
        degraded: 0,
        violations: Vec::new(),
        log: broker.event_log(),
    };
    for id in submitted.borrow().iter() {
        let state = broker.record(*id).state;
        match &state {
            JobState::Done => run.done += 1,
            JobState::Failed { .. } => run.failed += 1,
            other => run.lost.push((id.0, format!("{other:?}"))),
        }
        run.outcomes.push((id.0, format!("{state:?}")));
    }
    let events = run.log.snapshot();
    for ev in &events {
        match &ev.event {
            Event::SiteSuspect { .. } => run.suspects += 1,
            Event::SiteDead { .. } => run.deads += 1,
            Event::SiteRejoin { .. } => run.rejoins += 1,
            Event::QueryRetry { .. } => run.retries += 1,
            Event::LiveQueryTimeout { .. } => run.timeouts += 1,
            Event::DegradedMatch { .. } => run.degraded += 1,
            _ => {}
        }
    }
    run.violations = check_invariants(&events);
    run
}

/// Mass join at synthetic-grid scale: 100 of 300 sites are dark at boot
/// and join at seeded instants inside the first 20% of a one-hour
/// horizon, all behind the two-tier GIIS hierarchy. The aggregator's
/// epoch deltas must mark *exactly* the joining sites dirty — each one
/// once — and every never-churned site must keep sharing its boot column
/// allocation (no full-snapshot invalidation anywhere in the join storm).
fn mass_join_scale_gate() {
    const N: usize = 300;
    let horizon = SimTime::from_secs(3_600);
    let seed = SUITE_SEED ^ 0x300;
    let mut rng = SimRng::new(seed);
    let grid = synthetic_grid(&mut rng, N, 32);
    let mut frng = SimRng::new(seed ^ 0xFA17);
    let mut faults = churn_faults(ChurnKind::MassJoin, N, horizon, &mut frng);
    let joiners: Vec<usize> = (0..N).filter(|i| i % 3 == 0).collect();
    for (i, f) in faults.iter_mut().enumerate() {
        if i % 3 != 0 {
            *f = FaultSchedule::none();
        }
    }
    let mut sim = Sim::new(seed);
    let cfg = grid.giis_config(SimDuration::from_secs(300), 8);
    let root = GiisRoot::start(&mut sim, grid.sites.clone(), &cfg, faults);
    let boot = root.snapshot_arc();
    for &g in &joiners {
        assert_eq!(boot.free_cpus(g), 0, "dark site {g} boots as placeholder");
    }
    // The join window closes at 0.2 × horizon = 720 s; the sweep at 900 s
    // is the last that can surface a joiner, settled well before 1200 s.
    sim.run_until(SimTime::from_secs(1_200));

    let snap = root.snapshot_arc();
    let mut dirty: Vec<usize> = snap.dirty_since(boot.epoch()).collect();
    dirty.sort_unstable();
    assert_eq!(
        dirty, joiners,
        "epoch deltas must mark exactly the joining sites dirty"
    );
    assert_eq!(
        root.delta_sites(),
        joiners.len() as u64,
        "each joiner ships up the tree exactly once"
    );
    assert!(
        root.deltas_merged() > 1,
        "staggered joins must arrive as incremental deltas, not one batch"
    );
    for &g in &joiners {
        assert!(snap.free_cpus(g) > 0, "joiner {g} published its real ad");
    }
    for g in (0..N).filter(|g| g % 3 != 0) {
        assert!(
            Arc::ptr_eq(boot.ad_arc(g), snap.ad_arc(g)),
            "never-churned site {g} must keep sharing its boot column"
        );
    }
}

/// Runs the whole suite, printing the per-scenario table and feeding the
/// sink; with `gates` set, also enforces every `--check` invariant.
fn run_suite(sink: &TraceSink, gates: bool) {
    let mut rows = Vec::new();
    let mut csv = String::from(
        "scenario,submitted,done,failed,lost,suspect,dead,rejoin,retries,timeouts,degraded\n",
    );
    let mut total_suspects = 0usize;
    let mut total_deads = 0usize;
    let mut total_rejoins = 0usize;
    let mut total_retries = 0usize;
    for (index, kind) in ChurnKind::ALL.into_iter().enumerate() {
        let run = sim_run(kind, index);
        if gates {
            assert!(
                run.lost.is_empty(),
                "{}: {} jobs lost (non-terminal after the drain): {:?}",
                kind.name(),
                run.lost.len(),
                &run.lost[..run.lost.len().min(5)]
            );
            assert!(
                run.violations.is_empty(),
                "{}: invariant violations: {:?}",
                kind.name(),
                run.violations
            );
            let replay = sim_run(kind, index);
            assert_eq!(
                replay.outcomes,
                run.outcomes,
                "{}: replaying the same seed changed the terminal outcomes",
                kind.name()
            );
            if index == 0 {
                // Backend invariance, once per suite: the same churn day
                // with a real child process spawned and reaped per started
                // job must land every job in the identical terminal state.
                let process = BackendSpec::Process {
                    program: BackendSpec::default_program(),
                };
                let real = sim_run_with(kind, index, &process);
                assert_eq!(
                    real.outcomes,
                    run.outcomes,
                    "{}: the process backend perturbed terminal outcomes",
                    kind.name()
                );
                println!(
                    "{}: process backend outcome-identical across {} jobs",
                    kind.name(),
                    run.outcomes.len()
                );
            }
        }
        total_suspects += run.suspects;
        total_deads += run.deads;
        total_rejoins += run.rejoins;
        total_retries += run.retries;
        let submitted = run.outcomes.len();
        for (metric, value) in [
            ("submitted", submitted),
            ("done", run.done),
            ("failed", run.failed),
            ("lost", run.lost.len()),
            ("suspect", run.suspects),
            ("dead", run.deads),
            ("rejoin", run.rejoins),
            ("retries", run.retries),
        ] {
            sink.measure(
                format!("churn_suite.{}.{metric}", kind.name()),
                value as f64,
            );
        }
        sink.absorb(&run.log);
        rows.push(vec![
            kind.name().to_string(),
            format!("{submitted}"),
            format!("{}", run.done),
            format!("{}", run.failed),
            format!("{}", run.lost.len()),
            format!("{}", run.suspects),
            format!("{}", run.deads),
            format!("{}", run.rejoins),
            format!("{}", run.retries),
            format!("{}", run.timeouts),
            format!("{}", run.degraded),
        ]);
        csv.push_str(&format!(
            "{},{submitted},{},{},{},{},{},{},{},{},{}\n",
            kind.name(),
            run.done,
            run.failed,
            run.lost.len(),
            run.suspects,
            run.deads,
            run.rejoins,
            run.retries,
            run.timeouts,
            run.degraded,
        ));
    }
    print_table(
        &format!(
            "Churn resilience: {SITES}-site pool, 4 h arrivals + 4 h drain \
             (churn on gatekeeper links and MDS publications)"
        ),
        &[
            "scenario",
            "submitted",
            "done",
            "failed",
            "lost",
            "suspect",
            "dead",
            "rejoin",
            "retries",
            "timeouts",
            "degraded",
        ],
        &rows,
    );
    let path = write_csv("churn_suite.csv", &csv);
    println!("CSV: {}", path.display());
    if gates {
        // Anti-vacuity: a suite where the detector never fired proves
        // nothing about resilience.
        assert!(
            total_suspects > 0 && total_deads > 0 && total_rejoins > 0,
            "churn never drove the detector: {total_suspects} suspects, \
             {total_deads} deads, {total_rejoins} rejoins"
        );
        assert!(
            total_retries > 0,
            "no live query was ever retried — the bounded-retry path never ran"
        );
        mass_join_scale_gate();
        println!("mass-join at 300 synthetic sites: delta-exact through the GIIS root");
    }
}

fn main() {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let sink = TraceSink::new();
    run_suite(&sink, check);
    sink.dump();
    if check {
        println!("churn_suite --check: all gates passed");
    }
}
