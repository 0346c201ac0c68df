//! Grid-scaling gate: the flat information index against the two-tier
//! GIIS hierarchy on the 100/300/1000-site synthetic grids.
//!
//! ```text
//! cargo run -p cg-bench --release --bin grid_scaling
//! cargo run -p cg-bench --release --bin grid_scaling -- --check
//! ```
//!
//! Each scale boots the *same* seeded grid twice in one simulation — once
//! under a flat windowed [`InformationIndex`] over all sites, once under a
//! [`GiisRoot`] with one leaf per region — applies localized churn to a
//! fixed handful of sites, and lets both converge past a refresh cycle.
//! `--check` then enforces:
//!
//! * **flat ≡ hierarchical** — the root's merged snapshot is column-for-
//!   column and ad-for-ad identical to the flat index's, and a mixed
//!   interactive/batch matchmaking batch over either snapshot produces
//!   bit-identical outcome vectors at 1, 4 and 8 worker threads;
//! * **sublinear invalidation** — after churn at `CHURNED` fixed sites,
//!   exactly `CHURNED` sites of the root snapshot are dirty since boot at
//!   every scale (the same count at 100 and at 1000 sites), and the root
//!   merged exactly `CHURNED` site-deltas — never a full-snapshot rebuild;
//! * **million-job stream** — 1 M interactive jobs matched against the
//!   1000-site root snapshot in 100 k chunks, with membership churn
//!   (suspects quarantined to placeholder columns) rotating between
//!   chunks; every chunk's event stream passes invariant rules 1–5 + 5b
//!   ([`check_invariants`]) and the recovery rules 6–8
//!   ([`check_recovery_invariants`]) with zero dropped events.
//!
//! Below 4 cores (override: `CG_CHECK_CORES`) the thread-determinism gate
//! cannot run and the whole check exits 77, the automake "skipped"
//! convention.

use std::collections::BTreeSet;
use std::sync::Arc;

use cg_bench::report::{print_table, TraceSink};
use cg_bench::write_csv;
use cg_jdl::{Ad, JobDescription};
use cg_sim::{Sim, SimDuration, SimRng, SimTime};
use cg_site::LocalJobSpec;
use cg_site::{AdSnapshot, GiisRoot, InformationIndex, MembershipConfig, RefreshWindow};
use cg_trace::{
    check_invariants, check_recovery_invariants, Event, EventLog, ReplayState, TimedEvent,
};
use cg_workloads::synthetic_grid;
use crossbroker::{
    JobId, MatchOutcome, MatchRequest, ParallelMatcher, ShardedJobTable, DEFAULT_SHARDS,
};

/// The roadmap's scaling ladder.
const SCALES: [usize; 3] = [100, 300, 1000];
/// Sites per region (= GIIS leaf branching).
const REGION: usize = 32;
/// Leaf/flat refresh interval. Short enough that one cycle plus the flat
/// index's full windowed sweep fits well inside the probe horizon.
const REFRESH: SimDuration = SimDuration::from_secs(60);
/// Concurrent refresh pulls per sweep (flat and per leaf).
const FANOUT: usize = 8;
/// Fixed churned-site count — the localized-churn working set. The
/// sublinearity gate asserts invalidation work equals this at *every*
/// scale.
const CHURNED: usize = 8;
/// Roots every per-scale RNG.
const SEED: u64 = 0x611D;

/// Million-job stream shape.
const TOTAL_JOBS: usize = 1_000_000;
const CHUNK: usize = 100_000;
const SUSPECTS_PER_CHUNK: usize = 5;

/// What one scale's converged double-boot produced.
struct ScaleRun {
    sites: usize,
    regions: usize,
    /// Sites of the root snapshot dirty since boot, after the churn cycle —
    /// the sublinearity unit: what a consumer caching per-site results
    /// would have to recompute.
    dirty: usize,
    deltas_merged: u64,
    delta_sites: u64,
    flat_snap: Arc<AdSnapshot>,
    root_snap: Arc<AdSnapshot>,
    /// GiisDelta + RefreshSweep trace events, for the sink.
    log: EventLog,
}

/// One scale: boot flat and hierarchical views of the same grid in one
/// simulation, churn `CHURNED` sites in region 0, converge past a sweep.
fn scale_run(n: usize) -> ScaleRun {
    let seed = SEED ^ (n as u64);
    let mut rng = SimRng::new(seed);
    let grid = synthetic_grid(&mut rng, n, REGION);
    let mut sim = Sim::new(seed);

    let flat = InformationIndex::start_windowed(
        &mut sim,
        grid.sites.clone(),
        REFRESH,
        RefreshWindow {
            fanout: FANOUT,
            latency: grid.publish_latency.clone(),
        },
        Vec::new(),
        MembershipConfig::default(),
    );
    let cfg = grid.giis_config(REFRESH, FANOUT);
    let root = GiisRoot::start(&mut sim, grid.sites.clone(), &cfg, Vec::new());

    // Trace the hierarchy's work through the new event kinds.
    let log = EventLog::new(4096);
    let delta_log = log.clone();
    root.set_delta_observer(move |sim, r| {
        delta_log.record(
            sim.now(),
            Event::GiisDelta {
                leaf: r.leaf as u32,
                epoch: r.root_epoch,
                changed: r.changed as u32,
            },
        );
    });
    let sweep_log = log.clone();
    flat.set_sweep_observer(move |sim, report, _snap| {
        sweep_log.record(
            sim.now(),
            Event::RefreshSweep {
                refreshed: report.refreshed as u32,
                missed: report.missed as u32,
                amnestied: report.amnestied as u32,
                late_merges: u32::from(report.late),
            },
        );
    });

    let boot_epoch = root.snapshot_arc().epoch();

    // Localized churn: long-running local jobs land on CHURNED fixed
    // sites (all in region 0) before the first sweep at t = REFRESH.
    for (g, site) in grid.sites.iter().enumerate().take(CHURNED) {
        let site = site.clone();
        sim.schedule_at(SimTime::from_secs(5 + g as u64), move |sim| {
            site.lrms().submit(
                sim,
                LocalJobSpec::simple(SimDuration::from_secs(100_000)),
                |_, _, _| {},
            );
        });
    }

    // Past the sweep: leaves close in under a second; the flat index's
    // windowed walk over all n sites takes sum(latency)/fanout ≈ 15 s at
    // 1000 sites. 40 s of slack covers both plus the uplink.
    sim.run_until(SimTime::ZERO + REFRESH + SimDuration::from_secs(40));

    let root_snap = root.snapshot_arc();
    let dirty = root_snap.dirty_since(boot_epoch).count();

    ScaleRun {
        sites: n,
        regions: grid.regions(),
        dirty,
        deltas_merged: root.deltas_merged(),
        delta_sites: root.delta_sites(),
        flat_snap: flat.snapshot_arc(),
        root_snap,
        log,
    }
}

/// Column-for-column, ad-for-ad identity between the flat and merged
/// hierarchical snapshots.
fn assert_snapshots_identical(n: usize, flat: &AdSnapshot, hier: &AdSnapshot) {
    assert_eq!(flat.len(), n, "{n}: flat snapshot covers the grid");
    assert_eq!(hier.len(), n, "{n}: root snapshot covers the grid");
    for i in 0..n {
        assert_eq!(
            flat.site_name(i),
            hier.site_name(i),
            "{n}: site {i} name diverged"
        );
        assert_eq!(
            flat.free_cpus(i),
            hier.free_cpus(i),
            "{n}: site {i} ({:?}) free-CPUs column diverged",
            flat.site_name(i)
        );
        assert_eq!(
            flat.accepts_queued(i),
            hier.accepts_queued(i),
            "{n}: site {i} accepts-queued column diverged"
        );
        assert_eq!(flat.ad(i), hier.ad(i), "{n}: site {i} ad diverged");
    }
    // Every attribute's column, cell for cell. The two snapshots met their
    // ads in different orders (the root through leaf deltas), so a column
    // one of them lacks is all-missing in the other.
    for (name, _) in flat.columns().iter().chain(hier.columns().iter()) {
        for i in 0..n {
            assert_eq!(
                flat.columns().cell(name, i),
                hier.columns().cell(name, i),
                "{n}: site {i} column {name} diverged"
            );
        }
    }
}

/// The matchmaking batch replayed over both snapshots: mixed batch and
/// interactive CROSSGRID jobs, churn_suite's shape.
fn gate_requests() -> Vec<MatchRequest> {
    (0..200u64)
        .map(|i| {
            let src = if i.is_multiple_of(3) {
                format!(
                    r#"
                    Executable   = "scale_batch_{i}";
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
                    Executable   = "scale_int_{i}";
                    JobType      = {{"interactive", "mpich-g2"}};
                    NodeNumber   = {};
                    User         = "u{}";
                    Requirements = other.FreeCpus >= NodeNumber && member("CROSSGRID", other.Tags);
                    Rank         = other.FreeCpus;
                    "#,
                    2 + i % 7,
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

/// Bit-identity gate: flat and hierarchical snapshots produce the same
/// outcome vector, at 1, 4 and 8 worker threads.
fn identity_gate(run: &ScaleRun) {
    let requests = gate_requests();
    let outcomes = |snap: &Arc<AdSnapshot>, threads: usize| {
        let log = EventLog::new(requests.len() * 4);
        let table = ShardedJobTable::new(DEFAULT_SHARDS);
        ParallelMatcher::from_snapshot(Arc::clone(snap), SEED ^ run.sites as u64)
            .run(&requests, threads, &log, &table)
    };
    let base = outcomes(&run.flat_snap, 1);
    let dispatched = base
        .iter()
        .filter(|(_, o)| matches!(o, MatchOutcome::Dispatched { .. }))
        .count();
    assert!(
        dispatched > 0,
        "{}: nothing dispatched — the identity gate would be vacuous",
        run.sites
    );
    for threads in [1usize, 4, 8] {
        assert_eq!(
            outcomes(&run.flat_snap, threads),
            base,
            "{}: flat snapshot, {threads} threads diverged",
            run.sites
        );
        assert_eq!(
            outcomes(&run.root_snap, threads),
            base,
            "{}: hierarchical snapshot, {threads} threads diverged",
            run.sites
        );
    }
}

/// Quarantine column for a suspected site: the same placeholder shape an
/// unregistered site holds, so matchmaking can never land there.
fn quarantine_ad(name: &str) -> Ad {
    let mut ad = Ad::new();
    ad.set_str("Site", name)
        .set_int("FreeCpus", 0)
        .set_bool("AcceptsQueued", false);
    ad
}

/// What the million-job stream produced.
struct StreamTotals {
    dispatched: usize,
    queued: usize,
    rejected: usize,
    events: usize,
}

/// 1 M interactive jobs in 100 k chunks against the 1000-site root
/// snapshot, with a rotating suspect set quarantined between chunks.
/// Every chunk's stream must satisfy rules 1–5 + 5b and, refolded through
/// [`ReplayState`], the recovery rules 6–8.
fn million_job_stream(base: &Arc<AdSnapshot>, threads: usize, gates: bool) -> StreamTotals {
    let n = base.len();
    let templates: Vec<JobDescription> = (0..25u64)
        .map(|k| {
            JobDescription::parse(&format!(
                r#"
                Executable = "mpi_{k}";
                JobType    = {{"interactive", "mpich-g2"}};
                NodeNumber = {};
                User       = "u{}";
                "#,
                16 + k,
                k % 7
            ))
            .expect("stream JDL parses")
        })
        .collect();

    let mut totals = StreamTotals {
        dispatched: 0,
        queued: 0,
        rejected: 0,
        events: 0,
    };
    for c in 0..TOTAL_JOBS / CHUNK {
        // Deterministic rotating suspect set — membership churn between
        // chunks, without wall-clock or global RNG.
        let mut suspects = BTreeSet::new();
        let mut x = (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        while suspects.len() < SUSPECTS_PER_CHUNK {
            suspects.insert((x % n as u64) as usize);
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        let changes: Vec<(usize, Arc<Ad>)> = suspects
            .iter()
            .map(|&i| {
                let name = base.site_name(i).expect("site has a name");
                (i, Arc::new(quarantine_ad(name)))
            })
            .collect();
        let snap = Arc::new(base.apply_delta(&changes));

        let log = EventLog::new(CHUNK * 4 + 64);
        let suspect_names: BTreeSet<String> = suspects
            .iter()
            .map(|&i| base.site_name(i).expect("site has a name").to_string())
            .collect();
        for name in &suspect_names {
            log.record(
                SimTime::ZERO,
                Event::SiteSuspect {
                    site: name.clone(),
                    missed_refreshes: 2,
                    failed_queries: 0,
                },
            );
        }

        let requests: Vec<MatchRequest> = (0..CHUNK)
            .map(|i| MatchRequest {
                id: JobId((c * CHUNK + i) as u64),
                job: templates[(c * 7 + i) % templates.len()].clone(),
            })
            .collect();
        let table = ShardedJobTable::new(DEFAULT_SHARDS);
        let outcomes = ParallelMatcher::from_snapshot(Arc::clone(&snap), SEED ^ c as u64)
            .run(&requests, threads, &log, &table);

        for (_, outcome) in &outcomes {
            match outcome {
                MatchOutcome::Dispatched { site, .. } => {
                    totals.dispatched += 1;
                    if gates {
                        assert!(
                            !suspect_names.contains(site),
                            "chunk {c}: dispatched onto quarantined suspect {site}"
                        );
                    }
                }
                MatchOutcome::Queued => totals.queued += 1,
                MatchOutcome::NoResources => totals.rejected += 1,
            }
        }

        let events: Vec<TimedEvent> = log.snapshot();
        totals.events += events.len();
        if gates {
            assert_eq!(log.dropped(), 0, "chunk {c}: event ring dropped records");
            let violations = check_invariants(&events);
            assert!(
                violations.is_empty(),
                "chunk {c}: invariant violations: {:?}",
                &violations[..violations.len().min(5)]
            );
            let state = ReplayState::from_events(&events);
            let recovery = check_recovery_invariants(&events, &state, &state);
            assert!(
                recovery.is_empty(),
                "chunk {c}: recovery violations: {recovery:?}"
            );
        }
    }
    if gates {
        assert!(
            totals.dispatched > 0 && totals.rejected > 0,
            "stream never exercised both outcomes: {} dispatched, {} rejected",
            totals.dispatched,
            totals.rejected
        );
    }
    totals
}

/// Runs the ladder, printing the per-scale table and feeding the sink;
/// with `gates` set, also enforces every `--check` invariant.
fn run_suite(sink: &TraceSink, gates: bool) {
    let mut rows = Vec::new();
    let mut csv = String::from("sites,regions,dirty,deltas_merged,delta_sites\n");
    let mut thousand_snap: Option<Arc<AdSnapshot>> = None;
    for n in SCALES {
        let run = scale_run(n);
        if gates {
            assert_eq!(
                run.dirty, CHURNED,
                "{n}: churn at {CHURNED} sites must invalidate exactly {CHURNED} \
                 sites — grid-size-independent"
            );
            assert_eq!(
                run.delta_sites, CHURNED as u64,
                "{n}: the root must merge exactly the churned sites"
            );
            assert_eq!(
                run.deltas_merged, 1,
                "{n}: localized churn in one region ships one delta"
            );
            assert_snapshots_identical(n, &run.flat_snap, &run.root_snap);
            identity_gate(&run);
        }
        for (metric, value) in [
            ("dirty", run.dirty as f64),
            ("delta_sites", run.delta_sites as f64),
        ] {
            sink.measure(format!("grid_scaling.{n}.{metric}"), value);
        }
        sink.absorb(&run.log);
        rows.push(vec![
            format!("{n}"),
            format!("{}", run.regions),
            format!("{}", run.dirty),
            format!("{}", run.deltas_merged),
            format!("{}", run.delta_sites),
        ]);
        csv.push_str(&format!(
            "{n},{},{},{},{}\n",
            run.regions, run.dirty, run.deltas_merged, run.delta_sites
        ));
        if n == 1000 {
            thousand_snap = Some(run.root_snap);
        }
    }
    print_table(
        &format!(
            "Grid scaling: flat vs two-tier GIIS, {CHURNED} churned sites per \
             scale (work columns must not grow with the grid)"
        ),
        &["sites", "regions", "dirty", "deltas", "delta_sites"],
        &rows,
    );
    let path = write_csv("grid_scaling.csv", &csv);
    println!("CSV: {}", path.display());

    let snap = thousand_snap.expect("the ladder includes 1000 sites");
    let totals = million_job_stream(&snap, 8, gates);
    println!(
        "million-job stream: {} dispatched, {} queued, {} rejected, {} events, \
         all chunks invariant-clean",
        totals.dispatched, totals.queued, totals.rejected, totals.events
    );
    sink.measure("grid_scaling.stream.dispatched", totals.dispatched as f64);
    sink.measure("grid_scaling.stream.rejected", totals.rejected as f64);
    sink.measure("grid_scaling.stream.events", totals.events as f64);
}

/// Exit status for a skipped `--check` run: distinct from both success (0)
/// and failure (1/101) so CI logs can tell "passed" from "never ran".
const EXIT_SKIPPED: i32 = 77;

fn main() {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let sink = TraceSink::new();
    if check {
        let cores = std::env::var("CG_CHECK_CORES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
            });
        if cores < 4 {
            println!(
                "grid_scaling --check: SKIPPED thread gate \
                 (only {cores} cores, need 4); exiting {EXIT_SKIPPED}"
            );
            std::process::exit(EXIT_SKIPPED);
        }
        run_suite(&sink, true);
        sink.dump();
        println!("grid_scaling --check: all gates passed");
        return;
    }
    run_suite(&sink, false);
    sink.dump();
}
