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
//!   column and ad-for-ad identical to the flat index's, and the broker's
//!   stale pass ([`filter_candidates_columnar`]) over either snapshot
//!   shortlists the same candidates for a mixed interactive/batch batch;
//! * **sublinear invalidation** — after churn at `CHURNED` fixed sites,
//!   exactly `CHURNED` sites of the root snapshot are dirty since boot at
//!   every scale (the same count at 100 and at 1000 sites), and the root
//!   merged exactly `CHURNED` site-deltas — never a full-snapshot rebuild.

use std::sync::Arc;

use cg_bench::report::{print_table, TraceSink};
use cg_bench::write_csv;
use cg_jdl::JobDescription;
use cg_sim::{Sim, SimDuration, SimRng, SimTime};
use cg_site::LocalJobSpec;
use cg_site::{AdSnapshot, GiisRoot, InformationIndex, MembershipConfig, RefreshWindow};
use cg_trace::{Event, EventLog};
use cg_workloads::synthetic_grid;
use crossbroker::{filter_candidates_columnar, CompiledJob};

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

/// The matchmaking batch filtered over both snapshots: mixed batch and
/// interactive CROSSGRID jobs with node counts from 1 to 8.
fn gate_requests() -> Vec<JobDescription> {
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
            JobDescription::parse(&src).expect("generated JDL parses")
        })
        .collect()
}

/// Candidate-identity gate: the stale pass shortlists the same candidates
/// (site, rank, free CPUs) for every job over either snapshot.
fn identity_gate(run: &ScaleRun) {
    let mut shortlisted = 0usize;
    for job in gate_requests() {
        let compiled = CompiledJob::prepare(&job);
        let interactive = job.is_interactive();
        let flat = filter_candidates_columnar(&job, &compiled, &run.flat_snap, interactive);
        let hier = filter_candidates_columnar(&job, &compiled, &run.root_snap, interactive);
        assert_eq!(
            flat, hier,
            "{}: candidates of {} diverged between flat and hierarchical",
            run.sites, job.executable
        );
        shortlisted += flat.len();
    }
    assert!(
        shortlisted > 0,
        "{}: nothing shortlisted — the identity gate would be vacuous",
        run.sites
    );
}

/// Runs the ladder, printing the per-scale table and feeding the sink;
/// with `gates` set, also enforces every `--check` invariant.
fn run_suite(sink: &TraceSink, gates: bool) {
    let mut rows = Vec::new();
    let mut csv = String::from("sites,regions,dirty,deltas_merged,delta_sites\n");
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
}

fn main() {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let sink = TraceSink::new();
    run_suite(&sink, check);
    sink.dump();
    if check {
        println!("grid_scaling --check: all gates passed");
    }
}
