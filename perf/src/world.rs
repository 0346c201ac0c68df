//! Building a fresh simulated world for one repeat and driving the
//! production path through it: JDL text → `JobDescription::parse` →
//! `CrossBroker::submit` → `Sim::run_until`.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

use cg_jdl::JobDescription;
use cg_net::{Link, LinkProfile};
use cg_sim::{Sim, SimDuration, SimRng, SimTime};
use cg_trace::journal::{Journal, JournalConfig};
use cg_workloads::{crossgrid_testbed, synthetic_grid};
use crossbroker::{BrokerConfig, CrossBroker, SiteHandle};

use crate::clock::now_ns;
use crate::reference::{Meter, Timing};
use crate::workloads::{Grid, Inputs, Workload, SNAPSHOT_EVERY_S, TOPOLOGY_SEED, WORK_CHUNKS};

/// Sites, links and the broker configuration of one grid, all fresh.
pub struct GridParts {
    /// The sites with their broker and UI links.
    pub handles: Vec<SiteHandle>,
    /// The broker → information-index link.
    pub mds_link: Link,
    /// The broker configuration the workload runs under.
    pub config: BrokerConfig,
}

/// Builds the grid's sites and topology from the fixed topology seed.
pub fn grid_parts(grid: Grid) -> GridParts {
    let mut rng = SimRng::new(TOPOLOGY_SEED);
    match grid {
        Grid::Testbed18 => {
            let scenario = crossgrid_testbed(&mut rng, false);
            let handles = (0..scenario.sites.len())
                .map(|i| SiteHandle {
                    site: scenario.sites[i].0.clone(),
                    broker_link: scenario.broker_site_link(i),
                    ui_link: scenario.ui_site_link(i),
                })
                .collect();
            GridParts {
                handles,
                mds_link: scenario.mds_link(),
                config: BrokerConfig::default(),
            }
        }
        Grid::Synthetic1000 => {
            let grid = synthetic_grid(&mut rng, 1000, 32);
            let handles = grid
                .sites
                .iter()
                .zip(&grid.link_profiles)
                .map(|(site, profile)| SiteHandle {
                    site: site.clone(),
                    broker_link: Link::new(profile.clone()),
                    ui_link: Link::new(profile.clone()),
                })
                .collect();
            GridParts {
                handles,
                mds_link: Link::new(LinkProfile::wan_mds()),
                config: BrokerConfig {
                    live_query_fanout: 8,
                    refresh_fanout: 8,
                    publish_latency: grid.publish_latency,
                    ..BrokerConfig::default()
                },
            }
        }
    }
}

/// Host-side observations of the arrival closures, taken only on the
/// traced run.
#[derive(Default)]
pub struct ArrivalProbe {
    /// Host nanoseconds of each parse + `submit` call.
    pub submit_ns: Vec<u64>,
    /// `Sim::pending()` seen at each arrival.
    pub pending: Vec<usize>,
}

/// A built world: the sim, its broker, and when the run ends.
pub struct World {
    /// The simulation.
    pub sim: Sim,
    /// The broker.
    pub broker: CrossBroker,
    /// Run until here (last arrival + drain).
    pub end: SimTime,
}

/// Journal attachment of a world.
pub struct JournalSpec<'a> {
    /// File to create.
    pub path: &'a Path,
    /// Writer configuration.
    pub config: JournalConfig,
    /// Write a snapshot every sim-hour.
    pub snapshots: bool,
}

/// The set-up phase: sites and topology, `CrossBroker::new`, journal
/// attach, and scheduling one arrival closure per job. Each closure parses
/// its JDL text and calls `submit` when the sim reaches it, so parsing and
/// admission are paid inside the work phase, as they are in production.
pub fn build(
    w: &Workload,
    inputs: &Rc<Inputs>,
    seed: u64,
    journal: Option<&JournalSpec<'_>>,
    probe: Option<&Rc<RefCell<ArrivalProbe>>>,
) -> World {
    build_from(grid_parts(w.grid), w, inputs, seed, journal, probe)
}

/// [`build`] over grid parts the caller made (and may have kept clones of:
/// `Site` and `Link` handles share state with the ones the broker gets).
pub fn build_from(
    parts: GridParts,
    w: &Workload,
    inputs: &Rc<Inputs>,
    seed: u64,
    journal: Option<&JournalSpec<'_>>,
    probe: Option<&Rc<RefCell<ArrivalProbe>>>,
) -> World {
    let mut sim = Sim::new(seed);
    let broker = CrossBroker::new(&mut sim, parts.handles, parts.mds_link, parts.config);
    if let Some(spec) = journal {
        let journal = Journal::create(spec.path, spec.config).expect("create journal file");
        broker.event_log().set_journal(journal);
        if spec.snapshots {
            broker.enable_periodic_snapshots(&mut sim, SimDuration::from_secs(SNAPSHOT_EVERY_S));
        }
    }
    for (i, job) in inputs.jobs.iter().enumerate() {
        let inputs = Rc::clone(inputs);
        let broker = broker.clone();
        let probe = probe.cloned();
        sim.schedule_at(job.at, move |sim| {
            let input = &inputs.jobs[i];
            let runtime = SimDuration::from_nanos(input.runtime_ns);
            match &probe {
                None => {
                    let job = JobDescription::parse(&input.jdl).expect("generated JDL parses");
                    broker.submit(sim, job, runtime);
                }
                Some(probe) => {
                    let pending = sim.pending();
                    let t0 = now_ns();
                    let job = JobDescription::parse(&input.jdl).expect("generated JDL parses");
                    broker.submit(sim, job, runtime);
                    let dt = now_ns() - t0;
                    let mut p = probe.borrow_mut();
                    p.submit_ns.push(dt);
                    p.pending.push(pending);
                }
            }
        });
    }
    let end = inputs.horizon + SimDuration::from_secs(w.drain_s);
    World { sim, broker, end }
}

impl World {
    /// The work phase: run to the end of the drain, then make the journal
    /// durable (a no-op without one).
    pub fn run(&mut self) {
        self.sim.run_until(self.end);
        self.sync_journal();
    }

    /// The same work phase cut into [`WORK_CHUNKS`] equal spans of sim-time
    /// with the reference kernel between them (the sim executes the same
    /// events in the same order either way). Pushes onto `waits_ns` the time
    /// each span, and then the final sync, spent off the CPU (see
    /// [`Meter::measure_blocking`]); the caller sizes it beforehand, so that
    /// an allocation-counted work phase is not charged for its growth.
    pub fn run_metered(&mut self, meter: &mut Meter, waits_ns: &mut Vec<u64>) -> Timing {
        // Only a journal makes the work phase block (on `fsync`).
        let blocking = self.broker.event_log().journal().is_some();
        let mut measure = |f: &mut dyn FnMut()| {
            let t = if blocking {
                meter.measure_blocking(f).1
            } else {
                meter.measure(f).1
            };
            waits_ns.push(t.wall_ns - t.cpu_ns);
            t
        };
        let mut total = Timing::default();
        let from = self.sim.now().as_nanos();
        let span = self.end.as_nanos() - from;
        for chunk in 1..=WORK_CHUNKS {
            let until = SimTime::from_nanos(from + span / WORK_CHUNKS * chunk).max(self.sim.now());
            let until = if chunk == WORK_CHUNKS {
                self.end
            } else {
                until
            };
            total = total.plus(measure(&mut || {
                self.sim.run_until(until);
            }));
        }
        total.plus(measure(&mut || self.sync_journal()))
    }

    fn sync_journal(&self) {
        if let Some(journal) = self.broker.event_log().journal() {
            journal.sync().expect("final journal sync");
        }
    }
}
