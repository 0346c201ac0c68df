//! The four workloads and the seeded generator that feeds them.
//!
//! Every size below is a constant: a run never scales its inputs to the
//! machine it finds itself on, so two commits always see the same work.
//! What the program under test receives is JDL *text* plus a declared
//! runtime per arrival — nothing else of the generator leaks through.

use cg_sim::{SimRng, SimTime};

/// How much of each workload a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every reported number uses.
    Full,
    /// A few hundred jobs per workload: the shape tests run this.
    Smoke,
}

/// Which grid a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The paper's 18-site / 121-WN `crossgrid_testbed`.
    Testbed18,
    /// `synthetic_grid(1000, 32)` with windowed refresh and live sweeps.
    Synthetic1000,
}

/// What one repeat does with the inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Submit every arrival through `CrossBroker::submit` and run the sim.
    Submit,
    /// Rebuild a broker from the journal of a crashed `Submit` run.
    Recover,
}

/// One workload: its grid, job stream and durability settings.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why this workload exists.
    pub why: &'static str,
    /// The grid.
    pub grid: Grid,
    /// What a repeat does.
    pub kind: Kind,
    /// Attach a `Journal` (default `fsync_every`) plus hourly snapshots.
    pub journal: bool,
    /// Report the work phase reference-normalised (see `reference.rs`)
    /// rather than as wall time. On where the reference kernel was measured to
    /// track the machine's slow phases (run-to-run spread 2-5x smaller than
    /// the wall clock's); off for `recover_replay`, whose work phase is two
    /// monolithic calls the kernel cannot be interleaved with and where it
    /// measurably does not track (normalised spread 12 %, wall 8 %).
    pub normalise: bool,
    /// Jobs generated at full scale.
    pub jobs: usize,
    /// Jobs generated at smoke scale.
    pub smoke_jobs: usize,
    /// Mean exponential inter-arrival gap, sim-seconds.
    pub mean_gap_s: f64,
    /// The job mix.
    pub mix: Mix,
    /// Sim-time the run continues after the last arrival.
    pub drain_s: u64,
}

/// Exact composition of a job stream. Fractions are turned into whole
/// counts of a fixed-size deck which is then shuffled, so every seed has
/// the same number of jobs of every class and per-job averages do not
/// wander with the draw.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Interactive share of all jobs.
    pub interactive: f64,
    /// Shared-access (VM path) share of interactive jobs; the rest are
    /// exclusive (matched path with live re-check).
    pub shared: f64,
    /// 2-node MPICH-G2 share of interactive jobs.
    pub mpich_g2: f64,
    /// Mean batch runtime, sim-seconds (exponential).
    pub batch_runtime_mean_s: f64,
    /// Median interactive session, sim-seconds (log-normal, sigma 0.6).
    pub interactive_runtime_median_s: f64,
    /// User population.
    pub users: usize,
    /// Which `Requirements`/`Rank` templates jobs draw from.
    pub templates: Templates,
}

/// The `Requirements`/`Rank` template family of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Templates {
    /// The `examples/jdl` templates as written (all sites carry the tags
    /// they ask for, so selectivity is decided by free CPUs).
    Examples,
    /// The same templates with a site-selectivity term: a third of the jobs
    /// match every site, a third about a quarter, a third a few percent.
    Selective,
}

/// Snapshots are written this often (sim-time) on journal workloads.
pub const SNAPSHOT_EVERY_S: u64 = 3_600;
/// `recover_replay`'s input run is `RECOVER_INPUT_FACTOR` × the
/// `testbed18_journal` stream (same generator, longer horizon).
pub const RECOVER_INPUT_FACTOR: usize = 2;
/// `recover_replay`'s input run crashes at the first sim-event boundary past
/// this event seq (≈ 40 sim-minutes past the last hourly snapshot at the
/// default seed, so recovery folds a snapshot plus a real tail and re-arms
/// in-flight work).
pub const RECOVER_CRASH_SEQ: u64 = 150_000;
/// Seed of the fixed grid topologies (the grid is the system under test's
/// configuration; `--seed` drives the job stream and the sim's own RNG).
pub const TOPOLOGY_SEED: u64 = 0x51;
/// Draws of a seed's inputs tried for one on which no operation fails.
pub const MAX_DRAWS: u32 = 8;
/// Timed repeats never number fewer than this, whatever `--seconds` says.
pub const MIN_REPEATS: usize = 5;
/// Spans of sim-time a work phase is cut into, with the reference kernel run
/// between them (see `reference.rs`).
pub const WORK_CHUNKS: u64 = 50;
/// Chunks `recover_replay`'s drain is cut into.
pub const RECOVER_DRAIN_CHUNKS: u64 = 10;
/// Set-up phases timed on their own after the repeats (full scale).
pub const SETUP_ROUNDS: usize = 100;
/// `recover_replay` set-ups timed as one set-up-only sample.
pub const RECOVER_SETUP_BATCH: u64 = 50;
/// Seconds a run measures for when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 18.0;
/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

const TESTBED_MIX: Mix = Mix {
    interactive: 0.25,
    shared: 0.7,
    mpich_g2: 0.1,
    batch_runtime_mean_s: 2_400.0,
    interactive_runtime_median_s: 600.0,
    users: 8,
    templates: Templates::Examples,
};

/// The workloads, in the order `perf all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "testbed18_mixed",
        why: "per-job pipeline cost on the paper's 18 sites: admission, JDL, agents, fair-share, trace recording and an 18-site live sweep per job; ~100 sim events and ~17 trace events per job",
        grid: Grid::Testbed18,
        kind: Kind::Submit,
        journal: false,
        normalise: true,
        jobs: 7_200,
        smoke_jobs: 240,
        mean_gap_s: 30.0,
        mix: TESTBED_MIX,
        drain_s: 6 * 3_600,
    },
    Workload {
        name: "grid1000_sweep",
        why: "1000 sites with fan-out-8 live sweeps: discovery, selection, RPCs and the sim kernel dominate (~18x more sim events per job); admission is negligible",
        grid: Grid::Synthetic1000,
        kind: Kind::Submit,
        journal: false,
        normalise: true,
        jobs: 360,
        smoke_jobs: 24,
        mean_gap_s: 5.0,
        mix: Mix {
            interactive: 0.6,
            shared: 0.0,
            mpich_g2: 0.0,
            batch_runtime_mean_s: 1_200.0,
            interactive_runtime_median_s: 300.0,
            users: 8,
            templates: Templates::Selective,
        },
        drain_s: 1_800,
    },
    Workload {
        name: "testbed18_journal",
        why: "byte-identical inputs to testbed18_mixed plus the durable write path (encode, append, fsync, snapshot), so the gap between the two is that path's cost",
        grid: Grid::Testbed18,
        kind: Kind::Submit,
        journal: true,
        normalise: true,
        jobs: 7_200,
        smoke_jobs: 240,
        mean_gap_s: 30.0,
        mix: TESTBED_MIX,
        drain_s: 6 * 3_600,
    },
    Workload {
        name: "recover_replay",
        why: "the read side of the journal: open, decode, fold, validate and re-arm a 150k-event crashed run, so an encoding that speeds appends but slows recovery shows",
        grid: Grid::Testbed18,
        kind: Kind::Recover,
        journal: true,
        normalise: false,
        jobs: 7_200 * RECOVER_INPUT_FACTOR,
        smoke_jobs: 240 * RECOVER_INPUT_FACTOR,
        mean_gap_s: 30.0,
        mix: TESTBED_MIX,
        drain_s: 6 * 3_600,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Jobs generated at `scale`.
    pub fn job_count(&self, scale: Scale) -> usize {
        match scale {
            Scale::Full => self.jobs,
            Scale::Smoke => self.smoke_jobs,
        }
    }

    /// The event seq a `Recover` workload's input run crashes just past, at
    /// `scale`.
    pub fn crash_seq(&self, scale: Scale) -> u64 {
        match scale {
            Scale::Full => RECOVER_CRASH_SEQ,
            Scale::Smoke => RECOVER_CRASH_SEQ * self.smoke_jobs as u64 / self.jobs as u64,
        }
    }
}

/// One generated arrival: what the broker's front door receives.
#[derive(Debug, Clone, PartialEq)]
pub struct JobInput {
    /// Submission instant.
    pub at: SimTime,
    /// The JDL source text.
    pub jdl: String,
    /// Natural runtime once started, nanoseconds.
    pub runtime_ns: u64,
    /// Generator's own classification (ids are assigned in submission
    /// order, so index `i` here is broker job `i`).
    pub interactive: bool,
}

/// A generated job stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Arrivals in submission order.
    pub jobs: Vec<JobInput>,
    /// Instant of the last arrival.
    pub horizon: SimTime,
}

impl Inputs {
    /// Total JDL bytes.
    pub fn jdl_bytes(&self) -> usize {
        self.jobs.iter().map(|j| j.jdl.len()).sum()
    }

    /// Interactive arrivals.
    pub fn interactive_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.interactive).count()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Batch,
    Shared,
    Exclusive,
    SharedG2,
    ExclusiveG2,
}

/// Splits `n` into whole counts proportional to `weights` (largest
/// remainders get the leftover), so the deck has exactly `n` cards.
fn apportion(n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let mut left = n - counts.iter().sum::<usize>();
    for &i in &order {
        if left == 0 {
            break;
        }
        counts[i] += 1;
        left -= 1;
    }
    counts
}

/// A shuffled deck of `n` cards holding each of `0..weights.len()` in
/// exact proportion.
fn deck(rng: &mut SimRng, n: usize, weights: &[f64]) -> Vec<usize> {
    let mut cards = Vec::with_capacity(n);
    for (value, count) in apportion(n, weights).into_iter().enumerate() {
        cards.extend(std::iter::repeat_n(value, count));
    }
    rng.shuffle(&mut cards);
    cards
}

const CLASSES: [Class; 5] = [
    Class::Batch,
    Class::Shared,
    Class::Exclusive,
    Class::SharedG2,
    Class::ExclusiveG2,
];
const PERFORMANCE_LOSSES: [u8; 4] = [5, 10, 15, 25];

/// Site-selectivity terms of [`Templates::Selective`], ANDed onto a
/// template's own `Requirements`. Measured on `synthetic_grid(1000, 32)`
/// at [`TOPOLOGY_SEED`]: none = 1000 sites, Xeon pools = 254, big pools =
/// 34 (see README).
const SELECTIVITY: [Option<&str>; 3] = [
    None,
    Some("other.SpeedFactor > 1.5"),
    Some("other.TotalCpus >= 48"),
];

fn requirements_line(base: Option<&str>, extra: Option<&str>) -> String {
    match (base, extra) {
        (None, None) => String::new(),
        (Some(a), None) | (None, Some(a)) => format!("Requirements = {a};\n"),
        (Some(a), Some(b)) => format!("Requirements = {a} && {b};\n"),
    }
}

/// Generates `w`'s job stream from `seed`. The same `(w.mix, w.mean_gap_s,
/// job count, seed)` always gives byte-identical inputs — which is what
/// makes `testbed18_mixed` and `testbed18_journal` the same stream.
pub fn generate(w: &Workload, scale: Scale, seed: u64) -> Inputs {
    let n = w.job_count(scale);
    let mix = &w.mix;
    let mut rng = SimRng::new(seed ^ 0x10AD_5EED);
    let i = mix.interactive;
    let g2 = mix.mpich_g2;
    let classes = deck(
        &mut rng,
        n,
        &[
            1.0 - i,
            i * mix.shared * (1.0 - g2),
            i * (1.0 - mix.shared) * (1.0 - g2),
            i * mix.shared * g2,
            i * (1.0 - mix.shared) * g2,
        ],
    );
    let selectivity = deck(&mut rng, n, &[1.0, 1.0, 1.0]);
    let mut jobs = Vec::with_capacity(n);
    let mut t_s = 0.0_f64;
    for k in 0..n {
        t_s += rng.exp(w.mean_gap_s).as_secs_f64();
        let class = CLASSES[classes[k]];
        let extra = match mix.templates {
            Templates::Examples => None,
            Templates::Selective => SELECTIVITY[selectivity[k]],
        };
        let user = rng.index(mix.users.max(1));
        let (jdl, runtime_s) = match class {
            Class::Batch => {
                let runtime_s = rng.exp(mix.batch_runtime_mean_s).as_secs_f64().max(1.0);
                // examples/jdl/batch.jdl
                let jdl = format!(
                    "Executable = \"batch_app_{k}\";\nJobType = \"batch\";\nUser = \"user{user}\";\n\
                     EstimatedRuntime = {};\n{}Rank = 0 - other.QueueDepth;\n",
                    runtime_s as u64,
                    requirements_line(
                        Some("member(\"CROSSGRID\", other.Tags) && other.MemoryMb >= 512"),
                        extra
                    ),
                );
                (jdl, runtime_s)
            }
            Class::Shared | Class::Exclusive => {
                let runtime_s = rng.log_normal(mix.interactive_runtime_median_s, 0.6);
                let pl = *rng.choose(&PERFORMANCE_LOSSES);
                let mode = if rng.chance(0.5) { "reliable" } else { "fast" };
                let jdl = if class == Class::Shared {
                    // examples/jdl/shared_interactive.jdl
                    format!(
                        "Executable = \"interactive_app_{k}\";\nJobType = \"interactive\";\n\
                         MachineAccess = \"shared\";\nStreamingMode = \"{mode}\";\n\
                         PerformanceLoss = {pl};\nUser = \"user{user}\";\n{}",
                        requirements_line(
                            Some("isUndefined(other.AcceptsQueued) || other.AcceptsQueued"),
                            extra
                        ),
                    )
                } else {
                    // examples/jdl/policy_forecast.jdl, default policy, with
                    // figure2's rank
                    format!(
                        "Executable = \"interactive_app_{k}\";\nJobType = \"interactive\";\n\
                         MachineAccess = \"exclusive\";\nStreamingMode = \"{mode}\";\n\
                         User = \"user{user}\";\n{}Rank = other.FreeCpus * other.SpeedFactor;\n",
                        requirements_line(None, extra),
                    )
                };
                (jdl, runtime_s)
            }
            Class::SharedG2 | Class::ExclusiveG2 => {
                let runtime_s = rng.log_normal(mix.interactive_runtime_median_s, 0.6);
                let access = if class == Class::SharedG2 {
                    "shared"
                } else {
                    "exclusive"
                };
                // examples/jdl/figure2.jdl
                let jdl = format!(
                    "Executable = \"interactive_mpich-g2_app_{k}\";\n\
                     JobType = {{\"interactive\", \"mpich-g2\"}};\nNodeNumber = 2;\n\
                     Arguments = \"-v\";\nStreamingMode = \"reliable\";\n\
                     MachineAccess = \"{access}\";\nPerformanceLoss = 10;\nUser = \"user{user}\";\n\
                     {}Rank = other.FreeCpus * other.SpeedFactor;\n",
                    requirements_line(
                        Some("other.FreeCpus >= NodeNumber && member(\"CROSSGRID\", other.Tags)"),
                        extra
                    ),
                );
                (jdl, runtime_s)
            }
        };
        jobs.push(JobInput {
            at: SimTime::from_nanos((t_s * 1e9) as u64),
            jdl,
            runtime_ns: (runtime_s * 1e9) as u64,
            interactive: class != Class::Batch,
        });
    }
    let horizon = jobs.last().map_or(SimTime::ZERO, |j| j.at);
    Inputs { jobs, horizon }
}
