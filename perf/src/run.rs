//! One run = one process = one workload: generate inputs once, warm up,
//! time repeats of a fresh world in two phases (set-up, work), then spend
//! two more untimed repeats on the allocation count and the correctness
//! checks.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use cg_sim::{Sim, SimDuration, SimTime};
use cg_trace::check_invariants;
use cg_trace::journal::{open_journal, JournalConfig, LoadedJournal};
use cg_trace::replay::{Bucket, ReplayState};
use crossbroker::{BrokerStats, CrossBroker, JobRecord, JobState};

use crate::alloc::{counted, AllocCount};
use crate::clock::timed;
use crate::reference::{Meter, Timing};
use crate::stats;
use crate::workloads::{
    generate, Inputs, Kind, Scale, Workload, DEFAULT_SEED, MAX_DRAWS, MIN_REPEATS,
    RECOVER_DRAIN_CHUNKS, RECOVER_SETUP_BATCH, SETUP_ROUNDS, WORK_CHUNKS,
};
use crate::world::{self, grid_parts, JournalSpec, World};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed of the job stream and the sim's RNG.
    pub seed: u64,
    /// Timed repeats continue until this much host time has been measured.
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
}

/// Host time of one repeat's two phases.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Set-up phase.
    pub setup: Timing,
    /// Work phase.
    pub work: Timing,
    /// Off-CPU time of each span of a `Submit` work phase (see
    /// [`World::run_metered`]): all zero without a journal.
    pub waits_ns: Vec<u64>,
}

/// What a repeat produced, for the checks and the sim-clock metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Hash of (id, terminal bucket, submitted/started/finished ns) per job.
    pub digest: u64,
    /// Work units the repeat processed (jobs, or journal events).
    pub units: u64,
    /// Jobs the repeat put through the broker.
    pub ops_attempted: u64,
    /// Jobs that ended Failed/Rejected (plus recovery violations).
    pub ops_failed: u64,
    /// Interactive submission-to-first-output times, sim-seconds.
    pub interactive_resp_s: Vec<f64>,
    /// Failure reasons with their counts, sorted by reason.
    pub failure_reasons: Vec<(String, u64)>,
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was seen when it did not.
    pub detail: String,
}

/// Everything an untraced run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload.
    pub workload: &'static str,
    /// Whether the work phase is reported reference-normalised.
    pub normalise: bool,
    /// The seed.
    pub seed: u64,
    /// Draws of the inputs rejected for a failed operation (see [`prepare`]).
    pub draw: u32,
    /// Host seconds spent generating inputs (informational).
    pub gen_s: f64,
    /// Host seconds writing `recover_replay`'s journal (informational).
    pub input_s: f64,
    /// The timed repeats.
    pub samples: Vec<Sample>,
    /// Set-up phases run on their own after the timed repeats.
    pub setup_only: Vec<Timing>,
    /// Every slowdown the reference kernel measured during the run.
    pub slowdowns: Vec<f64>,
    /// The outcome every repeat agreed on.
    pub outcome: Outcome,
    /// Heap allocations of one work phase.
    pub allocs: AllocCount,
    /// `VmHWM` after the warm-up repeat (see [`warm_up`]), MiB.
    pub peak_rss_mb: f64,
    /// The correctness checks.
    pub checks: Vec<Check>,
}

/// A directory under `perf/target/` that is removed when dropped.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `perf/target/run-<pid>-<n>-<tag>/`.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        // Relaxed: the counter only has to hand out distinct numbers.
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("run-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create the run's temp directory");
        TempDir { path }
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The terminal bucket of a job-table state.
pub fn bucket_of(state: &JobState) -> Bucket {
    match state {
        JobState::Done => Bucket::Done,
        JobState::Failed { .. } => Bucket::Errored,
        JobState::Running { .. } => Bucket::Running,
        JobState::BrokerQueued => Bucket::Queued,
        _ => Bucket::Pending,
    }
}

fn bucket_tag(b: Bucket) -> u8 {
    match b {
        Bucket::Pending => 0,
        Bucket::Queued => 1,
        Bucket::Running => 2,
        Bucket::Done => 3,
        Bucket::Errored => 4,
    }
}

/// Hash of what the sim decided for every job. Two commits whose digests
/// agree at a seed made the same model decisions.
pub fn sim_digest(records: &[JobRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for r in records {
        fnv1a(&mut h, &r.id.0.to_le_bytes());
        fnv1a(&mut h, &[bucket_tag(bucket_of(&r.state))]);
        fnv1a(&mut h, &r.submitted_at.as_nanos().to_le_bytes());
        for t in [r.started_at, r.finished_at] {
            fnv1a(&mut h, &t.map_or(u64::MAX, SimTime::as_nanos).to_le_bytes());
        }
    }
    h
}

fn outcome_of(
    broker: &CrossBroker,
    interactive: impl Fn(u64) -> bool,
    units: u64,
    extra_failed: u64,
) -> Outcome {
    let records = broker.records();
    let mut reasons = std::collections::BTreeMap::new();
    for r in &records {
        if let JobState::Failed { reason } = &r.state {
            *reasons.entry(reason.clone()).or_insert(0u64) += 1;
        }
    }
    let failed: u64 = reasons.values().sum();
    Outcome {
        digest: sim_digest(&records),
        units,
        ops_attempted: records.len() as u64,
        ops_failed: failed + extra_failed,
        interactive_resp_s: records
            .iter()
            .filter(|r| interactive(r.id.0))
            .filter_map(JobRecord::response_s)
            .collect(),
        failure_reasons: reasons.into_iter().collect(),
    }
}

/// `VmHWM` of this process, MiB (0 when `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The stream-side and broker-side views of a run agree: same jobs, each in
/// the same bucket with the same attempts, user, started flag and
/// timestamps, and the same set of live agents. (`check_recovery_invariants`
/// is the crash-time form of this; it forbids live agents surviving, which a
/// broker that never crashed legitimately has.)
fn views_agree(stream: &ReplayState, broker: &ReplayState) -> Result<(), String> {
    if stream.jobs.len() != broker.jobs.len() {
        return Err(format!(
            "stream has {} jobs, broker {}",
            stream.jobs.len(),
            broker.jobs.len()
        ));
    }
    for (id, want) in &stream.jobs {
        let Some(got) = broker.jobs.get(id) else {
            return Err(format!("job {id} missing from the broker view"));
        };
        let same = got.phase.bucket() == want.phase.bucket()
            && got.attempts == want.attempts
            && got.user == want.user
            && got.started == want.started
            && got.submitted_at_ns == want.submitted_at_ns
            && got.started_at_ns == want.started_at_ns
            && got.finished_at_ns == want.finished_at_ns;
        if !same {
            return Err(format!("job {id}: stream {want:?} vs broker {got:?}"));
        }
    }
    let alive = |s: &ReplayState| -> Vec<u64> {
        s.agents
            .iter()
            .filter(|(_, a)| a.alive)
            .map(|(id, _)| *id)
            .collect()
    };
    if alive(stream) != alive(broker) {
        return Err("live agent sets differ".into());
    }
    Ok(())
}

/// `submitted` equals the generator's count and every job is accounted for
/// exactly once across the table's buckets.
fn stats_conserve(
    stats: &BrokerStats,
    records: &[JobRecord],
    generated: u64,
) -> Result<(), String> {
    let done = records.iter().filter(|r| r.state == JobState::Done).count() as u64;
    let errored = records
        .iter()
        .filter(|r| matches!(r.state, JobState::Failed { .. }))
        .count() as u64;
    let ok = stats.submitted == generated
        && records.len() as u64 == generated
        && stats.finished == done
        && stats.failed + stats.rejected + stats.cancelled == errored
        && stats.started >= stats.finished;
    if ok {
        Ok(())
    } else {
        Err(format!(
            "generated {generated}, table {} (done {done}, errored {errored}), {stats:?}",
            records.len()
        ))
    }
}

/// A named check from a `Result`.
pub fn check(name: &'static str, r: Result<(), String>) -> Check {
    match r {
        Ok(()) => Check {
            name,
            ok: true,
            detail: String::new(),
        },
        Err(detail) => Check {
            name,
            ok: false,
            detail,
        },
    }
}

/// The journal a `Recover` workload replays, plus what it must preserve.
pub struct RecoverInput {
    /// The sealed journal file.
    pub path: PathBuf,
    /// Event records in the file.
    pub events: u64,
    /// Bucket of every job terminal before the crash.
    pub terminal: Vec<(u64, Bucket)>,
}

/// Runs the journaled scenario until more than the workload's crash seq of
/// events are recorded, and crashes it there: the journal is made durable and
/// the world dropped. The crash falls between two sim events, not on a fixed
/// seq (`arm_crash`), because a fixed seq lands between a job's
/// `JobSubmitted` and `JobAd` records on one seed in ten, and recovery
/// rightly aborts that job: an operation that fails.
pub fn write_recover_input(
    w: &Workload,
    inputs: &Rc<Inputs>,
    seed: u64,
    scale: Scale,
    dir: &TempDir,
) -> RecoverInput {
    let path = dir.file("crashed.journal");
    // fsync_every = 0: the bytes are the same and the input is untimed.
    let spec = JournalSpec {
        path: &path,
        config: JournalConfig { fsync_every: 0 },
        snapshots: true,
    };
    let mut wd = world::build(w, inputs, seed, Some(&spec), None);
    let log = wd.broker.event_log();
    let crash_seq = w.crash_seq(scale);
    while log.recorded() <= crash_seq && wd.sim.now() < wd.end && wd.sim.step() {}
    let events = log.recorded();
    assert!(
        events > crash_seq,
        "the input run recorded only {events} events: it never reached the crash seq {crash_seq}"
    );
    log.journal()
        .expect("the input run has a journal")
        .sync()
        .expect("sync the crashed journal");
    drop(wd);
    let loaded = open_journal(&path).expect("re-open the crashed journal");
    let state = loaded.replay_state().expect("fold the crashed journal");
    let terminal = state
        .jobs
        .iter()
        .filter(|(_, j)| j.phase.is_terminal())
        .map(|(id, j)| (*id, j.phase.bucket()))
        .collect();
    RecoverInput {
        path,
        events,
        terminal,
    }
}

/// One `Recover` repeat's work phase: open, rebuild, drain.
pub struct Recovered {
    /// The sim the recovered broker lives in.
    pub sim: Sim,
    /// The recovered broker.
    pub broker: CrossBroker,
    /// What recovery reported.
    pub report: crossbroker::RecoveryReport,
    /// The loaded journal (kept for the per-layer replays).
    pub loaded: LoadedJournal,
}

/// Set-up phase of a `Recover` repeat: a fresh sim and fresh sites.
pub fn recover_setup(w: &Workload, seed: u64) -> (Sim, world::GridParts) {
    (Sim::new(seed), grid_parts(w.grid))
}

/// Work phase of a `Recover` repeat: open, rebuild, drain. The two big calls
/// are each bracketed by reference samples and the drain is cut into chunks.
pub fn recover_work(
    w: &Workload,
    mut sim: Sim,
    parts: world::GridParts,
    input: &RecoverInput,
    meter: &mut Meter,
) -> (Recovered, Timing) {
    let (loaded, t_open) =
        meter.measure(|| open_journal(&input.path).expect("open the crashed journal"));
    let ((broker, report), t_rebuild) = meter.measure(|| {
        CrossBroker::recover(
            &mut sim,
            parts.handles,
            parts.mds_link,
            parts.config,
            &loaded,
        )
        .expect("snapshot blob decodes")
    });
    let mut total = t_open.plus(t_rebuild);
    let from = report.crash_at.as_nanos();
    let span = SimDuration::from_secs(w.drain_s).as_nanos();
    for chunk in 1..=RECOVER_DRAIN_CHUNKS {
        let until = SimTime::from_nanos(from + span / RECOVER_DRAIN_CHUNKS * chunk);
        let ((), t) = meter.measure(|| {
            sim.run_until(until);
        });
        total = total.plus(t);
    }
    (
        Recovered {
            sim,
            broker,
            report,
            loaded,
        },
        total,
    )
}

/// Jobs terminal before the crash whose bucket differs in `broker`.
fn moved_buckets(broker: &CrossBroker, input: &RecoverInput) -> Vec<String> {
    input
        .terminal
        .iter()
        .filter_map(|(id, want)| {
            let got = bucket_of(&broker.record(crossbroker::JobId(*id)).state);
            (got != *want).then(|| format!("job {id}: {want:?} -> {got:?}"))
        })
        .collect()
}

fn recover_outcome(r: &Recovered, input: &RecoverInput, inputs: &Inputs) -> Outcome {
    // The operation measured here is the reconstruction, so a failure is a
    // job reconstructed wrongly: an invariant violation, a pre-crash terminal
    // bucket that moved, or a job aborted for a lost commit record. A re-armed
    // interactive job that then finds every site leased fails by the model's
    // own rule; that is a sim outcome (it is in the digest), not a failure of
    // recovery.
    let mut outcome = outcome_of(
        &r.broker,
        |id| inputs.jobs.get(id as usize).is_some_and(|j| j.interactive),
        input.events,
        0,
    );
    outcome.ops_failed = r.report.violations.len() as u64
        + r.report.aborted
        + moved_buckets(&r.broker, input).len() as u64;
    outcome
}

fn submit_outcome(wd: &World, inputs: &Inputs) -> Outcome {
    outcome_of(
        &wd.broker,
        |id| inputs.jobs.get(id as usize).is_some_and(|j| j.interactive),
        inputs.jobs.len() as u64,
        0,
    )
}

/// State shared by the repeats of one run.
pub struct Prepared {
    /// The workload.
    pub w: &'static Workload,
    /// The options, with the seed of the draw that was kept.
    pub opts: RunOptions,
    /// Draws of the inputs rejected before this one (see [`prepare`]).
    pub draw: u32,
    /// The generated inputs.
    pub inputs: Rc<Inputs>,
    /// The run's temp directory.
    pub dir: TempDir,
    /// `recover_replay`'s journal.
    pub recover: Option<RecoverInput>,
    /// Host seconds generating inputs.
    pub gen_s: f64,
    /// Host seconds writing the recover input.
    pub input_s: f64,
}

/// The seed of draw `draw` of `--seed seed`: the seed itself, then a fixed
/// walk away from it.
fn draw_seed(seed: u64, draw: u32) -> u64 {
    seed.wrapping_add(u64::from(draw).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates draw `draw` of the inputs (and, for `Recover`, the crashed
/// journal). The `Prepared` carries the draw's seed as its own: the job
/// stream and every sim of the run are seeded with it.
fn prepare_draw(w: &'static Workload, opts: &RunOptions, draw: u32) -> Prepared {
    let opts = RunOptions {
        seed: draw_seed(opts.seed, draw),
        ..opts.clone()
    };
    let (inputs, gen_ns) = timed(|| Rc::new(generate(w, opts.scale, opts.seed)));
    let dir = TempDir::new(w.name);
    let (recover, input_ns) = timed(|| {
        (w.kind == Kind::Recover)
            .then(|| write_recover_input(w, &inputs, opts.seed, opts.scale, &dir))
    });
    Prepared {
        w,
        opts,
        draw,
        inputs,
        dir,
        recover,
        gen_s: gen_ns as f64 / 1e9,
        input_s: input_ns as f64 / 1e9,
    }
}

/// Generates the inputs and runs one untimed repeat on them — the warm-up.
///
/// The benchmark measures workloads on which no operation fails, and about
/// one `testbed18` stream in thirty has one: a glide-in slot two jobs race
/// for (`agent slot taken concurrently`, one job in 7 200). A stream whose
/// warm-up repeat counts a failed operation is therefore drawn again, from
/// the next seed of `--seed`'s own walk ([`draw_seed`]), so the same `--seed`
/// always ends on the same inputs. After [`MAX_DRAWS`] the last draw is kept
/// and its failures are reported.
pub fn prepare(w: &'static Workload, opts: &RunOptions, meter: &mut Meter) -> Prepared {
    let mut draw = 0;
    loop {
        let p = prepare_draw(w, opts, draw);
        let failed = p.repeat(meter, false).outcome.ops_failed;
        if failed == 0 || draw + 1 == MAX_DRAWS {
            return p;
        }
        draw += 1;
    }
}

/// What one repeat measured and left behind.
pub struct Repeat {
    /// Host time of the two phases.
    pub sample: Sample,
    /// What the sim decided.
    pub outcome: Outcome,
    /// Heap allocations of the work phase (zero unless counted).
    pub allocs: AllocCount,
    /// The world of a `Submit` repeat.
    pub world: Option<World>,
    /// The recovered broker of a `Recover` repeat.
    pub recovered: Option<Recovered>,
}

impl Prepared {
    /// Where a `Submit` repeat of a journal workload writes.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.file("repeat.journal")
    }

    fn own_journal<'a>(&self, path: &'a Path) -> Option<JournalSpec<'a>> {
        self.w.journal.then_some(JournalSpec {
            path,
            config: JournalConfig::default(),
            snapshots: true,
        })
    }

    /// One repeat in the workload's own configuration; `count_allocs` turns
    /// the allocation counter on around its work phase (the reference kernel
    /// and the meter's own bookkeeping are exempt). The repeat's journal
    /// file, if any, is left for the caller to inspect; the next repeat
    /// truncates it and the run's temp directory removes it.
    pub fn repeat(&self, meter: &mut Meter, count_allocs: bool) -> Repeat {
        let work_phase = |f: &mut dyn FnMut() -> Timing| {
            if count_allocs {
                counted(f)
            } else {
                (f(), AllocCount::default())
            }
        };
        match (&self.recover, self.w.kind) {
            (Some(input), Kind::Recover) => {
                let (start, setup) = meter.measure(|| recover_setup(self.w, self.opts.seed));
                let mut start = Some(start);
                let mut recovered = None;
                let (work, allocs) = work_phase(&mut || {
                    let (sim, parts) = start.take().expect("the work phase runs once");
                    let (r, work) = recover_work(self.w, sim, parts, input, meter);
                    recovered = Some(r);
                    work
                });
                let recovered = recovered.expect("the work phase ran");
                Repeat {
                    sample: Sample {
                        setup,
                        work,
                        waits_ns: Vec::new(),
                    },
                    outcome: recover_outcome(&recovered, input, &self.inputs),
                    allocs,
                    world: None,
                    recovered: Some(recovered),
                }
            }
            _ => {
                let path = self.journal_path();
                let spec = self.own_journal(&path);
                let (mut wd, setup) = meter.measure(|| {
                    world::build(self.w, &self.inputs, self.opts.seed, spec.as_ref(), None)
                });
                let mut waits_ns = Vec::with_capacity(WORK_CHUNKS as usize + 1);
                let (work, allocs) = work_phase(&mut || wd.run_metered(meter, &mut waits_ns));
                Repeat {
                    sample: Sample {
                        setup,
                        work,
                        waits_ns,
                    },
                    outcome: submit_outcome(&wd, &self.inputs),
                    allocs,
                    world: Some(wd),
                    recovered: None,
                }
            }
        }
    }

    /// The timed loop: repeats until `seconds` of phases have been measured
    /// and at least `floor` have run. The first repeat's outcome is the
    /// reference every later one (timed or not) must reproduce.
    pub fn timed_repeats(
        &self,
        seconds: f64,
        floor: usize,
        meter: &mut Meter,
    ) -> (Vec<Sample>, Outcome, Vec<Check>) {
        let budget_ns = (seconds * 1e9) as u64;
        let mut samples = Vec::new();
        let mut measured = 0u64;
        let mut digests_agree = Ok(());
        let mut journal_ok = Ok(());
        let mut reference: Option<Outcome> = None;
        let floor = match self.opts.scale {
            Scale::Full => floor,
            Scale::Smoke => 2,
        };
        while samples.len() < floor || measured < budget_ns {
            let r = self.repeat(meter, false);
            measured += r.sample.setup.wall_ns + r.sample.work.wall_ns;
            samples.push(r.sample);
            match &reference {
                None => reference = Some(r.outcome),
                Some(first) if r.outcome != *first && digests_agree.is_ok() => {
                    digests_agree = Err(format!(
                        "repeat {} gave digest {:016x}, the first {:016x}",
                        samples.len(),
                        r.outcome.digest,
                        first.digest
                    ));
                }
                Some(_) => {}
            }
            if let Some(e) = r
                .world
                .as_ref()
                .and_then(|wd| wd.broker.event_log().journal_error())
            {
                journal_ok = Err(e);
            }
        }
        (
            samples,
            reference.expect("at least one repeat ran"),
            vec![
                check("repeats_agree", digests_agree),
                check("journal_error_none", journal_ok),
            ],
        )
    }

    /// Set-up phases on their own, built and dropped back to back: many more
    /// samples of a sub-millisecond phase than the repeats give.
    pub fn setup_only(&self, meter: &mut Meter) -> Vec<Timing> {
        let rounds = match self.opts.scale {
            Scale::Full => SETUP_ROUNDS,
            Scale::Smoke => 3,
        };
        let path = self.journal_path();
        let spec = self.own_journal(&path);
        (0..rounds)
            .map(|_| match self.w.kind {
                // Ten microseconds timed one at a time, each right after
                // the reference kernel has emptied the caches, gave medians
                // of 14.7-19.5 us over 20 runs; in batches, 13.1-15.3 us.
                Kind::Recover => meter
                    .measure(|| {
                        for _ in 0..RECOVER_SETUP_BATCH {
                            black_box(recover_setup(self.w, self.opts.seed));
                        }
                    })
                    .1
                    .per(RECOVER_SETUP_BATCH),
                Kind::Submit => {
                    meter
                        .measure(|| {
                            world::build(self.w, &self.inputs, self.opts.seed, spec.as_ref(), None)
                        })
                        .1
                }
            })
            .collect()
    }

    /// The correctness checks, untimed. `own` is a finished repeat in the
    /// workload's own configuration (the allocation-counting one): recovery
    /// is judged on it, and a journal workload's file is re-opened and folded
    /// against the broker that wrote it. `Submit` workloads then run once
    /// more with the whole event stream captured (`fsync_every = 0`, no
    /// snapshots) and check it against the stream invariants.
    pub fn correctness(&self, reference: &Outcome, own: &Repeat) -> Vec<Check> {
        let mut checks = vec![check(
            "counted_repeat_agrees",
            if own.outcome == *reference {
                Ok(())
            } else {
                Err("the allocation-counting repeat changed the outcome".into())
            },
        )];
        if let (Some(input), Some(r)) = (&self.recover, &own.recovered) {
            checks.push(check(
                "recovery_violations_empty",
                if r.report.violations.is_empty() {
                    Ok(())
                } else {
                    Err(r.report.violations.join("; "))
                },
            ));
            let moved = moved_buckets(&r.broker, input);
            checks.push(check(
                "pre_crash_terminal_buckets_unchanged",
                if moved.is_empty() {
                    Ok(())
                } else {
                    Err(moved.join("; "))
                },
            ));
            checks.push(check(
                "journal_holds_the_crash_prefix",
                if r.report.jobs > 0 && r.loaded.last_seq() == Some(input.events - 1) {
                    Ok(())
                } else {
                    Err(format!(
                        "last seq {:?}, expected {}",
                        r.loaded.last_seq(),
                        input.events - 1
                    ))
                },
            ));
            return checks;
        }

        if let (true, Some(wd)) = (self.w.journal, &own.world) {
            let agree = open_journal(self.journal_path())
                .map_err(|e| e.to_string())
                .and_then(|l| l.replay_state().map_err(|e| e.to_string()))
                .and_then(|s| views_agree(&s, &wd.broker.replay_state()));
            checks.push(check("journal_replay_equals_broker_state", agree));
        }
        let path = self.dir.file("capture.journal");
        let spec = JournalSpec {
            path: &path,
            config: JournalConfig { fsync_every: 0 },
            snapshots: false,
        };
        let mut wd = world::build(self.w, &self.inputs, self.opts.seed, Some(&spec), None);
        wd.run();
        let outcome = submit_outcome(&wd, &self.inputs);
        checks.push(check(
            "capture_repeat_agrees",
            if outcome == *reference {
                Ok(())
            } else {
                Err(format!(
                    "digest {:016x} with a capture journal, {:016x} without",
                    outcome.digest, reference.digest
                ))
            },
        ));
        checks.push(check(
            "stats_conserve",
            stats_conserve(
                &wd.broker.stats(),
                &wd.broker.records(),
                self.inputs.jobs.len() as u64,
            ),
        ));
        checks.push(check(
            "journal_error_none_on_capture",
            wd.broker.event_log().journal_error().map_or(Ok(()), Err),
        ));
        match open_journal(&path) {
            Err(e) => checks.push(check("capture_journal_opens", Err(e.to_string()))),
            Ok(loaded) => {
                let violations = check_invariants(&loaded.events);
                checks.push(check(
                    "stream_invariants_hold",
                    if violations.is_empty() {
                        Ok(())
                    } else {
                        Err(violations.join("; "))
                    },
                ));
                checks.push(check(
                    "stream_replay_equals_broker_state",
                    views_agree(
                        &ReplayState::from_events(&loaded.events),
                        &wd.broker.replay_state(),
                    ),
                ));
            }
        }
        let _ = std::fs::remove_file(&path);
        checks
    }
}

/// Prepares the run (inputs plus a warm-up repeat, see [`prepare`]) and reads
/// peak RSS after exactly one world has lived and died, so that later
/// repeats cannot move it (a world that ends with a live glide-in agent is an
/// `Rc` cycle and is never freed, and how many repeats fit in `--seconds`
/// depends on the machine).
///
/// `Submit` workloads take that reading on the canonical stream (seed
/// [`DEFAULT_SEED`]) whatever `--seed` says, before any seeded input exists
/// in the process: how much memory the code needs is a property of the code,
/// and on `grid1000_sweep` the draw alone moves the peak by ±25 % (it is set
/// by how many thousand-site sweeps happen to overlap). `recover_replay`
/// reads it on its seeded journal: its peak is set by the journal's size,
/// which is fixed.
pub fn warm_up(w: &'static Workload, opts: &RunOptions, meter: &mut Meter) -> (Prepared, f64) {
    match w.kind {
        Kind::Submit => {
            let canonical = RunOptions {
                seed: DEFAULT_SEED,
                ..opts.clone()
            };
            drop(prepare(w, &canonical, meter));
            let peak = peak_rss_mb();
            (prepare(w, opts, meter), peak)
        }
        Kind::Recover => {
            let p = prepare(w, opts, meter);
            let peak = peak_rss_mb();
            (p, peak)
        }
    }
}

/// The untraced run: every end-to-end metric and every check.
pub fn run(w: &'static Workload, opts: &RunOptions) -> RunResult {
    let mut meter = Meter::new();
    let (p, peak) = warm_up(w, opts, &mut meter);
    let (samples, reference, mut checks) = p.timed_repeats(opts.seconds, MIN_REPEATS, &mut meter);
    let setup_only = p.setup_only(&mut meter);
    let own = p.repeat(&mut meter, true);
    checks.extend(p.correctness(&reference, &own));
    checks.push(check(
        "enough_interactive_samples",
        if opts.scale == Scale::Smoke || reference.interactive_resp_s.len() >= 100 {
            Ok(())
        } else {
            Err(format!(
                "{} interactive samples",
                reference.interactive_resp_s.len()
            ))
        },
    ));
    RunResult {
        workload: w.name,
        normalise: w.normalise,
        seed: opts.seed,
        draw: p.draw,
        gen_s: p.gen_s,
        input_s: p.input_s,
        samples,
        setup_only,
        slowdowns: meter.slowdowns,
        outcome: reference,
        allocs: own.allocs,
        peak_rss_mb: peak,
        checks,
    }
}

impl RunResult {
    /// Off-CPU time of a work phase as a quiet disk gives it: span by span,
    /// the shortest wait any timed repeat saw. Every repeat replays the same
    /// events, so a span does the same appends and `fsync`s each time, and a
    /// busy neighbour on the disk only ever makes them longer. Over four runs
    /// of `testbed18_journal` a repeat's own waits summed to 0.67-1.40 s and
    /// this to 0.51-0.56 s.
    fn quiet_wait_ns(&self) -> f64 {
        let spans = self.samples.iter().map(|s| s.waits_ns.len()).min();
        (0..spans.unwrap_or(0))
            .filter_map(|i| self.samples.iter().map(|s| s.waits_ns[i]).min())
            .sum::<u64>() as f64
    }

    /// A work phase's host seconds on the clock this workload reports: the
    /// wall, or its CPU time reference-normalised plus the run's
    /// [quiet waits](RunResult::quiet_wait_ns) in place of its own.
    pub fn seconds(&self, t: Timing) -> f64 {
        if self.normalise {
            let own_wait = (t.wall_ns - t.cpu_ns) as f64;
            (t.norm_ns - own_wait + self.quiet_wait_ns()) / 1e9
        } else {
            t.wall_ns as f64 / 1e9
        }
    }

    /// The set-up-only rounds, reference-normalised seconds on every
    /// workload: a set-up phase is allocation-bound like the kernel and never
    /// blocks (over 20 runs of `recover_replay` its fastest wall-clock sample
    /// read 9.7-19 us, its normalised median 13.1-15.3 us). The set-up phases
    /// of the timed repeats are left out: each follows the death of a whole
    /// world, reads slower for it, and how many there are depends on the
    /// machine, so that the median of both kinds together moved between
    /// them (spread 0.50-0.58 over ten runs of `recover_replay`).
    pub fn setup_samples_s(&self) -> Vec<f64> {
        self.setup_only.iter().map(|t| t.norm_ns / 1e9).collect()
    }

    /// Work phases, seconds.
    pub fn work_samples_s(&self) -> Vec<f64> {
        self.samples.iter().map(|s| self.seconds(s.work)).collect()
    }

    /// Work phases, raw wall seconds.
    pub fn work_wall_samples_s(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.work.wall_ns as f64 / 1e9)
            .collect()
    }

    /// The set-up phase, seconds: the median, as for any normalised time
    /// (see [`RunResult::work_s`]).
    pub fn setup_s(&self) -> f64 {
        stats::quartiles(&self.setup_samples_s()).1
    }

    /// The work phase, seconds. Normalised time is a ratio and errs both
    /// ways, so its median; on the wall clock interference only ever adds,
    /// so the fastest (measured on `recover_replay`: run-to-run spread 5-7 %
    /// for the fastest repeat, 8 % for the median).
    pub fn work_s(&self) -> f64 {
        let samples = self.work_samples_s();
        if self.normalise {
            stats::quartiles(&samples).1
        } else {
            stats::min(&samples)
        }
    }

    /// Work units per second of the work phase.
    pub fn work_per_s(&self) -> f64 {
        self.outcome.units as f64 / self.work_s()
    }

    /// Heap allocations per work unit.
    pub fn allocs_per_op(&self) -> f64 {
        self.allocs.calls as f64 / self.outcome.units as f64
    }

    /// Every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The end-to-end metric values, in [`crate::metrics::END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let resp = &self.outcome.interactive_resp_s;
        vec![
            self.setup_s(),
            self.work_per_s(),
            self.peak_rss_mb,
            self.allocs_per_op(),
            stats::percentile(resp, 0.5),
            stats::percentile(resp, 0.9),
        ]
    }
}
