//! The traced run: one instrumented repeat, then every layer replayed in
//! isolation on that workload's own data.
//!
//! Nothing here lives inside the program under test. The traced repeat
//! observes from outside — a `Sim::set_trace` hook for the event-time
//! sequence, host timing around each arrival's parse + `submit`, the
//! counting allocator, clones of the grid's `Site`/`Link` handles, and the
//! full event stream captured in a `fsync_every = 0` journal. Each layer's
//! public functions are then called on that data, fastest of
//! [`ATTEMPTS`], inside spans `{name, start_ns, end_ns, parent, count}` that
//! are kept in memory and written to `perf/out/<workload>.trace.json` when
//! the run ends.
//!
//! A layer's share is `count × cost ÷ untraced work time`, using only counts
//! that can be observed exactly from outside (events executed, events
//! recorded per kind, link messages, refresh cycles, jobs) — with one
//! labelled exception, the live-query `machine_ad` calls, which no counter
//! exposes and which are estimated from the shortlist sizes. Costs that run
//! through the sim are charged net of the kernel events they schedule, so no
//! nanosecond is attributed twice and `core.glue_share` (what is left) cannot
//! be pushed negative by double counting.

use std::cell::RefCell;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use cg_jdl::{Ad, JobDescription, Value};
use cg_net::{rpc_call, Dir, Link, LinkProfile};
use cg_sim::{Sim, SimDuration, SimRng, SimTime};
use cg_site::{AdSnapshot, LocalJobSpec, Lrms, Policy, Site, SiteConfig};
use cg_trace::journal::{open_journal, Journal, JournalConfig};
use cg_trace::replay::ReplayState;
use cg_trace::{
    check_invariants, decode_event, decode_state, encode_event, encode_state, Event, EventLog,
    MetricsRegistry, TimedEvent,
};
use cg_vm::{deploy_agent, AgentCosts, AgentEvent, AgentId, VmMachine};
use crossbroker::{
    filter_candidates_columnar, select_detailed_with, BrokerConfig, Candidate, CompiledJob,
    CrossBroker, FairShare, JobId, JobRecord, PolicyKind, PolicySignals, ShardedJobTable,
    UsageKind, DEFAULT_SHARDS,
};

use crate::alloc::{counted, AllocCount};
use crate::clock::now_ns;
use crate::json::Json;
use crate::metrics::PER_LAYER;
use crate::reference::{Meter, Timing};
use crate::report::LayerValue;
use crate::run::{self, recover_setup, recover_work, Prepared, RunOptions, RunResult};
use crate::stats;
use crate::workloads::{Kind, Scale, Workload, WORK_CHUNKS};
use crate::world::{self, grid_parts, ArrivalProbe, JournalSpec};

/// Isolated replays take the fastest of this many attempts.
pub const ATTEMPTS: usize = 5;
/// Share of `--seconds` the traced run spends on untraced repeats (it needs
/// their work time as the denominator of every share).
const UNTRACED_SHARE: f64 = 0.3;
/// Fewest untraced repeats of a traced run.
const UNTRACED_FLOOR: usize = 3;
/// Most events a stream-sample replay loops over.
const SAMPLE_EVENTS: usize = 100_000;
/// Most jobs a per-job replay loops over.
const SAMPLE_JOBS: usize = 2_000;

/// One span: a named interval of host time caused by `parent`, over `count`
/// operations.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or metric name.
    pub name: String,
    /// Host nanoseconds at the start.
    pub start_ns: u64,
    /// Host nanoseconds at the end.
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Operations performed inside.
    pub count: u64,
}

/// The in-memory span store of one traced run.
#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            count: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` over `count` operations.
    pub fn close(&mut self, id: usize, count: u64) {
        self.spans[id].end_ns = now_ns();
        self.spans[id].count = count;
    }

    /// Adds an already-measured span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// The spans, in the order they were opened.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    fn to_json(&self, workload: &str, seed: u64) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name.clone())),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("count", Json::Num(s.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Where the trace file of `workload` goes.
pub fn trace_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.trace.json"))
}

/// Everything the traced repeat observed from outside.
struct Observed {
    /// Sim-time of every executed event, nanoseconds, in execution order.
    event_times: Rc<[u64]>,
    /// Mean `Sim::pending()` at the arrivals (the heap depth the kernel
    /// replay reproduces).
    pending_mean: usize,
    /// Host nanoseconds of each parse + `submit`.
    submit_ns: Vec<u64>,
    /// A prefix of the event stream (at most [`SAMPLE_EVENTS`]).
    stream: Vec<TimedEvent>,
    /// The sites, in their end-of-run state.
    sites: Vec<Site>,
    /// Broker ↔ site and UI ↔ site links plus the MDS link.
    links: Vec<Link>,
    /// Whether the index refreshes in windowed sweeps (`apply_delta`) rather
    /// than instantaneous walks (`advance`).
    windowed: bool,
    /// The broker at the end of the traced repeat.
    broker: CrossBroker,
    /// Its job table.
    records: Vec<JobRecord>,
    /// Events the log recorded.
    recorded: u64,
    /// Events the ring evicted.
    ring_dropped: u64,
    /// Sim events executed.
    sim_events: u64,
    /// Work-phase timing of the traced repeat.
    work: Timing,
    /// Allocations of the traced work phase.
    allocs: AllocCount,
    /// The journal file holding the full stream (captured, or crashed).
    stream_file: PathBuf,
    /// Event + snapshot records in the workload's own journal (0 without).
    own_journal_records: u64,
    /// Bytes of the workload's own journal (0 without).
    own_journal_bytes: u64,
    /// Jobs recovery re-armed (`Recover` only).
    rearmed: u64,
}

fn counter(broker: &CrossBroker, kind: &str) -> u64 {
    broker.metrics().counter(&format!("events.{kind}"))
}

fn hook_event_times(sim: &mut Sim) -> Rc<RefCell<Vec<u64>>> {
    let times = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&times);
    sim.set_trace(move |t, _| sink.borrow_mut().push(t.as_nanos()));
    times
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn stream_sample(path: &Path) -> Vec<TimedEvent> {
    let mut events = open_journal(path).expect("re-open the stream file").events;
    events.truncate(SAMPLE_EVENTS);
    events
}

/// Clones of the grid's `Site` and `Link` handles (they share state with the
/// ones the broker gets), and whether the index refreshes in windowed sweeps.
fn handles_of(parts: &world::GridParts) -> (Vec<Site>, Vec<Link>, bool) {
    let sites = parts.handles.iter().map(|h| h.site.clone()).collect();
    let mut links: Vec<Link> = parts
        .handles
        .iter()
        .flat_map(|h| [h.broker_link.clone(), h.ui_link.clone()])
        .collect();
    links.push(parts.mds_link.clone());
    (sites, links, parts.config.refresh_fanout > 0)
}

/// The traced repeat of a `Submit` workload.
fn observe_submit(p: &Prepared, meter: &mut Meter) -> Observed {
    let w = p.w;
    let parts = grid_parts(w.grid);
    let (sites, links, windowed) = handles_of(&parts);
    let probe = Rc::new(RefCell::new(ArrivalProbe::default()));
    let own_path = p.journal_path();
    let capture_path = p.dir.file("traced-capture.journal");
    // Journal workloads are traced in their own configuration (so the
    // tracing overhead compares like with like) and captured in a second,
    // untimed pass; the others carry the capture journal while traced.
    let capture = JournalSpec {
        path: &capture_path,
        config: JournalConfig { fsync_every: 0 },
        snapshots: false,
    };
    let own = JournalSpec {
        path: &own_path,
        config: JournalConfig::default(),
        snapshots: true,
    };
    let spec = if w.journal { &own } else { &capture };
    let mut wd = world::build_from(parts, w, &p.inputs, p.opts.seed, Some(spec), Some(&probe));
    let times = hook_event_times(&mut wd.sim);
    let mut waits_ns = Vec::with_capacity(WORK_CHUNKS as usize + 1);
    let (work, allocs) = counted(|| wd.run_metered(meter, &mut waits_ns));
    let (own_journal_records, own_journal_bytes) = if w.journal {
        (
            wd.broker.event_log().journal().map_or(0, |j| j.appended()),
            file_len(&own_path),
        )
    } else {
        (0, 0)
    };
    if w.journal {
        let mut capture_world = world::build(w, &p.inputs, p.opts.seed, Some(&capture), None);
        capture_world.run();
    }
    let probe = probe.borrow();
    let log = wd.broker.event_log();
    let event_times: Vec<u64> = times.borrow().clone();
    Observed {
        event_times: event_times.into(),
        pending_mean: (probe.pending.iter().sum::<usize>() / probe.pending.len().max(1)).max(1),
        submit_ns: probe.submit_ns.clone(),
        stream: stream_sample(&capture_path),
        sites,
        links,
        windowed,
        records: wd.broker.records(),
        recorded: log.recorded(),
        ring_dropped: log.dropped(),
        sim_events: wd.sim.events_executed(),
        broker: wd.broker.clone(),
        work,
        allocs,
        stream_file: capture_path,
        own_journal_records,
        own_journal_bytes,
        rearmed: 0,
    }
}

/// The traced repeat of a `Recover` workload.
fn observe_recover(p: &Prepared, meter: &mut Meter) -> Observed {
    let input = p.recover.as_ref().expect("recover input prepared");
    let (mut sim, parts) = recover_setup(p.w, p.opts.seed);
    let (sites, links, windowed) = handles_of(&parts);
    let times = hook_event_times(&mut sim);
    let ((recovered, work), allocs) = counted(|| recover_work(p.w, sim, parts, input, meter));
    let log = recovered.broker.event_log();
    let event_times: Vec<u64> = times.borrow().clone();
    let mut stream = recovered.loaded.events.clone();
    stream.truncate(SAMPLE_EVENTS);
    Observed {
        event_times: event_times.into(),
        pending_mean: 64,
        submit_ns: Vec::new(),
        stream,
        sites,
        links,
        windowed,
        records: recovered.broker.records(),
        recorded: log.recorded(),
        ring_dropped: log.dropped(),
        sim_events: recovered.sim.events_executed(),
        broker: recovered.broker.clone(),
        work,
        allocs,
        stream_file: input.path.clone(),
        own_journal_records: 0,
        own_journal_bytes: file_len(&input.path),
        rearmed: recovered.report.requeued + recovered.report.resubmitted,
    }
}

/// Fastest-of-N measurement of one isolated replay.
struct Replayer<'a> {
    spans: &'a mut Spans,
    meter: &'a mut Meter,
    normalise: bool,
    parent: usize,
    attempts: usize,
}

/// What a replay cost.
#[derive(Debug, Clone, Copy)]
struct Cost {
    /// Nanoseconds per operation at the fastest attempt.
    ns_per_op: f64,
    /// Sim events the fastest attempt executed per operation (0 for
    /// replays that do not run a sim).
    events_per_op: f64,
}

impl Cost {
    /// Cost net of the sim-kernel events the replay itself executed.
    fn net_of_kernel(self, kernel_ns_per_event: f64) -> f64 {
        (self.ns_per_op - self.events_per_op * kernel_ns_per_event).max(0.0)
    }
}

impl Replayer<'_> {
    /// Runs `body` on a fresh `prepare()` [`ATTEMPTS`] times. `body`
    /// returns `(operations, sim events executed)`.
    fn fastest<S>(
        &mut self,
        name: &str,
        mut prepare: impl FnMut() -> S,
        mut body: impl FnMut(S) -> (u64, u64),
    ) -> Cost {
        let mut best: Option<Cost> = None;
        for _ in 0..self.attempts {
            let state = prepare();
            let start_ns = now_ns();
            let ((ops, events), timing) = self.meter.measure(|| body(state));
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns + timing.wall_ns,
                parent: Some(self.parent),
                count: ops,
            });
            let ns = if self.normalise {
                timing.norm_ns
            } else {
                timing.wall_ns as f64
            };
            let cost = Cost {
                ns_per_op: ns / ops.max(1) as f64,
                events_per_op: events as f64 / ops.max(1) as f64,
            };
            if best.is_none_or(|b| cost.ns_per_op < b.ns_per_op) {
                best = Some(cost);
            }
        }
        best.expect("at least one attempt")
    }
}

fn schedule_chain(sim: &mut Sim, times: &Rc<[u64]>, i: usize, window: usize) {
    let times2 = Rc::clone(times);
    sim.schedule_at(SimTime::from_nanos(times[i]), move |sim| {
        let next = i + window;
        if next < times2.len() {
            schedule_chain(sim, &times2, next, window);
        }
    });
}

/// The same number of no-op closures at the recorded times through a bare
/// `Sim`, holding the heap at the depth the workload held it.
fn kernel_replay(times: &Rc<[u64]>, window: usize) -> (u64, u64) {
    let mut sim = Sim::new(0);
    for i in 0..window.min(times.len()) {
        schedule_chain(&mut sim, times, i, window);
    }
    sim.run();
    (times.len() as u64, sim.events_executed())
}

fn fresh_links(w: &Workload) -> Vec<Link> {
    grid_parts(w.grid)
        .handles
        .into_iter()
        .map(|h| h.broker_link)
        .collect()
}

fn perturbed(ads: &[Ad]) -> Vec<Ad> {
    ads.iter()
        .enumerate()
        .map(|(i, ad)| {
            let mut ad = ad.clone();
            if i % 8 == 0 {
                let free = ad.get("FreeCpus").and_then(Value::as_i64).unwrap_or(0);
                ad.set_int("FreeCpus", free + 1);
            }
            ad
        })
        .collect()
}

/// Jobs of the input stream, parsed (at most [`SAMPLE_JOBS`]).
fn parsed_jobs(p: &Prepared) -> Vec<JobDescription> {
    p.inputs
        .jobs
        .iter()
        .take(SAMPLE_JOBS)
        .map(|j| JobDescription::parse(&j.jdl).expect("generated JDL parses"))
        .collect()
}

fn usages_mean(stream: &[TimedEvent]) -> usize {
    let ticks: Vec<u64> = stream
        .iter()
        .filter_map(|te| match &te.event {
            Event::FairShareTick { usages } => Some(u64::from(*usages)),
            _ => None,
        })
        .collect();
    if ticks.is_empty() {
        32
    } else {
        (ticks.iter().sum::<u64>() / ticks.len() as u64).max(1) as usize
    }
}

/// The numbers the shares are built from, kept together so the arithmetic
/// at the end reads as the table in the README.
#[derive(Default)]
struct Layers {
    values: Vec<LayerValue>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push(LayerValue { name, value });
    }
}

/// Replays every layer on what the traced repeat observed.
fn replay_layers(
    p: &Prepared,
    o: &Observed,
    untraced: &RunResult,
    spans: &mut Spans,
    meter: &mut Meter,
    root: usize,
) -> Vec<LayerValue> {
    let w = p.w;
    let units = untraced.outcome.units as f64;
    let work_ns = untraced.work_s() * 1e9;
    let parent = spans.open("layer_replays", Some(root));
    let attempts = match p.opts.scale {
        Scale::Full => ATTEMPTS,
        Scale::Smoke => 2,
    };
    let mut rp = Replayer {
        spans,
        meter,
        normalise: w.normalise,
        parent,
        attempts,
    };
    let mut out = Layers::default();
    let dir = &p.dir;
    // Loop lengths of the synthetic replays; the shape tests run a twentieth.
    let smoke = p.opts.scale == Scale::Smoke;
    let scaled = move |full: u64| if smoke { (full / 20).max(10) } else { full };

    // ── sim ─────────────────────────────────────────────────────────────
    let kernel = rp.fastest(
        "sim.kernel_ns_per_event",
        || (),
        |()| kernel_replay(&o.event_times, o.pending_mean),
    );
    let kernel_ns = kernel.ns_per_op;
    let cancel = rp.fastest(
        "sim.schedule_cancel_ns",
        || (),
        |()| {
            let mut sim = Sim::new(0);
            let n = scaled(100_000);
            let ids: Vec<_> = (0..n)
                .map(|i| sim.schedule_at(SimTime::from_nanos(i), |_| {}))
                .collect();
            for id in ids {
                sim.cancel(id);
            }
            sim.run();
            (n, 0)
        },
    );
    let kernel_share = o.sim_events as f64 * kernel_ns / work_ns;
    out.set("sim.events_per_op", o.sim_events as f64 / units);
    out.set("sim.kernel_ns_per_event", kernel_ns);
    out.set("sim.kernel_share", kernel_share);
    out.set("sim.schedule_cancel_ns", cancel.ns_per_op);

    // ── net ─────────────────────────────────────────────────────────────
    let send = rp.fastest(
        "net.link_send_ns_per_msg",
        || fresh_links(w),
        |links| {
            let mut sim = Sim::new(1);
            let n = scaled(50_000) as usize;
            for i in 0..n {
                links[i % links.len()].send(&mut sim, Dir::AToB, 300, |_, _| {});
            }
            sim.run();
            (n as u64, sim.events_executed())
        },
    );
    let service = SimDuration::from_secs_f64(BrokerConfig::default().live_query_service_s);
    let rpc = rp.fastest(
        "net.rpc_ns_per_call",
        || fresh_links(w),
        |links| {
            let mut sim = Sim::new(1);
            let n = scaled(20_000) as usize;
            for i in 0..n {
                let link = &links[i % links.len()];
                rpc_call(&mut sim, link, Dir::AToB, 300, 1_200, service, |_, _| {});
            }
            sim.run();
            (n as u64, sim.events_executed())
        },
    );
    let msgs: u64 = o
        .links
        .iter()
        .map(|l| {
            let s = l.stats();
            s.delivered + s.failed
        })
        .sum();
    let net_share = msgs as f64 * send.net_of_kernel(kernel_ns) / work_ns;
    out.set("net.rpc_ns_per_call", rpc.ns_per_op);
    out.set("net.link_send_ns_per_msg", send.ns_per_op);
    out.set("net.msgs_per_op", msgs as f64 / units);
    out.set("net.share", net_share);

    // ── jdl ─────────────────────────────────────────────────────────────
    let texts: Vec<&str> = p
        .inputs
        .jobs
        .iter()
        .take(SAMPLE_JOBS)
        .map(|j| j.jdl.as_str())
        .collect();
    let parse = rp.fastest(
        "jdl.parse_ns_per_job",
        || (),
        |()| {
            for t in &texts {
                black_box(JobDescription::parse(t).expect("generated JDL parses"));
            }
            (texts.len() as u64, 0)
        },
    );
    let jobs = parsed_jobs(p);
    let analyze = rp.fastest(
        "jdl.analyze_ns_per_job",
        || (),
        |()| {
            for j in &jobs {
                black_box(j.analyze());
            }
            (jobs.len() as u64, 0)
        },
    );
    // Every submitted job is parsed and analysed once; recovery re-parses
    // and re-analyses what it re-arms.
    let parsed = match w.kind {
        Kind::Submit => p.inputs.jobs.len() as u64,
        Kind::Recover => o.rearmed,
    };
    let jdl_share = parsed as f64 * (parse.ns_per_op + analyze.ns_per_op) / work_ns;
    out.set(
        "jdl.bytes_per_job",
        p.inputs.jdl_bytes() as f64 / p.inputs.jobs.len() as f64,
    );
    out.set("jdl.parse_ns_per_job", parse.ns_per_op);
    out.set("jdl.analyze_ns_per_job", analyze.ns_per_op);
    out.set("jdl.share", jdl_share);

    // ── core: matchmaking (before site: the shortlist sizes feed the
    //    live-query estimate) ─────────────────────────────────────────────
    let snapshot = o.broker.index().snapshot_arc();
    // The matched path serves batch and exclusive-interactive jobs.
    let matched_jobs: Vec<(JobDescription, CompiledJob, bool)> = jobs
        .iter()
        .filter(|j| !(j.is_interactive() && j.machine_access == cg_jdl::MachineAccess::Shared))
        .map(|j| {
            let analysis = j.analyze();
            let compiled = CompiledJob {
                requirements: analysis.requirements,
                rank: analysis.rank,
            };
            let require_full = j.is_interactive() && j.parallelism != cg_jdl::Parallelism::MpichG2;
            (j.clone(), compiled, require_full)
        })
        .collect();
    let prepare = rp.fastest(
        "core.prepare_ns_per_job",
        || (),
        |()| {
            for (j, _, _) in &matched_jobs {
                black_box(CompiledJob::prepare(j));
            }
            (matched_jobs.len().max(1) as u64, 0)
        },
    );
    let shortlists: Vec<Vec<Candidate>> = matched_jobs
        .iter()
        .map(|(j, c, full)| filter_candidates_columnar(j, c, &snapshot, *full))
        .collect();
    let filter = rp.fastest(
        "core.filter_ns_per_site",
        || (),
        |()| {
            for (j, c, full) in &matched_jobs {
                black_box(filter_candidates_columnar(j, c, &snapshot, *full));
            }
            ((matched_jobs.len() * snapshot.len()).max(1) as u64, 0)
        },
    );
    let policy = PolicyKind::default().policy();
    let signals = PolicySignals::new();
    let select = rp.fastest(
        "core.select_ns_per_job",
        || SimRng::new(7),
        |mut rng| {
            for c in &shortlists {
                black_box(select_detailed_with(policy, &signals, c, &mut rng));
            }
            (shortlists.len().max(1) as u64, 0)
        },
    );
    let candidates_per_job =
        shortlists.iter().map(Vec::len).sum::<usize>() as f64 / shortlists.len().max(1) as f64;
    // Every pass through the matched path: first matches, broker-queue
    // retries and resubmissions.
    let matches = o
        .records
        .iter()
        .filter(|r| r.discovered_at.is_some())
        .count() as u64
        + counter(&o.broker, "QueueRetry")
        + counter(&o.broker, "JobResubmitted");
    let match_share =
        matches as f64 * (snapshot.len() as f64 * filter.ns_per_op + select.ns_per_op) / work_ns;
    out.set("core.prepare_ns_per_job", prepare.ns_per_op);
    out.set("core.filter_ns_per_site", filter.ns_per_op);
    out.set("core.select_ns_per_job", select.ns_per_op);
    out.set("core.candidates_per_job", candidates_per_job);
    out.set("core.match_share", match_share);

    // ── site ────────────────────────────────────────────────────────────
    let machine_ad = rp.fastest(
        "site.machine_ad_ns",
        || (),
        |()| {
            let n = (scaled(20_000) as usize).max(o.sites.len());
            for i in 0..n {
                black_box(o.sites[i % o.sites.len()].machine_ad());
            }
            (n as u64, 0)
        },
    );
    let ads: Vec<Ad> = o.sites.iter().map(Site::machine_ad).collect();
    let base = AdSnapshot::build(ads.clone());
    let advance = rp.fastest(
        "site.snapshot_advance_ns_per_site",
        || perturbed(&ads),
        |fresh| {
            black_box(base.advance(fresh));
            (ads.len() as u64, 0)
        },
    );
    let delta = rp.fastest(
        "site.snapshot_delta_ns_per_site",
        || {
            perturbed(&ads)
                .into_iter()
                .enumerate()
                .map(|(i, ad)| (i, std::sync::Arc::new(ad)))
                .collect::<Vec<_>>()
        },
        |changes| {
            black_box(base.apply_delta(&changes));
            (ads.len() as u64, 0)
        },
    );
    let lrms = rp.fastest(
        "site.lrms_cycle_ns_per_job",
        || (),
        |()| {
            let mut sim = Sim::new(3);
            let lrms = Lrms::new(Policy::Fifo, 8, SimDuration::from_secs_f64(1.5));
            let n = scaled(10_000);
            for _ in 0..n {
                lrms.submit(
                    &mut sim,
                    LocalJobSpec::simple(SimDuration::from_secs(100)),
                    |_, _, _| {},
                );
            }
            sim.run();
            (n, sim.events_executed())
        },
    );
    let refreshes = o.broker.index().refreshes();
    let per_publication = machine_ad.ns_per_op
        + if o.windowed {
            delta.ns_per_op
        } else {
            advance.ns_per_op
        };
    // Estimated, not counted: one live query per shortlisted site per pass
    // through the matched path, capped by what the links actually carried.
    let live_queries = ((matches as f64 * candidates_per_job) as u64).min(msgs / 2);
    let machine_ads = refreshes * o.sites.len() as u64 + live_queries;
    let lrms_jobs = counter(&o.broker, "LrmsStarted");
    let site_share = (refreshes as f64 * o.sites.len() as f64 * per_publication
        + live_queries as f64 * machine_ad.ns_per_op
        + lrms_jobs as f64 * lrms.net_of_kernel(kernel_ns))
        / work_ns;
    out.set("site.machine_ad_ns", machine_ad.ns_per_op);
    out.set("site.machine_ads_per_op", machine_ads as f64 / units);
    out.set("site.snapshot_advance_ns_per_site", advance.ns_per_op);
    out.set("site.snapshot_delta_ns_per_site", delta.ns_per_op);
    out.set("site.mds_refreshes", refreshes as f64);
    out.set("site.lrms_cycle_ns_per_job", lrms.ns_per_op);
    out.set("site.share", site_share);

    // ── vm ──────────────────────────────────────────────────────────────
    let agent_cycle = rp.fastest(
        "vm.agent_cycle_ns",
        || (),
        |()| {
            let mut sim = Sim::new(5);
            let site = Site::new(SiteConfig {
                nodes: 8,
                ..SiteConfig::default()
            });
            let link = Link::new(LinkProfile::campus());
            let n = scaled(400);
            for id in 0..n {
                let slot: Rc<RefCell<Option<Rc<RefCell<cg_vm::Agent>>>>> =
                    Rc::new(RefCell::new(None));
                let carrier = Rc::new(RefCell::new(None));
                let (slot2, carrier2, site2) =
                    (Rc::clone(&slot), Rc::clone(&carrier), site.clone());
                let agent = deploy_agent(
                    &mut sim,
                    AgentId(id),
                    &site,
                    &link,
                    0.92,
                    AgentCosts::default(),
                    move |sim, ev| match ev {
                        AgentEvent::Submitted { carrier } => {
                            *carrier2.borrow_mut() = Some(*carrier);
                        }
                        AgentEvent::Ready { .. } => {
                            let agent = slot2.borrow().clone().expect("agent handle stored");
                            let (site3, carrier3) = (site2.clone(), Rc::clone(&carrier2));
                            let _ = agent.borrow().run_batch(
                                sim,
                                SimDuration::from_secs(60),
                                move |sim| {
                                    if let Some(c) = *carrier3.borrow() {
                                        site3.lrms().complete(sim, c);
                                    }
                                },
                            );
                        }
                        _ => {}
                    },
                );
                *slot.borrow_mut() = Some(agent);
            }
            sim.run();
            (n, sim.events_executed())
        },
    );
    let slot_cycle = rp.fastest(
        "vm.share_recompute_ns",
        || (),
        |()| {
            let mut sim = Sim::new(6);
            let n = scaled(5_000);
            for _ in 0..n {
                let vm = VmMachine::new(0.92);
                let _ = vm.run_batch(&mut sim, SimDuration::from_secs(100), |_| {});
                let _ = vm.run_interactive(&mut sim, SimDuration::from_secs(5), 10, |_| {});
            }
            sim.run();
            // Two starts and two finishes per machine, each a recompute.
            (4 * n, sim.events_executed())
        },
    );
    let slot_transitions: u64 = [
        "SlotStarted",
        "SlotPreempted",
        "SlotRestored",
        "SlotFinished",
    ]
    .iter()
    .map(|k| counter(&o.broker, k))
    .sum();
    let vm_share = slot_transitions as f64 * slot_cycle.net_of_kernel(kernel_ns) / work_ns;
    out.set(
        "vm.agents_per_op",
        o.broker.stats().agents_deployed as f64 / units,
    );
    out.set("vm.agent_cycle_ns", agent_cycle.ns_per_op);
    out.set("vm.share_recompute_ns", slot_cycle.ns_per_op);
    out.set("vm.share", vm_share);

    // ── trace ───────────────────────────────────────────────────────────
    let sample = &o.stream;
    let n_sample = sample.len().max(1) as u64;
    let record = rp.fastest(
        "trace.record_ns_per_event",
        || {
            (
                EventLog::with_metrics(65_536, MetricsRegistry::new()),
                sample.clone(),
            )
        },
        |(log, events)| {
            for te in events {
                log.record(te.at, te.event);
            }
            (n_sample, 0)
        },
    );
    let mut encoded_bytes = 0usize;
    let encode = rp.fastest(
        "trace.encode_ns_per_event",
        || Vec::with_capacity(512),
        |mut buf: Vec<u8>| {
            encoded_bytes = 0;
            for te in sample {
                buf.clear();
                encode_event(te, &mut buf);
                encoded_bytes += buf.len();
            }
            (n_sample, 0)
        },
    );
    let encoded: Vec<Vec<u8>> = sample
        .iter()
        .map(|te| {
            let mut buf = Vec::new();
            encode_event(te, &mut buf);
            buf
        })
        .collect();
    let decode = rp.fastest(
        "trace.decode_ns_per_event",
        || (),
        |()| {
            for buf in &encoded {
                black_box(decode_event(buf).expect("own encoding decodes"));
            }
            (n_sample, 0)
        },
    );
    let append_path = dir.file("replay-append.journal");
    let append = rp.fastest(
        "trace.journal_append_ns_per_event",
        || Journal::create(&append_path, JournalConfig { fsync_every: 0 }).expect("create journal"),
        |journal| {
            for te in sample {
                journal.append_event(te).expect("append");
            }
            (n_sample, 0)
        },
    );
    // fsync is disk time: always the wall clock, never normalised. What a
    // sync costs depends on how long the disk had since the last one (0.18 ms
    // back to back, 0.37 ms a millisecond apart on this box), so the replay
    // spins for the millisecond of sim work that separates two syncs at the
    // default `fsync_every`.
    let fsync_ms = {
        let span = rp.spans.open("trace.journal_fsync_ms_p50", Some(parent));
        let journal = Journal::create(&append_path, JournalConfig { fsync_every: 0 })
            .expect("create journal");
        let mut ms = Vec::new();
        for batch in sample.chunks(64).take(40) {
            for te in batch {
                journal.append_event(te).expect("append");
            }
            let spin_until = now_ns() + 1_000_000;
            while now_ns() < spin_until {
                std::hint::spin_loop();
            }
            let t0 = now_ns();
            journal.sync().expect("sync");
            ms.push((now_ns() - t0) as f64 / 1e6);
        }
        rp.spans.close(span, ms.len() as u64);
        if ms.is_empty() {
            0.0
        } else {
            stats::percentile(&ms, 0.5)
        }
    };
    let _ = std::fs::remove_file(&append_path);
    let state = o.broker.replay_state();
    let blob = encode_state(&state);
    let snap_encode = rp.fastest(
        "trace.snapshot_encode_ms",
        || (),
        |()| {
            black_box(encode_state(&state));
            (1, 0)
        },
    );
    let snap_decode = rp.fastest(
        "trace.snapshot_decode_ms",
        || (),
        |()| {
            black_box(decode_state(&blob).expect("own snapshot decodes"));
            (1, 0)
        },
    );
    // Writing a snapshot record: the blob plus the sync it forces. Wall
    // clock, like every disk time.
    let snap_append_ms = {
        let span = rp.spans.open("trace.snapshot_append_ms", Some(parent));
        let journal = Journal::create(&append_path, JournalConfig { fsync_every: 0 })
            .expect("create journal");
        let mut ms = Vec::new();
        for seq in 0..5 {
            let t0 = now_ns();
            journal
                .append_snapshot(seq, &blob)
                .expect("append snapshot");
            ms.push((now_ns() - t0) as f64 / 1e6);
        }
        rp.spans.close(span, ms.len() as u64);
        let _ = std::fs::remove_file(&append_path);
        stats::min(&ms)
    };
    let stream_bytes = file_len(&o.stream_file);
    // The work phase keeps what it opens, so freeing it (150k events) is
    // not part of the cost: each attempt's journal is dropped by the next
    // one's prepare step.
    let opened = RefCell::new(None);
    let open = rp.fastest(
        "trace.open_journal_mb_per_s",
        || drop(opened.take()),
        |()| {
            opened.replace(Some(
                open_journal(&o.stream_file).expect("stream file opens"),
            ));
            (1, 0)
        },
    );
    drop(opened);
    let apply = rp.fastest(
        "trace.replay_apply_ns_per_event",
        || (),
        |()| {
            black_box(ReplayState::from_events(sample));
            (n_sample, 0)
        },
    );
    let invariants = rp.fastest(
        "trace.invariants_ns_per_event",
        || (),
        |()| {
            black_box(check_invariants(sample));
            (n_sample, 0)
        },
    );
    let metrics_inc = rp.fastest("trace.metrics_inc_ns", MetricsRegistry::new, |reg| {
        let n = scaled(100_000);
        for _ in 0..n {
            reg.inc("events.JobSubmitted");
        }
        (n, 0)
    });
    let metrics_observe = rp.fastest("trace.metrics_observe_ns", MetricsRegistry::new, |reg| {
        let n = scaled(100_000);
        for i in 0..n {
            reg.observe("response_s", i as f64);
        }
        (n, 0)
    });
    let record_share = o.recorded as f64 * record.ns_per_op / work_ns;
    // The durable write path of a journal workload: every record appended,
    // a sync per 64 of them, and per snapshot a state encode plus the write
    // and sync of the blob — charged at half their end-of-run cost, because
    // the state grows linearly over the run. The read path of recovery:
    // opening (decoding) the file.
    let snapshots = o.own_journal_records.saturating_sub(o.recorded);
    let fsyncs = if w.journal && w.kind == Kind::Submit {
        o.recorded / u64::from(JournalConfig::default().fsync_every) + snapshots + 1
    } else {
        0
    };
    let journal_share = match (w.kind, w.journal) {
        (Kind::Submit, true) => {
            (o.recorded as f64 * append.ns_per_op
                + (o.recorded / u64::from(JournalConfig::default().fsync_every)) as f64
                    * fsync_ms
                    * 1e6
                + snapshots as f64 * (snap_encode.ns_per_op + snap_append_ms * 1e6) / 2.0)
                / work_ns
        }
        (Kind::Recover, _) => open.ns_per_op / work_ns,
        _ => 0.0,
    };
    out.set("trace.events_per_op", o.recorded as f64 / units);
    out.set("trace.ring_dropped", o.ring_dropped as f64);
    out.set("trace.record_ns_per_event", record.ns_per_op);
    out.set("trace.record_share", record_share);
    out.set("trace.encode_ns_per_event", encode.ns_per_op);
    out.set("trace.decode_ns_per_event", decode.ns_per_op);
    out.set(
        "trace.bytes_per_event",
        encoded_bytes as f64 / n_sample as f64,
    );
    out.set("trace.journal_append_ns_per_event", append.ns_per_op);
    out.set("trace.journal_fsyncs_per_op", fsyncs as f64 / units);
    out.set(
        "trace.journal_bytes_per_op",
        o.own_journal_bytes as f64 / units,
    );
    out.set("trace.journal_fsync_ms_p50", fsync_ms);
    out.set("trace.journal_share", journal_share);
    out.set("trace.snapshot_encode_ms", snap_encode.ns_per_op / 1e6);
    out.set("trace.snapshot_decode_ms", snap_decode.ns_per_op / 1e6);
    out.set("trace.snapshot_append_ms", snap_append_ms);
    out.set(
        "trace.open_journal_mb_per_s",
        stream_bytes as f64 / 1e6 / (open.ns_per_op / 1e9),
    );
    out.set("trace.replay_apply_ns_per_event", apply.ns_per_op);
    out.set("trace.invariants_ns_per_event", invariants.ns_per_op);
    out.set("trace.metrics_inc_ns", metrics_inc.ns_per_op);
    out.set("trace.metrics_observe_ns", metrics_observe.ns_per_op);

    // ── core: the rest ──────────────────────────────────────────────────
    let (p50, p99) = if o.submit_ns.is_empty() {
        (0.0, 0.0)
    } else {
        let us: Vec<f64> = o.submit_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
        (stats::percentile(&us, 0.5), stats::percentile(&us, 0.99))
    };
    let table = rp.fastest(
        "core.table_op_ns",
        || (),
        |()| {
            let table: ShardedJobTable<JobRecord> = ShardedJobTable::new(DEFAULT_SHARDS);
            let n = scaled(20_000);
            for i in 0..n {
                table.insert(JobId(i), JobRecord::new(JobId(i), "user", SimTime::ZERO));
            }
            for i in 0..n {
                table.update(JobId(i), |r| r.resubmissions += 1);
            }
            for i in 0..n {
                black_box(table.with(JobId(i), |r| r.resubmissions));
            }
            (3 * n, 0)
        },
    );
    let usages = usages_mean(sample);
    let total_cpus: u32 = o.sites.iter().map(|s| s.lrms().total_nodes() as u32).sum();
    let tick = rp.fastest(
        "core.fairshare_tick_ns",
        || {
            let mut fs = FairShare::new(BrokerConfig::default().fairshare, total_cpus.max(1));
            for i in 0..usages {
                fs.register(format!("user{}", i % 8), UsageKind::Batch, 1);
            }
            fs
        },
        |mut fs| {
            let n = scaled(2_000);
            for i in 0..n {
                fs.tick(SimTime::from_secs(60 * i));
            }
            (n, 0)
        },
    );
    let ticks = counter(&o.broker, "FairShareTick");
    let fairshare_share = ticks as f64 * tick.ns_per_op / work_ns;
    // Recovery on the stream file: the crashed journal for `recover_replay`,
    // the complete captured stream (a no-op rebuild) elsewhere.
    let loaded = open_journal(&o.stream_file).expect("stream file opens");
    let mut rp_slow = Replayer {
        attempts: attempts.min(3),
        ..rp
    };
    let rebuild = rp_slow.fastest(
        "core.recover_rebuild_ms",
        || recover_setup(w, p.opts.seed),
        |(mut sim, parts)| {
            black_box(
                CrossBroker::recover(
                    &mut sim,
                    parts.handles,
                    parts.mds_link,
                    parts.config,
                    &loaded,
                )
                .expect("snapshot blob decodes"),
            );
            (1, 0)
        },
    );
    let drain = rp_slow.fastest(
        "core.recover_drain_ms",
        || {
            let (mut sim, parts) = recover_setup(w, p.opts.seed);
            let (broker, report) = CrossBroker::recover(
                &mut sim,
                parts.handles,
                parts.mds_link,
                parts.config,
                &loaded,
            )
            .expect("snapshot blob decodes");
            (sim, broker, report)
        },
        |(mut sim, broker, report)| {
            sim.run_until(report.crash_at + SimDuration::from_secs(w.drain_s));
            black_box(broker);
            (1, 0)
        },
    );
    let recover_share = if w.kind == Kind::Recover {
        rebuild.ns_per_op / work_ns
    } else {
        0.0
    };
    out.set("core.submit_host_us_p50", p50);
    out.set("core.submit_host_us_p99", p99);
    out.set("core.table_op_ns", table.ns_per_op);
    out.set("core.fairshare_tick_ns", tick.ns_per_op);
    out.set("core.fairshare_ticks_per_op", ticks as f64 / units);
    out.set("core.fairshare_share", fairshare_share);
    out.set("core.recover_rebuild_ms", rebuild.ns_per_op / 1e6);
    out.set("core.recover_drain_ms", drain.ns_per_op / 1e6);
    out.set("core.recover_share", recover_share);
    let attributed = kernel_share
        + net_share
        + jdl_share
        + site_share
        + vm_share
        + record_share
        + journal_share
        + match_share
        + fairshare_share
        + recover_share;
    out.set("core.glue_share", 1.0 - attributed);

    // ── host ────────────────────────────────────────────────────────────
    let traced_s = untraced.seconds(o.work);
    out.set("host.alloc_bytes_per_op", o.allocs.bytes as f64 / units);
    out.set(
        "host.tracing_overhead_frac",
        traced_s / untraced.work_s() - 1.0,
    );
    out.set(
        "host.repeat_spread_frac",
        crate::report::repeat_spread_frac(untraced),
    );
    out.set("host.work_s", untraced.work_s());
    rp_slow.spans.close(parent, out.values.len() as u64);
    out.values
}

/// The traced run: a short untraced run for the denominator, the traced
/// repeat, the layer replays, and the trace file.
pub fn run_traced(w: &'static Workload, opts: &RunOptions) -> (RunResult, Vec<LayerValue>) {
    let mut spans = Spans::default();
    let root = spans.open("traced_run", None);
    let mut meter = Meter::new();

    let untraced_span = spans.open("untraced_repeats", Some(root));
    let (p, peak) = run::warm_up(w, opts, &mut meter);
    let (samples, reference, mut checks) =
        p.timed_repeats(opts.seconds * UNTRACED_SHARE, UNTRACED_FLOOR, &mut meter);
    let setup_only = p.setup_only(&mut meter);
    spans.close(untraced_span, samples.len() as u64);

    let traced_span = spans.open("traced_repeat", Some(root));
    let observed = match w.kind {
        Kind::Submit => observe_submit(&p, &mut meter),
        Kind::Recover => observe_recover(&p, &mut meter),
    };
    spans.close(traced_span, observed.sim_events);
    // One span per arrival: parse + `submit`, laid end to end from the
    // start of the traced repeat (their true start times are sim-ordered,
    // not recorded, so only durations are exact).
    let traced_start = spans.all()[traced_span].start_ns;
    let mut at = traced_start;
    for ns in &observed.submit_ns {
        spans.push(Span {
            name: "core.submit".into(),
            start_ns: at,
            end_ns: at + ns,
            parent: Some(traced_span),
            count: 1,
        });
        at += ns;
    }

    let own = p.repeat(&mut meter, true);
    checks.extend(p.correctness(&reference, &own));
    checks.push(run::check(
        "traced_repeat_agrees",
        if run::sim_digest(&observed.records) == reference.digest {
            Ok(())
        } else {
            Err("tracing changed what the sim decided".into())
        },
    ));
    let result = RunResult {
        workload: w.name,
        normalise: w.normalise,
        seed: opts.seed,
        draw: p.draw,
        gen_s: p.gen_s,
        input_s: p.input_s,
        samples,
        setup_only,
        slowdowns: Vec::new(),
        outcome: reference,
        allocs: own.allocs,
        peak_rss_mb: peak,
        checks,
    };
    let mut layers = replay_layers(&p, &observed, &result, &mut spans, &mut meter, root);
    let span_count = spans.all().len() as u64;
    spans.close(root, span_count);
    let path = trace_path(w.name);
    if let Some(dirname) = path.parent() {
        let _ = std::fs::create_dir_all(dirname);
    }
    if let Err(e) = std::fs::write(&path, spans.to_json(w.name, opts.seed).render() + "\n") {
        eprintln!("perf: could not write {}: {e}", path.display());
    }
    // Report order is the declared order.
    layers.sort_by_key(|l| {
        PER_LAYER
            .iter()
            .position(|m| m.name == l.name)
            .unwrap_or(usize::MAX)
    });
    let mut result = result;
    result.slowdowns = meter.slowdowns;
    let reported: Vec<&str> = layers.iter().map(|l| l.name).collect();
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    result.checks.push(run::check(
        "every_layer_metric_reported_once",
        if reported == declared {
            Ok(())
        } else {
            Err(format!("reported {reported:?}"))
        },
    ));
    (result, layers)
}
