//! Typed lifecycle events: the one table every view of them comes from.
//!
//! Nothing is derived from a serialization crate: the `events!`
//! invocation below is the schema — one row per
//! variant, `<tag> <Variant> { <field>: <type>, … }` — and the macro expands
//! it to the [`Event`] enum, [`Event::kind`], the JSON field writer behind
//! [`TimedEvent::to_json`], the bodies of [`crate::encode_event`] /
//! [`crate::decode_event`], the non-building walk behind the journal
//! reader's check (`Event::skip`), and the one-of-every-variant
//! [`Event::catalog`] the codec tests iterate. Adding an event is one row;
//! a row without a tag does not parse, and a reused tag does not compile
//! (its decode arm is unreachable, which the generated `match` denies, at
//! the offending row).
//!
//! Tags are wire format: they are explicit, never renumbered and never
//! reused, and fields are framed and rendered in declaration order. A
//! deleted variant leaves its tag in the table's trailing `retired { … }`
//! list: decoding it is [`CodecError::BadTag`], [`RETIRED_TAGS`] names it,
//! and a row that reused it would make the retired decode arm unreachable,
//! which does not compile either.
//! `tests/fixtures/event_wire_v1.txt` pins the bytes and the JSON of every
//! variant; a new row adds a line there, an old line never changes.
//!
//! How a field *type* is framed, checked and rendered is `Field`'s six
//! impls. JSON is one flat object per event: `at_ns`/`seq`/`event` first,
//! then the variant's own fields.

use std::fmt::Write;
use std::sync::Arc;

use cg_sim::SimTime;

use crate::codec::{put_bool, put_f64, put_str, put_u32, put_u64, put_u8, CodecError, Cursor};

/// A type an [`Event`] field can have: its binary framing, its JSON
/// rendering and the value the catalog gives it.
trait Field: Sized {
    /// Appends the binary framing of `self`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reads one value back.
    fn decode(c: &mut Cursor<'_>) -> Result<Self, CodecError>;
    /// Walks past one value with every check [`Field::decode`] makes,
    /// building nothing.
    fn skip(c: &mut Cursor<'_>) -> Result<(), CodecError> {
        Self::decode(c).map(drop)
    }
    /// Appends `self` as a JSON value.
    fn json(&self, out: &mut String);
    /// The next catalog value of this type.
    fn sample(from: &mut FieldSamples<'_>) -> Self;
}

impl Field for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self, CodecError> {
        c.u64()
    }
    fn json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn sample(from: &mut FieldSamples<'_>) -> Self {
        from.u64s.swap(0, 1);
        from.u64s[1]
    }
}

impl Field for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self, CodecError> {
        c.u32()
    }
    fn json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn sample(from: &mut FieldSamples<'_>) -> Self {
        from.u32
    }
}

impl Field for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bool(out, *self);
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self, CodecError> {
        c.bool()
    }
    fn json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn sample(from: &mut FieldSamples<'_>) -> Self {
        from.flag
    }
}

impl Field for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self, CodecError> {
        c.f64()
    }
    fn json(&self, out: &mut String) {
        json_number(out, *self);
    }
    fn sample(from: &mut FieldSamples<'_>) -> Self {
        from.f64
    }
}

impl Field for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self, CodecError> {
        c.str()
    }
    fn skip(c: &mut Cursor<'_>) -> Result<(), CodecError> {
        c.str_ref().map(drop)
    }
    fn json(&self, out: &mut String) {
        json_string(out, self);
    }
    fn sample(from: &mut FieldSamples<'_>) -> Self {
        from.next_str().to_string()
    }
}

/// A name the process already holds — a site, an agent slot, a user, a
/// policy — shared with the event instead of copied into it. Framed and
/// rendered exactly as a `String`; decoding makes the one `Arc` straight
/// from the buffer's bytes.
impl Field for Arc<str> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn decode(c: &mut Cursor<'_>) -> Result<Self, CodecError> {
        c.str_ref().map(Arc::from)
    }
    fn skip(c: &mut Cursor<'_>) -> Result<(), CodecError> {
        c.str_ref().map(drop)
    }
    fn json(&self, out: &mut String) {
        json_string(out, self);
    }
    fn sample(from: &mut FieldSamples<'_>) -> Self {
        Arc::from(from.next_str())
    }
}

/// The values [`Event::catalog`] fills fields from. Consecutive `u64`
/// fields alternate between the two on offer, and so do consecutive string
/// fields whether they are `String` or `Arc<str>`, so a codec that swapped
/// two neighbours would not round-trip.
#[derive(Debug, Clone, Copy)]
pub struct FieldSamples<'a> {
    /// Every `u64` field.
    pub u64s: [u64; 2],
    /// Every `u32` field.
    pub u32: u32,
    /// Every `bool` field.
    pub flag: bool,
    /// Every `f64` field.
    pub f64: f64,
    /// Every `String` and `Arc<str>` field.
    pub strs: [&'a str; 2],
}

impl<'a> FieldSamples<'a> {
    /// The other string of the two: the one alternation both string impls
    /// share.
    fn next_str(&mut self) -> &'a str {
        self.strs.swap(0, 1);
        self.strs[1]
    }
}

/// Expands the event table (see the module docs) into every generated view
/// of it. The semantic folds over events (`ReplayState::apply`,
/// `SpoolMark::fold`, `check_invariants`) are behaviour, not schema, and
/// stay hand-written.
macro_rules! events {
    ($(
        $(#[$variant_meta:meta])*
        $tag:literal $name:ident {
            $( $(#[$field_meta:meta])* $field:ident: $ty:ty ),* $(,)?
        }
    ),* $(,)?
    retired { $( $retired_tag:literal $retired_name:ident ),* $(,)? }
    ) => {
        /// Tags of deleted variants, with the name each one had. They decode
        /// to [`CodecError::BadTag`] and are never given to a new row.
        pub const RETIRED_TAGS: &[(u8, &str)] = &[
            $( ($retired_tag, stringify!($retired_name)), )*
        ];

        /// One broker-stack lifecycle event. Identifiers are plain integers and
        /// strings (not the originating crates' newtypes) so this crate sits below
        /// every other layer and never creates a dependency cycle. A name the
        /// process already holds (site, target, machine, user, policy, stream)
        /// is an `Arc<str>` shared with its owner, so recording the event copies
        /// no string; text made for this one event (a reason, a message, the
        /// commit record) is a `String`, which `Arc::from` would only copy again.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $(
                $(#[$variant_meta])*
                $name {
                    $( $(#[$field_meta])* $field: $ty, )*
                },
            )*
        }

        impl Event {
            /// Stable variant name, used as the JSON `event` field and as the
            /// auto-counter suffix in a [`crate::MetricsRegistry`].
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$name { .. } => stringify!($name), )*
                }
            }

            /// Appends this variant's own fields (leading comma included) to a
            /// JSON object under construction.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $( Event::$name { $($field,)* } => {
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            Field::json($field, out);
                        )*
                    } )*
                }
            }

            /// Appends the tag byte and the fields in declaration order.
            #[inline]
            pub(crate) fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $( Event::$name { $($field,)* } => {
                        put_u8(out, $tag);
                        $( Field::encode($field, out); )*
                    } )*
                }
            }

            /// Reads the fields of the variant `tag` names.
            // A tag on two rows, or on a row and in `retired`, makes the
            // later arm unreachable.
            #[deny(unreachable_patterns)]
            #[inline]
            pub(crate) fn decode(tag: u8, c: &mut Cursor<'_>) -> Result<Event, CodecError> {
                Ok(match tag {
                    $( $tag => Event::$name {
                        $( $field: <$ty as Field>::decode(c)?, )*
                    }, )*
                    $( $retired_tag => return Err(CodecError::BadTag($retired_tag)), )*
                    other => return Err(CodecError::BadTag(other)),
                })
            }

            /// Walks the fields of the variant `tag` names as
            /// [`Event::decode`] reads them, with the same checks and
            /// errors, and builds nothing.
            #[deny(unreachable_patterns)]
            #[inline]
            pub(crate) fn skip(tag: u8, c: &mut Cursor<'_>) -> Result<(), CodecError> {
                match tag {
                    $( $tag => { $( <$ty as Field>::skip(c)?; )* } )*
                    $( $retired_tag => return Err(CodecError::BadTag($retired_tag)), )*
                    other => return Err(CodecError::BadTag(other)),
                }
                Ok(())
            }

            /// One instance of every variant, in table order, fields filled
            /// from `samples`: what the codec's exhaustive tests iterate.
            pub fn catalog(mut samples: FieldSamples<'_>) -> Vec<Event> {
                vec![
                    $( Event::$name {
                        $( $field: <$ty as Field>::sample(&mut samples), )*
                    }, )*
                ]
            }
        }
    };
}

events! {
    // ── broker job lifecycle ────────────────────────────────────────────
    /// A job entered the broker.
    0 JobSubmitted {
        /// Broker job id.
        job: u64,
        /// Submitting user.
        user: Arc<str>,
        /// Whether the job is interactive.
        interactive: bool,
    },
    /// The job's full description, journalled right after [`Event::JobSubmitted`]
    /// so crash recovery can re-run matchmaking. The pair acts as the job's
    /// commit record: a journal that contains `JobSubmitted` but not `JobAd`
    /// aborts the job deterministically on recovery.
    1 JobAd {
        /// Broker job id.
        job: u64,
        /// The classad source, as re-parseable JDL text.
        jdl: String,
        /// Declared runtime, nanoseconds.
        runtime_ns: u64,
    },
    /// A batch job with no current candidates entered the broker queue.
    2 JobQueued {
        /// Broker job id.
        job: u64,
    },
    /// The broker re-ran matchmaking for a queued batch job.
    3 QueueRetry {
        /// Broker job id.
        job: u64,
    },
    /// A time-limited claim was taken on a target before dispatch.
    4 LeaseGranted {
        /// Broker job id.
        job: u64,
        /// Leased target, e.g. `agent:3` or `site:cesga`.
        target: Arc<str>,
        /// Lease expiry, nanoseconds of sim time.
        until_ns: u64,
    },
    /// The job left the broker towards a target.
    5 JobDispatched {
        /// Broker job id.
        job: u64,
        /// Dispatch target, e.g. `agent:3` or `site:cesga`.
        target: Arc<str>,
        /// Execution backend at the target (`sim-lrms`, `process`), so
        /// replays know what ran the job.
        backend: Arc<str>,
    },
    /// The job began computing.
    6 JobStarted {
        /// Broker job id.
        job: u64,
    },
    /// On-line scheduling withdrew the job from a queue and re-matched it.
    7 JobResubmitted {
        /// Broker job id.
        job: u64,
        /// 1-based resubmission attempt.
        attempt: u32,
    },
    /// A resubmission was delayed by bounded exponential backoff.
    8 JobBackoff {
        /// Broker job id.
        job: u64,
        /// 1-based resubmission attempt being delayed.
        attempt: u32,
        /// Jittered delay before the retry, nanoseconds.
        delay_ns: u64,
    },
    /// Terminal: the job completed normally.
    9 JobFinished {
        /// Broker job id.
        job: u64,
    },
    /// Terminal: the job failed.
    10 JobFailed {
        /// Broker job id.
        job: u64,
        /// Failure reason.
        reason: String,
    },
    /// Terminal: the user cancelled the job.
    11 JobCancelled {
        /// Broker job id.
        job: u64,
    },
    /// The submit-time JDL analyzer produced a finding for this job's ad.
    12 JdlDiagnostic {
        /// Broker job id.
        job: u64,
        /// `error` or `warning`.
        severity: String,
        /// Stable diagnostic code, e.g. `E108`.
        code: String,
        /// Human-readable description.
        message: String,
    },
    /// Terminal: the ad failed static analysis and was rejected at submit;
    /// no dispatch or lease may follow.
    13 JdlRejected {
        /// Broker job id.
        job: u64,
        /// Number of `error`-severity diagnostics.
        errors: u32,
    },
    /// Matchmaking excluded a candidate whose `Rank` evaluated to NaN
    /// (e.g. `0.0/0.0`). Without this exclusion the selection fold would
    /// silently never pick the site; the diagnostic makes the drop visible.
    41 RankNanDiscarded {
        /// Broker job id whose `Rank` misbehaved.
        job: u64,
        /// Site whose candidate was discarded.
        site: Arc<str>,
    },
    /// The selection step chose a site for a job under a named policy.
    /// One event per selected site (co-allocation emits one per planned
    /// subjob site), making policy A/B runs diffable from the trace alone.
    42 PolicyDecision {
        /// Broker job id.
        job: u64,
        /// Registry name of the policy that scored the candidates.
        policy: Arc<str>,
        /// The chosen site.
        site: Arc<str>,
        /// The winning score (the rank itself under `free-cpus-rank`).
        score: f64,
    },

    // ── fair-share scheduler ────────────────────────────────────────────
    /// The fair-share engine decayed usage and recomputed priorities.
    14 FairShareTick {
        /// Live usage records at the tick.
        usages: u32,
    },
    /// A usage record changed application kind (and thus its factor).
    15 PriorityChanged {
        /// Usage record id.
        usage: u64,
        /// New kind: `batch`, `interactive` or `yielded-batch`.
        kind: Arc<str>,
    },

    // ── glide-in agents & VM multiprogramming ───────────────────────────
    /// A glide-in agent was submitted to a site's LRMS.
    16 AgentDeployed {
        /// Agent id.
        agent: u64,
        /// Hosting site name.
        site: Arc<str>,
    },
    /// The agent started on a worker node and is accepting work.
    17 AgentReady {
        /// Agent id.
        agent: u64,
    },
    /// The agent's carrier job ended.
    18 AgentDied {
        /// Agent id.
        agent: u64,
        /// LRMS-reported reason.
        reason: String,
        /// True when the agent left on purpose (machine handed back).
        voluntary: bool,
    },
    /// The batch job riding the agent finished.
    19 AgentBatchFinished {
        /// Agent id.
        agent: u64,
    },
    /// An arriving interactive job demoted the agent's batch job.
    20 BatchYielded {
        /// Agent id.
        agent: u64,
        /// Interactive broker job id that caused the yield.
        job: u64,
        /// Declared performance loss, percent.
        performance_loss: u32,
    },
    /// The interactive job departed; the batch job's priority came back.
    21 BatchRestored {
        /// Agent id.
        agent: u64,
        /// Interactive broker job id that departed.
        job: u64,
    },
    /// A VM slot started executing a task.
    22 SlotStarted {
        /// Machine label.
        machine: Arc<str>,
        /// Whether the task is interactive.
        interactive: bool,
    },
    /// Interactive arrival throttled the slot's batch task.
    23 SlotPreempted {
        /// Machine label.
        machine: Arc<str>,
        /// Batch task's new CPU rate, percent of one CPU.
        batch_rate_pct: u32,
    },
    /// Last interactive task left; the batch task runs at full rate again.
    24 SlotRestored {
        /// Machine label.
        machine: Arc<str>,
    },
    /// A VM slot task completed.
    25 SlotFinished {
        /// Machine label.
        machine: Arc<str>,
        /// Whether the task was interactive.
        interactive: bool,
    },

    // ── Grid Console ────────────────────────────────────────────────────
    /// The console session to the job's agent authenticated.
    26 ConsoleConnected {
        /// Broker job id.
        job: u64,
    },
    /// A reliable-mode connect attempt failed and will be retried.
    27 ConsoleRetry {
        /// Broker job id.
        job: u64,
        /// 1-based attempt that failed.
        attempt: u32,
    },
    /// First output bytes reached the user.
    28 ConsoleReady {
        /// Broker job id.
        job: u64,
    },
    /// A record was appended to an output spool.
    29 SpoolAppend {
        /// Spool/stream label.
        stream: Arc<str>,
        /// Record sequence number.
        seq: u64,
    },
    /// Records through `seq` were acknowledged by the peer.
    30 SpoolAck {
        /// Spool/stream label.
        stream: Arc<str>,
        /// Highest acknowledged sequence number.
        seq: u64,
    },
    /// Unacknowledged records were replayed after a reconnect.
    31 SpoolReplay {
        /// Spool/stream label.
        stream: Arc<str>,
        /// Replay resumed after this sequence number.
        after: u64,
        /// Records replayed.
        records: u32,
    },
    /// An output buffer emitted a chunk.
    32 BufferFlush {
        /// Stream label.
        stream: Arc<str>,
        /// Trigger: `full`, `timeout`, `eol` or `explicit`.
        reason: String,
        /// Bytes emitted.
        bytes: u64,
    },
    /// An agent connected to the shadow (real transport).
    33 ShadowConnected {
        /// Process rank.
        rank: u32,
    },
    /// An agent connection to the shadow dropped.
    34 ShadowDisconnected {
        /// Process rank.
        rank: u32,
    },

    // ── site LRMS ───────────────────────────────────────────────────────
    /// A job entered a site scheduler's queue.
    35 LrmsQueued {
        /// Site name.
        site: Arc<str>,
        /// LRMS-local job id.
        job: u64,
    },
    /// A site scheduler placed a job on nodes.
    36 LrmsStarted {
        /// Site name.
        site: Arc<str>,
        /// LRMS-local job id.
        job: u64,
        /// Nodes allocated.
        nodes: u32,
    },
    /// A site job finished normally.
    37 LrmsFinished {
        /// Site name.
        site: Arc<str>,
        /// LRMS-local job id.
        job: u64,
    },
    /// A site job was killed (walltime, broker withdrawal, …).
    38 LrmsKilled {
        /// Site name.
        site: Arc<str>,
        /// LRMS-local job id.
        job: u64,
        /// Kill reason.
        reason: String,
    },
    /// A terminal disposition fell off the site's bounded poll-back record:
    /// status polls for this job now return nothing, so a rejoining broker
    /// must treat its outcome as unknown.
    51 DispositionEvicted {
        /// Site name.
        site: Arc<str>,
        /// LRMS-local job id whose record was evicted.
        job: u64,
    },

    // ── site membership & degradation ───────────────────────────────────
    /// Missed MDS refreshes or failed/timed-out live queries put a site on
    /// probation: running work keeps going, but no new lease or dispatch
    /// may land on it until it answers again.
    43 SiteSuspect {
        /// Site name.
        site: Arc<str>,
        /// Consecutive missed MDS refreshes at the transition.
        missed_refreshes: u32,
        /// Consecutive failed or timed-out live queries at the transition.
        failed_queries: u32,
    },
    /// Obituary: the suspect site stayed quiet past the dead threshold.
    /// Its capacity lease is revoked and in-flight jobs are re-matched
    /// without burning resubmission budget.
    44 SiteDead {
        /// Site name.
        site: Arc<str>,
        /// Broker jobs in flight on the site when it was declared dead.
        in_flight: u32,
    },
    /// A `Suspect`/`Dead` site answered again: it is `Alive` and eligible
    /// for leases, and its failure streaks are forgiven.
    45 SiteRejoin {
        /// Site name.
        site: Arc<str>,
        /// Time spent outside `Alive`, nanoseconds.
        down_ns: u64,
    },
    /// A live per-site query exceeded its per-attempt timeout budget.
    46 LiveQueryTimeout {
        /// Broker job id whose matchmaking issued the query.
        job: u64,
        /// Queried site.
        site: Arc<str>,
        /// 1-based attempt that timed out.
        attempt: u32,
    },
    /// A failed or timed-out live query will be re-run after a bounded,
    /// jittered, per-job-seeded backoff delay.
    47 QueryRetry {
        /// Broker job id.
        job: u64,
        /// Queried site.
        site: Arc<str>,
        /// 1-based attempt about to be re-run.
        attempt: u32,
        /// Jittered delay before the retry, nanoseconds.
        delay_ns: u64,
    },
    /// The information system was unreachable; matchmaking fell back to
    /// the last staleness-bounded `AdSnapshot` instead of failing the job.
    48 DegradedMatch {
        /// Broker job id matched from stale data.
        job: u64,
        /// Age of the snapshot that served the match, nanoseconds.
        staleness_ns: u64,
    },

    // ── crash recovery ──────────────────────────────────────────────────
    /// A fresh broker finished replaying a journal and re-armed in-flight
    /// work. First event of a post-crash epoch.
    39 BrokerRecovered {
        /// Jobs restored into the job table.
        jobs: u64,
        /// Queued batch jobs put back on the broker queue.
        requeued: u64,
        /// In-flight jobs sent back through matchmaking.
        resubmitted: u64,
        /// Agents that were alive in the journal and died with the broker.
        agents_lost: u64,
    },

    // ── experiments ─────────────────────────────────────────────────────
    /// A named scalar produced by a bench binary.
    40 Measurement {
        /// Metric name, e.g. `table1/exclusive/response_s`.
        name: String,
        /// Metric value.
        value: f64,
    },

    retired {
        // A leaf's delta merged into the two-tier information index's root.
        49 GiisDelta,
        // A windowed refresh sweep's accounting.
        50 RefreshSweep,
    }
}

/// An [`Event`] with its position in the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Simulation time of the event (wall-derived for real-thread events).
    pub at: SimTime,
    /// Monotonic per-log sequence number (gap-free even when the ring
    /// drops old entries).
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

impl TimedEvent {
    /// Renders the event as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out);
        out
    }

    /// Appends [`Self::to_json`]'s object to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"at_ns\":{},\"seq\":{},\"event\":\"{}\"",
            self.at.as_nanos(),
            self.seq,
            self.event.kind()
        );
        self.event.write_fields(out);
        out.push('}');
    }
}

/// Appends `s` as a JSON string.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    json_escape(out, s);
    out.push('"');
}

/// Appends `s` escaped for inclusion inside JSON double quotes.
fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends an `f64` as a valid JSON number (JSON has no NaN/Infinity).
fn json_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{x}");
    // `{}` on a whole f64 prints no decimal point; keep it a float so
    // downstream type inference stays stable.
    if !out[start..].contains(['.', 'e']) {
        out.push_str(".0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_and_control() {
        let mut out = String::new();
        json_escape(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn json_number_is_always_valid_json() {
        let mut out = String::new();
        for x in [1.5, 3.0, f64::NAN, -0.0] {
            json_number(&mut out, x);
            out.push(' ');
        }
        assert_eq!(out, "1.5 3.0 null -0.0 ");
    }

    #[test]
    fn a_retired_tag_is_a_bad_tag() {
        // `at`, `seq`, then tag 49 with the three fields its row had.
        let mut frame = vec![0; 16];
        frame.push(49);
        frame.extend_from_slice(&[3, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0]);
        assert_eq!(crate::decode_event(&frame), Err(CodecError::BadTag(49)));
        assert!(RETIRED_TAGS.iter().any(|&(tag, _)| tag == 49));
    }

    #[test]
    fn every_variant_names_itself() {
        let samples = FieldSamples {
            u64s: [1, 2],
            u32: 3,
            flag: true,
            f64: 0.5,
            strs: ["s", "t"],
        };
        for e in Event::catalog(samples) {
            // `derive(Debug)` spells the variant independently of the table.
            let debug = format!("{e:?}");
            assert_eq!(debug.split(' ').next(), Some(e.kind()));
        }
    }
}
