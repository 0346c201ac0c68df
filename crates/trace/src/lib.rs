//! # cg-trace — lifecycle event log & metrics for the CrossBroker stack
//!
//! Every layer of the broker (matchmaking, leases, glide-in agents, VM
//! slots, fair-share, the Grid Console, site LRMSes) emits typed,
//! sim-timestamped [`Event`]s into a shared ring-buffered [`EventLog`].
//! The log is cheap enough to leave on everywhere: recording is one mutex
//! lock plus an enum push, and the ring bound caps memory no matter how
//! long a simulation runs.
//!
//! On top of the raw stream sit three consumers:
//!
//! * [`MetricsRegistry`] — named counters and sample-backed histograms
//!   (built on [`cg_sim::OnlineStats`] / [`cg_sim::SampleSet`]). An
//!   [`EventLog`] wired to a registry counts every event kind
//!   automatically under `events.<Kind>`.
//! * JSONL export — [`EventLog::to_jsonl`] renders one JSON object per
//!   line for offline analysis; [`dump_jsonl_env`] writes it to the path
//!   named by an environment variable so every bench binary can opt in
//!   without new flags.
//! * [`check_invariants`] — a whole-stream checker for cross-layer
//!   protocol rules (dispatch-after-lease, single terminal state, spool
//!   ack ≤ append, batch priority restored after interactive departure).
//!
//! The log is `Send + Sync + Clone` (clones share the buffer), so the real
//! threaded Grid Console transport can feed the same stream as the
//! single-threaded simulation side.
//!
//! ## Durability
//!
//! The log doubles as a write-ahead journal: attach a [`Journal`] with
//! [`EventLog::set_journal`] and every recorded event is also appended to a
//! CRC-framed file ([`journal`] module), with periodic [`replay`] snapshots
//! bounding the events recovery decodes and replays. [`open_journal`] reads it back (truncating torn
//! tails, surfacing corruption as typed [`JournalError`]s), and
//! [`ReplayState`] folds the stream back into broker-visible state.
//! [`check_recovery_invariants`] validates a reconstruction, read through a
//! [`RecoveredView`], against the stream; [`CrashPlan`] provides deterministic kill-point injection for
//! crash-recovery tests.

pub mod codec;
mod event;

/// Lock primitives behind the model-check seam: `std::sync` normally, the
/// `loom` deterministic-schedule shim under `--cfg cg_loom` so CI's
/// model-check job can exhaustively interleave the `EventLog` critical
/// sections (see `tests/loom_model.rs`).
pub mod sync {
    #[cfg(not(cg_loom))]
    pub use std::sync::{Mutex, MutexGuard};

    #[cfg(cg_loom)]
    pub use loom::sync::{Mutex, MutexGuard};
}
mod invariants;
pub mod journal;
mod log;
mod metrics;
pub mod replay;

pub use codec::{decode_event, encode_event, CodecError};
pub use event::{Event, FieldSamples, TimedEvent, RETIRED_TAGS};
pub use invariants::{
    check_invariants, check_recovery_invariants, check_stream_recovery_invariants, RecoveredJob,
    RecoveredView,
};
pub use journal::{
    open_journal, parse_journal, Journal, JournalConfig, JournalError, JournalSnapshot,
    LoadedJournal,
};
pub use log::{dump_jsonl_env, CrashPlan, EventLog, StreamFold};
pub use metrics::MetricsRegistry;
pub use replay::{decode_state, encode_state, Bucket, Phase, ReplayState};
