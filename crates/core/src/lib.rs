//! # crossbroker — resource management for interactive jobs
//!
//! The paper's primary contribution: a grid broker whose scheduling,
//! priority, and multi-programming machinery make interactive jobs start
//! fast and stream transparently.
//!
//! - [`CrossBroker`] — the orchestrator: two-step discovery/selection
//!   (stale MDS snapshot → live per-site queries), randomized selection,
//!   exclusive temporal leases, on-line scheduling with resubmission,
//!   MPICH-P4 and MPICH-G2 (co-)allocation, the glide-in agent pool with
//!   direct shared-VM dispatch, and Grid Console startup;
//! - [`FairShare`] — Equation (1): `P(u,t) = β·P(u,t−δt) + (1−β)·a_f·r(u,t)`
//!   with the per-job-type application factors and scarcity rejection;
//! - [`filter_candidates`]/[`select_detailed_with`]/[`coallocate_with`] —
//!   matchmaking over ClassAd-lite machine advertisements, ranked by a
//!   [`SelectionPolicy`];
//! - [`JobRecord`] — the timestamped lifecycle every experiment measures
//!   (discovery / selection / submission / response phases of Table I).

#![warn(missing_docs)]

mod broker;
mod config;
mod fairshare;
mod job;
mod matchmaking;
mod policy;
mod recovery;
mod shard;

/// Lock primitives behind the model-check seam: `std::sync` normally, the
/// `loom` deterministic-schedule shim under `--cfg cg_loom` so CI's
/// model-check job can exhaustively interleave `ShardedJobTable` operations
/// (see `tests/loom_model.rs`).
pub mod sync {
    #[cfg(not(cg_loom))]
    pub use std::sync::{Mutex, MutexGuard};

    #[cfg(cg_loom)]
    pub use loom::sync::{Mutex, MutexGuard};
}

pub use broker::{BrokerStats, CrossBroker, SiteHandle, WeakBroker};
pub use config::{BrokerConfig, ConsoleCosts};
pub use fairshare::{FairShare, FairShareConfig, UsageId, UsageKind};
pub use job::{JobId, JobRecord, JobState};
pub use matchmaking::{
    filter_candidates, filter_candidates_columnar, filter_one, Candidate, CompiledJob, Selection,
};
pub use policy::{
    coallocate_with, select_detailed_with, FreeCpusRank, LeaseBackoff, NetworkProximity,
    PolicyKind, PolicySignals, QueueForecast, QueueForecaster, SelectionPolicy, SiteSignals,
};
pub use recovery::RecoveryReport;
pub use shard::{ShardedJobTable, DEFAULT_SHARDS};
