//! Helpers shared by the integration-test binaries.
//!
//! Each binary that declares `mod common;` compiles its own copy and uses
//! a subset of these helpers, hence the file-wide dead-code allowance.
#![allow(dead_code)]

use crossgrid::broker::JobState;
use crossgrid::site::BackendSpec;
use crossgrid::trace::replay::Bucket;

/// Every execution backend the conformance contract covers: the sim LRMS
/// and the external-process runner. Suites iterating this list prove a
/// property backend-by-backend.
pub fn all_backend_specs() -> Vec<BackendSpec> {
    vec![
        BackendSpec::Sim,
        // `true` exists on every POSIX box; the runner tolerates a failed
        // spawn anyway (it only feeds real-exec counters, never the sim).
        BackendSpec::Process {
            program: "true".into(),
        },
    ]
}

/// The broker job table's coarse disposition bucket (the granularity of
/// `Phase::bucket`): terminal-outcome comparison across crashes and
/// backends happens here.
pub fn bucket_of(state: &JobState) -> Bucket {
    match state {
        JobState::Done => Bucket::Done,
        JobState::Failed { .. } => Bucket::Errored,
        JobState::Running { .. } => Bucket::Running,
        JobState::BrokerQueued => Bucket::Queued,
        _ => Bucket::Pending,
    }
}

/// FNV-1a over a byte stream: the hash the golden tests (event stream
/// JSONL, journal file bytes) are recorded in.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
