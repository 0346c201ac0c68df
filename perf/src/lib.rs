//! cg-perf — the repository's benchmark: four workloads through the real
//! `CrossBroker`, timed on the host clock and judged on the sim clock, plus
//! a traced run that replays every layer in isolation. See `README.md`.

pub mod alloc;
pub mod clock;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod reference;
pub mod report;
pub mod run;
pub mod stats;
pub mod workloads;
pub mod world;
