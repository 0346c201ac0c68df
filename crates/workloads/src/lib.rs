//! # cg-workloads — workload generators and testbed scenarios
//!
//! Everything the evaluation drives: the §6.2 coordinated read/write
//! *pingpong* suite ([`run_pingpong`]/[`run_suite`]), Poisson job arrival
//! streams with the interactive/batch mix ([`poisson_arrivals`]), and the
//! wired scenarios — the campus pair, the UAB↔IFCA wide-area pair, and the
//! full 18-site/9-country CrossGrid testbed ([`crossgrid_testbed`]).

#![warn(missing_docs)]

mod arrivals;
mod churn;
mod pingpong;
mod scenario;
mod synthetic;

pub use arrivals::{poisson_arrivals, Arrival, JobMix};
pub use churn::{churn_faults, ChurnKind};
pub use pingpong::{run_pingpong, run_suite, PingPongRun, PingPongSpec};
pub use scenario::{campus_pair, crossgrid_testbed, GridScenario};
pub use synthetic::{synthetic_grid, SyntheticGrid};
