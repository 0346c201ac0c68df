//! # crossgrid — resource management for interactive jobs in a grid
//!
//! A full reproduction of *"Resource Management for Interactive Jobs in a
//! Grid Environment"* (Fernández, Heymann, Senar — IEEE CLUSTER 2006): the
//! CrossBroker resource broker with first-class interactive-job support, the
//! Grid Console split-execution I/O streaming system, and the lightweight-VM
//! multi-programming mechanism, together with every substrate they need
//! (deterministic discrete-event simulation, network models, JDL, grid
//! sites, workloads, and the ssh/Glogin comparators).
//!
//! This facade re-exports each crate as a module:
//!
//! | module | contents |
//! |--------|----------|
//! | [`sim`] | deterministic discrete-event engine, RNG, statistics |
//! | [`net`] | links, campus/WAN profiles, fault injection, sessions |
//! | [`jdl`] | the Job Description Language & matchmaking expressions |
//! | [`site`] | worker nodes, LRMS, gatekeeper, information system |
//! | [`console`] | the Grid Console: real TCP agent/shadow + cost models |
//! | [`vm`] | glide-in agents, VM slots, proportional CPU sharing |
//! | [`trace`] | lifecycle event log, metrics registry, invariant checker |
//! | [`broker`] | CrossBroker itself |
//! | [`baselines`] | ssh and Glogin comparators |
//! | [`workloads`] | pingpong suite, arrival streams, testbed scenarios |
//!
//! ## Quickstart
//!
//! ```
//! use crossgrid::prelude::*;
//!
//! let mut sim = Sim::new(42);
//! let scenario = campus_pair(4);
//! let sites = crossgrid::handles_from_scenario(&scenario);
//! let broker = CrossBroker::new(&mut sim, sites, scenario.mds_link(), BrokerConfig::default());
//!
//! let job = JobDescription::parse(r#"
//!     Executable = "visualizer";
//!     JobType = "interactive";
//!     MachineAccess = "exclusive";
//!     User = "alice";
//! "#).unwrap();
//! let id = broker.submit(&mut sim, job, SimDuration::from_secs(300));
//! sim.run_until(SimTime::from_secs(3_600));
//! assert!(broker.record(id).response_s().unwrap() < 60.0);
//! ```

#![warn(missing_docs)]

pub use cg_baselines as baselines;
pub use cg_console as console;
pub use cg_jdl as jdl;
pub use cg_lint as lint;
pub use cg_net as net;
pub use cg_sim as sim;
pub use cg_site as site;
pub use cg_trace as trace;
pub use cg_vm as vm;
pub use cg_workloads as workloads;
pub use crossbroker as broker;

/// The names almost every user of the library needs.
pub mod prelude {
    pub use cg_jdl::{Interactivity, JobDescription, MachineAccess, Parallelism, StreamingMode};
    pub use cg_net::{Link, LinkProfile};
    pub use cg_sim::{Sim, SimDuration, SimTime};
    pub use cg_site::{Site, SiteConfig};
    pub use cg_trace::{check_invariants, Event, EventLog, MetricsRegistry};
    pub use cg_workloads::{campus_pair, crossgrid_testbed, GridScenario};
    pub use crossbroker::{BrokerConfig, CrossBroker, JobId, JobRecord, JobState, SiteHandle};
}

/// Builds [`crossbroker::SiteHandle`]s from a wired scenario — the common
/// glue between `workloads` scenarios and the broker.
pub fn handles_from_scenario(scenario: &workloads::GridScenario) -> Vec<broker::SiteHandle> {
    scenario
        .sites
        .iter()
        .enumerate()
        .map(|(i, (site, _))| broker::SiteHandle {
            site: site.clone(),
            broker_link: scenario.broker_site_link(i),
            ui_link: scenario.ui_site_link(i),
        })
        .collect()
}
