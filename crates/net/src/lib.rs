//! # cg-net — simulated network substrate
//!
//! Substitutes for the paper's physical networks: the campus LAN between
//! submission and execution machines, and the wide-area path to IFCA
//! (Santander) over the Spanish academic Internet. Provides:
//!
//! - [`LinkProfile`] — latency / jitter / bandwidth / loss parameters with
//!   calibrated `campus()` and `wan_ifca()` presets (paper §6 scenarios);
//! - [`FaultSchedule`] — injected outage windows (what the *reliable*
//!   streaming mode exists to survive);
//! - [`Link`] — a bidirectional path with in-order per-direction delivery,
//!   outage awareness, and traffic counters; a message reports back through
//!   a closure ([`Link::send`]) or an allocation-free typed event
//!   ([`Link::send_event`], [`delivery_outcome`]);
//! - [`Handshake`] / [`HandshakeProfile`] — connection establishment with
//!   TCP-like or GSI-like handshakes, and [`rpc_call`] for request/response
//!   exchanges;
//! - [`Topology`] — named hosts wired by links, the scenario plan.
//!
//! Everything runs on the [`cg_sim`] event loop and is deterministic under a
//! fixed seed.

#![warn(missing_docs)]

mod fault;
mod link;
mod profile;
mod topology;
mod transport;

pub use fault::FaultSchedule;
pub use link::{delivery_outcome, Dir, Link, LinkStats, NetError};
pub use profile::LinkProfile;
pub use topology::{HostId, Topology};
pub use transport::{rpc_call, Handshake, HandshakeProfile};
