//! # cg-vm — job multi-programming with lightweight virtual machines
//!
//! The paper's second mechanism (§5.2): when no machine is free, a glide-in
//! style **agent** is submitted as a batch job; once it owns a worker node it
//! splits it into a *batch-vm* and an *interactive-vm* — one operating
//! system, two execution slots — so an interactive job can start immediately
//! at high priority while the resident batch job keeps only
//! `PerformanceLoss`% of the CPU.
//!
//! - [`VmMachine`] — the slots, as a rate-based processor-sharing engine
//!   (batch throttles while sharing, "original priority restored" after);
//! - [`deploy_agent`]/[`Agent`] — the glide-in lifecycle: travels through
//!   gatekeeper + LRMS as a batch job, registers with the broker, accepts
//!   *direct* interactive submissions that skip the middleware (Table I's
//!   6.79 s path), and reports its death for resubmission;
//! - [`run_loop_app`] — the quantum-granularity scheduler reproducing
//!   Figure 8's CPU/I-O overhead numbers; it and [`VmMachine`] share one
//!   batch share, `SHARE_EFFICIENCY × PL/100`;
//! - [`AdaptiveController`] — the §7 future-work extension: adapting the
//!   degree of multi-programming to observed application behaviour.

#![warn(missing_docs)]

mod adaptive;
mod agent;
mod share;
mod slot;

pub use adaptive::{AdaptiveConfig, AdaptiveController};
pub use agent::{deploy_agent, Agent, AgentCosts, AgentEvent, AgentId};
pub use share::{run_loop_app, LoopAppResult, LoopAppSpec, RunMode, ShareConfig, SHARE_EFFICIENCY};
pub use slot::{SlotError, TaskId, VmMachine};
