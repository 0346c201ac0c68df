//! # cg-site — the grid-site substrate
//!
//! Models everything the paper's jobs traverse *at* a site: worker nodes
//! ([`NodeSpec`]), the local batch scheduler ([`Lrms`], FIFO / backfill /
//! priority policies, walltime enforcement), the Globus-era gatekeeper
//! ([`Gatekeeper`]: GSI auth, jobmanager fork, two-phase commit, sandbox
//! staging), and the MDS information system ([`InformationIndex`]: per-site
//! snapshots that go stale between refreshes, forcing the broker's two-step
//! discovery/selection).
//!
//! These are the layers whose costs the paper's Table I decomposes, and the
//! batch-system "adversary" whose queueing delays motivate the
//! multi-programming mechanism.

#![warn(missing_docs)]

mod backend;
mod columns;
mod gatekeeper;
mod giis;
mod lrms;
mod mds;
mod membership;
mod site;
mod wn;

pub use backend::{
    BackendCallback, BackendError, BackendHandle, BackendKind, BackendSpec, RealExecStats,
};
pub use columns::AdSnapshot;
pub use gatekeeper::{Gatekeeper, GramCosts, GramEvent};
pub use giis::{GiisConfig, GiisDeltaReport, GiisRoot, LeafStats};
pub use lrms::{
    LocalDisposition, LocalJobId, LocalJobSpec, Lrms, LrmsEvent, LrmsStats, Policy,
    DEFAULT_DISPOSITION_RETENTION,
};
pub use mds::{InformationIndex, RefreshWindow, SweepReport};
pub use membership::{MembershipConfig, MembershipState, MembershipTable, Transition};
pub use site::{machine_schema, Site, SiteConfig};
pub use wn::NodeSpec;
