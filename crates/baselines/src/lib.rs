//! # cg-baselines — the comparator mechanisms of the paper's evaluation
//!
//! ssh (§6.2 figures) and Glogin (§6.1 Table I and §6.2 figures), as
//! calibrated cost models over the same [`cg_net`] links the Grid Console
//! models use. What distinguishes each method is its *cost structure*, which
//! is what produces the published shapes:
//!
//! - **ssh**: per-packet encryption and 4 KiB channel buffers — beats the
//!   reliable mode at small payloads, loses at 10 KB where its many small
//!   packets cost more than one large spooled chunk;
//! - **Glogin**: GSI-wrapped records with synchronous token exchanges —
//!   competitive at small sizes, collapses at 10 KB especially over the WAN,
//!   and its session establishment (16–20 s) defines the Table I row where
//!   discovery/selection are "hand-made by user".

#![warn(missing_docs)]

mod glogin;
mod ssh;

pub use glogin::{glogin_method, glogin_submit, GloginCosts};
pub use ssh::ssh_method;
