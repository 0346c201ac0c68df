//! Offline shim for the slice of serde the workspace once touched.
//!
//! No first-party user; declared only because removing the line rewrites
//! `perf/Cargo.lock`. `crates/lint/tests/workspace.rs` fails on any new use,
//! so deleting this crate and its manifest lines changes no code.
//!
//! The derives expand to nothing and the traits are blanket-satisfied: the
//! project never serialised through serde (all JSON it emits is written by
//! hand, see `cg-trace`).

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`; satisfied by every type.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`; satisfied by every type.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}
