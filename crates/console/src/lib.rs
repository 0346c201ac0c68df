//! # cg-console — the Grid Console (split execution & interposition agents)
//!
//! The paper's I/O streaming contribution (§4): a *Console Agent* (CA) on the
//! worker node traps an unmodified application's stdin/stdout/stderr and
//! forwards them to a *Console Shadow* (CS/JS) on the user's machine, so the
//! job "execute\[s\] exactly as if it were running on the same machine as the
//! shadow".
//!
//! Two implementations share the protocol pieces:
//!
//! - **Real transport** ([`run_agent`] / [`ConsoleShadow`]): actual child
//!   processes with piped standard streams, framed TCP with the GSI-lite
//!   mutual handshake, reliable-mode disk spooling ([`Spool`]) with
//!   reconnect-and-replay, fast mode without buffering, and the paper's
//!   output flush triggers (buffer full / timeout / end-of-line,
//!   [`OutputBuffer`]). Both ends have one shape: a crate-private step
//!   machine that takes one input and the current time, run by one thread
//!   (`drive`) that reads [`mono_ns`] (the one clock) and waits until the
//!   machine's next deadline. Both directions send through one stream
//!   sender and take in through one stream receiver, which hold §4's
//!   reliable/fast rule. The paper interposed with an `LD_PRELOAD` library;
//!   owning the child's pipes traps the same three streams unrecompiled.
//! - **Simulated cost model** ([`MethodCosts`]): the per-method
//!   endpoint/chunk/disk cost structure that regenerates Figures 6 and 7.
//!   The simulated reliable mode's retry rule is the broker's console
//!   start-up (`crossbroker::ConsoleCosts`).

#![warn(missing_docs)]

mod agent;
#[cfg(test)]
mod back_to_back;
mod buffer;
mod frame;
mod gsi;
mod shadow;
mod simio;
mod spool;
mod stream;
#[cfg(test)]
#[path = "../tests/support/temp_dir.rs"]
mod temp_dir;
mod wire;

pub use agent::{run_agent, AgentConfig, ExitReport, Mode};
pub use buffer::{FlushPolicy, FlushReason, InputBuffer, OutputBuffer};
pub use frame::{Decoder, Frame, FrameError, ResumePoint, StreamKind};
pub use gsi::{nonce, Secret};
pub use shadow::{ConsoleShadow, ShadowConfig, ShadowEvent};
pub use simio::MethodCosts;
pub use spool::{recover_watermarks, Spool};
pub use wire::{mono_ns, write_frame, FrameReader, ReadEvent};
