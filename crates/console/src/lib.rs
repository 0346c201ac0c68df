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
//!   [`OutputBuffer`]). Substitution note: the paper interposed with an
//!   `LD_PRELOAD` library; owning the child's pipes intercepts the same
//!   three streams with the same no-recompilation guarantee.
//! - **Simulated cost model** ([`MethodCosts`], [`reliable_deliver`]): the
//!   per-method endpoint/chunk/disk cost structure that regenerates
//!   Figures 6 and 7, plus retry semantics for the reliable mode.

#![warn(missing_docs)]

mod agent;
mod buffer;
mod frame;
mod gsi;
mod shadow;
mod simio;
mod spool;
mod wire;

pub use agent::{run_agent, AgentConfig, ExitReport, Mode};
pub use buffer::{FlushPolicy, FlushReason, InputBuffer, OutputBuffer};
pub use frame::{Decoder, Frame, FrameError, ResumePoint, StreamKind};
pub use gsi::{nonce, Secret};
pub use shadow::{ConsoleShadow, ShadowConfig, ShadowEvent};
pub use simio::{reliable_deliver, MethodCosts, ReliableOutcome, RetryPolicy};
pub use spool::{recover_watermarks, Spool};
pub use wire::{mono_ns, write_frame, FrameReader, ReadEvent};
