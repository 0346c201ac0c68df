//! # cg-sim — deterministic discrete-event simulation engine
//!
//! Foundation of the CrossGrid reproduction. The paper's evaluation ran on an
//! 18-site European testbed; this crate provides the substitute substrate: a
//! single-threaded, seeded, integer-nanosecond discrete-event simulator whose
//! runs are bit-for-bit reproducible.
//!
//! Pieces:
//! - [`SimTime`] / [`SimDuration`] — integer-nanosecond clock.
//! - [`Sim`] — the event loop; events are `FnOnce(&mut Sim)` closures or
//!   allocation-free [`TypedEvent`]s for a component's receiver; time ties
//!   break on schedule order.
//! - [`SimRng`] — seeded random stream with the distributions the models use
//!   (exponential, normal, log-normal, Pareto), all implemented locally so an
//!   upstream library change can never shift experiment outputs.
//! - [`OnlineStats`] / [`SampleSet`] / [`TimeSeries`] — measurement
//!   collection.
//!
//! ```
//! use cg_sim::{Sim, SimDuration, SampleSet};
//! use std::{cell::RefCell, rc::Rc};
//!
//! let mut sim = Sim::new(0xC0FFEE);
//! let rtts = Rc::new(RefCell::new(SampleSet::new()));
//!
//! // A ping: a message leaves now, the reply arrives one jittered RTT later.
//! for _ in 0..100 {
//!     let sent = sim.now();
//!     let rtt = sim.rng().normal_duration(0.030, 0.002);
//!     let rtts2 = Rc::clone(&rtts);
//!     sim.schedule_in(rtt, move |sim| {
//!         rtts2.borrow_mut().record_duration(sim.now() - sent);
//!     });
//! }
//! sim.run();
//! assert_eq!(rtts.borrow().len(), 100);
//! assert!((rtts.borrow().mean() - 0.030).abs() < 0.002);
//! ```

#![warn(missing_docs)]

mod engine;
mod rng;
mod slab;
mod stats;
mod time;

pub use engine::{EventId, Receiver, RunOutcome, Sim, TypedEvent};
pub use rng::SimRng;
pub use slab::Slab;
pub use stats::{OnlineStats, SampleSet, TimeSeries};
pub use time::{SimDuration, SimTime};
