//! Discrete-event simulation engine for the FlashAbacus reproduction.
//!
//! Every hardware substrate in this workspace (flash backbone, lightweight
//! processors, interconnect, host storage stack) is modelled as a set of
//! state machines advanced by a discrete-event loop. This crate provides the
//! shared building blocks:
//!
//! * [`arrivals`] — seeded open-loop arrival processes: Poisson and bursty
//!   on/off tenant-arrival schedules precomputed from one seed, so
//!   open-loop campaigns replay byte for byte.
//! * [`time`] — nanosecond-resolution simulated time and durations.
//! * [`event`] — a generic, deterministic event queue: time order, ties
//!   broken by a caller-supplied rank and then insertion order.
//! * [`crash`] — a one-shot power-loss trigger drivers poll to run the
//!   crash/recovery protocol at an arbitrary simulated instant.
//! * [`stats`] — the bucketed time series used to produce the paper's
//!   timelines.
//! * [`resource`] — the one reservation primitive, a FIFO server with busy
//!   time, and its fixed-byte-rate form for links and memory channels.
//! * [`rng`] — a tiny deterministic pseudo-random number generator so that
//!   every experiment is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use fa_sim::event::EventQueue;
//! use fa_sim::time::SimTime;
//!
//! let mut q: EventQueue<&'static str, ()> = EventQueue::new();
//! q.push(SimTime::from_ns(20), (), "late");
//! q.push(SimTime::from_ns(10), (), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_ns(10));
//! assert_eq!(ev, "early");
//! ```

pub mod arrivals;
pub mod crash;
pub mod event;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use arrivals::{Arrival, ArrivalPlan, ArrivalShape};
pub use crash::PowerLossClock;
pub use event::EventQueue;
pub use resource::{FifoServer, SerializedResource};
pub use rng::DeterministicRng;
pub use stats::TimeSeries;
pub use time::{SimDuration, SimTime};
