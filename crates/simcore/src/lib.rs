//! # g2pl-simcore
//!
//! Deterministic discrete-event simulation (DES) kernel used by every other
//! crate in the g-2PL reproduction workspace.
//!
//! The paper ("Network Latency Optimizations in Distributed Database
//! Systems", Banerjee & Chrysanthis, ICDE 1998) evaluated the s-2PL and
//! g-2PL protocols with a unit-time discrete simulation written in C. We
//! use the standard event-driven formulation instead: because every delay
//! in the model (network latency, think time, idle time) is an integral
//! number of simulation time units, the two formulations visit exactly the
//! same state trajectory; the event-driven one simply skips the empty
//! ticks.
//!
//! Design goals:
//!
//! * **Determinism.** Given the same seed, a simulation run produces
//!   bit-identical results. The event calendar breaks timestamp ties by
//!   insertion sequence number, and all randomness flows through
//!   explicitly-seeded [`rng::RngStream`]s.
//! * **No global state.** A [`calendar::Calendar`] is an ordinary value;
//!   many simulations can run concurrently on different threads.
//! * **Cheap events.** Events are plain enums the calendar writes once
//!   into a recycled arena slot; its binary heap orders 16-byte
//!   `(time, seq, slot)` keys, so scheduling and popping move keys, not
//!   events, and a calendar's memory follows its depth.

pub mod calendar;
pub mod ids;
pub mod pdes;
pub mod rng;
pub mod slab;
pub mod time;

pub use calendar::{Calendar, EventHandle};
pub use ids::{ClientId, ItemId, ShardId, SiteId, TxnId, Version};
pub use rng::RngStream;
pub use slab::Slab;
pub use time::SimTime;
