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

/// Sort `v[start..]` and drop its duplicates in place, leaving `v[..start]`
/// untouched. Deadlock searches append each node's successors to one
/// reused buffer and call this on the range they appended, so a
/// successor list is visited in id order, each transaction once.
pub fn sort_dedup_from<T: Ord + Copy>(v: &mut Vec<T>, start: usize) {
    v[start..].sort_unstable();
    let mut w = start;
    for r in start..v.len() {
        if w == start || v[w - 1] != v[r] {
            v[w] = v[r];
            w += 1;
        }
    }
    v.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::sort_dedup_from;

    #[test]
    fn sort_dedup_from_keeps_the_prefix() {
        let mut v = vec![9, 9, 4, 2, 4, 4, 1];
        sort_dedup_from(&mut v, 2);
        assert_eq!(v, [9, 9, 1, 2, 4]);
        sort_dedup_from(&mut v, 5);
        assert_eq!(v, [9, 9, 1, 2, 4], "an empty range is a no-op");
    }
}
