//! # g2pl-netmodel
//!
//! The network substrate of the g-2PL reproduction.
//!
//! §2 of the paper decomposes end-to-end delay into *transmission time*
//! (bytes / bandwidth) and *network latency* (propagation plus switching
//! delay). Its central observation is that in a gigabit WAN the latency
//! component dominates and is distance-bound, so protocols must minimise
//! *rounds* of sequential message passing rather than bytes.
//!
//! This crate models exactly that decomposition:
//!
//! * [`cfg::LatencyCfg`] — the per-message delay model: the paper's
//!   uniform constant latency, or latency plus `size / bandwidth`
//!   transmission time for the bandwidth ablation;
//! * [`lossy::LossyLink`] — that model composed with an optional fault
//!   plan (loss, duplication, delay, partitions, crash schedules);
//! * [`env::NetworkEnv`] — the six Table 2 environments (ss-LAN … l-WAN);
//! * [`accounting::NetAccounting`] — message / byte / per-kind counters so
//!   experiments can report the message-complexity claims of §3.2
//!   (3m rounds for s-2PL vs 2m+1 for g-2PL).

pub mod accounting;
pub mod cfg;
pub mod env;
pub mod lossy;

pub use accounting::NetAccounting;
pub use cfg::LatencyCfg;
pub use env::NetworkEnv;
pub use lossy::LossyLink;
