//! # g2pl-workload
//!
//! Transaction workload generation for the g-2PL reproduction.
//!
//! The paper's system model (§4 / Table 1): identical clients, one
//! transaction at a time per client, each transaction accessing 1–5
//! distinct items uniformly drawn from a deliberately small pool of M = 25
//! hot items; each access is a read with probability `pr`; requests are
//! issued *sequentially*, separated by a think time uniform on 1–3 units;
//! a finished (or aborted) transaction is replaced after an idle time
//! uniform on 2–10 units.
//!
//! * [`profile::TxnProfile`] — the per-client statistical profile;
//! * [`dist::AccessDistribution`] — uniform (the paper) plus Zipf-skewed
//!   item selection (extension for hot/cold ablations);
//! * [`generator::TxnGenerator`] — draws [`generator::TxnSpec`]s.
//!
//! The engines give each client its own spec stream, derived from the
//! run's master seed and the client's index, so every engine run at one
//! seed draws the same sequence of specs for each client.

pub mod dist;
pub mod generator;
pub mod profile;

pub use dist::AccessDistribution;
pub use generator::{AccessMode, TxnGenerator, TxnSpec};
pub use profile::{ShardMix, TxnProfile};
