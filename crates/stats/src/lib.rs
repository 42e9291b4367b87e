//! # g2pl-stats
//!
//! Output-analysis statistics for the g-2PL simulation study.
//!
//! The paper's methodology (§5): the transient phase of each run is
//! eliminated, 50 000 transactions are generated per run, and 95%
//! confidence intervals on the mean transaction response time are computed
//! from 5 independent replications, with relative precision never worse
//! than 2% of the mean. This crate provides exactly those tools:
//!
//! * [`RunningStats`] — numerically stable (Welford) streaming moments;
//! * [`tdist`] — two-sided Student-t critical values for small samples;
//! * [`Replications`] — across-replication mean / 95% CI / relative
//!   precision;
//! * [`Histogram`] — fixed-width histograms for response-time shapes;
//! * [`WarmupFilter`] — transient-phase elimination by observation count;
//! * [`Counter`] — ratio counters (e.g. percentage of transactions
//!   aborted);
//! * [`TailSketch`] — deterministic, mergeable log-bucketed quantile
//!   sketch over integer ticks (p50/p90/p99/p999/max with a
//!   `2^-SUB_BITS` relative-error bound).

pub mod counter;
pub mod histogram;
pub mod replication;
pub mod running;
pub mod sketch;
pub mod tdist;
pub mod warmup;

pub use counter::Counter;
pub use histogram::Histogram;
pub use replication::{ConfidenceInterval, Replications};
pub use running::RunningStats;
pub use sketch::{TailSketch, TailSummary};
pub use warmup::WarmupFilter;
