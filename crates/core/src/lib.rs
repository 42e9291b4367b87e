//! # g2pl-core
//!
//! Public API and experiment harness of the g-2PL reproduction
//! ("Network Latency Optimizations in Distributed Database Systems",
//! Banerjee & Chrysanthis, ICDE 1998).
//!
//! The workspace layering:
//!
//! ```text
//! g2pl-core        ← you are here: replicated runs, experiments, verification
//! g2pl-protocols   ← s-2PL / g-2PL / c-2PL engines
//! g2pl-obs         ← critical-path spans, phase attribution, JSONL export
//! g2pl-fwdlist     ← forward lists, collection windows, precedence DAG
//! g2pl-lockmgr     ← lock table, wait-for graphs, victim policies
//! g2pl-workload    ← Table-1 transaction generation
//! g2pl-netmodel    ← latency models, Table-2 environments
//! g2pl-stats       ← Welford moments, Student-t CIs, warm-up filters
//! g2pl-simcore     ← deterministic event calendar, ids, RNG streams
//! ```
//!
//! # Quickstart
//!
//! ```
//! use g2pl_core::prelude::*;
//!
//! // The paper's Table-1 system: 25 hot items, think 1–3, idle 2–10.
//! let mut cfg = EngineConfig::table1(
//!     ProtocolKind::g2pl_paper(),
//!     /* clients */ 10,
//!     /* latency */ 250,
//!     /* read probability */ 0.25,
//! );
//! cfg.warmup_txns = 50;
//! cfg.measured_txns = 500;
//!
//! // Independent replications with a 95% confidence interval.
//! let result = run_replicated(&cfg, 3);
//! let ci = result.response_ci();
//! assert!(ci.mean > 0.0);
//! ```

pub mod experiments;
pub mod figure;
pub mod runner;
mod slots;
pub mod tracecheck;
pub mod verify;

pub use figure::{FigureData, Series};
pub use runner::{
    run_grid, run_replicated, set_grid_workers, set_trace_out, set_verify, take_perf, trace_out,
    verify_enabled, PerfTotals, ReplicatedResult,
};
pub use tracecheck::{check_trace, check_trace_with, TraceCheckOpts};
pub use verify::{check_run, check_serializable};

/// Convenient re-exports of the types most callers need.
pub mod prelude {
    pub use crate::experiments::{self, Scale};
    pub use crate::figure::{FigureData, Series};
    pub use crate::runner::{
        run_grid, run_replicated, set_grid_workers, set_trace_out, set_verify, take_perf,
        trace_out, verify_enabled, PerfTotals, ReplicatedResult,
    };
    pub use crate::tracecheck::{check_trace, check_trace_with, TraceCheckOpts};
    pub use crate::verify::{check_run, check_serializable};
    pub use g2pl_netmodel::NetworkEnv;
    pub use g2pl_protocols::{
        run, run_scale, run_scale_with_workers, AbortEffect, EngineConfig, G2plOpts, ItemSpace,
        LatencyCfg, ProtocolKind, RunMetrics, ScaleCfg, ScaleMetrics, ShardMix, TxnProfile,
    };
    pub use g2pl_simcore::SimTime;
    pub use g2pl_stats::ConfidenceInterval;
}
