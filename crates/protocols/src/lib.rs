//! # g2pl-protocols
//!
//! Event-driven implementations of the protocols studied in the paper:
//!
//! * **s-2PL** ([`s2pl`]) — the server-based strict two-phase locking
//!   baseline of §3.1: clients request items one at a time, the server
//!   locks and ships them, all locks release in one message at commit,
//!   deadlocks are *detected* with a wait-for graph and resolved by
//!   aborting a victim.
//! * **g-2PL** ([`g2pl`]) — the paper's contribution (§3.2–3.4): the
//!   server batches pending requests into forward lists during collection
//!   windows; data migrates client-to-client, merging lock release with
//!   the next lock grant; window-close reordering against a global
//!   precedence DAG *avoids* same-window deadlocks; the MR1W optimization
//!   lets one writer run concurrently with the preceding reader group.
//!   The read-expansion variant sketched in §3.3 (join new readers onto a
//!   dispatched all-reader list) is available behind an option.
//! * **c-2PL** ([`c2pl`]) — the caching variant mentioned in §3.1 as an
//!   extension: clients retain shared locks and data across transaction
//!   boundaries; conflicting writes trigger server callbacks.
//!
//! Each engine is a [`kernel::Protocol`] on one generic [`kernel::Kernel`]
//! (`S2plEngine = Kernel<S2pl>`, and so on). The kernel owns what the
//! engines share: the event loop over a [`g2pl_simcore::Calendar`] of
//! message deliveries and timers, client requests and retransmission,
//! client crash and restart, shard crash and recovery, and the
//! presumed-abort two-phase commitment of multi-home transactions. An
//! engine keeps only what differs — its messages, what its clients
//! re-report, how it rebuilds grants or forward lists after a crash, and
//! its commit point — plus the transaction status changes the
//! state-machine lint reads. c-2PL reuses s-2PL's lock server
//! ([`s2pl::ServerLocking`]) and adds caching. The shared vocabulary
//! (messages, events, client state, the transaction table) lives in
//! [`runtime`]. Given the same [`EngineConfig`] and seed, every engine is
//! bit-for-bit reproducible.

pub mod c2pl;
pub mod config;
pub(crate) mod cycle;
pub mod g2pl;
pub mod history;
pub mod kernel;
pub mod metrics;
pub mod runtime;
pub mod s2pl;
pub mod scale;

pub use config::{
    AbortEffect, ConfigError, EngineConfig, G2plOpts, ItemSpace, LatencyCfg, ProtocolKind,
};
pub use g2pl_faults::{
    CrashWindow, Endpoint, FaultCounts, FaultPlan, LinkPartition, ServerCrashWindow,
};
pub use g2pl_obs::{TraceEvent, TraceKind};
pub use g2pl_workload::{ShardMix, TxnProfile};
pub use history::{CommitRecord, History};
pub use metrics::{FaultSummary, RunMetrics, TwoPcCounts};
pub use scale::{run_scale, run_scale_with_workers, ScaleCfg, ScaleMetrics};

/// Run one simulation of the configured protocol and return its metrics,
/// or a [`ConfigError`] if the configuration is inconsistent.
///
/// This is the single entry point the experiment harness in `g2pl-core`
/// uses; it dispatches on [`EngineConfig::protocol`].
pub fn run(config: &EngineConfig) -> Result<RunMetrics, ConfigError> {
    config.validate()?;
    Ok(match &config.protocol {
        ProtocolKind::S2pl => s2pl::S2plEngine::new(config.clone()).run(),
        ProtocolKind::G2pl(_) => g2pl::G2plEngine::new(config.clone()).run(),
        ProtocolKind::C2pl => c2pl::C2plEngine::new(config.clone()).run(),
    })
}
