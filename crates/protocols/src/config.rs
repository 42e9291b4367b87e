//! Engine configuration.

use g2pl_faults::FaultPlan;
use g2pl_fwdlist::OrderingRule;
use g2pl_lockmgr::VictimPolicy;
use g2pl_obs::TraceCheckOpts;
use g2pl_workload::TxnProfile;
use serde::{Deserialize, Serialize};
use std::fmt;

// The latency model lives in `g2pl-netmodel`, whose `LossyLink` prices
// every message with it; re-exported so engine configs can name it.
pub use g2pl_netmodel::LatencyCfg;

/// Which protocol engine to run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Server-based strict 2PL (the paper's baseline).
    S2pl,
    /// Group 2PL with the given optimization set.
    G2pl(G2plOpts),
    /// Caching 2PL: s-2PL plus inter-transaction client caching of shared
    /// locks and data (extension; §3.1 mentions c-2PL as a variation).
    C2pl,
}

impl ProtocolKind {
    /// The paper's evaluated g-2PL: grouping + deadlock-avoidance
    /// reordering + MR1W.
    pub fn g2pl_paper() -> Self {
        ProtocolKind::G2pl(G2plOpts::default())
    }

    /// Short label for reports ("s-2PL", "g-2PL", "c-2PL").
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::S2pl => "s-2PL",
            ProtocolKind::G2pl(_) => "g-2PL",
            ProtocolKind::C2pl => "c-2PL",
        }
    }
}

/// The g-2PL optimization toggles (§3.2–3.4), individually switchable; the
/// registry's `fig11`, `ext-ordering`, `ext-read-expansion` and
/// `ext-window-hold` rows each vary one.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct G2plOpts {
    /// Window-close ordering rule. `ordering.consistent == true` is the
    /// §3.3 deadlock-avoidance optimization; `false` is "basic g-2PL"
    /// where deadlocks are only detected.
    pub ordering: OrderingRule,
    /// §3.4 multiple-reads-single-write: ship the item to the writer that
    /// follows a reader group concurrently with the readers; the writer's
    /// own release is gated on the readers' release messages.
    pub mr1w: bool,
    /// §3.3 read-expansion variant: while a dispatched forward list is
    /// all-readers, the server grants new read requests immediately by
    /// appending them to the dispatched list (it still holds the current
    /// version, which readers do not change). Eliminates read-only
    /// dependencies across windows. Off in the paper's evaluation.
    pub expand_reads: bool,
    /// Maximum forward-list length per window close; overflow stays
    /// pending for the next window (the Fig 11 sweep). `None` = no cap.
    pub fl_cap: Option<usize>,
    /// Hold a returned item at the server for this many extra time units
    /// before closing its window, gathering more requests into the batch.
    /// Footnote 1 of the paper reports that "tuning the collection window
    /// does not produce significant performance gains" — the
    /// `ext-window-hold` row measures that. `None` (default) dispatches
    /// immediately on return.
    pub dispatch_delay: Option<u64>,
}

impl Default for G2plOpts {
    fn default() -> Self {
        G2plOpts {
            ordering: OrderingRule::default(),
            mr1w: true,
            expand_reads: false,
            fl_cap: None,
            dispatch_delay: None,
        }
    }
}

/// Partition of the hot-item pool across server shards.
///
/// Directory sharding over contiguous ranges: shard `s` owns items
/// `s * items_per_shard .. (s + 1) * items_per_shard`, so
/// `shard_of(i) = i / items_per_shard`. The paper's single-server model
/// is [`ItemSpace::single`] — one shard owning the whole pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ItemSpace {
    /// Number of server shards (Table 1: 1).
    pub num_shards: u32,
    /// Hot items owned by each shard (Table 1: 25 on the single shard).
    pub items_per_shard: u32,
}

impl ItemSpace {
    /// The paper's layout: one shard owning all `num_items` hot items.
    pub const fn single(num_items: u32) -> Self {
        ItemSpace {
            num_shards: 1,
            items_per_shard: num_items,
        }
    }

    /// `num_shards` shards of `items_per_shard` items each.
    pub const fn sharded(num_shards: u32, items_per_shard: u32) -> Self {
        ItemSpace {
            num_shards,
            items_per_shard,
        }
    }

    /// Total hot items across every shard.
    pub const fn num_items(&self) -> u32 {
        self.num_shards * self.items_per_shard
    }

    /// The shard owning `item` (raw index).
    #[inline]
    pub const fn shard_of(&self, item: g2pl_simcore::ItemId) -> u32 {
        item.0 / self.items_per_shard
    }

    /// The server endpoint owning `item`.
    #[inline]
    pub const fn site_of(&self, item: g2pl_simcore::ItemId) -> g2pl_simcore::SiteId {
        g2pl_simcore::SiteId::server(self.shard_of(item))
    }
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of client sites (Table 1: "varying"; Figs 2–11 use 50).
    pub num_clients: u32,
    /// The hot-item pool and its partition across server shards
    /// (Table 1: one shard of 25 items).
    pub items: ItemSpace,
    /// Network latency model (Table 2 values under `Constant`), the same
    /// on every link.
    pub latency: LatencyCfg,
    /// Per-client transaction profile (Table 1).
    pub profile: TxnProfile,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Deadlock victim selection policy.
    pub victim: VictimPolicy,
    /// Completed transactions discarded as the transient phase.
    pub warmup_txns: u64,
    /// Completed transactions measured after warm-up (the paper: 50 000).
    pub measured_txns: u64,
    /// Master seed; every random stream of the run derives from it.
    pub seed: u64,
    /// After the measurement target is reached, stop admitting new
    /// transactions and run the calendar dry so conservation invariants
    /// (all items home, no locks held) can be checked.
    pub drain: bool,
    /// Record per-commit read/write versions for offline serializability
    /// checking.
    pub record_history: bool,
    /// Record the run's event stream (the trace the checker validates
    /// and the JSONL export writes; bounded, see `g2pl_obs::MAX_EVENTS`).
    pub trace_events: bool,
    /// How quickly a deadlock abort takes effect in g-2PL (see
    /// [`AbortEffect`]). s-2PL aborts are always instantaneous because
    /// the server owns both the locks and the current committed versions.
    pub abort_effect: AbortEffect,
    /// Serial server CPU cost per processed message, in time units
    /// (default 0: the paper's assumption that server computation
    /// overlaps communication). Nonzero values make the server a queueing
    /// station.
    pub server_cpu_per_op: u64,
    /// Track per-site write-ahead logs (§1's assumed recovery substrate:
    /// WAL with garbage collection "once the data are made permanent at
    /// the server"). Pure bookkeeping — no messages or delays — so it
    /// never perturbs the modelled metrics; reported in
    /// [`crate::RunMetrics::wal`].
    pub enable_wal: bool,
    /// Optional fault-injection plan (message loss, duplication, delay,
    /// client crash/restart, link partitions). `None` or an inert plan
    /// leaves the engines on the exact fault-free code path: no injector,
    /// no leases, no retry timers, byte-identical runs.
    pub faults: Option<FaultPlan>,
}

/// Abort-effect semantics for g-2PL.
///
/// In s-2PL the server resolves a deadlock instantly: it owns the lock
/// table *and* the authoritative committed versions, so the victim's
/// locks release and the next waiter is granted in the same instant. In
/// g-2PL the data has migrated to the clients: physically, the victim
/// learns of its abort one network latency after the decision and only
/// then forwards its held items — one more latency each.
///
/// The paper's unit-time simulator (and its 20–25% headline) behaves as
/// if aborts take effect in the tick they are decided; with the full
/// message accounting the abort-recovery path costs g-2PL ~2L per victim
/// and, at the ~40% deadlock-abort rates of the high-contention
/// configurations, inverts the comparison. We therefore default to the
/// paper's semantics and expose the faithful mode as an ablation — one
/// of this reproduction's findings (see EXPERIMENTS.md).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortEffect {
    /// Aborts take effect in the instant they are decided, as in the
    /// paper's simulator: the notice and the victim's item forwards are
    /// delivered with zero delay (messages are still counted).
    #[default]
    Instant,
    /// Distributed-faithful: the abort notice travels one network
    /// latency, and each of the victim's held items takes another to
    /// migrate onward.
    Messaged,
}

impl EngineConfig {
    /// The Table 1 configuration: 25 hot items, think 1–3, idle 2–10,
    /// 1–5 items per transaction, with the given client count, constant
    /// latency, read probability, and protocol.
    pub fn table1(protocol: ProtocolKind, num_clients: u32, latency: u64, read_prob: f64) -> Self {
        EngineConfig {
            num_clients,
            items: ItemSpace::single(25),
            latency: LatencyCfg::Constant(latency),
            profile: TxnProfile::table1(read_prob),
            protocol,
            victim: VictimPolicy::Youngest,
            warmup_txns: 500,
            measured_txns: 5_000,
            seed: 0x9e3779b9,
            drain: false,
            record_history: false,
            trace_events: false,
            abort_effect: AbortEffect::default(),
            server_cpu_per_op: 0,
            enable_wal: false,
            faults: None,
        }
    }

    /// Total hot items across every shard.
    pub fn num_items(&self) -> u32 {
        self.items.num_items()
    }

    /// Number of server shards.
    pub fn num_shards(&self) -> u32 {
        self.items.num_shards
    }

    /// The shard owning `item` (raw index).
    #[inline]
    pub fn shard_of(&self, item: g2pl_simcore::ItemId) -> u32 {
        self.items.shard_of(item)
    }

    /// The server endpoint owning `item`.
    #[inline]
    pub fn shard_site(&self, item: g2pl_simcore::ItemId) -> g2pl_simcore::SiteId {
        self.items.site_of(item)
    }

    /// The fault plan, if one is set *and* can inject at least one fault.
    /// This is the single gate the engines consult: an inert plan must be
    /// indistinguishable from no plan at all.
    pub fn active_faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().filter(|p| p.is_active())
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_clients == 0 {
            return Err(ConfigError::NoClients);
        }
        if self.items.num_shards == 0 {
            return Err(ConfigError::NoShards);
        }
        // The per-transaction commit-applied set is a u64 shard bitmask.
        if self.items.num_shards > 64 {
            return Err(ConfigError::TooManyShards {
                num_shards: self.items.num_shards,
            });
        }
        if self.items.items_per_shard == 0 {
            return Err(ConfigError::NoItems);
        }
        self.profile
            .validate(self.num_items())
            .map_err(ConfigError::Profile)?;
        if self.measured_txns == 0 {
            return Err(ConfigError::NoMeasuredTxns);
        }
        if let ProtocolKind::G2pl(opts) = &self.protocol {
            if opts.fl_cap == Some(0) {
                return Err(ConfigError::ZeroFlCap);
            }
        }
        if let LatencyCfg::Bandwidth {
            bytes_per_unit: 0, ..
        } = self.latency
        {
            return Err(ConfigError::ZeroBandwidth);
        }
        if let Some(plan) = &self.faults {
            plan.validate().map_err(ConfigError::Faults)?;
            for c in &plan.crashes {
                if c.client >= self.num_clients {
                    return Err(ConfigError::CrashClientOutOfRange {
                        client: c.client,
                        num_clients: self.num_clients,
                    });
                }
            }
            for w in &plan.server_crashes {
                if w.shard >= self.items.num_shards {
                    return Err(ConfigError::CrashShardOutOfRange {
                        shard: w.shard,
                        num_shards: self.items.num_shards,
                    });
                }
            }
            for p in &plan.partitions {
                for ep in [p.a, p.b] {
                    match ep {
                        g2pl_faults::Endpoint::Client(c) if c >= self.num_clients => {
                            return Err(ConfigError::PartitionEndpointOutOfRange {
                                endpoint: ep,
                                num_clients: self.num_clients,
                                num_shards: self.items.num_shards,
                            });
                        }
                        g2pl_faults::Endpoint::Shard(s) if s >= self.items.num_shards => {
                            return Err(ConfigError::PartitionEndpointOutOfRange {
                                endpoint: ep,
                                num_clients: self.num_clients,
                                num_shards: self.items.num_shards,
                            });
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }
}

/// What the trace checker may assume about a run of the config.
impl From<&EngineConfig> for TraceCheckOpts {
    fn from(cfg: &EngineConfig) -> Self {
        let faults = cfg.active_faults().is_some();
        match &cfg.protocol {
            ProtocolKind::G2pl(o) => TraceCheckOpts {
                fl_consistent: o.ordering.consistent,
                expand_reads: o.expand_reads,
                faults,
            },
            // s-2PL / c-2PL emit no forward-list events; strict settings
            // make any that do appear a violation.
            ProtocolKind::S2pl | ProtocolKind::C2pl => TraceCheckOpts {
                faults,
                ..TraceCheckOpts::default()
            },
        }
    }
}

/// Why an [`EngineConfig`] was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `num_clients == 0`.
    NoClients,
    /// `items.num_shards == 0`.
    NoShards,
    /// `items.num_shards > 64` (the commit-applied shard set is a u64
    /// bitmask).
    TooManyShards {
        /// Requested shard count.
        num_shards: u32,
    },
    /// `items.items_per_shard == 0`.
    NoItems,
    /// The transaction profile is inconsistent (message carries details).
    Profile(String),
    /// `measured_txns == 0`.
    NoMeasuredTxns,
    /// A forward-list cap of 0 would never dispatch.
    ZeroFlCap,
    /// `latency` is `Bandwidth` with `bytes_per_unit == 0`: no message
    /// could ever be transmitted.
    ZeroBandwidth,
    /// The fault plan is invalid.
    Faults(g2pl_faults::FaultPlanError),
    /// A crash window names a client outside `0..num_clients`.
    CrashClientOutOfRange {
        /// Offending client index.
        client: u32,
        /// Configured client count.
        num_clients: u32,
    },
    /// A server-crash window names a shard outside `0..num_shards`.
    CrashShardOutOfRange {
        /// Offending shard index.
        shard: u32,
        /// Configured shard count.
        num_shards: u32,
    },
    /// A partition window names an endpoint outside the topology.
    PartitionEndpointOutOfRange {
        /// Offending endpoint.
        endpoint: g2pl_faults::Endpoint,
        /// Configured client count.
        num_clients: u32,
        /// Configured shard count.
        num_shards: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoClients => write!(f, "need at least one client"),
            ConfigError::NoShards => write!(f, "need at least one server shard"),
            ConfigError::TooManyShards { num_shards } => {
                write!(f, "{num_shards} shards exceed the 64-shard engine limit")
            }
            ConfigError::NoItems => write!(f, "need at least one data item per shard"),
            ConfigError::Profile(msg) => write!(f, "invalid transaction profile: {msg}"),
            ConfigError::NoMeasuredTxns => write!(f, "measured_txns must be positive"),
            ConfigError::ZeroFlCap => write!(f, "fl_cap of 0 would never dispatch"),
            ConfigError::ZeroBandwidth => {
                write!(f, "bandwidth latency needs bytes_per_unit > 0")
            }
            ConfigError::Faults(e) => write!(f, "invalid fault plan: {e}"),
            ConfigError::CrashClientOutOfRange {
                client,
                num_clients,
            } => write!(
                f,
                "crash window names client {client} but the run has {num_clients} clients"
            ),
            ConfigError::CrashShardOutOfRange { shard, num_shards } => write!(
                f,
                "server-crash window names shard {shard} but the run has {num_shards} shards"
            ),
            ConfigError::PartitionEndpointOutOfRange {
                endpoint,
                num_clients,
                num_shards,
            } => write!(
                f,
                "partition endpoint {endpoint:?} is outside the topology \
                 ({num_clients} clients, {num_shards} shards)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_config_is_valid() {
        let c = EngineConfig::table1(ProtocolKind::S2pl, 50, 500, 0.6);
        assert!(c.validate().is_ok());
        assert_eq!(c.num_items(), 25);
        assert_eq!(c.num_shards(), 1);
        assert_eq!(c.latency.nominal(), 500);
    }

    #[test]
    fn item_space_partitions_contiguously() {
        use g2pl_simcore::ItemId;
        let s = ItemSpace::sharded(4, 25);
        assert_eq!(s.num_items(), 100);
        assert_eq!(s.shard_of(ItemId::new(0)), 0);
        assert_eq!(s.shard_of(ItemId::new(24)), 0);
        assert_eq!(s.shard_of(ItemId::new(25)), 1);
        assert_eq!(s.shard_of(ItemId::new(99)), 3);
        assert_eq!(format!("{}", s.site_of(ItemId::new(99))), "S3");
        assert_eq!(
            format!("{}", ItemSpace::single(25).site_of(ItemId::new(7))),
            "S"
        );
    }

    #[test]
    fn builder_overrides_and_validates() {
        let cfg = EngineConfig {
            items: ItemSpace::single(5),
            seed: 3,
            measured_txns: 100,
            ..EngineConfig::table1(ProtocolKind::S2pl, 10, 42, 1.0)
        };
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.num_clients, 10);
        assert_eq!(cfg.num_items(), 5);
        assert_eq!(cfg.latency.nominal(), 42);
        assert_eq!(cfg.seed, 3);

        let cfg = EngineConfig {
            num_clients: 0,
            ..cfg
        };
        assert_eq!(cfg.validate(), Err(ConfigError::NoClients));
    }

    #[test]
    fn sharded_builder_and_validation() {
        let mut c = EngineConfig::table1(ProtocolKind::S2pl, 50, 500, 0.6);
        c.items = ItemSpace::sharded(3, 10);
        assert!(c.validate().is_ok());
        assert_eq!(c.num_shards(), 3);
        assert_eq!(c.num_items(), 30);
        c.items.num_shards = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoShards));
        c.items.num_shards = 65;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyShards { num_shards: 65 })
        );
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let table1 = || EngineConfig::table1(ProtocolKind::S2pl, 50, 500, 0.6);
        let mut c = table1();
        c.num_clients = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoClients));

        let mut c = table1();
        c.measured_txns = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoMeasuredTxns));

        let opts = G2plOpts {
            fl_cap: Some(0),
            ..G2plOpts::default()
        };
        let c = EngineConfig::table1(ProtocolKind::G2pl(opts), 50, 500, 0.6);
        assert_eq!(c.validate(), Err(ConfigError::ZeroFlCap));
    }

    #[test]
    fn zero_bandwidth_is_a_config_error() {
        let mut c = EngineConfig::table1(ProtocolKind::S2pl, 5, 10, 0.5);
        c.latency = LatencyCfg::Bandwidth {
            latency: 10,
            bytes_per_unit: 0,
        };
        assert_eq!(crate::run(&c).err(), Some(ConfigError::ZeroBandwidth));
    }

    #[test]
    fn labels() {
        assert_eq!(ProtocolKind::S2pl.label(), "s-2PL");
        assert_eq!(ProtocolKind::g2pl_paper().label(), "g-2PL");
        assert_eq!(ProtocolKind::C2pl.label(), "c-2PL");
    }

    #[test]
    fn fault_plan_is_validated_with_the_config() {
        let mut c = EngineConfig::table1(ProtocolKind::S2pl, 10, 100, 0.5);
        c.faults = Some(g2pl_faults::FaultPlan::message_loss(1.5));
        assert!(matches!(c.validate(), Err(ConfigError::Faults(_))));

        c.faults = Some(g2pl_faults::FaultPlan {
            crashes: vec![g2pl_faults::CrashWindow {
                client: 99,
                at: 10,
                down_for: 5,
            }],
            ..g2pl_faults::FaultPlan::default()
        });
        assert_eq!(
            c.validate(),
            Err(ConfigError::CrashClientOutOfRange {
                client: 99,
                num_clients: 10
            })
        );
    }

    #[test]
    fn inert_fault_plans_are_inactive() {
        let mut cfg = EngineConfig::table1(ProtocolKind::S2pl, 5, 10, 0.5);
        assert!(cfg.active_faults().is_none());
        cfg.faults = Some(g2pl_faults::FaultPlan::default());
        assert!(cfg.active_faults().is_none(), "inert plan must be inactive");
        cfg.faults = Some(g2pl_faults::FaultPlan::message_loss(0.05));
        assert!(cfg.active_faults().is_some());
    }

    #[test]
    fn paper_g2pl_defaults() {
        let ProtocolKind::G2pl(opts) = ProtocolKind::g2pl_paper() else {
            panic!("expected g-2PL");
        };
        assert!(opts.ordering.consistent, "deadlock avoidance on by default");
        assert!(opts.mr1w, "MR1W on by default");
        assert!(!opts.expand_reads, "read expansion off in the paper");
        assert_eq!(opts.fl_cap, None);
    }
}
