//! Deterministic fault-injection plans for the simulator.
//!
//! The paper's model assumes a perfectly reliable network; this crate
//! supplies the machinery to relax that assumption without giving up the
//! workspace's headline guarantee that a run's seed fully determines its
//! trace. A [`FaultPlan`] describes *what* can go wrong — message drops,
//! duplicated or delayed deliveries, scheduled client crash/restart
//! windows, and transient link partitions — and a [`FaultInjector`]
//! executes the plan from its own named [`RngStream`] (label `"faults"`),
//! so enabling faults never perturbs the draws seen by the workload,
//! think-time, or latency streams (common random numbers are preserved
//! across loss rates, which sharpens the `fig_faults` comparisons).
//!
//! Two invariants the engines rely on:
//!
//! * **Inert plans are free.** A default/zero plan ([`FaultPlan::is_active`]
//!   returns `false`) must cause the engines to construct no injector,
//!   arm no leases or retry timers, and schedule no extra calendar
//!   events, so a zero-fault run is byte-identical to a run with no plan
//!   at all.
//! * **One draw per message.** [`FaultInjector::judge`] consumes exactly
//!   one uniform draw per message when probabilistic faults are
//!   configured (and zero when only partitions/crashes are), so the
//!   verdict stream is a stable function of (seed, send order).
//!
//! [`RngStream`]: g2pl_simcore::RngStream

use g2pl_simcore::{ClientId, RngStream, SimTime, SiteId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A scheduled crash/restart window for one client.
///
/// From `at` (inclusive) until `at + down_for` the client is dead: every
/// message addressed to it is dropped and its local timers are ignored.
/// The restart is mandatory — a client that never comes back would leave
/// the run unable to finish its measured transaction quota.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashWindow {
    /// Which client crashes (raw index into `0..num_clients`).
    pub client: u32,
    /// Simulated time at which the crash occurs.
    pub at: u64,
    /// How long the client stays down before restarting (must be > 0).
    pub down_for: u64,
}

/// A scheduled crash/restart window for one server shard.
///
/// From the (possibly jittered) crash instant until restart the shard is
/// dead: every message addressed to it is dropped, its volatile state
/// (lock table, collection windows, out-lists, directory rows) is lost,
/// and on restart it must reconstruct from its durable log plus the
/// client re-registration handshake. Each shard is an independent fault
/// domain — windows on *different* shards may overlap freely; windows on
/// the *same* shard may not (a shard cannot crash while already down).
/// The restart is mandatory, like client restarts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerCrashWindow {
    /// Which server shard crashes (raw index into `0..num_shards`).
    pub shard: u32,
    /// Earliest simulated time at which the crash occurs.
    pub at: u64,
    /// How long the server stays down before restarting (must be > 0).
    pub down_for: u64,
    /// Upper bound on a random offset added to `at`, drawn from the
    /// crashing shard's dedicated `"server-faults"` stream (0 = crash
    /// exactly at `at`). The jitter keeps crash placement seed-varied in
    /// chaos searches without perturbing any other random stream.
    pub jitter: u64,
}

impl ServerCrashWindow {
    /// A shard-0 window with no jitter (the pre-sharding "the server").
    pub fn fixed(at: u64, down_for: u64) -> Self {
        ServerCrashWindow::on_shard(0, at, down_for)
    }

    /// A window with no jitter crashing the given shard.
    pub fn on_shard(shard: u32, at: u64, down_for: u64) -> Self {
        ServerCrashWindow {
            shard,
            at,
            down_for,
            jitter: 0,
        }
    }
}

/// A transient partition of the link between two sites.
///
/// While `from <= now < until`, every message in either direction between
/// the two endpoints is dropped deterministically (no random draw).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkPartition {
    /// One endpoint of the link.
    pub a: Endpoint,
    /// The other endpoint.
    pub b: Endpoint,
    /// Partition start (inclusive).
    pub from: u64,
    /// Partition end (exclusive; must be > `from`).
    pub until: u64,
}

impl LinkPartition {
    /// A transient shard↔shard partition: while active, the recovery
    /// traffic between the two shards (commit-status queries and their
    /// verdicts) is severed in both directions, which is exactly the
    /// scenario that keeps prepared transactions in doubt.
    pub fn between_shards(a: u32, b: u32, from: u64, until: u64) -> Self {
        LinkPartition {
            a: Endpoint::Shard(a),
            b: Endpoint::Shard(b),
            from,
            until,
        }
    }
}

/// A serializable stand-in for [`SiteId`] in fault plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Endpoint {
    /// Client with the given raw index.
    Client(u32),
    /// Server shard with the given raw index.
    Shard(u32),
}

impl Endpoint {
    /// Does this endpoint name the given site?
    #[inline]
    pub fn matches(self, site: SiteId) -> bool {
        match (self, site) {
            (Endpoint::Shard(k), SiteId::Server(s)) => s.index() == k as usize,
            (Endpoint::Client(c), SiteId::Client(id)) => id.index() == c as usize,
            _ => false,
        }
    }
}

impl From<SiteId> for Endpoint {
    fn from(s: SiteId) -> Self {
        match s {
            SiteId::Server(s) => Endpoint::Shard(s.0),
            SiteId::Client(c) => Endpoint::Client(c.0),
        }
    }
}

/// A declarative, seeded description of the faults injected into a run.
///
/// The plan is pure data (serde-serializable, so experiment registries can
/// embed one per figure). All probabilities are per-message and mutually
/// exclusive: one uniform draw is partitioned into
/// `[drop | duplicate | delay | deliver]` bands.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_prob: f64,
    /// Probability that a message is delivered twice (two independent
    /// latency draws).
    pub dup_prob: f64,
    /// Probability that a delivered message is delayed by `delay_extra`
    /// on top of its modeled latency.
    pub delay_prob: f64,
    /// Extra delay applied to delayed messages, in simulated time units.
    pub delay_extra: u64,
    /// Scheduled client crash/restart windows.
    pub crashes: Vec<CrashWindow>,
    /// Scheduled server crash/restart windows. Windows must not overlap
    /// (even at maximum jitter): the server is a single site and cannot
    /// crash while it is already down.
    pub server_crashes: Vec<ServerCrashWindow>,
    /// Transient link partitions.
    pub partitions: Vec<LinkPartition>,
}

impl FaultPlan {
    /// A plan injecting message loss at the given per-message probability
    /// and nothing else — the `fig_faults` sweep axis.
    pub fn message_loss(p: f64) -> Self {
        FaultPlan {
            drop_prob: p,
            ..FaultPlan::default()
        }
    }

    /// A plan scheduling two fixed server outages of the given duration
    /// (early and late in the run) and nothing else — the
    /// `fig_server_faults` sweep axis. A zero duration yields the inert
    /// plan, anchoring the x = 0 point to the pristine code path.
    pub fn server_outage(down_for: u64) -> Self {
        FaultPlan::shard_outage(0, down_for)
    }

    /// A plan scheduling two fixed outages of the given shard (early and
    /// late in the run) and nothing else — the `fig_shard_faults` sweep
    /// axis. A zero duration yields the inert plan, anchoring the x = 0
    /// point to the pristine code path.
    pub fn shard_outage(shard: u32, down_for: u64) -> Self {
        if down_for == 0 {
            return FaultPlan::default();
        }
        FaultPlan {
            server_crashes: vec![
                ServerCrashWindow::on_shard(shard, 5_000, down_for),
                ServerCrashWindow::on_shard(shard, 20_000, down_for),
            ],
            ..FaultPlan::default()
        }
    }

    /// True if this plan can inject at least one fault. Inert plans must
    /// leave the engines on their fault-free code path (no injector, no
    /// leases, no retry timers), which keeps zero-fault runs byte-identical
    /// to runs with no plan at all.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.delay_prob > 0.0
            || !self.crashes.is_empty()
            || !self.server_crashes.is_empty()
            || !self.partitions.is_empty()
    }

    /// True if the plan schedules at least one server crash. Engines use
    /// this to decide whether to maintain the server's durable log
    /// ([`g2pl_wal::ServerLog`]-shaped); plans without server crashes keep
    /// the exact PR 4 fault paths, byte for byte.
    ///
    /// [`g2pl_wal::ServerLog`]: ../g2pl_wal/struct.ServerLog.html
    pub fn has_server_crashes(&self) -> bool {
        !self.server_crashes.is_empty()
    }

    /// True if the per-message probabilistic faults require a random draw.
    pub fn has_message_faults(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.delay_prob > 0.0
    }

    /// Validate the plan's parameters.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("dup_prob", self.dup_prob),
            ("delay_prob", self.delay_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultPlanError::ProbabilityOutOfRange { name, value: p });
            }
        }
        if self.drop_prob + self.dup_prob + self.delay_prob > 1.0 {
            return Err(FaultPlanError::ProbabilitiesExceedOne);
        }
        if self.delay_prob > 0.0 && self.delay_extra == 0 {
            return Err(FaultPlanError::ZeroDelayExtra);
        }
        for c in &self.crashes {
            if c.down_for == 0 {
                return Err(FaultPlanError::CrashWithoutRestart { client: c.client });
            }
        }
        for w in &self.server_crashes {
            if w.down_for == 0 {
                return Err(FaultPlanError::ServerCrashWithoutRestart { at: w.at });
            }
        }
        // Overlap is checked per shard: each shard is an independent
        // fault domain, so windows on different shards may coincide.
        let mut windows = self.server_crashes.clone();
        windows.sort_by_key(|w| (w.shard, w.at));
        for pair in windows.windows(2) {
            // The latest possible end of the earlier window must precede
            // the earliest possible start of the later one on its shard.
            if pair[0].shard == pair[1].shard
                && pair[0].at + pair[0].jitter + pair[0].down_for > pair[1].at
            {
                return Err(FaultPlanError::OverlappingServerCrashes {
                    shard: pair[0].shard,
                });
            }
        }
        for p in &self.partitions {
            if p.until <= p.from {
                return Err(FaultPlanError::EmptyPartition);
            }
        }
        Ok(())
    }
}

/// Why a [`FaultPlan`] was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A probability field is outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Field name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// `drop_prob + dup_prob + delay_prob` exceeds 1.
    ProbabilitiesExceedOne,
    /// `delay_prob > 0` but `delay_extra == 0` (a no-op delay).
    ZeroDelayExtra,
    /// A crash window has `down_for == 0`; restarts are mandatory.
    CrashWithoutRestart {
        /// Offending client index.
        client: u32,
    },
    /// A server crash window has `down_for == 0`; restarts are mandatory.
    ServerCrashWithoutRestart {
        /// Nominal crash instant of the offending window.
        at: u64,
    },
    /// Two crash windows for the same shard can overlap (a shard cannot
    /// crash while already down).
    OverlappingServerCrashes {
        /// The shard whose windows collide.
        shard: u32,
    },
    /// A partition window with `until <= from`.
    EmptyPartition,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::ProbabilityOutOfRange { name, value } => {
                write!(f, "{name} = {value} is outside [0, 1]")
            }
            FaultPlanError::ProbabilitiesExceedOne => {
                write!(f, "drop_prob + dup_prob + delay_prob exceeds 1")
            }
            FaultPlanError::ZeroDelayExtra => {
                write!(f, "delay_prob > 0 requires a nonzero delay_extra")
            }
            FaultPlanError::CrashWithoutRestart { client } => {
                write!(f, "crash window for client {client} never restarts")
            }
            FaultPlanError::ServerCrashWithoutRestart { at } => {
                write!(f, "server crash window at {at} never restarts")
            }
            FaultPlanError::OverlappingServerCrashes { shard } => {
                write!(
                    f,
                    "crash windows for shard {shard} overlap (including jitter)"
                )
            }
            FaultPlanError::EmptyPartition => write!(f, "partition window is empty"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The injector's verdict for one message send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Drop the message (link loss or partition).
    Drop,
    /// Deliver the message twice, both copies after the same latency.
    Duplicate,
    /// Deliver once, delayed by the given extra time.
    Delay(SimTime),
}

/// Counters for faults actually injected during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Messages dropped by the random loss band.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages delayed beyond their modeled latency.
    pub delayed: u64,
    /// Messages dropped because a link partition was active.
    pub partition_drops: u64,
}

impl FaultCounts {
    /// Total number of injected message faults.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.partition_drops
    }
}

/// Runtime executor of a [`FaultPlan`]: owns the plan, the dedicated
/// `"faults"` random stream, and the injected-fault counters.
pub struct FaultInjector {
    plan: FaultPlan,
    rng: RngStream,
    /// The run's master seed, kept so each shard's crash-placement stream
    /// (`"server-faults"` indexed by shard) can be derived on demand —
    /// per-shard streams mean a shard's jitter draws neither perturb nor
    /// are perturbed by another shard's, or by the per-message verdicts.
    master_seed: u64,
    /// Faults injected so far.
    pub counts: FaultCounts,
}

impl FaultInjector {
    /// Build an injector for an *active* plan, deriving the fault stream
    /// from the run's master seed.
    pub fn new(plan: FaultPlan, master_seed: u64) -> Self {
        FaultInjector {
            plan,
            rng: RngStream::derive(master_seed, "faults"),
            master_seed,
            counts: FaultCounts::default(),
        }
    }

    /// Decide the fate of one message from `from` to `to` at time `now`.
    ///
    /// Partition checks are deterministic and consume no randomness; the
    /// probabilistic bands consume exactly one uniform draw per call when
    /// any of the message-fault probabilities is nonzero.
    pub fn judge(&mut self, from: SiteId, to: SiteId, now: SimTime) -> Verdict {
        if self.partitioned(from, to, now) {
            self.counts.partition_drops += 1;
            return Verdict::Drop;
        }
        if !self.plan.has_message_faults() {
            return Verdict::Deliver;
        }
        let u = self.rng.unit_f64();
        if u < self.plan.drop_prob {
            self.counts.dropped += 1;
            Verdict::Drop
        } else if u < self.plan.drop_prob + self.plan.dup_prob {
            self.counts.duplicated += 1;
            Verdict::Duplicate
        } else if u < self.plan.drop_prob + self.plan.dup_prob + self.plan.delay_prob {
            self.counts.delayed += 1;
            Verdict::Delay(SimTime::new(self.plan.delay_extra))
        } else {
            Verdict::Deliver
        }
    }

    /// Is the link between the two sites partitioned at `now`?
    fn partitioned(&self, from: SiteId, to: SiteId, now: SimTime) -> bool {
        let t = now.units();
        self.plan.partitions.iter().any(|p| {
            t >= p.from
                && t < p.until
                && ((p.a.matches(from) && p.b.matches(to))
                    || (p.a.matches(to) && p.b.matches(from)))
        })
    }

    /// The crash/restart schedule, as `(client, at, up)` triples in
    /// chronological order, ready to be placed on the calendar at engine
    /// start. `up == false` is a crash, `up == true` a restart.
    pub fn crash_schedule(&self) -> Vec<(ClientId, SimTime, bool)> {
        let mut evs: Vec<(ClientId, SimTime, bool)> = Vec::new();
        for c in &self.plan.crashes {
            let id = ClientId::new(c.client);
            evs.push((id, SimTime::new(c.at), false));
            evs.push((id, SimTime::new(c.at + c.down_for), true));
        }
        evs.sort_by_key(|&(id, at, up)| (at, id, up));
        evs
    }

    /// The server crash/restart schedule, as `(shard, at, up)` triples in
    /// chronological order. Jittered windows consume exactly one draw
    /// each from the crashing shard's dedicated stream (`"server-faults"`
    /// indexed by shard; zero-jitter windows consume none), in `at`-sorted
    /// window order per shard, so the schedule is a stable function of
    /// (seed, plan) and independent across shards.
    pub fn server_crash_schedule(&mut self) -> Vec<(u32, SimTime, bool)> {
        let mut windows = self.plan.server_crashes.clone();
        windows.sort_by_key(|w| (w.shard, w.at));
        let mut evs: Vec<(u32, SimTime, bool)> = Vec::new();
        let mut shard_rng: Option<(u32, RngStream)> = None;
        for w in &windows {
            let offset = if w.jitter == 0 {
                0
            } else {
                let rng = match &mut shard_rng {
                    Some((s, rng)) if *s == w.shard => rng,
                    _ => {
                        let fresh = RngStream::derive_indexed(
                            self.master_seed,
                            "server-faults",
                            u64::from(w.shard),
                        );
                        &mut shard_rng.insert((w.shard, fresh)).1
                    }
                };
                rng.uniform_incl(0, w.jitter)
            };
            let crash = w.at + offset;
            evs.push((w.shard, SimTime::new(crash), false));
            evs.push((w.shard, SimTime::new(crash + w.down_for), true));
        }
        evs.sort_by_key(|&(shard, at, up)| (at, shard, up));
        evs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        assert!(!p.has_message_faults());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn message_loss_plan_is_active_and_valid() {
        let p = FaultPlan::message_loss(0.05);
        assert!(p.is_active());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut p = FaultPlan::message_loss(1.5);
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::ProbabilityOutOfRange { .. })
        ));
        p = FaultPlan {
            drop_prob: 0.6,
            dup_prob: 0.6,
            ..FaultPlan::default()
        };
        assert_eq!(p.validate(), Err(FaultPlanError::ProbabilitiesExceedOne));
        p = FaultPlan {
            delay_prob: 0.1,
            ..FaultPlan::default()
        };
        assert_eq!(p.validate(), Err(FaultPlanError::ZeroDelayExtra));
        p = FaultPlan {
            crashes: vec![CrashWindow {
                client: 0,
                at: 10,
                down_for: 0,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            p.validate(),
            Err(FaultPlanError::CrashWithoutRestart { client: 0 })
        ));
        p = FaultPlan {
            partitions: vec![LinkPartition {
                a: Endpoint::Shard(0),
                b: Endpoint::Client(1),
                from: 5,
                until: 5,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(p.validate(), Err(FaultPlanError::EmptyPartition));
    }

    #[test]
    fn overlap_validation_is_per_shard() {
        // Identical windows on different shards: legal (independent
        // fault domains can be down at the same time).
        let p = FaultPlan {
            server_crashes: vec![
                ServerCrashWindow::on_shard(1, 100, 50),
                ServerCrashWindow::on_shard(2, 100, 50),
            ],
            ..FaultPlan::default()
        };
        assert!(p.validate().is_ok());
        // The same windows on one shard: rejected.
        let bad = FaultPlan {
            server_crashes: vec![
                ServerCrashWindow::on_shard(2, 100, 50),
                ServerCrashWindow::on_shard(2, 120, 50),
            ],
            ..FaultPlan::default()
        };
        assert_eq!(
            bad.validate(),
            Err(FaultPlanError::OverlappingServerCrashes { shard: 2 })
        );
    }

    #[test]
    fn legacy_server_endpoint_maps_to_shard_zero() {
        // SiteId conversion always names the concrete shard.
        assert_eq!(Endpoint::from(SiteId::SERVER0), Endpoint::Shard(0));
        assert_eq!(
            Endpoint::from(SiteId::server(4)),
            Endpoint::Shard(4),
            "non-zero shards keep their index"
        );
        assert!(Endpoint::Shard(0).matches(SiteId::SERVER0));
        assert!(!Endpoint::Shard(1).matches(SiteId::SERVER0));
    }

    #[test]
    fn shard_outage_anchors_zero_to_the_inert_plan() {
        assert_eq!(FaultPlan::shard_outage(3, 0), FaultPlan::default());
        let p = FaultPlan::shard_outage(3, 500);
        assert!(p.is_active() && p.has_server_crashes());
        assert!(p.server_crashes.iter().all(|w| w.shard == 3));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn judge_is_deterministic_per_seed() {
        let plan = FaultPlan {
            drop_prob: 0.2,
            dup_prob: 0.1,
            delay_prob: 0.1,
            delay_extra: 7,
            ..FaultPlan::default()
        };
        let mut a = FaultInjector::new(plan.clone(), 42);
        let mut b = FaultInjector::new(plan, 42);
        for i in 0..500u32 {
            let from = SiteId::Client(ClientId::new(i % 5));
            let v1 = a.judge(from, SiteId::SERVER0, SimTime::new(u64::from(i)));
            let v2 = b.judge(from, SiteId::SERVER0, SimTime::new(u64::from(i)));
            assert_eq!(v1, v2);
        }
        assert_eq!(a.counts, b.counts);
        assert!(a.counts.total() > 0, "expected some injected faults");
    }

    #[test]
    fn partition_drops_deterministically_without_draws() {
        let plan = FaultPlan {
            partitions: vec![LinkPartition {
                a: Endpoint::Shard(0),
                b: Endpoint::Client(2),
                from: 10,
                until: 20,
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 1);
        let c2 = SiteId::Client(ClientId::new(2));
        let c3 = SiteId::Client(ClientId::new(3));
        assert_eq!(
            inj.judge(SiteId::SERVER0, c2, SimTime::new(9)),
            Verdict::Deliver
        );
        assert_eq!(
            inj.judge(SiteId::SERVER0, c2, SimTime::new(10)),
            Verdict::Drop
        );
        assert_eq!(
            inj.judge(c2, SiteId::SERVER0, SimTime::new(19)),
            Verdict::Drop
        );
        assert_eq!(
            inj.judge(SiteId::SERVER0, c2, SimTime::new(20)),
            Verdict::Deliver
        );
        assert_eq!(
            inj.judge(SiteId::SERVER0, c3, SimTime::new(15)),
            Verdict::Deliver
        );
        assert_eq!(inj.counts.partition_drops, 2);
    }

    #[test]
    fn server_crash_plan_is_active_and_validated() {
        let p = FaultPlan {
            server_crashes: vec![ServerCrashWindow::fixed(100, 50)],
            ..FaultPlan::default()
        };
        assert!(p.is_active());
        assert!(p.has_server_crashes());
        assert!(!p.has_message_faults());
        assert!(p.validate().is_ok());

        let bad = FaultPlan {
            server_crashes: vec![ServerCrashWindow::fixed(100, 0)],
            ..FaultPlan::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(FaultPlanError::ServerCrashWithoutRestart { at: 100 })
        ));

        let overlap = FaultPlan {
            server_crashes: vec![
                ServerCrashWindow::fixed(100, 50),
                ServerCrashWindow {
                    shard: 0,
                    at: 80,
                    down_for: 30,
                    jitter: 5,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(
            overlap.validate(),
            Err(FaultPlanError::OverlappingServerCrashes { shard: 0 })
        );
    }

    #[test]
    fn server_crash_schedule_is_deterministic_and_independent() {
        let plan = FaultPlan {
            drop_prob: 0.1,
            server_crashes: vec![
                ServerCrashWindow {
                    shard: 0,
                    at: 200,
                    down_for: 40,
                    jitter: 30,
                },
                ServerCrashWindow::fixed(500, 25),
            ],
            ..FaultPlan::default()
        };
        let mut a = FaultInjector::new(plan.clone(), 77);
        let mut b = FaultInjector::new(plan.clone(), 77);
        // Interleave message judgements with schedule construction in one
        // injector only: the "server-faults" stream must be unaffected.
        for i in 0..64u32 {
            let from = SiteId::Client(ClientId::new(i % 3));
            let _ = a.judge(from, SiteId::SERVER0, SimTime::new(u64::from(i)));
        }
        let sa = a.server_crash_schedule();
        let sb = b.server_crash_schedule();
        assert_eq!(sa, sb);
        assert_eq!(sa.len(), 4);
        // First window: crash in [200, 230], restart exactly down_for later.
        assert!(!sa[0].2 && sa[1].2);
        let crash = sa[0].1.units();
        assert!((200..=230).contains(&crash));
        assert_eq!(sa[1].1.units(), crash + 40);
        // Second (fixed) window consumes no jitter draw.
        assert_eq!(sa[2], (0, SimTime::new(500), false));
        assert_eq!(sa[3], (0, SimTime::new(525), true));
    }

    #[test]
    fn shard_jitter_streams_are_independent() {
        // A window's jitter draw must not depend on which other shards
        // also crash: shard 2's placement is identical whether it is
        // scheduled alone or alongside shard 1.
        let solo = FaultPlan {
            server_crashes: vec![ServerCrashWindow {
                shard: 2,
                at: 300,
                down_for: 60,
                jitter: 40,
            }],
            ..FaultPlan::default()
        };
        let both = FaultPlan {
            server_crashes: vec![
                ServerCrashWindow {
                    shard: 1,
                    at: 100,
                    down_for: 30,
                    jitter: 40,
                },
                ServerCrashWindow {
                    shard: 2,
                    at: 300,
                    down_for: 60,
                    jitter: 40,
                },
            ],
            ..FaultPlan::default()
        };
        let sa = FaultInjector::new(solo, 9).server_crash_schedule();
        let sb = FaultInjector::new(both, 9).server_crash_schedule();
        let shard2 = |evs: &[(u32, SimTime, bool)]| -> Vec<(u32, SimTime, bool)> {
            evs.iter().copied().filter(|e| e.0 == 2).collect()
        };
        assert_eq!(shard2(&sa), shard2(&sb));
        assert_eq!(sb.len(), 4);
    }

    #[test]
    fn crash_schedule_orders_events() {
        let plan = FaultPlan {
            crashes: vec![
                CrashWindow {
                    client: 3,
                    at: 50,
                    down_for: 25,
                },
                CrashWindow {
                    client: 1,
                    at: 10,
                    down_for: 5,
                },
            ],
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan, 0);
        let sched = inj.crash_schedule();
        assert_eq!(
            sched,
            vec![
                (ClientId::new(1), SimTime::new(10), false),
                (ClientId::new(1), SimTime::new(15), true),
                (ClientId::new(3), SimTime::new(50), false),
                (ClientId::new(3), SimTime::new(75), true),
            ]
        );
    }
}
