//! Sharded scale-out engine: millions of clients over parallel shards.
//!
//! The full engines ([`crate::s2pl`], [`crate::g2pl`], [`crate::c2pl`])
//! carry history recording, fault plans, WAL, and tracing — the right
//! tool for protocol fidelity, the wrong one for asking "what happens at
//! a million clients?". This module is the scale harness: a lean
//! multi-home strict-2PL engine whose state is partitioned into one
//! logical process (LP) per shard and executed by the conservative
//! windowed PDES in [`g2pl_simcore::pdes`], with the constant one-way
//! link latency as the lookahead.
//!
//! Partitioning: shard LP `s` owns the lock table for its contiguous
//! item range *and* the clients homed on it (client `c` lives on LP
//! `c % shards`). Every interaction between a client and a lock table —
//! even a co-located one — is a message delayed by the link latency, so
//! the trajectory is independent of the partitioning and the PDES
//! horizon assertion holds for every send.
//!
//! The protocol is deadlock-free by construction: access lists are
//! sorted ascending (`sorted_access`), requests are issued one at a
//! time, and each lock queue is strict FIFO, so the resource-ordering
//! argument applies and no abort path is needed. Multi-home commit
//! releases each involved shard's locks with one message per shard and
//! completes when every shard acknowledged — the two-phase rule (no
//! lock acquired after the first release) is preserved because releases
//! only start after the last grant.
//!
//! Determinism: per-client RNG streams are derived as
//! `derive_indexed(seed, "scale-client", c)`, so a client's randomness
//! depends only on its id and the order it consumes draws — which the
//! PDES keeps identical at every worker count.

use crate::config::ItemSpace;
use g2pl_simcore::pdes::{self, Lp, Outbox};
use g2pl_simcore::{Calendar, RngStream, SimTime};
use g2pl_stats::{RunningStats, TailSketch};
use g2pl_workload::{TxnGenerator, TxnProfile};
use std::collections::VecDeque;
use std::time::Duration;

/// Configuration of one scale-out run.
#[derive(Clone, Debug)]
pub struct ScaleCfg {
    /// Total clients across every shard.
    pub num_clients: u32,
    /// Item space; also fixes the shard (= LP) count.
    pub items: ItemSpace,
    /// Constant one-way link latency in time units; doubles as the PDES
    /// lookahead, so it must be positive.
    pub latency: u64,
    /// Workload shape; `sorted_access` is forced on (the deadlock-
    /// freedom argument needs it).
    pub profile: TxnProfile,
    /// Transactions starting before this time are excluded from
    /// response statistics.
    pub warmup: u64,
    /// Length of the admission window after warm-up; no new transaction
    /// starts after `warmup + measured`, and the run then drains to
    /// quiescence.
    pub measured: u64,
    /// Master seed for the per-client RNG family.
    pub seed: u64,
}

impl ScaleCfg {
    /// A Table-1-flavored cell: think 1–3, idle 2–10, 1–5 items, the
    /// given read probability, and an item pool sized so contention
    /// stays moderate as clients grow: ≈4 items per active client (a
    /// client holds ~1.5 locks on average mid-transaction, so the pool
    /// runs at ~40% utilization — loaded but stable), at least 64 items
    /// per shard.
    pub fn cell(num_clients: u32, shards: u32, latency: u64, read_prob: f64) -> Self {
        let per_shard = (num_clients / shards).saturating_mul(4).clamp(64, 1 << 22);
        let mut profile = TxnProfile::table1(read_prob);
        profile.sorted_access = true;
        ScaleCfg {
            num_clients,
            items: ItemSpace::sharded(shards, per_shard),
            latency,
            profile,
            warmup: 100,
            measured: 400,
            seed: 42,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.num_clients == 0 {
            return Err("scale: at least one client required".into());
        }
        if self.latency == 0 {
            return Err("scale: latency must be positive (it is the PDES lookahead)".into());
        }
        if self.measured == 0 {
            return Err("scale: empty measurement window".into());
        }
        self.profile
            .validate(self.items.num_shards * self.items.items_per_shard)
            .map_err(|e| format!("scale: {e}"))
    }
}

/// Deterministic results of one scale-out run plus wall-clock totals.
#[derive(Clone, Debug)]
pub struct ScaleMetrics {
    /// Clients simulated.
    pub clients: u32,
    /// Shard (= LP) count.
    pub shards: u32,
    /// Transactions committed (including warm-up and drain).
    pub committed: u64,
    /// Committed transactions that touched two or more shards.
    pub multi_home: u64,
    /// Response time of measured transactions (started at or after
    /// warm-up).
    pub response: RunningStats,
    /// Response-time tail sketch of the same population.
    pub tail: TailSketch,
    /// Calendar events processed across all LPs.
    pub events: u64,
    /// Protocol messages sent (local and cross-shard).
    pub messages: u64,
    /// PDES synchronization windows.
    pub rounds: u64,
    /// Messages that crossed an LP boundary.
    pub cross_messages: u64,
    /// Wall-clock execution time (not deterministic; excluded from
    /// figure data).
    pub wall: Duration,
}

impl ScaleMetrics {
    /// Simulation throughput in events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// Cross-shard protocol message.
#[derive(PartialEq, Eq)]
enum Wire {
    /// Client asks the owning shard for one lock.
    LockReq { client: u32, item: u32, write: bool },
    /// Shard grants the client's pending request.
    Grant { client: u32 },
    /// Client releases all its locks on one shard (commit).
    Release {
        client: u32,
        items: Vec<(u32, bool)>,
    },
    /// Shard acknowledges a release.
    Ack { client: u32 },
}

/// Local calendar event of one shard LP.
#[derive(PartialEq, Eq)]
enum Ev {
    Net(Wire),
    /// Client think/idle timer fired.
    Timer {
        client: u32,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Between transactions, idle timer pending (or exhausted).
    Idle,
    /// LockReq in flight, waiting for its Grant.
    Requesting,
    /// Think timer pending after a grant.
    Thinking,
    /// Releases in flight, waiting for all Acks.
    Committing,
    /// Past the admission window; permanently quiescent.
    Done,
}

/// Per-client state; kept lean so a million clients fit comfortably.
struct ScClient {
    rng: RngStream,
    /// Sorted-ascending access list of the current transaction.
    spec: Vec<(u32, bool)>,
    /// Next access to request.
    next: u16,
    /// Outstanding commit acknowledgements.
    acks_pending: u16,
    phase: Phase,
    /// Start time of the current transaction.
    txn_start: u64,
    /// Whether the current transaction counts toward statistics.
    measured: bool,
    /// Whether the current transaction spans multiple shards.
    multi: bool,
}

/// One item's lock word: shared readers or one writer, FIFO waiters.
#[derive(Default)]
struct ItemLock {
    readers: u32,
    writer: bool,
    queue: VecDeque<(u32, bool)>,
}

/// One shard: its lock table plus the clients homed on it.
struct ShardLp {
    shard: u32,
    nshards: u32,
    items_per_shard: u32,
    latency: SimTime,
    warmup: SimTime,
    end_admission: SimTime,
    cal: Calendar<Ev>,
    locks: Vec<ItemLock>,
    /// Local clients; global id = `shard + nshards * local_index`.
    clients: Vec<ScClient>,
    generator: TxnGenerator,
    events: u64,
    messages: u64,
    committed: u64,
    multi_home: u64,
    response: RunningStats,
    tail: TailSketch,
}

impl ShardLp {
    fn local(&mut self, client: u32) -> &mut ScClient {
        debug_assert_eq!(client % self.nshards, self.shard);
        &mut self.clients[(client / self.nshards) as usize]
    }

    /// LP index owning `item`.
    fn owner(&self, item: u32) -> usize {
        (item / self.items_per_shard) as usize
    }

    /// LP index homing `client`.
    fn home(&self, client: u32) -> usize {
        (client % self.nshards) as usize
    }

    /// Send `wire` to LP `dest`, arriving one link latency from `now`.
    /// Same-LP traffic stays on the local calendar; everything else goes
    /// through the PDES outbox. Either way the delay is identical, so
    /// the trajectory does not depend on co-location.
    fn send(&mut self, outbox: &mut Outbox<Wire>, dest: usize, now: SimTime, wire: Wire) {
        self.messages += 1;
        let at = now.after(self.latency);
        if dest == self.shard as usize {
            self.cal.schedule(at, Ev::Net(wire));
        } else {
            outbox.send(dest, at, wire);
        }
    }

    /// Begin a new transaction for `client` (homed here) at `now`.
    fn start_txn(&mut self, outbox: &mut Outbox<Wire>, client: u32, now: SimTime) {
        // Field-disjoint borrows: the generator is read-only while the
        // client's RNG advances.
        let c = &mut self.clients[(client / self.nshards) as usize];
        let drawn = self.generator.draw(&mut c.rng);
        let spec: Vec<(u32, bool)> = drawn
            .accesses
            .iter()
            .map(|&(item, mode)| (item.0, mode.is_write()))
            .collect();
        debug_assert!(spec.windows(2).all(|w| w[0].0 < w[1].0), "sorted access");
        let (item, write) = spec[0];
        c.spec = spec;
        c.next = 0;
        c.txn_start = now.units();
        c.measured = now >= self.warmup;
        c.phase = Phase::Requesting;
        let dest = self.owner(item);
        self.send(
            outbox,
            dest,
            now,
            Wire::LockReq {
                client,
                item,
                write,
            },
        );
    }

    /// Think timer fired: request the next item, or commit if the list
    /// is exhausted.
    fn advance_txn(&mut self, outbox: &mut Outbox<Wire>, client: u32, now: SimTime) {
        let c = &mut self.clients[(client / self.nshards) as usize];
        debug_assert_eq!(c.phase, Phase::Thinking);
        c.next += 1;
        let next = c.next as usize;
        if next < c.spec.len() {
            let (item, write) = c.spec[next];
            c.phase = Phase::Requesting;
            let dest = self.owner(item);
            self.send(
                outbox,
                dest,
                now,
                Wire::LockReq {
                    client,
                    item,
                    write,
                },
            );
            return;
        }
        // Commit: one Release per involved shard. The sorted spec makes
        // shard groups contiguous, so one forward scan splits them.
        let items_per_shard = self.items_per_shard;
        let mut groups: Vec<(usize, Vec<(u32, bool)>)> = Vec::new();
        for &(item, write) in &c.spec {
            let dest = (item / items_per_shard) as usize;
            match groups.last_mut() {
                Some((d, items)) if *d == dest => items.push((item, write)),
                _ => groups.push((dest, vec![(item, write)])),
            }
        }
        c.acks_pending = groups.len() as u16;
        c.multi = groups.len() > 1;
        c.phase = Phase::Committing;
        for (dest, items) in groups {
            self.send(outbox, dest, now, Wire::Release { client, items });
        }
    }

    /// All acks in: the transaction is committed.
    fn finish_txn(&mut self, client: u32, now: SimTime) {
        let c = &mut self.clients[(client / self.nshards) as usize];
        debug_assert_eq!(c.phase, Phase::Committing);
        c.spec.clear();
        self.committed += 1;
        if c.multi {
            self.multi_home += 1;
        }
        if c.measured {
            let resp = now.units() - c.txn_start;
            self.response.record(resp as f64);
            self.tail.record(resp);
        }
        if now >= self.end_admission {
            c.phase = Phase::Done;
        } else {
            let idle = self.generator.profile().draw_idle(&mut c.rng);
            c.phase = Phase::Idle;
            self.cal.schedule(now.after(idle), Ev::Timer { client });
        }
    }

    /// Server side: try to grant `(item, write)` to `client`, else queue.
    fn lock_req(
        &mut self,
        outbox: &mut Outbox<Wire>,
        client: u32,
        item: u32,
        write: bool,
        now: SimTime,
    ) {
        let local = (item - self.shard * self.items_per_shard) as usize;
        let lock = &mut self.locks[local];
        let free = lock.queue.is_empty() && !lock.writer && (!write || lock.readers == 0);
        if free {
            if write {
                lock.writer = true;
            } else {
                lock.readers += 1;
            }
            let dest = self.home(client);
            self.send(outbox, dest, now, Wire::Grant { client });
        } else {
            lock.queue.push_back((client, write));
        }
    }

    /// Server side: release a commit group and wake FIFO-compatible
    /// waiters.
    fn release(
        &mut self,
        outbox: &mut Outbox<Wire>,
        client: u32,
        items: &[(u32, bool)],
        now: SimTime,
    ) {
        let base = self.shard * self.items_per_shard;
        let mut grants: Vec<u32> = Vec::new();
        for &(item, write) in items {
            let lock = &mut self.locks[(item - base) as usize];
            if write {
                debug_assert!(lock.writer);
                lock.writer = false;
            } else {
                debug_assert!(lock.readers > 0);
                lock.readers -= 1;
            }
            // Pump the FIFO queue: a reader batch, or one writer.
            while let Some(&(waiter, w)) = lock.queue.front() {
                if w {
                    if !lock.writer && lock.readers == 0 {
                        lock.writer = true;
                        lock.queue.pop_front();
                        grants.push(waiter);
                    }
                    break;
                }
                if lock.writer {
                    break;
                }
                lock.readers += 1;
                lock.queue.pop_front();
                grants.push(waiter);
            }
        }
        for waiter in grants {
            let dest = self.home(waiter);
            self.send(outbox, dest, now, Wire::Grant { client: waiter });
        }
        let dest = self.home(client);
        self.send(outbox, dest, now, Wire::Ack { client });
    }

    fn handle(&mut self, outbox: &mut Outbox<Wire>, now: SimTime, ev: Ev) {
        match ev {
            Ev::Timer { client } => match self.local(client).phase {
                Phase::Idle => {
                    if now >= self.end_admission {
                        self.local(client).phase = Phase::Done;
                    } else {
                        self.start_txn(outbox, client, now);
                    }
                }
                Phase::Thinking => self.advance_txn(outbox, client, now),
                other => unreachable!("timer in phase {other:?}"),
            },
            Ev::Net(Wire::LockReq {
                client,
                item,
                write,
            }) => {
                self.lock_req(outbox, client, item, write, now);
            }
            Ev::Net(Wire::Grant { client }) => {
                let c = &mut self.clients[(client / self.nshards) as usize];
                debug_assert_eq!(c.phase, Phase::Requesting);
                c.phase = Phase::Thinking;
                let think = self.generator.profile().draw_think(&mut c.rng);
                self.cal.schedule(now.after(think), Ev::Timer { client });
            }
            Ev::Net(Wire::Release { client, items }) => {
                self.release(outbox, client, &items, now);
            }
            Ev::Net(Wire::Ack { client }) => {
                let c = &mut self.clients[(client / self.nshards) as usize];
                debug_assert!(c.acks_pending > 0);
                c.acks_pending -= 1;
                if c.acks_pending == 0 {
                    self.finish_txn(client, now);
                }
            }
        }
    }

    /// Post-drain invariant check: every lock free, every client done.
    fn verify_quiescent(&self) -> Result<(), String> {
        for (i, lock) in self.locks.iter().enumerate() {
            if lock.readers != 0 || lock.writer || !lock.queue.is_empty() {
                return Err(format!(
                    "scale: shard {} item {} not quiescent after drain \
                     (readers={}, writer={}, queued={})",
                    self.shard,
                    i,
                    lock.readers,
                    lock.writer,
                    lock.queue.len()
                ));
            }
        }
        for (i, c) in self.clients.iter().enumerate() {
            if c.phase != Phase::Done || c.acks_pending != 0 {
                return Err(format!(
                    "scale: shard {} local client {} ended in {:?} with {} acks pending",
                    self.shard, i, c.phase, c.acks_pending
                ));
            }
        }
        Ok(())
    }
}

impl Lp for ShardLp {
    type Msg = Wire;

    fn next_time(&mut self) -> Option<SimTime> {
        self.cal.next_time()
    }

    fn execute(&mut self, horizon: SimTime, outbox: &mut Outbox<Wire>) {
        while self.cal.next_time().is_some_and(|t| t < horizon) {
            // lint:allow(L3): guarded by the peek above
            let (now, ev) = self.cal.pop().expect("peeked");
            self.events += 1;
            self.handle(outbox, now, ev);
        }
    }

    fn deliver(&mut self, at: SimTime, msg: Wire) {
        self.cal.schedule(at, Ev::Net(msg));
    }
}

/// Run one scale-out cell with an explicit PDES worker count
/// (`workers == 1` is the serial reference; any other count must — and
/// the tests assert does — produce identical deterministic metrics).
pub fn run_scale_with_workers(cfg: &ScaleCfg, workers: usize) -> Result<ScaleMetrics, String> {
    cfg.validate()?;
    let nshards = cfg.items.num_shards;
    let mut profile = cfg.profile.clone();
    profile.sorted_access = true;
    let mut lps: Vec<ShardLp> = (0..nshards)
        .map(|shard| {
            let mut lp = ShardLp {
                shard,
                nshards,
                items_per_shard: cfg.items.items_per_shard,
                latency: SimTime::new(cfg.latency),
                warmup: SimTime::new(cfg.warmup),
                end_admission: SimTime::new(cfg.warmup + cfg.measured),
                cal: Calendar::new(),
                locks: (0..cfg.items.items_per_shard)
                    .map(|_| ItemLock::default())
                    .collect(),
                clients: Vec::new(),
                generator: TxnGenerator::new_sharded(
                    profile.clone(),
                    nshards,
                    cfg.items.items_per_shard,
                ),
                events: 0,
                messages: 0,
                committed: 0,
                multi_home: 0,
                response: RunningStats::new(),
                tail: TailSketch::new(),
            };
            let mut client = shard;
            while client < cfg.num_clients {
                let mut rng =
                    RngStream::derive_indexed(cfg.seed, "scale-client", u64::from(client));
                let first = profile.draw_idle(&mut rng);
                lp.clients.push(ScClient {
                    rng,
                    spec: Vec::new(),
                    next: 0,
                    acks_pending: 0,
                    phase: Phase::Idle,
                    txn_start: 0,
                    measured: false,
                    multi: false,
                });
                lp.cal.schedule(first, Ev::Timer { client });
                client += nshards;
            }
            lp
        })
        .collect();

    // lint:allow(L2): harness self-timing (events/sec report only) — never feeds back into simulated time
    let start = std::time::Instant::now();
    let report = pdes::run(&mut lps, SimTime::new(cfg.latency), workers);
    let wall = start.elapsed();

    let mut metrics = ScaleMetrics {
        clients: cfg.num_clients,
        shards: nshards,
        committed: 0,
        multi_home: 0,
        response: RunningStats::new(),
        tail: TailSketch::new(),
        events: 0,
        messages: 0,
        rounds: report.rounds,
        cross_messages: report.cross_messages,
        wall,
    };
    for lp in &lps {
        lp.verify_quiescent()?;
        metrics.committed += lp.committed;
        metrics.multi_home += lp.multi_home;
        metrics.response.merge(&lp.response);
        metrics.tail.merge(&lp.tail);
        metrics.events += lp.events;
        metrics.messages += lp.messages;
    }
    if metrics.committed == 0 {
        return Err("scale: no transaction committed".into());
    }
    Ok(metrics)
}

/// Run one scale-out cell with one PDES worker per shard (capped at the
/// machine's available parallelism).
pub fn run_scale(cfg: &ScaleCfg) -> Result<ScaleMetrics, String> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    run_scale_with_workers(cfg, cores.min(cfg.items.num_shards as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(clients: u32, shards: u32) -> ScaleCfg {
        let mut cfg = ScaleCfg::cell(clients, shards, 10, 0.5);
        cfg.warmup = 50;
        cfg.measured = 200;
        cfg
    }

    #[test]
    fn single_shard_cell_runs_and_drains() {
        let m = run_scale_with_workers(&smoke_cfg(40, 1), 1).expect("runs");
        assert_eq!(m.shards, 1);
        assert!(m.committed > 0);
        assert_eq!(m.multi_home, 0, "one shard cannot cross");
        assert_eq!(m.cross_messages, 0, "one LP has no boundary to cross");
        assert!(m.response.count() > 0);
        assert_eq!(m.response.count(), m.tail.count());
    }

    #[test]
    fn multi_shard_cell_commits_multi_home_transactions() {
        let mut cfg = smoke_cfg(64, 4);
        cfg.profile.shard_mix = Some(g2pl_workload::ShardMix::uniform(0.5));
        let m = run_scale_with_workers(&cfg, 1).expect("runs");
        assert!(m.committed > 0);
        assert!(
            m.multi_home > 0,
            "cross_frac=0.5 must commit multi-home transactions"
        );
        assert!(m.cross_messages > 0);
    }

    #[test]
    fn serial_and_parallel_metrics_are_bit_identical() {
        let mut cfg = smoke_cfg(96, 4);
        cfg.profile.shard_mix = Some(g2pl_workload::ShardMix {
            cross_frac: 0.4,
            shard_theta: 0.7,
        });
        let serial = run_scale_with_workers(&cfg, 1).expect("runs");
        for workers in [2, 4] {
            let parallel = run_scale_with_workers(&cfg, workers).expect("runs");
            assert_eq!(serial.committed, parallel.committed, "workers={workers}");
            assert_eq!(serial.multi_home, parallel.multi_home);
            assert_eq!(serial.events, parallel.events);
            assert_eq!(serial.messages, parallel.messages);
            assert_eq!(serial.rounds, parallel.rounds);
            assert_eq!(serial.cross_messages, parallel.cross_messages);
            assert!(serial.response.mean() == parallel.response.mean());
            assert_eq!(serial.tail.summary(), parallel.tail.summary());
        }
    }

    #[test]
    fn reruns_with_the_same_seed_are_bit_identical() {
        let cfg = smoke_cfg(48, 2);
        let a = run_scale_with_workers(&cfg, 2).expect("runs");
        let b = run_scale_with_workers(&cfg, 2).expect("runs");
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.events, b.events);
        assert!(a.response.mean() == b.response.mean());
    }

    #[test]
    fn invalid_cells_are_rejected() {
        let mut cfg = smoke_cfg(10, 1);
        cfg.latency = 0;
        assert!(run_scale_with_workers(&cfg, 1).is_err());
        let mut cfg = smoke_cfg(10, 1);
        cfg.num_clients = 0;
        assert!(run_scale_with_workers(&cfg, 1).is_err());
        let mut cfg = smoke_cfg(10, 1);
        cfg.measured = 0;
        assert!(run_scale_with_workers(&cfg, 1).is_err());
    }
}
