//! The engine kernel: everything the three 2PL engines share.
//!
//! The paper's protocols differ only in how locks and data move — the
//! server grants them (s-2PL), caches them at clients across transactions
//! (c-2PL), or migrates them client to client along forward lists
//! (g-2PL). Everything around that is one component, [`Kernel`]:
//!
//! * the simulation state and its one constructor (calendar, network,
//!   server CPUs, clients, transaction table, metrics, the event
//!   recorder, WALs, durable shard logs, lease and retry periods);
//! * `Kernel::emit`, the one path by which every engine transition
//!   enters the run's event stream, beside `Net::send`, the one path by
//!   which every message leaves: a send passes only the [`Message`],
//!   which names its own accounting kind and wire size;
//! * the event loop and the [`RunMetrics`] assembly;
//! * client requests, retransmission, crash and restart, and the
//!   client's side of a grant (`Kernel::grant_access`: record the
//!   version, think, then issue the next access), whether a shard, a
//!   c-2PL cache or a g-2PL forward list granted it;
//! * the commit: `Kernel::take_committing` hands the engine the
//!   transaction, and `Kernel::ship_commit` ships a server-based
//!   engine's commit-release slices after the client's WAL records;
//! * the triage of every lock request at its shard: a request of a
//!   transaction that is no longer active never reaches the engine;
//! * the shard fault core: crash, log replay, the epoch-bumped
//!   re-registration handshake, and the server-side transaction leases.
//!   The engine supplies one recovery hook, `Protocol::recover`, run
//!   once the shard serves again;
//! * presumed-abort two-phase commitment of multi-home transactions:
//!   `Prepare` voting, `PrepareAck` counting, `CommitQuery` /
//!   `CommitVerdict`, and in-doubt resolution. Each transaction's votes,
//!   applied slices and lease are fields of its
//!   [`TxnInfo`](crate::runtime::TxnInfo).
//!
//! An engine is a [`Protocol`]: its own state plus the hooks where the
//! protocols really differ. The kernel is generic over it, so every call
//! is statically dispatched. Transaction status changes (`set_status`)
//! stay in the engine files, where the state-machine extractor of
//! `g2pl-lint` reads one machine per engine.

use crate::config::EngineConfig;
use crate::history::{AccessRecord, CommitRecord, History};
use crate::metrics::{Collector, FaultSummary, RunMetrics, WalReport};
use crate::runtime::{
    lease_period, retry_period, ActiveTxn, ClientCore, ClientPhase, Ev, Message, Net, ServerCpu,
    ShardFaultState, TimerKind, TxnStatus, TxnTable,
};
use g2pl_lockmgr::LockMode;
use g2pl_obs::{PhaseBreakdown, SpanRecorder, TraceEvent, TraceKind};
use g2pl_simcore::{Calendar, ClientId, ItemId, SimTime, SiteId, TxnId, Version};
use g2pl_wal::{LogRecord, ServerImage, ServerLog, ServerRecord, SiteLog};
use g2pl_workload::{AccessMode, TxnGenerator};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Hard cap on processed events — a deterministic simulation exceeding
/// this has livelocked, and panicking beats spinning forever.
const EVENT_BUDGET: u64 = 2_000_000_000;

pub(crate) fn lock_mode(mode: AccessMode) -> LockMode {
    match mode {
        AccessMode::Read => LockMode::Shared,
        AccessMode::Write => LockMode::Exclusive,
    }
}

/// Per-shard slice of a committing transaction: written `(item,
/// version)` pairs plus read-only items, bound for one home server.
type ShardCommitGroup = (Vec<(ItemId, Version)>, Vec<ItemId>);

/// What one engine adds to the [`Kernel`]: its own state (`Self`), its
/// own messages and events, and the hooks where the protocols differ.
/// Hooks take the whole kernel (`k`), so they reach both the shared
/// state and the engine's own (`k.p`).
pub trait Protocol: Sized {
    /// Engine name, as reported in [`RunMetrics::protocol`].
    const NAME: &'static str;
    /// True for s-2PL and c-2PL, whose server shards grant the locks and
    /// install committed versions; false for g-2PL, whose data migrates
    /// client to client. A server-based engine leases idle transactions,
    /// logs its grants, prepares with the write slice, and ships its
    /// commit as per-shard release slices the client retransmits like a
    /// WAL tail: on restart before anything else, with exponential
    /// backoff. g-2PL re-polls its voting round at a constant period.
    const SERVER_BASED: bool;

    /// The engine's own state for `cfg`.
    fn new(cfg: &EngineConfig) -> Self;
    /// An engine-only calendar event (window and lease timers, callback
    /// retries).
    fn on_event(k: &mut Kernel<Self>, now: SimTime, ev: Ev);
    /// An engine-only message arrived at a client.
    fn on_client_msg(k: &mut Kernel<Self>, now: SimTime, client: ClientId, msg: Message);
    /// An engine-only message arrived at a server shard.
    fn on_server_msg(k: &mut Kernel<Self>, now: SimTime, shard: usize, msg: Message);

    /// Serve access `idx` without a request (c-2PL cache hit); true when
    /// served.
    fn serve_locally(_k: &mut Kernel<Self>, _now: SimTime, _client: ClientId, _idx: usize) -> bool {
        false
    }
    /// Whether a transaction that finished its accesses may commit now
    /// (g-2PL waits for the last MR1W reader releases).
    fn commit_ready(_k: &Kernel<Self>, _txn: TxnId) -> bool {
        true
    }
    /// The commit point: no votes were needed, or all are in.
    fn commit(k: &mut Kernel<Self>, now: SimTime, client: ClientId, txn: TxnId);
    /// Every involved shard voted yes. An abort may still have raced the
    /// voting round; the oracle resolves it in the abort's favour.
    fn votes_in(k: &mut Kernel<Self>, now: SimTime, client: ClientId, txn: TxnId) {
        if k.table.status(txn) != TxnStatus::Active {
            Self::finalize_abort(k, now, client, txn);
        } else {
            Self::commit(k, now, client, txn);
        }
    }
    /// Abort the client's transaction locally (the notice arrived, or the
    /// client found the abort itself).
    fn finalize_abort(k: &mut Kernel<Self>, now: SimTime, client: ClientId, txn: TxnId);
    /// Choose `victim` as a deadlock or lease victim.
    fn abort_victim(k: &mut Kernel<Self>, now: SimTime, victim: TxnId);
    /// The g-2PL phase-2 retransmission timer fired.
    fn on_decide_retry(_k: &mut Kernel<Self>, _now: SimTime, _client: ClientId, _txn: TxnId) {
        unreachable!("{} never arms a decide timer", Self::NAME)
    }
    /// A client crashed (c-2PL loses the cached copies its current
    /// transaction does not read).
    fn on_client_crash(_k: &mut Kernel<Self>, _client: ClientId) {}
    /// A client restarted; its timers died with the crash (g-2PL re-arms
    /// its phase-2 timers).
    fn on_client_restart(_k: &mut Kernel<Self>, _client: ClientId) {}
    /// The client's re-registration report for `shard`.
    fn report(k: &Kernel<Self>, client: ClientId, shard: u32, epoch: u64) -> Message;
    /// A fresh re-registration report arrived at a recovering shard.
    fn absorb_report(k: &mut Kernel<Self>, shard: usize, client: ClientId, report: &Message);
    /// Shard `shard` crashed: drop the engine state it held.
    fn wipe_shard(k: &mut Kernel<Self>, shard: usize);
    /// Shard restart: restore the engine state of the replayed image.
    fn restore_image(k: &mut Kernel<Self>, img: &ServerImage);
    /// The handshake closed and the shard serves again: rebuild its
    /// grants or forward lists from the image and the reports, then act
    /// on them (redispatch; abort the silent clients' transactions).
    fn recover(k: &mut Kernel<Self>, now: SimTime, shard: usize, img: ServerImage);
    /// An in-doubt vote resolved as committed: make the commit durable
    /// at `shard`.
    fn apply_committed(
        k: &mut Kernel<Self>,
        shard: usize,
        txn: TxnId,
        writes: Vec<(ItemId, Version)>,
    );
    /// After an in-doubt commit applied: release what `txn` held at
    /// `shard`.
    fn release_committed(_k: &mut Kernel<Self>, _now: SimTime, _shard: usize, _txn: TxnId) {}
    /// End-of-drain structural checks (fault-free runs only).
    fn assert_drained(&self) {}
    /// `(max_fl_len, window_closes)` for the metrics.
    fn fl_stats(&self) -> (usize, u64) {
        (0, 0)
    }
}

/// The shared engine state, generic over the [`Protocol`] in `p`.
pub struct Kernel<P> {
    pub(crate) cfg: EngineConfig,
    pub(crate) cal: Calendar<Ev>,
    pub(crate) net: Net,
    /// One serial CPU per server shard.
    server_cpu: Vec<ServerCpu>,
    pub(crate) clients: Vec<ClientCore>,
    pub(crate) table: TxnTable,
    generator: TxnGenerator,
    pub(crate) collector: Collector,
    history: Option<History>,
    /// The event stream's recorder (phase and round attribution, the
    /// flight recorder, the bounded log), built only when `trace_events`
    /// is set: unrecorded runs skip the aggregation nothing would read.
    recorder: Option<SpanRecorder>,
    pub(crate) wal: Option<Vec<SiteLog>>,
    admitting: bool,
    /// Server-side lease period (faults only): of an idle transaction in
    /// s/c-2PL, of a checkout in g-2PL; also the handshake deadline.
    pub(crate) lease: SimTime,
    /// Client-side base retransmission delay (faults only); also paces
    /// server-side re-polls.
    pub(crate) retry_base: SimTime,
    /// Fault-injection and recovery counters.
    pub(crate) fsum: FaultSummary,
    /// One durable log per shard, present iff the plan schedules server
    /// crashes: each shard is its own fault domain and replays only its
    /// own log.
    slog: Option<Vec<ServerLog>>,
    /// Per-shard crash/recovery state; all-up defaults when no server
    /// crashes are planned.
    pub(crate) fault_state: Vec<ShardFaultState>,
    /// The engine's own state.
    pub(crate) p: P,
}

impl<P: Protocol> Kernel<P> {
    /// Build an engine for `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        let p = P::new(&cfg);
        let generator = TxnGenerator::new_sharded(
            cfg.profile.clone(),
            cfg.items.num_shards,
            cfg.items.items_per_shard,
        );
        let clients = (0..cfg.num_clients)
            .map(|i| ClientCore::new(ClientId::new(i), cfg.seed))
            .collect();
        let nominal = cfg.latency.nominal();
        let net = Net::new(cfg.latency, cfg.active_faults(), cfg.seed);
        let (lease, retry_base) = if net.faults.is_some() {
            (lease_period(nominal), retry_period(nominal))
        } else {
            (SimTime::MAX, SimTime::MAX)
        };
        let srv_faults = cfg
            .active_faults()
            .is_some_and(g2pl_faults::FaultPlan::has_server_crashes);
        let nshards = cfg.num_shards() as usize;
        Kernel {
            net,
            lease,
            retry_base,
            slog: srv_faults.then(|| (0..nshards).map(|_| ServerLog::new()).collect()),
            fault_state: vec![ShardFaultState::default(); nshards],
            fsum: FaultSummary::default(),
            server_cpu: vec![ServerCpu::new(cfg.server_cpu_per_op); nshards],
            cal: Calendar::new(),
            clients,
            table: TxnTable::new(),
            generator,
            collector: Collector::new(cfg.warmup_txns, cfg.measured_txns),
            history: cfg.record_history.then(History::new),
            recorder: cfg.trace_events.then(|| SpanRecorder::new(true)),
            wal: cfg.enable_wal.then(|| {
                (0..cfg.num_clients)
                    .map(|_| SiteLog::new(crate::runtime::ITEM_BYTES))
                    .collect()
            }),
            admitting: true,
            p,
            cfg,
        }
    }

    /// Run to completion and report metrics.
    pub fn run(mut self) -> RunMetrics {
        // Stagger client start-up by one idle draw each, as the model's
        // "replaced after some idle time" rule implies for the very first
        // transaction too.
        for i in 0..self.cfg.num_clients {
            let c = &mut self.clients[i as usize];
            let idle = self.cfg.profile.draw_idle(&mut c.time_rng);
            self.cal.schedule(
                idle,
                Ev::Timer {
                    client: ClientId::new(i),
                    kind: TimerKind::IdleDone,
                },
            );
        }
        if let Some(inj) = &mut self.net.faults {
            for (client, at, up) in inj.crash_schedule() {
                self.cal.schedule(at, Ev::Fault { client, up });
            }
            // Consumes the per-shard `"server-faults"` jitter draws: once
            // per run, here.
            for (shard, at, up) in inj.server_crash_schedule() {
                self.cal.schedule(at, Ev::ServerFault { shard, up });
            }
        }

        let mut events: u64 = 0;
        while let Some((now, ev)) = self.cal.pop() {
            events += 1;
            assert!(events < EVENT_BUDGET, "event budget exhausted: livelock?");
            match ev {
                Ev::Timer { client, kind } => {
                    if !self.clients[client.index()].crashed {
                        self.on_timer(now, client, kind);
                    }
                }
                Ev::ServerProc { shard, msg } => {
                    // Re-checked after the CPU delay: a crash may have hit
                    // while the message sat in the service queue.
                    if self.server_accepts(shard as usize, &msg) {
                        self.on_server_msg(now, shard as usize, msg);
                    } else {
                        self.fsum.server_msgs_lost += 1;
                    }
                }
                Ev::Deliver { to, msg } => match to {
                    SiteId::Server(shard) => {
                        let s = shard.index();
                        if !self.server_accepts(s, &msg) {
                            self.fsum.server_msgs_lost += 1;
                        } else {
                            let d = self.server_cpu[s].service(now);
                            if d == SimTime::ZERO {
                                self.on_server_msg(now, s, msg);
                            } else {
                                self.cal.schedule_in(
                                    d,
                                    Ev::ServerProc {
                                        shard: shard.0,
                                        msg,
                                    },
                                );
                            }
                        }
                    }
                    SiteId::Client(c) => {
                        if !self.clients[c.index()].crashed {
                            self.on_client_msg(now, c, msg);
                        }
                    }
                },
                Ev::Fault { client, up } => self.on_fault(now, client, up),
                Ev::ServerFault { shard, up } => {
                    if up {
                        self.begin_recovery(now, shard as usize);
                    } else {
                        self.crash_server(now, shard as usize);
                    }
                }
                Ev::RecoveryCheck { shard, epoch } => {
                    self.on_recovery_check(now, shard as usize, epoch);
                }
                Ev::TxnLease { txn } => {
                    // Leases are coordinated at shard 0; a dead or
                    // still-recovering coordinator holds none — recovery
                    // re-arms them for every restored grant.
                    if self.fault_state[0].is_up() {
                        self.on_txn_lease(now, txn);
                    }
                }
                ev
                @ (Ev::WindowTimer { .. } | Ev::LeaseCheck { .. } | Ev::CallbackRetry { .. }) => {
                    P::on_event(&mut self, now, ev);
                }
            }
            if self.faults_on() {
                for (at, site) in self.net.take_fault_marks() {
                    self.emit(TraceKind::FaultInjected.at(at, None, None, site));
                }
            }
            if self.collector.done() {
                if !self.cfg.drain {
                    break;
                }
                self.admitting = false;
            }
        }

        // Under an active fault plan the end-of-run snapshot may
        // legitimately hold residue (e.g. a client that crashed and never
        // restarted before the calendar emptied); liveness is checked by
        // trace property P8 instead of these structural asserts.
        if self.cfg.drain && !self.faults_on() {
            self.p.assert_drained();
            if let Some(wal) = &self.wal {
                assert!(
                    wal.iter().all(SiteLog::is_empty),
                    "WAL records survived a drain: every version is home"
                );
            }
        }

        let (phases, flight, stream) = match self.recorder.map(SpanRecorder::finish) {
            Some(obs) => (
                obs.breakdown,
                obs.flight,
                obs.raw.map(Arc::<[TraceEvent]>::from),
            ),
            None => (PhaseBreakdown::new(), Vec::new(), None),
        };
        let trace_dropped = phases.spans_dropped;
        if let Some(inj) = &self.net.faults {
            self.fsum.injected = inj.counts;
        }
        let (max_fl_len, window_closes) = self.p.fl_stats();
        RunMetrics {
            faults: self.fsum,
            protocol: P::NAME,
            events,
            peak_calendar: self.cal.peak_len(),
            wall_secs: 0.0,
            response: self.collector.response,
            aborts: self.collector.aborts,
            read_only_aborts: self.collector.read_only_aborts,
            committed_total: self.collector.committed_total,
            aborted_total: self.collector.aborted_total,
            net: self.net.acct,
            end_time: self.cal.now(),
            history: self.history,
            trace: stream.clone(),
            max_fl_len,
            window_closes,
            deadlock_searches: self.collector.deadlock_searches,
            deadlock_searches_skipped: self.collector.deadlock_searches_skipped,
            dispatch_searches_skipped: self.collector.dispatch_searches_skipped,
            response_tail: self.collector.response_tail,
            wal: self.wal.map(|sites| {
                let mut r = WalReport::default();
                for site in &sites {
                    r.absorb(site.metrics(), site.live_records());
                }
                r
            }),
            phases,
            flight,
            spans: stream,
            trace_dropped,
        }
    }

    /// Whether a fault plan is active (the exact fault-free code path is
    /// taken when this is false).
    pub(crate) fn faults_on(&self) -> bool {
        self.net.faults.is_some()
    }

    /// Whether the plan schedules server crashes, which is when shards
    /// keep durable logs. Gates two-phase commitment too, so plans
    /// without server crashes take the exact pre-existing fault path.
    pub(crate) fn srv_faults_on(&self) -> bool {
        self.slog.is_some()
    }

    /// Emit one transition into the run's event stream — the one path by
    /// which engines report what they did. When the run records, the
    /// recorder charges it to the transaction's phases and rounds and
    /// logs it for the checker and the JSONL export; otherwise it is
    /// dropped.
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        if let Some(r) = &mut self.recorder {
            r.record(ev);
        }
    }

    fn on_client_msg(&mut self, now: SimTime, client: ClientId, msg: Message) {
        match msg {
            Message::PrepareAck { txn, shard } => self.on_prepare_ack(now, client, txn, shard),
            Message::SCommitAck { txn, shard } => self.on_commit_ack(client, txn, shard),
            Message::AbortNotice { txn } => P::finalize_abort(self, now, client, txn),
            Message::ReregisterReq { shard, epoch } => {
                // Re-report everything the client holds of the restarted
                // shard; other shards' state never died. A pure function
                // of client state, so duplicated deliveries are idempotent
                // at the server.
                let report = P::report(self, client, shard, epoch);
                self.net
                    .send(&mut self.cal, client.into(), SiteId::server(shard), report);
            }
            other => P::on_client_msg(self, now, client, other),
        }
    }

    /// A message a shard accepted. The kernel triages every lock request
    /// before the engine sees it, so an engine handles only requests of
    /// active transactions and keeps only its own duplicate filters.
    fn on_server_msg(&mut self, now: SimTime, shard: usize, msg: Message) {
        if let Message::LockReq {
            txn, client, item, ..
        } = msg
        {
            debug_assert_eq!(
                self.cfg.shard_of(item) as usize,
                shard,
                "lock request routed to the wrong shard"
            );
            match self.table.status(txn) {
                TxnStatus::Active => {}
                TxnStatus::Aborting | TxnStatus::Aborted if self.faults_on() => {
                    // A retried request from a victim whose abort notice
                    // may have been lost: answer it again.
                    self.send_abort_notice(SiteId::server(shard as u32), client, txn);
                    return;
                }
                _ => return, // stale request of a finished transaction
            }
        }
        match msg {
            Message::Prepare {
                txn,
                writes,
                involved,
            } => self.on_prepare(now, shard, txn, writes, involved),
            Message::CommitQuery {
                txn, from_shard, ..
            } => self.on_commit_query(shard, txn, from_shard),
            Message::CommitVerdict { txn, committed } => {
                if !self.fault_state[shard].in_doubt.contains_key(&txn) {
                    return; // already resolved (or never in doubt here)
                }
                match committed {
                    Some(true) => {
                        self.fsum.two_pc.verdict_commits += 1;
                        self.resolve_indoubt_commit(now, shard, txn);
                    }
                    Some(false) => {
                        self.fsum.two_pc.verdict_aborts += 1;
                        self.resolve_indoubt_abort(shard, txn);
                    }
                    None => {} // keep the vote in doubt and ask again
                }
            }
            Message::SReregister {
                client,
                epoch,
                ref report,
            } => self.on_reregister(now, shard, client, epoch, report.txn, &msg),
            Message::GReregister { client, epoch, .. } => {
                self.on_reregister(now, shard, client, epoch, None, &msg);
            }
            other => P::on_server_msg(self, now, shard, other),
        }
    }

    // ---- client side ----

    fn on_timer(&mut self, now: SimTime, client: ClientId, kind: TimerKind) {
        match kind {
            TimerKind::IdleDone => {
                if !self.admitting {
                    return;
                }
                let c = &mut self.clients[client.index()];
                let txn = c.begin_txn(&self.generator, &mut self.table, now);
                if let Some(wal) = &mut self.wal {
                    wal[client.index()].append(LogRecord::Begin { txn });
                }
                self.issue_access(now, client, txn, 0);
            }
            TimerKind::ThinkDone(txn) => {
                let Some(active) = &self.clients[client.index()].txn else {
                    return;
                };
                if active.id != txn || active.phase != ClientPhase::Thinking {
                    return; // stale timer of an aborted transaction
                }
                let granted = active.granted;
                if granted < active.spec.len() {
                    self.issue_access(now, client, txn, granted);
                } else {
                    self.try_commit(now, client, txn);
                }
            }
            TimerKind::Retry { epoch } => self.on_retry(client, epoch),
            TimerKind::DecideRetry(txn) => P::on_decide_retry(self, now, client, txn),
        }
    }

    /// Issue access `idx` of the client's transaction: locally if the
    /// engine can serve it, otherwise as a lock request to the item's
    /// shard.
    fn issue_access(&mut self, now: SimTime, client: ClientId, txn: TxnId, idx: usize) {
        if P::serve_locally(self, now, client, idx) {
            return;
        }
        let t = self.clients[client.index()].txn_mut();
        let (item, mode) = t.spec.access(idx);
        t.phase = ClientPhase::WaitingGrant(idx);
        self.clients[client.index()].retry_progress();
        self.emit(TraceKind::RequestSent.at(now, Some(txn), Some(item), client));
        self.send_lock_request(client, txn, item, mode);
        self.arm_retry(client);
    }

    fn send_lock_request(&mut self, client: ClientId, txn: TxnId, item: ItemId, mode: AccessMode) {
        self.net.send(
            &mut self.cal,
            client.into(),
            self.cfg.shard_site(item),
            Message::LockReq {
                txn,
                client,
                item,
                mode: lock_mode(mode),
            },
        );
    }

    /// Grant the client's transaction access to `item` at `version`:
    /// record the version, advance to the next access and think before
    /// issuing it. `kind` reports the grant (`Granted`, or `CacheHit`
    /// for a c-2PL read served from the cache).
    pub(crate) fn grant_access(
        &mut self,
        now: SimTime,
        client: ClientId,
        item: ItemId,
        version: Version,
        kind: TraceKind,
    ) {
        let c = &mut self.clients[client.index()];
        let active = c.txn_mut();
        let txn = active.id;
        debug_assert_eq!(
            active.spec.access(active.granted).0,
            item,
            "grant out of request order"
        );
        active.versions.push(version);
        active.granted += 1;
        active.phase = ClientPhase::Thinking;
        let think = self.cfg.profile.draw_think(&mut c.time_rng);
        self.emit(kind.at(now, Some(txn), Some(item), client));
        self.cal.schedule_in(
            think,
            Ev::Timer {
                client,
                kind: TimerKind::ThinkDone(txn),
            },
        );
    }

    /// A retransmission timer fired: if the epoch still matches (no
    /// progress since arming), re-send whichever operation is
    /// outstanding — the unacknowledged commit-phase messages, or the
    /// current lock request.
    fn on_retry(&mut self, client: ClientId, epoch: u64) {
        let c = &self.clients[client.index()];
        if c.retry_epoch != epoch {
            return; // progress since arming: stale timer
        }
        if !c.pending_commits.is_empty() {
            self.resend_pending_commits(client);
        } else if matches!(&c.txn, Some(a) if matches!(a.phase, ClientPhase::WaitingGrant(_))) {
            self.resend_request(client);
        }
    }

    /// Arm a retransmission timer for the client's current epoch and
    /// backoff level. No-op on a reliable network.
    pub(crate) fn arm_retry(&mut self, client: ClientId) {
        if !self.faults_on() {
            return;
        }
        let c = &self.clients[client.index()];
        let delay = c.retry_backoff(self.retry_base);
        self.cal.schedule_in(
            delay,
            Ev::Timer {
                client,
                kind: TimerKind::Retry {
                    epoch: c.retry_epoch,
                },
            },
        );
    }

    /// Re-send the outstanding lock request. No `RequestSent` event is
    /// emitted for a retransmission: the checker pairs each logical
    /// request with one grant.
    fn resend_request(&mut self, client: ClientId) {
        let c = &mut self.clients[client.index()];
        let Some(active) = &c.txn else { return };
        let txn = active.id;
        let (item, mode) = active.spec.access(active.granted);
        c.retry_attempts = c.retry_attempts.saturating_add(1);
        self.fsum.retries += 1;
        self.send_lock_request(client, txn, item, mode);
        self.arm_retry(client);
    }

    /// Re-send every unacknowledged commit-phase message (the client's
    /// WAL tail), one per still-unanswered shard: commit releases, or —
    /// for a multi-home transaction still in its voting round —
    /// prepares.
    fn resend_pending_commits(&mut self, client: ClientId) {
        let c = &mut self.clients[client.index()];
        if c.pending_commits.is_empty() {
            return;
        }
        if P::SERVER_BASED {
            c.retry_attempts = c.retry_attempts.saturating_add(1);
        }
        for (shard, msg) in c.pending_commits.clone() {
            self.fsum.retries += 1;
            self.net
                .send(&mut self.cal, client.into(), SiteId::server(shard), msg);
        }
        self.arm_retry(client);
    }

    /// A scheduled crash or restart from the fault plan.
    fn on_fault(&mut self, now: SimTime, client: ClientId, up: bool) {
        if up {
            self.on_restart(now, client);
            return;
        }
        let c = &mut self.clients[client.index()];
        if c.crashed {
            return;
        }
        c.crashed = true;
        self.fsum.crashes += 1;
        P::on_client_crash(self, client);
        self.emit(TraceKind::FaultInjected.at(now, None, None, client));
    }

    /// A crashed client comes back up. Every timer it had died with the
    /// crash, so each possible state re-establishes its own wake-up: an
    /// unacknowledged commit resumes retransmission (the WAL tail), an
    /// aborted transaction finalizes locally (the notice may have been
    /// lost while down), an outstanding request is re-sent, and an idle
    /// client re-draws its idle period.
    fn on_restart(&mut self, now: SimTime, client: ClientId) {
        let c = &mut self.clients[client.index()];
        if !c.crashed {
            return;
        }
        c.crashed = false;
        c.retry_progress();
        P::on_client_restart(self, client);
        let c = &self.clients[client.index()];
        let voting = !c.pending_commits.is_empty();
        if voting && P::SERVER_BASED {
            self.resend_pending_commits(client);
            return;
        }
        let Some(active) = &c.txn else {
            self.schedule_next_txn(client);
            return;
        };
        let (txn, phase) = (active.id, active.phase);
        match self.table.status(txn) {
            TxnStatus::Aborting | TxnStatus::Aborted => P::finalize_abort(self, now, client, txn),
            TxnStatus::Active => match phase {
                ClientPhase::WaitingGrant(_) => self.resend_request(client),
                ClientPhase::Thinking => {
                    // The think timer died with the crash: resume now.
                    self.cal.schedule_in(
                        SimTime::ZERO,
                        Ev::Timer {
                            client,
                            kind: TimerKind::ThinkDone(txn),
                        },
                    );
                }
                // An open voting round: its retry timer died with the
                // crash, so restart the retransmission loop.
                ClientPhase::CommitWait if voting => self.resend_pending_commits(client),
                ClientPhase::CommitWait | ClientPhase::Idle => {}
            },
            TxnStatus::Committed => {}
        }
    }

    /// Draw the idle period and schedule the client's next transaction.
    pub(crate) fn schedule_next_txn(&mut self, client: ClientId) {
        let idle = self
            .cfg
            .profile
            .draw_idle(&mut self.clients[client.index()].time_rng);
        self.cal.schedule_in(
            idle,
            Ev::Timer {
                client,
                kind: TimerKind::IdleDone,
            },
        );
    }

    /// All accesses are done: commit, or — for a multi-home transaction
    /// under a server-crash plan — open presumed-abort two-phase
    /// commitment so the commit is atomic across shard fault domains.
    /// Single-home commits keep the one-phase path (the
    /// single-participant optimization), as do all commits under plans
    /// without server crashes.
    pub(crate) fn try_commit(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        // Under faults a lease expiry can pick a merely-slow (crashed and
        // restarted) transaction as victim while its abort notice is
        // still in flight; the oracle status resolves the race in favour
        // of the abort, exactly as the server already decided it.
        if self.faults_on() && self.table.status(txn) != TxnStatus::Active {
            P::finalize_abort(self, now, client, txn);
            return;
        }
        if self.faults_on() && !self.clients[client.index()].pending_commits.is_empty() {
            return; // voting round already under way; acks drive progress
        }
        if !P::commit_ready(self, txn) {
            self.clients[client.index()].txn_mut().phase = ClientPhase::CommitWait;
            return;
        }
        if self.srv_faults_on() {
            let involved = self.involved(client);
            if involved.count_ones() > 1 {
                self.begin_prepare(client, txn, involved);
                return;
            }
        }
        P::commit(self, now, client, txn);
    }

    /// Bitmask of the shards the client's transaction touches.
    pub(crate) fn involved(&self, client: ClientId) -> u64 {
        let mut involved = 0u64;
        for &(item, _) in &self.clients[client.index()].txn().spec.accesses {
            involved |= 1u64 << self.cfg.shard_of(item);
        }
        involved
    }

    /// Phase 1 of two-phase commitment: send each involved shard its
    /// prepare (the write slice under a server-based engine, whose
    /// shards install it; empty under g-2PL, whose versions migrate
    /// client-side) and wait for every yes vote before deciding. The
    /// prepares sit in `pending_commits` and retransmit until
    /// acknowledged.
    fn begin_prepare(&mut self, client: ClientId, txn: TxnId, involved: u64) {
        let active = self.clients[client.index()].txn_mut();
        debug_assert_eq!(active.id, txn);
        active.phase = ClientPhase::CommitWait;
        let prepares = self
            .commit_slices(self.clients[client.index()].txn())
            .into_iter()
            .map(|(shard, (writes, _))| {
                let writes = if P::SERVER_BASED { writes } else { Vec::new() };
                let prepare = Message::Prepare {
                    txn,
                    writes,
                    involved,
                };
                (shard, prepare)
            })
            .collect();
        self.send_commit_phase(client, prepares);
        self.arm_retry(client);
    }

    /// A shard's yes vote arrived at the coordinating client.
    fn on_prepare_ack(&mut self, now: SimTime, client: ClientId, txn: TxnId, shard: u32) {
        let acked = |m: &Message| matches!(m, Message::Prepare { txn: t, .. } if *t == txn);
        if self.retire_pending(client, shard, acked) {
            P::votes_in(self, now, client, txn);
        }
    }

    /// A shard acknowledged its commit-release slice; the next
    /// transaction starts once every slice is acknowledged.
    fn on_commit_ack(&mut self, client: ClientId, txn: TxnId, shard: u32) {
        let acked = |m: &Message| matches!(m, Message::SCommit { txn: t, .. } if *t == txn);
        if self.retire_pending(client, shard, acked) {
            self.schedule_next_txn(client);
        }
    }

    /// Retire the client's pending commit-phase message to `shard` that
    /// `acked` matches. True when it was the last one outstanding; while
    /// other shards still owe answers, their messages retransmit from a
    /// fresh backoff. False for a duplicate ack, which finds nothing.
    fn retire_pending(
        &mut self,
        client: ClientId,
        shard: u32,
        acked: impl Fn(&Message) -> bool,
    ) -> bool {
        let c = &mut self.clients[client.index()];
        let Some(pos) = c
            .pending_commits
            .iter()
            .position(|(s, m)| *s == shard && acked(m))
        else {
            return false;
        };
        c.pending_commits.remove(pos);
        c.retry_progress();
        if c.pending_commits.is_empty() {
            return true;
        }
        self.arm_retry(client);
        false
    }

    /// Take the client's committing transaction `txn` out of its slot.
    pub(crate) fn take_committing(&mut self, client: ClientId, txn: TxnId) -> ActiveTxn {
        let active = self.clients[client.index()]
            .txn
            .take()
            // lint:allow(L3): commit is only reachable from a client with an active txn
            .expect("committing client has a transaction");
        debug_assert_eq!(active.id, txn);
        active
    }

    /// Record a commit decided at `client`: response time and the
    /// history record. Returns the `Committed` event (`releases` =
    /// release arrivals to expect) for the engine to emit.
    pub(crate) fn record_commit(
        &mut self,
        now: SimTime,
        client: ClientId,
        active: &ActiveTxn,
        releases: u32,
    ) -> TraceEvent {
        let txn = active.id;
        let measured = self.collector.on_commit(now.since(active.start));
        if let Some(h) = &mut self.history {
            let accesses = active
                .spec
                .accesses
                .iter()
                .zip(&active.versions)
                .map(|(&(item, mode), &observed)| AccessRecord {
                    item,
                    mode,
                    version: if mode.is_write() {
                        observed + 1
                    } else {
                        observed
                    },
                })
                .collect();
            h.push(CommitRecord {
                txn,
                at: now,
                accesses,
            });
        }
        TraceEvent {
            n: releases,
            measured,
            ..TraceKind::Committed.at(now, Some(txn), None, client)
        }
    }

    /// Group a committed transaction's accesses by owning shard, in
    /// ascending shard order: one commit/release slice per home (§3.1's
    /// single message, per home).
    fn commit_slices(&self, active: &ActiveTxn) -> BTreeMap<u32, ShardCommitGroup> {
        let mut by_shard: BTreeMap<u32, ShardCommitGroup> = BTreeMap::new();
        for (idx, &(item, mode)) in active.spec.accesses.iter().enumerate() {
            let slot = by_shard.entry(self.cfg.shard_of(item)).or_default();
            match mode {
                AccessMode::Write => slot.0.push((item, active.versions[idx] + 1)),
                AccessMode::Read => slot.1.push(item),
            }
        }
        by_shard
    }

    /// Ship a server-based engine's commit decided at `client`: the
    /// client's WAL records (one update per write, then the commit
    /// record, the coordinator's durable decision record), then one
    /// commit-release slice per involved shard, in parallel. The caller
    /// arms the retry. Returns the `Committed` event for the engine to
    /// emit.
    pub(crate) fn ship_commit(
        &mut self,
        now: SimTime,
        client: ClientId,
        active: &ActiveTxn,
    ) -> TraceEvent {
        let txn = active.id;
        let slices = self.commit_slices(active);
        let committed = self.record_commit(now, client, active, slices.len() as u32);
        if let Some(wal) = &mut self.wal {
            let log = &mut wal[client.index()];
            for (writes, _) in slices.values() {
                for &(item, new) in writes {
                    log.append(LogRecord::Update {
                        txn,
                        item,
                        old: new - 1,
                        new,
                    });
                }
            }
            log.append(LogRecord::Commit { txn });
        }
        let releases = slices
            .into_iter()
            .map(|(shard, (writes, reads))| (shard, Message::SCommit { txn, writes, reads }))
            .collect();
        self.send_commit_phase(client, releases);
        committed
    }

    /// Send each involved shard its commit-phase message — a prepare or a
    /// commit-release slice. Under faults the messages also become the
    /// client's pending commit, retransmitted until each shard answers.
    fn send_commit_phase(&mut self, client: ClientId, msgs: Vec<(u32, Message)>) {
        let c = &mut self.clients[client.index()];
        c.retry_progress();
        if self.net.faults.is_some() {
            c.pending_commits.clone_from(&msgs);
        }
        for (shard, msg) in msgs {
            self.net
                .send(&mut self.cal, client.into(), SiteId::server(shard), msg);
        }
    }

    /// The client side of an abort, once the engine set the status: the
    /// transaction leaves the client (withdrawing an open voting round;
    /// shards that already voted are cleaned up by the victim's
    /// release), and the abort is counted and logged. The engine emits
    /// it. `None` when the client no longer runs `txn`.
    pub(crate) fn end_aborted_txn(&mut self, client: ClientId, txn: TxnId) -> Option<ActiveTxn> {
        let c = &mut self.clients[client.index()];
        if c.txn.as_ref().is_none_or(|a| a.id != txn) {
            return None;
        }
        let active = c.txn.take()?;
        c.pending_commits
            .retain(|(_, m)| !matches!(m, Message::Prepare { txn: t, .. } if *t == txn));
        c.retry_progress();
        self.collector.on_abort(active.spec.is_read_only());
        if let Some(wal) = &mut self.wal {
            wal[client.index()].append(LogRecord::Abort { txn });
        }
        Some(active)
    }

    // ---- server side: shared messages ----

    /// Whether shard `shard` can process `msg` right now: everything
    /// while up, nothing while down. While its recovery handshake is
    /// open a shard processes only re-registration reports and the
    /// commit-status query traffic that resolves in-doubt votes.
    fn server_accepts(&self, shard: usize, msg: &Message) -> bool {
        let st = &self.fault_state[shard];
        if st.down {
            return false;
        }
        st.is_up()
            || matches!(
                msg,
                Message::SReregister { .. }
                    | Message::GReregister { .. }
                    | Message::CommitQuery { .. }
                    | Message::CommitVerdict { .. }
            )
    }

    /// The durable log of shard `shard`.
    pub(crate) fn slog(&mut self, shard: usize) -> &mut ServerLog {
        // lint:allow(L3): logs exist whenever server crashes are planned, the only time durable records are written
        &mut self.slog.as_mut().expect("server log enabled")[shard]
    }

    /// Append `rec` to shard `shard`'s durable log, if logs are kept.
    pub(crate) fn log_at(&mut self, shard: usize, rec: ServerRecord) {
        if let Some(slogs) = &mut self.slog {
            slogs[shard].append(rec);
        }
    }

    /// A prepare (phase-1 vote request) arrived at `shard`.
    fn on_prepare(
        &mut self,
        now: SimTime,
        shard: usize,
        txn: TxnId,
        writes: Vec<(ItemId, Version)>,
        involved: u64,
    ) {
        debug_assert!(P::SERVER_BASED || writes.is_empty());
        let client = self.table.info(txn).client;
        match self.table.status(txn) {
            // The abort won the race with the voting round: answer the
            // (possibly lost) notice again instead of voting.
            TxnStatus::Aborting | TxnStatus::Aborted => {
                self.fsum.two_pc.prepare_renotices += 1;
                self.send_abort_notice(SiteId::server(shard as u32), client, txn);
            }
            // Decision already made: this is a stale duplicate of a
            // consumed vote — re-ack without logging anything.
            TxnStatus::Committed => {
                self.fsum.two_pc.prepare_reacks += 1;
                self.send_prepare_ack(shard, client, txn);
            }
            TxnStatus::Active => {
                if P::SERVER_BASED {
                    self.touch(now, txn);
                }
                // A duplicate prepare (the ack was lost) finds the vote
                // already durable and is just re-acked. Otherwise,
                // write-ahead: the yes vote — write slice and involved
                // mask — is durable before the ack leaves the shard.
                if self.prepared_at(txn, shard) {
                    self.fsum.two_pc.prepare_reacks += 1;
                } else {
                    self.slog(shard).append(ServerRecord::Prepared {
                        txn,
                        writes,
                        involved,
                    });
                    self.mark_prepared(txn, shard);
                    self.emit(TraceKind::Prepared.at(
                        now,
                        Some(txn),
                        None,
                        SiteId::server(shard as u32),
                    ));
                }
                self.send_prepare_ack(shard, client, txn);
            }
        }
    }

    /// Acknowledge a durable prepared vote.
    fn send_prepare_ack(&mut self, shard: usize, client: ClientId, txn: TxnId) {
        self.net.send(
            &mut self.cal,
            SiteId::server(shard as u32),
            client.into(),
            Message::PrepareAck {
                txn,
                shard: shard as u32,
            },
        );
    }

    /// A recovering peer asks for `txn`'s outcome. Answer from the commit
    /// oracle — the shared transaction table stands in for the
    /// coordinator's durable decision record, which this surviving shard
    /// can consult. An Active transaction has no outcome yet: answer
    /// "unknown" and let the asker keep its vote in doubt (presumed abort
    /// never guesses).
    fn on_commit_query(&mut self, shard: usize, txn: TxnId, from_shard: u32) {
        let committed = match self.table.status(txn) {
            TxnStatus::Committed => Some(true),
            TxnStatus::Aborting | TxnStatus::Aborted => Some(false),
            TxnStatus::Active => None,
        };
        self.net.send(
            &mut self.cal,
            SiteId::server(shard as u32),
            SiteId::server(from_shard),
            Message::CommitVerdict { txn, committed },
        );
    }

    /// Tell `client` its transaction `txn` was aborted.
    pub(crate) fn send_abort_notice(&mut self, from: SiteId, client: ClientId, txn: TxnId) {
        self.net.send(
            &mut self.cal,
            from,
            client.into(),
            Message::AbortNotice { txn },
        );
    }

    /// Acknowledge a processed commit-release slice (faults only).
    pub(crate) fn send_commit_ack(&mut self, shard: usize, client: ClientId, txn: TxnId) {
        self.net.send(
            &mut self.cal,
            SiteId::server(shard as u32),
            client.into(),
            Message::SCommitAck {
                txn,
                shard: shard as u32,
            },
        );
    }

    /// Shard `shard`'s prepared vote for `txn` was consumed by the
    /// commit decision: retire it and emit the applied commit.
    pub(crate) fn vote_applied(&mut self, now: SimTime, shard: usize, txn: TxnId) {
        self.clear_prepared(txn, shard);
        self.fault_state[shard].in_doubt.remove(&txn);
        self.emit(TraceKind::CommitApplied.at(now, Some(txn), None, SiteId::server(shard as u32)));
    }

    /// `victim` was chosen as a victim: its prepared votes and grants die
    /// with it, and its lease is void. A server-based engine logs the
    /// release at every live shard (compaction may fold the victim's
    /// grants there); g-2PL retires only prepared votes. A crashed shard
    /// cannot log the release — it learns the outcome at restart through
    /// its commit queries instead.
    pub(crate) fn retire_victim(&mut self, victim: TxnId) {
        let info = self.table.info_mut(victim);
        info.leased = false;
        if let Some(slogs) = &mut self.slog {
            let voted = info.prepared;
            for (s, slog) in slogs.iter_mut().enumerate() {
                if !self.fault_state[s].down && (P::SERVER_BASED || voted & (1u64 << s) != 0) {
                    slog.append(ServerRecord::Released { txn: victim });
                }
            }
            // Down shards hold no bit: a crash clears it, and restart
            // restores it while already up.
            info.prepared = 0;
            for st in &mut self.fault_state {
                st.in_doubt.remove(&victim);
            }
        }
    }

    // ---- transaction leases (server-based engines) ----

    /// Record server-observed activity for `txn` and arm its lease on
    /// first contact. Called only under an active fault plan.
    pub(crate) fn touch(&mut self, now: SimTime, txn: TxnId) {
        let info = self.table.info_mut(txn);
        info.last_activity = now;
        if !info.leased {
            info.leased = true;
            self.cal.schedule_in(self.lease, Ev::TxnLease { txn });
        }
    }

    /// The server-side transaction lease fired: a transaction that holds
    /// server resources but showed no activity for a full lease period is
    /// presumed dead and aborted, releasing its locks for the survivors.
    /// A committed transaction is never aborted — its commit-release is
    /// being retransmitted and will land — and recent activity simply
    /// re-arms the lease for the remainder.
    fn on_txn_lease(&mut self, now: SimTime, txn: TxnId) {
        let info = self.table.info(txn);
        if !info.leased {
            return; // resolved since arming
        }
        let idle_for = now.since(info.last_activity);
        if idle_for < self.lease {
            self.cal
                .schedule_in(self.lease.since(idle_for), Ev::TxnLease { txn });
            return;
        }
        match self.table.status(txn) {
            TxnStatus::Committed => {
                self.cal.schedule_in(self.lease, Ev::TxnLease { txn });
            }
            TxnStatus::Active => {
                self.fsum.lease_expiries += 1;
                self.fsum.recovery_stall += idle_for.as_f64();
                self.emit(TraceKind::LeaseExpired.at(now, Some(txn), None, SiteId::SERVER0));
                P::abort_victim(self, now, txn);
                self.fsum.redispatches += 1;
                self.emit(TraceKind::Redispatch.at(now, Some(txn), None, SiteId::SERVER0));
            }
            TxnStatus::Aborting | TxnStatus::Aborted => {
                self.table.info_mut(txn).leased = false;
            }
        }
    }

    // ---- shard crash and recovery ----

    /// Shard `shard` dies: its volatile state — the engine's, its CPU
    /// queue, its bits of the applied and prepared sets, and (for shard
    /// 0) the lease bookkeeping it coordinates — is gone. Only its
    /// durable log survives. Other shards are untouched: each shard is
    /// its own fault domain.
    fn crash_server(&mut self, now: SimTime, shard: usize) {
        debug_assert!(
            !self.fault_state[shard].down,
            "shard crashed while already down"
        );
        self.fault_state[shard].crash();
        self.fsum.server_crashes += 1;
        self.emit(TraceKind::ServerCrashed.at(now, None, None, SiteId::server(shard as u32)));
        self.server_cpu[shard] = ServerCpu::new(self.cfg.server_cpu_per_op);
        P::wipe_shard(self, shard);
        let bit = !(1u64 << shard);
        for info in self.table.iter_mut() {
            info.applied &= bit;
            info.prepared &= bit;
            if shard == 0 {
                // Transaction leases are coordinated at shard 0 and die
                // with it; recovery re-arms them.
                info.leased = false;
                info.last_activity = SimTime::ZERO;
            }
        }
    }

    /// Shard `shard` restarts: replay its durable log into an image,
    /// restore the engine state, applied-commit bits and in-doubt
    /// prepared votes from it, query the surviving peers of every
    /// in-doubt transaction for the commit outcome, then open the
    /// re-registration handshake by polling every client.
    fn begin_recovery(&mut self, now: SimTime, shard: usize) {
        debug_assert!(self.fault_state[shard].down, "shard restarted while up");
        let img = self.slog(shard).replay();
        P::restore_image(self, &img);
        for &txn in &img.committed {
            self.mark_applied(txn, shard);
        }
        let epoch = self.fault_state[shard].begin_recovery(now, self.cfg.num_clients as usize, img);
        let in_doubt: Vec<TxnId> = self.fault_state[shard].in_doubt.keys().copied().collect();
        for txn in in_doubt {
            self.mark_prepared(txn, shard);
        }
        self.send_commit_queries(shard, false);
        self.broadcast_reregister(shard, false);
        self.cal.schedule_in(
            self.retry_base,
            Ev::RecoveryCheck {
                shard: shard as u32,
                epoch,
            },
        );
    }

    /// Ask the surviving peers of every still-in-doubt transaction for
    /// its commit outcome (presumed abort: the vote is resolved only on
    /// positive evidence, so the queries retransmit each recovery-check
    /// tick until answered or the handshake deadline falls back to the
    /// commit oracle). Subject to shard↔shard partitions like any other
    /// message.
    fn send_commit_queries(&mut self, shard: usize, retry: bool) {
        let st = &self.fault_state[shard];
        let epoch = st.epoch;
        let queries: Vec<(TxnId, u64)> = st
            .in_doubt
            .iter()
            .map(|(&txn, p)| (txn, p.involved))
            .collect();
        for (txn, involved) in queries {
            for peer in 0..self.cfg.num_shards() {
                if peer as usize == shard || involved & (1u64 << peer) == 0 {
                    continue;
                }
                if retry {
                    self.fsum.retries += 1;
                }
                self.net.send(
                    &mut self.cal,
                    SiteId::server(shard as u32),
                    SiteId::server(peer),
                    Message::CommitQuery {
                        txn,
                        from_shard: shard as u32,
                        epoch,
                    },
                );
            }
        }
    }

    /// Poll clients for re-registration; `retry` restricts the poll to
    /// clients that have not yet answered and counts as retransmission.
    fn broadcast_reregister(&mut self, shard: usize, retry: bool) {
        for i in 0..self.cfg.num_clients {
            let c = ClientId::new(i);
            if retry {
                if self.fault_state[shard].reregistered[c.index()] {
                    continue;
                }
                self.fsum.retries += 1;
            }
            self.net.send(
                &mut self.cal,
                SiteId::server(shard as u32),
                c.into(),
                Message::ReregisterReq {
                    shard: shard as u32,
                    epoch: self.fault_state[shard].epoch,
                },
            );
        }
    }

    /// The recovery-handshake timer fired: finish if the handshake
    /// deadline (one lease period) has passed; otherwise poll the silent
    /// clients and unanswered peers again.
    fn on_recovery_check(&mut self, now: SimTime, shard: usize, epoch: u64) {
        let st = &self.fault_state[shard];
        if !st.recovering || epoch != st.epoch {
            return; // stale timer of an older recovery
        }
        if now.since(st.started) >= self.lease {
            self.finish_recovery(now, shard);
            return;
        }
        self.send_commit_queries(shard, true);
        self.broadcast_reregister(shard, true);
        self.cal.schedule_in(
            self.retry_base,
            Ev::RecoveryCheck {
                shard: shard as u32,
                epoch,
            },
        );
    }

    /// One client's re-registration report arrived during the handshake:
    /// record liveness, let the engine absorb the report, and close the
    /// handshake once every client has answered. Duplicated reports
    /// (lossy link) are absorbed by the per-epoch `reregistered` flag,
    /// making re-delivery idempotent.
    fn on_reregister(
        &mut self,
        now: SimTime,
        shard: usize,
        client: ClientId,
        epoch: u64,
        txn: Option<TxnId>,
        report: &Message,
    ) {
        let st = &mut self.fault_state[shard];
        if !st.recovering || epoch != st.epoch {
            return; // late report of an older recovery
        }
        if st.reregistered[client.index()] {
            return; // duplicated report: absorbed
        }
        st.reregistered[client.index()] = true;
        self.fsum.reregistrations += 1;
        self.emit(TraceKind::Reregister.at(now, txn, None, client));
        P::absorb_report(self, shard, client, report);
        if self.fault_state[shard].reregistered.iter().all(|&r| r) {
            self.finish_recovery(now, shard);
        }
    }

    /// The re-registration image of shard `shard` (exists for the whole
    /// handshake).
    pub(crate) fn image(&self, shard: usize) -> &ServerImage {
        self.fault_state[shard]
            .image
            .as_ref()
            // lint:allow(L3): the image exists from restart until the handshake closes
            .expect("recovery image")
    }

    /// Close shard `shard`'s re-registration handshake: resolve any
    /// still-in-doubt prepared votes through the commit oracle (the
    /// coordinator's decision record, which the surviving peers answer
    /// queries from), resume normal service, then let the engine rebuild
    /// its grants or forward lists from the image and act on them
    /// (redispatch; abort the active transactions of clients that never
    /// answered, presumed dead).
    fn finish_recovery(&mut self, now: SimTime, shard: usize) {
        debug_assert!(self.fault_state[shard].recovering);
        // In-doubt votes first, so the rebuild sees the final applied
        // bits. Per presumed abort, a vote is resolved only on positive
        // evidence: a still-Active owner keeps its vote in doubt — either
        // it answered the handshake (its grants are restored and it will
        // decide normally) or it stayed silent and is aborted as a
        // victim, retiring the vote.
        let unresolved: Vec<TxnId> = self.fault_state[shard].in_doubt.keys().copied().collect();
        for txn in unresolved {
            match self.table.status(txn) {
                TxnStatus::Committed => self.resolve_indoubt_commit(now, shard, txn),
                TxnStatus::Aborting | TxnStatus::Aborted => self.resolve_indoubt_abort(shard, txn),
                TxnStatus::Active => continue,
            }
            self.fsum.two_pc.oracle_resolutions += 1;
        }
        let img = self.fault_state[shard]
            .image
            .take()
            // lint:allow(L3): the image exists from restart until the handshake closes
            .expect("recovery image");
        self.fault_state[shard].recovering = false;
        self.emit(TraceKind::ServerRecovered.at(now, None, None, SiteId::server(shard as u32)));
        P::recover(self, now, shard, img);
    }

    /// Positive commit evidence arrived for an in-doubt prepared vote at
    /// shard `shard`: apply the commit there exactly as the lost phase 2
    /// would have (durably, write-ahead of everything), retire the vote,
    /// and release what the transaction held.
    fn resolve_indoubt_commit(&mut self, now: SimTime, shard: usize, txn: TxnId) {
        let Some(pimg) = self.fault_state[shard].in_doubt.remove(&txn) else {
            return;
        };
        P::apply_committed(self, shard, txn, pimg.writes);
        self.vote_applied(now, shard, txn);
        P::release_committed(self, now, shard, txn);
    }

    /// Positive abort evidence arrived for an in-doubt prepared vote at
    /// shard `shard`: retire the vote durably (presumed abort needs no
    /// abort record beyond the release). The abort itself was already
    /// decided (and emitted) elsewhere, and the victim holds nothing here:
    /// the lock table was rebuilt at restart and grants are only restored
    /// after the in-doubt pass.
    fn resolve_indoubt_abort(&mut self, shard: usize, txn: TxnId) {
        if self.fault_state[shard].in_doubt.remove(&txn).is_none() {
            return;
        }
        self.slog(shard).append(ServerRecord::Released { txn });
        self.clear_prepared(txn, shard);
    }

    /// Record that shard `shard` has applied `txn`'s commit slice.
    pub(crate) fn mark_applied(&mut self, txn: TxnId, shard: usize) {
        self.table.info_mut(txn).applied |= 1u64 << shard;
    }

    /// Whether shard `shard` has applied `txn`'s commit slice.
    pub(crate) fn applied_at(&self, txn: TxnId, shard: usize) -> bool {
        self.table.info(txn).applied & (1u64 << shard) != 0
    }

    /// Record that shard `shard` holds a durable prepared vote for `txn`.
    fn mark_prepared(&mut self, txn: TxnId, shard: usize) {
        self.table.info_mut(txn).prepared |= 1u64 << shard;
    }

    /// Whether shard `shard` holds a durable, unretired prepared vote for
    /// `txn`.
    pub(crate) fn prepared_at(&self, txn: TxnId, shard: usize) -> bool {
        self.table.info(txn).prepared & (1u64 << shard) != 0
    }

    /// Retire shard `shard`'s prepared vote for `txn` (its log holds the
    /// retiring record).
    fn clear_prepared(&mut self, txn: TxnId, shard: usize) {
        self.table.info_mut(txn).prepared &= !(1u64 << shard);
    }
}
