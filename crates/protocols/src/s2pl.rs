//! The server-based strict two-phase locking (s-2PL) baseline of §3.1.
//!
//! Protocol summary (per transaction, best case): one lock-request round,
//! one grant round shipping the data, and one commit round returning every
//! dirty item and releasing all locks — the "three rounds" the paper
//! counts, or `2n + 1` rounds for `n` sequentially requested items.
//!
//! Deadlock detection starts whenever a request cannot be granted (§4):
//! a depth-first search of the waits-for relation, read lazily from the
//! lock tables, from the blocked transaction (the trigger). Each cycle it
//! finds is broken by aborting a victim chosen by the configured policy.
//! The search is skipped when no other transaction is queued on an item
//! the trigger holds. Such a search could not have found a cycle:
//!
//! * Every cycle was broken where it formed, so the graph was acyclic
//!   before the trigger queued. Queueing adds edges that all leave the
//!   trigger, so a new cycle must pass through it and needs an edge into
//!   it.
//! * Only a waiter on an item the trigger holds can wait for it. A request
//!   queues at the tail of its queue, with nothing behind it. The
//!   exception is an upgrade, which queues at the front of an item its
//!   requester already holds; the waiters behind it are waiters on a held
//!   item, which the test counts.
//! * Grants and releases add no edges: a promoted request blocks the
//!   waiters behind it as a holder exactly when it blocked them as a
//!   queued-ahead request. Crash recovery restores grants into a fresh
//!   table of holders with empty queues, which adds no edges either.
//!
//! A search started while another is breaking a cycle (c-2PL only: a
//! victim's release grants a write that opens a new callback barrier)
//! always runs. It can find the outer search's remaining cycle without
//! passing through its own trigger, and must find it to pick the same
//! victims. Debug builds run every skipped search anyway and assert that
//! it finds nothing.
//!
//! The engine is a [`Protocol`] on the shared [`Kernel`]. Its lock-server
//! side ([`ServerLocking`]) is also c-2PL's: c-2PL is s-2PL plus client
//! caching, and adds its callback-barrier edges to the same search.

use crate::config::EngineConfig;
use crate::cycle::CycleFinder;
use crate::kernel::{Kernel, Protocol};
use crate::runtime::{ClientPhase, Ev, LockReport, Message, TxnStatus};
use g2pl_lockmgr::{AcquireOutcome, LockMode, LockTable};
use g2pl_obs::TraceKind;
use g2pl_simcore::{ClientId, ItemId, SimTime, SiteId, TxnId, Version};
use g2pl_wal::{ServerImage, ServerRecord};
use std::collections::BTreeMap;

/// The s-2PL simulation engine.
pub type S2plEngine = Kernel<S2pl>;

/// The server shards' side of s-2PL: lock tables and installed
/// versions.
pub struct S2pl {
    /// One lock table per server shard; an item's locks live at the
    /// shard owning it ([`EngineConfig::shard_of`]).
    pub(crate) locks: Vec<LockTable>,
    /// Installed version per item, held by the item's shard.
    pub(crate) versions: Vec<Version>,
    finder: CycleFinder,
    /// Whether a deadlock search is breaking a cycle right now: a search
    /// started meanwhile is nested and never skipped.
    searching: bool,
}

impl S2pl {
    pub(crate) fn with_config(cfg: &EngineConfig) -> Self {
        S2pl {
            locks: (0..cfg.num_shards()).map(|_| LockTable::new()).collect(),
            versions: vec![0; cfg.num_items() as usize],
            finder: CycleFinder::default(),
            searching: false,
        }
    }
}

/// The lock-server protocols: the shards grant locks and install
/// commits. Implemented by s-2PL and by c-2PL, which adds callbacks and
/// a cache directory through the hooks below.
pub trait ServerLocking: Protocol {
    /// The lock tables and versions.
    fn locking(&self) -> &S2pl;
    fn locking_mut(&mut self) -> &mut S2pl;
    /// A lock was granted (on request, or to a waiter woken by a
    /// release): ship it.
    fn lock_granted(
        k: &mut Kernel<Self>,
        now: SimTime,
        client: ClientId,
        txn: TxnId,
        item: ItemId,
        mode: LockMode,
    );
    /// The waits-for edges out of live `t` beyond its lock-queue wait
    /// (c-2PL: a callback barrier's owner waits for every transaction
    /// pinning a cached copy of the item), appended to `out` in search
    /// order.
    fn barrier_waits(_k: &Kernel<Self>, _t: TxnId, _out: &mut Vec<TxnId>) {}
    /// Whether a [`barrier_waits`](Self::barrier_waits) edge may enter
    /// `t`.
    fn barrier_waits_on(_k: &Kernel<Self>, _t: TxnId) -> bool {
        false
    }

    /// §4: "deadlock detection is initiated when a lock cannot be
    /// granted." The waits-for relation is explored lazily from the
    /// blocked transaction — successors are computed on demand, so only
    /// the reachable part of the graph is visited — and victims are
    /// aborted until no cycle through `trigger` remains. A top-level
    /// search whose trigger nothing waits for is skipped (see the
    /// module doc for why it cannot find a cycle).
    fn detect_deadlocks(k: &mut Kernel<Self>, now: SimTime, trigger: TxnId) {
        k.collector.deadlock_searches += 1;
        let nested = std::mem::replace(&mut k.p.locking_mut().searching, true);
        // The finder is moved out for the duration of the search so its
        // buffers can be reused while the successor closure borrows the
        // kernel; a nested search starts from a fresh one.
        let mut finder = std::mem::take(&mut k.p.locking_mut().finder);
        if !nested && !k.waited_on(trigger) {
            k.collector.deadlock_searches_skipped += 1;
            if cfg!(debug_assertions) {
                let kr = &*k;
                let found = finder.find_cycle(trigger, |t, out| kr.waits_of_into(t, out));
                debug_assert!(
                    found.is_none(),
                    "{}: skipped the deadlock search from {trigger}, which nothing waits \
                     for, but a full search finds the cycle {found:?}",
                    Self::NAME
                );
            }
        } else {
            loop {
                let kr = &*k;
                let found = finder.find_cycle(trigger, |t, out| kr.waits_of_into(t, out));
                let Some(cycle) = found else { break };
                let victim = kr.cfg.victim.choose(cycle, |t| {
                    kr.p.locking()
                        .locks
                        .iter()
                        .map(|lt| lt.held_by(t).len())
                        .sum()
                });
                Self::abort_victim(k, now, victim);
                if victim == trigger {
                    break;
                }
            }
        }
        let s = k.p.locking_mut();
        s.finder = finder;
        s.searching = nested;
    }

    /// Whether the shipment of an already-held grant waits on something
    /// else (c-2PL callback barrier).
    fn grant_gated(&self, _txn: TxnId, _item: ItemId) -> bool {
        false
    }
    /// A commit-release slice was installed (c-2PL cache directory).
    fn slice_applied(
        &mut self,
        _committer: ClientId,
        _writes: &[(ItemId, Version)],
        _reads: &[ItemId],
        _faults_on: bool,
    ) {
    }
    /// Whether the client's current transaction reads its cached copy of
    /// `item` (no server lock behind it).
    fn pinned(&self, _client: ClientId, _item: ItemId) -> bool {
        false
    }
    /// The client's cached items homed at `shard`.
    fn cached_on(&self, _client: ClientId, _shard: u32, _cfg: &EngineConfig) -> Vec<ItemId> {
        Vec::new()
    }
    /// A re-registering client reported its cached items.
    fn absorb_cached(&mut self, _client: ClientId, _cached: &[ItemId]) {}
}

impl ServerLocking for S2pl {
    fn locking(&self) -> &S2pl {
        self
    }
    fn locking_mut(&mut self) -> &mut S2pl {
        self
    }
    fn lock_granted(
        k: &mut Kernel<Self>,
        now: SimTime,
        client: ClientId,
        txn: TxnId,
        item: ItemId,
        _mode: LockMode,
    ) {
        k.send_grant(now, client, txn, item);
    }
}

impl Protocol for S2pl {
    const NAME: &'static str = "s-2PL";
    const SERVER_BASED: bool = true;

    fn new(cfg: &EngineConfig) -> Self {
        S2pl::with_config(cfg)
    }

    fn on_event(_k: &mut Kernel<Self>, _now: SimTime, ev: Ev) {
        unreachable!("event {ev:?} is not part of the s-2PL protocol")
    }

    fn on_client_msg(k: &mut Kernel<Self>, now: SimTime, client: ClientId, msg: Message) {
        match msg {
            Message::SGrant { txn, item, version } => k.on_grant(now, client, txn, item, version),
            other => unreachable!("s-2PL client cannot receive {other:?}"),
        }
    }

    fn on_server_msg(k: &mut Kernel<Self>, now: SimTime, shard: usize, msg: Message) {
        k.on_lock_server_msg(now, shard, msg);
    }

    /// The commit decision point: every involved shard has voted yes (or
    /// the transaction is single-home and no votes were needed). From
    /// here the commit is irrevocable — the client's WAL `Commit` record
    /// is the coordinator's durable decision record, and the
    /// commit-release slices retransmit until every shard applies.
    fn commit(k: &mut Kernel<Self>, now: SimTime, client: ClientId, txn: TxnId) {
        let active = k.take_committing(client, txn);
        k.table.set_status(txn, TxnStatus::Committed);
        // Commit durability under loss: each shard's release retransmits
        // until that shard acknowledges, and the last ack starts the next
        // transaction. Without faults it is scheduled right away.
        if !k.faults_on() {
            k.schedule_next_txn(client);
        }
        let committed = k.ship_commit(now, client, &active);
        k.emit(committed);
        k.arm_retry(client);
    }

    /// Abort the client's transaction locally: on receipt of the server's
    /// notice, or — under faults — when the client discovers the abort
    /// on its own (restart after a crash, or a commit racing the notice).
    fn finalize_abort(k: &mut Kernel<Self>, now: SimTime, client: ClientId, txn: TxnId) {
        if k.end_aborted_txn(client, txn).is_none() {
            return;
        }
        k.table.set_status(txn, TxnStatus::Aborted);
        k.emit(TraceKind::Aborted.at(now, Some(txn), None, client));
        k.schedule_next_txn(client);
    }

    // lint:allow(L5): the abort is emitted when it lands — the client emits TraceKind::Aborted on the notice; a server-side event here would double-count it for the P-properties
    fn abort_victim(k: &mut Kernel<Self>, now: SimTime, victim: TxnId) {
        debug_assert_eq!(k.table.status(victim), TxnStatus::Active);
        k.table.set_status(victim, TxnStatus::Aborting);
        k.retire_victim(victim);
        k.release_victim(now, victim);
    }

    fn report(k: &Kernel<Self>, client: ClientId, shard: u32, epoch: u64) -> Message {
        k.lock_report(client, shard, epoch)
    }

    fn absorb_report(k: &mut Kernel<Self>, shard: usize, client: ClientId, report: &Message) {
        k.absorb_lock_report(shard, client, report);
    }

    fn wipe_shard(k: &mut Kernel<Self>, shard: usize) {
        k.wipe_locks(shard);
    }

    fn restore_image(k: &mut Kernel<Self>, img: &ServerImage) {
        k.restore_versions(img);
    }

    fn recover(k: &mut Kernel<Self>, now: SimTime, shard: usize, img: ServerImage) {
        k.recover_grants(now, shard, &img);
    }

    fn apply_committed(
        k: &mut Kernel<Self>,
        shard: usize,
        txn: TxnId,
        writes: Vec<(ItemId, Version)>,
    ) {
        k.install_slice(shard, txn, &writes);
    }

    fn release_committed(k: &mut Kernel<Self>, now: SimTime, shard: usize, txn: TxnId) {
        k.release_locks(now, shard, txn);
    }

    fn assert_drained(&self) {
        assert!(
            self.locks.iter().all(LockTable::is_quiescent),
            "locks leaked after drain"
        );
    }
}

/// The lock-server side shared by s-2PL and c-2PL.
impl<P: ServerLocking> Kernel<P> {
    /// The transactions live `t` waits for: the conflicting holders and
    /// queued-ahead requests of the item it is queued on, then its
    /// barrier waits. Deadlock detection stays centralized: accesses are
    /// sequential, so a transaction queues on at most one item globally,
    /// and the scan finds the (unique) shard it waits at. Only live
    /// transactions source edges (an aborting c-2PL barrier owner still
    /// holds its lock until the callbacks drain, but no longer waits);
    /// s-2PL releases a victim everywhere at once, so it queues nowhere.
    fn waits_of_into(&self, t: TxnId, out: &mut Vec<TxnId>) {
        if !self.table.is_live(t) {
            return;
        }
        for lt in &self.p.locking().locks {
            if let Some(item) = lt.queued_on(t) {
                lt.waits_for_into(t, item, out);
                break;
            }
        }
        P::barrier_waits(self, t, out);
    }

    /// Whether some transaction may wait for `t`: a waiter on an item `t`
    /// holds at any shard, or a barrier edge into `t`.
    fn waited_on(&self, t: TxnId) -> bool {
        self.p.locking().locks.iter().any(|lt| lt.is_waited_on(t)) || P::barrier_waits_on(self, t)
    }

    /// A lock grant (with the data) arrived at the client.
    pub(crate) fn on_grant(
        &mut self,
        now: SimTime,
        client: ClientId,
        txn: TxnId,
        item: ItemId,
        version: Version,
    ) {
        let faults_on = self.faults_on();
        let c = &mut self.clients[client.index()];
        let Some(active) = &c.txn else { return };
        if active.id != txn {
            return; // grant for a finished transaction
        }
        if !matches!(active.phase, ClientPhase::WaitingGrant(_))
            || active.spec.access(active.granted).0 != item
        {
            // Duplicate of an already-consumed grant (lossy link).
            debug_assert!(faults_on, "unexpected duplicate grant");
            return;
        }
        if faults_on {
            c.retry_progress();
        }
        self.grant_access(now, client, item, version, TraceKind::Granted);
    }

    /// The lock-server messages a shard handles.
    pub(crate) fn on_lock_server_msg(&mut self, now: SimTime, shard: usize, msg: Message) {
        match msg {
            Message::LockReq {
                txn,
                client,
                item,
                mode,
            } => self.on_lock_request(now, shard, txn, client, item, mode),
            Message::SCommit { txn, writes, reads } => {
                self.on_commit_release(now, shard, txn, &writes, &reads);
            }
            other => unreachable!("{} server cannot receive {other:?}", P::NAME),
        }
    }

    fn on_lock_request(
        &mut self,
        now: SimTime,
        shard: usize,
        txn: TxnId,
        client: ClientId,
        item: ItemId,
        mode: LockMode,
    ) {
        debug_assert_eq!(
            self.cfg.shard_of(item) as usize,
            shard,
            "lock request routed to the wrong shard"
        );
        match self.table.status(txn) {
            TxnStatus::Active => {}
            TxnStatus::Aborting | TxnStatus::Aborted if self.faults_on() => {
                // A retried request from a victim whose abort notice may
                // have been lost: answer it again.
                self.send_abort_notice(SiteId::server(shard as u32), client, txn);
                return;
            }
            _ => return, // stale request of a finished transaction
        }
        if self.faults_on() {
            self.touch(now, txn);
            if self.p.locking().locks[shard].mode_of(txn, item).is_some() {
                // Duplicate of an already-granted request (the grant or
                // the original request was lost or duplicated): re-ship
                // the grant, unless its shipment is gated elsewhere (a
                // c-2PL callback barrier, whose retry timer drives
                // progress).
                if !self.p.grant_gated(txn, item) {
                    self.send_grant(now, client, txn, item);
                }
                return;
            }
            if self.p.locking().locks[shard].queued_on(txn) == Some(item) {
                return; // duplicate of a still-queued request
            }
        }
        self.emit(TraceKind::RequestArrived.at(
            now,
            Some(txn),
            Some(item),
            SiteId::server(shard as u32),
        ));
        match self.p.locking_mut().locks[shard].acquire(txn, item, mode) {
            AcquireOutcome::Granted => P::lock_granted(self, now, client, txn, item, mode),
            AcquireOutcome::Queued => P::detect_deadlocks(self, now, txn),
        }
    }

    /// A commit-release slice arrived: install it, release the
    /// transaction's locks at this shard, and (under faults) acknowledge.
    fn on_commit_release(
        &mut self,
        now: SimTime,
        shard: usize,
        txn: TxnId,
        writes: &[(ItemId, Version)],
        reads: &[ItemId],
    ) {
        let committer = self.table.info(txn).client;
        if self.faults_on() {
            // Duplicate commit-release slice (already applied at this
            // shard): the ack was lost, so just acknowledge again. Each
            // shard's bit of the applied set is durable — it survives
            // crashes via log replay.
            if self.applied_at(txn, shard) {
                self.send_commit_ack(shard, committer, txn);
                return;
            }
            if let Some(l) = self.leased.get_mut(txn.index()) {
                *l = false;
            }
        }
        self.install_slice(shard, txn, writes);
        let faults_on = self.faults_on();
        self.p.slice_applied(committer, writes, reads, faults_on);
        if self.prepared_at(txn, shard) {
            // Phase 2 of a prepared multi-home commit landed: the vote is
            // consumed and the slice applied.
            self.vote_applied(now, shard, txn);
        }
        self.emit(TraceKind::ReleaseArrived.at(now, Some(txn), None, SiteId::server(shard as u32)));
        self.release_locks(now, shard, txn);
        if faults_on {
            self.send_commit_ack(shard, committer, txn);
        }
    }

    /// Install `txn`'s committed write slice at `shard`. Write-ahead: the
    /// applied commit, its installed versions, and the release are
    /// durable before anything acknowledges them; the `Released` record
    /// also retires any prepared vote this shard held.
    pub(crate) fn install_slice(&mut self, shard: usize, txn: TxnId, writes: &[(ItemId, Version)]) {
        let committer = self.table.info(txn).client;
        self.mark_applied(txn, shard);
        if self.srv_faults_on() {
            let slog = self.slog(shard);
            slog.append(ServerRecord::Committed { txn });
            for &(item, version) in writes {
                slog.append(ServerRecord::Permanent { item, version });
            }
            slog.append(ServerRecord::Released { txn });
        }
        for &(item, version) in writes {
            let versions = &mut self.p.locking_mut().versions;
            debug_assert_eq!(
                version,
                versions[item.index()] + 1,
                "write version chain broken for {item}"
            );
            versions[item.index()] = version;
            if let Some(wal) = &mut self.wal {
                wal[committer.index()].mark_permanent(txn, item);
            }
        }
    }

    /// Release everything `txn` holds at `shard` and hand the locks on.
    pub(crate) fn release_locks(&mut self, now: SimTime, shard: usize, txn: TxnId) {
        let woken = self.p.locking_mut().locks[shard].release_all(txn);
        for (item, t, mode) in woken {
            let c = self.table.info(t).client;
            P::lock_granted(self, now, c, t, item, mode);
        }
    }

    /// The victim's locks are released on every shard at once (in
    /// ascending shard order) — the shards own the authoritative copies
    /// — and the client learns of the abort one latency later.
    pub(crate) fn release_victim(&mut self, now: SimTime, victim: TxnId) {
        let mut woken = Vec::new();
        for lt in &mut self.p.locking_mut().locks {
            woken.extend(lt.release_all(victim));
        }
        for (item, t, mode) in woken {
            let c = self.table.info(t).client;
            P::lock_granted(self, now, c, t, item, mode);
        }
        let client = self.table.info(victim).client;
        self.send_abort_notice(SiteId::SERVER0, client, victim);
    }

    pub(crate) fn send_grant(&mut self, now: SimTime, client: ClientId, txn: TxnId, item: ItemId) {
        let shard = self.cfg.shard_of(item) as usize;
        if self.srv_faults_on() {
            // Write-ahead: the grant is durable before it leaves.
            let exclusive = matches!(
                self.p.locking().locks[shard].mode_of(txn, item),
                Some(LockMode::Exclusive)
            );
            self.log_at(
                shard,
                ServerRecord::Grant {
                    txn,
                    item,
                    exclusive,
                },
            );
        }
        self.emit(TraceKind::HopDeparted.at(now, Some(txn), Some(item), client));
        self.net.send(
            &mut self.cal,
            SiteId::server(shard as u32),
            client.into(),
            Message::SGrant {
                txn,
                item,
                version: self.p.locking().versions[item.index()],
            },
        );
    }

    /// The client's re-registration report for `shard`: the
    /// server-granted accesses of its live transaction homed there (cache
    /// pins never took a server lock), that shard's slice of an
    /// unacknowledged (committed-but-unreleased) commit, and the cached
    /// copies the rebuilt directory must know about.
    pub(crate) fn lock_report(&self, client: ClientId, shard: u32, epoch: u64) -> Message {
        let c = &self.clients[client.index()];
        let mut held = Vec::new();
        let mut txn = None;
        if let Some(active) = &c.txn {
            txn = Some(active.id);
            for idx in 0..active.granted {
                let (item, mode) = active.spec.access(idx);
                if !self.p.pinned(client, item) && self.cfg.shard_of(item) == shard {
                    held.push((item, crate::kernel::lock_mode(mode)));
                }
            }
        }
        let pending = c.pending_commits.iter().find_map(|(s, m)| match m {
            Message::SCommit { txn, writes, reads } if *s == shard => {
                Some((*txn, writes.clone(), reads.clone()))
            }
            _ => None,
        });
        Message::SReregister {
            client,
            epoch,
            report: Box::new(LockReport {
                txn,
                held,
                pending,
                cached: self.p.cached_on(client, shard, &self.cfg),
            }),
        }
    }

    /// Absorb a re-registration report: the cached copies rebuild the
    /// directory. The held claims corroborate the durable grant history
    /// (restoration itself works off the log, so a crashed client's
    /// committed-but-unreleased locks are restored even without a
    /// report): every claim a live client re-reports for a still-live
    /// transaction must have been durably granted before the crash.
    pub(crate) fn absorb_lock_report(&mut self, shard: usize, client: ClientId, report: &Message) {
        let Message::SReregister { report, .. } = report else {
            return;
        };
        let LockReport {
            txn,
            held,
            pending,
            cached,
        } = &**report;
        self.p.absorb_cached(client, cached);
        if cfg!(debug_assertions) {
            let img = self.image(shard);
            if let Some(t) = *txn {
                if self.table.status(t) == TxnStatus::Active {
                    for &(item, _) in held {
                        debug_assert!(
                            img.was_granted(t, item)
                                || self.p.locking().locks[shard].mode_of(t, item).is_some(),
                            "{client} re-reported a grant the log never saw: {t} {item}"
                        );
                    }
                }
            }
            if let Some((t, writes, _)) = pending {
                if !img.is_committed(*t) && !img.prepared.contains_key(t) {
                    for &(item, _) in writes {
                        debug_assert!(
                            img.was_granted(*t, item),
                            "{client} re-reported an unlogged pending write: {t} {item}"
                        );
                    }
                }
            }
        }
    }

    /// Shard `shard` crashed: its lock table and its items' installed
    /// versions are gone.
    pub(crate) fn wipe_locks(&mut self, shard: usize) {
        let per = self.cfg.items.items_per_shard as usize;
        let s = self.p.locking_mut();
        s.locks[shard] = LockTable::new();
        s.versions[shard * per..(shard + 1) * per]
            .iter_mut()
            .for_each(|v| *v = 0);
    }

    pub(crate) fn restore_versions(&mut self, img: &ServerImage) {
        let versions = &mut self.p.locking_mut().versions;
        for (&item, &v) in &img.versions {
            versions[item.index()] = v;
        }
    }

    /// Restore every outstanding durable grant whose owner still needs
    /// it, then abort the silent clients' transactions, presumed dead.
    pub(crate) fn recover_grants(&mut self, now: SimTime, shard: usize, img: &ServerImage) {
        let mut silent_victims = Vec::new();
        for (&txn, items) in &img.grants {
            let client = self.table.info(txn).client;
            match self.table.status(txn) {
                // An active owner that answered gets its locks back
                // exactly as granted; a silent one is presumed dead and
                // aborted after the restart (its slots are simply never
                // restored).
                TxnStatus::Active => {
                    if self.fault_state[shard].reregistered[client.index()] {
                        self.restore_grants(txn, items);
                        self.touch(now, txn);
                    } else {
                        silent_victims.push(txn);
                    }
                }
                // Committed at the client but not applied here: the
                // commit-release is being retransmitted and must still
                // find the pre-crash locks in place, or a competing
                // writer could slip in under it and break the version
                // chain the acknowledged commit depends on.
                TxnStatus::Committed => {
                    if !self.applied_at(txn, shard) {
                        self.restore_grants(txn, items);
                        self.touch(now, txn);
                    }
                }
                // Released (and logged) before the crash; replay folded
                // those grants away already.
                TxnStatus::Aborting | TxnStatus::Aborted => {}
            }
        }
        for txn in silent_victims {
            self.fsum.two_pc.silent_victims += 1;
            P::abort_victim(self, now, txn);
        }
    }

    /// Re-insert `txn`'s durably recorded grants into the fresh lock
    /// table of the owning shard. Pre-crash holders coexisted, so every
    /// re-acquisition succeeds immediately; a shipped c-2PL exclusive
    /// grant had already recalled every remote copy, so restoration never
    /// needs a callback round.
    fn restore_grants(&mut self, txn: TxnId, items: &BTreeMap<ItemId, bool>) {
        for (&item, &exclusive) in items {
            let mode = if exclusive {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            let shard = self.cfg.shard_of(item) as usize;
            let outcome = self.p.locking_mut().locks[shard].acquire(txn, item, mode);
            debug_assert!(
                matches!(outcome, AcquireOutcome::Granted),
                "restored grants conflict: {txn} {item}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;

    fn cfg(clients: u32, latency: u64, pr: f64) -> EngineConfig {
        let mut c = EngineConfig::table1(ProtocolKind::S2pl, clients, latency, pr);
        c.warmup_txns = 50;
        c.measured_txns = 300;
        c.drain = true;
        c
    }

    #[test]
    fn single_client_never_aborts() {
        let mut c = cfg(1, 10, 0.5);
        c.record_history = true;
        let m = S2plEngine::new(c).run();
        assert_eq!(m.aborted_total, 0, "no contention, no deadlock");
        assert!(m.committed_total >= 350);
        assert!(m.response.mean() > 0.0);
    }

    #[test]
    fn single_item_single_access_response_is_rtt_plus_think() {
        // One client, one item, exactly one access per txn: response =
        // 2 * latency (request + grant) + one think time in [1,3].
        let mut c = cfg(1, 100, 1.0);
        c.items = crate::config::ItemSpace::single(1);
        c.profile.min_items = 1;
        c.profile.max_items = 1;
        let m = S2plEngine::new(c).run();
        assert!(m.response.min().unwrap() >= 201.0);
        assert!(m.response.max().unwrap() <= 203.0);
    }

    #[test]
    fn contended_run_completes_with_aborts_counted() {
        let m = S2plEngine::new(cfg(10, 50, 0.2)).run();
        assert_eq!(
            m.aborts.trials(),
            300,
            "measurement window must be exactly full"
        );
        assert!(m.committed_total > 0);
        // With 10 clients on 25 hot items and 80% writes, some deadlocks
        // must occur.
        assert!(m.aborted_total > 0, "expected deadlock aborts");
    }

    #[test]
    fn read_only_workload_never_deadlocks() {
        let m = S2plEngine::new(cfg(10, 50, 1.0)).run();
        assert_eq!(m.aborted_total, 0, "S locks are all-compatible");
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let a = S2plEngine::new(cfg(5, 100, 0.5)).run();
        let b = S2plEngine::new(cfg(5, 100, 0.5)).run();
        assert_eq!(a.response.mean(), b.response.mean());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
    }

    #[test]
    fn different_seeds_differ() {
        let a = S2plEngine::new(cfg(5, 100, 0.5)).run();
        let mut c2 = cfg(5, 100, 0.5);
        c2.seed ^= 0xdead_beef;
        let b = S2plEngine::new(c2).run();
        assert_ne!(a.response.mean(), b.response.mean());
    }

    #[test]
    fn message_count_matches_formula_without_contention() {
        // 1 client => zero contention and zero aborts. Each txn with n
        // items costs n requests + n grants + 1 commit.
        let mut c = cfg(1, 10, 0.0);
        c.drain = true;
        let m = S2plEngine::new(c).run();
        let n_req = m.net.of_kind("lock_request");
        let n_grant = m.net.of_kind("grant");
        let n_commit = m.net.of_kind("commit_release");
        assert_eq!(n_req, n_grant);
        assert_eq!(n_commit, m.committed_total);
        assert_eq!(m.net.messages(), n_req + n_grant + n_commit);
    }

    #[test]
    fn latency_dominates_response_time() {
        let low = S2plEngine::new(cfg(5, 1, 0.5)).run();
        let high = S2plEngine::new(cfg(5, 500, 0.5)).run();
        assert!(
            high.response.mean() > 50.0 * low.response.mean().max(1.0),
            "500-unit latency should dwarf 1-unit latency: {} vs {}",
            high.response.mean(),
            low.response.mean()
        );
    }

    #[test]
    fn lossy_run_completes_via_retries_and_leases() {
        // 5% message loss: the drain only empties the calendar if client
        // retransmission and the server's transaction lease recover every
        // lost request, grant, notice, and commit-release.
        let mut c = cfg(10, 50, 0.2);
        c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.05));
        let m = S2plEngine::new(c).run();
        assert_eq!(m.aborts.trials(), 300, "measurement window filled");
        assert!(m.faults.injected.dropped > 0, "no faults injected");
        assert!(m.faults.retries > 0, "losses recovered without retries");
    }

    #[test]
    fn lossy_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(8, 50, 0.3);
            c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.08));
            S2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.injected, b.faults.injected);
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        let base = S2plEngine::new(cfg(5, 100, 0.5)).run();
        let mut c = cfg(5, 100, 0.5);
        c.faults = Some(g2pl_faults::FaultPlan::default());
        let m = S2plEngine::new(c).run();
        assert_eq!(base.response.mean(), m.response.mean());
        assert_eq!(base.net.messages(), m.net.messages());
        assert_eq!(base.events, m.events);
        assert!(!m.faults.any());
    }

    #[test]
    fn server_crash_is_recovered() {
        let mut c = cfg(6, 50, 0.3);
        c.faults = Some(g2pl_faults::FaultPlan {
            server_crashes: vec![
                g2pl_faults::ServerCrashWindow::fixed(4_000, 1_500),
                g2pl_faults::ServerCrashWindow::fixed(15_000, 800),
            ],
            ..Default::default()
        });
        let m = S2plEngine::new(c).run();
        assert_eq!(m.faults.server_crashes, 2);
        assert!(m.faults.reregistrations > 0, "handshake never ran");
        assert!(m.faults.server_msgs_lost > 0, "outage lost no messages");
        assert_eq!(m.aborts.trials(), 300, "run completed despite crashes");
    }

    #[test]
    fn server_crash_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(6, 50, 0.3);
            c.faults = Some(g2pl_faults::FaultPlan {
                drop_prob: 0.02,
                server_crashes: vec![g2pl_faults::ServerCrashWindow {
                    shard: 0,
                    at: 5_000,
                    down_for: 1_000,
                    jitter: 400,
                }],
                ..Default::default()
            });
            S2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.server_msgs_lost, b.faults.server_msgs_lost);
        assert_eq!(a.faults.reregistrations, b.faults.reregistrations);
    }

    #[test]
    fn client_crash_is_recovered() {
        let mut c = cfg(6, 50, 0.3);
        c.faults = Some(g2pl_faults::FaultPlan {
            crashes: vec![g2pl_faults::CrashWindow {
                client: 2,
                at: 4_000,
                down_for: 2_000,
            }],
            ..Default::default()
        });
        let m = S2plEngine::new(c).run();
        assert_eq!(m.faults.crashes, 1);
        assert_eq!(m.aborts.trials(), 300, "run completed despite the crash");
    }
}
