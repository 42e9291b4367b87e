//! Caching two-phase locking (c-2PL) — the extension variant of §3.1.
//!
//! "A variation of s-2PL that allows caching of locks across transaction
//! boundaries is called caching 2PL (c-2PL)." The paper evaluates only
//! s-2PL and g-2PL and notes the results "can be easily extended to the
//! c-2PL protocol"; we implement c-2PL so the benches can quantify that
//! claim.
//!
//! # Model
//!
//! After a transaction ends, its client *retains* the data items it
//! accessed, together with a shared cache lock registered in the server's
//! directory (exclusive locks demote to cached-shared at commit). A later
//! transaction at the same client reads a cached item locally — zero
//! messages, zero latency: the caching win.
//!
//! A write request for an item with remote cached copies triggers a
//! **callback** round: the server recalls every cached copy and ships the
//! exclusive grant only after the transactional lock is available *and*
//! every callback has been acknowledged. A client whose *current*
//! transaction is reading its cached copy defers the acknowledgement
//! until that transaction ends (the standard callback-locking rule, per
//! the paper's reference \[5\], Franklin & Carey). Deferred callbacks
//! create waits-for edges, so the deadlock detector sees them: a barrier
//! owner waits for every transaction pinning a cached copy of the item.
//!
//! The engine is the s-2PL lock server ([`ServerLocking`]) plus the
//! caches, the directory and the callback barriers below. It shares
//! s-2PL's deadlock search and adds the barrier edges through two hooks.
//! A new barrier runs the search from its owner, whose new edges all leave
//! it; a pin adds an edge into a transaction that waits for nothing at
//! that moment, so it cannot close a cycle. The skip rule therefore holds
//! with one more in-edge test: the trigger's client pins no item under a
//! live barrier.

use crate::config::EngineConfig;
use crate::kernel::{labels, Kernel, Labels, Protocol, CTRL_BYTES};
use crate::runtime::{ClientPhase, Ev, Message, TimerKind, TxnStatus};
use crate::s2pl::{S2pl, ServerLocking};
use g2pl_lockmgr::{LockMode, LockTable};
use g2pl_obs::TraceKind;
use g2pl_simcore::{ClientId, ItemId, SimTime, Slab, TxnId, Version};
use g2pl_wal::ServerImage;
use g2pl_workload::AccessMode;

/// A granted-but-callback-blocked exclusive request.
struct XBarrier {
    txn: TxnId,
    client: ClientId,
    acks_left: usize,
}

/// Exclusive grants waiting for callback acknowledgements: at most one
/// per item, also indexed by owner for the deadlock search.
struct Barriers {
    /// Indexed by `ItemId::index()`.
    by_item: Vec<Option<XBarrier>>,
    /// The items whose barrier each transaction owns, ascending, indexed
    /// by `TxnId::index()`.
    by_owner: Slab<Vec<ItemId>>,
}

impl Barriers {
    fn new(items: usize) -> Self {
        Barriers {
            by_item: (0..items).map(|_| None).collect(),
            by_owner: Slab::new(),
        }
    }

    fn get(&self, item: ItemId) -> Option<&XBarrier> {
        self.by_item[item.index()].as_ref()
    }

    fn get_mut(&mut self, item: ItemId) -> Option<&mut XBarrier> {
        self.by_item[item.index()].as_mut()
    }

    fn owned_by(&self, txn: TxnId) -> &[ItemId] {
        self.by_owner.get(txn.index()).map_or(&[], Vec::as_slice)
    }

    fn open(&mut self, item: ItemId, barrier: XBarrier) {
        debug_assert!(self.get(item).is_none(), "two barriers on {item}");
        sorted_insert(self.by_owner.ensure(barrier.txn.index()), item);
        self.by_item[item.index()] = Some(barrier);
    }

    fn close(&mut self, item: ItemId) {
        if let Some(b) = self.by_item[item.index()].take() {
            if let Some(owned) = self.by_owner.get_mut(b.txn.index()) {
                sorted_remove(owned, item);
            }
        }
    }

    /// Close every barrier `txn` owns.
    fn close_owned(&mut self, txn: TxnId) {
        if let Some(owned) = self.by_owner.get_mut(txn.index()) {
            for item in std::mem::take(owned) {
                self.by_item[item.index()] = None;
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.by_item.iter().all(Option::is_none)
    }
}

/// The cached copies each client's *current* transaction reads (they pin
/// the cache entry until transaction end), by client and by item.
struct Pins {
    /// A transaction touches at most a handful of items, so a linear
    /// scan of this list beats hashing.
    by_client: Vec<Vec<ItemId>>,
    /// The clients pinning each item, ascending, indexed by
    /// `ItemId::index()`.
    by_item: Vec<Vec<ClientId>>,
}

impl Pins {
    fn is_pinned(&self, client: ClientId, item: ItemId) -> bool {
        self.by_client[client.index()].contains(&item)
    }

    fn pin(&mut self, client: ClientId, item: ItemId) {
        if !self.is_pinned(client, item) {
            self.by_client[client.index()].push(item);
            sorted_insert(&mut self.by_item[item.index()], client);
        }
    }

    fn unpin_all(&mut self, client: ClientId) {
        for item in self.by_client[client.index()].drain(..) {
            sorted_remove(&mut self.by_item[item.index()], client);
        }
    }
}

/// The c-2PL simulation engine.
pub type C2plEngine = Kernel<C2pl>;

/// c-2PL's own state: the s-2PL lock server plus caching.
pub struct C2pl {
    /// The server shards' lock tables and versions, as in s-2PL.
    s: S2pl,
    /// Per-client cache contents, indexed by `ItemId::index()`: `Some(v)`
    /// when the client caches version `v` of the item.
    caches: Vec<Vec<Option<Version>>>,
    /// Items of the clients' current transactions read from the cache.
    pins: Pins,
    /// Callbacks received while the item was pinned; acknowledged at
    /// transaction end. A `Vec` (not a set) so every callback message
    /// gets exactly one acknowledgement, even if the same item is
    /// recalled twice across dismantled barriers.
    deferred_callbacks: Vec<Vec<ItemId>>,
    /// Server-side cache directory: which clients cache each item, as a
    /// sorted vector per item (so recall fan-out needs no re-sort).
    /// Indexed globally by item; each row is owned by the item's shard.
    directory: Vec<Vec<ClientId>>,
    barriers: Barriers,
}

impl ServerLocking for C2pl {
    fn locking(&self) -> &S2pl {
        &self.s
    }
    fn locking_mut(&mut self) -> &mut S2pl {
        &mut self.s
    }

    /// A transactional lock was granted; exclusive grants recall remote
    /// cached copies first.
    fn lock_granted(
        k: &mut Kernel<Self>,
        now: SimTime,
        client: ClientId,
        txn: TxnId,
        item: ItemId,
        mode: LockMode,
    ) {
        if mode.is_exclusive() {
            // The directory is kept sorted, so the recall fan-out below is
            // already in deterministic client order.
            let remote: Vec<ClientId> = k.p.directory[item.index()]
                .iter()
                .copied()
                .filter(|&c| c != client)
                .collect();
            // The writer's own stale copy is superseded by the grant.
            sorted_remove(&mut k.p.directory[item.index()], client);
            k.p.caches[client.index()][item.index()] = None;
            if !remote.is_empty() {
                for &target in &remote {
                    k.send_callback(target, item);
                }
                k.p.barriers.open(
                    item,
                    XBarrier {
                        txn,
                        client,
                        acks_left: remote.len(),
                    },
                );
                if k.faults_on {
                    // Callbacks (or their acks) can be lost: keep
                    // re-sending to the still-registered copies until the
                    // barrier opens or its owner dies.
                    k.cal.schedule_in(k.retry_base, Ev::CallbackRetry { txn });
                }
                // The new barrier can close a waits-for cycle (its owner
                // now waits on every transaction pinning a cached copy),
                // so detection must run here, not only on lock queueing.
                Self::detect_deadlocks(k, now, txn);
                return;
            }
        }
        k.send_grant(now, client, txn, item);
    }

    /// A barrier owner waits for every transaction pinning a cached copy
    /// of the item, in item then client order.
    fn barrier_waits(k: &Kernel<Self>, t: TxnId, out: &mut Vec<TxnId>) {
        for &item in k.p.barriers.owned_by(t) {
            for &c in &k.p.pins.by_item[item.index()] {
                if let Some(active) = &k.clients[c.index()].txn {
                    out.push(active.id);
                }
            }
        }
    }

    /// A live transaction is its client's current one, so a barrier edge
    /// enters `t` when its client pins an item under a live barrier.
    fn barrier_waits_on(k: &Kernel<Self>, t: TxnId) -> bool {
        let client = k.table.info(t).client;
        k.p.pins.by_client[client.index()].iter().any(|&item| {
            k.p.barriers
                .get(item)
                .is_some_and(|b| k.table.is_live(b.txn))
        })
    }

    /// Already granted: unless the exclusive grant is still gated on a
    /// callback barrier (the callback-retry timer then drives progress),
    /// the lost grant is re-shipped.
    fn grant_gated(&self, txn: TxnId, item: ItemId) -> bool {
        self.barriers.get(item).is_some_and(|b| b.txn == txn)
    }

    fn slice_applied(
        &mut self,
        committer: ClientId,
        writes: &[(ItemId, Version)],
        reads: &[ItemId],
        faults_on: bool,
    ) {
        for &(item, _) in writes {
            // Remote copies were recalled before the X grant; the writer
            // keeps the new version cached.
            debug_assert!(
                self.directory[item.index()].iter().all(|&c| c == committer),
                "cached copies survived an exclusive grant"
            );
            sorted_insert(&mut self.directory[item.index()], committer);
        }
        for &item in reads {
            // A commit-release can be retried and arrive late: by then
            // the reader may already have answered a callback and evicted
            // this copy (its ack possibly opening an exclusive barrier).
            // Re-inserting it would resurrect a directory entry the recall
            // protocol already retired, so consult the cache before
            // registering the copy.
            if faults_on && self.caches[committer.index()][item.index()].is_none() {
                continue;
            }
            sorted_insert(&mut self.directory[item.index()], committer);
        }
    }

    fn pinned(&self, client: ClientId, item: ItemId) -> bool {
        self.pins.is_pinned(client, item)
    }

    fn cached_on(&self, client: ClientId, shard: u32, cfg: &EngineConfig) -> Vec<ItemId> {
        self.caches[client.index()]
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|_| ItemId::new(i as u32)))
            .filter(|&item| cfg.shard_of(item) == shard)
            .collect()
    }

    /// A client that stays silent is presumed crashed, and a crashed
    /// c-2PL client lost its cache, so rebuilding the directory from the
    /// reports alone is exact, not merely safe.
    fn absorb_cached(&mut self, client: ClientId, cached: &[ItemId]) {
        for &item in cached {
            sorted_insert(&mut self.directory[item.index()], client);
        }
    }
}

impl Protocol for C2pl {
    const NAME: &'static str = "c-2PL";
    const LABELS: Labels = labels!("c2pl");
    const SERVER_BASED: bool = true;
    type Rebuilt = Vec<TxnId>;

    fn new(cfg: &EngineConfig) -> Self {
        let n = cfg.num_clients as usize;
        let items = cfg.num_items() as usize;
        C2pl {
            s: S2pl::with_config(cfg),
            caches: vec![vec![None; items]; n],
            pins: Pins {
                by_client: vec![Vec::new(); n],
                by_item: vec![Vec::new(); items],
            },
            deferred_callbacks: vec![Vec::new(); n],
            directory: vec![Vec::new(); items],
            barriers: Barriers::new(items),
        }
    }

    fn on_event(k: &mut Kernel<Self>, _now: SimTime, ev: Ev) {
        match ev {
            Ev::CallbackRetry { txn } => k.on_callback_retry(txn),
            other => unreachable!("event {other:?} is not part of the c-2PL protocol"),
        }
    }

    fn on_client_msg(k: &mut Kernel<Self>, now: SimTime, client: ClientId, msg: Message) {
        match msg {
            Message::SGrant { txn, item, version } => k.on_grant(now, client, txn, item, version),
            Message::Callback { item } => {
                if k.p.pins.is_pinned(client, item) {
                    // The current transaction reads this cached copy:
                    // defer the acknowledgement until it finishes.
                    k.p.deferred_callbacks[client.index()].push(item);
                } else {
                    k.p.caches[client.index()][item.index()] = None;
                    k.send_callback_ack(client, item);
                }
            }
            other => unreachable!("c-2PL client cannot receive {other:?}"),
        }
    }

    fn on_server_msg(k: &mut Kernel<Self>, now: SimTime, shard: usize, msg: Message) {
        let Message::CallbackAck { client, item } = msg else {
            k.on_lock_server_msg(now, shard, msg);
            return;
        };
        // Only an ack that actually evicts a directory entry may
        // decrement the barrier: duplicate acks (possible when a
        // dismantled barrier's callbacks race a successor barrier's) must
        // not release the successor early.
        let evicted = sorted_remove(&mut k.p.directory[item.index()], client);
        if let (true, Some(b)) = (evicted, k.p.barriers.get_mut(item)) {
            b.acks_left -= 1;
            if b.acks_left == 0 {
                let (txn, owner) = (b.txn, b.client);
                k.p.barriers.close(item);
                // Aborted owners dismantle their barriers eagerly, so a
                // surviving barrier always has a live owner.
                debug_assert_eq!(k.table.status(txn), TxnStatus::Active);
                k.send_grant(now, owner, txn, item);
            }
        }
    }

    /// Serve a read from the local cache: granted locally, instantly,
    /// with zero messages.
    fn serve_locally(
        k: &mut Kernel<Self>,
        now: SimTime,
        client: ClientId,
        txn: TxnId,
        idx: usize,
    ) -> bool {
        let (item, mode) = k.clients[client.index()].txn().spec.access(idx);
        if mode != AccessMode::Read {
            return false;
        }
        let Some(version) = k.p.caches[client.index()][item.index()] else {
            return false;
        };
        k.p.pins.pin(client, item);
        let c = &mut k.clients[client.index()];
        let active = c.txn_mut();
        active.versions.push(version);
        active.granted += 1;
        active.phase = ClientPhase::Thinking;
        let think = k.cfg.profile.draw_think(&mut c.time_rng);
        k.emit(TraceKind::CacheHit.at(now, Some(txn), Some(item), client));
        k.cal.schedule_in(
            think,
            Ev::Timer {
                client,
                kind: TimerKind::ThinkDone(txn),
            },
        );
        true
    }

    /// The commit decision point (see the s-2PL engine). The
    /// transaction's copies stay cached, writes demoted to shared.
    fn commit(k: &mut Kernel<Self>, now: SimTime, client: ClientId, txn: TxnId) {
        let active = k.clients[client.index()]
            .txn
            .take()
            // lint:allow(L3): commit is only reachable from a client with an active txn
            .expect("committing client has a transaction");
        debug_assert_eq!(active.id, txn);
        k.table.set_status(txn, TxnStatus::Committed);
        for (idx, &(item, mode)) in active.spec.accesses.iter().enumerate() {
            let observed = active.versions[idx];
            let cached = if mode == AccessMode::Write {
                observed + 1
            } else {
                observed
            };
            k.p.caches[client.index()][item.index()] = Some(cached);
        }
        let slices = k.commit_slices(&active);
        let committed = k.record_commit(now, client, &active, slices.len() as u32);
        k.emit(committed);
        k.log_commit(client, txn, &slices);
        k.send_commit_slices(client, txn, slices);
        // Pins release and deferred callbacks answer at transaction end
        // regardless; only the next transaction's start is gated on the
        // acks under faults.
        k.answer_deferred_callbacks(client);
        if k.faults_on {
            k.arm_retry(client);
        } else {
            k.schedule_next_txn(client);
        }
    }

    /// Abort the client's transaction locally (see the s-2PL engine),
    /// answering its deferred callbacks.
    fn finalize_abort(k: &mut Kernel<Self>, now: SimTime, client: ClientId, txn: TxnId) {
        if k.clients[client.index()]
            .txn
            .as_ref()
            .is_none_or(|a| a.id != txn)
        {
            return;
        }
        k.table.set_status(txn, TxnStatus::Aborted);
        k.end_aborted_txn(client, txn);
        k.emit(TraceKind::Aborted.at(now, Some(txn), None, client));
        k.answer_deferred_callbacks(client);
        k.schedule_next_txn(client);
    }

    // lint:allow(L5): the abort is emitted when it lands — the client emits TraceKind::Aborted on the notice; a server-side event here would double-count it for the P-properties
    fn abort_victim(k: &mut Kernel<Self>, now: SimTime, victim: TxnId) {
        debug_assert_eq!(k.table.status(victim), TxnStatus::Active);
        k.table.set_status(victim, TxnStatus::Aborting);
        k.retire_victim(victim);
        // Dismantle any callback barrier the victim owns: keeping its
        // exclusive lock until the acknowledgements drained could leave a
        // permanent deadlock (a pinning transaction may be waiting on
        // another lock the victim holds). Outstanding callbacks still
        // arrive and merely shrink the directory.
        k.p.barriers.close_owned(victim);
        k.release_victim(now, victim);
    }

    /// A crash loses the client's cache (and with it every pinned read and
    /// deferred callback): the server's directory becomes stale, which is
    /// safe — retried callbacks to a copy the client no longer holds are
    /// simply acknowledged, shrinking the directory back to truth.
    fn on_client_crash(k: &mut Kernel<Self>, client: ClientId) {
        k.p.caches[client.index()]
            .iter_mut()
            .for_each(|v| *v = None);
        k.p.pins.unpin_all(client);
        k.p.deferred_callbacks[client.index()].clear();
    }

    fn report(k: &Kernel<Self>, client: ClientId, shard: u32, epoch: u64) -> (u64, Message) {
        k.lock_report(client, shard, epoch)
    }

    fn absorb_report(k: &mut Kernel<Self>, shard: usize, client: ClientId, report: &Message) {
        k.absorb_lock_report(shard, client, report);
    }

    /// On top of the s-2PL state, a crashed shard loses its slice of the
    /// cache directory and every callback barrier there: the directory is
    /// rebuilt from re-registration reports, and barrier owners re-form
    /// their recalls through the ordinary request-retry path (their
    /// exclusive grant was never shipped, so it is deliberately absent
    /// from the durable grant history).
    fn wipe_shard(k: &mut Kernel<Self>, shard: usize) {
        k.wipe_locks(shard);
        let per = k.cfg.items.items_per_shard as usize;
        let range = shard * per..(shard + 1) * per;
        k.p.directory[range.clone()].iter_mut().for_each(Vec::clear);
        for i in range {
            k.p.barriers.close(ItemId::new(i as u32));
        }
    }

    fn restore_image(k: &mut Kernel<Self>, img: &ServerImage) {
        k.restore_versions(img);
    }

    fn rebuild(k: &mut Kernel<Self>, now: SimTime, shard: usize, img: ServerImage) -> Vec<TxnId> {
        k.restore_grants_from(now, shard, &img)
    }

    fn resume(k: &mut Kernel<Self>, now: SimTime, silent: Vec<TxnId>) {
        k.abort_silent(now, silent);
    }

    /// The in-doubt commit installs its write slice; the cache directory
    /// is deliberately left alone — directory truth after a crash comes
    /// exclusively from re-registration reports, and a client that never
    /// re-registered has lost its cache, so inventing entries here would
    /// resurrect dead copies.
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
            self.s.locks.iter().all(LockTable::is_quiescent),
            "locks leaked after drain"
        );
        assert!(self.barriers.is_empty(), "callback barriers leaked");
    }
}

impl Kernel<C2pl> {
    /// Release this transaction's cache pins and answer its deferred
    /// callbacks.
    fn answer_deferred_callbacks(&mut self, client: ClientId) {
        self.p.pins.unpin_all(client);
        let mut deferred = std::mem::take(&mut self.p.deferred_callbacks[client.index()]);
        deferred.sort_unstable();
        for item in deferred {
            self.p.caches[client.index()][item.index()] = None;
            self.send_callback_ack(client, item);
        }
    }

    fn send_callback(&mut self, target: ClientId, item: ItemId) {
        self.net.send(
            &mut self.cal,
            self.cfg.shard_site(item),
            target.into(),
            "c2pl.callback",
            CTRL_BYTES,
            Message::Callback { item },
        );
    }

    fn send_callback_ack(&mut self, client: ClientId, item: ItemId) {
        self.net.send(
            &mut self.cal,
            client.into(),
            self.cfg.shard_site(item),
            "c2pl.callback_ack",
            CTRL_BYTES,
            Message::CallbackAck { client, item },
        );
    }

    /// Re-send the callbacks still outstanding for the transaction's
    /// exclusive barrier(s). Directory entries shrink as acks land, so
    /// only unacknowledged copies are recalled again; a duplicate
    /// callback to a pinning client yields a duplicate ack, which the
    /// ack handler already refuses to double-count.
    fn on_callback_retry(&mut self, txn: TxnId) {
        let owned = self.p.barriers.owned_by(txn).to_vec();
        let owner = self.table.info(txn).client;
        for &item in &owned {
            let remote: Vec<ClientId> = self.p.directory[item.index()]
                .iter()
                .copied()
                .filter(|&c| c != owner)
                .collect();
            for target in remote {
                self.fsum.retries += 1;
                self.send_callback(target, item);
            }
        }
        if !owned.is_empty() {
            self.cal
                .schedule_in(self.retry_base, Ev::CallbackRetry { txn });
        }
    }
}

/// Insert `x` into a sorted row (no-op when present).
fn sorted_insert<T: Ord>(row: &mut Vec<T>, x: T) {
    if let Err(pos) = row.binary_search(&x) {
        row.insert(pos, x);
    }
}

/// Remove `x` from a sorted row; true when it was there.
fn sorted_remove<T: Ord>(row: &mut Vec<T>, x: T) -> bool {
    match row.binary_search(&x) {
        Ok(pos) => {
            row.remove(pos);
            true
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use std::collections::HashMap;

    fn cfg(clients: u32, latency: u64, pr: f64) -> EngineConfig {
        let mut c = EngineConfig::table1(ProtocolKind::C2pl, clients, latency, pr);
        c.warmup_txns = 50;
        c.measured_txns = 300;
        c.drain = true;
        c
    }

    #[test]
    fn single_client_read_only_hits_cache() {
        let mut c = cfg(1, 100, 1.0);
        c.items = crate::config::ItemSpace::single(3); // tiny pool: every item is soon cached
        c.profile.max_items = 3;
        let m = C2plEngine::new(c).run();
        assert_eq!(m.aborted_total, 0);
        assert!(m.committed_total >= 350);
        // After warm-up every read hits the cache; only the first few
        // accesses ever needed a grant.
        let grants = m.net.of_kind("c2pl.grant");
        assert!(
            grants < m.committed_total / 10,
            "cached reads should eliminate grants: {grants} grants for {} txns",
            m.committed_total
        );
    }

    #[test]
    fn cached_reads_beat_s2pl_on_read_only_hot_data() {
        use crate::s2pl::S2plEngine;
        let c = cfg(4, 250, 1.0);
        let mc = C2plEngine::new(c.clone()).run();
        let mut cs = c;
        cs.protocol = ProtocolKind::S2pl;
        let ms = S2plEngine::new(cs).run();
        assert!(
            mc.response.mean() < ms.response.mean() * 0.8,
            "c-2PL {} should beat s-2PL {} on read-only hot data",
            mc.response.mean(),
            ms.response.mean()
        );
    }

    #[test]
    fn writes_invalidate_remote_caches() {
        let m = C2plEngine::new(cfg(6, 50, 0.5)).run();
        assert!(
            m.net.of_kind("c2pl.callback") > 0,
            "mixed workload must trigger callbacks"
        );
        assert_eq!(
            m.net.of_kind("c2pl.callback"),
            m.net.of_kind("c2pl.callback_ack"),
            "every callback must be acknowledged"
        );
        assert_eq!(m.aborts.trials(), 300);
    }

    #[test]
    fn determinism() {
        let a = C2plEngine::new(cfg(5, 100, 0.6)).run();
        let b = C2plEngine::new(cfg(5, 100, 0.6)).run();
        assert_eq!(a.response.mean(), b.response.mean());
        assert_eq!(a.net.messages(), b.net.messages());
    }

    #[test]
    fn write_heavy_workload_completes() {
        let m = C2plEngine::new(cfg(10, 50, 0.1)).run();
        assert_eq!(m.aborts.trials(), 300);
        assert!(m.committed_total > 0);
    }

    #[test]
    fn history_versions_are_monotone_per_item() {
        let mut c = cfg(6, 50, 0.5);
        c.record_history = true;
        let m = C2plEngine::new(c).run();
        let h = m.history.expect("history recorded");
        let mut last: HashMap<ItemId, Version> = HashMap::new();
        for rec in h.records() {
            for acc in &rec.accesses {
                if acc.mode.is_write() {
                    let prev = last.insert(acc.item, acc.version);
                    assert!(prev.is_none_or(|p| acc.version > p));
                }
            }
        }
    }

    #[test]
    fn lossy_run_completes_via_retries_and_leases() {
        // 5% message loss: request retries, callback re-sends, and the
        // server's transaction lease must recover every stall for the
        // drain to empty the calendar.
        let mut c = cfg(10, 50, 0.2);
        c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.05));
        let m = C2plEngine::new(c).run();
        assert_eq!(m.aborts.trials(), 300, "measurement window filled");
        assert!(m.faults.injected.dropped > 0, "no faults injected");
        assert!(m.faults.retries > 0, "losses recovered without retries");
    }

    #[test]
    fn lossy_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(8, 50, 0.3);
            c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.08));
            C2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.injected, b.faults.injected);
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        let base = C2plEngine::new(cfg(5, 100, 0.5)).run();
        let mut c = cfg(5, 100, 0.5);
        c.faults = Some(g2pl_faults::FaultPlan::default());
        let m = C2plEngine::new(c).run();
        assert_eq!(base.response.mean(), m.response.mean());
        assert_eq!(base.net.messages(), m.net.messages());
        assert_eq!(base.events, m.events);
        assert!(!m.faults.any());
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
        let m = C2plEngine::new(c).run();
        assert_eq!(m.faults.crashes, 1);
        assert_eq!(m.aborts.trials(), 300, "run completed despite the crash");
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
        let m = C2plEngine::new(c).run();
        assert_eq!(m.faults.server_crashes, 2);
        assert!(m.faults.reregistrations > 0, "handshake never ran");
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
            C2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.reregistrations, b.faults.reregistrations);
    }
}
