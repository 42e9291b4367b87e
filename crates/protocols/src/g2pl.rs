//! The group two-phase locking (g-2PL) engine — the paper's contribution.
//!
//! # Protocol mechanics (§3.2–3.4)
//!
//! The server owns every item's *home* state. While an item is checked
//! out, new requests for it accumulate in its collection window. When the
//! item comes home, the window closes: pending requests are ordered into a
//! forward list (FL) — consistently with the global precedence DAG when
//! deadlock avoidance is on — and the item is dispatched to the list's
//! first segment. From then on the item migrates client-to-client: every
//! committing (or aborted) holder forwards the item + FL to the next
//! segment, merging its lock release with the successor's lock grant; the
//! final holder returns the item to the server, which closes the next
//! window.
//!
//! Reader groups (maximal runs of shared entries) hold the item
//! concurrently; each reader sends its release to the writer that follows
//! the group (or to the server when the group is the list's tail). Under
//! MR1W (§3.4) that writer receives the data *together with* the readers
//! and computes concurrently, but may not pass its updates on until every
//! reader of the group has released.
//!
//! # Deadlocks
//!
//! Same-window deadlocks are *avoided* by the consistent-reordering rule
//! (§3.3). Cross-window deadlocks — including the read-only kind the
//! paper highlights — are *detected* on a waits-for graph built from the
//! item states and resolved by aborting a victim.
//!
//! The graph has two kinds of edge, both read lazily (`waits_of_into`):
//! a request pending in an item's window waits for every uncompleted live
//! entry of the item's dispatched list, and a live entry whose gates have
//! not all passed waits for every uncompleted live entry before its
//! segment (a reader skips its own group). Edges appear only when a
//! request queues, when a list is dispatched, when read expansion joins a
//! list, and when a hold is re-based (below); everything else — grants,
//! gate messages, completions, aborts, commits — only removes edges.
//! Searches run at the first two events, from every transaction a new
//! edge leaves, and break every cycle they reach. So every cycle is
//! broken where it forms, the graph is acyclic between events, and a new
//! cycle must use an edge the event just added. Two kinds of search
//! therefore find nothing, and are skipped:
//!
//! * **At a request.** Every new edge leaves the requester T, so a new
//!   cycle passes through T and needs an edge into it. Only two edges can
//!   enter T, both at an item where T has an uncompleted entry: from a
//!   live request in that item's window, and from an uncompleted live
//!   entry past T's segment whose gates have not all passed. When no item
//!   of T has either, the search is skipped.
//! * **At a dispatch.** The new edges leave members of the new list
//!   (toward their predecessors on it) or requests still in the item's
//!   window (toward members). When no live member has a request pending
//!   and every other uncompleted entry of each live member has passed its
//!   gates, a member's only edges lead to members nearer the list's head:
//!   every path from a member stays on the list and ends, so no cycle
//!   contains a member, and every new edge has one at an end. The search
//!   from every start is skipped.
//!
//! The premise fails in two places. Read expansion joins a list without
//! a search, so runs with `expand_reads` never skip. Under faults, a hold
//! re-based onto a redispatched list has its gates reset, which can give
//! its transaction edges no search saw, all leaving it: a search from it
//! that acts on nothing checks that they closed no cycle, and if they
//! did, the run searches from every start from then on, as it would
//! without the skip rules. Skips change no victim: each live start still
//! counts as a search, and debug builds run every skipped search and
//! assert that it finds nothing.
//!
//! ## Abort semantics
//!
//! The server's abort decision is authoritative at decision time: the
//! victim is marked `Aborting` immediately (excluding it from further
//! waits-for analysis), and any data that reaches its client afterwards
//! passes straight through instead of being granted — so a victim can
//! never "escape" by committing while the notice is in flight. How
//! quickly the abort's *effects* propagate (the notice, the migration of
//! the victim's held items) is governed by [`AbortEffect`]; see that
//! type for why the default matches the paper's instant-abort simulator
//! and what the faithful message accounting changes.
//!
//! # Faults
//!
//! The engine is a [`Protocol`] on the shared [`Kernel`], which runs
//! client retries, shard recovery and two-phase commitment. What g-2PL
//! adds: checkout leases that redispatch a stalled list, recovery that
//! rebuilds forward lists from the durable dispatch records, and — since
//! the commit is client-local — a phase 2 of its own (`Decide` /
//! `DecideAck`) that only retires the shards' prepared votes. A lease
//! expiry and a recovery re-dispatch the same way: `rebase` the item on
//! its last durable version, then dispatch the survivors, or `go_home`
//! when none are left.

use crate::config::{AbortEffect, EngineConfig, G2plOpts, ProtocolKind};
use crate::cycle::CycleFinder;
use crate::kernel::{Kernel, Protocol};
use crate::runtime::{ClientPhase, Ev, HoldReport, Message, TimerKind, TxnStatus};
use g2pl_fwdlist::window::PendingReq;
use g2pl_fwdlist::{CollectionWindow, FlEntry, ForwardList, PrecedenceDag, Segment};
use g2pl_lockmgr::LockMode;
use g2pl_obs::{TraceEvent, TraceKind};
use g2pl_simcore::{sort_dedup_from, ClientId, ItemId, SimTime, SiteId, Slab, TxnId, Version};
use g2pl_wal::{LogRecord, ServerImage, ServerRecord};
use std::collections::BTreeMap;
use std::rc::Rc;

/// State of one dispatched forward list.
struct OutState {
    fl: Rc<ForwardList>,
    /// Oracle flag per entry: has this entry forwarded/released its hold?
    completed: Vec<bool>,
    /// True while every entry of the list is a reader (enables the
    /// read-expansion variant).
    all_readers: bool,
    /// Releases still expected from a trailing reader group (0 when the
    /// list ends in a writer).
    final_releases_left: usize,
    /// Home version the list was dispatched from; lease recovery re-bases
    /// the redispatch on this plus the list's committed writers.
    base_version: Version,
    /// Last time the checkout made observable progress (an entry
    /// completed, or a trailing release landed); drives the lease check.
    last_progress: SimTime,
    /// `from_pos` of every trailing-reader release already counted at the
    /// server (a duplicated release must not double-decrement).
    final_released: Vec<usize>,
}

/// Server-side state of one item.
struct ItemState {
    version: Version,
    /// Dispatch epoch, bumped on every (re-)dispatch: messages of a
    /// superseded checkout identify themselves as stale and are dropped.
    epoch: u64,
    out: Option<OutState>,
    window: CollectionWindow,
    /// True while the item is home but its window close is deferred by a
    /// pending `WindowTimer` (the `dispatch_delay` mode).
    holding: bool,
    /// Committed writers of this item whose versions have not yet come
    /// home — their sites' WAL records stay live until then.
    unpermanent_writers: Vec<TxnId>,
}

/// Client-side state of one forward-list entry: the item copy (or the
/// anticipation of it) held at a client for one transaction.
struct Hold {
    fl: Rc<ForwardList>,
    pos: usize,
    /// Dispatch epoch of `fl` (see [`Message::GData`]): lower-epoch
    /// messages for this hold are stale and dropped; a higher epoch
    /// supersedes the hold (a lease-expiry redispatch).
    epoch: u64,
    mode: LockMode,
    version: Version,
    data_arrived: bool,
    releases_expected: usize,
    /// `from_pos` of every reader release received so far (a duplicated
    /// release must not double-count).
    releases_from: Vec<usize>,
    granted: bool,
    forwarded: bool,
}

impl Hold {
    fn new(fl: Rc<ForwardList>, pos: usize, epoch: u64) -> Self {
        let mode = fl.entry(pos).mode;
        let releases_expected =
            if mode.is_exclusive() && pos > 0 && fl.entry(pos - 1).mode.is_shared() {
                match fl.segment_of(pos - 1) {
                    Segment::Readers(r) => r.len(),
                    Segment::Writer(_) => unreachable!("pos - 1 is shared"),
                }
            } else {
                0
            };
        Hold {
            fl,
            pos,
            epoch,
            mode,
            version: 0,
            data_arrived: false,
            releases_expected,
            releases_from: Vec::new(),
            granted: false,
            forwarded: false,
        }
    }

    /// All gate messages received: the hold can be forwarded onward once
    /// the transaction finishes.
    fn gates_passed(&self) -> bool {
        self.data_arrived && self.releases_from.len() >= self.releases_expected
    }

    /// Whether the owning transaction may be granted access (MR1W lets a
    /// writer start on data arrival, before the reader releases).
    fn grant_ready(&self, mr1w: bool) -> bool {
        if mr1w && self.mode.is_exclusive() {
            self.data_arrived
        } else {
            self.gates_passed()
        }
    }
}

/// Which skip rule (see the module doc) proved a deadlock probe finds
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SkipRule {
    /// Nothing waits for the transaction whose request just queued.
    Request,
    /// No member of the just-dispatched list waits off that list.
    Dispatch,
}

/// The g-2PL simulation engine.
pub type G2plEngine = Kernel<G2pl>;

/// g-2PL's own state: item homes and windows at the server, holds at the
/// clients, and the deadlock-analysis indexes.
pub struct G2pl {
    opts: G2plOpts,
    items: Vec<ItemState>,
    /// Client-side holds, slab-indexed by transaction: each slot is the
    /// (few) forward-list entries that transaction holds, in arrival
    /// order. A transaction touches a handful of items, so a linear scan
    /// of its slot beats any keyed map.
    holds: Slab<Vec<(ItemId, Hold)>>,
    /// Reverse index: the items on whose *dispatched* forward list each
    /// transaction still has an uncompleted entry, with the entry's
    /// position on that list, in push order. Drives the lazy waits-for
    /// search without rebuilding a global graph per event.
    entries_of: Slab<Vec<(ItemId, usize)>>,
    /// Per-client knowledge of dead forward-list entries, fed by GPrune
    /// multicasts; consulted when forwarding to skip aborted writers.
    /// Outer index = client, slab index = pruned txn, payload = items.
    pruned: Vec<Slab<Vec<ItemId>>>,
    dag: PrecedenceDag,
    /// The item each transaction has a request pending on, if any.
    pending_of: Slab<Option<ItemId>>,
    /// Reusable DFS state for deadlock detection.
    finder: CycleFinder,
    /// Reusable buffer of probe starts for post-dispatch detection.
    start_scratch: Vec<TxnId>,
    /// Whether every waits-for edge so far was added by an event that
    /// searched from it, so the graph is acyclic between events and the
    /// skip rules apply (see the module doc). False from the start with
    /// read expansion; latched false by a hold re-base that re-opens a
    /// passed gate.
    every_edge_searched: bool,
    arrival_seq: u64,
    max_fl_len: usize,
    window_closes: u64,
    /// Coordinator-side phase-2 state: committed multi-home transactions
    /// whose [`Message::Decide`] is still unacknowledged, mapped to the
    /// bitmask of shards that still owe a [`Message::DecideAck`]. The
    /// decision itself is durable (commit oracle + client WAL); this map
    /// only drives retransmission.
    pending_decides: BTreeMap<TxnId, u64>,
}

impl G2pl {
    /// The hold of `(item, txn)`, if the data (or its anticipation) is at
    /// the client.
    fn hold(&self, item: ItemId, txn: TxnId) -> Option<&Hold> {
        self.holds
            .get(txn.index())?
            .iter()
            .find(|(i, _)| *i == item)
            .map(|(_, h)| h)
    }

    fn hold_mut(&mut self, item: ItemId, txn: TxnId) -> Option<&mut Hold> {
        self.holds
            .get_mut(txn.index())?
            .iter_mut()
            .find(|(i, _)| *i == item)
            .map(|(_, h)| h)
    }

    /// A request for the next window, stamped with the next arrival:
    /// a new request, or a survivor of a redispatched list.
    fn pending_req(&mut self, entry: FlEntry) -> PendingReq {
        self.arrival_seq += 1;
        PendingReq {
            entry,
            arrival: self.arrival_seq - 1,
            restarts: 0,
        }
    }
}

impl Protocol for G2pl {
    const NAME: &'static str = "g-2PL";
    const SERVER_BASED: bool = false;

    fn new(cfg: &EngineConfig) -> Self {
        let ProtocolKind::G2pl(opts) = cfg.protocol.clone() else {
            // lint:allow(L3): constructor precondition, caught by config validation
            panic!("G2plEngine requires a g-2PL configuration");
        };
        G2pl {
            every_edge_searched: !opts.expand_reads,
            opts,
            items: (0..cfg.num_items())
                .map(|_| ItemState {
                    version: 0,
                    epoch: 0,
                    out: None,
                    window: CollectionWindow::new(),
                    holding: false,
                    unpermanent_writers: Vec::new(),
                })
                .collect(),
            holds: Slab::new(),
            entries_of: Slab::new(),
            pruned: (0..cfg.num_clients).map(|_| Slab::new()).collect(),
            dag: PrecedenceDag::new(),
            pending_of: Slab::new(),
            finder: CycleFinder::default(),
            start_scratch: Vec::new(),
            arrival_seq: 0,
            max_fl_len: 0,
            window_closes: 0,
            pending_decides: BTreeMap::new(),
        }
    }

    fn on_event(k: &mut Kernel<Self>, now: SimTime, ev: Ev) {
        match ev {
            Ev::WindowTimer { item } => k.on_window_timer(now, item),
            Ev::LeaseCheck { item, epoch } => k.on_lease_check(now, item, epoch),
            other => unreachable!("event {other:?} is not part of the g-2PL protocol"),
        }
    }

    fn on_client_msg(k: &mut Kernel<Self>, now: SimTime, client: ClientId, msg: Message) {
        match msg {
            Message::GData {
                item,
                version,
                fl,
                pos,
                from_txn,
                epoch,
            } => {
                let txn = fl.entry(pos).txn;
                debug_assert_eq!(fl.entry(pos).client, client);
                if k.stale_copy(item, txn, epoch, |h| h.data_arrived) {
                    return;
                }
                k.emit(TraceKind::DataArrived.at(now, Some(txn), Some(item), client));
                if let Some(ft) = from_txn {
                    // The forwarder's release rode this hop (§3.2 merge):
                    // it reaches a client, not the server, so it costs the
                    // releasing transaction no extra sequential round.
                    k.emit(TraceKind::ReleaseArrived.at(now, Some(ft), Some(item), client));
                }
                let hold = k.hold_or_insert(item, txn, &fl, pos, epoch);
                hold.data_arrived = true;
                hold.version = version;
                k.after_gate_update(now, client, item, txn);
            }
            Message::GReaderRelease {
                item,
                version,
                fl,
                from_pos,
                to_pos,
                epoch,
                carries_item,
            } => {
                // lint:allow(L3): the sender set to_pos on every client-bound release
                let w = to_pos.expect("client-bound release has a writer position");
                let txn = fl.entry(w).txn;
                debug_assert_eq!(fl.entry(w).client, client);
                if k.stale_copy(item, txn, epoch, |h| h.releases_from.contains(&from_pos)) {
                    return;
                }
                k.emit(TraceKind::ReleaseArrived.at(
                    now,
                    Some(fl.entry(from_pos).txn),
                    Some(item),
                    client,
                ));
                let hold = k.hold_or_insert(item, txn, &fl, w, epoch);
                hold.releases_from.push(from_pos);
                if carries_item {
                    hold.data_arrived = true;
                    hold.version = version;
                }
                debug_assert!(
                    hold.releases_from.len() <= hold.releases_expected,
                    "more releases than readers for {item} at {txn}"
                );
                k.after_gate_update(now, client, item, txn);
            }
            Message::DecideAck { txn, shard } => {
                if let Some(mask) = k.p.pending_decides.get_mut(&txn) {
                    *mask &= !(1u64 << shard);
                    if *mask == 0 {
                        k.p.pending_decides.remove(&txn);
                    }
                }
            }
            Message::GPrune { item, txn } => {
                let v = k.p.pruned[client.index()].ensure(txn.index());
                if !v.contains(&item) {
                    v.push(item);
                }
            }
            other => unreachable!("g-2PL client cannot receive {other:?}"),
        }
    }

    fn on_server_msg(k: &mut Kernel<Self>, now: SimTime, shard: usize, msg: Message) {
        match msg {
            Message::LockReq {
                txn,
                client,
                item,
                mode,
            } => {
                // An active transaction's request (the kernel triaged it).
                if k.faults_on() {
                    // Retransmission of a request the server already has:
                    // either still gathering in a window, or already on a
                    // dispatched list (its grant is in flight, or the item
                    // lease will recover it).
                    if k.p.pending_of.get(txn.index()).copied().flatten() == Some(item) {
                        return;
                    }
                    if k.p
                        .entries_of
                        .get(txn.index())
                        .is_some_and(|v| v.iter().any(|&(i, _)| i == item))
                    {
                        return;
                    }
                }
                k.on_request(now, txn, client, item, mode);
            }
            Message::GReturn {
                item,
                version,
                txn,
                epoch,
            } => {
                let st = &k.p.items[item.index()];
                if st.epoch != epoch || st.out.is_none() {
                    // A return from a superseded checkout, or a duplicated
                    // return for one already processed.
                    debug_assert!(k.faults_on(), "stale return on a reliable network");
                    return;
                }
                // The final holder's release reaches the server: its one
                // extra sequential round (the "+1" of `2m + 1`).
                k.emit(TraceKind::ReleaseArrived.at(
                    now,
                    Some(txn),
                    Some(item),
                    SiteId::server(shard as u32),
                ));
                k.come_home(now, item, version);
            }
            Message::GReaderRelease {
                item,
                version,
                fl,
                from_pos,
                to_pos: None,
                epoch,
                ..
            } => {
                let st = &k.p.items[item.index()];
                let stale = st.epoch != epoch
                    || st
                        .out
                        .as_ref()
                        .is_none_or(|o| o.final_released.contains(&from_pos));
                if stale {
                    // A release from a superseded checkout, or a
                    // duplicated copy of one already counted.
                    debug_assert!(k.faults_on(), "stale release on a reliable network");
                    return;
                }
                // A tail-group reader's release travels to the server: a
                // full sequential round for that reader.
                k.emit(TraceKind::ReleaseArrived.at(
                    now,
                    Some(fl.entry(from_pos).txn),
                    Some(item),
                    SiteId::server(shard as u32),
                ));
                // lint:allow(L3): a reader release implies the item is still out
                let out = k.p.items[item.index()].out.as_mut().expect("item is out");
                out.final_released.push(from_pos);
                out.last_progress = now;
                debug_assert!(out.final_releases_left > 0);
                out.final_releases_left -= 1;
                if out.final_releases_left == 0 {
                    k.come_home(now, item, version);
                }
            }
            Message::Decide { txn } => {
                if k.prepared_at(txn, shard) {
                    k.slog(shard).append(ServerRecord::Committed { txn });
                    k.vote_applied(now, shard, txn);
                }
                // Always ack — even when recovery already resolved the
                // vote — so the coordinator's retry timer stops.
                k.net.send(
                    &mut k.cal,
                    SiteId::server(shard as u32),
                    k.table.info(txn).client.into(),
                    Message::DecideAck {
                        txn,
                        shard: shard as u32,
                    },
                );
            }
            other => unreachable!("g-2PL server cannot receive {other:?}"),
        }
    }

    /// Commit only once every hold's gates have passed; until the last
    /// MR1W reader release arrives the transaction waits in `CommitWait`.
    /// Without this certification step a writer that ran concurrently
    /// with the readers of the previous version could leak its *other*
    /// writes before those readers finish, producing non-serializable
    /// executions.
    fn commit_ready(k: &Kernel<Self>, txn: TxnId) -> bool {
        let client = k.table.info(txn).client;
        k.clients[client.index()]
            .txn()
            .spec
            .accesses
            .iter()
            .all(|&(item, _)| k.p.hold(item, txn).is_some_and(Hold::gates_passed))
    }

    fn commit(k: &mut Kernel<Self>, now: SimTime, client: ClientId, txn: TxnId) {
        let active = k.take_committing(client, txn);
        k.clients[client.index()].retry_progress();
        k.table.set_status(txn, TxnStatus::Committed);
        // Every hold forwards exactly once, so exactly one release arrival
        // (client- or server-bound) is expected per accessed item.
        let committed = k.record_commit(now, client, &active, active.spec.len() as u32);
        k.emit(committed);
        if let Some(wal) = &mut k.wal {
            let log = &mut wal[client.index()];
            for (&(item, mode), &observed) in active.spec.accesses.iter().zip(&active.versions) {
                if mode.is_write() {
                    log.append(LogRecord::Update {
                        txn,
                        item,
                        old: observed,
                        new: observed + 1,
                    });
                    // The new version is only on this site until the item
                    // migrates home.
                    k.p.items[item.index()].unpermanent_writers.push(txn);
                }
            }
            log.append(LogRecord::Commit { txn });
        }
        // Forward (or arm the gated forward of) every held item. §3.2:
        // "When a transaction commits, the client sends the new version of
        // the committed data items to the clients next on the respective
        // forward lists."
        for &(item, _) in &active.spec.accesses {
            k.try_forward(now, item, txn);
        }
        // The committed transaction no longer constrains future windows.
        k.p.dag.remove_txn(txn);
        k.schedule_next_txn(client);
    }

    /// Every involved shard voted yes: decide commit locally (the decision
    /// record is the client's WAL commit) and ship the decision as phase
    /// 2. If the abort won the voting race instead, the notice (or its
    /// lease-driven re-send) drives the client-side cleanup, and
    /// `abort_victim` retired the votes.
    fn votes_in(k: &mut Kernel<Self>, now: SimTime, client: ClientId, txn: TxnId) {
        if k.table.status(txn) != TxnStatus::Active {
            return;
        }
        debug_assert_eq!(
            k.clients[client.index()].txn().id,
            txn,
            "foreign prepare ack"
        );
        let involved = k.involved(client);
        Self::commit(k, now, client, txn);
        k.send_decides(client, txn, involved);
    }

    fn finalize_abort(k: &mut Kernel<Self>, now: SimTime, client: ClientId, txn: TxnId) {
        match k.table.status(txn) {
            TxnStatus::Committed => return, // the commit won the race
            TxnStatus::Aborted => return,
            TxnStatus::Active | TxnStatus::Aborting => {}
        }
        k.table.set_status(txn, TxnStatus::Aborted);
        k.emit(TraceKind::Aborted.at(now, Some(txn), None, client));
        let Some(active) = k.end_aborted_txn(client, txn) else {
            return;
        };
        k.schedule_next_txn(client);
        // Pass every satisfied hold straight through; unsatisfied ones
        // pass through when their gates fill.
        for &(item, _) in &active.spec.accesses {
            k.try_forward(now, item, txn);
        }
    }

    // lint:allow(L5): the abort is emitted when it lands — the client emits TraceKind::Aborted on the notice; a server-side event here would double-count it for the P-properties
    fn abort_victim(k: &mut Kernel<Self>, _now: SimTime, victim: TxnId) {
        debug_assert_eq!(k.table.status(victim), TxnStatus::Active);
        k.table.set_status(victim, TxnStatus::Aborting);
        if let Some(item) =
            k.p.pending_of
                .get_mut(victim.index())
                .and_then(Option::take)
        {
            k.p.items[item.index()].window.remove_txn(victim);
        }
        k.p.dag.remove_txn(victim);
        k.retire_victim(victim);
        let client = k.table.info(victim).client;
        // Abort coordination stays at shard 0 (leases and deadlock
        // detection are centralized there).
        if k.cfg.abort_effect == AbortEffect::Instant {
            k.net.send_instant(
                &mut k.cal,
                SiteId::SERVER0,
                client.into(),
                Message::AbortNotice { txn: victim },
            );
            // Prune notices are pointless under instant-abort semantics,
            // where dead entries already cost nothing.
            return;
        }
        k.send_abort_notice(SiteId::SERVER0, client, victim);
        // Multicast prune notices for the victim's not-yet-served entries
        // on dispatched forward lists, so upstream forwarders skip them.
        // The server knows every list it dispatched; the extra messages
        // are parallel control traffic, not sequential rounds.
        for (idx, st) in k.p.items.iter().enumerate() {
            let item = ItemId::new(idx as u32);
            let Some(out) = &st.out else { continue };
            let Some(pos) = out.fl.position_of(victim) else {
                continue;
            };
            if out.completed[pos] {
                continue;
            }
            for e in out.fl.entries() {
                if e.client == client {
                    continue;
                }
                k.net.send(
                    &mut k.cal,
                    k.cfg.shard_site(item),
                    e.client.into(),
                    Message::GPrune { item, txn: victim },
                );
            }
        }
    }

    /// The phase-2 retransmission timer fired: re-send the decision to
    /// every shard that has not yet acknowledged it.
    fn on_decide_retry(k: &mut Kernel<Self>, _now: SimTime, client: ClientId, txn: TxnId) {
        let Some(&mask) = k.p.pending_decides.get(&txn) else {
            return; // fully acknowledged: the timer dies
        };
        k.fsum.retries += mask.count_ones() as u64;
        k.send_decide_round(client, txn, mask);
    }

    /// Phase-2 retransmission timers died with the crash; the pending
    /// decisions themselves are durable (oracle + WAL), so re-arm one
    /// timer per still-unacknowledged decision this client owns. Item
    /// copies the site held are re-derived from its log, and any
    /// migration hop dropped while down is recovered by the server-side
    /// item lease, not by the client.
    fn on_client_restart(k: &mut Kernel<Self>, client: ClientId) {
        let unacked: Vec<TxnId> =
            k.p.pending_decides
                .keys()
                .copied()
                .filter(|&t| k.table.info(t).client == client)
                .collect();
        for txn in unacked {
            k.cal.schedule_in(
                SimTime::ZERO,
                Ev::Timer {
                    client,
                    kind: TimerKind::DecideRetry(txn),
                },
            );
        }
    }

    /// Report every live (unforwarded) forward-list slot this client
    /// holds or anticipates on the restarted shard's items — checked-out
    /// items, in-flight positions, and committed-but-unreturned versions
    /// all ride in the same report.
    fn report(k: &Kernel<Self>, client: ClientId, shard: u32, epoch: u64) -> Message {
        let mut holds = Vec::new();
        for (_, slots) in k.p.holds.iter() {
            for (item, h) in slots {
                if h.forwarded
                    || h.fl.entry(h.pos).client != client
                    || k.cfg.shard_of(*item) != shard
                {
                    continue;
                }
                holds.push(HoldReport {
                    txn: h.fl.entry(h.pos).txn,
                    item: *item,
                    pos: h.pos,
                    epoch: h.epoch,
                    version: h.version,
                    forwarded: h.forwarded,
                    data_arrived: h.data_arrived,
                });
            }
        }
        Message::GReregister {
            client,
            epoch,
            holds,
        }
    }

    /// Reports corroborate the durable dispatch history (restoration
    /// itself works off the log plus the commit oracle, so entries whose
    /// data was still in flight are recovered even when no client-side
    /// hold exists to report): a slot re-reported at the last durable
    /// epoch must be on the logged list.
    fn absorb_report(k: &mut Kernel<Self>, shard: usize, client: ClientId, report: &Message) {
        let Message::GReregister { holds, .. } = report else {
            return;
        };
        if cfg!(debug_assertions) {
            let img = k.image(shard);
            for r in holds {
                if let Some(d) = img.dispatches.get(&r.item) {
                    debug_assert!(
                        r.epoch != d.epoch || d.entries.iter().any(|&(t, _)| t == r.txn),
                        "{client} re-reported a slot the log never dispatched: {} {}",
                        r.txn,
                        r.item
                    );
                }
            }
        }
    }

    /// Checkout and window bookkeeping, dispatch epochs and installed
    /// versions of the shard's items die with it. Client-side holds are
    /// other sites and live on; `unpermanent_writers` is kept because it
    /// mirrors the *clients'* log obligations, which a server crash does
    /// not discharge. Other shards keep their state untouched, so the
    /// (global) precedence DAG is reset only in the single-shard case; at
    /// multi-shard, surviving shards' edges must live on, and the crashed
    /// shard's survivors are re-dispatched in durable-record order, which
    /// cannot contradict their existing edges.
    fn wipe_shard(k: &mut Kernel<Self>, shard: usize) {
        let per = k.cfg.items.items_per_shard as usize;
        let mut orphaned = std::mem::take(&mut k.p.start_scratch);
        orphaned.clear();
        for idx in shard * per..(shard + 1) * per {
            let item = ItemId::new(idx as u32);
            if let Some(out) = k.p.items[idx].out.take() {
                k.clear_entry_index(&out, item);
            }
            let st = &mut k.p.items[idx];
            orphaned.extend(st.window.pending().iter().map(|r| r.entry.txn));
            st.window = CollectionWindow::new();
            st.holding = false;
            st.version = 0;
            st.epoch = 0;
        }
        // Window entries die with the shard; their owners' request
        // retries re-enqueue them after recovery, which the
        // pending-request duplicate filter must not suppress.
        for txn in orphaned.drain(..) {
            if let Some(slot) = k.p.pending_of.get_mut(txn.index()) {
                *slot = None;
            }
        }
        k.p.start_scratch = orphaned;
        if k.cfg.num_shards() == 1 {
            k.p.dag = PrecedenceDag::new();
        }
    }

    /// Per-item versions and dispatch epochs come back from the image.
    /// Epochs restart at the last durably dispatched value, so every
    /// pre-crash in-flight segment is at most equal — and any
    /// post-recovery redispatch strictly above — the restored epoch: no
    /// grant can ever be issued from pre-crash forward-list state.
    fn restore_image(k: &mut Kernel<Self>, img: &ServerImage) {
        for (&item, &v) in &img.versions {
            k.p.items[item.index()].version = v;
        }
        for (&item, d) in &img.dispatches {
            k.p.items[item.index()].epoch = d.epoch;
        }
    }

    /// Per checked-out item, the durable dispatch record plus the commit
    /// oracle decide the outcome: committed writers advance the version
    /// base (their updates are recoverable from their sites' logs,
    /// exactly as in lease recovery), live entries of responding clients
    /// are re-dispatched under a fresh epoch, and live entries of silent
    /// clients are presumed dead and aborted. With no survivors the item
    /// comes home at the version a fault-free drain would have installed.
    /// Every item's survivors are found before any item is acted on: a
    /// redispatch can abort a transaction that another item still lists.
    fn recover(k: &mut Kernel<Self>, now: SimTime, shard: usize, img: ServerImage) {
        let mut silent: Vec<TxnId> = Vec::new();
        let mut redispatch = Vec::new();
        for &item in &img.out {
            // lint:allow(L3): every `out` item has a dispatch record
            let d = img.dispatches.get(&item).expect("out item was dispatched");
            let mut survivors = Vec::new();
            for &(txn, exclusive) in &d.entries {
                if k.table.status(txn) != TxnStatus::Active {
                    continue;
                }
                let owner = k.table.info(txn).client;
                if k.fault_state[shard].reregistered[owner.index()] {
                    let mode = if exclusive {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    survivors.push(k.p.pending_req(FlEntry::new(txn, owner, mode)));
                } else if !silent.contains(&txn) {
                    silent.push(txn);
                }
            }
            k.rebase(item, d.base, d.entries.iter().copied());
            redispatch.push((item, survivors));
        }
        for (item, survivors) in redispatch {
            if survivors.is_empty() {
                k.go_home(now, item);
            } else {
                k.fsum.redispatches += 1;
                k.dispatch(now, item, survivors);
            }
        }
        for txn in silent {
            // A survivors' redispatch may already have aborted a silent
            // transaction as its deadlock victim.
            if k.table.status(txn) == TxnStatus::Active {
                k.fsum.two_pc.silent_victims += 1;
                Self::abort_victim(k, now, txn);
            }
        }
    }

    /// Retire the prepared vote with a durable decision record. Unlike
    /// s-2PL there is no write slice to install — the committed versions
    /// migrated client-to-client and come home with the item returns.
    fn apply_committed(
        k: &mut Kernel<Self>,
        shard: usize,
        txn: TxnId,
        _writes: Vec<(ItemId, Version)>,
    ) {
        k.slog(shard).append(ServerRecord::Committed { txn });
    }

    fn assert_drained(&self) {
        for (i, item) in self.items.iter().enumerate() {
            assert!(item.out.is_none(), "item x{i} not home after drain");
            assert!(
                item.window.is_empty(),
                "window of x{i} not empty after drain"
            );
        }
        assert!(
            self.holds
                .iter()
                .all(|(_, v)| v.iter().all(|(_, h)| h.forwarded || !h.data_arrived)),
            "data arrived at a hold but was never passed on"
        );
        // Every transaction a window close put in the DAG has committed or
        // gone through `abort_victim`, and both remove it.
        assert_eq!(
            self.dag.constrained_count(),
            0,
            "precedence DAG still holds transactions after drain"
        );
    }

    fn fl_stats(&self) -> (usize, u64) {
        (self.max_fl_len, self.window_closes)
    }
}

impl Kernel<G2pl> {
    /// The hold of `(item, txn)`, created from `(fl, pos)` on first
    /// sight. A higher `epoch` than the existing hold's means a
    /// lease-expiry redispatch superseded the list the hold was created
    /// from: the hold is re-based on the new list (keeping any grant the
    /// transaction already observed) so its gate accounting and its
    /// eventual forward follow the live list, not the dead one.
    ///
    /// Re-basing a hold whose gates had passed re-opens them, which can
    /// give `txn` waits-for edges that no search has seen, all leaving
    /// `txn`. A search from `txn` that acts on nothing tells whether they
    /// closed a cycle; if they did, the skip rules are off for the rest
    /// of the run (see the module doc).
    fn hold_or_insert(
        &mut self,
        item: ItemId,
        txn: TxnId,
        fl: &Rc<ForwardList>,
        pos: usize,
        epoch: u64,
    ) -> &mut Hold {
        let v = self.p.holds.ensure(txn.index());
        let mut reopened = false;
        let at = match v.iter().position(|(i, _)| *i == item) {
            Some(at) => {
                if v[at].1.epoch < epoch {
                    debug_assert!(
                        self.net.faults.is_some(),
                        "epoch moved on a reliable network"
                    );
                    reopened = v[at].1.gates_passed();
                    let mut nh = Hold::new(Rc::clone(fl), pos, epoch);
                    nh.granted = v[at].1.granted;
                    nh.forwarded = v[at].1.forwarded;
                    v[at].1 = nh;
                }
                at
            }
            None => {
                v.push((item, Hold::new(Rc::clone(fl), pos, epoch)));
                v.len() - 1
            }
        };
        if reopened && self.p.every_edge_searched {
            // The fresh hold has passed no gate, so it has every edge the
            // caller's update can leave it.
            let mut finder = std::mem::take(&mut self.p.finder);
            let this = &*self;
            let acyclic = finder
                .find_cycle(txn, |t, out| this.waits_of_into(t, out))
                .is_none();
            self.p.finder = finder;
            self.p.every_edge_searched = acyclic;
        }
        &mut self.p.holds.ensure(txn.index())[at].1
    }

    // ---- client side ----

    /// Whether a gate message (data or reader release) of dispatch
    /// `epoch` for `(item, txn)` is a stale copy, which only faults make:
    /// a copy from a superseded dispatch, or a duplicated delivery of one
    /// the hold already `counted`.
    fn stale_copy(
        &self,
        item: ItemId,
        txn: TxnId,
        epoch: u64,
        counted: impl FnOnce(&Hold) -> bool,
    ) -> bool {
        self.faults_on()
            && self
                .p
                .hold(item, txn)
                .is_some_and(|h| epoch < h.epoch || (epoch == h.epoch && counted(h)))
    }

    /// Ship the commit decision to every involved shard and keep
    /// retransmitting until each has durably applied it. The decision is
    /// already durable at the coordinator (commit oracle + client WAL),
    /// so phase 2 runs detached from the transaction slot — the client
    /// moves on to its next transaction meanwhile.
    fn send_decides(&mut self, client: ClientId, txn: TxnId, involved: u64) {
        self.p.pending_decides.insert(txn, involved);
        self.send_decide_round(client, txn, involved);
    }

    /// One `Decide` per shard in `mask`, then re-arm the phase-2 timer.
    fn send_decide_round(&mut self, client: ClientId, txn: TxnId, mask: u64) {
        for shard in 0..self.cfg.num_shards() {
            if mask & (1u64 << shard) == 0 {
                continue;
            }
            self.net.send(
                &mut self.cal,
                client.into(),
                SiteId::server(shard),
                Message::Decide { txn },
            );
        }
        self.cal.schedule_in(
            self.retry_base,
            Ev::Timer {
                client,
                kind: TimerKind::DecideRetry(txn),
            },
        );
    }

    /// Forward the hold of `(item, txn)` if all gates have passed and the
    /// transaction is finished (committed, aborting, or aborted).
    fn try_forward(&mut self, now: SimTime, item: ItemId, txn: TxnId) {
        let status = self.table.status(txn);
        let Some(hold) = self.p.hold_mut(item, txn) else {
            return; // data not yet arrived; pass-through happens on arrival
        };
        if hold.forwarded || !hold.gates_passed() || status == TxnStatus::Active {
            return;
        }
        hold.forwarded = true;
        let fl = Rc::clone(&hold.fl);
        let pos = hold.pos;
        let epoch = hold.epoch;
        let mode = hold.mode;
        let out_version = if mode.is_exclusive() && status == TxnStatus::Committed {
            hold.version + 1
        } else {
            hold.version
        };
        let client = fl.entry(pos).client;
        let instant =
            self.cfg.abort_effect == AbortEffect::Instant && status != TxnStatus::Committed;

        // Oracle completion flag for deadlock analysis; completing an
        // entry is the progress the item lease watches for. The entry
        // index names the transaction's entry on the item's current list,
        // if it has one (a hold of a superseded dispatch may not).
        if let Some(v) = self.p.entries_of.get_mut(txn.index()) {
            let entry = v.iter().find(|&&(i, _)| i == item);
            if let (Some(&(_, p)), Some(out)) = (entry, &mut self.p.items[item.index()].out) {
                debug_assert_eq!(out.fl.position_of(txn), Some(p), "stale entry index");
                out.completed[p] = true;
                out.last_progress = now;
            }
            v.retain(|&(i, _)| i != item);
        }
        self.emit(TraceKind::Forwarded.at(now, Some(txn), Some(item), client));

        if mode.is_shared() {
            // Readers release to the writer after their group, or to the
            // server when the group is the list's tail. Under MR1W the
            // writer already has the data, so the release is a pure token;
            // otherwise it carries data — a real migration hop toward the
            // writer.
            let group = fl.segment_of(pos);
            let to_pos = fl.next_writer_at_or_after(group.end());
            let carries_item = to_pos.is_none() || !self.p.opts.mr1w;
            let to_site = match to_pos {
                Some(w) => {
                    let to = fl.entry(w);
                    if carries_item {
                        self.emit(TraceKind::HopDeparted.at(
                            now,
                            Some(to.txn),
                            Some(item),
                            to.client,
                        ));
                    }
                    SiteId::Client(to.client)
                }
                None => self.cfg.shard_site(item),
            };
            let msg = Message::GReaderRelease {
                item,
                version: out_version,
                fl,
                from_pos: pos,
                to_pos,
                epoch,
                carries_item,
            };
            self.send_hop(client.into(), to_site, msg, instant);
        } else {
            // Writers dispatch the next segment, or return the item home.
            // Consecutive successor *writers* known (via GPrune) to be
            // dead are skipped: forwarding through an aborted client
            // would waste a full serial network hop. Dead readers cost
            // nothing serial (copies travel in parallel and their
            // release is an immediate pass-through), and skipping them
            // would break the release accounting, so only writers are
            // skipped.
            let mut next = pos + 1;
            while next < fl.len()
                && fl.entry(next).mode.is_exclusive()
                && self.p.pruned[client.index()]
                    .get(fl.entry(next).txn.index())
                    .is_some_and(|v| v.contains(&item))
            {
                next += 1;
            }
            if fl.segment_at(next).is_some() {
                self.send_segment(
                    now,
                    client.into(),
                    item,
                    out_version,
                    &fl,
                    next,
                    Some(txn),
                    instant,
                    epoch,
                );
            } else {
                let msg = Message::GReturn {
                    item,
                    version: out_version,
                    txn,
                    epoch,
                };
                let home = self.cfg.shard_site(item);
                self.send_hop(client.into(), home, msg, instant);
            }
        }
    }

    /// Send one migration hop: over the network, or — for an abort under
    /// [`AbortEffect::Instant`] — with no delay and no fault injection.
    fn send_hop(&mut self, from: SiteId, to: SiteId, msg: Message, instant: bool) {
        if instant {
            self.net.send_instant(&mut self.cal, from, to, msg);
        } else {
            self.net.send(&mut self.cal, from, to, msg);
        }
    }

    /// Ship data to every member of the segment starting at `seg_start`,
    /// plus — under MR1W — the writer that follows a reader group.
    ///
    /// `from_txn` is the forwarding holder on a client-to-client hop
    /// (`None` on a server dispatch). Its release rides exactly one of the
    /// outgoing messages — the segment head — so the receiver-side release
    /// accounting sees one arrival per hold even for multi-copy segments.
    #[allow(clippy::too_many_arguments)]
    fn send_segment(
        &mut self,
        now: SimTime,
        from: SiteId,
        item: ItemId,
        version: Version,
        fl: &Rc<ForwardList>,
        seg_start: usize,
        from_txn: Option<TxnId>,
        instant: bool,
        epoch: u64,
    ) {
        let seg = fl
            .segment_at(seg_start)
            // lint:allow(L3): callers advance seg_start only to valid segment starts
            .expect("send_segment called past the end of the list");
        // The MR1W extra copy to the writer after a reader group chains
        // onto the segment's own range, so no target list is materialised.
        let extra_writer = match (&seg, self.p.opts.mr1w) {
            (Segment::Readers(r), true) => fl.next_writer_at_or_after(r.end),
            _ => None,
        };
        for pos in seg.range().chain(extra_writer) {
            let to = fl.entry(pos).client;
            self.emit(TraceKind::HopDeparted.at(now, Some(fl.entry(pos).txn), Some(item), to));
            let msg = Message::GData {
                item,
                version,
                fl: Rc::clone(fl),
                pos,
                from_txn: if pos == seg_start { from_txn } else { None },
                epoch,
            };
            self.send_hop(from, to.into(), msg, instant);
        }
    }

    /// A gate message (data or reader release) for `(item, txn)` arrived:
    /// grant the transaction if it is now ready, or forward the hold if
    /// the transaction has already finished.
    fn after_gate_update(&mut self, now: SimTime, client: ClientId, item: ItemId, txn: TxnId) {
        if self.table.status(txn) != TxnStatus::Active {
            self.try_forward(now, item, txn);
            return;
        }
        let mr1w = self.p.opts.mr1w;
        // lint:allow(L3): the hold was inserted by the caller one frame up
        let hold = self.p.hold_mut(item, txn).expect("just updated");
        if hold.granted {
            // Already granted: this gate message can only be a reader
            // release completing a pending MR1W commit certification.
            if self.clients[client.index()]
                .txn
                .as_ref()
                .is_some_and(|a| a.id == txn && a.phase == ClientPhase::CommitWait)
            {
                self.try_commit(now, client, txn);
            }
            return;
        }
        if !hold.grant_ready(mr1w) {
            return;
        }
        hold.granted = true;
        let version = hold.version;
        debug_assert_eq!(
            self.clients[client.index()].txn().id,
            txn,
            "hold grant for a foreign transaction"
        );
        self.grant_access(now, client, item, version, TraceKind::Granted);
    }

    // ---- server side ----

    fn on_request(
        &mut self,
        now: SimTime,
        txn: TxnId,
        client: ClientId,
        item: ItemId,
        mode: LockMode,
    ) {
        self.emit(TraceKind::RequestArrived.at(
            now,
            Some(txn),
            Some(item),
            self.cfg.shard_site(item),
        ));
        let entry = FlEntry::new(txn, client, mode);
        let req = self.p.pending_req(entry);
        let st = &mut self.p.items[item.index()];
        match &mut st.out {
            None if st.holding => {
                // The window-close of a returned item is deferred: join
                // the window; the pending WindowTimer will dispatch.
                st.window.push(req);
                *self.p.pending_of.ensure(txn.index()) = Some(item);
            }
            None => {
                // Item at home: the window is empty by invariant, so this
                // request forms a degenerate single-entry forward list and
                // is dispatched immediately ("initially at start-up time
                // and during periods of extremely light loading, the
                // forward-list will contain a single client").
                debug_assert!(st.window.is_empty(), "home item with pending window");
                self.dispatch(now, item, vec![req]);
            }
            Some(out) if self.p.opts.expand_reads && mode.is_shared() && out.all_readers => {
                // Read-expansion variant (§3.3): the dispatched list is
                // all-readers, so the server still holds the current
                // version and can join the new reader onto the dispatched
                // list immediately.
                let fl = Rc::make_mut(&mut out.fl);
                let pos = fl.len();
                fl.push(entry);
                out.completed.push(false);
                out.final_releases_left += 1;
                out.last_progress = now;
                self.p.entries_of.ensure(txn.index()).push((item, pos));
                let fl = Rc::clone(&out.fl);
                let version = st.version;
                let epoch = st.epoch;
                let home = self.cfg.shard_site(item);
                self.emit(TraceKind::FlExtended.at(now, Some(txn), Some(item), home));
                self.emit(TraceKind::HopDeparted.at(now, Some(txn), Some(item), client));
                self.net.send(
                    &mut self.cal,
                    home,
                    client.into(),
                    Message::GData {
                        item,
                        version,
                        fl,
                        pos,
                        from_txn: None,
                        epoch,
                    },
                );
            }
            Some(_) => {
                st.window.push(req);
                *self.p.pending_of.ensure(txn.index()) = Some(item);
                // §4: detection runs when a request cannot be granted.
                // Every new edge leaves `txn`, so a new cycle needs an
                // edge into it.
                let skip = (self.p.every_edge_searched && !self.waited_on(txn))
                    .then_some(SkipRule::Request);
                self.detect_deadlocks_from(now, &[txn], skip);
            }
        }
    }

    /// The item came home at `version`: its final holder returned it, or
    /// its trailing readers all released.
    fn come_home(&mut self, now: SimTime, item: ItemId, version: Version) {
        let st = &mut self.p.items[item.index()];
        st.version = version;
        // lint:allow(L3): both callers checked the item is out
        let out = st.out.take().expect("item is out");
        self.clear_entry_index(&out, item);
        self.go_home(now, item);
    }

    /// The item is home at its installed version: the version is durable
    /// at the shard, every committed version of it is permanent, so its
    /// writers' sites may garbage-collect, and the next window closes.
    fn go_home(&mut self, now: SimTime, item: ItemId) {
        let version = self.p.items[item.index()].version;
        let shard = self.cfg.shard_of(item) as usize;
        self.log_at(shard, ServerRecord::Home { item, version });
        let writers = std::mem::take(&mut self.p.items[item.index()].unpermanent_writers);
        if let Some(wal) = &mut self.wal {
            for txn in writers {
                let site = self.table.info(txn).client;
                wal[site.index()].mark_permanent(txn, item);
            }
        }
        self.close_window(now, item);
    }

    /// Re-base a stalled or orphaned checkout of `item` on the last
    /// durable version: its dispatch `base` plus one version per
    /// committed writer among its `(txn, exclusive)` entries.
    fn rebase(
        &mut self,
        item: ItemId,
        base: Version,
        entries: impl IntoIterator<Item = (TxnId, bool)>,
    ) {
        let mut committed_writes: Version = 0;
        for (txn, exclusive) in entries {
            if !exclusive || self.table.status(txn) != TxnStatus::Committed {
                continue;
            }
            committed_writes += 1;
            // The base leans on the writer's site log, which must keep
            // the version until the item is home: collecting it before
            // permanence would lose it.
            if let Some(wal) = &self.wal {
                let site = self.table.info(txn).client;
                debug_assert!(
                    wal[site.index()].awaits_permanence(txn),
                    "committed write of {txn} on {item} collected before permanence"
                );
            }
        }
        self.p.items[item.index()].version = base + committed_writes;
    }

    /// Close the (possibly empty) window of a just-returned item, or
    /// defer the close when `dispatch_delay` is configured.
    // lint:allow(L5): the close's only observable outcome is a dispatch, which emits TraceKind::WindowClosed itself; an empty or deferred close is a no-op by design
    fn close_window(&mut self, now: SimTime, item: ItemId) {
        let st = &mut self.p.items[item.index()];
        debug_assert!(st.out.is_none());
        if let Some(delay) = self.p.opts.dispatch_delay {
            if !st.holding {
                st.holding = true;
                self.cal
                    .schedule_in(SimTime::new(delay), Ev::WindowTimer { item });
            }
            return;
        }
        if st.window.is_empty() {
            return; // item stays home
        }
        let pending = st.window.drain(self.p.opts.fl_cap);
        self.dispatch(now, item, pending);
    }

    /// The deferred window close fires: dispatch whatever has gathered.
    fn on_window_timer(&mut self, now: SimTime, item: ItemId) {
        let st = &mut self.p.items[item.index()];
        if !st.holding {
            // A timer from a dispatch-delay hold that died with a server
            // crash (the crash clears `holding`).
            debug_assert!(self.srv_faults_on(), "window timer without a held item");
            return;
        }
        st.holding = false;
        // The item cannot leave home while holding; with nothing gathered
        // it simply sits home now.
        if st.out.is_some() || st.window.is_empty() {
            return;
        }
        let pending = st.window.drain(self.p.opts.fl_cap);
        self.dispatch(now, item, pending);
    }

    /// The per-checkout lease fired (faults only). If the dispatched list
    /// made progress within the last lease period the check re-arms for
    /// the remainder. Otherwise the first uncompleted entry is presumed
    /// dead — everything before it completed, so it alone blocks the
    /// list — its transaction is aborted, and the surviving suffix is
    /// reconstructed and re-dispatched from the last durable version
    /// (the dispatch base plus the list's committed writers, whose
    /// updates are recoverable from their sites' logs).
    fn on_lease_check(&mut self, now: SimTime, item: ItemId, epoch: u64) {
        let st = &self.p.items[item.index()];
        let Some(out) = st.out.as_ref().filter(|_| st.epoch == epoch) else {
            return; // the checkout this lease covered is finished
        };
        let idle = now.since(out.last_progress);
        if idle < self.lease {
            self.cal
                .schedule_in(self.lease.since(idle), Ev::LeaseCheck { item, epoch });
            return;
        }
        self.fsum.lease_expiries += 1;
        self.fsum.recovery_stall += idle.as_f64();
        // lint:allow(L3): checked just above
        let out = self.p.items[item.index()].out.take().expect("item is out");
        self.clear_entry_index(&out, item);
        // The victim cannot be committed: a commit forwards its holds
        // synchronously, which marks the entry completed at send time.
        let victim = out
            .completed
            .iter()
            .position(|&done| !done)
            .map(|p| out.fl.entry(p).txn);
        self.emit(TraceKind::LeaseExpired.at(now, victim, Some(item), self.cfg.shard_site(item)));
        match victim.map(|t| (t, self.table.status(t))) {
            Some((t, TxnStatus::Active)) => G2pl::abort_victim(self, now, t),
            Some((t, TxnStatus::Aborting)) => {
                // Already a deadlock victim; its notice may have been
                // lost, so answer the silence with a fresh one.
                let client = self.table.info(t).client;
                self.send_abort_notice(self.cfg.shard_site(item), client, t);
            }
            _ => {}
        }

        // Surviving suffix: every other uncompleted, still-live entry, in
        // list order.
        let mut survivors = Vec::new();
        for (p, e) in out.fl.entries().iter().enumerate() {
            if out.completed[p]
                || Some(e.txn) == victim
                || self.table.status(e.txn) != TxnStatus::Active
            {
                continue;
            }
            survivors.push(self.p.pending_req(*e));
        }
        let entries = out
            .fl
            .entries()
            .iter()
            .map(|e| (e.txn, e.mode.is_exclusive()));
        self.rebase(item, out.base_version, entries);

        self.fsum.redispatches += 1;
        self.emit(TraceKind::Redispatch.at(now, victim, Some(item), self.cfg.shard_site(item)));
        if survivors.is_empty() {
            // No live suffix: the item simply comes home.
            self.go_home(now, item);
        } else {
            self.dispatch(now, item, survivors);
        }
    }

    /// Order `pending` into a forward list and send the item out.
    fn dispatch(&mut self, now: SimTime, item: ItemId, pending: Vec<PendingReq>) {
        for req in &pending {
            if let Some(slot) = self.p.pending_of.get_mut(req.entry.txn.index()) {
                // Only clear a request pending on *this* item: a
                // lease-recovery redispatch can carry a survivor whose
                // pending request is on some other item's window.
                if *slot == Some(item) {
                    *slot = None;
                }
            }
        }
        let fl = self.p.opts.ordering.order(pending, &mut self.p.dag);
        debug_assert!(!fl.is_empty());
        self.p.window_closes += 1;
        self.p.max_fl_len = self.p.max_fl_len.max(fl.len());
        let home = self.cfg.shard_site(item);
        self.emit(TraceEvent {
            n: fl.len() as u32,
            ..TraceKind::WindowClosed.at(now, None, Some(item), home)
        });
        // Every list member leaves the server queue at window close;
        // entries past the first segment then sit in Migration until
        // their hop departs from the preceding holder.
        for e in fl.entries() {
            self.emit(TraceKind::FlOrdered.at(now, Some(e.txn), Some(item), home));
        }

        let final_releases = match fl.segments().last() {
            Some(Segment::Readers(r)) => r.len(),
            _ => 0,
        };
        let all_readers = fl.entries().iter().all(|e| e.mode.is_shared());
        let fl = Rc::new(fl);
        for (pos, e) in fl.entries().iter().enumerate() {
            self.p.entries_of.ensure(e.txn.index()).push((item, pos));
        }
        let st = &mut self.p.items[item.index()];
        let version = st.version;
        st.epoch += 1;
        let epoch = st.epoch;
        st.out = Some(OutState {
            fl: Rc::clone(&fl),
            completed: vec![false; fl.len()],
            all_readers,
            final_releases_left: final_releases,
            base_version: version,
            last_progress: now,
            final_released: Vec::new(),
        });
        if self.faults_on() {
            // One lease per checkout: it re-arms itself while the list
            // keeps making progress and recovers it when progress stops.
            self.cal
                .schedule_in(self.lease, Ev::LeaseCheck { item, epoch });
        }
        // Write-ahead: the list construction/reorder decision is durable
        // before the first data segment leaves the server.
        let shard = self.cfg.shard_of(item) as usize;
        self.log_at(
            shard,
            ServerRecord::Dispatch {
                item,
                epoch,
                base: version,
                entries: fl
                    .entries()
                    .iter()
                    .map(|e| (e.txn, e.mode.is_exclusive()))
                    .collect(),
            },
        );
        self.send_segment(now, home, item, version, &fl, 0, None, false, epoch);

        // A dispatch creates new waits-for edges (the list's internal
        // order, plus whatever was already pending against these
        // transactions elsewhere), so it can close a cycle just like an
        // enqueue can — detection must run here too, or a deadlocked
        // group sits blocked until an unrelated request happens to probe
        // it. Every new edge involves a member of the just-dispatched
        // list or a request still pending on this item, so probing those
        // transactions covers all newly possible cycles. When no member
        // waits outside the list, no new cycle can close.
        let mut starts = std::mem::take(&mut self.p.start_scratch);
        starts.clear();
        starts.extend(fl.entries().iter().map(|e| e.txn));
        starts.extend(
            self.p.items[item.index()]
                .window
                .pending()
                .iter()
                .map(|r| r.entry.txn),
        );
        let skip = (self.p.every_edge_searched && !self.waits_off_list(item, &fl))
            .then_some(SkipRule::Dispatch);
        self.detect_deadlocks_from(now, &starts, skip);
        self.p.start_scratch = starts;
    }

    // ---- deadlock analysis ----

    /// Remove every entry-index record of a finished forward list.
    fn clear_entry_index(&mut self, out: &OutState, item: ItemId) {
        for e in out.fl.entries() {
            if let Some(v) = self.p.entries_of.get_mut(e.txn.index()) {
                v.retain(|&(i, _)| i != item);
            }
        }
    }

    /// The transactions `t` is currently waiting for:
    /// * a pending request waits for every uncompleted live entry of the
    ///   item's dispatched list;
    /// * an ungranted/ungated dispatched entry waits for every
    ///   uncompleted live entry before it (readers skip their own group;
    ///   an MR1W writer's *commit* is certified against its reader group,
    ///   so it still waits on the group).
    ///
    /// Computed on demand so cycle detection explores only the reachable
    /// part of the waits-for relation instead of materialising the whole
    /// graph per event. Appends to `out` (sorted and deduplicated over
    /// the appended range) instead of allocating a fresh list per node.
    fn waits_of_into(&self, t: TxnId, out: &mut Vec<TxnId>) {
        let start = out.len();
        if !self.table.is_live(t) {
            return;
        }
        let p = &self.p;
        if let Some(x) = p.pending_of.get(t.index()).copied().flatten() {
            if let Some(o) = &p.items[x.index()].out {
                for (j, e) in o.fl.entries().iter().enumerate() {
                    if !o.completed[j] && self.table.is_live(e.txn) {
                        out.push(e.txn);
                    }
                }
            }
        }
        if let Some(entries) = p.entries_of.get(t.index()) {
            for &(item, i) in entries {
                let Some(o) = &p.items[item.index()].out else {
                    continue;
                };
                debug_assert_eq!(o.fl.entry(i).txn, t, "stale entry index");
                if o.completed[i] {
                    continue;
                }
                if p.hold(item, t).is_some_and(Hold::gates_passed) {
                    continue; // neither grant nor commit waits here
                }
                let skip_from = if o.fl.entry(i).mode.is_shared() {
                    o.fl.segment_of(i).range().start
                } else {
                    i
                };
                for j in 0..skip_from {
                    if !o.completed[j] {
                        let other = o.fl.entry(j).txn;
                        if self.table.is_live(other) {
                            out.push(other);
                        }
                    }
                }
            }
        }
        sort_dedup_from(out, start);
    }

    /// Request-time skip rule: whether some live transaction may wait for
    /// `t`. Only two kinds of edge enter `t`, both at an item where `t`
    /// has an uncompleted entry: from a request pending in the item's
    /// window, and from a live entry past `t`'s segment whose gates have
    /// not all passed.
    fn waited_on(&self, t: TxnId) -> bool {
        let p = &self.p;
        let Some(entries) = p.entries_of.get(t.index()) else {
            return false;
        };
        entries.iter().any(|&(item, i)| {
            let st = &p.items[item.index()];
            let Some(o) = &st.out else { return false };
            if o.completed[i] {
                return false;
            }
            st.window
                .pending()
                .iter()
                .any(|r| self.table.is_live(r.entry.txn))
                || (o.fl.segment_of(i).end()..o.fl.len()).any(|j| {
                    let u = o.fl.entry(j).txn;
                    !o.completed[j]
                        && self.table.is_live(u)
                        && !p.hold(item, u).is_some_and(Hold::gates_passed)
                })
        })
    }

    /// Dispatch-time skip rule: whether a live member of `item`'s new list
    /// `fl` may wait for anything but its predecessors on that list: it
    /// has a request pending, or an uncompleted entry on another item
    /// whose gates have not all passed.
    fn waits_off_list(&self, item: ItemId, fl: &ForwardList) -> bool {
        let p = &self.p;
        fl.entries().iter().any(|e| {
            let t = e.txn;
            self.table.is_live(t)
                && (p.pending_of.get(t.index()).copied().flatten().is_some()
                    || p.entries_of.get(t.index()).is_some_and(|v| {
                        v.iter().any(|&(y, i)| {
                            y != item
                                && p.items[y.index()]
                                    .out
                                    .as_ref()
                                    .is_some_and(|o| !o.completed[i])
                                && !p.hold(y, t).is_some_and(Hold::gates_passed)
                        })
                    }))
        })
    }

    /// Find and break every deadlock reachable from the given start
    /// transactions, re-probing a start until it is cycle-free. Uses the
    /// engine's [`CycleFinder`] so repeated probes reuse one set of DFS
    /// buffers. The probes keep their marks until a victim is aborted:
    /// while the graph is unchanged, a node finished without a cycle
    /// cannot reach one, so later starts do not expand it again.
    ///
    /// When a skip rule proved that the searches find nothing, every live
    /// start still counts as a search, and as a skipped one; debug builds
    /// run the searches anyway and assert that they find nothing.
    fn detect_deadlocks_from(&mut self, now: SimTime, starts: &[TxnId], skip: Option<SkipRule>) {
        let mut finder = std::mem::take(&mut self.p.finder);
        finder.forget();
        for &start in starts {
            if !self.table.is_live(start) {
                continue;
            }
            self.collector.deadlock_searches += 1;
            if let Some(rule) = skip {
                self.collector.deadlock_searches_skipped += 1;
                if rule == SkipRule::Dispatch {
                    self.collector.dispatch_searches_skipped += 1;
                }
                if cfg!(debug_assertions) {
                    let this = &*self;
                    let found =
                        finder.find_cycle_keeping_marks(start, |t, out| this.waits_of_into(t, out));
                    debug_assert!(
                        found.is_none(),
                        "skipped g-2PL {rule:?}-time search from {start} finds {found:?}"
                    );
                }
                continue;
            }
            while self.table.is_live(start) {
                let this = &*self;
                let found =
                    finder.find_cycle_keeping_marks(start, |t, out| this.waits_of_into(t, out));
                let Some(cycle) = found else { break };
                let victim = self.cfg.victim.choose(cycle, |t| {
                    self.p.entries_of.get(t.index()).map_or(0, Vec::len)
                });
                G2pl::abort_victim(self, now, victim);
                finder.forget();
            }
        }
        self.p.finder = finder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cfg(clients: u32, latency: u64, pr: f64) -> EngineConfig {
        let mut c = EngineConfig::table1(ProtocolKind::g2pl_paper(), clients, latency, pr);
        c.warmup_txns = 50;
        c.measured_txns = 300;
        c.drain = true;
        c
    }

    #[test]
    fn single_client_never_aborts() {
        let m = G2plEngine::new(cfg(1, 10, 0.5)).run();
        assert_eq!(m.aborted_total, 0);
        assert!(m.committed_total >= 350);
        assert!(m.response.mean() > 0.0);
    }

    #[test]
    fn single_item_single_access_response_is_rtt_plus_think() {
        // One client, one item: the item is always home when requested,
        // so the singleton dispatch gives response = 2L + one think.
        let mut c = cfg(1, 100, 0.0);
        c.items = crate::config::ItemSpace::single(1);
        c.profile.min_items = 1;
        c.profile.max_items = 1;
        let m = G2plEngine::new(c).run();
        assert!(m.response.min().unwrap() >= 201.0);
        assert!(m.response.max().unwrap() <= 203.0);
    }

    #[test]
    fn contended_update_run_completes() {
        let m = G2plEngine::new(cfg(10, 50, 0.2)).run();
        assert_eq!(m.aborts.trials(), 300);
        assert!(m.committed_total > 0);
        assert!(m.window_closes > 0);
        assert!(m.max_fl_len >= 1);
        assert!(m.deadlock_searches_skipped > 0, "no search was skipped");
        assert!(
            m.deadlock_searches_skipped < m.deadlock_searches,
            "every search was skipped"
        );
    }

    #[test]
    fn forward_lists_grow_under_contention() {
        // Many clients hammering few items must produce multi-entry
        // lists and client-to-client migration.
        let mut c = cfg(20, 200, 0.0);
        c.items = crate::config::ItemSpace::single(2);
        c.profile.max_items = 2;
        let m = G2plEngine::new(c).run();
        assert!(
            m.max_fl_len >= 3,
            "expected grouped dispatches, max fl = {}",
            m.max_fl_len
        );
        assert!(m.net.client_to_client_share() > 0.1);
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let a = G2plEngine::new(cfg(5, 100, 0.5)).run();
        let b = G2plEngine::new(cfg(5, 100, 0.5)).run();
        assert_eq!(a.response.mean(), b.response.mean());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
    }

    #[test]
    fn read_only_aborts_are_read_only_deadlocks() {
        // §3.3: g-2PL has a unique read-only deadlock; every abort in a
        // read-only system must be of a read-only transaction.
        let m = G2plEngine::new(cfg(20, 1, 1.0)).run();
        assert_eq!(m.read_only_aborts, m.aborts.hits());
    }

    #[test]
    fn mr1w_off_still_correct() {
        let mut c = cfg(10, 50, 0.6);
        if let ProtocolKind::G2pl(o) = &mut c.protocol {
            o.mr1w = false;
        }
        let m = G2plEngine::new(c).run();
        assert_eq!(m.aborts.trials(), 300);
        // The only run whose reader releases carry the item to the next
        // writer: pins their count and the bytes they add.
        assert_eq!(m.net.of_kind("reader_release"), 567);
        assert_eq!(m.net.bytes(), 7_902_064);
    }

    #[test]
    fn avoidance_off_still_correct() {
        let mut c = cfg(10, 50, 0.3);
        if let ProtocolKind::G2pl(o) = &mut c.protocol {
            o.ordering = g2pl_fwdlist::OrderingRule::fifo();
        }
        let m = G2plEngine::new(c).run();
        assert_eq!(m.aborts.trials(), 300);
    }

    #[test]
    fn expand_reads_eliminates_read_only_aborts() {
        let mut c = cfg(20, 1, 1.0);
        if let ProtocolKind::G2pl(o) = &mut c.protocol {
            o.expand_reads = true;
        }
        let m = G2plEngine::new(c).run();
        assert_eq!(
            m.aborted_total, 0,
            "read expansion removes read-only dependencies"
        );
    }

    #[test]
    fn expand_reads_runs_skip_no_search() {
        // A read joining a checked-out list adds waits-for edges without
        // a search, so the skip rules' premise fails from the start.
        let mut c = cfg(20, 50, 0.6);
        if let ProtocolKind::G2pl(o) = &mut c.protocol {
            o.expand_reads = true;
        }
        let m = G2plEngine::new(c).run();
        assert!(m.deadlock_searches > 0);
        assert_eq!(m.deadlock_searches_skipped, 0);
    }

    #[test]
    fn fl_cap_bounds_dispatched_lists() {
        let mut c = cfg(20, 200, 0.0);
        c.items = crate::config::ItemSpace::single(2);
        c.profile.max_items = 2;
        if let ProtocolKind::G2pl(o) = &mut c.protocol {
            o.fl_cap = Some(3);
        }
        let m = G2plEngine::new(c).run();
        assert!(m.max_fl_len <= 3, "cap violated: {}", m.max_fl_len);
    }

    #[test]
    fn dispatch_delay_batches_requests() {
        // Holding returned items open gathers larger windows than
        // immediate dispatch under the same workload.
        let mut immediate = cfg(20, 100, 0.0);
        immediate.items = crate::config::ItemSpace::single(2);
        immediate.profile.max_items = 2;
        let mut held = immediate.clone();
        if let ProtocolKind::G2pl(o) = &mut held.protocol {
            o.dispatch_delay = Some(200);
        }
        let mi = G2plEngine::new(immediate).run();
        let mh = G2plEngine::new(held).run();
        assert!(
            mh.window_closes < mi.window_closes,
            "held windows must close less often: {} vs {}",
            mh.window_closes,
            mi.window_closes
        );
        assert_eq!(mh.aborts.trials(), 300, "held run still completes");
    }

    #[test]
    fn messaged_aborts_send_prune_notices() {
        let mut c = cfg(20, 100, 0.2);
        c.abort_effect = crate::config::AbortEffect::Messaged;
        let m = G2plEngine::new(c).run();
        assert!(m.aborted_total > 0, "contended run should abort");
        assert!(
            m.net.of_kind("prune") > 0,
            "aborts with dispatched entries should multicast prunes"
        );
    }

    #[test]
    fn instant_aborts_skip_prune_notices() {
        let m = G2plEngine::new(cfg(20, 100, 0.2)).run();
        assert!(m.aborted_total > 0);
        assert_eq!(m.net.of_kind("prune"), 0);
    }

    #[test]
    fn instant_beats_messaged_under_contention() {
        let instant = cfg(20, 500, 0.2);
        let mut messaged = instant.clone();
        messaged.abort_effect = crate::config::AbortEffect::Messaged;
        let mi = G2plEngine::new(instant).run();
        let mm = G2plEngine::new(messaged).run();
        assert!(
            mi.response.mean() < mm.response.mean(),
            "instant {} should beat messaged {}",
            mi.response.mean(),
            mm.response.mean()
        );
    }

    #[test]
    fn history_versions_form_per_item_chains() {
        let mut c = cfg(8, 50, 0.5);
        c.record_history = true;
        let m = G2plEngine::new(c).run();
        let h = m.history.expect("history recorded");
        assert!(!h.is_empty());
        // Per item, committed write versions must be strictly increasing
        // in commit order (strict 2PL serializes writers).
        let mut last: BTreeMap<ItemId, Version> = BTreeMap::new();
        for rec in h.records() {
            for acc in &rec.accesses {
                if acc.mode.is_write() {
                    let prev = last.insert(acc.item, acc.version);
                    assert!(
                        prev.is_none_or(|p| acc.version > p),
                        "non-monotone write versions on {}",
                        acc.item
                    );
                }
            }
        }
    }

    #[test]
    fn lossy_run_completes_via_lease_recovery() {
        // 5% message loss: every migration hop is at risk, so the run
        // only finishes (the drain empties the calendar) if retries and
        // lease-expiry redispatch actually recover every stall.
        let mut c = cfg(10, 50, 0.2);
        c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.05));
        let m = G2plEngine::new(c).run();
        assert_eq!(m.aborts.trials(), 300, "measurement window filled");
        assert!(m.faults.injected.dropped > 0, "no faults injected");
        assert!(
            m.faults.retries > 0 || m.faults.lease_expiries > 0,
            "losses recovered without any recovery action"
        );
    }

    #[test]
    fn lossy_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(8, 50, 0.3);
            c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.08));
            G2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.injected, b.faults.injected);
        assert_eq!(a.faults.lease_expiries, b.faults.lease_expiries);
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        let base = G2plEngine::new(cfg(5, 100, 0.5)).run();
        let mut c = cfg(5, 100, 0.5);
        c.faults = Some(g2pl_faults::FaultPlan::default());
        let m = G2plEngine::new(c).run();
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
        let m = G2plEngine::new(c).run();
        assert_eq!(m.faults.crashes, 1);
        assert_eq!(m.aborts.trials(), 300, "run completed despite the crash");
    }

    #[test]
    fn server_crash_is_recovered() {
        let mut c = cfg(8, 50, 0.3);
        c.faults = Some(g2pl_faults::FaultPlan {
            server_crashes: vec![
                g2pl_faults::ServerCrashWindow::fixed(4_000, 1_500),
                g2pl_faults::ServerCrashWindow::fixed(15_000, 800),
            ],
            ..Default::default()
        });
        let m = G2plEngine::new(c).run();
        assert_eq!(m.faults.server_crashes, 2);
        assert!(m.faults.reregistrations > 0, "handshake never ran");
        assert!(m.faults.server_msgs_lost > 0, "outage lost no messages");
        assert_eq!(m.aborts.trials(), 300, "run completed despite crashes");
    }

    #[test]
    fn server_crash_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(6, 50, 0.4);
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
            G2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.server_msgs_lost, b.faults.server_msgs_lost);
        assert_eq!(a.faults.reregistrations, b.faults.reregistrations);
    }
}
