//! Shared simulation plumbing for all protocol engines: events, messages,
//! the network sender, per-client state, and the global transaction table.

use g2pl_faults::{FaultInjector, FaultPlan, Verdict};
use g2pl_fwdlist::ForwardList;
use g2pl_lockmgr::LockMode;
use g2pl_netmodel::{LatencyCfg, NetAccounting};
use g2pl_simcore::{Calendar, ClientId, ItemId, RngStream, SimTime, SiteId, TxnId, Version};
use g2pl_workload::{TxnGenerator, TxnSpec};
use std::rc::Rc;

/// Client-side timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// The inter-transaction idle period ended: start the next
    /// transaction.
    IdleDone,
    /// The per-operation think time of this transaction ended: issue the
    /// next request or commit. Carrying the transaction id makes stale
    /// timers (from a transaction aborted while the timer was pending)
    /// self-identifying.
    ThinkDone(TxnId),
    /// Fault-recovery retry timer (armed only when a fault plan is
    /// active): re-send the outstanding request or commit if it is still
    /// outstanding. `epoch` is the client's retry epoch at arming time;
    /// the client bumps its epoch on every progress transition, which
    /// makes stale retry timers self-cancelling.
    Retry {
        /// Client retry epoch at arming time.
        epoch: u64,
    },
    /// g-2PL phase-2 retransmission timer: re-send [`Message::Decide`]
    /// for the committed transaction to every shard still owing a
    /// [`Message::DecideAck`]. Runs independently of the client's main
    /// retry epoch because the decision outlives the transaction slot
    /// (the client may already be running its next transaction).
    DecideRetry(TxnId),
}

/// A committed-but-unacknowledged commit release carried by an s/c-2PL
/// re-registration report: `(txn, writes, reads)` exactly as the
/// outstanding [`Message::SCommit`] carries them.
pub type PendingCommit = (TxnId, Vec<(ItemId, Version)>, Vec<ItemId>);

/// Control-message payload size in bytes (requests, notices, acks).
const CTRL_BYTES: u64 = 64;

/// Payload size of one data item in bytes: a message shipping an item
/// costs this on top of its control header, and a WAL update record
/// carries two such images.
pub(crate) const ITEM_BYTES: u64 = 4096;

/// Per-entry size of a forward list (or of a re-reported forward-list
/// slot) inside a message, in bytes.
const FL_ENTRY_BYTES: u64 = 16;

/// Protocol messages. One enum serves every engine: the kernel handles
/// the shared ones, and each engine its own subset, treating the rest as
/// unreachable. A message names its own accounting kind
/// (`Message::kind`) and wire size (`Message::bytes`), so a send passes
/// nothing but the message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    // ---- every engine ----
    /// Client → server: lock + data request for one item.
    LockReq {
        /// Requesting transaction.
        txn: TxnId,
        /// Requesting client.
        client: ClientId,
        /// Requested item.
        item: ItemId,
        /// Requested mode.
        mode: LockMode,
    },
    /// Server → client: the transaction was chosen as a deadlock (or
    /// lease) victim.
    AbortNotice {
        /// Aborted transaction.
        txn: TxnId,
    },

    // ---- s-2PL / c-2PL ----
    /// Server → client: lock granted, data shipped.
    SGrant {
        /// Granted transaction.
        txn: TxnId,
        /// Granted item.
        item: ItemId,
        /// Version shipped.
        version: Version,
    },
    /// Client → server: commit; releases every lock and returns dirty
    /// data in a single message (§3.1 shrinking phase).
    SCommit {
        /// Committing transaction.
        txn: TxnId,
        /// Items written, with the installed versions.
        writes: Vec<(ItemId, Version)>,
        /// Items only read.
        reads: Vec<ItemId>,
    },
    /// Server → client: the commit's lock release was processed. Only
    /// sent when a fault plan is active — the client retransmits
    /// [`Message::SCommit`] until acknowledged, so a lost commit-release
    /// cannot strand its locks at the server.
    SCommitAck {
        /// Acknowledged transaction.
        txn: TxnId,
        /// The shard acknowledging its slice of the commit (a multi-home
        /// commit sends one [`Message::SCommit`] per involved shard, each
        /// acknowledged independently).
        shard: u32,
    },
    /// Server → client (c-2PL): recall the cached copy of an item.
    Callback {
        /// Item to drop from the cache.
        item: ItemId,
    },
    /// Client → server (c-2PL): cache entry dropped.
    CallbackAck {
        /// Responding client.
        client: ClientId,
        /// Item dropped.
        item: ItemId,
    },

    // ---- g-2PL ----
    /// Data + forward list arriving at the entry at `pos` (from the
    /// server at dispatch, or from the previous writer during migration).
    GData {
        /// The migrating item.
        item: ItemId,
        /// The version carried.
        version: Version,
        /// The dispatched forward list (travels with the data, §3.2).
        fl: Rc<ForwardList>,
        /// Receiving entry's position in `fl`.
        pos: usize,
        /// The forwarding holder when this hop is a client-to-client
        /// migration (its lock release rides this very message — the
        /// §3.2 release/grant merge); `None` on a server dispatch.
        from_txn: Option<TxnId>,
        /// Dispatch epoch of the forward list this data belongs to. The
        /// server bumps the item's epoch on every (re-)dispatch, so
        /// deliveries from a superseded checkout (stale duplicates, or
        /// survivors of a lease-expiry redispatch) identify themselves
        /// and are dropped. Constant within a run when no faults are
        /// injected.
        epoch: u64,
    },
    /// A reader's release: to the next writer on the list, or to the
    /// server when the reader group is the final segment.
    GReaderRelease {
        /// The item released.
        item: ItemId,
        /// The version the reader held.
        version: Version,
        /// The dispatched forward list.
        fl: Rc<ForwardList>,
        /// Releasing entry's position.
        from_pos: usize,
        /// Receiving writer's position, or `None` when sent to the server.
        to_pos: Option<usize>,
        /// Dispatch epoch of the forward list (see [`Message::GData`]).
        epoch: u64,
        /// Whether the release carries the item's data: always toward
        /// the server, and toward the writer in the non-MR1W protocol.
        /// Under MR1W the writer already has the data, so its release is
        /// a pure token.
        carries_item: bool,
    },
    /// Final entry → server: the item comes home with its final version.
    GReturn {
        /// The returning item.
        item: ItemId,
        /// Final version of this window.
        version: Version,
        /// The final holder whose release this return is.
        txn: TxnId,
        /// Dispatch epoch of the forward list (see [`Message::GData`]).
        epoch: u64,
    },
    /// Server → client: the given transaction's entry on `item`'s
    /// dispatched forward list is dead (its transaction aborted before
    /// the data reached it); forwarders that have learnt this skip the
    /// entry instead of paying a serial hop through an aborted client.
    GPrune {
        /// Item whose forward list contains the dead entry.
        item: ItemId,
        /// The aborted transaction.
        txn: TxnId,
    },

    // ---- two-phase commitment of multi-home transactions (all engines) ----
    /// Client (coordinator) → involved shard: phase-1 prepare. The shard
    /// forces a [`g2pl_wal::ServerRecord::Prepared`] with the write slice
    /// and the involved-shard mask before its ack leaves, per presumed
    /// abort. Sent only for multi-home transactions under a fault plan
    /// with server crashes; single-home commits keep the one-phase path
    /// (the single-participant presumed-abort optimization).
    Prepare {
        /// Preparing transaction.
        txn: TxnId,
        /// The write slice this shard would apply on commit.
        writes: Vec<(ItemId, Version)>,
        /// Bitmask of every involved shard (bit `k` = shard `k`).
        involved: u64,
    },
    /// Shard → client: yes vote, durably logged. Retransmitted
    /// [`Message::Prepare`]s are re-acked idempotently.
    PrepareAck {
        /// Prepared transaction.
        txn: TxnId,
        /// The voting shard.
        shard: u32,
    },
    /// Client → involved shard (g-2PL): phase-2 commit decision. Under
    /// g-2PL the commit itself is client-local and the data migrates via
    /// forward lists, so the decision message only retires the shard's
    /// prepared vote (forcing a `Committed` record). s-2PL/c-2PL reuse
    /// [`Message::SCommit`] as their phase 2 — it carries the write
    /// slice home anyway.
    Decide {
        /// Committed transaction.
        txn: TxnId,
    },
    /// Shard → client (g-2PL): the commit decision is durable at this
    /// shard; the client stops retransmitting [`Message::Decide`].
    DecideAck {
        /// Committed transaction.
        txn: TxnId,
        /// The acknowledging shard.
        shard: u32,
    },
    /// Recovering shard → surviving involved shard: what became of this
    /// transaction I hold a prepared vote for? Sent during the
    /// re-registration handshake for every in-doubt transaction; subject
    /// to shard↔shard partitions and retransmitted every recovery-check
    /// tick until answered.
    CommitQuery {
        /// The in-doubt transaction.
        txn: TxnId,
        /// The asking (recovering) shard, so the verdict can route back.
        from_shard: u32,
        /// The asker's recovery epoch (diagnostic; verdicts are facts
        /// about durable state and never go stale).
        epoch: u64,
    },
    /// Surviving shard → recovering shard: the commit status of a queried
    /// transaction, from this shard's durable state and the commit
    /// oracle. `None` means this shard cannot prove either outcome yet —
    /// the asker keeps the vote in doubt rather than presuming abort.
    CommitVerdict {
        /// The queried transaction.
        txn: TxnId,
        /// `Some(true)` = committed, `Some(false)` = aborted, `None` =
        /// unknown here.
        committed: Option<bool>,
    },

    // ---- server crash recovery (all engines) ----
    /// Restarted shard → every client: report your server-visible state.
    /// Broadcast at restart and re-broadcast to non-responders every
    /// retry period until the recovery deadline.
    ReregisterReq {
        /// The recovering shard (clients answer with that shard's slice
        /// of their state, to that shard).
        shard: u32,
        /// Recovery epoch: bumped per shard restart, echoed by replies,
        /// so reports from a superseded recovery are absorbed.
        epoch: u64,
    },
    /// Client → restarted server (s-2PL / c-2PL): the client's full
    /// server-visible state, from which the server re-acquires locks and
    /// rebuilds the cache directory. Pure function of client state, so
    /// duplicated deliveries are idempotent.
    SReregister {
        /// Reporting client.
        client: ClientId,
        /// Recovery epoch being answered.
        epoch: u64,
        /// The reported state. Boxed because the variant travels only
        /// while a shard recovers: inline, it would double every [`Ev`].
        report: Box<LockReport>,
    },
    /// Client → restarted server (g-2PL): every slot this client holds
    /// on a dispatched forward list, with its in-flight position and
    /// version. Pure function of client state (idempotent).
    GReregister {
        /// Reporting client.
        client: ClientId,
        /// Recovery epoch being answered.
        epoch: u64,
        /// One report per held forward-list slot.
        holds: Vec<HoldReport>,
    },
}

impl Message {
    /// The accounting label of this message's kind, as counted per kind
    /// by [`NetAccounting`]. Engine-neutral: the engine is
    /// `RunMetrics::protocol`.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Message::LockReq { .. } => "lock_request",
            Message::AbortNotice { .. } => "abort_notice",
            Message::SGrant { .. } => "grant",
            Message::SCommit { .. } => "commit_release",
            Message::SCommitAck { .. } => "commit_ack",
            Message::Callback { .. } => "callback",
            Message::CallbackAck { .. } => "callback_ack",
            Message::GData { .. } => "data",
            Message::GReaderRelease { .. } => "reader_release",
            Message::GReturn { .. } => "return",
            Message::GPrune { .. } => "prune",
            Message::Prepare { .. } => "prepare",
            Message::PrepareAck { .. } => "prepare_ack",
            Message::Decide { .. } => "decide",
            Message::DecideAck { .. } => "decide_ack",
            Message::CommitQuery { .. } => "commit_query",
            Message::CommitVerdict { .. } => "commit_verdict",
            Message::ReregisterReq { .. } => "reregister_req",
            Message::SReregister { .. } | Message::GReregister { .. } => "reregister",
        }
    }

    /// Wire size in bytes, from the payload: a control header, plus one
    /// item image per data item shipped, plus the forward list riding a
    /// g-2PL data hop. The bandwidth latency model prices transmission
    /// time from this, and the accounting sums it.
    pub(crate) fn bytes(&self) -> u64 {
        let payload = match self {
            Message::SGrant { .. } | Message::GReturn { .. } => ITEM_BYTES,
            Message::SCommit { writes, .. } => writes.len() as u64 * ITEM_BYTES,
            Message::GData { fl, .. } => ITEM_BYTES + fl.len() as u64 * FL_ENTRY_BYTES,
            Message::GReaderRelease { carries_item, .. } => u64::from(*carries_item) * ITEM_BYTES,
            // 12 bytes per prepared write: its item and version, not its
            // image.
            Message::Prepare { writes, .. } => 12 * writes.len() as u64,
            // 8 bytes per re-reported lock or cached copy.
            Message::SReregister { report, .. } => {
                8 * (report.held.len() + report.cached.len()) as u64
            }
            Message::GReregister { holds, .. } => holds.len() as u64 * FL_ENTRY_BYTES,
            Message::LockReq { .. }
            | Message::AbortNotice { .. }
            | Message::SCommitAck { .. }
            | Message::Callback { .. }
            | Message::CallbackAck { .. }
            | Message::GPrune { .. }
            | Message::PrepareAck { .. }
            | Message::Decide { .. }
            | Message::DecideAck { .. }
            | Message::CommitQuery { .. }
            | Message::CommitVerdict { .. }
            | Message::ReregisterReq { .. } => 0,
        };
        CTRL_BYTES + payload
    }
}

/// What an s/c-2PL client re-reports to a restarted shard in a
/// [`Message::SReregister`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockReport {
    /// The client's active transaction, if any.
    pub txn: Option<TxnId>,
    /// Server locks granted to the active transaction (checked-out
    /// items), in grant order.
    pub held: Vec<(ItemId, LockMode)>,
    /// A committed-but-unacknowledged commit release
    /// (committed-but-unreturned versions live here).
    pub pending: Option<PendingCommit>,
    /// c-2PL: items cached (with retained shared locks) across
    /// transaction boundaries; empty under s-2PL.
    pub cached: Vec<ItemId>,
}

/// One client-held forward-list slot, as re-reported during server crash
/// recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HoldReport {
    /// The transaction owning the slot.
    pub txn: TxnId,
    /// The checked-out item.
    pub item: ItemId,
    /// The slot's position on the dispatched forward list.
    pub pos: usize,
    /// Dispatch epoch of the forward list the slot belongs to; the
    /// server ignores reports from superseded dispatches.
    pub epoch: u64,
    /// The version held (committed-but-unreturned when `forwarded` is
    /// still false and the owner already committed).
    pub version: Version,
    /// True once the slot's release/forward has been sent.
    pub forwarded: bool,
    /// True once the item's data actually arrived at this slot.
    pub data_arrived: bool,
}

/// A calendar event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ev {
    /// A message arrives at a site.
    Deliver {
        /// Destination site.
        to: SiteId,
        /// Payload.
        msg: Message,
    },
    /// A client timer fires.
    Timer {
        /// The client whose timer fires.
        client: ClientId,
        /// Which timer.
        kind: TimerKind,
    },
    /// A server-side window-hold timer expired: close the item's window
    /// now (g-2PL `dispatch_delay` mode).
    WindowTimer {
        /// The held item.
        item: ItemId,
    },
    /// A server-shard CPU finished processing a message that had queued
    /// behind earlier work (only when `server_cpu_per_op > 0`).
    ServerProc {
        /// The shard whose CPU completes the work.
        shard: u32,
        /// The message whose processing completes now.
        msg: Message,
    },
    /// A scheduled client crash (`up == false`) or restart (`up == true`)
    /// from the fault plan.
    Fault {
        /// The client crashing or restarting.
        client: ClientId,
        /// `false` = crash, `true` = restart.
        up: bool,
    },
    /// Server-side lease check on an item's outstanding checkout (g-2PL).
    /// Stale if the item's dispatch epoch moved past `epoch`.
    LeaseCheck {
        /// The checked item.
        item: ItemId,
        /// Dispatch epoch the lease was armed for.
        epoch: u64,
    },
    /// Server-side idle-transaction lease check (s-2PL / c-2PL): if the
    /// transaction holds server resources but has shown no activity for a
    /// full lease period, it is presumed dead and aborted.
    TxnLease {
        /// The leased transaction.
        txn: TxnId,
    },
    /// Server-side callback retransmission check (c-2PL): re-send
    /// callbacks still outstanding for the transaction's exclusive
    /// barrier.
    CallbackRetry {
        /// The barrier-owning transaction.
        txn: TxnId,
    },
    /// A scheduled server-shard crash (`up == false`) or restart
    /// (`up == true`) from the fault plan.
    ServerFault {
        /// The shard crashing or restarting.
        shard: u32,
        /// `false` = crash, `true` = restart.
        up: bool,
    },
    /// Periodic check during a shard's post-restart re-registration
    /// handshake: re-broadcast [`Message::ReregisterReq`] (and re-send
    /// unanswered [`Message::CommitQuery`]s) to non-responders, or
    /// finish recovery at the deadline. Stale if the shard's recovery
    /// epoch moved past `epoch` (a later crash superseded this recovery).
    RecoveryCheck {
        /// The recovering shard.
        shard: u32,
        /// Recovery epoch the check was armed for.
        epoch: u64,
    },
}

// Every calendar entry copies an `Ev`, so cold recovery payloads go
// behind a `Box`: a new fat variant fails the build, not every event.
const _: () = assert!(std::mem::size_of::<Ev>() <= 72 && std::mem::size_of::<Message>() <= 56);

/// A serial server CPU: each message costs `per_op` units of processing,
/// and messages queue when they arrive faster than they are served.
///
/// §3.3 argues the forward-list reordering "computations are done while
/// the server is waiting for the data items to be returned" and so "do
/// not increase the transaction blocking time". The default cost of 0
/// models exactly that; a nonzero cost lets the `ext-server-cpu`
/// ablation check how much headroom the claim really has.
#[derive(Clone, Copy, Debug)]
pub struct ServerCpu {
    free_at: SimTime,
    per_op: SimTime,
}

impl ServerCpu {
    /// A CPU costing `per_op` units per processed message (0 = free).
    pub fn new(per_op: u64) -> Self {
        ServerCpu {
            free_at: SimTime::ZERO,
            per_op: SimTime::new(per_op),
        }
    }

    /// Charge one message arriving at `now`; returns the delay until its
    /// processing completes (0 when the CPU is free and costless).
    pub fn service(&mut self, now: SimTime) -> SimTime {
        if self.per_op == SimTime::ZERO {
            return SimTime::ZERO;
        }
        let start = if self.free_at > now {
            self.free_at
        } else {
            now
        };
        self.free_at = start.after(self.per_op);
        self.free_at.since(now)
    }
}

/// The network: the latency model, the fault injector of an active
/// plan, the accounting, and the send primitive.
pub struct Net {
    latency: LatencyCfg,
    /// The injector executing the run's fault plan (loss, duplication,
    /// delay, partitions, crash schedules); `None` on the paper's
    /// perfectly reliable network.
    pub(crate) faults: Option<FaultInjector>,
    /// Message/byte counters (public: engines move it into the metrics).
    pub acct: NetAccounting,
    /// `(time, sending site)` of injected message faults not yet drained
    /// into the engine's trace log (see `take_fault_marks`).
    fault_marks: Vec<(SimTime, SiteId)>,
}

impl Net {
    /// A network pricing every message with `latency`, executing `plan`
    /// when one is given, with the injector's `"faults"` stream derived
    /// from `seed`.
    pub fn new(latency: LatencyCfg, plan: Option<&FaultPlan>, seed: u64) -> Self {
        Net {
            latency,
            faults: plan.map(|p| FaultInjector::new(p.clone(), seed)),
            acct: NetAccounting::new(),
            fault_marks: Vec::new(),
        }
    }

    /// Drain the pending injected-fault marks (engines record one
    /// `FaultInjected` trace event per mark). The buffer is only ever
    /// non-empty when a fault plan is active.
    pub fn take_fault_marks(&mut self) -> Vec<(SimTime, SiteId)> {
        std::mem::take(&mut self.fault_marks)
    }

    /// Send `msg` from `from` to `to`: account it, price it with the
    /// latency model, and schedule its delivery on `cal` — or, under an
    /// active fault plan, as many deliveries as the injector's verdict
    /// says (none when dropped, two when duplicated).
    pub fn send(&mut self, cal: &mut Calendar<Ev>, from: SiteId, to: SiteId, msg: Message) {
        let delay = self.latency.delay(self.account(from, to, &msg));
        let verdict = match &mut self.faults {
            Some(inj) => inj.judge(from, to, cal.now()),
            None => Verdict::Deliver,
        };
        if verdict != Verdict::Deliver {
            self.fault_marks.push((cal.now(), from));
        }
        let delay = match verdict {
            Verdict::Deliver | Verdict::Duplicate => delay,
            Verdict::Delay(extra) => delay + extra,
            Verdict::Drop => return,
        };
        if verdict == Verdict::Duplicate {
            let copy = msg.clone();
            cal.schedule_in(delay, Ev::Deliver { to, msg: copy });
        }
        cal.schedule_in(delay, Ev::Deliver { to, msg });
    }

    /// Like [`Net::send`] but delivered in the same instant, bypassing
    /// the latency model *and* the fault injector: g-2PL's abort notice
    /// and the victim's item hops under the default
    /// [`crate::AbortEffect::Instant`] are a modelling construct of the
    /// paper's simulator, not real wire messages. They are still counted.
    pub fn send_instant(&mut self, cal: &mut Calendar<Ev>, from: SiteId, to: SiteId, msg: Message) {
        self.account(from, to, &msg);
        cal.schedule_in(SimTime::ZERO, Ev::Deliver { to, msg });
    }

    /// Count `msg` under its kind; returns its size in bytes.
    fn account(&mut self, from: SiteId, to: SiteId, msg: &Message) -> u64 {
        let bytes = msg.bytes();
        self.acct.record(from, to, msg.kind(), bytes);
        bytes
    }
}

/// One shard's crash/recovery state. Each shard is an independent fault
/// domain: it crashes, replays its own durable log, runs its own
/// epoch-bumped re-registration handshake, and resolves its own in-doubt
/// prepared votes, all without involving its peers beyond the
/// commit-status queries.
#[derive(Clone, Debug, Default)]
pub struct ShardFaultState {
    /// True while the shard is crashed (between the fault-plan crash and
    /// restart instants): every message addressed to it is dropped.
    pub down: bool,
    /// True from restart until the re-registration handshake finishes:
    /// only re-registration reports and commit-status traffic are
    /// accepted.
    pub recovering: bool,
    /// Recovery epoch, bumped once per restart of this shard. Stale
    /// recovery-check events and superseded re-registration replies
    /// identify themselves by a mismatched epoch.
    pub epoch: u64,
    /// When the current recovery began (restart instant).
    pub started: SimTime,
    /// Which clients have answered the current handshake.
    pub reregistered: Vec<bool>,
    /// The durable image replayed at restart, consumed by
    /// `finish_recovery`.
    pub image: Option<g2pl_wal::ServerImage>,
    /// In-doubt prepared transactions awaiting a commit verdict: the
    /// replayed `prepared` map, drained as verdicts arrive (or at
    /// handshake end via the commit oracle). Per presumed abort, an
    /// entry leaves this map only on positive evidence of the outcome.
    pub in_doubt: std::collections::BTreeMap<TxnId, g2pl_wal::PreparedImage>,
}

impl ShardFaultState {
    /// Is the shard fully up (neither crashed nor in its handshake)?
    pub fn is_up(&self) -> bool {
        !self.down && !self.recovering
    }

    /// Transition to crashed: volatile recovery bookkeeping of any
    /// in-progress handshake is lost with the rest of the shard.
    pub fn crash(&mut self) {
        self.down = true;
        self.recovering = false;
        self.reregistered.clear();
        self.image = None;
        self.in_doubt.clear();
    }

    /// Transition to recovering at `now`, bumping the epoch; the caller
    /// supplies the replayed image and the client count. Returns the new
    /// epoch.
    pub fn begin_recovery(
        &mut self,
        now: SimTime,
        num_clients: usize,
        image: g2pl_wal::ServerImage,
    ) -> u64 {
        self.down = false;
        self.recovering = true;
        self.epoch += 1;
        self.started = now;
        self.reregistered = vec![false; num_clients];
        self.in_doubt = image.prepared.clone();
        self.image = Some(image);
        self.epoch
    }
}

/// The server-side lease period under a fault plan: how long a checkout
/// or an idle transaction may show no progress before its holder is
/// presumed dead. A generous multiple of the nominal one-way latency, so
/// that ordinary round trips, think times, and a few retransmissions
/// never trip it.
pub fn lease_period(nominal: u64) -> SimTime {
    SimTime::new(64 * nominal.max(1) + 256)
}

/// The client-side base retransmission delay under a fault plan: a
/// little over one round trip, so a retry only fires once the original
/// reply is overdue. Doubles per attempt (see
/// [`ClientCore::retry_backoff`]).
pub fn retry_period(nominal: u64) -> SimTime {
    SimTime::new(4 * nominal.max(1) + 16)
}

/// Lifecycle status of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running (possibly blocked).
    Active,
    /// Chosen as a deadlock victim; the abort notice is in flight. The
    /// transaction may still escape by committing first (see the g-2PL
    /// engine's race discussion).
    Aborting,
    /// Committed.
    Committed,
    /// Aborted.
    Aborted,
}

/// Global (oracle) per-transaction bookkeeping.
#[derive(Clone, Debug)]
pub struct TxnInfo {
    /// The client running the transaction.
    pub client: ClientId,
    /// Current status.
    pub status: TxnStatus,
    /// Whether the transaction's spec is read-only.
    pub read_only: bool,
}

/// Dense table of every transaction created during a run.
#[derive(Clone, Debug, Default)]
pub struct TxnTable {
    infos: Vec<TxnInfo>,
}

impl TxnTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new transaction; ids are dense and age-ordered.
    pub fn create(&mut self, client: ClientId, read_only: bool) -> TxnId {
        let id = TxnId::new(self.infos.len() as u32);
        self.infos.push(TxnInfo {
            client,
            status: TxnStatus::Active,
            read_only,
        });
        id
    }

    /// Info for `txn`.
    pub fn info(&self, txn: TxnId) -> &TxnInfo {
        &self.infos[txn.index()]
    }

    /// Current status of `txn`.
    pub fn status(&self, txn: TxnId) -> TxnStatus {
        self.infos[txn.index()].status
    }

    /// Set the status of `txn`.
    pub fn set_status(&mut self, txn: TxnId, status: TxnStatus) {
        self.infos[txn.index()].status = status;
    }

    /// Whether `txn` counts as live for deadlock analysis (active and not
    /// already being aborted).
    pub fn is_live(&self, txn: TxnId) -> bool {
        self.status(txn) == TxnStatus::Active
    }

    /// Number of transactions ever created.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True when no transaction was created yet.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }
}

/// What a client is currently doing within its transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientPhase {
    /// Waiting for the grant of the access at index `.0`.
    WaitingGrant(usize),
    /// Thinking after a grant (a `ThinkDone` timer is pending).
    Thinking,
    /// All accesses granted and processing done, but the commit is gated
    /// on outstanding MR1W reader releases (two-copy-version
    /// certification: a writer that ran concurrently with the readers of
    /// the previous version may only commit after they all released).
    CommitWait,
    /// Between transactions (an `IdleDone` timer is pending) or stopped.
    Idle,
}

/// The transaction a client is currently executing.
#[derive(Clone, Debug)]
pub struct ActiveTxn {
    /// Transaction id.
    pub id: TxnId,
    /// The access list.
    pub spec: TxnSpec,
    /// How many accesses have been granted.
    pub granted: usize,
    /// Creation instant (response time starts here).
    pub start: SimTime,
    /// Version observed (reads) or installed (writes) per granted access,
    /// parallel to `spec.accesses[..granted]`.
    pub versions: Vec<Version>,
    /// Current phase.
    pub phase: ClientPhase,
}

/// Per-client state shared by all engines.
pub struct ClientCore {
    /// This client's id.
    pub id: ClientId,
    /// The in-flight transaction, if any.
    pub txn: Option<ActiveTxn>,
    /// Workload stream: transaction specs.
    pub spec_rng: RngStream,
    /// Workload stream: think/idle durations.
    pub time_rng: RngStream,
    /// True while the client is crashed (fault plan): inbound messages
    /// and local timers are dropped until the scheduled restart.
    pub crashed: bool,
    /// Retry epoch: bumped on every progress transition (request sent,
    /// grant received, commit acknowledged, abort, restart). A pending
    /// [`TimerKind::Retry`] whose epoch does not match is stale and
    /// ignored, so retry timers never need cancelling.
    pub retry_epoch: u64,
    /// Consecutive retransmissions of the current outstanding operation
    /// (exponential-backoff exponent; reset on progress).
    pub retry_attempts: u32,
    /// Commit-release messages awaiting [`Message::SCommitAck`], one per
    /// involved shard, keyed by shard index (armed only under an active
    /// fault plan): survives crashes — it stands in for the client's WAL
    /// tail, from which a restarted client resumes retransmission. Kept
    /// in ascending shard order.
    pub pending_commits: Vec<(u32, Message)>,
}

impl ClientCore {
    /// Build the per-client state for `id`, deriving its random streams
    /// from the run's master seed.
    pub fn new(id: ClientId, seed: u64) -> Self {
        ClientCore {
            id,
            txn: None,
            spec_rng: RngStream::derive_indexed(seed, "spec-client", u64::from(id.0)),
            time_rng: RngStream::derive_indexed(seed, "time-client", u64::from(id.0)),
            crashed: false,
            retry_epoch: 0,
            retry_attempts: 0,
            pending_commits: Vec::new(),
        }
    }

    /// Bump the retry epoch (invalidating pending retry timers) and reset
    /// the backoff counter. Called on every progress transition when a
    /// fault plan is active.
    pub fn retry_progress(&mut self) {
        self.retry_epoch += 1;
        self.retry_attempts = 0;
    }

    /// The backoff delay for the next retransmission: `base << attempts`,
    /// capped at 6 doublings so retries never back off past 64× base.
    pub fn retry_backoff(&self, base: SimTime) -> SimTime {
        SimTime::new(base.units() << self.retry_attempts.min(6))
    }

    /// Draw the next spec and open a transaction at time `now`.
    pub fn begin_txn(
        &mut self,
        generator: &TxnGenerator,
        table: &mut TxnTable,
        now: SimTime,
    ) -> TxnId {
        debug_assert!(
            self.txn.is_none(),
            "client {} already has a transaction",
            self.id
        );
        let spec = generator.draw(&mut self.spec_rng);
        let id = table.create(self.id, spec.is_read_only());
        self.txn = Some(ActiveTxn {
            id,
            spec,
            granted: 0,
            start: now,
            versions: Vec::new(),
            phase: ClientPhase::WaitingGrant(0),
        });
        id
    }

    /// The active transaction (panics if none — engine invariant).
    pub fn txn(&self) -> &ActiveTxn {
        // lint:allow(L3): documented engine invariant of this accessor
        self.txn.as_ref().expect("client has an active transaction")
    }

    /// Mutable active transaction.
    pub fn txn_mut(&mut self) -> &mut ActiveTxn {
        // lint:allow(L3): documented engine invariant of this accessor
        self.txn.as_mut().expect("client has an active transaction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g2pl_workload::TxnProfile;

    fn client(c: u32) -> SiteId {
        SiteId::Client(ClientId::new(c))
    }

    fn notice() -> Message {
        Message::AbortNotice { txn: TxnId::new(0) }
    }

    /// Every delivery on `cal`, in order: `(time, destination)`.
    fn deliveries(cal: &mut Calendar<Ev>) -> Vec<(SimTime, SiteId)> {
        std::iter::from_fn(|| cal.pop())
            .map(|(at, ev)| match ev {
                Ev::Deliver { to, .. } => (at, to),
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    #[test]
    fn net_send_schedules_after_latency() {
        let mut cal: Calendar<Ev> = Calendar::new();
        let mut net = Net::new(LatencyCfg::Constant(7), None, 1);
        net.send(&mut cal, SiteId::SERVER0, client(0), notice());
        assert_eq!(deliveries(&mut cal), vec![(SimTime::new(7), client(0))]);
        assert_eq!(net.acct.messages(), 1);
        assert_eq!(net.acct.bytes(), 64);
        assert_eq!(net.acct.of_kind("abort_notice"), 1);
    }

    #[test]
    fn reliable_link_is_passthrough() {
        let mut cal: Calendar<Ev> = Calendar::new();
        let mut net = Net::new(LatencyCfg::Constant(9), None, 7);
        assert!(net.faults.is_none(), "no plan, no injector");
        net.send(&mut cal, client(0), SiteId::SERVER0, notice());
        assert_eq!(
            deliveries(&mut cal),
            vec![(SimTime::new(9), SiteId::SERVER0)]
        );
        assert!(net.take_fault_marks().is_empty(), "reliable: no marks");
    }

    #[test]
    fn net_prices_message_size_under_bandwidth() {
        let mut cal: Calendar<Ev> = Calendar::new();
        let latency = LatencyCfg::Bandwidth {
            latency: 100,
            bytes_per_unit: 1000,
        };
        let mut net = Net::new(latency, None, 1);
        let grant = Message::SGrant {
            txn: TxnId::new(0),
            item: ItemId::new(0),
            version: 0,
        };
        // 64 + 4096 bytes at 1000 B/unit: 5 units of transmission time.
        assert_eq!(grant.bytes(), 4160);
        net.send(&mut cal, SiteId::SERVER0, client(0), grant);
        assert_eq!(deliveries(&mut cal), vec![(SimTime::new(105), client(0))]);
        assert_eq!(net.acct.of_kind("grant"), 1);
    }

    #[test]
    fn lossy_net_drops_and_marks() {
        let mut cal: Calendar<Ev> = Calendar::new();
        let plan = FaultPlan::message_loss(1.0);
        let mut net = Net::new(LatencyCfg::Constant(7), Some(&plan), 1);
        net.send(&mut cal, SiteId::SERVER0, client(0), notice());
        assert!(cal.pop().is_none(), "certain loss delivers nothing");
        let counts = net.faults.as_ref().expect("plan active").counts;
        assert_eq!(counts.dropped, 1);
        assert_eq!(net.take_fault_marks().len(), 1);
        assert!(net.take_fault_marks().is_empty(), "marks drain once");
        assert_eq!(net.acct.messages(), 1, "the send itself is accounted");
    }

    #[test]
    fn certain_loss_drops_everything() {
        let mut cal: Calendar<Ev> = Calendar::new();
        let plan = FaultPlan::message_loss(1.0);
        let mut net = Net::new(LatencyCfg::Constant(9), Some(&plan), 7);
        for _ in 0..10 {
            net.send(&mut cal, client(0), SiteId::SERVER0, notice());
            assert!(cal.pop().is_none(), "certain loss delivers nothing");
        }
        let counts = net.faults.as_ref().expect("plan active").counts;
        assert_eq!(counts.dropped, 10);
        assert_eq!(net.take_fault_marks().len(), 10);
        assert_eq!(net.acct.messages(), 10, "every send is accounted");
    }

    #[test]
    fn duplicate_and_delay_yield_expected_deliveries() {
        let mut cal: Calendar<Ev> = Calendar::new();
        let dup_plan = FaultPlan {
            dup_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut net = Net::new(LatencyCfg::Constant(3), Some(&dup_plan), 7);
        net.send(&mut cal, client(0), SiteId::SERVER0, notice());
        let at = SimTime::new(3);
        assert_eq!(
            deliveries(&mut cal),
            vec![(at, SiteId::SERVER0), (at, SiteId::SERVER0)]
        );

        let delay_plan = FaultPlan {
            delay_prob: 1.0,
            delay_extra: 5,
            ..FaultPlan::default()
        };
        let mut cal: Calendar<Ev> = Calendar::new();
        let mut net = Net::new(LatencyCfg::Constant(3), Some(&delay_plan), 7);
        net.send(&mut cal, client(0), SiteId::SERVER0, notice());
        let at = SimTime::new(8);
        assert_eq!(deliveries(&mut cal), vec![(at, SiteId::SERVER0)]);
        let counts = net.faults.as_ref().expect("plan active").counts;
        assert_eq!(counts.delayed, 1);
        assert_eq!(net.take_fault_marks().len(), 1);
    }

    #[test]
    fn send_instant_bypasses_latency_and_faults() {
        let mut cal: Calendar<Ev> = Calendar::new();
        let plan = FaultPlan::message_loss(1.0);
        let mut net = Net::new(LatencyCfg::Constant(9), Some(&plan), 7);
        net.send_instant(&mut cal, SiteId::SERVER0, client(0), notice());
        assert_eq!(deliveries(&mut cal), vec![(SimTime::ZERO, client(0))]);
        let counts = net.faults.as_ref().expect("plan active").counts;
        assert_eq!(counts.dropped, 0, "the injector is not consulted");
        assert_eq!(net.acct.of_kind("abort_notice"), 1, "still counted");
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let mut c = ClientCore::new(ClientId::new(0), 1);
        let base = SimTime::new(10);
        assert_eq!(c.retry_backoff(base), SimTime::new(10));
        c.retry_attempts = 3;
        assert_eq!(c.retry_backoff(base), SimTime::new(80));
        c.retry_attempts = 40;
        assert_eq!(c.retry_backoff(base), SimTime::new(640), "capped at 64x");
        c.retry_progress();
        assert_eq!(c.retry_attempts, 0);
        assert_eq!(c.retry_epoch, 1);
    }

    #[test]
    fn txn_table_ids_are_age_ordered() {
        let mut t = TxnTable::new();
        let a = t.create(ClientId::new(0), true);
        let b = t.create(ClientId::new(1), false);
        assert!(a < b);
        assert_eq!(t.len(), 2);
        assert!(t.info(a).read_only);
        assert!(t.is_live(b));
        t.set_status(b, TxnStatus::Aborting);
        assert!(!t.is_live(b));
    }

    #[test]
    fn client_begin_txn_draws_from_spec_stream() {
        let gen = TxnGenerator::new(TxnProfile::table1(0.5), 25);
        let mut table = TxnTable::new();
        let mut c = ClientCore::new(ClientId::new(3), 42);
        let id = c.begin_txn(&gen, &mut table, SimTime::new(5));
        assert_eq!(table.info(id).client, ClientId::new(3));
        assert_eq!(c.txn().start, SimTime::new(5));
        assert_eq!(c.txn().granted, 0);
        assert!(matches!(c.txn().phase, ClientPhase::WaitingGrant(0)));
    }

    /// Each client's n-th transaction is the n-th draw from its own
    /// `"spec-client"` stream, so every engine run at one seed gets the
    /// same transaction stream.
    #[test]
    fn same_seed_clients_draw_identical_specs() {
        let gen = TxnGenerator::new(TxnProfile::table1(0.5), 25);
        let seed = 9;
        let mut table = TxnTable::new();
        for c in 0..3 {
            let mut client = ClientCore::new(ClientId::new(c), seed);
            let mut reference = RngStream::derive_indexed(seed, "spec-client", u64::from(c));
            for n in 0..50 {
                client.begin_txn(&gen, &mut table, SimTime::ZERO);
                let spec = client
                    .txn
                    .take()
                    .expect("begin_txn opened a transaction")
                    .spec;
                assert_eq!(spec, gen.draw(&mut reference), "client {c}, txn {n}");
            }
        }
    }
}
