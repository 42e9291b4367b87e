//! The one event stream: every engine transition, recorded once.
//!
//! A protocol engine reports each transition it makes as one
//! [`TraceEvent`]. The same stream feeds every consumer: the P1–P10
//! temporal checker (`g2pl-core`'s tracecheck), the phase and round
//! attribution of [`crate::tracker::SpanRecorder`], and the JSONL export
//! of [`crate::export`] — so an exported trace is exactly the trace the
//! checker validated. [`TraceLog`] is the stream's bounded in-memory log.
//!
//! Some kinds only matter to one consumer. The checker ignores
//! `RequestArrived`, `HopDeparted` and release arrivals at clients; the
//! attribution ignores the forward-list, fault, recovery and 2PC kinds.
//! Which kinds open a phase interval is [`TraceKind::phase`].

use crate::span::Phase;
use g2pl_simcore::{ItemId, SimTime, SiteId, TxnId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A lock/data request left a client.
    RequestSent,
    /// A request reached its shard and was queued or windowed (`site` is
    /// the shard).
    RequestArrived,
    /// A collection window closed at the server (g-2PL); `n` is the
    /// length of the forward list it produced. The list follows as one
    /// [`TraceKind::FlOrdered`] event per entry, in list order.
    WindowClosed,
    /// One entry of a just-ordered forward list, emitted in list order
    /// immediately after the [`TraceKind::WindowClosed`] that produced it:
    /// the transaction's dispatch is decided.
    FlOrdered,
    /// A reader joined an already-dispatched all-reader forward list
    /// (g-2PL `expand_reads` only — any other FL mutation after window
    /// close violates the collection-window discipline, property P7).
    FlExtended,
    /// A hop carrying the item toward `txn` departed — the server's grant
    /// or dispatch, or an upstream client's forward (`site` is the
    /// destination).
    HopDeparted,
    /// Data (a grant) arrived at a client for a transaction.
    DataArrived,
    /// A transaction was granted access (all gates satisfied).
    Granted,
    /// A read was served from the local inter-transaction cache with no
    /// server interaction (c-2PL only).
    CacheHit,
    /// A transaction committed at its client. `n` is the number of
    /// release arrivals that close its commit-return tail; `measured`
    /// marks commits inside the measurement window.
    Committed,
    /// Data was forwarded client-to-client (g-2PL migration).
    Forwarded,
    /// A release by (finished) `txn` arrived at `site`. At a server it is
    /// a true sequential round; at a client it rode the successor's grant
    /// hop (the §3.2 merge) and costs no extra round.
    ReleaseArrived,
    /// A transaction was aborted.
    Aborted,
    /// The fault injector acted on a message (drop, duplicate, delay,
    /// partition drop) or a client crashed/restarted. `site` is the
    /// sending site (or the crashing client).
    FaultInjected,
    /// A server-side lease on a checkout/migration hop expired: the
    /// holder of `item` made no progress for a full lease period and is
    /// presumed dead. `txn` is the victim (if one was identified).
    LeaseExpired,
    /// The server reconstructed the surviving forward-list suffix for
    /// `item` after a lease expiry and re-dispatched it from the last
    /// durable version (or brought the item home if no survivors
    /// remained). Every [`TraceKind::LeaseExpired`] must be resolved by
    /// one of these — property P8.
    Redispatch,
    /// The data server crashed: its volatile state (lock table, windows,
    /// out-lists, directory) is gone and only its durable log survives.
    /// No server-side grant/dispatch activity may appear before the
    /// matching [`TraceKind::ServerRecovered`] — property P9.
    ServerCrashed,
    /// The restarted server finished log replay plus the client
    /// re-registration handshake and resumed normal service. Every
    /// [`TraceKind::ServerCrashed`] must be resolved by one of these on
    /// a drained run — property P9.
    ServerRecovered,
    /// The restarted server accepted one client's re-registration report
    /// (`site` is the reporting client). Only legal between a
    /// [`TraceKind::ServerCrashed`] and its
    /// [`TraceKind::ServerRecovered`] — property P9.
    Reregister,
    /// A shard durably logged its yes vote for a multi-home transaction
    /// (`site` is the voting shard): it promises to apply the
    /// transaction's write slice if the coordinator decides commit.
    /// Every prepared shard of a committed transaction must later show a
    /// [`TraceKind::CommitApplied`], and no prepare may outlive a
    /// drained run unresolved — property P10.
    Prepared,
    /// A shard applied the commit slice of a transaction it had prepared
    /// (`site` is the applying shard), either from the coordinator's
    /// decision message or by recovery-time resolution of an in-doubt
    /// vote. Illegal for aborted transactions and at shards that never
    /// prepared — property P10.
    CommitApplied,
    /// Flight-recorder marker appended at export time, not a transition:
    /// `txn` is one of the run's top-k slowest measured committed
    /// transactions and `n` its 1-based rank (1 = slowest). Engines never
    /// emit it; the checker and the attribution skip it. It lets tail
    /// analyzers find the worst transactions in a JSONL trace without
    /// recomputing the top-k.
    SlowTxn,
}

/// Every kind with its stable JSONL wire name, in declaration order.
const NAMES: [(TraceKind, &str); 22] = [
    (TraceKind::RequestSent, "request_sent"),
    (TraceKind::RequestArrived, "request_arrived"),
    (TraceKind::WindowClosed, "window_closed"),
    (TraceKind::FlOrdered, "fl_ordered"),
    (TraceKind::FlExtended, "fl_extended"),
    (TraceKind::HopDeparted, "hop_departed"),
    (TraceKind::DataArrived, "data_arrived"),
    (TraceKind::Granted, "granted"),
    (TraceKind::CacheHit, "cache_hit"),
    (TraceKind::Committed, "committed"),
    (TraceKind::Forwarded, "forwarded"),
    (TraceKind::ReleaseArrived, "release_arrived"),
    (TraceKind::Aborted, "aborted"),
    (TraceKind::FaultInjected, "fault_injected"),
    (TraceKind::LeaseExpired, "lease_expired"),
    (TraceKind::Redispatch, "redispatch"),
    (TraceKind::ServerCrashed, "server_crashed"),
    (TraceKind::ServerRecovered, "server_recovered"),
    (TraceKind::Reregister, "reregister"),
    (TraceKind::Prepared, "prepared"),
    (TraceKind::CommitApplied, "commit_applied"),
    (TraceKind::SlowTxn, "slow_txn"),
];

impl TraceKind {
    /// An event of this kind; its count and `measured` flag are unset.
    pub fn at(
        self,
        at: SimTime,
        txn: Option<TxnId>,
        item: Option<ItemId>,
        site: impl Into<SiteId>,
    ) -> TraceEvent {
        TraceEvent {
            at,
            kind: self,
            txn,
            item,
            site: site.into(),
            n: 0,
            measured: false,
        }
    }

    /// Stable wire name used by the JSONL export.
    pub fn name(self) -> &'static str {
        NAMES[self as usize].1
    }

    /// Inverse of [`TraceKind::name`].
    pub fn from_name(s: &str) -> Option<TraceKind> {
        NAMES.iter().find(|(_, n)| *n == s).map(|&(k, _)| k)
    }

    /// The phase of a transaction's timeline that this kind opens, or
    /// `None` when it opens none. The interval between two consecutive
    /// phase-opening events of a transaction is charged to the phase the
    /// earlier one opened:
    ///
    /// | opening event               | interval charged to     |
    /// |-----------------------------|-------------------------|
    /// | `RequestSent`               | [`Phase::ReqProp`]      |
    /// | `RequestArrived`            | [`Phase::ServerQueue`]  |
    /// | `FlOrdered`, `FlExtended`   | [`Phase::Migration`]    |
    /// | `HopDeparted`               | [`Phase::DispatchProp`] |
    /// | `Granted`, `CacheHit`       | [`Phase::ClientProc`]   |
    ///
    /// `Committed` closes the response phases; what follows until the
    /// last release arrives is [`Phase::CommitReturn`].
    pub fn phase(self) -> Option<Phase> {
        match self {
            TraceKind::RequestSent => Some(Phase::ReqProp),
            TraceKind::RequestArrived => Some(Phase::ServerQueue),
            TraceKind::FlOrdered | TraceKind::FlExtended => Some(Phase::Migration),
            TraceKind::HopDeparted => Some(Phase::DispatchProp),
            TraceKind::Granted | TraceKind::CacheHit => Some(Phase::ClientProc),
            _ => None,
        }
    }
}

/// One event of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// The transaction involved (if any).
    pub txn: Option<TxnId>,
    /// The item involved (if any).
    pub item: Option<ItemId>,
    /// The site where (or toward which) it happened.
    pub site: SiteId,
    /// Kind-specific count: releases expected (`Committed`), forward-list
    /// length (`WindowClosed`) or flight rank (`SlowTxn`); 0 otherwise.
    pub n: u32,
    /// For `Committed` and `SlowTxn`: the commit fell inside the
    /// measurement window.
    pub measured: bool,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={:>5}  {:<18}",
            self.at.units(),
            format!("{:?}", self.kind)
        )?;
        if let Some(t) = self.txn {
            write!(f, " {t}")?;
        }
        if let Some(i) = self.item {
            write!(f, " {i}")?;
        }
        write!(f, " @{}", self.site)
    }
}

/// Safety cap so an accidentally enabled log cannot eat the heap. Sized
/// so a full-scale verified replication (≈1.5M events) still fits.
pub const MAX_EVENTS: usize = 4_000_000;

/// An optional, bounded event log.
///
/// Recording past the cap does not silently vanish: dropped events are
/// counted, so consumers (tracecheck in particular) can refuse to draw
/// conclusions from an incomplete trace instead of "verifying" a prefix.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TraceLog {
    enabled: bool,
    events: Vec<TraceEvent>,
    dropped: u64,
    cap: usize,
}

impl TraceLog {
    /// A log that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        TraceLog::with_cap(enabled, MAX_EVENTS)
    }

    /// A log with a custom event cap (tests exercise truncation without
    /// allocating millions of events).
    pub fn with_cap(enabled: bool, cap: usize) -> Self {
        TraceLog {
            enabled,
            events: Vec::new(),
            dropped: 0,
            cap,
        }
    }

    /// Record an event (no-op when disabled; counted when full).
    pub fn push(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Events dropped after the log filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether the log overflowed (its event list is a prefix, not the
    /// full trace).
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }

    /// The recorded events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Take the events out of the log.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: TraceKind, txn: Option<u32>, item: Option<u32>) -> TraceEvent {
        let (txn, item) = (txn.map(TxnId::new), item.map(ItemId::new));
        kind.at(SimTime::new(at), txn, item, SiteId::SERVER0)
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::new(false);
        log.push(ev(1, TraceKind::Committed, None, None));
        assert!(log.events().is_empty());
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = TraceLog::new(true);
        log.push(ev(1, TraceKind::RequestSent, Some(0), Some(3)));
        log.push(ev(2, TraceKind::Committed, Some(0), None));
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0].kind, TraceKind::RequestSent);
    }

    #[test]
    fn full_log_counts_drops_instead_of_lying() {
        let mut log = TraceLog::with_cap(true, 2);
        for i in 0..5 {
            log.push(ev(i, TraceKind::RequestSent, Some(i as u32), None));
        }
        assert_eq!(log.events().len(), 2, "cap respected");
        assert_eq!(log.dropped(), 3);
        assert!(log.truncated());
        let fresh = TraceLog::new(true);
        assert!(!fresh.truncated());
        assert_eq!(fresh.dropped(), 0);
    }

    #[test]
    fn display_is_readable() {
        let e = ev(12, TraceKind::Forwarded, Some(2), Some(0));
        let s = format!("{e}");
        assert!(s.contains("Forwarded"));
        assert!(s.contains("T2"));
        assert!(s.contains("x0"));
    }

    #[test]
    fn kind_names_round_trip() {
        for (i, &(k, name)) in NAMES.iter().enumerate() {
            assert_eq!(k as usize, i, "NAMES out of declaration order at {k:?}");
            assert_eq!(k.name(), name);
            assert_eq!(TraceKind::from_name(name), Some(k));
        }
        assert_eq!(TraceKind::from_name("bogus"), None);
    }

    #[test]
    fn phase_marks_cover_the_five_response_phases() {
        let opened: Vec<Phase> = NAMES.iter().filter_map(|(k, _)| k.phase()).collect();
        for p in &Phase::ALL[..Phase::RESPONSE_PHASES] {
            assert!(opened.contains(p), "no kind opens {p}");
        }
        assert!(!opened.contains(&Phase::CommitReturn));
    }
}
