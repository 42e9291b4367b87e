//! Temporal validation of recorded event traces.
//!
//! The engines record their one [`g2pl_protocols::TraceEvent`] stream
//! when `trace_events` is set, and the JSONL export writes the same
//! stream, so a run can be checked live or from its file. This module
//! checks protocol-level temporal properties over such a stream,
//! independently of the engine logic that produced it — a second pair of
//! eyes on the message choreography. It skips the kinds that only feed
//! phase attribution (`RequestArrived`, `HopDeparted`) and the export's
//! `SlowTxn` markers, and reads `ReleaseArrived` only for the P9
//! crash-window check:
//!
//! * **P1 (causality)** — every grant is preceded by a matching request
//!   from the same transaction for the same item;
//! * **P2 (completeness)** — a committed transaction received exactly as
//!   many grants as it issued requests, all before its commit;
//! * **P3 (uniqueness)** — no transaction commits twice, aborts twice, or
//!   both commits and aborts;
//! * **P4 (possession)** — a forward of an item is preceded by that
//!   transaction's grant or data arrival for the item;
//! * **P5 (strictness)** — a committed transaction forwards data only at
//!   or after its commit instant;
//! * **P6 (order consistency)** — g-2PL forward lists order any two
//!   transactions the same way in every list both appear in (the §3.3
//!   consistent-reordering guarantee; checked when the run used
//!   `ordering.consistent`);
//! * **P7 (window discipline)** — a forward list is mutated only at its
//!   window close; the sole exception is the `expand_reads` reader join,
//!   and only when the run enabled it;
//! * **P8 (fault masking)** — fault-injection runs only: every injected
//!   fault is masked or resolved — each `LeaseExpired` is followed by a
//!   `Redispatch` (matched by item when the expiry names one, else by
//!   transaction), and every transaction that ever sent a request reaches
//!   `Committed` or `Aborted` — nobody waits forever. P8 assumes a
//!   *drained* run (the fault experiments and tests all drain); fault
//!   events in a no-fault trace are themselves violations.
//! * **P9 (server crash recovery)** — fault-injection runs only: server
//!   crash windows are well-formed (`ServerCrashed` alternates with
//!   `ServerRecovered` *per server site*, `Reregister` reports appear
//!   only inside an open window, and every window closes before the
//!   trace ends), a crashed shard is silent while down — no dispatch,
//!   window-close, forward-list or lease activity attributed to that
//!   site between its crash and its recovery, so no grant can stem from
//!   pre-crash forward-list state; surviving shards stay live — and no
//!   acknowledged commit is ever lost: a transaction that committed
//!   before a crash must never abort after it. Like P8, any
//!   server-crash event in a no-fault trace is itself a violation.
//! * **P10 (cross-shard atomicity)** — fault-injection runs only: the
//!   two-phase commitment of multi-home transactions is atomic. A
//!   `Prepared` vote is durably logged at most once per (transaction,
//!   shard) and only for still-undecided transactions; a `CommitApplied`
//!   appears only at a shard that voted, only after the coordinator's
//!   `Committed`, and never for an aborted transaction; and on a drained
//!   run every prepared shard of a committed transaction eventually
//!   applies it — no acknowledged multi-home commit leaves a shard
//!   behind, and no prepared vote of a decided transaction dangles. An
//!   aborted transaction may leave voted shards unapplied (presumed
//!   abort retires those votes with unlogged-to-the-trace release
//!   records). Like P8/P9, any 2PC event in a no-fault trace is itself
//!   a violation.
//!
//! # Dense state
//!
//! The checker keeps one record per transaction: its request and grant
//! counts, commit instant, abort flag, first forward, outstanding 2PC
//! votes, the transactions an earlier forward list ordered it before
//! (P6), and one `(item, requests, grants, arrived)` entry per item it
//! touched. Records and the current forward list of each item sit in
//! `Vec`s indexed through `Slots`, so a step is a bounds check and a
//! short scan, never a hash or a tree search. Ids come from files too
//! (`trace-explain`), so tables are sized from the trace, never from a
//! raw id, and the end-of-trace P8 and P10 walks visit transactions in id
//! order: the first violation and its message do not depend on how the
//! state is stored.

use crate::slots::Slots;
pub use g2pl_obs::TraceCheckOpts;
use g2pl_protocols::{TraceEvent, TraceKind};
use g2pl_simcore::{ItemId, SimTime, SiteId, TxnId};

/// Validate a trace under the default (paper g-2PL) assumptions; returns
/// a description of the first violation.
pub fn check_trace(events: &[TraceEvent]) -> Result<(), String> {
    check_trace_with(events, TraceCheckOpts::default())
}

/// What the checker knows of one transaction.
#[derive(Clone, Debug, Default)]
struct TxnState {
    requests: u64,
    grants: u64,
    committed: Option<SimTime>,
    aborted: bool,
    /// Earliest forward, for the strictness check at commit.
    first_forward: Option<SimTime>,
    /// Per-item request and grant counts and data arrival.
    items: Vec<ItemState>,
    /// Transactions a dispatched list ordered this one before (P6).
    before: Vec<TxnId>,
    /// Shards that logged a prepare vote and have not yet applied the
    /// commit (P10).
    votes: Vec<SiteId>,
}

#[derive(Clone, Debug)]
struct ItemState {
    item: ItemId,
    requests: u64,
    grants: u64,
    arrived: bool,
}

impl TxnState {
    fn item(&mut self, item: ItemId) -> &mut ItemState {
        let i = match self.items.iter().position(|s| s.item == item) {
            Some(i) => i,
            None => {
                self.items.push(ItemState {
                    item,
                    requests: 0,
                    grants: 0,
                    arrived: false,
                });
                self.items.len() - 1
            }
        };
        &mut self.items[i]
    }
}

/// Validate a trace; returns a description of the first violation.
pub fn check_trace_with(events: &[TraceEvent], opts: TraceCheckOpts) -> Result<(), String> {
    let budget = 2 * events.len() + 1024;
    let txn_slots = Slots::new(|| events.iter().filter_map(|e| e.txn).map(|t| t.0), budget);
    let item_slots = Slots::new(|| events.iter().filter_map(|e| e.item).map(|i| i.0), budget);
    let mut txns: Vec<TxnState> = vec![TxnState::default(); txn_slots.len()];
    // The most recently dispatched forward list of each item (P6/P7).
    let mut current_fl: Vec<Option<Vec<TxnId>>> = vec![None; item_slots.len()];
    // Item whose dispatch group (WindowClosed + FlOrdered run) is open.
    let mut open_group: Option<ItemId> = None;
    // Lease expiries not yet resolved by a redispatch (P8b).
    let mut open_expiries: Vec<(Option<TxnId>, Option<ItemId>, SimTime)> = Vec::new();
    // Server sites currently inside a crash window, each tracked
    // independently (P9): in a sharded space only the crashed shard must
    // fall silent — the surviving shards keep serving.
    let mut down_servers: Vec<SiteId> = Vec::new();
    // Whether any server crash has occurred yet (P9 lost-commit check).
    let mut server_crashed_once = false;
    let mut last_t = SimTime::ZERO;
    let txn_of = |e: &TraceEvent, what: &str| -> Result<TxnId, String> {
        e.txn.ok_or_else(|| format!("{what} without txn: {e}"))
    };

    for e in events {
        if e.kind == TraceKind::SlowTxn {
            continue; // an export-time marker, not a transition
        }
        if e.at < last_t {
            return Err(format!("trace times go backwards at {e}"));
        }
        last_t = e.at;
        // A dispatch group is the WindowClosed event plus the FlOrdered
        // run that immediately follows it; any other event ends it.
        if !matches!(e.kind, TraceKind::FlOrdered) {
            open_group = None;
        }
        // A crashed server site is silent from crash to recovery: any
        // decision it records inside the window would have to stem from
        // pre-crash volatile state, which died with it. Events attributed
        // to a *live* shard are legal while another shard is down.
        // (`HopDeparted` is absent from this set: committing clients keep
        // forwarding segments client-to-client while a server is down,
        // and those hops are attributed to each receiver.)
        if matches!(
            e.kind,
            TraceKind::WindowClosed
                | TraceKind::FlOrdered
                | TraceKind::FlExtended
                | TraceKind::ReleaseArrived
                | TraceKind::LeaseExpired
                | TraceKind::Redispatch
                | TraceKind::Prepared
        ) && down_servers.contains(&e.site)
        {
            // `CommitApplied` is deliberately absent from this set: a
            // recovering shard resolves in-doubt votes (and records the
            // apply) *inside* its crash window, before `ServerRecovered`.
            return Err(format!("P9: server activity inside a crash window at {e}"));
        }
        match e.kind {
            TraceKind::RequestSent => {
                let (txn, item) = ids(e)?;
                let t = &mut txns[txn_slots.slot(txn.0)];
                t.item(item).requests += 1;
                t.requests += 1;
            }
            TraceKind::DataArrived | TraceKind::CacheHit => {
                let (txn, item) = ids(e)?;
                txns[txn_slots.slot(txn.0)].item(item).arrived = true;
            }
            TraceKind::Granted => {
                let (txn, item) = ids(e)?;
                let t = &mut txns[txn_slots.slot(txn.0)];
                let s = t.item(item);
                s.grants += 1;
                if s.grants > s.requests {
                    return Err(format!("P1: grant without request at {e}"));
                }
                t.grants += 1;
                if t.committed.is_some() {
                    return Err(format!("P2: grant after commit at {e}"));
                }
            }
            TraceKind::Committed => {
                let txn = txn_of(e, "commit")?;
                let t = &mut txns[txn_slots.slot(txn.0)];
                if t.committed.replace(e.at).is_some() {
                    return Err(format!("P3: double commit at {e}"));
                }
                if t.aborted {
                    return Err(format!("P3: commit after abort at {e}"));
                }
                let (r, g) = (t.requests, t.grants);
                if r != g {
                    return Err(format!(
                        "P2: {txn} committed with {g} grants for {r} requests"
                    ));
                }
                if let Some(f) = t.first_forward {
                    if f < e.at {
                        return Err(format!(
                            "P5: {txn} forwarded data at t={} before committing at {e}",
                            f.units()
                        ));
                    }
                }
            }
            TraceKind::Aborted => {
                let txn = txn_of(e, "abort")?;
                let t = &mut txns[txn_slots.slot(txn.0)];
                if std::mem::replace(&mut t.aborted, true) {
                    return Err(format!("P3: double abort at {e}"));
                }
                if t.committed.is_some() {
                    // Across a server crash this is the recovery failure
                    // P9 exists to catch: an acknowledged commit undone.
                    if server_crashed_once {
                        return Err(format!(
                            "P9: acknowledged commit of {txn} lost across a server crash at {e}"
                        ));
                    }
                    return Err(format!("P3: abort after commit at {e}"));
                }
            }
            TraceKind::Forwarded => {
                let (txn, item) = ids(e)?;
                let t = &mut txns[txn_slots.slot(txn.0)];
                let s = t.item(item);
                if s.grants == 0 && !s.arrived {
                    return Err(format!("P4: forward without possession at {e}"));
                }
                if let Some(c) = t.committed {
                    if e.at < c {
                        return Err(format!("P5: committed data forwarded early at {e}"));
                    }
                }
                t.first_forward.get_or_insert(e.at);
            }
            TraceKind::WindowClosed => {
                let item = e
                    .item
                    .ok_or_else(|| format!("window close without item: {e}"))?;
                open_group = Some(item);
                current_fl[item_slots.slot(item.0)]
                    .get_or_insert_with(Vec::new)
                    .clear();
            }
            TraceKind::FlOrdered => {
                let (txn, item) = ids(e)?;
                if open_group != Some(item) {
                    return Err(format!(
                        "P7: forward-list entry outside its window close at {e}"
                    ));
                }
                // The open group's WindowClosed dispatched this list.
                let fl = current_fl[item_slots.slot(item.0)].get_or_insert_with(Vec::new);
                if fl.contains(&txn) {
                    return Err(format!("P6: {txn} appears twice in the list at {e}"));
                }
                if opts.fl_consistent {
                    let t = txn_slots.slot(txn.0);
                    for &prior in fl.iter() {
                        if txns[t].before.contains(&prior) {
                            return Err(format!(
                                "P6: {prior} ordered after {txn} at {e}, but an \
                                 earlier list fixed the opposite order"
                            ));
                        }
                        txns[txn_slots.slot(prior.0)].before.push(txn);
                    }
                }
                fl.push(txn);
            }
            TraceKind::FlExtended => {
                let (txn, item) = ids(e)?;
                if !opts.expand_reads {
                    return Err(format!(
                        "P7: forward list mutated after window close at {e}"
                    ));
                }
                let Some(fl) = &mut current_fl[item_slots.slot(item.0)] else {
                    return Err(format!(
                        "P7: reader joined an item with no dispatched list at {e}"
                    ));
                };
                if fl.contains(&txn) {
                    return Err(format!("P6: {txn} appears twice in the list at {e}"));
                }
                // Joined readers share the final reader group, so their
                // position fixes no cross-item precedence — append without
                // recording P6 pairs.
                fl.push(txn);
            }
            TraceKind::FaultInjected => {
                if !opts.faults {
                    return Err(format!("P8: fault injected on a reliable network at {e}"));
                }
            }
            TraceKind::LeaseExpired => {
                if !opts.faults {
                    return Err(format!("P8: lease expired on a reliable network at {e}"));
                }
                open_expiries.push((e.txn, e.item, e.at));
            }
            TraceKind::Redispatch => {
                if !opts.faults {
                    return Err(format!("P8: redispatch on a reliable network at {e}"));
                }
                // Resolve the earliest matching expiry: by item when the
                // expiry names one (g-2PL per-checkout leases), else by
                // victim transaction (s-2PL/c-2PL per-txn leases).
                let matched = open_expiries.iter().position(|&(txn, item, _)| {
                    if item.is_some() {
                        item == e.item
                    } else {
                        txn == e.txn
                    }
                });
                match matched {
                    Some(i) => {
                        open_expiries.remove(i);
                    }
                    None => {
                        return Err(format!("P8: redispatch without a lease expiry at {e}"));
                    }
                }
            }
            TraceKind::ServerCrashed => {
                if !opts.faults {
                    return Err(format!("P9: server crash on a reliable network at {e}"));
                }
                if down_servers.contains(&e.site) {
                    return Err(format!("P9: server crashed while already down at {e}"));
                }
                down_servers.push(e.site);
                server_crashed_once = true;
            }
            TraceKind::ServerRecovered => {
                if !opts.faults {
                    return Err(format!("P9: server recovery on a reliable network at {e}"));
                }
                let Some(i) = down_servers.iter().position(|&s| s == e.site) else {
                    return Err(format!("P9: server recovered without a crash at {e}"));
                };
                down_servers.swap_remove(i);
            }
            TraceKind::Reregister => {
                if !opts.faults {
                    return Err(format!("P9: re-registration on a reliable network at {e}"));
                }
                if down_servers.is_empty() {
                    return Err(format!(
                        "P9: re-registration outside a recovery window at {e}"
                    ));
                }
            }
            TraceKind::Prepared => {
                if !opts.faults {
                    return Err(format!("P10: prepare vote on a reliable network at {e}"));
                }
                let txn = txn_of(e, "prepare")?;
                let t = &mut txns[txn_slots.slot(txn.0)];
                if t.committed.is_some() || t.aborted {
                    return Err(format!(
                        "P10: prepare vote for a decided transaction at {e}"
                    ));
                }
                if t.votes.contains(&e.site) {
                    return Err(format!("P10: shard voted twice at {e}"));
                }
                t.votes.push(e.site);
            }
            TraceKind::CommitApplied => {
                if !opts.faults {
                    return Err(format!("P10: commit applied on a reliable network at {e}"));
                }
                let txn = txn_of(e, "apply")?;
                let t = &mut txns[txn_slots.slot(txn.0)];
                if t.aborted {
                    return Err(format!(
                        "P10: commit applied for an aborted transaction at {e}"
                    ));
                }
                if t.committed.is_none() {
                    return Err(format!(
                        "P10: commit applied before the coordinator decided at {e}"
                    ));
                }
                let Some(i) = t.votes.iter().position(|&s| s == e.site) else {
                    return Err(format!(
                        "P10: commit applied at a shard that never prepared at {e}"
                    ));
                };
                t.votes.swap_remove(i);
            }
            TraceKind::RequestArrived
            | TraceKind::HopDeparted
            | TraceKind::ReleaseArrived
            | TraceKind::SlowTxn => {}
        }
    }
    if opts.faults {
        if !down_servers.is_empty() {
            return Err("P9: a server crashed but never recovered".to_string());
        }
        if let Some((txn, item, at)) = open_expiries.first() {
            return Err(format!(
                "P8: lease expiry at t={} (txn {txn:?}, item {item:?}) was never \
                 followed by a redispatch",
                at.units()
            ));
        }
        // Eventual completion: nobody who asked for anything waits
        // forever (assumes a drained run — see the module docs).
        for (slot, t) in txns.iter().enumerate() {
            if t.requests > 0 && t.committed.is_none() && !t.aborted {
                let txn = TxnId::new(txn_slots.id(slot));
                return Err(format!(
                    "P8: {txn} sent requests but neither committed nor aborted"
                ));
            }
        }
        // Atomic commitment: a committed multi-home transaction must not
        // leave any voted shard unapplied; an aborted one may (its votes
        // are retired by release records the trace does not carry), but
        // an undecided one with outstanding votes blocks those shards
        // forever.
        for (slot, t) in txns.iter().enumerate() {
            if t.votes.is_empty() {
                continue;
            }
            let txn = TxnId::new(txn_slots.id(slot));
            if t.committed.is_some() {
                return Err(format!(
                    "P10: {txn} committed but a prepared shard never applied it"
                ));
            }
            if !t.aborted {
                return Err(format!("P10: prepared vote of {txn} was never resolved"));
            }
        }
    }
    Ok(())
}

fn ids(e: &TraceEvent) -> Result<(TxnId, ItemId), String> {
    match (e.txn, e.item) {
        (Some(t), Some(i)) => Ok((t, i)),
        _ => Err(format!("event missing txn/item: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g2pl_protocols::{run, EngineConfig, ProtocolKind};
    use g2pl_simcore::SiteId;

    fn ev(at: u64, kind: TraceKind, txn: u32, item: Option<u32>) -> TraceEvent {
        kind.at(
            SimTime::new(at),
            Some(TxnId::new(txn)),
            item.map(ItemId::new),
            SiteId::SERVER0,
        )
    }

    fn traced_run(protocol: ProtocolKind) -> std::sync::Arc<[TraceEvent]> {
        let mut cfg = EngineConfig::table1(protocol, 8, 50, 0.4);
        cfg.warmup_txns = 0;
        cfg.measured_txns = 300;
        cfg.trace_events = true;
        cfg.drain = true;
        run(&cfg).expect("valid config").trace.expect("trace on")
    }

    #[test]
    fn engine_traces_validate() {
        for protocol in [
            ProtocolKind::S2pl,
            ProtocolKind::g2pl_paper(),
            ProtocolKind::C2pl,
        ] {
            let label = format!("{protocol:?}");
            check_trace(&traced_run(protocol)).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn g2pl_traces_contain_forward_list_events() {
        // P6/P7 must not be vacuous: the g-2PL engine really emits the
        // window-close choreography.
        let trace = traced_run(ProtocolKind::g2pl_paper());
        let closes = trace
            .iter()
            .filter(|e| e.kind == TraceKind::WindowClosed)
            .count();
        let entries = trace
            .iter()
            .filter(|e| e.kind == TraceKind::FlOrdered)
            .count();
        assert!(closes > 0, "no WindowClosed events recorded");
        assert!(entries >= closes, "every dispatch lists at least one entry");
    }

    #[test]
    fn fifo_engine_traces_validate_without_consistency() {
        // The FIFO ablation produces mutually inconsistent lists by
        // design; the checker must accept them under the right options
        // (and the structural P7 checks still apply).
        let opts = g2pl_protocols::G2plOpts {
            ordering: g2pl_fwdlist::OrderingRule::fifo(),
            ..g2pl_protocols::G2plOpts::default()
        };
        let trace = traced_run(ProtocolKind::G2pl(opts));
        let check_opts = TraceCheckOpts {
            fl_consistent: false,
            expand_reads: false,
            faults: false,
        };
        check_trace_with(&trace, check_opts).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn expanded_read_engine_traces_validate() {
        let opts = g2pl_protocols::G2plOpts {
            expand_reads: true,
            ..g2pl_protocols::G2plOpts::default()
        };
        let kind = ProtocolKind::G2pl(opts);
        let mut cfg = EngineConfig::table1(kind, 8, 50, 0.9);
        cfg.warmup_txns = 0;
        cfg.measured_txns = 300;
        cfg.trace_events = true;
        cfg.drain = true;
        let trace = run(&cfg).expect("valid config").trace.expect("trace on");
        let check_opts = TraceCheckOpts::for_config(&cfg);
        assert!(check_opts.expand_reads, "opts derive from the config");
        check_trace_with(&trace, check_opts).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn c2pl_cache_hits_grant_without_request() {
        // Cache hits are local grants with no request — P1 must accept
        // them... they do not occur: c-2PL grants cached reads without a
        // RequestSent event, so the checker would flag them. Verify the
        // engine emits consistent traces anyway (covered above) and that
        // a hand-built grant-without-request is rejected:
        let trace = vec![ev(1, TraceKind::Granted, 1, Some(0))];
        assert!(check_trace(&trace).unwrap_err().contains("P1"));
    }

    #[test]
    fn rejects_double_commit() {
        let trace = vec![
            ev(1, TraceKind::Committed, 1, None),
            ev(2, TraceKind::Committed, 1, None),
        ];
        assert!(check_trace(&trace).unwrap_err().contains("P3"));
    }

    #[test]
    fn rejects_commit_after_abort() {
        let trace = vec![
            ev(1, TraceKind::Aborted, 1, None),
            ev(2, TraceKind::Committed, 1, None),
        ];
        assert!(check_trace(&trace).unwrap_err().contains("P3"));
    }

    #[test]
    fn rejects_unbalanced_commit() {
        let trace = vec![
            ev(0, TraceKind::RequestSent, 1, Some(0)),
            ev(2, TraceKind::RequestSent, 1, Some(1)),
            ev(3, TraceKind::Granted, 1, Some(0)),
            ev(4, TraceKind::Committed, 1, None),
        ];
        let err = check_trace(&trace).unwrap_err();
        assert!(err.contains("P2"), "{err}");
    }

    #[test]
    fn rejects_forward_without_possession() {
        let trace = vec![ev(1, TraceKind::Forwarded, 1, Some(0))];
        assert!(check_trace(&trace).unwrap_err().contains("P4"));
    }

    #[test]
    fn rejects_time_regression() {
        let trace = vec![
            ev(5, TraceKind::RequestSent, 1, Some(0)),
            ev(3, TraceKind::RequestSent, 2, Some(1)),
        ];
        assert!(check_trace(&trace).unwrap_err().contains("backwards"));
    }

    #[test]
    fn accepts_well_formed_sequence() {
        let trace = vec![
            ev(0, TraceKind::RequestSent, 1, Some(0)),
            ev(2, TraceKind::Granted, 1, Some(0)),
            ev(4, TraceKind::Committed, 1, None),
            ev(4, TraceKind::Forwarded, 1, Some(0)),
        ];
        assert!(check_trace(&trace).is_ok());
    }

    /// A `WindowClosed` event carrying no txn, only an item.
    fn close(at: u64, item: u32) -> TraceEvent {
        TraceKind::WindowClosed.at(
            SimTime::new(at),
            None,
            Some(ItemId::new(item)),
            SiteId::SERVER0,
        )
    }

    #[test]
    fn rejects_forward_before_own_commit() {
        // Strictness (P5): the txn forwards its data at t=3 and only
        // commits at t=5 — a pre-commit leak of committed state.
        let trace = vec![
            ev(0, TraceKind::RequestSent, 1, Some(0)),
            ev(1, TraceKind::Granted, 1, Some(0)),
            ev(3, TraceKind::Forwarded, 1, Some(0)),
            ev(5, TraceKind::Committed, 1, None),
        ];
        let err = check_trace(&trace).unwrap_err();
        assert!(err.contains("P5"), "{err}");
    }

    #[test]
    fn rejects_inconsistent_forward_list_orders() {
        // One list fixes T1 < T2 on item 0; a later list on item 1
        // reverses the pair — exactly the §3.3 inconsistency that causes
        // cross-item deadlocks.
        let trace = vec![
            close(0, 0),
            ev(0, TraceKind::FlOrdered, 1, Some(0)),
            ev(0, TraceKind::FlOrdered, 2, Some(0)),
            close(4, 1),
            ev(4, TraceKind::FlOrdered, 2, Some(1)),
            ev(4, TraceKind::FlOrdered, 1, Some(1)),
        ];
        let err = check_trace(&trace).unwrap_err();
        assert!(err.contains("P6"), "{err}");
        // The FIFO ablation is allowed to do this.
        let lax = TraceCheckOpts {
            fl_consistent: false,
            expand_reads: false,
            faults: false,
        };
        assert!(check_trace_with(&trace, lax).is_ok());
    }

    #[test]
    fn rejects_duplicate_forward_list_entry() {
        let trace = vec![
            close(0, 0),
            ev(0, TraceKind::FlOrdered, 1, Some(0)),
            ev(0, TraceKind::FlOrdered, 1, Some(0)),
        ];
        let err = check_trace(&trace).unwrap_err();
        assert!(err.contains("P6"), "{err}");
    }

    #[test]
    fn rejects_list_entry_outside_window_close() {
        // An FlOrdered entry with no preceding WindowClosed for its item
        // is a forward list mutated outside its window close.
        let trace = vec![ev(1, TraceKind::FlOrdered, 1, Some(0))];
        let err = check_trace(&trace).unwrap_err();
        assert!(err.contains("P7"), "{err}");
        // ... including when a *different* item's group is open:
        let trace = vec![close(0, 1), ev(0, TraceKind::FlOrdered, 1, Some(0))];
        let err = check_trace(&trace).unwrap_err();
        assert!(err.contains("P7"), "{err}");
    }

    #[test]
    fn rejects_extension_without_expand_reads() {
        let trace = vec![
            close(0, 0),
            ev(0, TraceKind::FlOrdered, 1, Some(0)),
            ev(3, TraceKind::FlExtended, 2, Some(0)),
        ];
        let err = check_trace(&trace).unwrap_err();
        assert!(err.contains("P7"), "{err}");
        // Legal when the run used the read-expansion variant.
        let lax = TraceCheckOpts {
            fl_consistent: true,
            expand_reads: true,
            faults: false,
        };
        assert!(check_trace_with(&trace, lax).is_ok());
    }

    #[test]
    fn rejects_extension_of_undispatched_item() {
        let lax = TraceCheckOpts {
            fl_consistent: true,
            expand_reads: true,
            faults: false,
        };
        let trace = vec![ev(1, TraceKind::FlExtended, 2, Some(0))];
        let err = check_trace_with(&trace, lax).unwrap_err();
        assert!(err.contains("P7"), "{err}");
    }

    fn faulty() -> TraceCheckOpts {
        TraceCheckOpts {
            faults: true,
            ..TraceCheckOpts::default()
        }
    }

    #[test]
    fn rejects_fault_events_on_reliable_network() {
        for kind in [
            TraceKind::FaultInjected,
            TraceKind::LeaseExpired,
            TraceKind::Redispatch,
        ] {
            let trace = vec![ev(1, kind, 1, None)];
            let err = check_trace(&trace).unwrap_err();
            assert!(err.contains("P8"), "{kind:?}: {err}");
        }
    }

    #[test]
    fn rejects_unresolved_lease_expiry() {
        // An expiry with no later redispatch = a checkout lost forever.
        let trace = vec![ev(1, TraceKind::LeaseExpired, 1, Some(3))];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("P8"), "{err}");
        // Resolving it by item makes the trace legal.
        let trace = vec![
            ev(1, TraceKind::LeaseExpired, 1, Some(3)),
            ev(1, TraceKind::Redispatch, 1, Some(3)),
        ];
        check_trace_with(&trace, faulty()).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn rejects_redispatch_without_expiry() {
        let trace = vec![ev(1, TraceKind::Redispatch, 1, Some(3))];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("P8"), "{err}");
    }

    #[test]
    fn rejects_eternally_waiting_txn_under_faults() {
        // T1 asked for item 0 and was never heard from again.
        let trace = vec![ev(0, TraceKind::RequestSent, 1, Some(0))];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("P8"), "{err}");
        // A reliable-network checker does not demand completion.
        assert!(check_trace(&trace).is_ok());
        // Abort resolves the wait.
        let trace = vec![
            ev(0, TraceKind::RequestSent, 1, Some(0)),
            ev(5, TraceKind::Aborted, 1, None),
        ];
        check_trace_with(&trace, faulty()).unwrap_or_else(|e| panic!("{e}"));
    }

    /// A server-side event carrying neither txn nor item.
    fn srv(at: u64, kind: TraceKind) -> TraceEvent {
        kind.at(SimTime::new(at), None, None, SiteId::SERVER0)
    }

    #[test]
    fn rejects_server_crash_events_on_reliable_network() {
        for kind in [
            TraceKind::ServerCrashed,
            TraceKind::ServerRecovered,
            TraceKind::Reregister,
        ] {
            let err = check_trace(&[srv(1, kind)]).unwrap_err();
            assert!(err.contains("P9"), "{kind:?}: {err}");
        }
    }

    #[test]
    fn rejects_lost_acknowledged_commit() {
        // T1's commit was acknowledged before the crash; aborting it
        // afterwards means recovery dropped durable state — the exact
        // failure P9 exists to catch, reported as P9, not P3.
        let trace = vec![
            ev(1, TraceKind::Committed, 1, None),
            srv(2, TraceKind::ServerCrashed),
            srv(4, TraceKind::ServerRecovered),
            ev(5, TraceKind::Aborted, 1, None),
        ];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("P9"), "{err}");
        assert!(err.contains("lost"), "{err}");
    }

    #[test]
    fn rejects_server_activity_inside_crash_window() {
        // A window close between crash and recovery could only come from
        // pre-crash volatile state — a grant from a stale forward list.
        for kind in [
            TraceKind::WindowClosed,
            TraceKind::FlOrdered,
            TraceKind::ReleaseArrived,
            TraceKind::LeaseExpired,
            TraceKind::Redispatch,
        ] {
            let trace = vec![
                srv(1, TraceKind::ServerCrashed),
                ev(2, kind, 7, Some(0)),
                srv(3, TraceKind::ServerRecovered),
            ];
            let err = check_trace_with(&trace, faulty()).unwrap_err();
            assert!(err.contains("P9"), "{kind:?}: {err}");
        }
    }

    #[test]
    fn rejects_malformed_crash_windows() {
        // Recovery without a crash.
        let err = check_trace_with(&[srv(1, TraceKind::ServerRecovered)], faulty()).unwrap_err();
        assert!(err.contains("P9"), "{err}");
        // Double crash without an intervening recovery.
        let trace = vec![
            srv(1, TraceKind::ServerCrashed),
            srv(2, TraceKind::ServerCrashed),
        ];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("P9"), "{err}");
        // A crash the trace never recovers from.
        let err = check_trace_with(&[srv(1, TraceKind::ServerCrashed)], faulty()).unwrap_err();
        assert!(err.contains("never recovered"), "{err}");
        // Re-registration with no recovery in progress.
        let trace = vec![
            srv(1, TraceKind::ServerCrashed),
            srv(2, TraceKind::ServerRecovered),
            ev(3, TraceKind::Reregister, 1, None),
        ];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("P9"), "{err}");
    }

    #[test]
    fn accepts_well_formed_crash_window() {
        // Reports inside the window, server activity only after recovery.
        let trace = vec![
            srv(1, TraceKind::ServerCrashed),
            ev(2, TraceKind::Reregister, 1, None),
            srv(3, TraceKind::ServerRecovered),
            close(3, 0),
            ev(3, TraceKind::FlOrdered, 1, Some(0)),
        ];
        check_trace_with(&trace, faulty()).unwrap_or_else(|e| panic!("{e}"));
    }

    /// A 2PC event at a given server site.
    fn shard_ev(at: u64, kind: TraceKind, txn: u32, shard: u32) -> TraceEvent {
        kind.at(
            SimTime::new(at),
            Some(TxnId::new(txn)),
            None,
            SiteId::server(shard),
        )
    }

    #[test]
    fn rejects_p10_events_on_reliable_network() {
        for kind in [TraceKind::Prepared, TraceKind::CommitApplied] {
            let err = check_trace(&[shard_ev(1, kind, 1, 0)]).unwrap_err();
            assert!(err.contains("P10"), "{kind:?}: {err}");
        }
    }

    #[test]
    fn rejects_apply_without_prepare() {
        // Shard 1 voted; shard 2 applied without ever voting.
        let trace = vec![
            shard_ev(1, TraceKind::Prepared, 1, 1),
            ev(2, TraceKind::Committed, 1, None),
            shard_ev(3, TraceKind::CommitApplied, 1, 2),
        ];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("P10"), "{err}");
        assert!(err.contains("never prepared"), "{err}");
    }

    #[test]
    fn rejects_apply_for_undecided_or_aborted_txn() {
        // Applied before the coordinator decided.
        let trace = vec![
            shard_ev(1, TraceKind::Prepared, 1, 1),
            shard_ev(2, TraceKind::CommitApplied, 1, 1),
        ];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("P10"), "{err}");
        // Applied for a transaction that aborted.
        let trace = vec![
            shard_ev(1, TraceKind::Prepared, 1, 1),
            ev(2, TraceKind::Aborted, 1, None),
            shard_ev(3, TraceKind::CommitApplied, 1, 1),
        ];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("aborted"), "{err}");
    }

    #[test]
    fn rejects_double_vote_and_double_apply() {
        let trace = vec![
            shard_ev(1, TraceKind::Prepared, 1, 1),
            shard_ev(2, TraceKind::Prepared, 1, 1),
        ];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("voted twice"), "{err}");
        // A second apply at the same shard has no outstanding vote left.
        let trace = vec![
            shard_ev(1, TraceKind::Prepared, 1, 1),
            ev(2, TraceKind::Committed, 1, None),
            shard_ev(3, TraceKind::CommitApplied, 1, 1),
            shard_ev(4, TraceKind::CommitApplied, 1, 1),
        ];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("P10"), "{err}");
    }

    #[test]
    fn rejects_committed_txn_with_unapplied_vote() {
        // Both shards voted, the coordinator committed, but shard 2
        // never applied the decision — a drained run must not end here.
        let trace = vec![
            shard_ev(1, TraceKind::Prepared, 1, 1),
            shard_ev(1, TraceKind::Prepared, 1, 2),
            ev(2, TraceKind::Committed, 1, None),
            shard_ev(3, TraceKind::CommitApplied, 1, 1),
        ];
        let err = check_trace_with(&trace, faulty()).unwrap_err();
        assert!(err.contains("P10"), "{err}");
        assert!(err.contains("never applied"), "{err}");
    }

    #[test]
    fn accepts_atomic_two_phase_commitment() {
        // The happy path: vote everywhere, decide, apply everywhere —
        // and an aborted sibling may leave its vote to presumed abort.
        let trace = vec![
            shard_ev(1, TraceKind::Prepared, 1, 1),
            shard_ev(1, TraceKind::Prepared, 1, 2),
            ev(2, TraceKind::Committed, 1, None),
            shard_ev(3, TraceKind::CommitApplied, 1, 1),
            shard_ev(3, TraceKind::CommitApplied, 1, 2),
            shard_ev(4, TraceKind::Prepared, 2, 1),
            ev(5, TraceKind::Aborted, 2, None),
        ];
        check_trace_with(&trace, faulty()).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn sharded_crash_engine_traces_validate_under_p10() {
        use g2pl_faults::{FaultPlan, ServerCrashWindow};
        use g2pl_protocols::{ItemSpace, ShardMix};
        // Crash a non-zero shard mid-run with 30% multi-home commits in
        // flight: every engine must drain with P1-P10 intact, and the
        // trace must actually exercise the 2PC events (non-vacuous).
        for protocol in [
            ProtocolKind::S2pl,
            ProtocolKind::g2pl_paper(),
            ProtocolKind::C2pl,
        ] {
            let label = format!("{protocol:?}");
            let mut cfg = EngineConfig::table1(protocol, 8, 50, 0.4);
            cfg.warmup_txns = 0;
            cfg.measured_txns = 250;
            cfg.trace_events = true;
            cfg.drain = true;
            cfg.items = ItemSpace::sharded(4, 7);
            cfg.profile.shard_mix = Some(ShardMix {
                cross_frac: 0.3,
                shard_theta: 0.5,
            });
            cfg.faults = Some(FaultPlan {
                server_crashes: vec![ServerCrashWindow {
                    shard: 2,
                    at: 5_000,
                    down_for: 1_200,
                    jitter: 0,
                }],
                ..Default::default()
            });
            let m = run(&cfg).expect("valid config");
            assert_eq!(m.faults.server_crashes, 1, "{label}: crash executed");
            let trace = m.trace.expect("trace on");
            let prepares = trace
                .iter()
                .filter(|e| e.kind == TraceKind::Prepared)
                .count();
            assert!(prepares > 0, "{label}: no multi-home votes recorded");
            assert!(
                trace
                    .iter()
                    .any(|e| e.kind == TraceKind::ServerCrashed && e.site == SiteId::server(2)),
                "{label}: crash not attributed to shard 2"
            );
            check_trace_with(&trace, TraceCheckOpts::for_config(&cfg))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn server_crash_engine_traces_validate_under_p9() {
        use g2pl_faults::{FaultPlan, ServerCrashWindow};
        for protocol in [
            ProtocolKind::S2pl,
            ProtocolKind::g2pl_paper(),
            ProtocolKind::C2pl,
        ] {
            let label = format!("{protocol:?}");
            let mut cfg = EngineConfig::table1(protocol, 8, 50, 0.4);
            cfg.warmup_txns = 0;
            cfg.measured_txns = 250;
            cfg.trace_events = true;
            cfg.drain = true;
            cfg.faults = Some(FaultPlan {
                server_crashes: vec![
                    ServerCrashWindow::fixed(4_000, 1_500),
                    ServerCrashWindow::fixed(15_000, 800),
                ],
                ..Default::default()
            });
            let m = run(&cfg).expect("valid config");
            assert_eq!(m.faults.server_crashes, 2, "{label}: crashes executed");
            let opts = TraceCheckOpts::for_config(&cfg);
            check_trace_with(&m.trace.expect("trace on"), opts)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn lossy_engine_traces_validate_under_p8() {
        use g2pl_faults::FaultPlan;
        for protocol in [
            ProtocolKind::S2pl,
            ProtocolKind::g2pl_paper(),
            ProtocolKind::C2pl,
        ] {
            let label = format!("{protocol:?}");
            let mut cfg = EngineConfig::table1(protocol, 8, 50, 0.4);
            cfg.warmup_txns = 0;
            cfg.measured_txns = 250;
            cfg.trace_events = true;
            cfg.drain = true;
            cfg.faults = Some(FaultPlan::message_loss(0.05));
            let m = run(&cfg).expect("valid config");
            assert!(m.faults.injected.total() > 0, "{label}: no faults injected");
            let opts = TraceCheckOpts::for_config(&cfg);
            assert!(opts.faults, "opts derive the fault plan from the config");
            check_trace_with(&m.trace.expect("trace on"), opts)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}
