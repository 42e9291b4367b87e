//! The tracecheck as it was before its state went dense: eight
//! per-transaction and per-(transaction, item) maps, a SipHash pair set
//! for P6 and a hashed set of down sites. Test-only reference.

use g2pl_core::TraceCheckOpts;
use g2pl_protocols::{TraceEvent, TraceKind};
use g2pl_simcore::{ItemId, SimTime, SiteId, TxnId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Validate a trace; returns a description of the first violation.
pub fn check_trace_with(events: &[TraceEvent], opts: TraceCheckOpts) -> Result<(), String> {
    let mut requested: HashMap<(TxnId, ItemId), u64> = HashMap::new();
    let mut granted: HashMap<(TxnId, ItemId), u64> = HashMap::new();
    let mut arrived: HashSet<(TxnId, ItemId)> = HashSet::new();
    // BTreeMap: P8 iterates this to report a stuck transaction, and the
    // one it names must not depend on hash order.
    let mut req_count: BTreeMap<TxnId, u64> = BTreeMap::new();
    let mut grant_count: HashMap<TxnId, u64> = HashMap::new();
    let mut committed: HashMap<TxnId, SimTime> = HashMap::new();
    let mut aborted: HashSet<TxnId> = HashSet::new();
    // Earliest forward per transaction, for the strictness check at commit.
    let mut first_forward: HashMap<TxnId, SimTime> = HashMap::new();
    // The most recently dispatched forward list of each item (P6/P7).
    let mut current_fl: HashMap<ItemId, Vec<TxnId>> = HashMap::new();
    // Item whose dispatch group (WindowClosed + FlOrdered run) is open.
    let mut open_group: Option<ItemId> = None;
    // Global pairwise order fixed by dispatched lists: (a, b) = a before b.
    let mut fl_order: HashSet<(TxnId, TxnId)> = HashSet::new();
    // Lease expiries not yet resolved by a redispatch (P8b).
    let mut open_expiries: Vec<(Option<TxnId>, Option<ItemId>, SimTime)> = Vec::new();
    // Server sites currently inside a crash window, each tracked
    // independently (P9): in a sharded space only the crashed shard must
    // fall silent — the surviving shards keep serving.
    let mut down_servers: HashSet<SiteId> = HashSet::new();
    // Whether any server crash has occurred yet (P9 lost-commit check).
    let mut server_crashed_once = false;
    // Outstanding prepared votes per transaction: shards that logged a
    // vote and have not yet applied the commit (P10). BTreeMap so the
    // end-of-trace report names a deterministic transaction.
    let mut prepared: BTreeMap<TxnId, HashSet<SiteId>> = BTreeMap::new();
    let mut last_t = SimTime::ZERO;

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
        if down_servers.contains(&e.site)
            && matches!(
                e.kind,
                TraceKind::WindowClosed
                    | TraceKind::FlOrdered
                    | TraceKind::FlExtended
                    | TraceKind::ReleaseArrived
                    | TraceKind::LeaseExpired
                    | TraceKind::Redispatch
                    | TraceKind::Prepared
            )
        {
            // `CommitApplied` is deliberately absent from this set: a
            // recovering shard resolves in-doubt votes (and records the
            // apply) *inside* its crash window, before `ServerRecovered`.
            return Err(format!("P9: server activity inside a crash window at {e}"));
        }
        match e.kind {
            TraceKind::RequestSent => {
                let (txn, item) = ids(e)?;
                *requested.entry((txn, item)).or_insert(0) += 1;
                *req_count.entry(txn).or_insert(0) += 1;
            }
            TraceKind::DataArrived => {
                let (txn, item) = ids(e)?;
                arrived.insert((txn, item));
            }
            TraceKind::Granted => {
                let (txn, item) = ids(e)?;
                let reqs = requested.get(&(txn, item)).copied().unwrap_or(0);
                let grants = granted.entry((txn, item)).or_insert(0);
                *grants += 1;
                if *grants > reqs {
                    return Err(format!("P1: grant without request at {e}"));
                }
                *grant_count.entry(txn).or_insert(0) += 1;
                if committed.contains_key(&txn) {
                    return Err(format!("P2: grant after commit at {e}"));
                }
            }
            TraceKind::Committed => {
                let txn = e.txn.ok_or_else(|| format!("commit without txn: {e}"))?;
                if committed.insert(txn, e.at).is_some() {
                    return Err(format!("P3: double commit at {e}"));
                }
                if aborted.contains(&txn) {
                    return Err(format!("P3: commit after abort at {e}"));
                }
                let r = req_count.get(&txn).copied().unwrap_or(0);
                let g = grant_count.get(&txn).copied().unwrap_or(0);
                if r != g {
                    return Err(format!(
                        "P2: {txn} committed with {g} grants for {r} requests"
                    ));
                }
                if let Some(&f) = first_forward.get(&txn) {
                    if f < e.at {
                        return Err(format!(
                            "P5: {txn} forwarded data at t={} before committing at {e}",
                            f.units()
                        ));
                    }
                }
            }
            TraceKind::Aborted => {
                let txn = e.txn.ok_or_else(|| format!("abort without txn: {e}"))?;
                if !aborted.insert(txn) {
                    return Err(format!("P3: double abort at {e}"));
                }
                if committed.contains_key(&txn) {
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
                let has_grant = granted.get(&(txn, item)).copied().unwrap_or(0) > 0;
                if !has_grant && !arrived.contains(&(txn, item)) {
                    return Err(format!("P4: forward without possession at {e}"));
                }
                if let Some(&c) = committed.get(&txn) {
                    if e.at < c {
                        return Err(format!("P5: committed data forwarded early at {e}"));
                    }
                }
                first_forward.entry(txn).or_insert(e.at);
            }
            TraceKind::CacheHit => {
                let (txn, item) = ids(e)?;
                arrived.insert((txn, item));
            }
            TraceKind::WindowClosed => {
                let item = e
                    .item
                    .ok_or_else(|| format!("window close without item: {e}"))?;
                open_group = Some(item);
                current_fl.insert(item, Vec::new());
            }
            TraceKind::FlOrdered => {
                let (txn, item) = ids(e)?;
                if open_group != Some(item) {
                    return Err(format!(
                        "P7: forward-list entry outside its window close at {e}"
                    ));
                }
                let fl = current_fl.get_mut(&item).expect("open group has a list");
                if fl.contains(&txn) {
                    return Err(format!("P6: {txn} appears twice in the list at {e}"));
                }
                if opts.fl_consistent {
                    for &prior in fl.iter() {
                        if fl_order.contains(&(txn, prior)) {
                            return Err(format!(
                                "P6: {prior} ordered after {txn} at {e}, but an \
                                 earlier list fixed the opposite order"
                            ));
                        }
                        fl_order.insert((prior, txn));
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
                let Some(fl) = current_fl.get_mut(&item) else {
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
                if !down_servers.insert(e.site) {
                    return Err(format!("P9: server crashed while already down at {e}"));
                }
                server_crashed_once = true;
            }
            TraceKind::ServerRecovered => {
                if !opts.faults {
                    return Err(format!("P9: server recovery on a reliable network at {e}"));
                }
                if !down_servers.remove(&e.site) {
                    return Err(format!("P9: server recovered without a crash at {e}"));
                }
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
                let txn = e.txn.ok_or_else(|| format!("prepare without txn: {e}"))?;
                if committed.contains_key(&txn) || aborted.contains(&txn) {
                    return Err(format!(
                        "P10: prepare vote for a decided transaction at {e}"
                    ));
                }
                if !prepared.entry(txn).or_default().insert(e.site) {
                    return Err(format!("P10: shard voted twice at {e}"));
                }
            }
            TraceKind::CommitApplied => {
                if !opts.faults {
                    return Err(format!("P10: commit applied on a reliable network at {e}"));
                }
                let txn = e.txn.ok_or_else(|| format!("apply without txn: {e}"))?;
                if aborted.contains(&txn) {
                    return Err(format!(
                        "P10: commit applied for an aborted transaction at {e}"
                    ));
                }
                if !committed.contains_key(&txn) {
                    return Err(format!(
                        "P10: commit applied before the coordinator decided at {e}"
                    ));
                }
                if !prepared.get_mut(&txn).is_some_and(|s| s.remove(&e.site)) {
                    return Err(format!(
                        "P10: commit applied at a shard that never prepared at {e}"
                    ));
                }
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
        for txn in req_count.keys() {
            if !committed.contains_key(txn) && !aborted.contains(txn) {
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
        for (txn, shards) in &prepared {
            if shards.is_empty() {
                continue;
            }
            if committed.contains_key(txn) {
                return Err(format!(
                    "P10: {txn} committed but a prepared shard never applied it"
                ));
            }
            if !aborted.contains(txn) {
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
