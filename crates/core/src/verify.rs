//! Offline serializability and strictness checking.
//!
//! Both s-2PL and g-2PL must produce strict, (conflict-)serializable
//! executions — that is the whole point of a locking protocol. The
//! engines optionally record, per committed transaction, the version of
//! every item it read and the version it installed for every item it
//! wrote; [`check_serializable`] rebuilds the version-order conflict
//! graph from that record and verifies it is acyclic.
//!
//! Conflict edges, per item:
//! * **ww**: the writer of version `v` precedes the writer of the next
//!   higher version;
//! * **wr**: the writer of version `v` precedes every reader of `v`;
//! * **rw**: every reader of version `v` precedes the writer of the next
//!   higher version.
//!
//! Versions install densely (1, 2, 3, …) per item, so the checker also
//! validates the write chain itself.
//!
//! # Dense state
//!
//! Every write and read becomes one row tagged with its item's slot
//! (see `Slots`) and its position in the history. The writes are sorted
//! by item, version and position, so each item's write chain is a
//! contiguous run in which version `v` sits at offset `v − 1`, and a read
//! finds its writer and the next one by indexing. The conflict edges are
//! one sorted, deduplicated list of transaction-slot pairs, and Kahn's
//! algorithm runs over a `Vec` of in-degrees. Histories can come from
//! outside the engines, so no table is sized by a raw id or a version.
//! The checks run in the old order with the old messages; a cycle's
//! message also names one cycle, edge by edge.

use crate::slots::Slots;
use g2pl_protocols::History;
use g2pl_simcore::{ItemId, TxnId, Version};
use std::fmt::Write;

/// One access: the item's slot, the version read or installed, the
/// access's position in the history, and the transaction.
#[derive(Clone, Copy, Debug)]
struct Row {
    item: u32,
    version: Version,
    pos: usize,
    txn: TxnId,
}

/// Why one transaction precedes another: the conflict kind (`ww`, `wr`
/// or `rw`), the item, and the versions the two accessed.
type Reason = (&'static str, ItemId, Version, Version);

/// Check that a committed history is conflict-serializable and its
/// version chains are well-formed. Returns a description of the first
/// violation found.
pub fn check_serializable(history: &History) -> Result<(), String> {
    let records = history.records();
    let accesses = || records.iter().flat_map(|r| r.accesses.iter());
    let budget = 2 * (accesses().count() + records.len()) + 1024;
    let items = Slots::new(|| accesses().map(|a| a.item.0), budget);
    let txns = Slots::new(|| records.iter().map(|r| r.txn.0), budget);

    let mut writes: Vec<Row> = Vec::new();
    let mut reads: Vec<Row> = Vec::new();
    for (pos, (rec, acc)) in records
        .iter()
        .flat_map(|r| r.accesses.iter().map(move |a| (r, a)))
        .enumerate()
    {
        let row = Row {
            item: items.slot(acc.item.0) as u32,
            version: acc.version,
            pos,
            txn: rec.txn,
        };
        if !acc.mode.is_write() {
            reads.push(row);
        } else if acc.version != 0 {
            writes.push(row);
        }
    }
    writes.sort_unstable_by_key(|w| (w.item, w.version, w.pos));
    // The earliest write, in history order, of a version some earlier
    // access already installed, with that earlier writer.
    let twice: Option<(usize, TxnId)> = writes
        .windows(2)
        .filter(|w| (w[0].item, w[0].version) == (w[1].item, w[1].version))
        .map(|w| (w[1].pos, w[0].txn))
        .min_by_key(|&(pos, _)| pos);

    // Per-record checks, in history order: the record's previous access
    // to each item is marked with the record's index.
    let mut seen_in: Vec<usize> = vec![usize::MAX; items.len()];
    let mut pos = 0usize;
    for (r, rec) in records.iter().enumerate() {
        for acc in &rec.accesses {
            let last = &mut seen_in[items.slot(acc.item.0)];
            if std::mem::replace(last, r) == r {
                return Err(format!(
                    "{} accesses {} twice in one transaction",
                    rec.txn, acc.item
                ));
            }
            if acc.mode.is_write() {
                if acc.version == 0 {
                    return Err(format!(
                        "{} claims to have installed version 0 of {}",
                        rec.txn, acc.item
                    ));
                }
                if let Some((_, prev)) = twice.filter(|&(p, _)| p == pos) {
                    return Err(format!(
                        "two writers ({prev} and {}) installed version {} of {}",
                        rec.txn, acc.version, acc.item
                    ));
                }
            }
            pos += 1;
        }
    }

    // Validate write chains: versions must be dense from 1. Each item's
    // chain is then `writes[start..start + len]`, version v at offset v − 1.
    let mut chains: Vec<(usize, usize)> = vec![(0, 0); items.len()];
    let mut start = 0;
    for run in writes.chunk_by(|a, b| a.item == b.item) {
        for (i, w) in run.iter().enumerate() {
            if w.version != (i + 1) as Version {
                let item = ItemId::new(items.id(w.item as usize));
                return Err(format!(
                    "write chain of {item} has a gap: expected version {}, found {}",
                    i + 1,
                    w.version
                ));
            }
        }
        chains[run[0].item as usize] = (start, run.len());
        start += run.len();
    }

    // Validate reads observe existing versions: report the lowest
    // (item, version) read past its chain, with every reader of it.
    let chain_len = |rd: &Row| chains[rd.item as usize].1 as Version;
    if let Some(bad) = reads
        .iter()
        .filter(|rd| rd.version > chain_len(rd))
        .min_by_key(|rd| (rd.item, rd.version))
    {
        let txns: Vec<TxnId> = reads
            .iter()
            .filter(|rd| (rd.item, rd.version) == (bad.item, bad.version))
            .map(|rd| rd.txn)
            .collect();
        let item = ItemId::new(items.id(bad.item as usize));
        return Err(format!(
            "{txns:?} read version {} of {item}, but only {} were written",
            bad.version,
            chain_len(bad)
        ));
    }

    // Build the conflict graph and check acyclicity with Kahn's
    // algorithm.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    conflicts(&writes, &reads, &chains, &items, |a, b, _| {
        if a != b {
            edges.push((txns.slot(a.0) as u32, txns.slot(b.0) as u32));
        }
    });
    edges.sort_unstable();
    edges.dedup();
    let n = txns.len();
    let mut first_out = vec![0usize; n + 1];
    let mut indeg = vec![0u32; n];
    let mut in_graph = vec![false; n];
    for &(a, b) in &edges {
        first_out[a as usize + 1] += 1;
        indeg[b as usize] += 1;
        in_graph[a as usize] = true;
        in_graph[b as usize] = true;
    }
    for i in 0..n {
        first_out[i + 1] += first_out[i];
    }
    let nodes = in_graph.iter().filter(|&&g| g).count();
    let mut ready: Vec<usize> = (0..n).filter(|&i| in_graph[i] && indeg[i] == 0).collect();
    let mut removed = 0usize;
    while let Some(v) = ready.pop() {
        removed += 1;
        for &(_, s) in &edges[first_out[v]..first_out[v + 1]] {
            let d = &mut indeg[s as usize];
            *d -= 1;
            if *d == 0 {
                ready.push(s as usize);
            }
        }
    }
    if removed != nodes {
        let cycle = find_cycle(&edges, &indeg, &txns);
        return Err(format!(
            "conflict graph has a cycle among {} of {} transactions; one cycle: {}",
            nodes - removed,
            nodes,
            describe(&cycle, &writes, &reads, &chains, &items)
        ));
    }
    Ok(())
}

/// Call `add(a, b, why)` for every conflict edge `a → b`: ww edges item
/// by item, then each read's wr and rw edges in history order.
fn conflicts(
    writes: &[Row],
    reads: &[Row],
    chains: &[(usize, usize)],
    items: &Slots,
    mut add: impl FnMut(TxnId, TxnId, Reason),
) {
    let item_of = |slot: u32| ItemId::new(items.id(slot as usize));
    for &(start, len) in chains {
        for w in writes[start..start + len].windows(2) {
            add(
                w[0].txn,
                w[1].txn,
                ("ww", item_of(w[0].item), w[0].version, w[1].version),
            );
        }
    }
    for rd in reads {
        let (start, len) = chains[rd.item as usize];
        let v = rd.version as usize;
        // Items that were only read never generate edges.
        if v >= 1 && v <= len {
            let w = writes[start + v - 1];
            add(
                w.txn,
                rd.txn,
                ("wr", item_of(rd.item), w.version, rd.version),
            );
        }
        // Readers of a version precede the writer of the next one.
        if v < len {
            let w = writes[start + v];
            add(
                rd.txn,
                w.txn,
                ("rw", item_of(rd.item), rd.version, w.version),
            );
        }
    }
}

/// One cycle among the transactions Kahn's pass left (in-degree still
/// positive), as transactions in edge order. Each such transaction has a
/// predecessor that was also left, so walking to the least such
/// predecessor must revisit a transaction; the walk from there is a
/// cycle, read backwards. It is rotated to start at its least member.
fn find_cycle(edges: &[(u32, u32)], indeg: &[u32], txns: &Slots) -> Vec<TxnId> {
    let mut preds: Vec<(u32, u32)> = edges
        .iter()
        .filter(|&&(a, b)| indeg[a as usize] > 0 && indeg[b as usize] > 0)
        .map(|&(a, b)| (b, a))
        .collect();
    preds.sort_unstable();
    let mut on_path = vec![usize::MAX; indeg.len()];
    let mut path: Vec<u32> = Vec::new();
    let Some(&(mut at, _)) = preds.first() else {
        return Vec::new();
    };
    while on_path[at as usize] == usize::MAX {
        on_path[at as usize] = path.len();
        path.push(at);
        let i = preds.partition_point(|&(b, _)| b < at);
        match preds.get(i) {
            Some(&(b, a)) if b == at => at = a,
            _ => break,
        }
    }
    let mut cycle: Vec<u32> = path[on_path[at as usize]..].iter().rev().copied().collect();
    if let Some(least) = cycle
        .iter()
        .enumerate()
        .min_by_key(|&(_, &t)| t)
        .map(|(i, _)| i)
    {
        cycle.rotate_left(least);
    }
    cycle
        .into_iter()
        .map(|slot| TxnId::new(txns.id(slot as usize)))
        .collect()
}

/// Render a cycle edge by edge, each with the first conflict that
/// explains it: `T1 -[rw x0 v0->v1]-> T2 -[...]-> T1`.
fn describe(
    cycle: &[TxnId],
    writes: &[Row],
    reads: &[Row],
    chains: &[(usize, usize)],
    items: &Slots,
) -> String {
    let hops: Vec<(TxnId, TxnId)> = cycle
        .iter()
        .zip(cycle.iter().cycle().skip(1))
        .map(|(&a, &b)| (a, b))
        .collect();
    let mut why: Vec<Option<Reason>> = vec![None; hops.len()];
    conflicts(writes, reads, chains, items, |a, b, r| {
        for (hop, w) in hops.iter().zip(why.iter_mut()) {
            if *hop == (a, b) && w.is_none() {
                *w = Some(r);
            }
        }
    });
    let mut out = cycle.first().map(ToString::to_string).unwrap_or_default();
    for ((_, b), w) in hops.iter().zip(why) {
        let _ = match w {
            Some((kind, item, va, vb)) => write!(out, " -[{kind} {item} v{va}->v{vb}]-> {b}"),
            None => write!(out, " -> {b}"),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use g2pl_protocols::history::AccessRecord;
    use g2pl_protocols::CommitRecord;
    use g2pl_simcore::SimTime;
    use g2pl_workload::AccessMode;

    fn rec(txn: u32, at: u64, accesses: &[(u32, AccessMode, Version)]) -> CommitRecord {
        CommitRecord {
            txn: TxnId::new(txn),
            at: SimTime::new(at),
            accesses: accesses
                .iter()
                .map(|&(i, mode, version)| AccessRecord {
                    item: ItemId::new(i),
                    mode,
                    version,
                })
                .collect(),
        }
    }

    use AccessMode::{Read, Write};

    #[test]
    fn empty_history_is_serializable() {
        assert!(check_serializable(&History::new()).is_ok());
    }

    #[test]
    fn serial_writes_pass() {
        let mut h = History::new();
        h.push(rec(1, 10, &[(0, Write, 1)]));
        h.push(rec(2, 20, &[(0, Write, 2)]));
        h.push(rec(3, 30, &[(0, Read, 2)]));
        assert!(check_serializable(&h).is_ok());
    }

    #[test]
    fn duplicate_version_fails() {
        let mut h = History::new();
        h.push(rec(1, 10, &[(0, Write, 1)]));
        h.push(rec(2, 20, &[(0, Write, 1)]));
        let err = check_serializable(&h).unwrap_err();
        assert!(err.contains("two writers"), "{err}");
    }

    #[test]
    fn version_gap_fails() {
        let mut h = History::new();
        h.push(rec(1, 10, &[(0, Write, 2)]));
        let err = check_serializable(&h).unwrap_err();
        assert!(err.contains("gap"), "{err}");
    }

    #[test]
    fn read_of_unwritten_version_fails() {
        let mut h = History::new();
        h.push(rec(1, 10, &[(0, Read, 3)]));
        let err = check_serializable(&h).unwrap_err();
        assert!(err.contains("read version 3"), "{err}");
    }

    #[test]
    fn nonserializable_cycle_fails() {
        // T1 reads x@0 and writes y@1; T2 reads y@0 and writes x@1.
        // rw edges: T1 -> T2 (T1 read x@0, T2 wrote x@1)
        //           T2 -> T1 (T2 read y@0, T1 wrote y@1) — a cycle.
        let mut h = History::new();
        h.push(rec(1, 10, &[(0, Read, 0), (1, Write, 1)]));
        h.push(rec(2, 20, &[(1, Read, 0), (0, Write, 1)]));
        let err = check_serializable(&h).unwrap_err();
        assert_eq!(
            err,
            "conflict graph has a cycle among 2 of 2 transactions; one cycle: \
             T1 -[rw x0 v0->v1]-> T2 -[rw x1 v0->v1]-> T1"
        );
    }

    #[test]
    fn concurrent_readers_are_fine() {
        let mut h = History::new();
        h.push(rec(1, 10, &[(0, Write, 1)]));
        h.push(rec(2, 20, &[(0, Read, 1)]));
        h.push(rec(3, 20, &[(0, Read, 1)]));
        h.push(rec(4, 30, &[(0, Write, 2)]));
        assert!(check_serializable(&h).is_ok());
    }

    #[test]
    fn double_access_in_one_txn_fails() {
        let mut h = History::new();
        h.push(rec(1, 10, &[(0, Read, 0), (0, Write, 1)]));
        let err = check_serializable(&h).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn engine_histories_verify() {
        use g2pl_protocols::{run, EngineConfig, ProtocolKind};
        for protocol in [
            ProtocolKind::S2pl,
            ProtocolKind::g2pl_paper(),
            ProtocolKind::C2pl,
        ] {
            let mut cfg = EngineConfig::table1(protocol, 8, 50, 0.5);
            cfg.warmup_txns = 20;
            cfg.measured_txns = 300;
            cfg.record_history = true;
            let m = run(&cfg).expect("valid config");
            let label = m.protocol;
            check_serializable(m.history.as_ref().expect("history on"))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}
