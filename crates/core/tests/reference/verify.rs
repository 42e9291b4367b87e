//! The serializability check as it was before its state went dense:
//! `BTreeMap` writer and reader tables, a `BTreeMap<TxnId, BTreeSet>`
//! conflict graph and `BTreeMap` in-degrees. Test-only reference.

use g2pl_protocols::History;
use g2pl_simcore::{ItemId, TxnId, Version};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Check that a committed history is conflict-serializable and its
/// version chains are well-formed. Returns a description of the first
/// violation found.
pub fn check_serializable(history: &History) -> Result<(), String> {
    // Per item: version -> writer, and version -> readers.
    // BTreeMaps throughout: the checker reports the *first* violation it
    // finds, so which one that is must not depend on hash order.
    let mut writers: BTreeMap<ItemId, BTreeMap<Version, TxnId>> = BTreeMap::new();
    let mut readers: BTreeMap<ItemId, BTreeMap<Version, Vec<TxnId>>> = BTreeMap::new();

    for rec in history.records() {
        let mut seen: HashSet<ItemId> = HashSet::new();
        for acc in &rec.accesses {
            if !seen.insert(acc.item) {
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
                if let Some(prev) = writers
                    .entry(acc.item)
                    .or_default()
                    .insert(acc.version, rec.txn)
                {
                    return Err(format!(
                        "two writers ({prev} and {}) installed version {} of {}",
                        rec.txn, acc.version, acc.item
                    ));
                }
            } else {
                readers
                    .entry(acc.item)
                    .or_default()
                    .entry(acc.version)
                    .or_default()
                    .push(rec.txn);
            }
        }
    }

    // Validate write chains: versions must be dense from 1.
    for (item, chain) in &writers {
        for (i, (&v, _)) in chain.iter().enumerate() {
            if v != (i + 1) as Version {
                return Err(format!(
                    "write chain of {item} has a gap: expected version {}, found {v}",
                    i + 1
                ));
            }
        }
    }

    // Validate reads observe existing versions.
    for (item, by_version) in &readers {
        let max_written = writers
            .get(item)
            .and_then(|c| c.keys().next_back().copied())
            .unwrap_or(0);
        for (&v, txns) in by_version {
            if v > max_written {
                return Err(format!(
                    "{txns:?} read version {v} of {item}, but only {max_written} were written"
                ));
            }
        }
    }

    // Build the conflict graph and check acyclicity with Kahn's
    // algorithm.
    let mut succ: BTreeMap<TxnId, BTreeSet<TxnId>> = BTreeMap::new();
    let mut add = |a: TxnId, b: TxnId| {
        if a != b {
            succ.entry(a).or_default().insert(b);
        }
    };
    for (item, chain) in &writers {
        let empty = BTreeMap::new();
        let item_readers = readers.get(item).unwrap_or(&empty);
        let versions: Vec<(Version, TxnId)> = chain.iter().map(|(&v, &t)| (v, t)).collect();
        for w in versions.windows(2) {
            add(w[0].1, w[1].1); // ww
        }
        for &(v, writer) in &versions {
            if let Some(rs) = item_readers.get(&v) {
                for &r in rs {
                    add(writer, r); // wr
                }
            }
            // Readers of the previous version precede this writer.
            if let Some(rs) = item_readers.get(&(v - 1)) {
                for &r in rs {
                    add(r, writer); // rw
                }
            }
        }
    }
    // Items that were only read never generate edges.

    let mut indeg: BTreeMap<TxnId, usize> = BTreeMap::new();
    let mut nodes: BTreeSet<TxnId> = BTreeSet::new();
    for (&n, ss) in &succ {
        nodes.insert(n);
        for &s in ss {
            nodes.insert(s);
            *indeg.entry(s).or_insert(0) += 1;
        }
    }
    let mut ready: Vec<TxnId> = nodes
        .iter()
        .copied()
        .filter(|n| indeg.get(n).copied().unwrap_or(0) == 0)
        .collect();
    let mut removed = 0usize;
    while let Some(n) = ready.pop() {
        removed += 1;
        if let Some(ss) = succ.get(&n) {
            for &s in ss {
                let d = indeg.get_mut(&s).expect("edge target has indegree");
                *d -= 1;
                if *d == 0 {
                    ready.push(s);
                }
            }
        }
    }
    if removed != nodes.len() {
        return Err(format!(
            "conflict graph has a cycle among {} of {} transactions",
            nodes.len() - removed,
            nodes.len()
        ));
    }
    Ok(())
}
