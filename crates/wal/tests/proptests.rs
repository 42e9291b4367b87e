//! Property-based tests of the write-ahead log's GC rule.
//!
//! The invariant under test is the durability core of the whole fault
//! subsystem: a committed transaction's records are never collected
//! while any of its versions is still awaiting permanence at the server
//! — no matter how a fault plan reorders, duplicates, or drops the
//! permanence notifications, and no matter how late a stale abort
//! notice arrives.

use g2pl_simcore::{ItemId, TxnId};
use g2pl_wal::{LogRecord, SiteLog};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// One step of a randomized log history, as a fault-plan-shaped schedule
/// would drive it: begins, updates, terminations, permanence callbacks
/// (possibly duplicated or for the wrong item — lost callbacks are
/// modeled simply by never generating them).
#[derive(Clone, Debug)]
enum Op {
    Begin { txn: u32 },
    Update { txn: u32, item: u32 },
    Commit { txn: u32 },
    Abort { txn: u32 },
    MarkPermanent { txn: u32, item: u32 },
}

fn arb_op(txns: u32, items: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (0..txns).prop_map(|txn| Op::Begin { txn }),
        3 => (0..txns, 0..items).prop_map(|(txn, item)| Op::Update { txn, item }),
        1 => (0..txns).prop_map(|txn| Op::Commit { txn }),
        1 => (0..txns).prop_map(|txn| Op::Abort { txn }),
        3 => (0..txns, 0..items).prop_map(|(txn, item)| Op::MarkPermanent { txn, item }),
    ]
}

const ITEM_SIZE: u64 = 512;

/// The live records the log must hold and the retention metrics it must
/// report, kept independently of its bookkeeping.
#[derive(Default)]
struct Live {
    /// Per transaction: live record count and bytes.
    per_txn: HashMap<u32, (usize, u64)>,
    records: usize,
    bytes: u64,
    high_water_records: usize,
    high_water_bytes: u64,
    collected: u64,
}

impl Live {
    /// Append `rec` to both the log and the model.
    fn append(&mut self, log: &mut SiteLog, rec: LogRecord) {
        let size = rec.size_bytes(ITEM_SIZE);
        let entry = self.per_txn.entry(rec.txn().0).or_default();
        entry.0 += 1;
        entry.1 += size;
        self.records += 1;
        self.bytes += size;
        self.high_water_records = self.high_water_records.max(self.records);
        self.high_water_bytes = self.high_water_bytes.max(self.bytes);
        log.append(rec);
    }

    /// Reclaim every live record of `txn`.
    fn collect(&mut self, txn: u32) {
        if let Some((records, bytes)) = self.per_txn.remove(&txn) {
            self.records -= records;
            self.bytes -= bytes;
            self.collected += records as u64;
        }
    }

    fn assert_matches(&self, log: &SiteLog) {
        let m = log.metrics();
        assert_eq!(log.live_records(), self.records, "live records");
        assert_eq!(
            m.high_water_records, self.high_water_records,
            "high-water records"
        );
        assert_eq!(
            m.high_water_bytes, self.high_water_bytes,
            "high-water bytes"
        );
        assert_eq!(m.collected_records, self.collected, "collected records");
    }
}

/// Replay a schedule against a `SiteLog`, tracking the ground truth of
/// what each committed transaction still owes and which records are
/// live, and assert after every step that no owed record has been
/// collected and that the retention metrics match.
fn run_script(ops: &[Op]) {
    let mut log = SiteLog::new(ITEM_SIZE);
    // Ground truth, maintained independently of the log's bookkeeping.
    let mut updates: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut committed: HashSet<u32> = HashSet::new();
    let mut aborted: HashSet<u32> = HashSet::new();
    let mut begun: HashSet<u32> = HashSet::new();
    let mut live = Live::default();
    // A terminated transaction's records are reclaimed once it owes no
    // version: at once after an abort, after the last permanence
    // confirmation after a commit.
    let settle = |live: &mut Live,
                  updates: &HashMap<u32, Vec<u32>>,
                  committed: &HashSet<u32>,
                  aborted: &HashSet<u32>,
                  txn: u32| {
        if aborted.contains(&txn) || (committed.contains(&txn) && !updates.contains_key(&txn)) {
            live.collect(txn);
        }
    };
    for op in ops {
        match *op {
            Op::Begin { txn } => {
                if begun.contains(&txn) || committed.contains(&txn) || aborted.contains(&txn) {
                    continue; // one begin per txn id
                }
                begun.insert(txn);
                live.append(
                    &mut log,
                    LogRecord::Begin {
                        txn: TxnId::new(txn),
                    },
                );
            }
            Op::Update { txn, item } => {
                if !begun.contains(&txn) || committed.contains(&txn) || aborted.contains(&txn) {
                    continue; // updates only while active
                }
                updates.entry(txn).or_default().push(item);
                live.append(
                    &mut log,
                    LogRecord::Update {
                        txn: TxnId::new(txn),
                        item: ItemId::new(item),
                        old: 0,
                        new: 1,
                    },
                );
            }
            Op::Commit { txn } => {
                if !begun.contains(&txn) || committed.contains(&txn) || aborted.contains(&txn) {
                    continue;
                }
                committed.insert(txn);
                live.append(
                    &mut log,
                    LogRecord::Commit {
                        txn: TxnId::new(txn),
                    },
                );
                settle(&mut live, &updates, &committed, &aborted, txn);
            }
            Op::Abort { txn } => {
                // Stale aborts for committed txns are exercised by the
                // dedicated unit test (they debug-assert); here we only
                // abort genuinely active transactions.
                if !begun.contains(&txn) || committed.contains(&txn) || aborted.contains(&txn) {
                    continue;
                }
                aborted.insert(txn);
                updates.remove(&txn);
                live.append(
                    &mut log,
                    LogRecord::Abort {
                        txn: TxnId::new(txn),
                    },
                );
                settle(&mut live, &updates, &committed, &aborted, txn);
            }
            Op::MarkPermanent { txn, item } => {
                // The server may confirm permanence for any (txn, item),
                // including duplicates and pairs that were never updated
                // — as duplicated/misdirected fault-plan deliveries
                // would produce. The log must tolerate all of them.
                if let Some(v) = updates.get_mut(&txn) {
                    if let Some(pos) = v.iter().position(|&i| i == item) {
                        v.swap_remove(pos);
                        if v.is_empty() {
                            updates.remove(&txn);
                        }
                    }
                }
                log.mark_permanent(TxnId::new(txn), ItemId::new(item));
                settle(&mut live, &updates, &committed, &aborted, txn);
            }
        }
        live.assert_matches(&log);
        // The invariant: every committed txn with outstanding versions
        // still has live records (its redo set was not collected), and
        // the log agrees about what is outstanding.
        for (&txn, items) in &updates {
            if committed.contains(&txn) {
                assert!(!items.is_empty());
                assert!(
                    log.awaits_permanence(TxnId::new(txn)),
                    "T{txn} owes {items:?} but the log dropped its obligation"
                );
                assert!(
                    log.live_records() > 0,
                    "T{txn} owes versions but the log is empty"
                );
            }
        }
    }
    // Drain: confirm every outstanding version; everything must collect.
    let owed: Vec<(u32, Vec<u32>)> = updates
        .iter()
        .filter(|(t, _)| committed.contains(t))
        .map(|(&t, v)| (t, v.clone()))
        .collect();
    for (txn, items) in owed {
        for item in items {
            log.mark_permanent(TxnId::new(txn), ItemId::new(item));
        }
        live.collect(txn);
        live.assert_matches(&log);
    }
    // Transactions still active at the end abort (crash-style cleanup).
    for &txn in &begun {
        if !committed.contains(&txn) && !aborted.contains(&txn) {
            live.append(
                &mut log,
                LogRecord::Abort {
                    txn: TxnId::new(txn),
                },
            );
            live.collect(txn);
            live.assert_matches(&log);
        }
    }
    assert!(
        log.is_empty(),
        "after full permanence + termination the log must drain, {} records live",
        log.live_records()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn committed_records_never_collect_before_permanence(
        ops in proptest::collection::vec(arb_op(10, 8), 1..300)
    ) {
        run_script(&ops);
    }
}
