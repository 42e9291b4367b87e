//! One site's append-only write-ahead log.

use crate::record::{LogRecord, Lsn};
use g2pl_simcore::{ItemId, TxnId};
use serde::Serialize;
use std::collections::HashMap;

/// Accumulated log statistics for one site.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct LogMetrics {
    /// Total bytes appended over the run.
    pub bytes_written: u64,
    /// Bytes that had to be synchronously forced (commit records under
    /// the force-at-commit discipline).
    pub bytes_forced: u64,
    /// Number of force (fsync) operations.
    pub forces: u64,
    /// Largest number of live (non-collected) records ever resident.
    pub high_water_records: usize,
    /// Largest number of live bytes ever resident.
    pub high_water_bytes: u64,
    /// Records reclaimed by garbage collection.
    pub collected_records: u64,
}

/// A site's write-ahead log with permanence-driven garbage collection.
///
/// Appends are cheap bookkeeping; the log retains a transaction's records
/// until [`SiteLog::mark_permanent`] has been called for every item the
/// transaction updated *and* the transaction has terminated — the paper's
/// "garbage collects its log once the data are made permanent at the
/// server" rule. Aborted transactions' records are reclaimable as soon
/// as the abort record lands (their versions never become anyone's redo
/// responsibility).
///
/// Record contents are never read back, so the log keeps only how many
/// records and bytes each transaction has live: an append and a
/// collection cost O(1), whatever the log's length.
#[derive(Clone, Debug, Default)]
pub struct SiteLog {
    next_lsn: Lsn,
    /// Per transaction: live record count and bytes.
    live: HashMap<TxnId, (usize, u64)>,
    /// Live records over every transaction.
    live_records: usize,
    /// Live bytes over every transaction.
    live_bytes: u64,
    /// Per transaction: outstanding items whose versions are not yet
    /// permanent at the server.
    awaiting: HashMap<TxnId, Vec<ItemId>>,
    /// Transactions that have terminated (committed or aborted).
    terminated: HashMap<TxnId, bool /* committed */>,
    item_size: u64,
    metrics: LogMetrics,
}

impl SiteLog {
    /// An empty log; `item_size` models the page size of update images.
    pub fn new(item_size: u64) -> Self {
        SiteLog {
            item_size,
            ..Default::default()
        }
    }

    /// Append a record, returning its LSN. Commit records are forced.
    pub fn append(&mut self, rec: LogRecord) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn = self.next_lsn.next();
        let size = rec.size_bytes(self.item_size);
        self.metrics.bytes_written += size;
        if matches!(rec, LogRecord::Commit { .. }) {
            self.metrics.bytes_forced += size;
            self.metrics.forces += 1;
        }
        match rec {
            LogRecord::Update { txn, item, .. } => {
                self.awaiting.entry(txn).or_default().push(item);
            }
            LogRecord::Commit { txn } => {
                // Terminal status is sticky: under faults a stale abort
                // notice can race a commit, and letting the later record
                // flip the flag would let `try_collect` reclaim a
                // committed transaction's redo records before its
                // versions are permanent at the server — a durability
                // hole. First terminal record wins; a conflicting one is
                // a protocol bug upstream.
                let prev = *self.terminated.entry(txn).or_insert(true);
                debug_assert!(prev, "commit record for already-aborted {txn:?}");
            }
            LogRecord::Abort { txn } => {
                let prev = *self.terminated.entry(txn).or_insert(false);
                debug_assert!(!prev, "abort record for already-committed {txn:?}");
            }
            LogRecord::Begin { .. } => {}
        }
        let live = self.live.entry(rec.txn()).or_default();
        live.0 += 1;
        live.1 += size;
        self.live_records += 1;
        self.live_bytes += size;
        self.metrics.high_water_records = self.metrics.high_water_records.max(self.live_records);
        self.metrics.high_water_bytes = self.metrics.high_water_bytes.max(self.live_bytes);
        self.try_collect(rec.txn());
        lsn
    }

    /// The server has durably installed `txn`'s version of `item`; the
    /// corresponding redo obligation is lifted.
    pub fn mark_permanent(&mut self, txn: TxnId, item: ItemId) {
        if let Some(v) = self.awaiting.get_mut(&txn) {
            if let Some(pos) = v.iter().position(|&i| i == item) {
                v.swap_remove(pos);
            }
            if v.is_empty() {
                self.awaiting.remove(&txn);
            }
        }
        self.try_collect(txn);
    }

    /// Reclaim `txn`'s records if it has terminated and (for commits)
    /// every update is permanent.
    fn try_collect(&mut self, txn: TxnId) {
        let Some(&committed) = self.terminated.get(&txn) else {
            return;
        };
        if committed && self.awaiting.contains_key(&txn) {
            return; // some versions are still only on this site
        }
        self.awaiting.remove(&txn); // aborted txns owe no redo
        self.terminated.remove(&txn);
        if let Some((records, bytes)) = self.live.remove(&txn) {
            self.live_records -= records;
            self.live_bytes -= bytes;
            self.metrics.collected_records += records as u64;
        }
    }

    /// True while `txn` still has updated items whose versions are not
    /// yet permanent at the server. Engines use this to assert the GC
    /// rule across redispatches: a committed writer on an aborted and
    /// redispatched forward list must keep its records until the
    /// *redispatched* version is installed.
    pub fn awaits_permanence(&self, txn: TxnId) -> bool {
        self.awaiting.contains_key(&txn)
    }

    /// Live (uncollected) record count.
    pub fn live_records(&self) -> usize {
        self.live_records
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> LogMetrics {
        self.metrics
    }

    /// True when every record has been reclaimed (drain invariant).
    pub fn is_empty(&self) -> bool {
        self.live_records == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }
    fn x(i: u32) -> ItemId {
        ItemId::new(i)
    }

    fn committed_txn(log: &mut SiteLog, txn: TxnId, items: &[ItemId]) {
        log.append(LogRecord::Begin { txn });
        for &item in items {
            log.append(LogRecord::Update {
                txn,
                item,
                old: 0,
                new: 1,
            });
        }
        log.append(LogRecord::Commit { txn });
    }

    #[test]
    fn commit_forces_exactly_once() {
        let mut log = SiteLog::new(4096);
        committed_txn(&mut log, t(1), &[x(0)]);
        assert_eq!(log.metrics().forces, 1);
        assert_eq!(log.metrics().bytes_forced, 32);
    }

    #[test]
    fn committed_records_survive_until_permanent() {
        let mut log = SiteLog::new(4096);
        committed_txn(&mut log, t(1), &[x(0), x(1)]);
        assert_eq!(log.live_records(), 4, "begin + 2 updates + commit");
        log.mark_permanent(t(1), x(0));
        assert_eq!(log.live_records(), 4, "one item still outstanding");
        log.mark_permanent(t(1), x(1));
        assert!(log.is_empty(), "all permanent + terminated => collected");
        assert_eq!(log.metrics().collected_records, 4);
    }

    #[test]
    fn aborts_collect_immediately() {
        let mut log = SiteLog::new(4096);
        log.append(LogRecord::Begin { txn: t(2) });
        log.append(LogRecord::Update {
            txn: t(2),
            item: x(0),
            old: 0,
            new: 1,
        });
        log.append(LogRecord::Abort { txn: t(2) });
        assert!(log.is_empty(), "aborted txns owe nothing");
    }

    #[test]
    fn permanence_before_commit_is_remembered() {
        // Out-of-order: the server installs before the commit record
        // lands (possible in g-2PL when the item returns home while the
        // committing forward is still in flight is NOT possible, but the
        // API must tolerate any call order).
        let mut log = SiteLog::new(4096);
        log.append(LogRecord::Begin { txn: t(3) });
        log.append(LogRecord::Update {
            txn: t(3),
            item: x(5),
            old: 0,
            new: 1,
        });
        log.mark_permanent(t(3), x(5));
        assert_eq!(log.live_records(), 2, "not yet terminated");
        log.append(LogRecord::Commit { txn: t(3) });
        assert!(log.is_empty());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "already-committed"))]
    fn stale_abort_cannot_downgrade_a_commit() {
        let mut log = SiteLog::new(4096);
        committed_txn(&mut log, t(7), &[x(0)]);
        assert!(log.awaits_permanence(t(7)));
        // A stale abort notice racing the commit must not let GC reclaim
        // the committed records before permanence (debug builds assert;
        // release builds repair by keeping the committed status).
        log.append(LogRecord::Abort { txn: t(7) });
        assert!(
            log.awaits_permanence(t(7)),
            "redo obligation must survive the stale abort"
        );
        assert!(!log.is_empty(), "records must not collect early");
        log.mark_permanent(t(7), x(0));
        assert!(log.is_empty(), "collected only once permanent");
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut log = SiteLog::new(100);
        committed_txn(&mut log, t(1), &[x(0)]);
        let peak = log.metrics().high_water_bytes;
        assert_eq!(peak, 32 + (32 + 200) + 32);
        log.mark_permanent(t(1), x(0));
        assert!(log.is_empty());
        assert_eq!(log.metrics().high_water_bytes, peak, "high water sticks");
    }

    #[test]
    fn read_only_txn_collects_at_commit() {
        let mut log = SiteLog::new(4096);
        log.append(LogRecord::Begin { txn: t(4) });
        log.append(LogRecord::Commit { txn: t(4) });
        assert!(log.is_empty(), "nothing awaited, collected at once");
    }

    #[test]
    fn interleaved_txns_collect_independently() {
        let mut log = SiteLog::new(4096);
        log.append(LogRecord::Begin { txn: t(1) });
        log.append(LogRecord::Begin { txn: t(2) });
        log.append(LogRecord::Update {
            txn: t(1),
            item: x(0),
            old: 0,
            new: 1,
        });
        log.append(LogRecord::Update {
            txn: t(2),
            item: x(1),
            old: 0,
            new: 1,
        });
        log.append(LogRecord::Commit { txn: t(1) });
        log.append(LogRecord::Commit { txn: t(2) });
        log.mark_permanent(t(2), x(1));
        assert_eq!(log.live_records(), 3, "t1's records remain");
        log.mark_permanent(t(1), x(0));
        assert!(log.is_empty());
    }
}
