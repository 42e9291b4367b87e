//! The lock table: per-item holder sets and FIFO wait queues.

use crate::mode::LockMode;
use g2pl_simcore::{ItemId, Slab, TxnId};
use std::collections::VecDeque;

/// Result of a lock acquisition attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The lock was granted immediately (or was already held in a
    /// sufficient mode).
    Granted,
    /// The request conflicts with current holders or queued-ahead waiters
    /// and was enqueued.
    Queued,
}

#[derive(Clone, Debug, Default)]
struct ItemLock {
    holders: Vec<(TxnId, LockMode)>,
    queue: VecDeque<(TxnId, LockMode)>,
}

impl ItemLock {
    fn holder_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|&(_, m)| m)
    }

    fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|&(t, m)| t == txn || m.compatible(mode))
    }
}

/// A strict-2PL lock table.
///
/// Grants are FIFO-fair: a shared request queues behind an earlier queued
/// exclusive request even when it would be compatible with the current
/// holders, preventing writer starvation (the behaviour of textbook
/// queue-based lock managers, and the one the paper's s-2PL baseline
/// assumes when it says conflicting requests are "enqueued").
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    /// Lock state per item, indexed by `ItemId::index()`.
    items: Slab<ItemLock>,
    /// Items held per transaction (in acquisition order), indexed by
    /// `TxnId::index()`.
    held: Slab<Vec<ItemId>>,
    /// Reverse index: the item each transaction most recently queued on,
    /// while its request is still queued there (at most one item under
    /// the sequential client model).
    queued: Slab<Option<ItemId>>,
    /// `(txn, item)` for each queued request whose `queued` slot a later
    /// queueing of the same transaction took over. Empty unless one
    /// transaction queues on several items at once, which the engines'
    /// sequential clients never do; entries may outlive their request.
    displaced: Vec<(TxnId, ItemId)>,
    /// Reusable buffer of [`release_all`](Self::release_all)'s candidate
    /// items.
    candidates: Vec<ItemId>,
}

impl LockTable {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempt to acquire `item` in `mode` for `txn`.
    ///
    /// Re-requesting an item already held in a sufficient mode returns
    /// [`AcquireOutcome::Granted`] without any state change. An upgrade
    /// (S held, X requested) is granted in place when `txn` is the only
    /// holder and nothing is queued, and queued at the *front* otherwise.
    pub fn acquire(&mut self, txn: TxnId, item: ItemId, mode: LockMode) -> AcquireOutcome {
        let lock = self.items.ensure(item.index());

        if let Some(held_mode) = lock.holder_mode(txn) {
            if held_mode.max(mode) == held_mode {
                return AcquireOutcome::Granted; // already sufficient
            }
            // Upgrade S -> X.
            if lock.holders.len() == 1 && lock.queue.is_empty() {
                lock.holders[0].1 = LockMode::Exclusive;
                return AcquireOutcome::Granted;
            }
            lock.queue.push_front((txn, mode));
            self.note_queued(txn, item);
            return AcquireOutcome::Queued;
        }

        if lock.queue.is_empty() && lock.grantable(txn, mode) {
            lock.holders.push((txn, mode));
            self.held.ensure(txn.index()).push(item);
            AcquireOutcome::Granted
        } else {
            lock.queue.push_back((txn, mode));
            self.note_queued(txn, item);
            AcquireOutcome::Queued
        }
    }

    /// Point `txn`'s `queued` slot at `item`, keeping the request the
    /// slot named before, which is still queued, in `displaced`.
    fn note_queued(&mut self, txn: TxnId, item: ItemId) {
        if let Some(prev) = self.queued.ensure(txn.index()).replace(item) {
            if prev != item {
                self.displaced.push((txn, prev));
            }
        }
    }

    /// The item `txn` is currently queued on, if any.
    pub fn queued_on(&self, txn: TxnId) -> Option<ItemId> {
        self.queued.get(txn.index()).copied().flatten()
    }

    /// Release every lock held by `txn` and remove any of its queued
    /// requests, granting whatever becomes grantable.
    ///
    /// Returns the newly granted `(item, txn, mode)` triples, in grant
    /// order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(ItemId, TxnId, LockMode)> {
        let mut woken = Vec::new();
        // Find the transaction's queued requests without visiting every
        // item: a request queued at a queue's tail is named by its
        // `queued` slot or in `displaced`, and an upgrade queues at the
        // front of an item the transaction holds. Of these candidates,
        // in ascending item order, keep the items whose queue still holds
        // the transaction, so wake-ups follow ascending item order.
        let mut queued_on = std::mem::take(&mut self.candidates);
        queued_on.clear();
        queued_on.extend(self.queued.get_mut(txn.index()).and_then(Option::take));
        self.displaced.retain(|&(t, item)| {
            if t == txn {
                queued_on.push(item);
            }
            t != txn
        });
        queued_on.extend_from_slice(self.held_by(txn));
        queued_on.sort_unstable();
        queued_on.dedup();
        queued_on.retain(|&item| {
            self.items
                .get(item.index())
                .is_some_and(|l| l.queue.iter().any(|&(t, _)| t == txn))
        });
        // Remove the transaction's queued requests FIRST: promoting a
        // released item before purging the queues could re-grant the
        // finished transaction its own stale queued request.
        for &item in &queued_on {
            // lint:allow(L3): the retain above kept only items with lock state
            let lock = self.items.get_mut(item.index()).expect("queued item");
            lock.queue.retain(|&(t, _)| t != txn);
        }
        let items = self
            .held
            .get_mut(txn.index())
            .map(std::mem::take)
            .unwrap_or_default();
        for item in items {
            let lock = self
                .items
                .get_mut(item.index())
                // lint:allow(L3): the held index only lists items with lock state
                .expect("held item has lock state");
            lock.holders.retain(|&(t, _)| t != txn);
            Self::promote(&mut self.queued, &mut self.held, lock, item, &mut woken);
        }
        // The queue removals themselves can unblock requests queued
        // behind the departed transaction.
        for &item in &queued_on {
            // lint:allow(L3): the retain above kept only items with lock state
            let lock = self.items.get_mut(item.index()).expect("queued item");
            Self::promote(&mut self.queued, &mut self.held, lock, item, &mut woken);
        }
        self.candidates = queued_on;
        woken
    }

    fn promote(
        queued: &mut Slab<Option<ItemId>>,
        held: &mut Slab<Vec<ItemId>>,
        lock: &mut ItemLock,
        item: ItemId,
        woken: &mut Vec<(ItemId, TxnId, LockMode)>,
    ) {
        while let Some(&(t, m)) = lock.queue.front() {
            // Upgrades re-check against remaining holders (t itself may
            // still hold S).
            if !lock.grantable(t, m) {
                break;
            }
            lock.queue.pop_front();
            // A slot naming another item keeps naming a queued request.
            if let Some(slot) = queued.get_mut(t.index()) {
                if *slot == Some(item) {
                    *slot = None;
                }
            }
            if let Some(pos) = lock.holders.iter().position(|&(h, _)| h == t) {
                lock.holders[pos].1 = lock.holders[pos].1.max(m);
            } else {
                lock.holders.push((t, m));
                held.ensure(t.index()).push(item);
            }
            woken.push((item, t, m));
            if m.is_exclusive() {
                break;
            }
        }
    }

    /// Current holders of `item`, with their modes.
    pub fn holders(&self, item: ItemId) -> &[(TxnId, LockMode)] {
        self.items
            .get(item.index())
            .map_or(&[], |l| l.holders.as_slice())
    }

    /// Queued waiters on `item`, in queue order.
    pub fn waiters(&self, item: ItemId) -> impl Iterator<Item = (TxnId, LockMode)> + '_ {
        self.items
            .get(item.index())
            .into_iter()
            .flat_map(|l| l.queue.iter().copied())
    }

    /// Items currently held by `txn` (in acquisition order).
    pub fn held_by(&self, txn: TxnId) -> &[ItemId] {
        self.held.get(txn.index()).map_or(&[], Vec::as_slice)
    }

    /// Mode in which `txn` holds `item`, if it does.
    pub fn mode_of(&self, txn: TxnId, item: ItemId) -> Option<LockMode> {
        self.items
            .get(item.index())
            .and_then(|l| l.holder_mode(txn))
    }

    /// True when no locks are held and no requests queued (quiescence
    /// check for drain tests).
    pub fn is_quiescent(&self) -> bool {
        self.items
            .as_slice()
            .iter()
            .all(|l| l.holders.is_empty() && l.queue.is_empty())
    }

    /// Whether another transaction is queued on an item `txn` holds.
    /// Only such a waiter can wait for `txn`, since `txn` queues either
    /// at a queue's tail or, upgrading, at the front of an item it
    /// holds. The deadlock detector skips a search whose trigger nobody
    /// can wait for.
    pub fn is_waited_on(&self, txn: TxnId) -> bool {
        self.held_by(txn)
            .iter()
            .any(|&item| self.waiters(item).any(|(t, _)| t != txn))
    }

    /// Every `(txn, item)` pair currently waiting in some queue, in
    /// deterministic (item, txn) order. Used to rebuild the wait-for
    /// graph on demand at detection time.
    pub fn all_waiters(&self) -> Vec<(TxnId, ItemId)> {
        let mut out: Vec<(TxnId, ItemId)> = self
            .items
            .iter()
            .flat_map(|(i, lock)| {
                let item = ItemId::new(i as u32);
                lock.queue.iter().map(move |&(t, _)| (t, item))
            })
            .collect();
        out.sort_unstable_by_key(|&(t, i)| (i, t));
        out
    }

    /// The transactions `txn` is waiting for on `item`: every incompatible
    /// current holder plus every queued-ahead waiter (FIFO queues make a
    /// request wait on whatever precedes it).
    ///
    /// Returns an empty vector when `txn` is not queued on `item`.
    pub fn waits_for(&self, txn: TxnId, item: ItemId) -> Vec<TxnId> {
        let mut out = Vec::new();
        self.waits_for_into(txn, item, &mut out);
        out
    }

    /// Allocation-free variant of [`waits_for`](Self::waits_for): appends
    /// the (sorted, deduplicated) blockers to `out`, leaving anything
    /// already in `out` untouched. This is the deadlock detector's hot
    /// path: it expands every node a search visits.
    pub fn waits_for_into(&self, txn: TxnId, item: ItemId, out: &mut Vec<TxnId>) {
        let Some(lock) = self.items.get(item.index()) else {
            return;
        };
        let Some(pos) = lock.queue.iter().position(|&(t, _)| t == txn) else {
            return;
        };
        let my_mode = lock.queue[pos].1;
        let start = out.len();
        out.extend(
            lock.holders
                .iter()
                .filter(|&&(t, m)| t != txn && !m.compatible(my_mode))
                .map(|&(t, _)| t),
        );
        // Queued-ahead conflicting requests also block us under FIFO. A
        // holder queued again for an upgrade lands twice; the dedup
        // below drops the copy.
        out.extend(
            lock.queue
                .iter()
                .take(pos)
                .filter(|&&(_, m)| !m.compatible(my_mode))
                .map(|&(t, _)| t),
        );
        out[start..].sort_unstable();
        // Dedup the appended range in place.
        let mut w = start;
        for r in start..out.len() {
            if w == start || out[w - 1] != out[r] {
                out[w] = out[r];
                w += 1;
            }
        }
        out.truncate(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::{Exclusive, Shared};

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }
    fn x(i: u32) -> ItemId {
        ItemId::new(i)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire(t(1), x(0), Shared), AcquireOutcome::Granted);
        assert_eq!(lt.acquire(t(2), x(0), Shared), AcquireOutcome::Granted);
        assert_eq!(lt.holders(x(0)).len(), 2);
    }

    #[test]
    fn exclusive_blocks_everything() {
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire(t(1), x(0), Exclusive), AcquireOutcome::Granted);
        assert_eq!(lt.acquire(t(2), x(0), Shared), AcquireOutcome::Queued);
        assert_eq!(lt.acquire(t(3), x(0), Exclusive), AcquireOutcome::Queued);
    }

    #[test]
    fn fifo_fairness_no_reader_overtaking() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        assert_eq!(lt.acquire(t(2), x(0), Exclusive), AcquireOutcome::Queued);
        // A third reader must not jump the queued writer.
        assert_eq!(lt.acquire(t(3), x(0), Shared), AcquireOutcome::Queued);
    }

    #[test]
    fn release_grants_next_in_fifo_order() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        lt.acquire(t(2), x(0), Shared);
        lt.acquire(t(3), x(0), Shared);
        lt.acquire(t(4), x(0), Exclusive);
        let woken = lt.release_all(t(1));
        // Both leading readers wake together; the writer stays queued.
        assert_eq!(woken, vec![(x(0), t(2), Shared), (x(0), t(3), Shared)]);
        let woken = lt.release_all(t(2));
        assert!(woken.is_empty());
        let woken = lt.release_all(t(3));
        assert_eq!(woken, vec![(x(0), t(4), Exclusive)]);
    }

    #[test]
    fn release_all_covers_multiple_items() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        lt.acquire(t(1), x(1), Exclusive);
        lt.acquire(t(2), x(0), Shared);
        lt.acquire(t(3), x(1), Shared);
        let mut woken = lt.release_all(t(1));
        woken.sort_by_key(|&(i, _, _)| i);
        assert_eq!(woken, vec![(x(0), t(2), Shared), (x(1), t(3), Shared)]);
        assert!(lt.held_by(t(1)).is_empty());
    }

    #[test]
    fn abort_of_queued_txn_unblocks_queue() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        lt.acquire(t(2), x(0), Exclusive); // queued
        lt.acquire(t(3), x(0), Shared); // queued behind writer
                                        // Abort the queued writer: the reader should now be grantable.
        let woken = lt.release_all(t(2));
        assert_eq!(woken, vec![(x(0), t(3), Shared)]);
    }

    #[test]
    fn rerequest_same_mode_is_granted() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        assert_eq!(lt.acquire(t(1), x(0), Shared), AcquireOutcome::Granted);
        assert_eq!(lt.holders(x(0)).len(), 1);
    }

    #[test]
    fn sole_holder_upgrade_succeeds_in_place() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        assert_eq!(lt.acquire(t(1), x(0), Exclusive), AcquireOutcome::Granted);
        assert_eq!(lt.mode_of(t(1), x(0)), Some(Exclusive));
    }

    #[test]
    fn contended_upgrade_waits_for_other_readers() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        lt.acquire(t(2), x(0), Shared);
        assert_eq!(lt.acquire(t(1), x(0), Exclusive), AcquireOutcome::Queued);
        let woken = lt.release_all(t(2));
        assert_eq!(woken, vec![(x(0), t(1), Exclusive)]);
        assert_eq!(lt.mode_of(t(1), x(0)), Some(Exclusive));
    }

    #[test]
    fn waits_for_includes_holders_and_queued_ahead() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        lt.acquire(t(2), x(0), Exclusive);
        lt.acquire(t(3), x(0), Exclusive);
        assert_eq!(lt.waits_for(t(3), x(0)), vec![t(1), t(2)]);
        assert_eq!(lt.waits_for(t(2), x(0)), vec![t(1)]);
        assert!(lt.waits_for(t(1), x(0)).is_empty()); // holder, not waiter
    }

    #[test]
    fn waits_for_shared_ignores_compatible_holders() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        lt.acquire(t(2), x(0), Exclusive);
        lt.acquire(t(3), x(0), Shared);
        // t3 (S) waits on the queued-ahead writer t2; t1 (S holder) is
        // compatible but t2 is between them.
        assert_eq!(lt.waits_for(t(3), x(0)), vec![t(2)]);
    }

    #[test]
    fn waits_for_is_sorted_and_deduplicated_for_upgrades_and_shared_runs() {
        // An upgrade queued at the front: t1 holds S and waits for X, so
        // a writer behind it blocks on t1 both as a holder and as a
        // queued-ahead request, and lists it once.
        let mut lt = LockTable::new();
        lt.acquire(t(2), x(0), Shared);
        lt.acquire(t(1), x(0), Shared);
        assert_eq!(lt.acquire(t(1), x(0), Exclusive), AcquireOutcome::Queued);
        lt.acquire(t(3), x(0), Exclusive);
        assert_eq!(lt.waits_for(t(1), x(0)), vec![t(2)]);
        assert_eq!(lt.waits_for(t(3), x(0)), vec![t(1), t(2)]);
        // S waiters queued behind S waiters wait only for what conflicts:
        // the X holder, or the queued-ahead writer.
        let mut lt = LockTable::new();
        lt.acquire(t(9), x(0), Exclusive);
        lt.acquire(t(5), x(0), Shared);
        lt.acquire(t(4), x(0), Shared);
        assert_eq!(lt.waits_for(t(4), x(0)), vec![t(9)]);
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        lt.acquire(t(7), x(0), Exclusive);
        lt.acquire(t(6), x(0), Shared);
        lt.acquire(t(2), x(0), Shared);
        assert_eq!(lt.waits_for(t(2), x(0)), vec![t(7)]);
        assert_eq!(lt.waits_for(t(6), x(0)), vec![t(7)]);
    }

    #[test]
    fn waited_on_means_a_waiter_on_a_held_item() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        lt.acquire(t(2), x(0), Shared);
        assert!(!lt.is_waited_on(t(1)), "no queue, no waiter");
        // t1's own upgrade at the front is no waiter on t1.
        lt.acquire(t(1), x(0), Exclusive);
        assert!(!lt.is_waited_on(t(1)));
        assert!(lt.is_waited_on(t(2)), "the upgrade waits on t2");
        // A reader queued behind the upgrade waits on t1.
        lt.acquire(t(3), x(0), Shared);
        assert!(lt.is_waited_on(t(1)));
        assert!(!lt.is_waited_on(t(3)), "a pure waiter holds nothing");
    }

    #[test]
    fn queued_on_tracks_waits() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        assert_eq!(lt.queued_on(t(1)), None, "holders are not queued");
        lt.acquire(t(2), x(0), Shared);
        assert_eq!(lt.queued_on(t(2)), Some(x(0)));
        lt.release_all(t(1));
        assert_eq!(lt.queued_on(t(2)), None, "granted waiters leave the index");
        lt.acquire(t(3), x(0), Exclusive);
        assert_eq!(lt.queued_on(t(3)), Some(x(0)));
        lt.release_all(t(3));
        assert_eq!(lt.queued_on(t(3)), None, "aborted waiters leave the index");
    }

    #[test]
    fn all_waiters_lists_queued_requests() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        lt.acquire(t(2), x(0), Shared);
        lt.acquire(t(3), x(1), Exclusive);
        lt.acquire(t(4), x(1), Exclusive);
        assert_eq!(lt.all_waiters(), vec![(t(2), x(0)), (t(4), x(1))]);
        lt.release_all(t(1));
        assert_eq!(lt.all_waiters(), vec![(t(4), x(1))]);
    }

    impl LockTable {
        /// The release this table had before its candidate index: sweep
        /// every item's queue for `txn`'s queued requests.
        fn release_all_by_sweep(&mut self, txn: TxnId) -> Vec<(ItemId, TxnId, LockMode)> {
            let mut woken = Vec::new();
            if let Some(q) = self.queued.get_mut(txn.index()) {
                *q = None;
            }
            let mut queued_on: Vec<ItemId> = Vec::new();
            for (i, lock) in self.items.iter() {
                if lock.queue.iter().any(|&(t, _)| t == txn) {
                    queued_on.push(ItemId::new(i as u32));
                }
            }
            for &item in &queued_on {
                let lock = self.items.get_mut(item.index()).unwrap();
                lock.queue.retain(|&(t, _)| t != txn);
            }
            let items = self
                .held
                .get_mut(txn.index())
                .map(std::mem::take)
                .unwrap_or_default();
            for item in items {
                let lock = self.items.get_mut(item.index()).unwrap();
                lock.holders.retain(|&(t, _)| t != txn);
                Self::promote(&mut self.queued, &mut self.held, lock, item, &mut woken);
            }
            for item in queued_on {
                let lock = self.items.get_mut(item.index()).unwrap();
                Self::promote(&mut self.queued, &mut self.held, lock, item, &mut woken);
            }
            woken
        }

        /// Everything a caller can observe of items `0..items` and
        /// transactions `0..txns`.
        fn observed(&self, txns: u32, items: u32) -> String {
            let per_item: Vec<_> = (0..items)
                .map(|i| {
                    (
                        self.holders(x(i)).to_vec(),
                        self.waiters(x(i)).collect::<Vec<_>>(),
                    )
                })
                .collect();
            let per_txn: Vec<_> = (0..txns)
                .map(|i| (self.held_by(t(i)).to_vec(), self.queued_on(t(i))))
                .collect();
            format!("{per_item:?} {per_txn:?}")
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(2_000))]

        /// Random scripts of acquires and releases, re-acquires after a
        /// release and queueing on several items at once included, leave
        /// both releases with the same wake-ups and the same table.
        #[test]
        fn release_all_matches_the_full_sweep(
            ops in proptest::collection::vec((0u32..8, 0u32..6, 0u32..4), 1..120)
        ) {
            let (mut fast, mut sweep) = (LockTable::new(), LockTable::new());
            for (txn, item, op) in ops {
                if op == 0 {
                    let woken = fast.release_all(t(txn));
                    proptest::prop_assert_eq!(woken, sweep.release_all_by_sweep(t(txn)));
                } else {
                    let mode = if op == 1 { Exclusive } else { Shared };
                    proptest::prop_assert_eq!(
                        fast.acquire(t(txn), x(item), mode),
                        sweep.acquire(t(txn), x(item), mode)
                    );
                }
                proptest::prop_assert_eq!(fast.observed(8, 6), sweep.observed(8, 6));
            }
        }
    }

    #[test]
    fn quiescence() {
        let mut lt = LockTable::new();
        assert!(lt.is_quiescent());
        lt.acquire(t(1), x(0), Shared);
        assert!(!lt.is_quiescent());
        lt.release_all(t(1));
        assert!(lt.is_quiescent());
    }
}
