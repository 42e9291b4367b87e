//! Collection windows (§3.2).
//!
//! "We define the period during which the server does not possess the lock
//! on a data item and is collecting requests as the *collection window*
//! for the data item." A [`CollectionWindow`] is that request buffer: it
//! accumulates pending requests for one item while the item is checked
//! out, and is drained (ordered into a forward list) when the item comes
//! home.

use crate::list::FlEntry;
use serde::{Deserialize, Serialize};

/// A pending request inside a collection window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingReq {
    /// Who wants the item, where, and in which mode.
    pub entry: FlEntry,
    /// Global arrival sequence number (FIFO order).
    pub arrival: u64,
    /// Unread: an aborted transaction is replaced by a fresh draw, never
    /// resubmitted, so every request is a first attempt and every engine
    /// builds this as 0.
    pub restarts: u32,
}

/// The pending-request buffer for one data item.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CollectionWindow {
    pending: Vec<PendingReq>,
}

impl CollectionWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Add a request to the window.
    pub fn push(&mut self, req: PendingReq) {
        debug_assert!(
            !self.pending.iter().any(|p| p.entry.txn == req.entry.txn),
            "duplicate pending request for {:?}",
            req.entry.txn
        );
        self.pending.push(req);
    }

    /// Remove the pending request of `txn` (it aborted); returns whether a
    /// request was removed.
    pub fn remove_txn(&mut self, txn: g2pl_simcore::TxnId) -> bool {
        let before = self.pending.len();
        self.pending.retain(|p| p.entry.txn != txn);
        before != self.pending.len()
    }

    /// Pending requests in arrival order (the order pushed).
    pub fn pending(&self) -> &[PendingReq] {
        &self.pending
    }

    /// Drain up to `cap` requests (all of them when `cap` is `None`),
    /// *in arrival order*, leaving the overflow pending for the next
    /// window. The cap is the forward-list length limit swept in Fig 11.
    pub fn drain(&mut self, cap: Option<usize>) -> Vec<PendingReq> {
        let n = cap.map_or(self.pending.len(), |c| c.min(self.pending.len()));
        self.pending.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g2pl_lockmgr::LockMode;
    use g2pl_simcore::{ClientId, TxnId};

    fn req(t: u32, arrival: u64) -> PendingReq {
        PendingReq {
            entry: FlEntry::new(TxnId::new(t), ClientId::new(t), LockMode::Shared),
            arrival,
            restarts: 0,
        }
    }

    #[test]
    fn push_and_drain_all() {
        let mut w = CollectionWindow::new();
        w.push(req(1, 10));
        w.push(req(2, 11));
        assert_eq!(w.len(), 2);
        let drained = w.drain(None);
        assert_eq!(drained.len(), 2);
        assert!(w.is_empty());
        assert_eq!(drained[0].entry.txn, TxnId::new(1));
    }

    #[test]
    fn capped_drain_leaves_overflow() {
        let mut w = CollectionWindow::new();
        for i in 0..5 {
            w.push(req(i, i as u64));
        }
        let first = w.drain(Some(3));
        assert_eq!(first.len(), 3);
        assert_eq!(w.len(), 2);
        // Overflow drains in original order next time.
        let second = w.drain(Some(10));
        assert_eq!(second[0].entry.txn, TxnId::new(3));
        assert_eq!(second[1].entry.txn, TxnId::new(4));
    }

    #[test]
    fn remove_txn_filters_pending() {
        let mut w = CollectionWindow::new();
        w.push(req(1, 0));
        w.push(req(2, 1));
        assert!(w.remove_txn(TxnId::new(1)));
        assert!(!w.remove_txn(TxnId::new(1)));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pending()[0].entry.txn, TxnId::new(2));
    }

    #[test]
    fn drain_zero_cap_returns_nothing() {
        let mut w = CollectionWindow::new();
        w.push(req(1, 0));
        assert!(w.drain(Some(0)).is_empty());
        assert_eq!(w.len(), 1);
    }
}
