//! Window-close ordering rules (§3.2–3.3).
//!
//! "The forward list may be created according to one of several ordering
//! rules to improve performance further. The default rule is
//! First-In-First-Out… the second and third optimizations capture two
//! ordering rules that attempt to reduce the number of deadlocks."

use crate::dag::PrecedenceDag;
use crate::list::{FlEntry, ForwardList};
use crate::window::PendingReq;
use serde::{Deserialize, Serialize};

/// How a collection window is ordered into a forward list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderingRule {
    /// Respect (and extend) the global precedence DAG — the §3.3 deadlock
    /// avoidance optimization. When false, the order ignores precedence
    /// constraints and deadlocks must be *detected* instead.
    pub consistent: bool,
    /// Move the window's readers ahead of its writers (subject to DAG
    /// constraints when `consistent`), maximising the size of shared
    /// reader groups. An extension ablation, not part of the paper's
    /// default g-2PL.
    pub coalesce_readers: bool,
}

impl Default for OrderingRule {
    /// The paper's evaluated g-2PL configuration: FIFO with consistent
    /// (deadlock-avoiding) reordering.
    fn default() -> Self {
        OrderingRule {
            consistent: true,
            coalesce_readers: false,
        }
    }
}

impl OrderingRule {
    /// Plain FIFO without deadlock avoidance (the "basic g-2PL" of §3.2).
    pub fn fifo() -> Self {
        OrderingRule {
            consistent: false,
            coalesce_readers: false,
        }
    }

    /// Order the drained window into a forward list and, when
    /// `consistent`, record the produced order into `dag` so later windows
    /// stay consistent with it.
    ///
    /// The order produced is a linear extension of `dag` restricted to the
    /// window (when `consistent`), choosing at each step the
    /// minimum-priority request among those with no unplaced DAG
    /// predecessor inside the window, the earliest in `pending` on a tie.
    /// Because the DAG is acyclic, a valid choice always exists — this is
    /// the formal reason the §3.3 scheme "does not require predeclaration"
    /// and cannot get stuck at window close.
    ///
    /// One pass: each request's unplaced in-window predecessors are
    /// counted once, and placing a request decrements the counts of the
    /// requests it precedes. The DAG does not change until every request
    /// is placed.
    pub fn order(self, pending: Vec<PendingReq>, dag: &mut PrecedenceDag) -> ForwardList {
        let key = |r: &PendingReq| -> (u8, u64) {
            let reader_rank = if self.coalesce_readers {
                u8::from(r.entry.mode.is_exclusive())
            } else {
                0
            };
            (reader_rank, r.arrival)
        };

        let txn = |i: usize| pending[i].entry.txn;
        let n = pending.len();
        // Unplaced in-window DAG predecessors of each request; `None` once
        // the request is placed.
        let mut preds: Vec<Option<usize>> = (0..n)
            .map(|i| {
                let count = if self.consistent {
                    (0..n).filter(|&j| dag.precedes(txn(j), txn(i))).count()
                } else {
                    0
                };
                Some(count)
            })
            .collect();
        let mut out: Vec<FlEntry> = Vec::with_capacity(n);
        while out.len() < n {
            let pick = (0..n)
                .filter(|&i| preds[i] == Some(0))
                .min_by_key(|&i| key(&pending[i]))
                // lint:allow(L3): the DAG is acyclic, so some pending request is unconstrained
                .expect("acyclic DAG always leaves an eligible request");
            preds[pick] = None;
            out.push(pending[pick].entry);
            if self.consistent {
                for (j, count) in preds.iter_mut().enumerate() {
                    if let Some(c) = count {
                        if dag.precedes(txn(pick), txn(j)) {
                            *c -= 1;
                        }
                    }
                }
            }
        }

        if self.consistent {
            for w in out.windows(2) {
                // Chain edges are enough: precedence is transitive.
                if !dag.precedes(w[0].txn, w[1].txn) {
                    dag.add_order(w[0].txn, w[1].txn);
                }
            }
            debug_assert!(dag.is_acyclic(), "window close left a precedence cycle");
        }
        ForwardList::from_entries(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g2pl_lockmgr::LockMode::{Exclusive, Shared};
    use g2pl_simcore::{ClientId, TxnId};

    fn req(t: u32, mode: g2pl_lockmgr::LockMode, arrival: u64) -> PendingReq {
        PendingReq {
            entry: FlEntry::new(TxnId::new(t), ClientId::new(t), mode),
            arrival,
            restarts: 0,
        }
    }

    fn txns(fl: &ForwardList) -> Vec<u32> {
        fl.entries().iter().map(|e| e.txn.0).collect()
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut dag = PrecedenceDag::new();
        let pending = vec![req(3, Exclusive, 5), req(1, Shared, 2), req(2, Shared, 9)];
        let fl = OrderingRule::fifo().order(pending, &mut dag);
        assert_eq!(txns(&fl), vec![1, 3, 2]);
        assert_eq!(dag.constrained_count(), 0, "fifo must not touch the DAG");
    }

    #[test]
    fn consistent_order_respects_existing_constraints() {
        let mut dag = PrecedenceDag::new();
        // A previous window fixed 2 before 1.
        dag.add_order(TxnId::new(2), TxnId::new(1));
        let pending = vec![req(1, Exclusive, 0), req(2, Exclusive, 10)];
        let fl = OrderingRule::default().order(pending, &mut dag);
        // FIFO would put 1 first, but the constraint forces 2 first.
        assert_eq!(txns(&fl), vec![2, 1]);
    }

    #[test]
    fn consistent_order_records_new_constraints() {
        let mut dag = PrecedenceDag::new();
        let pending = vec![req(5, Exclusive, 0), req(6, Exclusive, 1)];
        OrderingRule::default().order(pending, &mut dag);
        assert!(dag.precedes(TxnId::new(5), TxnId::new(6)));
        assert!(dag.is_acyclic());
    }

    #[test]
    fn transitive_constraints_respected() {
        let mut dag = PrecedenceDag::new();
        dag.add_order(TxnId::new(3), TxnId::new(2));
        dag.add_order(TxnId::new(2), TxnId::new(1));
        // 1 arrives first but transitively follows 3.
        let pending = vec![req(1, Shared, 0), req(3, Shared, 99)];
        let fl = OrderingRule::default().order(pending, &mut dag);
        assert_eq!(txns(&fl), vec![3, 1]);
    }

    #[test]
    fn coalesce_readers_moves_reads_ahead() {
        let mut dag = PrecedenceDag::new();
        let rule = OrderingRule {
            consistent: true,
            coalesce_readers: true,
        };
        let pending = vec![req(1, Exclusive, 0), req(2, Shared, 1), req(3, Shared, 2)];
        let fl = rule.order(pending, &mut dag);
        assert_eq!(txns(&fl), vec![2, 3, 1]);
    }

    #[test]
    fn coalesce_readers_still_respects_dag() {
        let mut dag = PrecedenceDag::new();
        dag.add_order(TxnId::new(1), TxnId::new(2));
        let rule = OrderingRule {
            consistent: true,
            coalesce_readers: true,
        };
        // Reader 2 would coalesce ahead, but must follow writer 1.
        let pending = vec![req(1, Exclusive, 0), req(2, Shared, 1)];
        let fl = rule.order(pending, &mut dag);
        assert_eq!(txns(&fl), vec![1, 2]);
    }

    #[test]
    fn empty_window_orders_to_empty_list() {
        let mut dag = PrecedenceDag::new();
        let fl = OrderingRule::default().order(Vec::new(), &mut dag);
        assert!(fl.is_empty());
    }

    #[test]
    fn any_two_windows_are_mutually_consistent() {
        // Close two windows over overlapping transaction sets; the pairwise
        // order of shared members must agree.
        let mut dag = PrecedenceDag::new();
        let w1 = vec![
            req(1, Exclusive, 0),
            req(2, Exclusive, 1),
            req(3, Exclusive, 2),
        ];
        let fl1 = OrderingRule::default().order(w1, &mut dag);
        // Second window sees 3 and 1 arrive in the *opposite* order.
        let w2 = vec![req(3, Exclusive, 0), req(1, Exclusive, 1)];
        let fl2 = OrderingRule::default().order(w2, &mut dag);
        let pos1 = |fl: &ForwardList, t: u32| fl.position_of(TxnId::new(t)).unwrap();
        assert!(pos1(&fl1, 1) < pos1(&fl1, 3));
        assert!(pos1(&fl2, 1) < pos1(&fl2, 3), "order must match window 1");
        assert!(dag.is_acyclic());
    }
}
