//! The closure-row precedence DAG and the one-pass window close, checked
//! against a reference model: an edge-list DAG whose `precedes` is a DFS
//! and whose removal joins every predecessor to every successor, and the
//! selection loop that re-checks every request's eligibility before each
//! placement.
//!
//! Random sequences of window closes (every `OrderingRule` variant),
//! direct `add_order` calls and `remove_txn` calls run against both
//! models. After every step the forward lists must be identical, and so
//! must `precedes` for every ordered pair of known transactions,
//! `constrained_count` and `is_acyclic`. The sequences reuse slots
//! (removal, then new or re-added transactions), use sparse `TxnId`
//! indices, and keep more than 128 transactions live, so closure rows
//! span three words.

use g2pl_fwdlist::window::PendingReq;
use g2pl_fwdlist::{FlEntry, ForwardList, OrderingRule, PrecedenceDag};
use g2pl_lockmgr::LockMode;
use g2pl_simcore::{ClientId, TxnId};
use proptest::prelude::TestRng;
use std::collections::{BTreeMap, BTreeSet};

/// The reference precedence DAG: direct edges in both directions.
#[derive(Clone, Debug, Default)]
struct RefDag {
    succ: BTreeMap<TxnId, BTreeSet<TxnId>>,
    pred: BTreeMap<TxnId, BTreeSet<TxnId>>,
}

impl RefDag {
    fn add_order(&mut self, before: TxnId, after: TxnId) {
        assert_ne!(before, after, "a transaction cannot precede itself");
        assert!(
            !self.precedes(after, before),
            "adding {before:?} -> {after:?} would create a precedence cycle"
        );
        self.succ.entry(before).or_default().insert(after);
        self.pred.entry(after).or_default().insert(before);
    }

    /// DFS from `a`.
    fn precedes(&self, a: TxnId, b: TxnId) -> bool {
        a != b && self.descendants(a).contains(&b)
    }

    /// Every transaction `a` transitively precedes.
    fn descendants(&self, a: TxnId) -> BTreeSet<TxnId> {
        let mut stack = vec![a];
        let mut seen = BTreeSet::new();
        while let Some(t) = stack.pop() {
            for &n in self.succ.get(&t).into_iter().flatten() {
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        seen
    }

    /// Remove `txn`, making every predecessor a direct predecessor of
    /// every successor.
    fn remove_txn(&mut self, txn: TxnId) {
        let preds = self.pred.remove(&txn).unwrap_or_default();
        let succs = self.succ.remove(&txn).unwrap_or_default();
        for p in &preds {
            if let Some(s) = self.succ.get_mut(p) {
                s.remove(&txn);
            }
        }
        for s in &succs {
            if let Some(p) = self.pred.get_mut(s) {
                p.remove(&txn);
            }
        }
        for &p in &preds {
            for &s in &succs {
                if p != s {
                    self.succ.entry(p).or_default().insert(s);
                    self.pred.entry(s).or_default().insert(p);
                }
            }
        }
    }

    fn constrained_count(&self) -> usize {
        let mut nodes: BTreeSet<TxnId> = self.succ.keys().copied().collect();
        nodes.extend(self.pred.keys().copied());
        nodes.len()
    }

    /// Kahn's algorithm.
    fn is_acyclic(&self) -> bool {
        let mut indeg: BTreeMap<TxnId, usize> = BTreeMap::new();
        let mut nodes: BTreeSet<TxnId> = BTreeSet::new();
        for (&n, succs) in &self.succ {
            nodes.insert(n);
            for &s in succs {
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
            for s in self.succ.get(&n).into_iter().flatten() {
                let d = indeg.get_mut(s).expect("edge target has indegree");
                *d -= 1;
                if *d == 0 {
                    ready.push(*s);
                }
            }
        }
        removed == nodes.len()
    }
}

/// The reference window close: before each placement, re-check every
/// unplaced request's eligibility against the DAG and take the first
/// minimum-key eligible one.
fn ref_order(rule: OrderingRule, mut pending: Vec<PendingReq>, dag: &mut RefDag) -> ForwardList {
    let key = |r: &PendingReq| -> (u8, u64) {
        let reader_rank = if rule.coalesce_readers {
            u8::from(r.entry.mode.is_exclusive())
        } else {
            0
        };
        (reader_rank, r.arrival)
    };
    let mut out: Vec<FlEntry> = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let eligible = |i: usize, pending: &[PendingReq]| -> bool {
            if !rule.consistent {
                return true;
            }
            let me = pending[i].entry.txn;
            pending
                .iter()
                .enumerate()
                .all(|(j, other)| j == i || !dag.precedes(other.entry.txn, me))
        };
        let pick = (0..pending.len())
            .filter(|&i| eligible(i, &pending))
            .min_by_key(|&i| key(&pending[i]))
            .expect("acyclic DAG always leaves an eligible request");
        out.push(pending.remove(pick).entry);
    }
    if rule.consistent {
        for w in out.windows(2) {
            if !dag.precedes(w[0].txn, w[1].txn) {
                dag.add_order(w[0].txn, w[1].txn);
            }
        }
    }
    ForwardList::from_entries(out)
}

/// Both models side by side, plus the transactions the sequence knows.
struct Pair {
    rule: OrderingRule,
    dag: PrecedenceDag,
    reference: RefDag,
    /// In-flight transactions: window members and `add_order` operands.
    live: Vec<TxnId>,
    /// Removed transactions: re-add candidates, and checked to be gone.
    retired: Vec<TxnId>,
    /// Raw id of the next fresh transaction.
    next: u32,
    /// Gap between fresh raw ids, so `TxnId` indices are sparse.
    stride: u32,
}

impl Pair {
    fn fresh(&mut self) -> TxnId {
        self.next += self.stride;
        TxnId::new(self.next)
    }

    fn close_window(&mut self, rng: &mut TestRng, context: &str) {
        let long = rng.below(8) == 0;
        let max = if long { 33 } else { 12 };
        let len = (rng.below(max + 1) as usize).min(self.live.len());
        let mut members = self.live.clone();
        let mut pending = Vec::with_capacity(len);
        // Small arrival ranges force key ties, which break on position.
        let arrivals = if rng.below(2) == 0 { len as u64 + 1 } else { 4 };
        let read_pct = rng.below(101);
        for _ in 0..len {
            let txn = members.swap_remove(rng.below(members.len() as u64) as usize);
            let mode = if rng.below(100) < read_pct {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            pending.push(PendingReq {
                entry: FlEntry::new(txn, ClientId::new(txn.0), mode),
                arrival: rng.below(arrivals),
                restarts: 0,
            });
        }
        let want = ref_order(self.rule, pending.clone(), &mut self.reference);
        let got = self.rule.order(pending, &mut self.dag);
        assert_eq!(got, want, "{context}: forward lists differ");
    }

    fn add_direct(&mut self, rng: &mut TestRng) {
        if self.live.len() < 2 {
            return;
        }
        let a = self.live[rng.below(self.live.len() as u64) as usize];
        let b = self.live[rng.below(self.live.len() as u64) as usize];
        if a != b && !self.reference.precedes(b, a) {
            self.reference.add_order(a, b);
            self.dag.add_order(a, b);
        }
    }

    fn remove(&mut self, rng: &mut TestRng) {
        if rng.below(8) == 0 {
            // Never added: a no-op in both models.
            let stranger = self.fresh();
            self.dag.remove_txn(stranger);
            self.reference.remove_txn(stranger);
            return;
        }
        if self.live.is_empty() {
            return;
        }
        let at = rng.below(self.live.len() as u64) as usize;
        let gone = self.live[at];
        self.dag.remove_txn(gone);
        self.reference.remove_txn(gone);
        self.retired.push(gone);
        // Its slot is free now; the replacement may be a re-added id.
        self.live[at] = if rng.below(4) == 0 {
            self.retired
                .swap_remove(rng.below(self.retired.len() as u64) as usize)
        } else {
            self.fresh()
        };
    }

    fn check(&self, context: &str) {
        assert_eq!(
            self.dag.constrained_count(),
            self.reference.constrained_count(),
            "{context}: constrained_count differs"
        );
        assert!(self.reference.is_acyclic(), "{context}: reference cycle");
        assert!(self.dag.is_acyclic(), "{context}: closure-row cycle");
        let known: Vec<TxnId> = self.live.iter().chain(&self.retired).copied().collect();
        for &a in &known {
            let after = self.reference.descendants(a);
            for &b in &known {
                let want = a != b && after.contains(&b);
                assert_eq!(
                    self.dag.precedes(a, b),
                    want,
                    "{context}: precedes({a:?}, {b:?}) differs"
                );
            }
        }
    }
}

#[test]
fn closure_rows_and_one_pass_order_match_the_reference() {
    const CASES: u32 = 96;
    const POOLS: [usize; 4] = [3, 12, 70, 150];
    const STRIDES: [u32; 3] = [1, 7, 997];
    let mut peak_live = 0;
    for case in 0..CASES {
        let mut rng = TestRng::for_case("fwdlist::reference_model", case);
        let variant = case % 4;
        let rule = OrderingRule {
            consistent: variant & 1 == 0,
            coalesce_readers: variant & 2 != 0,
        };
        let pool = POOLS[(case as usize / 8) % POOLS.len()];
        let mut pair = Pair {
            rule,
            dag: PrecedenceDag::new(),
            reference: RefDag::default(),
            live: Vec::new(),
            retired: Vec::new(),
            next: rng.below(1_000) as u32,
            stride: STRIDES[rng.below(STRIDES.len() as u64) as usize],
        };
        pair.live = (0..pool).map(|_| pair.fresh()).collect();
        // Seed the DAG with chains across the whole pool, so the large
        // pools keep more than 128 transactions live from the start.
        if rule.consistent {
            for w in pair.live.clone().chunks(4) {
                for e in w.windows(2) {
                    pair.reference.add_order(e[0], e[1]);
                    pair.dag.add_order(e[0], e[1]);
                }
            }
        }
        for step in 0..60 {
            let context = format!("case {case} ({rule:?}, pool {pool}) step {step}");
            match rng.below(10) {
                0..=5 => pair.close_window(&mut rng, &context),
                6 => pair.add_direct(&mut rng),
                _ => pair.remove(&mut rng),
            }
            peak_live = peak_live.max(pair.dag.constrained_count());
            pair.check(&context);
        }
    }
    assert!(
        peak_live > 128,
        "rows never spanned three words: peak {peak_live} live transactions"
    );
}
