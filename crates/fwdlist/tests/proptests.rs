//! Property-based tests of the forward-list machinery: ordering rules
//! must produce permutations that respect the precedence DAG, keep the
//! DAG acyclic, and stay mutually consistent across windows.

use g2pl_fwdlist::window::PendingReq;
use g2pl_fwdlist::{FlEntry, ForwardList, OrderingRule, PrecedenceDag, Segment};
use g2pl_lockmgr::LockMode;
use g2pl_simcore::{ClientId, TxnId};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_window(max_txn: u32) -> impl Strategy<Value = Vec<PendingReq>> {
    proptest::collection::vec((0..max_txn, any::<bool>()), 1..12).prop_map(|v| {
        let mut seen = HashSet::new();
        v.into_iter()
            .filter(|(t, _)| seen.insert(*t))
            .enumerate()
            .map(|(i, (t, exclusive))| PendingReq {
                entry: FlEntry::new(
                    TxnId::new(t),
                    ClientId::new(t),
                    if exclusive {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    },
                ),
                arrival: i as u64,
                restarts: 0,
            })
            .collect()
    })
}

fn arb_rule() -> impl Strategy<Value = OrderingRule> {
    (any::<bool>(), any::<bool>()).prop_map(|(consistent, coalesce)| OrderingRule {
        consistent,
        coalesce_readers: coalesce,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Ordering any window yields a permutation of its requests.
    #[test]
    fn order_is_a_permutation(pending in arb_window(30), rule in arb_rule()) {
        let mut dag = PrecedenceDag::new();
        let want: HashSet<TxnId> = pending.iter().map(|p| p.entry.txn).collect();
        let fl = rule.order(pending, &mut dag);
        let got: HashSet<TxnId> = fl.entries().iter().map(|e| e.txn).collect();
        prop_assert_eq!(want, got);
        prop_assert!(dag.is_acyclic());
    }

    /// With consistency on, successive windows over overlapping
    /// transaction sets order shared members identically.
    #[test]
    fn consistent_windows_agree_pairwise(
        w1 in arb_window(12),
        w2 in arb_window(12),
    ) {
        let rule = OrderingRule::default();
        let mut dag = PrecedenceDag::new();
        let fl1 = rule.order(w1, &mut dag);
        let fl2 = rule.order(w2, &mut dag);
        for a in fl1.entries() {
            for b in fl1.entries() {
                let (p1a, p1b) = (fl1.position_of(a.txn).unwrap(), fl1.position_of(b.txn).unwrap());
                if let (Some(p2a), Some(p2b)) = (fl2.position_of(a.txn), fl2.position_of(b.txn)) {
                    if p1a < p1b {
                        prop_assert!(
                            p2a < p2b,
                            "{:?} before {:?} in window 1 but after in window 2",
                            a.txn, b.txn
                        );
                    }
                }
            }
        }
        prop_assert!(dag.is_acyclic());
    }

    /// The produced order is a linear extension of the pre-existing DAG.
    #[test]
    fn order_respects_prior_constraints(
        pending in arb_window(10),
        edges in proptest::collection::vec((0u32..10, 0u32..10), 0..10),
    ) {
        let mut dag = PrecedenceDag::new();
        for (a, b) in edges {
            if a != b && !dag.precedes(TxnId::new(b), TxnId::new(a)) {
                dag.add_order(TxnId::new(a), TxnId::new(b));
            }
        }
        let snapshot = dag.clone();
        let fl = OrderingRule::default().order(pending, &mut dag);
        for (i, a) in fl.entries().iter().enumerate() {
            for b in &fl.entries()[i + 1..] {
                prop_assert!(
                    !snapshot.precedes(b.txn, a.txn),
                    "order violates prior constraint {:?} < {:?}",
                    b.txn, a.txn
                );
            }
        }
    }

    /// Segments tile the list: every position belongs to exactly one
    /// segment, reader segments contain only readers, writer segments
    /// exactly one writer.
    #[test]
    fn segments_tile_any_list(pending in arb_window(30)) {
        let mut dag = PrecedenceDag::new();
        let fl = OrderingRule::fifo().order(pending, &mut dag);
        let mut covered = vec![false; fl.len()];
        for seg in fl.segments() {
            match seg {
                Segment::Readers(r) => {
                    prop_assert!(!r.is_empty());
                    for i in r {
                        prop_assert!(fl.entry(i).mode.is_shared());
                        prop_assert!(!covered[i], "position {i} covered twice");
                        covered[i] = true;
                    }
                }
                Segment::Writer(i) => {
                    prop_assert!(fl.entry(i).mode.is_exclusive());
                    prop_assert!(!covered[i], "position {i} covered twice");
                    covered[i] = true;
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "uncovered positions");
    }

    /// `segment_of` agrees with the segment iterator.
    #[test]
    fn segment_of_matches_iteration(pending in arb_window(30)) {
        let mut dag = PrecedenceDag::new();
        let fl = OrderingRule::fifo().order(pending, &mut dag);
        for seg in fl.segments() {
            for i in seg.range() {
                prop_assert_eq!(fl.segment_of(i), seg.clone());
            }
        }
    }

    /// DAG closure survives arbitrary removal orders: if a chain
    /// a -> b -> c is inserted, removing b keeps a before c.
    #[test]
    fn dag_closure_under_removal(chain in proptest::collection::vec(0u32..30, 3..10)) {
        let mut chain = chain;
        chain.dedup();
        prop_assume!(chain.len() >= 3);
        let mut seen = HashSet::new();
        chain.retain(|&t| seen.insert(t));
        prop_assume!(chain.len() >= 3);

        let mut dag = PrecedenceDag::new();
        for w in chain.windows(2) {
            dag.add_order(TxnId::new(w[0]), TxnId::new(w[1]));
        }
        // Remove every interior node.
        for &mid in &chain[1..chain.len() - 1] {
            dag.remove_txn(TxnId::new(mid));
        }
        prop_assert!(dag.precedes(
            TxnId::new(chain[0]),
            TxnId::new(*chain.last().unwrap())
        ));
        prop_assert!(dag.is_acyclic());
    }
}

/// The paper's §3.3 example, end-to-end: two read-only transactions
/// requesting x and y in opposite orders land in windows whose consistent
/// ordering agrees, so no forward-list-level inconsistency arises.
#[test]
fn paper_read_dependency_example_orders_consistently() {
    let rule = OrderingRule::default();
    let mut dag = PrecedenceDag::new();
    let t1 = TxnId::new(1);
    let t2 = TxnId::new(2);
    let req = |t: TxnId, arrival: u64| PendingReq {
        entry: FlEntry::new(t, ClientId::new(t.0), LockMode::Shared),
        arrival,
        restarts: 0,
    };
    // Window for x sees t1 then t2; window for y sees t2 then t1.
    let fx = rule.order(vec![req(t1, 0), req(t2, 1)], &mut dag);
    let fy = rule.order(vec![req(t2, 2), req(t1, 3)], &mut dag);
    let x1 = fx.position_of(t1).unwrap();
    let x2 = fx.position_of(t2).unwrap();
    let y1 = fy.position_of(t1).unwrap();
    let y2 = fy.position_of(t2).unwrap();
    assert_eq!(
        (x1 < x2),
        (y1 < y2),
        "both lists must order t1/t2 the same way"
    );
}

/// Reader coalescing produces one leading reader group when
/// unconstrained.
#[test]
fn coalescing_forms_single_group() {
    let rule = OrderingRule {
        consistent: false,
        coalesce_readers: true,
    };
    let mut dag = PrecedenceDag::new();
    let pending = (0..8u32)
        .map(|i| PendingReq {
            entry: FlEntry::new(
                TxnId::new(i),
                ClientId::new(i),
                if i % 2 == 0 {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                },
            ),
            arrival: u64::from(i),
            restarts: 0,
        })
        .collect();
    let fl: ForwardList = rule.order(pending, &mut dag);
    let segs: Vec<Segment> = fl.segments().collect();
    assert!(matches!(segs[0], Segment::Readers(ref r) if r.len() == 4));
    assert_eq!(segs.len(), 5, "one reader group then four writers");
}
