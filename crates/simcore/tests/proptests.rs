//! Property-based tests of the simulation kernel.

use g2pl_simcore::{Calendar, EventHandle, RngStream, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One step of a calendar script.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule the next event at `now + offset`.
    Schedule(u64),
    Pop,
    NextTime,
    /// Cancel the handle at this index (modulo the count) among every
    /// handle issued so far.
    Cancel(usize),
}

/// Small offsets, so many events share an instant and ties decide the
/// order; cancels pick among all handles, pending or not.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..4).prop_map(Op::Schedule),
        3 => Just(Op::Pop),
        1 => Just(Op::NextTime),
        2 => (0usize..1000).prop_map(Op::Cancel),
    ]
}

/// Runs `ops` on a calendar and on a reference model side by side and
/// compares them after every step: the popped `(time, event)`, the
/// peeked time, `len`, `now` and `peak_len`. The model is a map of
/// pending events keyed by `(time, seq)` plus the set of cancelled
/// events, and of those the keys whose tombstone the calendar still
/// queues (it discards one when a pop or peek passes it). Returns how
/// many cancels hit a pending event, a fired one, a cancelled one whose
/// tombstone is queued and one whose tombstone is gone (its slot may
/// already hold a later event).
fn check_against_model(ops: &[Op]) -> Result<[u32; 4], TestCaseError> {
    let mut cal = Calendar::new();
    let mut pending: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut cancelled: BTreeSet<u64> = BTreeSet::new();
    let mut tombstones: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut handles: Vec<(EventHandle, (u64, u64))> = Vec::new();
    let (mut now, mut peak, mut kinds) = (0u64, 0usize, [0u32; 4]);
    for op in ops {
        match *op {
            Op::Schedule(offset) => {
                let key = (now + offset, handles.len() as u64);
                handles.push((cal.schedule(SimTime::new(key.0), key.1), key));
                pending.insert(key, key.1);
                peak = peak.max(pending.len());
            }
            Op::Pop => {
                let want = pending.pop_first();
                // Every tombstone ahead of the popped key goes with it.
                match want {
                    Some((key, _)) => {
                        tombstones.retain(|t| *t > key);
                        now = key.0;
                    }
                    None => tombstones.clear(),
                }
                let got = cal.pop().map(|(t, ev)| (t.units(), ev));
                prop_assert_eq!(got, want.map(|((t, _), ev)| (t, ev)));
            }
            Op::NextTime => {
                let first = pending.first_key_value().map(|(&key, _)| key);
                match first {
                    Some(key) => tombstones.retain(|t| *t > key),
                    None => tombstones.clear(),
                }
                let got = cal.next_time().map(SimTime::units);
                prop_assert_eq!(got, first.map(|(t, _)| t));
            }
            Op::Cancel(i) => {
                let Some(&(handle, key)) = handles.get(i % handles.len().max(1)) else {
                    continue;
                };
                let kind = if pending.remove(&key).is_some() {
                    cancelled.insert(key.1);
                    tombstones.insert(key);
                    0
                } else if !cancelled.contains(&key.1) {
                    1
                } else if tombstones.contains(&key) {
                    2
                } else {
                    3
                };
                kinds[kind] += 1;
                cal.cancel(handle);
            }
        }
        prop_assert_eq!(cal.len(), pending.len());
        prop_assert_eq!(cal.now().units(), now);
        prop_assert_eq!(cal.peak_len(), peak);
    }
    Ok(kinds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random interleavings of schedules at `now + 0..4`, pops, peeks
    /// and cancels of every kind of handle agree with the reference
    /// model after every step. Unlike the tests below, slots are freed
    /// and reused mid-script.
    #[test]
    fn calendar_matches_a_reference_model(ops in proptest::collection::vec(op(), 1..400)) {
        check_against_model(&ops)?;
    }

    /// Pops come out sorted by time, FIFO within a timestamp — i.e. the
    /// calendar is a stable priority queue.
    #[test]
    fn calendar_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1000, 1..300)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::new(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = cal.pop() {
            popped.push((t.units(), i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_removes_exact_subset(
        times in proptest::collection::vec(0u64..100, 1..100),
        kill_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut cal = Calendar::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, cal.schedule(SimTime::new(t), i)))
            .collect();
        let mut killed = Vec::new();
        for (i, h) in &handles {
            if *kill_mask.get(*i).unwrap_or(&false) {
                cal.cancel(*h);
                killed.push(*i);
            }
        }
        let mut survivors = Vec::new();
        while let Some((_, i)) = cal.pop() {
            survivors.push(i);
        }
        for k in &killed {
            prop_assert!(!survivors.contains(k), "cancelled event {k} fired");
        }
        prop_assert_eq!(survivors.len() + killed.len(), times.len());
    }

    /// The clock never runs backwards.
    #[test]
    fn clock_is_monotone(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut cal = Calendar::new();
        for &t in &times {
            cal.schedule(SimTime::new(t), ());
        }
        let mut last = SimTime::ZERO;
        while let Some((t, ())) = cal.pop() {
            prop_assert!(t >= last);
            prop_assert_eq!(cal.now(), t);
            last = t;
        }
    }

    /// Derived RNG streams are deterministic and label-separated.
    #[test]
    fn rng_streams_deterministic(seed in any::<u64>()) {
        let mut a = RngStream::derive(seed, "alpha");
        let mut b = RngStream::derive(seed, "alpha");
        for _ in 0..16 {
            prop_assert_eq!(a.uniform_incl(0, u64::MAX / 2), b.uniform_incl(0, u64::MAX / 2));
        }
    }

    /// `distinct(k, pool)` always returns k unique in-range values.
    #[test]
    fn rng_distinct_property(seed in any::<u64>(), k in 1usize..20, extra in 0usize..30) {
        let pool = k + extra;
        let mut rng = RngStream::new(seed);
        let v = rng.distinct(k, pool);
        prop_assert_eq!(v.len(), k);
        let mut s = v.clone();
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), k);
        prop_assert!(v.iter().all(|&x| (x as usize) < pool));
    }

    /// SimTime arithmetic round-trips.
    #[test]
    fn simtime_roundtrip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let (ta, tb) = (SimTime::new(a), SimTime::new(b));
        prop_assert_eq!((ta + tb).since(ta), tb);
        prop_assert_eq!(ta.after(tb), tb.after(ta));
    }
}

/// The model test's own scripts cancel every kind of handle the model
/// tells apart: pending, fired, cancelled with its tombstone queued, and
/// cancelled with its tombstone discarded.
#[test]
fn model_scripts_cancel_every_kind_of_handle() {
    let ops = proptest::collection::vec(op(), 1..400);
    let mut total = [0u32; 4];
    for case in 0..128 {
        let mut rng = TestRng::for_case(
            concat!(module_path!(), "::calendar_matches_a_reference_model"),
            case,
        );
        let kinds = check_against_model(&ops.sample(&mut rng)).expect("the model agrees");
        for (t, k) in total.iter_mut().zip(kinds) {
            *t += k;
        }
    }
    assert!(total.iter().all(|&k| k > 0), "cancels per kind: {total:?}");
}
