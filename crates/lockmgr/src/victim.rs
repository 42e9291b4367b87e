//! Deadlock victim selection policies.

use g2pl_simcore::TxnId;
use serde::{Deserialize, Serialize};

/// Which member of a deadlock cycle to abort.
///
/// The paper aborts "the transactions necessary to remove the deadlocks"
/// without fixing a policy; commercial s-2PL systems typically abort the
/// youngest transaction (cheapest to redo, and guarantees progress because
/// the oldest transaction in any cycle eventually wins). We default to
/// youngest and expose the alternatives for the `ext-victims` study.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum VictimPolicy {
    /// Abort the youngest transaction (highest `TxnId`, i.e. latest
    /// start). Default; starvation-free under restart-with-new-id because
    /// ages only grow.
    #[default]
    Youngest,
    /// Abort the oldest transaction (lowest `TxnId`).
    Oldest,
    /// Abort the transaction holding the fewest locks (cheapest rollback);
    /// ties break to the youngest.
    FewestLocks,
}

impl VictimPolicy {
    /// Pick the victim from a non-empty cycle.
    ///
    /// `locks_held` reports the number of locks a transaction holds and is
    /// only consulted by [`VictimPolicy::FewestLocks`].
    ///
    /// # Panics
    /// Panics if `cycle` is empty.
    pub fn choose(self, cycle: &[TxnId], locks_held: impl Fn(TxnId) -> usize) -> TxnId {
        assert!(
            !cycle.is_empty(),
            "cannot pick a victim from an empty cycle"
        );
        match self {
            // lint:allow(L3): cycle is non-empty per the assert above
            VictimPolicy::Youngest => *cycle.iter().max().expect("non-empty"),
            // lint:allow(L3): cycle is non-empty per the assert above
            VictimPolicy::Oldest => *cycle.iter().min().expect("non-empty"),
            VictimPolicy::FewestLocks => *cycle
                .iter()
                .min_by_key(|&&t| (locks_held(t), std::cmp::Reverse(t)))
                // lint:allow(L3): cycle is non-empty per the assert above
                .expect("non-empty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    #[test]
    fn youngest_is_highest_id() {
        let cycle = [t(3), t(9), t(1)];
        assert_eq!(VictimPolicy::Youngest.choose(&cycle, |_| 0), t(9));
    }

    #[test]
    fn oldest_is_lowest_id() {
        let cycle = [t(3), t(9), t(1)];
        assert_eq!(VictimPolicy::Oldest.choose(&cycle, |_| 0), t(1));
    }

    #[test]
    fn fewest_locks_consults_callback() {
        let cycle = [t(3), t(9), t(1)];
        let locks = |txn: TxnId| match txn.0 {
            3 => 5,
            9 => 2,
            1 => 7,
            _ => unreachable!(),
        };
        assert_eq!(VictimPolicy::FewestLocks.choose(&cycle, locks), t(9));
    }

    #[test]
    fn fewest_locks_ties_break_youngest() {
        let cycle = [t(3), t(9)];
        assert_eq!(VictimPolicy::FewestLocks.choose(&cycle, |_| 1), t(9));
    }

    #[test]
    #[should_panic(expected = "empty cycle")]
    fn empty_cycle_panics() {
        VictimPolicy::Youngest.choose(&[], |_| 0);
    }
}
