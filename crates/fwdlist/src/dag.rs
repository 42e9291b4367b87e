//! The global transaction precedence DAG (§3.3).
//!
//! "The forward list for each data item can be represented by a
//! transaction precedence graph… In order to ensure linear ordering,
//! transaction precedence graphs need to be made consistent. That is, two
//! transactions Ti and Tj must follow the same order in every precedence
//! graph involving Ti and Tj."
//!
//! We maintain the *union* of all per-item precedence graphs as one DAG.
//! Every window close orders its pending requests by a linear extension of
//! this DAG and inserts the resulting edges, so the union stays acyclic by
//! construction and any two dispatched forward lists order any two
//! transactions consistently — which eliminates deadlocks among
//! transactions whose conflicting requests land in the same collection
//! windows.
//!
//! **Closure rows.** The DAG is stored as its own transitive closure. Each
//! live transaction owns a dense *slot*, and each slot one *closure row*:
//! a bit set over the slots, with bit `j` of row `i` set when slot `i`'s
//! transaction precedes slot `j`'s, directly or transitively. So
//! [`PrecedenceDag::precedes`] is one bit test that allocates nothing, and
//! [`PrecedenceDag::add_order`]`(a, b)` ORs `b`'s row and `b` itself into
//! `a`'s row and into every row that already reaches `a`.
//!
//! **Removal inserts nothing.** A finished transaction's constraints must
//! outlive it: if `a < t < b` was fixed by dispatched lists, the order of
//! the still-active `a` and `b` is decided and no later window may invert
//! it. An edge list has to join every predecessor of `t` to every
//! successor to keep that. The closure already holds `a < b` in `a`'s
//! row, so [`PrecedenceDag::remove_txn`] only clears `t`'s row and column
//! and recycles its slot.
//!
//! **Cost.** With `L` live transactions a row is `⌈L/64⌉` words. Closing a
//! window of `n` requests ([`crate::order::OrderingRule::order`]) makes
//! `n(n−1)` bit tests to count in-window predecessors, at most
//! `n(n−1)/2` more as it places requests, and at most `n−1` chain-edge
//! insertions, each one pass over the `L` rows. A removal is one pass
//! over the rows.

use g2pl_simcore::{Slab, TxnId};

/// Bits per closure-row word.
const WORD: usize = u64::BITS as usize;

/// An acyclic precedence relation over active transactions, kept as its
/// transitive closure.
#[derive(Clone, Debug, Default)]
pub struct PrecedenceDag {
    /// The slot of each live transaction, keyed by [`TxnId::index`].
    slot_of: Slab<Option<u32>>,
    /// Slots ever handed out; live ones plus `free`.
    slots: usize,
    /// Free slots, reused last-freed first. A free slot's row and column
    /// are zero.
    free: Vec<u32>,
    /// Words per closure row.
    words: usize,
    /// The closure rows, `words` words per slot in slot order.
    reach: Vec<u64>,
}

impl PrecedenceDag {
    /// Empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `before` precedes `after` in some forward list.
    ///
    /// # Panics
    /// Panics (in debug builds) if the edge would create a cycle — the
    /// window-close ordering must only add edges along a linear extension,
    /// so a cycle here is an engine bug, not an input condition.
    pub fn add_order(&mut self, before: TxnId, after: TxnId) {
        assert_ne!(before, after, "a transaction cannot precede itself");
        debug_assert!(
            !self.precedes(after, before),
            "adding {before:?} -> {after:?} would create a precedence cycle"
        );
        let a = self.slot_or_insert(before);
        let b = self.slot_or_insert(after);
        let w = self.words;
        for r in 0..self.slots {
            if r == a || self.reaches(r, a) {
                for k in 0..w {
                    let own = if k == b / WORD { 1 << (b % WORD) } else { 0 };
                    let add = self.reach[b * w + k] | own;
                    self.reach[r * w + k] |= add;
                }
            }
        }
    }

    /// True when `a` (transitively) precedes `b`.
    pub fn precedes(&self, a: TxnId, b: TxnId) -> bool {
        match (self.slot(a), self.slot(b)) {
            (Some(i), Some(j)) => i != j && self.reaches(i, j),
            _ => false,
        }
    }

    /// Remove a finished transaction, preserving transitive constraints
    /// among the others: every predecessor still precedes every successor.
    /// Removing a transaction not in the DAG is a no-op.
    pub fn remove_txn(&mut self, txn: TxnId) {
        let Some(s) = self.slot(txn) else {
            return;
        };
        if let Some(slot) = self.slot_of.get_mut(txn.index()) {
            *slot = None;
        }
        self.free.push(s as u32);
        let w = self.words;
        self.reach[s * w..(s + 1) * w].fill(0);
        let mask = !(1u64 << (s % WORD));
        for word in self.reach.iter_mut().skip(s / WORD).step_by(w) {
            *word &= mask;
        }
    }

    /// Number of transactions in the DAG: each named by an
    /// [`add_order`](Self::add_order) since its last
    /// [`remove_txn`](Self::remove_txn).
    pub fn constrained_count(&self) -> usize {
        self.slots - self.free.len()
    }

    /// True when no transaction precedes itself (test/debug helper; the
    /// DAG is acyclic by construction in production use). The rows are a
    /// closure, so this is a scan of the diagonal bits.
    pub fn is_acyclic(&self) -> bool {
        (0..self.slots).all(|s| !self.reaches(s, s))
    }

    /// The slot of `txn`, if it is in the DAG.
    fn slot(&self, txn: TxnId) -> Option<usize> {
        self.slot_of
            .get(txn.index())
            .copied()
            .flatten()
            .map(|s| s as usize)
    }

    /// Bit `j` of closure row `i`.
    fn reaches(&self, i: usize, j: usize) -> bool {
        self.reach[i * self.words + j / WORD] >> (j % WORD) & 1 == 1
    }

    /// The slot of `txn`, giving it a free or new slot (with a zero row
    /// and column) when it is not in the DAG yet.
    fn slot_or_insert(&mut self, txn: TxnId) -> usize {
        if let Some(s) = self.slot(txn) {
            return s;
        }
        let s = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                if self.slots == self.words * WORD {
                    self.widen();
                }
                self.slots += 1;
                self.reach.resize(self.slots * self.words, 0);
                self.slots - 1
            }
        };
        *self.slot_of.ensure(txn.index()) = Some(s as u32);
        s
    }

    /// Add one word to every row, making room for 64 more slots.
    fn widen(&mut self) {
        let old = self.words;
        self.words += 1;
        let mut reach = vec![0; self.slots * self.words];
        if old > 0 {
            for (new, row) in reach.chunks_mut(self.words).zip(self.reach.chunks(old)) {
                new[..old].copy_from_slice(row);
            }
        }
        self.reach = reach;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    #[test]
    fn direct_and_transitive_precedence() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(2));
        d.add_order(t(2), t(3));
        assert!(d.precedes(t(1), t(2)));
        assert!(d.precedes(t(1), t(3)));
        assert!(!d.precedes(t(3), t(1)));
        assert!(!d.precedes(t(1), t(1)));
        assert!(d.is_acyclic());
    }

    #[test]
    fn removal_preserves_transitive_constraints() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(2));
        d.add_order(t(2), t(3));
        d.remove_txn(t(2));
        assert!(d.precedes(t(1), t(3)), "closure edge must survive removal");
        assert!(!d.precedes(t(1), t(2)));
        assert!(!d.precedes(t(2), t(3)));
        assert!(d.is_acyclic());
    }

    #[test]
    fn removal_of_unknown_txn_is_noop() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(2));
        d.remove_txn(t(99));
        assert!(d.precedes(t(1), t(2)));
    }

    #[test]
    fn diamond_closure() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(2));
        d.add_order(t(1), t(3));
        d.add_order(t(2), t(4));
        d.add_order(t(3), t(4));
        d.remove_txn(t(2));
        d.remove_txn(t(3));
        assert!(d.precedes(t(1), t(4)));
        assert!(d.is_acyclic());
    }

    #[test]
    fn constrained_count_tracks_nodes() {
        let mut d = PrecedenceDag::new();
        assert_eq!(d.constrained_count(), 0);
        d.add_order(t(1), t(2));
        assert_eq!(d.constrained_count(), 2);
        d.add_order(t(2), t(3));
        assert_eq!(d.constrained_count(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot precede itself")]
    fn self_order_panics() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "precedence cycle")]
    fn cycle_insertion_panics_in_debug() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(2));
        d.add_order(t(2), t(1));
    }
}
