//! Reusable lazy cycle search over implicit waits-for relations.
//!
//! Deadlock detection is started whenever a request cannot be granted
//! (§4). s-2PL and c-2PL skip the search when nothing can wait for the
//! blocked transaction (see `ServerLocking::detect_deadlocks`); every
//! search that does run goes through this finder. The DFS allocates
//! nothing on the steady state: visited colours live in an
//! epoch-stamped slab indexed by the dense `TxnId` (bumping the epoch
//! invalidates every mark in O(1) — no clearing sweep), successor lists
//! are stored in one arena that grows and shrinks with the DFS stack,
//! and the discovered cycle is returned as a slice of the internal path
//! buffer.
//!
//! The search order is identical to the recursive formulation the
//! engines originally used: successors of a node are expanded exactly
//! once, in the order the `succ` callback produced them, and the first
//! back edge found closes the reported cycle. Simulated outcomes (which
//! cycle is found, hence which victim dies) therefore do not change.
//!
//! Searches from several starts over one unchanged graph may keep their
//! marks ([`CycleFinder::find_cycle_keeping_marks`]): a node an earlier
//! search finished without finding a cycle reaches no cycle and no node
//! on the current path, so a fresh search would explore it and find
//! nothing there. Skipping it returns the same cycle.

use g2pl_simcore::TxnId;

const ON_PATH: u8 = 1;
const DONE: u8 = 2;

#[derive(Clone, Copy)]
struct Frame {
    arena_start: usize,
    arena_end: usize,
    child: usize,
}

/// An allocation-reusing DFS cycle finder over `TxnId` graphs.
#[derive(Default)]
pub(crate) struct CycleFinder {
    /// DFS colour per txn index; only valid where `stamp` equals `epoch`.
    state: Vec<u8>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Nodes on the current DFS path, root first.
    path: Vec<TxnId>,
    /// One frame per path node: its successor range in `arena` and cursor.
    frames: Vec<Frame>,
    /// Concatenated successor lists of the nodes on the path.
    arena: Vec<TxnId>,
    /// Staging buffer handed to the `succ` callback.
    scratch: Vec<TxnId>,
}

impl CycleFinder {
    #[inline]
    fn color(&self, t: TxnId) -> u8 {
        let i = t.index();
        if i < self.state.len() && self.stamp[i] == self.epoch {
            self.state[i]
        } else {
            0
        }
    }

    #[inline]
    fn set_color(&mut self, t: TxnId, c: u8) {
        let i = t.index();
        if self.state.len() <= i {
            self.state.resize(i + 1, 0);
            self.stamp.resize(i + 1, 0);
        }
        self.state[i] = c;
        self.stamp[i] = self.epoch;
    }

    /// Push `node` onto the DFS path, expanding its successors into the
    /// arena via `succ` (called with an empty staging buffer; whatever it
    /// appends, in that order, becomes the successor list).
    fn push_node(&mut self, node: TxnId, succ: &mut impl FnMut(TxnId, &mut Vec<TxnId>)) {
        self.set_color(node, ON_PATH);
        self.path.push(node);
        self.scratch.clear();
        succ(node, &mut self.scratch);
        let arena_start = self.arena.len();
        self.arena.extend_from_slice(&self.scratch);
        self.frames.push(Frame {
            arena_start,
            arena_end: self.arena.len(),
            child: arena_start,
        });
    }

    /// Drop every mark of earlier searches.
    pub(crate) fn forget(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The stamp space wrapped: old marks could alias the new
            // epoch, so clear them once and restart from epoch 1.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Search for a cycle reachable from `start`. Returns the cycle as a
    /// path slice (entry node first) or `None`. The slice borrows the
    /// finder's internal buffer and is only valid until the next call.
    pub(crate) fn find_cycle(
        &mut self,
        start: TxnId,
        succ: impl FnMut(TxnId, &mut Vec<TxnId>),
    ) -> Option<&[TxnId]> {
        self.forget();
        self.find_cycle_keeping_marks(start, succ)
    }

    /// [`find_cycle`](Self::find_cycle) without forgetting what the
    /// searches since the last [`forget`](Self::forget) finished: those
    /// nodes are not expanded again. Valid only while the graph is the
    /// one those searches saw and none of them found a cycle; call
    /// `forget` once the graph changes.
    pub(crate) fn find_cycle_keeping_marks(
        &mut self,
        start: TxnId,
        mut succ: impl FnMut(TxnId, &mut Vec<TxnId>),
    ) -> Option<&[TxnId]> {
        self.path.clear();
        self.frames.clear();
        self.arena.clear();
        if self.color(start) == DONE {
            return None;
        }
        self.push_node(start, &mut succ);
        loop {
            let top = self.frames.len().checked_sub(1)?;
            let f = self.frames[top];
            if f.child < f.arena_end {
                self.frames[top].child += 1;
                let next = self.arena[f.child];
                match self.color(next) {
                    ON_PATH => {
                        let pos = self
                            .path
                            .iter()
                            .position(|&t| t == next)
                            // lint:allow(L3): ON_PATH means next is on the path
                            .expect("on-path node is on path");
                        return Some(&self.path[pos..]);
                    }
                    DONE => {}
                    _ => self.push_node(next, &mut succ),
                }
            } else {
                // lint:allow(L3): frames and path push/pop in lockstep
                let node = self.path.pop().expect("path tracks frames");
                self.set_color(node, DONE);
                self.frames.pop();
                self.arena.truncate(f.arena_start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    fn graph(edges: &[(u32, u32)]) -> impl Fn(TxnId, &mut Vec<TxnId>) + '_ {
        move |n, out| {
            out.extend(
                edges
                    .iter()
                    .filter(|&&(a, _)| t(a) == n)
                    .map(|&(_, b)| t(b)),
            );
        }
    }

    #[test]
    fn finds_self_loop() {
        let mut f = CycleFinder::default();
        let g = graph(&[(1, 1)]);
        assert_eq!(f.find_cycle(t(1), g), Some(&[t(1)][..]));
    }

    #[test]
    fn finds_two_cycle_from_either_end() {
        let edges = [(1, 2), (2, 1)];
        let mut f = CycleFinder::default();
        assert_eq!(f.find_cycle(t(1), graph(&edges)), Some(&[t(1), t(2)][..]));
        assert_eq!(f.find_cycle(t(2), graph(&edges)), Some(&[t(2), t(1)][..]));
    }

    #[test]
    fn reports_only_the_cycle_not_the_tail() {
        // 5 -> 6 -> 7 -> 6: the cycle excludes the entry tail.
        let edges = [(5, 6), (6, 7), (7, 6)];
        let mut f = CycleFinder::default();
        assert_eq!(f.find_cycle(t(5), graph(&edges)), Some(&[t(6), t(7)][..]));
    }

    #[test]
    fn acyclic_graph_finds_nothing() {
        let edges = [(1, 2), (1, 3), (2, 3), (3, 4)];
        let mut f = CycleFinder::default();
        assert_eq!(f.find_cycle(t(1), graph(&edges)), None);
    }

    #[test]
    fn finder_state_resets_between_searches() {
        let mut f = CycleFinder::default();
        let acyclic = [(1, 2), (2, 3)];
        assert_eq!(f.find_cycle(t(1), graph(&acyclic)), None);
        // A later search over different edges must not see stale marks.
        let cyclic = [(1, 2), (2, 3), (3, 1)];
        assert_eq!(
            f.find_cycle(t(1), graph(&cyclic)),
            Some(&[t(1), t(2), t(3)][..])
        );
        assert_eq!(f.find_cycle(t(9), graph(&cyclic)), None);
    }

    #[test]
    fn kept_marks_find_the_same_cycle_as_a_fresh_search() {
        // 1 and 4 reach only the acyclic part {2, 3, 5}; 6 reaches it
        // too before it reaches the cycle 7 -> 8 -> 7.
        let edges = [
            (1, 2),
            (2, 3),
            (3, 5),
            (4, 3),
            (6, 3),
            (6, 7),
            (7, 8),
            (8, 7),
        ];
        let mut kept = CycleFinder::default();
        for s in [1, 4, 6] {
            let got = kept
                .find_cycle_keeping_marks(t(s), graph(&edges))
                .map(<[TxnId]>::to_vec);
            let fresh = CycleFinder::default()
                .find_cycle(t(s), graph(&edges))
                .map(<[TxnId]>::to_vec);
            assert_eq!(got, fresh, "start {s}");
        }
        assert_eq!(
            CycleFinder::default().find_cycle(t(6), graph(&edges)),
            Some(&[t(7), t(8)][..])
        );
    }

    #[test]
    fn kept_marks_skip_finished_nodes_until_forget() {
        let mut f = CycleFinder::default();
        let expanded = std::cell::RefCell::new(Vec::new());
        let acyclic = [(1, 2), (2, 3)];
        let counting = |n: TxnId, out: &mut Vec<TxnId>| {
            expanded.borrow_mut().push(n);
            graph(&acyclic)(n, out);
        };
        assert_eq!(f.find_cycle(t(1), counting), None);
        assert_eq!(f.find_cycle_keeping_marks(t(2), counting), None);
        assert_eq!(
            *expanded.borrow(),
            [t(1), t(2), t(3)],
            "2 was finished by the first search"
        );
        // After `forget` the same graph is explored again, and a changed
        // graph is seen as it is.
        f.forget();
        assert_eq!(f.find_cycle_keeping_marks(t(2), counting), None);
        assert_eq!(*expanded.borrow(), [t(1), t(2), t(3), t(2), t(3)]);
        f.forget();
        let cyclic = [(2, 3), (3, 2)];
        assert_eq!(
            f.find_cycle_keeping_marks(t(2), graph(&cyclic)),
            Some(&[t(2), t(3)][..])
        );
    }

    #[test]
    fn successor_order_decides_which_cycle_is_found() {
        // Two cycles from 1; the one through the first-listed successor
        // must win, matching the engines' historical search order.
        let edges = [(1, 2), (1, 3), (2, 1), (3, 1)];
        let mut f = CycleFinder::default();
        assert_eq!(f.find_cycle(t(1), graph(&edges)), Some(&[t(1), t(2)][..]));
    }
}
