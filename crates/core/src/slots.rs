//! Dense table slots for the ids a checker reads.
//!
//! The engines number transactions and items densely from 0, so a
//! checker can keep its per-id state in a `Vec` indexed by the id. A
//! trace or history read from a file can name any `u32`, though, and a
//! table sized by such an id could be gigabytes for a two-event file.
//! [`Slots`] sizes every table from the input instead: ids index it
//! directly while the largest stays below a budget the caller derives
//! from the input's length, and otherwise the distinct ids are ranked,
//! keeping their order. Either way, slot order is id order, so a walk
//! over a table visits ids in the order a `BTreeMap` would.

/// Maps ids to table slots in id order.
pub(crate) enum Slots {
    /// The slot is the id; the table has this many slots.
    Direct(usize),
    /// The slot is the id's rank among these sorted, distinct ids.
    Ranked(Vec<u32>),
}

impl Slots {
    /// Slots for every id `ids()` yields: direct when the largest is
    /// below `budget`, ranked otherwise.
    pub(crate) fn new<I: Iterator<Item = u32>>(ids: impl Fn() -> I, budget: usize) -> Slots {
        match ids().max() {
            None => Slots::Direct(0),
            Some(max) if (max as usize) < budget => Slots::Direct(max as usize + 1),
            Some(_) => {
                let mut sorted: Vec<u32> = ids().collect();
                sorted.sort_unstable();
                sorted.dedup();
                Slots::Ranked(sorted)
            }
        }
    }

    /// Number of slots a table needs.
    pub(crate) fn len(&self) -> usize {
        match self {
            Slots::Direct(n) => *n,
            Slots::Ranked(ids) => ids.len(),
        }
    }

    /// The slot of `id`, which must be one of the ids the slots were
    /// built from.
    #[inline]
    pub(crate) fn slot(&self, id: u32) -> usize {
        match self {
            Slots::Direct(_) => id as usize,
            Slots::Ranked(ids) => match ids.binary_search(&id) {
                Ok(i) | Err(i) => i,
            },
        }
    }

    /// The id in `slot`.
    pub(crate) fn id(&self, slot: usize) -> u32 {
        match self {
            Slots::Direct(_) => slot as u32,
            Slots::Ranked(ids) => ids[slot],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ids_index_directly() {
        let ids = [3u32, 0, 7, 3];
        let s = Slots::new(|| ids.iter().copied(), 100);
        assert_eq!(s.len(), 8);
        assert_eq!(s.slot(7), 7);
        assert_eq!(s.id(3), 3);
    }

    #[test]
    fn sparse_ids_are_ranked_in_order() {
        let ids = [u32::MAX, 5, 5, 1 << 20];
        let s = Slots::new(|| ids.iter().copied(), 100);
        assert_eq!(s.len(), 3);
        assert_eq!(
            [5, 1 << 20, u32::MAX].map(|id| s.slot(id)),
            [0, 1, 2],
            "rank keeps id order"
        );
        assert_eq!(s.id(2), u32::MAX);
    }

    #[test]
    fn no_ids_need_no_slots() {
        let s = Slots::new(std::iter::empty, 100);
        assert_eq!(s.len(), 0);
    }
}
