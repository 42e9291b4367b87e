//! Forward lists and their segment structure.

use g2pl_lockmgr::LockMode;
use g2pl_simcore::{ClientId, TxnId};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One entry of a forward list: a transaction at a client that will
/// receive the data item in the given mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlEntry {
    /// The transaction that requested the item.
    pub txn: TxnId,
    /// The client site the transaction runs at.
    pub client: ClientId,
    /// Shared (read) or exclusive (write) access.
    pub mode: LockMode,
}

impl FlEntry {
    /// Convenience constructor.
    pub fn new(txn: TxnId, client: ClientId, mode: LockMode) -> Self {
        FlEntry { txn, client, mode }
    }
}

/// A maximal run of the forward list that executes "together": either a
/// group of readers that all hold the item concurrently, or one writer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Segment {
    /// Index range of a maximal contiguous run of readers.
    Readers(Range<usize>),
    /// Index of a single writer.
    Writer(usize),
}

impl Segment {
    /// Index range covered by the segment.
    pub fn range(&self) -> Range<usize> {
        match self {
            Segment::Readers(r) => r.clone(),
            Segment::Writer(i) => *i..*i + 1,
        }
    }

    /// Index just past the segment.
    pub fn end(&self) -> usize {
        self.range().end
    }
}

/// An ordered forward list for one data item (§3.2): "a list with
/// appropriate markers to delimit the parallel shared accesses and the
/// serial exclusive access."
///
/// The list structure is pure data; the migration *protocol* interpreting
/// it lives in `g2pl-protocols`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForwardList {
    entries: Vec<FlEntry>,
}

impl ForwardList {
    /// An empty forward list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from entries in dispatch order.
    pub fn from_entries(entries: Vec<FlEntry>) -> Self {
        ForwardList { entries }
    }

    /// Append an entry at the tail.
    pub fn push(&mut self, e: FlEntry) {
        self.entries.push(e);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry at `idx`.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn entry(&self, idx: usize) -> FlEntry {
        self.entries[idx]
    }

    /// All entries in order.
    pub fn entries(&self) -> &[FlEntry] {
        &self.entries
    }

    /// Position of `txn` in the list.
    pub fn position_of(&self, txn: TxnId) -> Option<usize> {
        self.entries.iter().position(|e| e.txn == txn)
    }

    /// The segment starting at `start` (which must be a segment boundary:
    /// either 0, or just past a writer, or just past a reader group).
    ///
    /// Returns `None` when `start` is past the end of the list.
    pub fn segment_at(&self, start: usize) -> Option<Segment> {
        if start >= self.entries.len() {
            return None;
        }
        if self.entries[start].mode.is_exclusive() {
            return Some(Segment::Writer(start));
        }
        let mut end = start;
        while end < self.entries.len() && self.entries[end].mode.is_shared() {
            end += 1;
        }
        Some(Segment::Readers(start..end))
    }

    /// The segment *containing* index `idx`.
    pub fn segment_of(&self, idx: usize) -> Segment {
        assert!(idx < self.entries.len(), "index {idx} out of range");
        if self.entries[idx].mode.is_exclusive() {
            return Segment::Writer(idx);
        }
        let mut start = idx;
        while start > 0 && self.entries[start - 1].mode.is_shared() {
            start -= 1;
        }
        // lint:allow(L3): caller-checked index; segment_at(start) <= idx always exists
        self.segment_at(start).expect("idx is in range")
    }

    /// Index of the first writer at or after `idx`, if any.
    pub fn next_writer_at_or_after(&self, idx: usize) -> Option<usize> {
        (idx..self.entries.len()).find(|&i| self.entries[i].mode.is_exclusive())
    }

    /// Iterate over all segments in order.
    pub fn segments(&self) -> SegmentIter<'_> {
        SegmentIter { list: self, at: 0 }
    }
}

/// Iterator over the segments of a forward list.
pub struct SegmentIter<'a> {
    list: &'a ForwardList,
    at: usize,
}

impl Iterator for SegmentIter<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        let seg = self.list.segment_at(self.at)?;
        self.at = seg.end();
        Some(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::{Exclusive, Shared};

    fn e(t: u32, mode: LockMode) -> FlEntry {
        FlEntry::new(TxnId::new(t), ClientId::new(t), mode)
    }

    fn rwlist() -> ForwardList {
        // [R0 R1] W2 [R3] W4 W5 [R6 R7 R8]
        ForwardList::from_entries(vec![
            e(0, Shared),
            e(1, Shared),
            e(2, Exclusive),
            e(3, Shared),
            e(4, Exclusive),
            e(5, Exclusive),
            e(6, Shared),
            e(7, Shared),
            e(8, Shared),
        ])
    }

    #[test]
    fn segments_partition_the_list() {
        let fl = rwlist();
        let segs: Vec<Segment> = fl.segments().collect();
        assert_eq!(
            segs,
            vec![
                Segment::Readers(0..2),
                Segment::Writer(2),
                Segment::Readers(3..4),
                Segment::Writer(4),
                Segment::Writer(5),
                Segment::Readers(6..9),
            ]
        );
        // The segments tile the index space exactly.
        let covered: usize = segs.iter().map(|s| s.range().len()).sum();
        assert_eq!(covered, fl.len());
    }

    #[test]
    fn segment_of_finds_containing_group() {
        let fl = rwlist();
        assert_eq!(fl.segment_of(0), Segment::Readers(0..2));
        assert_eq!(fl.segment_of(1), Segment::Readers(0..2));
        assert_eq!(fl.segment_of(2), Segment::Writer(2));
        assert_eq!(fl.segment_of(7), Segment::Readers(6..9));
    }

    #[test]
    fn next_writer_lookup() {
        let fl = rwlist();
        assert_eq!(fl.next_writer_at_or_after(0), Some(2));
        assert_eq!(fl.next_writer_at_or_after(3), Some(4));
        assert_eq!(fl.next_writer_at_or_after(5), Some(5));
        assert_eq!(fl.next_writer_at_or_after(6), None);
    }

    #[test]
    fn empty_list_has_no_segments() {
        let fl = ForwardList::new();
        assert!(fl.segments().next().is_none());
        assert_eq!(fl.segments().count(), 0);
        assert!(fl.is_empty());
    }

    #[test]
    fn single_writer_list() {
        let fl = ForwardList::from_entries(vec![e(0, Exclusive)]);
        assert_eq!(fl.segments().next(), Some(Segment::Writer(0)));
        assert_eq!(fl.segments().count(), 1);
    }

    #[test]
    fn position_of_txn() {
        let fl = rwlist();
        assert_eq!(fl.position_of(TxnId::new(4)), Some(4));
        assert_eq!(fl.position_of(TxnId::new(99)), None);
    }

    #[test]
    fn segment_range_accessors() {
        assert_eq!(Segment::Writer(3).range(), 3..4);
        assert_eq!(Segment::Readers(1..4).end(), 4);
    }
}
