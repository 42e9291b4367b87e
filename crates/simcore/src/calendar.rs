//! The event calendar: a deterministic future-event list.
//!
//! A [`Calendar`] pops events in `(time, seq)` order, where `seq` is a
//! monotonically increasing insertion counter. Two events scheduled for
//! the same instant therefore pop in the order they were scheduled, which
//! makes whole simulation runs reproducible bit-for-bit from a seed — a
//! property every determinism test in the workspace relies on.
//!
//! # Layout
//!
//! The priority queue is a binary min-heap of packed 16-byte keys,
//!
//! ```text
//!   bits 127..64   bits 63..24   bits 23..0
//!   time           seq           slot
//! ```
//!
//! and the events themselves live in a slot arena (`Vec<Option<E>>`)
//! whose vacated slots are recycled through a free list. A heap level
//! moves one `u128`, never an event; an event is written once when it is
//! scheduled and moved once when it pops. Because `seq` is unique, no two
//! keys share their `(time, seq)` prefix, so the slot bits never decide a
//! comparison and the pop order is exactly `(time, seq)`.
//!
//! # Cancellation
//!
//! [`Calendar::cancel`] takes the event out of its slot and leaves the
//! key in the heap as a tombstone, which `pop` and `next_time` discard
//! when it reaches the top. An [`EventHandle`] is the event's key, and a
//! handle is still pending exactly when its key is above the last popped
//! key and its slot is occupied:
//!
//! * every key scheduled after a pop lies above the popped key (its time
//!   is not earlier and its `seq` is larger), so popped keys rise, a
//!   fired event's key is never above the last popped key, and a pending
//!   one's always is;
//! * a slot is freed only by its own event's pop, or for a tombstone once
//!   the last popped key has passed the tombstone's key. `next_time` may
//!   discard a tombstone ahead of the clock, and an event scheduled later
//!   can sort below it; until a pop passes the tombstone its slot stays
//!   empty, so its handle cannot reach an event that reuses the slot.
//!
//! Cancelling a fired or already-cancelled event is therefore a no-op,
//! and `len()` stays exact.
//!
//! # Bounds
//!
//! The arena holds one slot per unpopped entry (pending event, queued
//! tombstone, or discarded tombstone the clock has not passed) at the
//! calendar's peak, and the heap and the free list hold no more. Its
//! memory follows its depth, not the number of events it has ever
//! scheduled. `seq` has 40 bits and `slot` 24: scheduling the 2^40-th
//! event, or an event while 2^24 entries are unpopped, panics.

use crate::time::SimTime;

/// Opaque handle to a scheduled event, used to cancel it: the event's
/// heap key.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct EventHandle(u128);

/// Bits of a key's slot field.
const SLOT_BITS: u32 = 24;
/// Bits of a key's `seq` field.
const SEQ_BITS: u32 = 64 - SLOT_BITS;

/// The heap key of the event with sequence number `seq` in arena slot
/// `slot`, due at `time`.
///
/// # Panics
/// Panics when `seq` or `slot` does not fit its field: a wrapped field
/// would silently reorder or misfile events.
#[inline]
fn pack(time: SimTime, seq: u64, slot: usize) -> u128 {
    assert!(
        seq < 1 << SEQ_BITS,
        "calendar: sequence number {seq} does not fit in {SEQ_BITS} bits"
    );
    assert!(
        slot < 1 << SLOT_BITS,
        "calendar: slot {slot} does not fit in {SLOT_BITS} bits (too many unpopped events)"
    );
    u128::from(time.units()) << 64 | u128::from(seq << SLOT_BITS | slot as u64)
}

/// The time of a key.
#[inline]
fn time_of(key: u128) -> SimTime {
    SimTime::new((key >> 64) as u64)
}

/// The arena slot of a key.
#[inline]
fn slot_of(key: u128) -> usize {
    (key as usize) & ((1 << SLOT_BITS) - 1)
}

/// Deterministic future-event list.
///
/// `E` is the simulation's event type; the calendar never interprets it.
///
/// # Example
/// ```
/// use g2pl_simcore::{Calendar, SimTime};
///
/// let mut cal: Calendar<&str> = Calendar::new();
/// cal.schedule(SimTime::new(5), "b");
/// cal.schedule(SimTime::new(3), "a");
/// cal.schedule(SimTime::new(5), "c"); // same instant as "b": FIFO
///
/// assert_eq!(cal.pop(), Some((SimTime::new(3), "a")));
/// assert_eq!(cal.pop(), Some((SimTime::new(5), "b")));
/// assert_eq!(cal.pop(), Some((SimTime::new(5), "c")));
/// assert_eq!(cal.pop(), None);
/// ```
pub struct Calendar<E> {
    /// Binary min-heap of packed keys, pending and tombstoned.
    heap: Vec<u128>,
    /// The event of each slot; `None` once it fired or was cancelled,
    /// and while the slot is free.
    events: Vec<Option<E>>,
    /// Slots free for reuse.
    free: Vec<u32>,
    /// Keys of tombstones taken off the heap whose slot stays reserved
    /// until `last` passes them.
    discarded: Vec<u128>,
    /// Key of the event `pop` returned last; 0, below every key, before
    /// the first pop. Its time is the clock.
    last: u128,
    /// The next event's `seq`; it starts at 1 so that no key is 0.
    next_seq: u64,
    /// Exact number of scheduled, not-yet-fired, not-cancelled events.
    live: usize,
    /// High-water mark of `live` over the calendar's lifetime.
    peak_live: usize,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        Calendar {
            heap: Vec::new(),
            events: Vec::new(),
            free: Vec::new(),
            discarded: Vec::new(),
            last: 0,
            next_seq: 1,
            live: 0,
            peak_live: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        time_of(self.last)
    }

    /// Number of live (non-cancelled, not-yet-fired) scheduled events.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Largest number of events that were simultaneously pending.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak_live
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (`at < now()`): a simulator that
    /// schedules into the past has corrupted causality. Panics on the
    /// 2^40-th event, or while 2^24 entries are unpopped.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now(),
            "scheduling into the past: at={at:?} now={:?}",
            self.now()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let slot = slot as usize;
                self.events[slot] = Some(event);
                slot
            }
            None => {
                self.events.push(Some(event));
                self.events.len() - 1
            }
        };
        let key = pack(at, seq, slot);
        self.push_key(key);
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        EventHandle(key)
    }

    /// Schedule `event` a relative delay `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) -> EventHandle {
        self.schedule(self.now().after(delay), event)
    }

    /// Cancel a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a silent no-op, which is
    /// the convenient semantics for timers raced by message arrivals.
    pub fn cancel(&mut self, EventHandle(key): EventHandle) {
        if key > self.last
            && self
                .events
                .get_mut(slot_of(key))
                .and_then(Option::take)
                .is_some()
        {
            self.live -= 1;
        }
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(key) = self.pop_key() {
            let slot = slot_of(key);
            let Some(event) = self.events[slot].take() else {
                self.discarded.push(key);
                continue;
            };
            debug_assert!(key > self.last, "calendar time went backwards");
            self.last = key;
            self.free.push(slot as u32);
            self.live -= 1;
            if !self.discarded.is_empty() {
                self.free_passed_tombstones();
            }
            return Some((time_of(key), event));
        }
        None
    }

    /// Peek at the timestamp of the next live event without popping it.
    pub fn next_time(&mut self) -> Option<SimTime> {
        // Discard tombstones from the top so the peek is accurate.
        while let Some(&key) = self.heap.first() {
            if self.events[slot_of(key)].is_some() {
                return Some(time_of(key));
            }
            self.pop_key();
            self.discarded.push(key);
        }
        None
    }

    /// Free the slots of discarded tombstones below the last popped key:
    /// no pending handle can name them any more.
    fn free_passed_tombstones(&mut self) {
        let (last, free) = (self.last, &mut self.free);
        self.discarded.retain(|&key| {
            let passed = key < last;
            if passed {
                free.push(slot_of(key) as u32);
            }
            !passed
        });
    }

    /// Add `key` to the heap, sifting it up from the bottom.
    #[inline]
    fn push_key(&mut self, key: u128) {
        let heap = &mut self.heap;
        let mut i = heap.len();
        heap.push(key);
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[parent] < key {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = key;
    }

    /// Remove the smallest key: the heap's tail key takes the root's
    /// place and sifts down, stopping at the first level where it is
    /// smaller than the smaller child. Which child is smaller is a coin
    /// flip no branch predictor learns, so it is picked by arithmetic,
    /// not a branch.
    #[inline]
    fn pop_key(&mut self) -> Option<u128> {
        let heap = &mut self.heap;
        let tail = heap.pop()?;
        let Some(&top) = heap.first() else {
            return Some(tail);
        };
        let n = heap.len();
        let (mut i, mut child) = (0, 1);
        while child + 1 < n {
            child += usize::from(heap[child + 1] < heap[child]);
            if tail < heap[child] {
                break;
            }
            heap[i] = heap[child];
            i = child;
            child = 2 * i + 1;
        }
        // A last level with only a left child.
        if child + 1 == n && heap[child] < tail {
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = tail;
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(10), 1u32);
        cal.schedule(SimTime::new(5), 2);
        cal.schedule(SimTime::new(10), 3);
        cal.schedule(SimTime::new(5), 4);
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(7), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime::new(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(5), ());
        cal.pop();
        cal.schedule(SimTime::new(3), ());
    }

    #[test]
    fn cancel_skips_event() {
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime::new(1), "a");
        cal.schedule(SimTime::new(2), "b");
        cal.cancel(h);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop(), Some((SimTime::new(2), "b")));
        assert!(cal.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime::new(1), "a");
        assert_eq!(cal.pop(), Some((SimTime::new(1), "a")));
        cal.cancel(h); // already fired
        cal.schedule(SimTime::new(2), "b");
        assert_eq!(cal.pop(), Some((SimTime::new(2), "b")));
    }

    #[test]
    fn cancel_after_fire_keeps_len_exact() {
        // Regression: cancelling a fired event used to insert a stale
        // tombstone, making `len()` undercount and eventually underflow.
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime::new(1), "a");
        assert_eq!(cal.pop(), Some((SimTime::new(1), "a")));
        assert!(cal.is_empty());
        cal.cancel(h); // already fired: must not change accounting
        assert_eq!(cal.len(), 0);
        assert!(cal.is_empty());
        cal.schedule(SimTime::new(2), "b");
        assert_eq!(cal.len(), 1);
        assert!(!cal.is_empty());
        assert_eq!(cal.pop(), Some((SimTime::new(2), "b")));
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime::new(1), "a");
        cal.cancel(h);
        cal.cancel(h);
        assert!(cal.is_empty());
        assert!(cal.pop().is_none());
    }

    #[test]
    fn double_cancel_keeps_len_exact() {
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime::new(1), "a");
        cal.schedule(SimTime::new(2), "b");
        cal.cancel(h);
        cal.cancel(h);
        assert_eq!(cal.len(), 1);
    }

    #[test]
    fn stale_handles_leave_a_recycled_slot_alone() {
        // "a" fires and "b" is cancelled, then discarded by `next_time`
        // ahead of the clock. "c" takes a's slot and "d" sorts below the
        // discarded "b": neither old handle may reach a new event, and
        // "d" stays cancellable. Once a pop passes "b", its slot returns
        // to use and "f" takes it; "b" stays dead.
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::new(1), "a");
        let b = cal.schedule(SimTime::new(9), "b");
        assert_eq!(cal.pop(), Some((SimTime::new(1), "a")));
        cal.cancel(b);
        assert_eq!(cal.next_time(), None);
        cal.schedule(SimTime::new(4), "c");
        let d = cal.schedule(SimTime::new(3), "d");
        cal.cancel(a);
        cal.cancel(b);
        assert_eq!(cal.len(), 2);
        cal.cancel(d);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop(), Some((SimTime::new(4), "c")));
        cal.schedule(SimTime::new(10), "e");
        assert_eq!(cal.pop(), Some((SimTime::new(10), "e")));
        cal.schedule(SimTime::new(11), "f");
        cal.schedule(SimTime::new(12), "g");
        assert_eq!(cal.events.len(), 3, "f and g reuse slots");
        cal.cancel(b);
        assert_eq!(cal.len(), 2);
        assert_eq!(cal.pop(), Some((SimTime::new(11), "f")));
        assert_eq!(cal.pop(), Some((SimTime::new(12), "g")));
    }

    #[test]
    fn next_time_peeks_past_cancellations() {
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime::new(1), "a");
        cal.schedule(SimTime::new(9), "b");
        cal.cancel(h);
        assert_eq!(cal.next_time(), Some(SimTime::new(9)));
        assert_eq!(cal.pop(), Some((SimTime::new(9), "b")));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(4), 0u8);
        cal.pop();
        cal.schedule_in(SimTime::new(3), 1u8);
        assert_eq!(cal.pop(), Some((SimTime::new(7), 1u8)));
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut cal = Calendar::new();
        assert_eq!(cal.peak_len(), 0);
        let a = cal.schedule(SimTime::new(1), "a");
        cal.schedule(SimTime::new(2), "b");
        cal.schedule(SimTime::new(3), "c");
        assert_eq!(cal.peak_len(), 3);
        cal.cancel(a);
        cal.pop();
        assert_eq!(cal.len(), 1);
        // Peak is a lifetime high-water mark, not the current size.
        assert_eq!(cal.peak_len(), 3);
        cal.schedule(SimTime::new(9), "d");
        assert_eq!(cal.peak_len(), 3);
    }

    #[test]
    fn memory_follows_depth_not_history() {
        // Hold model at depth 64: pop the earliest event, schedule its
        // successor, and every 8th step schedule a timer and cancel it.
        // Every slot is queued (pending or tombstone), discarded but not
        // yet passed, or free, and the arena never outgrows the peak
        // count of the first two.
        const DEPTH: u64 = 64;
        let mut cal = Calendar::new();
        let mut rng = crate::RngStream::new(7);
        for i in 0..DEPTH {
            cal.schedule(SimTime::new(rng.uniform_incl(1, 2 * DEPTH)), i);
        }
        let mut peak_unpopped = cal.heap.len();
        for step in 1..=1_000_000u64 {
            let (now, ev) = cal.pop().expect("the calendar stays DEPTH deep");
            let d = rng.uniform_incl(1, 2 * DEPTH);
            cal.schedule(now.after(SimTime::new(d)), ev);
            if step % 8 == 0 {
                let timer = cal.schedule(now.after(SimTime::new(d + 1)), ev);
                cal.cancel(timer);
            }
            peak_unpopped = peak_unpopped.max(cal.heap.len() + cal.discarded.len());
            assert_eq!(cal.len() as u64, DEPTH);
            assert!(cal.events.len() <= peak_unpopped, "arena outgrew the peak");
            assert!(cal.heap.len() <= peak_unpopped, "heap outgrew the peak");
            assert!(
                cal.free.len() <= peak_unpopped,
                "free list outgrew the peak"
            );
            assert_eq!(
                cal.events.len(),
                cal.heap.len() + cal.discarded.len() + cal.free.len()
            );
        }
        // A tombstone outlives its cancel by at most 2 * DEPTH + 1 time
        // units, about as many steps at this depth: a few dozen at once.
        assert!(
            peak_unpopped < 2 * DEPTH as usize,
            "{peak_unpopped} unpopped"
        );
    }

    #[test]
    fn keys_pack_at_their_field_bounds() {
        let (max_seq, max_slot) = ((1 << SEQ_BITS) - 1, (1 << SLOT_BITS) - 1);
        let key = pack(SimTime::MAX, max_seq, max_slot);
        assert_eq!(key, u128::MAX);
        assert_eq!(time_of(key), SimTime::MAX);
        assert_eq!(slot_of(key), max_slot);
        assert_eq!(key as u64 >> SLOT_BITS, max_seq);
        // `seq` orders keys of one instant; the slot never does.
        let t = SimTime::new(5);
        assert!(pack(t, max_seq - 1, max_slot) < pack(t, max_seq, 0));
        assert!(pack(t, max_seq, max_slot) < pack(SimTime::new(6), 0, 0));
        assert_eq!(slot_of(pack(t, 3, max_slot)), max_slot);
        assert_eq!(pack(t, 3, 0) as u64 >> SLOT_BITS, 3);
    }

    #[test]
    #[should_panic(expected = "sequence number 1099511627776 does not fit in 40 bits")]
    fn seq_past_its_field_panics() {
        pack(SimTime::ZERO, 1 << SEQ_BITS, 0);
    }

    #[test]
    #[should_panic(expected = "slot 16777216 does not fit in 24 bits")]
    fn slot_past_its_field_panics() {
        pack(SimTime::ZERO, 0, 1 << SLOT_BITS);
    }
}
