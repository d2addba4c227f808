//! The discrete-event core: a time-ordered queue with FIFO tie-breaking.
//!
//! Determinism matters more than raw speed here: two events scheduled for the
//! same instant are delivered in scheduling order, so a simulation is a pure
//! function of its configuration and seed.
//!
//! [`EventQueue`] is a **calendar queue**: the near future is a ring of
//! fixed-width time buckets drained in order, and everything beyond the
//! ring's horizon waits in a conventional binary-heap overflow. Scheduling
//! into the ring is O(1); popping sorts each bucket once when the clock
//! reaches it and then drains it back-to-front. The pop order is *exactly*
//! the `(time, seq)` order of the old pure-heap implementation — that
//! implementation survives as [`BaselineEventQueue`], the reference the
//! differential property test (`tests/event_queue_equivalence.rs`) compares
//! against.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we pop the *earliest* event;
        // ties break FIFO by sequence number.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One scheduled event inside a calendar bucket.
struct Slot<E> {
    t: u64,
    seq: u64,
    event: E,
}

/// Number of buckets in the calendar ring.
const RING: usize = 4096;
/// Width of one bucket in nanoseconds (a power of two so the bucket index
/// is a shift). The ring spans `RING × WIDTH` ≈ 0.5 ms — wide enough for
/// every per-message protocol latency in the machine model; coarser spans
/// (retransmission timeouts, membership ticks, long compute blocks) live in
/// the overflow heap and migrate in when the clock approaches them.
const WIDTH: u64 = 128;
/// Bitmap words covering the ring (64 buckets per word).
const WORDS: usize = RING / 64;
/// Sentinel for "no bucket is currently being drained".
const NO_BUCKET: usize = usize::MAX;

/// A deterministic future-event list.
///
/// ```
/// use vt_simnet::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(3), "late");
/// q.schedule(SimTime::from_micros(1), "early");
/// q.schedule(SimTime::from_micros(1), "early-second");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.now(), SimTime::from_micros(1));
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Calendar ring: bucket `i` holds events with
    /// `time / WIDTH == base + i`. Buckets are append-order until the clock
    /// reaches them, then sorted *descending* by `(time, seq)` so draining
    /// pops earliest-first off the back in O(1).
    buckets: Vec<Vec<Slot<E>>>,
    /// Occupancy bitmap over the ring plus a one-word summary, so the next
    /// non-empty bucket is found in O(1) regardless of sparsity.
    occ: [u64; WORDS],
    occ_sum: u64,
    /// `base * WIDTH` is the time of bucket 0; the ring covers
    /// `[base * WIDTH, (base + RING) * WIDTH)`.
    base: u64,
    /// Scan floor: no bucket below `cur` is occupied.
    cur: usize,
    /// The bucket currently being drained (sorted descending), or
    /// [`NO_BUCKET`].
    drain: usize,
    /// Events resident in the ring.
    ring_len: usize,
    /// Events at or beyond the ring horizon, in the legacy heap order.
    overflow: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..RING).map(|_| Vec::new()).collect(),
            occ: [0; WORDS],
            occ_sum: 0,
            base: 0,
            cur: 0,
            drain: NO_BUCKET,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past — causality violations are always
    /// bugs in the caller.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        if self.ring_len == 0 && self.overflow.is_empty() {
            // Empty queue: re-anchor the ring at the clock so the new event
            // lands as close to bucket 0 as possible.
            self.base = self.now.as_nanos() / WIDTH;
            self.cur = 0;
            self.drain = NO_BUCKET;
        }
        let t = at.as_nanos();
        let vb = t / WIDTH;
        if vb >= self.base + RING as u64 {
            self.overflow.push(Entry { at, seq, event });
            return;
        }
        // `at >= now` and the ring is anchored at or below `now`'s bucket,
        // so the index cannot underflow.
        let idx = (vb - self.base) as usize;
        let slot = Slot { t, seq, event };
        if idx == self.drain {
            // The clock is inside this bucket and it is sorted descending;
            // keep it sorted. The new seq is larger than every resident one,
            // so the slot goes directly after the strictly-later times.
            let pos = self.buckets[idx].partition_point(|s| s.t > t);
            self.buckets[idx].insert(pos, slot);
        } else {
            self.buckets[idx].push(slot);
        }
        self.occ[idx / 64] |= 1 << (idx % 64);
        self.occ_sum |= 1 << (idx / 64);
        self.ring_len += 1;
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// First occupied bucket at or after `from`, if any.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= RING {
            return None;
        }
        let (w0, b0) = (from / 64, from % 64);
        let masked = self.occ[w0] & (u64::MAX << b0);
        if masked != 0 {
            return Some(w0 * 64 + masked.trailing_zeros() as usize);
        }
        let sum = self.occ_sum & (u64::MAX << w0) & !(1 << w0);
        if sum == 0 {
            return None;
        }
        let w = sum.trailing_zeros() as usize;
        Some(w * 64 + self.occ[w].trailing_zeros() as usize)
    }

    /// Moves every overflow event inside the ring horizon into the ring,
    /// re-anchoring the ring at the earliest pending event. Only called
    /// with an empty ring and a non-empty overflow.
    fn migrate(&mut self) {
        debug_assert_eq!(self.ring_len, 0);
        let Some(head) = self.overflow.peek() else {
            return;
        };
        self.base = head.at.as_nanos() / WIDTH;
        self.cur = 0;
        self.drain = NO_BUCKET;
        // The horizon in buckets, not nanoseconds: `(base + RING) * WIDTH`
        // would wrap for a ring anchored within 0.5 ms of `u64::MAX` ns.
        let end = self.base + RING as u64;
        while let Some(head) = self.overflow.peek() {
            if head.at.as_nanos() / WIDTH >= end {
                break;
            }
            // Pop order is (time, seq) ascending; the bucket re-sorts on
            // first drain, so plain pushes preserve the total order.
            #[allow(clippy::expect_used)] // peek above proves non-empty
            let e = self.overflow.pop().expect("peeked entry");
            let t = e.at.as_nanos();
            let idx = (t / WIDTH - self.base) as usize;
            self.buckets[idx].push(Slot {
                t,
                seq: e.seq,
                event: e.event,
            });
            self.occ[idx / 64] |= 1 << (idx % 64);
            self.occ_sum |= 1 << (idx / 64);
            self.ring_len += 1;
        }
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.ring_len == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            self.migrate();
        }
        #[allow(clippy::expect_used)] // ring_len > 0 guarantees a bucket
        let idx = self.next_occupied(self.cur).expect("occupied bucket");
        self.cur = idx;
        if self.drain != idx {
            // First contact with this bucket: sort it descending so the
            // earliest (time, seq) sits at the back.
            self.buckets[idx].sort_unstable_by_key(|s| std::cmp::Reverse((s.t, s.seq)));
            self.drain = idx;
        }
        #[allow(clippy::expect_used)] // occupancy bit proves non-empty
        let slot = self.buckets[idx].pop().expect("occupied bucket slot");
        if self.buckets[idx].is_empty() {
            self.occ[idx / 64] &= !(1 << (idx % 64));
            if self.occ[idx / 64] == 0 {
                self.occ_sum &= !(1 << (idx / 64));
            }
            self.drain = NO_BUCKET;
        }
        self.ring_len -= 1;
        let at = SimTime::from_nanos(slot.t);
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        Some((at, slot.event))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.ring_len == 0 {
            return self.overflow.peek().map(|e| e.at);
        }
        let idx = self.next_occupied(self.cur)?;
        let b = &self.buckets[idx];
        if self.drain == idx {
            return b.last().map(|s| SimTime::from_nanos(s.t));
        }
        b.iter().map(|s| SimTime::from_nanos(s.t)).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

/// The original pure-`BinaryHeap` future-event list, kept as the ordering
/// oracle for [`EventQueue`]: the differential property test drives both
/// with identical schedule/pop interleavings and asserts identical pop
/// sequences. Not used by the simulator itself.
pub struct BaselineEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl<E> Default for BaselineEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BaselineEventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        BaselineEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.processed += 1;
        Some((entry.at, entry.event))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(10));
        q.schedule_in(SimTime::from_nanos(5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(15)));
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_nanos(15));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), "a");
        q.schedule(SimTime::from_nanos(100), "z");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_nanos(50), "m");
        assert_eq!(q.pop().unwrap().1, "m");
        assert_eq!(q.pop().unwrap().1, "z");
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_future_events_cross_the_ring_horizon() {
        // Events far beyond the ring live in the overflow heap and migrate
        // in when the clock approaches; order and FIFO ties survive.
        let mut q = EventQueue::new();
        let far = SimTime::from_millis(50);
        q.schedule(far, 1);
        q.schedule(far, 2);
        q.schedule(SimTime::from_nanos(3), 0);
        q.schedule(far + SimTime::from_millis(50), 3);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(q.now(), SimTime::from_millis(100));
    }

    #[test]
    fn same_instant_burst_into_the_drained_bucket_stays_fifo() {
        // Schedule into the very bucket being drained, at the current
        // instant: the new event must pop after everything already pending
        // at that time (FIFO by seq).
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.schedule(t, 2); // same instant, mid-drain
        q.schedule(t + SimTime::from_nanos(1), 3); // same bucket, later time
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn events_at_the_end_of_time_pop_in_order() {
        // A ring anchored within one horizon of `u64::MAX` ns must still
        // migrate and pop its events, in the oracle's order.
        let end = u64::MAX;
        let mut a = EventQueue::new();
        let mut b = BaselineEventQueue::new();
        let times = [
            end,
            end - 1,
            end - WIDTH,
            end,
            5,
            end - RING as u64 * WIDTH,
            end - 1,
        ];
        for (i, &t) in times.iter().enumerate() {
            a.schedule(SimTime::from_nanos(t), i);
            b.schedule(SimTime::from_nanos(t), i);
        }
        loop {
            let (x, y) = (a.pop(), b.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
            if x.map(|(at, _)| at.as_nanos()) == Some(end - 1) {
                a.schedule(SimTime::from_nanos(end), 99);
                b.schedule(SimTime::from_nanos(end), 99);
            }
        }
        assert_eq!(a.now(), SimTime::from_nanos(end));
        assert_eq!(a.processed(), b.processed());
    }

    #[test]
    fn baseline_queue_matches_on_a_mixed_schedule() {
        let mut a = EventQueue::new();
        let mut b = BaselineEventQueue::new();
        let times = [5u64, 5, 200_000, 13, 5, 700_000_000, 13, 42];
        for (i, &t) in times.iter().enumerate() {
            a.schedule(SimTime::from_nanos(t), i);
            b.schedule(SimTime::from_nanos(t), i);
        }
        loop {
            let (x, y) = (a.pop(), b.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
        assert_eq!(a.processed(), b.processed());
    }
}
