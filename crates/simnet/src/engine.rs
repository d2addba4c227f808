//! The discrete-event core: a time-ordered queue with FIFO tie-breaking.
//!
//! Determinism matters more than raw speed here: two events scheduled for the
//! same instant are delivered in scheduling order, so a simulation is a pure
//! function of its configuration and seed.
//!
//! [`EventQueue`] is a **two-tier calendar queue**. The fine tier is a ring
//! of 4 096 buckets of 128 ns that spans exactly one coarse bucket of
//! 2¹⁹ ns ≈ 0.5 ms, the *epoch*. The coarse tier is 4 096 unsorted buckets
//! of 0.5 ms each, covering the next ≈ 2.1 s; when the fine ring runs dry,
//! the next non-empty coarse bucket is poured into it and becomes the
//! epoch. Only events more than ≈ 2.1 s ahead wait in a binary heap, and
//! they migrate into the tiers as the epoch advances. Every resting event
//! lives in one slab with a LIFO free list, linked into per-bucket lists,
//! so no bucket owns an allocation and pouring a coarse bucket relinks
//! nodes without moving them. The fine bucket the clock has reached moves
//! into one reused vector, sorted once on `(time, seq)`, and drains from
//! the back (a bucket of one event is popped straight from the slab).
//! Scheduling is O(1) except into the draining bucket, which stays
//! sorted. The pop order is *exactly* the `(time, seq)` order of the old
//! pure-heap implementation — that implementation survives as
//! [`BaselineEventQueue`], the reference the differential property test
//! (`tests/event_queue_equivalence.rs`) compares against.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
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

/// One scheduled event in the bucket being drained.
struct Slot<E> {
    t: u64,
    seq: u64,
    event: E,
}

/// Number of buckets in each tier.
const RING: usize = 4096;
/// Width of one fine bucket in nanoseconds (a power of two so the bucket
/// index is a shift).
const WIDTH: u64 = 128;
/// `log2(WIDTH)`.
const FINE_SHIFT: u32 = WIDTH.trailing_zeros();
/// `log2` of a coarse bucket's width, which is one whole fine ring:
/// `RING × WIDTH` = 2¹⁹ ns ≈ 0.5 ms, so the coarse tier spans
/// `RING` × 0.5 ms ≈ 2.1 s — past every protocol delay and timer the
/// simulator schedules.
const COARSE_SHIFT: u32 = FINE_SHIFT + RING.trailing_zeros();
/// Bitmap words covering a tier (64 buckets per word).
const WORDS: usize = RING / 64;
/// Sentinel for "no bucket is currently being drained".
const NO_BUCKET: usize = usize::MAX;
/// End of a slab list.
const NIL: u32 = u32::MAX;

/// Fine bucket of time `t` within its epoch.
#[inline]
fn fine_index(t: u64) -> usize {
    (t >> FINE_SHIFT) as usize % RING
}

/// Coarse bucket of coarse slot `c` (`c = t >> COARSE_SHIFT`).
#[inline]
fn coarse_index(c: u64) -> usize {
    (c % RING as u64) as usize
}

/// A resting event, linked into one tier bucket's list; a free node has
/// no event and links the free list.
struct Node<E> {
    t: u64,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// Storage of every resting event. Freed nodes are reused last-in first-out,
/// so the slab grows only to the peak number of resting events and reuse
/// stays in cache.
struct Slab<E> {
    nodes: Vec<Node<E>>,
    free: u32,
}

impl<E> Slab<E> {
    /// Stores an event in a node that links to `next`; returns its index.
    fn insert(&mut self, t: u64, seq: u64, event: E, next: u32) -> u32 {
        let node = Node {
            t,
            seq,
            next,
            event: Some(event),
        };
        if self.free == NIL {
            // A `u32` link addresses 4 G - 1 nodes: tens of GiB of events.
            #[allow(clippy::expect_used)]
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than u32::MAX resting events");
            self.nodes.push(node);
            i
        } else {
            let i = self.free;
            let slot = &mut self.nodes[i as usize];
            self.free = slot.next;
            *slot = node;
            i
        }
    }

    /// Frees node `i`; returns the node it linked to and its event.
    fn remove(&mut self, i: u32) -> (u32, Slot<E>) {
        let node = &mut self.nodes[i as usize];
        let next = node.next;
        node.next = self.free;
        self.free = i;
        // Only free-list nodes lack an event, and lists never reach them.
        #[allow(clippy::expect_used)]
        let event = node.event.take().expect("listed node holds an event");
        let slot = Slot {
            t: node.t,
            seq: node.seq,
            event,
        };
        (next, slot)
    }

    /// Earliest time on the list starting at `i`.
    fn min_time(&self, mut i: u32) -> Option<u64> {
        let mut min = None;
        while i != NIL {
            let node = &self.nodes[i as usize];
            min = Some(min.map_or(node.t, |m: u64| m.min(node.t)));
            i = node.next;
        }
        min
    }
}

/// One calendar tier: a slab list head per bucket, and an occupancy bitmap
/// with a one-word summary so the next non-empty bucket is found in O(1)
/// however sparse the tier is.
struct Tier {
    head: [u32; RING],
    occ: [u64; WORDS],
    sum: u64,
}

impl Tier {
    fn new() -> Box<Tier> {
        Box::new(Tier {
            head: [NIL; RING],
            occ: [0; WORDS],
            sum: 0,
        })
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.sum == 0
    }

    #[inline]
    fn mark(&mut self, idx: usize) {
        self.occ[idx / 64] |= 1 << (idx % 64);
        self.sum |= 1 << (idx / 64);
    }

    #[inline]
    fn unmark(&mut self, idx: usize) {
        self.occ[idx / 64] &= !(1 << (idx % 64));
        if self.occ[idx / 64] == 0 {
            self.sum &= !(1 << (idx / 64));
        }
    }

    /// Stores an event in the slab and links it into bucket `idx`.
    #[inline]
    fn push<E>(&mut self, slab: &mut Slab<E>, idx: usize, t: u64, seq: u64, event: E) {
        self.head[idx] = slab.insert(t, seq, event, self.head[idx]);
        self.mark(idx);
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
        let sum = self.sum & (u64::MAX << w0) & !(1 << w0);
        if sum == 0 {
            return None;
        }
        let w = sum.trailing_zeros() as usize;
        Some(w * 64 + self.occ[w].trailing_zeros() as usize)
    }
}

/// Where [`EventQueue::schedule`] filed each event: exact work counts of
/// the queue's three tiers. Every schedule counts once, in the tier it
/// landed in; later moves between tiers are not counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FelStats {
    /// Events filed into the fine ring: due within the current 0.5 ms
    /// epoch.
    pub ring: u64,
    /// Events filed into the coarse tier: due after the epoch but within
    /// about 2.1 s.
    pub coarse: u64,
    /// Events filed into the overflow heap: due more than about 2.1 s
    /// ahead.
    pub heap: u64,
}

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
    /// Every event resting in a tier.
    slab: Slab<E>,
    /// Fine ring over the epoch: bucket `i` holds the epoch's events with
    /// `fine_index(time) == i`, in no order.
    fine: Box<Tier>,
    /// Coarse tier: bucket `coarse_index(c)` holds the events of coarse
    /// slot `c`, for `epoch < c < epoch + RING`, in no order.
    coarse: Box<Tier>,
    /// The coarse slot (`time >> COARSE_SHIFT`) the fine ring spans. It
    /// equals the clock's slot except inside `pop`, so every schedule lands
    /// at or after it.
    epoch: u64,
    /// Scan floor: no fine bucket below `cur` is occupied.
    cur: usize,
    /// The fine bucket whose events sit in `drain`, or [`NO_BUCKET`]. Its
    /// slab list stays empty while its occupancy bit is set.
    drain_at: usize,
    /// The bucket being drained, sorted *descending* by `(time, seq)` so
    /// the earliest event pops off the back in O(1).
    drain: Vec<Slot<E>>,
    /// Events in coarse slots at or past `epoch + RING`, in the legacy
    /// heap order.
    overflow: BinaryHeap<Entry<E>>,
    /// Pending events across the tiers, the drain vector and the heap.
    len: usize,
    seq: u64,
    now: SimTime,
    processed: u64,
    stats: FelStats,
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
            slab: Slab {
                nodes: Vec::new(),
                free: NIL,
            },
            fine: Tier::new(),
            coarse: Tier::new(),
            epoch: 0,
            cur: 0,
            drain_at: NO_BUCKET,
            drain: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            stats: FelStats::default(),
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
        self.len += 1;
        let t = at.as_nanos();
        // `at >= now` and the clock sits in the epoch, so this cannot
        // underflow.
        if (t >> COARSE_SHIFT) - self.epoch >= RING as u64 {
            self.overflow.push(Entry { at, seq, event });
            self.stats.heap += 1;
        } else if self.file(t, seq, event) {
            self.stats.ring += 1;
        } else {
            self.stats.coarse += 1;
        }
    }

    /// Files an event due within the coarse horizon into the fine ring if
    /// it falls in the epoch (returning `true`), else into the coarse tier.
    #[inline]
    fn file(&mut self, t: u64, seq: u64, event: E) -> bool {
        let c = t >> COARSE_SHIFT;
        if c != self.epoch {
            self.coarse
                .push(&mut self.slab, coarse_index(c), t, seq, event);
            return false;
        }
        let idx = fine_index(t);
        if idx == self.drain_at {
            // The clock is inside this bucket and it is sorted descending;
            // keep it sorted. The new seq is larger than every resident one,
            // so the slot goes directly after the strictly-later times.
            let pos = self.drain.partition_point(|s| s.t > t);
            self.drain.insert(pos, Slot { t, seq, event });
        } else {
            self.fine.push(&mut self.slab, idx, t, seq, event);
        }
        true
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// The occupied coarse bucket nearest after the epoch, if any. The
    /// epoch's own coarse bucket is always empty, so a circular scan that
    /// starts just past it meets the buckets in time order.
    #[inline]
    fn next_coarse(&self) -> Option<usize> {
        let from = coarse_index(self.epoch + 1);
        self.coarse
            .next_occupied(from)
            .or_else(|| self.coarse.next_occupied(0))
    }

    /// Advances the epoch to the earliest pending event and refills the
    /// fine ring: pours the next occupied coarse bucket into it, or jumps
    /// to the heap's head when the coarse tier is empty, then migrates
    /// every heap event now inside the coarse horizon. Only called with an
    /// empty fine ring and a non-empty queue.
    fn refill(&mut self) {
        debug_assert!(self.fine.is_empty() && self.drain_at == NO_BUCKET);
        if let Some(c) = self.next_coarse() {
            self.epoch += ((c + RING - coarse_index(self.epoch)) % RING) as u64;
            let mut i = std::mem::replace(&mut self.coarse.head[c], NIL);
            self.coarse.unmark(c);
            while i != NIL {
                let node = &mut self.slab.nodes[i as usize];
                let next = node.next;
                let f = fine_index(node.t);
                node.next = self.fine.head[f];
                self.fine.head[f] = i;
                self.fine.mark(f);
                i = next;
            }
        } else if let Some(head) = self.overflow.peek() {
            self.epoch = head.at.as_nanos() >> COARSE_SHIFT;
        }
        self.cur = 0;
        // The horizon in coarse slots, not nanoseconds, so an epoch near
        // `u64::MAX` ns cannot wrap it.
        let end = self.epoch + RING as u64;
        while let Some(head) = self.overflow.peek() {
            if head.at.as_nanos() >> COARSE_SHIFT >= end {
                break;
            }
            // The peek above proves the heap non-empty.
            #[allow(clippy::expect_used)]
            let e = self.overflow.pop().expect("peeked entry");
            self.file(e.at.as_nanos(), e.seq, e.event);
        }
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.drain_at == NO_BUCKET {
            if self.fine.is_empty() {
                if self.len == 0 {
                    return None;
                }
                self.refill();
            }
            // A refill leaves the fine ring non-empty.
            #[allow(clippy::expect_used)]
            let idx = self.fine.next_occupied(self.cur).expect("occupied bucket");
            // First contact with this bucket: move it out of the slab. A
            // lone event is delivered at once; otherwise sort the bucket
            // descending so the earliest (time, seq) sits at the back. No
            // schedule can land below it until it is drained.
            let head = std::mem::replace(&mut self.fine.head[idx], NIL);
            self.cur = idx;
            let (mut i, first) = self.slab.remove(head);
            if i == NIL {
                self.fine.unmark(idx);
                return Some(self.deliver(first));
            }
            self.drain.push(first);
            while i != NIL {
                let (next, slot) = self.slab.remove(i);
                self.drain.push(slot);
                i = next;
            }
            self.drain.sort_unstable_by_key(|s| Reverse((s.t, s.seq)));
            self.drain_at = idx;
        }
        // A bucket is drained only while it holds events.
        #[allow(clippy::expect_used)]
        let slot = self.drain.pop().expect("drained bucket slot");
        if self.drain.is_empty() {
            self.fine.unmark(self.drain_at);
            self.drain_at = NO_BUCKET;
        }
        Some(self.deliver(slot))
    }

    /// Hands out a popped event, advancing the clock to it.
    #[inline]
    fn deliver(&mut self, slot: Slot<E>) -> (SimTime, E) {
        self.len -= 1;
        let at = SimTime::from_nanos(slot.t);
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        (at, slot.event)
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let t = match self.fine.next_occupied(self.cur) {
            Some(idx) if idx == self.drain_at => self.drain.last().map(|s| s.t),
            Some(idx) => self.slab.min_time(self.fine.head[idx]),
            None => match self.next_coarse() {
                Some(c) => self.slab.min_time(self.coarse.head[c]),
                None => return self.overflow.peek().map(|e| e.at),
            },
        };
        t.map(SimTime::from_nanos)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// How many schedules landed in each tier so far.
    pub fn stats(&self) -> FelStats {
        self.stats
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
        // Events beyond the fine ring rest in the coarse tier and are
        // poured into the ring when the clock reaches their epoch; order
        // and FIFO ties survive.
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
            end - ((RING as u64) << COARSE_SHIFT),
            end - 3 * ((RING as u64) << COARSE_SHIFT),
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

    /// Schedules `v` at `t` into both queues.
    fn both(a: &mut EventQueue<u32>, b: &mut BaselineEventQueue<u32>, t: u64, v: u32) {
        a.schedule(SimTime::from_nanos(t), v);
        b.schedule(SimTime::from_nanos(t), v);
    }

    #[test]
    fn three_tiers_interleave_like_the_oracle() {
        // Schedules into every tier between pops: the fine ring (this
        // epoch), the coarse tier (a later epoch within the horizon) and
        // the heap (past it), whose events migrate into the tiers as the
        // epoch advances. Delays just below and above the horizon land on
        // either side of it depending on where the clock sits in its epoch.
        let horizon = (RING as u64) << COARSE_SHIFT;
        let delays = [
            0,
            5,
            WIDTH,
            90_000,
            600_000,
            3_000_000,
            horizon - 1,
            horizon + 7,
            3 * horizon,
        ];
        let mut a = EventQueue::new();
        let mut b = BaselineEventQueue::new();
        let mut v = 0;
        for round in 0..60usize {
            for (k, &d) in delays.iter().enumerate() {
                if (round + k) % 3 != 0 {
                    let t = a.now().as_nanos() + d;
                    both(&mut a, &mut b, t, v);
                    v += 1;
                }
            }
            for _ in 0..4 {
                assert_eq!(a.pop(), b.pop());
                assert_eq!(a.len(), b.len());
                assert_eq!(a.peek_time(), b.peek_time());
            }
        }
        while !b.is_empty() {
            assert_eq!(a.pop(), b.pop());
            assert_eq!(a.peek_time(), b.peek_time());
        }
        assert!(a.pop().is_none());
        let s = a.stats();
        assert!(s.ring > 0 && s.coarse > 0 && s.heap > 0, "{s:?}");
        assert_eq!(s.ring + s.coarse + s.heap, b.processed());
    }

    #[test]
    fn heap_events_just_past_the_new_horizon_stay_in_the_heap() {
        // After the epoch advances to slot 1, slot 1 + RING lies exactly on
        // the new horizon: its events must wait in the heap, or they would
        // share the epoch's own coarse bucket and a later refill could not
        // tell them from the epoch.
        let slot = 1u64 << COARSE_SHIFT;
        let far = (RING as u64 + 1) * slot;
        let mut a = EventQueue::new();
        let mut b = BaselineEventQueue::new();
        both(&mut a, &mut b, slot, 0);
        both(&mut a, &mut b, far + 100 * WIDTH, 1);
        both(&mut a, &mut b, far + 200 * WIDTH, 2);
        assert_eq!(a.pop(), b.pop());
        assert_eq!(a.pop(), b.pop());
        both(&mut a, &mut b, far + 150 * WIDTH, 3);
        while !b.is_empty() {
            assert_eq!(a.pop(), b.pop());
        }
        assert_eq!(a.stats().heap, 2);
    }
}
