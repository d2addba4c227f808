//! The per-node network interface.
//!
//! Models the two SeaStar properties the paper's contention story rests on:
//!
//! * **Serial engines** — one transmit and one receive DMA engine per node;
//!   concurrent messages queue behind their busy horizons.
//! * **Bounded message-stream state** — Portals is connectionless but the
//!   NIC keeps per-source stream contexts in a small fast table
//!   (`256 simultaneous message streams` on SeaStar2+, of which a hot
//!   subset is resident). A message whose source misses the table takes the
//!   BEER slow path (end-to-end reliability, flow-control handshake) and
//!   pays a fixed penalty. Hundreds of interleaved sources — exactly the FCG
//!   hot-spot pattern — thrash the table; the virtual topologies bound the
//!   distinct-source count per node and stay on the fast path.

use crate::time::SimTime;

/// Linked-list terminator for [`StreamTable`] nodes.
const NIL: u32 = u32::MAX;

/// One resident stream context in the LRU order.
#[derive(Clone, Debug)]
struct StreamNode {
    src: u32,
    prev: u32,
    next: u32,
}

/// A least-recently-used set of message-stream sources with bounded
/// capacity.
///
/// Implemented as a slab-backed doubly-linked recency list with a hashed
/// source lookup, so a `touch` is O(1) instead of an O(cap) scan — the
/// hot-spot receiver touches this table on every one of its thousands of
/// arrivals. Semantics are exactly the classic LRU the linear version had:
/// a hit moves the source to most-recent, a miss evicts the least-recent
/// entry when full.
///
/// The lookup is an open-addressed table of `(2 × cap).next_power_of_two()`
/// slab indices, probed linearly from a multiplicative hash of the source
/// id and kept tombstone-free by backward-shift deletion. Its size depends
/// only on the capacity — 1 KiB at the default 96 contexts — never on the
/// node count or on how large a source id is, so per-node state stays
/// O(contexts) at any machine size. Slots and slab are allocated on the
/// first touch: a NIC that never receives allocates nothing.
#[derive(Clone, Debug)]
pub struct StreamTable {
    cap: usize,
    /// Slab of resident contexts, at most `cap` long.
    nodes: Vec<StreamNode>,
    /// Open-addressed lookup: each slot holds the slab index of a resident
    /// source, or [`NIL`] when empty. At most half full.
    slots: Vec<u32>,
    /// `32 - log2(slots.len())`: turns the hash's high bits into a slot.
    shift: u32,
    /// Least recent at `head`, most recent at `tail`.
    head: u32,
    tail: u32,
}

impl StreamTable {
    /// A table holding at most `cap` concurrent source contexts.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        StreamTable {
            cap,
            nodes: Vec::new(),
            slots: Vec::new(),
            shift: 32 - (2 * cap).next_power_of_two().trailing_zeros(),
            head: NIL,
            tail: NIL,
        }
    }

    /// The slot where the probe sequence for `src` starts (Fibonacci
    /// hashing: the top bits of `src × 2³²/φ`).
    fn home(&self, src: u32) -> usize {
        (src.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    /// The slot holding `src`, or the empty slot ending its probe sequence.
    fn find(&self, src: u32) -> usize {
        let mask = self.slots.len() - 1;
        let home = self.home(src);
        let mut at = home;
        loop {
            let i = self.slots[at];
            if i == NIL || self.nodes[i as usize].src == src {
                return at;
            }
            at = (at + 1) & mask;
            debug_assert_ne!(at, home, "stream table has no empty slot");
        }
    }

    /// Empties slot `at` and shifts later members of its probe cluster
    /// back over the hole, so every lookup still ends at the first empty
    /// slot after its home and no tombstone is ever needed. Returns the
    /// one slot that became empty.
    fn remove_slot(&mut self, mut at: usize) -> usize {
        let mask = self.slots.len() - 1;
        let start = at;
        let mut next = (at + 1) & mask;
        loop {
            debug_assert_ne!(next, start, "stream table has no empty slot");
            let i = self.slots[next];
            if i == NIL {
                break;
            }
            // The entry may fill the hole unless its home lies cyclically
            // in (hole, next]: moving it before its home would hide it.
            let home = self.home(self.nodes[i as usize].src);
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(at) & mask {
                self.slots[at] = i;
                at = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[at] = NIL;
        at
    }

    /// Detaches slab node `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = &self.nodes[i as usize];
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Appends slab node `i` as the most recent entry.
    fn push_tail(&mut self, i: u32) {
        let tail = self.tail;
        {
            let n = &mut self.nodes[i as usize];
            n.prev = tail;
            n.next = NIL;
        }
        match tail {
            NIL => self.head = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Registers traffic from `src`; returns `true` on a fast-path hit and
    /// `false` when the source had to be (re-)established, evicting the
    /// least recently used entry if the table is full.
    pub fn touch(&mut self, src: u32) -> bool {
        if self.slots.is_empty() {
            self.slots = vec![NIL; 1 << (32 - self.shift)];
            self.nodes.reserve_exact(self.cap);
        }
        let mut at = self.find(src);
        let i = self.slots[at];
        if i != NIL {
            if self.tail != i {
                self.unlink(i);
                self.push_tail(i);
            }
            return true;
        }
        let slab = if self.nodes.len() == self.cap {
            // Evict the least recently used context and reuse its slab slot.
            let victim = self.head;
            self.unlink(victim);
            let old = self.nodes[victim as usize].src;
            let hole = self.remove_slot(self.find(old));
            self.nodes[victim as usize].src = src;
            // `src`'s probe now ends at the new hole if that lies on its
            // path before `at`; every other slot kept its occupancy.
            let mask = self.slots.len() - 1;
            let home = self.home(src);
            if hole.wrapping_sub(home) & mask < at.wrapping_sub(home) & mask {
                at = hole;
            }
            victim
        } else {
            self.nodes.push(StreamNode {
                src,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        self.push_tail(slab);
        self.slots[at] = slab;
        false
    }

    /// Number of resident stream contexts.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no stream context is resident.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Capacity of the fast table.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Per-node NIC state: serial TX and RX engines plus the stream table.
#[derive(Clone, Debug)]
pub struct Nic {
    tx_busy: SimTime,
    rx_busy: SimTime,
    streams: StreamTable,
    stream_misses: u64,
    rx_messages: u64,
    tx_messages: u64,
    dead: bool,
}

impl Nic {
    /// A NIC whose stream table holds `stream_contexts` sources.
    pub fn new(stream_contexts: usize) -> Self {
        Nic {
            tx_busy: SimTime::ZERO,
            rx_busy: SimTime::ZERO,
            streams: StreamTable::new(stream_contexts),
            stream_misses: 0,
            rx_messages: 0,
            tx_messages: 0,
            dead: false,
        }
    }

    /// Marks the NIC as dead (its node crashed). A dead NIC neither
    /// transmits nor receives; the network drops traffic touching it.
    pub fn kill(&mut self) {
        self.dead = true;
    }

    /// Clears the dead flag (its node rebooted). The stream table, engine
    /// horizons and counters deliberately survive: the simulated hardware
    /// epoch is the network's, and the time-based drop decisions — not
    /// this flag — decide what a dead node loses.
    pub fn revive(&mut self) {
        self.dead = false;
    }

    /// Whether the NIC's node has crashed.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Reserves the transmit engine from `earliest` for `overhead` software
    /// cost plus `injection` serialisation; returns the time the message
    /// enters the network.
    pub fn reserve_tx(
        &mut self,
        earliest: SimTime,
        overhead: SimTime,
        injection: SimTime,
    ) -> SimTime {
        let start = earliest.max(self.tx_busy);
        let done = start + overhead + injection;
        self.tx_busy = done;
        self.tx_messages += 1;
        done
    }

    /// Reserves the receive engine for a message from node `src` arriving at
    /// `arrival`; returns the delivery completion time and whether the
    /// stream table missed.
    ///
    /// `base` is the per-message fast-path cost, `drain` the DMA
    /// serialisation for the payload (plus, for a coalesced envelope, the
    /// demultiplexing of its extra members) and `miss_penalty` the BEER
    /// slow path charged when `src` is not resident. An envelope is one
    /// message to the NIC: one stream-table touch, one `base` charge.
    pub fn reserve_rx(
        &mut self,
        src: u32,
        arrival: SimTime,
        base: SimTime,
        drain: SimTime,
        miss_penalty: SimTime,
    ) -> (SimTime, bool) {
        let hit = self.streams.touch(src);
        let mut cost = base + drain;
        if !hit {
            cost += miss_penalty;
            self.stream_misses += 1;
        }
        let start = arrival.max(self.rx_busy);
        let done = start + cost;
        self.rx_busy = done;
        self.rx_messages += 1;
        (done, !hit)
    }

    /// Time at which the transmit engine frees up.
    pub fn tx_busy_until(&self) -> SimTime {
        self.tx_busy
    }

    /// Time at which the receive engine frees up.
    pub fn rx_busy_until(&self) -> SimTime {
        self.rx_busy
    }

    /// Number of BEER slow-path events taken so far.
    pub fn stream_misses(&self) -> u64 {
        self.stream_misses
    }

    /// Messages received.
    pub fn rx_messages(&self) -> u64 {
        self.rx_messages
    }

    /// Messages transmitted.
    pub fn tx_messages(&self) -> u64 {
        self.tx_messages
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn stream_table_hits_recent_sources() {
        let mut t = StreamTable::new(2);
        assert!(!t.touch(1)); // cold
        assert!(t.touch(1)); // hot
        assert!(!t.touch(2));
        assert!(t.touch(1)); // still resident
        assert!(!t.touch(3)); // evicts 2 (LRU)
        assert!(!t.touch(2)); // 2 was evicted
        assert_eq!(t.len(), 2);
        assert_eq!(t.capacity(), 2);
    }

    #[test]
    fn interleaved_sources_beyond_capacity_always_miss() {
        // The FCG hot-spot pathology: more interleaved senders than
        // contexts means every message misses.
        let mut t = StreamTable::new(4);
        let mut misses = 0;
        for round in 0..10 {
            for src in 0..5u32 {
                if !t.touch(src) && round > 0 {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 45); // every touch after warm-up misses
    }

    #[test]
    fn sources_within_capacity_never_miss_after_warmup() {
        let mut t = StreamTable::new(8);
        for src in 0..8u32 {
            t.touch(src);
        }
        for _ in 0..10 {
            for src in 0..8u32 {
                assert!(t.touch(src));
            }
        }
    }

    #[test]
    fn lru_table_matches_linear_reference() {
        // Differential check against the obvious Vec-based LRU the table
        // replaced: same hits, same evictions, on an adversarial access
        // pattern mixing residents, thrash and re-touches.
        let mut table = StreamTable::new(8);
        let mut reference: Vec<u32> = Vec::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for step in 0..4_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Alternate a hot working set with a cold sweep.
            let src = if step % 3 == 0 {
                (x % 6) as u32
            } else {
                (x % 20) as u32
            };
            let expected = reference_touch(&mut reference, 8, src);
            assert_eq!(table.touch(src), expected, "step {step}, src {src}");
            assert_eq!(table.len(), reference.len());
            assert_consistent(&table);
        }
    }

    /// The obvious `Vec`-based LRU: most recent last.
    fn reference_touch(reference: &mut Vec<u32>, cap: usize, src: u32) -> bool {
        if let Some(pos) = reference.iter().position(|&e| e == src) {
            reference.remove(pos);
            reference.push(src);
            true
        } else {
            if reference.len() == cap {
                reference.remove(0);
            }
            reference.push(src);
            false
        }
    }

    /// Every resident source is reachable from its home slot and every
    /// occupied slot belongs to exactly one resident. Returns whether some
    /// probe sequence wraps past the end of the table.
    fn assert_consistent(t: &StreamTable) -> bool {
        let occupied = t.slots.iter().filter(|&&i| i != NIL).count();
        assert_eq!(occupied, t.len());
        let mut wrapped = false;
        for (at, &i) in t.slots.iter().enumerate() {
            if i != NIL {
                let src = t.nodes[i as usize].src;
                assert_eq!(t.find(src), at, "src {src} unreachable");
                wrapped |= t.home(src) > at;
            }
        }
        wrapped
    }

    #[test]
    fn wide_ids_match_the_linear_reference() {
        // Node ids up to 262,144 (a 1M-proc machine at 4 ppn), a hot set
        // that mostly hits, and ids that all hash to the last two slots so
        // probe clusters wrap around the end of the table and eviction's
        // backward shift has to carry entries across it.
        const MAX_ID: u64 = 262_144;
        for cap in [1usize, 2, 96, 256] {
            let mut table = StreamTable::new(cap);
            table.touch(0);
            let last = table.slots.len() - 1;
            let colliders: Vec<u32> = (0..=MAX_ID as u32)
                .filter(|&id| table.home(id) + 1 >= last)
                .take(4 * cap + 4)
                .collect();
            let mut table = StreamTable::new(cap);
            let mut reference: Vec<u32> = Vec::new();
            let mut wrapped = false;
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ cap as u64;
            for step in 0..200_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let src = match step % 3 {
                    0 => colliders[(x % colliders.len() as u64) as usize],
                    1 => ((x % (cap as u64 + cap as u64 / 2 + 1)) * 1_021 % (MAX_ID + 1)) as u32,
                    _ => (x % (MAX_ID + 1)) as u32,
                };
                let expected = reference_touch(&mut reference, cap, src);
                assert_eq!(
                    table.touch(src),
                    expected,
                    "cap {cap}, step {step}, src {src}"
                );
                assert_eq!(table.len(), reference.len());
                if step % 61 == 0 {
                    wrapped |= assert_consistent(&table);
                }
            }
            // One resident in two slots always sits at its home.
            assert!(wrapped || cap == 1, "cap {cap}: no probe sequence wrapped");
        }
    }

    #[test]
    fn lookup_size_depends_only_on_capacity() {
        for cap in [1usize, 96, 256] {
            let mut t = StreamTable::new(cap);
            assert!(
                t.slots.is_empty() && t.nodes.capacity() == 0,
                "allocated before use"
            );
            let slots = (2 * cap).next_power_of_two();
            for src in (0..262_144u32).chain([u32::MAX]) {
                assert!(!t.touch(src));
                assert_eq!(t.slots.len(), slots);
                assert_eq!(t.nodes.capacity(), cap);
                if src % 1_024 == 0 {
                    assert_consistent(&t);
                }
            }
            assert!(t.touch(u32::MAX));
            assert_eq!(t.len(), cap);
            assert_consistent(&t);
        }
        assert_eq!(StreamTable::new(96).shift, 24); // 256 slots, 1 KiB
    }

    #[test]
    fn nic_starts_alive_and_stays_dead_once_killed() {
        let mut nic = Nic::new(4);
        assert!(!nic.is_dead());
        nic.kill();
        assert!(nic.is_dead());
        nic.kill();
        assert!(nic.is_dead());
    }

    #[test]
    fn tx_serialises_messages() {
        let mut nic = Nic::new(8);
        let a = nic.reserve_tx(
            SimTime::ZERO,
            SimTime::from_nanos(10),
            SimTime::from_nanos(90),
        );
        let b = nic.reserve_tx(
            SimTime::ZERO,
            SimTime::from_nanos(10),
            SimTime::from_nanos(90),
        );
        assert_eq!(a, SimTime::from_nanos(100));
        assert_eq!(b, SimTime::from_nanos(200));
        assert_eq!(nic.tx_messages(), 2);
    }

    #[test]
    fn rx_charges_miss_penalty_once_per_eviction() {
        let mut nic = Nic::new(1);
        let (done, missed) = nic.reserve_rx(
            7,
            SimTime::ZERO,
            SimTime::from_nanos(5),
            SimTime::from_nanos(5),
            SimTime::from_nanos(100),
        );
        assert!(missed);
        assert_eq!(done, SimTime::from_nanos(110));
        let (done, missed) = nic.reserve_rx(
            7,
            done,
            SimTime::from_nanos(5),
            SimTime::from_nanos(5),
            SimTime::from_nanos(100),
        );
        assert!(!missed);
        assert_eq!(done, SimTime::from_nanos(120));
        assert_eq!(nic.stream_misses(), 1);
        assert_eq!(nic.rx_messages(), 2);
    }

    #[test]
    fn rx_queues_behind_busy_engine() {
        let mut nic = Nic::new(8);
        nic.reserve_rx(
            1,
            SimTime::ZERO,
            SimTime::from_nanos(100),
            SimTime::ZERO,
            SimTime::ZERO,
        );
        let (done, _) = nic.reserve_rx(
            2,
            SimTime::from_nanos(10),
            SimTime::from_nanos(100),
            SimTime::ZERO,
            SimTime::ZERO,
        );
        assert_eq!(done, SimTime::from_nanos(200));
        assert_eq!(nic.rx_busy_until(), done);
    }
}
