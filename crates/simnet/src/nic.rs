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

/// A least-recently-used set of message-stream sources with bounded
/// capacity.
///
/// One recency-ordered array of at most `cap` source ids, least recent
/// first: a hit moves the source to the back, a miss appends it and, when
/// the table is full, drops the front. At the default 96 contexts the
/// whole table is 384 B of contiguous memory: across thousands of NICs a
/// touch usually finds its table out of cache, and a linear scan of a few
/// adjacent cache lines costs less than a hashed lookup spread over
/// separate heap blocks. Its size depends only on the capacity, never on
/// the node count or on how large a source id is, and it is allocated on
/// the first touch: a NIC that never receives allocates nothing.
#[derive(Clone, Debug)]
pub struct StreamTable {
    cap: usize,
    /// Resident sources, least recent first.
    order: Vec<u32>,
}

impl StreamTable {
    /// A table holding at most `cap` concurrent source contexts.
    pub fn new(cap: usize) -> Self {
        StreamTable {
            cap: cap.max(1),
            order: Vec::new(),
        }
    }

    /// Registers traffic from `src`; returns `true` on a fast-path hit and
    /// `false` when the source had to be (re-)established, evicting the
    /// least recently used entry if the table is full.
    pub fn touch(&mut self, src: u32) -> bool {
        let hit = match find_recent(&self.order, src) {
            Some(pos) => {
                self.order.remove(pos);
                true
            }
            None if self.order.len() == self.cap => {
                self.order.remove(0);
                false
            }
            None => {
                // Allocates all `cap` slots on the first touch, then no-ops.
                self.order.reserve_exact(self.cap - self.order.len());
                false
            }
        };
        self.order.push(src);
        hit
    }

    /// Number of resident stream contexts.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no stream context is resident.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Capacity of the fast table.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// The index of `src` in `order`, scanning from the most recent end (where
/// hits are likeliest) in blocks of 16 ids. Each block is tested without an
/// early exit, which the compiler turns into vector compares; only the
/// block holding `src` is searched id by id. A full miss at the default 96
/// contexts is six block tests instead of 96 dependent compares.
fn find_recent(order: &[u32], src: u32) -> Option<usize> {
    let mut start = order.len();
    for block in order.rchunks(16) {
        start -= block.len();
        if block.iter().fold(false, |hit, &s| hit | (s == src)) {
            return block.iter().rposition(|&s| s == src).map(|i| start + i);
        }
    }
    None
}

/// Per-node NIC state: serial TX and RX engines plus the stream table.
#[derive(Clone, Debug)]
pub struct Nic {
    tx_busy: SimTime,
    rx_busy: SimTime,
    streams: StreamTable,
}

impl Nic {
    /// A NIC whose stream table holds `stream_contexts` sources.
    pub fn new(stream_contexts: usize) -> Self {
        Nic {
            tx_busy: SimTime::ZERO,
            rx_busy: SimTime::ZERO,
            streams: StreamTable::new(stream_contexts),
        }
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
        }
        let start = arrival.max(self.rx_busy);
        let done = start + cost;
        self.rx_busy = done;
        (done, !hit)
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
        // Differential check against the textbook search/remove/push LRU:
        // same hits, same evictions, same recency order, on an adversarial
        // access pattern mixing residents, thrash and re-touches.
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
            assert_eq!(table.order, reference);
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

    #[test]
    fn wide_ids_match_the_linear_reference() {
        // Node ids up to 262,144 (a 1M-proc machine at 4 ppn), a hot set
        // that mostly hits, and ids at the top of the `u32` range.
        const MAX_ID: u64 = 262_144;
        for cap in [1usize, 2, 96, 256] {
            let mut table = StreamTable::new(cap);
            let mut reference: Vec<u32> = Vec::new();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ cap as u64;
            for step in 0..200_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let src = match step % 3 {
                    0 => u32::MAX - (x % (2 * cap as u64 + 2)) as u32,
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
                    assert_eq!(table.order, reference, "cap {cap}, step {step}");
                }
            }
        }
    }

    #[test]
    fn lookup_size_depends_only_on_capacity() {
        for cap in [1usize, 96, 256] {
            let mut t = StreamTable::new(cap);
            assert_eq!(t.order.capacity(), 0, "allocated before use");
            for src in (0..262_144u32).chain([u32::MAX]) {
                assert!(!t.touch(src));
                assert_eq!(t.order.capacity(), cap);
            }
            assert!(t.touch(u32::MAX));
            assert_eq!(t.len(), cap);
            assert_eq!(t.order.capacity(), cap);
        }
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
    }
}
