//! Differential proof of the calendar-queue future event list.
//!
//! The simulator's hot path — `EventQueue`, a two-tier calendar queue (a
//! fine ring of 128 ns buckets over one 0.5 ms epoch, a coarse tier of
//! 0.5 ms buckets reaching about 2.1 s ahead, every resting event in one
//! slab, and a binary heap only for events past the coarse horizon) —
//! must be *observably indistinguishable* from `BaselineEventQueue`, the
//! straightforward `BinaryHeap` FEL it replaced (kept precisely to serve as
//! this oracle). The contract is exact (time, insertion-sequence) FIFO
//! order: ties at one instant pop in schedule order.
//!
//! Every case drives both queues through one randomly generated
//! interleaving of schedules, same-instant bursts, and pops, asserting
//! identical observable state after every step. Delays are drawn across
//! every regime of the calendar — zero (same-instant bursts), within one
//! bucket width, across the fine ring, across coarse buckets, straddling
//! the coarse horizon, and far past it into the heap — so bucket rotation,
//! bitmap scans, coarse pours and heap migration are all crossed with
//! tie-breaking. Half the cases start the clock within a few coarse
//! horizons of `u64::MAX` ns, where delays saturate at the end of time and
//! the tiers' horizon arithmetic must not wrap.

use proptest::prelude::*;
use vt_simnet::{BaselineEventQueue, EventQueue, SimTime};

/// Compact encoding of one random interleaving; the op stream is expanded
/// deterministically from `seed` so failures reproduce from the printed
/// spec alone.
#[derive(Clone, Debug)]
struct InterleavingSpec {
    seed: u64,
    steps: u32,
    /// Out of 8: how often a step pops instead of scheduling.
    pop_weight: u8,
    /// Out of 8: how often a schedule step bursts several events at the
    /// exact same instant.
    burst_weight: u8,
    /// Start the clock near `u64::MAX` ns instead of at zero.
    near_end: bool,
}

fn spec_strategy() -> impl Strategy<Value = InterleavingSpec> {
    (any::<u64>(), 1u32..400, 1u8..7, 0u8..7, any::<bool>()).prop_map(
        |(seed, steps, pop_weight, burst_weight, near_end)| InterleavingSpec {
            seed,
            steps,
            pop_weight,
            burst_weight,
            near_end,
        },
    )
}

/// splitmix64: the expander behind the spec's op stream.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Width of the fine ring, which is one coarse bucket: 4096 × 128 ns.
const RING_SPAN: u64 = 4096 * 128;
/// Reach of the coarse tier: 4096 coarse buckets, ≈ 2.1 s.
const COARSE_HORIZON: u64 = 4096 * RING_SPAN;

/// A delay spanning all calendar regimes: zero, sub-bucket (< 128 ns),
/// in-ring (< 4096 × 128 ns), across coarse buckets (< 50 ms), within one
/// fine ring of the coarse horizon, and up to 10 s, mostly in the heap.
fn delay(r: u64) -> SimTime {
    SimTime::from_nanos(match r % 6 {
        0 => 0,
        1 => r % 128,
        2 => r % RING_SPAN,
        3 => r % 50_000_000,
        4 => COARSE_HORIZON - RING_SPAN + r % (2 * RING_SPAN),
        _ => r % 10_000_000_000,
    })
}

/// Drives both queues through the spec's interleaving, asserting equal
/// observable state after every operation, then drains both dry.
fn run_differential(spec: &InterleavingSpec) {
    let mut x = spec.seed;
    let mut fast: EventQueue<u64> = EventQueue::new();
    let mut slow: BaselineEventQueue<u64> = BaselineEventQueue::new();
    let mut payload = 0u64;
    if spec.near_end {
        // Up to three coarse horizons before the end.
        let start = SimTime::from_nanos(u64::MAX - mix(&mut x) % (3 * COARSE_HORIZON));
        fast.schedule(start, payload);
        slow.schedule(start, payload);
        assert_eq!(fast.pop(), slow.pop());
    }

    for _ in 0..spec.steps {
        let r = mix(&mut x);
        if (r % 8) < u64::from(spec.pop_weight) {
            assert_eq!(fast.pop(), slow.pop(), "pop diverged: {spec:?}");
        } else {
            let burst = if (r >> 3) % 8 < u64::from(spec.burst_weight) {
                2 + (r >> 6) % 6
            } else {
                1
            };
            let at = SimTime::from_nanos(
                fast.now()
                    .as_nanos()
                    .saturating_add(delay(mix(&mut x)).as_nanos()),
            );
            for _ in 0..burst {
                payload += 1;
                fast.schedule(at, payload);
                slow.schedule(at, payload);
            }
        }
        assert_eq!(fast.len(), slow.len(), "len diverged: {spec:?}");
        assert_eq!(fast.is_empty(), slow.is_empty());
        assert_eq!(
            fast.peek_time(),
            slow.peek_time(),
            "peek diverged: {spec:?}"
        );
        assert_eq!(fast.now(), slow.now(), "clock diverged: {spec:?}");
        assert_eq!(fast.processed(), slow.processed());
    }

    // Drain: the full remaining order must match, not just prefixes.
    while !slow.is_empty() {
        assert_eq!(fast.pop(), slow.pop(), "drain diverged: {spec:?}");
    }
    assert!(fast.is_empty());
    assert_eq!(fast.pop(), None);
    assert_eq!(slow.pop(), None);
}

proptest! {
    #[test]
    fn calendar_queue_matches_binary_heap_oracle(spec in spec_strategy()) {
        run_differential(&spec);
    }
}

#[test]
fn same_instant_bursts_pop_in_schedule_order() {
    // The FIFO tie-break contract, pinned directly: many events at one
    // instant come back in exactly the order they were scheduled.
    let mut q: EventQueue<u32> = EventQueue::new();
    let at = SimTime::from_nanos(777);
    for i in 0..100 {
        q.schedule(at, i);
    }
    // A later event scheduled between the burst's pops must not overtake.
    for i in 0..100 {
        let (t, v) = q
            .pop()
            .unwrap_or_else(|| unreachable!("queue holds the burst"));
        assert_eq!((t, v), (at, i));
    }
    assert!(q.is_empty());
}

#[test]
fn overflow_events_migrate_back_into_the_ring() {
    // Events beyond the fine ring rest in the coarse tier, and events past
    // the coarse horizon in the overflow heap; both must still interleave
    // correctly with near-term events as the tiers rotate out to them.
    let mut fast: EventQueue<u32> = EventQueue::new();
    let mut slow: BaselineEventQueue<u32> = BaselineEventQueue::new();
    for i in 0..200u32 {
        // Rotate near (in-ring), far (coarse) and farthest (heap) horizons.
        let ns = match i % 3 {
            0 => u64::from(i) * 37,
            1 => 10_000_000 + u64::from(i) * 4093,
            _ => 3 * COARSE_HORIZON + u64::from(i) * 1_000_003,
        };
        fast.schedule(SimTime::from_nanos(ns), i);
        slow.schedule(SimTime::from_nanos(ns), i);
    }
    while !slow.is_empty() {
        assert_eq!(fast.pop(), slow.pop());
    }
    assert!(fast.is_empty());
}
