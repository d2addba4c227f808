//! Communication helper thread (CHT) state.
//!
//! One CHT per node (created by the node's master process, paper §II)
//! services one-sided requests on behalf of all local processes: it is a
//! *serial* FIFO server. Requests that must travel further are forwarded to
//! the next server on the LDF route; a forward needs a downstream buffer
//! credit.
//!
//! **Parking, not head-of-line blocking.** When the head-of-line request
//! cannot get its downstream credit, the CHT *parks* it (the request keeps
//! holding its upstream buffer — that is the genuine channel dependency the
//! LDF order keeps acyclic) and continues with the rest of its queue. This
//! is not an optimisation but a correctness requirement discovered by this
//! reproduction's deadlock audit: a serial server that blocks wholesale on
//! one credit can deadlock *even under a cycle-free forwarding order*,
//! because the request that would release the awaited credit may be stuck
//! behind the blocked head in the peer's queue. With parking, the only
//! wait-for relationships are buffer-chain dependencies, and those are
//! exactly what the paper's LDF argument covers.

use crate::ids::ReqId;
use crate::ops::{Op, OpKind};
use std::collections::VecDeque;
use vt_simnet::SimTime;

// Timing model. The CHT is a serial server: it handles one request at a
// time. A CHT that has been idle longer than `POLL_WINDOW` has dropped out
// of its polling loop and pays `WAKEUP_LATENCY` before the next request —
// the mechanism behind the paper's observation that *busy forwarders
// respond faster* (§V-B2: processes actively forwarding "stay in the
// polling mode ... and therefore have better response time").

/// Fixed cost to dispatch any request.
const BASE: SimTime = SimTime::from_nanos(600);
/// Per-byte cost of staging payload through shared memory (ns/byte).
const PER_BYTE_NS: f64 = 0.4;
/// Extra per-segment cost of scatter/gather for vectored operations.
const PER_SEGMENT: SimTime = SimTime::from_nanos(150);
/// Extra cost of an atomic read-modify-write.
const ATOMIC_EXTRA: SimTime = SimTime::from_nanos(300);
/// Extra cost of a lock/unlock request.
const LOCK_EXTRA: SimTime = SimTime::from_nanos(200);
/// Fixed cost to forward a request to the next server.
const FORWARD_BASE: SimTime = SimTime::from_nanos(400);
/// Per-byte cost of pass-through forwarding (ns/byte; cheaper than terminal
/// processing — no scatter).
const FORWARD_PER_BYTE_NS: f64 = 0.1;
/// Incremental cost of folding one additional request into an envelope
/// already being assembled for forwarding. Envelope assembly is pipelined
/// with the in-flight DMA of the previous member, so this is much cheaper
/// than `FORWARD_BASE`: the CHT pays the fixed forwarding dispatch once per
/// envelope instead of once per request.
const ENVELOPE_FOLD: SimTime = SimTime::from_nanos(80);
/// Latency to wake an idle CHT (scheduling / interrupt path).
const WAKEUP_LATENCY: SimTime = SimTime::from_micros(8);
/// How long after its last service a CHT keeps polling.
const POLL_WINDOW: SimTime = SimTime::from_micros(60);

/// Service time for terminally processing `op` at the target CHT.
pub(crate) fn service_time(op: &Op) -> SimTime {
    let mut t = BASE + per_byte(op.bytes, PER_BYTE_NS);
    match op.kind {
        OpKind::PutV | OpKind::GetV => {
            t += PER_SEGMENT * u64::from(op.segments);
        }
        OpKind::Acc => {
            // Combine costs a second pass over the payload.
            t += per_byte(op.bytes, PER_BYTE_NS) + PER_SEGMENT;
        }
        OpKind::FetchAdd => t += ATOMIC_EXTRA,
        OpKind::Lock | OpKind::Unlock => t += LOCK_EXTRA,
        OpKind::Put | OpKind::Get => {}
    }
    t
}

/// Service time for forwarding `op`'s request one hop.
pub(crate) fn forward_time(op: &Op) -> SimTime {
    FORWARD_BASE + per_byte(op.request_bytes(), FORWARD_PER_BYTE_NS)
}

/// Service time for forwarding a coalesced envelope of `ops` one hop.
///
/// Pays `FORWARD_BASE` once, per-byte pass-through for every member, and
/// `ENVELOPE_FOLD` per member beyond the first: assembly of member *k+1*
/// overlaps the DMA of member *k*, so the dominant fixed cost is not
/// replicated the way `n` individual forwards would replicate it.
pub(crate) fn envelope_forward_time(ops: &[Op]) -> SimTime {
    let bytes: u64 = ops.iter().map(|op| op.request_bytes()).sum();
    let folds = ops.len().saturating_sub(1) as u64;
    FORWARD_BASE + per_byte(bytes, FORWARD_PER_BYTE_NS) + ENVELOPE_FOLD * folds
}

fn per_byte(bytes: u64, ns_per_byte: f64) -> SimTime {
    SimTime::from_nanos((bytes as f64 * ns_per_byte).round() as u64)
}

/// Aggregated per-CHT activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChtCounters {
    /// Requests terminally serviced here.
    pub serviced: u64,
    /// Requests forwarded to another server.
    pub forwarded: u64,
    /// Times the CHT had to be woken from idle.
    pub wakeups: u64,
    /// Forwards parked waiting for a downstream credit.
    pub parked: u64,
    /// Largest queue depth observed.
    pub max_queue: usize,
    /// Physical forwarding messages sent (each envelope counts once; with
    /// coalescing off this equals `forwarded`).
    pub fwd_messages: u64,
    /// Coalesced envelopes assembled here.
    pub envelopes: u64,
    /// Member requests carried inside those envelopes.
    pub coalesced: u64,
}

/// The runtime state of one node's CHT.
#[derive(Debug)]
pub struct Cht {
    queue: VecDeque<ReqId>,
    /// `true` while a service is scheduled and not yet completed.
    busy: bool,
    /// End of the most recent service (for the polling-window model).
    last_service_end: SimTime,
    /// Counters for reports.
    pub counters: ChtCounters,
}

impl Default for Cht {
    fn default() -> Self {
        Self::new()
    }
}

impl Cht {
    /// An idle CHT with an empty queue.
    pub fn new() -> Self {
        Cht {
            queue: VecDeque::new(),
            busy: false,
            last_service_end: SimTime::ZERO,
            counters: ChtCounters::default(),
        }
    }

    /// Enqueues an arrived request; returns `true` if the engine should
    /// schedule a service attempt (the CHT is idle).
    pub fn enqueue(&mut self, req: ReqId) -> bool {
        self.queue.push_back(req);
        self.counters.max_queue = self.counters.max_queue.max(self.queue.len());
        !self.busy
    }

    /// Re-enqueues a previously parked request at the *front* (it is older
    /// than anything queued); returns `true` if the CHT is idle and a
    /// service attempt should be scheduled.
    pub fn enqueue_front(&mut self, req: ReqId) -> bool {
        self.queue.push_front(req);
        self.counters.max_queue = self.counters.max_queue.max(self.queue.len());
        !self.busy
    }

    /// The head-of-line request, if any.
    pub fn head(&self) -> Option<ReqId> {
        self.queue.front().copied()
    }

    /// Pops the head request (service start or parking).
    pub fn pop_head(&mut self) -> Option<ReqId> {
        self.queue.pop_front()
    }

    /// Current queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether a service is in progress.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Marks the start of a service; returns the wakeup penalty to charge
    /// (zero when the CHT was still polling).
    pub fn begin_service(&mut self, now: SimTime) -> SimTime {
        debug_assert!(!self.busy, "service overlap");
        self.busy = true;
        if now.saturating_sub(self.last_service_end) > POLL_WINDOW {
            self.counters.wakeups += 1;
            WAKEUP_LATENCY
        } else {
            SimTime::ZERO
        }
    }

    /// Marks the end of a service.
    pub fn end_service(&mut self, now: SimTime) {
        debug_assert!(self.busy);
        self.busy = false;
        self.last_service_end = now;
    }

    /// The node crashed: drops the queue and any service in progress, so the
    /// CHT restarts empty and idle. Returns the dropped queue, oldest first;
    /// the counters and the polling clock stay.
    pub fn crash(&mut self) -> VecDeque<ReqId> {
        self.busy = false;
        std::mem::take(&mut self.queue)
    }

    /// Records that a forward was parked on an exhausted credit.
    pub fn note_parked(&mut self) {
        self.counters.parked += 1;
    }

    /// The queued requests behind the head, oldest first (the coalescing
    /// scan's candidate set).
    pub fn iter(&self) -> impl Iterator<Item = ReqId> + '_ {
        self.queue.iter().copied()
    }

    /// Removes the given requests from anywhere in the queue, preserving the
    /// order of the rest (used when queued requests fold into an envelope).
    pub fn remove_many(&mut self, ids: &[ReqId]) {
        if ids.is_empty() {
            return;
        }
        self.queue.retain(|r| !ids.contains(r));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ids::Rank;

    #[test]
    fn service_time_scales_with_payload() {
        let small = service_time(&Op::put_v(Rank(0), 1, 64));
        let large = service_time(&Op::put_v(Rank(0), 1, 16 * 1024));
        assert!(large > small * 2);
    }

    #[test]
    fn vectored_pays_per_segment() {
        let one = service_time(&Op::put_v(Rank(0), 1, 1024));
        let eight = service_time(&Op::put_v(Rank(0), 8, 128));
        assert!(eight > one, "same bytes, more segments must cost more");
    }

    #[test]
    fn forwarding_is_cheaper_than_terminal_service() {
        let op = Op::put_v(Rank(0), 8, 2048);
        assert!(forward_time(&op) < service_time(&op));
    }

    #[test]
    fn acc_costs_more_than_putv_of_same_size() {
        assert!(service_time(&Op::acc(Rank(0), 4096)) > service_time(&Op::put_v(Rank(0), 1, 4096)));
    }

    #[test]
    fn envelope_forward_beats_individual_forwards() {
        let ops = [Op::fetch_add(Rank(0), 1); 4];
        let env = envelope_forward_time(&ops);
        let singles: SimTime = ops.iter().map(forward_time).sum();
        assert!(env < singles, "folding must amortise FORWARD_BASE");
        assert_eq!(envelope_forward_time(&ops[..1]), forward_time(&ops[0]));
    }

    #[test]
    fn fetch_add_service_includes_atomic_cost() {
        let fadd = service_time(&Op::fetch_add(Rank(0), 1));
        assert!(fadd >= BASE + ATOMIC_EXTRA);
        assert!(fadd < SimTime::from_micros(2));
    }

    #[test]
    fn enqueue_signals_start_only_when_idle() {
        let mut cht = Cht::new();
        assert!(cht.enqueue(1));
        let wake = cht.begin_service(SimTime::ZERO);
        assert_eq!(wake, SimTime::ZERO); // t = 0 counts as within the window
        assert!(!cht.enqueue(2)); // busy: no new start
        assert_eq!(cht.queue_len(), 2);
        assert_eq!(cht.counters.max_queue, 2);
    }

    #[test]
    fn wakeup_charged_after_long_idle() {
        let mut cht = Cht::new();
        cht.enqueue(1);
        let w = cht.begin_service(SimTime::from_micros(100));
        assert_eq!(w, SimTime::from_micros(8));
        assert_eq!(cht.counters.wakeups, 1);
        cht.pop_head();
        cht.end_service(SimTime::from_micros(105));
        // Within the window now: no wakeup.
        cht.enqueue(2);
        let w = cht.begin_service(SimTime::from_micros(110));
        assert_eq!(w, SimTime::ZERO);
        assert_eq!(cht.counters.wakeups, 1);
    }

    #[test]
    fn enqueue_front_puts_request_first() {
        let mut cht = Cht::new();
        cht.enqueue(1);
        cht.enqueue(2);
        cht.enqueue_front(7);
        assert_eq!(cht.pop_head(), Some(7));
        assert_eq!(cht.pop_head(), Some(1));
        assert_eq!(cht.pop_head(), Some(2));
    }

    #[test]
    fn crash_restarts_empty_and_idle() {
        let mut cht = Cht::new();
        cht.enqueue(1);
        cht.begin_service(SimTime::ZERO);
        cht.pop_head();
        cht.enqueue(2);
        cht.enqueue(3);
        assert_eq!(cht.crash(), [2, 3]);
        assert!(!cht.is_busy());
        assert_eq!(cht.queue_len(), 0);
        assert!(cht.enqueue(4), "an idle CHT starts the next arrival");
        assert_eq!(cht.counters.max_queue, 2);
    }

    #[test]
    fn parked_counter_increments() {
        let mut cht = Cht::new();
        cht.note_parked();
        cht.note_parked();
        assert_eq!(cht.counters.parked, 2);
    }

    #[test]
    fn remove_many_keeps_relative_order() {
        let mut cht = Cht::new();
        for i in 0..6 {
            cht.enqueue(i);
        }
        cht.remove_many(&[1, 4]);
        let rest: Vec<ReqId> = cht.iter().collect();
        assert_eq!(rest, vec![0, 2, 3, 5]);
        cht.remove_many(&[]);
        assert_eq!(cht.queue_len(), 4);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut cht = Cht::new();
        for i in 0..5 {
            cht.enqueue(i);
        }
        for i in 0..5 {
            assert_eq!(cht.head(), Some(i));
            assert_eq!(cht.pop_head(), Some(i));
        }
        assert_eq!(cht.pop_head(), None);
    }
}
