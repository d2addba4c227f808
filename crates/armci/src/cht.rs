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
use std::collections::VecDeque;
use vt_simnet::SimTime;

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
    pub fn begin_service(
        &mut self,
        now: SimTime,
        poll_window: SimTime,
        wakeup: SimTime,
    ) -> SimTime {
        debug_assert!(!self.busy, "service overlap");
        self.busy = true;
        if now.saturating_sub(self.last_service_end) > poll_window {
            self.counters.wakeups += 1;
            wakeup
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

    #[test]
    fn enqueue_signals_start_only_when_idle() {
        let mut cht = Cht::new();
        assert!(cht.enqueue(1));
        let wake = cht.begin_service(
            SimTime::ZERO,
            SimTime::from_micros(60),
            SimTime::from_micros(8),
        );
        assert_eq!(wake, SimTime::ZERO); // t = 0 counts as within the window
        assert!(!cht.enqueue(2)); // busy: no new start
        assert_eq!(cht.queue_len(), 2);
        assert_eq!(cht.counters.max_queue, 2);
    }

    #[test]
    fn wakeup_charged_after_long_idle() {
        let mut cht = Cht::new();
        cht.enqueue(1);
        let w = cht.begin_service(
            SimTime::from_micros(100),
            SimTime::from_micros(60),
            SimTime::from_micros(8),
        );
        assert_eq!(w, SimTime::from_micros(8));
        assert_eq!(cht.counters.wakeups, 1);
        cht.pop_head();
        cht.end_service(SimTime::from_micros(105));
        // Within the window now: no wakeup.
        cht.enqueue(2);
        let w = cht.begin_service(
            SimTime::from_micros(110),
            SimTime::from_micros(60),
            SimTime::from_micros(8),
        );
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
        cht.begin_service(
            SimTime::ZERO,
            SimTime::from_micros(60),
            SimTime::from_micros(8),
        );
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
