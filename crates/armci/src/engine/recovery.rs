//! Recovery: response timers, retransmission, credit reclaim, and the
//! per-operation records that keep retries exactly-once. Live under a fault
//! plan, and under serving, whose responses outlive their timeouts past
//! saturation.
//!
//! **Slot lifetime.** A retried operation has several request slots (one per
//! attempt), and a slot may still be named by its copy in flight and by its
//! pending timers after the operation completed. Each slot counts those
//! references (`Request::refs`) and is freed — its id recycled — only once
//! nothing can name it again:
//!
//! * its copy's journey ended: its response was handled, or it was dropped
//!   unsent as a resolved parked retry;
//! * no `Timeout` for it is pending (arms and firings are counted);
//! * its operation is resolved and its origin is not `Lost` (a reboot still
//!   reads a Lost origin's slots to finalise and re-arm its operations).
//!
//! Without recovery a slot has no timers and its response completes its
//! operation, so the rule frees it on completion. Copies the engine never
//! sees end (dropped, corrupted, stale or unreachable discards, dead nodes,
//! duplicates swallowed while the first copy is pending) keep their slots,
//! which is safe. Slots are recycled, so nothing may order by slab index:
//! age is `Request::stamp`.
//!
//! Envelope slots are recycled in every mode, once no event or member copy
//! can name them: when the last member releases the envelope's credit (by
//! ack, or destroyed by its node's crash), when the envelope's send is
//! dropped, and when its node crashed before the assembly finished. A
//! dropped envelope's members still name the slot, but a dropped copy is
//! never seen again, and a retransmission starts outside any envelope.
//!
//! The operation's record lives exactly as long as its slots: it is created
//! with the first and removed with the last, when no copy or timer can ask
//! about the operation again. `seq` is global, not per origin, so records
//! tie to slots rather than to a per-origin sequence window, which would
//! drop a late duplicate below its floor instead of re-answering it.

use super::*;
use vt_simnet::DetRng;

/// Live recovery state: one record per operation that still has a slot.
#[derive(Default)]
pub(super) struct Recovery {
    /// Per-operation records keyed by `(origin, seq)`.
    ops: FxHashMap<(u32, u64), OpRecord>,
}

impl Recovery {
    /// Operations that still have a slot.
    #[cfg(test)]
    pub(super) fn ops(&self) -> usize {
        self.ops.len()
    }
}

/// What the engine still knows about one operation.
#[derive(Clone, Copy, Debug)]
struct OpRecord {
    /// Origin-side resolution.
    state: OpState,
    /// Target-side dedup state; `None` until a copy arrived.
    dedup: Option<DedupState>,
    /// Slab slots of the operation still allocated.
    slots: u32,
}

/// Origin-side resolution of an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum OpState {
    /// No response landed yet and nobody gave up on it.
    Open,
    /// The first response landed on this slot while the origin was Lost:
    /// the node's reboot completes the operation with it.
    Landed(ReqId),
    /// Completed, given up on, or answered to a failed origin. Later
    /// (duplicate) responses and stale timeouts find it here.
    Done,
}

/// Target-side record of an operation that already arrived at least once.
#[derive(Clone, Copy, Debug)]
enum DedupState {
    /// The first copy is still being handled (e.g. a queued lock): drop
    /// duplicates silently, the original will respond.
    Pending,
    /// The operation was applied and responded to with this value:
    /// re-respond to duplicates without re-applying.
    Done(Option<i64>),
}

impl Engine {
    /// Stores `req` in a fresh slot, stamped with its allocation order, and
    /// counts the slot on its operation's record.
    pub(super) fn alloc_request(&mut self, req: Request) -> ReqId {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(rec) = &mut self.recovery {
            rec.ops
                .entry((req.origin.0, req.seq))
                .or_insert(OpRecord {
                    state: OpState::Open,
                    dedup: None,
                    slots: 0,
                })
                .slots += 1;
        }
        let req = Request {
            live: true,
            refs: 1,
            stamp,
            ..req
        };
        slab_insert(&mut self.requests, &mut self.free_reqs, req)
    }

    /// The copy on slot `req` will never be seen again: its response was
    /// handled, or it was dropped unsent.
    pub(super) fn journey_ended(&mut self, req: ReqId) {
        self.requests[req as usize].refs -= 1;
        self.release(req);
    }

    /// Frees slot `id` once nothing can name it again (see the module doc);
    /// otherwise a later journey end, timer firing or reboot retries.
    pub(super) fn release(&mut self, id: ReqId) {
        let r = self.requests[id as usize];
        debug_assert!(r.live, "release of freed slot {id}");
        if r.refs > 0 || !self.resolved(&r) || self.procs[r.origin.idx()].phase == Phase::Lost {
            return;
        }
        self.requests[id as usize].live = false;
        self.free_reqs.push(id);
        if let Some(rec) = &mut self.recovery {
            let key = (r.origin.0, r.seq);
            if let Some(op) = rec.ops.get_mut(&key) {
                op.slots -= 1;
                if op.slots == 0 {
                    rec.ops.remove(&key);
                }
            }
        }
    }

    /// The record of `r`'s operation (`None` without recovery).
    fn op_mut(&mut self, r: &Request) -> Option<&mut OpRecord> {
        let op = self.recovery.as_mut()?.ops.get_mut(&(r.origin.0, r.seq));
        debug_assert!(
            op.is_some(),
            "{} op #{} outlived its record",
            r.origin,
            r.seq
        );
        op
    }

    /// Origin-side resolution of `r`'s operation. Without recovery an
    /// operation has one copy, whose response completes it: `Done`.
    pub(super) fn op_state(&self, r: &Request) -> OpState {
        self.recovery
            .as_ref()
            .and_then(|rec| rec.ops.get(&(r.origin.0, r.seq)))
            .map_or(OpState::Done, |op| op.state)
    }

    /// Whether `r`'s operation already has its response (or was given up on).
    pub(super) fn resolved(&self, r: &Request) -> bool {
        self.op_state(r) != OpState::Open
    }

    /// Marks `r`'s operation done and returns its state before (`Open`
    /// without recovery).
    pub(super) fn settle(&mut self, r: &Request) -> OpState {
        self.op_mut(r).map_or(OpState::Open, |op| {
            std::mem::replace(&mut op.state, OpState::Done)
        })
    }

    /// Whether the response on slot `req` completes its operation: the
    /// first one does, unless its origin died or failed before it landed.
    /// A Lost origin's reboot completes it then.
    pub(super) fn first_response(&mut self, req: ReqId) -> bool {
        let r = self.requests[req as usize];
        let phase = self.procs[r.origin.idx()].phase;
        let Some(op) = self.op_mut(&r).filter(|op| op.state == OpState::Open) else {
            return self.recovery.is_none();
        };
        match phase {
            Phase::Lost => op.state = OpState::Landed(req),
            Phase::Failed => op.state = OpState::Done,
            _ => return true,
        }
        false
    }

    /// Whether direct op `r` fires its notify (once across retransmissions).
    pub(super) fn first_notify(&mut self, r: &Request) -> bool {
        let Some(op) = self.op_mut(r) else {
            return self.recovery.is_none();
        };
        let fresh = op.dedup.replace(DedupState::Pending).is_none();
        self.faults.dedup_hits += u64::from(!fresh);
        fresh
    }

    /// Target-side dedup: retried operations execute exactly once even when
    /// only an earlier copy's response was lost. True for a duplicate of
    /// `req` — re-answered with the recorded value, or swallowed while the
    /// first copy is pending — which the caller must not apply.
    pub(super) fn duplicate(&mut self, now: SimTime, req: ReqId) -> bool {
        let r = self.requests[req as usize];
        let Some(op) = self.op_mut(&r) else {
            return false;
        };
        match op.dedup {
            None => {
                op.dedup = Some(DedupState::Pending);
                return false;
            }
            Some(DedupState::Done(value)) => {
                self.requests[req as usize].resp_value = value;
                self.respond(now, req);
            }
            // The first copy is still queued (e.g. on a lock): swallow the
            // duplicate, the original will respond.
            Some(DedupState::Pending) => {}
        }
        self.faults.dedup_hits += 1;
        true
    }

    /// Records `r`'s result so duplicates are re-answered, not re-applied.
    pub(super) fn record_answer(&mut self, r: &Request) {
        if let Some(op) = self.op_mut(r) {
            op.dedup = Some(DedupState::Done(r.resp_value));
        }
    }

    /// Arms the per-request response timer for `req`'s current attempt
    /// (no-op without recovery).
    ///
    /// A serve-mode request's retransmission delay is drawn from the capped
    /// decorrelated-jitter distribution
    /// ([`JITTER_CAP`](crate::config::JITTER_CAP)): a
    /// pure function of `(seed, seq, attempt)`, so replays of the same
    /// timeline redraw identical delays. Every other request waits the
    /// fixed exponential deadline.
    pub(super) fn arm_timeout(&mut self, now: SimTime, req: ReqId) {
        if self.recovery.is_none() {
            return;
        }
        let r = &self.requests[req as usize];
        let delay = if r.attempt == 0 || !r.serve {
            self.cfg.retry.deadline(r.attempt)
        } else {
            let mut rng =
                DetRng::new(self.cfg.seed ^ 0xB0FF).fork(r.seq ^ (u64::from(r.attempt) << 48));
            let d = self.cfg.retry.decorrelated(r.backoff_prev, &mut rng);
            self.requests[req as usize].backoff_prev = d;
            d
        };
        self.requests[req as usize].refs += 1;
        self.queue.schedule(now + delay, Event::Timeout { req });
    }

    /// A per-request response timer expired: act on it, then free the slot
    /// if this was the last thing that could name it.
    pub(super) fn timeout_fire(&mut self, now: SimTime, req: ReqId) {
        self.requests[req as usize].refs -= 1;
        self.expire(now, req);
        self.release(req);
    }

    /// Retransmits `req` with backoff, or fails the operation once the retry
    /// budget is spent.
    fn expire(&mut self, now: SimTime, req: ReqId) {
        let r = self.requests[req as usize];
        if self.resolved(&r) {
            return; // Stale: the operation completed in time.
        }
        let phase = self.procs[r.origin.idx()].phase;
        if matches!(phase, Phase::Lost | Phase::Failed) {
            if r.serve {
                // The client died with the request in flight: close out the
                // serve-side accounting so the run can quiesce.
                self.serve_give_up(req);
            }
            return; // The origin is gone; nobody is waiting.
        }
        if phase == Phase::Done && !r.serve {
            return; // Program finished; a serve client is Done by design.
        }
        self.faults.timeouts += 1;
        if r.serve {
            self.serve_retry(now, req);
            return;
        }
        if r.attempt >= self.cfg.retry.max_retries {
            self.fail_with(
                now,
                r.origin,
                SimError::TimedOut {
                    at: now,
                    rank: r.origin,
                    seq: r.seq,
                    attempts: r.attempt + 1,
                    issued: r.issued,
                    target: r.target_node,
                },
            );
            return;
        }
        self.retransmit(now, req);
    }

    /// Clones `req` into a fresh slab slot for the next attempt (same
    /// sequence number — the dedup key) and re-issues it from the origin.
    pub(super) fn retransmit(&mut self, now: SimTime, req: ReqId) {
        self.faults.retries += 1;
        let old = self.requests[req as usize];
        let new_req = self.alloc_request(Request {
            prev_sender: Sender::Proc(old.origin),
            prev_node: old.origin_node,
            resp_value: None,
            credit_held: false,
            attempt: old.attempt + 1,
            vc_class: 0,
            fwd_next: old.origin_node,
            fwd_class: 0,
            env_slot: NO_ENV,
            // Replays are re-stamped: a retransmission after an epoch
            // commit carries the new epoch (same seq, so dedup still
            // collapses it with any surviving old-epoch copy's response).
            epoch: self.epoch(),
            ..old
        });
        // The timer for the new attempt starts now and covers any time the
        // retransmit spends waiting for a first-hop credit. Unlike an
        // initial issue the process is already blocked (or running async
        // work): a credit wait parks the retry itself, not the process.
        self.arm_timeout(now, new_req);
        self.launch(now, now, new_req, Waiter::Retry { req: new_req });
    }

    /// Schedules a delayed credit release modelling the upstream sender's
    /// local buffer-reclaim timer: the request copy holding the credit was
    /// destroyed (dropped message or crashed node), so no ack will ever
    /// come back for it.
    pub(super) fn reclaim_later(&mut self, destroyed_at: SimTime, key: CreditKey) {
        self.faults.reclaims += 1;
        self.queue.schedule(
            destroyed_at + self.cfg.retry.timeout,
            Event::AckArrive { key },
        );
    }
}
