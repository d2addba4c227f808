//! Recovery: response timers, retransmission, credit reclaim, the dedup and
//! completion tables that keep retries exactly-once, and slab ids that are
//! never reused. Live under a fault plan, and under serving, whose
//! responses outlive their timeouts past saturation.

use super::*;
use vt_core::FxHashSet;
use vt_simnet::DetRng;

/// Live recovery state: which operations finished, and which arrived.
#[derive(Default)]
pub(super) struct Recovery {
    /// Origin-side completion set: `(rank, seq)` of every operation whose
    /// first response arrived (or that a serve client gave up on). Later
    /// (duplicate) responses and stale timeouts check here.
    op_done: FxHashSet<(u32, u64)>,
    /// Target-side dedup table for exactly-once execution of retried
    /// non-idempotent operations.
    seen: FxHashMap<(u32, u64), DedupState>,
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
    pub(super) fn free_request(&mut self, id: ReqId) {
        debug_assert!(self.requests[id as usize].live);
        self.requests[id as usize].live = false;
        // Under the recovery machinery, slab ids are never reused:
        // duplicate copies and stale timeouts may still reference an id
        // after its operation completed, and a recycled slot would let
        // them corrupt a newer request's state.
        if self.recovery.is_none() {
            self.free_reqs.push(id);
        }
    }

    pub(super) fn free_env(&mut self, id: u32) {
        // Like request slots, envelope slots are never reused under
        // recovery: in-flight drops may leave stale references behind.
        if self.recovery.is_none() {
            self.free_envs.push(id);
        }
    }

    /// Whether `r`'s operation already completed (or was given up on).
    pub(super) fn resolved(&self, r: &Request) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|rec| rec.op_done.contains(&(r.origin.0, r.seq)))
    }

    /// Marks `r`'s operation resolved; false if a copy already had.
    pub(super) fn resolve(&mut self, r: &Request) -> bool {
        self.recovery
            .as_mut()
            .is_none_or(|rec| rec.op_done.insert((r.origin.0, r.seq)))
    }

    /// Whether the response `r` completes its operation: the first one
    /// does, unless its origin died or failed before it landed.
    pub(super) fn first_response(&mut self, r: &Request) -> bool {
        let gone = matches!(
            self.procs[r.origin.idx()].phase,
            Phase::Lost | Phase::Failed
        );
        self.recovery.is_none() || (self.resolve(r) && !gone)
    }

    /// Whether direct op `r` fires its notify (once across retransmissions).
    pub(super) fn first_notify(&mut self, r: &Request) -> bool {
        let Some(rec) = &mut self.recovery else {
            return true;
        };
        let fresh = rec
            .seen
            .insert((r.origin.0, r.seq), DedupState::Pending)
            .is_none();
        self.faults.dedup_hits += u64::from(!fresh);
        fresh
    }

    /// Target-side dedup: retried operations execute exactly once even when
    /// only an earlier copy's response was lost. True for a duplicate of
    /// `req` — re-answered with the recorded value, or swallowed while the
    /// first copy is pending — which the caller must not apply.
    pub(super) fn duplicate(&mut self, now: SimTime, req: ReqId) -> bool {
        let Some(rec) = &mut self.recovery else {
            return false;
        };
        let r = &self.requests[req as usize];
        let key = (r.origin.0, r.seq);
        match rec.seen.get(&key).copied() {
            None => {
                rec.seen.insert(key, DedupState::Pending);
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
        if let Some(rec) = &mut self.recovery {
            rec.seen
                .insert((r.origin.0, r.seq), DedupState::Done(r.resp_value));
        }
    }

    /// Arms the per-request response timer for `req`'s current attempt
    /// (no-op without recovery).
    ///
    /// With jitter enabled (always on for serve-mode requests, opt-in via
    /// [`RetryConfig::jitter`](crate::RetryConfig::jitter) otherwise) the
    /// delay is drawn from the capped decorrelated-jitter distribution: a
    /// pure function of `(seed, seq, attempt)`, so replays of the same
    /// timeline redraw identical delays.
    pub(super) fn arm_timeout(&mut self, now: SimTime, req: ReqId) {
        if self.recovery.is_none() {
            return;
        }
        let r = &self.requests[req as usize];
        let jitter = self.cfg.retry.jitter || r.serve;
        let delay = if r.attempt == 0 || !jitter {
            self.cfg.retry.deadline(r.attempt)
        } else {
            let mut rng =
                DetRng::new(self.cfg.seed ^ 0xB0FF).fork(r.seq ^ (u64::from(r.attempt) << 48));
            let d = self.cfg.retry.decorrelated(r.backoff_prev, &mut rng);
            self.requests[req as usize].backoff_prev = d;
            d
        };
        self.queue.schedule(now + delay, Event::Timeout { req });
    }

    /// A per-request response timer expired: retransmit with backoff, or
    /// fail the operation once the retry budget is spent.
    pub(super) fn timeout_fire(&mut self, now: SimTime, req: ReqId) {
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
            live: true,
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

    /// Fault-path sibling of [`Engine::ack_member`]: the copy of `req` at
    /// `node` was destroyed, so its upstream buffer comes back via a
    /// reclaim timer instead of an ack. For an envelope member the timer is
    /// armed once — by the last member destroyed — for the envelope's
    /// single credit.
    pub(super) fn reclaim_member(&mut self, at: SimTime, node: NodeId, req: ReqId) {
        if let Some(key) = self.upstream_credit(node, req) {
            self.reclaim_later(at, key);
        }
    }
}
