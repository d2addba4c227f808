//! Request-buffer credits.
//!
//! A node `j` with an incoming virtual-topology edge from `i` pre-allocates
//! `M` request buffers for **each sender on `i`** — every application
//! process and the forwarding CHT. The sender-side view of those buffers is
//! a *credit*: a sender may have at most `M` requests in flight across an
//! edge and must wait for a buffer-release acknowledgement before reusing a
//! slot. Requests really block on credits in the simulation, so a cyclic
//! forwarding order would genuinely deadlock — the engine detects that
//! instead of hanging, turning the paper's LDF deadlock-freedom claim into a
//! tested property.

use crate::ids::{NodeId, Sender};
use vt_core::FxHashMap;

/// A sender's credit account on one directed virtual-topology edge.
///
/// A coalesced forwarding envelope occupies exactly **one** credit on its
/// `(edge, class)` account regardless of how many member requests it
/// carries, and is released by a single aggregated acknowledgement once the
/// downstream server has dealt with every member. Coalescing therefore only
/// ever *reduces* the credits in flight on an edge — it cannot introduce
/// buffer-dependency cycles the uncoalesced LDF order did not have.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CreditKey {
    /// Who sends.
    pub sender: Sender,
    /// The edge, as (source node, destination node).
    pub edge: (NodeId, NodeId),
    /// The escape buffer class the request travels in. Fault-free traffic is
    /// entirely class 0; route-around escalates the class on every descent
    /// (see `vt_core::ldf::route_avoiding_classed`), giving each class its
    /// own credit pool on the same edge so the buffer-dependency graph over
    /// `(edge, class)` stays acyclic under any dead set.
    pub class: u8,
}

impl CreditKey {
    /// The forwarding CHT of `from`'s account on the edge `from -> to` in
    /// escape class `class` — the account a forwarded request (or a whole
    /// coalesced envelope) draws its downstream buffer from.
    pub fn cht(from: NodeId, to: NodeId, class: u8) -> Self {
        CreditKey {
            sender: Sender::Cht(from),
            edge: (from, to),
            class,
        }
    }
}

/// Tracks in-flight request counts per `(sender, edge)` with a FIFO queue
/// of waiters per account: blocked processes (at most one each, since a
/// process issues one request at a time) and *parked* forwards — requests a
/// CHT set aside because the downstream account was exhausted. Parking
/// instead of head-of-line blocking is essential: a serial server that
/// blocks on one credit while the credit-releasing request sits behind it
/// in its own queue deadlocks even under a cycle-free forwarding order.
#[derive(Debug)]
pub struct CreditManager {
    cap: u32,
    /// Credits in flight per account. An account is dropped when its count
    /// returns to zero, so this holds only accounts with credits out.
    in_flight: FxHashMap<CreditKey, u32>,
    waiters: FxHashMap<CreditKey, std::collections::VecDeque<Waiter>>,
}

/// Who is waiting for a credit to free up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Waiter {
    /// A process blocked trying to issue a request.
    Proc(crate::ids::Rank),
    /// A forward parked at a CHT, identified by the node and the request.
    Fwd {
        /// The forwarding node.
        node: NodeId,
        /// The parked request.
        req: crate::ids::ReqId,
        /// The forwarding node's incarnation when the forward parked; a
        /// grant after a crash of the node finds it stale.
        inc: u8,
    },
    /// A retransmitted request waiting at its origin for a fresh first-hop
    /// credit (fault-recovery path only; initial issues block the process
    /// itself via [`Waiter::Proc`]).
    Retry {
        /// The retransmit attempt's request.
        req: crate::ids::ReqId,
    },
}

impl CreditManager {
    /// A manager giving every sender `cap` credits per edge (`M`).
    pub fn new(cap: u32) -> Self {
        assert!(cap >= 1, "need at least one credit per sender");
        CreditManager {
            cap,
            in_flight: FxHashMap::default(),
            waiters: FxHashMap::default(),
        }
    }

    /// Attempts to take one credit; returns `false` when the account is
    /// exhausted.
    pub fn try_acquire(&mut self, key: CreditKey) -> bool {
        let used = self.in_flight.entry(key).or_insert(0);
        if *used < self.cap {
            *used += 1;
            true
        } else {
            false
        }
    }

    /// Registers `waiter` at the back of `key`'s wait queue.
    pub fn wait(&mut self, key: CreditKey, waiter: Waiter) {
        self.waiters.entry(key).or_default().push_back(waiter);
    }

    /// Returns one credit to the account. If waiters are queued on it, the
    /// credit is transferred to the oldest one immediately and that waiter
    /// is returned so the engine can resume it. An account whose last
    /// credit comes home is dropped.
    ///
    /// # Panics
    /// Panics if the account has no credit in flight (a double release, or
    /// a release without an acquire).
    pub fn release(&mut self, key: CreditKey) -> Option<Waiter> {
        let Some(used) = self.in_flight.get_mut(&key) else {
            panic!("double release on {key:?}: no credit in flight");
        };
        if let Some(queue) = self.waiters.get_mut(&key) {
            if let Some(waiter) = queue.pop_front() {
                if queue.is_empty() {
                    self.waiters.remove(&key);
                }
                // Hand the credit straight to the waiter: `used` stays put.
                return Some(waiter);
            }
            self.waiters.remove(&key);
        }
        *used -= 1;
        if *used == 0 {
            self.in_flight.remove(&key);
        }
        None
    }

    /// Removes and returns the waiters on `key` accepted by `take`, in FIFO
    /// order, leaving the rejected ones queued in their original order.
    /// Used by the coalescing layer: forwards parked on an exhausted
    /// account can ride a departing envelope's single credit instead of
    /// each waiting for one of their own.
    pub fn take_waiters(
        &mut self,
        key: CreditKey,
        mut take: impl FnMut(&Waiter) -> bool,
    ) -> Vec<Waiter> {
        let Some(queue) = self.waiters.get_mut(&key) else {
            return Vec::new();
        };
        let mut taken = Vec::new();
        let mut rest = std::collections::VecDeque::new();
        while let Some(w) = queue.pop_front() {
            if take(&w) {
                taken.push(w);
            } else {
                rest.push_back(w);
            }
        }
        *queue = rest;
        if queue.is_empty() {
            self.waiters.remove(&key);
        }
        taken
    }

    /// Number of credits currently in flight for `key`.
    pub fn in_flight(&self, key: CreditKey) -> u32 {
        self.in_flight.get(&key).copied().unwrap_or(0)
    }

    /// Total credits in flight across all accounts.
    pub fn total_in_flight(&self) -> u64 {
        self.in_flight.values().map(|&v| u64::from(v)).sum()
    }

    /// All currently blocked waiters (for deadlock diagnostics), in
    /// ascending account order; waiters within one account keep their
    /// FIFO queue order.
    pub fn blocked(&self) -> Vec<(CreditKey, Waiter)> {
        let mut v: Vec<(CreditKey, Waiter)> = self
            .waiters
            .iter()
            .flat_map(|(&k, q)| q.iter().map(move |&w| (k, w)))
            .collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }

    /// Number of blocked waiters.
    pub fn blocked_count(&self) -> usize {
        self.waiters
            .values()
            .map(std::collections::VecDeque::len)
            .sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ids::Rank;

    fn fwd(node: NodeId, req: u32) -> Waiter {
        Waiter::Fwd { node, req, inc: 0 }
    }

    fn key(sender: Sender) -> CreditKey {
        CreditKey {
            sender,
            edge: (0, 1),
            class: 0,
        }
    }

    #[test]
    fn acquire_until_cap() {
        let mut cm = CreditManager::new(4);
        let k = key(Sender::Proc(Rank(0)));
        for _ in 0..4 {
            assert!(cm.try_acquire(k));
        }
        assert!(!cm.try_acquire(k));
        assert_eq!(cm.in_flight(k), 4);
    }

    #[test]
    fn accounts_are_independent() {
        let mut cm = CreditManager::new(1);
        let a = key(Sender::Proc(Rank(0)));
        let b = key(Sender::Proc(Rank(1)));
        let c = CreditKey {
            sender: Sender::Proc(Rank(0)),
            edge: (0, 2),
            class: 0,
        };
        assert!(cm.try_acquire(a));
        assert!(cm.try_acquire(b));
        assert!(cm.try_acquire(c));
        assert!(!cm.try_acquire(a));
        assert_eq!(cm.total_in_flight(), 3);
    }

    #[test]
    fn escape_classes_have_independent_accounts() {
        let mut cm = CreditManager::new(1);
        let k0 = key(Sender::Cht(0));
        let k1 = CreditKey { class: 1, ..k0 };
        assert!(cm.try_acquire(k0));
        assert!(cm.try_acquire(k1), "class 1 must have its own pool");
        assert!(!cm.try_acquire(k0));
        assert_eq!(cm.release(k1), None);
        assert!(cm.try_acquire(k1));
    }

    #[test]
    fn release_without_waiter_frees_credit() {
        let mut cm = CreditManager::new(1);
        let k = key(Sender::Cht(0));
        assert!(cm.try_acquire(k));
        assert_eq!(cm.release(k), None);
        assert!(cm.try_acquire(k));
    }

    #[test]
    fn release_transfers_credit_to_waiter() {
        let mut cm = CreditManager::new(1);
        let k = key(Sender::Proc(Rank(3)));
        assert!(cm.try_acquire(k));
        cm.wait(k, Waiter::Proc(Rank(3)));
        assert_eq!(cm.blocked_count(), 1);
        let granted = cm.release(k);
        assert_eq!(granted, Some(Waiter::Proc(Rank(3))));
        // The credit moved to the waiter: account still full.
        assert_eq!(cm.in_flight(k), 1);
        assert!(!cm.try_acquire(k));
        assert_eq!(cm.blocked_count(), 0);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut cm = CreditManager::new(2);
        let k = key(Sender::Cht(5));
        cm.try_acquire(k);
        cm.release(k);
        cm.release(k);
    }

    #[test]
    fn take_waiters_filters_in_fifo_order() {
        let mut cm = CreditManager::new(1);
        let k = key(Sender::Cht(4));
        assert!(cm.try_acquire(k));
        for req in 10..14 {
            cm.wait(k, fwd(4, req));
        }
        // Take the even request ids only.
        let taken = cm.take_waiters(k, |w| matches!(w, Waiter::Fwd { req, .. } if req % 2 == 0));
        assert_eq!(taken, vec![fwd(4, 10), fwd(4, 12)]);
        // The odd ones are still queued, in order.
        assert_eq!(cm.blocked_count(), 2);
        assert_eq!(cm.release(k), Some(fwd(4, 11)));
        assert_eq!(cm.release(k), Some(fwd(4, 13)));
        assert_eq!(cm.take_waiters(k, |_| true), Vec::new());
    }

    #[test]
    fn waiters_are_served_fifo() {
        let mut cm = CreditManager::new(1);
        let k = key(Sender::Cht(2));
        assert!(cm.try_acquire(k));
        cm.wait(k, fwd(2, 10));
        cm.wait(k, fwd(2, 11));
        assert_eq!(cm.blocked_count(), 2);
        assert_eq!(cm.release(k), Some(fwd(2, 10)));
        assert_eq!(cm.release(k), Some(fwd(2, 11)));
        assert_eq!(cm.blocked_count(), 0);
        // Both grants transferred the single credit; it is still in flight.
        assert!(!cm.try_acquire(k));
        assert_eq!(cm.release(k), None);
        assert!(cm.try_acquire(k));
    }

    /// The manager before accounts were dropped at zero: every account ever
    /// touched keeps its counter. The oracle for
    /// `matches_a_manager_that_keeps_every_account`.
    #[derive(Default)]
    struct KeepEvery {
        in_flight: std::collections::BTreeMap<CreditKey, u32>,
        waiters: std::collections::BTreeMap<CreditKey, std::collections::VecDeque<Waiter>>,
    }

    impl KeepEvery {
        fn try_acquire(&mut self, key: CreditKey, cap: u32) -> bool {
            let used = self.in_flight.entry(key).or_insert(0);
            let ok = *used < cap;
            *used += u32::from(ok);
            ok
        }

        fn release(&mut self, key: CreditKey) -> Option<Waiter> {
            let waiter = self.waiters.get_mut(&key).and_then(|q| q.pop_front());
            if self.waiters.get(&key).is_some_and(|q| q.is_empty()) {
                self.waiters.remove(&key);
            }
            if waiter.is_none() {
                *self.in_flight.get_mut(&key).unwrap() -= 1;
            }
            waiter
        }

        fn blocked(&self) -> Vec<(CreditKey, Waiter)> {
            self.waiters
                .iter()
                .flat_map(|(&k, q)| q.iter().map(move |&w| (k, w)))
                .collect()
        }
    }

    #[test]
    fn matches_a_manager_that_keeps_every_account() {
        let keys: Vec<CreditKey> = [Sender::Proc(Rank(0)), Sender::Proc(Rank(1)), Sender::Cht(2)]
            .into_iter()
            .flat_map(|sender| {
                [(0, 1), (1, 2)].into_iter().flat_map(move |edge| {
                    (0..2).map(move |class| CreditKey {
                        sender,
                        edge,
                        class,
                    })
                })
            })
            .collect();
        for seed in 1..=64u64 {
            let cap = 1 + (seed % 3) as u32;
            let mut cm = CreditManager::new(cap);
            let mut oracle = KeepEvery::default();
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut req = 0;
            for step in 0..2_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = keys[(x >> 8) as usize % keys.len()];
                let ctx = format!("seed {seed}, step {step}, {k:?}");
                match x % 8 {
                    0..=2 => assert_eq!(cm.try_acquire(k), oracle.try_acquire(k, cap), "{ctx}"),
                    3 | 4 => {
                        req += 1;
                        let w = fwd(2, req);
                        cm.wait(k, w);
                        oracle.waiters.entry(k).or_default().push_back(w);
                    }
                    5 | 6 => {
                        if cm.in_flight(k) > 0 {
                            assert_eq!(cm.release(k), oracle.release(k), "{ctx}");
                        }
                    }
                    _ => {
                        let odd = |w: &Waiter| matches!(w, Waiter::Fwd { req, .. } if req % 2 == 1);
                        let mut want = Vec::new();
                        if let Some(q) = oracle.waiters.get_mut(&k) {
                            want = q.iter().copied().filter(odd).collect();
                            q.retain(|w| !odd(w));
                            if q.is_empty() {
                                oracle.waiters.remove(&k);
                            }
                        }
                        assert_eq!(cm.take_waiters(k, odd), want, "{ctx}");
                    }
                }
                for &k in &keys {
                    assert_eq!(
                        cm.in_flight(k),
                        oracle.in_flight.get(&k).copied().unwrap_or(0),
                        "seed {seed}, step {step}, {k:?}"
                    );
                }
                let total: u64 = oracle.in_flight.values().map(|&n| u64::from(n)).sum();
                assert_eq!(cm.total_in_flight(), total, "{ctx}");
                assert_eq!(cm.blocked(), oracle.blocked(), "{ctx}");
                let live = oracle.in_flight.values().filter(|&&n| n > 0).count();
                assert_eq!(cm.in_flight.len(), live, "{ctx}: zero account kept");
            }
        }
    }
}
