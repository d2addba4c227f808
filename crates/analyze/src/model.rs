//! Exhaustive small-N model checking of the CHT forwarding protocol.
//!
//! The simulator exercises *one* interleaving per seed; this module
//! explores **all** of them for small configurations. The protocol is
//! abstracted to the moves that matter for safety — issue, hop delivery,
//! serial CHT service (execute-or-forward-or-park), credit hand-off,
//! response delivery, retransmission after loss, and node crashes — with
//! all timing erased: any enabled transition may fire next. A depth-first
//! search over that nondeterminism, with visited-state memoization and a
//! sleep-set partial-order reduction (Godefroid), visits every reachable
//! protocol state and checks three properties the runtime otherwise only
//! samples:
//!
//! * **Quiescence** — every terminal state has all requests either
//!   completed or diagnosed (no copy stranded parked/queued/in-flight);
//!   a terminal state with a parked copy is precisely a credit deadlock.
//! * **Exactly-once** — a retried non-idempotent operation executes at
//!   its target exactly once (duplicates from spurious retransmissions
//!   must be absorbed by the dedup table), checked on *every* state.
//! * **Zero credit leaks** — at quiescence no `(edge, class)` account
//!   between live endpoints still holds a credit.
//!
//! Credits are modelled at cap 1 per CHT `(edge, class)` account — the
//! harshest legal setting: if no interleaving deadlocks at cap 1, higher
//! caps only relax the same wait-for relation. Each origin's first-hop
//! account is per-request (mirroring the runtime's per-process accounts)
//! and therefore never contended.

use std::collections::{BTreeMap, HashMap};
use vt_armci::forward_decision;
use vt_core::{repack, Shape, SurvivorPacking, TopologyKind, VirtualTopology};

/// Hard ceiling on model-checkable node counts: beyond this the state
/// space stops being "exhaustive in milliseconds" and becomes a job.
pub const MAX_MODEL_NODES: u32 = 6;

/// Hard ceiling on concurrently modelled requests.
pub const MAX_MODEL_REQUESTS: usize = 4;

/// One model-checking scenario.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Virtual topology under test.
    pub topology: TopologyKind,
    /// Node count (`<=` [`MAX_MODEL_NODES`]).
    pub nodes: u32,
    /// Concurrent requests as `(origin node, target node)` pairs.
    pub requests: Vec<(u32, u32)>,
    /// Nodes crashed during the run, in schedule order; the crash *time*
    /// is left nondeterministic, so every interleaving point is explored.
    pub crash_sequence: Vec<u32>,
    /// Retransmission attempts allowed per request.
    pub max_retries: u8,
    /// Budget of spurious (premature) timeouts, each of which launches a
    /// duplicate copy of a request that is still in flight — the move
    /// that makes exactly-once non-trivial.
    pub spurious_timeouts: u8,
    /// Model membership epochs: every confirmed crash is followed by an
    /// epoch commit that re-packs the survivors ([`vt_core::repack()`]) and
    /// re-routes subsequent launches over the repaired grid, while copies
    /// stamped with an older epoch are rejected wherever they surface
    /// (arrival, head-of-line, un-parking) and replayed by their origin's
    /// timer. The commit itself is a local scheduler event, not a lossy
    /// network move, so it is modelled with priority: when a commit is
    /// pending it is the only enabled transition (the runtime's drain
    /// window is orders of magnitude shorter than the retry budget).
    pub membership: bool,
    /// Abort the search beyond this many distinct states.
    pub max_states: u64,
}

impl ModelConfig {
    /// The canonical scenario for `kind` over `nodes`: a hot-spot (two
    /// corner nodes target node 0) plus one cross request, with one
    /// forwarder crash when `fault` is set.
    pub fn scenario(kind: TopologyKind, nodes: u32, fault: bool) -> ModelConfig {
        let n = nodes;
        let mut requests = Vec::new();
        if n >= 2 {
            requests.push((n - 1, 0));
        }
        if n >= 3 {
            requests.push((n - 2, 0));
        }
        if n >= 4 {
            requests.push((1, n - 1));
        }
        if requests.is_empty() {
            requests.push((0, 0));
        }
        let crash_sequence = if fault {
            victim(kind, n, &requests).into_iter().collect()
        } else {
            Vec::new()
        };
        ModelConfig {
            topology: kind,
            nodes,
            requests,
            crash_sequence,
            max_retries: 3,
            spurious_timeouts: 1,
            membership: false,
            max_states: 5_000_000,
        }
    }

    /// Enables membership-epoch modelling (builder style).
    pub fn with_membership(mut self) -> Self {
        self.membership = true;
        self
    }
}

/// A crash victim that exercises route-around: the first intermediate
/// forwarder on any request's route, or any node that is neither an
/// origin nor a target, or nothing (the scenario degrades to fault-free).
fn victim(kind: TopologyKind, n: u32, requests: &[(u32, u32)]) -> Option<u32> {
    let topo = kind.build(n);
    for &(o, t) in requests {
        if let Some(&first) = topo.route(o, t).first() {
            if first != t {
                return Some(first);
            }
        }
    }
    (0..n).find(|&v| requests.iter().all(|&(o, t)| v != o && v != t))
}

/// Outcome of an exhaustive search.
#[derive(Clone, Debug, Default)]
pub struct ModelReport {
    /// Distinct states visited.
    pub states: u64,
    /// Transitions applied (tree edges of the search).
    pub transitions: u64,
    /// Quiescent (terminal) states reached.
    pub quiescent: u64,
    /// Branches pruned by the sleep-set reduction.
    pub sleep_skips: u64,
    /// Property violations, capped at a handful with representative
    /// detail; empty means all three properties hold on every state.
    pub violations: Vec<String>,
}

impl ModelReport {
    /// True when the search completed with no violation.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---- protocol state -----------------------------------------------------

/// Where one copy (original or retransmitted duplicate) of a request is.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Cp {
    /// Duplicate slot not (yet) in use.
    Unused,
    /// Not yet issued by the origin process.
    NotIssued,
    /// On the wire `from -> to`; `cht` says the held credit is the CHT
    /// account `(from, to, class)` (a forwarded hop) rather than the
    /// origin's uncontended per-request account.
    InFlight {
        from: u8,
        to: u8,
        class: u8,
        cht: bool,
    },
    /// In the CHT queue at `at`, still holding the inbound credit.
    Queued {
        from: u8,
        at: u8,
        class: u8,
        cht: bool,
    },
    /// Set aside at `at` waiting for a credit on `(at, to, nclass)`,
    /// still holding the inbound credit. Parking keeps the queue moving;
    /// a quiescent state containing a parked copy is a credit deadlock.
    Parked {
        from: u8,
        at: u8,
        class: u8,
        cht: bool,
        to: u8,
        nclass: u8,
    },
    /// Lost (crashed forwarder or unreachable hop); the origin's timer
    /// will fire.
    AwaitTimeout,
    /// Executed (or deduplicated) at the target; response on the wire.
    Responding,
    /// Absorbed: completed, superseded, failed, or lost with its origin.
    Gone,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    /// Two copy slots per request: `copies[2r]` original, `copies[2r+1]`
    /// the (at most one) duplicate.
    copies: Vec<Cp>,
    /// Per-node CHT FIFO of `(request, copy-slot)` entries.
    queues: Vec<Vec<(u8, u8)>>,
    /// CHT credit accounts `(from, to, class) -> in flight` (cap 1).
    credits: BTreeMap<(u8, u8, u8), u8>,
    done: Vec<bool>,
    failed: Vec<bool>,
    executed: Vec<u8>,
    /// Target-side dedup table: request already executed there.
    marked: Vec<bool>,
    attempt: Vec<u8>,
    /// How many entries of the crash sequence have fired.
    crashed: u8,
    /// How many crashes a membership epoch commit has repaired; the
    /// current epoch number equals this count. Always 0 with membership
    /// off.
    committed: u8,
    /// The epoch each copy slot was last launched under; a copy with
    /// `copy_epoch < committed` is stale and rejected wherever it
    /// surfaces.
    copy_epoch: Vec<u8>,
    spurious_left: u8,
}

/// One enabled protocol move.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Tr {
    Issue {
        r: u8,
        c: u8,
    },
    Deliver {
        r: u8,
        c: u8,
    },
    Service {
        node: u8,
    },
    ForwardParked {
        r: u8,
        c: u8,
    },
    RespArrive {
        r: u8,
        c: u8,
    },
    Timeout {
        r: u8,
        c: u8,
    },
    Spurious {
        r: u8,
    },
    Crash,
    /// Membership epoch commit: repairs all confirmed crashes at once.
    Commit,
}

/// A coarse resource footprint for the independence relation: two
/// transitions commute when their footprints are disjoint. `Crash` (and
/// anything else that inspects the dead set) is handled conservatively in
/// [`Checker::independent`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Res {
    Req(u8),
    Node(u8),
    Acct(u8, u8, u8),
    Budget,
}

struct Checker<'a> {
    cfg: &'a ModelConfig,
    shape: Shape,
    n: u32,
    origin: Vec<u8>,
    target: Vec<u8>,
    /// Survivor packing per commit level: `packings[k]` repairs the first
    /// `k + 1` crashes of the sequence (`None` where re-packing is
    /// impossible). Precomputed — the crash schedule is fixed, so the
    /// packing after `k` commits is too.
    packings: Vec<Option<SurvivorPacking>>,
    report: ModelReport,
    /// Visited states with the sleep sets they were explored under; a
    /// state is skipped only if a previous visit used a **subset** sleep
    /// set (it explored at least as much as this visit would).
    visited: HashMap<State, Vec<Vec<Tr>>>,
    aborted: bool,
}

const CAP: u8 = 1;

impl<'a> Checker<'a> {
    fn dead(&self, st: &State) -> Vec<u32> {
        let mut d: Vec<u32> = self.cfg.crash_sequence[..usize::from(st.crashed)].to_vec();
        d.sort_unstable();
        d
    }

    fn is_dead(&self, st: &State, node: u8) -> bool {
        self.cfg.crash_sequence[..usize::from(st.crashed)].contains(&u32::from(node))
    }

    fn stale(&self, st: &State, r: u8, c: u8) -> bool {
        self.cfg.membership && st.copy_epoch[2 * usize::from(r) + usize::from(c)] < st.committed
    }

    /// The routing decision for `current -> dest` (issued from `prev`)
    /// under the state's membership view: the repaired survivor packing
    /// once an epoch has committed, the crash-avoiding route over the
    /// original grid otherwise.
    fn route_hop(
        &self,
        st: &State,
        prev: u8,
        current: u8,
        dest: u8,
        class: u8,
    ) -> Option<(u8, u8)> {
        if self.cfg.membership && st.committed > 0 {
            let p = self.packings[usize::from(st.committed) - 1].as_ref()?;
            let cs = p.slot_of(u32::from(current))?;
            let ds = p.slot_of(u32::from(dest))?;
            let ps = p.slot_of(u32::from(prev)).unwrap_or(cs);
            let (hop, nclass) =
                forward_decision(p.grid().shape(), p.num_live(), ps, cs, ds, class, &[])?;
            Some((p.node_of(hop) as u8, nclass))
        } else {
            forward_decision(
                &self.shape,
                self.n,
                u32::from(prev),
                u32::from(current),
                u32::from(dest),
                class,
                &self.dead(st),
            )
            .map(|(hop, nclass)| (hop as u8, nclass))
        }
    }

    fn enabled(&self, st: &State) -> Vec<Tr> {
        // A pending epoch commit pre-empts everything: the runtime's
        // drain window is a local timer far shorter than any retry
        // budget, so no other move races it.
        if self.cfg.membership && st.crashed > st.committed {
            return vec![Tr::Commit];
        }
        let mut out = Vec::new();
        for (i, &cp) in st.copies.iter().enumerate() {
            let r = (i / 2) as u8;
            let c = (i % 2) as u8;
            match cp {
                Cp::NotIssued => out.push(Tr::Issue { r, c }),
                Cp::InFlight { .. } => out.push(Tr::Deliver { r, c }),
                Cp::Parked { at, to, nclass, .. } => {
                    if *st.credits.get(&(at, to, nclass)).unwrap_or(&0) < CAP {
                        out.push(Tr::ForwardParked { r, c });
                    }
                }
                Cp::AwaitTimeout => out.push(Tr::Timeout { r, c }),
                Cp::Responding => out.push(Tr::RespArrive { r, c }),
                Cp::Unused | Cp::Queued { .. } | Cp::Gone => {}
            }
        }
        for (node, q) in st.queues.iter().enumerate() {
            if !q.is_empty() && !self.is_dead(st, node as u8) {
                out.push(Tr::Service { node: node as u8 });
            }
        }
        if st.spurious_left > 0 {
            for r in 0..self.origin.len() {
                let prim = st.copies[2 * r];
                let dup = st.copies[2 * r + 1];
                let in_transit = matches!(
                    prim,
                    Cp::InFlight { .. } | Cp::Queued { .. } | Cp::Parked { .. }
                );
                if dup == Cp::Unused
                    && in_transit
                    && !st.done[r]
                    && !self.is_dead(st, self.origin[r])
                {
                    out.push(Tr::Spurious { r: r as u8 });
                }
            }
        }
        if usize::from(st.crashed) < self.cfg.crash_sequence.len() {
            out.push(Tr::Crash);
        }
        out
    }

    fn release(st: &mut State, from: u8, to: u8, class: u8, cht: bool) {
        if cht {
            let e = st.credits.entry((from, to, class)).or_insert(0);
            debug_assert!(*e > 0, "double release in model");
            *e -= 1;
            if *e == 0 {
                st.credits.remove(&(from, to, class));
            }
        }
    }

    /// Launches a (re)issue of request `r` from its origin under the
    /// current membership view, returning the copy's new state.
    fn launch(&self, st: &State, r: usize) -> Cp {
        let o = self.origin[r];
        let t = self.target[r];
        match self.route_hop(st, o, o, t, 0) {
            Some((hop, class)) => Cp::InFlight {
                from: o,
                to: hop,
                class,
                cht: false,
            },
            None => Cp::Gone,
        }
    }

    /// True if the request still has a live copy other than slot `c`.
    fn other_copy_live(st: &State, r: usize, c: usize) -> bool {
        let other = st.copies[2 * r + (1 - c)];
        !matches!(other, Cp::Unused | Cp::Gone)
    }

    fn apply(&mut self, st: &State, tr: Tr) -> State {
        let mut s = st.clone();
        match tr {
            Tr::Issue { r, c } => {
                let (r, c) = (usize::from(r), usize::from(c));
                let o = self.origin[r];
                let t = self.target[r];
                if self.is_dead(&s, o) {
                    s.copies[2 * r + c] = Cp::Gone;
                } else if o == t {
                    if !s.marked[r] {
                        s.executed[r] += 1;
                        s.marked[r] = true;
                    }
                    s.done[r] = true;
                    s.copies[2 * r + c] = Cp::Gone;
                } else {
                    s.copy_epoch[2 * r + c] = s.committed;
                    let cp = self.launch(&s, r);
                    if cp == Cp::Gone && !Self::other_copy_live(&s, r, c) && !s.done[r] {
                        s.failed[r] = true;
                    }
                    s.copies[2 * r + c] = cp;
                }
            }
            Tr::Deliver { r, c } => {
                let (ri, ci) = (usize::from(r), usize::from(c));
                let Cp::InFlight {
                    from,
                    to,
                    class,
                    cht,
                } = s.copies[2 * ri + ci]
                else {
                    unreachable!("deliver on non-in-flight copy");
                };
                if self.is_dead(&s, to) {
                    // Message swallowed by the crash; the buffer it held
                    // is reclaimed with the dead endpoint.
                    Self::release(&mut s, from, to, class, cht);
                    s.copies[2 * ri + ci] = Cp::AwaitTimeout;
                } else if self.stale(&s, r, c) {
                    // Stale-epoch arrival: the receiver acks (freeing the
                    // inbound buffer) and discards; the origin's timer
                    // replays the operation under the current epoch.
                    Self::release(&mut s, from, to, class, cht);
                    s.copies[2 * ri + ci] = Cp::AwaitTimeout;
                } else {
                    s.copies[2 * ri + ci] = Cp::Queued {
                        from,
                        at: to,
                        class,
                        cht,
                    };
                    s.queues[usize::from(to)].push((r, c));
                }
            }
            Tr::Service { node } => {
                let (r, c) = s.queues[usize::from(node)].remove(0);
                let (ri, ci) = (usize::from(r), usize::from(c));
                let Cp::Queued {
                    from,
                    at,
                    class,
                    cht,
                } = s.copies[2 * ri + ci]
                else {
                    unreachable!("queued copy out of sync");
                };
                debug_assert_eq!(at, node);
                let t = self.target[ri];
                if self.stale(&s, r, c) {
                    // Head-of-line stale rejection: ack and discard, the
                    // origin's timer replays under the current epoch.
                    Self::release(&mut s, from, at, class, cht);
                    s.copies[2 * ri + ci] = Cp::AwaitTimeout;
                } else if node == t {
                    Self::release(&mut s, from, at, class, cht);
                    if !s.marked[ri] {
                        s.executed[ri] += 1;
                        s.marked[ri] = true;
                    }
                    s.copies[2 * ri + ci] = Cp::Responding;
                } else {
                    match self.route_hop(&s, from, node, t, class) {
                        None => {
                            Self::release(&mut s, from, at, class, cht);
                            s.copies[2 * ri + ci] = Cp::AwaitTimeout;
                        }
                        Some((hop, nclass)) => {
                            let acct = (node, hop, nclass);
                            if *s.credits.get(&acct).unwrap_or(&0) < CAP {
                                *s.credits.entry(acct).or_insert(0) += 1;
                                Self::release(&mut s, from, at, class, cht);
                                s.copies[2 * ri + ci] = Cp::InFlight {
                                    from: node,
                                    to: hop,
                                    class: nclass,
                                    cht: true,
                                };
                            } else {
                                s.copies[2 * ri + ci] = Cp::Parked {
                                    from,
                                    at: node,
                                    class,
                                    cht,
                                    to: hop,
                                    nclass,
                                };
                            }
                        }
                    }
                }
            }
            Tr::ForwardParked { r, c } => {
                let (ri, ci) = (usize::from(r), usize::from(c));
                let Cp::Parked {
                    from,
                    at,
                    class,
                    cht,
                    to,
                    nclass,
                } = s.copies[2 * ri + ci]
                else {
                    unreachable!("forward on non-parked copy");
                };
                if self.stale(&s, r, c) {
                    // The credit the parked copy was waiting for freed
                    // after an epoch commit: reject instead of forwarding
                    // (the runtime's head-of-line stale check).
                    Self::release(&mut s, from, at, class, cht);
                    s.copies[2 * ri + ci] = Cp::AwaitTimeout;
                } else {
                    *s.credits.entry((at, to, nclass)).or_insert(0) += 1;
                    Self::release(&mut s, from, at, class, cht);
                    s.copies[2 * ri + ci] = Cp::InFlight {
                        from: at,
                        to,
                        class: nclass,
                        cht: true,
                    };
                }
            }
            Tr::RespArrive { r, c } => {
                let (ri, ci) = (usize::from(r), usize::from(c));
                if !self.is_dead(&s, self.origin[ri]) && !s.done[ri] {
                    s.done[ri] = true;
                }
                s.copies[2 * ri + ci] = Cp::Gone;
            }
            Tr::Timeout { r, c } => {
                let (ri, ci) = (usize::from(r), usize::from(c));
                if self.is_dead(&s, self.origin[ri]) || s.done[ri] {
                    // Lost origin, or a stale timer on an operation the
                    // other copy already completed.
                    s.copies[2 * ri + ci] = Cp::Gone;
                } else if s.attempt[ri] >= self.cfg.max_retries {
                    s.copies[2 * ri + ci] = Cp::Gone;
                    if !Self::other_copy_live(&s, ri, ci) {
                        s.failed[ri] = true;
                    }
                } else {
                    s.attempt[ri] += 1;
                    s.copy_epoch[2 * ri + ci] = s.committed;
                    let cp = self.launch(&s, ri);
                    if cp == Cp::Gone && !Self::other_copy_live(&s, ri, ci) {
                        s.failed[ri] = true;
                    }
                    s.copies[2 * ri + ci] = cp;
                }
            }
            Tr::Spurious { r } => {
                let ri = usize::from(r);
                s.spurious_left -= 1;
                s.attempt[ri] += 1;
                s.copy_epoch[2 * ri + 1] = s.committed;
                s.copies[2 * ri + 1] = self.launch(&s, ri);
            }
            Tr::Crash => {
                let victim = self.cfg.crash_sequence[usize::from(s.crashed)] as u8;
                s.crashed += 1;
                // The victim's queue dies with its buffers; senders time
                // out and retry around it.
                for (r, c) in std::mem::take(&mut s.queues[usize::from(victim)]) {
                    let (ri, ci) = (usize::from(r), usize::from(c));
                    if let Cp::Queued {
                        from,
                        at,
                        class,
                        cht,
                    } = s.copies[2 * ri + ci]
                    {
                        Self::release(&mut s, from, at, class, cht);
                        debug_assert_eq!(at, victim);
                        s.copies[2 * ri + ci] = Cp::AwaitTimeout;
                    }
                }
                for i in 0..s.copies.len() {
                    let ri = i / 2;
                    if self.origin[ri] == victim {
                        // The origin process died with the node: its
                        // copies vanish wherever they are, returning any
                        // buffer they hold and leaving no queue entry
                        // behind.
                        match s.copies[i] {
                            Cp::Unused => continue,
                            Cp::InFlight {
                                from,
                                to,
                                class,
                                cht,
                            } => {
                                Self::release(&mut s, from, to, class, cht);
                            }
                            Cp::Queued {
                                from,
                                at,
                                class,
                                cht,
                            } => {
                                Self::release(&mut s, from, at, class, cht);
                                let (r8, c8) = ((ri as u8), (i % 2) as u8);
                                s.queues[usize::from(at)].retain(|&e| e != (r8, c8));
                            }
                            Cp::Parked {
                                from,
                                at,
                                class,
                                cht,
                                ..
                            } => {
                                Self::release(&mut s, from, at, class, cht);
                            }
                            Cp::NotIssued | Cp::AwaitTimeout | Cp::Responding | Cp::Gone => {}
                        }
                        s.copies[i] = Cp::Gone;
                        continue;
                    }
                    if let Cp::Parked {
                        from,
                        at,
                        class,
                        cht,
                        ..
                    } = s.copies[i]
                    {
                        if at == victim {
                            Self::release(&mut s, from, at, class, cht);
                            s.copies[i] = Cp::AwaitTimeout;
                        }
                    }
                }
            }
            Tr::Commit => {
                // Epoch bump: all confirmed crashes repaired at once.
                // Copies keep their old stamps and are rejected lazily
                // where they surface; replays re-stamp at launch.
                s.committed = s.crashed;
            }
        }
        s
    }

    fn footprint(&self, st: &State, tr: Tr) -> Vec<Res> {
        match tr {
            Tr::Issue { r, .. } => vec![Res::Req(r)],
            Tr::Deliver { r, c } => {
                let mut f = vec![Res::Req(r)];
                if let Cp::InFlight {
                    from,
                    to,
                    class,
                    cht,
                } = st.copies[2 * usize::from(r) + usize::from(c)]
                {
                    f.push(Res::Node(to));
                    if cht {
                        f.push(Res::Acct(from, to, class));
                    }
                }
                f
            }
            Tr::Service { node } => {
                let mut f = vec![Res::Node(node)];
                if let Some(&(r, c)) = st.queues[usize::from(node)].first() {
                    f.push(Res::Req(r));
                    if let Cp::Queued {
                        from,
                        at,
                        class,
                        cht,
                    } = st.copies[2 * usize::from(r) + usize::from(c)]
                    {
                        if cht {
                            f.push(Res::Acct(from, at, class));
                        }
                    }
                    // The outgoing account it may acquire: every account
                    // out of `node` is conservatively in the footprint.
                    for cl in 0..self.shape.ndims() as u8 {
                        for hop in 0..self.n as u8 {
                            f.push(Res::Acct(node, hop, cl));
                        }
                    }
                }
                f
            }
            Tr::ForwardParked { r, c } => {
                let mut f = vec![Res::Req(r)];
                if let Cp::Parked {
                    from,
                    at,
                    class,
                    cht,
                    to,
                    nclass,
                } = st.copies[2 * usize::from(r) + usize::from(c)]
                {
                    f.push(Res::Acct(at, to, nclass));
                    if cht {
                        f.push(Res::Acct(from, at, class));
                    }
                }
                f
            }
            Tr::RespArrive { r, .. } => vec![Res::Req(r)],
            Tr::Timeout { r, .. } => vec![Res::Req(r)],
            Tr::Spurious { r } => vec![Res::Req(r), Res::Budget],
            // Both handled specially: dependent with all.
            Tr::Crash | Tr::Commit => Vec::new(),
        }
    }

    /// Conservative independence: `Crash` and `Commit` commute with
    /// nothing (they rewrite the membership view every router consults),
    /// `Spurious` moves share the budget, and everything else commutes
    /// iff resource footprints are disjoint.
    fn independent(&self, st: &State, a: Tr, b: Tr) -> bool {
        if matches!(a, Tr::Crash | Tr::Commit) || matches!(b, Tr::Crash | Tr::Commit) {
            return false;
        }
        let fa = self.footprint(st, a);
        let fb = self.footprint(st, b);
        !fa.iter().any(|r| fb.contains(r))
    }

    fn violation(&mut self, msg: String) {
        if self.report.violations.len() < 5 && !self.report.violations.contains(&msg) {
            self.report.violations.push(msg);
        }
    }

    fn check_invariants(&mut self, st: &State) {
        for (r, &e) in st.executed.iter().enumerate() {
            if e > 1 {
                let msg = format!(
                    "exactly-once violated: request {r} ({} -> {}) executed {e} times",
                    self.origin[r], self.target[r]
                );
                self.violation(msg);
            }
        }
    }

    fn check_quiescent(&mut self, st: &State) {
        self.report.quiescent += 1;
        for (i, &cp) in st.copies.iter().enumerate() {
            if !matches!(cp, Cp::Unused | Cp::Gone) {
                let msg = format!(
                    "quiescence violated: request {} copy {} stranded in {:?} (credit deadlock?)",
                    i / 2,
                    i % 2,
                    cp
                );
                self.violation(msg);
            }
        }
        for r in 0..self.origin.len() {
            let (o, t) = (self.origin[r], self.target[r]);
            if self.is_dead(st, o) {
                continue; // lost rank, excluded like Report::lost_ranks
            }
            if self.is_dead(st, t) {
                if !st.done[r] && !st.failed[r] {
                    self.violation(format!(
                        "request {r} to crashed target {t} neither completed nor diagnosed"
                    ));
                }
                continue;
            }
            if !st.done[r] {
                self.violation(format!(
                    "request {r} ({o} -> {t}) between live nodes did not complete"
                ));
            } else if st.executed[r] != 1 {
                self.violation(format!(
                    "request {r} ({o} -> {t}) completed but executed {} times",
                    st.executed[r]
                ));
            }
        }
        for (&(from, to, class), &held) in &st.credits {
            if held > 0 && !self.is_dead(st, from) && !self.is_dead(st, to) {
                self.violation(format!(
                    "credit leak: account ({from} -> {to}, class {class}) holds {held} at quiescence"
                ));
            }
        }
    }

    fn explore(&mut self, st: State, sleep: Vec<Tr>) {
        if self.aborted {
            return;
        }
        if let Some(prior) = self.visited.get(&st) {
            if prior.iter().any(|p| p.iter().all(|t| sleep.contains(t))) {
                self.report.sleep_skips += 1;
                return;
            }
        }
        self.report.states += 1;
        if self.report.states > self.cfg.max_states {
            self.violation(format!(
                "state space exceeded {} states; not exhaustive",
                self.cfg.max_states
            ));
            self.aborted = true;
            return;
        }
        self.check_invariants(&st);
        let enabled = self.enabled(&st);
        if enabled.is_empty() {
            self.check_quiescent(&st);
            self.visited.entry(st).or_default().push(sleep);
            return;
        }
        let mut explored: Vec<Tr> = Vec::new();
        for &t in enabled.iter().filter(|t| !sleep.contains(t)) {
            let child = self.apply(&st, t);
            self.report.transitions += 1;
            let child_sleep: Vec<Tr> = sleep
                .iter()
                .chain(explored.iter())
                .copied()
                .filter(|&t2| self.independent(&st, t, t2))
                .collect();
            self.explore(child, child_sleep);
            explored.push(t);
            if self.aborted {
                return;
            }
        }
        self.visited.entry(st).or_default().push(sleep);
    }
}

/// Runs the exhaustive search for `cfg`.
///
/// # Errors
/// Returns a message (not a violation) when the scenario itself is out of
/// the model's range: too many nodes or requests, an unsupported
/// topology/population, or an invalid request endpoint.
pub fn check(cfg: &ModelConfig) -> Result<ModelReport, String> {
    if cfg.nodes == 0 || cfg.nodes > MAX_MODEL_NODES {
        return Err(format!(
            "model checker handles 1..={MAX_MODEL_NODES} nodes, got {}",
            cfg.nodes
        ));
    }
    if cfg.requests.is_empty() || cfg.requests.len() > MAX_MODEL_REQUESTS {
        return Err(format!(
            "model checker handles 1..={MAX_MODEL_REQUESTS} requests, got {}",
            cfg.requests.len()
        ));
    }
    if !cfg.topology.supports(cfg.nodes) {
        return Err(format!(
            "{} does not support {} nodes",
            cfg.topology.name(),
            cfg.nodes
        ));
    }
    for &(o, t) in &cfg.requests {
        if o >= cfg.nodes || t >= cfg.nodes {
            return Err(format!("request {o} -> {t} outside 0..{}", cfg.nodes));
        }
    }
    for &v in &cfg.crash_sequence {
        if v >= cfg.nodes {
            return Err(format!("crash victim {v} outside 0..{}", cfg.nodes));
        }
    }
    let topo = cfg.topology.build(cfg.nodes);
    let nreq = cfg.requests.len();
    let init = State {
        copies: (0..nreq)
            .flat_map(|_| [Cp::NotIssued, Cp::Unused])
            .collect(),
        queues: vec![Vec::new(); cfg.nodes as usize],
        credits: BTreeMap::new(),
        done: vec![false; nreq],
        failed: vec![false; nreq],
        executed: vec![0; nreq],
        marked: vec![false; nreq],
        attempt: vec![0; nreq],
        crashed: 0,
        committed: 0,
        copy_epoch: vec![0; 2 * nreq],
        spurious_left: cfg.spurious_timeouts,
    };
    // The packing after k commits depends only on the (fixed) crash
    // schedule prefix, so all of them are computed up front.
    let packings = (1..=cfg.crash_sequence.len())
        .map(|k| {
            let mut dead = cfg.crash_sequence[..k].to_vec();
            dead.sort_unstable();
            dead.dedup();
            repack(cfg.topology, cfg.nodes, &dead).ok()
        })
        .collect();
    let mut checker = Checker {
        cfg,
        shape: topo.shape().clone(),
        n: cfg.nodes,
        origin: cfg.requests.iter().map(|&(o, _)| o as u8).collect(),
        target: cfg.requests.iter().map(|&(_, t)| t as u8).collect(),
        packings,
        report: ModelReport::default(),
        visited: HashMap::new(),
        aborted: false,
    };
    checker.explore(init, Vec::new());
    Ok(checker.report)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_hot_spot_passes_all_topologies() {
        for kind in [
            TopologyKind::Fcg,
            TopologyKind::Mfcg,
            TopologyKind::Cfcg,
            TopologyKind::Hypercube,
        ] {
            let n = if kind == TopologyKind::Hypercube {
                4
            } else {
                5
            };
            let cfg = ModelConfig::scenario(kind, n, false);
            let rep = check(&cfg).unwrap();
            assert!(rep.passed(), "{kind}: {:?}", rep.violations);
            assert!(rep.quiescent > 0);
        }
    }

    #[test]
    fn forwarder_crash_keeps_exactly_once_and_no_leaks() {
        let cfg = ModelConfig::scenario(TopologyKind::Mfcg, 4, true);
        assert!(
            !cfg.crash_sequence.is_empty(),
            "scenario must crash someone"
        );
        let rep = check(&cfg).unwrap();
        assert!(rep.passed(), "{:?}", rep.violations);
        assert!(rep.quiescent > 0);
    }

    #[test]
    fn sleep_sets_prune_without_losing_terminal_states() {
        let cfg = ModelConfig::scenario(TopologyKind::Mfcg, 4, false);
        let rep = check(&cfg).unwrap();
        assert!(rep.sleep_skips > 0, "reduction should prune something");
        assert!(rep.passed());
    }

    #[test]
    fn epoch_commit_keeps_exactly_once_and_no_leaks() {
        // Same crash scenario as above, but with membership on: the
        // commit re-packs the survivors, stale-epoch copies are rejected
        // at arrival / head-of-line / un-parking, and replays re-route
        // over the repaired grid. Exactly-once and zero credit leaks
        // must survive every interleaving of all of that.
        for kind in [TopologyKind::Mfcg, TopologyKind::Cfcg] {
            let n = if kind == TopologyKind::Cfcg { 6 } else { 4 };
            let cfg = ModelConfig::scenario(kind, n, true).with_membership();
            assert!(
                !cfg.crash_sequence.is_empty(),
                "scenario must crash someone"
            );
            let rep = check(&cfg).unwrap();
            assert!(rep.passed(), "{kind}: {:?}", rep.violations);
            assert!(rep.quiescent > 0);
        }
    }

    #[test]
    fn out_of_range_scenarios_are_rejected() {
        let mut cfg = ModelConfig::scenario(TopologyKind::Fcg, 4, false);
        cfg.nodes = 50;
        assert!(check(&cfg).is_err());
        let cfg2 = ModelConfig {
            requests: vec![(9, 0)],
            ..ModelConfig::scenario(TopologyKind::Fcg, 4, false)
        };
        assert!(check(&cfg2).is_err());
    }
}
