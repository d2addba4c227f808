//! Membership: the fault plan's outages and dead set (under any plan), the
//! crash, reboot, rejoin and partition handlers, the phi-accrual failure
//! detector (membership with a plan), and the epoch view with its commit
//! (membership, or serving's load re-pack).
//!
//! The detector keeps one global evidence table, an abstraction of gossip
//! dissemination: any node's evidence about a peer counts for all. Idle
//! probing is spread over a ring on the view: each silent node is probed
//! by its successor among the unconfirmed nodes, so every node sends at
//! most one probe per heartbeat period and no NIC becomes the liveness hot
//! spot for the whole machine. A raised suspicion is confirmed against the
//! simulator's ground truth, an oracle standing in for SWIM's indirect
//! probes (Das, Gupta and Motivala, DSN 2002).

use super::*;
use std::collections::BTreeMap;
use vt_core::{FxHashSet, SurvivorPacking, TopologyKind};

/// Wire size of a failure-detector heartbeat probe (and its ack).
const PROBE_BYTES: u64 = 16;

/// A failure-detector heartbeat probe frame.
const PROBE: Frame = Frame::Probe(PROBE_BYTES);

/// The first node after `node`, in cyclic node-id order, that `member`
/// accepts: `node`'s successor on the ring of accepted nodes. `None` when
/// no other node is accepted.
///
/// The detector probes each silent node from its successor among the
/// unconfirmed nodes. Every unconfirmed node then has exactly one prober,
/// and probes at most one peer itself (its nearest unconfirmed
/// predecessor), so no NIC carries more than one probe and one ack per
/// heartbeat period. The scans of one sweep cover disjoint arcs of the
/// ring, so a whole sweep stays O(nodes).
fn ring_successor(
    n_nodes: u32,
    node: NodeId,
    mut member: impl FnMut(NodeId) -> bool,
) -> Option<NodeId> {
    (1..n_nodes)
        .map(|k| (node + k) % n_nodes)
        .find(|&p| member(p))
}

/// Certifier consulted on every rung of the repair fallback ladder before
/// an epoch commits: given a topology kind and a survivor count, accept the
/// repaired packing or refuse it (falling the repair to the next-lower
/// rung, ultimately the FCG over the survivors).
///
/// A plain function pointer so the layers above `vt-armci` can inject
/// `vt_analyze::certify_repair` without a dependency cycle (`vt-analyze`
/// depends on this crate). Without a certifier installed, repairs use the
/// structural `TopologyKind::supports`/`try_build` checks only.
pub type RepairCertifier = fn(TopologyKind, u32) -> Result<(), String>;

/// The fault plan's node outages as the engine tracks them.
pub(super) struct Outages {
    /// The installed plan; its partition windows stay resident (heal events
    /// index into them; the detector's grace shield scans them), and its
    /// reboot instants keep a Lost origin's timers alive so the revived
    /// rank retransmits with the same sequence numbers.
    plan: FaultPlan,
    /// Nodes that have crashed so far, sorted (the route-around dead set).
    dead: Vec<NodeId>,
}

impl Outages {
    /// The outages of `plan`, or `None` for an empty plan.
    pub(super) fn new(plan: &FaultPlan) -> Option<Self> {
        (!plan.is_empty()).then(|| Outages {
            plan: plan.clone(),
            dead: Vec::new(),
        })
    }
}

/// The failure detector's evidence: one table for the whole machine, the
/// result gossip would converge to, not one table per observer.
#[derive(Default)]
pub(super) struct Detector {
    /// Last liveness evidence per node.
    last_heard: Vec<SimTime>,
    /// EWMA of inter-evidence intervals per node (ns) — the phi-accrual
    /// expectation a silence is judged against.
    mean_interval_ns: Vec<f64>,
    /// Nodes currently over the phi threshold (de-dupes suspicion counts
    /// until fresh evidence clears the doubt).
    suspected: Vec<bool>,
    /// Confirmed-dead nodes, sorted — the set the next repair packs
    /// around. Lags the engine's omniscient dead set by detection time.
    confirmed: Vec<NodeId>,
    /// Rebooted nodes un-confirmed since the last epoch commit; the commit
    /// that re-admits them counts them as rejoins.
    pending_rejoins: u64,
}

impl Detector {
    /// Live with the membership layer on and a fault plan installed.
    pub(super) fn new(cfg: &RuntimeConfig, plan: &FaultPlan, n_nodes: u32) -> Option<Self> {
        let expected = cfg.membership.heartbeat_period.as_nanos() as f64;
        (cfg.membership.enabled && !plan.is_empty()).then(|| Detector {
            last_heard: vec![SimTime::ZERO; n_nodes as usize],
            mean_interval_ns: vec![expected; n_nodes as usize],
            suspected: vec![false; n_nodes as usize],
            ..Detector::default()
        })
    }
}

/// The membership view: the current epoch and the survivor packing.
pub(super) struct EpochView {
    /// Current membership epoch; requests are stamped with it at issue.
    epoch: u32,
    /// The committed survivor packing; `None` until the first repair.
    pub(super) packing: Option<SurvivorPacking>,
    /// An `EpochCommit` is scheduled (a drain window is running).
    pub(super) pending_commit: bool,
    /// External per-rung repair certifier (see [`RepairCertifier`]).
    certifier: Option<RepairCertifier>,
    /// The topology kind the next epoch commit packs into. Starts as the
    /// configured kind (crash repairs re-pack in place); a load-triggered
    /// re-pack escalates it one rung up the attenuation ladder.
    pub(super) repack_kind: TopologyKind,
}

impl EpochView {
    /// Live under the `detector` or serving's load-triggered re-pack.
    pub(super) fn new(cfg: &RuntimeConfig, detector: bool) -> Option<Self> {
        (detector || (cfg.serve.enabled && cfg.serve.load_repack)).then_some(EpochView {
            epoch: 0,
            packing: None,
            pending_commit: false,
            certifier: None,
            repack_kind: cfg.topology,
        })
    }
}

impl Engine {
    /// Installs the external topology certifier consulted on every rung of
    /// the repair fallback ladder before an epoch commits (typically
    /// `vt_analyze::certify_repair`, injected from the layers above to
    /// avoid a dependency cycle). Without one, repairs rely on structural
    /// checks only; without an epoch view nothing is ever repaired.
    pub fn set_repair_certifier(&mut self, certifier: RepairCertifier) {
        if let Some(v) = &mut self.view {
            v.certifier = Some(certifier);
        }
    }

    /// Schedules an `EpochCommit` after the drain window unless one is
    /// already pending.
    pub(super) fn request_commit(&mut self, now: SimTime) {
        if let Some(v) = self.view.as_mut().filter(|v| !v.pending_commit) {
            v.pending_commit = true;
            let at = now + self.cfg.membership.drain_window;
            self.queue.schedule(at, Event::EpochCommit);
        }
    }

    /// Nodes that have crashed so far, sorted (the route-around dead set).
    pub(super) fn dead(&self) -> &[NodeId] {
        self.outages.as_ref().map_or(&[], |o| &o.dead)
    }

    /// The current membership epoch (always 0 without an epoch view).
    pub(super) fn epoch(&self) -> u32 {
        self.view.as_ref().map_or(0, |v| v.epoch)
    }

    /// The plan's reboot instant for `node` (`None`: it never reboots).
    pub(super) fn restart_time(&self, node: NodeId) -> Option<SimTime> {
        self.outages
            .as_ref()
            .and_then(|o| o.plan.restart_time(node))
    }

    /// Schedules the plan's crashes, reboots and heals and the first sweep.
    pub(super) fn schedule_outages(&mut self) {
        let Some(o) = &self.outages else {
            return;
        };
        for c in &o.plan.node_crashes {
            self.queue.schedule(c.at, Event::NodeCrash { node: c.node });
        }
        for r in &o.plan.node_restarts {
            self.queue
                .schedule(r.at, Event::NodeRestart { node: r.node });
        }
        for (idx, w) in o.plan.partitions.iter().enumerate() {
            self.queue
                .schedule(w.until, Event::PartitionHeal { idx: idx as u32 });
        }
        if self.detector.is_some() {
            self.queue
                .schedule(self.cfg.membership.heartbeat_period, Event::MembershipTick);
        }
    }

    /// Whether `req` is from an earlier epoch, routed against a packing that
    /// no longer exists. The caller rejects it (freeing the upstream
    /// buffer) and the origin's timer replays it, so it counts as replayed.
    pub(super) fn reject_stale(&mut self, req: ReqId) -> bool {
        let stale = self.requests[req as usize].epoch < self.epoch();
        self.repair.replayed_requests += u64::from(stale);
        stale
    }

    /// Whether `node` is dead *and staying dead*: inside an outage window
    /// with no reboot still ahead. A node that the plan revives later is
    /// treated as recoverable — operations aimed at it keep their retry
    /// timers instead of failing fast.
    pub(super) fn node_gone(&self, node: NodeId, now: SimTime) -> bool {
        self.net.node_dead(node, now) && self.restart_time(node).is_none_or(|r| r <= now)
    }

    /// Whether an operation with no live route to `target` should wait on
    /// its retry timer instead of failing: the target will live, and a
    /// repair or a scheduled reboot will restore a route.
    pub(super) fn route_may_return(&self, now: SimTime, target: NodeId) -> bool {
        let revival_ahead = self
            .dead()
            .iter()
            .any(|&n| self.restart_time(n).is_some_and(|r| r > now));
        (self.detector.is_some() || revival_ahead) && !self.node_gone(target, now)
    }

    /// A scheduled node crash fires: the node's CHT, NIC and resident ranks
    /// die. The CHT restarts empty and idle: its queued copies are
    /// destroyed, and the copies in service, parked or still arriving die
    /// when their events find the node's incarnation moved on (see
    /// [`Engine::destroy_copy`]). The network drops traffic to the node
    /// from here on.
    pub(super) fn node_crash(&mut self, now: SimTime, node: NodeId) {
        if let Some(o) = &mut self.outages {
            if let Err(pos) = o.dead.binary_search(&node) {
                o.dead.insert(pos, node);
            }
        }
        for r in 0..self.cfg.n_procs {
            let rank = Rank(r);
            if self.layout.node_of(rank) != node {
                continue;
            }
            let phase = self.procs[rank.idx()].phase;
            if matches!(phase, Phase::Done | Phase::Lost | Phase::Failed) {
                continue;
            }
            if phase == Phase::InBarrier {
                self.barrier_waiting.retain(|&w| w != rank);
            }
            if let Some(p) = self.procs[rank.idx()]
                .pending
                .filter(|_| phase == Phase::WaitingCredit)
            {
                // The blocked issue dies with its wait; the reboot re-drives
                // the operation.
                let key = self.requests[p as usize].hop_key(self.requests[p as usize].fwd_next);
                self.credits.take_waiters(key, |w| *w == Waiter::Proc(rank));
            }
            // Snapshot what the crash interrupted: a scheduled reboot
            // restores (or resolves) it.
            self.procs[rank.idx()].saved_phase = phase;
            self.procs[rank.idx()].saved_barrier_gen = self.barrier_gen;
            self.procs[rank.idx()].phase = Phase::Lost;
            self.lost_count += 1;
        }
        for req in self.chts[node as usize].crash() {
            self.destroy_copy(now, node, req);
        }
        self.maybe_release_barrier(now);
    }

    /// A scheduled node reboot fires: drop the node from the route-around
    /// dead set, restore its Lost resident ranks to the
    /// phase the crash interrupted, and re-drive their in-flight
    /// operations. Re-issued attempts keep their original sequence
    /// numbers, so the target-side dedup table keeps every operation
    /// exactly-once across the crash→reboot cycle. With the detector live
    /// the node also starts announcing itself, feeding it the evidence
    /// that grows the view back (see [`Engine::rejoin_announce`]).
    pub(super) fn node_restart(&mut self, now: SimTime, node: NodeId) {
        if let Some(o) = &mut self.outages {
            if let Ok(pos) = o.dead.binary_search(&node) {
                o.dead.remove(pos);
            }
        }
        // Scan the slab for the node's unfinished work *before* restoring
        // phases (the filter keys on `Lost`). Slots are recycled, so age is
        // the allocation stamp, not the index: each open operation re-arms
        // its newest attempt, which minimises redundant chains.
        let mut rearm: BTreeMap<(u32, u64), ReqId> = BTreeMap::new();
        let mut lost_completions: Vec<ReqId> = Vec::new();
        let mut revived: Vec<ReqId> = Vec::new();
        for (id, r) in self.requests.iter().enumerate() {
            let id = id as ReqId;
            if !r.live || r.serve || r.origin_node != node {
                continue;
            }
            if self.procs[r.origin.idx()].phase != Phase::Lost {
                continue;
            }
            revived.push(id);
            match self.op_state(r) {
                // The first response landed on this slot during the outage
                // (e.g. an intra-node one): finalise the operation at
                // revival. Operations completed before the crash are not
                // finalised again through their superseded attempts.
                OpState::Landed(landed) if landed == id => lost_completions.push(id),
                // Intra-node operations have no timers — their shared-
                // memory responses are still queued and complete normally.
                OpState::Open if r.target_node != r.origin_node => {
                    let newest = rearm.entry((r.origin.0, r.seq)).or_insert(id);
                    if r.stamp > self.requests[*newest as usize].stamp {
                        *newest = id;
                    }
                }
                _ => {}
            }
        }
        for r in 0..self.cfg.n_procs {
            let rank = Rank(r);
            if self.layout.node_of(rank) != node || self.procs[rank.idx()].phase != Phase::Lost {
                continue;
            }
            self.lost_count -= 1;
            let saved = self.procs[rank.idx()].saved_phase;
            let phase = match saved {
                Phase::InBarrier => {
                    if self.procs[rank.idx()].saved_barrier_gen == self.barrier_gen {
                        // Its barrier has not released (lost ranks are
                        // excluded from the count, so it *can* release
                        // mid-outage — the generation check catches that):
                        // rejoin the rendezvous.
                        self.barrier_waiting.push(rank);
                        Phase::InBarrier
                    } else {
                        // The barrier released during the outage: the rank
                        // missed the rendezvous; resume past it.
                        self.queue.schedule(now, Event::ProcReady(rank));
                        Phase::Running
                    }
                }
                Phase::WaitingCredit => {
                    // The crash destroyed the parked issue; the re-armed
                    // timer re-drives the operation through the retry
                    // path, so the rank waits on its response instead.
                    let parked = self.procs[rank.idx()].pending.take();
                    if parked.is_some_and(|id| self.requests[id as usize].blocking) {
                        Phase::WaitingResponse
                    } else {
                        self.queue.schedule(now, Event::ProcReady(rank));
                        Phase::Running
                    }
                }
                Phase::Running => {
                    self.queue.schedule(now, Event::ProcReady(rank));
                    Phase::Running
                }
                other => other,
            };
            self.procs[rank.idx()].phase = phase;
        }
        // Finalise operations that completed while the rank was down, now
        // that its phase is restored (the crash-time response handler
        // early-returned before touching the rank's accounting), in
        // allocation order.
        lost_completions.sort_unstable_by_key(|&id| self.requests[id as usize].stamp);
        for req in lost_completions {
            self.complete(now, req);
        }
        // The revived origins no longer hold their finished slots.
        for req in revived {
            self.release(req);
        }
        // Fresh response timers for the surviving in-flight work, in
        // allocation order: the old timers died with the node (their
        // firings found a Lost origin).
        let mut rearm_ids: Vec<ReqId> = rearm.into_values().collect();
        rearm_ids.sort_unstable_by_key(|&id| self.requests[id as usize].stamp);
        for req in rearm_ids {
            self.arm_timeout(now, req);
        }
        if self.detector.is_some() {
            self.queue.schedule(now, Event::RejoinAnnounce { node });
        }
    }

    /// A rebooted node announces itself so the membership layer gathers
    /// rejoin evidence: the failure detector never probes a *confirmed*
    /// node and the revived ranks' own traffic is unroutable until the
    /// grow-back epoch commits, so without this the view would never heal.
    /// The announcement is an ordinary droppable probe to the node's ring
    /// successor among the live peers still in the view (see
    /// [`ring_successor`]), so announcements spread over the ring like
    /// probes; it re-arms each heartbeat period until the node is no
    /// longer confirmed dead.
    pub(super) fn rejoin_announce(&mut self, now: SimTime, node: NodeId) {
        // Re-admitted (or crashed again): nothing to announce; quiescent:
        // let the run end.
        let confirmed = self.detector.as_ref().map_or(&[][..], |d| &d.confirmed);
        if confirmed.binary_search(&node).is_err()
            || self.net.node_dead(node, now)
            || self.quiescent()
        {
            return;
        }
        let peer = ring_successor(self.layout.num_nodes(), node, |p| {
            confirmed.binary_search(&p).is_err() && !self.net.node_dead(p, now)
        });
        if let Some(peer) = peer {
            self.repair.probes += 1;
            if let Ok((arrival, _)) = self.transmit(now, node, peer, PROBE) {
                self.queue.schedule(
                    arrival,
                    Event::ProbeArrive {
                        node: peer,
                        prober: node,
                    },
                );
            }
        }
        self.queue.schedule(
            now + self.cfg.membership.heartbeat_period,
            Event::RejoinAnnounce { node },
        );
    }

    /// A partition window ends: count the heal and (with the detector
    /// live) reset the evidence clocks of the nodes the cut involved — the
    /// detector grants them a fresh grace period instead of charging them
    /// for the backlog of silence the cut caused.
    pub(super) fn partition_heal(&mut self, now: SimTime, idx: u32) {
        self.faults.partitions_healed += 1;
        let (Some(o), Some(d)) = (&self.outages, &mut self.detector) else {
            return;
        };
        for node in 0..self.layout.num_nodes() {
            if o.plan.partitions[idx as usize].involves(node)
                && d.confirmed.binary_search(&node).is_err()
            {
                d.last_heard[node as usize] = now;
                d.suspected[node as usize] = false;
            }
        }
    }

    /// Whether any partition window is active at `now` with `node` on
    /// either side of the cut (the detector's grace shield).
    fn partition_involves(&self, now: SimTime, node: NodeId) -> bool {
        self.outages.as_ref().is_some_and(|o| {
            o.plan
                .partitions
                .iter()
                .any(|w| now >= w.from && now < w.until && w.involves(node))
        })
    }

    /// Records fresh liveness evidence for `node` and updates its
    /// phi-accrual expectation. No-op without the detector.
    pub(super) fn heard_from(&mut self, node: NodeId, now: SimTime) {
        let Some(m) = &mut self.detector else {
            return;
        };
        if let Ok(pos) = m.confirmed.binary_search(&node) {
            if self.net.node_dead(node, now) {
                // Stale in-flight evidence sent before the crash: a buried
                // node must stay buried.
                return;
            }
            // Fresh evidence from a node the view declared dead: it
            // rebooted. Un-confirm it and schedule a grow-back epoch that
            // re-admits it — the commit re-packs the enlarged survivor
            // set back up the fallback ladder towards the original kind,
            // certified rung by rung like any crash repair.
            m.confirmed.remove(pos);
            m.suspected[node as usize] = false;
            m.last_heard[node as usize] = now;
            m.pending_rejoins += 1;
            self.request_commit(now);
            return;
        }
        let idx = node as usize;
        let interval = (now - m.last_heard[idx]).as_nanos() as f64;
        m.mean_interval_ns[idx] = 0.8 * m.mean_interval_ns[idx] + 0.2 * interval;
        m.last_heard[idx] = now;
        m.suspected[idx] = false;
    }

    /// The failure detector's periodic sweep: probe each silent peer from
    /// its ring successor in the view (see [`ring_successor`]: at most one
    /// probe per node per period), accrue suspicion against the expected
    /// evidence interval, and confirm crashes (scheduling an epoch commit
    /// after the drain window). The prober is chosen from the view alone;
    /// confirmation reads the simulator's ground truth as an oracle for
    /// SWIM's indirect probes.
    pub(super) fn membership_tick(&mut self, now: SimTime) {
        if self.quiescent() {
            return; // Quiescent: stop ticking so the run can end.
        }
        // The sweep sends probes while it updates the detector, so the
        // detector moves out for its duration; nothing the sweep calls reads it.
        let Some(mut d) = self.detector.take() else {
            return;
        };
        let n_nodes = self.layout.num_nodes();
        let period = self.cfg.membership.heartbeat_period;
        for node in 0..n_nodes {
            if d.confirmed.binary_search(&node).is_ok() {
                continue;
            }
            let idx = node as usize;
            let elapsed = now - d.last_heard[idx];
            if elapsed < period {
                continue;
            }
            // Idle-probe fallback: the silent peer's ring successor in the
            // view pings it; a live peer's ack restores its evidence
            // stream. Probes are real droppable messages.
            let prober = ring_successor(n_nodes, node, |p| d.confirmed.binary_search(&p).is_err());
            if let Some(prober) = prober {
                self.repair.probes += 1;
                if let Ok((arrival, _)) = self.transmit(now, prober, node, PROBE) {
                    self.queue
                        .schedule(arrival, Event::ProbeArrive { node, prober });
                }
            }
            let expected = d.mean_interval_ns[idx].max(period.as_nanos() as f64);
            let phi = elapsed.as_nanos() as f64 / expected;
            if phi >= self.cfg.membership.phi_threshold && !d.suspected[idx] {
                if self.partition_involves(now, node) {
                    // Grace shield: an active cut explains the silence, so
                    // the suspicion is held rather than raised — a
                    // partition that heals in time never reaches the
                    // confirmation round, let alone a spurious epoch. The
                    // evidence clock restarts so the charge doesn't re-
                    // accrue until another full period of real silence.
                    self.repair.false_suspicions_suppressed += 1;
                    d.last_heard[idx] = now;
                    continue;
                }
                d.suspected[idx] = true;
                self.repair.suspicions += 1;
                if self.net.node_dead(node, now) {
                    // Confirmation round, read from ground truth as an
                    // oracle for SWIM's indirect probes: the peer is gone.
                    // Record it and schedule the repair once the drain
                    // window elapses.
                    if let Err(pos) = d.confirmed.binary_search(&node) {
                        d.confirmed.insert(pos, node);
                    }
                    self.request_commit(now);
                } else {
                    // Confirmation round exonerated the peer (a SWIM-style
                    // indirect probe got through): false alarm, reset.
                    self.repair.false_suspicions += 1;
                    d.suspected[idx] = false;
                    d.last_heard[idx] = now;
                }
            }
        }
        self.detector = Some(d);
        self.queue.schedule(now + period, Event::MembershipTick);
    }

    /// A heartbeat probe landed: a live node acks it (the ack is the
    /// detector's evidence); a dead node stays silent.
    pub(super) fn probe_arrive(&mut self, now: SimTime, node: NodeId, prober: NodeId) {
        if self.net.node_dead(node, now) {
            return;
        }
        // Receiving a probe is itself evidence that the prober is alive.
        self.heard_from(prober, now);
        // The ack is a plain probe-sized message, not a probe of its own.
        if let Ok((arrival, _)) = self.transmit(now, node, prober, Frame::Message(PROBE_BYTES)) {
            self.queue.schedule(arrival, Event::ProbeAck { node });
        }
    }

    /// The drain window after a confirmed crash (or a load-triggered
    /// re-pack request) elapsed: recompute the lowest-dimension-first
    /// packing over the survivors (walking the fallback ladder past any
    /// rung the installed certifier refuses), re-derive the per-node
    /// buffer pools, and bump the epoch so stale copies routed against the
    /// old packing are rejected on arrival.
    pub(super) fn epoch_commit(&mut self) {
        let new_epoch = self.epoch() + 1;
        // Old-epoch operations still in flight at the commit: they drain
        // through stale rejection + origin retransmission, not blocking.
        let mut drained: FxHashSet<(u32, u64)> = FxHashSet::default();
        for r in &self.requests {
            // Serve-mode origins are `Done` by design; their in-flight
            // requests still drain through the stale-rejection machinery.
            if r.live
                && r.epoch < new_epoch
                && !self.resolved(r)
                && (r.serve
                    || !matches!(
                        self.procs[r.origin.idx()].phase,
                        Phase::Done | Phase::Lost | Phase::Failed
                    ))
            {
                drained.insert((r.origin.0, r.seq));
            }
        }
        let Some(v) = &mut self.view else {
            return;
        };
        v.pending_commit = false;
        let n_nodes = self.layout.num_nodes();
        let dead = self
            .detector
            .as_ref()
            .map_or(Vec::new(), |d| d.confirmed.clone());
        // A load-triggered re-pack switches the target kind; crash repairs
        // leave it at the configured topology.
        let kind = v.repack_kind;
        let repacked = match v.certifier {
            Some(cert) => vt_core::repack_with(kind, n_nodes, &dead, cert),
            None => vt_core::repack(kind, n_nodes, &dead),
        };
        let Ok(packing) = repacked else {
            // Every rung refused (only possible with a certifier that
            // rejects even the FCG terminal): keep the previous view — the
            // retry machinery keeps diagnosing unreachable operations.
            return;
        };
        v.epoch = new_epoch;
        self.repair.epoch_bumps += 1;
        self.repair.final_epoch = u64::from(new_epoch);
        self.repair.rejoins_committed += self
            .detector
            .as_mut()
            .map_or(0, |d| std::mem::take(&mut d.pending_rejoins));
        self.repair.fallback_depth = self.repair.fallback_depth.max(packing.fallback_depth());
        self.repair.drained_requests += drained.len() as u64;
        // Re-derive the survivors' buffer pools for the repaired grid: the
        // CHT cache-pressure term now reflects the new edge set.
        for phys in 0..n_nodes {
            if let Some(slot) = packing.slot_of(phys) {
                self.cht_pool_extra[phys as usize] = pool_pressure(&self.cfg, packing.grid(), slot);
            }
        }
        v.packing = Some(packing);
        self.load_repack_landed(kind);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::super::tests::{run_all, run_all_faulted, small_cfg};
    use super::*;
    use crate::workload::ScriptProgram;

    #[test]
    fn membership_repairs_boundary_victim_crash() {
        // 5x5 MFCG with 23 populated: node 2 is the *sole* escape hop
        // between (3,0) = node 3 and (2,4) = node 22, so retry and
        // route-around alone cannot survive its crash (the static
        // analyzer refuses the configuration — see vt-analyze's
        // boundary_crash_on_partial_packing_is_refused). With membership
        // on, the failure detector confirms the crash, an epoch commits a
        // survivor re-packing, and the deferred operation completes over
        // the repaired grid.
        let mut cfg = small_cfg(23, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        cfg.membership = crate::config::MembershipConfig::on();
        let plan = FaultPlan::new().crash_node(SimTime::ZERO, 2);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(3) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::fetch_add(
                    Rank(22),
                    1,
                ))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.metrics.per_rank[3].ops, 1);
        assert_eq!(report.credit_leaks, 0);
        assert_eq!(report.repair.epoch_bumps, 1, "{:?}", report.repair);
        assert_eq!(report.repair.final_epoch, 1);
        assert!(report.repair.suspicions >= 1);
        // MFCG supports 22 nodes as a partial packing: no fallback rung.
        assert_eq!(report.repair.fallback_depth, 0);
    }

    #[test]
    fn membership_off_boundary_victim_crash_still_fails() {
        // The contrast pin: the same crash without membership exhausts
        // the retry budget and is diagnosed, exactly as before this
        // subsystem existed.
        let mut cfg = small_cfg(23, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        let plan = FaultPlan::new().crash_node(SimTime::ZERO, 2);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(3) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::fetch_add(
                    Rank(22),
                    1,
                ))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.repair, crate::metrics::RepairStats::default());
    }

    #[test]
    fn membership_repairs_cfcg_boundary_victim() {
        // The CFCG sibling: 4x3x3 with 29 populated, node 24 = (0,0,2)
        // is the sole in-slice forwarder toward (0,1,2) = node 28.
        let mut cfg = small_cfg(29, TopologyKind::Cfcg);
        cfg.procs_per_node = 1;
        cfg.membership = crate::config::MembershipConfig::on();
        let plan = FaultPlan::new().crash_node(SimTime::ZERO, 24);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(25) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::fetch_add(
                    Rank(28),
                    1,
                ))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.metrics.per_rank[25].ops, 1);
        assert_eq!(report.credit_leaks, 0);
        assert!(report.repair.epoch_bumps >= 1, "{:?}", report.repair);
    }

    #[test]
    fn stale_epoch_copies_are_rejected_and_replayed_exactly_once() {
        // A mid-flight crash: traffic is flowing through the victim when
        // it dies, so old-epoch copies are genuinely in flight across the
        // commit. The fetch-add chain must still execute exactly once
        // per op (final counter equals the op count) with zero leaks.
        let mut cfg = small_cfg(23, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        cfg.membership = crate::config::MembershipConfig::on();
        let plan = FaultPlan::new().crash_node(SimTime::from_micros(50), 2);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r.0 % 3 == 0 && r != Rank(22) && r != Rank(2) {
                Box::new(ScriptProgram::new(vec![
                    Action::Op(Op::fetch_add(Rank(22), 1)),
                    Action::Op(Op::fetch_add(Rank(22), 1)),
                ]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.credit_leaks, 0);
        let issuers = (0..23u32).filter(|r| r % 3 == 0 && *r != 2).count() as i64;
        assert_eq!(report.fetch_finals[22], issuers * 2);
        assert_eq!(report.repair.final_epoch, 1);
    }

    #[test]
    fn membership_with_empty_plan_is_byte_identical() {
        // Enabling membership without any scheduled fault must not
        // change a single event: the detector needs a fault plan.
        let mk = |r: Rank| -> Box<dyn Program> {
            Box::new(ScriptProgram::new(vec![
                Action::Op(Op::put_v(Rank((r.0 + 3) % 16), 4, 768)),
                Action::Barrier,
                Action::Op(Op::fetch_add(Rank(0), 1)),
            ]))
        };
        let a = run_all(small_cfg(16, TopologyKind::Cfcg), mk);
        let mut cfg = small_cfg(16, TopologyKind::Cfcg);
        cfg.membership = crate::config::MembershipConfig::on();
        let b = run_all_faulted(cfg, &FaultPlan::default(), mk);
        assert_eq!(a.finish_time, b.finish_time);
        assert_eq!(a.events, b.events);
        assert_eq!(a.net, b.net);
        assert_eq!(b.repair, crate::metrics::RepairStats::default());
    }

    #[test]
    fn repair_certifier_refusal_falls_down_the_ladder() {
        // A certifier that rejects everything except the FCG terminal
        // rung forces the repair to fall the whole ladder; the run still
        // completes, with the depth recorded.
        fn fcg_only(kind: TopologyKind, _survivors: u32) -> Result<(), String> {
            if kind == TopologyKind::Fcg {
                Ok(())
            } else {
                Err("synthetic refusal".to_string())
            }
        }
        let mut cfg = small_cfg(23, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        cfg.membership = crate::config::MembershipConfig::on();
        let plan = FaultPlan::new().crash_node(SimTime::ZERO, 2);
        let programs: Vec<Box<dyn Program>> = (0..23)
            .map(|r| {
                Box::new(ScriptProgram::new(if r == 3 {
                    vec![Action::Op(Op::fetch_add(Rank(22), 1))]
                } else {
                    vec![]
                })) as Box<dyn Program>
            })
            .collect();
        let mut engine = Engine::with_faults(cfg, programs, &plan);
        engine.set_repair_certifier(fcg_only);
        let report = engine.run().unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.metrics.per_rank[3].ops, 1);
        // Mfcg -> Fcg is one rung down the ladder.
        assert_eq!(report.repair.fallback_depth, 1, "{:?}", report.repair);
    }

    #[test]
    fn rejoin_grows_view_back_to_original_kind() {
        // The PR 4 boundary pin, continued: node 2 (sole escape hop on the
        // 23-node MFCG) crashes, membership commits a 22-survivor repair,
        // then the node reboots. Its announcements feed the detector fresh
        // evidence, a grow-back epoch re-admits it, and the second
        // operation runs over the restored full packing — original kind,
        // fallback depth 0 throughout.
        let mut cfg = small_cfg(23, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        cfg.membership = crate::config::MembershipConfig::on();
        let plan = FaultPlan::new()
            .crash_node(SimTime::ZERO, 2)
            .restart_node(SimTime::from_millis(20), 2);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(3) {
                Box::new(ScriptProgram::new(vec![
                    Action::Op(Op::fetch_add(Rank(22), 1)),
                    Action::Compute(SimTime::from_millis(35)),
                    Action::Op(Op::fetch_add(Rank(22), 1)),
                ]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.metrics.per_rank[3].ops, 2);
        assert_eq!(report.fetch_finals[22], 2);
        assert_eq!(report.repair.rejoins_committed, 1, "{:?}", report.repair);
        assert_eq!(report.repair.epoch_bumps, 2, "crash repair + grow-back");
        assert_eq!(report.repair.final_epoch, 2);
        assert_eq!(report.repair.fallback_depth, 0);
        assert_eq!(report.credit_leaks, 0);
        assert!(report.lost_ranks.is_empty());
    }

    /// A remote blocking fetch-add slot of `origin` (on node 1) to rank 0.
    fn slot(origin: u32, seq: u64, attempt: u32) -> Request {
        Request {
            op: Op::fetch_add(Rank(0), 1),
            origin: Rank(origin),
            origin_node: 1,
            target_node: 0,
            issued: SimTime::ZERO,
            prev_sender: Sender::Proc(Rank(origin)),
            prev_node: 1,
            blocking: true,
            resp_value: None,
            credit_held: false,
            live: true,
            refs: 0,
            stamp: 0,
            seq,
            attempt,
            vc_class: 0,
            fwd_next: 1,
            fwd_class: 0,
            env_slot: NO_ENV,
            epoch: 0,
            serve: false,
            backoff_prev: SimTime::ZERO,
        }
    }

    #[test]
    fn reboot_follows_allocation_order_over_recycled_slots() {
        // Two nodes at 4 ppn; node 1 (ranks 4..8) crashes and reboots.
        let cfg = small_cfg(8, TopologyKind::Fcg);
        let plan = FaultPlan::new()
            .crash_node(SimTime::from_micros(10), 1)
            .restart_node(SimTime::from_micros(20), 1);
        let programs = (0..8)
            .map(|_| Box::new(ScriptProgram::new(vec![])) as Box<dyn Program>)
            .collect();
        let mut e = Engine::with_faults(cfg, programs, &plan);
        // Allocation order: a short op F, op X's first attempt, op Y's
        // second attempt, op Z's two attempts, op L.
        let f = e.alloc_request(slot(4, 0, 0));
        let x_old = e.alloc_request(slot(5, 1, 0));
        let y = e.alloc_request(slot(6, 2, 1));
        let z_old = e.alloc_request(slot(7, 3, 0));
        let z_new = e.alloc_request(slot(7, 3, 1));
        let l = e.alloc_request(slot(4, 4, 0));
        e.procs[4].outstanding = 1;
        // Z and then F complete: F's slot is recycled for X's
        // retransmission, so the newer attempt sits below the older one.
        for done in [z_new, f] {
            let r = e.requests[done as usize];
            e.settle(&r);
            e.journey_ended(done);
        }
        let x_new = e.alloc_request(slot(5, 1, 1));
        assert_eq!(x_new, f, "the retransmission reuses the freed slot");
        assert!(x_new < x_old && x_new < y);

        e.node_crash(SimTime::from_micros(10), 1);
        // L's response lands while its rank is down.
        e.response_arrive(SimTime::from_micros(15), l);
        assert!(e.requests[l as usize].live, "a Lost origin keeps its slots");
        e.node_restart(SimTime::from_micros(20), 1);

        let mut armed = Vec::new();
        while let Some((_, ev)) = e.queue.pop() {
            if let Event::Timeout { req } = ev {
                armed.push(req);
            }
        }
        // Each open operation re-arms its newest attempt, and the timers
        // (same attempt, same deadline) fire in allocation order.
        assert_eq!(armed, vec![y, x_new]);
        assert_eq!(e.requests[x_old as usize].refs, 1, "only its copy");
        // L completes once at the reboot and frees its slot; Z completed
        // before the crash and its superseded attempt does not complete it
        // again.
        assert_eq!(e.procs[4].completed_ops, 1);
        assert!(!e.requests[l as usize].live);
        assert_eq!(e.procs[7].completed_ops, 0);
        assert!(e.requests[z_old as usize].live, "its copy may still land");
    }

    /// A 3x3 MFCG engine at 1 ppn under `plan(f, next)`: rank 8's
    /// fetch-adds to rank 0 are forwarded once, by node `f`, to `next`.
    fn one_forward(
        coalesce: bool,
        plan: impl Fn(NodeId, NodeId) -> FaultPlan,
    ) -> (Engine, NodeId, NodeId) {
        let mut cfg = small_cfg(9, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        if coalesce {
            cfg.coalesce = crate::config::CoalesceConfig::on();
        }
        let idle = || {
            (0..9)
                .map(|_| Box::new(ScriptProgram::new(vec![])) as Box<dyn Program>)
                .collect()
        };
        let probe = Engine::new(cfg, idle());
        let (f, _, _) = probe.next_hop(8, 8, 0, 0).unwrap();
        let (next, _, _) = probe.next_hop(8, f, 0, 0).unwrap();
        (Engine::with_faults(cfg, idle(), &plan(f, next)), f, next)
    }

    /// Lands a fetch-add of rank 8 at `f` on its upstream credit and
    /// queues it there; returns the copy and that credit.
    fn land(e: &mut Engine, f: NodeId, op: Op, seq: u64) -> (ReqId, CreditKey) {
        let req = e.alloc_request(Request {
            op,
            origin: Rank(8),
            origin_node: 8,
            target_node: e.layout.node_of(op.target),
            prev_sender: Sender::Proc(Rank(8)),
            prev_node: 8,
            ..slot(8, seq, 0)
        });
        let up = e.requests[req as usize].hop_key(f);
        assert!(e.credits.try_acquire(up));
        e.chts[f as usize].enqueue(req);
        (req, up)
    }

    /// Runs every queued event.
    fn drain(e: &mut Engine) {
        while let Some((now, ev)) = e.queue.pop() {
            e.dispatch(now, ev);
        }
    }

    #[test]
    fn forward_parked_across_a_reboot_dies_with_its_node() {
        let (crash, reboot) = (SimTime::from_micros(10), SimTime::from_micros(20));
        let (mut e, f, next) = one_forward(false, |f, _| {
            FaultPlan::new()
                .crash_node(crash, f)
                .restart_node(reboot, f)
        });
        // Every downstream credit of `f` is out, so the forward parks.
        let (_, up) = land(&mut e, f, Op::fetch_add(Rank(0), 1), 0);
        let down = CreditKey::cht(f, next, 0);
        while e.credits.try_acquire(down) {}
        e.cht_try_start(SimTime::from_micros(5), f);
        assert_eq!(e.credits.blocked_count(), 1, "the forward parked");

        e.node_crash(crash, f);
        e.node_restart(reboot, f);
        // A downstream credit comes home after the reboot: the parked copy
        // died with the old incarnation, so the grant passes on.
        e.ack_arrive(SimTime::from_micros(30), down);
        assert_eq!(
            e.chts[f as usize].queue_len(),
            0,
            "the dead copy is not served"
        );
        assert_eq!(e.credits.blocked_count(), 0);
        let out = e.cfg.buffers_per_proc - 1;
        assert_eq!(e.credits.in_flight(down), out);
        // The copy's upstream buffer comes back by its owner's reclaim
        // timer.
        drain(&mut e);
        assert_eq!(e.faults.reclaims, 1);
        assert_eq!(e.credits.in_flight(up), 0);
        assert_eq!(e.credits.total_in_flight(), u64::from(out));
    }

    #[test]
    fn granted_forward_queued_at_a_crash_passes_its_credit_on() {
        let crash = SimTime::from_micros(6) + SimTime::from_nanos(1);
        let (mut e, f, next) = one_forward(false, |f, _| FaultPlan::new().crash_node(crash, f));
        // B parks on exhausted downstream credits; A, terminal at `f`,
        // starts service; B's grant lands while A is in service.
        land(&mut e, f, Op::fetch_add(Rank(0), 1), 0);
        let down = CreditKey::cht(f, next, 0);
        while e.credits.try_acquire(down) {}
        e.cht_try_start(SimTime::from_micros(5), f);
        land(&mut e, f, Op::fetch_add(Rank(f), 1), 1);
        e.cht_try_start(SimTime::from_micros(6), f);
        e.ack_arrive(SimTime::from_micros(6), down);
        assert_eq!(
            e.chts[f as usize].queue_len(),
            1,
            "B queued, credit in hand"
        );

        e.node_crash(crash, f);
        let out = e.cfg.buffers_per_proc - 1;
        assert_eq!(e.credits.in_flight(down), out, "B's credit passed on");
        assert!(!e.chts[f as usize].is_busy(), "the CHT restarts idle");
        // A's service end finds the node crashed: A is destroyed, not
        // applied. Both upstream buffers come back by reclaim timers.
        drain(&mut e);
        assert_eq!(e.fetch_counters[f as usize], 0);
        assert_eq!(e.faults.reclaims, 2);
        assert_eq!(e.credits.total_in_flight(), u64::from(out));
    }

    #[test]
    fn envelope_in_assembly_dies_with_its_node() {
        let crash = SimTime::from_micros(10) + SimTime::from_nanos(1);
        let (mut e, f, next) = one_forward(true, |f, _| FaultPlan::new().crash_node(crash, f));
        let (_, up) = land(&mut e, f, Op::fetch_add(Rank(0), 1), 0);
        land(&mut e, f, Op::fetch_add(Rank(0), 1), 1);
        e.cht_try_start(SimTime::from_micros(10), f);
        // Both fold into one envelope on the head's downstream credit.
        assert_eq!(e.envelopes.len(), 1);
        assert_eq!(e.credits.in_flight(up), 2);
        assert_eq!(e.credits.in_flight(CreditKey::cht(f, next, 0)), 1);

        e.node_crash(crash, f);
        drain(&mut e);
        assert_eq!(e.coalesce.envelopes, 0, "the envelope never left");
        assert_eq!(e.faults.reclaims, 2, "one per member's upstream buffer");
        assert_eq!(e.credits.total_in_flight(), 0);
    }

    #[test]
    fn request_landing_after_its_receiver_crashed_is_reclaimed() {
        let crash = SimTime::from_millis(1);
        let (mut e, f, _) = one_forward(false, |f, _| FaultPlan::new().crash_node(crash, f));
        let (req, up) = land(&mut e, f, Op::fetch_add(Rank(0), 1), 0);
        e.chts[f as usize].pop_head();
        e.send_request(SimTime::from_micros(10), req, 8, f);
        // The network accepted the request at `f` before the crash; it is
        // delivered only after it.
        let (_, landing) = e.queue.pop().unwrap();
        assert!(matches!(landing, Event::RequestArrive { .. }));
        e.node_crash(crash, f);
        e.dispatch(crash + SimTime::from_micros(1), landing);
        assert_eq!(e.chts[f as usize].queue_len(), 0, "never queued");
        drain(&mut e);
        assert_eq!(e.faults.reclaims, 1);
        assert_eq!(e.credits.in_flight(up), 0);
        assert_eq!(e.fetch_counters[0], 0);
    }

    #[test]
    fn envelope_landing_after_its_receiver_crashed_is_reclaimed() {
        let crash = SimTime::from_millis(1);
        let (mut e, f, next) =
            one_forward(true, |_, next| FaultPlan::new().crash_node(crash, next));
        land(&mut e, f, Op::fetch_add(Rank(0), 1), 0);
        land(&mut e, f, Op::fetch_add(Rank(0), 1), 1);
        e.cht_try_start(SimTime::from_micros(10), f);
        // Run until the network accepted the envelope at `next`...
        let landing = loop {
            let (now, ev) = e.queue.pop().unwrap();
            if let Event::EnvelopeArrive { .. } = ev {
                break ev;
            }
            e.dispatch(now, ev);
        };
        assert_eq!(e.coalesce.envelopes, 1);
        // ...and deliver it only after `next` crashed.
        e.node_crash(crash, next);
        e.dispatch(crash + SimTime::from_micros(1), landing);
        assert_eq!(e.chts[next as usize].queue_len(), 0);
        drain(&mut e);
        assert_eq!(e.fetch_counters[0], 0);
        assert_eq!(e.faults.reclaims, 1, "the envelope's single credit");
        assert_eq!(e.credits.total_in_flight(), 0);
    }

    #[test]
    fn one_sweep_sends_at_most_one_probe_per_node() {
        // Every node has been silent for a full heartbeat period. The
        // confirmed dead include node 0 and runs of consecutive nodes, one
        // of them wrapping from node 23 round to node 1.
        let n = 24;
        let mut cfg = small_cfg(n, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        cfg.membership = crate::config::MembershipConfig::on();
        let plan = FaultPlan::new().crash_node(SimTime::from_secs(100), 3);
        let programs = (0..n)
            .map(|_| Box::new(ScriptProgram::new(vec![])) as Box<dyn Program>)
            .collect();
        let mut e = Engine::with_faults(cfg, programs, &plan);
        let confirmed = vec![0, 1, 5, 6, 7, 12, 23];
        e.detector.as_mut().unwrap().confirmed = confirmed.clone();

        e.membership_tick(cfg.membership.heartbeat_period);

        let mut sent = vec![0u32; n as usize];
        let mut probed = vec![false; n as usize];
        while let Some((_, ev)) = e.queue.pop() {
            if let Event::ProbeArrive { node, prober } = ev {
                sent[prober as usize] += 1;
                probed[node as usize] = true;
            }
        }
        assert_eq!(e.repair.probes, u64::from(sent.iter().sum::<u32>()));
        for node in 0..n {
            let dead = confirmed.contains(&node);
            let i = node as usize;
            assert!(sent[i] <= 1, "node {node} sent {} probes", sent[i]);
            assert!(!dead || sent[i] == 0, "confirmed node {node} probed");
            assert_eq!(probed[i], !dead, "node {node}");
        }
    }

    #[test]
    fn partition_grace_window_suppresses_false_suspicion() {
        // A 15 ms cut severs node 5 from both its ring neighbours: from
        // its prober, node 6, and from node 4, the peer it probes itself
        // (a probe that lands is evidence that its sender lives). Without
        // the grace shield the detector would raise (and then have to
        // exonerate) a suspicion; with it the silence is attributed to the
        // active cut and no epoch ever commits.
        let mut cfg = small_cfg(23, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        cfg.membership = crate::config::MembershipConfig::on();
        let plan = FaultPlan::new().partition(
            SimTime::ZERO,
            SimTime::from_millis(15),
            vec![(6, 5), (5, 6), (4, 5), (5, 4)],
        );
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(3) {
                Box::new(ScriptProgram::new(vec![Action::Compute(
                    SimTime::from_millis(30),
                )]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(
            report.repair.false_suspicions_suppressed >= 1,
            "{:?}",
            report.repair
        );
        assert_eq!(report.repair.suspicions, 0, "{:?}", report.repair);
        assert_eq!(report.repair.epoch_bumps, 0);
        assert_eq!(report.faults.partitions_healed, 1);
        assert_eq!(report.availability(), 1.0);
    }
}
