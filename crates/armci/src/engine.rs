//! The event-driven runtime engine.
//!
//! Ties everything together: processes run [`Program`]s; CHT-path requests
//! acquire buffer credits, travel the virtual topology hop by hop (LDF),
//! queue at serial CHT servers and are forwarded or terminally serviced;
//! every hop's buffer is returned to its sender by an explicit
//! acknowledgement once the downstream server has dealt with the request
//! (paper §IV: "if an intermediate server (or the target) detects that the
//! request is forwarded from an upstream server, it sends an acknowledgment
//! to the upstream server"); the target's response goes *directly* back to
//! the origin process.
//!
//! Because requests genuinely block on credits, a cyclic forwarding order
//! deadlocks. The engine detects quiescence-with-blocked-work and returns
//! [`SimError::Deadlock`] with diagnostics instead of hanging.

use crate::buffers::{CreditKey, CreditManager, Waiter};
use crate::cht::{Cht, ChtCounters};
use crate::config::RuntimeConfig;
use crate::ids::{NodeId, Rank, ReqId, Sender};
use crate::layout::Layout;
use crate::metrics::{CoalesceStats, FaultStats, Metrics, RepairStats, ServeStats};
use crate::ops::{Op, OpKind};
use crate::workload::{Action, ProcCtx, Program};
use vt_core::ldf::{self, HopDecision};
use vt_core::{FxHashMap, FxHashSet, Grid, Shape, SurvivorPacking, TopologyKind, VirtualTopology};
use vt_simnet::fault::{NodeCrash, NodeRestart, PartitionWindow};
use vt_simnet::{ArrivalGen, DetRng, EventQueue, FaultPlan, Frame, Network, SendOutcome, SimTime};

/// Engine events.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A process is ready to take its next action.
    ProcReady(Rank),
    /// A request message finished arriving at a node.
    RequestArrive { req: ReqId, node: NodeId },
    /// A CHT should try to start servicing its head-of-line request.
    ChtTryStart { node: NodeId },
    /// A CHT finished servicing or forwarding a request.
    ChtDone { node: NodeId, req: ReqId },
    /// A buffer-release acknowledgement arrived at the credit holder's node.
    AckArrive { key: CreditKey },
    /// The target's response arrived at the origin process.
    ResponseArrive { req: ReqId },
    /// A notifying operation landed in `target`'s address space.
    NotifyArrive { target: Rank },
    /// All ranks entered the barrier; release them.
    BarrierRelease,
    /// A per-request response timer expired at the origin (fault runs only).
    Timeout { req: ReqId },
    /// A scheduled node (CHT + NIC) crash fires (fault runs only).
    NodeCrash { node: NodeId },
    /// A scheduled node reboot fires: revive the node's NIC and Lost
    /// resident ranks (fault runs with restarts only).
    NodeRestart { node: NodeId },
    /// A scheduled partition window heals (fault runs with partitions
    /// only).
    PartitionHeal { idx: u32 },
    /// A rebooted node announces itself to a live peer so the membership
    /// layer gathers rejoin evidence (membership runs with restarts only).
    RejoinAnnounce { node: NodeId },
    /// A CHT finished assembling and dispatching a coalesced envelope
    /// (coalescing runs only).
    ChtEnvDone { node: NodeId, env: u32 },
    /// A coalesced envelope finished arriving at a node (coalescing runs
    /// only).
    EnvelopeArrive { env: u32, node: NodeId },
    /// The failure detector's periodic evidence sweep (membership runs
    /// only).
    MembershipTick,
    /// An idle heartbeat probe from `prober` landed at `node` (membership
    /// runs only).
    ProbeArrive { node: NodeId, prober: NodeId },
    /// A probe acknowledgement arrived: fresh liveness evidence for `node`
    /// (membership runs only).
    ProbeAck { node: NodeId },
    /// The drain window after a confirmed crash elapsed: re-pack the
    /// survivors and bump the membership epoch (membership runs only).
    EpochCommit,
    /// The next open-system client request for `rank` arrives (serving runs
    /// only).
    ClientArrival { rank: Rank },
    /// The serving-mode overload detector's periodic sweep: metastability
    /// guard + hot-spot skew detection (serving runs only).
    ServeTick,
}

/// Wire size of a failure-detector heartbeat probe (and its ack).
const PROBE_BYTES: u64 = 16;

/// A failure-detector heartbeat probe frame.
const PROBE: Frame = Frame::Probe(PROBE_BYTES);

/// An in-flight one-sided request.
#[derive(Clone, Copy, Debug)]
struct Request {
    op: Op,
    origin: Rank,
    origin_node: NodeId,
    target_node: NodeId,
    issued: SimTime,
    /// Sender of the hop currently in flight or in service (whose credit the
    /// next ChtDone releases).
    prev_sender: Sender,
    prev_node: NodeId,
    /// Whether the issuing process blocks until the response.
    blocking: bool,
    /// Fetch-&-add result carried by the response.
    resp_value: Option<i64>,
    /// Set when a parked forward was granted its downstream credit (so the
    /// service start must not acquire again).
    credit_held: bool,
    /// Slab liveness flag.
    live: bool,
    /// Logical-operation sequence number: shared by every retransmission of
    /// the same operation, unique per (origin, operation). The target-side
    /// dedup table is keyed on `(origin, seq)`.
    seq: u64,
    /// Retransmission attempt this copy belongs to (0 = original send).
    attempt: u32,
    /// Escape buffer class of the hop currently in flight (0 unless
    /// route-around descended; see `vt_core::ldf::route_avoiding_classed`).
    vc_class: u8,
    /// Next hop chosen at credit-acquire time, consumed at forward time so
    /// the acquired credit and the sent hop can never disagree.
    fwd_next: NodeId,
    /// Escape class of the chosen next hop.
    fwd_class: u8,
    /// Envelope slab slot this copy is travelling in, or [`NO_ENV`] for an
    /// individual message. Consumed (reset to [`NO_ENV`]) by the downstream
    /// node when it accounts the member against the envelope's single
    /// shared buffer credit.
    env_slot: u32,
    /// Membership epoch the copy was issued (or retransmitted) in. Copies
    /// from an earlier epoch than the receiver's are rejected
    /// deterministically after a repair — their routing was chosen against
    /// a packing that no longer exists. Always 0 with membership off.
    epoch: u64,
    /// An open-system client request (serving runs only): its origin rank
    /// is `Done` from the start, its retries draw on the client's budget,
    /// and exhaustion abandons the operation instead of failing the rank.
    serve: bool,
    /// The wait the previous retransmission attempt actually used — the
    /// `prev` of the decorrelated-jitter recurrence. `retry.timeout` for
    /// attempt 0.
    backoff_prev: SimTime,
}

/// Sentinel: the request is not an envelope member.
const NO_ENV: u32 = u32::MAX;

/// An in-flight coalesced envelope: member requests that shared the same
/// outgoing LDF edge and escape class at a forwarding CHT, travelling as one
/// wire message on one downstream buffer credit.
#[derive(Clone, Debug)]
struct EnvState {
    /// Member requests in queue order.
    members: Vec<ReqId>,
    /// Assembling (sending) node.
    from: NodeId,
    /// Receiving node.
    to: NodeId,
    /// Escape buffer class of the shared credit.
    class: u8,
    /// Members the receiver has not yet accounted; the envelope's credit is
    /// released (one aggregated ack) when this reaches zero.
    pending: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Executing (an event will call back into the program).
    Running,
    /// Blocking operation in flight.
    WaitingResponse,
    /// Blocked acquiring a credit to issue.
    WaitingCredit,
    /// Waiting for all outstanding async ops.
    Fencing,
    /// Waiting for the notification counter to reach a threshold.
    WaitingNotify,
    /// Waiting in the global barrier.
    InBarrier,
    /// Program finished.
    Done,
    /// The process's node crashed; the rank will never finish.
    Lost,
    /// An operation failed terminally (timed out / unreachable); the rank
    /// stopped executing its program.
    Failed,
}

#[derive(Clone, Copy, Debug)]
struct ProcState {
    node: NodeId,
    phase: Phase,
    outstanding: u32,
    last_fetch: Option<i64>,
    /// A request created but not yet sent because its credit was exhausted.
    pending: Option<PendingIssue>,
    completed_ops: u64,
    /// Cumulative notifications received.
    notified: u64,
    /// Threshold a WaitNotify is blocked on.
    notify_threshold: u64,
    /// CHT busy time on this node already charged to this process's compute
    /// (interference bookkeeping).
    cht_busy_seen: SimTime,
    /// The phase this process was in when its node crashed — restored (or
    /// resolved) by the node's reboot. Meaningful only while `phase` is
    /// [`Phase::Lost`] on a node the plan restarts.
    saved_phase: Phase,
    /// The barrier generation at crash time: a revived rank re-joins the
    /// barrier only if the generation it was waiting in has not released.
    saved_barrier_gen: u64,
}

#[derive(Clone, Copy, Debug)]
struct PendingIssue {
    req: ReqId,
    first_hop: NodeId,
}

/// State of one simulated ARMCI mutex (owned by a target rank).
#[derive(Debug, Default)]
struct LockState {
    held_by: Option<Rank>,
    waiting: std::collections::VecDeque<ReqId>,
}

/// Why a simulation — or, under fault injection, a single operation — failed.
///
/// `Deadlock` aborts the whole run. `Unreachable` and `TimedOut` are
/// *per-operation* diagnostics produced by fault-tolerant runs: the issuing
/// rank stops with phase `Failed`, the error is recorded in
/// [`Report::failures`], and the rest of the job keeps running (graceful
/// degradation — the availability number of the resilience experiment).
#[derive(Debug)]
pub enum SimError {
    /// The event queue drained while work was still blocked — a genuine
    /// buffer-dependency deadlock (impossible under LDF; reachable with
    /// custom routers or in adversarial tests).
    Deadlock {
        /// Simulated time of quiescence.
        at: SimTime,
        /// Human-readable description of each blocked entity.
        blocked: Vec<String>,
    },
    /// No live route to the operation's target existed: the target node is
    /// dead, or every legal route-around hop is dead.
    Unreachable {
        /// When the routing decision failed.
        at: SimTime,
        /// The issuing rank.
        rank: Rank,
        /// The operation's sequence number.
        seq: u64,
        /// The node the route was attempted from.
        from: NodeId,
        /// The unreachable target node.
        to: NodeId,
        /// The dead set at decision time.
        dead: Vec<NodeId>,
    },
    /// An arriving open-system client request was shed by admission
    /// control: the client already had its full quota of requests in
    /// flight. A serving-mode diagnostic — the client keeps running (the
    /// next arrival may be admitted); only the first few sheds of a run
    /// are recorded in [`Report::failures`], the rest are counted.
    Overloaded {
        /// When the arrival was shed.
        at: SimTime,
        /// The client rank whose arrival was rejected.
        rank: Rank,
        /// The shed arrival's would-be sequence number.
        seq: u64,
        /// Requests the client had in flight at the decision.
        depth: u32,
        /// The admission bound ([`queue_cap`](crate::config::ServeConfig)).
        cap: u32,
    },
    /// An operation exhausted its retransmission budget without a response.
    TimedOut {
        /// When the final timer expired.
        at: SimTime,
        /// The issuing rank.
        rank: Rank,
        /// The operation's sequence number.
        seq: u64,
        /// Total attempts made (original send + retransmissions).
        attempts: u32,
        /// When the operation was first issued.
        issued: SimTime,
        /// The operation's target node.
        target: NodeId,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { at, blocked } => {
                write!(f, "deadlock at {at}: {} blocked [", blocked.len())?;
                for (i, b) in blocked.iter().take(8).enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, "]")
            }
            SimError::Unreachable {
                at,
                rank,
                seq,
                from,
                to,
                dead,
            } => write!(
                f,
                "{rank} op #{seq} unreachable at {at}: no live route from \
                 node{from} to node{to} (dead: {dead:?})"
            ),
            SimError::TimedOut {
                at,
                rank,
                seq,
                attempts,
                issued,
                target,
            } => write!(
                f,
                "{rank} op #{seq} to node{target} timed out at {at} after \
                 {attempts} attempts (issued {issued})"
            ),
            SimError::Overloaded {
                at,
                rank,
                seq,
                depth,
                cap,
            } => write!(
                f,
                "{rank} request #{seq} shed at {at}: {depth} in flight \
                 against admission cap {cap}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// The engine's forwarding decision procedure, exposed so the static
/// analyzer (`vt-analyze`) can build its buffer-dependency graph from the
/// *same* code path the runtime executes rather than a re-derivation of it.
///
/// Given a request at `current` that arrived over the topology edge
/// `prev → current` (`prev == current` for a request originating here) in
/// escape buffer class `base_class`, returns the next hop on the (extended,
/// route-around) LDF route to `dest` and the class the request travels on —
/// escalated by one exactly when the outgoing edge crosses a lower dimension
/// than the incoming one — or `None` when no live hop exists (the engine
/// then discards the copy and lets the origin's timeout machinery diagnose
/// the operation). With an empty `dead` set this is plain extended LDF and
/// the class never escalates above `base_class`.
///
/// # Panics
/// Panics if `current`/`dest` are out of range or `prev`/`current` are not
/// topology neighbours (unless equal).
pub fn forward_decision(
    shape: &Shape,
    n: u32,
    prev: NodeId,
    current: NodeId,
    dest: NodeId,
    base_class: u8,
    dead: &[NodeId],
) -> Option<(NodeId, u8)> {
    match ldf::next_hop_avoiding(shape, n, current, dest, dead) {
        HopDecision::Hop(h) => Some((h, ldf::forward_class(shape, prev, current, h, base_class))),
        HopDecision::Unreachable | HopDecision::Arrived => None,
    }
}

/// Results of a completed run.
#[derive(Debug)]
pub struct Report {
    /// Time the last rank finished its program.
    pub finish_time: SimTime,
    /// Per-rank and per-op measurements.
    pub metrics: Metrics,
    /// Network traffic counters.
    pub net: vt_simnet::net::NetCounters,
    /// CHT activity aggregated over all nodes.
    pub cht_totals: ChtCounters,
    /// Memory report for node 0's master (the paper's Fig. 5 quantity).
    pub memory_node0: crate::memory::NodeMemory,
    /// Total events processed.
    pub events: u64,
    /// The eight busiest physical links `(slot, direction, bytes)` —
    /// tree saturation around hot nodes made visible.
    pub top_links: Vec<(u32, u8, u64)>,
    /// Fault-recovery activity (all zero without a fault plan).
    pub faults: FaultStats,
    /// Request-coalescing activity (all zero with coalescing off).
    pub coalesce: CoalesceStats,
    /// Membership / live-repair activity (all zero with membership off).
    pub repair: RepairStats,
    /// Open-system serving activity (all zero with serving off).
    pub serve: ServeStats,
    /// Per-request latency samples (µs) of every completed serve request,
    /// in completion order — the raw series the p50/p99/p99.9 report
    /// quantiles are computed from. Empty with serving off.
    pub serve_latencies_us: Vec<f64>,
    /// Final fetch-&-add counter value per rank — the ground truth the
    /// differential (coalescing on vs off) tests compare.
    pub fetch_finals: Vec<i64>,
    /// Per-operation terminal failures (timed out / unreachable), in the
    /// order they occurred.
    pub failures: Vec<SimError>,
    /// Ranks whose node crashed mid-run.
    pub lost_ranks: Vec<u32>,
    /// Credits still in flight at quiescence on accounts whose sender is
    /// alive — a live sender holding a buffer after everything drained is
    /// a protocol leak. Credits stranded by dead senders (the crashed
    /// node's buffers die with it) are excluded. Must be zero; the model
    /// checker in `vt-analyze` proves the same property exhaustively for
    /// small N.
    pub credit_leaks: u64,
}

impl Report {
    /// Fraction of ranks that completed their program (neither lost to a
    /// crash nor failed on an operation) — the resilience experiment's
    /// availability metric.
    pub fn availability(&self) -> f64 {
        let n = self.metrics.per_rank.len();
        if n == 0 {
            return 1.0;
        }
        let failed: std::collections::BTreeSet<u32> = self
            .failures
            .iter()
            .filter_map(|e| match e {
                SimError::Unreachable { rank, .. } | SimError::TimedOut { rank, .. } => {
                    Some(rank.0)
                }
                // A shed arrival is flow control, not a failed rank: the
                // client stays up and keeps offering load.
                SimError::Deadlock { .. } | SimError::Overloaded { .. } => None,
            })
            .chain(self.lost_ranks.iter().copied())
            .collect();
        (n - failed.len()) as f64 / n as f64
    }
}

/// The runtime engine. Use [`crate::Simulation`] for the friendly façade.
pub struct Engine {
    cfg: RuntimeConfig,
    topo: Grid,
    layout: Layout,
    net: Network,
    queue: EventQueue<Event>,
    programs: Vec<Box<dyn Program>>,
    procs: Vec<ProcState>,
    chts: Vec<Cht>,
    credits: CreditManager,
    requests: Vec<Request>,
    free_reqs: Vec<ReqId>,
    /// Coalesced-envelope slab (coalescing runs only).
    envelopes: Vec<EnvState>,
    free_envs: Vec<u32>,
    /// Run-wide coalescing counters.
    coalesce: CoalesceStats,
    /// Ranks currently waiting in the barrier.
    barrier_waiting: Vec<Rank>,
    barrier_scheduled: bool,
    done_count: u32,
    fetch_counters: Vec<i64>,
    /// Mutex state per target rank: current holder and FIFO of queued lock
    /// requests (their responses are deferred until the grant).
    locks: FxHashMap<Rank, LockState>,
    metrics: Metrics,
    /// Per-node extra CHT cost from buffer-pool cache pressure.
    cht_pool_extra: Vec<SimTime>,
    /// Per-node accumulated CHT busy time (interference source).
    cht_busy_total: Vec<SimTime>,
    /// The topology's grid shape (cached clone: route-around needs it while
    /// the rest of the engine is mutably borrowed).
    shape: Shape,
    /// Node crashes scheduled by the fault plan.
    crash_plan: Vec<NodeCrash>,
    /// Node reboots scheduled by the fault plan.
    restart_plan: Vec<NodeRestart>,
    /// Reboot instant per node, from the plan (`None` = never reboots).
    /// Consulted by the timeout machinery: a Lost origin whose node has a
    /// reboot still ahead keeps its timers alive so the revived rank
    /// retransmits with the same sequence numbers.
    restart_time: Vec<Option<SimTime>>,
    /// Partition windows scheduled by the fault plan, in plan order (heal
    /// events index into this; the failure detector's grace shield scans
    /// it).
    partition_plan: Vec<PartitionWindow>,
    /// Barrier generations released so far (see `ProcState::
    /// saved_barrier_gen`).
    barrier_gen: u64,
    /// Rebooted nodes un-confirmed since the last epoch commit; the commit
    /// that re-admits them counts them as rejoins.
    pending_rejoins: u64,
    /// Nodes that have crashed so far, sorted (the route-around dead set).
    dead: Vec<NodeId>,
    /// Ranks lost to crashes / failed on an operation.
    lost_count: u32,
    failed_count: u32,
    /// Next logical-operation sequence number.
    next_seq: u64,
    /// Origin-side completion set: `(rank, seq)` of every operation whose
    /// first response arrived. Later (duplicate) responses and stale
    /// timeouts check here. Fault runs only.
    op_done: FxHashSet<(u32, u64)>,
    /// Target-side dedup table for exactly-once execution of retried
    /// non-idempotent operations. Fault runs only.
    seen: FxHashMap<(u32, u64), DedupState>,
    failures: Vec<SimError>,
    faults: FaultStats,
    /// Failure detector + epoch/repair state (inert unless
    /// `cfg.membership.enabled` and a fault plan is installed).
    membership: MembershipState,
    /// Open-system serving state (inert unless `cfg.serve.enabled`).
    serve: ServeState,
}

/// Live serving-mode state: per-client arrival generators and retry
/// budgets, the metastability guard, the skew detector, and the counters
/// the serve report is built from. Inert (empty vectors, zero counters)
/// with serving off.
struct ServeState {
    /// Activity counters for the report.
    stats: ServeStats,
    /// Per-client arrival generators, indexed by rank. Empty with serving
    /// off.
    gens: Vec<ArrivalGen>,
    /// Remaining retry budget per client.
    budget: Vec<u32>,
    /// Arrivals seen in the current detector tick window.
    win_arrivals: u64,
    /// Admission sheds in the current detector tick window.
    win_sheds: u64,
    /// The metastability guard is engaged: retransmissions are suppressed
    /// until the windowed shed fraction falls back under the threshold.
    guard_active: bool,
    /// Admitted serve requests still in flight (keeps the detector ticking
    /// through the post-horizon drain).
    active: u32,
    /// Clients whose arrival stream has passed the horizon.
    arrivals_done: u32,
    /// Consecutive detector ticks that saw hot-spot skew at or above the
    /// threshold.
    skew_streak: u32,
    /// A load-triggered re-pack was already requested this run (one per
    /// run: the escalation is a step, not a control loop).
    repacked: bool,
    /// A load-triggered `EpochCommit` is in flight; the commit that lands
    /// it counts toward `stats.load_repacks`.
    pending_load_repack: bool,
    /// Per-node CHT busy time as of the previous detector tick (the skew
    /// signal is the busy-time *delta* per tick: queueing hides inside the
    /// network's time reservations, so CHT queue length alone stays flat
    /// even at a saturated hot spot). Lazily sized on the first tick.
    busy_seen: Vec<SimTime>,
    /// Completed-request latencies (µs), in completion order.
    latencies_us: Vec<f64>,
}

impl ServeState {
    fn inert() -> Self {
        ServeState {
            stats: ServeStats::default(),
            gens: Vec::new(),
            budget: Vec::new(),
            win_arrivals: 0,
            win_sheds: 0,
            guard_active: false,
            active: 0,
            arrivals_done: 0,
            skew_streak: 0,
            repacked: false,
            pending_load_repack: false,
            busy_seen: Vec::new(),
            latencies_us: Vec::new(),
        }
    }
}

/// The next rung up the contention-attenuation ladder from `kind`, if one
/// exists and covers `n` nodes: each step trades edge degree for forwarding
/// depth, attenuating many-to-one convergence at a hot node. `None` from
/// the hypercube (already minimal-degree) or when the candidate cannot
/// cover `n`.
fn escalate_kind(kind: TopologyKind, n: u32) -> Option<TopologyKind> {
    let next = match kind {
        TopologyKind::Fcg => Some(TopologyKind::Mfcg),
        TopologyKind::Mfcg => Some(TopologyKind::Cfcg),
        TopologyKind::Cfcg => Some(TopologyKind::KFcg(4)),
        TopologyKind::KFcg(k) => k.checked_add(1).map(TopologyKind::KFcg),
        TopologyKind::Hypercube => None,
    };
    next.filter(|k| k.supports(n))
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

/// Live membership view: the failure detector's evidence, the current
/// epoch, and the post-repair survivor packing (once one committed).
struct MembershipState {
    /// Current membership epoch; requests are stamped with it at issue.
    epoch: u64,
    /// Last liveness evidence per node.
    last_heard: Vec<SimTime>,
    /// EWMA of inter-evidence intervals per node (ns) — the phi-accrual
    /// expectation a silence is judged against.
    mean_interval_ns: Vec<f64>,
    /// Nodes currently over the phi threshold (de-dupes suspicion counts
    /// until fresh evidence clears the doubt).
    suspected: Vec<bool>,
    /// Confirmed-dead nodes, sorted — the set the next repair packs
    /// around. Lags the engine's omniscient `dead` set by detection time.
    confirmed: Vec<NodeId>,
    /// An `EpochCommit` is scheduled (a drain window is running).
    pending_commit: bool,
    /// The committed survivor packing; `None` until the first repair.
    packing: Option<SurvivorPacking>,
    /// Repair activity counters.
    stats: RepairStats,
    /// External per-rung repair certifier (see [`RepairCertifier`]).
    certifier: Option<RepairCertifier>,
    /// The topology kind the next epoch commit packs into. Starts as the
    /// configured kind (crash repairs re-pack in place); a load-triggered
    /// re-pack escalates it one rung up the attenuation ladder.
    repack_kind: TopologyKind,
}

impl MembershipState {
    fn new(n_nodes: u32, expected_interval: SimTime, repack_kind: TopologyKind) -> Self {
        MembershipState {
            epoch: 0,
            last_heard: vec![SimTime::ZERO; n_nodes as usize],
            mean_interval_ns: vec![expected_interval.as_nanos() as f64; n_nodes as usize],
            suspected: vec![false; n_nodes as usize],
            confirmed: Vec::new(),
            pending_commit: false,
            packing: None,
            stats: RepairStats::default(),
            certifier: None,
            repack_kind,
        }
    }
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
    /// Builds an engine for `cfg` with one program per rank.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or `programs` does not have
    /// exactly one entry per rank.
    pub fn new(cfg: RuntimeConfig, programs: Vec<Box<dyn Program>>) -> Self {
        Self::with_faults(cfg, programs, &FaultPlan::default())
    }

    /// Builds an engine that runs `cfg` under the deterministic fault
    /// schedule `plan`. An empty plan produces an engine whose timeline is
    /// byte-identical to [`Engine::new`]'s — the fault layer costs nothing
    /// when disabled.
    ///
    /// # Panics
    /// Panics if the configuration or the fault plan is invalid.
    pub fn with_faults(
        cfg: RuntimeConfig,
        programs: Vec<Box<dyn Program>>,
        plan: &FaultPlan,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            programs.len(),
            cfg.n_procs as usize,
            "need exactly one program per rank"
        );
        let layout = Layout::new(cfg.n_procs, cfg.procs_per_node);
        let n_nodes = layout.num_nodes();
        let topo = cfg.topology.build(n_nodes);
        let net = Network::with_faults(cfg.net, n_nodes, plan);
        let procs = (0..cfg.n_procs)
            .map(|r| ProcState {
                node: layout.node_of(Rank(r)),
                phase: Phase::Running,
                outstanding: 0,
                last_fetch: None,
                pending: None,
                completed_ops: 0,
                notified: 0,
                notify_threshold: 0,
                cht_busy_seen: SimTime::ZERO,
                saved_phase: Phase::Running,
                saved_barrier_gen: 0,
            })
            .collect();
        let chts = (0..n_nodes).map(|_| Cht::new()).collect();
        let metrics = Metrics::new(cfg.n_procs, cfg.record_ops);
        let cht_pool_extra = (0..n_nodes)
            .map(|node| {
                let pool = crate::memory::node_memory(&cfg, &topo, node).cht_pool_bytes;
                let mib = pool as f64 / (1024.0 * 1024.0);
                SimTime::from_nanos((mib * cfg.cht.cache_ns_per_pool_mib).round() as u64)
            })
            .collect();
        let shape = topo.shape().clone();
        let serve = if cfg.serve.enabled {
            // Per-client arrival streams on forked sub-streams: adding or
            // reordering clients never perturbs another client's arrivals.
            let root = DetRng::new(cfg.seed);
            ServeState {
                gens: (0..cfg.n_procs)
                    .map(|r| {
                        ArrivalGen::new(
                            cfg.serve.arrivals,
                            root.fork(0x5345_5256_0000_0000 | u64::from(r)),
                        )
                    })
                    .collect(),
                budget: vec![cfg.serve.retry_budget; cfg.n_procs as usize],
                ..ServeState::inert()
            }
        } else {
            ServeState::inert()
        };
        Engine {
            serve,
            credits: CreditManager::new(cfg.buffers_per_proc),
            procs,
            chts,
            requests: Vec::new(),
            free_reqs: Vec::new(),
            envelopes: Vec::new(),
            free_envs: Vec::new(),
            coalesce: CoalesceStats::default(),
            barrier_waiting: Vec::new(),
            barrier_scheduled: false,
            done_count: 0,
            fetch_counters: vec![0; cfg.n_procs as usize],
            locks: FxHashMap::default(),
            metrics,
            cht_pool_extra,
            cht_busy_total: vec![SimTime::ZERO; n_nodes as usize],
            queue: EventQueue::new(),
            programs,
            shape,
            crash_plan: plan.node_crashes.clone(),
            restart_plan: plan.node_restarts.clone(),
            restart_time: (0..n_nodes).map(|n| plan.restart_time(n)).collect(),
            partition_plan: plan.partitions.clone(),
            barrier_gen: 0,
            pending_rejoins: 0,
            dead: Vec::new(),
            lost_count: 0,
            failed_count: 0,
            next_seq: 0,
            op_done: FxHashSet::default(),
            seen: FxHashMap::default(),
            failures: Vec::new(),
            faults: FaultStats::default(),
            membership: MembershipState::new(
                n_nodes,
                cfg.membership.heartbeat_period,
                cfg.topology,
            ),
            net,
            topo,
            layout,
            cfg,
        }
    }

    /// Whether a fault plan is active (gates every piece of recovery
    /// machinery so fault-free runs schedule exactly the same events as
    /// before the fault layer existed).
    fn faults_on(&self) -> bool {
        self.net.faults_enabled()
    }

    /// Whether the membership layer is live: it needs both the config
    /// switch and a fault plan (a fault-free run has nothing to detect and
    /// must stay byte-identical to a build without the subsystem).
    fn membership_on(&self) -> bool {
        self.cfg.membership.enabled && self.faults_on()
    }

    /// Whether open-system serving is live.
    fn serve_on(&self) -> bool {
        self.cfg.serve.enabled
    }

    /// Whether the recovery machinery (per-request timers, target-side
    /// dedup, no-reuse slab discipline) is live. Serving needs it even
    /// without a fault plan: past saturation, responses outlive their
    /// timeouts routinely, and retransmissions must stay exactly-once.
    /// Without a plan the network's fault filter does nothing, so this
    /// substitution alone changes no timing.
    fn recovery_on(&self) -> bool {
        self.faults_on() || self.serve_on()
    }

    /// Whether membership *epochs* (stale-copy rejection, epoch stamping)
    /// are live: under the membership detector, or under serving with
    /// load-triggered re-packing (which commits epochs without a failure
    /// detector).
    fn epochs_on(&self) -> bool {
        self.membership_on() || (self.serve_on() && self.cfg.serve.load_repack)
    }

    /// Whether serving still has arrivals to generate or admitted work in
    /// flight — the liveness condition for the detector tick.
    fn serve_live(&self) -> bool {
        self.serve.arrivals_done < self.cfg.n_procs || self.serve.active > 0
    }

    /// Installs the external topology certifier consulted on every rung of
    /// the repair fallback ladder before an epoch commits (typically
    /// `vt_analyze::certify_repair`, injected from the layers above to
    /// avoid a dependency cycle). Without one, repairs rely on structural
    /// checks only.
    pub fn set_repair_certifier(&mut self, certifier: RepairCertifier) {
        self.membership.certifier = Some(certifier);
    }

    /// Ranks that can no longer enter the barrier or finish.
    fn finished_count(&self) -> u32 {
        self.done_count + self.lost_count + self.failed_count
    }

    /// The virtual topology in use.
    pub fn topology(&self) -> &Grid {
        &self.topo
    }

    /// The rank/node layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Runs to completion.
    ///
    /// # Errors
    /// Returns [`SimError::Deadlock`] if the system quiesces with blocked
    /// work.
    pub fn run(mut self) -> Result<Report, SimError> {
        for r in 0..self.cfg.n_procs {
            self.queue
                .schedule(SimTime::ZERO, Event::ProcReady(Rank(r)));
        }
        let crashes = std::mem::take(&mut self.crash_plan);
        for c in &crashes {
            self.queue.schedule(c.at, Event::NodeCrash { node: c.node });
        }
        let restarts = std::mem::take(&mut self.restart_plan);
        for r in &restarts {
            self.queue
                .schedule(r.at, Event::NodeRestart { node: r.node });
        }
        // The plan stays resident (the detector's grace shield scans it);
        // only the heal events are scheduled here.
        for (idx, w) in self.partition_plan.iter().enumerate() {
            self.queue
                .schedule(w.until, Event::PartitionHeal { idx: idx as u32 });
        }
        if self.membership_on() {
            self.queue
                .schedule(self.cfg.membership.heartbeat_period, Event::MembershipTick);
        }
        if self.serve_on() {
            for r in 0..self.cfg.n_procs {
                self.schedule_next_arrival(Rank(r));
            }
            self.queue.schedule(self.cfg.serve.tick, Event::ServeTick);
        }
        while let Some((now, ev)) = self.queue.pop() {
            self.dispatch(now, ev);
        }
        if self.finished_count() < self.cfg.n_procs {
            return Err(self.deadlock_report());
        }
        // Serving clients are `Done` from the start; the serving makespan is
        // when the last admitted request drained, i.e. quiescence.
        let finish_time = if self.serve_on() {
            self.queue.now()
        } else {
            self.metrics
                .per_rank
                .iter()
                .map(|s| s.done_at)
                .max()
                .unwrap_or(SimTime::ZERO)
        };
        let mut cht_totals = ChtCounters::default();
        for c in &self.chts {
            cht_totals.serviced += c.counters.serviced;
            cht_totals.forwarded += c.counters.forwarded;
            cht_totals.wakeups += c.counters.wakeups;
            cht_totals.parked += c.counters.parked;
            cht_totals.max_queue = cht_totals.max_queue.max(c.counters.max_queue);
            cht_totals.fwd_messages += c.counters.fwd_messages;
            cht_totals.envelopes += c.counters.envelopes;
            cht_totals.coalesced += c.counters.coalesced;
        }
        let memory_node0 = crate::memory::node_memory(&self.cfg, &self.topo, 0);
        let top_links = self.net.top_links(8);
        let lost_ranks = (0..self.cfg.n_procs)
            .filter(|&r| self.procs[r as usize].phase == Phase::Lost)
            .collect();
        let fetch_finals = std::mem::take(&mut self.fetch_counters);
        // A credit still held at quiescence is a leak unless its sender or
        // either edge endpoint died — crashed buffers (and the acks that
        // would have released them) legitimately vanish with the node.
        let credit_leaks = self
            .credits
            .accounts()
            .into_iter()
            .filter(|&(key, used)| {
                used > 0
                    && !self.dead.contains(&key.edge.0)
                    && !self.dead.contains(&key.edge.1)
                    && match key.sender {
                        Sender::Cht(n) => !self.dead.contains(&n),
                        Sender::Proc(r) => {
                            !matches!(self.procs[r.idx()].phase, Phase::Lost | Phase::Failed)
                        }
                    }
            })
            .map(|(_, used)| u64::from(used))
            .sum();
        Ok(Report {
            finish_time,
            metrics: self.metrics,
            net: self.net.counters(),
            cht_totals,
            memory_node0,
            events: self.queue.processed(),
            top_links,
            faults: self.faults,
            coalesce: self.coalesce,
            repair: self.membership.stats,
            serve: self.serve.stats,
            serve_latencies_us: self.serve.latencies_us,
            failures: self.failures,
            lost_ranks,
            fetch_finals,
            credit_leaks,
        })
    }

    fn deadlock_report(&self) -> SimError {
        let mut blocked: Vec<String> = self
            .credits
            .blocked()
            .into_iter()
            .map(|(key, waiter)| format!("{waiter:?} on edge {:?}", key.edge))
            .collect();
        for (r, p) in self.procs.iter().enumerate() {
            if !matches!(
                p.phase,
                Phase::Done | Phase::WaitingCredit | Phase::Lost | Phase::Failed
            ) {
                blocked.push(format!("rank{r} stuck in {:?}", p.phase));
            }
        }
        blocked.sort();
        SimError::Deadlock {
            at: self.queue.now(),
            blocked,
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::ProcReady(rank) => self.proc_ready(now, rank),
            Event::RequestArrive { req, node } => self.request_arrive(now, req, node),
            Event::ChtTryStart { node } => self.cht_try_start(now, node),
            Event::ChtDone { node, req } => self.cht_done(now, node, req),
            Event::AckArrive { key } => self.ack_arrive(now, key),
            Event::ResponseArrive { req } => self.response_arrive(now, req),
            Event::NotifyArrive { target } => self.notify_rank(now, target),
            Event::BarrierRelease => self.barrier_release(now),
            Event::Timeout { req } => self.timeout_fire(now, req),
            Event::NodeCrash { node } => self.node_crash(now, node),
            Event::NodeRestart { node } => self.node_restart(now, node),
            Event::PartitionHeal { idx } => self.partition_heal(now, idx),
            Event::RejoinAnnounce { node } => self.rejoin_announce(now, node),
            Event::ChtEnvDone { node, env } => self.cht_env_done(now, node, env),
            Event::EnvelopeArrive { env, node } => self.envelope_arrive(now, env, node),
            Event::MembershipTick => self.membership_tick(now),
            Event::ProbeArrive { node, prober } => self.probe_arrive(now, node, prober),
            Event::ProbeAck { node } => self.heard_from(node, now),
            Event::EpochCommit => self.epoch_commit(),
            Event::ClientArrival { rank } => self.client_arrival(now, rank),
            Event::ServeTick => self.serve_tick(now),
        }
    }

    // ----- process side ---------------------------------------------------

    fn proc_ready(&mut self, now: SimTime, rank: Rank) {
        if matches!(
            self.procs[rank.idx()].phase,
            Phase::Done | Phase::Lost | Phase::Failed
        ) {
            return;
        }
        self.procs[rank.idx()].phase = Phase::Running;
        let ctx = ProcCtx {
            rank,
            now,
            completed_ops: self.procs[rank.idx()].completed_ops,
            last_fetch: self.procs[rank.idx()].last_fetch,
            notified: self.procs[rank.idx()].notified,
        };
        let action = self.programs[rank.idx()].next(&ctx);
        match action {
            Action::Done => {
                self.procs[rank.idx()].phase = Phase::Done;
                self.done_count += 1;
                self.metrics.rank_done(rank, now);
                self.maybe_release_barrier(now);
            }
            Action::Compute(d) => {
                // CHT interference: stretch compute by this process's share
                // of the CHT busy time accrued since its last compute block.
                let node = self.procs[rank.idx()].node;
                let delta =
                    self.cht_busy_total[node as usize] - self.procs[rank.idx()].cht_busy_seen;
                self.procs[rank.idx()].cht_busy_seen = self.cht_busy_total[node as usize];
                let steal = SimTime::from_nanos(
                    (delta.as_nanos() as f64 * self.cfg.cht.cht_interference
                        / f64::from(self.cfg.procs_per_node))
                    .round() as u64,
                );
                self.queue.schedule(now + d + steal, Event::ProcReady(rank));
            }
            Action::Barrier => {
                self.procs[rank.idx()].phase = Phase::InBarrier;
                self.barrier_waiting.push(rank);
                self.maybe_release_barrier(now);
            }
            Action::Op(op) => self.issue_op(now, rank, op, true),
            Action::OpAsync(op) => {
                self.issue_op(now, rank, op, false);
                // issue_op leaves phase Running unless credit-blocked.
                if self.procs[rank.idx()].phase == Phase::Running {
                    self.queue
                        .schedule(now + self.cfg.issue_overhead, Event::ProcReady(rank));
                }
            }
            Action::WaitAll => {
                if self.procs[rank.idx()].outstanding == 0 {
                    self.queue.schedule(now, Event::ProcReady(rank));
                } else {
                    self.procs[rank.idx()].phase = Phase::Fencing;
                }
            }
            Action::WaitNotify(threshold) => {
                if self.procs[rank.idx()].notified >= threshold {
                    self.queue.schedule(now, Event::ProcReady(rank));
                } else {
                    self.procs[rank.idx()].phase = Phase::WaitingNotify;
                    self.procs[rank.idx()].notify_threshold = threshold;
                }
            }
        }
    }

    fn maybe_release_barrier(&mut self, now: SimTime) {
        if self.barrier_scheduled || self.barrier_waiting.is_empty() {
            return;
        }
        if self.barrier_waiting.len() as u32 + self.finished_count() == self.cfg.n_procs {
            let stages = 32 - (self.cfg.n_procs.max(2) - 1).leading_zeros();
            let latency = self.cfg.barrier_stage * u64::from(stages);
            self.barrier_scheduled = true;
            self.queue.schedule(now + latency, Event::BarrierRelease);
        }
    }

    fn barrier_release(&mut self, now: SimTime) {
        self.barrier_scheduled = false;
        self.barrier_gen += 1;
        let waiting = std::mem::take(&mut self.barrier_waiting);
        for rank in waiting {
            self.queue.schedule(now, Event::ProcReady(rank));
        }
    }

    fn alloc_request(&mut self, req: Request) -> ReqId {
        if let Some(id) = self.free_reqs.pop() {
            self.requests[id as usize] = req;
            id
        } else {
            self.requests.push(req);
            (self.requests.len() - 1) as ReqId
        }
    }

    fn free_request(&mut self, id: ReqId) {
        debug_assert!(self.requests[id as usize].live);
        self.requests[id as usize].live = false;
        // Under the recovery machinery (faults or serving), slab ids are
        // never reused: duplicate copies and stale timeouts may still
        // reference an id after its operation completed, and a recycled
        // slot would let them corrupt a newer request's state.
        if !self.recovery_on() {
            self.free_reqs.push(id);
        }
    }

    fn issue_op(&mut self, now: SimTime, rank: Rank, op: Op, blocking: bool) {
        self.issue_op_inner(now, rank, op, blocking, false);
    }

    fn issue_op_inner(&mut self, now: SimTime, rank: Rank, op: Op, blocking: bool, serve: bool) {
        assert!(
            op.target.0 < self.cfg.n_procs,
            "op targets unknown {}",
            op.target
        );
        let src_node = self.procs[rank.idx()].node;
        let target_node = self.layout.node_of(op.target);
        self.procs[rank.idx()].outstanding += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let req = self.alloc_request(Request {
            op,
            origin: rank,
            origin_node: src_node,
            target_node,
            issued: now,
            prev_sender: Sender::Proc(rank),
            prev_node: src_node,
            blocking,
            resp_value: None,
            credit_held: false,
            live: true,
            seq,
            attempt: 0,
            vc_class: 0,
            fwd_next: src_node,
            fwd_class: 0,
            env_slot: NO_ENV,
            epoch: self.membership.epoch,
            serve,
            backoff_prev: self.cfg.retry.timeout,
        });

        if target_node == src_node {
            // Intra-node: served through shared memory, no CHT, no credits.
            let copy =
                SimTime::from_nanos((op.bytes as f64 * self.cfg.shm_per_byte_ns).round() as u64);
            let done = now + self.cfg.issue_overhead + self.net.config().shm_latency + copy;
            match op.kind {
                OpKind::FetchAdd => {
                    self.apply_fetch_add(req);
                    self.queue.schedule(done, Event::ResponseArrive { req });
                }
                OpKind::Lock => {
                    let state = self.locks.entry(op.target).or_default();
                    if state.held_by.is_none() {
                        state.held_by = Some(rank);
                        self.queue.schedule(done, Event::ResponseArrive { req });
                    } else {
                        state.waiting.push_back(req);
                    }
                }
                OpKind::Unlock => {
                    let state = self.locks.entry(op.target).or_default();
                    if state.held_by == Some(rank) {
                        state.held_by = None;
                        self.queue.schedule(done, Event::ResponseArrive { req });
                        self.grant_lock_next(now, op.target);
                    } else {
                        self.queue.schedule(done, Event::ResponseArrive { req });
                    }
                }
                _ => {
                    self.queue.schedule(done, Event::ResponseArrive { req });
                }
            }
            if op.notify {
                self.queue
                    .schedule(done, Event::NotifyArrive { target: op.target });
            }
        } else if op.kind.is_direct() {
            // RDMA path: request to the target NIC, hardware-level response.
            if self.node_gone(target_node, now) {
                self.rank_fail(now, rank, req);
                return;
            }
            let t0 = now + self.cfg.issue_overhead;
            // Direct ops carry recovery state (notify dedup, a response
            // timer) only under a fault plan; serving alone arms neither.
            let recover = self.faults_on();
            self.send_direct(t0, req, recover);
            if recover {
                self.arm_timeout(t0, req);
            }
        } else {
            // CHT path over the virtual topology.
            let first = if self.recovery_on() {
                let (decision, rerouted) = self.first_hop(src_node, target_node);
                match decision {
                    HopDecision::Hop(h) => {
                        if rerouted {
                            self.faults.reroutes += 1;
                        }
                        Some(h)
                    }
                    HopDecision::Unreachable => {
                        if (self.membership_on() || self.revival_ahead(now))
                            && !self.node_gone(target_node, now)
                        {
                            // No live route *yet* — the target will live but
                            // an escape-critical node is down. Park the
                            // operation on its retry timer; either the
                            // detector confirms the crash and the repaired
                            // packing routes the retransmission, or the
                            // scheduled reboot restores the original route.
                            self.arm_timeout(now + self.cfg.issue_overhead, req);
                            None
                        } else {
                            self.rank_fail(now, rank, req);
                            return;
                        }
                    }
                    HopDecision::Arrived => unreachable!("distinct nodes"),
                }
            } else {
                match self.topo.next_hop(src_node, target_node) {
                    Some(h) => Some(h),
                    None => {
                        // A total forwarding table has a hop for every
                        // distinct live pair; a miswired custom topology is
                        // diagnosed as unreachable rather than panicking.
                        self.rank_fail(now, rank, req);
                        return;
                    }
                }
            };
            if let Some(first) = first {
                let key = CreditKey {
                    sender: Sender::Proc(rank),
                    edge: (src_node, first),
                    class: 0,
                };
                self.requests[req as usize].fwd_next = first;
                self.requests[req as usize].fwd_class = 0;
                if self.credits.try_acquire(key) {
                    let t0 = now + self.cfg.issue_overhead;
                    self.send_request(t0, req, src_node, first);
                    self.arm_timeout(t0, req);
                } else if serve {
                    // A serve client is `Done` and may have several
                    // requests waiting for first-hop credits at once; the
                    // single-slot `pending` park is a process-blocking
                    // mechanism. Park the request itself, like a
                    // retransmission, with its timer covering the wait.
                    self.credits.wait(key, Waiter::Retry { req });
                    self.arm_timeout(now + self.cfg.issue_overhead, req);
                } else {
                    self.credits.wait(key, Waiter::Proc(rank));
                    self.procs[rank.idx()].pending = Some(PendingIssue {
                        req,
                        first_hop: first,
                    });
                    self.procs[rank.idx()].phase = Phase::WaitingCredit;
                    return;
                }
            }
        }
        if blocking {
            self.procs[rank.idx()].phase = Phase::WaitingResponse;
        }
    }

    /// Fails `rank`'s in-flight operation `req` as unreachable: records the
    /// diagnostic and stops the rank (graceful degradation).
    fn rank_fail(&mut self, now: SimTime, rank: Rank, req: ReqId) {
        let r = self.requests[req as usize];
        self.fail_with(
            now,
            rank,
            SimError::Unreachable {
                at: now,
                rank,
                seq: r.seq,
                from: r.origin_node,
                to: r.target_node,
                dead: self.dead.clone(),
            },
        );
    }

    /// Marks `rank` terminally failed with `err` unless it already finished.
    fn fail_with(&mut self, now: SimTime, rank: Rank, err: SimError) {
        self.faults.failed_ops += 1;
        let phase = self.procs[rank.idx()].phase;
        if matches!(phase, Phase::Done | Phase::Lost | Phase::Failed) {
            // The rank already finished or died; keep the diagnostic only.
            self.failures.push(err);
            return;
        }
        if phase == Phase::InBarrier {
            self.barrier_waiting.retain(|&r| r != rank);
        }
        self.procs[rank.idx()].phase = Phase::Failed;
        self.failed_count += 1;
        self.failures.push(err);
        self.maybe_release_barrier(now);
    }

    /// Arms the per-request response timer for `req`'s current attempt.
    ///
    /// With jitter enabled (always on for serve-mode requests, opt-in via
    /// [`RetryConfig::jitter`](crate::RetryConfig::jitter) otherwise) the
    /// delay is drawn from the capped decorrelated-jitter distribution: a
    /// pure function of `(seed, seq, attempt)`, so replays of the same
    /// timeline redraw identical delays.
    fn arm_timeout(&mut self, now: SimTime, req: ReqId) {
        if !self.recovery_on() {
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

    /// Puts one frame on the wire from `from` to `to` at `at` and runs the
    /// receiver's end-to-end checksum: `Ok` with the arrival time of a
    /// clean copy, `Err` with the instant the copy was destroyed — lost in
    /// flight, or discarded on arrival because its payload was corrupted
    /// (counted in `FaultStats::corrupt_detected`). Every delivery passes
    /// through here, so each corrupt frame is caught exactly once. Callers
    /// treat both `Err` cases alike: sender-side reclaim timers and origin
    /// response timers recover whatever the frame carried. Without a fault
    /// plan every frame arrives clean.
    fn transmit(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        frame: Frame,
    ) -> Result<SimTime, SimTime> {
        match self.net.transmit(at, from, to, frame) {
            SendOutcome::Delivered(d) if d.corrupt => {
                self.faults.corrupt_detected += 1;
                Err(d.at)
            }
            SendOutcome::Delivered(d) => Ok(d.at),
            SendOutcome::Dropped { at, .. } => Err(at),
        }
    }

    /// Sends a direct (RDMA-path) request and its hardware-level response.
    /// A destroyed copy is simply gone — the origin's timer recovers it.
    /// With `dedup`, a notify fires at most once across retransmissions.
    fn send_direct(&mut self, t0: SimTime, req: ReqId, dedup: bool) {
        let r = self.requests[req as usize];
        let request = Frame::Message(r.op.request_bytes());
        let Ok(d1) = self.transmit(t0, r.origin_node, r.target_node, request) else {
            return;
        };
        if r.op.notify {
            let fresh = !dedup
                || self
                    .seen
                    .insert((r.origin.0, r.seq), DedupState::Pending)
                    .is_none();
            if fresh {
                self.queue.schedule(
                    d1,
                    Event::NotifyArrive {
                        target: r.op.target,
                    },
                );
            } else {
                self.faults.dedup_hits += 1;
            }
        }
        let response = Frame::Message(r.op.response_bytes());
        if let Ok(d2) = self.transmit(d1, r.target_node, r.origin_node, response) {
            self.queue.schedule(d2, Event::ResponseArrive { req });
        }
    }

    /// Puts a request on the wire towards `to` at time `at`. A destroyed
    /// copy schedules a delayed reclaim of the hop's buffer credit (the
    /// upstream sender's local ack-timeout); the origin's response timer
    /// recovers the operation itself.
    fn send_request(&mut self, at: SimTime, req: ReqId, from: NodeId, to: NodeId) {
        let bytes = self.requests[req as usize].op.request_bytes();
        match self.transmit(at, from, to, Frame::Message(bytes)) {
            Ok(arrival) => self
                .queue
                .schedule(arrival, Event::RequestArrive { req, node: to }),
            Err(destroyed_at) => {
                let r = self.requests[req as usize];
                let key = CreditKey {
                    sender: r.prev_sender,
                    edge: (from, to),
                    class: r.vc_class,
                };
                self.reclaim_later(destroyed_at, key);
            }
        }
    }

    /// Schedules a delayed credit release modelling the upstream sender's
    /// local buffer-reclaim timer: the request copy holding the credit was
    /// destroyed (dropped message or crashed node), so no ack will ever
    /// come back for it.
    fn reclaim_later(&mut self, destroyed_at: SimTime, key: CreditKey) {
        self.faults.reclaims += 1;
        self.queue.schedule(
            destroyed_at + self.cfg.retry.timeout,
            Event::AckArrive { key },
        );
    }

    // ----- server side ----------------------------------------------------

    fn request_arrive(&mut self, now: SimTime, req: ReqId, node: NodeId) {
        if self.membership_on() {
            // The message physically came from the previous hop: liveness
            // evidence piggybacked on existing traffic.
            let prev = self.requests[req as usize].prev_node;
            self.heard_from(prev, now);
        }
        if self.epochs_on() {
            let epoch = self.requests[req as usize].epoch;
            if epoch < self.membership.epoch {
                // Stale-epoch copy: its route was chosen against a packing
                // that no longer exists. Reject deterministically (freeing
                // the upstream buffer) and let the origin's timer replay
                // the operation under the new epoch.
                self.membership.stats.replayed_requests += 1;
                self.ack_member(now, node, req);
                return;
            }
        }
        if self.chts[node as usize].enqueue(req) {
            self.queue.schedule(now, Event::ChtTryStart { node });
        }
    }

    /// Attempts to start servicing the CHT's queue: parks forwards whose
    /// downstream credit is exhausted (they keep their upstream buffer) and
    /// starts the first serviceable request, if any.
    fn cht_try_start(&mut self, now: SimTime, node: NodeId) {
        if self.net.node_dead(node, now) {
            return;
        }
        if self.chts[node as usize].is_busy() {
            return;
        }
        while let Some(req) = self.chts[node as usize].head() {
            let r = self.requests[req as usize];
            if self.epochs_on() && r.epoch < self.membership.epoch {
                // A pre-repair copy still queued here: reject it like a
                // stale arrival. A parked forward may have been granted its
                // old-edge credit while waiting — release that too, or the
                // repaired run leaks it.
                self.membership.stats.replayed_requests += 1;
                self.chts[node as usize].pop_head();
                if r.credit_held {
                    self.requests[req as usize].credit_held = false;
                    let key = CreditKey {
                        sender: Sender::Cht(node),
                        edge: (node, r.fwd_next),
                        class: r.fwd_class,
                    };
                    self.ack_arrive(now, key);
                }
                self.ack_member(now, node, req);
                continue;
            }
            let terminal = r.target_node == node;
            if !terminal && !r.credit_held {
                let (next, class) = if self.recovery_on() {
                    match self.fwd_hop(r.prev_node, node, r.target_node, r.vc_class) {
                        Some((h, class, rerouted)) => {
                            if rerouted {
                                self.faults.reroutes += 1;
                            }
                            (h, class)
                        }
                        None => {
                            // No live next hop: discard the copy, free the
                            // upstream buffer with a real ack, and let the
                            // origin's timer deal with the operation.
                            self.faults.unreachable += 1;
                            self.chts[node as usize].pop_head();
                            self.ack_member(now, node, req);
                            continue;
                        }
                    }
                } else {
                    match self.topo.next_hop(node, r.target_node) {
                        Some(h) => (h, 0),
                        None => {
                            // Missing hop in a supposedly total table:
                            // discard the copy like an unreachable target
                            // instead of panicking mid-forward.
                            self.faults.unreachable += 1;
                            self.chts[node as usize].pop_head();
                            self.ack_member(now, node, req);
                            continue;
                        }
                    }
                };
                let key = CreditKey {
                    sender: Sender::Cht(node),
                    edge: (node, next),
                    class,
                };
                // Remember the choice: the forward after service must use
                // exactly the edge and class the credit was acquired on.
                self.requests[req as usize].fwd_next = next;
                self.requests[req as usize].fwd_class = class;
                if !self.credits.try_acquire(key) {
                    // Park: set the request aside until an ack returns a
                    // credit, and keep draining the queue.
                    self.chts[node as usize].pop_head();
                    self.chts[node as usize].note_parked();
                    self.credits.wait(key, Waiter::Fwd { node, req });
                    continue;
                }
            }
            self.chts[node as usize].pop_head();
            self.requests[req as usize].credit_held = false;
            if !terminal && self.cfg.coalesce.enabled {
                let members = self.collect_fold(node, req);
                if members.len() > 1 {
                    // Fold: the whole batch travels on the head's single
                    // downstream credit as one wire message.
                    self.chts[node as usize].remove_many(&members[1..]);
                    let ops: Vec<Op> = members
                        .iter()
                        .map(|&m| self.requests[m as usize].op)
                        .collect();
                    let head = self.requests[req as usize];
                    let env = self.alloc_env(EnvState {
                        members,
                        from: node,
                        to: head.fwd_next,
                        class: head.fwd_class,
                        pending: 0,
                    });
                    let wake = self.chts[node as usize].begin_service(
                        now,
                        self.cfg.cht.poll_window,
                        self.cfg.cht.wakeup_latency,
                    );
                    // Assembly is pipelined with the in-flight send: each
                    // extra member costs `envelope_fold`, not a second
                    // `forward_base`.
                    let dur = self.cht_pool_extra[node as usize]
                        + self.cfg.cht.envelope_forward_time(&ops);
                    self.cht_busy_total[node as usize] += wake + dur;
                    self.queue
                        .schedule(now + wake + dur, Event::ChtEnvDone { node, env });
                    return;
                }
            }
            let wake = self.chts[node as usize].begin_service(
                now,
                self.cfg.cht.poll_window,
                self.cfg.cht.wakeup_latency,
            );
            let dur = self.cht_pool_extra[node as usize]
                + if terminal {
                    self.cfg.cht.service_time(&r.op)
                } else {
                    self.cfg.cht.forward_time(&r.op)
                };
            self.cht_busy_total[node as usize] += wake + dur;
            self.queue
                .schedule(now + wake + dur, Event::ChtDone { node, req });
            return;
        }
    }

    /// Scans the queue behind `head` (already popped, downstream credit in
    /// hand) for requests whose next LDF hop and escape class match the
    /// head's, folding them into one envelope as long as the wire message
    /// fits the request-buffer bound. Returns the members, head first.
    fn collect_fold(&mut self, node: NodeId, head: ReqId) -> Vec<ReqId> {
        let hnext = self.requests[head as usize].fwd_next;
        let hclass = self.requests[head as usize].fwd_class;
        let max_bytes = self.cfg.envelope_max_bytes();
        let sub = self.net.config().env_sub_header;
        let mut wire = self.requests[head as usize].op.request_bytes();
        let mut members = vec![head];
        // Forwards parked on the head's own credit account already chose
        // this exact (edge, class); they are the oldest candidates and ride
        // the head's credit instead of each waiting for one of their own —
        // the coalescing win under credit exhaustion at a hot spot.
        let key = CreditKey {
            sender: Sender::Cht(node),
            edge: (node, hnext),
            class: hclass,
        };
        let cur_epoch = self.membership.epoch;
        let membership_on = self.epochs_on();
        let requests = &self.requests;
        let parked = self.credits.take_waiters(key, |w| match w {
            Waiter::Fwd { req, .. } => {
                // Stale-epoch parkers stay parked: once their old account
                // releases they surface at head-of-line and are rejected
                // with the proper bookkeeping there.
                if membership_on && requests[*req as usize].epoch < cur_epoch {
                    return false;
                }
                let rb = requests[*req as usize].op.request_bytes();
                if wire + rb + sub <= max_bytes {
                    wire += rb + sub;
                    true
                } else {
                    false
                }
            }
            _ => false,
        });
        for w in parked {
            match w {
                Waiter::Fwd { req, .. } => members.push(req),
                _ => unreachable!("only Fwd waiters park on a CHT account"),
            }
        }
        let candidates: Vec<ReqId> = self.chts[node as usize].iter().collect();
        for c in candidates {
            let rc = self.requests[c as usize];
            // Terminal-here requests are serviced, not forwarded; a
            // credit-held request already owns a (possibly different)
            // downstream credit that would leak if it rode the head's.
            if rc.target_node == node || rc.credit_held {
                continue;
            }
            // Stale-epoch candidates stay queued for the head-of-line
            // rejection pass; folding them into a fresh-epoch envelope
            // would smuggle them past it.
            if membership_on && rc.epoch < cur_epoch {
                continue;
            }
            let rb = rc.op.request_bytes();
            if wire + rb + sub > max_bytes {
                continue;
            }
            let (cnext, cclass, rerouted) = if self.recovery_on() {
                match self.fwd_hop(rc.prev_node, node, rc.target_node, rc.vc_class) {
                    Some(choice) => choice,
                    // Unreachable candidates stay queued; the head-of-line
                    // pass discards them with the proper ack.
                    None => continue,
                }
            } else {
                match self.topo.next_hop(node, rc.target_node) {
                    Some(h) => (h, 0, false),
                    // A hop-less candidate stays queued; the head-of-line
                    // pass discards it with the proper ack.
                    None => continue,
                }
            };
            if (cnext, cclass) != (hnext, hclass) {
                continue;
            }
            wire += rb + sub;
            self.requests[c as usize].fwd_next = cnext;
            self.requests[c as usize].fwd_class = cclass;
            members.push(c);
            if rerouted {
                self.faults.reroutes += 1;
            }
        }
        members
    }

    fn alloc_env(&mut self, env: EnvState) -> u32 {
        if let Some(id) = self.free_envs.pop() {
            self.envelopes[id as usize] = env;
            id
        } else {
            self.envelopes.push(env);
            (self.envelopes.len() - 1) as u32
        }
    }

    fn free_env(&mut self, id: u32) {
        // Like request slots, envelope slots are never reused under faults:
        // in-flight drops may leave stale references behind.
        if !self.recovery_on() {
            self.free_envs.push(id);
        }
    }

    /// A CHT finished assembling an envelope: ack every member's upstream
    /// buffer, restamp the members for the shared hop and put the envelope
    /// on the wire as one message.
    fn cht_env_done(&mut self, now: SimTime, node: NodeId, env: u32) {
        if self.net.node_dead(node, now) {
            // The assembling node died mid-service: every member copy dies
            // with it; their upstream buffers come back via reclaim timers.
            // The envelope slot is abandoned, so its member list moves out.
            let members = std::mem::take(&mut self.envelopes[env as usize].members);
            for m in members {
                self.reclaim_member(now, node, m);
            }
            return;
        }
        self.chts[node as usize].end_service(now);
        // Move the member list out while the slab is borrowed mutably; it is
        // restored below — the arrival side unpacks from the same slot.
        let members = std::mem::take(&mut self.envelopes[env as usize].members);
        let to = self.envelopes[env as usize].to;
        let class = self.envelopes[env as usize].class;
        let n = members.len() as u32;
        let payload: u64 = members
            .iter()
            .map(|&m| self.requests[m as usize].op.request_bytes())
            .sum();
        for &m in &members {
            self.chts[node as usize].counters.forwarded += 1;
            // Ack BEFORE restamping: the upstream release is keyed on the
            // member's previous hop (and possibly its previous envelope).
            self.ack_member(now, node, m);
            let slot = &mut self.requests[m as usize];
            slot.prev_sender = Sender::Cht(node);
            slot.prev_node = node;
            slot.vc_class = class;
            slot.env_slot = env;
        }
        let counters = &mut self.chts[node as usize].counters;
        counters.fwd_messages += 1;
        counters.envelopes += 1;
        counters.coalesced += u64::from(n);
        self.coalesce.envelopes += 1;
        self.coalesce.coalesced_requests += u64::from(n);
        self.coalesce.largest_envelope = self.coalesce.largest_envelope.max(payload);
        self.coalesce.deepest_fold = self.coalesce.deepest_fold.max(n);
        self.envelopes[env as usize].members = members;
        let envelope = Frame::Envelope {
            payload_bytes: payload,
            subreqs: n,
        };
        match self.transmit(now, node, to, envelope) {
            Ok(arrival) => self
                .queue
                .schedule(arrival, Event::EnvelopeArrive { env, node: to }),
            // The envelope (and every member copy inside it) is destroyed as
            // a unit; its single downstream credit comes back via the
            // sender's reclaim timer and the origins' response timers
            // recover the operations.
            Err(at) => self.reclaim_later(at, CreditKey::cht(node, to, class)),
        }
        if self.chts[node as usize].queue_len() > 0 {
            self.queue.schedule(now, Event::ChtTryStart { node });
        }
    }

    /// A coalesced envelope landed: unpack the members into the CHT queue.
    /// The envelope's single credit stays held until every member has been
    /// dealt with here (serviced, forwarded or discarded).
    fn envelope_arrive(&mut self, now: SimTime, env: u32, node: NodeId) {
        // Unpacking is the member list's last use: move it out of the slot
        // (the remaining envelope bookkeeping is the `pending` count).
        let members = std::mem::take(&mut self.envelopes[env as usize].members);
        self.envelopes[env as usize].pending = members.len() as u32;
        if self.membership_on() {
            let from = self.envelopes[env as usize].from;
            self.heard_from(from, now);
        }
        let mut start = false;
        for m in members {
            // Stale-epoch members are rejected here exactly as individual
            // requests are at arrival; ack_member keeps the envelope's
            // pending count and single aggregated ack correct.
            if self.epochs_on() && self.requests[m as usize].epoch < self.membership.epoch {
                self.membership.stats.replayed_requests += 1;
                self.ack_member(now, node, m);
                continue;
            }
            start |= self.chts[node as usize].enqueue(m);
        }
        if start {
            self.queue.schedule(now, Event::ChtTryStart { node });
        }
    }

    /// Frees the upstream buffer held by `req`'s last hop into `node`. An
    /// individual request gets its own ack; an envelope member instead
    /// decrements its envelope's pending count, and the last member out
    /// sends ONE aggregated ack releasing the envelope's single credit —
    /// the paper's reply aggregation on the return path.
    fn ack_member(&mut self, now: SimTime, node: NodeId, req: ReqId) {
        let r = self.requests[req as usize];
        let slot = r.env_slot;
        if slot == NO_ENV {
            let key = CreditKey {
                sender: r.prev_sender,
                edge: (r.prev_node, node),
                class: r.vc_class,
            };
            self.send_ack(now, node, r.prev_node, key);
            return;
        }
        self.requests[req as usize].env_slot = NO_ENV;
        let env = &mut self.envelopes[slot as usize];
        debug_assert_eq!(env.to, node, "member acked away from its envelope");
        debug_assert!(env.pending > 0);
        env.pending -= 1;
        if env.pending > 0 {
            return;
        }
        let (from, class) = (env.from, env.class);
        self.coalesce.agg_acks += 1;
        self.send_ack(now, node, from, CreditKey::cht(from, node, class));
        self.free_env(slot);
    }

    /// Fault-path sibling of [`Engine::ack_member`]: the copy of `req` at
    /// `node` was destroyed, so its upstream buffer comes back via a
    /// reclaim timer instead of an ack. For an envelope member the timer is
    /// armed once — by the last member destroyed — for the envelope's
    /// single credit.
    fn reclaim_member(&mut self, at: SimTime, node: NodeId, req: ReqId) {
        let r = self.requests[req as usize];
        if r.env_slot == NO_ENV {
            self.reclaim_later(
                at,
                CreditKey {
                    sender: r.prev_sender,
                    edge: (r.prev_node, node),
                    class: r.vc_class,
                },
            );
            return;
        }
        self.requests[req as usize].env_slot = NO_ENV;
        let env = &mut self.envelopes[r.env_slot as usize];
        debug_assert!(env.pending > 0);
        env.pending -= 1;
        if env.pending == 0 {
            let key = CreditKey::cht(env.from, env.to, env.class);
            self.reclaim_later(at, key);
        }
    }

    /// Sends the ack releasing credit `key` from `node` back to `to`. A
    /// destroyed ack still frees the buffer eventually: the upstream
    /// sender's reclaim timer fires instead.
    fn send_ack(&mut self, now: SimTime, node: NodeId, to: NodeId, key: CreditKey) {
        match self.transmit(now, node, to, Frame::Message(Op::ack_bytes())) {
            Ok(arrival) => self.queue.schedule(arrival, Event::AckArrive { key }),
            Err(at) => self.reclaim_later(at, key),
        }
    }

    fn cht_done(&mut self, now: SimTime, node: NodeId, req: ReqId) {
        if self.net.node_dead(node, now) {
            // The node died while this request was in service: the copy is
            // destroyed with it, and the upstream buffer is reclaimed by
            // its owner's local timer.
            self.reclaim_member(now, node, req);
            return;
        }
        self.chts[node as usize].end_service(now);
        let r = self.requests[req as usize];

        // Return the upstream sender's buffer credit with an explicit ack.
        self.ack_member(now, node, req);

        if r.target_node == node {
            // Terminal service: apply and respond directly to the origin.
            self.chts[node as usize].counters.serviced += 1;
            if self.recovery_on() {
                // Target-side dedup: retried non-idempotent operations must
                // execute exactly once even when an earlier copy got
                // through and only its response was lost.
                match self.seen.get(&(r.origin.0, r.seq)).copied() {
                    Some(DedupState::Done(value)) => {
                        self.faults.dedup_hits += 1;
                        self.requests[req as usize].resp_value = value;
                        self.respond(now, req);
                        if self.chts[node as usize].queue_len() > 0 {
                            self.queue.schedule(now, Event::ChtTryStart { node });
                        }
                        return;
                    }
                    Some(DedupState::Pending) => {
                        // The first copy is still queued (e.g. on a lock):
                        // swallow the duplicate, the original will respond.
                        self.faults.dedup_hits += 1;
                        if self.chts[node as usize].queue_len() > 0 {
                            self.queue.schedule(now, Event::ChtTryStart { node });
                        }
                        return;
                    }
                    None => {
                        self.seen.insert((r.origin.0, r.seq), DedupState::Pending);
                    }
                }
            }
            if r.op.notify {
                self.notify_rank(now, r.op.target);
            }
            match r.op.kind {
                OpKind::FetchAdd => {
                    self.apply_fetch_add(req);
                    self.respond(now, req);
                }
                OpKind::Lock => {
                    let state = self.locks.entry(r.op.target).or_default();
                    if state.held_by.is_none() {
                        state.held_by = Some(r.origin);
                        self.respond(now, req);
                    } else {
                        // Queued: the response (grant) is deferred until the
                        // holder unlocks. The request has been absorbed into
                        // CHT memory, so the upstream buffer was still freed.
                        state.waiting.push_back(req);
                    }
                }
                OpKind::Unlock => {
                    let state = self.locks.entry(r.op.target).or_default();
                    if state.held_by == Some(r.origin) {
                        state.held_by = None;
                        self.respond(now, req);
                        self.grant_lock_next(now, r.op.target);
                    } else {
                        // Unlock of a mutex not held by the caller: no-op.
                        self.respond(now, req);
                    }
                }
                _ => self.respond(now, req),
            }
        } else {
            // Forward the hop chosen (and credited) at service start.
            let next = r.fwd_next;
            self.chts[node as usize].counters.forwarded += 1;
            self.chts[node as usize].counters.fwd_messages += 1;
            let slot = &mut self.requests[req as usize];
            slot.prev_sender = Sender::Cht(node);
            slot.prev_node = node;
            slot.vc_class = slot.fwd_class;
            self.send_request(now, req, node, next);
        }

        if self.chts[node as usize].queue_len() > 0 {
            self.queue.schedule(now, Event::ChtTryStart { node });
        }
    }

    /// Sends `req`'s response from its target node to its origin.
    fn respond(&mut self, now: SimTime, req: ReqId) {
        let r = self.requests[req as usize];
        if self.recovery_on() {
            // Record the applied result so duplicates of this operation can
            // be re-answered without re-applying it.
            self.seen
                .insert((r.origin.0, r.seq), DedupState::Done(r.resp_value));
        }
        if r.target_node == r.origin_node {
            let at = now + self.net.config().shm_latency;
            self.queue.schedule(at, Event::ResponseArrive { req });
            return;
        }
        // A destroyed response is recovered by the origin's timer; the
        // retransmitted request will hit the dedup table and be re-answered.
        let response = Frame::Message(r.op.response_bytes());
        if let Ok(arrival) = self.transmit(now, r.target_node, r.origin_node, response) {
            self.queue.schedule(arrival, Event::ResponseArrive { req });
        }
    }

    /// Grants the mutex owned by `target` to the next queued lock request,
    /// if any.
    fn grant_lock_next(&mut self, now: SimTime, target: Rank) {
        let state = self.locks.entry(target).or_default();
        debug_assert!(state.held_by.is_none());
        if let Some(next_req) = state.waiting.pop_front() {
            state.held_by = Some(self.requests[next_req as usize].origin);
            self.respond(now, next_req);
        }
    }

    /// Raises `target`'s notification counter and wakes it if its
    /// WaitNotify threshold is now met.
    fn notify_rank(&mut self, now: SimTime, target: Rank) {
        let proc = &mut self.procs[target.idx()];
        proc.notified += 1;
        if proc.phase == Phase::WaitingNotify && proc.notified >= proc.notify_threshold {
            proc.phase = Phase::Running;
            self.queue.schedule(now, Event::ProcReady(target));
        }
    }

    fn apply_fetch_add(&mut self, req: ReqId) {
        let (target, amount) = {
            let r = &self.requests[req as usize];
            (r.op.target, r.op.amount)
        };
        let old = self.fetch_counters[target.idx()];
        self.fetch_counters[target.idx()] += amount;
        self.requests[req as usize].resp_value = Some(old);
    }

    // A waiter is only ever registered together with its pending issue, so
    // a granted proc without one is a protocol-state corruption: crash
    // loudly rather than silently dropping the credit.
    #[allow(clippy::expect_used)]
    fn ack_arrive(&mut self, now: SimTime, key: CreditKey) {
        match self.credits.release(key) {
            None => {}
            Some(Waiter::Proc(rank)) => {
                if self.faults_on()
                    && matches!(self.procs[rank.idx()].phase, Phase::Lost | Phase::Failed)
                {
                    // The waiter died while blocked: pass the credit on.
                    self.procs[rank.idx()].pending = None;
                    self.ack_arrive(now, key);
                    return;
                }
                // The credit transferred to the blocked process: send its
                // pending request now.
                let Some(pending) = self.procs[rank.idx()].pending.take() else {
                    // The waiter's node crashed (clearing the parked issue)
                    // and rebooted before this grant landed: the revived
                    // rank re-drives the operation through its retry
                    // timer, so the credit just passes on. Any other
                    // grant without a pending issue is protocol-state
                    // corruption.
                    assert!(
                        self.restart_time[self.procs[rank.idx()].node as usize].is_some(),
                        "granted proc must have a pending issue"
                    );
                    self.ack_arrive(now, key);
                    return;
                };
                let node = self.procs[rank.idx()].node;
                debug_assert_eq!(key.edge, (node, pending.first_hop));
                self.send_request(now, pending.req, node, pending.first_hop);
                self.arm_timeout(now, pending.req);
                if self.requests[pending.req as usize].blocking {
                    self.procs[rank.idx()].phase = Phase::WaitingResponse;
                } else {
                    self.procs[rank.idx()].phase = Phase::Running;
                    self.queue
                        .schedule(now + self.cfg.issue_overhead, Event::ProcReady(rank));
                }
            }
            Some(Waiter::Fwd { node, req }) => {
                if self.net.node_dead(node, now) {
                    // The forwarder died while parked: the copy it held is
                    // gone. Reclaim its upstream buffer and pass the
                    // just-granted downstream credit on.
                    self.reclaim_member(now, node, req);
                    self.ack_arrive(now, key);
                    return;
                }
                // The parked forward now holds its downstream credit; put it
                // back at the front of the queue (it is the oldest work).
                self.requests[req as usize].credit_held = true;
                if self.chts[node as usize].enqueue_front(req) {
                    self.queue.schedule(now, Event::ChtTryStart { node });
                }
            }
            Some(Waiter::Retry { req }) => {
                let r = self.requests[req as usize];
                if self.op_done.contains(&(r.origin.0, r.seq))
                    || matches!(
                        self.procs[r.origin.idx()].phase,
                        Phase::Lost | Phase::Failed
                    )
                {
                    // The operation resolved while the retry waited.
                    self.ack_arrive(now, key);
                    return;
                }
                debug_assert_eq!(key.edge, (r.origin_node, r.fwd_next));
                self.send_request(now, req, r.origin_node, r.fwd_next);
            }
        }
    }

    fn response_arrive(&mut self, now: SimTime, req: ReqId) {
        let r = self.requests[req as usize];
        let rank = r.origin;
        if self.membership_on() {
            // The response proves the target's CHT was alive to serve it.
            self.heard_from(r.target_node, now);
        }
        if self.recovery_on() {
            if !self.op_done.insert((rank.0, r.seq)) {
                // A duplicate response (an earlier attempt already
                // completed this operation): first one won, drop this.
                return;
            }
            if matches!(self.procs[rank.idx()].phase, Phase::Lost | Phase::Failed) {
                // The origin died or gave up on another operation before
                // this response landed.
                return;
            }
        }
        debug_assert!(r.live);
        let proc = &mut self.procs[rank.idx()];
        proc.outstanding -= 1;
        proc.completed_ops += 1;
        if let Some(v) = r.resp_value {
            proc.last_fetch = Some(v);
        }
        let fencing_done = proc.phase == Phase::Fencing && proc.outstanding == 0;
        self.metrics.complete_op(rank, r.op.kind, r.issued, now);
        if r.serve {
            self.serve.active -= 1;
            self.serve.stats.completed += 1;
            self.serve
                .latencies_us
                .push((now - r.issued).as_micros_f64());
        }
        self.free_request(req);
        if r.blocking || fencing_done {
            self.queue.schedule(now, Event::ProcReady(rank));
        }
    }

    // ----- fault recovery -------------------------------------------------

    /// A per-request response timer expired: retransmit with backoff, or
    /// fail the operation once the retry budget is spent.
    fn timeout_fire(&mut self, now: SimTime, req: ReqId) {
        let r = self.requests[req as usize];
        if self.op_done.contains(&(r.origin.0, r.seq)) {
            return; // Stale: the operation completed in time.
        }
        let phase = self.procs[r.origin.idx()].phase;
        if matches!(phase, Phase::Lost | Phase::Failed) {
            if r.serve {
                // The client died with the request in flight: close out the
                // serve-side accounting so the run can quiesce.
                self.serve_give_up(now, req);
            }
            return; // The origin is gone; nobody is waiting.
        }
        if phase == Phase::Done && !r.serve {
            return; // Program finished; a serve client is Done by design.
        }
        self.faults.timeouts += 1;
        if r.serve {
            if r.attempt >= self.cfg.retry.max_retries {
                self.serve_give_up(now, req);
                return;
            }
            let budget = &mut self.serve.budget[r.origin.idx()];
            if self.serve.guard_active || *budget == 0 {
                // The metastability guard (or an exhausted per-client retry
                // budget) sheds the retransmission instead of amplifying an
                // already-overloaded system.
                self.serve.stats.shed_retries += 1;
                self.serve_give_up(now, req);
                return;
            }
            *budget -= 1;
            self.serve.stats.retries += 1;
            self.serve.stats.retries_by_phase[self.cfg.serve.arrivals.phase_at(now).index()] += 1;
            self.retransmit(now, req);
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
    fn retransmit(&mut self, now: SimTime, req: ReqId) {
        self.faults.retries += 1;
        let old = self.requests[req as usize];
        let rank = old.origin;
        let new_req = self.alloc_request(Request {
            prev_sender: Sender::Proc(rank),
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
            epoch: self.membership.epoch,
            ..old
        });
        // The timer for the new attempt starts now and covers any time the
        // retransmit spends waiting for a first-hop credit.
        self.arm_timeout(now, new_req);
        if old.op.kind.is_direct() {
            if self.node_gone(old.target_node, now) {
                self.rank_fail(now, rank, new_req);
                return;
            }
            // Only a fault plan arms direct-op timers, so this is a
            // fault-mode retransmission.
            self.send_direct(now, new_req, true);
            return;
        }
        let (decision, rerouted) = self.first_hop(old.origin_node, old.target_node);
        match decision {
            HopDecision::Hop(first) => {
                if rerouted {
                    self.faults.reroutes += 1;
                }
                self.requests[new_req as usize].fwd_next = first;
                let key = CreditKey {
                    sender: Sender::Proc(rank),
                    edge: (old.origin_node, first),
                    class: 0,
                };
                if self.credits.try_acquire(key) {
                    self.send_request(now, new_req, old.origin_node, first);
                } else {
                    // Unlike an initial issue the process is already
                    // blocked (or running async work): queue the retry
                    // itself rather than the process.
                    self.credits.wait(key, Waiter::Retry { req: new_req });
                }
            }
            HopDecision::Unreachable => {
                // With membership on (or a reboot still ahead) and a
                // recoverable target, unreachability is a symptom of a
                // not-yet-repaired topology: the attempt's timer (armed
                // above) will retry after the epoch commits — or the
                // reboot lands — and an escape route exists again.
                if !(self.membership_on() || self.revival_ahead(now))
                    || self.node_gone(old.target_node, now)
                {
                    self.rank_fail(now, rank, new_req);
                }
            }
            HopDecision::Arrived => unreachable!("remote op"),
        }
    }

    /// A scheduled node crash fires: the node's CHT, NIC and resident ranks
    /// die. Queued requests on the node are destroyed (their upstream
    /// buffers come back via reclaim timers) and in-flight traffic to the
    /// node is dropped by the network layer from here on.
    fn node_crash(&mut self, now: SimTime, node: NodeId) {
        self.net.kill_node(node);
        if let Err(pos) = self.dead.binary_search(&node) {
            self.dead.insert(pos, node);
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
            // Snapshot what the crash interrupted: a scheduled reboot
            // restores (or resolves) it.
            self.procs[rank.idx()].saved_phase = phase;
            self.procs[rank.idx()].saved_barrier_gen = self.barrier_gen;
            self.procs[rank.idx()].phase = Phase::Lost;
            self.procs[rank.idx()].pending = None;
            self.lost_count += 1;
        }
        while let Some(req) = self.chts[node as usize].pop_head() {
            self.reclaim_member(now, node, req);
        }
        self.maybe_release_barrier(now);
    }

    /// Whether `node` is dead *and staying dead*: inside an outage window
    /// with no reboot still ahead. A node that the plan revives later is
    /// treated as recoverable — operations aimed at it keep their retry
    /// timers instead of failing fast.
    fn node_gone(&self, node: NodeId, now: SimTime) -> bool {
        self.net.node_dead(node, now) && self.restart_time[node as usize].is_none_or(|r| r <= now)
    }

    /// Whether any currently-dead node has a reboot still ahead of `now`
    /// (transient outages justify parking unreachable work on its timer
    /// even without the membership detector).
    fn revival_ahead(&self, now: SimTime) -> bool {
        self.dead
            .iter()
            .any(|&n| self.restart_time[n as usize].is_some_and(|r| r > now))
    }

    /// A scheduled node reboot fires: revive the NIC, drop the node from
    /// the route-around dead set, restore its Lost resident ranks to the
    /// phase the crash interrupted, and re-drive their in-flight
    /// operations. Re-issued attempts keep their original sequence
    /// numbers, so the target-side dedup table keeps every operation
    /// exactly-once across the crash→reboot cycle. With membership on the
    /// node also starts announcing itself, feeding the detector the
    /// evidence that grows the view back (see [`Engine::rejoin_announce`]).
    fn node_restart(&mut self, now: SimTime, node: NodeId) {
        self.net.revive_node(node);
        if let Ok(pos) = self.dead.binary_search(&node) {
            self.dead.remove(pos);
        }
        // Scan the slab for the node's unfinished work *before* restoring
        // phases (the filter keys on `Lost`). The slab is append-ordered,
        // so keeping the last live entry per (origin, seq) picks each
        // operation's newest attempt and minimises redundant chains.
        let mut rearm: FxHashMap<(u32, u64), ReqId> = FxHashMap::default();
        let mut lost_completions: Vec<ReqId> = Vec::new();
        for (id, r) in self.requests.iter().enumerate() {
            if !r.live || r.serve || r.origin_node != node {
                continue;
            }
            if self.procs[r.origin.idx()].phase != Phase::Lost {
                continue;
            }
            if self.op_done.contains(&(r.origin.0, r.seq)) {
                // Completed during the outage (an intra-node response that
                // landed while its rank was down): finalise at revival.
                lost_completions.push(id as ReqId);
            } else if r.target_node != r.origin_node {
                // Intra-node operations have no timers — their shared-
                // memory responses are still queued and complete normally.
                rearm.insert((r.origin.0, r.seq), id as ReqId);
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
                    let blocking = rearm
                        .iter()
                        .filter(|((o, _), _)| *o == rank.0)
                        .max_by_key(|((_, s), _)| *s)
                        .map(|(_, &id)| self.requests[id as usize].blocking)
                        .unwrap_or(false);
                    if blocking {
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
        // early-returned before touching the rank's accounting).
        for req in lost_completions {
            let r = self.requests[req as usize];
            let rank = r.origin;
            let proc = &mut self.procs[rank.idx()];
            proc.outstanding -= 1;
            proc.completed_ops += 1;
            if let Some(v) = r.resp_value {
                proc.last_fetch = Some(v);
            }
            let fencing_done = proc.phase == Phase::Fencing && proc.outstanding == 0;
            self.metrics.complete_op(rank, r.op.kind, r.issued, now);
            self.free_request(req);
            if r.blocking || fencing_done {
                self.queue.schedule(now, Event::ProcReady(rank));
            }
        }
        // Fresh response timers for the surviving in-flight work: the old
        // timers died with the node (their firings found a Lost origin).
        let mut rearm_ids: Vec<ReqId> = rearm.into_values().collect();
        rearm_ids.sort_unstable();
        for req in rearm_ids {
            self.arm_timeout(now, req);
        }
        if self.membership_on() {
            self.queue.schedule(now, Event::RejoinAnnounce { node });
        }
    }

    /// A rebooted node announces itself so the membership layer gathers
    /// rejoin evidence: the failure detector never probes a *confirmed*
    /// node and the revived ranks' own traffic is unroutable until the
    /// grow-back epoch commits, so without this the view would never heal.
    /// The announcement is an ordinary droppable probe to the lowest-id
    /// live peer still in the view; it re-arms each heartbeat period until
    /// the node is no longer confirmed dead.
    fn rejoin_announce(&mut self, now: SimTime, node: NodeId) {
        if !self.membership_on()
            || self.membership.confirmed.binary_search(&node).is_err()
            || self.net.node_dead(node, now)
        {
            return; // Re-admitted (or crashed again): nothing to announce.
        }
        if self.finished_count() >= self.cfg.n_procs && !(self.serve_on() && self.serve_live()) {
            return; // Quiescent: let the run end.
        }
        let n_nodes = self.layout.num_nodes();
        let peer = (0..n_nodes).find(|&p| {
            p != node
                && self.membership.confirmed.binary_search(&p).is_err()
                && !self.net.node_dead(p, now)
        });
        if let Some(peer) = peer {
            self.membership.stats.probes += 1;
            if let Ok(arrival) = self.transmit(now, node, peer, PROBE) {
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

    /// A partition window ends: count the heal and (with membership on)
    /// reset the evidence clocks of the nodes the cut involved — the
    /// detector grants them a fresh grace period instead of charging them
    /// for the backlog of silence the cut caused.
    fn partition_heal(&mut self, now: SimTime, idx: u32) {
        self.faults.partitions_healed += 1;
        if !self.membership_on() {
            return;
        }
        for node in 0..self.layout.num_nodes() {
            if self.partition_plan[idx as usize].involves(node)
                && self.membership.confirmed.binary_search(&node).is_err()
            {
                self.membership.last_heard[node as usize] = now;
                self.membership.suspected[node as usize] = false;
            }
        }
    }

    /// Whether any partition window is active at `now` with `node` on
    /// either side of the cut (the detector's grace shield).
    fn partition_involves(&self, now: SimTime, node: NodeId) -> bool {
        self.partition_plan
            .iter()
            .any(|w| now >= w.from && now < w.until && w.involves(node))
    }

    // ----- membership: detection, epochs, live re-packing ----------------

    /// Dead physical nodes that are still *inside* the committed packing
    /// (crashed after the repair, not yet confirmed), as repacked slots —
    /// the route-around set for the repaired grid.
    fn dead_slots(&self, p: &SurvivorPacking) -> Vec<NodeId> {
        self.dead.iter().filter_map(|&d| p.slot_of(d)).collect()
    }

    /// First-hop decision from `src` towards `dest` under the current
    /// membership view (the committed survivor packing when one exists,
    /// the original topology otherwise). Returns the decision plus whether
    /// it deviated from the healthy LDF hop (a reroute).
    fn first_hop(&self, src: NodeId, dest: NodeId) -> (HopDecision, bool) {
        if let Some(p) = &self.membership.packing {
            let (Some(s), Some(d)) = (p.slot_of(src), p.slot_of(dest)) else {
                return (HopDecision::Unreachable, false);
            };
            let dead = self.dead_slots(p);
            match ldf::next_hop_avoiding(p.grid().shape(), p.num_live(), s, d, &dead) {
                HopDecision::Hop(h) => {
                    let rerouted = p.grid().next_hop(s, d) != Some(h);
                    (HopDecision::Hop(p.node_of(h)), rerouted)
                }
                other => (other, false),
            }
        } else {
            match ldf::next_hop_avoiding(
                &self.shape,
                self.layout.num_nodes(),
                src,
                dest,
                &self.dead,
            ) {
                HopDecision::Hop(h) => {
                    let rerouted = self.topo.next_hop(src, dest) != Some(h);
                    (HopDecision::Hop(h), rerouted)
                }
                other => (other, false),
            }
        }
    }

    /// Forwarding decision at `node` under the current membership view:
    /// [`forward_decision`] over the committed survivor packing (physical
    /// ids mapped through the slot table) when one exists, over the
    /// original topology otherwise. Returns `(next_phys_node, class,
    /// rerouted)`.
    fn fwd_hop(
        &self,
        prev: NodeId,
        node: NodeId,
        dest: NodeId,
        base_class: u8,
    ) -> Option<(NodeId, u8, bool)> {
        if let Some(p) = &self.membership.packing {
            let s_node = p.slot_of(node)?;
            let s_dest = p.slot_of(dest)?;
            // `prev` outside the packing can only be the origin-here
            // convention (prev == node); same-epoch forwards always chose
            // packing members.
            let s_prev = p.slot_of(prev).unwrap_or(s_node);
            let dead = self.dead_slots(p);
            let (h, class) = forward_decision(
                p.grid().shape(),
                p.num_live(),
                s_prev,
                s_node,
                s_dest,
                base_class,
                &dead,
            )?;
            let rerouted = p.grid().next_hop(s_node, s_dest) != Some(h);
            Some((p.node_of(h), class, rerouted))
        } else {
            let (h, class) = forward_decision(
                &self.shape,
                self.layout.num_nodes(),
                prev,
                node,
                dest,
                base_class,
                &self.dead,
            )?;
            Some((h, class, self.topo.next_hop(node, dest) != Some(h)))
        }
    }

    /// Records fresh liveness evidence for `node` and updates its
    /// phi-accrual expectation. No-op with membership off.
    fn heard_from(&mut self, node: NodeId, now: SimTime) {
        if !self.membership_on() {
            return;
        }
        if let Ok(pos) = self.membership.confirmed.binary_search(&node) {
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
            self.membership.confirmed.remove(pos);
            self.membership.suspected[node as usize] = false;
            self.membership.last_heard[node as usize] = now;
            self.pending_rejoins += 1;
            if !self.membership.pending_commit {
                self.membership.pending_commit = true;
                self.queue
                    .schedule(now + self.cfg.membership.drain_window, Event::EpochCommit);
            }
            return;
        }
        let m = &mut self.membership;
        let idx = node as usize;
        let interval = (now - m.last_heard[idx]).as_nanos() as f64;
        m.mean_interval_ns[idx] = 0.8 * m.mean_interval_ns[idx] + 0.2 * interval;
        m.last_heard[idx] = now;
        m.suspected[idx] = false;
    }

    /// The failure detector's periodic sweep: probe silent peers, accrue
    /// suspicion against the expected evidence interval, and confirm
    /// crashes (scheduling an epoch commit after the drain window).
    fn membership_tick(&mut self, now: SimTime) {
        if self.finished_count() >= self.cfg.n_procs && !(self.serve_on() && self.serve_live()) {
            return; // Quiescent: stop ticking so the run can end.
        }
        let n_nodes = self.layout.num_nodes();
        let period = self.cfg.membership.heartbeat_period;
        for node in 0..n_nodes {
            if self.membership.confirmed.binary_search(&node).is_ok() {
                continue;
            }
            let idx = node as usize;
            let elapsed = now - self.membership.last_heard[idx];
            if elapsed < period {
                continue;
            }
            // Idle-probe fallback: the lowest-id other unconfirmed node
            // pings the silent peer; a live peer's ack restores its
            // evidence stream. Probes are real droppable messages.
            let prober = (0..n_nodes)
                .find(|&p| p != node && self.membership.confirmed.binary_search(&p).is_err());
            if let Some(prober) = prober {
                self.membership.stats.probes += 1;
                if let Ok(arrival) = self.transmit(now, prober, node, PROBE) {
                    self.queue
                        .schedule(arrival, Event::ProbeArrive { node, prober });
                }
            }
            let expected = self.membership.mean_interval_ns[idx].max(period.as_nanos() as f64);
            let phi = elapsed.as_nanos() as f64 / expected;
            if phi >= self.cfg.membership.phi_threshold && !self.membership.suspected[idx] {
                if self.partition_involves(now, node) {
                    // Grace shield: an active cut explains the silence, so
                    // the suspicion is held rather than raised — a
                    // partition that heals in time never reaches the
                    // confirmation round, let alone a spurious epoch. The
                    // evidence clock restarts so the charge doesn't re-
                    // accrue until another full period of real silence.
                    self.membership.stats.false_suspicions_suppressed += 1;
                    self.membership.last_heard[idx] = now;
                    continue;
                }
                self.membership.suspected[idx] = true;
                self.membership.stats.suspicions += 1;
                if self.net.node_dead(node, now) {
                    // Confirmation round: indirect probes agree the peer is
                    // gone. Record it and schedule the repair once the
                    // drain window elapses.
                    if let Err(pos) = self.membership.confirmed.binary_search(&node) {
                        self.membership.confirmed.insert(pos, node);
                    }
                    if !self.membership.pending_commit {
                        self.membership.pending_commit = true;
                        self.queue
                            .schedule(now + self.cfg.membership.drain_window, Event::EpochCommit);
                    }
                } else {
                    // Confirmation round exonerated the peer (a SWIM-style
                    // indirect probe got through): false alarm, reset.
                    self.membership.stats.false_suspicions += 1;
                    self.membership.suspected[idx] = false;
                    self.membership.last_heard[idx] = now;
                }
            }
        }
        self.queue.schedule(now + period, Event::MembershipTick);
    }

    /// A heartbeat probe landed: a live node acks it (the ack is the
    /// detector's evidence); a dead node stays silent.
    fn probe_arrive(&mut self, now: SimTime, node: NodeId, prober: NodeId) {
        if self.net.node_dead(node, now) {
            return;
        }
        // Receiving a probe is itself evidence that the prober is alive.
        self.heard_from(prober, now);
        // The ack is a plain probe-sized message, not a probe of its own.
        if let Ok(arrival) = self.transmit(now, node, prober, Frame::Message(PROBE_BYTES)) {
            self.queue.schedule(arrival, Event::ProbeAck { node });
        }
    }

    /// The drain window after a confirmed crash elapsed: recompute the
    /// lowest-dimension-first packing over the survivors (walking the
    /// fallback ladder past any rung the installed certifier refuses),
    /// re-derive the per-node buffer pools, and bump the epoch so stale
    /// copies routed against the old packing are rejected on arrival.
    fn epoch_commit(&mut self) {
        self.membership.pending_commit = false;
        let n_nodes = self.layout.num_nodes();
        let dead = self.membership.confirmed.clone();
        // A load-triggered re-pack switches the target kind; crash repairs
        // leave it at the configured topology.
        let kind = self.membership.repack_kind;
        let repacked = match self.membership.certifier {
            Some(cert) => vt_core::repack_with(kind, n_nodes, &dead, cert),
            None => vt_core::repack(kind, n_nodes, &dead),
        };
        let Ok(packing) = repacked else {
            // Every rung refused (only possible with a certifier that
            // rejects even the FCG terminal): keep the previous view — the
            // retry machinery keeps diagnosing unreachable operations.
            return;
        };
        let new_epoch = self.membership.epoch + 1;
        // Old-epoch operations still in flight at the commit: they drain
        // through stale rejection + origin retransmission, not blocking.
        let mut drained: FxHashSet<(u32, u64)> = FxHashSet::default();
        for r in &self.requests {
            // Serve-mode origins are `Done` by design; their in-flight
            // requests still drain through the stale-rejection machinery.
            if r.live
                && r.epoch < new_epoch
                && !self.op_done.contains(&(r.origin.0, r.seq))
                && (r.serve
                    || !matches!(
                        self.procs[r.origin.idx()].phase,
                        Phase::Done | Phase::Lost | Phase::Failed
                    ))
            {
                drained.insert((r.origin.0, r.seq));
            }
        }
        self.membership.epoch = new_epoch;
        self.membership.stats.epoch_bumps += 1;
        self.membership.stats.final_epoch = new_epoch;
        self.membership.stats.rejoins_committed += std::mem::take(&mut self.pending_rejoins);
        self.membership.stats.fallback_depth = self
            .membership
            .stats
            .fallback_depth
            .max(packing.fallback_depth());
        self.membership.stats.drained_requests += drained.len() as u64;
        // Re-derive the survivors' buffer pools for the repaired grid: the
        // CHT cache-pressure term now reflects the new edge set.
        for phys in 0..n_nodes {
            if let Some(slot) = packing.slot_of(phys) {
                let pool =
                    crate::memory::node_memory(&self.cfg, packing.grid(), slot).cht_pool_bytes;
                let mib = pool as f64 / (1024.0 * 1024.0);
                self.cht_pool_extra[phys as usize] =
                    SimTime::from_nanos((mib * self.cfg.cht.cache_ns_per_pool_mib).round() as u64);
            }
        }
        self.membership.packing = Some(packing);
        if std::mem::take(&mut self.serve.pending_load_repack) {
            self.serve.stats.load_repacks += 1;
            self.serve.stats.repack_kind = Some(kind);
        }
    }

    // ----- open-system serving --------------------------------------------

    /// Draws `rank`'s next inter-arrival gap and schedules the arrival if
    /// it still lands inside the serving horizon.
    fn schedule_next_arrival(&mut self, rank: Rank) {
        let at = self.serve.gens[rank.idx()].next_arrival();
        if at < self.cfg.serve.horizon {
            self.queue.schedule(at, Event::ClientArrival { rank });
        } else {
            self.serve.arrivals_done += 1;
        }
    }

    /// A client request arrives from the open world: admit it (bounded by
    /// the per-client in-flight cap) or shed it deterministically.
    fn client_arrival(&mut self, now: SimTime, rank: Rank) {
        self.schedule_next_arrival(rank);
        if matches!(self.procs[rank.idx()].phase, Phase::Lost | Phase::Failed) {
            return; // A dead client generates no load.
        }
        let phase_idx = self.cfg.serve.arrivals.phase_at(now).index();
        self.serve.stats.arrivals += 1;
        self.serve.stats.arrivals_by_phase[phase_idx] += 1;
        self.serve.win_arrivals += 1;
        if self.procs[rank.idx()].outstanding >= self.cfg.serve.queue_cap {
            // Admission control: the client's in-flight window is full. The
            // shed arrival still consumes a sequence number so admitted
            // timelines are insensitive to diagnostic bookkeeping.
            let seq = self.next_seq;
            self.next_seq += 1;
            self.serve.stats.sheds += 1;
            self.serve.stats.sheds_by_phase[phase_idx] += 1;
            self.serve.win_sheds += 1;
            self.faults.sheds += 1;
            // Keep a bounded sample of shed diagnostics: a saturated run
            // sheds millions of arrivals and the vector is per-failure.
            if self.serve.stats.sheds <= 8 {
                self.failures.push(SimError::Overloaded {
                    at: now,
                    rank,
                    seq,
                    depth: self.procs[rank.idx()].outstanding,
                    cap: self.cfg.serve.queue_cap,
                });
            }
            return;
        }
        self.serve.stats.admitted += 1;
        self.serve.active += 1;
        let hot = Rank(self.cfg.serve.hot_rank);
        self.issue_op_inner(now, rank, Op::fetch_add(hot, 1), false, true);
    }

    /// Periodic serving-control tick: evaluates the metastability guard
    /// over the last window and the hot-spot skew detector that triggers a
    /// load re-pack, then re-arms itself while the open system is live.
    fn serve_tick(&mut self, now: SimTime) {
        if !self.serve_live() {
            return; // All arrivals landed and drained: stop ticking.
        }
        // Metastability guard: when the shed fraction over the last tick
        // window crosses the threshold, suppress retransmissions until the
        // window looks healthy again (retry storms are what tip an
        // overloaded open system into the metastable regime).
        let (arr, sheds) = (self.serve.win_arrivals, self.serve.win_sheds);
        self.serve.win_arrivals = 0;
        self.serve.win_sheds = 0;
        #[allow(clippy::cast_precision_loss)]
        let frac = if arr == 0 {
            0.0
        } else {
            sheds as f64 / arr as f64
        };
        if frac >= self.cfg.serve.guard_threshold {
            if !self.serve.guard_active {
                self.serve.guard_active = true;
                self.serve.stats.guard_trips += 1;
            }
        } else {
            self.serve.guard_active = false;
        }
        // Hot-spot skew detector: a sustained imbalance of per-tick CHT
        // busy time (queue depth hides inside the network's time
        // reservations) escalates the topology kind one rung up the
        // attenuation ladder and commits it as a membership epoch under
        // live traffic.
        if self.cfg.serve.load_repack && !self.serve.repacked && !self.membership.pending_commit {
            let n_nodes = self.layout.num_nodes();
            self.serve.busy_seen.resize(n_nodes as usize, SimTime::ZERO);
            let (mut total, mut max) = (0u64, 0u64);
            for node in 0..n_nodes as usize {
                let seen = self.cht_busy_total[node];
                let delta = seen.saturating_sub(self.serve.busy_seen[node]).as_nanos();
                self.serve.busy_seen[node] = seen;
                total += delta;
                max = max.max(delta);
            }
            #[allow(clippy::cast_precision_loss)]
            let skewed = total > 0
                && max as f64
                    >= self.cfg.serve.skew_threshold * (total as f64 / f64::from(n_nodes));
            if skewed {
                self.serve.skew_streak += 1;
            } else {
                self.serve.skew_streak = 0;
            }
            if self.serve.skew_streak >= self.cfg.serve.skew_ticks {
                let current = self
                    .membership
                    .packing
                    .as_ref()
                    .map_or(self.cfg.topology, SurvivorPacking::kind);
                match escalate_kind(current, n_nodes) {
                    Some(kind) => {
                        self.serve.repacked = true;
                        self.serve.pending_load_repack = true;
                        self.membership.repack_kind = kind;
                        self.membership.pending_commit = true;
                        self.queue
                            .schedule(now + self.cfg.membership.drain_window, Event::EpochCommit);
                    }
                    // Already at the top of the ladder: stop probing.
                    None => self.serve.repacked = true,
                }
            }
        }
        self.queue
            .schedule(now + self.cfg.serve.tick, Event::ServeTick);
    }

    /// Abandons serve-mode request `req`: the client stops waiting, the
    /// operation is marked resolved (squelching late responses and parked
    /// retries), and the accounting that keeps the open system drainable is
    /// closed out. Never fails the client rank — giving up on one request
    /// is normal overload behaviour, not a crash.
    fn serve_give_up(&mut self, now: SimTime, req: ReqId) {
        let _ = now;
        let r = self.requests[req as usize];
        if !self.op_done.insert((r.origin.0, r.seq)) {
            return; // Already resolved by a racing path.
        }
        self.serve.stats.gave_up += 1;
        self.faults.failed_ops += 1;
        self.procs[r.origin.idx()].outstanding -= 1;
        self.serve.active -= 1;
        self.free_request(req);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::workload::{ClosureProgram, ScriptProgram};
    use vt_core::TopologyKind;

    fn small_cfg(n_procs: u32, topo: TopologyKind) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::new(n_procs, topo);
        cfg.record_ops = true;
        cfg
    }

    fn run_all(cfg: RuntimeConfig, mk: impl Fn(Rank) -> Box<dyn Program>) -> Report {
        let programs = (0..cfg.n_procs).map(|r| mk(Rank(r))).collect();
        Engine::new(cfg, programs).run().expect("no deadlock")
    }

    #[test]
    fn all_idle_finishes_at_zero() {
        let report = run_all(small_cfg(8, TopologyKind::Fcg), |_| {
            Box::new(ScriptProgram::new(vec![]))
        });
        assert_eq!(report.finish_time, SimTime::ZERO);
        assert_eq!(report.metrics.total_ops(), 0);
    }

    #[test]
    fn single_blocking_putv_completes() {
        // 8 procs, 4 ppn -> 2 nodes; rank 4 sends a vectored put to rank 0.
        let report = run_all(small_cfg(8, TopologyKind::Fcg), |r| {
            if r == Rank(4) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::put_v(
                    Rank(0),
                    4,
                    1024,
                ))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert_eq!(report.metrics.per_rank[4].ops, 1);
        let lat = report.metrics.per_rank[4].latency_us.mean();
        // Sane magnitude: tens of microseconds, not zero, not seconds.
        assert!(lat > 5.0 && lat < 200.0, "latency {lat}us");
        assert_eq!(report.cht_totals.serviced, 1);
        assert_eq!(report.cht_totals.forwarded, 0);
    }

    #[test]
    fn local_op_bypasses_cht() {
        let report = run_all(small_cfg(4, TopologyKind::Fcg), |r| {
            if r == Rank(1) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::acc(Rank(0), 4096))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert_eq!(report.cht_totals.serviced, 0);
        assert_eq!(report.net.messages, 0);
        assert_eq!(report.metrics.per_rank[1].ops, 1);
        let lat = report.metrics.per_rank[1].latency_us.mean();
        assert!(lat < 10.0, "intra-node op should be fast, got {lat}us");
    }

    #[test]
    fn direct_put_bypasses_cht_but_uses_network() {
        let report = run_all(small_cfg(8, TopologyKind::Fcg), |r| {
            if r == Rank(4) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::put(Rank(0), 8192))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert_eq!(report.cht_totals.serviced, 0);
        assert_eq!(report.net.messages, 2); // payload + hardware ack
    }

    #[test]
    fn mfcg_forwards_non_neighbor_requests() {
        // 9 nodes on a 3x3 MFCG at 1 ppn: rank 8 -> rank 0 needs one forward.
        let mut cfg = small_cfg(9, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        let report = run_all(cfg, |r| {
            if r == Rank(8) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::fetch_add(
                    Rank(0),
                    1,
                ))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert_eq!(report.cht_totals.forwarded, 1);
        assert_eq!(report.cht_totals.serviced, 1);
    }

    #[test]
    fn fetch_add_returns_running_counter() {
        // Three ranks each fetch-add 1 on rank 0's counter; the returned
        // values must be a permutation of {0, 1, 2}.
        let mut cfg = small_cfg(4, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::<i64>::new()));
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|_| {
                let seen = seen.clone();
                let mut fired = false;
                Box::new(ClosureProgram::new(move |ctx: &ProcCtx| {
                    if ctx.rank == Rank(0) {
                        return Action::Done;
                    }
                    if !fired {
                        fired = true;
                        return Action::Op(Op::fetch_add(Rank(0), 1));
                    }
                    if let Some(v) = ctx.last_fetch {
                        seen.lock().unwrap().push(v);
                    }
                    Action::Done
                })) as Box<dyn Program>
            })
            .collect();
        let report = Engine::new(cfg, programs).run().unwrap();
        assert_eq!(report.metrics.total_ops(), 3);
        let mut vals = seen.lock().unwrap().clone();
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 1, 2]);
    }

    #[test]
    fn async_ops_fence_with_waitall() {
        let mut cfg = small_cfg(4, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let report = run_all(cfg, |r| {
            if r == Rank(3) {
                Box::new(ScriptProgram::new(vec![
                    Action::OpAsync(Op::acc(Rank(0), 1024)),
                    Action::OpAsync(Op::acc(Rank(1), 1024)),
                    Action::OpAsync(Op::acc(Rank(2), 1024)),
                    Action::WaitAll,
                ]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert_eq!(report.metrics.per_rank[3].ops, 3);
        assert_eq!(report.cht_totals.serviced, 3);
    }

    #[test]
    fn barrier_synchronises_all_ranks() {
        // Rank 0 computes 1 ms then barriers; everyone else barriers
        // immediately. All must finish at (or after) the release.
        let cfg = small_cfg(8, TopologyKind::Fcg);
        let report = run_all(cfg, |r| {
            if r == Rank(0) {
                Box::new(ScriptProgram::new(vec![
                    Action::Compute(SimTime::from_millis(1)),
                    Action::Barrier,
                ]))
            } else {
                Box::new(ScriptProgram::new(vec![Action::Barrier]))
            }
        });
        assert!(report.finish_time >= SimTime::from_millis(1));
        for s in &report.metrics.per_rank {
            assert!(s.done_at >= SimTime::from_millis(1));
        }
    }

    #[test]
    fn credit_exhaustion_blocks_then_recovers() {
        // One sender with M = 1 credit fires 5 async accs at the same
        // remote target: issues must serialise on the credit but all
        // complete.
        let mut cfg = small_cfg(2, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        cfg.buffers_per_proc = 1;
        let report = run_all(cfg, |r| {
            if r == Rank(1) {
                Box::new(ScriptProgram::new(vec![
                    Action::OpAsync(Op::acc(Rank(0), 512)),
                    Action::OpAsync(Op::acc(Rank(0), 512)),
                    Action::OpAsync(Op::acc(Rank(0), 512)),
                    Action::OpAsync(Op::acc(Rank(0), 512)),
                    Action::OpAsync(Op::acc(Rank(0), 512)),
                    Action::WaitAll,
                ]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert_eq!(report.metrics.per_rank[1].ops, 5);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = |cfg: RuntimeConfig| {
            run_all(cfg, |r| {
                Box::new(ScriptProgram::new(vec![
                    Action::Op(Op::put_v(Rank((r.0 + 1) % 16), 4, 512)),
                    Action::Barrier,
                    Action::Op(Op::fetch_add(Rank(0), 1)),
                ]))
            })
        };
        let a = mk(small_cfg(16, TopologyKind::Mfcg));
        let b = mk(small_cfg(16, TopologyKind::Mfcg));
        assert_eq!(a.finish_time, b.finish_time);
        assert_eq!(a.net, b.net);
        assert_eq!(
            a.metrics.mean_latency_by_rank_us(),
            b.metrics.mean_latency_by_rank_us()
        );
    }

    #[test]
    fn lock_is_granted_fifo_and_excludes() {
        // Ranks 1 and 2 both lock rank 0's mutex, hold it for 1 ms of
        // compute, then unlock. The second lock must be delayed by the
        // first holder's critical section.
        let mut cfg = small_cfg(3, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let report = run_all(cfg, |r| {
            if r == Rank(0) {
                Box::new(ScriptProgram::new(vec![]))
            } else {
                Box::new(ScriptProgram::new(vec![
                    Action::Op(Op::lock(Rank(0))),
                    Action::Compute(SimTime::from_millis(1)),
                    Action::Op(Op::unlock(Rank(0))),
                ]))
            }
        });
        let locks: Vec<_> = report
            .metrics
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Lock)
            .collect();
        assert_eq!(locks.len(), 2);
        let mut lat: Vec<SimTime> = locks.iter().map(|o| o.latency()).collect();
        lat.sort_unstable();
        // One immediate grant, one delayed by at least the 1 ms hold.
        assert!(lat[0] < SimTime::from_millis(1));
        assert!(
            lat[1] >= SimTime::from_millis(1),
            "second lock {:?}",
            lat[1]
        );
        // Both critical sections completed: 2 locks + 2 unlocks.
        assert_eq!(report.metrics.total_ops(), 4);
    }

    #[test]
    fn unheld_unlock_is_a_noop() {
        let mut cfg = small_cfg(2, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let report = run_all(cfg, |r| {
            if r == Rank(1) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::unlock(Rank(0)))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert_eq!(report.metrics.total_ops(), 1);
    }

    #[test]
    fn intra_node_lock_contention_respects_mutex() {
        // Two ranks on the same node as the mutex owner: the local path
        // must still serialise the critical sections.
        let report = run_all(small_cfg(4, TopologyKind::Fcg), |r| {
            if r == Rank(1) || r == Rank(2) {
                Box::new(ScriptProgram::new(vec![
                    Action::Op(Op::lock(Rank(0))),
                    Action::Compute(SimTime::from_millis(2)),
                    Action::Op(Op::unlock(Rank(0))),
                ]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        // Total time covers two back-to-back 2 ms critical sections.
        assert!(report.finish_time >= SimTime::from_millis(4));
    }

    #[test]
    fn blocked_lock_holder_shows_as_deadlock_if_never_released() {
        // A rank that locks and never unlocks leaves a queued second lock
        // with no pending events: the engine must report the quiescence
        // instead of hanging or mis-completing.
        let mut cfg = small_cfg(3, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let programs: Vec<Box<dyn Program>> = (0..3)
            .map(|r| {
                Box::new(ScriptProgram::new(if r == 0 {
                    vec![]
                } else {
                    vec![Action::Op(Op::lock(Rank(0)))]
                })) as Box<dyn Program>
            })
            .collect();
        let err = Engine::new(cfg, programs).run().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("deadlock"), "unexpected: {msg}");
    }

    #[test]
    fn notify_wakes_a_waiting_consumer() {
        // Rank 1 waits for two notifications; rank 2 computes 1 ms, then
        // sends two notifying puts. Rank 1 must finish after the producer's
        // compute block.
        let mut cfg = small_cfg(3, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let report = run_all(cfg, |r| match r.0 {
            1 => Box::new(ScriptProgram::new(vec![Action::WaitNotify(2)])),
            2 => Box::new(ScriptProgram::new(vec![
                Action::Compute(SimTime::from_millis(1)),
                Action::Op(Op::put(Rank(1), 4096).with_notify()),
                Action::Op(Op::put_v(Rank(1), 4, 256).with_notify()),
            ])),
            _ => Box::new(ScriptProgram::new(vec![])),
        });
        let consumer_done = report.metrics.per_rank[1].done_at;
        assert!(consumer_done >= SimTime::from_millis(1));
        assert!(report.finish_time >= consumer_done);
    }

    #[test]
    fn wait_notify_already_satisfied_is_immediate() {
        let mut cfg = small_cfg(2, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let report = run_all(cfg, |r| {
            if r == Rank(0) {
                Box::new(ScriptProgram::new(vec![Action::WaitNotify(0)]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert_eq!(report.metrics.per_rank[0].done_at, SimTime::ZERO);
    }

    #[test]
    fn missing_notification_is_reported_as_deadlock() {
        let mut cfg = small_cfg(2, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(ScriptProgram::new(vec![Action::WaitNotify(1)])),
            Box::new(ScriptProgram::new(vec![])),
        ];
        let err = Engine::new(cfg, programs).run().unwrap_err();
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn notify_counts_accumulate_across_waits() {
        // A two-stage pipeline: rank 0 waits for 1, then for 2 cumulative
        // notifications.
        let mut cfg = small_cfg(2, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let report = run_all(cfg, |r| {
            if r == Rank(0) {
                Box::new(ScriptProgram::new(vec![
                    Action::WaitNotify(1),
                    Action::Compute(SimTime::from_micros(10)),
                    Action::WaitNotify(2),
                ]))
            } else {
                Box::new(ScriptProgram::new(vec![
                    Action::Op(Op::acc(Rank(0), 128).with_notify()),
                    Action::Compute(SimTime::from_millis(2)),
                    Action::Op(Op::acc(Rank(0), 128).with_notify()),
                ]))
            }
        });
        assert!(report.metrics.per_rank[0].done_at >= SimTime::from_millis(2));
    }

    fn run_all_faulted(
        cfg: RuntimeConfig,
        plan: &FaultPlan,
        mk: impl Fn(Rank) -> Box<dyn Program>,
    ) -> Report {
        let programs = (0..cfg.n_procs).map(|r| mk(Rank(r))).collect();
        Engine::with_faults(cfg, programs, plan)
            .run()
            .expect("fault run must terminate cleanly")
    }

    /// A non-empty plan that injects nothing: probability-zero drop window.
    /// Enables the whole recovery machinery without perturbing traffic.
    fn inert_plan() -> FaultPlan {
        FaultPlan::new().drop_window(SimTime::ZERO, SimTime::from_secs(3600), 0.0)
    }

    #[test]
    fn empty_fault_plan_is_byte_identical() {
        let mk = |r: Rank| -> Box<dyn Program> {
            Box::new(ScriptProgram::new(vec![
                Action::Op(Op::put_v(Rank((r.0 + 3) % 16), 4, 768)),
                Action::Barrier,
                Action::Op(Op::fetch_add(Rank(0), 1)),
            ]))
        };
        let a = run_all(small_cfg(16, TopologyKind::Cfcg), mk);
        let b = run_all_faulted(small_cfg(16, TopologyKind::Cfcg), &FaultPlan::default(), mk);
        assert_eq!(a.finish_time, b.finish_time);
        assert_eq!(a.net, b.net);
        assert_eq!(a.events, b.events);
        assert_eq!(
            a.metrics.mean_latency_by_rank_us(),
            b.metrics.mean_latency_by_rank_us()
        );
        assert_eq!(b.faults, crate::metrics::FaultStats::default());
        assert!(b.failures.is_empty());
        assert_eq!(b.availability(), 1.0);
    }

    #[test]
    fn forwarder_crash_is_routed_around() {
        // 3x3 MFCG at 1 ppn: the healthy route 8 -> 0 forwards through
        // node 6. Kill node 6 before the op issues: the request must escape
        // through node 2 instead and still execute exactly once.
        let mut cfg = small_cfg(9, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        let plan = FaultPlan::new().crash_node(SimTime::ZERO, 6);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(8) {
                Box::new(ScriptProgram::new(vec![
                    Action::Compute(SimTime::from_millis(1)),
                    Action::Op(Op::fetch_add(Rank(0), 1)),
                ]))
            } else {
                Box::new(ScriptProgram::new(vec![Action::Compute(
                    SimTime::from_millis(2),
                )]))
            }
        });
        assert_eq!(report.metrics.per_rank[8].ops, 1);
        assert!(report.faults.reroutes >= 1, "{:?}", report.faults);
        assert_eq!(report.cht_totals.serviced, 1);
        assert_eq!(report.lost_ranks, vec![6]);
        assert!(report.failures.is_empty());
        let expected = (9.0 - 1.0) / 9.0;
        assert!((report.availability() - expected).abs() < 1e-12);
    }

    #[test]
    fn dead_target_is_reported_unreachable() {
        let mut cfg = small_cfg(9, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        let plan = FaultPlan::new().crash_node(SimTime::ZERO, 0);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(8) {
                Box::new(ScriptProgram::new(vec![
                    Action::Compute(SimTime::from_millis(1)),
                    Action::Op(Op::fetch_add(Rank(0), 1)),
                ]))
            } else {
                Box::new(ScriptProgram::new(vec![Action::Compute(
                    SimTime::from_millis(2),
                )]))
            }
        });
        assert_eq!(report.failures.len(), 1);
        let msg = report.failures[0].to_string();
        assert!(msg.contains("unreachable"), "unexpected: {msg}");
        assert!(msg.contains("node0"), "diagnostic names the target: {msg}");
        assert_eq!(report.faults.failed_ops, 1);
        // Rank 0 lost with its node, rank 8 failed: 7 of 9 available.
        let expected = (9.0 - 2.0) / 9.0;
        assert!((report.availability() - expected).abs() < 1e-12);
    }

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
    fn dropped_request_is_retransmitted_with_backoff() {
        // A probability-1 drop window swallows the first attempt; it closes
        // before the first retransmission (issue + timeout = ~5 ms), so the
        // retry gets through and the op completes.
        let mut cfg = small_cfg(2, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let plan = FaultPlan::new().drop_window(SimTime::ZERO, SimTime::from_millis(2), 1.0);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(1) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::acc(Rank(0), 2048))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert_eq!(report.metrics.per_rank[1].ops, 1);
        assert!(report.faults.retries >= 1, "{:?}", report.faults);
        assert!(report.net.dropped >= 1);
        assert!(report.failures.is_empty());
        // The drop cost at least one 5 ms timeout round.
        assert!(report.finish_time >= SimTime::from_millis(5));
        // Buffer credits held by the dropped copy were reclaimed.
        assert!(report.faults.reclaims >= 1);
    }

    #[test]
    fn premature_timeout_duplicates_are_deduplicated() {
        // A timeout shorter than the op's round trip guarantees a
        // retransmission even though nothing was dropped: both copies reach
        // the target, the dedup table must apply the fetch-&-add exactly
        // once, and the running counter seen by back-to-back ops proves it.
        let mut cfg = small_cfg(2, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        cfg.retry.timeout = SimTime::from_micros(15);
        cfg.retry.max_retries = 8;
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::<i64>::new()));
        let programs: Vec<Box<dyn Program>> = (0..2)
            .map(|_| {
                let seen = seen.clone();
                let mut fired = 0;
                Box::new(ClosureProgram::new(move |ctx: &ProcCtx| {
                    if ctx.rank == Rank(0) {
                        return Action::Done;
                    }
                    if let Some(v) = ctx.last_fetch {
                        let mut s = seen.lock().unwrap();
                        if s.len() < fired {
                            s.push(v);
                        }
                    }
                    if fired < 2 {
                        fired += 1;
                        return Action::Op(Op::fetch_add(Rank(0), 1));
                    }
                    if let Some(v) = ctx.last_fetch {
                        let mut s = seen.lock().unwrap();
                        if s.len() < 2 {
                            s.push(v);
                        }
                    }
                    Action::Done
                })) as Box<dyn Program>
            })
            .collect();
        let report = Engine::with_faults(cfg, programs, &inert_plan())
            .run()
            .unwrap();
        assert!(report.faults.retries >= 1, "{:?}", report.faults);
        assert!(report.faults.dedup_hits >= 1, "{:?}", report.faults);
        // Exactly-once: the second fetch sees 1, not the duplicate-inflated
        // counter.
        assert_eq!(*seen.lock().unwrap(), vec![0, 1]);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn barrier_releases_despite_lost_ranks() {
        // Node 1 (ranks 4..8) dies at 1 ms; the survivors' barrier must
        // still release instead of waiting for the dead forever.
        let cfg = small_cfg(8, TopologyKind::Fcg);
        let plan = FaultPlan::new().crash_node(SimTime::from_millis(1), 1);
        let report = run_all_faulted(cfg, &plan, |_| {
            Box::new(ScriptProgram::new(vec![
                Action::Compute(SimTime::from_millis(2)),
                Action::Barrier,
            ]))
        });
        assert_eq!(report.lost_ranks, vec![4, 5, 6, 7]);
        for r in 0..4 {
            assert!(report.metrics.per_rank[r].done_at >= SimTime::from_millis(2));
        }
        assert!((report.availability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let mk = |r: Rank| -> Box<dyn Program> {
            Box::new(ScriptProgram::new(vec![
                Action::Compute(SimTime::from_micros(u64::from(r.0) * 7)),
                Action::Op(Op::fetch_add(Rank(0), 1)),
                Action::Op(Op::put_v(Rank(0), 2, 512)),
            ]))
        };
        let plan = FaultPlan::new()
            .crash_node(SimTime::from_micros(40), 3)
            .drop_window(SimTime::ZERO, SimTime::from_millis(1), 0.4);
        let run = || {
            let mut cfg = small_cfg(16, TopologyKind::Hypercube);
            cfg.procs_per_node = 1;
            run_all_faulted(cfg, &plan, mk)
        };
        let a = run();
        let b = run();
        assert_eq!(a.finish_time, b.finish_time);
        assert_eq!(a.net, b.net);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.events, b.events);
        assert_eq!(a.lost_ranks, b.lost_ranks);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    #[test]
    fn hypercube_runs_end_to_end() {
        let mut cfg = small_cfg(16, TopologyKind::Hypercube);
        cfg.procs_per_node = 1;
        let report = run_all(cfg, |r| {
            if r == Rank(15) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::get_v(
                    Rank(0),
                    2,
                    256,
                ))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        // 15 -> 0 on a 16-node hypercube: 4 hops = 3 forwards + 1 service.
        assert_eq!(report.cht_totals.forwarded, 3);
        assert_eq!(report.cht_totals.serviced, 1);
    }

    fn hotspot_program(r: Rank) -> Box<dyn Program> {
        // Ranks 7 and 8 slam rank 0 with async traffic that all funnels
        // through forwarder node 6 on the 3x3 MFCG — the coalescable
        // pattern. The initial compute block leaves node 6's CHT cold, so
        // its first service pays the wakeup penalty while the rest of the
        // burst queues up behind the head.
        if r == Rank(7) || r == Rank(8) {
            let mut script = vec![Action::Compute(SimTime::from_micros(100))];
            script.extend((0..6).map(|_| Action::OpAsync(Op::fetch_add(Rank(0), 1))));
            script.push(Action::WaitAll);
            Box::new(ScriptProgram::new(script))
        } else {
            Box::new(ScriptProgram::new(vec![]))
        }
    }

    #[test]
    fn coalescing_folds_shared_hop_forwards() {
        let mut cfg = small_cfg(9, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        let off = run_all(cfg, hotspot_program);
        let mut cfg_on = cfg;
        cfg_on.coalesce = crate::config::CoalesceConfig::on();
        let on = run_all(cfg_on, hotspot_program);
        // Semantics are identical...
        assert_eq!(off.metrics.total_ops(), on.metrics.total_ops());
        assert_eq!(off.fetch_finals, on.fetch_finals);
        assert_eq!(on.cht_totals.forwarded, off.cht_totals.forwarded);
        assert_eq!(on.cht_totals.serviced, off.cht_totals.serviced);
        // ...but the forwarder sent fewer physical messages.
        assert!(on.coalesce.envelopes >= 1, "{:?}", on.coalesce);
        assert_eq!(on.coalesce.agg_acks, on.coalesce.envelopes);
        assert!(on.coalesce.deepest_fold >= 2);
        assert!(
            on.cht_totals.fwd_messages < on.cht_totals.forwarded,
            "fwd_messages {} forwarded {}",
            on.cht_totals.fwd_messages,
            on.cht_totals.forwarded
        );
        assert_eq!(off.cht_totals.fwd_messages, off.cht_totals.forwarded);
        assert_eq!(off.coalesce, crate::metrics::CoalesceStats::default());
        assert!(on.net.messages < off.net.messages);
    }

    #[test]
    fn coalesced_runs_are_deterministic() {
        let run = || {
            let mut cfg = small_cfg(9, TopologyKind::Mfcg);
            cfg.procs_per_node = 1;
            cfg.coalesce = crate::config::CoalesceConfig::on();
            run_all(cfg, hotspot_program)
        };
        let a = run();
        let b = run();
        assert_eq!(a.finish_time, b.finish_time);
        assert_eq!(a.net, b.net);
        assert_eq!(a.events, b.events);
        assert_eq!(a.cht_totals, b.cht_totals);
        assert_eq!(a.coalesce, b.coalesce);
    }

    #[test]
    fn coalescing_composes_with_fault_recovery() {
        // Kill the healthy forwarder: coalesced traffic must route around
        // it and still apply each fetch-&-add exactly once.
        let mut cfg = small_cfg(9, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        cfg.coalesce = crate::config::CoalesceConfig::on();
        let plan = FaultPlan::new().crash_node(SimTime::ZERO, 6);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(8) {
                let mut script = vec![Action::Compute(SimTime::from_millis(1))];
                script.extend((0..6).map(|_| Action::OpAsync(Op::fetch_add(Rank(0), 1))));
                script.push(Action::WaitAll);
                Box::new(ScriptProgram::new(script))
            } else {
                Box::new(ScriptProgram::new(vec![Action::Compute(
                    SimTime::from_millis(2),
                )]))
            }
        });
        assert_eq!(report.metrics.per_rank[8].ops, 6);
        assert_eq!(report.fetch_finals[0], 6);
        assert!(report.failures.is_empty());
        assert!(report.faults.reroutes >= 1, "{:?}", report.faults);
        assert_eq!(report.lost_ranks, vec![6]);
    }

    #[test]
    fn envelope_respects_byte_bound() {
        // Cap the envelope at exactly two member requests: folds deeper
        // than 2 must never form.
        let mut cfg = small_cfg(9, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        cfg.coalesce = crate::config::CoalesceConfig::on();
        let rb = Op::fetch_add(Rank(0), 1).request_bytes();
        let sub = cfg.net.env_sub_header;
        cfg.coalesce.max_bytes = Some(2 * rb + sub);
        let report = run_all(cfg, hotspot_program);
        assert!(report.coalesce.envelopes >= 1, "{:?}", report.coalesce);
        assert_eq!(report.coalesce.deepest_fold, 2);
        assert!(report.coalesce.largest_envelope <= 2 * rb);
        assert_eq!(report.fetch_finals[0], 12);
    }

    fn serve_cfg(n_procs: u32, topo: TopologyKind, rate: f64) -> RuntimeConfig {
        let mut cfg = small_cfg(n_procs, topo);
        cfg.serve = crate::config::ServeConfig::on(
            vt_simnet::ArrivalProcess::steady(rate),
            SimTime::from_millis(2),
        );
        cfg
    }

    fn idle_programs(cfg: &RuntimeConfig) -> Vec<Box<dyn Program>> {
        (0..cfg.n_procs)
            .map(|_| Box::new(ScriptProgram::new(vec![])) as Box<dyn Program>)
            .collect()
    }

    #[test]
    fn serve_open_system_drains_and_balances_its_ledger() {
        let cfg = serve_cfg(8, TopologyKind::Fcg, 50_000.0);
        let report = Engine::new(cfg, idle_programs(&cfg))
            .run()
            .expect("serve run completes");
        let s = report.serve;
        assert!(s.arrivals > 50, "expected real load, got {s:?}");
        assert_eq!(s.arrivals, s.admitted + s.sheds);
        assert_eq!(s.admitted, s.completed + s.gave_up);
        assert_eq!(s.completed, report.serve_latencies_us.len() as u64);
        assert_eq!(report.credit_leaks, 0);
        // Exactly-once: the hot counter holds every applied increment —
        // all completions, plus possibly some abandoned ops whose effect
        // landed after the client stopped waiting.
        let hot = report.fetch_finals[0] as u64;
        assert!(hot >= s.completed && hot <= s.admitted, "{hot} vs {s:?}");
        assert!(report.finish_time >= SimTime::from_millis(2));
    }

    #[test]
    fn serve_overload_sheds_deterministically() {
        let run = || {
            let mut cfg = serve_cfg(8, TopologyKind::Fcg, 400_000.0);
            cfg.serve.queue_cap = 2;
            Engine::new(cfg, idle_programs(&cfg))
                .run()
                .expect("overloaded serve run still completes")
        };
        let a = run();
        let b = run();
        assert!(a.serve.sheds > 0, "cap 2 at 400k/s/client must shed");
        assert!(a.faults.sheds == a.serve.sheds);
        assert!(!a.failures.is_empty(), "shed diagnostics recorded");
        assert!(
            a.failures.len() <= 8,
            "diagnostics stay bounded: {}",
            a.failures.len()
        );
        assert!(matches!(a.failures[0], SimError::Overloaded { .. }));
        assert_eq!(a.finish_time, b.finish_time);
        assert_eq!(a.serve, b.serve);
        assert_eq!(a.events, b.events);
        assert_eq!(a.serve_latencies_us, b.serve_latencies_us);
    }

    #[test]
    fn serve_disabled_config_is_byte_identical_to_baseline() {
        let base = run_all(small_cfg(9, TopologyKind::Mfcg), hotspot_program);
        // Same run with serving machinery compiled in but disabled.
        let mut cfg = small_cfg(9, TopologyKind::Mfcg);
        cfg.serve = crate::config::ServeConfig::default();
        assert!(!cfg.serve.enabled);
        let off = run_all(cfg, hotspot_program);
        assert_eq!(base.finish_time, off.finish_time);
        assert_eq!(base.events, off.events);
        assert_eq!(base.net, off.net);
        assert_eq!(off.serve, crate::metrics::ServeStats::default());
        assert!(off.serve_latencies_us.is_empty());
    }

    #[test]
    fn serve_load_repack_commits_epoch_under_traffic() {
        let mut cfg = serve_cfg(16, TopologyKind::Fcg, 100_000.0);
        cfg.procs_per_node = 1;
        cfg.serve.horizon = SimTime::from_millis(4);
        cfg.serve.load_repack = true;
        cfg.serve.tick = SimTime::from_micros(100);
        cfg.serve.skew_ticks = 2;
        let report = Engine::new(cfg, idle_programs(&cfg))
            .run()
            .expect("load-repack run completes");
        let s = report.serve;
        assert_eq!(s.load_repacks, 1, "{s:?}");
        assert_eq!(report.repair.epoch_bumps, 1, "{:?}", report.repair);
        assert_eq!(report.repair.final_epoch, 1);
        assert_eq!(report.credit_leaks, 0);
        assert_eq!(s.admitted, s.completed + s.gave_up);
        let hot = report.fetch_finals[0] as u64;
        assert!(hot >= s.completed && hot <= s.admitted, "{hot} vs {s:?}");
        // Traffic kept flowing across the commit: requests completed both
        // before and after the epoch bump (drained set non-trivial OR
        // completions continued — check completions outnumber what could
        // drain pre-commit is too timing-coupled, so assert drain + flow).
        assert!(s.completed > 0);
    }

    #[test]
    fn serve_escalation_ladder_respects_node_support() {
        assert_eq!(
            escalate_kind(TopologyKind::Fcg, 16),
            Some(TopologyKind::Mfcg)
        );
        assert_eq!(
            escalate_kind(TopologyKind::Mfcg, 16),
            Some(TopologyKind::Cfcg)
        );
        assert_eq!(
            escalate_kind(TopologyKind::Cfcg, 16),
            Some(TopologyKind::KFcg(4))
        );
        // The hypercube is already minimal-degree: no rung above it.
        assert_eq!(escalate_kind(TopologyKind::Hypercube, 16), None);
        // A k-FCG past the dimension bound has nowhere to go.
        assert_eq!(escalate_kind(TopologyKind::KFcg(u8::MAX), 16), None);
    }

    #[test]
    fn serve_retry_budget_and_guard_bound_retransmissions() {
        let run = |budget: u32, guard: f64| {
            let mut cfg = serve_cfg(8, TopologyKind::Fcg, 400_000.0);
            cfg.serve.queue_cap = 8;
            cfg.serve.retry_budget = budget;
            cfg.serve.guard_threshold = guard;
            // A tight timeout forces retries under queueing delay alone.
            cfg.retry.timeout = SimTime::from_micros(20);
            Engine::new(cfg, idle_programs(&cfg))
                .run()
                .expect("serve run completes")
        };
        let strict = run(0, 1.0);
        assert_eq!(strict.serve.retries, 0, "budget 0 must suppress retries");
        assert!(strict.serve.shed_retries > 0, "{:?}", strict.serve);
        let loose = run(16, 1.0);
        assert!(loose.serve.retries > 0, "{:?}", loose.serve);
        // Per-client budgets bound total serve retransmissions.
        assert!(loose.serve.retries <= 16 * 8);
    }

    // ----- transient faults: reboots, partitions, corruption --------------

    #[test]
    fn restarted_node_ranks_resume_and_complete() {
        // Rank 4's node crashes mid-compute and reboots: the rank revives
        // where the crash interrupted it, issues its operation, and the run
        // ends with nothing lost and nothing failed.
        let cfg = small_cfg(8, TopologyKind::Fcg);
        let plan = FaultPlan::new()
            .crash_node(SimTime::from_micros(500), 1)
            .restart_node(SimTime::from_millis(5), 1);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(4) {
                Box::new(ScriptProgram::new(vec![
                    Action::Compute(SimTime::from_millis(1)),
                    Action::Op(Op::fetch_add(Rank(0), 1)),
                ]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.lost_ranks.is_empty(), "{:?}", report.lost_ranks);
        assert_eq!(report.metrics.per_rank[4].ops, 1);
        assert_eq!(report.fetch_finals[0], 1);
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.credit_leaks, 0);
    }

    #[test]
    fn inflight_op_survives_crash_and_reboot_exactly_once() {
        // The origin's node dies with a blocking fetch-&-add in flight and
        // reboots 10 ms later: the revived rank's re-armed timer
        // retransmits with the original sequence number, so the target's
        // dedup table keeps the increment exactly-once no matter whether
        // the first copy had already been applied.
        let mut cfg = small_cfg(2, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let plan = FaultPlan::new()
            .crash_node(SimTime::from_micros(10), 1)
            .restart_node(SimTime::from_millis(10), 1);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(1) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::fetch_add(
                    Rank(0),
                    1,
                ))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.lost_ranks.is_empty());
        assert_eq!(report.metrics.per_rank[1].ops, 1);
        assert_eq!(report.fetch_finals[0], 1, "exactly-once across the cycle");
        assert!(report.faults.retries >= 1, "{:?}", report.faults);
        assert_eq!(report.credit_leaks, 0);
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

    #[test]
    fn partition_grace_window_suppresses_false_suspicion() {
        // A 15 ms cut severs node 5 from its prober. Without the grace
        // shield the detector would raise (and then have to exonerate) a
        // suspicion; with it the silence is attributed to the active cut
        // and no epoch ever commits.
        let mut cfg = small_cfg(23, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        cfg.membership = crate::config::MembershipConfig::on();
        let plan = FaultPlan::new().partition(
            SimTime::ZERO,
            SimTime::from_millis(15),
            vec![(0, 5), (5, 0)],
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

    #[test]
    fn partitioned_request_is_retried_after_heal() {
        // The cut drops rank 1's request at the send port; once the window
        // heals, the retransmission goes through.
        let mut cfg = small_cfg(2, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        let plan = FaultPlan::new().partition(SimTime::ZERO, SimTime::from_millis(3), vec![(1, 0)]);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(1) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::fetch_add(
                    Rank(0),
                    1,
                ))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.metrics.per_rank[1].ops, 1);
        assert_eq!(report.fetch_finals[0], 1);
        assert!(report.faults.retries >= 1, "{:?}", report.faults);
        assert_eq!(report.faults.partitions_healed, 1);
        assert!(report.net.dropped >= 1, "{:?}", report.net);
        assert_eq!(report.credit_leaks, 0);
    }

    #[test]
    fn corrupt_frames_are_detected_and_recovered() {
        // Every corrupt delivery must fail an engine checksum (the
        // detected count mirrors the network's corruption count exactly)
        // and the operation still completes exactly once off its retry
        // timer.
        let mut cfg = small_cfg(2, TopologyKind::Fcg);
        cfg.procs_per_node = 1;
        cfg.retry.max_retries = 8;
        let plan = FaultPlan::new().corrupt_window(SimTime::ZERO, SimTime::from_secs(10), 0.5);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r == Rank(1) {
                Box::new(ScriptProgram::new(vec![Action::Op(Op::fetch_add(
                    Rank(0),
                    1,
                ))]))
            } else {
                Box::new(ScriptProgram::new(vec![]))
            }
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.faults.corrupt_detected >= 1, "{:?}", report.faults);
        assert_eq!(
            report.faults.corrupt_detected, report.net.corrupted,
            "every corrupt delivery passes exactly one checksum site"
        );
        assert_eq!(report.metrics.per_rank[1].ops, 1);
        assert_eq!(report.fetch_finals[0], 1, "corruption never double-applies");
        assert_eq!(report.credit_leaks, 0);
    }

    #[test]
    fn revived_rank_rejoins_an_unreleased_barrier() {
        // Rank 4 enters the barrier, its node crashes and reboots before
        // the other ranks arrive: the revived rank re-enters the same
        // barrier generation and everyone releases together.
        let cfg = small_cfg(8, TopologyKind::Fcg);
        let plan = FaultPlan::new()
            .crash_node(SimTime::from_micros(100), 1)
            .restart_node(SimTime::from_millis(1), 1);
        let report = run_all_faulted(cfg, &plan, |r| {
            if r.0 >= 4 {
                Box::new(ScriptProgram::new(vec![
                    Action::Barrier,
                    Action::Op(Op::fetch_add(Rank(0), 1)),
                ]))
            } else {
                Box::new(ScriptProgram::new(vec![
                    Action::Compute(SimTime::from_millis(4)),
                    Action::Barrier,
                ]))
            }
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.lost_ranks.is_empty(), "{:?}", report.lost_ranks);
        // All four ranks on the rebooted node made it past the barrier and
        // incremented the counter.
        assert_eq!(report.fetch_finals[0], 4);
        assert_eq!(report.availability(), 1.0);
    }
}
