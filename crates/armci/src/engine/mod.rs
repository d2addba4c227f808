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
//!
//! This module is the core: run loop, process side, CHT service, credits,
//! envelopes, locks and barrier; `route` holds the hop decision. The layers
//! on top (`recovery`, `membership`, `serve`) each own their state as an
//! `Option` on [`Engine`] that exists only while the layer is live.

mod membership;
mod recovery;
mod route;
mod serve;

pub use membership::RepairCertifier;
pub use route::forward_decision;

use crate::buffers::{CreditKey, CreditManager, Waiter};
use crate::cht::{self, Cht, ChtCounters};
use crate::config::RuntimeConfig;
use crate::ids::{NodeId, Rank, ReqId, Sender};
use crate::layout::Layout;
use crate::metrics::{CoalesceStats, FaultStats, Metrics, RepairStats, ServeStats};
use crate::ops::{Op, OpKind};
use crate::workload::{Action, ProcCtx, Program};
use membership::{Detector, EpochView, Outages};
use recovery::{OpState, Recovery};
use serve::ServeState;
use vt_core::{FxHashMap, Grid};
use vt_simnet::{EventQueue, FaultPlan, Frame, Network, SendOutcome, SimTime, ENV_SUB_HEADER};

/// Engine events.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A process is ready to take its next action.
    ProcReady(Rank),
    /// A request message finished arriving at a node, which was in
    /// incarnation `inc` when the network accepted the frame.
    RequestArrive { req: ReqId, node: NodeId, inc: u8 },
    /// A CHT should try to start servicing its head-of-line request.
    ChtTryStart { node: NodeId },
    /// A CHT finished servicing or forwarding a request; its node was in
    /// incarnation `inc` when the service started.
    ChtDone { node: NodeId, req: ReqId, inc: u8 },
    /// A buffer-release acknowledgement arrived at the credit holder's node.
    AckArrive { key: CreditKey },
    /// The target's response arrived at the origin process.
    ResponseArrive { req: ReqId },
    /// A notifying operation landed in `target`'s address space.
    NotifyArrive { target: Rank },
    /// All ranks entered the barrier; release them.
    BarrierRelease,
    /// A per-request response timer expired at the origin (recovery only).
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
    /// (coalescing runs only); `inc` as for `ChtDone`.
    ChtEnvDone { node: NodeId, env: u32, inc: u8 },
    /// A coalesced envelope finished arriving at a node (coalescing runs
    /// only); `inc` as for `RequestArrive`.
    EnvelopeArrive { env: u32, node: NodeId, inc: u8 },
    /// The failure detector's periodic evidence sweep (membership runs
    /// only).
    MembershipTick,
    /// An idle heartbeat probe from `prober` landed at `node` (membership
    /// runs only).
    ProbeArrive { node: NodeId, prober: NodeId },
    /// A probe acknowledgement arrived: fresh liveness evidence for `node`
    /// (membership runs only).
    ProbeAck { node: NodeId },
    /// The drain window after a confirmed crash (or a load re-pack request)
    /// elapsed: re-pack the survivors and bump the membership epoch.
    EpochCommit,
    /// The next open-system client request for `rank` arrives (serving runs
    /// only).
    ClientArrival { rank: Rank },
    /// The serving-mode overload detector's periodic sweep: metastability
    /// guard + hot-spot skew detection (serving runs only).
    ServeTick,
}

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
    /// Whether the copy holds the downstream credit of its next hop
    /// (`fwd_next`, `fwd_class`): from a parked forward's grant or the
    /// service start until the forward leaves. Service start acquires only
    /// without it; a destroyed copy passes it on.
    credit_held: bool,
    /// Slab liveness flag.
    live: bool,
    /// References that may still name the slot: its copy until the copy's
    /// journey ends, plus each armed response timer not yet fired (see
    /// `recovery.rs`).
    refs: u16,
    /// Allocation order of the slot. Slots are recycled, so the slab index
    /// says nothing about age; anything ordered by age orders by this.
    stamp: u64,
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
    /// a packing that no longer exists. Always 0 without a membership view.
    epoch: u32,
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

impl Request {
    /// The credit of this copy's hop from its `prev_node` into `node`.
    fn hop_key(&self, node: NodeId) -> CreditKey {
        CreditKey {
            sender: self.prev_sender,
            edge: (self.prev_node, node),
            class: self.vc_class,
        }
    }
}

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

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Phase {
    /// Executing (an event will call back into the program).
    #[default]
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

#[derive(Clone, Copy, Debug, Default)]
struct ProcState {
    node: NodeId,
    phase: Phase,
    outstanding: u32,
    last_fetch: Option<i64>,
    /// A request created but not yet sent: its `fwd_next` credit ran out.
    pending: Option<ReqId>,
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
    /// Where the event queue filed each scheduled event (fine ring, coarse
    /// tier or overflow heap): exact work counts of the FEL.
    pub fel: vt_simnet::FelStats,
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
    /// Credits still in flight at quiescence: every credit comes home by its
    /// ack or a reclaim timer, crashes included, so any left is a protocol
    /// leak. Must be zero; the model checker in `vt-analyze` proves the
    /// same property exhaustively for small N.
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
    /// Allocation stamp of the next request slot.
    next_stamp: u64,
    /// Coalesced-envelope slab (coalescing runs only).
    envelopes: Vec<EnvState>,
    free_envs: Vec<u32>,
    /// Run-wide coalescing counters.
    coalesce: CoalesceStats,
    /// Ranks currently waiting in the barrier.
    barrier_waiting: Vec<Rank>,
    barrier_scheduled: bool,
    /// Barrier generations released so far (see `ProcState::
    /// saved_barrier_gen`).
    barrier_gen: u64,
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
    /// Ranks lost to crashes / failed on an operation.
    lost_count: u32,
    failed_count: u32,
    /// Next logical-operation sequence number.
    next_seq: u64,
    failures: Vec<SimError>,
    faults: FaultStats,
    /// Membership / live-repair counters.
    repair: RepairStats,
    /// The fault plan's outages and the dead set (fault runs only).
    outages: Option<Outages>,
    /// Membership epoch and survivor packing (membership or load re-pack).
    view: Option<EpochView>,
    /// The failure detector (membership runs only).
    detector: Option<Detector>,
    /// Per-operation records, one per operation that still has a request
    /// slot (fault or serving runs only). While it is live, timers,
    /// retransmission and dedup run and slots are freed by the rule in
    /// `recovery.rs`.
    recovery: Option<Recovery>,
    /// Open-system serving state (serving runs only).
    serve: Option<ServeState>,
}

/// Stores `item` in `slab`, reusing a freed slot when there is one.
fn slab_insert<T>(slab: &mut Vec<T>, free: &mut Vec<u32>, item: T) -> u32 {
    if let Some(id) = free.pop() {
        slab[id as usize] = item;
        id
    } else {
        slab.push(item);
        (slab.len() - 1) as u32
    }
}

/// Process-side software cost to issue any operation.
const ISSUE_OVERHEAD: SimTime = SimTime::from_nanos(500);

/// Per-byte cost of an intra-node shared-memory copy (ns/byte).
const SHM_PER_BYTE_NS: f64 = 0.25;

/// Cost per barrier stage (a dissemination barrier runs ⌈log₂ P⌉ stages).
const BARRIER_STAGE: SimTime = SimTime::from_micros(2);

/// CPU interference of the CHT on co-located application processes: the
/// fraction of one core's worth of compute stolen from the node while the
/// CHT is busy (the XT5 CHT shares cores with application ranks). Each
/// process's compute blocks are stretched by
/// `CHT_INTERFERENCE × cht_busy / ppn`. Forwarding-heavy topologies pay this
/// across the machine.
const CHT_INTERFERENCE: f64 = 1.0;

/// Cache/TLB pressure of a large resident buffer pool: extra nanoseconds per
/// CHT request for every MiB of CHT pool on the node. This is the small but
/// real cost that makes virtual topologies slightly *faster* than FCG even
/// without hot spots (paper Fig. 8 at low process counts).
const CACHE_NS_PER_POOL_MIB: f64 = 8.0;

/// Extra CHT service time at `node` of `topo` from buffer-pool cache pressure.
fn pool_pressure(cfg: &RuntimeConfig, topo: &Grid, node: NodeId) -> SimTime {
    let pool = crate::memory::node_memory(cfg, topo, node).cht_pool_bytes;
    let mib = pool as f64 / (1024.0 * 1024.0);
    SimTime::from_nanos((mib * CACHE_NS_PER_POOL_MIB).round() as u64)
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
                ..ProcState::default()
            })
            .collect();
        let chts = (0..n_nodes).map(|_| Cht::new()).collect();
        let metrics = Metrics::new(cfg.n_procs, cfg.record_ops);
        let cht_pool_extra = (0..n_nodes)
            .map(|node| pool_pressure(&cfg, &topo, node))
            .collect();
        let outages = Outages::new(plan);
        let detector = Detector::new(&cfg, plan, n_nodes);
        let view = EpochView::new(&cfg, detector.is_some());
        let serve = ServeState::new(&cfg);
        let recovery = (outages.is_some() || serve.is_some()).then(Recovery::default);
        Engine {
            credits: CreditManager::new(cfg.buffers_per_proc),
            procs,
            chts,
            requests: Vec::new(),
            free_reqs: Vec::new(),
            next_stamp: 0,
            envelopes: Vec::new(),
            free_envs: Vec::new(),
            coalesce: CoalesceStats::default(),
            barrier_waiting: Vec::new(),
            barrier_scheduled: false,
            barrier_gen: 0,
            done_count: 0,
            fetch_counters: vec![0; cfg.n_procs as usize],
            locks: FxHashMap::default(),
            metrics,
            cht_pool_extra,
            cht_busy_total: vec![SimTime::ZERO; n_nodes as usize],
            queue: EventQueue::new(),
            programs,
            lost_count: 0,
            failed_count: 0,
            next_seq: 0,
            failures: Vec::new(),
            faults: FaultStats::default(),
            repair: RepairStats::default(),
            outages,
            view,
            detector,
            recovery,
            serve,
            net,
            topo,
            layout,
            cfg,
        }
    }

    /// Ranks that can no longer enter the barrier or finish.
    fn finished_count(&self) -> u32 {
        self.done_count + self.lost_count + self.failed_count
    }

    /// Whether every rank finished and no open-system client has work left:
    /// periodic sweeps stop re-arming then, so the run can end.
    fn quiescent(&self) -> bool {
        self.finished_count() >= self.cfg.n_procs
            && !self.serve.as_ref().is_some_and(ServeState::live)
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
        self.start();
        while let Some((now, ev)) = self.queue.pop() {
            self.dispatch(now, ev);
        }
        if self.finished_count() < self.cfg.n_procs {
            return Err(self.deadlock_report());
        }
        // Serving clients are `Done` from the start; the serving makespan is
        // when the last admitted request drained, i.e. quiescence.
        let finish_time = if self.serve.is_some() {
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
        let credit_leaks = self.credits.total_in_flight();
        let (serve, serve_latencies_us) = self
            .serve
            .map(|s| (s.stats, s.latencies_us))
            .unwrap_or_default();
        Ok(Report {
            finish_time,
            metrics: self.metrics,
            net: self.net.counters(),
            cht_totals,
            memory_node0,
            events: self.queue.processed(),
            fel: self.queue.stats(),
            top_links,
            faults: self.faults,
            coalesce: self.coalesce,
            repair: self.repair,
            serve,
            serve_latencies_us,
            failures: self.failures,
            lost_ranks,
            fetch_finals,
            credit_leaks,
        })
    }

    /// Schedules every rank's first step, the fault plan and the arrivals.
    fn start(&mut self) {
        for r in 0..self.cfg.n_procs {
            self.queue
                .schedule(SimTime::ZERO, Event::ProcReady(Rank(r)));
        }
        self.schedule_outages();
        self.start_serving();
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

    /// Runs `ev`. A copy whose node crashed since the copy reached it (the
    /// event's incarnation is stale) goes to [`Engine::destroy_copy`]
    /// instead of its handler.
    fn dispatch(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::ProcReady(rank) => self.proc_ready(now, rank),
            Event::RequestArrive { req, node, inc } => {
                // The message physically came from the previous hop:
                // liveness evidence piggybacked on existing traffic, even
                // when `node` crashed after the frame reached it.
                self.heard_from(self.requests[req as usize].prev_node, now);
                if self.crashed_since(node, inc, now) {
                    self.destroy_copy(now, node, req);
                } else {
                    self.request_arrive(now, req, node);
                }
            }
            Event::EnvelopeArrive { env, node, inc } => {
                self.heard_from(self.envelopes[env as usize].from, now);
                // Unpacking is the member list's last use: what remains of
                // the envelope is its count of members still to release it.
                let members = std::mem::take(&mut self.envelopes[env as usize].members);
                self.envelopes[env as usize].pending = members.len() as u32;
                if self.crashed_since(node, inc, now) {
                    for m in members {
                        self.destroy_copy(now, node, m);
                    }
                } else {
                    self.envelope_arrive(now, node, members);
                }
            }
            Event::ChtDone { node, req, inc } if self.crashed_since(node, inc, now) => {
                self.destroy_copy(now, node, req);
            }
            Event::ChtEnvDone { node, env, inc } if self.crashed_since(node, inc, now) => {
                // The envelope never left: its members die with the node
                // and nothing names its slot any more.
                for m in std::mem::take(&mut self.envelopes[env as usize].members) {
                    self.destroy_copy(now, node, m);
                }
                self.free_envs.push(env);
            }
            Event::ChtTryStart { node } => self.cht_try_start(now, node),
            Event::ChtDone { node, req, .. } => self.cht_done(now, node, req),
            Event::AckArrive { key } => self.ack_arrive(now, key),
            Event::ResponseArrive { req } => self.response_arrive(now, req),
            Event::NotifyArrive { target } => self.notify_rank(now, target),
            Event::BarrierRelease => self.barrier_release(now),
            Event::Timeout { req } => self.timeout_fire(now, req),
            Event::NodeCrash { node } => self.node_crash(now, node),
            Event::NodeRestart { node } => self.node_restart(now, node),
            Event::PartitionHeal { idx } => self.partition_heal(now, idx),
            Event::RejoinAnnounce { node } => self.rejoin_announce(now, node),
            Event::ChtEnvDone { node, env, .. } => self.cht_env_done(now, node, env),
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
                    (delta.as_nanos() as f64 * CHT_INTERFERENCE
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
            Action::Op(op) => self.issue_op(now, rank, op, true, false),
            Action::OpAsync(op) => {
                self.issue_op(now, rank, op, false, false);
                // issue_op leaves phase Running unless credit-blocked.
                if self.procs[rank.idx()].phase == Phase::Running {
                    self.queue
                        .schedule(now + ISSUE_OVERHEAD, Event::ProcReady(rank));
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
            let latency = BARRIER_STAGE * u64::from(stages);
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

    /// Issues `op` from `rank`, or for client `rank` when `serve`.
    fn issue_op(&mut self, now: SimTime, rank: Rank, op: Op, blocking: bool, serve: bool) {
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
            // Slot bookkeeping; `alloc_request` sets it.
            live: true,
            refs: 0,
            stamp: 0,
            seq,
            attempt: 0,
            vc_class: 0,
            fwd_next: src_node,
            fwd_class: 0,
            env_slot: NO_ENV,
            epoch: self.epoch(),
            serve,
            backoff_prev: self.cfg.retry.timeout,
        });

        if target_node == src_node {
            // Intra-node: served through shared memory, no CHT, no credits.
            let copy = SimTime::from_nanos((op.bytes as f64 * SHM_PER_BYTE_NS).round() as u64);
            let done = now + ISSUE_OVERHEAD + self.net.config().shm_latency + copy;
            self.apply(now, req, Some(done));
            if op.notify {
                self.queue
                    .schedule(done, Event::NotifyArrive { target: op.target });
            }
        } else {
            let t0 = now + ISSUE_OVERHEAD;
            // A serve client is `Done` and may have several requests
            // waiting for first-hop credits at once; the single-slot
            // `pending` park is a process-blocking mechanism. Park the
            // request itself, like a retransmission.
            let waiter = if serve {
                Waiter::Retry { req }
            } else {
                Waiter::Proc(rank)
            };
            if !self.launch(now, t0, req, waiter) || self.procs[rank.idx()].pending == Some(req) {
                return;
            }
            // On the wire, held for a route, or a serve request parked on
            // its credit: the response timer covers all three.
            self.arm_timeout(t0, req);
        }
        if blocking {
            self.procs[rank.idx()].phase = Phase::WaitingResponse;
        }
    }

    /// Sends remote op `req` (a fresh issue or a retransmission) from its
    /// origin at `at`: direct ops to the target NIC, CHT ops on their first
    /// hop's credit or parked as `waiter` (a process blocks in
    /// `WaitingCredit`). With no route it is held for its retry timer when
    /// one may return; false when it failed as unreachable.
    fn launch(&mut self, now: SimTime, at: SimTime, req: ReqId, waiter: Waiter) -> bool {
        let r = self.requests[req as usize];
        if r.op.kind.is_direct() {
            // RDMA path: request to the target NIC, hardware-level response.
            if self.node_gone(r.target_node, now) {
                self.rank_fail(now, r.origin, req);
                return false;
            }
            self.send_direct(at, req);
            return true;
        }
        // CHT path over the virtual topology.
        let Some((first, _, rerouted)) =
            self.next_hop(r.origin_node, r.origin_node, r.target_node, 0)
        else {
            if self.route_may_return(now, r.target_node) {
                return true;
            }
            self.rank_fail(now, r.origin, req);
            return false;
        };
        self.faults.reroutes += u64::from(rerouted);
        let key = r.hop_key(first);
        self.requests[req as usize].fwd_next = first;
        if self.credits.try_acquire(key) {
            self.send_request(at, req, r.origin_node, first);
        } else {
            self.credits.wait(key, waiter);
            if let Waiter::Proc(rank) = waiter {
                self.procs[rank.idx()].pending = Some(req);
                self.procs[rank.idx()].phase = Phase::WaitingCredit;
            }
        }
        true
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
                dead: self.dead().to_vec(),
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

    /// Puts one frame on the wire from `from` to `to` at `at` and runs the
    /// receiver's end-to-end checksum: `Ok` with the arrival time of a
    /// clean copy and the receiver's incarnation when the network accepted
    /// it, `Err` with the instant the copy was destroyed — lost in
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
    ) -> Result<(SimTime, u8), SimTime> {
        match self.net.transmit(at, from, to, frame) {
            SendOutcome::Delivered(d) if d.corrupt => {
                self.faults.corrupt_detected += 1;
                Err(d.at)
            }
            SendOutcome::Delivered(d) => Ok((d.at, d.incarnation)),
            SendOutcome::Dropped { at, .. } => Err(at),
        }
    }

    /// Sends a direct (RDMA-path) request and its hardware-level response.
    /// A destroyed copy is simply gone — the origin's timer recovers it.
    /// Under recovery a notify fires at most once across retransmissions.
    fn send_direct(&mut self, t0: SimTime, req: ReqId) {
        let r = self.requests[req as usize];
        let request = Frame::Message(r.op.request_bytes());
        let Ok((d1, _)) = self.transmit(t0, r.origin_node, r.target_node, request) else {
            return;
        };
        if r.op.notify && self.first_notify(&r) {
            let target = r.op.target;
            self.queue.schedule(d1, Event::NotifyArrive { target });
        }
        let response = Frame::Message(r.op.response_bytes());
        if let Ok((d2, _)) = self.transmit(d1, r.target_node, r.origin_node, response) {
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
            Ok((arrival, inc)) => self
                .queue
                .schedule(arrival, Event::RequestArrive { req, node: to, inc }),
            Err(destroyed_at) => {
                let key = self.requests[req as usize].hop_key(to);
                self.reclaim_later(destroyed_at, key);
            }
        }
    }

    // ----- server side ----------------------------------------------------

    fn request_arrive(&mut self, now: SimTime, req: ReqId, node: NodeId) {
        if self.reject_stale(req) {
            self.ack_member(now, node, req);
            return;
        }
        if self.chts[node as usize].enqueue(req) {
            self.queue.schedule(now, Event::ChtTryStart { node });
        }
    }

    /// Attempts to start servicing the CHT's queue: parks forwards whose
    /// downstream credit is exhausted (they keep their upstream buffer) and
    /// starts the first serviceable request, if any.
    fn cht_try_start(&mut self, now: SimTime, node: NodeId) {
        if self.chts[node as usize].is_busy() {
            return;
        }
        let inc = self.net.incarnation(node, now);
        while let Some(req) = self.chts[node as usize].head() {
            let r = self.requests[req as usize];
            if self.reject_stale(req) {
                // A pre-repair copy still queued here: reject it like a
                // stale arrival. A parked forward may have been granted its
                // old-edge credit while waiting — release that too, or the
                // repaired run leaks it.
                self.chts[node as usize].pop_head();
                if r.credit_held {
                    self.requests[req as usize].credit_held = false;
                    self.ack_arrive(now, CreditKey::cht(node, r.fwd_next, r.fwd_class));
                }
                self.ack_member(now, node, req);
                continue;
            }
            let terminal = r.target_node == node;
            if !terminal && !r.credit_held {
                let Some((next, class, rerouted)) =
                    self.next_hop(r.prev_node, node, r.target_node, r.vc_class)
                else {
                    // No live next hop: discard the copy, free the upstream
                    // buffer with a real ack, and let the origin's timer
                    // deal with the operation.
                    self.faults.unreachable += 1;
                    self.chts[node as usize].pop_head();
                    self.ack_member(now, node, req);
                    continue;
                };
                self.faults.reroutes += u64::from(rerouted);
                let key = CreditKey::cht(node, next, class);
                // Remember the choice: the forward after service must use
                // exactly the edge and class the credit was acquired on.
                self.requests[req as usize].fwd_next = next;
                self.requests[req as usize].fwd_class = class;
                if !self.credits.try_acquire(key) {
                    // Park: set the request aside until an ack returns a
                    // credit, and keep draining the queue.
                    self.chts[node as usize].pop_head();
                    self.chts[node as usize].note_parked();
                    self.credits.wait(key, Waiter::Fwd { node, req, inc });
                    continue;
                }
            }
            self.chts[node as usize].pop_head();
            self.requests[req as usize].credit_held = !terminal;
            let mut work = if terminal {
                cht::service_time(&r.op)
            } else {
                cht::forward_time(&r.op)
            };
            let mut done = Event::ChtDone { node, req, inc };
            if !terminal && self.cfg.coalesce.enabled {
                let members = self.collect_fold(node, req, inc);
                if members.len() > 1 {
                    // Fold: the whole batch travels on the head's single
                    // downstream credit as one wire message.
                    self.chts[node as usize].remove_many(&members[1..]);
                    let ops: Vec<Op> = members
                        .iter()
                        .map(|&m| self.requests[m as usize].op)
                        .collect();
                    let head = self.requests[req as usize];
                    let env = slab_insert(
                        &mut self.envelopes,
                        &mut self.free_envs,
                        EnvState {
                            members,
                            from: node,
                            to: head.fwd_next,
                            class: head.fwd_class,
                            pending: 0,
                        },
                    );
                    // Assembly is pipelined with the in-flight send: each
                    // extra member costs a cheap fold, not a second forward
                    // dispatch.
                    work = cht::envelope_forward_time(&ops);
                    done = Event::ChtEnvDone { node, env, inc };
                }
            }
            let wake = self.chts[node as usize].begin_service(now);
            let dur = self.cht_pool_extra[node as usize] + work;
            self.cht_busy_total[node as usize] += wake + dur;
            self.queue.schedule(now + wake + dur, done);
            return;
        }
    }

    /// Scans the queue behind `head` (already popped, downstream credit in
    /// hand) for requests whose next LDF hop and escape class match the
    /// head's, folding them into one envelope as long as the wire message
    /// fits the request-buffer bound. Returns the members, head first.
    /// `inc` is `node`'s current incarnation.
    fn collect_fold(&mut self, node: NodeId, head: ReqId, inc: u8) -> Vec<ReqId> {
        let hnext = self.requests[head as usize].fwd_next;
        let hclass = self.requests[head as usize].fwd_class;
        let max_bytes = self.cfg.buffer_bytes;
        let mut wire = self.requests[head as usize].op.request_bytes();
        let mut members = vec![head];
        // Forwards parked on the head's own credit account already chose
        // this exact (edge, class); they are the oldest candidates and ride
        // the head's credit instead of each waiting for one of their own —
        // the coalescing win under credit exhaustion at a hot spot.
        let key = CreditKey::cht(node, hnext, hclass);
        let cur_epoch = self.epoch();
        let requests = &self.requests;
        let parked = self.credits.take_waiters(key, |w| match w {
            Waiter::Fwd {
                req, inc: parked, ..
            } => {
                // Stale-epoch parkers stay parked: once their old account
                // releases they surface at head-of-line and are rejected
                // with the proper bookkeeping there. Parkers from before a
                // crash of this node stay parked until their grant
                // destroys them.
                if requests[*req as usize].epoch < cur_epoch || *parked != inc {
                    return false;
                }
                let rb = requests[*req as usize].op.request_bytes();
                if wire + rb + ENV_SUB_HEADER <= max_bytes {
                    wire += rb + ENV_SUB_HEADER;
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
            if rc.epoch < cur_epoch {
                continue;
            }
            let rb = rc.op.request_bytes();
            if wire + rb + ENV_SUB_HEADER > max_bytes {
                continue;
            }
            // Unreachable candidates stay queued; the head-of-line pass
            // discards them with the proper ack.
            let Some((cnext, cclass, rerouted)) =
                self.next_hop(rc.prev_node, node, rc.target_node, rc.vc_class)
            else {
                continue;
            };
            if (cnext, cclass) != (hnext, hclass) {
                continue;
            }
            wire += rb + ENV_SUB_HEADER;
            self.requests[c as usize].fwd_next = cnext;
            self.requests[c as usize].fwd_class = cclass;
            members.push(c);
            self.faults.reroutes += u64::from(rerouted);
        }
        members
    }

    /// A CHT finished assembling an envelope: ack every member's upstream
    /// buffer, restamp the members for the shared hop and put the envelope
    /// on the wire as one message.
    fn cht_env_done(&mut self, now: SimTime, node: NodeId, env: u32) {
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
            // The head's downstream credit now rides on the envelope.
            slot.credit_held = false;
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
            Ok((arrival, inc)) => self
                .queue
                .schedule(arrival, Event::EnvelopeArrive { env, node: to, inc }),
            // The envelope (and every member copy inside it) is destroyed as
            // a unit; its single downstream credit comes back via the
            // sender's reclaim timer and the origins' response timers
            // recover the operations. No copy will arrive to name the slot.
            Err(at) => {
                self.free_envs.push(env);
                self.reclaim_later(at, CreditKey::cht(node, to, class));
            }
        }
        if self.chts[node as usize].queue_len() > 0 {
            self.queue.schedule(now, Event::ChtTryStart { node });
        }
    }

    /// A coalesced envelope landed: queue its unpacked `members` at the CHT.
    /// The envelope's single credit stays held until every member has been
    /// dealt with here (serviced, forwarded or discarded).
    fn envelope_arrive(&mut self, now: SimTime, node: NodeId, members: Vec<ReqId>) {
        let mut start = false;
        for m in members {
            // Stale-epoch members are rejected here exactly as individual
            // requests are at arrival; ack_member keeps the envelope's
            // pending count and single aggregated ack correct.
            if self.reject_stale(m) {
                self.ack_member(now, node, m);
                continue;
            }
            start |= self.chts[node as usize].enqueue(m);
        }
        if start {
            self.queue.schedule(now, Event::ChtTryStart { node });
        }
    }

    /// The upstream credit `req`'s copy at `node` releases: its hop's, or
    /// for the last envelope member out the envelope's single credit, which
    /// also frees the envelope's slot.
    fn upstream_credit(&mut self, node: NodeId, req: ReqId) -> Option<CreditKey> {
        let r = self.requests[req as usize];
        if r.env_slot == NO_ENV {
            return Some(r.hop_key(node));
        }
        self.requests[req as usize].env_slot = NO_ENV;
        let env = &mut self.envelopes[r.env_slot as usize];
        debug_assert_eq!(env.to, node, "member released away from its envelope");
        debug_assert!(env.pending > 0);
        env.pending -= 1;
        if env.pending > 0 {
            return None;
        }
        let key = CreditKey::cht(env.from, node, env.class);
        self.free_envs.push(r.env_slot);
        Some(key)
    }

    /// Acks the upstream buffer of `req`'s hop into `node` — for envelopes
    /// ONE aggregated ack, the paper's reply aggregation on the return path.
    fn ack_member(&mut self, now: SimTime, node: NodeId, req: ReqId) {
        let in_envelope = self.requests[req as usize].env_slot != NO_ENV;
        let Some(key) = self.upstream_credit(node, req) else {
            return;
        };
        if in_envelope {
            self.coalesce.agg_acks += 1;
        }
        self.send_ack(now, node, key.edge.0, key);
    }

    /// Whether `node` crashed since a copy reached it in incarnation `inc`.
    fn crashed_since(&self, node: NodeId, inc: u8, now: SimTime) -> bool {
        self.net.incarnation(node, now) != inc
    }

    /// Destroys the copy of `req` at `node`, which that node's crash ended:
    /// the one path every such copy takes, whether queued, in service,
    /// parked or still arriving. Its upstream buffer comes back by its
    /// owner's reclaim timer (for the last member of an envelope, the
    /// envelope's single credit), and a downstream credit it held passes on
    /// at once.
    fn destroy_copy(&mut self, now: SimTime, node: NodeId, req: ReqId) {
        if let Some(key) = self.upstream_credit(node, req) {
            self.reclaim_later(now, key);
        }
        let r = &mut self.requests[req as usize];
        if std::mem::take(&mut r.credit_held) {
            let key = CreditKey::cht(node, r.fwd_next, r.fwd_class);
            self.ack_arrive(now, key);
        }
    }

    /// Sends the ack releasing credit `key` from `node` back to `to`. A
    /// destroyed ack still frees the buffer eventually: the upstream
    /// sender's reclaim timer fires instead.
    fn send_ack(&mut self, now: SimTime, node: NodeId, to: NodeId, key: CreditKey) {
        match self.transmit(now, node, to, Frame::Message(Op::ack_bytes())) {
            Ok((arrival, _)) => self.queue.schedule(arrival, Event::AckArrive { key }),
            Err(at) => self.reclaim_later(at, key),
        }
    }

    fn cht_done(&mut self, now: SimTime, node: NodeId, req: ReqId) {
        self.chts[node as usize].end_service(now);
        let r = self.requests[req as usize];

        // Return the upstream sender's buffer credit with an explicit ack.
        self.ack_member(now, node, req);

        if r.target_node == node {
            // Terminal service: apply and respond directly to the origin —
            // unless the operation already arrived once.
            self.chts[node as usize].counters.serviced += 1;
            if !self.duplicate(now, req) {
                if r.op.notify {
                    self.notify_rank(now, r.op.target);
                }
                self.apply(now, req, None);
            }
        } else {
            // Forward the hop chosen (and credited) at service start.
            self.chts[node as usize].counters.forwarded += 1;
            self.chts[node as usize].counters.fwd_messages += 1;
            let slot = &mut self.requests[req as usize];
            slot.prev_sender = Sender::Cht(node);
            slot.prev_node = node;
            slot.vc_class = slot.fwd_class;
            slot.credit_held = false;
            self.send_request(now, req, node, r.fwd_next);
        }

        if self.chts[node as usize].queue_len() > 0 {
            self.queue.schedule(now, Event::ChtTryStart { node });
        }
    }

    /// Applies `req` at its target and answers it: into the origin at
    /// `deliver` (intra-node), else by a response. A held lock queues the
    /// request; an unlock answers before granting the next waiter.
    fn apply(&mut self, now: SimTime, req: ReqId, deliver: Option<SimTime>) {
        let r = self.requests[req as usize];
        let answer = |engine: &mut Self| match deliver {
            Some(at) => engine.queue.schedule(at, Event::ResponseArrive { req }),
            None => engine.respond(now, req),
        };
        match r.op.kind {
            OpKind::FetchAdd => {
                let old = self.fetch_counters[r.op.target.idx()];
                self.fetch_counters[r.op.target.idx()] += r.op.amount;
                self.requests[req as usize].resp_value = Some(old);
                answer(self);
            }
            OpKind::Lock => {
                let state = self.locks.entry(r.op.target).or_default();
                if state.held_by.is_none() {
                    state.held_by = Some(r.origin);
                    answer(self);
                } else {
                    // Queued: the response (grant) is deferred until the
                    // holder unlocks. The request has been absorbed into
                    // CHT memory, so the upstream buffer was still freed.
                    state.waiting.push_back(req);
                }
            }
            OpKind::Unlock => {
                let state = self.locks.entry(r.op.target).or_default();
                let held = state.held_by.take_if(|h| *h == r.origin).is_some();
                answer(self);
                if held {
                    self.grant_lock_next(now, r.op.target);
                }
            }
            _ => answer(self),
        }
    }

    /// Sends `req`'s response from its target node to its origin.
    fn respond(&mut self, now: SimTime, req: ReqId) {
        let r = self.requests[req as usize];
        self.record_answer(&r);
        if r.target_node == r.origin_node {
            let at = now + self.net.config().shm_latency;
            self.queue.schedule(at, Event::ResponseArrive { req });
            return;
        }
        // A destroyed response is recovered by the origin's timer; the
        // retransmitted request will hit the dedup table and be re-answered.
        let response = Frame::Message(r.op.response_bytes());
        if let Ok((arrival, _)) = self.transmit(now, r.target_node, r.origin_node, response) {
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

    // A waiter is only ever registered together with its pending issue, so
    // a granted proc without one is a protocol-state corruption: crash
    // loudly rather than silently dropping the credit.
    fn ack_arrive(&mut self, now: SimTime, key: CreditKey) {
        match self.credits.release(key) {
            None => {}
            Some(Waiter::Proc(rank)) => {
                if self.procs[rank.idx()].phase == Phase::Failed {
                    // The waiter failed while blocked: pass the credit on.
                    self.ack_arrive(now, key);
                    return;
                }
                // The credit transferred to the blocked process: send its
                // pending request now. (A crash drops its node's blocked
                // issues together with their waits.)
                let node = self.procs[rank.idx()].node;
                let Some(req) = self.procs[rank.idx()].pending.take() else {
                    panic!("granted {rank} has no pending issue");
                };
                let first = self.requests[req as usize].fwd_next;
                debug_assert_eq!(key.edge, (node, first));
                self.send_request(now, req, node, first);
                self.arm_timeout(now, req);
                if self.requests[req as usize].blocking {
                    self.procs[rank.idx()].phase = Phase::WaitingResponse;
                } else {
                    self.procs[rank.idx()].phase = Phase::Running;
                    self.queue
                        .schedule(now + ISSUE_OVERHEAD, Event::ProcReady(rank));
                }
            }
            Some(Waiter::Fwd { node, req, inc }) => {
                // The parked forward now holds its downstream credit.
                self.requests[req as usize].credit_held = true;
                if self.crashed_since(node, inc, now) {
                    // Its node crashed since it parked: the copy died with
                    // that incarnation.
                    self.destroy_copy(now, node, req);
                } else if self.chts[node as usize].enqueue_front(req) {
                    // Back at the front of the queue: it is the oldest work.
                    self.queue.schedule(now, Event::ChtTryStart { node });
                }
            }
            Some(Waiter::Retry { req }) => {
                let r = self.requests[req as usize];
                if self.resolved(&r)
                    || matches!(
                        self.procs[r.origin.idx()].phase,
                        Phase::Lost | Phase::Failed
                    )
                {
                    // The operation resolved while the retry waited: the
                    // copy is dropped unsent.
                    self.journey_ended(req);
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
        // The response proves the target's CHT was alive to serve it.
        self.heard_from(r.target_node, now);
        if self.first_response(req) {
            self.complete(now, req);
        }
        self.journey_ended(req);
    }

    /// Completes `req` at its origin and wakes a blocked or fencing rank.
    fn complete(&mut self, now: SimTime, req: ReqId) {
        let r = self.requests[req as usize];
        debug_assert!(r.live);
        let before = self.settle(&r);
        debug_assert_ne!(
            before,
            OpState::Done,
            "{} op #{} completed twice",
            r.origin,
            r.seq
        );
        let rank = r.origin;
        let proc = &mut self.procs[rank.idx()];
        proc.outstanding -= 1;
        proc.completed_ops += 1;
        if let Some(v) = r.resp_value {
            proc.last_fetch = Some(v);
        }
        let fencing_done = proc.phase == Phase::Fencing && proc.outstanding == 0;
        self.metrics.complete_op(rank, r.op.kind, r.issued, now);
        self.serve_completed(now, &r);
        if r.blocking || fencing_done {
            self.queue.schedule(now, Event::ProcReady(rank));
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::workload::{ClosureProgram, ScriptProgram};
    use vt_core::TopologyKind;

    pub(super) fn small_cfg(n_procs: u32, topo: TopologyKind) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::new(n_procs, topo);
        cfg.record_ops = true;
        cfg
    }

    pub(super) fn run_all(cfg: RuntimeConfig, mk: impl Fn(Rank) -> Box<dyn Program>) -> Report {
        let programs = (0..cfg.n_procs).map(|r| mk(Rank(r))).collect();
        Engine::new(cfg, programs).run().expect("no deadlock")
    }

    #[test]
    fn request_slot_fits_128_bytes() {
        // The slab holds one `Request` per in-flight attempt; keep a slot
        // within two cache lines.
        assert!(
            std::mem::size_of::<Request>() <= 128,
            "{}",
            std::mem::size_of::<Request>()
        );
    }

    #[test]
    fn incarnations_grow_no_queue_entry() {
        // Events and credit waiters carry a node's incarnation in padding
        // that was already there.
        assert_eq!(std::mem::size_of::<Event>(), 20);
        assert_eq!(std::mem::size_of::<Waiter>(), 12);
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

    pub(super) fn run_all_faulted(
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
    pub(super) fn inert_plan() -> FaultPlan {
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

    pub(super) fn hotspot_program(r: Rank) -> Box<dyn Program> {
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
        cfg.buffer_bytes = 2 * rb + ENV_SUB_HEADER;
        let report = run_all(cfg, hotspot_program);
        assert!(report.coalesce.envelopes >= 1, "{:?}", report.coalesce);
        assert_eq!(report.coalesce.deepest_fold, 2);
        assert!(report.coalesce.largest_envelope <= 2 * rb);
        assert_eq!(report.fetch_finals[0], 12);
    }

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
