//! The network façade: message delivery with full contention accounting.
//!
//! Every [`Frame`] takes one route through one pipeline: the sender's TX
//! engine, each torus link of the dimension-order route (cut-through:
//! latency paid per hop, serialisation paid once but reserved on every
//! link), and the receiver's RX engine with its stream table. Queueing,
//! tree saturation around hot nodes and BEER slow paths all emerge from the
//! per-resource `busy_until` horizons. An installed [`FaultPlan`] filters
//! that same walk — refusing, losing, slowing or corrupting frames — and
//! without a plan the filter does nothing.

use crate::config::NetworkConfig;
use crate::fault::{CorruptWindow, DropReason, DropWindow, FaultPlan, LinkMode, PartitionWindow};
use crate::link::{Link, LinkFault};
use crate::nic::Nic;
use crate::placement::PlacementMap;
use crate::rng::DetRng;
use crate::time::SimTime;
use crate::torus::Torus3;

/// Outcome of injecting one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Time the payload is fully available at the destination host.
    pub at: SimTime,
    /// Whether the receiver's stream table missed (BEER slow path taken).
    pub stream_miss: bool,
    /// Physical hops traversed (0 for intra-node delivery).
    pub hops: u32,
    /// Whether a corrupt window flipped payload bits in flight. The frame
    /// still arrives — detecting the damage is the runtime's job, via
    /// end-to-end envelope checksums. Always false without a fault plan.
    pub corrupt: bool,
    /// The destination's incarnation (see [`Network::incarnation`]) when
    /// the frame reached it, which is when the network accepted the frame.
    /// Always 0 without a fault plan.
    pub incarnation: u8,
}

/// Framing overhead per envelope member beyond the first: the sub-request
/// length/offset descriptor that lets the receiver split a coalesced
/// envelope back into individual requests.
pub const ENV_SUB_HEADER: u64 = 16;

/// Receiver-side cost to demultiplex one additional sub-request out of a
/// coalesced envelope (paid per member beyond the first; the first member
/// rides the ordinary `rx_base` fast path).
const ENV_UNPACK: SimTime = SimTime::from_nanos(40);

/// One frame on the wire. Its kind decides how many bytes it puts on the
/// links, what extra demultiplexing the receiver pays, and which traffic
/// counters it bumps; the route is the same for all three.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame {
    /// An ordinary message of this many payload bytes.
    Message(u64),
    /// A coalesced envelope of `subreqs` member requests: one wire message
    /// of the payload plus [`ENV_SUB_HEADER`] per member beyond the first.
    /// The receiver touches its stream table and pays `rx_base` once, plus
    /// `ENV_UNPACK` (40 ns) per member beyond the first — where
    /// coalescing wins at a hot receiver, since `n` singles would pay
    /// `rx_base` (and risk a BEER miss) `n` times. Envelopes exist only on
    /// the forwarding path, so they are inter-node by construction.
    Envelope {
        /// Total payload of the member requests.
        payload_bytes: u64,
        /// Number of member requests.
        subreqs: u32,
    },
    /// A failure-detector heartbeat probe of this many bytes: an ordinary
    /// message, lost to faults like any other traffic (which is what makes
    /// a silent peer ambiguous to the detector), and also counted in
    /// [`NetCounters::probes`].
    Probe(u64),
}

impl Frame {
    /// Bytes the frame puts on the wire, and the receiver's demultiplexing
    /// cost on top of its RX drain.
    fn size(self) -> (u64, SimTime) {
        match self {
            Frame::Message(bytes) | Frame::Probe(bytes) => (bytes, SimTime::ZERO),
            Frame::Envelope {
                payload_bytes,
                subreqs,
            } => {
                let extra = u64::from(subreqs.saturating_sub(1));
                (payload_bytes + ENV_SUB_HEADER * extra, ENV_UNPACK * extra)
            }
        }
    }
}

/// How far a frame got: what the traffic counters record for it.
enum Reach {
    /// Refused at the sender's port, before the TX engine.
    Refused,
    /// Delivered through host memory (intra-node).
    Local,
    /// Put on the wire; `hops` links crossed before delivery or loss.
    Wire { hops: u32 },
}

/// Outcome of a send on a network that may inject faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message arrived; same meaning as [`Network::send`]'s return.
    Delivered(Delivery),
    /// The message was lost. Resources consumed before the loss point
    /// (TX engine, links already traversed) stay consumed.
    Dropped {
        /// Simulated time at which the message vanished.
        at: SimTime,
        /// What claimed it.
        reason: DropReason,
    },
}

/// Aggregate traffic counters for a run.
///
/// A frame *on the wire* is one that got past the sender's port: it was
/// either delivered or lost on a link or at arrival. Frames refused at the
/// port (dead source, partition) count only in `dropped` (and `probes`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Inter-node frames on the wire, delivered or lost there.
    pub messages: u64,
    /// Intra-node (shared-memory) deliveries.
    pub local_messages: u64,
    /// Total wire bytes of the frames counted in `messages`.
    pub bytes: u64,
    /// Total BEER slow-path events.
    pub stream_misses: u64,
    /// Total physical hops traversed; a frame lost on a failed link counts
    /// the hops before it.
    pub hops: u64,
    /// Frames lost to injected faults, wherever they were lost.
    pub dropped: u64,
    /// Coalesced envelopes on the wire, delivered or lost there (each is
    /// also counted once in `messages` — an envelope is one wire message).
    pub envelopes: u64,
    /// Member requests carried inside the envelopes counted in
    /// `envelopes`.
    pub coalesced_requests: u64,
    /// Failure-detector heartbeat probes handed to the network, including
    /// those refused at the sender's port (each probe on the wire is also
    /// counted once in `messages`). Zero unless the runtime's membership
    /// layer is enabled.
    pub probes: u64,
    /// Frames delivered with corrupted payloads (each is also counted once
    /// in `messages`). Zero unless the plan schedules corrupt windows.
    pub corrupted: u64,
}

/// Interpreted fault state: per-node outage windows (crash instant plus
/// optional reboot), partition cuts, transient-loss and corruption windows
/// with their dedicated RNG streams. Present only when the plan is
/// non-empty, so fault-free runs never touch any of it.
///
/// The loss and corruption draws come from *separate* forks of the fault
/// seed, so adding a corrupt window to a plan never perturbs which
/// messages its drop windows lose.
struct FaultCtx {
    outages: Vec<Option<(SimTime, Option<SimTime>)>>,
    partitions: Vec<PartitionWindow>,
    drop_windows: Vec<DropWindow>,
    drop_rng: DetRng,
    corrupt_windows: Vec<CorruptWindow>,
    corrupt_rng: DetRng,
}

impl FaultCtx {
    /// `node`'s incarnation at `at` (see [`Network::incarnation`]).
    fn incarnation(&self, node: u32, at: SimTime) -> u8 {
        match self.outages[node as usize] {
            Some((crash, _)) if at < crash => 0,
            Some((_, Some(restart))) if at >= restart => 2,
            Some(_) => 1,
            None => 0,
        }
    }

    /// Whether `node` is inside its outage window at `at`.
    fn dead_at(&self, node: u32, at: SimTime) -> bool {
        self.incarnation(node, at) == 1
    }

    /// Whether an active partition severs `src -> dst` at `at`.
    fn partitioned(&self, at: SimTime, src: u32, dst: u32) -> bool {
        self.partitions.iter().any(|w| w.severs(at, src, dst))
    }

    /// The fate of a frame reaching `dst` at `at`: lost to a dead
    /// destination NIC, else to one draw from the loss stream against the
    /// first drop window covering `at`; if it survives, `Ok(corrupt)` from
    /// one draw against the first corrupt window covering `at`.
    fn arrive(&mut self, dst: u32, at: SimTime) -> Result<bool, DropReason> {
        if self.dead_at(dst, at) {
            return Err(DropReason::DestDead);
        }
        let covers = |from: SimTime, until: SimTime| at >= from && at < until;
        if let Some(w) = self.drop_windows.iter().find(|w| covers(w.from, w.until)) {
            if self.drop_rng.f64() < w.probability {
                return Err(DropReason::Transient);
            }
        }
        Ok(self
            .corrupt_windows
            .iter()
            .find(|w| covers(w.from, w.until))
            .is_some_and(|w| self.corrupt_rng.f64() < w.probability))
    }
}

/// The simulated interconnect: torus, links, and one NIC per logical node.
pub struct Network {
    cfg: NetworkConfig,
    torus: Torus3,
    placement: PlacementMap,
    links: Vec<Link>,
    /// Per-link fault windows, index-parallel to `links`; allocated only
    /// when the installed plan faults links, so the fault-free route walk
    /// streams the dense 16-byte `links` entries alone.
    link_faults: Option<Vec<LinkFault>>,
    nics: Vec<Nic>,
    counters: NetCounters,
    faults: Option<FaultCtx>,
}

impl Network {
    /// Builds the network for `n_nodes` logical nodes.
    ///
    /// # Panics
    /// Panics if a pinned torus geometry is too small for `n_nodes`.
    pub fn new(cfg: NetworkConfig, n_nodes: u32) -> Self {
        assert!(n_nodes >= 1, "need at least one node");
        let torus = match cfg.torus_dims {
            Some(dims) => Torus3::new(dims),
            None => Torus3::fitting(n_nodes),
        };
        let placement = PlacementMap::build(cfg.placement, n_nodes, &torus);
        let links = vec![Link::default(); torus.link_count()];
        let nics = (0..n_nodes)
            .map(|_| Nic::new(cfg.stream_contexts))
            .collect();
        Network {
            cfg,
            torus,
            placement,
            links,
            link_faults: None,
            nics,
            counters: NetCounters::default(),
            faults: None,
        }
    }

    /// Builds the network with an injected [`FaultPlan`]. An empty plan
    /// yields a network indistinguishable from [`Network::new`]'s — no
    /// fault state is installed, so [`Network::transmit`]'s filter has
    /// nothing to apply.
    ///
    /// # Panics
    /// Panics if the plan fails [`FaultPlan::validate`], names a node
    /// outside `0..n_nodes`, or faults a link outside the torus.
    pub fn with_faults(cfg: NetworkConfig, n_nodes: u32, plan: &FaultPlan) -> Self {
        let mut net = Network::new(cfg, n_nodes);
        if plan.is_empty() {
            return net;
        }
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        if !plan.link_faults.is_empty() {
            let mut windows = vec![LinkFault::default(); net.links.len()];
            for f in &plan.link_faults {
                let id = f.slot as usize * 6 + usize::from(f.dir);
                assert!(
                    id < windows.len(),
                    "link fault slot {} outside the torus",
                    f.slot
                );
                match f.mode {
                    LinkMode::Fail => windows[id].set_outage(f.at, f.until),
                    LinkMode::Degrade(factor) => windows[id].set_degrade(f.at, f.until, factor),
                }
            }
            net.link_faults = Some(windows);
        }
        let mut outages = vec![None; n_nodes as usize];
        for c in &plan.node_crashes {
            assert!(
                c.node < n_nodes,
                "crash of node {} outside population",
                c.node
            );
            outages[c.node as usize] = Some((c.at, plan.restart_time(c.node)));
        }
        for p in &plan.partitions {
            for &(a, b) in &p.cut {
                assert!(
                    a < n_nodes && b < n_nodes,
                    "partition pair ({a}, {b}) outside population"
                );
            }
        }
        net.faults = Some(FaultCtx {
            outages,
            partitions: plan.partitions.clone(),
            drop_windows: plan.drop_windows.clone(),
            drop_rng: DetRng::new(cfg.fault_seed).fork(0xD20B),
            corrupt_windows: plan.corrupt_windows.clone(),
            corrupt_rng: DetRng::new(cfg.fault_seed).fork(0xC0BB),
        });
        net
    }

    /// The machine configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Whether a fault plan is installed.
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Whether `node` is dead — inside its scheduled outage window — at
    /// time `at`. A node whose plan reboots it is dead only between its
    /// crash and restart instants. Always false without a fault plan.
    pub fn node_dead(&self, node: u32, at: SimTime) -> bool {
        self.faults.as_ref().is_some_and(|f| f.dead_at(node, at))
    }

    /// `node`'s incarnation at `at`: 0 before its crash, 1 inside its
    /// outage window, 2 after its reboot. A pure function of the plan,
    /// which crashes and reboots each node at most once. Always 0 without
    /// a fault plan.
    pub fn incarnation(&self, node: u32, at: SimTime) -> u8 {
        self.faults.as_ref().map_or(0, |f| f.incarnation(node, at))
    }

    /// Number of logical nodes.
    pub fn num_nodes(&self) -> u32 {
        self.nics.len() as u32
    }

    /// Physical hop distance between two logical nodes.
    pub fn hop_distance(&self, src: u32, dst: u32) -> u32 {
        self.torus
            .hop_count(self.placement.slot(src), self.placement.slot(dst))
    }

    /// Sends `bytes` from logical node `src` to `dst` at time `now`,
    /// reserving every resource on the way; returns the delivery. Any
    /// installed fault plan is ignored: this is the bare pipeline.
    pub fn send(&mut self, now: SimTime, src: u32, dst: u32, bytes: u64) -> Delivery {
        match self.pipeline(now, src, dst, Frame::Message(bytes), false) {
            SendOutcome::Delivered(d) => d,
            SendOutcome::Dropped { .. } => unreachable!("only the fault filter drops frames"),
        }
    }

    /// Sends `frame` from `src` to `dst` at `now` through the installed
    /// fault plan. Without a plan every frame arrives, and a message's
    /// delivery is exactly [`Network::send`]'s. With one, the frame can be
    /// refused at the sender's port, lost on a failed link or at arrival,
    /// slowed by degraded links, or delivered corrupt.
    ///
    /// # Panics
    /// Panics on an intra-node [`Frame::Envelope`].
    pub fn transmit(&mut self, now: SimTime, src: u32, dst: u32, frame: Frame) -> SendOutcome {
        self.pipeline(now, src, dst, frame, true)
    }

    /// The one place the traffic counters are updated: walks `frame` and
    /// records how far it got.
    fn pipeline(
        &mut self,
        now: SimTime,
        src: u32,
        dst: u32,
        frame: Frame,
        filtered: bool,
    ) -> SendOutcome {
        let (outcome, reach) = self.walk(now, src, dst, frame, filtered);
        let c = &mut self.counters;
        c.probes += u64::from(matches!(frame, Frame::Probe(_)));
        match reach {
            Reach::Refused => {}
            Reach::Local => c.local_messages += 1,
            Reach::Wire { hops } => {
                c.messages += 1;
                c.bytes += frame.size().0;
                c.hops += u64::from(hops);
                if let Frame::Envelope { subreqs, .. } = frame {
                    c.envelopes += 1;
                    c.coalesced_requests += u64::from(subreqs);
                }
            }
        }
        match outcome {
            SendOutcome::Delivered(d) => {
                c.stream_misses += u64::from(d.stream_miss);
                c.corrupted += u64::from(d.corrupt);
            }
            SendOutcome::Dropped { .. } => c.dropped += 1,
        }
        outcome
    }

    /// The TX → links → RX walk, with the installed fault plan as a filter
    /// when `filtered` is set.
    fn walk(
        &mut self,
        now: SimTime,
        src: u32,
        dst: u32,
        frame: Frame,
        filtered: bool,
    ) -> (SendOutcome, Reach) {
        let dropped = |at, reason| SendOutcome::Dropped { at, reason };
        let faults = self.faults.as_mut().filter(|_| filtered);
        let link_faults = self.link_faults.as_deref().filter(|_| filtered);
        if faults.as_ref().is_some_and(|f| f.dead_at(src, now)) {
            return (dropped(now, DropReason::SourceDead), Reach::Refused);
        }
        if src == dst {
            assert!(
                !matches!(frame, Frame::Envelope { .. }),
                "envelopes are inter-node by construction"
            );
            // Intra-node copies move through host memory, not the NIC, so
            // network faults cannot touch them.
            let local = Delivery {
                at: now + self.cfg.shm_latency,
                stream_miss: false,
                hops: 0,
                corrupt: false,
                incarnation: faults.map_or(0, |f| f.incarnation(dst, now)),
            };
            return (SendOutcome::Delivered(local), Reach::Local);
        }
        if faults
            .as_ref()
            .is_some_and(|f| f.partitioned(now, src, dst))
        {
            // The cut severs the pair at the sender's port: like a dead
            // source, the frame never reaches the NIC.
            return (dropped(now, DropReason::Partitioned), Reach::Refused);
        }

        // Transmit engine: software overhead + injection DMA.
        let (bytes, unpack) = frame.size();
        let entered =
            self.nics[src as usize].reserve_tx(now, self.cfg.tx_overhead, self.cfg.inj_time(bytes));

        // Cut-through over the dimension-order route: the head pays hop
        // latency per link; the body's serialisation time is reserved on
        // every link it occupies but paid end-to-end only once, at the rate
        // of the slowest (most degraded) link it crosses.
        let occupancy = self.cfg.link_time(bytes);
        let route = self
            .torus
            .route(self.placement.slot(src), self.placement.slot(dst));
        let mut hops = 0u32;
        let mut head = entered;
        let mut drain = occupancy;
        for link_id in route {
            let id = link_id as usize;
            let mut busy = occupancy;
            if let Some(lf) = link_faults {
                if lf[id].is_down(head) {
                    return (dropped(head, DropReason::LinkDown), Reach::Wire { hops });
                }
                busy = scale_time(occupancy, lf[id].occupancy_factor(head));
                drain = drain.max(busy);
            }
            head = self.links[id].reserve(head, busy, bytes) + self.cfg.hop_latency;
            hops += 1;
        }
        let arrival = head + drain;

        let incarnation = faults.as_ref().map_or(0, |f| f.incarnation(dst, arrival));
        let corrupt = match faults.map(|f| f.arrive(dst, arrival)) {
            Some(Err(reason)) => return (dropped(arrival, reason), Reach::Wire { hops }),
            Some(Ok(corrupt)) => corrupt,
            None => false,
        };

        // Receive engine: fast path or BEER slow path, plus any envelope
        // demultiplexing.
        let (at, stream_miss) = self.nics[dst as usize].reserve_rx(
            src,
            arrival,
            self.cfg.rx_base,
            self.cfg.rx_time(bytes) + unpack,
            self.cfg.stream_miss_penalty,
        );
        let delivery = Delivery {
            at,
            stream_miss,
            hops,
            corrupt,
            incarnation,
        };
        (SendOutcome::Delivered(delivery), Reach::Wire { hops })
    }

    /// Aggregate traffic counters.
    pub fn counters(&self) -> NetCounters {
        self.counters
    }

    /// The `k` busiest links by bytes carried, busiest first — makes tree
    /// saturation around hot nodes observable. Each entry is
    /// `(physical slot, direction 0..6, bytes)`.
    pub fn top_links(&self, k: usize) -> Vec<(u32, u8, u64)> {
        let mut loaded: Vec<(u32, u8, u64)> = self
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.bytes() > 0)
            .map(|(id, l)| ((id / 6) as u32, (id % 6) as u8, l.bytes()))
            .collect();
        // Busiest-first; ties broken by (slot, direction) so the result is
        // deterministic. Partition the top k in O(n), then sort only that
        // slice — the full list can be every link in a 19 200-slot torus.
        let cmp = |a: &(u32, u8, u64), b: &(u32, u8, u64)| {
            b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1))
        };
        if k == 0 || loaded.is_empty() {
            loaded.truncate(k);
            return loaded;
        }
        if k < loaded.len() {
            loaded.select_nth_unstable_by(k - 1, cmp);
            loaded.truncate(k);
        }
        loaded.sort_unstable_by(cmp);
        loaded
    }

    /// Total bytes carried over all links (each hop counts the payload
    /// once).
    pub fn total_link_bytes(&self) -> u64 {
        self.links.iter().map(Link::bytes).sum()
    }
}

/// Scales a span by a slow-down factor (identity for healthy links, so the
/// fault-free arithmetic stays exact integer nanoseconds).
fn scale_time(t: SimTime, factor: f64) -> SimTime {
    if factor == 1.0 {
        t
    } else {
        SimTime::from_nanos((t.as_nanos() as f64 * factor).round() as u64)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::placement::Placement;

    fn quiet_net(n: u32) -> Network {
        Network::new(NetworkConfig::default(), n)
    }

    #[test]
    fn local_delivery_uses_shm_latency() {
        let mut net = quiet_net(4);
        let d = net.send(SimTime::from_micros(1), 2, 2, 1 << 20);
        assert_eq!(d.at, SimTime::from_micros(1) + net.config().shm_latency);
        assert_eq!(d.hops, 0);
        assert!(!d.stream_miss);
        assert_eq!(net.counters().local_messages, 1);
        assert_eq!(net.counters().messages, 0);
    }

    #[test]
    fn remote_delivery_time_decomposes() {
        let mut net = quiet_net(8);
        let bytes = 2_400; // 1 us of injection and rx, 0.4 us on the wire
        let d = net.send(SimTime::ZERO, 0, 1, bytes);
        let cfg = *net.config();
        let hops = net.hop_distance(0, 1);
        assert!(hops >= 1);
        let expected = cfg.tx_overhead
            + cfg.inj_time(bytes)
            + cfg.hop_latency * u64::from(hops)
            + cfg.link_time(bytes)
            + cfg.rx_base
            + cfg.rx_time(bytes)
            + cfg.stream_miss_penalty; // first contact always misses
        assert_eq!(d.at, expected);
        assert!(d.stream_miss);
        assert_eq!(d.hops, hops);
    }

    #[test]
    fn second_message_from_same_source_hits_stream_table() {
        let mut net = quiet_net(4);
        let a = net.send(SimTime::ZERO, 0, 1, 64);
        let b = net.send(a.at, 0, 1, 64);
        assert!(a.stream_miss);
        assert!(!b.stream_miss);
        assert_eq!(net.counters().stream_misses, 1);
    }

    #[test]
    fn farther_nodes_take_longer() {
        // Linear placement: physical distance grows with node-id distance.
        let cfg = NetworkConfig {
            torus_dims: Some([8, 8, 8]),
            ..NetworkConfig::default()
        };
        let mut near_net = Network::new(cfg, 512);
        let near = near_net.send(SimTime::ZERO, 1, 0, 1_024).at;
        let mut far_net = Network::new(cfg, 512);
        let far_src = 256; // (0,0,4): 4 hops from slot 0
        let far = far_net.send(SimTime::ZERO, far_src, 0, 1_024).at;
        assert!(far > near, "far {far:?} <= near {near:?}");
    }

    #[test]
    fn many_to_one_serialises_at_receiver() {
        let mut net = quiet_net(64);
        // All nodes fire at the hot node simultaneously.
        let deliveries: Vec<Delivery> = (1..64)
            .map(|src| net.send(SimTime::ZERO, src, 0, 4_096))
            .collect();
        let mut times: Vec<SimTime> = deliveries.iter().map(|d| d.at).collect();
        times.sort_unstable();
        // Consecutive completions are separated by at least the rx cost.
        let rx_cost = net.config().rx_base + net.config().rx_time(4_096);
        for w in times.windows(2) {
            assert!(w[1] - w[0] >= rx_cost, "{:?} then {:?}", w[0], w[1]);
        }
        // The last delivery reflects a deep queue: far beyond a lone send.
        let mut lone_net = quiet_net(64);
        let lone = lone_net.send(SimTime::ZERO, 1, 0, 4_096).at;
        assert!(*times.last().unwrap() > lone * 10);
    }

    #[test]
    fn interleaved_sources_beyond_contexts_thrash() {
        // More interleaved senders than stream contexts: steady-state
        // misses; fewer senders: steady-state hits.
        let cfg = NetworkConfig {
            stream_contexts: 8,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(cfg, 32);
        let mut t = SimTime::ZERO;
        for _round in 0..4 {
            for src in 1..=12u32 {
                t = net.send(t, src, 0, 64).at;
            }
        }
        let thrashed = net.counters().stream_misses;
        assert_eq!(thrashed, 48, "every message should miss");

        let mut net2 = Network::new(cfg, 32);
        let mut t = SimTime::ZERO;
        for _round in 0..4 {
            for src in 1..=6u32 {
                t = net2.send(t, src, 0, 64).at;
            }
        }
        assert_eq!(net2.counters().stream_misses, 6, "only cold misses");
    }

    #[test]
    fn envelope_is_one_message_and_beats_singles_at_hot_receiver() {
        // Same total payload into the same receiver: one 4-member envelope
        // vs four singles from the same forwarder.
        let mut env_net = quiet_net(8);
        let envelope = Frame::Envelope {
            payload_bytes: 4 * 160,
            subreqs: 4,
        };
        let SendOutcome::Delivered(env) = env_net.transmit(SimTime::ZERO, 3, 0, envelope) else {
            panic!("no plan, no loss");
        };
        let mut single_net = quiet_net(8);
        let mut last = SimTime::ZERO;
        for _ in 0..4 {
            last = single_net.send(SimTime::ZERO, 3, 0, 160).at;
        }
        assert!(env.at < last, "envelope {:?} >= singles {:?}", env.at, last);
        let c = env_net.counters();
        assert_eq!(c.messages, 1);
        assert_eq!(c.envelopes, 1);
        assert_eq!(c.coalesced_requests, 4);
        // Framing bytes: payload + 3 sub-headers.
        assert_eq!(c.bytes, 4 * 160 + ENV_SUB_HEADER * 3);
        assert_eq!(single_net.counters().messages, 4);
        assert_eq!(single_net.counters().envelopes, 0);
    }

    /// The three frame kinds the runtime sends, at fixed sizes: a
    /// request-sized message, a 4-member envelope and a heartbeat probe.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Message,
        Envelope,
        Probe,
    }

    impl Kind {
        const ALL: [Kind; 3] = [Kind::Message, Kind::Envelope, Kind::Probe];

        /// Bytes on the wire and the receiver's extra unpack cost.
        fn wire(self) -> (u64, SimTime) {
            match self {
                Kind::Message => (256, SimTime::ZERO),
                Kind::Envelope => (640 + ENV_SUB_HEADER * 3, ENV_UNPACK * 3),
                Kind::Probe => (64, SimTime::ZERO),
            }
        }

        fn frame(self) -> Frame {
            match self {
                Kind::Message => Frame::Message(256),
                Kind::Envelope => Frame::Envelope {
                    payload_bytes: 640,
                    subreqs: 4,
                },
                Kind::Probe => Frame::Probe(64),
            }
        }
    }

    /// Where a frame's walk ended, as the ledger must record it.
    #[derive(Clone, Copy, Debug)]
    enum Fate {
        /// Delivered through host memory, never touching the NIC.
        Local,
        /// Refused at the sender's port, before the TX engine.
        Refused(DropReason),
        /// Lost after crossing this many links.
        Lost(DropReason, u32),
        /// Delivered over the whole route.
        Arrived { corrupt: bool },
    }

    #[test]
    fn counter_ledger_per_drop_reason() {
        let cfg = NetworkConfig {
            torus_dims: Some([8, 8, 8]),
            ..NetworkConfig::default()
        };
        let (src, dst) = (3, 0);
        let walk = Network::new(cfg, 8);
        let route = walk
            .torus
            .route_links(walk.placement.slot(src), walk.placement.slot(dst));
        let hops = route.len() as u32;
        assert!(hops >= 2, "the route needs a later hop to fail");
        let (first, last) = (route[0], route[route.len() - 1]);
        let fail =
            |id: u32| FaultPlan::new().fail_link(id / 6, (id % 6) as u8, SimTime::ZERO, None);
        let (t0, t1, t2) = (SimTime::ZERO, SimTime::from_secs(1), SimTime::from_secs(2));
        let rows = [
            ("no plan, intra-node", None, src, Fate::Local),
            ("no plan", None, dst, Fate::Arrived { corrupt: false }),
            (
                "empty plan",
                Some(FaultPlan::new()),
                dst,
                Fate::Arrived { corrupt: false },
            ),
            (
                "lossy plan, intra-node",
                Some(FaultPlan::new().drop_window(t0, t1, 1.0)),
                src,
                Fate::Local,
            ),
            (
                "source dead",
                Some(FaultPlan::new().crash_node(t0, src)),
                dst,
                Fate::Refused(DropReason::SourceDead),
            ),
            (
                "partitioned",
                Some(FaultPlan::new().partition(t0, t1, vec![(src, dst)])),
                dst,
                Fate::Refused(DropReason::Partitioned),
            ),
            (
                "first link down",
                Some(fail(first)),
                dst,
                Fate::Lost(DropReason::LinkDown, 0),
            ),
            (
                "last link down",
                Some(fail(last)),
                dst,
                Fate::Lost(DropReason::LinkDown, hops - 1),
            ),
            (
                "dest dead",
                Some(FaultPlan::new().crash_node(t0, dst)),
                dst,
                Fate::Lost(DropReason::DestDead, hops),
            ),
            (
                "transient",
                Some(FaultPlan::new().drop_window(t0, t1, 1.0)),
                dst,
                Fate::Lost(DropReason::Transient, hops),
            ),
            (
                "corrupt",
                Some(FaultPlan::new().corrupt_window(t0, t1, 1.0)),
                dst,
                Fate::Arrived { corrupt: true },
            ),
            (
                "clean under a plan",
                Some(FaultPlan::new().drop_window(t1, t2, 1.0)),
                dst,
                Fate::Arrived { corrupt: false },
            ),
        ];
        let now = SimTime::from_micros(1);
        for (name, plan, to, fate) in rows {
            for kind in Kind::ALL {
                if matches!((kind, fate), (Kind::Envelope, Fate::Local)) {
                    continue; // Envelopes are inter-node (see below).
                }
                let mut net = match &plan {
                    Some(p) => Network::with_faults(cfg, 8, p),
                    None => Network::new(cfg, 8),
                };
                if plan.as_ref().is_some_and(FaultPlan::is_empty) {
                    assert!(!net.faults_enabled(), "an empty plan installs nothing");
                }
                let out = net.transmit(now, src, to, kind.frame());

                let (bytes, unpack) = kind.wire();
                let entered = now + cfg.tx_overhead + cfg.inj_time(bytes);
                let arrival = entered + cfg.hop_latency * u64::from(hops) + cfg.link_time(bytes);
                let mut want = NetCounters {
                    probes: u64::from(matches!(kind, Kind::Probe)),
                    ..NetCounters::default()
                };
                // Past the sender's port a frame counts as sent, over the
                // links it actually crossed.
                let mut on_wire = |crossed: u32| {
                    want.messages = 1;
                    want.bytes = bytes;
                    want.hops = u64::from(crossed);
                    if let Kind::Envelope = kind {
                        want.envelopes = 1;
                        want.coalesced_requests = 4;
                    }
                };
                let expected = match fate {
                    Fate::Local => SendOutcome::Delivered(Delivery {
                        at: now + cfg.shm_latency,
                        stream_miss: false,
                        hops: 0,
                        corrupt: false,
                        incarnation: 0,
                    }),
                    Fate::Refused(reason) => SendOutcome::Dropped { at: now, reason },
                    Fate::Lost(reason, crossed) => {
                        on_wire(crossed);
                        let at = match reason {
                            DropReason::LinkDown => entered + cfg.hop_latency * u64::from(crossed),
                            _ => arrival,
                        };
                        SendOutcome::Dropped { at, reason }
                    }
                    Fate::Arrived { corrupt } => {
                        on_wire(hops);
                        SendOutcome::Delivered(Delivery {
                            // First contact always misses the stream table.
                            at: arrival
                                + cfg.rx_base
                                + cfg.rx_time(bytes)
                                + cfg.stream_miss_penalty
                                + unpack,
                            stream_miss: true,
                            hops,
                            corrupt,
                            incarnation: 0,
                        })
                    }
                };
                match fate {
                    Fate::Local => want.local_messages = 1,
                    Fate::Refused(_) | Fate::Lost(..) => want.dropped = 1,
                    Fate::Arrived { corrupt } => {
                        want.stream_misses = 1;
                        want.corrupted = u64::from(corrupt);
                    }
                }
                assert_eq!(out, expected, "{name} / {kind:?}");
                assert_eq!(net.counters(), want, "{name} / {kind:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inter-node")]
    fn intra_node_envelope_panics() {
        quiet_net(4).transmit(SimTime::ZERO, 2, 2, Kind::Envelope.frame());
    }

    #[test]
    fn counters_accumulate() {
        let mut net = quiet_net(4);
        net.send(SimTime::ZERO, 0, 1, 100);
        net.send(SimTime::ZERO, 1, 2, 200);
        net.send(SimTime::ZERO, 3, 3, 300);
        let c = net.counters();
        assert_eq!(c.messages, 2);
        assert_eq!(c.local_messages, 1);
        assert_eq!(c.bytes, 300);
        assert!(c.hops >= 2);
    }

    #[test]
    fn top_links_surface_the_hot_spot() {
        let mut net = quiet_net(64);
        for src in 1..64 {
            net.send(SimTime::ZERO, src, 0, 10_000);
        }
        let top = net.top_links(6);
        assert!(!top.is_empty());
        // Bytes are sorted descending.
        for w in top.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
        // The busiest links carry many messages' worth of bytes (funnelling
        // into node 0), far above a single payload.
        assert!(top[0].2 > 50_000, "hottest link only {} bytes", top[0].2);
        // Total link bytes = payload x hops.
        assert_eq!(net.total_link_bytes(), 10_000 * net.counters().hops);
    }

    #[test]
    fn top_links_k_selection_matches_full_sort_with_ties() {
        // Many links carrying *identical* byte loads: the k-selection must
        // return exactly the prefix a full deterministic sort would, with
        // ties broken by (slot, direction) ascending.
        let mut net = quiet_net(27);
        let mut pairs = 0;
        for src in 0..27u32 {
            for dst in 0..27u32 {
                if src != dst && net.hop_distance(src, dst) == 1 && pairs < 12 {
                    net.send(SimTime::ZERO, src, dst, 5_000);
                    pairs += 1;
                }
            }
        }
        assert_eq!(pairs, 12);
        let full = net.top_links(usize::MAX);
        assert_eq!(full.len(), 12);
        assert!(full.iter().all(|e| e.2 == 5_000), "loads must tie");
        for w in full.windows(2) {
            assert!(
                (w[0].0, w[0].1) < (w[1].0, w[1].1),
                "ties must order by (slot, dir): {w:?}"
            );
        }
        for k in [0, 1, 5, 11, 12, 40] {
            let top = net.top_links(k);
            assert_eq!(top, full[..k.min(full.len())], "k = {k}");
        }
    }

    #[test]
    fn random_placement_builds() {
        let cfg = NetworkConfig {
            placement: Placement::Random { seed: 5 },
            ..NetworkConfig::default()
        };
        let mut net = Network::new(cfg, 100);
        let d = net.send(SimTime::ZERO, 99, 0, 1_000);
        assert!(d.at > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "slots")]
    fn pinned_torus_too_small_panics() {
        let cfg = NetworkConfig {
            torus_dims: Some([2, 2, 2]),
            ..NetworkConfig::default()
        };
        Network::new(cfg, 9);
    }

    #[test]
    fn dead_source_drops_at_send_time() {
        let plan = FaultPlan::new().crash_node(SimTime::from_micros(10), 4);
        let mut net = Network::with_faults(NetworkConfig::default(), 8, &plan);
        // Before the crash the node still sends.
        let before = net.transmit(SimTime::ZERO, 4, 0, Frame::Message(64));
        assert!(matches!(before, SendOutcome::Delivered(_)));
        let after = net.transmit(SimTime::from_micros(10), 4, 0, Frame::Message(64));
        assert_eq!(
            after,
            SendOutcome::Dropped {
                at: SimTime::from_micros(10),
                reason: DropReason::SourceDead
            }
        );
        assert_eq!(net.counters().dropped, 1);
    }

    #[test]
    fn message_arriving_after_dest_crash_is_lost() {
        // The crash instant falls between send time and arrival: the
        // message is already in flight and vanishes at the dead NIC.
        let plan = FaultPlan::new().crash_node(SimTime::from_nanos(2_000), 0);
        let mut net = Network::with_faults(NetworkConfig::default(), 8, &plan);
        match net.transmit(SimTime::ZERO, 7, 0, Frame::Message(4_096)) {
            SendOutcome::Dropped { at, reason } => {
                assert_eq!(reason, DropReason::DestDead);
                assert!(at >= SimTime::from_nanos(2_000));
            }
            other => panic!("expected a dest-dead drop, got {other:?}"),
        }
        assert_eq!(net.counters().dropped, 1);
        assert!(net.node_dead(0, SimTime::from_nanos(2_000)));
        assert!(!net.node_dead(0, SimTime::from_nanos(1_999)));
    }

    #[test]
    fn failed_link_swallows_the_message() {
        let cfg = NetworkConfig::default();
        let probe = Network::new(cfg, 8);
        let route = probe
            .torus
            .route_links(probe.placement.slot(3), probe.placement.slot(0));
        let first = route[0];
        let plan = FaultPlan::new().fail_link(first / 6, (first % 6) as u8, SimTime::ZERO, None);
        let mut net = Network::with_faults(cfg, 8, &plan);
        match net.transmit(SimTime::ZERO, 3, 0, Frame::Message(64)) {
            SendOutcome::Dropped { reason, .. } => assert_eq!(reason, DropReason::LinkDown),
            other => panic!("expected a link-down drop, got {other:?}"),
        }
        // Once the outage clears, the same route works again.
        let plan2 = FaultPlan::new().fail_link(
            first / 6,
            (first % 6) as u8,
            SimTime::ZERO,
            Some(SimTime::from_nanos(1)),
        );
        let mut net2 = Network::with_faults(cfg, 8, &plan2);
        let late = net2.transmit(SimTime::from_micros(100), 3, 0, Frame::Message(64));
        assert!(matches!(late, SendOutcome::Delivered(_)));
    }

    #[test]
    fn degraded_link_slows_delivery() {
        let cfg = NetworkConfig::default();
        let probe = Network::new(cfg, 8);
        let route = probe
            .torus
            .route_links(probe.placement.slot(3), probe.placement.slot(0));
        let first = route[0];
        let plan =
            FaultPlan::new().degrade_link(first / 6, (first % 6) as u8, SimTime::ZERO, None, 8.0);
        let mut slow = Network::with_faults(cfg, 8, &plan);
        let mut fast = Network::new(cfg, 8);
        let slow_at = match slow.transmit(SimTime::ZERO, 3, 0, Frame::Message(60_000)) {
            SendOutcome::Delivered(d) => d.at,
            other => panic!("degraded link should still deliver, got {other:?}"),
        };
        let fast_at = fast.send(SimTime::ZERO, 3, 0, 60_000).at;
        assert!(slow_at > fast_at, "{slow_at:?} <= {fast_at:?}");
    }

    #[test]
    fn drop_window_loses_messages_deterministically() {
        let plan = FaultPlan::new().drop_window(SimTime::ZERO, SimTime::from_secs(1), 0.5);
        let run = |seed: u64| {
            let cfg = NetworkConfig {
                fault_seed: seed,
                ..NetworkConfig::default()
            };
            let mut net = Network::with_faults(cfg, 32, &plan);
            let mut t = SimTime::ZERO;
            let mut outcomes = Vec::new();
            for i in 0..200u32 {
                let src = 1 + (i % 31);
                let out = net.transmit(t, src, 0, Frame::Message(256));
                if let SendOutcome::Delivered(d) = out {
                    t = d.at;
                }
                outcomes.push(out);
            }
            (outcomes, net.counters())
        };
        let (a, ca) = run(7);
        let (b, cb) = run(7);
        assert_eq!(a, b, "same fault seed must lose the same messages");
        assert_eq!(ca, cb);
        assert!(ca.dropped > 0, "p=0.5 over 200 sends should drop some");
        assert!(ca.dropped < 200, "p=0.5 over 200 sends should deliver some");
        let (_, cc) = run(8);
        assert_ne!(ca.dropped, cc.dropped, "different seeds should diverge");
    }

    #[test]
    fn restarted_node_is_dead_only_inside_its_outage_window() {
        let plan = FaultPlan::new()
            .crash_node(SimTime::from_nanos(1_000), 0)
            .restart_node(SimTime::from_micros(10), 0);
        let mut net = Network::with_faults(NetworkConfig::default(), 8, &plan);
        assert!(!net.node_dead(0, SimTime::from_nanos(999)));
        assert!(net.node_dead(0, SimTime::from_nanos(1_000)));
        assert!(net.node_dead(0, SimTime::from_nanos(9_999)));
        assert!(!net.node_dead(0, SimTime::from_micros(10)), "reboot heals");
        let incarnations =
            [999, 1_000, 9_999, 10_000].map(|ns| net.incarnation(0, SimTime::from_nanos(ns)));
        assert_eq!(incarnations, [0, 1, 1, 2]);
        assert_eq!(
            net.incarnation(7, SimTime::from_micros(5)),
            0,
            "never crashes"
        );
        // In flight across the crash instant: lost at the dead NIC.
        match net.transmit(SimTime::ZERO, 7, 0, Frame::Message(4_096)) {
            SendOutcome::Dropped { reason, .. } => assert_eq!(reason, DropReason::DestDead),
            other => panic!("expected a dest-dead drop, got {other:?}"),
        }
        // A dead node cannot send mid-outage...
        let mid = net.transmit(SimTime::from_micros(5), 0, 7, Frame::Message(64));
        assert!(matches!(
            mid,
            SendOutcome::Dropped {
                reason: DropReason::SourceDead,
                ..
            }
        ));
        // ...but both directions work again after the reboot.
        assert!(matches!(
            net.transmit(SimTime::from_micros(10), 0, 7, Frame::Message(64)),
            SendOutcome::Delivered(_)
        ));
        match net.transmit(SimTime::from_micros(12), 7, 0, Frame::Message(64)) {
            SendOutcome::Delivered(d) => assert_eq!(d.incarnation, 2, "the rebooted node"),
            other => panic!("expected a delivery, got {other:?}"),
        }
    }

    #[test]
    fn partition_severs_directed_pairs_until_heal() {
        let plan = FaultPlan::new().partition(
            SimTime::from_micros(10),
            SimTime::from_micros(20),
            vec![(3, 0)],
        );
        let mut net = Network::with_faults(NetworkConfig::default(), 8, &plan);
        assert!(matches!(
            net.transmit(SimTime::from_micros(5), 3, 0, Frame::Message(64)),
            SendOutcome::Delivered(_)
        ));
        assert_eq!(
            net.transmit(SimTime::from_micros(15), 3, 0, Frame::Message(64)),
            SendOutcome::Dropped {
                at: SimTime::from_micros(15),
                reason: DropReason::Partitioned
            }
        );
        // The cut is directed: the reverse pair still flows.
        assert!(matches!(
            net.transmit(SimTime::from_micros(15), 0, 3, Frame::Message(64)),
            SendOutcome::Delivered(_)
        ));
        // After the heal instant the pair flows again.
        assert!(matches!(
            net.transmit(SimTime::from_micros(20), 3, 0, Frame::Message(64)),
            SendOutcome::Delivered(_)
        ));
        assert_eq!(net.counters().dropped, 1);
    }

    #[test]
    fn corrupt_window_flips_payloads_deterministically() {
        let plan = FaultPlan::new().corrupt_window(SimTime::ZERO, SimTime::from_secs(1), 0.4);
        let run = |seed: u64| {
            let cfg = NetworkConfig {
                fault_seed: seed,
                ..NetworkConfig::default()
            };
            let mut net = Network::with_faults(cfg, 32, &plan);
            let mut t = SimTime::ZERO;
            let mut flips = Vec::new();
            for i in 0..200u32 {
                let src = 1 + (i % 31);
                match net.transmit(t, src, 0, Frame::Message(256)) {
                    SendOutcome::Delivered(d) => {
                        t = d.at;
                        flips.push(d.corrupt);
                    }
                    other => panic!("corruption never drops, got {other:?}"),
                }
            }
            (flips, net.counters())
        };
        let (a, ca) = run(7);
        let (b, cb) = run(7);
        assert_eq!(a, b, "same fault seed must corrupt the same messages");
        assert_eq!(ca, cb);
        let corrupted = a.iter().filter(|&&c| c).count() as u64;
        assert!(corrupted > 0, "p=0.4 over 200 sends should corrupt some");
        assert!(corrupted < 200, "p=0.4 should leave some frames clean");
        assert_eq!(ca.corrupted, corrupted);
        assert_eq!(ca.dropped, 0, "corrupt frames are delivered, not dropped");
    }

    #[test]
    fn corrupt_draws_do_not_perturb_the_drop_stream() {
        // Adding a corrupt window must not change which messages the drop
        // windows lose: the two schedules draw from separate RNG forks.
        let drops_only = FaultPlan::new().drop_window(SimTime::ZERO, SimTime::from_secs(1), 0.5);
        let both = drops_only
            .clone()
            .corrupt_window(SimTime::ZERO, SimTime::from_secs(1), 0.5);
        let losses = |plan: &FaultPlan| {
            let mut net = Network::with_faults(NetworkConfig::default(), 32, plan);
            let mut t = SimTime::ZERO;
            let mut lost = Vec::new();
            for i in 0..200u32 {
                let src = 1 + (i % 31);
                match net.transmit(t, src, 0, Frame::Message(256)) {
                    SendOutcome::Delivered(d) => {
                        t = d.at;
                        lost.push(false);
                    }
                    SendOutcome::Dropped { .. } => lost.push(true),
                }
            }
            lost
        };
        assert_eq!(losses(&drops_only), losses(&both));
    }

    #[test]
    #[should_panic(expected = "outside population")]
    fn crash_outside_population_panics() {
        let plan = FaultPlan::new().crash_node(SimTime::ZERO, 99);
        Network::with_faults(NetworkConfig::default(), 4, &plan);
    }
}
