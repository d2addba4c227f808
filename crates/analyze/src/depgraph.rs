//! Buffer/credit dependency-graph construction.
//!
//! A request parked or queued at a node holds a buffer on the edge it
//! arrived through while it waits for a buffer on the edge it will leave
//! through. The classic Dally & Seitz argument makes forwarding
//! deadlock-free exactly when the *wait-for* relation over buffers is
//! acyclic, so the analyzer builds that relation explicitly: one vertex
//! per `(channel, escape class)` — a channel being a populated directed
//! topology edge, mirroring the runtime's `(edge, class)` credit accounts
//! — and one arc per consecutive hop pair on some route.
//!
//! Routes are not re-derived from the paper: every hop is obtained from
//! [`vt_armci::forward_decision`], the *same* function the CHT engine
//! calls at its issue, head-of-line and fold sites whenever its recovery
//! machinery is live (fault and serving runs), so an acyclicity
//! certificate here is a statement about the code that actually runs, not
//! about a parallel re-implementation of LDF. Fault-free runs without
//! serving forward on the topology's own table in class 0 instead: the
//! same hops, but no class escalation, so that router's acyclicity is the
//! plain class-0 LDF argument (pinned by `tests/topology_invariants.rs`),
//! not this graph.
//!
//! **One walk per crash prefix.** [`walk`] follows every live ordered
//! pair's route once per crash prefix and takes from that single pass
//! everything the route-level checks need: the wait-for arcs, the
//! totality failures under the final dead set, the fault-free forwarding
//! depth, and — only when coalescing is checked — the refold arrivals.
//! Channels are looked up in a dense per-node index (each node's
//! out-channels are one sorted run of [`DepGraph::channels`]), not hashed.

use crate::CycleWitness;
use vt_armci::forward_decision;
use vt_core::graph::DiGraph;
use vt_core::{Grid, Shape, VirtualTopology};

/// The number of escape buffer classes a `shape`-dimensional topology can
/// ever use: route-around escalates the class once per dimension descent,
/// and a route of at most `ndims` hops has at most `ndims - 1` descents,
/// so classes `0 ..= ndims - 1` suffice.
pub fn escape_classes(topo: &Grid) -> u8 {
    topo.shape().ndims() as u8
}

/// The `(channel, class)` dependency graph of one routing configuration.
#[derive(Debug)]
pub struct DepGraph {
    /// Populated directed topology edges: node by node, each node's
    /// out-edges by ascending target.
    pub channels: Vec<(u32, u32)>,
    /// Node `v`'s out-channels are ids `first[v] .. first[v + 1]`. The
    /// whole of `channels` is sorted too, but one binary search over it
    /// made the certifier about twice as slow at 1023 nodes as searching
    /// only the node's own run.
    first: Vec<u32>,
    /// Escape classes modelled (`vertex = class * channels + channel`).
    pub classes: u8,
    /// The wait-for relation between `(channel, class)` buffers.
    pub graph: DiGraph,
    /// Hops some route took over a pair of nodes that is **not** a
    /// populated topology edge (sorted, deduplicated) — always a
    /// verification failure, reported by the totality check rather than
    /// panicking here.
    pub bad_edges: Vec<(u32, u32)>,
    /// `(in-channel, class, dest)` triples observed on routes (sorted,
    /// deduplicated), keyed for the coalescing refold check: a request
    /// that arrived at a node via `in-channel` in `class`, still destined
    /// for `dest`. Recorded only when [`walk`] is asked for refolds.
    pub arrivals: Vec<(u32, u8, u32)>,
}

impl DepGraph {
    /// The arc-free graph over `topo`'s channels in `classes` classes.
    fn empty(topo: &Grid, classes: u8) -> Self {
        let n = topo.num_nodes();
        let mut channels = Vec::new();
        let mut first = Vec::with_capacity(n as usize + 1);
        for from in 0..n {
            first.push(channels.len() as u32);
            channels.extend(topo.out_neighbors(from).into_iter().map(|to| (from, to)));
        }
        first.push(channels.len() as u32);
        let classes = classes.max(1);
        DepGraph {
            graph: DiGraph::new(channels.len() * usize::from(classes)),
            channels,
            first,
            classes,
            bad_edges: Vec::new(),
            arrivals: Vec::new(),
        }
    }

    /// Channel id of the populated edge `from -> to`, or `None` when it
    /// is not one.
    pub fn channel(&self, from: u32, to: u32) -> Option<u32> {
        let lo = *self.first.get(from as usize)?;
        let hi = *self.first.get(from as usize + 1)?;
        self.channels[lo as usize..hi as usize]
            .binary_search_by_key(&to, |&(_, t)| t)
            .ok()
            .map(|i| lo + i as u32)
    }

    /// Vertex id of `(channel, class)`.
    pub fn vertex(&self, channel: u32, class: u8) -> u32 {
        u32::from(class) * self.channels.len() as u32 + channel
    }

    /// Decomposes a vertex id back into `(channel endpoints, class)`.
    pub fn decode(&self, v: u32) -> ((u32, u32), u8) {
        let nch = self.channels.len() as u32;
        let class = (v / nch) as u8;
        let ch = self.channels[(v % nch) as usize];
        (ch, class)
    }

    /// Follows the route from `src` to `dst` under `dead`, hop by hop
    /// through [`forward_decision`], adding its wait-for arcs (and, when
    /// `refolds`, its arrivals at forwarders). Returns the hop count, or
    /// why the route stopped short of `dst`.
    fn trace(
        &mut self,
        shape: &Shape,
        n: u32,
        src: u32,
        dst: u32,
        dead: &[u32],
        refolds: bool,
    ) -> Result<u32, String> {
        let (mut prev, mut cur, mut class) = (src, src, 0u8);
        let mut prev_vertex: Option<u32> = None;
        let mut hops = 0u32;
        // `forward_decision` returns None for both "arrived" and
        // "unreachable"; the loop guard distinguishes them.
        while cur != dst {
            let Some((hop, c)) = forward_decision(shape, n, prev, cur, dst, class, dead) else {
                return Err(format!("{src}->{dst} dead-ends at {cur}"));
            };
            let Some(ch) = self.channel(cur, hop) else {
                self.bad_edges.push((cur, hop));
                return Err(format!("{src}->{dst} hops off-topology {cur}->{hop}"));
            };
            if c >= self.classes {
                return Err(format!(
                    "{src}->{dst} escalates to class {c} (modelled {})",
                    self.classes
                ));
            }
            let v = self.vertex(ch, c);
            if let Some(p) = prev_vertex {
                self.graph.add_edge(p, v);
            }
            if refolds && hop != dst {
                self.arrivals.push((ch, c, dst));
            }
            hops += 1;
            if hops as usize > shape.ndims() {
                return Err(format!("{src}->{dst} exceeds {} hops", shape.ndims()));
            }
            prev_vertex = Some(v);
            (prev, cur, class) = (cur, hop, c);
        }
        Ok(hops)
    }

    /// A cycle in the wait-for relation, decoded into a witness the
    /// report layer can render as DOT — or `None`, the certificate.
    pub fn find_cycle_witness(&self) -> Option<CycleWitness> {
        let cycle = self.graph.find_cycle()?;
        Some(CycleWitness {
            hops: cycle.iter().map(|&v| self.decode(v)).collect(),
        })
    }
}

/// The totality check describes at most this many failing pairs; one
/// failure already refuses the configuration.
const REPORTED_FAILURES: usize = 5;

/// Everything one routing walk over the crash prefixes establishes.
#[derive(Debug)]
pub struct Walk {
    /// The union of every prefix's wait-for relation.
    pub dg: DepGraph,
    /// Ordered pairs of nodes live under the final dead set.
    pub live_pairs: u64,
    /// The first five live pairs, in `(src, dst)` order, whose route
    /// under the final dead set dead-ends, leaves the topology, escalates
    /// past the modelled classes or exceeds `ndims` hops.
    pub failures: Vec<String>,
    /// The largest forwarding depth (hops minus the terminal delivery)
    /// of any pair in the dead-free prefix.
    pub max_depth: u32,
    /// The first pair, in `(src, dst)` order, of depth `max_depth`
    /// (`(0, 0)` when no pair forwards).
    pub depth_pair: (u32, u32),
}

/// Walks every live ordered pair of `topo` once per crash prefix of
/// `dead_sequence` (the empty prefix first) with the engine's own
/// forwarding decision, and returns the **union** dependency graph with
/// the route facts the checks need.
///
/// The union matters because requests issued before the k-th crash still
/// occupy buffers chosen under the old dead set while rerouted traffic
/// claims buffers under the new one, so transition safety needs the union
/// of all prefix graphs acyclic — which the strictly rising
/// `(class, dimension)` rank gives for free, and this lets us *check*
/// instead of assume. Channel enumeration comes from the topology, not
/// the dead set, so every prefix adds arcs to the same vertex set. With
/// nothing dead the hops are plain extended LDF, but the classes are not
/// all 0: on a partial shape extended LDF's partial-slice skips fix a
/// lower dimension after a higher one on some routes, and the decision
/// escalates the class there. Dead nodes add route-around descents on top.
///
/// Totality failures are taken from the final prefix, the depth from the
/// empty one (where the walk visits exactly [`vt_core::ldf::route`]'s
/// hops), and refold arrivals from every prefix, only when `refolds`.
///
/// # Panics
/// Panics if a node of `dead_sequence` is not a node of `topo`.
pub fn walk(topo: &Grid, dead_sequence: &[u32], refolds: bool) -> Walk {
    let n = topo.num_nodes();
    let shape = topo.shape();
    let mut w = Walk {
        dg: DepGraph::empty(topo, escape_classes(topo)),
        live_pairs: 0,
        failures: Vec::new(),
        max_depth: 0,
        depth_pair: (0, 0),
    };
    let mut dead: Vec<u32> = Vec::with_capacity(dead_sequence.len());
    let mut live = vec![true; n as usize];
    for prefix in 0..=dead_sequence.len() {
        if prefix > 0 {
            let node = dead_sequence[prefix - 1];
            dead.push(node);
            dead.sort_unstable();
            live[node as usize] = false;
        }
        let last = prefix == dead_sequence.len();
        for src in (0..n).filter(|&v| live[v as usize]) {
            for dst in (0..n).filter(|&v| v != src && live[v as usize]) {
                let route = w.dg.trace(shape, n, src, dst, &dead, refolds);
                if last {
                    w.live_pairs += 1;
                }
                match route {
                    Ok(hops) => {
                        let depth = hops.saturating_sub(1);
                        if prefix == 0 && depth > w.max_depth {
                            w.max_depth = depth;
                            w.depth_pair = (src, dst);
                        }
                    }
                    Err(why) if last && w.failures.len() < REPORTED_FAILURES => {
                        w.failures.push(why);
                    }
                    Err(_) => {}
                }
            }
        }
        if refolds {
            w.dg.arrivals.sort_unstable();
            w.dg.arrivals.dedup();
        }
    }
    w.dg.bad_edges.sort_unstable();
    w.dg.bad_edges.dedup();
    w
}

/// Builds the dependency graph of an **arbitrary** classed router over
/// `topo`'s channels — the entry point for verifying routing functions
/// other than the engine's (and for proving that a deliberately miswired
/// one is caught: a cyclic router here must produce a cycle witness).
/// The router returns, per ordered pair, the classed hop sequence, or
/// `None` to decline the pair. Arrivals are not recorded.
pub fn build_with_router<F>(topo: &Grid, classes: u8, mut router: F) -> DepGraph
where
    F: FnMut(u32, u32) -> Option<Vec<(u32, u8)>>,
{
    let n = topo.num_nodes();
    let mut dg = DepGraph::empty(topo, classes);
    for src in 0..n {
        for dst in (0..n).filter(|&v| v != src) {
            let Some(route) = router(src, dst) else {
                continue;
            };
            let mut cur = src;
            let mut prev_vertex: Option<u32> = None;
            for &(hop, class) in &route {
                let ch = match dg.channel(cur, hop) {
                    Some(ch) if class < dg.classes => ch,
                    _ => {
                        dg.bad_edges.push((cur, hop));
                        break;
                    }
                };
                let v = dg.vertex(ch, class);
                if let Some(p) = prev_vertex {
                    dg.graph.add_edge(p, v);
                }
                prev_vertex = Some(v);
                cur = hop;
            }
        }
    }
    dg
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use vt_core::TopologyKind;

    #[test]
    fn fault_free_graph_is_class_zero_only() {
        let topo = TopologyKind::Cfcg.build(27);
        let dg = walk(&topo, &[], false).dg;
        assert!(dg.bad_edges.is_empty());
        let nch = dg.channels.len() as u32;
        // No arc may leave class 0 without a dead set.
        for v in 0..dg.graph.len() as u32 {
            if v >= nch {
                assert!(dg.graph.successors(v).is_empty());
            }
        }
        assert!(dg.find_cycle_witness().is_none());
    }

    #[test]
    fn route_around_uses_higher_classes_and_stays_acyclic() {
        let topo = TopologyKind::Cfcg.build(27);
        let dg = walk(&topo, &[1], false).dg;
        assert!(dg.bad_edges.is_empty());
        let nch = dg.channels.len() as u32;
        let has_escape = (0..dg.graph.len() as u32).any(|v| {
            (v >= nch && !dg.graph.successors(v).is_empty())
                || dg.graph.successors(v).iter().any(|&s| s >= nch)
        });
        assert!(has_escape, "killing a forwarder must engage escape classes");
        assert!(dg.find_cycle_witness().is_none());
    }

    #[test]
    fn miswired_ring_router_yields_a_dot_counterexample() {
        // FCG over 3 nodes, but routed around a ring (0->1->2->0) instead
        // of directly: a textbook buffer-dependency cycle. The analyzer
        // must find it and render it as DOT.
        let topo = TopologyKind::Fcg.build(3);
        let dg = build_with_router(&topo, 1, |src, dst| {
            let mut route = Vec::new();
            let mut cur = src;
            while cur != dst {
                cur = (cur + 1) % 3;
                route.push((cur, 0u8));
            }
            Some(route)
        });
        let w = dg.find_cycle_witness().expect("ring routing must cycle");
        // The witness is a real closed walk over ring channels.
        assert_eq!(w.hops.first(), w.hops.last());
        assert!(w.len() >= 2);
        for pair in w.hops.windows(2) {
            let ((_, t1), _) = pair[0];
            let ((f2, _), _) = pair[1];
            assert_eq!(t1, f2, "consecutive wait-for hops must chain");
        }
        let dot = w.dot();
        assert!(dot.starts_with("digraph"), "{dot}");
        assert!(dot.contains("->"));
    }

    #[test]
    fn union_over_prefixes_is_acyclic() {
        for kind in TopologyKind::ALL {
            let n = if kind == TopologyKind::Hypercube {
                16
            } else {
                20
            };
            let topo = kind.build(n);
            let dg = walk(&topo, &[3, 5], false).dg;
            assert!(
                dg.find_cycle_witness().is_none(),
                "{kind} union graph must be acyclic"
            );
        }
    }
}
