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

use crate::CycleWitness;
use std::collections::HashMap;
use vt_armci::forward_decision;
use vt_core::graph::DiGraph;
use vt_core::{Grid, VirtualTopology};

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
    /// Populated directed topology edges, in a fixed enumeration order.
    pub channels: Vec<(u32, u32)>,
    /// Escape classes modelled (`vertex = class * channels + channel`).
    pub classes: u8,
    /// The wait-for relation between `(channel, class)` buffers.
    pub graph: DiGraph,
    /// Hops some route took over a pair of nodes that is **not** a
    /// populated topology edge — always a verification failure, reported
    /// by the totality check rather than panicking here.
    pub bad_edges: Vec<(u32, u32)>,
    /// `(in-channel, class, dest)` triples observed on routes, keyed for
    /// the coalescing refold check: a request that arrived at a node via
    /// `in-channel` in `class`, still destined for `dest`.
    pub arrivals: Vec<(u32, u8, u32)>,
}

impl DepGraph {
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

    /// A cycle in the wait-for relation, decoded into a witness the
    /// report layer can render as DOT — or `None`, the certificate.
    pub fn find_cycle_witness(&self) -> Option<CycleWitness> {
        let cycle = self.graph.find_cycle()?;
        Some(CycleWitness {
            hops: cycle.iter().map(|&v| self.decode(v)).collect(),
        })
    }
}

/// Builds the dependency graph of `topo` with the nodes in `dead` already
/// crashed, by walking every live ordered pair with the engine's own
/// forwarding decision. With `dead = []` the hops are plain extended LDF,
/// but the classes are not all 0: on a partial shape extended LDF's
/// partial-slice skips fix a lower dimension after a higher one on some
/// routes, and the decision escalates the class there. Dead nodes add
/// route-around descents on top.
pub fn build(topo: &Grid, dead: &[u32]) -> DepGraph {
    let n = topo.num_nodes();
    let mut channels = Vec::new();
    let mut index: HashMap<(u32, u32), u32> = HashMap::new();
    for from in 0..n {
        for to in topo.out_neighbors(from) {
            index.insert((from, to), channels.len() as u32);
            channels.push((from, to));
        }
    }
    let classes = escape_classes(topo).max(1);
    let nch = channels.len() as u32;
    let mut graph = DiGraph::new(channels.len() * usize::from(classes));
    let mut bad_edges = Vec::new();
    let mut arrivals = Vec::new();

    let shape = topo.shape();
    for src in 0..n {
        if dead.contains(&src) {
            continue;
        }
        for dst in 0..n {
            if src == dst || dead.contains(&dst) {
                continue;
            }
            let mut prev = src;
            let mut cur = src;
            let mut class = 0u8;
            let mut prev_vertex: Option<u32> = None;
            // `forward_decision` returns None for both "arrived" and
            // "unreachable"; the loop guard distinguishes them.
            while cur != dst {
                let Some((hop, c)) = forward_decision(shape, n, prev, cur, dst, class, dead) else {
                    break; // unreachable: totality check reports it
                };
                let ch = match index.get(&(cur, hop)) {
                    Some(&ch) => ch,
                    None => {
                        bad_edges.push((cur, hop));
                        index.insert((cur, hop), channels.len() as u32);
                        channels.push((cur, hop));
                        channels.len() as u32 - 1
                    }
                };
                if c >= classes || ch >= nch {
                    // Out-of-range class or a late-registered bad edge:
                    // both already recorded as failures; the graph proper
                    // only spans the pre-sized vertex set.
                    break;
                }
                let v = u32::from(c) * nch + ch;
                if let Some(p) = prev_vertex {
                    graph.add_edge(p, v);
                } else {
                    // First hop: nothing upstream to wait on.
                }
                if hop != dst {
                    arrivals.push((ch, c, dst));
                }
                prev_vertex = Some(v);
                prev = cur;
                cur = hop;
                class = c;
            }
        }
    }
    arrivals.sort_unstable();
    arrivals.dedup();
    DepGraph {
        channels,
        classes,
        graph,
        bad_edges,
        arrivals,
    }
}

/// Builds the *union* dependency graph over every crash prefix of
/// `dead_sequence`: requests issued before the k-th crash still occupy
/// buffers chosen under the old dead set while rerouted traffic claims
/// buffers under the new one, so transition safety needs the union of all
/// prefix graphs acyclic — which the strictly rising `(class, dimension)`
/// rank gives for free, and this function lets us *check* instead of
/// assume.
pub fn build_union(topo: &Grid, dead_sequence: &[u32]) -> DepGraph {
    let mut acc = build(topo, &[]);
    let mut dead: Vec<u32> = Vec::new();
    for &node in dead_sequence {
        dead.push(node);
        dead.sort_unstable();
        let g = build(topo, &dead);
        // Channel enumeration is identical across prefixes (it comes from
        // the topology, not the dead set), so vertex ids line up and the
        // graphs merge directly.
        debug_assert_eq!(acc.channels, g.channels);
        acc.graph.merge_from(&g.graph);
        acc.bad_edges.extend(g.bad_edges);
        acc.arrivals.extend(g.arrivals);
    }
    acc.bad_edges.sort_unstable();
    acc.bad_edges.dedup();
    acc.arrivals.sort_unstable();
    acc.arrivals.dedup();
    acc
}

/// Builds the dependency graph of an **arbitrary** classed router over
/// `topo`'s channels — the entry point for verifying routing functions
/// other than the engine's (and for proving that a deliberately miswired
/// one is caught: a cyclic router here must produce a cycle witness).
/// The router returns, per ordered pair, the classed hop sequence, or
/// `None` to decline the pair.
pub fn build_with_router<F>(topo: &Grid, classes: u8, mut router: F) -> DepGraph
where
    F: FnMut(u32, u32) -> Option<Vec<(u32, u8)>>,
{
    let n = topo.num_nodes();
    let mut channels = Vec::new();
    let mut index: HashMap<(u32, u32), u32> = HashMap::new();
    for from in 0..n {
        for to in topo.out_neighbors(from) {
            index.insert((from, to), channels.len() as u32);
            channels.push((from, to));
        }
    }
    let classes = classes.max(1);
    let nch = channels.len() as u32;
    let mut graph = DiGraph::new(channels.len() * usize::from(classes));
    let mut bad_edges = Vec::new();
    let mut arrivals = Vec::new();
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let Some(route) = router(src, dst) else {
                continue;
            };
            let mut cur = src;
            let mut prev_vertex: Option<u32> = None;
            for &(hop, class) in &route {
                let Some(&ch) = index.get(&(cur, hop)) else {
                    bad_edges.push((cur, hop));
                    break;
                };
                if class >= classes {
                    bad_edges.push((cur, hop));
                    break;
                }
                let v = u32::from(class) * nch + ch;
                if let Some(p) = prev_vertex {
                    graph.add_edge(p, v);
                }
                if hop != dst {
                    arrivals.push((ch, class, dst));
                }
                prev_vertex = Some(v);
                cur = hop;
            }
        }
    }
    arrivals.sort_unstable();
    arrivals.dedup();
    DepGraph {
        channels,
        classes,
        graph,
        bad_edges,
        arrivals,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use vt_core::TopologyKind;

    #[test]
    fn fault_free_graph_is_class_zero_only() {
        let topo = TopologyKind::Cfcg.build(27);
        let dg = build(&topo, &[]);
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
        let dead = [1u32];
        let dg = build(&topo, &dead);
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
            let dg = build_union(&topo, &[3, 5]);
            assert!(
                dg.find_cycle_witness().is_none(),
                "{kind} union graph must be acyclic"
            );
        }
    }
}
