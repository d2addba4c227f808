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
//! The walk builds into [`vt_core::DependencyGraph`], the same graph
//! `vtsim topo` and the deadlock tests build from router closures, so
//! channel numbering, the vertex formula and the dense per-node channel
//! index exist once. It adds arcs hop by hop instead of through
//! [`DependencyGraph::add_routes`] because it also takes each route's
//! length, failure and arrivals, and because the certifier must record a
//! non-edge hop in `bad_edges` for the totality check rather than panic.

use crate::CycleWitness;
use vt_armci::forward_decision;
use vt_core::{DependencyGraph, Grid, Shape, VirtualTopology};

/// The number of escape buffer classes a `shape`-dimensional topology can
/// ever use: route-around escalates the class once per dimension descent,
/// and a route of at most `ndims` hops has at most `ndims - 1` descents,
/// so classes `0 ..= ndims - 1` suffice.
pub fn escape_classes(topo: &Grid) -> u8 {
    topo.shape().ndims() as u8
}

/// The totality check describes at most this many failing pairs; one
/// failure already refuses the configuration.
const REPORTED_FAILURES: usize = 5;

/// Everything one routing walk over the crash prefixes establishes.
#[derive(Debug)]
pub struct Walk {
    /// The union of every prefix's wait-for relation.
    pub dg: DependencyGraph,
    /// `(in-channel, class, dest)` triples observed on routes (sorted,
    /// deduplicated), keyed for the coalescing refold check: a request
    /// that arrived at a node via `in-channel` in `class`, still destined
    /// for `dest`. Recorded only when [`walk`] is asked for refolds.
    pub arrivals: Vec<(u32, u8, u32)>,
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

impl Walk {
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
            let Some(ch) = self.dg.channel(cur, hop) else {
                self.dg.bad_edges.push((cur, hop));
                return Err(format!("{src}->{dst} hops off-topology {cur}->{hop}"));
            };
            if c >= self.dg.classes() {
                return Err(format!(
                    "{src}->{dst} escalates to class {c} (modelled {})",
                    self.dg.classes()
                ));
            }
            let v = self.dg.vertex(ch, c);
            if let Some(p) = prev_vertex {
                self.dg.add_arc(p, v);
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
        dg: DependencyGraph::new(topo, escape_classes(topo)),
        arrivals: Vec::new(),
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
                let route = w.trace(shape, n, src, dst, &dead, refolds);
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
            w.arrivals.sort_unstable();
            w.arrivals.dedup();
        }
    }
    w.dg.bad_edges.sort_unstable();
    w.dg.bad_edges.dedup();
    w
}

/// A cycle in `dg`'s wait-for relation, decoded into a witness the
/// report layer can render as DOT — or `None`, the certificate.
pub fn cycle_witness(dg: &DependencyGraph) -> Option<CycleWitness> {
    let cycle = dg.graph().find_cycle()?;
    Some(CycleWitness {
        hops: cycle.iter().map(|&v| dg.decode(v)).collect(),
    })
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
        let nch = dg.channels().len() as u32;
        // No arc may leave class 0 without a dead set.
        for v in 0..dg.graph().len() as u32 {
            if v >= nch {
                assert!(dg.graph().successors(v).is_empty());
            }
        }
        assert!(cycle_witness(&dg).is_none());
    }

    #[test]
    fn route_around_uses_higher_classes_and_stays_acyclic() {
        let topo = TopologyKind::Cfcg.build(27);
        let dg = walk(&topo, &[1], false).dg;
        assert!(dg.bad_edges.is_empty());
        let nch = dg.channels().len() as u32;
        let has_escape = (0..dg.graph().len() as u32).any(|v| {
            (v >= nch && !dg.graph().successors(v).is_empty())
                || dg.graph().successors(v).iter().any(|&s| s >= nch)
        });
        assert!(has_escape, "killing a forwarder must engage escape classes");
        assert!(cycle_witness(&dg).is_none());
    }

    #[test]
    fn miswired_ring_router_yields_a_dot_counterexample() {
        // FCG over 3 nodes, but routed around a ring (0->1->2->0) instead
        // of directly: a textbook buffer-dependency cycle. The analyzer
        // must find it and render it as DOT.
        let topo = TopologyKind::Fcg.build(3);
        let mut dg = DependencyGraph::new(&topo, 1);
        dg.add_routes(|src, dst| {
            let mut route = Vec::new();
            let mut cur = src;
            while cur != dst {
                cur = (cur + 1) % 3;
                route.push((cur, 0u8));
            }
            Some(route)
        });
        let w = cycle_witness(&dg).expect("ring routing must cycle");
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
                cycle_witness(&dg).is_none(),
                "{kind} union graph must be acyclic"
            );
        }
    }
}
