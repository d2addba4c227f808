//! Directed graphs and the buffer-dependency deadlock check.
//!
//! Forwarding a request occupies a buffer at the current node *while waiting
//! for* a buffer at the next node, so every two consecutive hops of a route
//! create a dependency between two virtual channels (topology edges). If the
//! channel-dependency graph is acyclic, no set of in-flight requests can
//! deadlock — the classic argument of Dally & Seitz that the paper's LDF
//! ordering instantiates (§IV-A) and that its extension to partial
//! populations preserves (§IV-B).
//!
//! [`DependencyGraph`] is that graph over *(channel, escape class)*
//! buffers, built from *all-pairs* routes and checked for cycles, turning
//! the paper's informal proof into an executable property. It is the one
//! graph behind `vtsim topo`, the deadlock tests and the static certifier
//! in `vt-analyze`, which walks the engine's own forwarding decision into
//! it instead of a router closure.

use crate::topology::{NodeId, VirtualTopology};

/// A small adjacency-list directed graph over `u32` vertices.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    adj: Vec<Vec<u32>>,
}

impl DiGraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds the edge `from → to` (duplicates are ignored).
    pub fn add_edge(&mut self, from: u32, to: u32) {
        let list = &mut self.adj[from as usize];
        if !list.contains(&to) {
            list.push(to);
        }
    }

    /// Successors of `v`.
    pub fn successors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// A concrete directed cycle, as the sequence of vertices
    /// `v₀ → v₁ → … → v₀` (the closing vertex repeated at the end), or
    /// `None` when the graph is acyclic.
    ///
    /// An iterative three-colour DFS, safe for large graphs. This is both
    /// the cycle test ([`DependencyGraph::is_deadlock_free`]) and the
    /// counterexample extractor behind the static analyzer's deadlock
    /// verdicts: the cycle can be rendered (e.g. as DOT) and independently
    /// re-checked edge by edge.
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.adj.len()];
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..self.adj.len() as u32 {
            if colour[start as usize] != Colour::White {
                continue;
            }
            colour[start as usize] = Colour::Grey;
            stack.push((start, 0));
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                if let Some(&succ) = self.adj[v as usize].get(*next) {
                    *next += 1;
                    match colour[succ as usize] {
                        Colour::Grey => {
                            // The grey stack from `succ` to the top is the cycle.
                            // Invariant: a grey vertex is by definition on
                            // the DFS stack, so the position always exists.
                            #[allow(clippy::expect_used)]
                            let from = stack
                                .iter()
                                .position(|&(u, _)| u == succ)
                                .expect("grey vertex is on the DFS stack");
                            let mut cycle: Vec<u32> =
                                stack[from..].iter().map(|&(u, _)| u).collect();
                            cycle.push(succ);
                            return Some(cycle);
                        }
                        Colour::White => {
                            colour[succ as usize] = Colour::Grey;
                            stack.push((succ, 0));
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour[v as usize] = Colour::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    /// A topological order of the vertices, or `None` if the graph is cyclic.
    pub fn topological_order(&self) -> Option<Vec<u32>> {
        let mut indeg = vec![0usize; self.adj.len()];
        for succs in &self.adj {
            for &s in succs {
                indeg[s as usize] += 1;
            }
        }
        let mut queue: Vec<u32> = (0..self.adj.len() as u32)
            .filter(|&v| indeg[v as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.adj.len());
        while let Some(v) = queue.pop() {
            order.push(v);
            for &s in &self.adj[v as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        (order.len() == self.adj.len()).then_some(order)
    }
}

/// The buffer-dependency graph of a topology under a classed routing
/// function.
///
/// Vertices are *(channel, class)* buffers, vertex
/// `class * channel count + channel`, where a channel is a directed
/// topology edge and a class is an escape buffer class (see
/// `crate::ldf::route_avoiding_classed`); plain channel-level analysis is
/// the special case of one class. An arc `b₁ → b₂` records that some route
/// uses buffer `b₂` immediately after `b₁`, i.e. a request can hold `b₁`
/// while waiting for `b₂`.
#[derive(Debug)]
pub struct DependencyGraph {
    /// Directed topology edges: node by node, each node's out-edges by
    /// ascending target.
    channels: Vec<(NodeId, NodeId)>,
    /// Node `v`'s out-channels are ids `first[v] .. first[v + 1]`. The
    /// whole of `channels` is sorted too, but one binary search over it
    /// made the certifier about twice as slow at 1023 nodes as searching
    /// only the node's own run.
    first: Vec<u32>,
    classes: u8,
    graph: DiGraph,
    /// Hops over a pair of nodes that is **not** a topology edge, recorded
    /// (sorted, deduplicated) by the certifier's routing walk for its
    /// totality check; [`DependencyGraph::add_routes`] panics instead.
    pub bad_edges: Vec<(NodeId, NodeId)>,
}

impl DependencyGraph {
    /// The arc-free graph over `topo`'s channels in `classes` classes.
    ///
    /// # Panics
    /// Panics if `classes` is 0.
    pub fn new(topo: &dyn VirtualTopology, classes: u8) -> Self {
        assert!(classes >= 1, "need at least one buffer class");
        let n = topo.num_nodes();
        let mut channels = Vec::new();
        let mut first = Vec::with_capacity(n as usize + 1);
        for from in 0..n {
            first.push(channels.len() as u32);
            channels.extend(topo.out_neighbors(from).into_iter().map(|to| (from, to)));
        }
        first.push(channels.len() as u32);
        DependencyGraph {
            graph: DiGraph::new(channels.len() * usize::from(classes)),
            channels,
            first,
            classes,
            bad_edges: Vec::new(),
        }
    }

    /// The graph of the topology's own LDF routes over *all*
    /// source/destination pairs, in one class.
    pub fn from_topology(topo: &dyn VirtualTopology) -> Self {
        let mut dep = Self::new(topo, 1);
        dep.add_routes(|src, dst| Some(topo.route(src, dst).into_iter().map(|hop| (hop, 0))));
        dep
    }

    /// Routes every ordered pair of distinct nodes and adds an arc between
    /// the buffers of each two consecutive hops. The router returns the
    /// classed hops `(node, class)` of a pair, or `None` to decline it —
    /// the shape of a *route-around* router on a topology with dead nodes,
    /// where severed pairs are reported as unreachable rather than routed.
    ///
    /// Calling this again adds the arcs of another router, so the graph
    /// becomes the union of both. That models a routing *transition*:
    /// requests routed under the old function are still in flight while
    /// new requests follow the new one, so freedom from deadlock across
    /// the switch needs the union to be acyclic.
    ///
    /// # Panics
    /// Panics if a route uses a pair of nodes that is not a topology edge
    /// or a class `>= self.classes`.
    pub fn add_routes<F, R>(&mut self, mut router: F)
    where
        F: FnMut(NodeId, NodeId) -> Option<R>,
        R: IntoIterator<Item = (NodeId, u8)>,
    {
        let n = (self.first.len() - 1) as NodeId;
        for src in 0..n {
            for dst in (0..n).filter(|&dst| dst != src) {
                let Some(route) = router(src, dst) else {
                    continue;
                };
                let mut prev: Option<u32> = None;
                let mut cur = src;
                for (hop, class) in route {
                    let classes = self.classes;
                    assert!(class < classes, "class {class} out of range 0..{classes}");
                    let ch = self
                        .channel(cur, hop)
                        .unwrap_or_else(|| panic!("route uses non-edge {cur} -> {hop}"));
                    let v = self.vertex(ch, class);
                    if let Some(p) = prev {
                        self.graph.add_edge(p, v);
                    }
                    prev = Some(v);
                    cur = hop;
                }
            }
        }
    }

    /// The channels, by id: node by node, each node's out-edges by
    /// ascending target.
    pub fn channels(&self) -> &[(NodeId, NodeId)] {
        &self.channels
    }

    /// Number of escape classes modelled.
    pub fn classes(&self) -> u8 {
        self.classes
    }

    /// The wait-for relation between `(channel, class)` buffers.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Adds the wait-for arc between the buffers of vertices `from` and
    /// `to` (see [`DependencyGraph::vertex`]).
    #[inline]
    pub fn add_arc(&mut self, from: u32, to: u32) {
        self.graph.add_edge(from, to);
    }

    /// Channel id of the edge `from -> to`, or `None` when it is not one.
    #[inline]
    pub fn channel(&self, from: NodeId, to: NodeId) -> Option<u32> {
        let lo = *self.first.get(from as usize)?;
        let hi = *self.first.get(from as usize + 1)?;
        self.channels[lo as usize..hi as usize]
            .binary_search_by_key(&to, |&(_, t)| t)
            .ok()
            .map(|i| lo + i as u32)
    }

    /// Vertex id of `(channel, class)`.
    #[inline]
    pub fn vertex(&self, channel: u32, class: u8) -> u32 {
        u32::from(class) * self.channels.len() as u32 + channel
    }

    /// Decomposes a vertex id back into `(channel endpoints, class)`.
    pub fn decode(&self, v: u32) -> ((NodeId, NodeId), u8) {
        let nch = self.channels.len() as u32;
        (self.channels[(v % nch) as usize], (v / nch) as u8)
    }

    /// True when no cyclic buffer dependency exists — the routing order is
    /// deadlock-free.
    pub fn is_deadlock_free(&self) -> bool {
        self.graph.find_cycle().is_none()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::topology::{Cfcg, Mfcg, TopologyKind, VirtualTopology};

    #[test]
    fn digraph_cycle_detection() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert_eq!(g.find_cycle(), None);
        assert!(g.topological_order().is_some());
        g.add_edge(2, 0);
        assert!(g.find_cycle().is_some());
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn digraph_ignores_duplicate_edges() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new(1);
        g.add_edge(0, 0);
        assert_eq!(g.find_cycle(), Some(vec![0, 0]));
    }

    #[test]
    fn find_cycle_returns_a_real_closed_walk() {
        let mut g = DiGraph::new(6);
        // A DAG prefix hanging off a 3-cycle: 0 -> 1 -> {2 -> 3 -> 4 -> 2}.
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 2);
        g.add_edge(5, 0);
        let cycle = g.find_cycle().expect("graph is cyclic");
        assert!(cycle.len() >= 3);
        assert_eq!(cycle.first(), cycle.last());
        for pair in cycle.windows(2) {
            assert!(
                g.successors(pair[0]).contains(&pair[1]),
                "{} -> {} is not an edge",
                pair[0],
                pair[1]
            );
        }
        // Acyclic graphs yield no counterexample.
        let mut dag = DiGraph::new(3);
        dag.add_edge(0, 1);
        dag.add_edge(1, 2);
        assert_eq!(dag.find_cycle(), None);
    }

    #[test]
    fn ldf_is_deadlock_free_on_full_topologies() {
        for kind in TopologyKind::ALL {
            for n in [4u32, 8, 16, 32] {
                if !kind.supports(n) {
                    continue;
                }
                let t = kind.build(n);
                let dep = DependencyGraph::from_topology(&t);
                assert!(dep.is_deadlock_free(), "{kind} over {n} nodes deadlocks");
            }
        }
    }

    #[test]
    fn extended_ldf_is_deadlock_free_on_partial_populations() {
        // Every population from 2 to 80, including primes — the paper's
        // "any number of nodes" claim (§IV-B).
        for n in 2..=80u32 {
            for kind in [TopologyKind::Mfcg, TopologyKind::Cfcg] {
                let t = kind.build(n);
                let dep = DependencyGraph::from_topology(&t);
                assert!(dep.is_deadlock_free(), "{kind} over {n} nodes deadlocks");
            }
        }
    }

    #[test]
    fn naive_highest_dimension_first_mix_deadlocks() {
        // Demonstrate the detector catches genuinely cyclic orders: route
        // X-then-Y for some pairs and Y-then-X for others on a full mesh.
        let t = Mfcg::new(9);
        let shape = t.shape().clone();
        let mut dep = DependencyGraph::new(&t, 1);
        dep.add_routes(|src, dst| {
            let s = shape.coord_of(src);
            let d = shape.coord_of(dst);
            let mut hops = Vec::new();
            let mut cur = s;
            // Odd sources fix Y first, even sources fix X first — a mixed
            // order with no global dimension ranking.
            let dims: [usize; 2] = if src % 2 == 1 { [1, 0] } else { [0, 1] };
            for dim in dims {
                if cur.get(dim) != d.get(dim) {
                    cur.set(dim, d.get(dim));
                    hops.push((shape.id_of(&cur), 0));
                }
            }
            Some(hops)
        });
        assert!(!dep.is_deadlock_free());
    }

    #[test]
    fn fallible_router_skips_declined_pairs() {
        // A router that declines everything yields no arcs at all.
        let t = Mfcg::new(9);
        let mut dep = DependencyGraph::new(&t, 1);
        dep.add_routes(|_, _| None::<Vec<(u32, u8)>>);
        assert_eq!(dep.graph().edge_count(), 0);
        assert!(dep.is_deadlock_free());
    }

    #[test]
    fn naive_route_around_without_classes_can_cycle() {
        // The motivating counter-example for escape buffer classes: on a
        // 16-node CFCG with node 0 dead, the escape hops' out-of-order
        // dimension crossings close a cycle at the plain channel level.
        use crate::ldf;
        let t = TopologyKind::Cfcg.build(16);
        let shape = t.shape().clone();
        let dead = [0u32];
        let mut around = DependencyGraph::new(&t, 1);
        around.add_routes(|src, dst| {
            if dead.contains(&src) || dead.contains(&dst) {
                return None;
            }
            let route = ldf::route_avoiding(&shape, 16, src, dst, &dead)?;
            Some(route.into_iter().map(|hop| (hop, 0)))
        });
        assert!(
            !around.is_deadlock_free(),
            "expected the classless escape order to cycle — if this ever \
             becomes acyclic the escape-class machinery may be removable"
        );
    }

    #[test]
    fn classed_route_around_stays_acyclic_even_with_ldf_in_flight() {
        // Kill one node and route around it under escape classes: the
        // surviving pairs' classed routes must be deadlock-free on their
        // own AND together with the original (class-0) LDF routes, because
        // pre-crash traffic is still in flight when the first rerouted
        // request is issued.
        use crate::ldf;
        for kind in [
            TopologyKind::Mfcg,
            TopologyKind::Cfcg,
            TopologyKind::Hypercube,
        ] {
            for n in [8u32, 9, 16, 27] {
                if !kind.supports(n) {
                    continue;
                }
                let t = kind.build(n);
                let shape = t.shape().clone();
                let classes = shape.ndims() as u8;
                let healthy =
                    |src, dst| Some(ldf::route(&shape, n, src, dst).into_iter().map(|h| (h, 0)));
                let mut alone = DependencyGraph::new(&t, classes);
                alone.add_routes(healthy);
                assert!(alone.is_deadlock_free());
                for victim in [0u32, n / 2, n - 1] {
                    let dead = [victim];
                    let mut around = DependencyGraph::new(&t, classes);
                    around.add_routes(|src, dst| {
                        if dead.contains(&src) || dead.contains(&dst) {
                            return None;
                        }
                        ldf::route_avoiding_classed(&shape, n, src, dst, &dead)
                    });
                    assert!(
                        around.is_deadlock_free(),
                        "{kind}/{n} classed route-around past {victim} cycles"
                    );
                    around.add_routes(healthy);
                    assert!(
                        around.is_deadlock_free(),
                        "{kind}/{n} transition past {victim} cycles"
                    );
                }
            }
        }
    }

    #[test]
    fn union_of_conflicting_orders_is_cyclic() {
        // Sanity-check that a second `add_routes` detects transition hazards:
        // X-then-Y and Y-then-X are each deadlock-free alone, but their
        // union contains both orderings and cycles.
        let t = Mfcg::new(9);
        let shape = t.shape().clone();
        let router = |dims: [usize; 2]| {
            let shape = shape.clone();
            move |src: u32, dst: u32| {
                let d = shape.coord_of(dst);
                let mut cur = shape.coord_of(src);
                let mut hops = Vec::new();
                for dim in dims {
                    if cur.get(dim) != d.get(dim) {
                        cur.set(dim, d.get(dim));
                        hops.push((shape.id_of(&cur), 0));
                    }
                }
                Some(hops)
            }
        };
        let mut xy = DependencyGraph::new(&t, 1);
        xy.add_routes(router([0, 1]));
        let mut yx = DependencyGraph::new(&t, 1);
        yx.add_routes(router([1, 0]));
        assert!(xy.is_deadlock_free());
        assert!(yx.is_deadlock_free());
        xy.add_routes(router([1, 0]));
        assert!(!xy.is_deadlock_free());
    }

    #[test]
    #[should_panic(expected = "route uses non-edge 0 -> 4")]
    fn non_edge_hop_panics() {
        // 0 -> 4 on a 3x3 mesh changes both coordinates: not an edge.
        let mut dep = DependencyGraph::new(&Mfcg::new(9), 1);
        dep.add_routes(|_, dst| Some([(dst.max(4), 0u8)]));
    }

    #[test]
    #[should_panic(expected = "class 1 out of range 0..1")]
    fn class_out_of_range_panics() {
        let mut dep = DependencyGraph::new(&Mfcg::new(9), 1);
        dep.add_routes(|_, dst| Some([(dst, 1u8)]));
    }

    #[test]
    fn channel_lookup_roundtrips() {
        let t = Cfcg::new(27);
        let dep = DependencyGraph::from_topology(&t);
        assert_eq!(dep.channels().len(), 27 * 6);
        for (c, &(from, to)) in dep.channels().iter().enumerate() {
            assert!(t.has_edge(from, to));
            assert_eq!(dep.channel(from, to), Some(c as u32));
            assert_eq!(dep.decode(dep.vertex(c as u32, 0)), ((from, to), 0));
        }
        assert_eq!(dep.channel(0, 0), None);
        assert_eq!(dep.channel(27, 0), None);
    }

    #[test]
    fn fcg_dependency_graph_has_no_arcs() {
        // Single-hop routes create no dependencies at all.
        let t = TopologyKind::Fcg.build(8);
        let dep = DependencyGraph::from_topology(&t);
        assert_eq!(dep.graph().edge_count(), 0);
        assert!(dep.is_deadlock_free());
    }
}
