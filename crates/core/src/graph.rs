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
//! [`DependencyGraph`] builds that graph from *all-pairs* routes and checks
//! it for cycles, turning the paper's informal proof into an executable
//! property.

use crate::topology::{NodeId, VirtualTopology};
use std::collections::HashMap;

/// Channel id of each directed topology edge `(from, to)`.
type ChannelIndex = HashMap<(NodeId, NodeId), u32>;

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

    /// Adds every edge of `other` to `self` (both over the same vertex set).
    ///
    /// # Panics
    /// Panics if the vertex counts differ.
    pub fn merge_from(&mut self, other: &DiGraph) {
        assert_eq!(self.adj.len(), other.adj.len(), "vertex counts differ");
        for v in 0..other.adj.len() as u32 {
            for &s in other.successors(v) {
                self.add_edge(v, s);
            }
        }
    }

    /// Whether the graph contains a directed cycle (iterative three-colour
    /// DFS, safe for large graphs).
    pub fn has_cycle(&self) -> bool {
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
                        Colour::Grey => return true,
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
        false
    }

    /// A concrete directed cycle, as the sequence of vertices
    /// `v₀ → v₁ → … → v₀` (the closing vertex repeated at the end), or
    /// `None` when the graph is acyclic.
    ///
    /// This is the counterexample extractor behind the static analyzer's
    /// deadlock verdicts: [`DiGraph::has_cycle`] answers *whether* a cyclic
    /// buffer dependency exists, `find_cycle` exhibits one so it can be
    /// rendered (e.g. as DOT) and independently re-checked edge by edge.
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

/// The channel-dependency graph of a topology under a routing function.
///
/// Vertices are the topology's directed edges ("channels"); an arc `c₁ → c₂`
/// records that some route uses channel `c₂` immediately after `c₁`, i.e. a
/// request can hold a buffer on `c₁`'s head node while waiting for one on
/// `c₂`'s head node.
pub struct DependencyGraph {
    channels: Vec<(NodeId, NodeId)>,
    index: ChannelIndex,
    graph: DiGraph,
}

impl DependencyGraph {
    /// Builds the dependency graph from the topology's own LDF routes over
    /// *all* source/destination pairs.
    pub fn from_topology(topo: &dyn VirtualTopology) -> Self {
        Self::from_router(topo, |src, dst| topo.route(src, dst))
    }

    /// Builds the dependency graph from an arbitrary routing function —
    /// used in tests to demonstrate that *non*-LDF orders produce cycles.
    ///
    /// # Panics
    /// Panics if a route uses a pair of nodes that is not a topology edge.
    pub fn from_router<F>(topo: &dyn VirtualTopology, mut router: F) -> Self
    where
        F: FnMut(NodeId, NodeId) -> Vec<NodeId>,
    {
        Self::from_fallible_router(topo, |src, dst| Some(router(src, dst)))
    }

    /// Builds the dependency graph from a routing function that may decline
    /// some pairs (`None` contributes no dependencies) — the shape of a
    /// *route-around* router on a topology with dead nodes, where severed
    /// pairs are reported as unreachable rather than routed.
    ///
    /// # Panics
    /// Panics if a returned route uses a pair of nodes that is not a
    /// topology edge.
    pub fn from_fallible_router<F>(topo: &dyn VirtualTopology, mut router: F) -> Self
    where
        F: FnMut(NodeId, NodeId) -> Option<Vec<NodeId>>,
    {
        let (channels, index) = channels_of(topo);
        let graph = all_pairs_digraph(topo, &index, 1, |src, dst| {
            router(src, dst).map(|route| route.into_iter().map(|hop| (hop, 0)))
        });
        DependencyGraph {
            channels,
            index,
            graph,
        }
    }

    /// The union of this dependency graph's arcs with `other`'s, over the
    /// same topology. Models a routing *transition*: requests routed under
    /// the old function are still in flight while new requests follow the
    /// new one, so freedom from deadlock across the switch needs the union
    /// to be acyclic (cf. re-proving deadlock freedom whenever next-hop
    /// choice changes).
    ///
    /// # Panics
    /// Panics if the two graphs were built over different channel sets.
    pub fn union(mut self, other: &DependencyGraph) -> DependencyGraph {
        assert_eq!(
            self.channels, other.channels,
            "dependency graphs over different topologies"
        );
        self.graph.merge_from(&other.graph);
        self
    }

    /// Number of channels (topology edges).
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The channel endpoints for channel id `c`.
    pub fn channel(&self, c: u32) -> (NodeId, NodeId) {
        self.channels[c as usize]
    }

    /// Channel id of the edge `from → to`, if it exists.
    pub fn channel_id(&self, from: NodeId, to: NodeId) -> Option<u32> {
        self.index.get(&(from, to)).copied()
    }

    /// The underlying dependency digraph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// True when no cyclic buffer dependency exists — the routing order is
    /// deadlock-free.
    pub fn is_deadlock_free(&self) -> bool {
        !self.graph.has_cycle()
    }
}

/// The buffer-dependency digraph of **classed** routes: each hop carries an
/// escape buffer class (see `crate::ldf::route_avoiding_classed`), and the
/// buffer resources are *(channel, class)* pairs — vertex
/// `class * channel_count + channel`. Plain channel-level analysis is the
/// special case `classes = 1` with every hop in class 0.
///
/// This is the model under which the route-around order is deadlock-free:
/// rank `(class, dimension)` rises strictly along every classed route, so
/// the digraph this returns must be acyclic for any dead set — a property
/// the fault-injection tests check rather than assume.
///
/// The router may decline pairs (`None` contributes no dependencies).
///
/// # Panics
/// Panics if a route uses a pair of nodes that is not a topology edge or a
/// class `>= classes`.
pub fn classed_dependency_digraph<F>(topo: &dyn VirtualTopology, classes: u8, router: F) -> DiGraph
where
    F: FnMut(NodeId, NodeId) -> Option<Vec<(NodeId, u8)>>,
{
    assert!(classes >= 1, "need at least one buffer class");
    let (_, index) = channels_of(topo);
    all_pairs_digraph(topo, &index, classes, router)
}

/// The topology's directed edges in `(from, out-neighbour)` order, and the
/// channel id of each.
fn channels_of(topo: &dyn VirtualTopology) -> (Vec<(NodeId, NodeId)>, ChannelIndex) {
    let mut channels = Vec::new();
    let mut index = HashMap::new();
    for from in 0..topo.num_nodes() {
        for to in topo.out_neighbors(from) {
            index.insert((from, to), channels.len() as u32);
            channels.push((from, to));
        }
    }
    (channels, index)
}

/// Routes every ordered pair of distinct nodes and adds an arc between the
/// `(channel, class)` buffers of each two consecutive hops; vertex
/// `class * channel_count + channel`.
fn all_pairs_digraph<F, R>(
    topo: &dyn VirtualTopology,
    index: &ChannelIndex,
    classes: u8,
    mut router: F,
) -> DiGraph
where
    F: FnMut(NodeId, NodeId) -> Option<R>,
    R: IntoIterator<Item = (NodeId, u8)>,
{
    let n = topo.num_nodes();
    let channel_count = index.len() as u32;
    let mut graph = DiGraph::new((channel_count as usize) * usize::from(classes));
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let Some(route) = router(src, dst) else {
                continue;
            };
            let mut prev: Option<u32> = None;
            let mut cur = src;
            for (hop, class) in route {
                assert!(class < classes, "class {class} out of range 0..{classes}");
                let ch = *index
                    .get(&(cur, hop))
                    .unwrap_or_else(|| panic!("route uses non-edge {cur} -> {hop}"));
                let v = u32::from(class) * channel_count + ch;
                if let Some(p) = prev {
                    graph.add_edge(p, v);
                }
                prev = Some(v);
                cur = hop;
            }
        }
    }
    graph
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
        assert!(!g.has_cycle());
        assert!(g.topological_order().is_some());
        g.add_edge(2, 0);
        assert!(g.has_cycle());
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
        assert!(g.has_cycle());
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
        let dep = DependencyGraph::from_router(&t, |src, dst| {
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
                    hops.push(shape.id_of(&cur));
                }
            }
            hops
        });
        assert!(!dep.is_deadlock_free());
    }

    #[test]
    fn fallible_router_skips_declined_pairs() {
        // A router that declines everything yields no arcs at all.
        let t = Mfcg::new(9);
        let dep = DependencyGraph::from_fallible_router(&t, |_, _| None);
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
        let around = DependencyGraph::from_fallible_router(&t, |src, dst| {
            if dead.contains(&src) || dead.contains(&dst) {
                return None;
            }
            ldf::route_avoiding(&shape, 16, src, dst, &dead)
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
                let healthy = classed_dependency_digraph(&t, classes, |src, dst| {
                    Some(
                        ldf::route(&shape, n, src, dst)
                            .into_iter()
                            .map(|h| (h, 0))
                            .collect(),
                    )
                });
                assert!(!healthy.has_cycle());
                for victim in [0u32, n / 2, n - 1] {
                    let dead = [victim];
                    let mut around = classed_dependency_digraph(&t, classes, |src, dst| {
                        if dead.contains(&src) || dead.contains(&dst) {
                            return None;
                        }
                        ldf::route_avoiding_classed(&shape, n, src, dst, &dead)
                    });
                    assert!(
                        !around.has_cycle(),
                        "{kind}/{n} classed route-around past {victim} cycles"
                    );
                    around.merge_from(&healthy);
                    assert!(
                        !around.has_cycle(),
                        "{kind}/{n} transition past {victim} cycles"
                    );
                }
            }
        }
    }

    #[test]
    fn union_of_conflicting_orders_is_cyclic() {
        // Sanity-check that `union` actually detects transition hazards:
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
                        hops.push(shape.id_of(&cur));
                    }
                }
                hops
            }
        };
        let xy = DependencyGraph::from_router(&t, router([0, 1]));
        let yx = DependencyGraph::from_router(&t, router([1, 0]));
        assert!(xy.is_deadlock_free());
        assert!(yx.is_deadlock_free());
        assert!(!xy.union(&yx).is_deadlock_free());
    }

    #[test]
    #[should_panic(expected = "different topologies")]
    fn union_over_different_topologies_panics() {
        let a = DependencyGraph::from_topology(&Mfcg::new(9));
        let b = DependencyGraph::from_topology(&Mfcg::new(16));
        let _ = a.union(&b);
    }

    #[test]
    fn channel_lookup_roundtrips() {
        let t = Cfcg::new(27);
        let dep = DependencyGraph::from_topology(&t);
        assert_eq!(dep.channel_count(), 27 * 6);
        for c in 0..dep.channel_count() as u32 {
            let (from, to) = dep.channel(c);
            assert!(t.has_edge(from, to));
            assert_eq!(dep.channel_id(from, to), Some(c));
        }
        assert_eq!(dep.channel_id(0, 0), None);
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
