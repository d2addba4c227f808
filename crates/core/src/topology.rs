//! The [`VirtualTopology`] trait and the paper's four topologies.
//!
//! A virtual topology is a directed graph over *nodes* (one vertex per
//! physical node, covering all its processes and its communication helper
//! thread). An edge `E(i, j)` means node `j` dedicates a set of request
//! buffers to senders on node `i`, so `i` may send one-sided requests to `j`
//! directly; all other pairs must forward through intermediate nodes
//! (paper §II, Fig. 1).
//!
//! All four studied topologies share one structure — a (possibly partially
//! populated) grid in which two nodes are connected exactly when their
//! coordinates differ in a single dimension:
//!
//! | topology    | shape            | out-degree          | max forwards |
//! |-------------|------------------|---------------------|--------------|
//! | [`Fcg`]     | `[n]`            | `n − 1`             | 0            |
//! | [`Mfcg`]    | `[X, Y]`         | `(X−1) + (Y−1)`     | 1            |
//! | [`Cfcg`]    | `[X, Y, Z]`      | `(X−1)+(Y−1)+(Z−1)` | 2            |
//! | [`Hypercube`] | `[2; log₂ n]`  | `log₂ n`            | `log₂ n − 1` |

use crate::coords::Coord;
use crate::ldf;
use crate::shape::Shape;
use std::fmt;

/// Identifier of a node (vertex) in a virtual topology.
pub type NodeId = u32;

/// Which of the paper's virtual topologies to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Fully connected graph — the ARMCI default resource-allocation graph.
    Fcg,
    /// Meshed fully connected graphs (`X × Y` mesh of row/column FCGs).
    Mfcg,
    /// Cubic fully connected graphs (`X × Y × Z`).
    Cfcg,
    /// Binary hypercube (power-of-two node counts only).
    Hypercube,
    /// Generalised `k`-dimensional FCG grid — an extension beyond the paper
    /// answering its §III-C question about higher dimensions: `KFcg(1)` is
    /// the FCG, `KFcg(2)` the MFCG, `KFcg(3)` the CFCG, and larger `k`
    /// trades ever less buffer memory for ever more forwarding.
    KFcg(u8),
}

impl TopologyKind {
    /// All four kinds, in the order the paper presents them.
    pub const ALL: [TopologyKind; 4] = [
        TopologyKind::Fcg,
        TopologyKind::Mfcg,
        TopologyKind::Cfcg,
        TopologyKind::Hypercube,
    ];

    /// Short lowercase name used in reports and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Fcg => "fcg",
            TopologyKind::Mfcg => "mfcg",
            TopologyKind::Cfcg => "cfcg",
            TopologyKind::Hypercube => "hypercube",
            TopologyKind::KFcg(_) => "kfcg",
        }
    }

    /// Whether this kind can be built over `n` nodes.
    ///
    /// Only the hypercube is restricted (power-of-two populations, as in the
    /// paper §IV); the others support any `n ≥ 1`.
    pub fn supports(self, n: u32) -> bool {
        match self {
            TopologyKind::Hypercube => n >= 1 && (n == 1 || n.is_power_of_two()),
            TopologyKind::KFcg(k) => n >= 1 && k >= 1 && usize::from(k) <= crate::coords::MAX_DIMS,
            _ => n >= 1,
        }
    }

    /// Builds the topology over `n` nodes.
    ///
    /// # Panics
    /// Panics if `!self.supports(n)`. Use [`TopologyKind::try_build`] for a
    /// fallible version.
    pub fn build(self, n: u32) -> Grid {
        self.try_build(n)
            .unwrap_or_else(|e| panic!("cannot build {} over {n} nodes: {e}", self.name()))
    }

    /// Fallible variant of [`TopologyKind::build`].
    pub fn try_build(self, n: u32) -> Result<Grid, HypercubeError> {
        match self {
            TopologyKind::Fcg => Ok(Fcg::new(n).into_grid()),
            TopologyKind::Mfcg => Ok(Mfcg::new(n).into_grid()),
            TopologyKind::Cfcg => Ok(Cfcg::new(n).into_grid()),
            TopologyKind::Hypercube => Hypercube::new(n).map(Hypercube::into_grid),
            TopologyKind::KFcg(k) => Ok(Grid::kfcg(u32::from(k), n)),
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::KFcg(k) => write!(f, "kfcg{k}"),
            other => f.write_str(other.name()),
        }
    }
}

/// A directed graph of request-buffer allocation over the nodes of a machine.
///
/// Implementations must be deterministic: the same inputs always produce the
/// same neighbours and routes, because the simulator's reproducibility
/// depends on it.
pub trait VirtualTopology: Send + Sync {
    /// Which of the paper's topologies this is.
    fn kind(&self) -> TopologyKind;

    /// Number of populated nodes.
    fn num_nodes(&self) -> u32;

    /// The underlying grid shape (extent per dimension, lowest first).
    fn shape(&self) -> &Shape;

    /// Coordinate of `node` in the grid.
    fn coord_of(&self, node: NodeId) -> Coord {
        self.shape().coord_of(node)
    }

    /// Whether `from` holds request buffers at `to` (a directed edge).
    fn has_edge(&self, from: NodeId, to: NodeId) -> bool;

    /// All nodes `to` with an edge `from → to`, in ascending id order.
    fn out_neighbors(&self, node: NodeId) -> Vec<NodeId>;

    /// Number of outgoing edges at `node`.
    fn out_degree(&self, node: NodeId) -> usize {
        self.out_neighbors(node).len()
    }

    /// Number of incoming edges at `node`.
    ///
    /// All four paper topologies are symmetric, so the default forwards to
    /// [`VirtualTopology::out_degree`].
    fn in_degree(&self, node: NodeId) -> usize {
        self.out_degree(node)
    }

    /// Next node on the (extended) LDF route towards `dest`, or `None` when
    /// already there.
    fn next_hop(&self, current: NodeId, dest: NodeId) -> Option<NodeId>;

    /// Full LDF route: intermediate nodes followed by `dest`. Empty when
    /// `src == dest`.
    fn route(&self, src: NodeId, dest: NodeId) -> Vec<NodeId> {
        let mut hops = Vec::with_capacity(self.shape().ndims());
        let mut cur = src;
        while let Some(next) = self.next_hop(cur, dest) {
            hops.push(next);
            cur = next;
        }
        hops
    }

    /// Upper bound on forwarding steps (hops minus one) over all pairs.
    fn max_forwarding_steps(&self) -> u32 {
        (self.shape().ndims() as u32).saturating_sub(1)
    }
}

/// The shared concrete implementation of all four topologies: a grid whose
/// edges connect nodes differing in exactly one coordinate, populated by
/// nodes `0..n` in lowest-dimension-first order, routed by extended LDF.
#[derive(Clone, Debug)]
pub struct Grid {
    kind: TopologyKind,
    shape: Shape,
    n: u32,
}

impl Grid {
    /// Builds the generalised `k`-dimensional FCG grid over `n` nodes using
    /// the near-balanced [`Shape::balanced_for`] factorisation.
    ///
    /// # Panics
    /// Panics unless `1 <= k <= MAX_DIMS`.
    pub fn kfcg(k: u32, n: u32) -> Self {
        // Out-of-range `k` saturates and trips `balanced_for`'s range assert.
        let k = usize::try_from(k).unwrap_or(usize::MAX);
        Grid::new(TopologyKind::KFcg(k as u8), Shape::balanced_for(n, k), n)
    }

    fn new(kind: TopologyKind, shape: Shape, n: u32) -> Self {
        assert!(n >= 1, "need at least one node");
        assert!(
            u64::from(n) <= shape.capacity(),
            "population {n} exceeds shape {:?}",
            shape.dims()
        );
        // Extended LDF requires only the highest dimension to be partial.
        if shape.ndims() > 1 {
            let slice: u64 = shape.dims()[..shape.ndims() - 1]
                .iter()
                .map(|&d| u64::from(d))
                .product();
            assert!(
                u64::from(n) > slice * u64::from(shape.dim(shape.ndims() - 1) - 1),
                "population {n} leaves a whole top slice of shape {:?} empty",
                shape.dims()
            );
        }
        Grid { kind, shape, n }
    }
}

impl VirtualTopology for Grid {
    fn kind(&self) -> TopologyKind {
        self.kind
    }

    fn num_nodes(&self) -> u32 {
        self.n
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        if from == to || from >= self.n || to >= self.n {
            return false;
        }
        let a = self.shape.coord_of(from);
        let b = self.shape.coord_of(to);
        a.differing_dims(&b) == 1
    }

    fn out_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        assert!(node < self.n, "node {node} out of range (n = {})", self.n);
        let c = self.shape.coord_of(node);
        let mut out = Vec::new();
        for dim in 0..self.shape.ndims() {
            for v in 0..self.shape.dim(dim) {
                if v == c.get(dim) {
                    continue;
                }
                let mut d = c;
                d.set(dim, v);
                let id = self.shape.id_of(&d);
                if id < self.n {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn next_hop(&self, current: NodeId, dest: NodeId) -> Option<NodeId> {
        ldf::next_hop(&self.shape, self.n, current, dest)
    }
}

/// Error returned when a hypercube is requested over a non-power-of-two
/// population.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HypercubeError {
    /// The rejected population.
    pub n: u32,
}

impl fmt::Display for HypercubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hypercube requires a power-of-two node count, got {}",
            self.n
        )
    }
}

impl std::error::Error for HypercubeError {}

macro_rules! delegate_topology {
    ($ty:ty) => {
        impl VirtualTopology for $ty {
            fn kind(&self) -> TopologyKind {
                self.grid.kind()
            }
            fn num_nodes(&self) -> u32 {
                self.grid.num_nodes()
            }
            fn shape(&self) -> &Shape {
                self.grid.shape()
            }
            fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
                self.grid.has_edge(from, to)
            }
            fn out_neighbors(&self, node: NodeId) -> Vec<NodeId> {
                self.grid.out_neighbors(node)
            }
            fn next_hop(&self, current: NodeId, dest: NodeId) -> Option<NodeId> {
                self.grid.next_hop(current, dest)
            }
        }

        impl $ty {
            /// Consumes the wrapper and returns the underlying [`Grid`].
            pub fn into_grid(self) -> Grid {
                self.grid
            }
        }
    };
}

/// The fully connected graph: every node holds buffers at every other node.
///
/// This is ARMCI's default allocation and the paper's baseline; its per-node
/// buffer memory grows linearly in the machine size (Fig. 5) and its
/// request-path tree to any node is flat (Fig. 2).
#[derive(Clone, Debug)]
pub struct Fcg {
    grid: Grid,
}

impl Fcg {
    /// Builds the FCG over `n ≥ 1` nodes.
    pub fn new(n: u32) -> Self {
        Fcg {
            grid: Grid::new(TopologyKind::Fcg, Shape::line_for(n), n),
        }
    }
}

delegate_topology!(Fcg);

/// Meshed fully connected graphs: nodes on an `X × Y` mesh; all nodes sharing
/// a row and all nodes sharing a column form FCGs (paper §III-A, Fig. 3a).
///
/// Out-degree is `(X−1) + (Y−1) = O(√n)` and any request needs at most one
/// forwarding step. The paper's evaluation concludes MFCG is the best
/// balance of memory, forwarding cost and contention attenuation.
#[derive(Clone, Debug)]
pub struct Mfcg {
    grid: Grid,
}

impl Mfcg {
    /// Builds an MFCG over `n ≥ 1` nodes using the near-square
    /// [`Shape::mesh_for`] factorisation.
    pub fn new(n: u32) -> Self {
        Mfcg {
            grid: Grid::new(TopologyKind::Mfcg, Shape::mesh_for(n), n),
        }
    }

    /// Builds an MFCG with an explicit `x × y` shape (the population `n` may
    /// leave the topmost row partial).
    ///
    /// # Panics
    /// Panics if `n` does not fit the shape or leaves a whole row empty.
    pub fn with_shape(x: u32, y: u32, n: u32) -> Self {
        Mfcg {
            grid: Grid::new(TopologyKind::Mfcg, Shape::new(vec![x, y]), n),
        }
    }
}

delegate_topology!(Mfcg);

/// Cubic fully connected graphs: nodes in an `X × Y × Z` cube; nodes sharing
/// two of three coordinates form FCGs (paper §III-B, Fig. 3b).
///
/// Out-degree is `O(∛n)`; requests are forwarded at most twice.
#[derive(Clone, Debug)]
pub struct Cfcg {
    grid: Grid,
}

impl Cfcg {
    /// Builds a CFCG over `n ≥ 1` nodes using the near-cubic
    /// [`Shape::cube_for`] factorisation.
    pub fn new(n: u32) -> Self {
        Cfcg {
            grid: Grid::new(TopologyKind::Cfcg, Shape::cube_for(n), n),
        }
    }

    /// Builds a CFCG with an explicit `x × y × z` shape.
    ///
    /// # Panics
    /// Panics if `n` does not fit the shape or leaves a whole top slice empty.
    pub fn with_shape(x: u32, y: u32, z: u32, n: u32) -> Self {
        Cfcg {
            grid: Grid::new(TopologyKind::Cfcg, Shape::new(vec![x, y, z]), n),
        }
    }
}

delegate_topology!(Cfcg);

/// The binary hypercube: node `i` is connected to every node differing in one
/// bit (paper §III-C, Fig. 3c).
///
/// Included, as in the paper, to probe the extreme of the memory/forwarding
/// trade-off: `log₂ n` buffers but up to `log₂ n − 1` forwarding steps. Only
/// power-of-two populations are supported.
#[derive(Clone, Debug)]
pub struct Hypercube {
    grid: Grid,
}

impl Hypercube {
    /// Builds the hypercube over `n` nodes.
    ///
    /// # Errors
    /// Returns [`HypercubeError`] unless `n` is a power of two (`n = 1` is
    /// allowed as the trivial 0-cube).
    pub fn new(n: u32) -> Result<Self, HypercubeError> {
        if n == 1 {
            return Ok(Hypercube {
                grid: Grid::new(TopologyKind::Hypercube, Shape::line_for(1), 1),
            });
        }
        let shape = Shape::hypercube_for(n).ok_or(HypercubeError { n })?;
        Ok(Hypercube {
            grid: Grid::new(TopologyKind::Hypercube, shape, n),
        })
    }
}

delegate_topology!(Hypercube);

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fcg_is_fully_connected() {
        let t = Fcg::new(6);
        for i in 0..6 {
            assert_eq!(t.out_degree(i), 5);
            for j in 0..6 {
                assert_eq!(t.has_edge(i, j), i != j);
                if i != j {
                    assert_eq!(t.route(i, j), vec![j]);
                }
            }
        }
        assert_eq!(t.max_forwarding_steps(), 0);
    }

    #[test]
    fn mfcg_3x3_matches_paper_figure() {
        // Fig. 3a: 9 nodes on a 3x3 mesh; node 0's row is {1, 2} and its
        // column is {3, 6}.
        let t = Mfcg::new(9);
        assert_eq!(t.shape().dims(), &[3, 3]);
        assert_eq!(t.out_neighbors(0), vec![1, 2, 3, 6]);
        assert_eq!(t.out_degree(4), 4);
        // Node 8 = (2,2) reaches node 0 via (0,2) = 6.
        assert_eq!(t.route(8, 0), vec![6, 0]);
        assert_eq!(t.max_forwarding_steps(), 1);
    }

    #[test]
    fn mfcg_1024_has_62_edges() {
        // §III-A with X = Y = 32: (X-1) + (Y-1) = 62 outgoing edges.
        let t = Mfcg::new(1024);
        for node in [0u32, 1, 31, 512, 1023] {
            assert_eq!(t.out_degree(node), 62);
        }
    }

    #[test]
    fn cfcg_3x3x3_matches_paper_figure() {
        let t = Cfcg::new(27);
        assert_eq!(t.shape().dims(), &[3, 3, 3]);
        assert_eq!(t.out_degree(0), 6);
        // Node 26 = (2,2,2) reaches 0 in three hops: fix X, then Y, then Z.
        assert_eq!(t.route(26, 0), vec![24, 18, 0]);
        assert_eq!(t.max_forwarding_steps(), 2);
    }

    #[test]
    fn hypercube_16_has_log_degree() {
        let t = Hypercube::new(16).unwrap();
        for node in 0..16 {
            assert_eq!(t.out_degree(node), 4);
            let nbrs = t.out_neighbors(node);
            for nbr in nbrs {
                assert_eq!((node ^ nbr).count_ones(), 1);
            }
        }
        assert_eq!(t.max_forwarding_steps(), 3);
    }

    #[test]
    fn hypercube_rejects_non_power_of_two() {
        assert_eq!(Hypercube::new(12).unwrap_err(), HypercubeError { n: 12 });
        assert!(Hypercube::new(1).is_ok());
        assert!(Hypercube::new(2).is_ok());
        assert!(!TopologyKind::Hypercube.supports(100));
        assert!(TopologyKind::Mfcg.supports(100));
    }

    #[test]
    fn partial_mfcg_has_no_edges_to_missing_nodes() {
        // 7 nodes on a 3x3 shape: top row holds only node 6.
        let t = Mfcg::new(7);
        assert_eq!(t.shape().dims(), &[3, 3]);
        for node in 0..7 {
            for nbr in t.out_neighbors(node) {
                assert!(nbr < 7);
                assert!(t.has_edge(node, nbr));
            }
        }
        // Node 6 = (0,2) connects down its column {0, 3} only (its row has
        // no other populated node).
        assert_eq!(t.out_neighbors(6), vec![0, 3]);
    }

    #[test]
    fn edges_are_symmetric() {
        for n in [5u32, 12, 16, 27, 40] {
            for kind in TopologyKind::ALL {
                if !kind.supports(n) {
                    continue;
                }
                let t = kind.build(n);
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(t.has_edge(i, j), t.has_edge(j, i), "{kind} {i} {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn in_degree_equals_out_degree() {
        for kind in TopologyKind::ALL {
            let t = kind.build(16);
            for node in 0..16 {
                let real_in = (0..16).filter(|&j| t.has_edge(j, node)).count();
                assert_eq!(t.in_degree(node), real_in);
                assert_eq!(t.out_degree(node), real_in);
            }
        }
    }

    #[test]
    fn routes_stay_on_edges_for_all_kinds() {
        for kind in TopologyKind::ALL {
            let n = 16;
            let t = kind.build(n);
            for src in 0..n {
                for dst in 0..n {
                    let mut cur = src;
                    for &hop in &t.route(src, dst) {
                        assert!(t.has_edge(cur, hop), "{kind}: {cur} -> {hop}");
                        cur = hop;
                    }
                    assert_eq!(cur, dst);
                }
            }
        }
    }

    #[test]
    fn build_matches_wrappers() {
        let a = TopologyKind::Mfcg.build(50);
        let b = Mfcg::new(50);
        assert_eq!(a.shape(), b.shape());
        for node in 0..50 {
            assert_eq!(a.out_neighbors(node), b.out_neighbors(node));
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TopologyKind::Fcg.name(), "fcg");
        assert_eq!(TopologyKind::Hypercube.to_string(), "hypercube");
        assert_eq!(TopologyKind::KFcg(4).to_string(), "kfcg4");
    }

    #[test]
    fn kfcg_generalises_the_paper_topologies() {
        // k = 1, 2, 3 coincide with FCG, MFCG, CFCG.
        let n = 100;
        for (k, kind) in [
            (1u32, TopologyKind::Fcg),
            (2, TopologyKind::Mfcg),
            (3, TopologyKind::Cfcg),
        ] {
            let generic = Grid::kfcg(k, n);
            let specific = kind.build(n);
            assert_eq!(generic.shape(), specific.shape(), "k={k}");
            for node in 0..n {
                assert_eq!(
                    generic.out_neighbors(node),
                    specific.out_neighbors(node),
                    "k={k} node={node}"
                );
            }
        }
    }

    #[test]
    fn kfcg_high_dimensions_shrink_degree_and_stretch_routes() {
        let n = 4096;
        let mut prev_degree = usize::MAX;
        for k in 1..=6u32 {
            let t = Grid::kfcg(k, n);
            let deg = t.out_degree(0);
            assert!(deg < prev_degree, "k={k}: degree must fall");
            prev_degree = deg;
            assert_eq!(t.max_forwarding_steps(), k - 1);
            // Routes stay valid.
            let route = t.route(n - 1, 0);
            assert!(route.len() as u32 <= k);
            assert_eq!(*route.last().unwrap(), 0);
        }
    }

    #[test]
    fn kfcg_partial_populations_route_correctly() {
        for n in [13u32, 29, 61, 97] {
            for k in [4u32, 5] {
                let t = Grid::kfcg(k, n);
                for src in 0..n {
                    let mut cur = src;
                    for &hop in &t.route(src, 0) {
                        assert!(t.has_edge(cur, hop), "k={k} n={n}: {cur}->{hop}");
                        cur = hop;
                    }
                    assert_eq!(cur, 0);
                }
            }
        }
    }

    #[test]
    fn single_node_topologies_work() {
        for kind in TopologyKind::ALL {
            let t = kind.build(1);
            assert_eq!(t.num_nodes(), 1);
            assert_eq!(t.out_degree(0), 0);
            assert_eq!(t.next_hop(0, 0), None);
        }
    }
}
