//! # vt-core — virtual topologies for GAS runtimes
//!
//! This crate implements the primary contribution of *"Virtual Topologies for
//! Scalable Resource Management and Contention Attenuation in a Global Address
//! Space Model on the Cray XT5"* (ICPP 2011):
//!
//! * a representation of communication-resource allocation as a **directed
//!   graph** over nodes ([`VirtualTopology`]),
//! * the four virtual topologies studied by the paper — the fully connected
//!   graph ([`Fcg`], the ARMCI default), meshed FCGs ([`Mfcg`]), cubic FCGs
//!   ([`Cfcg`]) and the [`Hypercube`],
//! * **lowest-dimension-first (LDF) forwarding** ([`ldf`]), the deadlock-free
//!   request-forwarding order, including the paper's extension to
//!   partially-populated meshes and cubes on *any* number of nodes,
//! * analysis tools: request-path trees rooted at a hot-spot node
//!   ([`tree`], paper Figs. 2 and 4), the buffer-dependency graph with cycle
//!   detection used to check deadlock freedom ([`graph`]), and the analytic
//!   buffer-memory model behind paper Fig. 5 ([`memory`]).
//!
//! Everything in this crate is pure and deterministic; the machine and runtime
//! simulation live in the `vt-simnet` and `vt-armci` crates.
//!
//! ## Quick example
//!
//! ```
//! use vt_core::{Mfcg, TopologyKind, VirtualTopology};
//!
//! // 1 024 nodes arranged as a 32x32 meshed fully connected graph.
//! let topo = Mfcg::new(1024);
//! assert_eq!(topo.out_degree(0), 62); // (X-1) + (Y-1) edges
//!
//! // A request from node 1023 to node 0 is forwarded once (two hops).
//! let route = topo.route(1023, 0);
//! assert_eq!(route.len(), 2);
//!
//! // The same topology via the dynamic constructor.
//! let dyn_topo = TopologyKind::Mfcg.build(1024);
//! assert_eq!(dyn_topo.next_hop(1023, 0), topo.next_hop(1023, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
pub mod coords;
pub mod dot;
pub mod graph;
pub mod hash;
pub mod json;
pub mod ldf;
pub mod memory;
pub mod repack;
pub mod shape;
pub mod stats;
pub mod topology;
pub mod tree;

pub use coords::{Coord, MAX_DIMS};
pub use dot::{topology_dot, tree_dot};
pub use graph::{DependencyGraph, DiGraph};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use memory::MemoryModel;
pub use repack::{fallback_ladder, repack, repack_with, RepackError, SurvivorPacking};
pub use shape::Shape;
pub use stats::{analyze, TopologyStats};
pub use topology::{
    Cfcg, Fcg, Grid, Hypercube, HypercubeError, Mfcg, NodeId, TopologyKind, VirtualTopology,
};
pub use tree::RequestTree;
