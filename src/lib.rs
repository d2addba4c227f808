//! # armci-vt — virtual topologies for a Global Address Space runtime
//!
//! Umbrella crate for the reproduction of *"Virtual Topologies for Scalable
//! Resource Management and Contention Attenuation in a Global Address Space
//! Model on the Cray XT5"* (ICPP 2011). It re-exports the four member
//! crates:
//!
//! * [`core`] (`vt-core`) — the paper's contribution: FCG/MFCG/CFCG/Hypercube
//!   virtual topologies, lowest-dimension-first forwarding, request-path
//!   trees, deadlock analysis and the buffer-memory model.
//! * [`simnet`] (`vt-simnet`) — deterministic discrete-event simulator of a
//!   Cray XT5-class machine (3-D torus, SeaStar-like NICs, BEER-style flow
//!   control).
//! * [`armci`] (`vt-armci`) — the ARMCI-like GAS runtime model: communication
//!   helper threads, request-buffer credits, one-sided operations and
//!   virtual-topology request forwarding.
//! * [`apps`] (`vt-apps`) — workloads: hot-spot contention microbenchmarks,
//!   a NAS LU proxy and NWChem DFT/CCSD proxies, plus a parallel sweep
//!   runner.
//! * [`analyze`] (`vt-analyze`) — static protocol verifier: buffer/credit
//!   dependency-graph acyclicity (with DOT counterexamples), forwarding
//!   totality and depth bounds, `N x B x M` budget accounting, and an
//!   exhaustive small-N model checker; `vtsim analyze` and the experiment
//!   drivers' pre-flight gate.
//! * [`lint`] (`vt-lint`) — workspace determinism & panic-policy static
//!   analyzer: no unordered hash iteration in protocol paths, no ambient
//!   nondeterminism in sim crates, DetRng-only randomness, no float
//!   accumulation in protocol state, justified-panic audit; `vtsim lint`
//!   and a blocking CI gate.
//!
//! See `examples/quickstart.rs` for an end-to-end tour and `DESIGN.md` for
//! the system inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
pub mod cli;

pub use vt_analyze as analyze;
pub use vt_apps as apps;
pub use vt_armci as armci;
pub use vt_core as core;
pub use vt_lint as lint;
pub use vt_simnet as simnet;

/// Commonly used items, re-exported flat for convenience.
pub mod prelude {
    pub use vt_armci::{RuntimeConfig, Simulation};
    pub use vt_core::{
        Cfcg, Fcg, Hypercube, MemoryModel, Mfcg, RequestTree, Shape, TopologyKind, VirtualTopology,
    };
    pub use vt_simnet::{NetworkConfig, SimTime};
}
