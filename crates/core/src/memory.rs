//! Analytic model of CHT request-buffer memory (paper §II and Fig. 5).
//!
//! On every node, the communication helper thread (CHT) pre-allocates `M`
//! request buffers of `B` bytes for **each remote process that may send to it
//! directly** — i.e. each process on a node with an incoming edge in the
//! virtual topology. Under FCG this is every remote process, so the total
//! requirement is roughly `N × B × M` per node (1 GiB at 32 000 processes
//! with two 16-KiB buffers each, §II); the virtual topologies cut the edge
//! count to `O(√N)`, `O(∛N)` or `O(log N)`.
//!
//! The model also carries a per-remote-process bookkeeping constant that is
//! *independent* of the topology (rank translation tables, completion state).
//! This is why measured VmRSS ratios in the paper (e.g. FCG/MFCG ≈ 7.5×) are
//! smaller than the raw edge-count ratio (≈ 16×): the fixed bookkeeping is
//! paid under every topology.

use crate::topology::{NodeId, VirtualTopology};

/// Parameters of the buffer-memory model, defaulting to the paper's
/// measurement setup (§V-A): 16-KiB buffers, 4 buffers per process,
/// 12 processes per node, ~612 MiB base footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryModel {
    /// Size of one CHT request buffer in bytes (`B`). Paper: 16 KiB.
    pub buffer_bytes: u64,
    /// Request buffers dedicated to each remote process (`M`). Paper: 4.
    pub buffers_per_proc: u32,
    /// Processes per node. Paper Fig. 5: 12.
    pub procs_per_node: u32,
    /// Topology-independent bookkeeping bytes per remote process.
    pub per_remote_proc_overhead: u64,
    /// Baseline resident set of a master process before any CHT pools.
    /// Paper: ~612 MiB.
    pub base_process_bytes: u64,
}

impl Default for MemoryModel {
    fn default() -> Self {
        MemoryModel {
            buffer_bytes: 16 * 1024,
            buffers_per_proc: 4,
            procs_per_node: 12,
            per_remote_proc_overhead: 2 * 1024,
            base_process_bytes: 612 * 1024 * 1024,
        }
    }
}

impl MemoryModel {
    /// Bytes of request buffers the CHT on `node` must allocate: one set of
    /// `M × B` for every process on every in-neighbour node.
    pub fn cht_pool_bytes(&self, topo: &dyn VirtualTopology, node: NodeId) -> u64 {
        let in_edges = topo.in_degree(node) as u64;
        in_edges
            * u64::from(self.procs_per_node)
            * u64::from(self.buffers_per_proc)
            * self.buffer_bytes
    }

    /// Topology-independent bookkeeping bytes for all remote processes.
    pub fn bookkeeping_bytes(&self, topo: &dyn VirtualTopology) -> u64 {
        let remote_procs =
            u64::from(topo.num_nodes().saturating_sub(1)) * u64::from(self.procs_per_node);
        remote_procs * self.per_remote_proc_overhead
    }

    /// Modelled VmRSS of the *master* process on `node` (the process that
    /// hosts the CHT and its buffer pools), in bytes — the quantity paper
    /// Fig. 5 reads from `/proc`.
    pub fn master_vmrss_bytes(&self, topo: &dyn VirtualTopology, node: NodeId) -> u64 {
        self.base_process_bytes + self.cht_pool_bytes(topo, node) + self.bookkeeping_bytes(topo)
    }

    /// Increment of the master's VmRSS over the base footprint, in bytes.
    pub fn increment_bytes(&self, topo: &dyn VirtualTopology, node: NodeId) -> u64 {
        self.master_vmrss_bytes(topo, node) - self.base_process_bytes
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::topology::{Cfcg, Fcg, Hypercube, Mfcg};

    fn model() -> MemoryModel {
        MemoryModel::default()
    }

    #[test]
    fn fcg_pool_matches_paper_formula() {
        // §II: total request buffers ≈ N × B × M (N remote processes).
        let n_nodes = 1024u32; // 12 288 processes at 12 ppn
        let t = Fcg::new(n_nodes);
        let m = model();
        let expected = u64::from(n_nodes - 1) * 12 * 4 * 16 * 1024;
        assert_eq!(m.cht_pool_bytes(&t, 0), expected);
        // ~768 MiB of pure buffers at 12 288 processes, in line with the
        // paper's 812 MiB VmRSS increment.
        assert!((expected as f64 / (1024.0 * 1024.0) - 768.0).abs() < 1.0);
    }

    #[test]
    fn increment_ordering_matches_fig5() {
        // Fig. 5: FCG ≫ MFCG > CFCG > Hypercube.
        let n = 1024u32;
        let m = model();
        let fcg = m.increment_bytes(&Fcg::new(n), 0);
        let mfcg = m.increment_bytes(&Mfcg::new(n), 0);
        let cfcg = m.increment_bytes(&Cfcg::new(n), 0);
        let hc = m.increment_bytes(&Hypercube::new(n).unwrap(), 0);
        assert!(
            fcg > mfcg && mfcg > cfcg && cfcg > hc,
            "{fcg} {mfcg} {cfcg} {hc}"
        );
        // The FCG/MFCG ratio sits between the bookkeeping-dominated lower
        // bound and the raw edge ratio (~16.5x for 1 024 nodes).
        let ratio = fcg as f64 / mfcg as f64;
        assert!(ratio > 4.0 && ratio < 17.0, "ratio {ratio}");
    }

    #[test]
    fn fcg_increment_is_linear_in_nodes() {
        let m = model();
        let a = m.increment_bytes(&Fcg::new(256), 0);
        let b = m.increment_bytes(&Fcg::new(512), 0);
        let ratio = b as f64 / a as f64;
        assert!((ratio - 2.0).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn mfcg_increment_grows_like_sqrt() {
        let m = model();
        // Quadrupling the node count should roughly double the MFCG pool.
        let a = m.cht_pool_bytes(&Mfcg::new(256), 0);
        let b = m.cht_pool_bytes(&Mfcg::new(1024), 0);
        let ratio = b as f64 / a as f64;
        assert!(ratio > 1.8 && ratio < 2.2, "ratio {ratio}");
    }

    #[test]
    fn bookkeeping_is_topology_independent() {
        let m = model();
        let n = 512u32;
        assert_eq!(
            m.bookkeeping_bytes(&Fcg::new(n)),
            m.bookkeeping_bytes(&Mfcg::new(n))
        );
    }

    #[test]
    fn vmrss_starts_at_base() {
        let m = model();
        let t = Fcg::new(1);
        assert_eq!(m.master_vmrss_bytes(&t, 0), m.base_process_bytes);
        assert_eq!(m.increment_bytes(&t, 0), 0);
    }
}
