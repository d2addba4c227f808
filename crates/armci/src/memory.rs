//! Runtime memory accounting (the simulated `/proc` VmRSS of paper §V-A).

use crate::config::RuntimeConfig;
use vt_core::{MemoryModel, VirtualTopology};

/// Memory report for one node / its master process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeMemory {
    /// Bytes of CHT request buffers (in-degree × ppn × M × B).
    pub cht_pool_bytes: u64,
    /// Topology-independent per-remote-process bookkeeping bytes.
    pub bookkeeping_bytes: u64,
    /// Modelled VmRSS of the master process (base + pool + bookkeeping).
    pub master_vmrss_bytes: u64,
}

impl NodeMemory {
    /// VmRSS increment over the base process footprint.
    pub fn increment_bytes(&self) -> u64 {
        self.cht_pool_bytes + self.bookkeeping_bytes
    }
}

/// Builds the [`MemoryModel`] implied by a runtime configuration.
pub fn model_for(cfg: &RuntimeConfig) -> MemoryModel {
    MemoryModel {
        buffer_bytes: cfg.buffer_bytes,
        buffers_per_proc: cfg.buffers_per_proc,
        procs_per_node: cfg.procs_per_node,
        ..MemoryModel::default()
    }
}

/// Memory report for `node` under `cfg`'s topology.
pub fn node_memory(cfg: &RuntimeConfig, topo: &dyn VirtualTopology, node: u32) -> NodeMemory {
    let model = model_for(cfg);
    NodeMemory {
        cht_pool_bytes: model.cht_pool_bytes(topo, node),
        bookkeeping_bytes: model.bookkeeping_bytes(topo),
        master_vmrss_bytes: model.master_vmrss_bytes(topo, node),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use vt_core::TopologyKind;

    #[test]
    fn node_memory_matches_model() {
        let cfg = RuntimeConfig::new(48, TopologyKind::Mfcg);
        let topo = cfg.topology.build(cfg.num_nodes());
        let mem = node_memory(&cfg, &topo, 0);
        let model = model_for(&cfg);
        assert_eq!(mem.cht_pool_bytes, model.cht_pool_bytes(&topo, 0));
        assert_eq!(
            mem.master_vmrss_bytes,
            model.base_process_bytes + mem.increment_bytes()
        );
    }

    #[test]
    fn fcg_pool_larger_than_mfcg() {
        let mut cfg = RuntimeConfig::new(4096, TopologyKind::Fcg);
        let fcg = node_memory(&cfg, &cfg.topology.build(cfg.num_nodes()), 0);
        cfg.topology = TopologyKind::Mfcg;
        let mfcg = node_memory(&cfg, &cfg.topology.build(cfg.num_nodes()), 0);
        assert!(fcg.cht_pool_bytes > 10 * mfcg.cht_pool_bytes);
        assert_eq!(fcg.bookkeeping_bytes, mfcg.bookkeeping_bytes);
    }

    #[test]
    fn model_uses_config_constants() {
        let mut cfg = RuntimeConfig::new(64, TopologyKind::Fcg);
        cfg.buffer_bytes = 1024;
        cfg.buffers_per_proc = 2;
        cfg.procs_per_node = 8;
        let m = model_for(&cfg);
        assert_eq!(m.buffer_bytes, 1024);
        assert_eq!(m.buffers_per_proc, 2);
        assert_eq!(m.procs_per_node, 8);
    }
}
