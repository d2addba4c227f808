//! NWChem CCSD(T) water-model proxy (paper §VI-B, Fig. 9b).
//!
//! Coupled-cluster amplitude updates are accumulate-heavy with *spread*
//! targets: there is no single hot process, so virtual topologies buy
//! nothing on the communication side and FCG's direct path keeps a small
//! edge. What CCSD(T) is instead is memory-hungry: node memory is close to
//! full, and ARMCI's `O(N)` FCG buffer pools push the node over the edge at
//! scale. The paper: *"The primary benefit of MFCG is the ability to
//! significantly reduce memory consumption of \[the\] ARMCI low-level runtime
//! library. This spares much more memory to be used by applications and
//! help them achieve better scaling."*
//!
//! The proxy models that directly: each node has a fixed application working
//! set plus the runtime's topology-dependent footprint; when the sum exceeds
//! the node's memory budget, compute slows by a paging factor. FCG crosses
//! the budget near ten thousand cores — the crossover in Fig. 9b.

use vt_armci::{node_memory, Action, Op, ProcCtx, Program, Rank, RuntimeConfig, Simulation};
use vt_core::TopologyKind;
use vt_simnet::SimTime;

/// Configuration of one CCSD proxy run.
#[derive(Clone, Copy, Debug)]
pub struct CcsdConfig {
    /// Total ranks ("cores" on the paper's x-axis).
    pub n_procs: u32,
    /// Processes per node. Paper: 12.
    pub ppn: u32,
    /// Virtual topology under test.
    pub topology: TopologyKind,
    /// Serial compute seconds of the scalable amplitude work.
    pub serial_seconds: f64,
    /// Per-rank non-scalable seconds (redundant integrals, I/O, replicated
    /// work) — the reason CCSD(T)'s strong scaling saturates.
    pub fixed_seconds_per_proc: f64,
    /// Compute seconds per work grain (sets communication granularity).
    pub grain_seconds: f64,
    /// Bytes accumulated per grain.
    pub acc_bytes: u64,
    /// Node memory budget in bytes.
    pub node_mem_bytes: u64,
    /// Application working set per node in bytes (block caches, local
    /// amplitude tiles).
    pub app_bytes_per_node: u64,
    /// Compute slowdown per fraction of memory overflow (paging).
    pub paging_slowdown_per_overflow: f64,
    /// Root seed.
    pub seed: u64,
}

impl CcsdConfig {
    /// The (H₂O)₁₁ water-model flavour: heavy fixed per-process work (the
    /// paper's curves barely drop from 2 000 to 20 000 cores) and a node
    /// memory budget that FCG's buffer pools overflow near 10 000 cores.
    pub fn water(n_procs: u32, topology: TopologyKind) -> Self {
        CcsdConfig {
            n_procs,
            ppn: 12,
            topology,
            serial_seconds: 4_000_000.0,
            fixed_seconds_per_proc: 800.0,
            grain_seconds: 5.0,
            acc_bytes: 12 * 1024,
            node_mem_bytes: 16 << 30,
            app_bytes_per_node: (154 << 30) / 10, // 15.4 GiB
            paging_slowdown_per_overflow: 50.0,
            seed: 0xCC5D,
        }
    }
}

/// Result of one CCSD proxy run.
#[derive(Clone, Copy, Debug)]
pub struct CcsdOutcome {
    /// Total execution time in seconds (paper Fig. 9b y-axis).
    pub exec_seconds: f64,
    /// The paging slowdown factor applied to compute (1.0 = memory fits).
    pub paging_factor: f64,
    /// Modelled total node memory use in bytes (app + runtime).
    pub node_mem_used: u64,
}

/// Computes the paging factor for a configuration: 1.0 while the node's
/// application working set plus the runtime footprint fits the budget,
/// growing linearly with the overflow fraction beyond it.
pub fn paging_factor(cfg: &CcsdConfig) -> (f64, u64) {
    let rt = runtime_config(cfg);
    let topo = cfg.topology.build(rt.num_nodes());
    let mem = node_memory(&rt, &topo, 0);
    let used = cfg.app_bytes_per_node + mem.cht_pool_bytes + mem.bookkeeping_bytes;
    let factor = if used <= cfg.node_mem_bytes {
        1.0
    } else {
        let overflow = (used - cfg.node_mem_bytes) as f64 / cfg.node_mem_bytes as f64;
        1.0 + cfg.paging_slowdown_per_overflow * overflow
    };
    (factor, used)
}

fn runtime_config(cfg: &CcsdConfig) -> RuntimeConfig {
    let mut rt = RuntimeConfig::new(cfg.n_procs, cfg.topology);
    rt.procs_per_node = cfg.ppn;
    rt.seed = cfg.seed;
    rt
}

struct CcsdProgram {
    rank: Rank,
    cfg: CcsdConfig,
    paging: f64,
    grains_left: u64,
    fixed_left: f64,
    computed: bool,
    grain_idx: u64,
}

impl CcsdProgram {
    /// Spread accumulate target: a per-rank decorrelated walk over all
    /// ranks, avoiding any hot spot.
    fn acc_target(&self) -> Rank {
        let x = (u64::from(self.rank.0) << 32) | self.grain_idx;
        let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        Rank((h % u64::from(self.cfg.n_procs)) as u32)
    }
}

impl Program for CcsdProgram {
    fn next(&mut self, _ctx: &ProcCtx) -> Action {
        // Interleave: grain compute, then its accumulate; a slice of the
        // fixed work is folded into each grain, remainder at the end.
        if self.grains_left > 0 {
            if !self.computed {
                self.computed = true;
                let fixed_slice = self.fixed_left / self.grains_left as f64;
                self.fixed_left -= fixed_slice;
                let secs = (self.cfg.grain_seconds + fixed_slice) * self.paging;
                return Action::Compute(SimTime::from_micros_f64(secs * 1e6));
            }
            self.computed = false;
            self.grains_left -= 1;
            self.grain_idx += 1;
            return Action::Op(Op::acc(self.acc_target(), self.cfg.acc_bytes));
        }
        if self.fixed_left > 0.0 {
            let secs = self.fixed_left * self.paging;
            self.fixed_left = 0.0;
            return Action::Compute(SimTime::from_micros_f64(secs * 1e6));
        }
        Action::Done
    }
}

/// Runs the CCSD proxy.
///
/// # Panics
/// Panics if the simulation deadlocks; [`try_run`] is the non-panicking
/// variant.
pub fn run(cfg: &CcsdConfig) -> CcsdOutcome {
    try_run(cfg).unwrap_or_else(|e| panic!("CCSD run failed: {e}"))
}

/// Runs the CCSD proxy, surfacing abnormal simulation endings as a typed
/// error.
///
/// # Errors
/// Returns [`RunError`](crate::RunError) when the simulation deadlocks or
/// times out.
pub fn try_run(cfg: &CcsdConfig) -> Result<CcsdOutcome, crate::RunError> {
    let (paging, used) = paging_factor(cfg);
    let grains_per_proc =
        (cfg.serial_seconds / f64::from(cfg.n_procs) / cfg.grain_seconds).ceil() as u64;
    let rt = runtime_config(cfg);
    let sim = Simulation::build(rt, |rank| CcsdProgram {
        rank,
        cfg: *cfg,
        paging,
        grains_left: grains_per_proc,
        fixed_left: cfg.fixed_seconds_per_proc,
        computed: false,
        grain_idx: 0,
    });
    let report = sim.run()?;
    Ok(CcsdOutcome {
        exec_seconds: report.finish_time.as_secs_f64(),
        paging_factor: paging,
        node_mem_used: used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(topology: TopologyKind, n_procs: u32) -> CcsdConfig {
        CcsdConfig {
            n_procs,
            ppn: 4,
            topology,
            serial_seconds: 2.0,
            fixed_seconds_per_proc: 0.05,
            grain_seconds: 0.01,
            acc_bytes: 4096,
            node_mem_bytes: 1 << 30,
            app_bytes_per_node: 900 << 20,
            paging_slowdown_per_overflow: 50.0,
            seed: 2,
        }
    }

    #[test]
    fn runs_and_reports_time() {
        let out = run(&tiny(TopologyKind::Fcg, 16));
        assert!(out.exec_seconds > 0.0);
        assert_eq!(out.paging_factor, 1.0);
    }

    #[test]
    fn paging_kicks_in_when_memory_overflows() {
        let mut cfg = tiny(TopologyKind::Fcg, 64);
        cfg.app_bytes_per_node = cfg.node_mem_bytes; // pool pushes it over
        let (factor, used) = paging_factor(&cfg);
        assert!(factor > 1.0);
        assert!(used > cfg.node_mem_bytes);
        let out = run(&cfg);
        assert!(out.paging_factor > 1.0);
    }

    #[test]
    fn fcg_overflows_before_mfcg() {
        // With the working set near the budget, FCG's larger pool overflows
        // while MFCG still fits — the Fig. 9b crossover mechanism.
        let mut fcg = tiny(TopologyKind::Fcg, 512);
        fcg.app_bytes_per_node = (1 << 30) - (20 << 20);
        let mut mfcg = fcg;
        mfcg.topology = TopologyKind::Mfcg;
        let (f_fcg, _) = paging_factor(&fcg);
        let (f_mfcg, _) = paging_factor(&mfcg);
        assert!(f_fcg > 1.0, "FCG should page, factor {f_fcg}");
        assert_eq!(f_mfcg, 1.0, "MFCG should fit");
        let out_fcg = run(&fcg);
        let out_mfcg = run(&mfcg);
        assert!(
            out_fcg.exec_seconds > out_mfcg.exec_seconds,
            "paging FCG must lose: {} !> {}",
            out_fcg.exec_seconds,
            out_mfcg.exec_seconds
        );
    }

    #[test]
    fn without_memory_pressure_fcg_is_not_slower() {
        let fcg = run(&tiny(TopologyKind::Fcg, 64));
        let mfcg = run(&tiny(TopologyKind::Mfcg, 64));
        assert!(
            fcg.exec_seconds <= mfcg.exec_seconds * 1.02,
            "no hot spot, no paging: FCG keeps its edge ({} vs {})",
            fcg.exec_seconds,
            mfcg.exec_seconds
        );
    }

    #[test]
    fn deterministic() {
        let a = run(&tiny(TopologyKind::Mfcg, 32));
        let b = run(&tiny(TopologyKind::Mfcg, 32));
        assert_eq!(a.exec_seconds, b.exec_seconds);
    }
}
