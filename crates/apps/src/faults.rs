//! The topology-resilience experiment: kill a forwarder mid-run.
//!
//! The paper's virtual topologies interpose forwarders between a process
//! and its hot target; this scenario measures what that buys — and costs —
//! when one of those forwarders dies. Every rank hammers rank 0 with
//! fetch-&-adds (the Fig. 7 hot-spot pattern) and, mid-run, the node that
//! forwards the far corner's traffic toward node 0 is crashed. The
//! self-healing runtime must detect the loss by timeout, retransmit, and
//! route around the corpse on escape-class buffers; the experiment reports
//! completion time against a healthy baseline, availability, and the
//! recovery counters per topology.
//!
//! Expected shape: FCG has no forwarders, so a crash only loses the
//! victim's own ranks (nothing to reroute, `reroutes = 0`); the virtual
//! topologies lose the same ranks *plus* pay timeout/retransmit rounds for
//! every in-flight request the dead forwarder held, but complete with
//! availability `1 − ppn/P` all the same.

use vt_armci::{
    Action, FaultPlan, FaultStats, MembershipConfig, Rank, RepairStats, RuntimeConfig,
    ScriptProgram, SimTime, Simulation,
};
use vt_core::{TopologyKind, VirtualTopology};

/// Configuration of a forwarder-kill run.
#[derive(Clone, Copy, Debug)]
pub struct FaultScenarioConfig {
    /// Total ranks.
    pub n_procs: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Virtual topology under test.
    pub topology: TopologyKind,
    /// Blocking fetch-&-adds each rank issues at rank 0.
    pub ops_per_rank: u32,
    /// When the victim node is crashed.
    pub kill_at: SimTime,
    /// Root seed.
    pub seed: u64,
    /// Run with membership repair enabled: the failure detector confirms
    /// the crash and an epoch commit re-packs the survivors (with
    /// `vt-analyze` certifying the repaired topology), instead of relying
    /// on retry/route-around alone.
    pub membership: bool,
}

impl FaultScenarioConfig {
    /// The paper-scale setup: 256 ranks at 4 ppn (64 nodes), each issuing
    /// 8 fetch-&-adds at rank 0, with the forwarder killed at 300 µs.
    pub fn paper(topology: TopologyKind) -> Self {
        FaultScenarioConfig {
            n_procs: 256,
            ppn: 4,
            topology,
            ops_per_rank: 8,
            kill_at: SimTime::from_micros(300),
            seed: 0xFA17,
            membership: false,
        }
    }

    /// Number of nodes implied by the process count.
    pub fn num_nodes(&self) -> u32 {
        self.n_procs.div_ceil(self.ppn)
    }

    /// The node this scenario kills: the first hop on the far corner's
    /// (node `N−1`'s) route to node 0 — a genuine forwarder whenever the
    /// topology has one, otherwise (FCG, or an adjacent corner) the corner
    /// itself, so *some* node always dies and availability is comparable
    /// across topologies.
    pub fn victim_node(&self) -> u32 {
        let n = self.num_nodes();
        let topo = self.topology.build(n);
        match topo.next_hop(n - 1, 0) {
            Some(h) if h != 0 => h,
            _ => n - 1,
        }
    }
}

/// Result of a forwarder-kill run.
#[derive(Clone, Copy, Debug)]
pub struct FaultOutcome {
    /// Completion time of the faulted run, seconds.
    pub exec_seconds: f64,
    /// Completion time of the identical run without the crash, seconds.
    pub healthy_seconds: f64,
    /// Fraction of ranks that finished their program (neither lost with the
    /// victim node nor terminally failed).
    pub availability: f64,
    /// The node that was crashed.
    pub victim: u32,
    /// Ranks lost with the victim node.
    pub lost_ranks: u32,
    /// Operations that completed across all ranks.
    pub completed_ops: u64,
    /// Fault-recovery counters of the faulted run: retries, reroutes,
    /// credit reclaims, dedup hits, terminal failures.
    pub faults: FaultStats,
    /// Membership / repair activity counters (all zero with membership
    /// off).
    pub repair: RepairStats,
}

impl FaultOutcome {
    /// Completion-time cost of the crash relative to the healthy run.
    pub fn slowdown(&self) -> f64 {
        if self.healthy_seconds > 0.0 {
            self.exec_seconds / self.healthy_seconds
        } else {
            1.0
        }
    }
}

fn runtime_config(cfg: &FaultScenarioConfig) -> RuntimeConfig {
    let mut rt = RuntimeConfig::new(cfg.n_procs, cfg.topology);
    rt.procs_per_node = cfg.ppn;
    rt.seed = cfg.seed;
    if cfg.membership {
        rt.membership = MembershipConfig::on();
    }
    rt
}

/// The staggered hot-spot script of the fault and repair scenarios: every
/// rank but `hot` computes for `2 + rank % 7` µs, then issues `ops`
/// fetch-&-adds at `hot`; `hot` itself issues nothing. The short stagger
/// keeps every rank alive past t = 0 so a crash always finds work in
/// flight.
pub(crate) fn hot_spot_script(rank: Rank, hot: Rank, ops: u32) -> ScriptProgram {
    let mut script = Vec::new();
    if rank != hot {
        script.push(Action::Compute(SimTime::from_micros(
            2 + u64::from(rank.0 % 7),
        )));
        script.extend((0..ops).map(|_| Action::Op(vt_armci::Op::fetch_add(hot, 1))));
    }
    ScriptProgram::new(script)
}

fn build(cfg: &FaultScenarioConfig, plan: &FaultPlan) -> Simulation {
    let ops = cfg.ops_per_rank;
    Simulation::build_with_faults(
        runtime_config(cfg),
        move |rank| hot_spot_script(rank, Rank(0), ops),
        plan,
    )
}

/// Runs the forwarder-kill scenario (plus the healthy baseline) and
/// reports completion time, availability and the recovery counters.
///
/// # Panics
/// Panics if the configuration is invalid for the topology, if the
/// `vt-analyze` pre-flight refuses to certify the crashed configuration,
/// or if the simulation deadlocks — the self-healing machinery is
/// expected to always terminate the run. [`try_run`] is the non-panicking
/// variant.
pub fn run(cfg: &FaultScenarioConfig) -> FaultOutcome {
    try_run(cfg).unwrap_or_else(|e| panic!("fault scenario failed: {e}"))
}

/// Runs the forwarder-kill scenario, surfacing abnormal simulation
/// endings as a typed error instead of panicking.
///
/// # Errors
/// Returns [`RunError::Uncertified`](crate::RunError::Uncertified) with the
/// analyzer's report when the `vt-analyze` pre-flight refuses to certify
/// the crashed configuration, and another [`RunError`](crate::RunError)
/// when either the healthy baseline or the faulted run ends abnormally.
pub fn try_run(cfg: &FaultScenarioConfig) -> Result<FaultOutcome, crate::RunError> {
    let victim = cfg.victim_node();
    let plan = FaultPlan::new().crash_node(cfg.kill_at, victim);
    plan.validate()?;
    // Pre-flight: the crashed configuration must stay certified — the
    // dependency graph acyclic over every crash prefix, and every
    // surviving pair still routable. A partial packing whose victim is
    // escape-critical is refused here instead of producing a run whose
    // "failed ops" are really a partitioned topology. With membership on
    // the refusal is survivable by design (live re-packing certifies at
    // repair time instead — see `crate::repair`), so the gate is skipped.
    if !cfg.membership {
        vt_analyze::certify(&runtime_config(cfg), Some(&plan))
            .map_err(crate::RunError::Uncertified)?;
    }
    let healthy = build(cfg, &FaultPlan::default()).run()?;
    let mut faulted = build(cfg, &plan);
    if cfg.membership {
        faulted = faulted.with_repair_certifier(vt_analyze::certify_repair);
    }
    let report = faulted.run()?;
    Ok(FaultOutcome {
        exec_seconds: report.finish_time.as_secs_f64(),
        healthy_seconds: healthy.finish_time.as_secs_f64(),
        availability: report.availability(),
        victim,
        lost_ranks: report.lost_ranks.len() as u32,
        completed_ops: report.metrics.total_ops(),
        faults: report.faults,
        repair: report.repair,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(topology: TopologyKind) -> FaultScenarioConfig {
        FaultScenarioConfig {
            n_procs: 64,
            ppn: 4,
            ops_per_rank: 4,
            kill_at: SimTime::from_micros(60),
            ..FaultScenarioConfig::paper(topology)
        }
    }

    #[test]
    fn victim_is_a_forwarder_on_forwarding_topologies() {
        let cfg = small(TopologyKind::Mfcg);
        let v = cfg.victim_node();
        assert_ne!(v, 0);
        assert_ne!(v, cfg.num_nodes() - 1, "MFCG 4x4 corner must forward");
        // FCG has no forwarders: the corner itself dies.
        assert_eq!(small(TopologyKind::Fcg).victim_node(), 15);
    }

    #[test]
    fn mfcg_survives_the_kill_with_reroutes() {
        let o = run(&small(TopologyKind::Mfcg));
        assert_eq!(o.lost_ranks, 4);
        assert!((o.availability - 60.0 / 64.0).abs() < 1e-9, "{o:?}");
        assert!(o.faults.reroutes > 0, "{o:?}");
        assert!(o.exec_seconds >= o.healthy_seconds, "{o:?}");
        assert!(o.completed_ops > 0);
    }

    #[test]
    fn fcg_loses_ranks_but_has_nothing_to_reroute() {
        let o = run(&small(TopologyKind::Fcg));
        assert_eq!(o.lost_ranks, 4);
        assert_eq!(o.faults.reroutes, 0, "{o:?}");
        assert!(o.availability > 0.9);
    }

    #[test]
    fn deterministic() {
        let a = run(&small(TopologyKind::Hypercube));
        let b = run(&small(TopologyKind::Hypercube));
        assert_eq!(a.exec_seconds, b.exec_seconds);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn membership_completes_the_same_scenario_with_repair_counters() {
        // Enough work that the run outlives the ~8 ms detection horizon:
        // the interior-victim crash is repaired mid-run (route-around
        // bridges the gap until the epoch commits).
        let mut cfg = small(TopologyKind::Mfcg);
        cfg.membership = true;
        cfg.ops_per_rank = 80;
        let o = run(&cfg);
        assert_eq!(o.faults.failed_ops, 0, "{o:?}");
        assert!(o.repair.epoch_bumps >= 1, "{o:?}");
        assert!(o.availability > 0.9);
        // Without membership the same run reports all-zero repair stats.
        let base = run(&small(TopologyKind::Mfcg));
        assert_eq!(base.repair, vt_armci::RepairStats::default());
    }
}
