//! The membership-repair experiment: survive a crash that static
//! route-around provably cannot.
//!
//! PR 3 established (and `vt-analyze` pins) that partial LDF packings are
//! *not* single-fault tolerant everywhere: crashing an escape-critical
//! boundary node — MFCG/23 node 2, CFCG/29 node 24 — genuinely partitions
//! the live set, so the static analyzer refuses the configuration and the
//! retry/route-around machinery alone would diagnose unreachable
//! operations. This experiment runs exactly those refused scenarios with
//! **membership repair** enabled: the phi-accrual failure detector
//! (piggybacked on request/ack traffic, with idle probes as fallback)
//! confirms the crash, an epoch commit drains in-flight requests and
//! re-packs the survivors lowest-dimension-first, `vt-analyze` certifies
//! the repaired topology before it is committed, and the deferred
//! operations complete over the new grid.
//!
//! Expected shape: the static analyzer still refuses the crashed *static*
//! packing (that pin is kept), the membership run completes every
//! surviving rank's program with zero credit leaks, and the post-repair
//! topology — the original kind re-packed over the survivors, or a lower
//! rung of the fallback ladder — re-certifies.

use vt_armci::{
    FaultPlan, MembershipConfig, Rank, RepairStats, RuntimeConfig, SimTime, Simulation,
};
use vt_core::{fallback_ladder, TopologyKind};

/// Configuration of a membership-repair run.
#[derive(Clone, Copy, Debug)]
pub struct RepairScenarioConfig {
    /// Virtual topology under test.
    pub topology: TopologyKind,
    /// Number of nodes (the interesting populations are partial packings).
    pub nodes: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Blocking fetch-&-adds each rank issues at the hot rank.
    pub ops_per_rank: u32,
    /// The node to crash.
    pub victim: u32,
    /// When the victim is crashed.
    pub kill_at: SimTime,
    /// Root seed.
    pub seed: u64,
}

impl RepairScenarioConfig {
    /// The MFCG boundary scenario: 5x5 grid with 23 populated, node 2 =
    /// (2,0) is the sole escape hop between (3,0) and (2,4) — the victim
    /// the analyzer refuses as a static crash.
    pub fn mfcg_boundary() -> Self {
        RepairScenarioConfig {
            topology: TopologyKind::Mfcg,
            nodes: 23,
            ppn: 2,
            ops_per_rank: 4,
            victim: 2,
            kill_at: SimTime::from_micros(50),
            seed: 0x4E4A,
        }
    }

    /// The CFCG boundary scenario: 4x3x3 grid with 29 populated, node 24
    /// = (0,0,2) is the sole in-slice forwarder toward (0,1,2).
    pub fn cfcg_boundary() -> Self {
        RepairScenarioConfig {
            topology: TopologyKind::Cfcg,
            nodes: 29,
            ppn: 2,
            ops_per_rank: 4,
            victim: 24,
            kill_at: SimTime::from_micros(50),
            seed: 0x4E4A,
        }
    }

    /// Total ranks.
    pub fn n_procs(&self) -> u32 {
        self.nodes * self.ppn
    }

    /// The hot rank every other rank targets: the master of the *last*
    /// node, so traffic crosses the partial top slice — including the
    /// pair whose only escape route the crash severs.
    pub fn hot_rank(&self) -> Rank {
        Rank((self.nodes - 1) * self.ppn)
    }
}

/// Result of a membership-repair run.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The static analyzer refuses the crashed configuration (expected
    /// `true` for the boundary scenarios — the pin this experiment
    /// contrasts against).
    pub static_refusal: bool,
    /// Every surviving rank finished its program with no terminal
    /// failures.
    pub completed: bool,
    /// Completion time, seconds.
    pub exec_seconds: f64,
    /// Fraction of ranks that finished their program.
    pub availability: f64,
    /// Operations completed across all ranks.
    pub completed_ops: u64,
    /// Operations that failed terminally (must be 0 on success).
    pub failed_ops: u64,
    /// Buffer credits still held between live endpoints at quiescence
    /// (must be 0).
    pub credit_leaks: u64,
    /// The node that was crashed.
    pub victim: u32,
    /// Ranks lost with the victim node.
    pub lost_ranks: u32,
    /// The topology kind the repair committed (the original re-packed, or
    /// a lower rung of the fallback ladder).
    pub post_repair_kind: TopologyKind,
    /// The committed survivor packing re-certifies under `vt-analyze`.
    pub post_repair_certified: bool,
    /// Membership / repair activity counters.
    pub repair: RepairStats,
    /// Retransmissions issued (stale-epoch replays ride these).
    pub retries: u64,
}

fn runtime_config(cfg: &RepairScenarioConfig) -> RuntimeConfig {
    let mut rt = RuntimeConfig::new(cfg.n_procs(), cfg.topology);
    rt.procs_per_node = cfg.ppn;
    rt.seed = cfg.seed;
    rt
}

fn build(cfg: &RepairScenarioConfig, rt: RuntimeConfig, plan: &FaultPlan) -> Simulation {
    let ops = cfg.ops_per_rank;
    let hot = cfg.hot_rank();
    Simulation::build_with_faults(
        rt,
        move |rank| crate::faults::hot_spot_script(rank, hot, ops),
        plan,
    )
}

/// Runs the membership-repair scenario: records the static analyzer's
/// refusal of the crashed packing, then runs the same crash with
/// membership enabled and `vt-analyze`'s repair certifier installed.
///
/// # Panics
/// Panics if the simulation deadlocks or fails to terminate — the
/// membership machinery is expected to always repair or diagnose.
/// [`try_run`] is the non-panicking variant.
pub fn run(cfg: &RepairScenarioConfig) -> RepairOutcome {
    try_run(cfg).unwrap_or_else(|e| panic!("repair scenario failed: {e}"))
}

/// Runs the membership-repair scenario, surfacing abnormal simulation
/// endings as a typed error.
///
/// # Errors
/// Returns [`RunError`](crate::RunError) when the membership run ends
/// abnormally.
pub fn try_run(cfg: &RepairScenarioConfig) -> Result<RepairOutcome, crate::RunError> {
    let plan = FaultPlan::new().crash_node(cfg.kill_at, cfg.victim);
    plan.validate()?;
    // The contrast pin: the *static* crashed configuration (membership
    // off) is refused for escape-critical victims. Recorded, not fatal —
    // surviving exactly this refusal is the experiment.
    let static_refusal = vt_analyze::certify(&runtime_config(cfg), Some(&plan)).is_err();

    let mut rt = runtime_config(cfg);
    rt.membership = MembershipConfig::on();
    let report = build(cfg, rt, &plan)
        .with_repair_certifier(vt_analyze::certify_repair)
        .run()?;

    let repair = report.repair;
    // The rung the repair committed: `fallback_depth` steps down the
    // ladder from the original kind.
    let ladder = fallback_ladder(cfg.topology);
    let post_repair_kind = ladder
        .get(repair.fallback_depth as usize)
        .copied()
        .unwrap_or(TopologyKind::Fcg);
    let survivors = cfg.nodes - 1;
    let post_repair_certified =
        repair.epoch_bumps > 0 && vt_analyze::certify_repair(post_repair_kind, survivors).is_ok();

    Ok(RepairOutcome {
        static_refusal,
        completed: report.failures.is_empty() && report.faults.failed_ops == 0,
        exec_seconds: report.finish_time.as_secs_f64(),
        availability: report.availability(),
        completed_ops: report.metrics.total_ops(),
        failed_ops: report.faults.failed_ops,
        credit_leaks: report.credit_leaks,
        victim: cfg.victim,
        lost_ranks: report.lost_ranks.len() as u32,
        post_repair_kind,
        post_repair_certified,
        repair,
        retries: report.faults.retries,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn mfcg_boundary_crash_is_refused_statically_but_repaired_live() {
        let o = run(&RepairScenarioConfig::mfcg_boundary());
        assert!(o.static_refusal, "static pin must hold: {o:?}");
        assert!(o.completed, "{o:?}");
        assert_eq!(o.failed_ops, 0);
        assert_eq!(o.credit_leaks, 0);
        assert!(o.repair.epoch_bumps >= 1, "{o:?}");
        assert!(o.post_repair_certified, "{o:?}");
        assert_eq!(o.post_repair_kind, TopologyKind::Mfcg);
        assert_eq!(o.lost_ranks, 2);
        let expected = (46.0 - 2.0) / 46.0;
        assert!((o.availability - expected).abs() < 1e-12, "{o:?}");
    }

    #[test]
    fn cfcg_boundary_crash_is_repaired_live() {
        let o = run(&RepairScenarioConfig::cfcg_boundary());
        assert!(o.static_refusal, "static pin must hold: {o:?}");
        assert!(o.completed, "{o:?}");
        assert_eq!(o.credit_leaks, 0);
        assert!(o.repair.epoch_bumps >= 1);
        assert!(o.post_repair_certified, "{o:?}");
    }

    #[test]
    fn deterministic() {
        let a = run(&RepairScenarioConfig::mfcg_boundary());
        let b = run(&RepairScenarioConfig::mfcg_boundary());
        assert_eq!(a.exec_seconds, b.exec_seconds);
        assert_eq!(a.repair, b.repair);
        assert_eq!(a.retries, b.retries);
    }
}
