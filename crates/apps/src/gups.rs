//! A UPC-style fine-grained random-access workload (GUPS).
//!
//! The paper's future work (§VIII) asks how virtual topologies behave under
//! PGAS *languages* such as UPC, whose hallmark is fine-grained shared
//! access: millions of tiny remote updates to random locations in the
//! global address space. This proxy performs random 8-byte remote
//! accumulates (the GUPS table-update pattern; accumulate rides the CHT
//! path, so the virtual topology applies on every update).
//!
//! Two regimes fall out, matching the paper's intuition:
//! * **uniform** targets — no hot spot; FCG's direct path wins and the
//!   virtual topologies pay their forwarding overhead on every update;
//! * **skewed** targets (a popular table region) — the hot owner saturates
//!   and the topologies invert, exactly like Figs. 6/7.

use vt_armci::{Action, Op, ProcCtx, Program, Rank, RuntimeConfig, Simulation};
use vt_core::TopologyKind;

/// Configuration of a GUPS run.
#[derive(Clone, Copy, Debug)]
pub struct GupsConfig {
    /// Total ranks.
    pub n_procs: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Virtual topology under test.
    pub topology: TopologyKind,
    /// Updates issued per rank.
    pub updates_per_rank: u32,
    /// Fraction (0–1) of updates aimed at rank 0's table partition — 0 for
    /// classic uniform GUPS, higher for hot-spot skew.
    pub skew_to_rank0: f64,
    /// Root seed.
    pub seed: u64,
}

impl GupsConfig {
    /// A uniform GUPS run.
    pub fn uniform(n_procs: u32, topology: TopologyKind) -> Self {
        GupsConfig {
            n_procs,
            ppn: 4,
            topology,
            updates_per_rank: 64,
            skew_to_rank0: 0.0,
            seed: 0x6705,
        }
    }

    /// A skewed run with `skew` of the updates hitting rank 0.
    pub fn skewed(n_procs: u32, topology: TopologyKind, skew: f64) -> Self {
        assert!((0.0..=1.0).contains(&skew));
        GupsConfig {
            skew_to_rank0: skew,
            ..GupsConfig::uniform(n_procs, topology)
        }
    }
}

/// Result of a GUPS run.
#[derive(Clone, Copy, Debug)]
pub struct GupsOutcome {
    /// Total execution time in seconds.
    pub exec_seconds: f64,
    /// Billions of updates per second (the GUPS metric).
    pub gups: f64,
    /// Mean latency of one update in microseconds.
    pub mean_update_us: f64,
}

struct GupsProgram {
    cfg: GupsConfig,
    issued: u32,
    rng_state: u64,
}

impl GupsProgram {
    fn next_target(&mut self) -> Rank {
        // SplitMix64 stream per rank: deterministic, uncorrelated.
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let skew_draw = (z % 10_000) as f64 / 10_000.0;
        if skew_draw < self.cfg.skew_to_rank0 {
            Rank(0)
        } else {
            Rank(((z >> 16) % u64::from(self.cfg.n_procs)) as u32)
        }
    }
}

impl Program for GupsProgram {
    fn next(&mut self, _ctx: &ProcCtx) -> Action {
        if self.issued < self.cfg.updates_per_rank {
            self.issued += 1;
            let target = self.next_target();
            return Action::Op(Op::acc(target, 8));
        }
        if self.issued == self.cfg.updates_per_rank {
            self.issued += 1;
            return Action::Barrier;
        }
        Action::Done
    }
}

/// Runs GUPS and reports throughput.
///
/// # Panics
/// Panics if the simulation deadlocks; [`try_run`] is the non-panicking
/// variant.
pub fn run(cfg: &GupsConfig) -> GupsOutcome {
    try_run(cfg).unwrap_or_else(|e| panic!("GUPS run failed: {e}"))
}

/// Runs GUPS, surfacing abnormal simulation endings as a typed error.
///
/// # Errors
/// Returns [`RunError`](crate::RunError) when the simulation deadlocks or
/// times out.
pub fn try_run(cfg: &GupsConfig) -> Result<GupsOutcome, crate::RunError> {
    let mut rt = RuntimeConfig::new(cfg.n_procs, cfg.topology);
    rt.procs_per_node = cfg.ppn;
    rt.seed = cfg.seed;
    let sim = Simulation::build(rt, |rank| GupsProgram {
        cfg: *cfg,
        issued: 0,
        rng_state: cfg.seed ^ (u64::from(rank.0) << 32),
    });
    let report = sim.run()?;
    let _ = report.metrics.per_rank.len();
    let updates = u64::from(cfg.n_procs) * u64::from(cfg.updates_per_rank);
    let secs = report.finish_time.as_secs_f64();
    let mean_us: f64 = report
        .metrics
        .per_rank
        .iter()
        .map(|s| s.latency_us.mean())
        .sum::<f64>()
        / f64::from(cfg.n_procs);
    Ok(GupsOutcome {
        exec_seconds: secs,
        gups: if secs > 0.0 {
            updates as f64 / secs / 1e9
        } else {
            0.0
        },
        mean_update_us: mean_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_gups_favours_fcg() {
        let fcg = run(&GupsConfig::uniform(64, TopologyKind::Fcg));
        let mfcg = run(&GupsConfig::uniform(64, TopologyKind::Mfcg));
        assert!(
            fcg.mean_update_us < mfcg.mean_update_us,
            "uniform fine-grained access: direct path must win ({} vs {})",
            fcg.mean_update_us,
            mfcg.mean_update_us
        );
        assert!(fcg.gups > 0.0);
    }

    #[test]
    fn heavy_skew_flips_the_ranking() {
        let fcg = run(&GupsConfig::skewed(256, TopologyKind::Fcg, 0.9));
        let mfcg = run(&GupsConfig::skewed(256, TopologyKind::Mfcg, 0.9));
        assert!(
            mfcg.exec_seconds < fcg.exec_seconds,
            "hot-spot skew: attenuation must win ({} vs {})",
            mfcg.exec_seconds,
            fcg.exec_seconds
        );
    }

    #[test]
    fn deterministic() {
        let a = run(&GupsConfig::skewed(32, TopologyKind::Cfcg, 0.5));
        let b = run(&GupsConfig::skewed(32, TopologyKind::Cfcg, 0.5));
        assert_eq!(a.exec_seconds, b.exec_seconds);
    }

    #[test]
    fn targets_are_spread_without_skew() {
        let mut p = GupsProgram {
            cfg: GupsConfig::uniform(64, TopologyKind::Fcg),
            issued: 0,
            rng_state: 42,
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(p.next_target().0);
        }
        assert!(seen.len() > 40, "only {} distinct targets", seen.len());
    }
}
