//! Deterministic chaos campaigns: randomised composite fault schedules,
//! invariant oracles, replay checks, and greedy shrinking.
//!
//! A chaos campaign draws a grid of cells (topology × population), gives
//! each cell a composite [`FaultPlan`] sampled from its own fork of the
//! campaign RNG — crashes, reboots, partitions, transient loss, payload
//! corruption, in any combination — and runs every cell through the
//! self-healing runtime with membership repair on. Each cell is then held
//! against a set of invariant oracles:
//!
//! * the run **completes** (no deadlock at quiescence),
//! * **no credit leaks** — every live sender's buffers drained,
//! * **every corrupt frame was caught**: the engine's checksum counter
//!   equals the network's corruption counter exactly,
//! * **exactly-once effects**: the hot counter's final value is bounded
//!   below by the operations that completed at their origins and above by
//!   the operations issued, and no other rank's counter moved,
//! * **replay byte-identity**: the cell run twice produces an identical
//!   report digest.
//!
//! Because every plan is a pure function of `(campaign seed, cell index)`
//! and cells fan out through the order-preserving
//! [`run_parallel`](crate::sweep::run_parallel), the whole campaign is
//! reproducible at any worker count. When a cell fails its oracles, the
//! harness greedily shrinks the offending schedule — dropping crashes
//! (with their reboots), partitions and windows while the failure
//! persists — down to a minimized reproducer worth committing to a test.

use vt_armci::{
    Action, FaultPlan, FaultStats, MembershipConfig, Op, Rank, RepairStats, Report, RuntimeConfig,
    ScriptProgram, SimTime, Simulation,
};
use vt_core::TopologyKind;
use vt_simnet::DetRng;

/// The four topology kinds every campaign cycles through.
pub const CAMPAIGN_TOPOLOGIES: [TopologyKind; 4] = [
    TopologyKind::Fcg,
    TopologyKind::Cfcg,
    TopologyKind::Mfcg,
    TopologyKind::Hypercube,
];

/// Process populations the campaign alternates between (power-of-two node
/// counts at the default 4 ppn, so every topology kind builds).
pub const CAMPAIGN_SIZES: [u32; 2] = [16, 32];

/// Configuration of a chaos campaign.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Number of cells to draw and run.
    pub cells: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Fetch-&-adds each rank issues at the hot rank (split around a long
    /// keep-alive compute so the run spans the whole fault horizon).
    pub ops_per_rank: u32,
    /// Campaign root seed; cell `i` draws its schedule from fork `i`.
    pub seed: u64,
    /// Worker threads for the sweep (0 = one per CPU).
    pub threads: usize,
}

impl ChaosConfig {
    /// The standard campaign: 64 cells over all four topology kinds.
    pub fn paper() -> Self {
        ChaosConfig {
            cells: 64,
            ppn: 4,
            ops_per_rank: 12,
            seed: 0xC4A0,
            threads: 0,
        }
    }

    /// A small fixed-seed campaign for smoke tests and CI.
    pub fn quick() -> Self {
        ChaosConfig {
            cells: 8,
            ..Self::paper()
        }
    }
}

/// One drawn cell of a campaign: a topology at a population under a
/// sampled composite fault schedule.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    /// Cell index within the campaign (also the RNG fork stream).
    pub idx: u32,
    /// Virtual topology under test.
    pub topology: TopologyKind,
    /// Number of simulated processes.
    pub n_procs: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Fetch-&-adds per rank.
    pub ops_per_rank: u32,
    /// The cell's runtime seed.
    pub seed: u64,
    /// The sampled fault schedule.
    pub plan: FaultPlan,
}

/// Result of one campaign cell: oracle verdicts plus headline counters.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Cell index within the campaign.
    pub idx: u32,
    /// Virtual topology the cell ran.
    pub topology: TopologyKind,
    /// Number of simulated processes.
    pub n_procs: u32,
    /// Crashes in the cell's schedule.
    pub crashes: u32,
    /// Reboots in the cell's schedule.
    pub restarts: u32,
    /// Partition windows in the cell's schedule.
    pub partitions: u32,
    /// Loss windows in the cell's schedule.
    pub drop_windows: u32,
    /// Corruption windows in the cell's schedule.
    pub corrupt_windows: u32,
    /// Completion time of the faulted run, seconds.
    pub exec_seconds: f64,
    /// Fault-recovery counters of the cell's first run (all zero when the
    /// run ended abnormally).
    pub faults: FaultStats,
    /// Membership / repair counters of the cell's first run (likewise).
    pub repair: RepairStats,
    /// Invariant violations (empty = the cell passed every oracle).
    pub violations: Vec<String>,
    /// Stable digest of the report, for replay comparison.
    pub digest: String,
}

impl CellOutcome {
    /// Whether the cell passed every oracle.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A failing cell's schedule reduced to a minimal reproducer.
#[derive(Clone, Debug)]
pub struct MinimizedRepro {
    /// Index of the failing cell the reproducer was shrunk from.
    pub cell: u32,
    /// The minimized fault schedule (still failing).
    pub plan: FaultPlan,
    /// The violations the minimized schedule still triggers.
    pub violations: Vec<String>,
}

/// Result of a whole campaign.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Per-cell outcomes, in cell order.
    pub cells: Vec<CellOutcome>,
    /// The first failing cell's schedule, greedily shrunk (None when every
    /// cell passed).
    pub minimized: Option<MinimizedRepro>,
}

impl ChaosOutcome {
    /// Number of cells that failed at least one oracle.
    pub fn failing_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.passed()).count()
    }
}

/// Draws cell `idx`'s composite fault schedule from the campaign RNG.
///
/// Pure function of `(seed, idx)`: the same campaign always samples the
/// same schedules regardless of worker count or which cells ran before.
/// Every drawn schedule passes [`FaultPlan::validate`] by construction
/// (distinct victims, reboots after their crashes, non-empty windows).
pub fn draw_plan(seed: u64, idx: u32, n_nodes: u32) -> FaultPlan {
    let mut rng = DetRng::new(seed).fork(u64::from(idx));
    let mut plan = FaultPlan::new();

    // Crashes: up to two distinct victims, sparing node 0 (the hot
    // target's home) so availability stays comparable across cells. Two
    // thirds of victims reboot 2–10 ms later and must rejoin.
    let n_crashes = rng.index(3) as u32;
    let mut victims: Vec<u32> = (1..n_nodes).collect();
    rng.shuffle(&mut victims);
    for &node in victims.iter().take(n_crashes as usize) {
        let at = SimTime::from_micros(50 + rng.u64_below(15_000));
        plan = plan.crash_node(at, node);
        if rng.index(3) < 2 {
            let back = at + SimTime::from_micros(2_000 + rng.u64_below(8_000));
            plan = plan.restart_node(back, node);
        }
    }

    // One partition window in half the cells: a directed cut between two
    // distinct nodes, severed both ways half the time.
    if n_nodes >= 2 && rng.index(2) == 0 {
        let from = SimTime::from_micros(rng.u64_below(10_000));
        let until = from + SimTime::from_micros(1_000 + rng.u64_below(7_000));
        let a = rng.u64_below(u64::from(n_nodes)) as u32;
        let mut b = rng.u64_below(u64::from(n_nodes)) as u32;
        if b == a {
            b = (a + 1) % n_nodes;
        }
        let mut cut = vec![(a, b)];
        if rng.index(2) == 0 {
            cut.push((b, a));
        }
        plan = plan.partition(from, until, cut);
    }

    // One transient-loss window in half the cells.
    if rng.index(2) == 0 {
        let from = SimTime::from_micros(rng.u64_below(12_000));
        let until = from + SimTime::from_micros(1_000 + rng.u64_below(10_000));
        plan = plan.drop_window(from, until, rng.f64_range(0.02, 0.25));
    }

    // One payload-corruption window in half the cells.
    if rng.index(2) == 0 {
        let from = SimTime::from_micros(rng.u64_below(12_000));
        let until = from + SimTime::from_micros(1_000 + rng.u64_below(10_000));
        plan = plan.corrupt_window(from, until, rng.f64_range(0.02, 0.3));
    }

    plan
}

/// Enumerates the campaign's cells: cell `i` cycles through the four
/// topology kinds (inner) and the two populations (outer), with its
/// schedule drawn from RNG fork `i`.
pub fn draw_cells(cfg: &ChaosConfig) -> Vec<ChaosCell> {
    (0..cfg.cells)
        .map(|idx| {
            let topology = CAMPAIGN_TOPOLOGIES[idx as usize % CAMPAIGN_TOPOLOGIES.len()];
            let n_procs =
                CAMPAIGN_SIZES[(idx as usize / CAMPAIGN_TOPOLOGIES.len()) % CAMPAIGN_SIZES.len()];
            let n_nodes = n_procs.div_ceil(cfg.ppn);
            let plan = draw_plan(cfg.seed, idx, n_nodes);
            debug_assert!(plan.validate().is_ok(), "drawn plan must validate");
            ChaosCell {
                idx,
                topology,
                n_procs,
                ppn: cfg.ppn,
                ops_per_rank: cfg.ops_per_rank,
                seed: cfg.seed ^ (u64::from(idx) << 32),
                plan,
            }
        })
        .collect()
}

fn runtime_config(cell: &ChaosCell) -> RuntimeConfig {
    let mut rt = RuntimeConfig::new(cell.n_procs, cell.topology);
    rt.procs_per_node = cell.ppn;
    rt.seed = cell.seed;
    rt.membership = MembershipConfig::on();
    rt
}

/// Runs one cell's workload under `plan` (the cell's own schedule, or a
/// shrinking candidate).
///
/// The workload is the hot-spot pattern: every rank but 0 hammers rank 0
/// with fetch-&-adds, split around a 30 ms keep-alive compute so the run
/// is still alive when late reboots and heals land.
fn run_plan(cell: &ChaosCell, plan: &FaultPlan) -> Result<Report, vt_armci::SimError> {
    let ops = cell.ops_per_rank;
    Simulation::build_with_faults(
        runtime_config(cell),
        move |rank| {
            let mut script = Vec::new();
            if rank != Rank(0) {
                script.push(Action::Compute(SimTime::from_micros(
                    2 + u64::from(rank.0 % 7),
                )));
                for _ in 0..ops / 2 {
                    script.push(Action::Op(Op::fetch_add(Rank(0), 1)));
                }
                script.push(Action::Compute(SimTime::from_millis(30)));
                for _ in 0..ops - ops / 2 {
                    script.push(Action::Op(Op::fetch_add(Rank(0), 1)));
                }
            }
            ScriptProgram::new(script)
        },
        plan,
    )
    .with_repair_certifier(vt_analyze::certify_repair)
    .run()
}

/// A stable, byte-comparable digest of everything a report observes:
/// timeline, event count, traffic, fault/repair counters, final counter
/// values, failures and losses. Two runs of the same cell must produce
/// identical digests — the replay oracle.
fn digest(report: &Report) -> String {
    format!(
        "t={:?} ev={} net={:?} faults={:?} repair={:?} finals={:?} ops={} failures={:?} lost={:?} leaks={}",
        report.finish_time,
        report.events,
        report.net,
        report.faults,
        report.repair,
        report.fetch_finals,
        report.metrics.total_ops(),
        report.failures,
        report.lost_ranks,
        report.credit_leaks,
    )
}

/// Applies the invariant oracles to one run's result, returning every
/// violation found (empty = passed).
fn check_oracles(cell: &ChaosCell, result: &Result<Report, vt_armci::SimError>) -> Vec<String> {
    let mut v = Vec::new();
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            v.push(format!("run did not complete: {e}"));
            return v;
        }
    };
    if report.credit_leaks != 0 {
        v.push(format!(
            "credit leak: {} live credits stranded",
            report.credit_leaks
        ));
    }
    if report.faults.corrupt_detected != report.net.corrupted {
        v.push(format!(
            "checksum gap: {} corrupt frames delivered, {} detected",
            report.net.corrupted, report.faults.corrupt_detected
        ));
    }
    let applied = report.fetch_finals.first().copied().unwrap_or(0);
    let completed = report.metrics.total_ops() as i64;
    let issued_cap = i64::from(cell.n_procs - 1) * i64::from(cell.ops_per_rank);
    if applied < completed {
        v.push(format!(
            "lost effect: {completed} ops completed but hot counter is {applied}"
        ));
    }
    if applied > issued_cap {
        v.push(format!(
            "duplicate effect: hot counter {applied} exceeds the {issued_cap} ops issued"
        ));
    }
    if report.fetch_finals.iter().skip(1).any(|&f| f != 0) {
        v.push("stray effect: a non-target rank's counter moved".to_string());
    }
    v
}

/// Runs one cell twice and folds both runs into a [`CellOutcome`],
/// including the replay-identity oracle.
pub fn run_cell(cell: &ChaosCell) -> CellOutcome {
    let first = run_plan(cell, &cell.plan);
    let second = run_plan(cell, &cell.plan);
    let mut violations = check_oracles(cell, &first);
    let (d1, d2) = (
        first
            .as_ref()
            .map(digest)
            .unwrap_or_else(|e| format!("error: {e}")),
        second
            .as_ref()
            .map(digest)
            .unwrap_or_else(|e| format!("error: {e}")),
    );
    if d1 != d2 {
        violations.push("replay divergence: two runs of the cell differ".to_string());
    }
    let (exec, faults, repair) = match &first {
        Ok(r) => (r.finish_time.as_secs_f64(), r.faults, r.repair),
        Err(_) => (0.0, FaultStats::default(), RepairStats::default()),
    };
    CellOutcome {
        idx: cell.idx,
        topology: cell.topology,
        n_procs: cell.n_procs,
        crashes: cell.plan.node_crashes.len() as u32,
        restarts: cell.plan.node_restarts.len() as u32,
        partitions: cell.plan.partitions.len() as u32,
        drop_windows: cell.plan.drop_windows.len() as u32,
        corrupt_windows: cell.plan.corrupt_windows.len() as u32,
        exec_seconds: exec,
        faults,
        repair,
        violations,
        digest: d1,
    }
}

/// Greedily shrinks `plan` while `still_fails` holds: each pass tries to
/// remove one schedule element — a crash together with its reboot, a lone
/// reboot, a partition, a loss window, a corruption window — keeping the
/// removal whenever the reduced plan still validates and still fails.
/// Terminates at a fixpoint where no single removal preserves the failure.
pub fn shrink_plan<F>(plan: &FaultPlan, mut still_fails: F) -> FaultPlan
where
    F: FnMut(&FaultPlan) -> bool,
{
    let mut best = plan.clone();
    loop {
        let mut candidates: Vec<FaultPlan> = Vec::new();
        for i in 0..best.node_crashes.len() {
            let mut c = best.clone();
            let victim = c.node_crashes.remove(i).node;
            c.node_restarts.retain(|r| r.node != victim);
            candidates.push(c);
        }
        for i in 0..best.node_restarts.len() {
            let mut c = best.clone();
            c.node_restarts.remove(i);
            candidates.push(c);
        }
        for i in 0..best.partitions.len() {
            let mut c = best.clone();
            c.partitions.remove(i);
            candidates.push(c);
        }
        for i in 0..best.drop_windows.len() {
            let mut c = best.clone();
            c.drop_windows.remove(i);
            candidates.push(c);
        }
        for i in 0..best.corrupt_windows.len() {
            let mut c = best.clone();
            c.corrupt_windows.remove(i);
            candidates.push(c);
        }
        let next = candidates
            .into_iter()
            .find(|c| c.validate().is_ok() && still_fails(c));
        match next {
            Some(c) => best = c,
            None => return best,
        }
    }
}

/// Runs the whole campaign: draw every cell, fan out through the parallel
/// sweep, check every oracle, and — if any cell failed — shrink the first
/// failure to a minimized reproducer.
///
/// # Errors
/// Returns [`RunError::Harness`](crate::RunError) when the configuration
/// draws no cells. Cells that *fail their oracles* are not an error — they
/// are the campaign's findings, reported per cell.
pub fn try_run(cfg: &ChaosConfig) -> Result<ChaosOutcome, crate::RunError> {
    if cfg.cells == 0 {
        return Err(crate::RunError::Harness(
            "chaos campaign needs at least one cell".to_string(),
        ));
    }
    let cells = draw_cells(cfg);
    for cell in &cells {
        cell.plan.validate()?;
    }
    let outcomes = crate::sweep::run_parallel(cells.clone(), cfg.threads, run_cell);
    let minimized = outcomes.iter().find(|o| !o.passed()).map(|o| {
        let cell = &cells[o.idx as usize];
        let plan = shrink_plan(&cell.plan, |candidate| {
            !check_oracles(cell, &run_plan(cell, candidate)).is_empty()
        });
        let violations = check_oracles(cell, &run_plan(cell, &plan));
        MinimizedRepro {
            cell: o.idx,
            plan,
            violations,
        }
    });
    Ok(ChaosOutcome {
        cells: outcomes,
        minimized,
    })
}

/// Runs the campaign, panicking on a harness misconfiguration.
/// [`try_run`] is the non-panicking variant.
///
/// # Panics
/// Panics if the configuration draws no cells.
pub fn run(cfg: &ChaosConfig) -> ChaosOutcome {
    try_run(cfg).unwrap_or_else(|e| panic!("chaos campaign failed: {e}"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn drawn_plans_always_validate() {
        for idx in 0..64 {
            let plan = draw_plan(0xC4A0, idx, 8);
            assert!(plan.validate().is_ok(), "cell {idx}: {plan:?}");
        }
    }

    #[test]
    fn drawing_is_a_pure_function_of_seed_and_index() {
        assert_eq!(draw_plan(7, 3, 8), draw_plan(7, 3, 8));
        assert_ne!(draw_cells(&ChaosConfig::quick())[0].plan, {
            let mut cfg = ChaosConfig::quick();
            cfg.seed ^= 1;
            draw_cells(&cfg)[0].plan.clone()
        });
    }

    #[test]
    fn quick_campaign_passes_every_oracle() {
        let out = run(&ChaosConfig::quick());
        assert_eq!(out.cells.len(), 8);
        for c in &out.cells {
            assert!(c.passed(), "cell {}: {:?}", c.idx, c.violations);
        }
        assert!(out.minimized.is_none());
    }

    #[test]
    fn campaign_is_identical_at_any_worker_count() {
        let mut serial = ChaosConfig::quick();
        serial.threads = 1;
        let mut parallel = ChaosConfig::quick();
        parallel.threads = 4;
        let a = run(&serial);
        let b = run(&parallel);
        let da: Vec<&str> = a.cells.iter().map(|c| c.digest.as_str()).collect();
        let db: Vec<&str> = b.cells.iter().map(|c| c.digest.as_str()).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn shrinker_reduces_to_the_guilty_element() {
        // Synthetic failure predicate: the plan "fails" iff it still
        // crashes node 3. The shrinker must strip everything else.
        let plan = draw_plan(0xC4A0, 1, 8)
            .crash_node(SimTime::from_micros(500), 3)
            .partition(SimTime::ZERO, SimTime::from_millis(2), vec![(1, 2)])
            .drop_window(SimTime::ZERO, SimTime::from_millis(5), 0.1);
        assert!(plan.validate().is_ok());
        let shrunk = shrink_plan(&plan, |p| p.node_crashes.iter().any(|c| c.node == 3));
        assert_eq!(shrunk.node_crashes.len(), 1);
        assert_eq!(shrunk.node_crashes[0].node, 3);
        assert!(shrunk.node_restarts.is_empty());
        assert!(shrunk.partitions.is_empty());
        assert!(shrunk.drop_windows.is_empty());
        assert!(shrunk.corrupt_windows.is_empty());
    }

    #[test]
    fn shrinker_keeps_paired_reboots_valid() {
        // Removing a crash must drag its reboot along, never leaving a
        // restart-without-crash plan on the table.
        let plan = FaultPlan::new()
            .crash_node(SimTime::from_micros(100), 1)
            .restart_node(SimTime::from_millis(5), 1)
            .crash_node(SimTime::from_micros(200), 2);
        let shrunk = shrink_plan(&plan, |p| p.node_crashes.iter().any(|c| c.node == 2));
        assert!(shrunk.validate().is_ok());
        assert_eq!(shrunk.node_crashes.len(), 1);
        assert_eq!(shrunk.node_crashes[0].node, 2);
        assert!(shrunk.node_restarts.is_empty());
    }
}
