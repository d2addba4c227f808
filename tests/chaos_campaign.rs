//! Integration tests of the chaos-campaign harness: the campaign report
//! is a pure function of its configuration (identical at any worker
//! count), cells are independent of campaign order, every drawn schedule
//! validates, and the greedy shrinker reduces failing schedules to
//! minimal reproducers without ever leaving an invalid plan behind.

use proptest::prelude::*;
use vt_apps::chaos::{self, ChaosConfig};
use vt_armci::FaultPlan;
use vt_simnet::SimTime;

fn plan_elements(plan: &FaultPlan) -> usize {
    plan.node_crashes.len()
        + plan.node_restarts.len()
        + plan.partitions.len()
        + plan.drop_windows.len()
        + plan.corrupt_windows.len()
}

/// The campaign report — digests, violations, every headline counter — is
/// byte-identical whether cells run serially, on a few workers, or on one
/// worker per CPU. This is the property the committed
/// `results/ablation_chaos.txt` (and the CI chaos-smoke double-run) rests
/// on.
#[test]
fn campaign_report_is_thread_count_invariant() {
    let outcomes: Vec<_> = [1usize, 3, 0]
        .iter()
        .map(|&threads| {
            let mut cfg = ChaosConfig::quick();
            cfg.threads = threads;
            chaos::run(&cfg)
        })
        .collect();
    let fingerprint = |o: &chaos::ChaosOutcome| {
        o.cells
            .iter()
            .map(|c| {
                format!(
                    "{}:{}:{:?}:{}",
                    c.idx, c.digest, c.violations, c.faults.retries
                )
            })
            .collect::<Vec<_>>()
    };
    let base = fingerprint(&outcomes[0]);
    for o in &outcomes[1..] {
        assert_eq!(fingerprint(o), base);
    }
}

/// A cell's outcome does not depend on the campaign around it: running a
/// drawn cell directly reproduces the digest the full campaign recorded
/// for that cell.
#[test]
fn cells_are_independent_of_campaign_context() {
    let cfg = ChaosConfig::quick();
    let campaign = chaos::run(&cfg);
    let cells = chaos::draw_cells(&cfg);
    for idx in [2usize, 5] {
        let alone = chaos::run_cell(&cells[idx]);
        assert_eq!(alone.digest, campaign.cells[idx].digest, "cell {idx}");
        assert_eq!(alone.violations, campaign.cells[idx].violations);
    }
}

/// The quick fixed-seed campaign — the CI smoke gate — holds every
/// invariant oracle and produces no minimized reproducer.
#[test]
fn quick_campaign_holds_every_invariant() {
    let out = chaos::run(&ChaosConfig::quick());
    assert_eq!(out.failing_cells(), 0, "{:?}", out.cells);
    assert!(out.minimized.is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every schedule the campaign can draw — any seed, any cell index,
    /// any node population — passes `FaultPlan::validate`.
    #[test]
    fn drawn_schedules_always_validate(
        seed in any::<u64>(),
        idx in 0u32..256,
        n_nodes in 2u32..17,
    ) {
        let plan = chaos::draw_plan(seed, idx, n_nodes);
        prop_assert!(plan.validate().is_ok(), "{plan:?}");
    }

    /// Shrinking a drawn schedule against a synthetic predicate yields a
    /// plan that still validates, still fails, and is no larger — and when
    /// the predicate needs only one element class, everything else is
    /// stripped.
    #[test]
    fn shrinker_strips_everything_the_failure_does_not_need(
        seed in any::<u64>(),
        idx in 0u32..64,
    ) {
        let plan = chaos::draw_plan(seed, idx, 8)
            .corrupt_window(SimTime::ZERO, SimTime::from_millis(3), 0.1);
        prop_assert!(plan.validate().is_ok());
        // Synthetic failure: the plan "fails" while any corruption window
        // survives. The guilty window is irreducible; all else must go.
        let shrunk = chaos::shrink_plan(&plan, |p| !p.corrupt_windows.is_empty());
        prop_assert!(shrunk.validate().is_ok(), "{shrunk:?}");
        prop_assert_eq!(shrunk.corrupt_windows.len(), 1, "{:?}", shrunk);
        prop_assert!(shrunk.node_crashes.is_empty(), "{shrunk:?}");
        prop_assert!(shrunk.node_restarts.is_empty(), "{shrunk:?}");
        prop_assert!(shrunk.partitions.is_empty(), "{shrunk:?}");
        prop_assert!(shrunk.drop_windows.is_empty(), "{shrunk:?}");
        prop_assert!(plan_elements(&shrunk) <= plan_elements(&plan));
    }

    /// Shrinking never strands a reboot without its crash: for any drawn
    /// schedule and a predicate keyed on an arbitrary surviving element,
    /// every intermediate acceptance re-validates, so the final plan does
    /// too.
    #[test]
    fn shrinker_output_always_validates(
        seed in any::<u64>(),
        idx in 0u32..64,
        keep in 0u8..4,
    ) {
        let plan = chaos::draw_plan(seed, idx, 8);
        let shrunk = chaos::shrink_plan(&plan, |p| match keep {
            0 => !p.node_crashes.is_empty(),
            1 => !p.partitions.is_empty(),
            2 => !p.drop_windows.is_empty(),
            _ => plan_elements(p) > 1,
        });
        prop_assert!(shrunk.validate().is_ok(), "{shrunk:?}");
        prop_assert!(plan_elements(&shrunk) <= plan_elements(&plan));
    }
}
