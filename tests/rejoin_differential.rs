//! Differential tests of transient-fault recovery: a crash→rejoin cycle
//! ends in exactly the state the unfaulted run reaches (every operation
//! applied once, full availability, original topology at fallback depth
//! 0), the envelope checksum catches every corrupted frame the network
//! delivers — under plain requests and under coalescing — and the whole
//! stack composes with the PR 4 boundary scenarios whose victims static
//! route-around provably cannot survive.

use proptest::prelude::*;
use vt_armci::{
    Action, CoalesceConfig, FaultPlan, MembershipConfig, Op, Rank, Report, RuntimeConfig,
    ScriptProgram, SimTime, Simulation,
};
use vt_core::TopologyKind;

/// A boundary scenario: the topology, population and victim node of the
/// PR 4 escape-critical pins.
#[derive(Clone, Copy)]
struct Scenario {
    kind: TopologyKind,
    nodes: u32,
    ppn: u32,
    victim: u32,
}

/// MFCG 5x5 grid, 23 populated: node 2 is the sole escape hop between
/// (3,0) and (2,4).
const MFCG_BOUNDARY: Scenario = Scenario {
    kind: TopologyKind::Mfcg,
    nodes: 23,
    ppn: 2,
    victim: 2,
};

/// CFCG 4x3x3 grid, 29 populated: node 24 is the sole in-slice forwarder
/// toward (0,1,2).
const CFCG_BOUNDARY: Scenario = Scenario {
    kind: TopologyKind::Cfcg,
    nodes: 29,
    ppn: 2,
    victim: 24,
};

fn config(s: &Scenario, coalesce: bool) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(s.nodes * s.ppn, s.kind);
    cfg.procs_per_node = s.ppn;
    cfg.membership = MembershipConfig::on();
    if coalesce {
        cfg.coalesce = CoalesceConfig::on();
    }
    cfg
}

/// The hot-spot workload split around a long keep-alive compute, so the
/// run is still in progress when the crash, the repair epoch, the reboot
/// and the grow-back epoch all land.
fn run(s: &Scenario, plan: &FaultPlan, coalesce: bool) -> Report {
    let hot = Rank((s.nodes - 1) * s.ppn);
    Simulation::build_with_faults(
        config(s, coalesce),
        move |rank| {
            let mut script = Vec::new();
            if rank != hot {
                script.push(Action::Compute(SimTime::from_micros(
                    2 + u64::from(rank.0 % 7),
                )));
                for _ in 0..2 {
                    script.push(Action::Op(Op::fetch_add(hot, 1)));
                }
                script.push(Action::Compute(SimTime::from_millis(40)));
                for _ in 0..2 {
                    script.push(Action::Op(Op::fetch_add(hot, 1)));
                }
            }
            ScriptProgram::new(script)
        },
        plan,
    )
    .with_repair_certifier(vt_analyze::certify_repair)
    .run()
    .expect("membership runs must repair or diagnose, never hang")
}

fn crash_rejoin_plan(s: &Scenario) -> FaultPlan {
    FaultPlan::new()
        .crash_node(SimTime::from_micros(50), s.victim)
        .restart_node(SimTime::from_millis(15), s.victim)
}

/// Asserts the faulted run ended in the unfaulted run's final state: same
/// hot-counter value, same completed-op count, nothing lost, nothing
/// failed, nothing leaked — and the view grew back to the original kind.
fn assert_rejoin_matches_unfaulted(s: &Scenario, coalesce: bool) {
    let unfaulted = run(s, &FaultPlan::default(), coalesce);
    let faulted = run(s, &crash_rejoin_plan(s), coalesce);

    assert!(faulted.failures.is_empty(), "{:?}", faulted.failures);
    assert!(faulted.lost_ranks.is_empty(), "{:?}", faulted.lost_ranks);
    assert_eq!(faulted.availability(), 1.0);
    assert_eq!(faulted.credit_leaks, 0);
    assert_eq!(faulted.fetch_finals, unfaulted.fetch_finals);
    assert_eq!(faulted.metrics.total_ops(), unfaulted.metrics.total_ops());
    // Crash repair plus grow-back, never a fallback rung: the rejoined
    // view is the original kind re-packed over the full population.
    assert_eq!(faulted.repair.rejoins_committed, 1, "{:?}", faulted.repair);
    assert_eq!(faulted.repair.epoch_bumps, 2, "{:?}", faulted.repair);
    assert_eq!(faulted.repair.fallback_depth, 0, "{:?}", faulted.repair);
    // The unfaulted reference saw no membership activity at all.
    assert_eq!(unfaulted.repair.epoch_bumps, 0);
}

#[test]
fn mfcg_boundary_crash_rejoin_matches_unfaulted_final_state() {
    assert_rejoin_matches_unfaulted(&MFCG_BOUNDARY, false);
}

#[test]
fn cfcg_boundary_crash_rejoin_matches_unfaulted_final_state() {
    assert_rejoin_matches_unfaulted(&CFCG_BOUNDARY, false);
}

/// The rejoin protocol composes with request coalescing: envelopes carry
/// the retransmissions and the grow-back traffic, and the final state
/// still matches the unfaulted run.
#[test]
fn crash_rejoin_composes_with_coalescing() {
    assert_rejoin_matches_unfaulted(&MFCG_BOUNDARY, true);
}

/// Runs one chaos-campaign cell's workload (`vtsim chaos`): every rank but
/// 0 issues 12 fetch-adds at rank 0, split around a 30 ms keep-alive
/// compute, at 4 ranks per node with membership repair on. `cell_seed` is
/// the cell's runtime seed, `campaign ^ (cell << 32)`.
fn run_chaos_cell(kind: TopologyKind, n_procs: u32, cell_seed: u64, plan: &FaultPlan) -> Report {
    let mut cfg = RuntimeConfig::new(n_procs, kind);
    cfg.seed = cell_seed;
    cfg.membership = MembershipConfig::on();
    Simulation::build_with_faults(
        cfg,
        move |rank| {
            let mut script = Vec::new();
            if rank != Rank(0) {
                script.push(Action::Compute(SimTime::from_micros(
                    2 + u64::from(rank.0 % 7),
                )));
                for _ in 0..CHAOS_OPS / 2 {
                    script.push(Action::Op(Op::fetch_add(Rank(0), 1)));
                }
                script.push(Action::Compute(SimTime::from_millis(30)));
                for _ in 0..CHAOS_OPS - CHAOS_OPS / 2 {
                    script.push(Action::Op(Op::fetch_add(Rank(0), 1)));
                }
            }
            ScriptProgram::new(script)
        },
        plan,
    )
    .with_repair_certifier(vt_analyze::certify_repair)
    .run()
    .expect("the reproducer completes")
}

/// Fetch-adds each rank of a chaos cell issues.
const CHAOS_OPS: u64 = 12;

/// Asserts a chaos cell held the campaign's oracles: no credit stranded,
/// every completed operation applied exactly once, and every rank but the
/// lost ones finished all of its operations.
fn assert_cell_holds(report: &Report) {
    assert_eq!(report.credit_leaks, 0, "stranded credits");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.fetch_finals[0], report.metrics.total_ops() as i64);
    for (rank, stats) in report.metrics.per_rank.iter().enumerate().skip(1) {
        if !report.lost_ranks.contains(&(rank as u32)) {
            assert_eq!(stats.ops, CHAOS_OPS, "rank {rank}");
        }
    }
}

/// The shrunk chaos reproducer of campaign seed 7, cell 22 (MFCG, 32 ranks
/// at 4 per node, 12 fetch-adds per rank split around a 30 ms compute):
/// a corruption window from 123 µs to 1.986 ms forces retransmissions,
/// then node 5 crashes at 8.040 ms and reboots at 15.708 ms. Its ranks
/// still held superseded attempts of operations that had completed before
/// the crash; the reboot must not complete those operations again
/// (completing ranks 20, 22 and 23 twice gives 375 completions against a
/// counter of 372).
#[test]
fn reboot_completes_no_operation_twice() {
    let plan = FaultPlan::new()
        .crash_node(SimTime::from_micros(8_040), 5)
        .restart_node(SimTime::from_micros(15_708), 5)
        .corrupt_window(
            SimTime::from_micros(123),
            SimTime::from_micros(1_986),
            0.158_408_312_218_090_4,
        );
    let report = run_chaos_cell(TopologyKind::Mfcg, 32, 7 ^ (22 << 32), &plan);

    assert!(report.faults.retries > 0, "the corruption forces retries");
    assert!(report.lost_ranks.is_empty(), "{:?}", report.lost_ranks);
    assert_cell_holds(&report);
}

/// Campaign seed 3, cell 10, shrunk (MFCG, 16 ranks): node 2 crashes at
/// 124 µs while its CHT is forwarding, so the copy in service holds the
/// downstream credit it took at service start. It reboots at 9.145 ms. The
/// crash must return that credit along with the copy's upstream buffer.
#[test]
fn crash_in_service_returns_the_held_downstream_credit() {
    let plan = FaultPlan::new()
        .crash_node(SimTime::from_micros(124), 2)
        .restart_node(SimTime::from_micros(9_145), 2);
    let report = run_chaos_cell(TopologyKind::Mfcg, 16, 3 ^ (10 << 32), &plan);
    assert_cell_holds(&report);
}

/// Campaign seed 7, cell 2095, shrunk (Hypercube, 32 ranks): node 2
/// crashes at 319 µs with requests already accepted by the wire towards
/// it, and reboots at 6.376 ms; node 1 crashes for good at 6.327 ms. A
/// copy that reached a node before its crash dies with it: its upstream
/// buffer comes back by reclaim, and it is never queued at the dead CHT.
#[test]
fn copy_landing_at_a_crashed_node_is_reclaimed() {
    let plan = FaultPlan::new()
        .crash_node(SimTime::from_micros(6_327), 1)
        .crash_node(SimTime::from_micros(319), 2)
        .restart_node(SimTime::from_micros(6_376), 2);
    let report = run_chaos_cell(TopologyKind::Hypercube, 32, 7 ^ (2095 << 32), &plan);
    assert_eq!(report.lost_ranks, vec![4, 5, 6, 7]);
    assert_cell_holds(&report);
}

/// Campaign seed 3, cell 2823, shrunk (Hypercube, 32 ranks): node 4
/// crashes at 305 µs mid-service and reboots at 9.792 ms. The rebooted CHT
/// must start idle; a CHT left busy by the crash never serves again, and
/// every later arrival strands its upstream credit.
#[test]
fn rebooted_cht_serves_again() {
    let plan = FaultPlan::new()
        .crash_node(SimTime::from_micros(305), 4)
        .restart_node(SimTime::from_micros(9_792), 4);
    let report = run_chaos_cell(TopologyKind::Hypercube, 32, 3 ^ (2823 << 32), &plan);
    assert!(report.lost_ranks.is_empty(), "{:?}", report.lost_ranks);
    assert_cell_holds(&report);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every corruption is detected or harmless: whatever the corruption
    /// probability, window and seed, the engine's checksum counter equals
    /// the network's corruption counter exactly, effects stay
    /// exactly-once, and any terminal failure carries a diagnostic.
    #[test]
    fn every_corruption_is_detected_or_harmless(
        seed in any::<u64>(),
        p_pct in 1u32..31,
        until_us in 500u64..8_000,
        coalesce in any::<bool>(),
    ) {
        let mut cfg = RuntimeConfig::new(16, TopologyKind::Mfcg);
        cfg.procs_per_node = 2;
        cfg.seed = seed;
        if coalesce {
            cfg.coalesce = CoalesceConfig::on();
        }
        let plan = FaultPlan::new().corrupt_window(
            SimTime::ZERO,
            SimTime::from_micros(until_us),
            f64::from(p_pct) / 100.0,
        );
        let ops_per_rank = 4u32;
        let report = Simulation::build_with_faults(
            cfg,
            move |rank| {
                let mut script = Vec::new();
                if rank != Rank(0) {
                    script.push(Action::Compute(SimTime::from_micros(
                        1 + u64::from(rank.0 % 5),
                    )));
                    for _ in 0..ops_per_rank {
                        script.push(Action::Op(Op::fetch_add(Rank(0), 1)));
                    }
                }
                ScriptProgram::new(script)
            },
            &plan,
        )
        .run()
        .expect("corruption-only runs must terminate");

        // The checksum oracle: every corrupt frame the network delivered
        // was caught at exactly one verification site.
        prop_assert_eq!(report.faults.corrupt_detected, report.net.corrupted);
        // Exactly-once effects: the hot counter covers every op that
        // completed at its origin and never exceeds what was issued.
        let issued = i64::from(16 - 1) * i64::from(ops_per_rank);
        let applied = report.fetch_finals[0];
        prop_assert!(applied >= report.metrics.total_ops() as i64);
        prop_assert!(applied <= issued, "{} applied of {} issued", applied, issued);
        // No crash in the plan: a clean run applies everything.
        if report.failures.is_empty() {
            prop_assert_eq!(applied, issued);
        }
        for err in &report.failures {
            prop_assert!(err.to_string().contains("timed out"), "{}", err);
        }
        prop_assert_eq!(report.credit_leaks, 0);
    }

    /// Corruption replays deterministically: the same seed and window
    /// yields the same detection count, retry count and final counters.
    #[test]
    fn corruption_recovery_replays_identically(
        seed in any::<u64>(),
        p_pct in 5u32..26,
    ) {
        let build = || {
            let mut cfg = RuntimeConfig::new(12, TopologyKind::Fcg);
            cfg.procs_per_node = 2;
            cfg.seed = seed;
            let plan = FaultPlan::new().corrupt_window(
                SimTime::ZERO,
                SimTime::from_millis(4),
                f64::from(p_pct) / 100.0,
            );
            Simulation::build_with_faults(
                cfg,
                |rank| {
                    let mut script = Vec::new();
                    if rank != Rank(0) {
                        for _ in 0..3 {
                            script.push(Action::Op(Op::fetch_add(Rank(0), 1)));
                        }
                    }
                    ScriptProgram::new(script)
                },
                &plan,
            )
            .run()
            .expect("corruption-only runs must terminate")
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.finish_time, b.finish_time);
        prop_assert_eq!(a.net, b.net);
        prop_assert_eq!(a.faults, b.faults);
        prop_assert_eq!(a.fetch_finals.clone(), b.fetch_finals.clone());
    }
}
