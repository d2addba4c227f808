//! Property-based tests of the fault-injection layer and the self-healing
//! runtime: deterministic replay under identical plans, zero cost when the
//! plan is empty, guaranteed termination (complete or diagnose, never
//! hang) under arbitrary fault schedules, and acyclicity of the
//! escape-class route-around order for arbitrary dead sets.

use proptest::prelude::*;
use vt_armci::{Action, FaultPlan, Op, Rank, Report, RuntimeConfig, ScriptProgram, Simulation};
use vt_core::{ldf, DependencyGraph, TopologyKind, VirtualTopology};
use vt_simnet::SimTime;

/// One random faulted workload: a hot-spot fetch-&-add/accumulate mix over
/// a random topology plus a random fault schedule.
#[derive(Clone, Debug)]
struct FaultSpec {
    kind: TopologyKind,
    n_procs: u32,
    ppn: u32,
    ops_per_rank: u32,
    op_mix: u8,
    /// Fault toggles: bit 0 = crash a node, bit 1 = drop window, bit 2 =
    /// degrade a link (the vendored proptest has no `option::of`).
    fault_mask: u8,
    crash_pick: (u32, u64),
    drop: (u64, u64, u32),
    degrade: (u32, u64),
}

fn fault_spec() -> impl Strategy<Value = FaultSpec> {
    (
        prop_oneof![
            Just(TopologyKind::Fcg),
            Just(TopologyKind::Mfcg),
            Just(TopologyKind::Cfcg),
            Just(TopologyKind::Hypercube),
        ],
        2u32..48,
        1u32..4,
        1u32..5,
        any::<u8>(),
        any::<u8>(),
        (any::<u32>(), 0u64..400),
        (0u64..200, 1u64..400, 0u32..101),
        (any::<u32>(), 0u64..300),
    )
        .prop_map(
            |(kind, n_procs, ppn, ops_per_rank, op_mix, fault_mask, crash_pick, drop, degrade)| {
                FaultSpec {
                    kind,
                    n_procs,
                    ppn,
                    ops_per_rank,
                    op_mix,
                    fault_mask,
                    crash_pick,
                    drop,
                    degrade,
                }
            },
        )
}

fn nodes_of(spec: &FaultSpec) -> u32 {
    spec.n_procs.div_ceil(spec.ppn)
}

/// Hypercube only supports power-of-two node counts; snap the process
/// count down so every generated spec is valid.
fn normalise(mut spec: FaultSpec) -> FaultSpec {
    if spec.kind == TopologyKind::Hypercube {
        let nodes = nodes_of(&spec);
        let pow2 = 1u32 << (31 - nodes.leading_zeros());
        spec.n_procs = pow2 * spec.ppn;
    }
    spec
}

fn plan_of(spec: &FaultSpec) -> FaultPlan {
    let nodes = nodes_of(spec);
    let mut plan = FaultPlan::new();
    if spec.fault_mask & 1 != 0 && nodes > 1 {
        // Never crash node 0: the hot target's death makes every op fail,
        // which is legal but uninteresting for most cases.
        let (pick, at_us) = spec.crash_pick;
        plan = plan.crash_node(SimTime::from_micros(at_us), 1 + pick % (nodes - 1));
    }
    if spec.fault_mask & 2 != 0 {
        let (from_us, len_us, pct) = spec.drop;
        plan = plan.drop_window(
            SimTime::from_micros(from_us),
            SimTime::from_micros(from_us + len_us),
            f64::from(pct) / 100.0,
        );
    }
    if spec.fault_mask & 4 != 0 {
        let (pick, at_us) = spec.degrade;
        plan = plan.degrade_link(
            pick % nodes,
            (pick % 6) as u8,
            SimTime::from_micros(at_us),
            None,
            4.0,
        );
    }
    plan
}

fn config_of(spec: &FaultSpec) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(spec.n_procs, spec.kind);
    cfg.procs_per_node = spec.ppn;
    // Short timeouts keep retry rounds inside test budgets.
    cfg.retry.timeout = SimTime::from_micros(200);
    cfg
}

fn program_of(spec: &FaultSpec, rank: Rank) -> ScriptProgram {
    let mut actions = vec![Action::Compute(SimTime::from_micros(
        1 + u64::from(rank.0 % 5),
    ))];
    for i in 0..spec.ops_per_rank {
        let target = Rank((u32::from(spec.op_mix) + rank.0 * 13 + i * 5) % spec.n_procs);
        actions.push(Action::Op(match (spec.op_mix.wrapping_add(i as u8)) % 3 {
            0 => Op::fetch_add(Rank(0), 1),
            1 => Op::acc(target, 512),
            _ => Op::put_v(target, 2, 256),
        }));
    }
    ScriptProgram::new(actions)
}

fn run_spec(spec: &FaultSpec, plan: &FaultPlan) -> Report {
    let sim = Simulation::build_with_faults(config_of(spec), |rank| program_of(spec, rank), plan);
    sim.run()
        .expect("faulted runs must terminate: complete or diagnose, never hang")
}

/// The same run built without any fault layer at all.
fn run_plain(spec: &FaultSpec) -> Report {
    Simulation::build(config_of(spec), |rank| program_of(spec, rank))
        .run()
        .expect("plain runs must complete")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The same (workload, fault plan) pair replays bit-identically.
    #[test]
    fn identical_plans_replay_identically(spec in fault_spec()) {
        let spec = normalise(spec);
        let plan = plan_of(&spec);
        let a = run_spec(&spec, &plan);
        let b = run_spec(&spec, &plan);
        prop_assert_eq!(a.finish_time, b.finish_time);
        prop_assert_eq!(a.net, b.net);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.faults, b.faults);
        prop_assert_eq!(a.lost_ranks.clone(), b.lost_ranks.clone());
        prop_assert_eq!(a.failures.len(), b.failures.len());
        prop_assert_eq!(
            a.metrics.mean_latency_by_rank_us(),
            b.metrics.mean_latency_by_rank_us()
        );
    }

    /// An empty fault plan is free: the run is indistinguishable from one
    /// without the fault layer, down to the event count.
    #[test]
    fn empty_plan_changes_nothing(spec in fault_spec()) {
        let spec = normalise(spec);
        let faulted = run_spec(&spec, &FaultPlan::default());
        let plain = run_plain(&spec);
        prop_assert_eq!(faulted.finish_time, plain.finish_time);
        prop_assert_eq!(faulted.net, plain.net);
        prop_assert_eq!(faulted.events, plain.events);
        prop_assert_eq!(faulted.faults, vt_armci::FaultStats::default());
        prop_assert!(faulted.failures.is_empty());
        prop_assert_eq!(faulted.availability(), 1.0);
    }

    /// Whatever the fault schedule, the run terminates and accounts for
    /// every rank: finished, lost with its node, or failed with a
    /// diagnostic. No silent loss, no hangs.
    #[test]
    fn any_fault_schedule_completes_or_diagnoses(spec in fault_spec()) {
        let spec = normalise(spec);
        let plan = plan_of(&spec);
        let report = run_spec(&spec, &plan);
        prop_assert!(report.availability() >= 0.0 && report.availability() <= 1.0);
        // Lost ranks all live on crashed nodes.
        if let Some(at) = plan.node_crashes.first() {
            for &r in &report.lost_ranks {
                prop_assert_eq!(r / spec.ppn, at.node);
            }
        } else {
            prop_assert!(report.lost_ranks.is_empty());
        }
        // Failures carry per-op diagnostics, and each failed op counted.
        prop_assert_eq!(report.faults.failed_ops, report.failures.len() as u64);
        for err in &report.failures {
            let msg = err.to_string();
            prop_assert!(
                msg.contains("unreachable") || msg.contains("timed out"),
                "undiagnostic failure: {}", msg
            );
        }
        // Completed work never exceeds what was issued.
        let issued = u64::from(spec.n_procs) * u64::from(spec.ops_per_rank);
        prop_assert!(report.metrics.total_ops() <= issued);
        // Without faults injected before the end of the run, everything
        // completes (drop p = 0 windows and degraded links lose nothing).
        if plan.is_empty() {
            prop_assert_eq!(report.metrics.total_ops(), issued);
        }
    }

    /// The escape-class route-around order stays acyclic for any dead set:
    /// classed routes between survivors never create a buffer-dependency
    /// cycle, so the recovery path can never deadlock on credits.
    #[test]
    fn route_around_keeps_buffer_dependencies_acyclic(
        kind_pick in 0u8..3,
        nodes_pick in 0u8..3,
        dead_seed in any::<u64>(),
        dead_count in 1usize..4,
    ) {
        let kind = [TopologyKind::Mfcg, TopologyKind::Cfcg, TopologyKind::Hypercube]
            [kind_pick as usize];
        let n = match kind {
            TopologyKind::Mfcg => [16u32, 25, 64][nodes_pick as usize],
            TopologyKind::Cfcg => [8u32, 27, 64][nodes_pick as usize],
            _ => [8u32, 16, 32][nodes_pick as usize],
        };
        prop_assert!(kind.supports(n));
        let topo = kind.build(n);
        let shape = VirtualTopology::shape(&topo).clone();
        let ndims = shape.dims().len() as u8;
        // A random dead set (never the whole machine).
        let mut dead: Vec<u32> = Vec::new();
        let mut state = dead_seed;
        while dead.len() < dead_count.min(n as usize - 2) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (state >> 33) as u32 % n;
            if !dead.contains(&v) {
                dead.push(v);
            }
        }
        dead.sort_unstable();
        let classes = ndims.max(1);
        let mut g = DependencyGraph::new(&topo, classes);
        g.add_routes(|src, dst| {
            if dead.binary_search(&src).is_ok() || dead.binary_search(&dst).is_ok() {
                return None;
            }
            ldf::route_avoiding_classed(&shape, n, src, dst, &dead)
        });
        prop_assert!(
            g.is_deadlock_free(),
            "{}/{} route-around past {:?} creates a credit cycle",
            kind.name(), n, dead
        );
    }
}
