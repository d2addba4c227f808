//! Differential tests between the static verifier and the runtime it
//! certifies: a configuration `vt-analyze` certifies must actually
//! quiesce (terminate with all credits accounted) when the engine runs a
//! random workload under the certified fault plan, and every cycle
//! witness the analyzer emits must be a real cycle of the dependency
//! graph it was extracted from — cross-checked against an independent
//! Kahn topological sort written in this test.

use proptest::prelude::*;
use vt_analyze::depgraph;
use vt_analyze::AnalyzeConfig;
use vt_armci::{Action, FaultPlan, Op, Rank, RuntimeConfig, ScriptProgram, Simulation};
use vt_core::{DependencyGraph, TopologyKind};
use vt_simnet::SimTime;

/// One random workload over one random configuration.
#[derive(Clone, Debug)]
struct Spec {
    kind: TopologyKind,
    n_procs: u32,
    ppn: u32,
    ops_per_rank: u32,
    op_mix: u8,
    coalesce: bool,
    crash: Option<(u32, u64)>,
}

fn spec() -> impl Strategy<Value = Spec> {
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
        any::<bool>(),
        any::<bool>(),
        (any::<u32>(), 50u64..400),
    )
        .prop_map(
            |(kind, n_procs, ppn, ops_per_rank, op_mix, coalesce, do_crash, crash)| Spec {
                kind,
                n_procs,
                ppn,
                ops_per_rank,
                op_mix,
                coalesce,
                crash: do_crash.then_some(crash),
            },
        )
}

fn nodes_of(spec: &Spec) -> u32 {
    spec.n_procs.div_ceil(spec.ppn)
}

/// Hypercube only supports power-of-two node counts; snap down.
fn normalise(mut spec: Spec) -> Spec {
    if spec.kind == TopologyKind::Hypercube {
        let nodes = nodes_of(&spec);
        let pow2 = 1u32 << (31 - nodes.leading_zeros());
        spec.n_procs = pow2 * spec.ppn;
    }
    spec
}

fn config_of(spec: &Spec) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(spec.n_procs, spec.kind);
    cfg.procs_per_node = spec.ppn;
    cfg.retry.timeout = SimTime::from_micros(200);
    if spec.coalesce {
        cfg.coalesce = vt_armci::CoalesceConfig::on();
    }
    cfg
}

fn plan_of(spec: &Spec) -> FaultPlan {
    let nodes = nodes_of(spec);
    match spec.crash {
        Some((pick, at_us)) if nodes > 1 => {
            FaultPlan::new().crash_node(SimTime::from_micros(at_us), 1 + pick % (nodes - 1))
        }
        _ => FaultPlan::default(),
    }
}

fn program_of(spec: &Spec, rank: Rank) -> ScriptProgram {
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

/// Independent cycle detector: Kahn's algorithm over the analyzer's
/// dependency graph, sharing no code with `DiGraph::find_cycle`.
fn kahn_has_cycle(dg: &DependencyGraph) -> bool {
    let n = dg.graph().len();
    let mut indeg = vec![0usize; n];
    for v in 0..n as u32 {
        for &s in dg.graph().successors(v) {
            indeg[s as usize] += 1;
        }
    }
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut removed = 0usize;
    while let Some(v) = queue.pop() {
        removed += 1;
        for &s in dg.graph().successors(v) {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                queue.push(s);
            }
        }
    }
    removed != n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Whatever vt-analyze certifies, the engine finishes: the run
    /// quiesces (no hang diagnosed), and at quiescence no live sender is
    /// still holding a buffer credit — the runtime counterpart of the
    /// model checker's zero-leak property. Fault-free configurations must
    /// always be certified; crashed ones may be refused (escape-critical
    /// victims in partial packings), and a refusal is only accepted when
    /// a crash was actually planned.
    #[test]
    fn certified_configs_quiesce(spec in spec()) {
        let spec = normalise(spec);
        let cfg = config_of(&spec);
        let plan = plan_of(&spec);
        match vt_analyze::certify(&cfg, Some(&plan)) {
            Err(report) => {
                prop_assert!(
                    !plan.node_crashes.is_empty(),
                    "fault-free configuration refused:\n{}", report
                );
            }
            Ok(()) => {
                let sim = Simulation::build_with_faults(
                    cfg, |rank| program_of(&spec, rank), &plan,
                );
                let report = sim.run().expect("certified run must quiesce");
                prop_assert_eq!(
                    report.credit_leaks, 0,
                    "live sender still holds credits at quiescence"
                );
            }
        }
    }

    /// Cycle witnesses are real: the analyzer reports a cycle exactly when
    /// an independent Kahn sort finds one, and the witness it emits is a
    /// closed walk whose every step is an arc of the graph. Routers are a
    /// random mix of the engine's own forwarding (acyclic) and a rotated
    /// ring (cyclic for any n >= 3 once pairs wrap around).
    #[test]
    fn cycle_witnesses_are_real_cycles(
        n in 3u32..24,
        step_pick in any::<u32>(),
        miswire in any::<bool>(),
    ) {
        let topo = TopologyKind::Fcg.build(n);
        let dg = if miswire {
            // Rotate by a step coprime with n so every pair terminates.
            let mut step = 1 + step_pick % (n - 1);
            while gcd(step, n) != 1 {
                step -= 1;
            }
            let mut dg = DependencyGraph::new(&topo, 1);
            dg.add_routes(|src, dst| {
                let mut route = Vec::new();
                let mut cur = src;
                while cur != dst {
                    cur = (cur + step) % n;
                    route.push((cur, 0u8));
                }
                Some(route)
            });
            dg
        } else {
            depgraph::walk(&topo, &[], false).dg
        };
        let witness = depgraph::cycle_witness(&dg);
        prop_assert_eq!(
            witness.is_some(),
            kahn_has_cycle(&dg),
            "witness presence must agree with an independent toposort"
        );
        if let Some(w) = witness {
            prop_assert!(miswire, "the engine's own routing must stay acyclic");
            prop_assert_eq!(w.hops.first(), w.hops.last(), "walk must close");
            prop_assert!(w.len() >= 2);
            let nch = dg.channels().len() as u32;
            for pair in w.hops.windows(2) {
                let ((f1, t1), c1) = pair[0];
                let ((f2, t2), c2) = pair[1];
                prop_assert_eq!(t1, f2, "consecutive wait-for hops must chain");
                let v1 = u32::from(c1) * nch
                    + dg.channels().iter().position(|&e| e == (f1, t1)).unwrap() as u32;
                let v2 = u32::from(c2) * nch
                    + dg.channels().iter().position(|&e| e == (f2, t2)).unwrap() as u32;
                prop_assert!(
                    dg.graph().successors(v1).contains(&v2),
                    "witness step ({f1}->{t1} c{c1}) -> ({f2}->{t2} c{c2}) is not a graph arc"
                );
            }
        }
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The analyzer's human reports (model checker off) at sizes well past
/// the verification matrix, byte-compared against
/// `tests/golden/analyze_scale.txt`: CFCG over 250 nodes with two crashes
/// and coalescing, MFCG over 211 and a 256-node hypercube with one crash
/// each, and a 97-node FCG with coalescing. Channel and arc counts, live
/// pairs, the depth witness and the refold count all appear in the text.
/// The snapshot is an oracle, not a regenerated artefact: no environment
/// variable rewrites it.
#[test]
fn at_scale_reports_match_the_golden() {
    let configs: [(TopologyKind, u32, &[u32], bool); 4] = [
        (TopologyKind::Cfcg, 250, &[17, 130], true),
        (TopologyKind::Mfcg, 211, &[5], false),
        (TopologyKind::Hypercube, 256, &[3], false),
        (TopologyKind::Fcg, 97, &[], true),
    ];
    let reports: Vec<String> = configs
        .iter()
        .map(|&(kind, nodes, dead, coalescing)| {
            let mut cfg = AnalyzeConfig::new(kind, nodes);
            cfg.dead_sequence = dead.to_vec();
            cfg.coalescing = coalescing;
            cfg.model_check = false;
            vt_analyze::analyze(&cfg).expect("well-posed").render()
        })
        .collect();
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/analyze_scale.txt"
    );
    let expected = std::fs::read_to_string(golden).expect("golden snapshot present");
    assert_eq!(reports.join("\n"), expected);
}
