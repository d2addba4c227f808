//! Differential tests of request coalescing: the same workload run with
//! coalescing on and off must be semantically indistinguishable — identical
//! final fetch-&-add ground truth, per-rank operation accounting and CHT
//! service/forward totals — with only message and timing counters free to
//! differ. Coalesced runs must additionally reproduce bit-identically and
//! compose with the fault-recovery machinery.

use proptest::prelude::*;
use vt_armci::{
    Action, CoalesceConfig, FaultPlan, FaultStats, Op, Rank, Report, RuntimeConfig, ScriptProgram,
    SimTime, Simulation,
};
use vt_core::TopologyKind;

/// A compact encoding of one random workload plus a coalescing budget.
#[derive(Clone, Debug)]
struct DiffSpec {
    kind: TopologyKind,
    n_procs: u32,
    ppn: u32,
    buffers: u32,
    ops_per_rank: u32,
    op_mix: u8,
    target_seed: u32,
    /// Index into [`BUFFER_BYTES_CHOICES`].
    buffer_bytes_pick: u8,
}

/// Request-buffer sizes exercised, which bound an envelope: far below one
/// request pair, mid-size, and the full 16-KiB default.
const BUFFER_BYTES_CHOICES: [u64; 3] = [256, 1024, 16 * 1024];

fn diff_strategy() -> impl Strategy<Value = DiffSpec> {
    (
        prop_oneof![
            Just(TopologyKind::Fcg),
            Just(TopologyKind::Mfcg),
            Just(TopologyKind::Cfcg),
            Just(TopologyKind::Hypercube),
        ],
        4u32..60,
        1u32..5,
        1u32..4,
        1u32..7,
        any::<u8>(),
        any::<u32>(),
        0u8..3,
    )
        .prop_map(
            |(
                kind,
                n_procs,
                ppn,
                buffers,
                ops_per_rank,
                op_mix,
                target_seed,
                buffer_bytes_pick,
            )| {
                let mut spec = DiffSpec {
                    kind,
                    n_procs,
                    ppn,
                    buffers,
                    ops_per_rank,
                    op_mix,
                    target_seed,
                    buffer_bytes_pick,
                };
                // Hypercubes only exist over power-of-two populations; snap
                // the process count down so every generated spec is valid.
                if spec.kind == TopologyKind::Hypercube {
                    let nodes = spec.n_procs.div_ceil(spec.ppn);
                    let pow2 = 1u32 << (31 - nodes.leading_zeros());
                    spec.n_procs = pow2 * spec.ppn;
                }
                spec
            },
        )
}

/// Half the mix hammers rank 0 with fetch-&-adds (the hot-spot pattern
/// coalescing exists for); the rest spreads CHT-path traffic around.
fn build_op(spec: &DiffSpec, rank: u32, i: u32) -> Op {
    let target = Rank((spec.target_seed.wrapping_add(rank * 31 + i * 7)) % spec.n_procs);
    match (spec.op_mix.wrapping_add(i as u8)) % 6 {
        0 | 3 | 5 => Op::fetch_add(Rank(0), 1),
        1 => Op::put_v(target, 1 + i % 4, 256),
        2 => Op::acc(target, 512),
        _ => Op::get_v(target, 1 + i % 4, 256),
    }
}

fn run_spec(spec: &DiffSpec, coalesce: bool) -> Report {
    let mut cfg = RuntimeConfig::new(spec.n_procs, spec.kind);
    cfg.procs_per_node = spec.ppn;
    cfg.buffers_per_proc = spec.buffers;
    cfg.buffer_bytes = BUFFER_BYTES_CHOICES[spec.buffer_bytes_pick as usize];
    cfg.coalesce.enabled = coalesce;
    let sim = Simulation::build(cfg, |rank| {
        let mut actions = Vec::new();
        for i in 0..spec.ops_per_rank {
            // Async issue builds the queues that make folding possible.
            actions.push(Action::OpAsync(build_op(spec, rank.0, i)));
        }
        actions.push(Action::WaitAll);
        ScriptProgram::new(actions)
    });
    sim.run().expect("workload must never deadlock")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Coalescing on vs off: all semantics the application can observe are
    /// identical; only message/timing counters may differ.
    #[test]
    fn coalescing_is_semantically_invisible(spec in diff_strategy()) {
        let off = run_spec(&spec, false);
        let on = run_spec(&spec, true);
        let expect = u64::from(spec.n_procs) * u64::from(spec.ops_per_rank);
        prop_assert_eq!(off.metrics.total_ops(), expect);
        prop_assert_eq!(on.metrics.total_ops(), expect);
        for (a, b) in off.metrics.per_rank.iter().zip(&on.metrics.per_rank) {
            prop_assert_eq!(a.ops, b.ops);
        }
        // Ground truth: the final fetch-&-add counters are bit-identical.
        prop_assert_eq!(&off.fetch_finals, &on.fetch_finals);
        // The CHT performed exactly the same logical work.
        prop_assert_eq!(off.cht_totals.serviced, on.cht_totals.serviced);
        prop_assert_eq!(off.cht_totals.forwarded, on.cht_totals.forwarded);
        // Neither run saw a fault, failure or lost rank.
        prop_assert!(off.failures.is_empty() && on.failures.is_empty());
        prop_assert_eq!(off.faults, FaultStats::default());
        prop_assert_eq!(on.faults, FaultStats::default());
        // With coalescing off, every forward is a physical message and no
        // envelope counter moves.
        prop_assert_eq!(off.cht_totals.fwd_messages, off.cht_totals.forwarded);
        prop_assert_eq!(off.coalesce, vt_armci::CoalesceStats::default());
        // Coalescing never inflates the physical message count.
        prop_assert!(on.net.messages <= off.net.messages);
        prop_assert!(on.cht_totals.fwd_messages <= on.cht_totals.forwarded);
    }

    /// A coalesced run reproduces bit-identically.
    #[test]
    fn coalesced_runs_replay_bit_identically(spec in diff_strategy()) {
        let a = run_spec(&spec, true);
        let b = run_spec(&spec, true);
        prop_assert_eq!(a.finish_time, b.finish_time);
        prop_assert_eq!(a.net, b.net);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.coalesce, b.coalesce);
        prop_assert_eq!(
            a.metrics.mean_latency_by_rank_us(),
            b.metrics.mean_latency_by_rank_us()
        );
    }
}

/// The hot-spot burst over a 3x3 MFCG: ranks 7 and 8 funnel async
/// fetch-&-adds to rank 0 through forwarder node 6.
fn hotspot(rank: Rank) -> ScriptProgram {
    if rank == Rank(7) || rank == Rank(8) {
        let mut script = vec![Action::Compute(SimTime::from_millis(1))];
        script.extend((0..6).map(|_| Action::OpAsync(Op::fetch_add(Rank(0), 1))));
        script.push(Action::WaitAll);
        ScriptProgram::new(script)
    } else {
        // Keep the idle ranks running so a crash catches them mid-program.
        ScriptProgram::new(vec![Action::Compute(SimTime::from_millis(2))])
    }
}

#[test]
fn coalescing_composes_with_fault_recovery() {
    // Kill the forwarder the coalesced envelopes would travel through
    // before any traffic starts: recovery must reroute every member and
    // deliver each fetch-&-add exactly once.
    let mut cfg = RuntimeConfig::new(9, TopologyKind::Mfcg);
    cfg.procs_per_node = 1;
    cfg.coalesce = CoalesceConfig::on();
    let plan = FaultPlan::new().crash_node(SimTime::ZERO, 6);
    let report = Simulation::build_with_faults(cfg, hotspot, &plan)
        .run()
        .expect("faulted coalesced run must terminate");
    assert_eq!(report.metrics.total_ops(), 12, "both bursts complete");
    assert_eq!(report.fetch_finals[0], 12);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert!(report.faults.reroutes >= 1, "{:?}", report.faults);
    assert_eq!(report.lost_ranks, vec![6]);
}

#[test]
fn faulted_coalesced_runs_replay_bit_identically() {
    let run = || {
        let mut cfg = RuntimeConfig::new(9, TopologyKind::Mfcg);
        cfg.procs_per_node = 1;
        cfg.coalesce = CoalesceConfig::on();
        let plan = FaultPlan::new().crash_node(SimTime::ZERO, 6);
        Simulation::build_with_faults(cfg, hotspot, &plan)
            .run()
            .expect("must terminate")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.finish_time, b.finish_time);
    assert_eq!(a.net, b.net);
    assert_eq!(a.events, b.events);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.coalesce, b.coalesce);
}
