//! Edge-case behaviour of the runtime engine: degenerate sizes, self-ops,
//! zero-byte transfers, repeated synchronisation, and mixed-op stress.

use vt_armci::{Action, Op, OpKind, Rank, RuntimeConfig, ScriptProgram, SimTime, Simulation};
use vt_core::TopologyKind;

fn run_scripts(cfg: RuntimeConfig, mk: impl Fn(Rank) -> Vec<Action>) -> vt_armci::Report {
    Simulation::build(cfg, |rank| ScriptProgram::new(mk(rank)))
        .run()
        .expect("no deadlock")
}

#[test]
fn single_process_job_runs() {
    let mut cfg = RuntimeConfig::new(1, TopologyKind::Fcg);
    cfg.record_ops = true;
    let report = run_scripts(cfg, |_| {
        vec![
            Action::Op(Op::put(Rank(0), 1024)), // self put
            Action::Op(Op::fetch_add(Rank(0), 5)),
            Action::Barrier,
        ]
    });
    assert_eq!(report.metrics.total_ops(), 2);
    assert_eq!(report.net.messages, 0, "self traffic stays on the node");
}

#[test]
fn ops_to_own_rank_complete_quickly() {
    let mut cfg = RuntimeConfig::new(8, TopologyKind::Mfcg);
    cfg.procs_per_node = 2;
    cfg.record_ops = true;
    let report = run_scripts(cfg, |rank| vec![Action::Op(Op::acc(rank, 8192))]);
    for s in &report.metrics.per_rank {
        assert_eq!(s.ops, 1);
        assert!(
            s.latency_us.mean() < 10.0,
            "self acc {}us",
            s.latency_us.mean()
        );
    }
}

#[test]
fn zero_byte_operations_are_legal() {
    let mut cfg = RuntimeConfig::new(4, TopologyKind::Fcg);
    cfg.procs_per_node = 1;
    let report = run_scripts(cfg, |rank| {
        if rank == Rank(3) {
            vec![
                Action::Op(Op::put(Rank(0), 0)),
                Action::Op(Op::put_v(Rank(1), 1, 0)),
            ]
        } else {
            vec![]
        }
    });
    assert_eq!(report.metrics.total_ops(), 2);
}

#[test]
fn repeated_barriers_release_every_time() {
    let cfg = RuntimeConfig::new(16, TopologyKind::Cfcg);
    let report = run_scripts(cfg, |_| vec![Action::Barrier; 10]);
    assert!(report.finish_time > SimTime::ZERO);
    // 10 release rounds, each costing at least one barrier stage.
    assert!(report.finish_time >= SimTime::from_micros(2) * 10);
}

#[test]
fn waitall_without_outstanding_ops_is_noop() {
    let cfg = RuntimeConfig::new(4, TopologyKind::Fcg);
    let report = run_scripts(cfg, |_| vec![Action::WaitAll, Action::WaitAll]);
    assert_eq!(report.finish_time, SimTime::ZERO);
}

#[test]
fn compute_zero_is_legal() {
    let cfg = RuntimeConfig::new(2, TopologyKind::Fcg);
    let report = run_scripts(cfg, |_| vec![Action::Compute(SimTime::ZERO); 5]);
    assert_eq!(report.finish_time, SimTime::ZERO);
}

#[test]
fn mixed_op_stress_with_every_kind() {
    let mut cfg = RuntimeConfig::new(24, TopologyKind::Mfcg);
    cfg.procs_per_node = 3;
    cfg.record_ops = true;
    let report = run_scripts(cfg, |rank| {
        let t = Rank((rank.0 + 7) % 24);
        vec![
            Action::Op(Op::put(t, 4096)),
            Action::Op(Op::get(t, 4096)),
            Action::Op(Op::put_v(t, 4, 512)),
            Action::Op(Op::get_v(t, 4, 512)),
            Action::Op(Op::acc(t, 2048)),
            Action::Op(Op::fetch_add(Rank(0), 1)),
            Action::Op(Op::lock(Rank(0))),
            Action::Op(Op::unlock(Rank(0))),
            Action::Barrier,
        ]
    });
    assert_eq!(report.metrics.total_ops(), 24 * 8);
    // Every kind appears in the trace.
    for kind in [
        OpKind::Put,
        OpKind::Get,
        OpKind::PutV,
        OpKind::GetV,
        OpKind::Acc,
        OpKind::FetchAdd,
        OpKind::Lock,
        OpKind::Unlock,
    ] {
        assert!(
            report.metrics.ops.iter().any(|o| o.kind == kind),
            "missing {kind:?} in trace"
        );
    }
    // The trace holds one record per completed operation.
    assert_eq!(report.metrics.ops.len(), 24 * 8);
}

#[test]
fn ragged_last_node_runs() {
    // 10 procs at 4 ppn: the last node hosts only 2 ranks.
    let mut cfg = RuntimeConfig::new(10, TopologyKind::Mfcg);
    cfg.procs_per_node = 4;
    let report = run_scripts(cfg, |rank| {
        vec![Action::Op(Op::acc(Rank((rank.0 + 5) % 10), 1024))]
    });
    assert_eq!(report.metrics.total_ops(), 10);
}

#[test]
fn generalized_kfcg_runs_in_the_engine() {
    let mut cfg = RuntimeConfig::new(60, TopologyKind::KFcg(4));
    cfg.procs_per_node = 2;
    let report = run_scripts(cfg, |_rank| {
        vec![Action::Op(Op::fetch_add(Rank(0), 1)), Action::Barrier]
    });
    assert_eq!(report.metrics.total_ops(), 60);
    assert!(report.cht_totals.forwarded > 0, "k=4 must forward");
    let _ = report.memory_node0;
}

#[test]
fn events_counter_is_populated() {
    let cfg = RuntimeConfig::new(8, TopologyKind::Fcg);
    let report = run_scripts(cfg, |rank| {
        if rank.0 % 2 == 1 {
            vec![Action::Op(Op::put_v(Rank(0), 2, 256))]
        } else {
            vec![]
        }
    });
    assert!(report.events > 0);
}
