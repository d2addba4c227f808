//! Membership at scale: with the failure detector live, a loaded 4,096-proc
//! machine must finish every operation. The detector's probes are real
//! droppable messages, so where they are sent from matters: a single node
//! probing the whole machine turns its NIC into a hot spot, the delay it
//! causes reads as silence, and silence breeds more probes until ranks
//! time out. Both tests pin the whole-machine outcome, not the probe count.

use vt_armci::{
    Action, CoalesceConfig, FaultPlan, Layout, MembershipConfig, Op, Program, Rank, Report,
    RuntimeConfig, ScriptProgram, SimTime, Simulation,
};
use vt_core::TopologyKind;
use vt_simnet::DetRng;

const PROCS: u32 = 4096;
const PPN: u32 = 4;
const OPS_PER_RANK: usize = 16;

/// Runs one blocking script per rank under `plan`, with `vt-analyze`
/// certifying every repair rung.
fn run(cfg: RuntimeConfig, scripts: Vec<Vec<Op>>, plan: &FaultPlan) -> Report {
    let programs = scripts
        .into_iter()
        .map(|s| {
            let actions = s.into_iter().map(Action::Op).collect();
            Box::new(ScriptProgram::new(actions)) as Box<dyn Program>
        })
        .collect();
    Simulation::with_faults(cfg, programs, plan)
        .with_repair_certifier(vt_analyze::certify_repair)
        .run()
        .expect("the run ends normally")
}

fn config(kind: TopologyKind, seed: u64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(PROCS, kind);
    cfg.procs_per_node = PPN;
    cfg.membership = MembershipConfig::on();
    cfg.seed = seed;
    cfg
}

/// Asserts that every scripted op completed.
fn assert_all_done(report: &Report, scripts: &[Vec<Op>], what: &str) {
    assert!(
        report.failures.is_empty(),
        "{what}: {} failures, first {:?}; {:?}",
        report.failures.len(),
        report.failures.first(),
        report.repair
    );
    let offered: u64 = scripts.iter().map(|s| s.len() as u64).sum();
    assert_eq!(
        report.metrics.total_ops(),
        offered,
        "{what}: {:?}",
        report.repair
    );
    assert_eq!(report.credit_leaks, 0, "{what}");
}

#[test]
fn uniform_mix_with_membership_completes_every_op_at_4096_procs() {
    // Uniform targets over MFCG: half 8-byte accumulates, a quarter
    // vectored gets, a quarter 4 KiB contiguous gets. The plan's only
    // crash lies far past the end of the run, so it never fires; it is
    // there to turn the detector on. Nothing ever dies, so any suspicion
    // is false.
    let mut rng = DetRng::new(1);
    let scripts: Vec<Vec<Op>> = (0..PROCS)
        .map(|r| {
            (0..OPS_PER_RANK)
                .map(|_| {
                    let t = rng.u64_below(u64::from(PROCS - 1)) as u32;
                    let target = Rank(if t >= r { t + 1 } else { t });
                    match rng.u64_below(4) {
                        0 | 1 => Op::acc(target, 8),
                        2 => Op::get_v(target, 4, 64),
                        _ => Op::get(target, 4096),
                    }
                })
                .collect()
        })
        .collect();
    let plan = FaultPlan::new().crash_node(SimTime::from_secs(100), 1);
    let report = run(config(TopologyKind::Mfcg, 1), scripts.clone(), &plan);
    assert_all_done(&report, &scripts, "uniform mix");
    assert_eq!(report.repair.false_suspicions, 0, "{:?}", report.repair);
    assert_eq!(report.repair.epoch_bumps, 0, "{:?}", report.repair);
}

#[test]
fn crash_under_drops_and_corruption_commits_one_epoch_and_completes() {
    // CFCG with coalescing: a seeded node crashes for good at 400 us while
    // a 1% drop window and a 1% corruption window are open. Every rank off
    // the victim issues fetch-adds, accumulates and vectored gets to
    // uniform ranks off the victim, so no op is lost with it.
    let layout = Layout::new(PROCS, PPN);
    for seed in 1..=3 {
        let mut rng = DetRng::new(seed);
        let victim = rng.u64_below(u64::from(layout.num_nodes())) as u32;
        let plan = FaultPlan::new()
            .crash_node(SimTime::from_micros(400), victim)
            .drop_window(SimTime::from_micros(100), SimTime::from_millis(30), 0.01)
            .corrupt_window(SimTime::from_micros(200), SimTime::from_millis(20), 0.01);
        let live: Vec<u32> = (0..PROCS)
            .filter(|&r| layout.node_of(Rank(r)) != victim)
            .collect();
        let scripts: Vec<Vec<Op>> = (0..PROCS)
            .map(|r| {
                if layout.node_of(Rank(r)) == victim {
                    return Vec::new();
                }
                (0..OPS_PER_RANK)
                    .map(|_| {
                        let target = loop {
                            let t = live[rng.index(live.len())];
                            if t != r {
                                break Rank(t);
                            }
                        };
                        match rng.u64_below(3) {
                            0 => Op::fetch_add(target, 1),
                            1 => Op::acc(target, 8),
                            _ => Op::get_v(target, 4, 64),
                        }
                    })
                    .collect()
            })
            .collect();
        let mut cfg = config(TopologyKind::Cfcg, seed);
        cfg.coalesce = CoalesceConfig::on();
        let report = run(cfg, scripts.clone(), &plan);
        let what = format!("seed {seed}, victim {victim}");
        assert_all_done(&report, &scripts, &what);
        assert_eq!(report.repair.epoch_bumps, 1, "{what}: {:?}", report.repair);
        assert_eq!(report.repair.final_epoch, 1, "{what}");
    }
}
