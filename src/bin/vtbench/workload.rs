//! The four benchmark workloads: seeded input generation, one timed
//! simulation, the oracles every run must pass, and the metrics read from
//! the run's public `Report`.
//!
//! Inputs (op scripts, hot node, victim, fault plan) are a pure function of
//! the seed and are built before any timer starts; the simulator receives
//! only those inputs.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use vt_armci::{
    Action, ArrivalProcess, CoalesceConfig, FaultPlan, Layout, MembershipConfig, Op, OpKind,
    Program, Rank, Report, RuntimeConfig, ScriptProgram, SimError, SimTime, Simulation,
};
use vt_core::TopologyKind;
use vt_simnet::stats::percentile;
use vt_simnet::DetRng;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's hot spot at the deepest forwarding depth. Its inputs do
    /// not depend on the seed.
    HotspotHc16k,
    /// No hot spot: uniform targets over a mix of CHT and RDMA ops.
    UniformMfcg16k,
    /// The open-loop flash crowd, stretched to a one-second horizon.
    ServeFlash1s,
    /// CHT-path traffic through a forwarder crash, drops and corruption.
    FaultsCfcg4k,
}

/// Every workload, in the order a round runs them.
pub const ALL: [Workload; 4] = [
    Workload::HotspotHc16k,
    Workload::UniformMfcg16k,
    Workload::ServeFlash1s,
    Workload::FaultsCfcg4k,
];

const PPN: u32 = 4;
const OPS_PER_RANK: usize = 16;

// Each generator draws from its own fork of the seed.
const STREAM_UNIFORM: u64 = 0x554e_4900;
const STREAM_FAULTS: u64 = 0x464c_5400;

impl Workload {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotspotHc16k => "hotspot_hc16k",
            Workload::UniformMfcg16k => "uniform_mfcg16k",
            Workload::ServeFlash1s => "serve_flash1s",
            Workload::FaultsCfcg4k => "faults_cfcg4k",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's inputs from `seed`. `tiny` shrinks every
    /// population and horizon so unit tests run the same code path quickly.
    pub fn inputs(self, seed: u64, tiny: bool) -> Inputs {
        match self {
            Workload::HotspotHc16k => hotspot(seed, if tiny { 64 } else { 16_384 }),
            Workload::UniformMfcg16k => uniform(seed, if tiny { 64 } else { 16_384 }),
            Workload::ServeFlash1s => serve(seed, tiny),
            Workload::FaultsCfcg4k => faults(seed, tiny),
        }
    }
}

/// Everything the simulator is given for one run.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Runtime configuration (topology, population, protocol switches).
    pub cfg: RuntimeConfig,
    /// Blocking one-sided ops per rank, in issue order. Serve clients have
    /// none: their load comes from the configured arrival process.
    pub scripts: Vec<Vec<Op>>,
    /// Fault schedule (empty for the fault-free workloads).
    pub plan: FaultPlan,
    /// Install `vt_analyze::certify_repair` as the repair certifier.
    pub certify: bool,
}

impl Inputs {
    /// The rank-to-node layout the simulation uses.
    pub fn layout(&self) -> Layout {
        Layout::new(self.cfg.n_procs, self.cfg.procs_per_node)
    }

    /// Every op that completed in `report`, with its origin. Scripts are
    /// blocking and run in order, so rank `r`'s completed ops are the first
    /// `per_rank[r].ops` of its script; a serve client's are fetch-adds to
    /// the hot rank.
    pub fn completed_ops(&self, report: &Report) -> Vec<(Rank, Op)> {
        let mut out = Vec::new();
        for (r, stats) in report.metrics.per_rank.iter().enumerate() {
            let rank = Rank(r as u32);
            let done = stats.ops as usize;
            if self.cfg.serve.enabled {
                let op = Op::fetch_add(Rank(self.cfg.serve.hot_rank), 1);
                out.extend(std::iter::repeat_n((rank, op), done));
            } else if let Some(script) = self.scripts.get(r) {
                out.extend(script.iter().take(done).map(|&op| (rank, op)));
            }
        }
        out
    }
}

fn runtime(procs: u32, kind: TopologyKind, seed: u64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(procs, kind);
    cfg.procs_per_node = PPN;
    cfg.seed = seed;
    cfg
}

/// A uniform draw from `0..bound`.
fn below(rng: &mut DetRng, bound: u32) -> u32 {
    // The draw is below a `u32` bound, so the narrowing is exact.
    rng.u64_below(u64::from(bound)) as u32
}

/// Every rank off node 0 issues `OPS_PER_RANK` blocking fetch-adds to rank
/// 0: the paper's Fig. 7 pattern, frozen like `BENCH_sim.json`'s. The seed
/// reaches only `RuntimeConfig::seed`, which a fault-free closed run never
/// draws from. A seeded hot node moved the run's peak RSS between 81 and
/// 116 MiB across seeds 1-6, which would hide memory changes behind input
/// changes.
fn hotspot(seed: u64, procs: u32) -> Inputs {
    let layout = Layout::new(procs, PPN);
    let scripts = (0..procs)
        .map(|r| {
            if layout.node_of(Rank(r)) == 0 {
                Vec::new()
            } else {
                vec![Op::fetch_add(Rank(0), 1); OPS_PER_RANK]
            }
        })
        .collect();
    Inputs {
        cfg: runtime(procs, TopologyKind::Hypercube, seed),
        scripts,
        plan: FaultPlan::new(),
        certify: false,
    }
}

/// Every rank issues `OPS_PER_RANK` ops to uniform other ranks: 50% 8-byte
/// accumulates, 25% 4x64-byte vectored gets, 25% contiguous 4 KiB gets.
fn uniform(seed: u64, procs: u32) -> Inputs {
    let mut rng = DetRng::new(seed).fork(STREAM_UNIFORM);
    let scripts = (0..procs)
        .map(|r| {
            (0..OPS_PER_RANK)
                .map(|_| {
                    let t = below(&mut rng, procs - 1);
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
    Inputs {
        cfg: runtime(procs, TopologyKind::Mfcg, seed),
        scripts,
        plan: FaultPlan::new(),
        certify: false,
    }
}

/// The frozen flash-crowd scenario with its horizon stretched to 1 s and
/// the 10x spike at 400-600 ms.
fn serve(seed: u64, tiny: bool) -> Inputs {
    let mut sc = vt_apps::ServeScenarioConfig::flash_crowd();
    let ms = SimTime::from_millis;
    let (horizon, spike_at, spike_len) = if tiny {
        sc.nodes = 4;
        (ms(4), ms(2), ms(1))
    } else {
        (ms(1000), ms(400), ms(200))
    };
    sc.arrivals = ArrivalProcess::flash_crowd(
        sc.arrivals.rate_per_sec,
        sc.arrivals.peak,
        spike_at,
        spike_len,
    );
    sc.horizon = horizon;
    sc.seed = seed;
    let cfg = sc.runtime_config();
    Inputs {
        scripts: vec![Vec::new(); cfg.n_procs as usize],
        cfg,
        plan: FaultPlan::new(),
        certify: false,
    }
}

/// CFCG with coalescing and membership on. One seeded node crashes for
/// good while a 1% drop window and a 1% corruption window are open. Every
/// other rank issues `OPS_PER_RANK` CHT-path ops (fetch-add, accumulate,
/// vectored get) to uniform ranks off the victim node; the victim's own
/// ranks issue nothing, so no op is lost with them.
fn faults(seed: u64, tiny: bool) -> Inputs {
    let procs = if tiny { 64 } else { 4096 };
    let mut cfg = runtime(procs, TopologyKind::Cfcg, seed);
    cfg.coalesce = CoalesceConfig::on();
    cfg.membership = MembershipConfig::on();
    let layout = Layout::new(procs, PPN);
    let mut rng = DetRng::new(seed).fork(STREAM_FAULTS);
    let victim = below(&mut rng, layout.num_nodes());
    let kill_at = SimTime::from_micros(if tiny { 30 } else { 400 });
    let plan = FaultPlan::new()
        .crash_node(kill_at, victim)
        .drop_window(SimTime::from_micros(100), SimTime::from_millis(30), 0.01)
        .corrupt_window(SimTime::from_micros(200), SimTime::from_millis(20), 0.01);
    let live: Vec<u32> = (0..procs)
        .filter(|&r| layout.node_of(Rank(r)) != victim)
        .collect();
    let scripts = (0..procs)
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
    Inputs {
        cfg,
        scripts,
        plan,
        certify: true,
    }
}

thread_local! {
    /// Start and end of every `certify_repair` call of the current run.
    static CERTIFY_CALLS: RefCell<Vec<(Instant, Instant)>> = const { RefCell::new(Vec::new()) };
}

/// The repair certifier the faults workload installs: `certify_repair`,
/// timed from outside.
fn timed_certify(kind: TopologyKind, survivors: u32) -> Result<(), String> {
    let start = Instant::now();
    let verdict = vt_analyze::certify_repair(kind, survivors);
    CERTIFY_CALLS.with(|c| c.borrow_mut().push((start, Instant::now())));
    verdict
}

/// One finished simulation with the instants that bound its phases.
pub struct Run {
    /// The simulation's report.
    pub report: Report,
    /// Before `Simulation::with_faults`.
    pub built_from: Instant,
    /// After set-up, before `Simulation::run`.
    pub run_from: Instant,
    /// After `Simulation::run` returned.
    pub run_to: Instant,
    /// Start and end of each `certify_repair` call made during the run.
    pub certify: Vec<(Instant, Instant)>,
}

impl Run {
    /// Set-up wall time in seconds.
    pub fn setup_s(&self) -> f64 {
        (self.run_from - self.built_from).as_secs_f64()
    }

    /// `Simulation::run` wall time in seconds.
    pub fn run_s(&self) -> f64 {
        (self.run_to - self.run_from).as_secs_f64()
    }
}

/// Builds and runs one simulation of `inputs`, timing set-up and run.
///
/// # Errors
/// The simulator's error when the run ends abnormally.
pub fn run(inputs: &Inputs) -> Result<Run, String> {
    let programs: Vec<Box<dyn Program>> = inputs
        .scripts
        .iter()
        .map(|s| {
            let actions = s.iter().map(|&op| Action::Op(op)).collect();
            Box::new(ScriptProgram::new(actions)) as Box<dyn Program>
        })
        .collect();
    CERTIFY_CALLS.with(|c| c.borrow_mut().clear());
    let built_from = Instant::now();
    let mut sim = Simulation::with_faults(inputs.cfg, programs, &inputs.plan);
    if inputs.certify {
        sim = sim.with_repair_certifier(timed_certify);
    }
    let run_from = Instant::now();
    let report = sim
        .run()
        .map_err(|e| format!("simulation ended abnormally: {e}"))?;
    let run_to = Instant::now();
    Ok(Run {
        report,
        built_from,
        run_from,
        run_to,
        certify: CERTIFY_CALLS.with(|c| c.take()),
    })
}

/// Ops the inputs offered: scripted ops, or serve arrivals.
fn attempted(inputs: &Inputs, report: &Report) -> u64 {
    if inputs.cfg.serve.enabled {
        report.serve.arrivals
    } else {
        inputs.scripts.iter().map(|s| s.len() as u64).sum()
    }
}

/// Checks every oracle; returns one `"<oracle>: <detail>"` per violation.
pub fn check(inputs: &Inputs, report: &Report) -> Vec<String> {
    let mut fails = Vec::new();
    if report.credit_leaks != 0 {
        fails.push(format!(
            "credit_leaks: {} credits leaked",
            report.credit_leaks
        ));
    }
    let per_rank = &report.metrics.per_rank;
    if per_rank.len() != inputs.scripts.len() {
        fails.push(format!(
            "ledger: report has {} ranks, inputs {}",
            per_rank.len(),
            inputs.scripts.len()
        ));
        return fails;
    }
    if inputs.cfg.serve.enabled {
        let s = &report.serve;
        if s.arrivals != s.admitted + s.sheds || s.admitted != s.completed + s.gave_up {
            fails.push(format!(
                "ledger: {} arrivals, {} admitted, {} shed, {} completed, {} gave up",
                s.arrivals, s.admitted, s.sheds, s.completed, s.gave_up
            ));
        }
        if report.metrics.total_ops() != s.completed {
            fails.push(format!(
                "ledger: {} ops recorded against {} serve completions",
                report.metrics.total_ops(),
                s.completed
            ));
        }
        let hot = report
            .fetch_finals
            .get(inputs.cfg.serve.hot_rank as usize)
            .copied()
            .unwrap_or(-1);
        if !(i128::from(s.completed)..=i128::from(s.admitted)).contains(&i128::from(hot)) {
            fails.push(format!(
                "exactly_once: hot counter {hot} outside [{}, {}]",
                s.completed, s.admitted
            ));
        }
        return fails;
    }

    // Every op that did not complete must belong to a rank the report lists
    // as lost with its node or stopped by a terminal failure.
    let mut stopped = vec![false; per_rank.len()];
    let failed = report.failures.iter().filter_map(|e| match e {
        SimError::Unreachable { rank, .. } | SimError::TimedOut { rank, .. } => Some(rank.0),
        SimError::Deadlock { .. } | SimError::Overloaded { .. } => None,
    });
    for r in report.lost_ranks.iter().copied().chain(failed) {
        if let Some(s) = stopped.get_mut(r as usize) {
            *s = true;
        }
    }
    // Fetch-add window per target: ops before a rank's first incomplete op
    // were applied exactly once; its in-flight op may or may not have been.
    let mut lo = vec![0i64; per_rank.len()];
    let mut hi = vec![0i64; per_rank.len()];
    for (r, (script, stats)) in inputs.scripts.iter().zip(per_rank).enumerate() {
        let done = stats.ops as usize;
        if done > script.len() || (done < script.len() && !stopped[r]) {
            fails.push(format!(
                "ledger: rank {r} completed {done} of {} ops and was neither lost nor failed",
                script.len()
            ));
            continue;
        }
        let issued = (done + 1).min(script.len());
        for (i, op) in script.iter().enumerate().take(issued) {
            if op.kind == OpKind::FetchAdd {
                hi[op.target.idx()] += op.amount;
                if i < done {
                    lo[op.target.idx()] += op.amount;
                }
            }
        }
    }
    for (t, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
        let got = report.fetch_finals.get(t).copied().unwrap_or(0);
        if got < l || got > h {
            fails.push(format!(
                "exactly_once: rank {t} counter {got} outside [{l}, {h}]"
            ));
        }
    }
    fails
}

/// A digest of every deterministic field of `report`: the same inputs must
/// give the same digest in every run.
pub fn digest(report: &Report) -> u64 {
    let mut h = DefaultHasher::new();
    report.finish_time.as_nanos().hash(&mut h);
    report.events.hash(&mut h);
    format!(
        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
        report.net,
        report.cht_totals,
        report.faults,
        report.coalesce,
        report.repair,
        report.serve,
        report.top_links
    )
    .hash(&mut h);
    report.fetch_finals.hash(&mut h);
    report.lost_ranks.hash(&mut h);
    report.credit_leaks.hash(&mut h);
    for e in &report.failures {
        e.to_string().hash(&mut h);
    }
    for s in &report.metrics.per_rank {
        (s.ops, s.done_at.as_nanos(), s.latency_us.mean().to_bits()).hash(&mut h);
    }
    for l in &report.serve_latencies_us {
        l.to_bits().hash(&mut h);
    }
    h.finish()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Simulated outcomes: what the modelled machine did, in simulated time.
/// All are exact for a seed. Only the completed fraction is end to end: it
/// varies by under 0.2% between seeds, while the faults workload's makespan,
/// p99 latency and throughput vary between seeds by more than any bound a
/// regression check may use, so they are `armci.*` layer metrics.
pub fn sim_metrics(inputs: &Inputs, report: &Report) -> Vec<(&'static str, f64)> {
    let done = report.metrics.total_ops();
    let latencies: Vec<f64> = if inputs.cfg.serve.enabled {
        report.serve_latencies_us.clone()
    } else {
        // Per-rank mean latency: the series the paper's Figs. 6 and 7 plot.
        report
            .metrics
            .per_rank
            .iter()
            .filter(|s| s.ops > 0)
            .map(|s| s.latency_us.mean())
            .collect()
    };
    let makespan_s = report.finish_time.as_secs_f64();
    vec![
        ("sim_done_frac", ratio(done, attempted(inputs, report))),
        ("armci.sim_makespan_ms", makespan_s * 1e3),
        ("armci.sim_lat_p50_us", percentile(&latencies, 50.0)),
        ("armci.sim_lat_p99_us", percentile(&latencies, 99.0)),
        (
            "armci.sim_ops_per_s",
            if makespan_s > 0.0 {
                done as f64 / makespan_s
            } else {
                0.0
            },
        ),
    ]
}

/// Exact per-layer work counts read from the public `Report`.
pub fn layer_counts(report: &Report) -> Vec<(&'static str, f64)> {
    let ops = report.metrics.total_ops();
    let per_op = |n: u64| ratio(n, ops);
    let (net, cht, f, s) = (
        &report.net,
        &report.cht_totals,
        &report.faults,
        &report.serve,
    );
    vec![
        ("simnet.events_per_op", per_op(report.events)),
        ("simnet.msgs_per_op", per_op(net.messages)),
        ("simnet.hops_per_op", per_op(net.hops)),
        ("simnet.kib_per_op", per_op(net.bytes) / 1024.0),
        (
            "simnet.stream_miss_ratio",
            ratio(net.stream_misses, net.messages),
        ),
        ("simnet.dropped", net.dropped as f64),
        ("simnet.corrupted", net.corrupted as f64),
        ("armci.cht.serviced_per_op", per_op(cht.serviced)),
        ("armci.cht.forwarded_per_op", per_op(cht.forwarded)),
        ("armci.cht.wakeups_per_op", per_op(cht.wakeups)),
        ("armci.cht.max_queue", cht.max_queue as f64),
        ("armci.credit.parked_per_op", per_op(cht.parked)),
        (
            "armci.coalesce.envelopes_per_op",
            per_op(report.coalesce.envelopes),
        ),
        (
            "armci.coalesce.fold_ratio",
            ratio(
                report.coalesce.coalesced_requests,
                report.coalesce.envelopes,
            ),
        ),
        ("armci.reliab.retries_per_op", per_op(f.retries)),
        ("armci.reliab.timeouts", f.timeouts as f64),
        ("armci.reliab.dedup_hits", f.dedup_hits as f64),
        ("armci.reliab.reclaims", f.reclaims as f64),
        ("armci.reliab.reroutes", f.reroutes as f64),
        ("armci.reliab.corrupt_detected", f.corrupt_detected as f64),
        ("armci.member.epochs", report.repair.epoch_bumps as f64),
        ("armci.member.probes_per_op", per_op(report.repair.probes)),
        ("armci.member.suspicions", report.repair.suspicions as f64),
        ("armci.serve.admit_ratio", ratio(s.admitted, s.arrivals)),
        ("armci.serve.shed_ratio", ratio(s.sheds, s.arrivals)),
        ("armci.serve.retries", s.retries as f64),
        ("armci.serve.gave_up", s.gave_up as f64),
        ("armci.serve.guard_trips", s.guard_trips as f64),
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn same(a: &Inputs, b: &Inputs) -> bool {
        format!("{:?}", a.cfg) == format!("{:?}", b.cfg)
            && a.scripts == b.scripts
            && a.plan == b.plan
            && a.certify == b.certify
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for w in ALL {
            let a = w.inputs(1, false);
            let b = w.inputs(2, false);
            assert!(same(&a, &w.inputs(1, false)), "{} not repeatable", w.name());
            assert!(!same(&a, &b), "{} ignores its seed", w.name());
            if w == Workload::HotspotHc16k {
                assert_eq!(a.scripts, b.scripts, "the hot spot is frozen");
            }
        }
    }

    #[test]
    fn faults_never_target_the_victim() {
        for seed in 1..=6 {
            let inputs = Workload::FaultsCfcg4k.inputs(seed, false);
            let victim = inputs.plan.node_crashes[0].node;
            let layout = inputs.layout();
            for (r, script) in inputs.scripts.iter().enumerate() {
                let on_victim = layout.node_of(Rank(r as u32)) == victim;
                assert!(
                    !on_victim || script.is_empty(),
                    "victim rank {r} issues ops"
                );
                for op in script {
                    assert_ne!(layout.node_of(op.target), victim, "seed {seed}");
                    assert_ne!(op.target.idx(), r);
                    assert!(!op.kind.is_direct());
                }
            }
        }
    }

    #[test]
    fn hotspot_hammers_rank_0_from_every_other_node() {
        let inputs = Workload::HotspotHc16k.inputs(5, false);
        let layout = inputs.layout();
        for (r, script) in inputs.scripts.iter().enumerate() {
            let on_hot = layout.same_node(Rank(r as u32), Rank(0));
            assert_eq!(script.len(), if on_hot { 0 } else { OPS_PER_RANK });
            assert!(script.iter().all(|op| op.target == Rank(0)));
        }
    }

    #[test]
    fn doctored_reports_fail_their_oracles() {
        let inputs = Workload::HotspotHc16k.inputs(1, true);
        let clean = || run(&inputs).unwrap().report;
        let names = |r: &Report| -> Vec<String> {
            check(&inputs, r)
                .iter()
                .map(|f| f.split(':').next().unwrap_or("").to_string())
                .collect()
        };
        assert!(names(&clean()).is_empty());

        let mut leaky = clean();
        leaky.credit_leaks = 1;
        assert_eq!(names(&leaky), ["credit_leaks"]);

        let mut short = clean();
        let r = (0..inputs.scripts.len())
            .find(|&r| !inputs.scripts[r].is_empty())
            .unwrap();
        short.metrics.per_rank[r].ops -= 1;
        assert!(names(&short).contains(&"ledger".to_string()));

        let mut doubled = clean();
        let hot = inputs.scripts[r][0].target.idx();
        doubled.fetch_finals[hot] += 1;
        assert_eq!(names(&doubled), ["exactly_once"]);

        let serve = Workload::ServeFlash1s.inputs(1, true);
        let mut report = run(&serve).unwrap().report;
        assert!(check(&serve, &report).is_empty());
        report.serve.gave_up += 1;
        assert!(check(&serve, &report)[0].starts_with("ledger"));
    }
}
