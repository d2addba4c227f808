//! The hot-spot contention microbenchmark (paper §V-B, Figs. 6 and 7).
//!
//! Reproduces the paper's measurement protocol exactly:
//!
//! * a job of `n_procs` ranks (paper: 1 024 at 4 per node across 256 nodes);
//! * every process *not on rank 0's node* is measured in turn: it performs
//!   `iterations` (paper: 20) one-sided operations to rank 0 while all
//!   uninvolved processes idle in a barrier; its mean completion time is one
//!   point of the rank-vs-latency curve;
//! * under contention, one in every `every_nth` processes (9 → 11 %,
//!   5 → 20 %) concurrently performs the same operations to rank 0
//!   throughout each measurement phase.
//!
//! Latency is measured by the programs themselves (issue-to-completion of
//! each blocking op), so contender traffic never pollutes a measured mean.

use crate::report::Series;
use std::sync::Arc;
use std::sync::Mutex;
use vt_armci::cht::ChtCounters;
use vt_armci::{Action, Op, OpKind, ProcCtx, Program, Rank, RuntimeConfig, Simulation};
use vt_core::TopologyKind;
use vt_simnet::net::NetCounters;
use vt_simnet::SimTime;

/// The contention level of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Only the measured process communicates; everyone else idles
    /// (paper: "no contention").
    NoContention,
    /// One in every `every_nth` processes hammers rank 0 concurrently.
    Contention {
        /// 9 reproduces the paper's 11 % scenario, 5 its 20 %.
        every_nth: u32,
    },
}

impl Scenario {
    /// The paper's 11 % contention scenario (one in nine).
    pub fn pct11() -> Self {
        Scenario::Contention { every_nth: 9 }
    }

    /// The paper's 20 % contention scenario (one in five).
    pub fn pct20() -> Self {
        Scenario::Contention { every_nth: 5 }
    }

    /// Label used in figure legends.
    pub fn label(&self) -> String {
        match self {
            Scenario::NoContention => "no contention".to_string(),
            Scenario::Contention { every_nth } => {
                format!("{:.0}% contention", 100.0 / *every_nth as f64)
            }
        }
    }
}

/// Which one-sided operation the benchmark exercises against rank 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSpec {
    /// The operation kind (CHT-path kinds are the interesting ones).
    pub kind: OpKind,
    /// Segments for vectored kinds.
    pub segments: u32,
    /// Bytes per segment.
    pub seg_bytes: u64,
}

impl OpSpec {
    /// The paper's vectored put workload (Fig. 6).
    pub fn vector_put() -> Self {
        OpSpec {
            kind: OpKind::PutV,
            segments: 8,
            seg_bytes: 1024,
        }
    }

    /// Vectored get (paper §V-B2 also measured gets).
    pub fn vector_get() -> Self {
        OpSpec {
            kind: OpKind::GetV,
            segments: 8,
            seg_bytes: 1024,
        }
    }

    /// The paper's atomic fetch-&-add workload (Fig. 7).
    pub fn fetch_add() -> Self {
        OpSpec {
            kind: OpKind::FetchAdd,
            segments: 1,
            seg_bytes: 8,
        }
    }

    /// Alternating lock/unlock pairs on a mutex owned by rank 0 (the paper
    /// also observed contention benefits for lock operations, §V-B).
    pub fn lock_unlock() -> Self {
        OpSpec {
            kind: OpKind::Lock,
            segments: 1,
            seg_bytes: 0,
        }
    }

    /// Builds the concrete op against `target`.
    pub fn to_op(&self, target: Rank) -> Op {
        match self.kind {
            OpKind::Put => Op::put(target, self.seg_bytes * u64::from(self.segments)),
            OpKind::Get => Op::get(target, self.seg_bytes * u64::from(self.segments)),
            OpKind::PutV => Op::put_v(target, self.segments, self.seg_bytes),
            OpKind::GetV => Op::get_v(target, self.segments, self.seg_bytes),
            OpKind::Acc => Op::acc(target, self.seg_bytes * u64::from(self.segments)),
            OpKind::FetchAdd => Op::fetch_add(target, 1),
            OpKind::Lock => Op::lock(target),
            OpKind::Unlock => Op::unlock(target),
        }
    }
}

/// Configuration of one contention run (one curve of Figs. 6/7).
#[derive(Clone, Copy, Debug)]
pub struct ContentionConfig {
    /// Total ranks. Paper: 1 024.
    pub n_procs: u32,
    /// Processes per node. Paper: 4.
    pub ppn: u32,
    /// Virtual topology under test.
    pub topology: TopologyKind,
    /// The exercised operation.
    pub op: OpSpec,
    /// Blocking operations per measured process. Paper: 20.
    pub iterations: u32,
    /// Contention level.
    pub scenario: Scenario,
    /// Measure every `measure_stride`-th eligible rank (1 = all, as in the
    /// paper; larger values cut wall-clock cost for quick runs).
    pub measure_stride: u32,
    /// Root seed.
    pub seed: u64,
    /// Override of the per-sender credit count `M` (ablations).
    pub buffers_per_proc: Option<u32>,
    /// Override of the NIC fast stream-context count (ablations).
    pub stream_contexts: Option<usize>,
    /// Override of the physical node placement (ablations).
    pub placement: Option<vt_simnet::Placement>,
    /// Override of the whole machine model (platform studies); narrower
    /// overrides above are applied on top of it.
    pub net: Option<vt_simnet::NetworkConfig>,
    /// When set, contenders issue their operations asynchronously (bounded
    /// by their `M` credits) instead of blocking one at a time — this makes
    /// the buffer-provisioning ablation sensitive to `M`.
    pub pipelined_contenders: bool,
    /// Switch request coalescing on (ablations; off by default).
    pub coalesce: bool,
    /// Switch membership repair on (ablations; off by default, which is
    /// byte-identical to a build without the subsystem).
    pub membership: bool,
}

impl ContentionConfig {
    /// The paper's setup: 1 024 processes, 4 per node, 20 iterations.
    pub fn paper(topology: TopologyKind, op: OpSpec, scenario: Scenario) -> Self {
        ContentionConfig {
            n_procs: 1024,
            ppn: 4,
            topology,
            op,
            iterations: 20,
            scenario,
            measure_stride: 1,
            seed: 0xF166,
            buffers_per_proc: None,
            stream_contexts: None,
            placement: None,
            net: None,
            pipelined_contenders: false,
            coalesce: false,
            membership: false,
        }
    }
}

/// Result of one contention run.
#[derive(Clone, Debug)]
pub struct ContentionOutcome {
    /// `(rank, mean latency in µs)` for every measured rank, in rank order.
    pub points: Vec<(u32, f64)>,
    /// Total simulated time of the whole protocol.
    pub finish: SimTime,
    /// Summed CHT counters: forwards (envelope members count
    /// individually), physical forwarding messages, envelopes and the
    /// requests folded into them.
    pub cht: ChtCounters,
    /// Network counters: messages and BEER slow-path stream misses.
    pub net: NetCounters,
}

impl ContentionOutcome {
    /// The points as a plot series labelled with the topology name.
    pub fn series(&self, label: impl Into<String>) -> Series {
        Series::new(
            label,
            self.points
                .iter()
                .map(|&(r, us)| (f64::from(r), us))
                .collect(),
        )
    }

    /// Mean latency over all measured ranks (µs).
    pub fn mean_us(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, us)| us).sum::<f64>() / self.points.len() as f64
    }

    /// Median latency over all measured ranks (µs).
    pub fn median_us(&self) -> f64 {
        let ys: Vec<f64> = self.points.iter().map(|&(_, us)| us).collect();
        vt_simnet::stats::percentile(&ys, 50.0)
    }
}

/// The per-phase schedule shared by all rank programs.
struct Schedule {
    /// The rank measured in each phase.
    measured: Vec<Rank>,
    scenario: Scenario,
    ppn: u32,
    iterations: u32,
    op: OpSpec,
    pipelined: bool,
}

impl Schedule {
    fn on_node0(&self, rank: Rank) -> bool {
        rank.0 < self.ppn
    }

    fn is_contender(&self, rank: Rank) -> bool {
        match self.scenario {
            Scenario::NoContention => false,
            Scenario::Contention { every_nth } => {
                !self.on_node0(rank) && rank.0 % every_nth == every_nth - 1
            }
        }
    }

    fn active(&self, rank: Rank, phase: usize) -> bool {
        self.measured[phase] == rank || self.is_contender(rank)
    }
}

/// The per-rank state machine implementing the measurement protocol.
struct ContentionProgram {
    rank: Rank,
    sched: Arc<Schedule>,
    results: Arc<Mutex<Vec<(u32, f64)>>>,
    phase: usize,
    in_phase: bool,
    ops_done: u32,
    fenced: bool,
    pending_issue: Option<SimTime>,
    lat_sum_us: f64,
    lat_count: u32,
}

impl Program for ContentionProgram {
    fn next(&mut self, ctx: &ProcCtx) -> Action {
        // Record the completion of the previous measured op.
        if let Some(issued) = self.pending_issue.take() {
            if self.sched.measured[self.phase] == self.rank {
                self.lat_sum_us += (ctx.now - issued).as_micros_f64();
                self.lat_count += 1;
            }
        }
        loop {
            if self.phase >= self.sched.measured.len() {
                return Action::Done;
            }
            if !self.in_phase {
                self.in_phase = true;
                self.ops_done = 0;
                self.fenced = false;
                return Action::Barrier;
            }
            let measuring = self.sched.measured[self.phase] == self.rank;
            if self.sched.active(self.rank, self.phase) && self.ops_done < self.sched.iterations {
                self.ops_done += 1;
                // Lock workloads alternate lock/unlock so the mutex is always
                // released (and are never pipelined: an unlock must not
                // overtake its own pending lock).
                let op = if self.sched.op.kind == OpKind::Lock && self.ops_done.is_multiple_of(2) {
                    Op::unlock(Rank(0))
                } else {
                    self.sched.op.to_op(Rank(0))
                };
                if self.sched.pipelined
                    && !measuring
                    && op.kind != OpKind::Lock
                    && op.kind != OpKind::Unlock
                {
                    // Contenders pipeline up to their M credits.
                    return Action::OpAsync(op);
                }
                self.pending_issue = Some(ctx.now);
                return Action::Op(op);
            }
            if self.sched.pipelined
                && !measuring
                && self.sched.active(self.rank, self.phase)
                && !self.fenced
            {
                self.fenced = true;
                return Action::WaitAll;
            }
            // Phase finished for this rank: publish if it was measured.
            if self.sched.measured[self.phase] == self.rank && self.lat_count > 0 {
                self.results
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push((self.rank.0, self.lat_sum_us / f64::from(self.lat_count)));
                self.lat_sum_us = 0.0;
                self.lat_count = 0;
            }
            self.phase += 1;
            self.in_phase = false;
        }
    }
}

/// Runs the full measurement protocol and returns the latency curve.
///
/// # Panics
/// Panics if the configuration is too small to have any measurable rank
/// (everything on rank 0's node), if the `vt-analyze` pre-flight refuses
/// to certify it, if the simulation ends abnormally, or if it is
/// otherwise invalid. [`try_run`] is the non-panicking variant.
pub fn run(cfg: &ContentionConfig) -> ContentionOutcome {
    try_run(cfg).unwrap_or_else(|e| panic!("contention run failed: {e}"))
}

/// Runs the full measurement protocol, surfacing abnormal simulation
/// endings as a typed error instead of panicking.
///
/// # Errors
/// Returns [`RunError`](crate::RunError) when the simulation deadlocks or
/// times out.
///
/// # Panics
/// Still panics on invalid configurations (no measurable rank, or a
/// pre-flight certification refusal) — those are caller bugs, not runtime
/// outcomes.
pub fn try_run(cfg: &ContentionConfig) -> Result<ContentionOutcome, crate::RunError> {
    let mut rt = RuntimeConfig::new(cfg.n_procs, cfg.topology);
    rt.procs_per_node = cfg.ppn;
    rt.seed = cfg.seed;
    rt.record_ops = false;
    if let Some(net) = cfg.net {
        rt.net = net;
    }
    if let Some(m) = cfg.buffers_per_proc {
        rt.buffers_per_proc = m;
    }
    if let Some(s) = cfg.stream_contexts {
        rt.net.stream_contexts = s;
    }
    if let Some(p) = cfg.placement {
        rt.net.placement = p;
    }
    rt.coalesce.enabled = cfg.coalesce;
    rt.membership.enabled = cfg.membership;
    // Pre-flight: refuse to burn simulation time on a configuration the
    // static verifier cannot certify deadlock-free.
    if let Err(report) = vt_analyze::certify(&rt, None) {
        panic!("pre-flight verification failed:\n{report}");
    }

    let measured: Vec<Rank> = (cfg.ppn..cfg.n_procs)
        .step_by(cfg.measure_stride.max(1) as usize)
        .map(Rank)
        .collect();
    assert!(
        !measured.is_empty(),
        "no measurable ranks: all processes share rank 0's node"
    );
    let sched = Arc::new(Schedule {
        measured,
        scenario: cfg.scenario,
        ppn: cfg.ppn,
        iterations: cfg.iterations,
        op: cfg.op,
        pipelined: cfg.pipelined_contenders,
    });
    let results = Arc::new(Mutex::new(Vec::new()));

    let sim = Simulation::build(rt, |rank| ContentionProgram {
        rank,
        sched: sched.clone(),
        results: results.clone(),
        phase: 0,
        in_phase: false,
        ops_done: 0,
        fenced: false,
        pending_issue: None,
        lat_sum_us: 0.0,
        lat_count: 0,
    });
    let report = sim.run()?;

    let mut points = Arc::try_unwrap(results)
        .map_err(|_| crate::RunError::Harness("a program outlived the simulation".into()))?
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    points.sort_unstable_by_key(|&(r, _)| r);
    Ok(ContentionOutcome {
        points,
        finish: report.finish_time,
        cht: report.cht_totals,
        net: report.net,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(topology: TopologyKind, scenario: Scenario) -> ContentionConfig {
        ContentionConfig {
            n_procs: 64,
            ppn: 4,
            topology,
            op: OpSpec::fetch_add(),
            iterations: 3,
            scenario,
            measure_stride: 4,
            seed: 7,
            buffers_per_proc: None,
            stream_contexts: None,
            placement: None,
            net: None,
            pipelined_contenders: false,
            coalesce: false,
            membership: false,
        }
    }

    #[test]
    fn measures_every_scheduled_rank() {
        let cfg = tiny(TopologyKind::Fcg, Scenario::NoContention);
        let out = run(&cfg);
        // Ranks 4, 8, ..., 60 measured.
        assert_eq!(out.points.len(), 15);
        assert_eq!(out.points[0].0, 4);
        assert!(out.points.iter().all(|&(_, us)| us > 0.0));
        assert!(out.finish > SimTime::ZERO);
    }

    #[test]
    fn contention_slows_fcg_down() {
        // At this miniature scale (16 nodes) the NIC stream table never
        // thrashes, so only queueing at rank 0 shows up; the full collapse
        // is asserted at realistic scale in the integration tests.
        let quiet = run(&tiny(TopologyKind::Fcg, Scenario::NoContention));
        let loud = run(&tiny(TopologyKind::Fcg, Scenario::pct20()));
        assert!(
            loud.mean_us() > 1.15 * quiet.mean_us(),
            "20% contention must hurt FCG: quiet {:.1}us loud {:.1}us",
            quiet.mean_us(),
            loud.mean_us()
        );
    }

    #[test]
    fn mfcg_forwards_but_fcg_does_not() {
        let fcg = run(&tiny(TopologyKind::Fcg, Scenario::NoContention));
        let mfcg = run(&tiny(TopologyKind::Mfcg, Scenario::NoContention));
        assert_eq!(fcg.cht.forwarded, 0);
        assert!(mfcg.cht.forwarded > 0);
        // Without contention FCG's direct path is faster.
        assert!(mfcg.mean_us() > fcg.mean_us());
    }

    #[test]
    fn deterministic() {
        let cfg = tiny(TopologyKind::Mfcg, Scenario::pct11());
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.points, b.points);
        assert_eq!(a.finish, b.finish);
    }

    #[test]
    fn coalescing_attenuates_forwarding_traffic() {
        let mut off = tiny(TopologyKind::Mfcg, Scenario::pct20());
        off.pipelined_contenders = true;
        let mut on = off;
        on.coalesce = true;
        let a = run(&off);
        let b = run(&on);
        // Same logical forwarding work, fewer physical messages.
        let (ca, cb) = (a.cht, b.cht);
        assert_eq!(ca.fwd_messages, ca.forwarded);
        assert!(cb.envelopes > 0, "no envelopes formed");
        assert_eq!(
            cb.coalesced + (cb.fwd_messages - cb.envelopes),
            cb.forwarded
        );
        assert!(cb.fwd_messages < cb.forwarded);
        assert!(b.net.messages < a.net.messages);
        // Coalescing must not slow the hot-spot workload down.
        assert!(
            b.finish <= a.finish,
            "coalesced run slower: {} vs {}",
            b.finish,
            a.finish
        );
    }

    #[test]
    fn scenario_labels() {
        assert_eq!(Scenario::NoContention.label(), "no contention");
        assert_eq!(Scenario::pct11().label(), "11% contention");
        assert_eq!(Scenario::pct20().label(), "20% contention");
    }

    #[test]
    fn outcome_series_conversion() {
        let out = ContentionOutcome {
            points: vec![(4, 10.0), (8, 30.0)],
            finish: SimTime::ZERO,
            cht: ChtCounters::default(),
            net: NetCounters::default(),
        };
        let s = out.series("fcg");
        assert_eq!(s.points, vec![(4.0, 10.0), (8.0, 30.0)]);
        assert_eq!(out.mean_us(), 20.0);
        assert_eq!(out.median_us(), 20.0);
    }

    #[test]
    fn lock_workload_alternates_and_completes() {
        let mut cfg = tiny(TopologyKind::Mfcg, Scenario::pct20());
        cfg.op = OpSpec::lock_unlock();
        cfg.iterations = 4; // two lock/unlock pairs per active process
        let out = run(&cfg);
        assert_eq!(out.points.len(), 15);
        assert!(out.points.iter().all(|&(_, us)| us > 0.0));
    }

    #[test]
    fn lock_contention_hurts_like_other_cht_ops() {
        let mut quiet_cfg = tiny(TopologyKind::Fcg, Scenario::NoContention);
        quiet_cfg.op = OpSpec::lock_unlock();
        quiet_cfg.iterations = 4;
        let mut loud_cfg = quiet_cfg;
        loud_cfg.scenario = Scenario::pct20();
        let quiet = run(&quiet_cfg);
        let loud = run(&loud_cfg);
        assert!(loud.mean_us() > quiet.mean_us());
    }

    #[test]
    fn op_spec_builds_expected_ops() {
        assert_eq!(
            OpSpec::vector_put().to_op(Rank(0)),
            Op::put_v(Rank(0), 8, 1024)
        );
        assert_eq!(
            OpSpec::fetch_add().to_op(Rank(0)),
            Op::fetch_add(Rank(0), 1)
        );
        let lock = OpSpec {
            kind: OpKind::Lock,
            segments: 1,
            seg_bytes: 0,
        };
        assert_eq!(lock.to_op(Rank(2)), Op::lock(Rank(2)));
    }
}
