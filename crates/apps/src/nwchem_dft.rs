//! NWChem DFT (SiOSi3) proxy (paper §VI-B, Fig. 9a).
//!
//! NWChem's DFT module builds Fock-matrix blocks under *dynamic load
//! balancing*: every process repeatedly grabs the next task index from a
//! shared counter (`nxtval`, an `ARMCI_Rmw` fetch-&-add on one process),
//! fetches the block's inputs from the distributed global array, computes,
//! and accumulates the result back. The `nxtval` counter is a textbook
//! hot spot: at ten thousand cores its request rate saturates the owner
//! node, and under FCG every request also pays the stream-thrash slow path.
//! This is the workload where the paper measures MFCG cutting total
//! execution time by up to 48 %, with CFCG in between and the Hypercube's
//! forwarding latency making it *worse* than FCG.

use vt_armci::{Action, Op, ProcCtx, Program, Rank, RuntimeConfig, Simulation};
use vt_core::TopologyKind;
use vt_simnet::SimTime;

/// Configuration of one DFT proxy run.
#[derive(Clone, Copy, Debug)]
pub struct DftConfig {
    /// Total ranks ("cores" on the paper's x-axis).
    pub n_procs: u32,
    /// Processes per node. Paper: 12 on the XT5.
    pub ppn: u32,
    /// Virtual topology under test.
    pub topology: TopologyKind,
    /// Total Fock-block tasks over the whole run (fixed problem size).
    pub total_tasks: u32,
    /// Mean compute seconds per task.
    pub mean_task_seconds: f64,
    /// Bytes fetched per task (block inputs).
    pub get_bytes: u64,
    /// Bytes accumulated per task (block results).
    pub acc_bytes: u64,
    /// Root seed.
    pub seed: u64,
}

impl DftConfig {
    /// A SiOSi3-flavoured configuration: fixed total work calibrated so the
    /// `nxtval` rate approaches the hot node's service capacity near ten
    /// thousand cores, as in the paper's measurements.
    pub fn siosi3(n_procs: u32, topology: TopologyKind) -> Self {
        DftConfig {
            n_procs,
            ppn: 12,
            topology,
            total_tasks: 600_000,
            mean_task_seconds: 0.16,
            get_bytes: 8 * 1024,
            acc_bytes: 8 * 1024,
            seed: 0xDF7,
        }
    }
}

/// Result of one DFT proxy run.
#[derive(Clone, Copy, Debug)]
pub struct DftOutcome {
    /// Total execution time in seconds (paper Fig. 9a y-axis).
    pub exec_seconds: f64,
    /// Tasks actually executed (total minus the final over-grabs).
    pub tasks_executed: u64,
    /// BEER slow-path events — the hot-spot damage indicator.
    pub stream_misses: u64,
    /// Requests forwarded by intermediate CHTs.
    pub forwards: u64,
}

/// Deterministic per-task compute time: a ±50 % spread around the mean,
/// a pure function of the task id so every topology simulates identical
/// work.
fn task_seconds(task: i64, mean: f64) -> f64 {
    let mut x = task as u64;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    let frac = (x % 1000) as f64 / 1000.0;
    mean * (0.5 + frac)
}

#[derive(Clone, Copy, PartialEq)]
enum St {
    Grab,
    Fetch,
    Work,
    Accumulate,
    Finish,
}

struct DftProgram {
    cfg: DftConfig,
    state: St,
    task: i64,
}

impl DftProgram {
    /// Owner of a task's input block: spread round-robin over all ranks.
    fn input_owner(&self, task: i64) -> Rank {
        Rank((task as u64 % u64::from(self.cfg.n_procs)) as u32)
    }

    /// Owner of a task's output block: a decorrelated spread.
    fn output_owner(&self, task: i64) -> Rank {
        Rank(((task as u64).wrapping_mul(7).wrapping_add(3) % u64::from(self.cfg.n_procs)) as u32)
    }
}

impl Program for DftProgram {
    fn next(&mut self, ctx: &ProcCtx) -> Action {
        loop {
            match self.state {
                St::Grab => {
                    self.state = St::Fetch;
                    return Action::Op(Op::fetch_add(Rank(0), 1));
                }
                St::Fetch => {
                    self.task = match ctx.last_fetch {
                        Some(v) => v,
                        // St::Fetch is only ever entered from St::Grab's
                        // fetch-&-add, which always deposits a value.
                        None => unreachable!("St::Fetch follows a fetch-&-add op"),
                    };
                    if self.task >= i64::from(self.cfg.total_tasks) {
                        self.state = St::Finish;
                        continue;
                    }
                    self.state = St::Work;
                    return Action::Op(Op::get_v(
                        self.input_owner(self.task),
                        8,
                        self.cfg.get_bytes / 8,
                    ));
                }
                St::Work => {
                    self.state = St::Accumulate;
                    return Action::Compute(SimTime::from_micros_f64(
                        task_seconds(self.task, self.cfg.mean_task_seconds) * 1e6,
                    ));
                }
                St::Accumulate => {
                    self.state = St::Grab;
                    return Action::Op(Op::acc(self.output_owner(self.task), self.cfg.acc_bytes));
                }
                St::Finish => {
                    self.state = St::Grab; // unreachable; keeps the machine total
                    return Action::Done;
                }
            }
        }
    }
}

/// Runs the DFT proxy.
///
/// # Panics
/// Panics if the simulation deadlocks; [`try_run`] is the non-panicking
/// variant.
pub fn run(cfg: &DftConfig) -> DftOutcome {
    try_run(cfg).unwrap_or_else(|e| panic!("DFT run failed: {e}"))
}

/// Runs the DFT proxy, surfacing abnormal simulation endings as a typed
/// error.
///
/// # Errors
/// Returns [`RunError`](crate::RunError) when the simulation deadlocks or
/// times out.
pub fn try_run(cfg: &DftConfig) -> Result<DftOutcome, crate::RunError> {
    let mut rt = RuntimeConfig::new(cfg.n_procs, cfg.topology);
    rt.procs_per_node = cfg.ppn;
    rt.seed = cfg.seed;
    let sim = Simulation::build(rt, |_| DftProgram {
        cfg: *cfg,
        state: St::Grab,
        task: 0,
    });
    let report = sim.run()?;
    // Each executed task completes three ops (fadd + getv + acc); the final
    // over-grab of each rank adds one fadd.
    let total_ops = report.metrics.total_ops();
    let tasks_executed = total_ops.saturating_sub(u64::from(cfg.n_procs)) / 3;
    Ok(DftOutcome {
        exec_seconds: report.finish_time.as_secs_f64(),
        tasks_executed,
        stream_misses: report.net.stream_misses,
        forwards: report.cht_totals.forwarded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(topology: TopologyKind, n_procs: u32) -> DftConfig {
        DftConfig {
            n_procs,
            ppn: 4,
            topology,
            total_tasks: 200,
            mean_task_seconds: 0.002,
            get_bytes: 2048,
            acc_bytes: 2048,
            seed: 5,
        }
    }

    #[test]
    fn executes_every_task_exactly_once() {
        let out = run(&tiny(TopologyKind::Fcg, 16));
        assert_eq!(out.tasks_executed, 200);
    }

    #[test]
    fn strong_scaling_without_contention() {
        let p16 = run(&tiny(TopologyKind::Fcg, 16));
        let p64 = run(&tiny(TopologyKind::Fcg, 64));
        assert!(
            p64.exec_seconds < p16.exec_seconds,
            "more cores must be faster at this scale: {} !< {}",
            p64.exec_seconds,
            p16.exec_seconds
        );
    }

    #[test]
    fn task_times_are_deterministic_and_spread() {
        let a = task_seconds(42, 1.0);
        assert_eq!(a, task_seconds(42, 1.0));
        assert!((0.5..1.5).contains(&a));
        let b = task_seconds(43, 1.0);
        assert_ne!(a, b);
        // Mean over many tasks approaches the configured mean.
        let mean: f64 = (0..10_000).map(|t| task_seconds(t, 1.0)).sum::<f64>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn identical_work_across_topologies() {
        let fcg = run(&tiny(TopologyKind::Fcg, 16));
        let mfcg = run(&tiny(TopologyKind::Mfcg, 16));
        assert_eq!(fcg.tasks_executed, mfcg.tasks_executed);
        assert!(mfcg.forwards > 0 || fcg.forwards == 0);
    }

    #[test]
    fn deterministic() {
        let a = run(&tiny(TopologyKind::Cfcg, 32));
        let b = run(&tiny(TopologyKind::Cfcg, 32));
        assert_eq!(a.exec_seconds, b.exec_seconds);
        assert_eq!(a.stream_misses, b.stream_misses);
    }
}
