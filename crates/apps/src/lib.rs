//! # vt-apps — workloads for the virtual-topology study
//!
//! The paper evaluates its virtual topologies with microbenchmarks and two
//! applications; this crate implements all of them on the `vt-armci`
//! runtime model:
//!
//! * [`contention`] — the hot-spot microbenchmark of Figs. 6 and 7:
//!   per-rank latency of vectored transfers and fetch-&-add against rank 0
//!   under 0 % / 11 % / 20 % contention, using the paper's exact
//!   measurement protocol.
//! * [`lu`] — a NAS LU proxy (Fig. 8): neighbour-only SSOR wavefront
//!   exchanges, no hot spot, topology-insensitive.
//! * [`nwchem_dft`] — an NWChem DFT SiOSi3 proxy (Fig. 9a): dynamic load
//!   balancing over a shared `nxtval` fetch-&-add counter — the hot-spot
//!   application where MFCG shines.
//! * [`nwchem_ccsd`] — an NWChem CCSD(T) water proxy (Fig. 9b):
//!   accumulate-heavy, spread traffic, memory-bound; FCG's `O(N)` buffer
//!   pools overflow node memory at scale.
//! * [`faults`] — the topology-resilience experiment: kill a forwarder
//!   mid-run and measure completion time, availability and the
//!   self-healing runtime's recovery counters per topology.
//! * [`serve`] — the open-system overload experiment: deterministic
//!   arrival processes drive every rank as a serving client past the hot
//!   CHT's saturation point, measuring shed/goodput/latency behaviour and
//!   (optionally) a certified load-triggered topology re-pack.
//! * [`chaos`] — the deterministic chaos-campaign harness: randomised
//!   composite fault schedules (crashes, reboots, partitions, loss,
//!   corruption) over a topology × population grid, every cell checked
//!   against invariant oracles and replay byte-identity, with greedy
//!   shrinking of failing schedules to minimized reproducers.
//! * [`report`] — gnuplot-ready series/panel/table rendering.
//! * [`sweep`] — a scoped-thread parallel runner for independent
//!   simulations (each simulation itself stays single-threaded and
//!   deterministic).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
pub mod chaos;
pub mod contention;
pub mod faults;
pub mod gups;
pub mod lu;
pub mod nwchem_ccsd;
pub mod nwchem_dft;
pub mod repair;
pub mod report;
pub mod serve;
pub mod sweep;

pub use chaos::{CellOutcome, ChaosConfig, ChaosOutcome, MinimizedRepro};
pub use contention::{ContentionConfig, ContentionOutcome, OpSpec, Scenario};
pub use faults::{FaultOutcome, FaultScenarioConfig};
pub use gups::{GupsConfig, GupsOutcome};
pub use lu::{LuConfig, LuOutcome};
pub use nwchem_ccsd::{CcsdConfig, CcsdOutcome};
pub use nwchem_dft::{DftConfig, DftOutcome};
pub use repair::{RepairOutcome, RepairScenarioConfig};
pub use report::{Panel, Series, Table};
pub use serve::{CurvePoint, ServeOutcome, ServeScenarioConfig};
pub use sweep::{grid, run_cells, run_parallel, SweepCell};

/// Error from an experiment driver's fallible entry point (`try_run`).
///
/// Every workload module pairs its panicking `run` convenience with a
/// `try_run` returning this type, so harnesses that must not abort (CI
/// drivers, the bench loop) can surface failures as data instead.
#[derive(Debug)]
pub enum RunError {
    /// The underlying simulation ended abnormally (deadlock, timeout,
    /// unreachable destination).
    Sim(vt_armci::SimError),
    /// The fault schedule failed [`FaultPlan::validate`](vt_simnet::FaultPlan::validate)
    /// before the run was built.
    Plan(vt_simnet::FaultPlanError),
    /// A harness-side invariant failed; the message names it.
    Harness(String),
    /// The `vt-analyze` pre-flight refused to certify the configuration;
    /// the payload is the analyzer's rendered report.
    Uncertified(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::Plan(e) => write!(f, "invalid fault plan: {e}"),
            RunError::Harness(msg) => write!(f, "harness invariant failed: {msg}"),
            RunError::Uncertified(report) => write!(f, "pre-flight verification failed:\n{report}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<vt_armci::SimError> for RunError {
    fn from(e: vt_armci::SimError) -> Self {
        RunError::Sim(e)
    }
}

impl From<vt_simnet::FaultPlanError> for RunError {
    fn from(e: vt_simnet::FaultPlanError) -> Self {
        RunError::Plan(e)
    }
}
