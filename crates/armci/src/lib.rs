//! # vt-armci — an ARMCI-like GAS runtime model
//!
//! This crate models the Aggregate Remote Memory Copy Interface runtime the
//! paper instruments, at the level of detail its evaluation depends on:
//!
//! * **Processes and nodes** — ranks packed densely onto nodes
//!   ([`Layout`]); the lowest rank per node is the master hosting the
//!   communication helper thread.
//! * **The CHT** ([`cht`]) — a serial FIFO server per node handling the
//!   operations Portals cannot do one-sidedly (vectored/strided transfers,
//!   accumulate, atomics, locks), with a polling-window/wakeup model.
//! * **Request buffers as credits** ([`buffers`]) — each sender owns `M`
//!   request-buffer slots at every node it is directly connected to in the
//!   virtual topology; requests genuinely block on exhausted credits and
//!   buffers are returned by explicit acknowledgements, so deadlock freedom
//!   of the forwarding order is *observable*, not assumed.
//! * **Virtual-topology forwarding** — CHT-path requests travel the LDF
//!   route of the configured [`TopologyKind`](vt_core::TopologyKind); the
//!   contiguous put/get fast path goes straight to RDMA, untouched by the
//!   topology (paper §II).
//! * **Request coalescing** ([`CoalesceConfig`]) — optionally, a
//!   forwarding CHT folds queued (and credit-parked) requests sharing the
//!   same next LDF hop and escape class into one bounded envelope on a
//!   single downstream credit, with assembly pipelined against the
//!   in-flight send and one aggregated ack on the return path. Off by
//!   default and byte-for-byte free when off.
//! * **Workloads** ([`workload`]) — per-rank [`Program`]s built from
//!   blocking/async one-sided [`Op`]s, compute blocks, fences and barriers.
//! * **Self-healing under faults** — when a [`FaultPlan`] is installed
//!   ([`Simulation::with_faults`](Simulation)), every remote operation
//!   carries a sequence number and a per-request timer: lost messages are
//!   retransmitted with exponential backoff ([`RetryConfig`]), a
//!   target-side dedup table keeps retried fetch-&-add / accumulate / lock
//!   requests exactly-once, forwarding routes around dead nodes with
//!   escape-class buffers that provably keep the credit-dependency graph
//!   acyclic, and unrecoverable operations degrade gracefully into
//!   [`SimError::Unreachable`] / [`SimError::TimedOut`] diagnostics plus
//!   [`FaultStats`] counters instead of hanging the job.
//! * **Open-system serving** ([`ServeConfig`]) — optionally, ranks double
//!   as serving clients fed by deterministic arrival processes
//!   ([`ArrivalProcess`]): bounded admission queues shed excess load as
//!   typed [`SimError::Overloaded`] diagnostics, retransmissions draw
//!   capped decorrelated jitter under per-client retry budgets, a
//!   metastability guard suppresses retry storms past saturation, and a
//!   sustained hot-spot skew can commit a live epoch re-pack onto a
//!   higher-attenuation topology kind. Off by default and byte-for-byte
//!   free when off.
//! * **Measurement** ([`metrics`], [`memory`]) — per-rank latency series
//!   (Figs. 6/7), runtime memory accounting (Fig. 5) and network/CHT
//!   counters.
//!
//! Everything runs on the deterministic `vt-simnet` machine model; a given
//! configuration and seed reproduces bit-identical timelines.
//!
//! Entry point: [`Simulation`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic policy for the engine hot paths: reachable failures (routing,
// faults, exhausted budgets) must surface as typed `SimError`s; `unwrap`
// and `expect` are reserved for protocol-state invariants whose violation
// means the simulation is already corrupt, each carrying an `#[allow]`
// with its justification. Test modules are exempt wholesale.
#![warn(clippy::unwrap_used, clippy::expect_used)]
pub mod buffers;
pub mod cht;
pub mod config;
pub mod engine;
pub mod ids;
pub mod layout;
pub mod memory;
pub mod metrics;
pub mod ops;
pub mod sim;
pub mod workload;

pub use config::{CoalesceConfig, MembershipConfig, RetryConfig, RuntimeConfig, ServeConfig};
pub use engine::{forward_decision, RepairCertifier, Report, SimError};
pub use ids::{NodeId, Rank, Sender};
pub use layout::Layout;
pub use memory::{node_memory, NodeMemory};
pub use metrics::{
    CoalesceStats, FaultStats, Metrics, OpRecord, RankStats, RepairStats, ServeStats,
};
pub use ops::{Op, OpKind};
pub use sim::Simulation;
pub use workload::{Action, ClosureProgram, IdleProgram, ProcCtx, Program, ScriptProgram};

// Re-exported so workloads don't need a direct vt-simnet dependency for
// time arithmetic, fault scheduling or arrival-process construction.
pub use vt_simnet::{ArrivalKind, ArrivalProcess, FaultPlan, LoadPhase, SimTime};
