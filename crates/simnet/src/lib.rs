//! # vt-simnet — a deterministic Cray XT5-class machine simulator
//!
//! The paper's evaluation ran on the Jaguar Cray XT5 (SeaStar2+ 3-D torus,
//! connection-less Portals messaging, Cray BEER end-to-end reliability).
//! None of that hardware is available, so this crate provides the substrate
//! the reproduction runs on:
//!
//! * [`SimTime`] and the deterministic [`EventQueue`] — a discrete-event
//!   core with stable FIFO tie-breaking,
//! * [`Torus3`] — a 3-D torus with dimension-order routing and per-link
//!   store-and-forward serialisation,
//! * [`Nic`] — a network interface with transmit/receive serialisation and a
//!   bounded set of *fast message-stream contexts*; messages from sources
//!   outside the hot set pay a BEER-style slow-path penalty, which models the
//!   paper's "flow control and reliability" throttling (§II),
//! * [`Network`] — the façade that walks every [`Frame`] (message, coalesced
//!   envelope, heartbeat probe) through one TX → links → RX pipeline,
//!   reserving NIC and link time, and returns its delivery time,
//! * [`DetRng`] and [`stats`] — seeded randomness and summary statistics,
//! * [`ArrivalProcess`] — deterministic open-system arrival generators
//!   (steady / diurnal / flash-crowd offered-load curves) for serving-mode
//!   workloads,
//! * [`FaultPlan`] — a deterministic schedule of node crashes and reboots,
//!   link degradation/failure, network partitions, transient message loss
//!   and payload corruption, applied by
//!   [`Network::transmit`](net::Network::transmit) as a filter on that same
//!   pipeline; with an empty plan the filter does nothing.
//!
//! The simulator is a *time-reservation* model: every component keeps a
//! `busy_until` horizon and messages queue behind it, which is how many-to-one
//! traffic turns into the queueing delay and stream thrash the paper
//! attributes FCG's contention collapse to. Everything is single-threaded and
//! deterministic; the same seed and configuration always produce the same
//! timeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic policy for the network hot paths: `unwrap`/`expect` are reserved
// for invariants (guarded control flow, clock overflow) and each site
// carries an `#[allow]` with its justification; anything reachable from a
// valid configuration must return a typed outcome instead. Test modules
// are exempt wholesale.
#![warn(clippy::unwrap_used, clippy::expect_used)]
pub mod arrivals;
pub mod config;
pub mod engine;
pub mod fault;
pub mod link;
pub mod net;
pub mod nic;
pub mod placement;
pub mod rng;
pub mod stats;
pub mod time;
pub mod torus;

pub use arrivals::{ArrivalGen, ArrivalKind, ArrivalProcess, LoadPhase};
pub use config::NetworkConfig;
pub use engine::{BaselineEventQueue, EventQueue, FelStats};
pub use fault::{
    CorruptWindow, DropReason, DropWindow, FaultPlan, FaultPlanError, LinkFault, LinkMode,
    NodeCrash, NodeRestart, PartitionWindow,
};
pub use net::{Delivery, Frame, Network, SendOutcome, ENV_SUB_HEADER};
pub use nic::Nic;
pub use placement::Placement;
pub use rng::DetRng;
pub use time::SimTime;
pub use torus::Torus3;
