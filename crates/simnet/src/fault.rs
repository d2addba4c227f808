//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a *schedule*, fixed before the run starts, of
//! everything that will go wrong: nodes that crash (host, CHT thread and
//! NIC all die together) and possibly reboot later, links that degrade or
//! fail outright for a window, network partitions that sever a set of
//! directed node pairs together and heal together, windows of transient
//! message loss, and windows of payload corruption. The plan plus the
//! machine seed fully determine the run — injecting the same plan twice
//! produces byte-identical timelines, so every failure scenario is a
//! reproducible experiment rather than a flake.
//!
//! The plan is interpreted in two places. [`crate::net::Network`] applies
//! it as a filter on its one transmit pipeline: frames to or from a
//! crashed node, frames whose route crosses a failed link, and frames
//! caught by a drop window are returned as
//! [`crate::net::SendOutcome::Dropped`] instead of a delivery. The runtime
//! layer above (vt-armci) schedules the node-crash instants as events so
//! it can retire the node's processes and steer new routes around it.
//!
//! An **empty** plan costs nothing: the network installs no filter and the
//! runtime arms no timers, so a run with `FaultPlan::new()` is
//! event-for-event identical to one built without a plan at all.

use crate::time::SimTime;

/// A node failure: at `at`, the node's host processes, helper thread and
/// NIC all stop. In-flight messages towards it are lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeCrash {
    /// Instant of the crash.
    pub at: SimTime,
    /// Logical node that dies.
    pub node: u32,
}

/// The largest degrade factor [`FaultPlan::validate`] accepts. A link
/// slowed a millionfold is indistinguishable from [`LinkMode::Fail`] in any
/// run that finishes, and much larger factors overflow simulated time on
/// the first frame across the link.
pub const MAX_DEGRADE_FACTOR: f64 = 1e6;

/// What a link fault does while active.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkMode {
    /// The link still works but serialises `factor` times slower
    /// (`1 <= factor <= MAX_DEGRADE_FACTOR`).
    Degrade(f64),
    /// The link drops every message whose head reaches it.
    Fail,
}

/// A fault on one directed physical link, identified the same way
/// [`crate::net::Network::top_links`] reports them: torus slot plus
/// direction index `0..6`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFault {
    /// Physical torus slot the link leaves from.
    pub slot: u32,
    /// Direction index (`0..6`: ±x, ±y, ±z).
    pub dir: u8,
    /// When the fault begins.
    pub at: SimTime,
    /// When it clears; `None` means it never does.
    pub until: Option<SimTime>,
    /// Degradation or outright failure.
    pub mode: LinkMode,
}

/// A window of transient loss: each message *arriving* inside the window
/// is dropped with the given probability (drawn from the machine's
/// fault RNG stream, so the same seed loses the same messages).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DropWindow {
    /// Start of the lossy window.
    pub from: SimTime,
    /// End of the lossy window (exclusive).
    pub until: SimTime,
    /// Per-message drop probability in `[0, 1]`.
    pub probability: f64,
}

/// A crashed node reboots: at `at`, the node's host, helper thread and
/// NIC come back with cold state. Only valid for a node the plan crashed
/// strictly earlier — the runtime layer revives the node's processes and
/// re-admits it via a grow-back membership epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeRestart {
    /// Instant of the reboot.
    pub at: SimTime,
    /// Logical node that comes back.
    pub node: u32,
}

/// A network partition: every directed `(src, dst)` pair in `cut` is
/// severed together over `[from, until)` and heals together at `until`.
/// Messages whose send instant falls inside the window are lost at the
/// sender's NIC; both endpoints stay alive, which is exactly what makes a
/// partition ambiguous to a crash detector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Start of the partition.
    pub from: SimTime,
    /// Instant the partition heals (exclusive).
    pub until: SimTime,
    /// Directed logical node pairs severed by the cut.
    pub cut: Vec<(u32, u32)>,
}

impl PartitionWindow {
    /// Whether the cut severs `src -> dst` at time `at`.
    pub fn severs(&self, at: SimTime, src: u32, dst: u32) -> bool {
        at >= self.from && at < self.until && self.cut.contains(&(src, dst))
    }

    /// Whether `node` is an endpoint of any severed pair.
    pub fn involves(&self, node: u32) -> bool {
        self.cut.iter().any(|&(a, b)| a == node || b == node)
    }
}

/// A window of payload corruption: each message *arriving* inside the
/// window has its payload bit-flipped with the given probability (drawn
/// from a dedicated fault RNG stream, so the same seed corrupts the same
/// messages). A corrupt frame is still delivered — detecting it is the
/// runtime's job, via end-to-end envelope checksums.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorruptWindow {
    /// Start of the corrupting window.
    pub from: SimTime,
    /// End of the corrupting window (exclusive).
    pub until: SimTime,
    /// Per-message corruption probability in `[0, 1]`.
    pub probability: f64,
}

/// A complete, deterministic schedule of injected faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Nodes that crash, and when.
    pub node_crashes: Vec<NodeCrash>,
    /// Crashed nodes that reboot, and when.
    pub node_restarts: Vec<NodeRestart>,
    /// Link degradations and failures.
    pub link_faults: Vec<LinkFault>,
    /// Network partitions (severed directed cuts that heal together).
    pub partitions: Vec<PartitionWindow>,
    /// Windows of transient message loss.
    pub drop_windows: Vec<DropWindow>,
    /// Windows of payload corruption.
    pub corrupt_windows: Vec<CorruptWindow>,
}

impl FaultPlan {
    /// An empty plan — nothing fails.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules no faults at all. An empty plan
    /// installs nothing: the network and runtime behave as without one.
    pub fn is_empty(&self) -> bool {
        self.node_crashes.is_empty()
            && self.node_restarts.is_empty()
            && self.link_faults.is_empty()
            && self.partitions.is_empty()
            && self.drop_windows.is_empty()
            && self.corrupt_windows.is_empty()
    }

    /// Schedules `node` to crash at `at` (builder style).
    pub fn crash_node(mut self, at: SimTime, node: u32) -> Self {
        self.node_crashes.push(NodeCrash { at, node });
        self
    }

    /// Fails the link `slot`/`dir` from `at` until `until` (forever when
    /// `None`).
    pub fn fail_link(mut self, slot: u32, dir: u8, at: SimTime, until: Option<SimTime>) -> Self {
        self.link_faults.push(LinkFault {
            slot,
            dir,
            at,
            until,
            mode: LinkMode::Fail,
        });
        self
    }

    /// Degrades the link `slot`/`dir` by `factor` (≥ 1) from `at` until
    /// `until`.
    pub fn degrade_link(
        mut self,
        slot: u32,
        dir: u8,
        at: SimTime,
        until: Option<SimTime>,
        factor: f64,
    ) -> Self {
        self.link_faults.push(LinkFault {
            slot,
            dir,
            at,
            until,
            mode: LinkMode::Degrade(factor),
        });
        self
    }

    /// Adds a transient-loss window dropping arrivals in `[from, until)`
    /// with probability `p`.
    pub fn drop_window(mut self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.drop_windows.push(DropWindow {
            from,
            until,
            probability: p,
        });
        self
    }

    /// Schedules `node` to reboot at `at` (it must crash strictly
    /// earlier; [`FaultPlan::validate`] rejects orphan restarts).
    pub fn restart_node(mut self, at: SimTime, node: u32) -> Self {
        self.node_restarts.push(NodeRestart { at, node });
        self
    }

    /// Severs every directed pair in `cut` over `[from, until)`, healing
    /// them together at `until`.
    pub fn partition(mut self, from: SimTime, until: SimTime, cut: Vec<(u32, u32)>) -> Self {
        self.partitions.push(PartitionWindow { from, until, cut });
        self
    }

    /// Adds a payload-corruption window flipping bits of arrivals in
    /// `[from, until)` with probability `p`.
    pub fn corrupt_window(mut self, from: SimTime, until: SimTime, p: f64) -> Self {
        self.corrupt_windows.push(CorruptWindow {
            from,
            until,
            probability: p,
        });
        self
    }

    /// All nodes the plan ever crashes, sorted and deduplicated. This is
    /// the dead-set surface static analysis works from: `vt-analyze` feeds
    /// it to the escape-class router to build route-around dependency
    /// edges without replaying the schedule.
    pub fn crashed_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self.node_crashes.iter().map(|c| c.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// True when the plan kills at least one node *permanently* (a crash
    /// with no matching restart) — the class of fault that only membership
    /// repair (not retry/route-around) can survive when the victim is
    /// escape-critical.
    pub fn has_permanent_crashes(&self) -> bool {
        self.node_crashes
            .iter()
            .any(|c| self.restart_time(c.node).is_none())
    }

    /// The crash instant of `node`, if the plan kills it.
    pub fn crash_time(&self, node: u32) -> Option<SimTime> {
        self.node_crashes
            .iter()
            .filter(|c| c.node == node)
            .map(|c| c.at)
            .min()
    }

    /// The reboot instant of `node`, if the plan restarts it.
    pub fn restart_time(&self, node: u32) -> Option<SimTime> {
        self.node_restarts
            .iter()
            .filter(|r| r.node == node)
            .map(|r| r.at)
            .min()
    }

    /// The outage window of `node`: its crash instant plus the reboot
    /// instant ending the outage (`None` means it never comes back).
    pub fn outage(&self, node: u32) -> Option<(SimTime, Option<SimTime>)> {
        self.crash_time(node)
            .map(|crash| (crash, self.restart_time(node)))
    }

    /// Checks internal consistency: direction indices in range, degrade
    /// factors in `[1, MAX_DEGRADE_FACTOR]`, probabilities in `[0, 1]`,
    /// windows non-empty, no node crashing or restarting twice, every
    /// restart preceded by a crash of the same node, and partition cuts
    /// non-empty with distinct endpoints.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let mut crashed = Vec::new();
        for c in &self.node_crashes {
            if crashed.contains(&c.node) {
                return Err(FaultPlanError::DuplicateCrash { node: c.node });
            }
            crashed.push(c.node);
        }
        let mut restarted = Vec::new();
        for r in &self.node_restarts {
            if restarted.contains(&r.node) {
                return Err(FaultPlanError::DuplicateRestart { node: r.node });
            }
            restarted.push(r.node);
            match self.crash_time(r.node) {
                None => return Err(FaultPlanError::RestartWithoutCrash { node: r.node }),
                Some(crash) if r.at <= crash => {
                    return Err(FaultPlanError::RestartBeforeCrash {
                        node: r.node,
                        crash,
                        restart: r.at,
                    });
                }
                Some(_) => {}
            }
        }
        for f in &self.link_faults {
            if f.dir >= 6 {
                return Err(FaultPlanError::LinkDirOutOfRange { dir: f.dir });
            }
            if let Some(until) = f.until {
                if until <= f.at {
                    return Err(FaultPlanError::EmptyWindow {
                        kind: "link fault",
                        from: f.at,
                        until,
                    });
                }
            }
            if let LinkMode::Degrade(factor) = f.mode {
                // Also rejects NaN, for which `contains` is false.
                if !(1.0..=MAX_DEGRADE_FACTOR).contains(&factor) {
                    return Err(FaultPlanError::BadDegradeFactor { factor });
                }
            }
        }
        for p in &self.partitions {
            if p.until <= p.from {
                return Err(FaultPlanError::EmptyWindow {
                    kind: "partition",
                    from: p.from,
                    until: p.until,
                });
            }
            if p.cut.is_empty() {
                return Err(FaultPlanError::EmptyCut);
            }
            if let Some(&(a, _)) = p.cut.iter().find(|&&(a, b)| a == b) {
                return Err(FaultPlanError::SelfEdgeInCut { node: a });
            }
        }
        for (kind, windows) in [
            (
                "drop",
                self.drop_windows
                    .iter()
                    .map(|w| (w.from, w.until, w.probability))
                    .collect::<Vec<_>>(),
            ),
            (
                "corrupt",
                self.corrupt_windows
                    .iter()
                    .map(|w| (w.from, w.until, w.probability))
                    .collect::<Vec<_>>(),
            ),
        ] {
            for (from, until, probability) in windows {
                if until <= from {
                    return Err(FaultPlanError::EmptyWindow { kind, from, until });
                }
                if !(0.0..=1.0).contains(&probability) {
                    return Err(FaultPlanError::BadProbability { kind, probability });
                }
            }
        }
        Ok(())
    }
}

/// A structural defect in a [`FaultPlan`], reported by
/// [`FaultPlan::validate`]. Typed so CLIs and drivers can fail fast with
/// a precise message instead of silently misbehaving on a malformed
/// schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A node crashes more than once.
    DuplicateCrash {
        /// The doubly-crashed node.
        node: u32,
    },
    /// A node restarts more than once.
    DuplicateRestart {
        /// The doubly-restarted node.
        node: u32,
    },
    /// A restart names a node the plan never crashes.
    RestartWithoutCrash {
        /// The node with an orphan restart.
        node: u32,
    },
    /// A restart does not come strictly after the node's crash.
    RestartBeforeCrash {
        /// The node.
        node: u32,
        /// Its crash instant.
        crash: SimTime,
        /// The offending restart instant.
        restart: SimTime,
    },
    /// A link fault names a direction outside `0..6`.
    LinkDirOutOfRange {
        /// The out-of-range direction index.
        dir: u8,
    },
    /// A degrade factor below 1 (links cannot speed up), above
    /// [`MAX_DEGRADE_FACTOR`], infinite or NaN.
    BadDegradeFactor {
        /// The offending factor.
        factor: f64,
    },
    /// A window with `until <= from` (link fault, partition, drop or
    /// corrupt).
    EmptyWindow {
        /// Which schedule the window belongs to.
        kind: &'static str,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// A drop or corrupt probability outside `[0, 1]`.
    BadProbability {
        /// Which schedule the probability belongs to.
        kind: &'static str,
        /// The offending probability.
        probability: f64,
    },
    /// A partition window with no severed pairs.
    EmptyCut,
    /// A partition cut pair with identical endpoints.
    SelfEdgeInCut {
        /// The node paired with itself.
        node: u32,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::DuplicateCrash { node } => {
                write!(f, "node {node} crashes more than once")
            }
            FaultPlanError::DuplicateRestart { node } => {
                write!(f, "node {node} restarts more than once")
            }
            FaultPlanError::RestartWithoutCrash { node } => {
                write!(f, "restart of node {node} without a preceding crash")
            }
            FaultPlanError::RestartBeforeCrash {
                node,
                crash,
                restart,
            } => write!(
                f,
                "restart of node {node} at {restart:?} does not follow its crash at {crash:?}"
            ),
            FaultPlanError::LinkDirOutOfRange { dir } => {
                write!(f, "link direction {dir} out of range 0..6")
            }
            FaultPlanError::BadDegradeFactor { factor } => {
                write!(
                    f,
                    "degrade factor {factor} must be in [1, {MAX_DEGRADE_FACTOR:e}]"
                )
            }
            FaultPlanError::EmptyWindow { kind, from, until } => {
                write!(f, "{kind} window {from:?}..{until:?} is empty")
            }
            FaultPlanError::BadProbability { kind, probability } => {
                write!(f, "{kind} probability {probability} outside [0, 1]")
            }
            FaultPlanError::EmptyCut => write!(f, "partition window severs no pairs"),
            FaultPlanError::SelfEdgeInCut { node } => {
                write!(f, "partition cut pairs node {node} with itself")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Why a message was lost instead of delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The sending node was already dead.
    SourceDead,
    /// The destination node was dead by the time the payload arrived.
    DestDead,
    /// A failed link on the route swallowed the message.
    LinkDown,
    /// An active partition severed the sender from the destination.
    Partitioned,
    /// A transient-loss window claimed the message.
    Transient,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DropReason::SourceDead => "source-dead",
            DropReason::DestDead => "dest-dead",
            DropReason::LinkDown => "link-down",
            DropReason::Partitioned => "partitioned",
            DropReason::Transient => "transient",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(FaultPlan::new().validate().is_ok());
    }

    #[test]
    fn builders_accumulate() {
        let plan = FaultPlan::new()
            .crash_node(SimTime::from_micros(50), 3)
            .fail_link(7, 2, SimTime::ZERO, None)
            .degrade_link(1, 0, SimTime::ZERO, Some(SimTime::from_micros(10)), 4.0)
            .drop_window(SimTime::ZERO, SimTime::from_micros(5), 0.25);
        assert!(!plan.is_empty());
        assert_eq!(plan.node_crashes.len(), 1);
        assert_eq!(plan.link_faults.len(), 2);
        assert_eq!(plan.drop_windows.len(), 1);
        assert!(plan.validate().is_ok());
        assert_eq!(plan.crash_time(3), Some(SimTime::from_micros(50)));
        assert_eq!(plan.crash_time(4), None);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let twice = FaultPlan::new()
            .crash_node(SimTime::ZERO, 1)
            .crash_node(SimTime::from_micros(1), 1);
        assert!(twice.validate().is_err());

        let bad_dir = FaultPlan::new().fail_link(0, 6, SimTime::ZERO, None);
        assert!(bad_dir.validate().is_err());

        let empty_window = FaultPlan::new().fail_link(
            0,
            0,
            SimTime::from_micros(2),
            Some(SimTime::from_micros(2)),
        );
        assert!(empty_window.validate().is_err());

        let speedup = FaultPlan::new().degrade_link(0, 0, SimTime::ZERO, None, 0.5);
        assert!(speedup.validate().is_err());

        // Factors that would overflow simulated time on the first frame.
        for factor in [f64::INFINITY, 1e300, f64::NAN] {
            let slow = FaultPlan::new().degrade_link(0, 0, SimTime::ZERO, None, factor);
            assert!(
                matches!(
                    slow.validate(),
                    Err(FaultPlanError::BadDegradeFactor { .. })
                ),
                "factor {factor} validated"
            );
        }
        let ceiling = FaultPlan::new().degrade_link(0, 0, SimTime::ZERO, None, MAX_DEGRADE_FACTOR);
        assert!(ceiling.validate().is_ok());

        let bad_p = FaultPlan::new().drop_window(SimTime::ZERO, SimTime::from_micros(1), 1.5);
        assert!(bad_p.validate().is_err());

        let empty_drop = FaultPlan::new().drop_window(SimTime::from_micros(1), SimTime::ZERO, 0.1);
        assert!(empty_drop.validate().is_err());
    }

    #[test]
    fn restart_builders_and_outage_windows() {
        let plan = FaultPlan::new()
            .crash_node(SimTime::from_micros(50), 3)
            .restart_node(SimTime::from_micros(200), 3);
        assert!(!plan.is_empty());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.restart_time(3), Some(SimTime::from_micros(200)));
        assert_eq!(plan.restart_time(4), None);
        assert_eq!(
            plan.outage(3),
            Some((SimTime::from_micros(50), Some(SimTime::from_micros(200))))
        );
        // A crash that heals is not permanent; one that doesn't is.
        assert!(!plan.has_permanent_crashes());
        let permanent = plan.crash_node(SimTime::ZERO, 7);
        assert!(permanent.has_permanent_crashes());
        assert_eq!(permanent.outage(7), Some((SimTime::ZERO, None)));
    }

    #[test]
    fn validate_rejects_bad_restarts() {
        let orphan = FaultPlan::new().restart_node(SimTime::from_micros(10), 2);
        assert_eq!(
            orphan.validate(),
            Err(FaultPlanError::RestartWithoutCrash { node: 2 })
        );

        let backwards = FaultPlan::new()
            .crash_node(SimTime::from_micros(10), 2)
            .restart_node(SimTime::from_micros(10), 2);
        assert!(matches!(
            backwards.validate(),
            Err(FaultPlanError::RestartBeforeCrash { node: 2, .. })
        ));

        let twice = FaultPlan::new()
            .crash_node(SimTime::ZERO, 2)
            .restart_node(SimTime::from_micros(1), 2)
            .restart_node(SimTime::from_micros(2), 2);
        assert_eq!(
            twice.validate(),
            Err(FaultPlanError::DuplicateRestart { node: 2 })
        );
    }

    #[test]
    fn partition_windows_sever_directed_pairs() {
        let plan = FaultPlan::new().partition(
            SimTime::from_micros(10),
            SimTime::from_micros(20),
            vec![(0, 1), (1, 0), (2, 1)],
        );
        assert!(plan.validate().is_ok());
        let w = &plan.partitions[0];
        assert!(w.severs(SimTime::from_micros(10), 0, 1));
        assert!(w.severs(SimTime::from_micros(19), 2, 1));
        assert!(!w.severs(SimTime::from_micros(20), 0, 1), "heal is exact");
        assert!(!w.severs(SimTime::from_micros(9), 0, 1));
        assert!(
            !w.severs(SimTime::from_micros(15), 1, 2),
            "cuts are directed"
        );
        assert!(w.involves(2));
        assert!(!w.involves(3));
    }

    #[test]
    fn validate_rejects_bad_partitions_and_corrupt_windows() {
        let empty_cut =
            FaultPlan::new().partition(SimTime::ZERO, SimTime::from_micros(1), Vec::new());
        assert_eq!(empty_cut.validate(), Err(FaultPlanError::EmptyCut));

        let self_edge =
            FaultPlan::new().partition(SimTime::ZERO, SimTime::from_micros(1), vec![(3, 3)]);
        assert_eq!(
            self_edge.validate(),
            Err(FaultPlanError::SelfEdgeInCut { node: 3 })
        );

        let inverted = FaultPlan::new().partition(
            SimTime::from_micros(2),
            SimTime::from_micros(1),
            vec![(0, 1)],
        );
        assert!(matches!(
            inverted.validate(),
            Err(FaultPlanError::EmptyWindow {
                kind: "partition",
                ..
            })
        ));

        let bad_p = FaultPlan::new().corrupt_window(SimTime::ZERO, SimTime::from_micros(1), -0.5);
        assert!(matches!(
            bad_p.validate(),
            Err(FaultPlanError::BadProbability {
                kind: "corrupt",
                ..
            })
        ));

        let empty_corrupt =
            FaultPlan::new().corrupt_window(SimTime::from_micros(1), SimTime::from_micros(1), 0.5);
        assert!(matches!(
            empty_corrupt.validate(),
            Err(FaultPlanError::EmptyWindow {
                kind: "corrupt",
                ..
            })
        ));

        let ok = FaultPlan::new().corrupt_window(SimTime::ZERO, SimTime::from_micros(1), 0.5);
        assert!(ok.validate().is_ok());
        assert!(!ok.is_empty());
    }

    #[test]
    fn plan_errors_render_for_operators() {
        let e = FaultPlanError::RestartWithoutCrash { node: 9 };
        assert_eq!(e.to_string(), "restart of node 9 without a preceding crash");
        let p = FaultPlanError::BadProbability {
            kind: "drop",
            probability: 1.5,
        };
        assert_eq!(p.to_string(), "drop probability 1.5 outside [0, 1]");
    }
}
