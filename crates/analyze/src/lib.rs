//! `vt-analyze` — static protocol verification for the virtual-topology
//! runtime.
//!
//! The paper's safety story (LDF's monotone dimension order keeps the
//! buffer-dependency graph acyclic, hence forwarding cannot deadlock) is
//! checked here *statically*, before any simulation runs:
//!
//! 1. **Acyclicity** — the full `(channel, escape-class)` buffer/credit
//!    wait-for graph, built from the engine's own
//!    [`vt_armci::forward_decision`] and including route-around escape
//!    edges and coalesced-envelope credit edges, is proved acyclic or the
//!    offending cycle is emitted as a DOT counterexample
//!    ([`depgraph`]).
//! 2. **Totality & depth** — every live pair routes to its destination on
//!    populated edges within the paper's forwarding-depth bound for the
//!    topology, partial LDF packings included ([`checks`]).
//! 3. **Buffer budgets** — the `N x B x M` per-node accounting is
//!    recomputed from first principles and cross-checked against both the
//!    memory model and the runtime's `BufferPool` layout ([`checks`]).
//! 4. **Model checking** — for small N, *every* interleaving of the CHT
//!    protocol's events is explored with a sleep-set reduction, proving
//!    quiescence, exactly-once execution under retries, and zero credit
//!    leaks under injected crashes ([`model`]).
//!
//! The CLI surface is `vtsim analyze`; experiment drivers call
//! [`certify`] as a pre-flight gate, and CI runs the full topology x
//! coalescing x fault matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod checks;
pub mod depgraph;
pub mod model;
pub mod report;

use vt_armci::{CoalesceConfig, RuntimeConfig};
use vt_core::{Grid, TopologyKind};
use vt_simnet::FaultPlan;

/// One `(topology, node count, coalescing, fault)` configuration to
/// verify.
#[derive(Clone, Debug)]
pub struct AnalyzeConfig {
    /// Virtual topology under test.
    pub topology: TopologyKind,
    /// Number of nodes.
    pub nodes: u32,
    /// Processes per node (senders per in-edge).
    pub procs_per_node: u32,
    /// Request-buffer size `B` in bytes.
    pub buffer_bytes: u64,
    /// Credits per sender per `(edge, class)` account (`M`).
    pub credits: u32,
    /// Whether request coalescing is enabled (adds the envelope refold
    /// check).
    pub coalescing: bool,
    /// Nodes crashed by the fault plan, in schedule order; drives the
    /// escape-class route-around edges.
    pub dead_sequence: Vec<u32>,
    /// Run the exhaustive small-N model checker (at a scaled-down node
    /// count when `nodes` exceeds [`model::MAX_MODEL_NODES`]).
    pub model_check: bool,
    /// Membership repair is enabled in the runtime: the model checker
    /// additionally explores epoch commits, stale-epoch rejection and
    /// re-routing over the survivor packing (see
    /// [`model::ModelConfig::membership`]).
    pub membership: bool,
}

impl AnalyzeConfig {
    /// Paper-like defaults: 4 ppn, 16 KiB buffers, `M = 4`, coalescing
    /// off, fault-free, model checking on.
    pub fn new(topology: TopologyKind, nodes: u32) -> Self {
        AnalyzeConfig {
            topology,
            nodes,
            procs_per_node: 4,
            buffer_bytes: 16 * 1024,
            credits: 4,
            coalescing: false,
            dead_sequence: Vec::new(),
            model_check: true,
            membership: false,
        }
    }

    /// The configuration a concrete runtime + fault plan implies — the
    /// pre-flight entry point for experiment drivers.
    pub fn from_runtime(cfg: &RuntimeConfig, plan: Option<&FaultPlan>) -> Self {
        AnalyzeConfig {
            topology: cfg.topology,
            nodes: cfg.num_nodes(),
            procs_per_node: cfg.procs_per_node,
            buffer_bytes: cfg.buffer_bytes,
            credits: cfg.buffers_per_proc,
            coalescing: cfg.coalesce.enabled,
            dead_sequence: plan.map(FaultPlan::crashed_nodes).unwrap_or_default(),
            model_check: false,
            membership: cfg.membership.enabled,
        }
    }

    /// Builds the topology, or explains why the population is
    /// unsupported.
    pub fn build_topology(&self) -> Result<Grid, String> {
        self.topology
            .try_build(self.nodes)
            .map_err(|e| e.to_string())
    }

    /// The equivalent runtime configuration (used to cross-check the
    /// budget accounting against the runtime's own memory model).
    pub fn runtime_config(&self) -> RuntimeConfig {
        let mut rt = RuntimeConfig::new(self.nodes * self.procs_per_node, self.topology);
        rt.procs_per_node = self.procs_per_node;
        rt.buffer_bytes = self.buffer_bytes;
        rt.buffers_per_proc = self.credits;
        if self.coalescing {
            rt.coalesce = CoalesceConfig::on();
        }
        rt
    }
}

/// Outcome of one static check.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// Short stable identifier (`acyclicity`, `totality`, ...).
    pub name: String,
    /// Whether the property holds.
    pub passed: bool,
    /// Human-readable evidence: what was checked and the margin, or the
    /// first counterexamples.
    pub detail: String,
}

/// A cycle in the buffer wait-for relation: the closed walk of
/// `(channel, class)` vertices, last element repeating the first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleWitness {
    /// `((from, to), class)` per vertex on the walk.
    pub hops: Vec<((u32, u32), u8)>,
}

/// Full verification result for one configuration.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Topology name.
    pub topology: String,
    /// Node count.
    pub nodes: u32,
    /// Processes per node.
    pub procs_per_node: u32,
    /// Coalescing enabled?
    pub coalescing: bool,
    /// Crashed nodes (sorted).
    pub dead: Vec<u32>,
    /// Static check outcomes.
    pub checks: Vec<CheckResult>,
    /// The cycle, when acyclicity failed.
    pub counterexample: Option<CycleWitness>,
    /// Model-checking outcome, when requested and in range.
    pub model: Option<model::ModelReport>,
}

impl AnalysisReport {
    /// True when every check passed and (if run) the model checker found
    /// no violation — the configuration is safe to simulate.
    pub fn certified(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
            && self.counterexample.is_none()
            && self.model.as_ref().is_none_or(model::ModelReport::passed)
    }
}

/// Verifies one configuration.
///
/// # Errors
/// Returns `Err` only for configurations that cannot be *posed* — an
/// unsupported topology population or malformed victim list. A
/// well-posed configuration always yields a report; failed properties
/// show up as failed checks, not errors.
pub fn analyze(cfg: &AnalyzeConfig) -> Result<AnalysisReport, String> {
    let topo = cfg.build_topology()?;
    if let Some(&bad) = cfg.dead_sequence.iter().find(|&&v| v >= cfg.nodes) {
        return Err(format!("crash victim {bad} outside 0..{}", cfg.nodes));
    }
    if cfg.procs_per_node == 0 || cfg.credits == 0 || cfg.buffer_bytes == 0 {
        return Err("ppn, credits and buffer size must all be positive".to_string());
    }
    let mut dead = cfg.dead_sequence.clone();
    dead.sort_unstable();
    dead.dedup();

    let walk = depgraph::walk(&topo, &cfg.dead_sequence, cfg.coalescing);
    let mut checks = Vec::new();
    let (acyclic, counterexample) = checks::check_acyclic(&walk.dg);
    checks.push(acyclic);
    checks.push(checks::check_totality(&topo, &walk));
    checks.push(checks::check_depth(&topo, &walk));
    checks.push(checks::check_budget(&topo, cfg));
    if cfg.coalescing {
        checks.push(checks::check_coalescing(&topo, &dead, &walk));
    }

    let model = if cfg.model_check {
        let model_nodes = model_scale(cfg.topology, cfg.nodes);
        let mut scenario =
            model::ModelConfig::scenario(cfg.topology, model_nodes, !cfg.dead_sequence.is_empty());
        scenario.membership = cfg.membership;
        match model::check(&scenario) {
            Ok(rep) => {
                checks.push(CheckResult {
                    name: "model-check-scale".to_string(),
                    passed: true,
                    detail: format!(
                        "exhaustive interleaving search ran at N = {model_nodes} ({} requests, {} crashes)",
                        scenario.requests.len(),
                        scenario.crash_sequence.len()
                    ),
                });
                Some(rep)
            }
            Err(e) => {
                checks.push(CheckResult {
                    name: "model-check-scale".to_string(),
                    passed: false,
                    detail: e,
                });
                None
            }
        }
    } else {
        None
    };

    Ok(AnalysisReport {
        topology: cfg.topology.name().to_string(),
        nodes: cfg.nodes,
        procs_per_node: cfg.procs_per_node,
        coalescing: cfg.coalescing,
        dead,
        checks,
        counterexample,
        model,
    })
}

/// The node count the model checker runs at for a configuration of
/// `nodes`: the configuration itself when small enough, otherwise the
/// largest in-range population the topology supports.
fn model_scale(kind: TopologyKind, nodes: u32) -> u32 {
    let cap = model::MAX_MODEL_NODES;
    if nodes <= cap && kind.supports(nodes) {
        return nodes;
    }
    (1..=cap.min(nodes))
        .rev()
        .find(|&n| kind.supports(n))
        .unwrap_or(1)
}

/// Pre-flight gate for experiment drivers: verifies the configuration a
/// runtime + fault plan implies and returns the full human-readable
/// report as the error when it is not certified.
///
/// # Errors
/// Returns the rendered report when any check fails.
pub fn certify(cfg: &RuntimeConfig, plan: Option<&FaultPlan>) -> Result<(), String> {
    let report = analyze(&AnalyzeConfig::from_runtime(cfg, plan))?;
    if report.certified() {
        Ok(())
    } else {
        Err(report.render())
    }
}

/// Certifier for live membership repairs: statically verifies the
/// topology the runtime is about to commit for an epoch — `kind`
/// re-packed densely over `survivors` live nodes (so fault-free by
/// construction: the crashed nodes are no longer part of the grid).
/// Shaped to match `vt_armci::RepairCertifier`, so drivers install it
/// directly:
///
/// ```
/// use vt_armci::{RuntimeConfig, Simulation, ScriptProgram, FaultPlan};
/// use vt_core::TopologyKind;
///
/// let mut cfg = RuntimeConfig::new(8, TopologyKind::Mfcg);
/// cfg.membership = vt_armci::MembershipConfig::on();
/// let sim = Simulation::build_with_faults(cfg, |_| ScriptProgram::new(vec![]), &FaultPlan::new())
///     .with_repair_certifier(vt_analyze::certify_repair);
/// sim.run().unwrap();
/// ```
///
/// # Errors
/// Returns the rendered report when any static check fails; the runtime
/// then falls to the next rung of the fallback ladder.
pub fn certify_repair(kind: TopologyKind, survivors: u32) -> Result<(), String> {
    let mut cfg = AnalyzeConfig::new(kind, survivors);
    cfg.model_check = false;
    let report = analyze(&cfg)?;
    if report.certified() {
        Ok(())
    } else {
        Err(report.render())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn all_four_topologies_certify_fault_free() {
        for (kind, n) in [
            (TopologyKind::Fcg, 12),
            (TopologyKind::Mfcg, 23),
            (TopologyKind::Cfcg, 29),
            (TopologyKind::Hypercube, 16),
        ] {
            let mut cfg = AnalyzeConfig::new(kind, n);
            cfg.model_check = false;
            let rep = analyze(&cfg).unwrap();
            assert!(rep.certified(), "{kind}/{n}:\n{}", rep.render());
        }
    }

    #[test]
    fn coalescing_and_faults_certify() {
        let mut cfg = AnalyzeConfig::new(TopologyKind::Cfcg, 27);
        cfg.coalescing = true;
        cfg.dead_sequence = vec![1];
        cfg.model_check = false;
        let rep = analyze(&cfg).unwrap();
        assert!(rep.certified(), "{}", rep.render());
        assert!(rep.checks.iter().any(|c| c.name == "coalescing-refold"));
    }

    #[test]
    fn boundary_crash_on_partial_packing_is_refused() {
        // In a partially-packed LDF grid, some nodes are the *only* LDF
        // hop (direct or escape) between certain live pairs: the
        // dimension-correcting alternative lands in the unpopulated part
        // of the top slice. Crashing such a node genuinely partitions the
        // live set, and the analyzer must refuse the configuration with a
        // totality failure rather than certify it.
        for (kind, n, victim) in [
            // 5x5 MFCG with 23 populated: (2,0) is the sole escape for
            // (3,0) -> (2,4) once the dim-1 hop (3,4) is unpopulated.
            (TopologyKind::Mfcg, 23, 2),
            // 4x3x3 CFCG with 29 populated: (0,0,2) is the sole in-slice
            // forwarder toward (0,1,2).
            (TopologyKind::Cfcg, 29, 24),
        ] {
            let mut cfg = AnalyzeConfig::new(kind, n);
            cfg.dead_sequence = vec![victim];
            cfg.model_check = false;
            let rep = analyze(&cfg).unwrap();
            assert!(!rep.certified(), "{kind}/{n} dead {victim} must be refused");
            let totality = rep
                .checks
                .iter()
                .find(|c| c.name == "totality")
                .expect("totality check present");
            assert!(!totality.passed, "refusal must come from totality");
            assert!(totality.detail.contains("dead-ends"), "{}", totality.detail);
        }
    }

    #[test]
    fn hypercube_rejects_non_power_of_two() {
        let cfg = AnalyzeConfig::new(TopologyKind::Hypercube, 12);
        assert!(analyze(&cfg).is_err());
    }

    #[test]
    fn runtime_preflight_certifies_paper_config() {
        let rt = RuntimeConfig::new(64, TopologyKind::Mfcg);
        assert!(certify(&rt, None).is_ok());
    }

    #[test]
    fn repair_certifier_accepts_survivor_packings_and_rejects_bad_rungs() {
        // The boundary-crash populations that are refused as *faulted*
        // partial packings certify cleanly once re-packed densely over
        // the survivors — the repaired grid has no dead nodes left.
        assert!(certify_repair(TopologyKind::Mfcg, 22).is_ok());
        assert!(certify_repair(TopologyKind::Cfcg, 28).is_ok());
        // A rung the population cannot satisfy is rejected, pushing the
        // runtime down the fallback ladder.
        assert!(certify_repair(TopologyKind::Hypercube, 15).is_err());
    }

    #[test]
    fn json_mentions_every_check() {
        let mut cfg = AnalyzeConfig::new(TopologyKind::Mfcg, 9);
        cfg.model_check = true;
        let rep = analyze(&cfg).unwrap();
        let json = rep.json().finish();
        assert!(json.contains("\"certified\":true"), "{json}");
        assert!(json.contains("\"acyclicity\""));
        assert!(json.contains("\"model\""));
    }
}
