//! Individual static checks over one configuration.
//!
//! Each check returns a [`CheckResult`] with a human-readable detail line;
//! the report layer aggregates them and the whole configuration is
//! *certified* only when every check passes.

use crate::depgraph::{cycle_witness, Walk};
use crate::{AnalyzeConfig, CheckResult};
use vt_armci::forward_decision;
use vt_core::{DependencyGraph, Grid, MemoryModel, TopologyKind, VirtualTopology};

fn pass(name: &str, detail: String) -> CheckResult {
    CheckResult {
        name: name.to_string(),
        passed: true,
        detail,
    }
}

fn fail(name: &str, detail: String) -> CheckResult {
    CheckResult {
        name: name.to_string(),
        passed: false,
        detail,
    }
}

/// Acyclicity of the `(channel, class)` wait-for relation. The offending
/// cycle, when one exists, is returned separately so the report layer can
/// render it as a DOT counterexample.
pub fn check_acyclic(dg: &DependencyGraph) -> (CheckResult, Option<crate::CycleWitness>) {
    match cycle_witness(dg) {
        None => (
            pass(
                "acyclicity",
                format!(
                    "wait-for relation over {} channels x {} classes ({} arcs) is acyclic",
                    dg.channels().len(),
                    dg.classes(),
                    dg.graph().edge_count()
                ),
            ),
            None,
        ),
        Some(w) => (
            fail(
                "acyclicity",
                format!("buffer wait-for cycle of length {}: {}", w.len(), w.label()),
            ),
            Some(w),
        ),
    }
}

/// Forwarding-table totality: every ordered pair of **live** nodes must
/// reach its destination within `ndims` hops, every hop must be a
/// populated topology edge, and every escape class must stay below the
/// modelled class count. Pairs involving a dead endpoint are allowed (and
/// expected) to dead-end — the runtime diagnoses those as `Unreachable`.
/// The routes were followed by [`walk`](crate::depgraph::walk); this
/// formats what it found under the final dead set, plus any non-edge hop
/// of any prefix.
pub fn check_totality(topo: &Grid, walk: &Walk) -> CheckResult {
    let max_hops = topo.shape().ndims();
    let mut failures = walk.failures.clone();
    if !walk.dg.bad_edges.is_empty() {
        failures.push(format!("routes used non-edges: {:?}", walk.dg.bad_edges));
    }
    if failures.is_empty() {
        pass(
            "totality",
            format!(
                "{} live pairs all route on populated edges within {max_hops} hops",
                walk.live_pairs
            ),
        )
    } else {
        fail("totality", failures.join("; "))
    }
}

/// The paper's forwarding-depth bound for `kind` over `n` nodes: the
/// maximum number of *forwarding* steps (route length minus the terminal
/// delivery) any fault-free request may take.
pub fn depth_bound(kind: TopologyKind, n: u32) -> u32 {
    match kind {
        TopologyKind::Fcg => 0,
        TopologyKind::Mfcg => 1,
        TopologyKind::Cfcg => 2,
        // log2(N) dimensions, minus the terminal hop.
        TopologyKind::Hypercube => {
            if n <= 1 {
                0
            } else {
                n.ilog2().saturating_sub(1)
            }
        }
        TopologyKind::KFcg(k) => u32::from(k).saturating_sub(1),
    }
}

/// Fault-free forwarding depth: the observed maximum over all pairs must
/// stay within [`depth_bound`], partial packings included (the walk runs
/// over the *populated* node set, not the shape capacity). The depths are
/// those of [`walk`](crate::depgraph::walk)'s dead-free prefix.
pub fn check_depth(topo: &Grid, walk: &Walk) -> CheckResult {
    let n = topo.num_nodes();
    let bound = depth_bound(topo.kind(), n);
    let max_depth = walk.max_depth;
    let (src, dst) = walk.depth_pair;
    let name = "depth-bound";
    if max_depth <= bound {
        pass(
            name,
            format!(
                "max forwarding depth {max_depth} (pair {src}->{dst}) within bound {bound} for {} over {n} nodes",
                topo.kind()
            ),
        )
    } else {
        fail(
            name,
            format!("pair {src}->{dst} needs {max_depth} forwarding steps, bound is {bound}"),
        )
    }
}

/// The asymptotic per-node in-degree bound of `kind`: the `O(N)` /
/// `O(sqrt N)` / `O(cbrt N)` / `O(log N)` buffer-budget classes of paper
/// §1, made concrete as an exact ceiling each populated node must respect.
pub fn in_degree_ceiling(topo: &Grid) -> u32 {
    // A node has at most (d_i - 1) in-neighbours per dimension i.
    topo.shape().dims().iter().map(|&d| d - 1).sum()
}

/// Per-node buffer budgets: the `N x B x M` accounting. Recomputes every
/// node's CHT pool from first principles (`in_degree x ppn x M x B`),
/// cross-checks it against [`vt_core::MemoryModel`] *and* the runtime's
/// own [`vt_armci::node_memory`], and bounds the in-degree by the
/// topology's asymptotic class.
pub fn check_budget(topo: &Grid, cfg: &AnalyzeConfig) -> CheckResult {
    let n = topo.num_nodes();
    let model = MemoryModel {
        buffer_bytes: cfg.buffer_bytes,
        buffers_per_proc: cfg.credits,
        procs_per_node: cfg.procs_per_node,
        ..MemoryModel::default()
    };
    let rt = cfg.runtime_config();
    let ceiling = in_degree_ceiling(topo);
    let per_sender = u64::from(cfg.credits) * cfg.buffer_bytes;
    let mut max_pool = 0u64;
    for node in 0..n {
        let in_degree = topo.in_degree(node) as u64;
        let expected = in_degree * u64::from(cfg.procs_per_node) * per_sender;
        let from_model = model.cht_pool_bytes(topo, node);
        let from_runtime = vt_armci::node_memory(&rt, topo, node).cht_pool_bytes;
        if from_model != expected || from_runtime != expected {
            return fail(
                "buffer-budget",
                format!(
                    "node {node}: expected {expected} pool bytes, model says {from_model}, runtime says {from_runtime}"
                ),
            );
        }
        if in_degree > u64::from(ceiling) {
            return fail(
                "buffer-budget",
                format!("node {node}: in-degree {in_degree} exceeds ceiling {ceiling}"),
            );
        }
        max_pool = max_pool.max(expected);
    }
    pass(
        "buffer-budget",
        format!(
            "all {n} nodes: pool = in_degree x {} ppn x {} credits x {} B, in-degree <= {ceiling}, max pool {} KiB",
            cfg.procs_per_node,
            cfg.credits,
            cfg.buffer_bytes,
            max_pool / 1024
        ),
    )
}

/// Coalescing refold consistency. An envelope batches members sharing one
/// `(next edge, class)` credit; at the next node each member is unpacked
/// or refolded using the same forwarding decision it would have taken
/// travelling alone. For every `(in-channel, class, dest)` triple that
/// occurs on some route, the refold target must be an arc of the
/// request-level dependency graph — i.e. coalescing can never introduce a
/// `(channel, class)` transition that per-request forwarding does not
/// already have, which is why PR 2's envelopes inherit LDF's acyclicity.
pub fn check_coalescing(topo: &Grid, dead: &[u32], walk: &Walk) -> CheckResult {
    let n = topo.num_nodes();
    let shape = topo.shape();
    let dg = &walk.dg;
    let mut checked = 0u64;
    for &(ch, class, dest) in &walk.arrivals {
        let (from, at) = dg.channels()[ch as usize];
        // Arrivals harvested under an earlier crash prefix may pass
        // through a node that is dead in the final set; those envelopes
        // can no longer exist once the crash lands.
        if dead.contains(&at) || dead.contains(&dest) {
            continue;
        }
        let Some((hop, next_class)) = forward_decision(shape, n, from, at, dest, class, dead)
        else {
            return fail(
                "coalescing-refold",
                format!("member at {at} (from {from}, class {class}, dest {dest}) cannot refold"),
            );
        };
        let Some(out_ch) = dg.channel(at, hop) else {
            return fail(
                "coalescing-refold",
                format!("refold at {at} departs on non-channel {at}->{hop}"),
            );
        };
        if !dg
            .graph()
            .successors(dg.vertex(ch, class))
            .contains(&dg.vertex(out_ch, next_class))
        {
            return fail(
                "coalescing-refold",
                format!(
                    "refold arc ({from}->{at} c{class}) -> ({at}->{hop} c{next_class}) is not in the request-level graph"
                ),
            );
        }
        checked += 1;
    }
    pass(
        "coalescing-refold",
        format!("{checked} (in-channel, class, dest) refolds all land on request-level arcs"),
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::depgraph;

    #[test]
    fn depth_bounds_match_paper() {
        assert_eq!(depth_bound(TopologyKind::Fcg, 100), 0);
        assert_eq!(depth_bound(TopologyKind::Mfcg, 100), 1);
        assert_eq!(depth_bound(TopologyKind::Cfcg, 100), 2);
        assert_eq!(depth_bound(TopologyKind::Hypercube, 64), 5); // log2(64) - 1
        assert_eq!(depth_bound(TopologyKind::Hypercube, 1), 0);
        assert_eq!(depth_bound(TopologyKind::KFcg(4), 100), 3);
    }

    #[test]
    fn partial_packing_passes_depth_and_totality() {
        // 23 nodes in a 5x5 mesh: top row partially populated.
        let topo = TopologyKind::Mfcg.build(23);
        let walk = depgraph::walk(&topo, &[], false);
        assert!(check_depth(&topo, &walk).passed);
        assert!(check_totality(&topo, &walk).passed);
    }

    #[test]
    fn budget_cross_check_passes() {
        let cfg = AnalyzeConfig::new(TopologyKind::Cfcg, 27);
        let topo = cfg.build_topology().unwrap();
        let r = check_budget(&topo, &cfg);
        assert!(r.passed, "{}", r.detail);
    }
}
