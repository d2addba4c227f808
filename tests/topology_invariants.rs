//! Cross-crate property tests for the paper's structural claims: LDF
//! routes are valid, short and deadlock-free on every topology and any
//! population, and the resource-graph metrics scale as §III states.

use proptest::prelude::*;
use vt_armci::forward_decision;
use vt_core::{ldf, DependencyGraph, RequestTree, TopologyKind, VirtualTopology};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every LDF route uses only topology edges, takes at most `ndims`
    /// hops, and ends at the destination — for any population, including
    /// partial meshes and cubes.
    #[test]
    fn routes_are_valid_and_short(n in 1u32..220, src_seed: u32, dst_seed: u32) {
        for kind in [TopologyKind::Fcg, TopologyKind::Mfcg, TopologyKind::Cfcg] {
            let topo = kind.build(n);
            let src = src_seed % n;
            let dst = dst_seed % n;
            let route = topo.route(src, dst);
            prop_assert!(route.len() <= topo.shape().ndims());
            let mut cur = src;
            for &hop in &route {
                prop_assert!(topo.has_edge(cur, hop), "{kind}: {cur}->{hop} not an edge (n={n})");
                cur = hop;
            }
            prop_assert_eq!(cur, dst);
        }
    }

    /// The hypercube obeys the same invariants on power-of-two populations.
    #[test]
    fn hypercube_routes_are_valid(k in 1u32..9, src_seed: u32, dst_seed: u32) {
        let n = 1u32 << k;
        let topo = TopologyKind::Hypercube.build(n);
        let src = src_seed % n;
        let dst = dst_seed % n;
        let route = topo.route(src, dst);
        prop_assert_eq!(route.len() as u32, (src ^ dst).count_ones());
        let mut cur = src;
        for &hop in &route {
            prop_assert!(topo.has_edge(cur, hop));
            cur = hop;
        }
        prop_assert_eq!(cur, dst);
    }

    /// The buffer-dependency graph of extended LDF is acyclic on any
    /// population — the paper's deadlock-freedom theorem (§IV-B) as an
    /// executable property, including the generalised k-dimensional grids.
    #[test]
    fn dependency_graph_is_acyclic(n in 2u32..90, extra_k in 4u8..7) {
        for kind in [
            TopologyKind::Mfcg,
            TopologyKind::Cfcg,
            TopologyKind::KFcg(extra_k),
        ] {
            let topo = kind.build(n);
            let dep = DependencyGraph::from_topology(&topo);
            prop_assert!(dep.is_deadlock_free(), "{kind} over {n} nodes has a cycle");
            // And being acyclic it must have a topological order.
            prop_assert!(dep.graph().topological_order().is_some());
        }
    }

    /// Request trees reach every node within the dimensional height bound
    /// and their parents agree with next_hop, for any root.
    #[test]
    fn request_trees_are_consistent(n in 1u32..150, root_seed: u32) {
        for kind in [TopologyKind::Fcg, TopologyKind::Mfcg, TopologyKind::Cfcg] {
            let topo = kind.build(n);
            let root = root_seed % n;
            let tree = RequestTree::build(&topo, root);
            prop_assert!(tree.height() <= topo.shape().ndims() as u32);
            let mut at_depth0 = 0;
            for v in 0..n {
                if v == root {
                    prop_assert_eq!(tree.depth(v), 0);
                    at_depth0 += 1;
                } else {
                    prop_assert_eq!(Some(tree.parent(v)), topo.next_hop(v, root));
                }
            }
            prop_assert_eq!(at_depth0, 1);
            prop_assert_eq!(tree.depth_histogram().iter().sum::<usize>(), n as usize);
        }
    }

    /// Degree formulas from §III: FCG has n−1 edges; MFCG `(X−1)+(Y−1)`;
    /// CFCG `(X−1)+(Y−1)+(Z−1)` — on fully-populated shapes.
    #[test]
    fn degree_formulas_hold_on_full_shapes(x in 2u32..12, y in 2u32..12, z in 2u32..6) {
        let n2 = x * y;
        let mfcg = vt_core::Mfcg::with_shape(x, y, n2);
        for node in [0, n2 - 1, n2 / 2] {
            prop_assert_eq!(mfcg.out_degree(node), (x - 1 + y - 1) as usize);
        }
        let n3 = x * y * z;
        let cfcg = vt_core::Cfcg::with_shape(x, y, z, n3);
        for node in [0, n3 - 1, n3 / 2] {
            prop_assert_eq!(cfcg.out_degree(node), (x - 1 + y - 1 + z - 1) as usize);
        }
        let fcg = vt_core::Fcg::new(n2);
        prop_assert_eq!(fcg.out_degree(0), (n2 - 1) as usize);
    }

    /// Edges are always symmetric and never dangle into missing nodes.
    #[test]
    fn edges_are_symmetric_and_in_range(n in 1u32..120) {
        for kind in [TopologyKind::Mfcg, TopologyKind::Cfcg] {
            let topo = kind.build(n);
            for node in 0..n {
                for nbr in topo.out_neighbors(node) {
                    prop_assert!(nbr < n);
                    prop_assert!(topo.has_edge(nbr, node), "{kind}: asymmetric {node}<->{nbr}");
                }
            }
        }
    }
}

#[test]
fn contention_metric_ordering_at_scale() {
    // §III: direct fan-in at a hot node — n−1, O(√n), O(∛n), O(log n).
    let n = 1024;
    let mut fan_ins = Vec::new();
    for kind in TopologyKind::ALL {
        let topo = kind.build(n);
        fan_ins.push((kind, RequestTree::build(&topo, 0).root_fan_in()));
    }
    assert_eq!(fan_ins[0].1, 1023); // FCG
    assert_eq!(fan_ins[1].1, 62); // MFCG 32x32
    assert_eq!(fan_ins[3].1, 10); // Hypercube log2(1024)
    assert!(fan_ins[1].1 > fan_ins[2].1 && fan_ins[2].1 > fan_ins[3].1);
}

#[test]
fn max_forwarding_matches_paper() {
    assert_eq!(TopologyKind::Fcg.build(100).max_forwarding_steps(), 0);
    assert_eq!(TopologyKind::Mfcg.build(100).max_forwarding_steps(), 1);
    assert_eq!(TopologyKind::Cfcg.build(100).max_forwarding_steps(), 2);
    assert_eq!(TopologyKind::Hypercube.build(128).max_forwarding_steps(), 6);
}

/// With nothing dead, walking the engine's route-around decision from
/// every source to every destination visits exactly the hops of plain
/// extended LDF, which are also the hops of the table router a run
/// without recovery forwards on. `vt-analyze` relies on this identity: it
/// takes the fault-free forwarding depth from its dead-free walk instead
/// of `ldf::route`. Every population up to 70 is covered, partial
/// packings included.
#[test]
fn dead_free_forward_decision_walks_the_ldf_route() {
    let kinds = [
        TopologyKind::Fcg,
        TopologyKind::Mfcg,
        TopologyKind::Cfcg,
        TopologyKind::Hypercube,
        TopologyKind::KFcg(4),
    ];
    for kind in kinds {
        for n in (1..=70).filter(|&n| kind.supports(n)) {
            let topo = kind.build(n);
            let shape = topo.shape();
            for src in 0..n {
                for dst in 0..n {
                    let mut walked = Vec::new();
                    let (mut prev, mut cur, mut class) = (src, src, 0);
                    while let Some((hop, c)) =
                        forward_decision(shape, n, prev, cur, dst, class, &[])
                    {
                        walked.push(hop);
                        assert!(walked.len() <= shape.ndims(), "{kind} n={n} {src}->{dst}");
                        (prev, cur, class) = (cur, hop, c);
                    }
                    assert_eq!(
                        walked,
                        ldf::route(shape, n, src, dst),
                        "{kind} n={n} {src}->{dst}"
                    );
                    // The engine's table router takes the same hops.
                    assert_eq!(walked, topo.route(src, dst), "{kind} n={n} {src}->{dst}");
                }
            }
        }
    }
}

/// `vtsim topo` pinned byte for byte: FCG, MFCG and CFCG at full and
/// partial populations (5, 16, 23, 29, 64, 97) and the hypercube at the
/// powers of two among them, joined by blank lines. The last line of each
/// report carries the buffer-dependency graph's channel and arc counts,
/// so any change to channel numbering or to the all-pairs builder shows
/// up here. The snapshot is an oracle: no environment variable rewrites it.
#[test]
fn topo_reports_match_the_golden() {
    let mut reports = Vec::new();
    for kind in ["fcg", "mfcg", "cfcg", "hypercube"] {
        for nodes in ["5", "16", "23", "29", "64", "97"] {
            let args: Vec<String> = ["--topology", kind, "--nodes", nodes]
                .iter()
                .map(|a| a.to_string())
                .collect();
            if let Ok(out) = armci_vt::cli::run_command("topo", &args) {
                reports.push(out);
            }
        }
    }
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/topo.txt");
    let expected = std::fs::read_to_string(golden).expect("golden snapshot present");
    assert_eq!(reports.join("\n"), expected);
}
