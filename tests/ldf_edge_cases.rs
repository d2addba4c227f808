//! Edge cases of extended LDF routing and the coalescing envelope bound:
//! the degenerate one-node mesh, partially populated meshes and cubes at
//! every packing boundary, the hypercube's power-of-two restriction, the
//! LDF primitives' digit arithmetic against the coordinate decode, and
//! envelope splitting exactly at the byte budget.

use proptest::prelude::*;
use vt_armci::{
    Action, CoalesceConfig, Op, Rank, Report, RuntimeConfig, ScriptProgram, SimTime, Simulation,
};
use vt_core::ldf::HopDecision;
use vt_core::{ldf, Shape, TopologyKind, VirtualTopology};

// ---- One-node topologies ------------------------------------------------

#[test]
fn one_node_mesh_is_degenerate_but_valid() {
    for kind in [TopologyKind::Mfcg, TopologyKind::Cfcg, TopologyKind::Fcg] {
        assert!(kind.supports(1), "{kind:?}");
        let topo = kind.build(1);
        assert_eq!(topo.num_nodes(), 1);
        assert_eq!(topo.out_degree(0), 0);
        assert_eq!(topo.next_hop(0, 0), None);
        assert!(topo.route(0, 0).is_empty());
    }
}

#[test]
fn one_node_simulation_stays_on_the_shared_memory_path() {
    // Four ranks on the single node of a 1-node MFCG: all traffic is
    // node-local, so the CHT never forwards and nothing crosses the wire.
    let mut cfg = RuntimeConfig::new(4, TopologyKind::Mfcg);
    cfg.procs_per_node = 4;
    let report = Simulation::build(cfg, |rank| {
        ScriptProgram::new(if rank == Rank(0) {
            vec![]
        } else {
            vec![Action::Op(Op::fetch_add(Rank(0), 1))]
        })
    })
    .run()
    .expect("one-node run completes");
    assert_eq!(report.metrics.total_ops(), 3);
    assert_eq!(report.fetch_finals[0], 3);
    assert_eq!(report.cht_totals.forwarded, 0);
}

// ---- Partial packing boundaries -----------------------------------------

/// Populations straddling every mesh/cube packing boundary: one past a
/// perfect square/cube, one short of the next, and the perfect fills.
const BOUNDARY_POPULATIONS: [u32; 11] = [2, 3, 5, 9, 10, 16, 17, 25, 26, 27, 28];

#[test]
fn partial_meshes_and_cubes_route_every_pair() {
    for kind in [TopologyKind::Mfcg, TopologyKind::Cfcg] {
        for n in BOUNDARY_POPULATIONS {
            let topo = kind.build(n);
            let shape = topo.shape();
            assert!(
                shape.capacity() >= u64::from(n),
                "{kind:?}/{n}: shape {:?} too small",
                shape.dims()
            );
            for src in 0..n {
                for dest in 0..n {
                    let route = topo.route(src, dest);
                    if src == dest {
                        assert!(route.is_empty());
                        continue;
                    }
                    // The route ends at the destination, stays inside the
                    // population, and never exceeds the dimensionality.
                    assert_eq!(route.last(), Some(&dest), "{kind:?}/{n} {src}->{dest}");
                    assert!(route.iter().all(|&h| h < n), "{kind:?}/{n} {src}->{dest}");
                    assert!(route.len() <= shape.ndims(), "{kind:?}/{n} {src}->{dest}");
                    // Every hop is a real edge: one coordinate changes.
                    let mut cur = src;
                    for &hop in &route {
                        let a = shape.coord_of(cur);
                        let b = shape.coord_of(hop);
                        let changed = (0..shape.ndims()).filter(|&d| a.get(d) != b.get(d)).count();
                        assert_eq!(changed, 1, "{kind:?}/{n}: {cur}->{hop} not an edge");
                        cur = hop;
                    }
                }
            }
        }
    }
}

#[test]
fn fully_populated_routes_fix_dimensions_lowest_first() {
    // Without a partial top slice, extended LDF degenerates to plain LDF:
    // the dimension fixed by each hop strictly increases along a route.
    let topo = TopologyKind::Cfcg.build(27);
    let shape = topo.shape();
    for src in 0..27 {
        for dest in 0..27 {
            let mut cur = src;
            let mut last_dim = None;
            for hop in topo.route(src, dest) {
                let a = shape.coord_of(cur);
                let b = shape.coord_of(hop);
                let dim = (0..shape.ndims())
                    .find(|&d| a.get(d) != b.get(d))
                    .expect("hop changes a coordinate");
                assert!(
                    last_dim < Some(dim),
                    "{src}->{dest}: dim {dim} after {last_dim:?}"
                );
                last_dim = Some(dim);
                cur = hop;
            }
        }
    }
}

// ---- Hypercube power-of-two restriction ---------------------------------

#[test]
fn non_power_of_two_hypercubes_are_rejected_everywhere() {
    assert!(!TopologyKind::Hypercube.supports(12));
    assert!(Shape::hypercube_for(12).is_none());
    assert!(TopologyKind::Hypercube.try_build(12).is_err());
    // The infallible constructor panics rather than building a broken grid.
    let panicked = std::panic::catch_unwind(|| TopologyKind::Hypercube.build(12)).is_err();
    assert!(panicked);
    // The boundary itself is fine.
    assert!(TopologyKind::Hypercube.supports(16));
    assert_eq!(TopologyKind::Hypercube.build(16).num_nodes(), 16);
}

#[test]
fn ldf_panics_on_out_of_population_nodes() {
    let shape = Shape::mesh_for(10);
    assert!(std::panic::catch_unwind(|| ldf::next_hop(&shape, 10, 10, 0)).is_err());
    assert!(std::panic::catch_unwind(|| ldf::next_hop(&shape, 10, 0, 11)).is_err());
}

// ---- Digit arithmetic against the coordinate decode ---------------------

/// Every one-coordinate move of `node` toward `dest`, lowest dimension
/// first, populated or not, computed with `Shape::coord_of`/`id_of`.
fn reference_moves(shape: &Shape, node: u32, dest: u32) -> Vec<(usize, u32)> {
    let (s, t) = (shape.coord_of(node), shape.coord_of(dest));
    (0..shape.ndims())
        .filter(|&d| s.get(d) != t.get(d))
        .map(|d| {
            let mut c = s;
            c.set(d, t.get(d));
            (d, shape.id_of(&c))
        })
        .collect()
}

/// Extended LDF over the coordinate decode: the first move toward `dest`
/// that is populated and not in `dead`.
fn reference_hop(shape: &Shape, n: u32, current: u32, dest: u32, dead: &[u32]) -> Option<u32> {
    reference_moves(shape, current, dest)
        .into_iter()
        .map(|(_, id)| id)
        .find(|&id| id < n && !dead.contains(&id))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `next_hop`, `next_hop_avoiding` and `crossing_dim` read mixed-radix
    /// digits straight off the node ids; they must agree with the
    /// coordinate decode on any shape of 1–10 dimensions, any population
    /// leaving only the highest dimension partial, and dead sets drawn
    /// from the very hops the scan considers.
    #[test]
    fn digit_primitives_agree_with_the_coordinate_decode(
        ndims in 1usize..11,
        extents in (1u32..7, 1u32..7, 1u32..7, 1u32..7, 1u32..7,
                    1u32..7, 1u32..7, 1u32..7, 1u32..7, 1u32..7),
        fill: u64,
        seed: u64,
    ) {
        let (a, b, c, d, e, f, g, h, i, j) = extents;
        let shape = Shape::new([a, b, c, d, e, f, g, h, i, j][..ndims].to_vec());
        let cap = shape.capacity();
        let top = u64::from(shape.dim(ndims - 1));
        let below = cap / top * (top - 1);
        let n = (below + 1 + fill % (cap - below)) as u32;
        let mut state = seed;
        let mut draw = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for _ in 0..32 {
            let cur = draw(u64::from(n)) as u32;
            let dest = draw(u64::from(n)) as u32;
            let plain = ldf::next_hop(&shape, n, cur, dest);
            let expected = (cur != dest).then(|| reference_hop(&shape, n, cur, dest, &[]));
            prop_assert_eq!(plain, expected.flatten(), "{:?} n={} {}->{}", shape.dims(), n, cur, dest);

            // Kill a random subset of the candidate hops, and sometimes
            // the destination or an unrelated node.
            let moves = reference_moves(&shape, cur, dest);
            let mut dead: Vec<u32> = moves
                .iter()
                .map(|&(_, id)| id)
                .filter(|&id| id != dest && draw(2) == 0)
                .collect();
            if draw(4) == 0 {
                dead.push(dest);
            }
            dead.push(draw(u64::from(n)) as u32);
            dead.retain(|&v| v != cur);
            let expected = if cur == dest {
                HopDecision::Arrived
            } else if dead.contains(&dest) {
                HopDecision::Unreachable
            } else {
                reference_hop(&shape, n, cur, dest, &dead)
                    .map_or(HopDecision::Unreachable, HopDecision::Hop)
            };
            prop_assert_eq!(
                ldf::next_hop_avoiding(&shape, n, cur, dest, &dead),
                expected,
                "{:?} n={} {}->{} dead {:?}", shape.dims(), n, cur, dest, dead
            );

            // Every one-coordinate move crosses exactly its dimension,
            // whether or not the far end is populated.
            for (dim, id) in moves {
                prop_assert_eq!(ldf::crossing_dim(&shape, cur, id), dim);
                prop_assert_eq!(ldf::crossing_dim(&shape, id, cur), dim);
            }
        }
    }
}

// ---- Envelope splitting at the byte budget ------------------------------

/// Ranks 7 and 8 burst async fetch-&-adds at rank 0 through forwarder
/// node 6 of the 3x3 MFCG — the coalescable hot-spot pattern.
fn hotspot(rank: Rank) -> ScriptProgram {
    if rank == Rank(7) || rank == Rank(8) {
        let mut script = vec![Action::Compute(SimTime::from_millis(1))];
        script.extend((0..6).map(|_| Action::OpAsync(Op::fetch_add(Rank(0), 1))));
        script.push(Action::WaitAll);
        ScriptProgram::new(script)
    } else {
        ScriptProgram::new(vec![])
    }
}

/// An envelope occupies one request buffer, so `buffer_bytes` bounds it.
fn run_hotspot(buffer_bytes: u64) -> Report {
    let mut cfg = RuntimeConfig::new(9, TopologyKind::Mfcg);
    cfg.procs_per_node = 1;
    cfg.buffer_bytes = buffer_bytes;
    cfg.coalesce = CoalesceConfig::on();
    Simulation::build(cfg, hotspot).run().expect("completes")
}

#[test]
fn envelope_splits_exactly_at_the_byte_boundary() {
    let rb = Op::fetch_add(Rank(0), 1).request_bytes();
    let sub = vt_simnet::ENV_SUB_HEADER;
    // Budget for exactly three members: wire bytes are 3*rb plus one
    // sub-header per member after the first.
    let exact = 3 * rb + 2 * sub;
    let at = run_hotspot(exact);
    assert!(at.coalesce.envelopes >= 1, "{:?}", at.coalesce);
    assert_eq!(at.coalesce.deepest_fold, 3, "{:?}", at.coalesce);
    assert!(at.coalesce.largest_envelope <= 3 * rb);
    // One byte less and a three-member envelope must never form.
    let under = run_hotspot(exact - 1);
    assert!(under.coalesce.deepest_fold <= 2, "{:?}", under.coalesce);
    // The split changes packaging only, never semantics.
    assert_eq!(at.fetch_finals[0], 12);
    assert_eq!(under.fetch_finals[0], 12);
    assert_eq!(at.cht_totals.forwarded, under.cht_totals.forwarded);
}
