//! The hop decision: at issue, at the head of a CHT queue, and when
//! folding an envelope.
//!
//! **Two routers.** Without the recovery machinery (no fault plan, no
//! serving) a run forwards on the topology's table in escape class 0. With
//! it, [`forward_decision`] routes around the dead set, over the survivor
//! packing once a repair landed. With nothing dead both pick the same
//! nodes, but not the same classes: on a partial shape extended LDF fixes
//! a lower dimension after a higher one on some routes, which the
//! route-around router counts as a class escalation (MFCG over 3 nodes
//! routes 2 → 1 as `[(0, 0), (1, 1)]`). Classes are separate credit pools,
//! so one router would move credit waits and the committed results. The
//! class-0 router is acyclic on its own (`tests/topology_invariants.rs`);
//! `vt-analyze` certifies the classed one.

use super::*;
use std::borrow::Cow;
use vt_core::ldf::{self, HopDecision};
use vt_core::{Shape, VirtualTopology};

/// The engine's route-around forwarding decision, exposed so the static
/// analyzer (`vt-analyze`) can build its buffer-dependency graph from the
/// *same* code path the runtime executes rather than a re-derivation of it.
///
/// Given a request at `current` that arrived over the topology edge
/// `prev → current` (`prev == current` for a request originating here) in
/// escape buffer class `base_class`, returns the next hop on the (extended,
/// route-around) LDF route to `dest` and the class the request travels on —
/// escalated by one exactly when the outgoing edge crosses a lower dimension
/// than the incoming one — or `None` when no live hop exists (the engine
/// then discards the copy and lets the origin's timeout machinery diagnose
/// the operation). With an empty `dead` set the hop is plain extended LDF
/// ([`Grid::next_hop`](vt_core::VirtualTopology::next_hop)), but on a
/// partial shape the class can still escalate: extended LDF's partial-slice
/// skips fix a lower dimension after a higher one on some routes.
///
/// # Panics
/// Panics if `current`/`dest` are out of range or `prev`/`current` are not
/// topology neighbours (unless equal).
pub fn forward_decision(
    shape: &Shape,
    n: u32,
    prev: NodeId,
    current: NodeId,
    dest: NodeId,
    base_class: u8,
    dead: &[NodeId],
) -> Option<(NodeId, u8)> {
    match ldf::next_hop_avoiding(shape, n, current, dest, dead) {
        HopDecision::Hop(h) => Some((h, ldf::forward_class(shape, prev, current, h, base_class))),
        HopDecision::Unreachable | HopDecision::Arrived => None,
    }
}

impl Engine {
    /// The next hop of a request at `node`, arrived over `prev → node` in
    /// `class` (`prev == node` at its origin), headed for `dest`: the node,
    /// its class, and whether it is a reroute. `None` when no live hop
    /// exists (or a miswired custom table has none).
    pub(super) fn next_hop(
        &self,
        prev: NodeId,
        node: NodeId,
        dest: NodeId,
        class: u8,
    ) -> Option<(NodeId, u8, bool)> {
        if self.recovery.is_none() {
            return self.topo.next_hop(node, dest).map(|h| (h, 0, false));
        }
        // Over the committed survivor packing once a repair landed:
        // physical ids map to its dense slots.
        let packing = self.view.as_ref().and_then(|v| v.packing.as_ref());
        let (grid, n) = match packing {
            Some(p) => (p.grid(), p.num_live()),
            None => (&self.topo, self.layout.num_nodes()),
        };
        let slot = |x: NodeId| packing.map_or(Some(x), |p| p.slot_of(x));
        let s_node = slot(node)?;
        let s_dest = slot(dest)?;
        // `prev` outside the packing can only be the origin-here
        // convention (prev == node); same-epoch forwards always chose
        // packing members.
        let s_prev = slot(prev).unwrap_or(s_node);
        // Dead physical nodes still *inside* the packing (crashed after
        // the repair, not yet confirmed), as slots.
        let dead: Cow<[NodeId]> = match packing {
            Some(_) => self.dead().iter().filter_map(|&d| slot(d)).collect(),
            None => Cow::Borrowed(self.dead()),
        };
        let (h, class) = forward_decision(grid.shape(), n, s_prev, s_node, s_dest, class, &dead)?;
        let rerouted = grid.next_hop(s_node, s_dest) != Some(h);
        Some((packing.map_or(h, |p| p.node_of(h)), class, rerouted))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use vt_core::TopologyKind;

    #[test]
    fn partial_mfcg_escalates_the_class_with_nothing_dead() {
        let grid = TopologyKind::Mfcg.build(3);
        assert_eq!(grid.shape(), &Shape::new(vec![2, 2]));
        assert_eq!(
            ldf::route_avoiding_classed(grid.shape(), 3, 2, 1, &[]),
            Some(vec![(0, 0), (1, 1)])
        );
        // The same route hop by hop through the engine's decision.
        assert_eq!(
            forward_decision(grid.shape(), 3, 2, 2, 1, 0, &[]),
            Some((0, 0))
        );
        assert_eq!(
            forward_decision(grid.shape(), 3, 2, 0, 1, 0, &[]),
            Some((1, 1))
        );
    }

    #[test]
    fn empty_dead_set_hops_match_the_topology_table() {
        let kinds = [
            TopologyKind::Fcg,
            TopologyKind::Mfcg,
            TopologyKind::Cfcg,
            TopologyKind::KFcg(4),
            TopologyKind::Hypercube,
        ];
        for kind in kinds {
            for n in 1..=64 {
                if !kind.supports(n) {
                    continue;
                }
                let grid = kind.build(n);
                for src in 0..n {
                    for dest in 0..n {
                        // Walk the route, carrying the class like the engine.
                        let (mut prev, mut cur, mut class) = (src, src, 0);
                        while cur != dest {
                            let want = grid.next_hop(cur, dest);
                            let got =
                                forward_decision(grid.shape(), n, prev, cur, dest, class, &[]);
                            assert_eq!(
                                got.map(|(h, _)| h),
                                want,
                                "{kind:?} n={n} {src}->{dest} at {cur}"
                            );
                            let (h, c) = got.unwrap();
                            (prev, cur, class) = (cur, h, c);
                        }
                        assert_eq!(
                            forward_decision(grid.shape(), n, prev, cur, dest, class, &[]),
                            None
                        );
                    }
                }
            }
        }
    }
}
