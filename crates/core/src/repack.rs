//! Survivor re-packing: rebuilding a valid LDF packing after permanent
//! node loss.
//!
//! The paper's packings assume a static node set: ids `0..n` fill complete
//! lower-dimension slices first, and only the top of the highest dimension
//! may be partial. A permanent crash punches a hole in that order, and the
//! PR 3 verifier proved the hole can be *escape-critical*: for some partial
//! MFCG/CFCG populations a single boundary victim leaves live pairs with no
//! legal (deadlock-free) route at all. Route-around cannot fix that — only
//! re-numbering can.
//!
//! [`repack`] computes the repair: the survivors, taken in ascending
//! physical-id order, are assigned *dense* new slots `0..n_live` and a fresh
//! lowest-dimension-first packing is recomputed over the survivor count.
//! Because the new packing is dense, it is exactly the class of (possibly
//! partial-top-slice) grids whose extended-LDF forwarding is total, depth
//! bounded and acyclic — there are no interior holes left to be critical.
//!
//! When the original topology kind cannot cover the survivor count (a
//! hypercube over a non-power-of-two), or an external certifier refuses the
//! rebuilt grid, the packing **falls down a dimension ladder** — cube to
//! mesh to line — ultimately reaching the FCG over the survivors, which a
//! certifier can never refuse (zero forwarding, nothing to deadlock).
//! [`SurvivorPacking::fallback_depth`] records how far down the ladder the
//! repair had to go.

use crate::topology::{Grid, NodeId, TopologyKind, VirtualTopology};

/// Why a survivor set could not be re-packed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepackError {
    /// Every node is dead; there is nothing to pack.
    NoSurvivors,
    /// A dead id named a node outside the population.
    DeadOutOfRange {
        /// The offending id.
        node: NodeId,
        /// The population size.
        n_total: u32,
    },
    /// Every rung of the fallback ladder was refused; each entry is
    /// `(kind, reason)`.
    AllRungsRefused(Vec<(TopologyKind, String)>),
}

impl std::fmt::Display for RepackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepackError::NoSurvivors => write!(f, "no survivors to re-pack"),
            RepackError::DeadOutOfRange { node, n_total } => {
                write!(f, "dead node {node} outside population 0..{n_total}")
            }
            RepackError::AllRungsRefused(tried) => {
                write!(f, "every fallback rung refused:")?;
                for (kind, why) in tried {
                    write!(f, " [{kind}: {why}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RepackError {}

/// A certified re-packing of the survivors of a crashed population: the
/// physical-id ⇄ dense-slot maps plus the rebuilt topology over the slots.
#[derive(Clone, Debug)]
pub struct SurvivorPacking {
    original_kind: TopologyKind,
    grid: Grid,
    /// Physical node id → dense slot; `None` for dead nodes.
    slot_of: Vec<Option<u32>>,
    /// Dense slot → physical node id (ascending by construction).
    node_of: Vec<NodeId>,
    fallback_depth: u32,
}

impl SurvivorPacking {
    /// The rebuilt topology over the dense survivor slots.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The topology kind actually used (the original, or a fallback rung).
    pub fn kind(&self) -> TopologyKind {
        self.grid.kind()
    }

    /// The kind the population ran before the repair.
    pub fn original_kind(&self) -> TopologyKind {
        self.original_kind
    }

    /// How many rungs below the original kind the repair settled
    /// (0 = same kind re-packed).
    pub fn fallback_depth(&self) -> u32 {
        self.fallback_depth
    }

    /// Number of surviving nodes.
    pub fn num_live(&self) -> u32 {
        self.node_of.len() as u32
    }

    /// The dense slot of physical node `node`, or `None` when it is dead
    /// or out of range.
    pub fn slot_of(&self, node: NodeId) -> Option<u32> {
        self.slot_of.get(node as usize).copied().flatten()
    }

    /// The physical node occupying dense slot `slot`.
    ///
    /// # Panics
    /// Panics if `slot >= self.num_live()`.
    pub fn node_of(&self, slot: u32) -> NodeId {
        self.node_of[slot as usize]
    }

    /// Whether physical node `node` is part of the packing.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.slot_of(node).is_some()
    }
}

/// The dimension ladder tried for `kind`, highest (the kind itself) first,
/// ending at a rung that supports every population: cube falls to mesh,
/// mesh to line, the hypercube through cube and mesh, and `KFcg(k)` down
/// through each lower `k`. The final rung (FCG / `KFcg(1)`) supports any
/// `n ≥ 1`, so the ladder always terminates.
pub fn fallback_ladder(kind: TopologyKind) -> Vec<TopologyKind> {
    match kind {
        TopologyKind::Fcg => vec![TopologyKind::Fcg],
        TopologyKind::Mfcg => vec![TopologyKind::Mfcg, TopologyKind::Fcg],
        TopologyKind::Cfcg => vec![TopologyKind::Cfcg, TopologyKind::Mfcg, TopologyKind::Fcg],
        TopologyKind::Hypercube => vec![
            TopologyKind::Hypercube,
            TopologyKind::Cfcg,
            TopologyKind::Mfcg,
            TopologyKind::Fcg,
        ],
        TopologyKind::KFcg(k) => {
            let mut ladder: Vec<TopologyKind> =
                (2..=k.max(1)).rev().map(TopologyKind::KFcg).collect();
            ladder.push(TopologyKind::Fcg);
            ladder
        }
    }
}

/// Re-packs the survivors of an `n_total`-node population of `kind` after
/// the nodes in `dead` crashed. Structural fallback only — every rung that
/// *builds* is accepted; use [`repack_with`] to interpose an external
/// certifier (e.g. `vt_analyze::certify`) between build and commit.
///
/// # Errors
/// Returns [`RepackError`] when no survivors remain, a dead id is out of
/// range, or (impossible with the built-in ladder, which ends at FCG)
/// every rung is refused.
pub fn repack(
    kind: TopologyKind,
    n_total: u32,
    dead: &[NodeId],
) -> Result<SurvivorPacking, RepackError> {
    repack_with(kind, n_total, dead, |_, _| Ok(()))
}

/// [`repack`] with an external certifier consulted on every ladder rung:
/// the first rung whose rebuilt grid the certifier accepts wins; a refusal
/// falls to the next-lower-dimension rung.
///
/// # Errors
/// As [`repack`], plus [`RepackError::AllRungsRefused`] when the certifier
/// rejects every rung including the FCG terminal.
pub fn repack_with(
    kind: TopologyKind,
    n_total: u32,
    dead: &[NodeId],
    certify: impl Fn(TopologyKind, u32) -> Result<(), String>,
) -> Result<SurvivorPacking, RepackError> {
    if let Some(&bad) = dead.iter().find(|&&d| d >= n_total) {
        return Err(RepackError::DeadOutOfRange { node: bad, n_total });
    }
    // Dense renumbering in ascending physical order: deterministic, and
    // lowest-dimension-first order over the new slots by construction.
    let mut slot_of: Vec<Option<u32>> = vec![None; n_total as usize];
    let mut node_of: Vec<NodeId> = Vec::with_capacity(n_total as usize);
    for node in 0..n_total {
        if dead.contains(&node) {
            continue;
        }
        slot_of[node as usize] = Some(node_of.len() as u32);
        node_of.push(node);
    }
    let n_live = node_of.len() as u32;
    if n_live == 0 {
        return Err(RepackError::NoSurvivors);
    }
    let mut refused = Vec::new();
    for (depth, rung) in fallback_ladder(kind).into_iter().enumerate() {
        if !rung.supports(n_live) {
            refused.push((rung, format!("does not support {n_live} nodes")));
            continue;
        }
        let grid = match rung.try_build(n_live) {
            Ok(g) => g,
            Err(e) => {
                refused.push((rung, e.to_string()));
                continue;
            }
        };
        if let Err(why) = certify(rung, n_live) {
            refused.push((rung, why));
            continue;
        }
        return Ok(SurvivorPacking {
            original_kind: kind,
            grid,
            slot_of,
            node_of,
            fallback_depth: depth as u32,
        });
    }
    Err(RepackError::AllRungsRefused(refused))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn survivors_are_renumbered_densely_in_order() {
        let p = repack(TopologyKind::Mfcg, 9, &[3, 7]).unwrap();
        assert_eq!(p.num_live(), 7);
        assert_eq!(p.slot_of(0), Some(0));
        assert_eq!(p.slot_of(3), None);
        assert_eq!(p.slot_of(4), Some(3));
        assert_eq!(p.slot_of(8), Some(6));
        for slot in 0..p.num_live() {
            assert_eq!(p.slot_of(p.node_of(slot)), Some(slot));
        }
        assert!(!p.is_live(7));
        assert!(p.is_live(8));
    }

    #[test]
    fn same_kind_is_kept_when_it_covers_the_survivors() {
        let p = repack(TopologyKind::Mfcg, 23, &[2]).unwrap();
        assert_eq!(p.kind(), TopologyKind::Mfcg);
        assert_eq!(p.fallback_depth(), 0);
        // The rebuilt mesh is dense: every live pair routes.
        let g = p.grid();
        for a in 0..p.num_live() {
            for b in 0..p.num_live() {
                if a != b {
                    assert!(!g.route(a, b).is_empty(), "{a} -> {b} must route");
                }
            }
        }
    }

    #[test]
    fn hypercube_falls_down_the_ladder() {
        // 16-node hypercube loses one node: 15 is not a power of two, so
        // the repair falls to the cube rung.
        let p = repack(TopologyKind::Hypercube, 16, &[5]).unwrap();
        assert_eq!(p.kind(), TopologyKind::Cfcg);
        assert_eq!(p.fallback_depth(), 1);
        assert_eq!(p.original_kind(), TopologyKind::Hypercube);
    }

    #[test]
    fn certifier_refusal_falls_to_next_rung() {
        let p = repack_with(TopologyKind::Cfcg, 29, &[24], |kind, _| {
            if kind == TopologyKind::Cfcg {
                Err("refused by test certifier".to_string())
            } else {
                Ok(())
            }
        })
        .unwrap();
        assert_eq!(p.kind(), TopologyKind::Mfcg);
        assert_eq!(p.fallback_depth(), 1);
    }

    #[test]
    fn fcg_terminal_rung_is_always_reached() {
        let p = repack_with(TopologyKind::Hypercube, 8, &[1], |kind, _| {
            if kind == TopologyKind::Fcg {
                Ok(())
            } else {
                Err("no".to_string())
            }
        })
        .unwrap();
        assert_eq!(p.kind(), TopologyKind::Fcg);
        assert_eq!(p.fallback_depth(), 3);
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(
            repack(TopologyKind::Fcg, 4, &[0, 1, 2, 3]).unwrap_err(),
            RepackError::NoSurvivors
        );
        assert_eq!(
            repack(TopologyKind::Fcg, 4, &[9]).unwrap_err(),
            RepackError::DeadOutOfRange {
                node: 9,
                n_total: 4
            }
        );
        let all_refused = repack_with(TopologyKind::Mfcg, 6, &[0], |_, _| Err("never".to_string()));
        assert!(matches!(all_refused, Err(RepackError::AllRungsRefused(_))));
    }

    #[test]
    fn deterministic() {
        let a = repack(TopologyKind::Cfcg, 29, &[24, 3]).unwrap();
        let b = repack(TopologyKind::Cfcg, 29, &[3, 24]).unwrap();
        assert_eq!(a.kind(), b.kind());
        assert_eq!(a.num_live(), b.num_live());
        for n in 0..29 {
            assert_eq!(a.slot_of(n), b.slot_of(n));
        }
    }

    #[test]
    fn kfcg_ladder_descends_through_k() {
        let ladder = fallback_ladder(TopologyKind::KFcg(4));
        assert_eq!(
            ladder,
            vec![
                TopologyKind::KFcg(4),
                TopologyKind::KFcg(3),
                TopologyKind::KFcg(2),
                TopologyKind::Fcg,
            ]
        );
    }
}
