//! Process-to-node layout.
//!
//! Ranks are packed densely onto nodes: ranks `0..ppn` on node 0, the next
//! `ppn` on node 1, and so on — matching `aprun`'s default on the XT5. The
//! lowest rank of each node is the *master*, whose address space hosts the
//! CHT and its buffer pools (paper §II).

use crate::ids::{NodeId, Rank};

/// The rank ⇄ node mapping for a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    n_procs: u32,
    ppn: u32,
}

impl Layout {
    /// A layout of `n_procs` ranks at `ppn` processes per node. The last
    /// node may hold fewer than `ppn` ranks.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn new(n_procs: u32, ppn: u32) -> Self {
        assert!(n_procs >= 1, "need at least one process");
        assert!(ppn >= 1, "need at least one process per node");
        Layout { n_procs, ppn }
    }

    /// Processes per (full) node.
    pub fn ppn(&self) -> u32 {
        self.ppn
    }

    /// Number of nodes used.
    pub fn num_nodes(&self) -> u32 {
        self.n_procs.div_ceil(self.ppn)
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: Rank) -> NodeId {
        assert!(rank.0 < self.n_procs, "{rank} out of range");
        rank.0 / self.ppn
    }

    /// All ranks on `node`, ascending.
    pub fn ranks_on(&self, node: NodeId) -> impl Iterator<Item = Rank> {
        let lo = node * self.ppn;
        let hi = (lo + self.ppn).min(self.n_procs);
        (lo..hi).map(Rank)
    }

    /// Number of ranks on `node` (the last node may be short).
    pub fn procs_on(&self, node: NodeId) -> u32 {
        let lo = node * self.ppn;
        (lo + self.ppn).min(self.n_procs) - lo
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: Rank, b: Rank) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn dense_packing() {
        let l = Layout::new(12, 4);
        assert_eq!(l.num_nodes(), 3);
        assert_eq!(l.node_of(Rank(0)), 0);
        assert_eq!(l.node_of(Rank(3)), 0);
        assert_eq!(l.node_of(Rank(4)), 1);
        assert_eq!(l.node_of(Rank(11)), 2);
        assert_eq!(l.ranks_on(2).next(), Some(Rank(8)));
    }

    #[test]
    fn ragged_last_node() {
        let l = Layout::new(10, 4);
        assert_eq!(l.num_nodes(), 3);
        assert_eq!(l.procs_on(0), 4);
        assert_eq!(l.procs_on(2), 2);
        let ranks: Vec<Rank> = l.ranks_on(2).collect();
        assert_eq!(ranks, vec![Rank(8), Rank(9)]);
    }

    #[test]
    fn same_node_detection() {
        let l = Layout::new(8, 4);
        assert!(l.same_node(Rank(0), Rank(3)));
        assert!(!l.same_node(Rank(3), Rank(4)));
    }

    #[test]
    fn every_rank_is_on_a_node_listing_it() {
        let l = Layout::new(23, 5);
        for r in 0..23 {
            let node = l.node_of(Rank(r));
            assert!(l.ranks_on(node).any(|x| x == Rank(r)));
        }
        let total: u32 = (0..l.num_nodes()).map(|n| l.procs_on(n)).sum();
        assert_eq!(total, 23);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_rejects_bad_rank() {
        Layout::new(4, 2).node_of(Rank(4));
    }
}
