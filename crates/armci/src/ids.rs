//! Identifiers for processes, nodes and requests.

use std::fmt;

/// A process rank, global across the job (0-based, dense).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rank(pub u32);

impl Rank {
    /// The rank as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// A node id — re-exported from `vt-core` so the runtime and the topology
/// share one vocabulary.
pub type NodeId = vt_core::NodeId;

/// Index of an in-flight request in the engine's slab.
pub type ReqId = u32;

/// Who holds a buffer credit on a virtual-topology edge: an application
/// process (the origin of a request) or a forwarding communication helper
/// thread.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Sender {
    /// An application process identified by rank.
    Proc(Rank),
    /// The CHT on a node.
    Cht(NodeId),
}

impl fmt::Display for Sender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sender::Proc(r) => write!(f, "{r}"),
            Sender::Cht(n) => write!(f, "cht@node{n}"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn rank_display_and_idx() {
        assert_eq!(Rank(7).to_string(), "rank7");
        assert_eq!(Rank(7).idx(), 7);
    }

    #[test]
    fn sender_equality_distinguishes_kinds() {
        assert_ne!(Sender::Proc(Rank(0)), Sender::Cht(0));
        assert_eq!(Sender::Cht(3), Sender::Cht(3));
        assert_eq!(Sender::Cht(3).to_string(), "cht@node3");
    }
}
