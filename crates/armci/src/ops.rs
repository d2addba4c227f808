//! One-sided operations.
//!
//! ARMCI's operations fall into two implementation classes on the XT5
//! (paper §II): contiguous put/get map directly onto Portals RDMA and never
//! touch the communication helper thread, while *lock, unlock, accumulate,
//! atomic and noncontiguous* transfers require server-side processing — a
//! request message into the target CHT's pre-allocated buffers, and thus a
//! traversal of the virtual topology. Only the second class is affected by
//! the choice of topology, which is why the paper evaluates vectored
//! transfers and fetch-&-add.

use crate::ids::Rank;

/// The kind of a one-sided operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Contiguous put — direct RDMA, bypasses the CHT.
    Put,
    /// Contiguous get — direct RDMA, bypasses the CHT.
    Get,
    /// Vectored put (`ARMCI_PutV`) — CHT path.
    PutV,
    /// Vectored get (`ARMCI_GetV`) — CHT path.
    GetV,
    /// Accumulate (`ARMCI_Acc`, data combined at the target) — CHT path.
    Acc,
    /// Atomic fetch-&-add (`ARMCI_Rmw`) — CHT path.
    FetchAdd,
    /// Mutex lock request — CHT path.
    Lock,
    /// Mutex unlock request — CHT path.
    Unlock,
}

impl OpKind {
    /// Whether the operation is served directly by RDMA (no CHT, no
    /// virtual-topology forwarding).
    pub fn is_direct(self) -> bool {
        matches!(self, OpKind::Put | OpKind::Get)
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Put => "put",
            OpKind::Get => "get",
            OpKind::PutV => "putv",
            OpKind::GetV => "getv",
            OpKind::Acc => "acc",
            OpKind::FetchAdd => "fadd",
            OpKind::Lock => "lock",
            OpKind::Unlock => "unlock",
        }
    }
}

/// Message-size constants (bytes).
mod wire {
    /// Fixed request header.
    pub const HEADER: u64 = 96;
    /// Per-segment descriptor in vectored operations.
    pub const SEG_DESC: u64 = 16;
    /// Completion acknowledgement / small response.
    pub const ACK: u64 = 64;
}

/// One one-sided operation issued by a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// The target process whose address space is accessed.
    pub target: Rank,
    /// Total payload bytes moved (0 for lock/unlock; 8 for fetch-&-add).
    pub bytes: u64,
    /// Number of noncontiguous segments (1 for contiguous kinds).
    pub segments: u32,
    /// Amount added by fetch-&-add (ignored by other kinds).
    pub amount: i64,
    /// Raise the target's notification counter when the operation lands
    /// (`ARMCI_Put_flag`-style); the target can block on it with
    /// [`Action::WaitNotify`](crate::Action::WaitNotify).
    pub notify: bool,
}

impl Op {
    /// Contiguous put of `bytes` into `target`'s address space.
    pub fn put(target: Rank, bytes: u64) -> Self {
        Op {
            kind: OpKind::Put,
            target,
            bytes,
            segments: 1,
            amount: 0,
            notify: false,
        }
    }

    /// Contiguous get of `bytes` from `target`.
    pub fn get(target: Rank, bytes: u64) -> Self {
        Op {
            kind: OpKind::Get,
            target,
            bytes,
            segments: 1,
            amount: 0,
            notify: false,
        }
    }

    /// Vectored put of `segments` pieces of `seg_bytes` each.
    pub fn put_v(target: Rank, segments: u32, seg_bytes: u64) -> Self {
        assert!(segments >= 1);
        Op {
            kind: OpKind::PutV,
            target,
            bytes: u64::from(segments) * seg_bytes,
            segments,
            amount: 0,
            notify: false,
        }
    }

    /// Vectored get of `segments` pieces of `seg_bytes` each.
    pub fn get_v(target: Rank, segments: u32, seg_bytes: u64) -> Self {
        assert!(segments >= 1);
        Op {
            kind: OpKind::GetV,
            target,
            bytes: u64::from(segments) * seg_bytes,
            segments,
            amount: 0,
            notify: false,
        }
    }

    /// Accumulate `bytes` into `target` (element-wise combine at the CHT).
    pub fn acc(target: Rank, bytes: u64) -> Self {
        Op {
            kind: OpKind::Acc,
            target,
            bytes,
            segments: 1,
            amount: 0,
            notify: false,
        }
    }

    /// Atomic fetch-&-add of `amount` on a counter owned by `target`.
    pub fn fetch_add(target: Rank, amount: i64) -> Self {
        Op {
            kind: OpKind::FetchAdd,
            target,
            bytes: 8,
            segments: 1,
            amount,
            notify: false,
        }
    }

    /// Lock request on a mutex owned by `target`.
    pub fn lock(target: Rank) -> Self {
        Op {
            kind: OpKind::Lock,
            target,
            bytes: 0,
            segments: 1,
            amount: 0,
            notify: false,
        }
    }

    /// Unlock request on a mutex owned by `target`.
    pub fn unlock(target: Rank) -> Self {
        Op {
            kind: OpKind::Unlock,
            target,
            bytes: 0,
            segments: 1,
            amount: 0,
            notify: false,
        }
    }

    /// Marks the operation to notify the target on arrival
    /// (`ARMCI_Put_flag`).
    pub fn with_notify(mut self) -> Self {
        self.notify = true;
        self
    }

    /// Bytes of the request message carried towards the target.
    ///
    /// Data-bearing requests (put-like) carry the payload with the
    /// descriptor; get-like requests carry only the descriptor.
    pub fn request_bytes(&self) -> u64 {
        let desc = wire::HEADER + u64::from(self.segments) * wire::SEG_DESC;
        match self.kind {
            OpKind::Put | OpKind::PutV | OpKind::Acc => desc + self.bytes,
            OpKind::Get | OpKind::GetV => desc,
            OpKind::FetchAdd => desc + 8,
            OpKind::Lock | OpKind::Unlock => desc,
        }
    }

    /// Bytes of the response from the target back to the origin.
    pub fn response_bytes(&self) -> u64 {
        match self.kind {
            OpKind::Get | OpKind::GetV => wire::ACK + self.bytes,
            OpKind::FetchAdd => wire::ACK + 8,
            _ => wire::ACK,
        }
    }

    /// Bytes of a buffer-release acknowledgement between servers.
    pub fn ack_bytes() -> u64 {
        wire::ACK
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn direct_classification_matches_paper() {
        assert!(OpKind::Put.is_direct());
        assert!(OpKind::Get.is_direct());
        for k in [
            OpKind::PutV,
            OpKind::GetV,
            OpKind::Acc,
            OpKind::FetchAdd,
            OpKind::Lock,
            OpKind::Unlock,
        ] {
            assert!(!k.is_direct(), "{k:?} must use the CHT path");
        }
    }

    #[test]
    fn put_v_totals_bytes() {
        let op = Op::put_v(Rank(0), 8, 1024);
        assert_eq!(op.bytes, 8192);
        assert_eq!(op.segments, 8);
        // Request carries descriptor + payload.
        assert_eq!(op.request_bytes(), 96 + 8 * 16 + 8192);
        // Response is a bare ack.
        assert_eq!(op.response_bytes(), 64);
    }

    #[test]
    fn get_v_moves_data_in_response() {
        let op = Op::get_v(Rank(3), 4, 256);
        assert_eq!(op.request_bytes(), 96 + 4 * 16);
        assert_eq!(op.response_bytes(), 64 + 1024);
    }

    #[test]
    fn fetch_add_is_small() {
        let op = Op::fetch_add(Rank(0), 1);
        assert_eq!(op.bytes, 8);
        assert_eq!(op.amount, 1);
        assert!(op.request_bytes() < 256);
        assert_eq!(op.response_bytes(), 72);
    }

    #[test]
    fn lock_unlock_carry_no_payload() {
        assert_eq!(Op::lock(Rank(1)).bytes, 0);
        assert_eq!(Op::unlock(Rank(1)).bytes, 0);
        assert_eq!(Op::lock(Rank(1)).response_bytes(), 64);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(OpKind::PutV.name(), "putv");
        assert_eq!(OpKind::FetchAdd.name(), "fadd");
    }
}
