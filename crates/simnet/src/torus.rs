//! The physical 3-D torus interconnect.
//!
//! Jaguar's SeaStar2+ network is a 3-D torus with static dimension-order
//! (X, then Y, then Z) routing and wraparound links. [`Torus3`] reproduces
//! that geometry: it maps physical slots to coordinates, picks the shorter
//! wraparound direction per dimension, and enumerates the directed links a
//! message occupies.

/// Direction of a torus link leaving a router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Towards +X.
    XPlus = 0,
    /// Towards −X.
    XMinus = 1,
    /// Towards +Y.
    YPlus = 2,
    /// Towards −Y.
    YMinus = 3,
    /// Towards +Z.
    ZPlus = 4,
    /// Towards −Z.
    ZMinus = 5,
}

/// Identifier of a directed physical link: `slot * 6 + direction`.
pub type LinkId = u32;

/// A 3-D torus of router slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Torus3 {
    dims: [u32; 3],
}

impl Torus3 {
    /// A torus with the given per-dimension extents.
    ///
    /// # Panics
    /// Panics if any extent is zero or the slot count overflows `u32`.
    pub fn new(dims: [u32; 3]) -> Self {
        assert!(dims.iter().all(|&d| d >= 1), "torus extents must be >= 1");
        let slots = u64::from(dims[0]) * u64::from(dims[1]) * u64::from(dims[2]);
        assert!(slots <= u64::from(u32::MAX), "torus too large");
        Torus3 { dims }
    }

    /// The Jaguar XT5 partition geometry the paper ran on (25 × 32 × 24).
    pub fn jaguar() -> Self {
        Torus3::new([25, 32, 24])
    }

    /// The smallest near-cubic torus with at least `n` slots.
    pub fn fitting(n: u32) -> Self {
        assert!(n >= 1);
        let mut x = (n as f64).cbrt().ceil() as u32;
        if x == 0 {
            x = 1;
        }
        let rest = n.div_ceil(x);
        let y = (rest as f64).sqrt().ceil() as u32;
        let z = n.div_ceil(x * y.max(1)).max(1);
        Torus3::new([x.max(1), y.max(1), z])
    }

    /// Per-dimension extents.
    pub fn dims(&self) -> [u32; 3] {
        self.dims
    }

    /// Total number of router slots.
    pub fn len(&self) -> u32 {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// True only for the degenerate 1×1×1 torus.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Total number of directed links (six per slot).
    pub fn link_count(&self) -> usize {
        self.len() as usize * 6
    }

    /// Coordinate of a slot.
    pub fn coord_of(&self, slot: u32) -> [u32; 3] {
        assert!(slot < self.len(), "slot {slot} out of range");
        let x = slot % self.dims[0];
        let y = (slot / self.dims[0]) % self.dims[1];
        let z = slot / (self.dims[0] * self.dims[1]);
        [x, y, z]
    }

    /// Slot of a coordinate.
    pub fn slot_of(&self, c: [u32; 3]) -> u32 {
        assert!(
            c[0] < self.dims[0] && c[1] < self.dims[1] && c[2] < self.dims[2],
            "coordinate {c:?} out of range for torus {:?}",
            self.dims
        );
        c[0] + self.dims[0] * (c[1] + self.dims[1] * c[2])
    }

    /// Signed shortest step count along `dim` from `from` to `to`
    /// (wraparound-aware; positive means the `+` direction).
    fn delta(&self, dim: usize, from: u32, to: u32) -> i64 {
        let d = i64::from(self.dims[dim]);
        let fwd = (i64::from(to) - i64::from(from)).rem_euclid(d);
        // Prefer the forward direction on ties, like SeaStar's static tables.
        if fwd <= d - fwd {
            fwd
        } else {
            fwd - d
        }
    }

    /// Minimal hop count between two slots.
    pub fn hop_count(&self, a: u32, b: u32) -> u32 {
        let ca = self.coord_of(a);
        let cb = self.coord_of(b);
        (0..3)
            .map(|d| self.delta(d, ca[d], cb[d]).unsigned_abs() as u32)
            .sum()
    }

    /// The directed links of the dimension-order (X → Y → Z) route from `a`
    /// to `b`, in traversal order, computed lazily with no allocation.
    /// Yields nothing when `a == b`. This is the message-send hot path;
    /// [`Torus3::route_links`] materialises the same sequence for analysis
    /// and tests.
    pub fn route(&self, a: u32, b: u32) -> RouteIter {
        let ca = self.coord_of(a);
        let cb = self.coord_of(b);
        let mut left = [0u32; 3];
        let mut plus = [true; 3];
        for d in 0..3 {
            let step = self.delta(d, ca[d], cb[d]);
            left[d] = step.unsigned_abs() as u32;
            plus[d] = step >= 0;
        }
        RouteIter {
            dims: self.dims,
            strides: [1, self.dims[0], self.dims[0] * self.dims[1]],
            cur: ca,
            slot: a,
            left,
            plus,
            dim: 0,
        }
    }

    /// The directed links of the dimension-order (X → Y → Z) route from `a`
    /// to `b`, in traversal order. Empty when `a == b`.
    pub fn route_links(&self, a: u32, b: u32) -> Vec<LinkId> {
        self.route(a, b).collect()
    }
}

/// Allocation-free iterator over a dimension-order route's directed links
/// (see [`Torus3::route`]). Owns copies of the coordinates, so it borrows
/// nothing — callers can walk the route while mutating link state.
///
/// The wraparound side and step count per dimension are fixed by `delta` at
/// construction (one division each); stepping is pure add/compare with an
/// incrementally maintained slot — this iterator runs once per physical hop
/// of every simulated message.
#[derive(Clone, Debug)]
pub struct RouteIter {
    dims: [u32; 3],
    strides: [u32; 3],
    cur: [u32; 3],
    slot: u32,
    /// Remaining hops per dimension.
    left: [u32; 3],
    /// Chosen side per dimension (`true` = the `+` direction).
    plus: [bool; 3],
    dim: usize,
}

impl Iterator for RouteIter {
    type Item = LinkId;

    fn next(&mut self) -> Option<LinkId> {
        while self.dim < 3 {
            let d = self.dim;
            if self.left[d] == 0 {
                self.dim += 1;
                continue;
            }
            self.left[d] -= 1;
            let link = self.slot * 6;
            let stride = self.strides[d];
            let dir = if self.plus[d] {
                if self.cur[d] + 1 == self.dims[d] {
                    self.cur[d] = 0;
                    self.slot -= stride * (self.dims[d] - 1);
                } else {
                    self.cur[d] += 1;
                    self.slot += stride;
                }
                2 * d as u32 // XPlus / YPlus / ZPlus
            } else {
                if self.cur[d] == 0 {
                    self.cur[d] = self.dims[d] - 1;
                    self.slot += stride * (self.dims[d] - 1);
                } else {
                    self.cur[d] -= 1;
                    self.slot -= stride;
                }
                2 * d as u32 + 1 // XMinus / YMinus / ZMinus
            };
            return Some(link + dir);
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.left[0] + self.left[1] + self.left[2]) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RouteIter {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn slot_coord_roundtrip() {
        let t = Torus3::new([4, 3, 2]);
        for slot in 0..t.len() {
            assert_eq!(t.slot_of(t.coord_of(slot)), slot);
        }
        assert_eq!(t.len(), 24);
        assert_eq!(t.link_count(), 144);
    }

    #[test]
    fn hop_count_uses_wraparound() {
        let t = Torus3::new([8, 8, 8]);
        let a = t.slot_of([0, 0, 0]);
        let b = t.slot_of([7, 0, 0]);
        assert_eq!(t.hop_count(a, b), 1); // wrap, not 7 forward hops
        let c = t.slot_of([4, 4, 4]);
        assert_eq!(t.hop_count(a, c), 12);
        assert_eq!(t.hop_count(a, a), 0);
    }

    #[test]
    fn hop_count_is_symmetric() {
        let t = Torus3::new([5, 4, 3]);
        for a in 0..t.len() {
            for b in 0..t.len() {
                assert_eq!(t.hop_count(a, b), t.hop_count(b, a));
            }
        }
    }

    #[test]
    fn route_links_match_hop_count() {
        let t = Torus3::new([5, 4, 3]);
        for a in (0..t.len()).step_by(7) {
            for b in (0..t.len()).step_by(5) {
                let links = t.route_links(a, b);
                assert_eq!(links.len() as u32, t.hop_count(a, b));
                for &l in &links {
                    assert!((l as usize) < t.link_count());
                }
            }
        }
    }

    #[test]
    fn route_is_dimension_ordered() {
        let t = Torus3::new([4, 4, 4]);
        let a = t.slot_of([0, 0, 0]);
        let b = t.slot_of([2, 1, 1]);
        let dirs: Vec<u32> = t.route_links(a, b).iter().map(|l| l % 6).collect();
        // X hops (dir 0/1) strictly before Y (2/3) before Z (4/5).
        let phases: Vec<u32> = dirs.iter().map(|d| d / 2).collect();
        let mut sorted = phases.clone();
        sorted.sort_unstable();
        assert_eq!(phases, sorted);
        assert_eq!(phases, vec![0, 0, 1, 2]);
    }

    #[test]
    fn fitting_covers_population() {
        for n in [1u32, 2, 7, 64, 100, 1024, 19200] {
            let t = Torus3::fitting(n);
            assert!(t.len() >= n, "torus {:?} too small for {n}", t.dims());
        }
    }

    #[test]
    fn jaguar_geometry() {
        let t = Torus3::jaguar();
        assert_eq!(t.dims(), [25, 32, 24]);
        assert_eq!(t.len(), 19200);
    }

    #[test]
    fn first_link_leaves_source() {
        let t = Torus3::new([3, 3, 3]);
        for a in 0..t.len() {
            for b in 0..t.len() {
                if a != b {
                    let links = t.route_links(a, b);
                    assert_eq!(links[0] / 6, a);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_of_rejects_bad_slot() {
        Torus3::new([2, 2, 2]).coord_of(8);
    }
}
