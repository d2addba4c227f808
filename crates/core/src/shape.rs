//! Grid shapes and the id ⇄ coordinate encoding.
//!
//! A [`Shape`] is the list of per-dimension extents of a virtual topology,
//! lowest dimension first. Node ids are the mixed-radix encoding of their
//! coordinates with dimension 0 varying fastest, which is exactly the
//! "lowest dimension first" node ordering the paper uses to support
//! partially-populated meshes and cubes (§IV-B): for a population of `n`
//! nodes, ids `0..n` fill complete lower-dimension slices first and only the
//! top of the highest dimension is incomplete.

use crate::coords::{Coord, MAX_DIMS};

/// Extents of a multi-dimensional grid, lowest dimension first.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<u32>,
    /// `∏ dims`, computed once: every routing decision checks its
    /// population against it.
    capacity: u64,
}

impl Shape {
    /// Builds a shape from per-dimension extents.
    ///
    /// # Panics
    /// Panics if `dims` is empty, longer than [`MAX_DIMS`], contains a zero
    /// extent, or its capacity overflows `u64`.
    pub fn new(dims: Vec<u32>) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= MAX_DIMS,
            "shape must have between 1 and {MAX_DIMS} dimensions, got {}",
            dims.len()
        );
        assert!(
            dims.iter().all(|&d| d >= 1),
            "all shape extents must be >= 1, got {dims:?}"
        );
        let mut cap: u64 = 1;
        for &d in &dims {
            cap = match cap.checked_mul(u64::from(d)) {
                Some(c) => c,
                None => panic!("shape {dims:?} capacity overflows u64"),
            };
        }
        Shape {
            dims,
            capacity: cap,
        }
    }

    /// A one-dimensional shape of extent `n` (the FCG "shape").
    pub fn line_for(n: u32) -> Self {
        assert!(n >= 1, "need at least one node");
        Shape::new(vec![n])
    }

    /// The smallest near-square `X × Y` mesh covering `n` nodes.
    ///
    /// `X = ⌈√n⌉` and `Y = ⌈n / X⌉`, so every row except possibly the topmost
    /// is fully populated — the invariant required by extended LDF.
    pub fn mesh_for(n: u32) -> Self {
        assert!(n >= 1, "need at least one node");
        let x = ceil_sqrt(n);
        let y = div_ceil_u32(n, x);
        Shape::new(vec![x, y])
    }

    /// The smallest near-cubic `X × Y × Z` cube covering `n` nodes.
    ///
    /// Only the topmost Z slice may be partial.
    pub fn cube_for(n: u32) -> Self {
        assert!(n >= 1, "need at least one node");
        let x = ceil_cbrt(n);
        let rest = div_ceil_u32(n, x);
        let y = ceil_sqrt(rest);
        let z = div_ceil_u32(n, x * y);
        Shape::new(vec![x, y, z])
    }

    /// The smallest near-balanced `k`-dimensional grid covering `n` nodes,
    /// with only the topmost slice of the highest dimension partial — the
    /// generalisation of [`Shape::mesh_for`]/[`Shape::cube_for`] to any
    /// dimensionality (`k = 1` is the FCG line, 2 the MFCG mesh, 3 the CFCG
    /// cube).
    pub fn balanced_for(n: u32, k: usize) -> Self {
        assert!(n >= 1, "need at least one node");
        assert!((1..=MAX_DIMS).contains(&k), "k must be 1..={MAX_DIMS}");
        let mut dims = Vec::with_capacity(k);
        let mut remaining = u64::from(n);
        for i in 0..k {
            let d = if i + 1 == k {
                remaining.max(1) as u32
            } else {
                ceil_root(remaining, (k - i) as u32)
            };
            dims.push(d);
            remaining = remaining.div_ceil(u64::from(d)).max(1);
        }
        // Trim the highest dimension so no whole top slice is empty.
        let slice: u64 = dims[..k - 1].iter().map(|&d| u64::from(d)).product();
        let top = u64::from(n).div_ceil(slice).max(1) as u32;
        dims[k - 1] = top;
        Shape::new(dims)
    }

    /// The `log₂ n`-dimensional binary hypercube shape, or `None` if `n` is
    /// not a power of two (the paper only supports fully populated
    /// hypercubes, §IV).
    pub fn hypercube_for(n: u32) -> Option<Self> {
        if n < 2 || !n.is_power_of_two() {
            return None;
        }
        let k = n.trailing_zeros() as usize;
        Some(Shape::new(vec![2; k]))
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Extent along dimension `dim`.
    #[inline]
    pub fn dim(&self, dim: usize) -> u32 {
        self.dims[dim]
    }

    /// All extents, lowest dimension first.
    #[inline]
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Total number of grid points (`∏ dims`), i.e. the population of a
    /// *fully* populated topology of this shape.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Decodes a node id into its coordinate (mixed radix, dimension 0
    /// fastest).
    ///
    /// # Panics
    /// Panics if `id >= self.capacity()`.
    pub fn coord_of(&self, id: u32) -> Coord {
        assert!(
            u64::from(id) < self.capacity(),
            "id {id} out of range for shape {:?}",
            self.dims
        );
        let mut c = Coord::zero(self.ndims());
        let mut rem = id;
        for (i, &d) in self.dims.iter().enumerate() {
            c.set(i, rem % d);
            rem /= d;
        }
        c
    }

    /// Encodes a coordinate back into a node id.
    ///
    /// # Panics
    /// Panics if the coordinate has the wrong dimensionality or any value is
    /// out of range for its extent.
    pub fn id_of(&self, c: &Coord) -> u32 {
        assert_eq!(c.ndims(), self.ndims(), "dimension mismatch");
        let mut id: u64 = 0;
        let mut stride: u64 = 1;
        for (i, &d) in self.dims.iter().enumerate() {
            let v = c.get(i);
            assert!(
                v < d,
                "coordinate {c} out of range for shape {:?}",
                self.dims
            );
            id += u64::from(v) * stride;
            stride *= u64::from(d);
        }
        id as u32
    }
}

/// `⌈a / b⌉` for `u32`.
fn div_ceil_u32(a: u32, b: u32) -> u32 {
    debug_assert!(b > 0);
    a / b + u32::from(!a.is_multiple_of(b))
}

/// Smallest `x` with `x * x >= n`.
fn ceil_sqrt(n: u32) -> u32 {
    if n <= 1 {
        return n.max(1);
    }
    let mut x = (n as f64).sqrt() as u32;
    while u64::from(x) * u64::from(x) < u64::from(n) {
        x += 1;
    }
    while x > 1 && u64::from(x - 1) * u64::from(x - 1) >= u64::from(n) {
        x -= 1;
    }
    x
}

/// Smallest `x ≥ 1` with `xᵏ >= n` (exact integer adjustment around the
/// floating-point estimate).
fn ceil_root(n: u64, k: u32) -> u32 {
    if n <= 1 || k == 0 {
        return 1;
    }
    let powk = |v: u64| -> u128 { (0..k).fold(1u128, |acc, _| acc.saturating_mul(v as u128)) };
    let mut x = (n as f64).powf(1.0 / f64::from(k)).round().max(1.0) as u64;
    while powk(x) < u128::from(n) {
        x += 1;
    }
    while x > 1 && powk(x - 1) >= u128::from(n) {
        x -= 1;
    }
    x as u32
}

/// Smallest `x` with `x³ >= n`.
fn ceil_cbrt(n: u32) -> u32 {
    if n <= 1 {
        return n.max(1);
    }
    let mut x = (n as f64).cbrt() as u32;
    let cube = |v: u32| u64::from(v) * u64::from(v) * u64::from(v);
    while cube(x) < u64::from(n) {
        x += 1;
    }
    while x > 1 && cube(x - 1) >= u64::from(n) {
        x -= 1;
    }
    x
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_roundtrip_3x3() {
        let s = Shape::new(vec![3, 3]);
        for id in 0..9 {
            assert_eq!(s.id_of(&s.coord_of(id)), id);
        }
        // Lowest dimension varies fastest: node 4 of a 3x3 mesh is (1,1).
        assert_eq!(s.coord_of(4).as_slice(), &[1, 1]);
        assert_eq!(s.coord_of(5).as_slice(), &[2, 1]);
    }

    #[test]
    fn mesh_for_covers_and_is_tight() {
        for n in 1..=600u32 {
            let s = Shape::mesh_for(n);
            assert_eq!(s.ndims(), 2);
            let (x, y) = (s.dim(0), s.dim(1));
            assert!(s.capacity() >= u64::from(n), "mesh too small for {n}");
            // Only the topmost row may be partial.
            assert!(
                u64::from(x) * u64::from(y - 1) < u64::from(n),
                "mesh {x}x{y} wastes a whole row for {n}"
            );
        }
    }

    #[test]
    fn mesh_for_perfect_square_is_square() {
        let s = Shape::mesh_for(1024);
        assert_eq!(s.dims(), &[32, 32]);
        let s = Shape::mesh_for(9);
        assert_eq!(s.dims(), &[3, 3]);
    }

    #[test]
    fn cube_for_covers_and_is_tight() {
        for n in 1..=600u32 {
            let s = Shape::cube_for(n);
            assert_eq!(s.ndims(), 3);
            assert!(s.capacity() >= u64::from(n), "cube too small for {n}");
            let slice = u64::from(s.dim(0)) * u64::from(s.dim(1));
            assert!(
                slice * u64::from(s.dim(2) - 1) < u64::from(n),
                "cube {:?} wastes a whole slice for {n}",
                s.dims()
            );
        }
    }

    #[test]
    fn cube_for_perfect_cube_is_cubic() {
        assert_eq!(Shape::cube_for(27).dims(), &[3, 3, 3]);
        assert_eq!(Shape::cube_for(1000).dims(), &[10, 10, 10]);
    }

    #[test]
    fn balanced_for_generalises_mesh_and_cube() {
        assert_eq!(Shape::balanced_for(1024, 1).dims(), &[1024]);
        assert_eq!(
            Shape::balanced_for(1024, 2).dims(),
            Shape::mesh_for(1024).dims()
        );
        assert_eq!(Shape::balanced_for(27, 3).dims(), &[3, 3, 3]);
        assert_eq!(Shape::balanced_for(1024, 5).dims(), &[4, 4, 4, 4, 4]);
    }

    #[test]
    fn balanced_for_covers_and_keeps_lower_dims_full() {
        for n in 1..=300u32 {
            for k in 1..=5usize {
                let s = Shape::balanced_for(n, k);
                assert_eq!(s.ndims(), k);
                assert!(s.capacity() >= u64::from(n), "k={k} n={n}: too small");
                let slice: u64 = s.dims()[..k - 1].iter().map(|&d| u64::from(d)).product();
                assert!(
                    slice * u64::from(s.dim(k - 1) - 1) < u64::from(n),
                    "k={k} n={n}: wasted top slice in {:?}",
                    s.dims()
                );
            }
        }
    }

    #[test]
    fn ceil_root_is_exact() {
        assert_eq!(ceil_root(1, 4), 1);
        assert_eq!(ceil_root(16, 4), 2);
        assert_eq!(ceil_root(17, 4), 3);
        assert_eq!(ceil_root(81, 4), 3);
        assert_eq!(ceil_root(1024, 10), 2);
        assert_eq!(ceil_root(1_000_000, 2), 1000);
    }

    #[test]
    fn hypercube_for_powers_of_two_only() {
        assert_eq!(Shape::hypercube_for(16).unwrap().dims(), &[2, 2, 2, 2]);
        assert!(Shape::hypercube_for(12).is_none());
        assert!(Shape::hypercube_for(1).is_none());
        assert_eq!(Shape::hypercube_for(2).unwrap().ndims(), 1);
    }

    #[test]
    fn capacity_is_product() {
        assert_eq!(Shape::new(vec![3, 4, 5]).capacity(), 60);
        assert_eq!(Shape::line_for(7).capacity(), 7);
    }

    #[test]
    fn ceil_helpers_are_exact() {
        assert_eq!(ceil_sqrt(1), 1);
        assert_eq!(ceil_sqrt(2), 2);
        assert_eq!(ceil_sqrt(4), 2);
        assert_eq!(ceil_sqrt(5), 3);
        assert_eq!(ceil_sqrt(1024), 32);
        assert_eq!(ceil_cbrt(1), 1);
        assert_eq!(ceil_cbrt(8), 2);
        assert_eq!(ceil_cbrt(9), 3);
        assert_eq!(ceil_cbrt(27), 3);
        assert_eq!(ceil_cbrt(1000), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_of_rejects_out_of_range_id() {
        Shape::new(vec![2, 2]).coord_of(4);
    }

    #[test]
    #[should_panic(expected = "extents must be >= 1")]
    fn zero_extent_rejected() {
        Shape::new(vec![3, 0]);
    }
}
