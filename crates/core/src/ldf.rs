//! Lowest-dimension-first (LDF) forwarding.
//!
//! LDF is the paper's deadlock-free request-forwarding order (§IV,
//! Algorithm 1): to route from `S` to `T` on a `k`-dimensional topology,
//! always fix the **lowest** dimension on which the current node and the
//! destination differ. Because the dimension order is monotone along a path,
//! the buffer-dependency graph between virtual channels is acyclic, which
//! rules out deadlock (the classic dimension-order argument of Dally &
//! Seitz, specialised to buffer credits instead of wormhole channels).
//!
//! **Extension to any node count (§IV-B).** Nodes are packed in
//! lowest-dimension-first order, so only the top of the highest dimension is
//! incomplete. The extended algorithm adds one guard: a hop is taken only if
//! the resulting node id exists (`D ≤ M`, i.e. `D < n` with 0-based ids);
//! otherwise the scan continues with the next higher dimension and the
//! skipped dimension is corrected later, after the route has left the partial
//! top slice. Two facts make this safe:
//!
//! * **Termination / progress** — every hop permanently fixes one coordinate
//!   to the destination's value, so a route takes at most `k` hops.
//! * **Existence** — a legal hop always exists. By induction on `k`: if the
//!   destination's highest coordinate differs it is reachable (moving the
//!   highest coordinate of `S` towards `T`'s never leaves the population,
//!   because `T < n` and complete slices are below); if it is equal, the
//!   problem reduces to the same question one dimension down inside that
//!   slice, whose population is again packed lowest-dimension-first.
//!
//! Deadlock freedom of the extended order is additionally *checked* (not
//! assumed) by the dependency-graph cycle tests in [`crate::graph`].

use crate::shape::Shape;

/// The next node on the LDF route from `current` to `dest` in a topology of
/// `shape` populated by nodes `0..n`, or `None` when `current == dest`.
///
/// # Panics
/// Panics if `current` or `dest` is `>= n`, or if `n` exceeds the shape's
/// capacity.
pub fn next_hop(shape: &Shape, n: u32, current: u32, dest: u32) -> Option<u32> {
    assert!(u64::from(n) <= shape.capacity(), "population exceeds shape");
    assert!(current < n, "current node {current} out of range (n = {n})");
    assert!(dest < n, "destination node {dest} out of range (n = {n})");
    if current == dest {
        return None;
    }
    let hop = ldf_scan(shape, n, current, dest, |_| true);
    assert!(
        hop.is_some(),
        "extended LDF invariant violated: no legal hop from {current} to {dest} \
         on shape {:?} with n = {n}",
        shape.dims()
    );
    hop
}

/// The extended-LDF scan behind [`next_hop`] and [`next_hop_avoiding`]:
/// the first hop, lowest dimension first, that fixes one differing
/// coordinate of `current` to `dest`'s, lands inside the population and
/// is `usable`. Works on the mixed-radix digits of the two ids directly
/// (the hop replaces one digit of `current`), so no [`Coord`](crate::Coord)
/// is built; the scan stops as soon as the remaining higher digits agree.
#[inline]
fn ldf_scan(
    shape: &Shape,
    n: u32,
    current: u32,
    dest: u32,
    usable: impl Fn(u32) -> bool,
) -> Option<u32> {
    let (mut s, mut t) = (current, dest);
    let mut stride = 1u64;
    for &d in shape.dims() {
        if s == t {
            break;
        }
        let (ds, dt) = (s % d, t % d);
        if ds != dt {
            let id = u64::from(current) - u64::from(ds) * stride + u64::from(dt) * stride;
            if id < u64::from(n) && usable(id as u32) {
                return Some(id as u32);
            }
            // Missing (partial top slice) or unusable: defer this
            // dimension and try the next higher differing one.
        }
        s /= d;
        t /= d;
        stride *= u64::from(d);
    }
    None
}

/// Outcome of a dead-set-aware next-hop decision ([`next_hop_avoiding`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopDecision {
    /// `current == dest`: nothing to route.
    Arrived,
    /// The next node on the fault-tolerant LDF route.
    Hop(u32),
    /// No live hop exists: the destination is dead, or every differing
    /// dimension's hop is dead or outside the population.
    Unreachable,
}

/// The next hop of the **route-around** variant of extended LDF: fix the
/// lowest differing dimension whose hop node exists *and is not in `dead`*.
///
/// This is the ordinary extended-LDF scan with one more skip condition, so
/// it degenerates to [`next_hop`] when `dead` is empty.
///
/// **Deadlock freedom needs escape classes.** The partial-slice skips of
/// extended LDF keep a global channel order because the missing nodes sit
/// only in the topmost slice; a dead node can sit *anywhere*, and skipping
/// it makes some routes fix a lower dimension *after* a higher one. The
/// channel-level dependencies of such routes can close cycles against
/// ordinary LDF traffic — the [`crate::graph`] harness finds a concrete
/// cycle on a 16-node CFCG with node 0 dead — mirroring the classic result
/// that fault-adaptive dimension-order routing is not deadlock-free without
/// extra virtual channels. The cure is the standard one: every *descent* —
/// a hop fixing a lower dimension than the previous hop did — moves the
/// request into the next **escape buffer class**
/// ([`route_avoiding_classed`]), a separate credit pool on the same edge.
/// Ranking hops by `(class, dimension)` then increases strictly along every
/// route (same class ⇒ the dimension rose; descent ⇒ the class rose), so
/// the buffer-dependency graph over *(channel, class)* pairs is acyclic for
/// **any** dead set; and a route takes at most `ndims` hops, so fewer than
/// `ndims` classes ever exist. With an empty dead set the hops are plain
/// extended LDF, but a partial shape still descends on some routes (the
/// partial-slice skips of extended LDF fix a lower dimension after a
/// higher one), so those hops escalate too: MFCG over 3 nodes routes
/// 2 → 1 as `[(0, 0), (1, 1)]`. The argument is additionally *checked*,
/// not assumed, by cycle tests of [`crate::DependencyGraph`] in escape
/// classes over sampled and randomised dead sets.
///
/// Unlike plain extended LDF, a legal hop is **not** guaranteed to exist:
/// when only one dimension differs, the sole candidate hop *is* the
/// destination, and killing the last alternative forwarder severs the pair.
/// Route-around never detours through a non-differing dimension — that
/// would break both the ≤ `ndims` hop bound and the monotone-progress
/// argument — so such pairs report [`HopDecision::Unreachable`] and the
/// caller surfaces a diagnostic instead of risking an unbounded escape.
///
/// `dead` is a small unordered slice of dead node ids; `current` must not
/// be in it (a dead node routes nothing).
///
/// # Panics
/// Panics if `current` or `dest` is `>= n`, or `n` exceeds the shape's
/// capacity.
pub fn next_hop_avoiding(
    shape: &Shape,
    n: u32,
    current: u32,
    dest: u32,
    dead: &[u32],
) -> HopDecision {
    assert!(u64::from(n) <= shape.capacity(), "population exceeds shape");
    assert!(current < n, "current node {current} out of range (n = {n})");
    assert!(dest < n, "destination node {dest} out of range (n = {n})");
    debug_assert!(!dead.contains(&current), "dead node {current} cannot route");
    if current == dest {
        return HopDecision::Arrived;
    }
    if dead.contains(&dest) {
        return HopDecision::Unreachable;
    }
    match ldf_scan(shape, n, current, dest, |id| !dead.contains(&id)) {
        Some(id) => HopDecision::Hop(id),
        None => HopDecision::Unreachable,
    }
}

/// The full route-around route from `src` to `dest`, or `None` when some
/// prefix of it dead-ends. Empty when `src == dest`.
pub fn route_avoiding(
    shape: &Shape,
    n: u32,
    src: u32,
    dest: u32,
    dead: &[u32],
) -> Option<Vec<u32>> {
    let mut hops = Vec::with_capacity(shape.ndims());
    let mut cur = src;
    loop {
        match next_hop_avoiding(shape, n, cur, dest, dead) {
            HopDecision::Arrived => return Some(hops),
            HopDecision::Unreachable => return None,
            HopDecision::Hop(next) => {
                hops.push(next);
                cur = next;
                assert!(
                    hops.len() <= shape.ndims(),
                    "route-around from {src} to {dest} exceeded {} hops",
                    shape.ndims()
                );
            }
        }
    }
}

/// The dimension an edge between topology neighbours `a` and `b` crosses.
///
/// # Panics
/// Panics if `a` and `b` do not differ in exactly one dimension.
pub fn crossing_dim(shape: &Shape, a: u32, b: u32) -> usize {
    for id in [a, b] {
        assert!(
            u64::from(id) < shape.capacity(),
            "id {id} out of range for shape {:?}",
            shape.dims()
        );
    }
    let (mut x, mut y) = (a, b);
    let mut found = None;
    for (dim, &d) in shape.dims().iter().enumerate() {
        if x == y {
            break;
        }
        if x % d != y % d {
            assert!(
                found.is_none(),
                "{a} and {b} differ in more than one dimension"
            );
            found = Some(dim);
        }
        x /= d;
        y /= d;
    }
    found.unwrap_or_else(|| panic!("{a} and {b} occupy the same position"))
}

/// The escape buffer class a request forwarded `prev -> current -> next`
/// travels on, given it arrived at `current` in class `base_class`.
///
/// This is the per-hop form of the descent rule of
/// [`route_avoiding_classed`]: the class escalates exactly when the
/// outgoing edge crosses a lower dimension than the incoming edge did. It
/// is the **batch key** of the coalescing layer — two queued requests may
/// share a forwarding envelope only if they leave on the same edge *and*
/// in the same class, because an envelope occupies a single buffer credit
/// and credits are partitioned by `(edge, class)`. Requests *originating*
/// at `current` have no incoming edge; callers pass `prev == current`,
/// which never escalates.
///
/// # Panics
/// Panics if `prev`/`current` or `current`/`next` are not topology
/// neighbours (unless `prev == current`).
pub fn forward_class(shape: &Shape, prev: u32, current: u32, next: u32, base_class: u8) -> u8 {
    if prev == current {
        return base_class;
    }
    let in_dim = crossing_dim(shape, prev, current);
    let out_dim = crossing_dim(shape, current, next);
    if out_dim < in_dim {
        base_class + 1
    } else {
        base_class
    }
}

/// [`route_avoiding`] with each hop's **escape buffer class**: hops start in
/// class 0 and every descent (a hop crossing a lower dimension than the hop
/// before it) increments the class. See [`next_hop_avoiding`] for why the
/// classes exist. With an empty `dead` set the hops are those of [`route`],
/// but on a partial shape a partial-slice skip can still descend and
/// escalate the class (see [`next_hop_avoiding`]).
pub fn route_avoiding_classed(
    shape: &Shape,
    n: u32,
    src: u32,
    dest: u32,
    dead: &[u32],
) -> Option<Vec<(u32, u8)>> {
    let hops = route_avoiding(shape, n, src, dest, dead)?;
    let mut out = Vec::with_capacity(hops.len());
    let mut class = 0u8;
    let mut prev_dim: Option<usize> = None;
    let mut cur = src;
    for &hop in &hops {
        let dim = crossing_dim(shape, cur, hop);
        if prev_dim.is_some_and(|p| dim < p) {
            class += 1;
        }
        out.push((hop, class));
        prev_dim = Some(dim);
        cur = hop;
    }
    Some(out)
}

/// The full LDF route from `src` to `dest`: every intermediate node followed
/// by `dest` itself. Empty when `src == dest`.
///
/// The route's length is the number of *messages* sent; the number of
/// *forwarding* steps is `route.len() - 1`.
pub fn route(shape: &Shape, n: u32, src: u32, dest: u32) -> Vec<u32> {
    let mut hops = Vec::with_capacity(shape.ndims());
    let mut cur = src;
    while let Some(next) = next_hop(shape, n, cur, dest) {
        hops.push(next);
        cur = next;
        assert!(
            hops.len() <= shape.ndims(),
            "LDF route from {src} to {dest} exceeded {} hops",
            shape.ndims()
        );
    }
    hops
}

/// Number of hops (messages) on the LDF route without materialising it.
pub fn hop_count(shape: &Shape, n: u32, src: u32, dest: u32) -> u32 {
    let mut hops = 0;
    let mut cur = src;
    while let Some(next) = next_hop(shape, n, cur, dest) {
        hops += 1;
        cur = next;
    }
    hops
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn same_node_routes_nowhere() {
        let s = Shape::new(vec![3, 3]);
        assert_eq!(next_hop(&s, 9, 4, 4), None);
        assert!(route(&s, 9, 4, 4).is_empty());
    }

    #[test]
    fn full_mesh_fixes_lowest_dimension_first() {
        // 3x3 mesh, node 8 = (2,2) -> node 0 = (0,0):
        // first fix X (hop to (0,2) = 6), then Y (hop to (0,0) = 0).
        let s = Shape::new(vec![3, 3]);
        assert_eq!(route(&s, 9, 8, 0), vec![6, 0]);
    }

    #[test]
    fn one_dimensional_shape_is_direct() {
        // FCG: a single dimension, always one hop.
        let s = Shape::line_for(16);
        for src in 0..16 {
            for dst in 0..16 {
                if src != dst {
                    assert_eq!(route(&s, 16, src, dst), vec![dst]);
                }
            }
        }
    }

    #[test]
    fn hypercube_flips_lowest_bit_first() {
        // 16-node hypercube: 15 = 1111 -> 0 goes 1111,1110,1100,1000,0000.
        let s = Shape::hypercube_for(16).unwrap();
        assert_eq!(route(&s, 16, 15, 0), vec![14, 12, 8, 0]);
    }

    #[test]
    fn partial_mesh_skips_missing_node() {
        // 3x3 shape, 8 nodes (node 8 missing). From 7 = (1,2) to 2 = (2,0):
        // the X-first hop would be (2,2) = 8 which does not exist, so LDF
        // defers X, hops Y to (1,0) = 1, then X to (2,0) = 2.
        let s = Shape::new(vec![3, 3]);
        assert_eq!(route(&s, 8, 7, 2), vec![1, 2]);
    }

    #[test]
    fn partial_mesh_direct_within_top_row() {
        // 3x3 shape, 8 nodes. 7 = (1,2) and 6 = (0,2) share the top row.
        let s = Shape::new(vec![3, 3]);
        assert_eq!(route(&s, 8, 7, 6), vec![6]);
    }

    #[test]
    fn every_pair_routes_within_ndims_hops() {
        for n in 1..=40u32 {
            for shape in [Shape::mesh_for(n), Shape::cube_for(n)] {
                for src in 0..n {
                    for dst in 0..n {
                        let r = route(&shape, n, src, dst);
                        assert!(r.len() <= shape.ndims());
                        if src != dst {
                            assert_eq!(*r.last().unwrap(), dst);
                        }
                        assert_eq!(hop_count(&shape, n, src, dst) as usize, r.len());
                    }
                }
            }
        }
    }

    #[test]
    fn hops_follow_single_dimension_changes() {
        // Every hop on a route must change exactly one coordinate, i.e. use a
        // real topology edge.
        let n = 23;
        let shape = Shape::cube_for(n);
        for src in 0..n {
            for dst in 0..n {
                let mut cur = src;
                for &hop in &route(&shape, n, src, dst) {
                    let a = shape.coord_of(cur);
                    let b = shape.coord_of(hop);
                    assert_eq!(a.differing_dims(&b), 1, "{cur} -> {hop} not an edge");
                    cur = hop;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn next_hop_rejects_missing_nodes() {
        let s = Shape::new(vec![3, 3]);
        next_hop(&s, 8, 8, 0);
    }

    #[test]
    fn avoiding_nothing_matches_plain_ldf() {
        for n in [7u32, 9, 16, 27] {
            for shape in [Shape::mesh_for(n), Shape::cube_for(n)] {
                for src in 0..n {
                    for dst in 0..n {
                        let plain = next_hop(&shape, n, src, dst);
                        let avoiding = next_hop_avoiding(&shape, n, src, dst, &[]);
                        match plain {
                            None => assert_eq!(avoiding, HopDecision::Arrived),
                            Some(h) => assert_eq!(avoiding, HopDecision::Hop(h)),
                        }
                        assert_eq!(
                            route_avoiding(&shape, n, src, dst, &[]).unwrap(),
                            route(&shape, n, src, dst)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn route_around_escapes_a_dead_forwarder() {
        // 3x3 mesh, node 8 = (2,2) -> node 0 = (0,0). Plain LDF forwards
        // via (0,2) = 6; with 6 dead the escape fixes Y first via (2,0) = 2.
        let s = Shape::new(vec![3, 3]);
        assert_eq!(route(&s, 9, 8, 0), vec![6, 0]);
        assert_eq!(route_avoiding(&s, 9, 8, 0, &[6]).unwrap(), vec![2, 0]);
    }

    #[test]
    fn dead_destination_is_unreachable() {
        let s = Shape::new(vec![3, 3]);
        assert_eq!(
            next_hop_avoiding(&s, 9, 8, 0, &[0]),
            HopDecision::Unreachable
        );
        assert!(route_avoiding(&s, 9, 8, 0, &[0]).is_none());
    }

    #[test]
    fn single_differing_dimension_cannot_route_around() {
        // (0,0) -> (2,0) differ only in X: the only candidate hop is the
        // destination itself, so no third-party death can sever the pair,
        // but a two-node cut in the other dimension cannot be escaped
        // either: from (0,0) to (0,2) with (0,2) alive there is exactly one
        // hop — route-around never detours through non-differing dims.
        let s = Shape::new(vec![3, 3]);
        assert_eq!(next_hop_avoiding(&s, 9, 0, 2, &[1, 5]), HopDecision::Hop(2));
        // All alternatives in both differing dimensions dead: unreachable.
        assert_eq!(
            next_hop_avoiding(&s, 9, 8, 0, &[6, 2]),
            HopDecision::Unreachable
        );
    }

    #[test]
    fn route_around_stays_within_ndims_hops() {
        let n = 27;
        let shape = Shape::cube_for(n);
        for dead in [vec![13u32], vec![1, 9], vec![4, 10, 22]] {
            for src in 0..n {
                for dst in 0..n {
                    if dead.contains(&src) || dead.contains(&dst) {
                        continue;
                    }
                    if let Some(r) = route_avoiding(&shape, n, src, dst, &dead) {
                        assert!(r.len() <= shape.ndims());
                        for hop in &r {
                            assert!(!dead.contains(hop), "{src}->{dst} via dead {hop}");
                        }
                        if src != dst {
                            assert_eq!(*r.last().unwrap(), dst);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn crossing_dim_identifies_the_edge_dimension() {
        let s = Shape::new(vec![3, 3, 2]);
        assert_eq!(crossing_dim(&s, 0, 2), 0); // (0,0,0) -> (2,0,0)
        assert_eq!(crossing_dim(&s, 0, 6), 1); // (0,0,0) -> (0,2,0)
        assert_eq!(crossing_dim(&s, 0, 9), 2); // (0,0,0) -> (0,0,1)
    }

    #[test]
    #[should_panic(expected = "more than one dimension")]
    fn crossing_dim_rejects_non_neighbours() {
        let s = Shape::new(vec![3, 3]);
        crossing_dim(&s, 0, 8); // (0,0) vs (2,2)
    }

    #[test]
    fn classed_routes_stay_in_class_zero_without_deaths() {
        let n = 27;
        let shape = Shape::cube_for(n);
        for src in 0..n {
            for dst in 0..n {
                let classed = route_avoiding_classed(&shape, n, src, dst, &[]).unwrap();
                assert!(classed.iter().all(|&(_, c)| c == 0), "{src}->{dst}");
                let hops: Vec<u32> = classed.iter().map(|&(h, _)| h).collect();
                assert_eq!(hops, route(&shape, n, src, dst));
            }
        }
    }

    #[test]
    fn descent_escalates_the_escape_class() {
        // 3x3 mesh, forwarder (0,2)=6 dead: (2,2)=8 -> (0,0)=0 escapes to
        // dimension 1 first (hop to (2,0)=2) and then descends back to
        // dimension 0 — the descent hop must carry class 1.
        let s = Shape::new(vec![3, 3]);
        let classed = route_avoiding_classed(&s, 9, 8, 0, &[6]).unwrap();
        assert_eq!(classed, vec![(2, 0), (0, 1)]);
    }

    #[test]
    fn forward_class_matches_route_classing() {
        // Replaying any classed route hop-by-hop through forward_class must
        // reproduce the per-hop classes, with and without dead sets.
        let n = 27;
        let shape = Shape::cube_for(n);
        for dead in [vec![], vec![13u32], vec![1, 9]] {
            for src in 0..n {
                for dst in 0..n {
                    if dead.contains(&src) || dead.contains(&dst) {
                        continue;
                    }
                    let Some(classed) = route_avoiding_classed(&shape, n, src, dst, &dead) else {
                        continue;
                    };
                    let mut prev = src;
                    let mut cur = src;
                    let mut class = 0u8;
                    for &(hop, expect) in &classed {
                        class = forward_class(&shape, prev, cur, hop, class);
                        assert_eq!(class, expect, "{src}->{dst} hop {hop}");
                        prev = cur;
                        cur = hop;
                    }
                }
            }
        }
    }

    #[test]
    fn forward_class_origin_never_escalates() {
        let s = Shape::new(vec![3, 3]);
        assert_eq!(forward_class(&s, 8, 8, 6, 0), 0);
        // Descent 2->0 after arriving via dimension 1 escalates.
        assert_eq!(forward_class(&s, 8, 2, 0, 0), 1);
        // Same-or-higher dimension keeps the class.
        assert_eq!(forward_class(&s, 2, 0, 6, 1), 1);
    }

    #[test]
    fn escape_classes_stay_below_ndims() {
        let n = 27;
        let shape = Shape::cube_for(n);
        for dead in [vec![13u32], vec![1, 9], vec![4, 10, 22]] {
            for src in 0..n {
                for dst in 0..n {
                    if dead.contains(&src) || dead.contains(&dst) {
                        continue;
                    }
                    if let Some(r) = route_avoiding_classed(&shape, n, src, dst, &dead) {
                        for &(_, class) in &r {
                            assert!(usize::from(class) < shape.ndims());
                        }
                    }
                }
            }
        }
    }
}
