//! Mapping of allocated (logical) nodes onto physical torus slots.
//!
//! On Jaguar, a job's nodes are a subset of the machine and their physical
//! span drives the rank-dependent latency slope visible in the paper's
//! no-contention curves (Figs. 6a/7a: "the distance between a process and
//! Rank 0 in the underlying physical topology ... contributes to the
//! increased \[time\]"). Placement policies let the ablation benches isolate
//! that effect.

use crate::rng::DetRng;
use crate::torus::Torus3;

/// How logical nodes are assigned to torus slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Placement {
    /// Logical node `i` occupies slot `i` (row-major through the torus).
    /// Physical distance then grows with rank distance, as in the paper's
    /// measured curves.
    #[default]
    Linear,
    /// Logical node `i` occupies slot `i * stride mod slots` — a strided
    /// scatter that spreads the job across the machine.
    Strided {
        /// Slot stride between consecutive logical nodes (made coprime with
        /// the slot count internally).
        stride: u32,
    },
    /// A seeded random permutation of slots, destroying any rank/distance
    /// correlation.
    Random {
        /// Seed for the permutation (independent of the global run seed).
        seed: u64,
    },
}

/// A concrete, injective logical-node → slot assignment.
#[derive(Clone, Debug)]
pub struct PlacementMap {
    slots: Vec<u32>,
}

impl PlacementMap {
    /// Assigns `n_nodes` logical nodes to slots of `torus` under `policy`.
    ///
    /// # Panics
    /// Panics if the torus has fewer slots than nodes.
    pub fn build(policy: Placement, n_nodes: u32, torus: &Torus3) -> Self {
        let slots_total = torus.len();
        assert!(
            slots_total >= n_nodes,
            "torus has {slots_total} slots for {n_nodes} nodes"
        );
        let slots = match policy {
            Placement::Linear => (0..n_nodes).collect(),
            Placement::Strided { stride } => {
                let stride = coprime_stride(stride.max(1), slots_total);
                (0..n_nodes)
                    .map(|i| ((u64::from(i) * u64::from(stride)) % u64::from(slots_total)) as u32)
                    .collect()
            }
            Placement::Random { seed } => {
                let mut rng = DetRng::new(seed).fork(0x504c_4143); // "PLAC"
                let perm = rng.permutation(slots_total);
                perm[..n_nodes as usize].to_vec()
            }
        };
        PlacementMap { slots }
    }

    /// Physical slot of logical node `node`.
    #[inline]
    pub fn slot(&self, node: u32) -> u32 {
        self.slots[node as usize]
    }

    /// Number of placed nodes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no nodes are placed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Adjusts `stride` upward until it is coprime with `n`, guaranteeing the
/// strided map is a permutation.
fn coprime_stride(mut stride: u32, n: u32) -> u32 {
    fn gcd(mut a: u32, mut b: u32) -> u32 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    if n <= 1 {
        return 1;
    }
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    stride
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_injective(map: &PlacementMap, torus: &Torus3) {
        let mut seen = HashSet::new();
        for i in 0..map.len() as u32 {
            let s = map.slot(i);
            assert!(s < torus.len());
            assert!(seen.insert(s), "slot {s} assigned twice");
        }
    }

    #[test]
    fn linear_is_identity() {
        let t = Torus3::new([4, 4, 4]);
        let m = PlacementMap::build(Placement::Linear, 10, &t);
        for i in 0..10 {
            assert_eq!(m.slot(i), i);
        }
        assert_injective(&m, &t);
    }

    #[test]
    fn strided_is_injective_even_with_bad_stride() {
        let t = Torus3::new([4, 4, 4]); // 64 slots
        for stride in [1u32, 2, 4, 8, 16, 63] {
            let m = PlacementMap::build(Placement::Strided { stride }, 64, &t);
            assert_injective(&m, &t);
        }
    }

    #[test]
    fn random_is_injective_and_seeded() {
        let t = Torus3::new([5, 5, 5]);
        let a = PlacementMap::build(Placement::Random { seed: 9 }, 100, &t);
        let b = PlacementMap::build(Placement::Random { seed: 9 }, 100, &t);
        let c = PlacementMap::build(Placement::Random { seed: 10 }, 100, &t);
        assert_injective(&a, &t);
        for i in 0..100 {
            assert_eq!(a.slot(i), b.slot(i));
        }
        assert!((0..100).any(|i| a.slot(i) != c.slot(i)));
    }

    #[test]
    fn random_spreads_distance() {
        // Under random placement, the mean physical distance from node 0 to
        // low-rank nodes matches that to high-rank nodes much more closely
        // than under linear placement.
        let t = Torus3::new([8, 8, 8]);
        let lin = PlacementMap::build(Placement::Linear, 512, &t);
        let rnd = PlacementMap::build(Placement::Random { seed: 1 }, 512, &t);
        let mean_hops = |m: &PlacementMap, range: std::ops::Range<u32>| {
            let sum: u32 = range
                .clone()
                .map(|i| t.hop_count(m.slot(0), m.slot(i)))
                .sum();
            sum as f64 / range.len() as f64
        };
        let lin_gap = (mean_hops(&lin, 1..65) - mean_hops(&lin, 448..512)).abs();
        let rnd_gap = (mean_hops(&rnd, 1..65) - mean_hops(&rnd, 448..512)).abs();
        assert!(
            rnd_gap < lin_gap,
            "random gap {rnd_gap} not tighter than linear gap {lin_gap}"
        );
    }

    #[test]
    #[should_panic(expected = "slots for")]
    fn too_small_torus_panics() {
        let t = Torus3::new([2, 2, 2]);
        PlacementMap::build(Placement::Linear, 9, &t);
    }

    #[test]
    fn coprime_stride_fixes_common_factors() {
        assert_eq!(coprime_stride(4, 64), 5);
        assert_eq!(coprime_stride(3, 64), 3);
        assert_eq!(coprime_stride(7, 1), 1);
    }
}
