//! Summary statistics for simulation measurements.

/// Online running mean (Welford's update), used for per-rank latency
/// summaries without storing every sample.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
}

impl Summary {
    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
    }

    /// Arithmetic mean, or 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// The `q`-th percentile (0 ≤ q ≤ 100) of a set of samples by linear
/// interpolation. Sorts a copy; intended for end-of-run reporting.
///
/// Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=100.0).contains(&q), "percentile out of range: {q}");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::default();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        assert_eq!(Summary::default().mean(), 0.0);
    }

    #[test]
    fn running_mean_is_welfords_bit_for_bit() {
        // Replay digests hash the mean's bits, so the update order is part
        // of the contract: the naive sum / count differs here by one ulp.
        let mut s = Summary::default();
        for i in 1..40 {
            s.push(0.1 * i as f64 * i as f64 + 1.0 / (i as f64 + 1.0));
        }
        assert_eq!(s.mean().to_bits(), 0x404a_6017_fb64_db1d);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_bad_q() {
        percentile(&[1.0], 101.0);
    }
}
