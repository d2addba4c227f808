//! Simulated time.
//!
//! [`SimTime`] is a nanosecond count used both for instants (time since the
//! start of the simulation) and for durations; keeping one type makes the
//! reservation arithmetic (`max(now, busy_until) + cost`) direct. The
//! convention is documented per field/parameter where it matters.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A point in simulated time, or a span of it, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation / a zero-length span.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs from microseconds.
    ///
    /// # Panics
    /// Panics with "simulated time overflowed u64 nanoseconds", as `Add`
    /// does, when the span exceeds `u64::MAX` ns (~585 years).
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime::scaled(us, 1_000)
    }

    /// Constructs from milliseconds.
    ///
    /// # Panics
    /// Panics with "simulated time overflowed u64 nanoseconds", as `Add`
    /// does, when the span exceeds `u64::MAX` ns (~585 years).
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime::scaled(ms, 1_000_000)
    }

    /// Constructs from seconds.
    ///
    /// # Panics
    /// Panics with "simulated time overflowed u64 nanoseconds", as `Add`
    /// does, when the span exceeds `u64::MAX` ns (~585 years).
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime::scaled(s, 1_000_000_000)
    }

    /// `n × unit` nanoseconds, panicking instead of wrapping on overflow.
    #[inline]
    const fn scaled(n: u64, unit: u64) -> Self {
        match n.checked_mul(unit) {
            Some(ns) => SimTime(ns),
            None => panic!("simulated time overflowed u64 nanoseconds"),
        }
    }

    /// Constructs from a fractional microsecond count (rounded to the
    /// nearest nanosecond; negative values clamp to zero).
    pub fn from_micros_f64(us: f64) -> Self {
        SimTime((us * 1_000.0).round().max(0.0) as u64)
    }

    /// Nanoseconds since simulation start (or span length).
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds as a float (the unit of the paper's figures).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// `self - other`, clamping at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    // Clock overflow/underflow is unrecoverable model corruption; the
    // checked-arithmetic panics here are deliberate and documented.
    #[allow(clippy::expect_used)]
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulated time overflowed u64 nanoseconds"),
        )
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    // Invariant: simulated time is monotone — subtracting a later time
    // from an earlier one is an event-ordering bug; crash loudly rather
    // than wrap into a bogus 585-year interval.
    #[allow(clippy::expect_used)]
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulated time went negative"),
        )
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    // Invariant: u64 nanoseconds cover ~585 years of simulated time; an
    // overflowing multiply is a config/workload bug worth a loud crash.
    #[allow(clippy::expect_used)]
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(
            self.0
                .checked_mul(rhs)
                .expect("simulated time overflowed u64 nanoseconds"),
        )
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_micros(7).as_micros_f64(), 7.0);
        assert_eq!(SimTime::from_micros_f64(1.5).as_nanos(), 1_500);
        assert_eq!(SimTime::from_micros_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!(a + b, SimTime::from_micros(14));
        assert_eq!(a - b, SimTime::from_micros(6));
        assert_eq!(b * 3, SimTime::from_micros(12));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_accumulates() {
        let total: SimTime = (1..=4).map(SimTime::from_micros).sum();
        assert_eq!(total, SimTime::from_micros(10));
    }

    #[test]
    fn constructors_reach_the_largest_exact_span() {
        let max = u64::MAX;
        for (t, unit) in [
            (SimTime::from_micros(max / 1_000), 1_000),
            (SimTime::from_millis(max / 1_000_000), 1_000_000),
            (SimTime::from_secs(max / 1_000_000_000), 1_000_000_000),
        ] {
            assert_eq!(t.as_nanos(), max / unit * unit);
        }
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn from_micros_overflow_panics() {
        let _ = SimTime::from_micros(u64::MAX / 1_000 + 1);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn from_millis_overflow_panics() {
        let _ = SimTime::from_millis(u64::MAX / 1_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn from_secs_overflow_panics() {
        let _ = SimTime::from_secs(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
