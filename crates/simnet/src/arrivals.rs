//! Deterministic arrival processes for open-system workloads.
//!
//! Closed workloads enqueue a fixed op list and run to quiescence; an open
//! system instead receives client requests *over time*, at a rate the
//! clients choose, and must degrade gracefully when that rate exceeds
//! capacity. [`ArrivalProcess`] describes the offered-load shape (steady,
//! diurnal, flash crowd) and [`ArrivalGen`] turns it into a concrete,
//! reproducible sequence of arrival instants driven by [`DetRng`].
//!
//! The generator is a *jittered renewal process*: each inter-arrival gap is
//! the current mean gap `1/λ(t)` scaled by a uniform factor in `[0.5, 1.5)`.
//! That keeps the burstiness of a random process without touching any
//! transcendental function — `ln`/`cos` route through libm, whose results
//! differ across C libraries, and these instants are pinned byte-for-byte
//! by golden snapshots. Everything here is integer/rational arithmetic plus
//! IEEE multiply/divide, which is bit-stable across toolchains.

use crate::rng::DetRng;
use crate::time::SimTime;

/// The shape of the offered-load curve over time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Constant mean rate for the whole run.
    Steady,
    /// A triangle wave between the base rate and `rate × peak` with the
    /// configured period — a compressed day/night cycle.
    Diurnal,
    /// Base rate, then a step to `rate × peak` for `spike_len` starting at
    /// `period`, then back to base — the overload cell.
    FlashCrowd,
}

/// Load phases of a run, used to attribute shed/retry counters to the part
/// of the offered-load curve that caused them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadPhase {
    /// Before the peak (flash crowd) or in the rising half-period (diurnal).
    Base,
    /// Inside the spike (flash crowd) or the falling half-period (diurnal).
    Peak,
    /// After the spike has passed (flash crowd only).
    After,
}

impl ArrivalKind {
    /// Lowercase name for reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Steady => "steady",
            ArrivalKind::Diurnal => "diurnal",
            ArrivalKind::FlashCrowd => "flash-crowd",
        }
    }
}

impl LoadPhase {
    /// Index for per-phase counter arrays (`Base`/`Peak`/`After` = 0/1/2).
    pub fn index(self) -> usize {
        match self {
            LoadPhase::Base => 0,
            LoadPhase::Peak => 1,
            LoadPhase::After => 2,
        }
    }
}

/// The highest arrival rate per client, arrivals per second, a process may
/// reach: one per nanosecond, the resolution of the arrival clock.
const MAX_RATE_PER_SEC: f64 = 1e9;

/// A deterministic description of per-client offered load.
///
/// Rates are *per client*: each rank runs its own [`ArrivalGen`] on a forked
/// stream, so the machine-wide offered load is `n_clients × rate` (scaled by
/// the curve). All fields are consulted by every kind; irrelevant ones are
/// simply unused (e.g. `spike_len` under `Steady`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrivalProcess {
    /// Curve shape.
    pub kind: ArrivalKind,
    /// Base mean arrival rate, requests per second per client. Must be
    /// positive.
    pub rate_per_sec: f64,
    /// Peak multiplier (`≥ 1`): the top of the diurnal wave or the height
    /// of the flash-crowd step, as a multiple of `rate_per_sec`.
    pub peak: f64,
    /// Diurnal period, or the flash-crowd spike start time.
    pub period: SimTime,
    /// Duration of the flash-crowd spike (unused by other kinds).
    pub spike_len: SimTime,
}

impl ArrivalProcess {
    /// A steady process at `rate_per_sec` requests/s per client.
    pub fn steady(rate_per_sec: f64) -> Self {
        ArrivalProcess {
            kind: ArrivalKind::Steady,
            rate_per_sec,
            peak: 1.0,
            period: SimTime::from_millis(10),
            spike_len: SimTime::ZERO,
        }
    }

    /// A diurnal triangle wave between `rate_per_sec` and
    /// `rate_per_sec × peak` with the given period.
    pub fn diurnal(rate_per_sec: f64, peak: f64, period: SimTime) -> Self {
        ArrivalProcess {
            kind: ArrivalKind::Diurnal,
            rate_per_sec,
            peak,
            period,
            spike_len: SimTime::ZERO,
        }
    }

    /// A flash crowd: base rate, stepping to `rate_per_sec × peak` during
    /// `[spike_at, spike_at + spike_len)`.
    pub fn flash_crowd(
        rate_per_sec: f64,
        peak: f64,
        spike_at: SimTime,
        spike_len: SimTime,
    ) -> Self {
        ArrivalProcess {
            kind: ArrivalKind::FlashCrowd,
            rate_per_sec,
            peak,
            period: spike_at,
            spike_len,
        }
    }

    /// The instantaneous mean rate (requests/s per client) at instant `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match self.kind {
            ArrivalKind::Steady => self.rate_per_sec,
            ArrivalKind::Diurnal => {
                let period = self.period.as_nanos().max(1);
                let phase = t.as_nanos() % period;
                let half = period / 2;
                // Triangle: ramp up over the first half-period, down over
                // the second; exact rational arithmetic on nanoseconds.
                let frac = if phase < half {
                    phase as f64 / half as f64
                } else {
                    (period - phase) as f64 / (period - half) as f64
                };
                self.rate_per_sec * (1.0 + (self.peak - 1.0) * frac)
            }
            ArrivalKind::FlashCrowd => {
                if self.phase_at(t) == LoadPhase::Peak {
                    self.rate_per_sec * self.peak
                } else {
                    self.rate_per_sec
                }
            }
        }
    }

    /// Which load phase instant `t` falls in (see [`LoadPhase`]).
    pub fn phase_at(&self, t: SimTime) -> LoadPhase {
        match self.kind {
            ArrivalKind::Steady => LoadPhase::Base,
            ArrivalKind::Diurnal => {
                let period = self.period.as_nanos().max(1);
                if t.as_nanos() % period < period / 2 {
                    LoadPhase::Base
                } else {
                    LoadPhase::Peak
                }
            }
            ArrivalKind::FlashCrowd => {
                if t < self.period {
                    LoadPhase::Base
                } else if t < self.period + self.spike_len {
                    LoadPhase::Peak
                } else {
                    LoadPhase::After
                }
            }
        }
    }

    /// Panics unless the parameters describe a usable process.
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// Checks that the parameters describe a usable process.
    ///
    /// The peak rate may not exceed 1e9 arrivals/s per client: above it
    /// [`ArrivalGen::next_arrival`] would clamp gaps to 1 ns and offer a
    /// different process from the one described.
    ///
    /// # Errors
    /// Names the first unusable parameter.
    pub fn check(&self) -> Result<(), String> {
        if !(self.rate_per_sec > 0.0 && self.rate_per_sec.is_finite()) {
            return Err("arrival rate must be positive and finite".to_string());
        }
        if !(self.peak >= 1.0 && self.peak.is_finite()) {
            return Err("peak multiplier must be >= 1".to_string());
        }
        let top = match self.kind {
            ArrivalKind::Steady => self.rate_per_sec,
            ArrivalKind::Diurnal | ArrivalKind::FlashCrowd => self.rate_per_sec * self.peak,
        };
        if top > MAX_RATE_PER_SEC {
            return Err(format!(
                "peak arrival rate {top:e}/s per client exceeds 1e9/s (one arrival per ns)"
            ));
        }
        if self.kind != ArrivalKind::Steady && self.period == SimTime::ZERO {
            return Err("diurnal period / spike start must be positive".to_string());
        }
        Ok(())
    }
}

/// A per-client arrival-instant generator.
///
/// Stateful but fully determined by `(process, stream rng)`: the `k`-th
/// call to [`next_arrival`](ArrivalGen::next_arrival) always returns the
/// same instant for
/// the same seed, independent of anything else in the simulation.
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: DetRng,
    now: SimTime,
}

impl ArrivalGen {
    /// A generator for one client, on its own forked RNG stream.
    pub fn new(process: ArrivalProcess, rng: DetRng) -> Self {
        ArrivalGen {
            process,
            rng,
            now: SimTime::ZERO,
        }
    }

    /// The next arrival instant (strictly increasing).
    pub fn next_arrival(&mut self) -> SimTime {
        // Mean gap at the current instant, jittered by ±50 %: a renewal
        // process with coefficient of variation ~0.29 — bursty enough to
        // exercise queues, transcendental-free for cross-platform goldens.
        let rate = self.process.rate_at(self.now);
        let mean_gap_ns = 1e9 / rate;
        let jitter = self.rng.f64_range(0.5, 1.5);
        let gap_ns = (mean_gap_ns * jitter).round().max(1.0) as u64;
        self.now += SimTime::from_nanos(gap_ns);
        self.now
    }

    /// The load phase the most recently generated arrival falls in.
    pub fn phase(&self) -> LoadPhase {
        self.process.phase_at(self.now)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn collect(proc_: ArrivalProcess, seed: u64, until: SimTime) -> Vec<SimTime> {
        let mut g = ArrivalGen::new(proc_, DetRng::new(seed).fork(1));
        let mut v = Vec::new();
        loop {
            let t = g.next_arrival();
            if t >= until {
                return v;
            }
            v.push(t);
        }
    }

    #[test]
    fn same_seed_same_instants() {
        let p = ArrivalProcess::flash_crowd(
            10_000.0,
            8.0,
            SimTime::from_millis(2),
            SimTime::from_millis(3),
        );
        let a = collect(p, 42, SimTime::from_millis(10));
        let b = collect(p, 42, SimTime::from_millis(10));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_streams_diverge() {
        let p = ArrivalProcess::steady(10_000.0);
        let a = collect(p, 1, SimTime::from_millis(5));
        let b = collect(p, 2, SimTime::from_millis(5));
        assert_ne!(a, b);
    }

    #[test]
    fn steady_rate_is_roughly_honoured() {
        // 10k/s over 100ms ⇒ ~1000 arrivals; ±50% jitter keeps the mean.
        let p = ArrivalProcess::steady(10_000.0);
        let n = collect(p, 7, SimTime::from_millis(100)).len();
        assert!((800..=1200).contains(&n), "got {n} arrivals");
    }

    #[test]
    fn flash_crowd_steps_up_and_back() {
        let p = ArrivalProcess::flash_crowd(
            1_000.0,
            10.0,
            SimTime::from_millis(1),
            SimTime::from_millis(1),
        );
        assert_eq!(p.rate_at(SimTime::ZERO), 1_000.0);
        assert_eq!(p.rate_at(SimTime::from_micros(1_500)), 10_000.0);
        assert_eq!(p.rate_at(SimTime::from_millis(3)), 1_000.0);
        assert_eq!(p.phase_at(SimTime::ZERO), LoadPhase::Base);
        assert_eq!(p.phase_at(SimTime::from_micros(1_500)), LoadPhase::Peak);
        assert_eq!(p.phase_at(SimTime::from_millis(3)), LoadPhase::After);
        // The spike produces visibly more arrivals per unit time.
        let all = collect(p, 11, SimTime::from_millis(3));
        let in_spike = all
            .iter()
            .filter(|t| p.phase_at(**t) == LoadPhase::Peak)
            .count();
        assert!(in_spike > all.len() / 2, "{in_spike} of {}", all.len());
    }

    #[test]
    fn diurnal_peaks_mid_period() {
        let p = ArrivalProcess::diurnal(1_000.0, 5.0, SimTime::from_millis(4));
        assert_eq!(p.rate_at(SimTime::ZERO), 1_000.0);
        let at_peak = p.rate_at(SimTime::from_millis(2));
        assert!((at_peak - 5_000.0).abs() < 1.0, "{at_peak}");
        // Periodicity: one full period later the rate repeats exactly.
        assert_eq!(
            p.rate_at(SimTime::from_millis(1)),
            p.rate_at(SimTime::from_millis(5))
        );
        assert_eq!(p.phase_at(SimTime::from_millis(1)), LoadPhase::Base);
        assert_eq!(p.phase_at(SimTime::from_millis(3)), LoadPhase::Peak);
    }

    #[test]
    fn arrivals_strictly_increase() {
        let p = ArrivalProcess::steady(1_000_000.0);
        let v = collect(p, 3, SimTime::from_millis(1));
        for w in v.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut p = ArrivalProcess::steady(100.0);
        p.validate();
        p.rate_per_sec = 0.0;
        assert!(std::panic::catch_unwind(|| p.validate()).is_err());
        let mut q = ArrivalProcess::diurnal(10.0, 0.5, SimTime::from_millis(1));
        assert!(std::panic::catch_unwind(|| q.validate()).is_err());
        q.peak = 2.0;
        q.period = SimTime::ZERO;
        assert!(std::panic::catch_unwind(|| q.validate()).is_err());
    }

    #[test]
    fn peak_rate_above_one_per_ns_is_refused() {
        assert!(ArrivalProcess::steady(MAX_RATE_PER_SEC).check().is_ok());
        let err = ArrivalProcess::steady(2e9).check().unwrap_err();
        assert!(err.contains("2e9/s per client exceeds 1e9/s"), "{err}");
        // The bound applies to `rate × peak`, the top of the curve.
        let at = SimTime::from_millis(1);
        assert!(ArrivalProcess::flash_crowd(1e8, 10.0, at, at)
            .check()
            .is_ok());
        assert!(ArrivalProcess::flash_crowd(1e8, 11.0, at, at)
            .check()
            .is_err());
        assert!(ArrivalProcess::diurnal(1e8, 11.0, at).check().is_err());
        // A steady process never reaches its (unused) peak multiplier.
        let mut steady = ArrivalProcess::steady(1e8);
        steady.peak = 11.0;
        assert!(steady.check().is_ok());
    }
}
