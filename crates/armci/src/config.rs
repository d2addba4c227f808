//! Runtime configuration.

use vt_core::TopologyKind;
use vt_simnet::{ArrivalProcess, DetRng, NetworkConfig, SimTime};

/// Exponential backoff multiplier of the retransmission ladder: attempt `k`
/// waits `timeout × BACKOFF^k`.
const BACKOFF: u32 = 2;

/// Upper bound on any jittered wait. Serve-mode requests retransmit with
/// capped *decorrelated jitter* instead of the fixed exponential ladder:
/// attempt `k ≥ 1` waits a uniform draw from
/// `[timeout, min(JITTER_CAP, prev × BACKOFF)]`, where `prev` is the previous
/// attempt's actual wait. Synchronised retransmissions are the fuel of retry
/// storms — jitter desynchronises them while the cap keeps the worst-case
/// wait bounded. Deterministic: the draw comes from a pure [`DetRng`] fork
/// keyed on `(seed, seq, attempt)`, so a seed fixes the whole timeline.
/// Every other retransmission keeps the fixed ladder, so committed fault
/// baselines keep their exact timings.
pub(crate) const JITTER_CAP: SimTime = SimTime::from_millis(80);

/// End-to-end retransmission policy for fault-tolerant runs.
///
/// Every remote operation issued while a fault plan is active arms a
/// per-request timer at the origin. If no response arrives within
/// `timeout × 2^attempt`, the origin clones the request (same sequence
/// number, next attempt counter) and re-issues it from scratch; after
/// `max_retries` retransmissions the operation fails with
/// [`SimError::TimedOut`](crate::SimError::TimedOut). The timers only exist
/// when a non-empty [`FaultPlan`](vt_simnet::FaultPlan) is installed — a
/// fault-free run schedules no timeout events at all, keeping its timeline
/// byte-identical to a run without the fault layer.
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// Base response timeout for attempt 0.
    pub timeout: SimTime,
    /// Maximum number of retransmissions per operation (attempts beyond the
    /// original send). 0 disables retransmission: the first timeout fails
    /// the operation.
    pub max_retries: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            timeout: SimTime::from_millis(5),
            max_retries: 4,
        }
    }
}

impl RetryConfig {
    /// The response deadline offset for retransmission attempt `attempt`
    /// under the fixed exponential policy.
    pub fn deadline(&self, attempt: u32) -> SimTime {
        self.timeout * u64::from(BACKOFF).saturating_pow(attempt.min(20))
    }

    /// One decorrelated-jitter wait: uniform in
    /// `[timeout, min(JITTER_CAP, prev × BACKOFF)]`, never below `timeout`.
    /// `prev` is the wait the previous attempt actually used (`timeout` for
    /// attempt 0). Pure in `(self, prev, rng state)`.
    pub fn decorrelated(&self, prev: SimTime, rng: &mut DetRng) -> SimTime {
        let cap = JITTER_CAP.max(self.timeout);
        let upper =
            SimTime::from_nanos(prev.as_nanos().saturating_mul(u64::from(BACKOFF))).min(cap);
        if upper <= self.timeout {
            return self.timeout;
        }
        let span = (upper - self.timeout).as_nanos();
        self.timeout + SimTime::from_nanos(rng.u64_below(span + 1))
    }
}

/// Request-coalescing policy for the CHT forwarding path.
///
/// When enabled, a CHT about to forward a request scans its queue for other
/// requests taking the same outgoing LDF edge on the same buffer class and
/// folds them into one multi-request envelope. An envelope occupies one
/// downstream request buffer, so its wire size is bounded by the runtime's
/// `buffer_bytes` (16 KiB by default); requests that do not fit stay in the
/// queue for the next envelope, so splitting happens exactly at that
/// boundary. The envelope occupies a single downstream buffer credit and is
/// released by a single aggregated ack on the return path. Disabled by
/// default; a disabled run is byte-for-byte identical to a build without
/// the coalescing layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoalesceConfig {
    /// Master switch. `false` (the default) schedules no envelope events at
    /// all and leaves every timing decision untouched.
    pub enabled: bool,
}

impl CoalesceConfig {
    /// A policy with coalescing switched on.
    pub fn on() -> Self {
        CoalesceConfig { enabled: true }
    }
}

/// Membership / failure-detection policy for surviving *permanent* node
/// loss.
///
/// When enabled (and a fault plan is installed), every CHT runs a
/// phi-accrual failure detector over the traffic it already sees: request,
/// envelope and response arrivals count as liveness evidence for their
/// sender, and a node that has been silent for longer than one heartbeat
/// period is probed with a tiny idle heartbeat. Once the accrued suspicion
/// for a node crosses the phi threshold, the runtime confirms the crash,
/// waits out a drain window for in-flight requests to settle, and commits a
/// new **membership epoch**: the survivor set is re-packed into a fresh
/// lowest-dimension-first topology (falling down the dimension ladder if
/// the repaired grid is refused by the installed certifier), buffer pools
/// are re-derived, and every request issued from then on carries the new
/// epoch so stale-epoch copies are rejected deterministically instead of
/// corrupting dedup state. The detector constants live with the detector
/// (`engine::membership`: 1 ms heartbeat, phi 8, 2 ms drain).
///
/// Disabled by default; a disabled run schedules no membership events at
/// all and is byte-for-byte identical to a build without the subsystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct MembershipConfig {
    /// Master switch. `false` (the default) schedules no membership events
    /// and leaves every timing decision untouched.
    pub enabled: bool,
}

impl MembershipConfig {
    /// A policy with membership switched on.
    pub fn on() -> Self {
        MembershipConfig { enabled: true }
    }
}

/// Open-system serving policy: arrival-driven client load with overload
/// controls.
///
/// When enabled, ranks run no scripted program; instead each rank is a
/// *client* whose requests (fetch-&-adds on the shared counter at
/// `hot_rank`, the paper's `nxtval` pattern) arrive over simulated time
/// according to [`ArrivalProcess`], until `horizon`. Overload is handled in
/// three layers, outermost first:
///
/// 1. **Admission control** — a client with `queue_cap` requests already in
///    flight sheds new arrivals deterministically
///    ([`SimError::Overloaded`](crate::SimError::Overloaded) diagnostics +
///    shed counters) instead of queueing without bound.
/// 2. **Retry budgets with decorrelated jitter** — each admitted request
///    gets at most `retry_budget` retransmissions, spaced by capped
///    decorrelated jitter ([`RetryConfig::decorrelated`]) so timeouts past
///    saturation do not synchronise into a retry storm.
/// 3. **Metastability guard** — when the shed fraction over a detector tick
///    stays above `guard_threshold`, retransmissions are suppressed
///    entirely until the shed rate falls back: retries are the work
///    amplifier that keeps an overloaded system overloaded after the
///    triggering spike has passed.
///
/// With `load_repack`, the detector additionally samples per-node CHT queue
/// depths every `tick`; sustained skew (max/mean ≥ 4 for `skew_ticks`
/// consecutive ticks) commits a **membership epoch** that
/// re-packs the live nodes into the next topology kind up the
/// contention-attenuation ladder, under live traffic, certified by the
/// installed repair certifier — the paper's static attenuation result made
/// adaptive.
///
/// Disabled by default; a disabled config schedules no serve events and
/// leaves every timing decision byte-identical to a closed-system run.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Master switch. `false` (the default) leaves the closed-system
    /// timeline untouched.
    pub enabled: bool,
    /// Per-client offered-load curve.
    pub arrivals: ArrivalProcess,
    /// Arrivals stop at this instant; the run then drains admitted work.
    pub horizon: SimTime,
    /// Per-client in-flight bound: arrivals beyond it are shed.
    pub queue_cap: u32,
    /// Retransmissions allowed per client across the whole run (a *budget*,
    /// not a per-op cap): exhausted clients fail timed-out requests
    /// immediately instead of amplifying load.
    pub retry_budget: u32,
    /// Shed fraction (sheds / arrivals per tick window) above which the
    /// metastability guard suppresses retransmissions.
    pub guard_threshold: f64,
    /// Detector tick period for the guard and the skew detector.
    pub tick: SimTime,
    /// Rank hosting the shared fetch-&-add counter every request targets.
    pub hot_rank: u32,
    /// Enable load-triggered topology re-packing via membership epochs.
    pub load_repack: bool,
    /// Consecutive skewed ticks required before committing a re-pack epoch.
    pub skew_ticks: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            enabled: false,
            arrivals: ArrivalProcess::steady(1_000.0),
            horizon: SimTime::from_millis(10),
            queue_cap: 4,
            retry_budget: 16,
            guard_threshold: 0.5,
            tick: SimTime::from_micros(250),
            hot_rank: 0,
            load_repack: false,
            skew_ticks: 3,
        }
    }
}

impl ServeConfig {
    /// A policy with serving switched on and the default overload controls.
    pub fn on(arrivals: ArrivalProcess, horizon: SimTime) -> Self {
        ServeConfig {
            enabled: true,
            arrivals,
            horizon,
            ..ServeConfig::default()
        }
    }
}

/// Full configuration of a simulated ARMCI job.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Total number of processes (ranks).
    pub n_procs: u32,
    /// Processes per node.
    pub procs_per_node: u32,
    /// The virtual topology governing buffer allocation and forwarding.
    pub topology: TopologyKind,
    /// Machine/interconnect model.
    pub net: NetworkConfig,
    /// Size of one request buffer (`B`). Paper: 16 KiB.
    pub buffer_bytes: u64,
    /// Request buffers per remote sender (`M`). Paper: 4.
    pub buffers_per_proc: u32,
    /// Record every operation's latency (needed by the figure harnesses;
    /// disable for big application runs).
    pub record_ops: bool,
    /// Root seed for all stochastic choices.
    pub seed: u64,
    /// Timeout/retransmission policy (only consulted when a fault plan is
    /// installed via [`Simulation::with_faults`](crate::Simulation)).
    pub retry: RetryConfig,
    /// Request-coalescing policy for the forwarding path (off by default).
    pub coalesce: CoalesceConfig,
    /// Membership / failure-detection policy for permanent node loss (off
    /// by default; only consulted when a fault plan is installed).
    pub membership: MembershipConfig,
    /// Open-system serving policy (off by default).
    pub serve: ServeConfig,
}

impl RuntimeConfig {
    /// A configuration for `n_procs` ranks over `topology` with paper-like
    /// defaults (4 processes per node, 16-KiB buffers, M = 4).
    pub fn new(n_procs: u32, topology: TopologyKind) -> Self {
        RuntimeConfig {
            n_procs,
            procs_per_node: 4,
            topology,
            // The full Jaguar torus geometry: jobs occupy a (linear) slice of
            // the machine, so physical hop distance grows with rank distance
            // as in the paper's no-contention curves.
            net: NetworkConfig::jaguar(),
            buffer_bytes: 16 * 1024,
            buffers_per_proc: 4,
            record_ops: false,
            seed: 0xA2C1,
            retry: RetryConfig::default(),
            coalesce: CoalesceConfig::default(),
            membership: MembershipConfig::default(),
            serve: ServeConfig::default(),
        }
    }

    /// Number of nodes implied by the process count and ppn.
    pub fn num_nodes(&self) -> u32 {
        self.n_procs.div_ceil(self.procs_per_node)
    }

    /// Checks internal consistency; call before building a simulation.
    ///
    /// # Panics
    /// Panics on zero counts or a topology that cannot cover the node count.
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// Checks internal consistency without panicking, so a front end can
    /// reject a bad configuration as an input error.
    ///
    /// # Errors
    /// Names the first inconsistency [`validate`](Self::validate) would
    /// panic on.
    pub fn check(&self) -> Result<(), String> {
        let need = |ok: bool, why: &str| if ok { Ok(()) } else { Err(why.to_string()) };
        need(self.n_procs >= 1, "need at least one process")?;
        need(
            self.procs_per_node >= 1,
            "need at least one process per node",
        )?;
        need(
            self.buffers_per_proc >= 1,
            "need at least one buffer credit",
        )?;
        if !self.topology.supports(self.num_nodes()) {
            return Err(format!(
                "{} does not support {} nodes",
                self.topology.name(),
                self.num_nodes()
            ));
        }
        need(
            self.retry.timeout > SimTime::ZERO,
            "retry timeout must be positive",
        )?;
        if self.serve.enabled {
            self.serve.arrivals.check()?;
            need(
                self.serve.horizon > SimTime::ZERO,
                "serve horizon must be positive",
            )?;
            need(
                self.serve.queue_cap >= 1,
                "admission queue cap must be at least 1",
            )?;
            need(
                self.serve.tick > SimTime::ZERO,
                "serve tick must be positive",
            )?;
            if self.serve.hot_rank >= self.n_procs {
                return Err(format!(
                    "hot rank {} out of range for {} procs",
                    self.serve.hot_rank, self.n_procs
                ));
            }
            need(
                self.serve.guard_threshold > 0.0 && self.serve.guard_threshold <= 1.0,
                "guard threshold must be in (0, 1]",
            )?;
            need(
                !self.serve.load_repack || self.serve.skew_ticks >= 1,
                "need at least one skewed tick to trigger a re-pack",
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn config_validates_topology_support() {
        let mut cfg = RuntimeConfig::new(100, TopologyKind::Mfcg);
        cfg.validate();
        assert_eq!(cfg.num_nodes(), 25);
        cfg.topology = TopologyKind::Hypercube; // 25 nodes: unsupported
        let res = std::panic::catch_unwind(|| cfg.validate());
        assert!(res.is_err());
    }

    #[test]
    fn retry_deadline_backs_off_exponentially() {
        let r = RetryConfig::default();
        assert_eq!(r.deadline(0), r.timeout);
        assert_eq!(r.deadline(1), r.timeout * 2);
        assert_eq!(r.deadline(3), r.timeout * 8);
        // Saturates instead of overflowing on absurd attempt counts.
        assert!(r.deadline(u32::MAX) >= r.deadline(20));
    }

    #[test]
    fn coalescing_and_membership_default_off() {
        let cfg = RuntimeConfig::new(16, TopologyKind::Mfcg);
        assert!(!cfg.coalesce.enabled && !cfg.membership.enabled);
        assert!(CoalesceConfig::on().enabled && MembershipConfig::on().enabled);
    }

    #[test]
    fn decorrelated_jitter_stays_in_bounds_and_is_capped() {
        let r = RetryConfig::default();
        let mut rng = DetRng::new(7);
        let mut prev = r.timeout;
        for _ in 0..64 {
            let d = r.decorrelated(prev, &mut rng);
            assert!(d >= r.timeout, "jitter below the base timeout: {d:?}");
            assert!(d <= JITTER_CAP.max(r.timeout), "jitter above cap: {d:?}");
            prev = d;
        }
        // Once prev saturates the cap the draw stays within [timeout, cap].
        let d = r.decorrelated(JITTER_CAP, &mut rng);
        assert!(d >= r.timeout && d <= JITTER_CAP);
    }

    #[test]
    fn decorrelated_jitter_is_deterministic_per_stream() {
        let r = RetryConfig::default();
        let a: Vec<SimTime> = {
            let mut rng = DetRng::new(99);
            (0..16)
                .map(|_| r.decorrelated(r.timeout * 4, &mut rng))
                .collect()
        };
        let b: Vec<SimTime> = {
            let mut rng = DetRng::new(99);
            (0..16)
                .map(|_| r.decorrelated(r.timeout * 4, &mut rng))
                .collect()
        };
        assert_eq!(a, b);
        // A timeout at or above the cap collapses every draw to it.
        let tight = RetryConfig {
            timeout: JITTER_CAP,
            ..RetryConfig::default()
        };
        let mut rng = DetRng::new(1);
        assert_eq!(tight.decorrelated(tight.timeout, &mut rng), tight.timeout);
    }

    #[test]
    fn serve_defaults_off_and_validates_when_on() {
        let cfg = RuntimeConfig::new(16, TopologyKind::Mfcg);
        assert!(!cfg.serve.enabled);
        cfg.validate();
        let mut on = cfg;
        on.serve = ServeConfig::on(
            ArrivalProcess::flash_crowd(
                1000.0,
                8.0,
                SimTime::from_millis(1),
                SimTime::from_millis(2),
            ),
            SimTime::from_millis(5),
        );
        on.validate();
        on.serve.hot_rank = 16; // out of range
        assert!(std::panic::catch_unwind(|| on.validate()).is_err());
        on.serve.hot_rank = 0;
        on.serve.guard_threshold = 0.0;
        assert!(std::panic::catch_unwind(|| on.validate()).is_err());
        on.serve.guard_threshold = 0.5;
        on.serve.load_repack = true;
        on.serve.skew_ticks = 0;
        assert!(std::panic::catch_unwind(|| on.validate()).is_err());
        on.serve.skew_ticks = 3;
        on.validate();
    }
}
