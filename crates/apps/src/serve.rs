//! The open-system serving experiment: overload resilience past
//! saturation.
//!
//! Every other experiment in this crate is a *closed* system — each rank
//! runs a finite program and the job ends when the last operation drains.
//! This one opens the system: every rank doubles as a serving client fed
//! by a deterministic arrival process ([`ArrivalProcess`]), issuing
//! fetch-&-adds at a hot rank for as long as the offered-load curve says
//! so. Because arrivals do not wait for completions, offered load can
//! exceed the hot CHT's service capacity — the regime the paper's
//! many-to-one contention collapse (§IV) lives in — and the runtime has to
//! *survive* it rather than merely finish:
//!
//! * bounded admission queues shed excess arrivals deterministically
//!   (typed `Overloaded` diagnostics, never a hang),
//! * retransmissions draw capped decorrelated jitter under per-client
//!   retry budgets, with a metastability guard that suppresses retry
//!   storms while the shed fraction is high,
//! * optionally, sustained hot-spot skew triggers a **live re-pack** onto
//!   the next topology kind up the attenuation ladder (FCG → MFCG → CFCG
//!   → k-FCG), committed as a membership epoch under traffic and certified
//!   by `vt-analyze` before it lands.
//!
//! Expected shape: goodput rises with offered load until the hot CHT
//! saturates, then *plateaus* (instead of collapsing) while the shed
//! fraction absorbs the excess; the ledger `admitted = completed +
//! gave_up` balances; credits never leak; and the hot counter stays within
//! `[completed, admitted]` — the exactly-once window (an abandoned
//! request's effect may land after its client stopped waiting, but no
//! increment is ever applied twice).

use vt_armci::{
    ArrivalProcess, Rank, RuntimeConfig, ScriptProgram, ServeConfig, ServeStats, SimTime,
    Simulation,
};
use vt_core::TopologyKind;
use vt_simnet::stats::percentile;

/// Configuration of an open-system serving run.
#[derive(Clone, Copy, Debug)]
pub struct ServeScenarioConfig {
    /// Virtual topology under test.
    pub topology: TopologyKind,
    /// Number of nodes.
    pub nodes: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Offered-load curve driving every client.
    pub arrivals: ArrivalProcess,
    /// How long arrivals are generated (admitted work drains past it).
    pub horizon: SimTime,
    /// Per-client in-flight admission bound.
    pub queue_cap: u32,
    /// Per-client retry budget for the whole run.
    pub retry_budget: u32,
    /// Base response timeout before a retransmission (serve retries always
    /// draw capped decorrelated jitter on top of this).
    pub retry_timeout: SimTime,
    /// Windowed shed fraction at which the metastability guard engages.
    pub guard_threshold: f64,
    /// Serving-control tick (guard + skew detector cadence).
    pub tick: SimTime,
    /// Escalate the topology kind on sustained hot-spot skew.
    pub load_repack: bool,
    /// Root seed.
    pub seed: u64,
}

impl ServeScenarioConfig {
    /// The headline scenario: a flash crowd against MFCG at 1024 ranks.
    /// Base load is comfortably under capacity; the 10x spike in the
    /// middle of the horizon drives the hot CHT well past saturation.
    pub fn flash_crowd() -> Self {
        ServeScenarioConfig {
            topology: TopologyKind::Mfcg,
            nodes: 256,
            ppn: 4,
            arrivals: ArrivalProcess::flash_crowd(
                800.0,
                10.0,
                SimTime::from_millis(8),
                SimTime::from_millis(4),
            ),
            horizon: SimTime::from_millis(20),
            queue_cap: 4,
            retry_budget: 16,
            retry_timeout: SimTime::from_millis(5),
            guard_threshold: 0.5,
            tick: SimTime::from_micros(250),
            load_repack: false,
            seed: 0x53_52_56,
        }
    }

    /// A small steady-load cell for smoke tests and CI: 8 clients against
    /// FCG at a rate the hot CHT can absorb.
    pub fn steady_small() -> Self {
        ServeScenarioConfig {
            topology: TopologyKind::Fcg,
            nodes: 2,
            ppn: 4,
            arrivals: ArrivalProcess::steady(50_000.0),
            horizon: SimTime::from_millis(2),
            queue_cap: 4,
            retry_budget: 16,
            retry_timeout: SimTime::from_millis(5),
            guard_threshold: 0.5,
            tick: SimTime::from_micros(250),
            load_repack: false,
            seed: 0x53_52_56,
        }
    }

    /// The load-repack scenario: FCG over 16 single-rank nodes driven past
    /// saturation, with the skew detector allowed to escalate the kind and
    /// commit the re-pack as a live epoch.
    pub fn load_repack_hotspot() -> Self {
        ServeScenarioConfig {
            topology: TopologyKind::Fcg,
            nodes: 16,
            ppn: 1,
            arrivals: ArrivalProcess::steady(100_000.0),
            horizon: SimTime::from_millis(4),
            queue_cap: 4,
            retry_budget: 16,
            retry_timeout: SimTime::from_millis(5),
            guard_threshold: 0.5,
            tick: SimTime::from_micros(100),
            load_repack: true,
            seed: 0x53_52_56,
        }
    }

    /// Total ranks.
    pub fn n_procs(&self) -> u32 {
        self.nodes * self.ppn
    }

    /// The hot rank all clients target (rank 0, the paper's hot spot).
    pub fn hot_rank(&self) -> Rank {
        Rank(0)
    }

    /// This scenario with every client's offered rate scaled by `factor`
    /// (the knob the goodput-vs-offered-load curve turns).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.arrivals.rate_per_sec *= factor;
        self
    }

    /// The full runtime configuration this scenario runs under (also used
    /// by `vt-bench` to time the serving engine on the identical setup).
    pub fn runtime_config(&self) -> RuntimeConfig {
        let mut rt = RuntimeConfig::new(self.n_procs(), self.topology);
        rt.procs_per_node = self.ppn;
        rt.seed = self.seed;
        rt.retry.timeout = self.retry_timeout;
        let mut serve = ServeConfig::on(self.arrivals, self.horizon);
        serve.queue_cap = self.queue_cap;
        serve.retry_budget = self.retry_budget;
        serve.guard_threshold = self.guard_threshold;
        serve.tick = self.tick;
        serve.hot_rank = self.hot_rank().0;
        serve.load_repack = self.load_repack;
        rt.serve = serve;
        rt
    }
}

/// Result of one open-system serving run.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// The run's serving counters: arrivals, admissions, sheds,
    /// completions, retries, guard trips and the load re-pack.
    pub stats: ServeStats,
    /// Offered load in requests/second over the horizon.
    pub offered_per_sec: f64,
    /// Goodput in completed requests/second over the full run.
    pub goodput_per_sec: f64,
    /// Median completion latency, µs.
    pub p50_us: f64,
    /// 99th-percentile completion latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile completion latency, µs.
    pub p999_us: f64,
    /// Run makespan (last admitted request drained), seconds.
    pub exec_seconds: f64,
    /// Buffer credits still held at quiescence (must be 0).
    pub credit_leaks: u64,
    /// Duplicate deliveries suppressed by the target-side dedup table.
    pub dedup_hits: u64,
    /// Corrupt frames caught by the end-to-end envelope checksum (zero
    /// unless a fault schedule corrupts payloads under the serving run).
    pub corrupt_detected: u64,
    /// Final value of the hot fetch-&-add counter.
    pub hot_final: u64,
    /// The exactly-once ledger balances: `admitted = completed + gave_up`,
    /// `arrivals = admitted + sheds`, and the hot counter lies in
    /// `[completed, admitted]`.
    pub exactly_once: bool,
    /// The committed re-pack kind re-certifies under `vt-analyze`.
    pub repack_certified: bool,
    /// Membership epochs committed during the run.
    pub epoch_bumps: u64,
}

/// One point on the goodput-vs-offered-load curve.
#[derive(Clone, Copy, Debug)]
pub struct CurvePoint {
    /// The rate multiplier applied to the base scenario.
    pub factor: f64,
    /// Offered load, requests/second.
    pub offered_per_sec: f64,
    /// Goodput, completed requests/second.
    pub goodput_per_sec: f64,
    /// Fraction of arrivals shed at admission.
    pub shed_frac: f64,
    /// 99th-percentile completion latency, µs.
    pub p99_us: f64,
}

/// Runs the serving scenario.
///
/// # Panics
/// Panics if the simulation ends abnormally — an overloaded open system
/// is expected to shed and degrade, never to deadlock. [`try_run`] is the
/// non-panicking variant.
pub fn run(cfg: &ServeScenarioConfig) -> ServeOutcome {
    try_run(cfg).unwrap_or_else(|e| panic!("serve scenario failed: {e}"))
}

/// Runs the serving scenario, surfacing abnormal endings as a typed error.
///
/// # Errors
/// Returns [`RunError`](crate::RunError) when the run ends abnormally.
pub fn try_run(cfg: &ServeScenarioConfig) -> Result<ServeOutcome, crate::RunError> {
    let rt = cfg.runtime_config();
    // Every client's program is empty: all load comes through the open
    // arrival processes. The repair certifier guards load-triggered
    // re-pack commits exactly as it guards crash repairs.
    let report = Simulation::build(rt, |_| ScriptProgram::new(vec![]))
        .with_repair_certifier(vt_analyze::certify_repair)
        .run()?;

    let s = report.serve;
    let hot_final = u64::try_from(report.fetch_finals[cfg.hot_rank().idx()]).unwrap_or(0);
    let exactly_once = s.arrivals == s.admitted + s.sheds
        && s.admitted == s.completed + s.gave_up
        && hot_final >= s.completed
        && hot_final <= s.admitted;
    let repack_certified = match s.repack_kind {
        Some(kind) => vt_analyze::certify_repair(kind, cfg.nodes).is_ok(),
        None => false,
    };
    let horizon_s = cfg.horizon.as_secs_f64();
    let exec_s = report.finish_time.as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let outcome = ServeOutcome {
        offered_per_sec: s.arrivals as f64 / horizon_s,
        goodput_per_sec: if exec_s > 0.0 {
            s.completed as f64 / exec_s
        } else {
            0.0
        },
        p50_us: percentile(&report.serve_latencies_us, 50.0),
        p99_us: percentile(&report.serve_latencies_us, 99.0),
        p999_us: percentile(&report.serve_latencies_us, 99.9),
        exec_seconds: exec_s,
        credit_leaks: report.credit_leaks,
        dedup_hits: report.faults.dedup_hits,
        corrupt_detected: report.faults.corrupt_detected,
        hot_final,
        exactly_once,
        repack_certified,
        epoch_bumps: report.repair.epoch_bumps,
        stats: s,
    };
    Ok(outcome)
}

/// Sweeps the offered-load multipliers in `factors` over the base
/// scenario, producing the goodput-vs-offered-load curve the experiment
/// plots: goodput should plateau past saturation while the shed fraction
/// absorbs the excess.
///
/// # Panics
/// Panics if any cell's simulation ends abnormally.
pub fn curve(base: &ServeScenarioConfig, factors: &[f64]) -> Vec<CurvePoint> {
    factors
        .iter()
        .map(|&factor| {
            let o = run(&base.scaled(factor));
            #[allow(clippy::cast_precision_loss)]
            let shed_frac = if o.stats.arrivals == 0 {
                0.0
            } else {
                o.stats.sheds as f64 / o.stats.arrivals as f64
            };
            CurvePoint {
                factor,
                offered_per_sec: o.offered_per_sec,
                goodput_per_sec: o.goodput_per_sec,
                shed_frac,
                p99_us: o.p99_us,
            }
        })
        .collect()
}

/// Renders one outcome in the canonical multi-line form shared by the CLI
/// and the golden files.
pub fn render(cfg: &ServeScenarioConfig, o: &ServeOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "serve {} n={} ppn={} ({} procs), {} arrivals over {}:\n",
        cfg.topology.name(),
        cfg.nodes,
        cfg.ppn,
        cfg.n_procs(),
        cfg.arrivals.kind.name(),
        cfg.horizon,
    ));
    let s = &o.stats;
    out.push_str(&format!(
        "load: {} arrivals ({:.0}/s offered), {} admitted, {} shed, {} completed ({:.0}/s goodput), {} gave up\n",
        s.arrivals, o.offered_per_sec, s.admitted, s.sheds, s.completed, o.goodput_per_sec, s.gave_up,
    ));
    out.push_str(&format!(
        "retries: {} issued, {} suppressed, {} guard trips, retry budget {}\n",
        s.retries, s.shed_retries, s.guard_trips, cfg.retry_budget,
    ));
    out.push_str(&format!(
        "latency: p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us, makespan {:.1} us\n",
        o.p50_us,
        o.p99_us,
        o.p999_us,
        o.exec_seconds * 1e6,
    ));
    out.push_str(&format!(
        "ledger: hot counter {} in [{}, {}], {} dedup hits, {} corrupt caught, {} credit leaks, exactly-once {}\n",
        o.hot_final,
        s.completed,
        s.admitted,
        o.dedup_hits,
        o.corrupt_detected,
        o.credit_leaks,
        if o.exactly_once { "HOLDS" } else { "VIOLATED" },
    ));
    match s.repack_kind {
        Some(kind) => out.push_str(&format!(
            "load re-pack: {} -> {} committed under traffic (epoch {}), {}\n",
            cfg.topology.name(),
            kind.name(),
            o.epoch_bumps,
            if o.repack_certified {
                "CERTIFIED"
            } else {
                "UNCERTIFIED"
            },
        )),
        None if cfg.load_repack => out.push_str("load re-pack: armed, not triggered\n"),
        None => {}
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn steady_small_balances_its_ledger() {
        let cfg = ServeScenarioConfig::steady_small();
        let o = run(&cfg);
        assert!(o.stats.arrivals > 50, "{o:?}");
        assert!(o.stats.completed > 0, "{o:?}");
        assert!(o.exactly_once, "{o:?}");
        assert_eq!(o.credit_leaks, 0, "{o:?}");
    }

    #[test]
    fn load_repack_hotspot_commits_certified_epoch() {
        let o = run(&ServeScenarioConfig::load_repack_hotspot());
        assert_eq!(o.stats.load_repacks, 1, "{o:?}");
        assert_eq!(o.stats.repack_kind, Some(TopologyKind::Mfcg), "{o:?}");
        assert!(o.repack_certified, "{o:?}");
        assert!(o.exactly_once, "{o:?}");
        assert_eq!(o.credit_leaks, 0);
    }

    #[test]
    fn deterministic_across_reruns() {
        let cfg = ServeScenarioConfig::steady_small().scaled(4.0);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.exec_seconds, b.exec_seconds);
        assert_eq!(render(&cfg, &a), render(&cfg, &b));
    }

    #[test]
    fn goodput_plateaus_past_saturation() {
        let base = ServeScenarioConfig::steady_small();
        let points = curve(&base, &[1.0, 8.0, 16.0]);
        assert_eq!(points.len(), 3);
        // Past saturation goodput must not collapse: the top cell keeps at
        // least half the middle cell's goodput while shedding more.
        assert!(points[2].shed_frac >= points[1].shed_frac);
        assert!(
            points[2].goodput_per_sec >= 0.5 * points[1].goodput_per_sec,
            "goodput collapsed: {points:?}"
        );
    }
}
