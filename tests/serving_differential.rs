//! Open-system serving: differential, determinism, golden and regression
//! coverage.
//!
//! The serving layer's cardinal promise is that it is *free when off*: a
//! `ServeConfig` with `enabled = false` must not perturb a single event of
//! the closed-system timeline, whatever values its other fields hold. The
//! differential property here pins that, a replay property pins that serving
//! runs themselves are bit-reproducible (arrival instants, sheds, jittered
//! retransmissions and all), a golden snapshot pins the flash-crowd overload
//! cell byte-for-byte, and a regression test pins the load-triggered
//! re-pack's exactly-once ledger.
//!
//! Regenerate the snapshot after an intentional model change with
//!
//! ```text
//! VT_UPDATE_GOLDEN=1 cargo test --test serving_differential
//! ```

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use vt_apps::serve::{self, ServeScenarioConfig};
use vt_armci::{
    Action, ArrivalProcess, Op, Rank, Report, RuntimeConfig, ScriptProgram, ServeConfig, SimTime,
    Simulation,
};
use vt_core::TopologyKind;

// ---- differential: disabled serving never leaks into the timeline --------

/// A compact encoding of one random closed workload plus random (disabled)
/// serving parameters.
#[derive(Clone, Debug)]
struct DiffSpec {
    kind: TopologyKind,
    n_procs: u32,
    ppn: u32,
    ops_per_rank: u32,
    seed: u64,
    // Arbitrary serve fields that must all be inert while `enabled` is off.
    rate: f64,
    queue_cap: u32,
    retry_budget: u32,
    load_repack: bool,
}

fn diff_strategy() -> impl Strategy<Value = DiffSpec> {
    (
        prop_oneof![
            Just(TopologyKind::Fcg),
            Just(TopologyKind::Mfcg),
            Just(TopologyKind::Cfcg),
        ],
        2u32..40,
        1u32..5,
        1u32..5,
        any::<u64>(),
        1u32..1_000_000,
        1u32..16,
        0u32..64,
        any::<bool>(),
    )
        .prop_map(
            |(
                kind,
                n_procs,
                ppn,
                ops_per_rank,
                seed,
                rate,
                queue_cap,
                retry_budget,
                load_repack,
            )| {
                DiffSpec {
                    kind,
                    n_procs,
                    ppn,
                    ops_per_rank,
                    seed,
                    rate: f64::from(rate),
                    queue_cap,
                    retry_budget,
                    load_repack,
                }
            },
        )
}

fn run_hotspot(spec: &DiffSpec, serve: Option<ServeConfig>) -> Report {
    let mut cfg = RuntimeConfig::new(spec.n_procs, spec.kind);
    cfg.procs_per_node = spec.ppn;
    cfg.seed = spec.seed;
    if let Some(s) = serve {
        cfg.serve = s;
    }
    let ops = spec.ops_per_rank;
    Simulation::build(cfg, move |_| {
        let mut actions = Vec::new();
        for _ in 0..ops {
            actions.push(Action::Op(Op::fetch_add(Rank(0), 1)));
        }
        actions.push(Action::WaitAll);
        ScriptProgram::new(actions)
    })
    .run()
    .expect("closed hotspot workload completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `enabled = false` makes every other serve field inert: the timeline
    /// is event-for-event identical to a default-config run.
    #[test]
    fn disabled_serving_is_byte_identical(spec in diff_strategy()) {
        let base = run_hotspot(&spec, None);
        let mut off = ServeConfig::on(ArrivalProcess::steady(spec.rate), SimTime::from_millis(5));
        off.enabled = false;
        off.queue_cap = spec.queue_cap;
        off.retry_budget = spec.retry_budget;
        off.load_repack = spec.load_repack;
        let with_cfg = run_hotspot(&spec, Some(off));
        prop_assert_eq!(base.finish_time, with_cfg.finish_time);
        prop_assert_eq!(base.events, with_cfg.events);
        prop_assert_eq!(&base.net, &with_cfg.net);
        prop_assert_eq!(&base.fetch_finals, &with_cfg.fetch_finals);
        prop_assert_eq!(base.credit_leaks, with_cfg.credit_leaks);
        prop_assert_eq!(with_cfg.serve, vt_armci::ServeStats::default());
        prop_assert!(with_cfg.serve_latencies_us.is_empty());
    }

    /// Serving runs — arrivals, sheds, decorrelated-jitter retransmissions,
    /// guard trips — replay bit-identically under the same seed.
    #[test]
    fn serving_replays_bit_identically(
        seed in any::<u64>(),
        rate_k in 5u32..400,
        queue_cap in 1u32..6,
    ) {
        let mut cfg = ServeScenarioConfig::steady_small();
        cfg.seed = seed;
        cfg.arrivals = ArrivalProcess::steady(f64::from(rate_k) * 1000.0);
        cfg.queue_cap = queue_cap;
        let a = serve::run(&cfg);
        let b = serve::run(&cfg);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.exec_seconds, b.exec_seconds);
        prop_assert_eq!(a.p999_us, b.p999_us);
        prop_assert_eq!(a.hot_final, b.hot_final);
        prop_assert!(a.exactly_once);
        prop_assert_eq!(a.credit_leaks, 0);
    }
}

// ---- golden: the flash-crowd overload cell -------------------------------

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The scaled-down flash-crowd cell the snapshot pins: 32 clients over a
/// 16-node MFCG, a 10x spike in the middle of the horizon, queues tight
/// enough that the spike sheds.
fn golden_flash_config() -> ServeScenarioConfig {
    let mut cfg = ServeScenarioConfig::flash_crowd();
    cfg.nodes = 16;
    cfg.ppn = 2;
    cfg.arrivals = ArrivalProcess::flash_crowd(
        4_000.0,
        10.0,
        SimTime::from_millis(2),
        SimTime::from_millis(1),
    );
    cfg.horizon = SimTime::from_millis(4);
    cfg.queue_cap = 2;
    // Tight enough that spike-inflated latencies cross it, exercising the
    // jittered-retransmission and dedup paths at this small scale.
    cfg.retry_timeout = SimTime::from_micros(150);
    cfg
}

/// FNV-1a stamp of the snapshot's configuration, so a changed cell cannot
/// silently overwrite the committed baseline.
fn config_stamp(cfg: &ServeScenarioConfig) -> String {
    let descriptor = format!("{cfg:?}");
    let mut h: u64 = 0xcbf29ce484222325;
    for b in descriptor.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

#[test]
fn flash_crowd_matches_golden() {
    let cfg = golden_flash_config();
    let o = serve::run(&cfg);
    // The cell must actually exercise the overload path before its render
    // is worth pinning.
    assert!(o.stats.sheds > 0, "flash spike did not overload: {o:?}");
    assert!(
        o.stats.retries > 0,
        "no retransmissions under overload: {o:?}"
    );
    assert!(o.dedup_hits > 0, "no dedup pressure past saturation: {o:?}");
    assert!(o.exactly_once, "{o:?}");
    assert_eq!(o.credit_leaks, 0);
    let actual = format!(
        "# config {}\n{}",
        config_stamp(&cfg),
        serve::render(&cfg, &o)
    );
    let path = golden_path("serve_flash.txt");
    if std::env::var_os("VT_UPDATE_GOLDEN").is_some() {
        let first = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| s.lines().next().map(str::to_string));
        if let Some(old) = first.as_deref().and_then(|l| l.strip_prefix("# config ")) {
            assert_eq!(
                old,
                config_stamp(&cfg),
                "refusing to overwrite serve_flash.txt: it was generated \
                 under a different scenario configuration"
            );
        }
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             regenerate with VT_UPDATE_GOLDEN=1 cargo test --test serving_differential",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "serve_flash.txt drifted; if intentional, regenerate with \
         VT_UPDATE_GOLDEN=1 cargo test --test serving_differential"
    );
}

// ---- regression: load-triggered re-pack stays exactly-once ---------------

#[test]
fn load_repack_under_traffic_is_exactly_once_and_certified() {
    let cfg = ServeScenarioConfig::load_repack_hotspot();
    let a = serve::run(&cfg);
    assert_eq!(a.stats.load_repacks, 1, "{a:?}");
    assert_eq!(a.epoch_bumps, 1, "{a:?}");
    assert_eq!(a.stats.repack_kind, Some(TopologyKind::Mfcg), "{a:?}");
    assert!(a.repack_certified, "{a:?}");
    assert!(a.exactly_once, "{a:?}");
    assert_eq!(a.credit_leaks, 0);
    // The commit happened under live traffic, not at quiescence.
    assert!(
        a.stats.completed > 0 && a.stats.arrivals > a.stats.completed,
        "{a:?}"
    );
    // And the whole episode replays bit-identically.
    let b = serve::run(&cfg);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.exec_seconds, b.exec_seconds);
    assert_eq!(a.hot_final, b.hot_final);
}

// ---- regression: goodput does not collapse past saturation ---------------

#[test]
fn goodput_plateaus_past_saturation() {
    let base = ServeScenarioConfig::steady_small();
    let points = serve::curve(&base, &[1.0, 6.0, 12.0, 24.0]);
    // Shed fraction grows monotonically along the overload ramp...
    assert!(points[3].shed_frac > points[1].shed_frac, "{points:?}");
    // ...while goodput holds: the most-overloaded cell keeps at least half
    // the goodput of the first saturated cell (metastable collapse would
    // send it toward zero).
    let saturated = points[1].goodput_per_sec;
    assert!(saturated > 0.0, "{points:?}");
    assert!(
        points[3].goodput_per_sec >= 0.5 * saturated,
        "goodput collapsed past saturation: {points:?}"
    );
}

// ---- event queue: exact per-tier counts ----------------------------------

/// Every scheduled event is counted once, in the tier it was filed in, so
/// the three counts sum to the events processed by a run that drains its
/// queue. Serving's 5 ms response timers and client arrivals and the hot
/// spot's forwarding all fall within the coarse tier's ~2.1 s reach: none
/// reaches the overflow heap.
#[test]
fn fel_tiers_count_every_event_and_the_heap_none() {
    let mut flash = ServeScenarioConfig::flash_crowd();
    flash.horizon = SimTime::from_millis(10);
    let serving = Simulation::build(flash.runtime_config(), |_| ScriptProgram::new(vec![]))
        .run()
        .expect("flash crowd completes");
    let hotspot = run_hotspot(
        &DiffSpec {
            kind: TopologyKind::Mfcg,
            n_procs: 64,
            ppn: 4,
            ops_per_rank: 8,
            seed: 1,
            rate: 1.0,
            queue_cap: 1,
            retry_budget: 0,
            load_repack: false,
        },
        None,
    );
    for (name, r) in [("serve", &serving), ("hotspot", &hotspot)] {
        let f = r.fel;
        assert_eq!(f.ring + f.coarse + f.heap, r.events, "{name}: {f:?}");
        assert_eq!(f.heap, 0, "{name}: {f:?}");
        assert!(f.ring > 0 && f.coarse > 0, "{name}: {f:?}");
    }
}
