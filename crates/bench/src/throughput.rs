//! Simulator-core throughput benchmark (`vtsim bench`).
//!
//! Measures raw discrete-event throughput (processed events per second of
//! wall time) on a fixed hot-spot contention workload, per topology and
//! population, and renders the result as the `BENCH_sim.json` trajectory
//! document committed at the repository root. CI's `bench-smoke` job
//! re-measures the quick cells and fails when any falls more than the
//! allowed margin below the committed numbers.
//!
//! The workload is frozen so numbers stay comparable across commits:
//! every rank *not* on rank 0's node issues [`OPS_PER_RANK`] blocking
//! fetch-&-adds to rank 0 (ranks on node 0 idle), at [`PPN`] processes
//! per node, seeded per [`SweepCell::seed`]. Events/sec is
//! `report.events / wall`, with wall the **best** of `repeats` runs —
//! on a shared machine the minimum wall time is the only stable
//! estimator of the code's actual cost (the spread between identical
//! runs routinely exceeds 30%).
//!
//! Cells are measured strictly serially even though the sweep driver
//! could fan them out: concurrent cells would contend for cores and
//! corrupt each other's wall times.

use std::fmt;
use std::time::Instant;
use vt_apps::{grid, SweepCell};
use vt_armci::{Action, Op, Rank, RuntimeConfig, ScriptProgram, Simulation};
use vt_core::json::{Fixed, Object};
use vt_core::TopologyKind;

/// Blocking fetch-&-adds each non-idle rank issues (frozen).
pub const OPS_PER_RANK: u32 = 16;
/// Processes per node (frozen).
pub const PPN: u32 = 4;
/// Default regression margin for [`check_regression`], in percent.
///
/// Deliberately wide: on shared runners the best-of-5 wall time of an
/// unchanged binary lands anywhere between ~65% and ~95% of the committed
/// best-of-8 trajectory, so the smoke gate can only honestly assert the
/// absence of *gross* (≳2×) slowdowns. Tighten with `--max-regression-pct`
/// when measuring on a quiet machine.
pub const DEFAULT_MAX_REGRESSION_PCT: f64 = 50.0;

/// What `vtsim bench` should measure.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Quick mode: the reduced cell set CI smokes on.
    pub quick: bool,
    /// Wall-time repeats per cell (best run is reported).
    pub repeats: u32,
    /// Populations (process counts) to measure.
    pub sizes: Vec<u32>,
    /// Topologies to measure.
    pub topologies: Vec<TopologyKind>,
    /// Also measure the open-system serving cell (the frozen flash-crowd
    /// scenario at 1024 ranks).
    pub serve: bool,
}

impl BenchOpts {
    /// The full trajectory measurement: N ∈ {1k, 4k, 16k} per topology.
    pub fn full() -> Self {
        BenchOpts {
            quick: false,
            repeats: 8,
            sizes: vec![1024, 4096, 16384],
            topologies: TOPOLOGIES.to_vec(),
            serve: true,
        }
    }

    /// The CI smoke subset: N = 1024 per topology, fewer repeats.
    pub fn quick() -> Self {
        BenchOpts {
            quick: true,
            repeats: 5,
            sizes: vec![1024],
            topologies: TOPOLOGIES.to_vec(),
            serve: true,
        }
    }
}

/// The four paper topologies in trajectory order.
pub const TOPOLOGIES: [TopologyKind; 4] = [
    TopologyKind::Fcg,
    TopologyKind::Mfcg,
    TopologyKind::Cfcg,
    TopologyKind::Hypercube,
];

/// One measured cell of the trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCell {
    /// Workload tag: `"closed"` for the frozen hot-spot fetch-add cells,
    /// `"serve"` for the open-system flash-crowd cell. Part of the cell's
    /// identity in the regression gate, so the serving cell can share a
    /// (topology, population) pair with a closed cell without colliding.
    pub workload: &'static str,
    /// Topology under test.
    pub topology: TopologyKind,
    /// Simulated processes.
    pub n_procs: u32,
    /// Events the run processed (identical across repeats — the
    /// simulation is deterministic).
    pub events: u64,
    /// Best wall time over the repeats, in seconds.
    pub best_wall_s: f64,
}

impl BenchCell {
    /// The headline metric: processed events per second of wall time.
    pub fn events_per_sec(&self) -> f64 {
        if self.best_wall_s > 0.0 {
            self.events as f64 / self.best_wall_s
        } else {
            0.0
        }
    }
}

/// A full measurement: options echo plus the measured cells.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Whether this was the quick subset.
    pub quick: bool,
    /// Repeats each cell's best wall time was taken over.
    pub repeats: u32,
    /// Measured cells, in grid order.
    pub cells: Vec<BenchCell>,
}

/// Error from the bench harness.
#[derive(Debug)]
pub enum BenchError {
    /// A simulation ended abnormally.
    Run(String),
    /// The baseline file could not be read or parsed.
    Baseline(String),
    /// The regression gate tripped; the message lists the failing cells.
    Regression(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Run(m) => write!(f, "bench run failed: {m}"),
            BenchError::Baseline(m) => write!(f, "bad baseline: {m}"),
            BenchError::Regression(m) => write!(f, "throughput regression: {m}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// One timed run of the frozen hot-spot workload; returns (events, wall).
///
/// # Errors
/// Returns [`BenchError::Run`] when the simulation ends abnormally.
pub fn hot_spot_once(topology: TopologyKind, n_procs: u32) -> Result<(u64, f64), BenchError> {
    let cell = SweepCell {
        topology,
        n_procs,
        coalesce: false,
        faults: false,
    };
    let mut cfg = RuntimeConfig::new(n_procs, topology);
    cfg.seed = cell.seed();
    cfg.procs_per_node = PPN;
    let ppn = cfg.procs_per_node;
    let sim = Simulation::build(cfg, |rank| {
        if rank.0 < ppn {
            ScriptProgram::new(vec![])
        } else {
            ScriptProgram::new(vec![
                Action::Op(Op::fetch_add(Rank(0), 1));
                OPS_PER_RANK as usize
            ])
        }
    });
    let t0 = Instant::now();
    let report = sim
        .run()
        .map_err(|e| BenchError::Run(format!("{}/{n_procs}: {e}", topology.name())))?;
    Ok((report.events, t0.elapsed().as_secs_f64()))
}

/// Measures one cell: best wall time over `repeats` runs.
///
/// # Errors
/// Returns [`BenchError::Run`] when any repeat ends abnormally.
pub fn measure_cell(
    topology: TopologyKind,
    n_procs: u32,
    repeats: u32,
) -> Result<BenchCell, BenchError> {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..repeats.max(1) {
        let (ev, wall) = hot_spot_once(topology, n_procs)?;
        events = ev;
        best = best.min(wall);
    }
    Ok(BenchCell {
        workload: "closed",
        topology,
        n_procs,
        events,
        best_wall_s: best,
    })
}

/// One timed run of the frozen open-system serving workload — the
/// flash-crowd preset (1024 ranks over MFCG, a 10× offered-load spike past
/// the hot CHT's saturation point); returns (events, wall). Times the
/// serving machinery itself: arrival generation, admission shedding,
/// jittered retransmission and the metastability guard.
///
/// # Errors
/// Returns [`BenchError::Run`] when the simulation ends abnormally.
pub fn serve_flash_once() -> Result<(u64, f64), BenchError> {
    let cfg = vt_apps::ServeScenarioConfig::flash_crowd().runtime_config();
    let sim = Simulation::build(cfg, |_| ScriptProgram::new(vec![]));
    let t0 = Instant::now();
    let report = sim
        .run()
        .map_err(|e| BenchError::Run(format!("serve flash-crowd: {e}")))?;
    Ok((report.events, t0.elapsed().as_secs_f64()))
}

/// Measures the serving cell: best wall time over `repeats` runs.
///
/// # Errors
/// Returns [`BenchError::Run`] when any repeat ends abnormally.
pub fn measure_serve_cell(repeats: u32) -> Result<BenchCell, BenchError> {
    let scenario = vt_apps::ServeScenarioConfig::flash_crowd();
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..repeats.max(1) {
        let (ev, wall) = serve_flash_once()?;
        events = ev;
        best = best.min(wall);
    }
    Ok(BenchCell {
        workload: "serve",
        topology: scenario.topology,
        n_procs: scenario.n_procs(),
        events,
        best_wall_s: best,
    })
}

/// Runs the whole measurement. Cells come from the sweep grid (topology ×
/// size, protocol toggles off) and run serially in grid order; the serving
/// cell, when enabled, runs last.
///
/// # Errors
/// Returns [`BenchError::Run`] when any cell's simulation ends abnormally.
pub fn run(opts: &BenchOpts) -> Result<BenchReport, BenchError> {
    let cells = grid(&opts.topologies, &opts.sizes, PPN, &[false], &[false]);
    let mut measured = Vec::with_capacity(cells.len() + 1);
    for c in &cells {
        measured.push(measure_cell(c.topology, c.n_procs, opts.repeats)?);
    }
    if opts.serve {
        measured.push(measure_serve_cell(opts.repeats)?);
    }
    Ok(BenchReport {
        quick: opts.quick,
        repeats: opts.repeats,
        cells: measured,
    })
}

/// Renders one cell as a JSON object (one line, stable key order).
fn cell_json(c: &BenchCell) -> String {
    Object::new()
        .field("workload", c.workload)
        .field("topology", c.topology.name())
        .field("n_procs", c.n_procs)
        .field("events", c.events)
        .field("best_wall_s", Fixed(c.best_wall_s, 6))
        .field("events_per_sec", Fixed(c.events_per_sec(), 0))
        .finish()
}

impl BenchReport {
    /// Renders the trajectory document (without a `baseline` block — the
    /// committed `BENCH_sim.json` appends the pre-overhaul measurement
    /// under that key).
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(cell_json).collect();
        format!(
            "{{\n  \"schema\": 1,\n  \"workload\": \"closed cells: hot-spot fetch-add, every \
             rank off node 0 issues {} blocking fetch-adds to rank 0; ppn={}; \
             seed=0xBE7C^n_procs. serve cells: the frozen open-system flash-crowd scenario\",\n  \
             \"protocol\": \"events/sec = report.events / best wall time of {} serial repeats \
             of Simulation::run\",\n  \"quick\": {},\n  \"cells\": [\n    {}\n  ]\n}}\n",
            OPS_PER_RANK,
            PPN,
            self.repeats,
            self.quick,
            cells.join(",\n    "),
        )
    }

    /// Renders a human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "simulator throughput (best of {} runs)\n\
             {:<8} {:<10} {:>8} {:>12} {:>12} {:>14}\n",
            self.repeats, "workload", "topology", "procs", "events", "wall (s)", "events/sec"
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:<8} {:<10} {:>8} {:>12} {:>12.4} {:>14.0}\n",
                c.workload,
                c.topology.name(),
                c.n_procs,
                c.events,
                c.best_wall_s,
                c.events_per_sec(),
            ));
        }
        out
    }
}

/// Extracts the top-level `"cells"` array of a trajectory document as
/// `(workload, topology, n_procs, events_per_sec)` tuples. A hand-rolled
/// scanner — the build is offline and the document shape is ours — that
/// tolerates the extra keys (`baseline`, `history`) the committed file
/// carries. Cells predating the workload tag parse as `"closed"`.
///
/// # Errors
/// Returns [`BenchError::Baseline`] when the document has no well-formed
/// top-level `"cells"` array.
pub fn parse_cells(doc: &str) -> Result<Vec<(String, String, u32, f64)>, BenchError> {
    let start = doc
        .find("\"cells\":")
        .ok_or_else(|| BenchError::Baseline("no \"cells\" key".into()))?;
    let rest = &doc[start..];
    let open = rest
        .find('[')
        .ok_or_else(|| BenchError::Baseline("\"cells\" is not an array".into()))?;
    let body = &rest[open + 1..];
    // Walk to the matching close bracket (cell objects contain no nested
    // arrays, so a depth counter over {} and [] suffices; the document
    // carries no strings containing brackets).
    let mut depth = 0i32;
    let mut end = None;
    for (i, ch) in body.char_indices() {
        match ch {
            '{' | '[' => depth += 1,
            '}' => depth -= 1,
            ']' => {
                if depth == 0 {
                    end = Some(i);
                    break;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    let body =
        &body[..end.ok_or_else(|| BenchError::Baseline("unterminated cells array".into()))?];
    let mut cells = Vec::new();
    for obj in body.split('{').skip(1) {
        let workload = json_str(obj, "workload").unwrap_or_else(|_| "closed".to_string());
        let topology = json_str(obj, "topology")?;
        let n_procs = json_num(obj, "n_procs")? as u32;
        let eps = json_num(obj, "events_per_sec")?;
        cells.push((workload, topology, n_procs, eps));
    }
    Ok(cells)
}

fn json_str(obj: &str, key: &str) -> Result<String, BenchError> {
    let pat = format!("\"{key}\":\"");
    let at = obj
        .find(&pat)
        .ok_or_else(|| BenchError::Baseline(format!("cell missing {key}")))?;
    let rest = &obj[at + pat.len()..];
    let end = rest
        .find('"')
        .ok_or_else(|| BenchError::Baseline(format!("unterminated {key}")))?;
    Ok(rest[..end].to_string())
}

fn json_num(obj: &str, key: &str) -> Result<f64, BenchError> {
    let pat = format!("\"{key}\":");
    let at = obj
        .find(&pat)
        .ok_or_else(|| BenchError::Baseline(format!("cell missing {key}")))?;
    let rest = &obj[at + pat.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|_| BenchError::Baseline(format!("bad number for {key}")))
}

/// Compares a fresh measurement against the committed trajectory: every
/// fresh cell with a matching `(workload, topology, n_procs)` baseline
/// cell must reach at least `100 - max_regression_pct` percent of the
/// committed events/sec. Cells without a baseline counterpart pass (a new
/// size or workload extends the trajectory; it cannot regress it).
///
/// Returns the rendered comparison table.
///
/// # Errors
/// Returns [`BenchError::Baseline`] when the baseline document is
/// malformed, [`BenchError::Regression`] when any cell trips the gate.
pub fn check_regression(
    fresh: &BenchReport,
    baseline_doc: &str,
    max_regression_pct: f64,
) -> Result<String, BenchError> {
    let baseline = parse_cells(baseline_doc)?;
    let mut table = format!(
        "{:<8} {:<10} {:>8} {:>14} {:>14} {:>8}\n",
        "workload", "topology", "procs", "baseline eps", "now eps", "ratio"
    );
    let mut failures = Vec::new();
    for c in &fresh.cells {
        let Some(&(_, _, _, base_eps)) = baseline
            .iter()
            .find(|(w, t, n, _)| *w == c.workload && *t == c.topology.name() && *n == c.n_procs)
        else {
            continue;
        };
        let now = c.events_per_sec();
        let ratio = if base_eps > 0.0 { now / base_eps } else { 1.0 };
        table.push_str(&format!(
            "{:<8} {:<10} {:>8} {:>14.0} {:>14.0} {:>8.2}\n",
            c.workload,
            c.topology.name(),
            c.n_procs,
            base_eps,
            now,
            ratio,
        ));
        if ratio < 1.0 - max_regression_pct / 100.0 {
            failures.push(format!(
                "{}/{}/{}: {:.0} events/sec vs committed {:.0} ({:.0}% of baseline)",
                c.workload,
                c.topology.name(),
                c.n_procs,
                now,
                base_eps,
                ratio * 100.0,
            ));
        }
    }
    if failures.is_empty() {
        Ok(table)
    } else {
        Err(BenchError::Regression(format!(
            "{} cell(s) below {:.0}% of the committed baseline:\n{}\n{table}",
            failures.len(),
            100.0 - max_regression_pct,
            failures.join("\n"),
        )))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn report(cells: Vec<BenchCell>) -> BenchReport {
        BenchReport {
            quick: true,
            repeats: 1,
            cells,
        }
    }

    fn cell(topology: TopologyKind, n_procs: u32, eps: f64) -> BenchCell {
        BenchCell {
            workload: "closed",
            topology,
            n_procs,
            events: eps as u64, // 1 second wall → events == eps
            best_wall_s: 1.0,
        }
    }

    #[test]
    fn json_roundtrips_through_parse_cells() {
        let mut serve = cell(TopologyKind::Hypercube, 4096, 7_500_000.0);
        serve.workload = "serve";
        let r = report(vec![cell(TopologyKind::Fcg, 1024, 5_000_000.0), serve]);
        let parsed = parse_cells(&r.to_json()).unwrap();
        assert_eq!(
            parsed,
            vec![
                ("closed".to_string(), "fcg".to_string(), 1024, 5_000_000.0),
                (
                    "serve".to_string(),
                    "hypercube".to_string(),
                    4096,
                    7_500_000.0
                ),
            ]
        );
    }

    #[test]
    fn cells_without_workload_tag_parse_as_closed() {
        // The pre-serving committed trajectory carries no workload key.
        let doc = r#"{"cells": [
    {"topology":"fcg","n_procs":1024,"events":10,"best_wall_s":1.0,"events_per_sec":10}
  ]}"#;
        let parsed = parse_cells(doc).unwrap();
        assert_eq!(
            parsed,
            vec![("closed".to_string(), "fcg".to_string(), 1024, 10.0)]
        );
    }

    #[test]
    fn serve_cell_shares_population_with_closed_cell_without_colliding() {
        // Fresh serve cell at (mfcg, 1024) — same pair as a committed
        // closed cell with much higher events/sec. Matching by workload
        // means no baseline counterpart → no false regression.
        let mut fresh_serve = cell(TopologyKind::Mfcg, 1024, 100.0);
        fresh_serve.workload = "serve";
        let fresh = report(vec![fresh_serve]);
        let committed = report(vec![cell(TopologyKind::Mfcg, 1024, 10_000_000.0)]).to_json();
        assert!(check_regression(&fresh, &committed, 20.0).is_ok());
    }

    #[test]
    fn parse_ignores_baseline_block() {
        // The committed file carries a trailing baseline block whose cells
        // must NOT be confused with the top-level ones.
        let doc = r#"{
  "schema": 1,
  "cells": [
    {"topology":"fcg","n_procs":1024,"events":10,"best_wall_s":1.0,"events_per_sec":10}
  ],
  "baseline": {
    "label": "old core",
    "cells": [
      {"topology":"fcg","n_procs":1024,"events":4,"best_wall_s":1.0,"events_per_sec":4}
    ]
  }
}"#;
        let parsed = parse_cells(doc).unwrap();
        assert_eq!(
            parsed,
            vec![("closed".to_string(), "fcg".to_string(), 1024, 10.0)]
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_cells("{}").is_err());
        assert!(parse_cells("{\"cells\": 3}").is_err());
        assert!(parse_cells("{\"cells\": [ {\"topology\":\"fcg\"} ]}").is_err());
    }

    #[test]
    fn regression_gate_passes_within_margin() {
        let fresh = report(vec![cell(TopologyKind::Fcg, 1024, 8_500_000.0)]);
        let committed = report(vec![cell(TopologyKind::Fcg, 1024, 10_000_000.0)]).to_json();
        // 85% of baseline: within the 20% margin.
        let table = check_regression(&fresh, &committed, 20.0).unwrap();
        assert!(table.contains("fcg"), "{table}");
    }

    #[test]
    fn regression_gate_trips_below_margin() {
        let fresh = report(vec![cell(TopologyKind::Fcg, 1024, 7_000_000.0)]);
        let committed = report(vec![cell(TopologyKind::Fcg, 1024, 10_000_000.0)]).to_json();
        let err = check_regression(&fresh, &committed, 20.0).unwrap_err();
        assert!(matches!(err, BenchError::Regression(_)), "{err}");
        assert!(err.to_string().contains("fcg/1024"), "{err}");
    }

    #[test]
    fn cells_without_baseline_counterpart_pass() {
        let fresh = report(vec![cell(TopologyKind::Fcg, 16384, 1.0)]);
        let committed = report(vec![cell(TopologyKind::Fcg, 1024, 10_000_000.0)]).to_json();
        assert!(check_regression(&fresh, &committed, 20.0).is_ok());
    }

    #[test]
    fn tiny_hot_spot_measures() {
        // 64 procs: fast enough for a unit test, exercises the whole
        // measurement path end to end.
        let c = measure_cell(TopologyKind::Mfcg, 64, 1).unwrap();
        assert!(c.events > 0);
        assert!(c.best_wall_s > 0.0);
        assert!(c.events_per_sec() > 0.0);
    }

    #[test]
    fn serve_cell_measures_the_flash_crowd() {
        let c = measure_serve_cell(1).unwrap();
        assert_eq!(c.workload, "serve");
        assert_eq!(c.topology, TopologyKind::Mfcg);
        assert_eq!(c.n_procs, 1024);
        assert!(c.events > 0);
        assert!(c.events_per_sec() > 0.0);
    }

    #[test]
    fn quick_opts_are_a_subset_of_full() {
        let q = BenchOpts::quick();
        let f = BenchOpts::full();
        assert!(q.quick && !f.quick);
        for s in &q.sizes {
            assert!(f.sizes.contains(s), "quick size {s} missing from full");
        }
        assert_eq!(q.topologies, f.topologies);
    }
}
