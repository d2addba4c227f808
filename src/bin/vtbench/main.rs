//! `vtbench` — host time, memory and simulated outcomes of the simulator on
//! four workloads, with per-layer counts and an outside-in traced run.
//!
//! ```sh
//! cargo run --release --offline --manifest-path src/bin/vtbench/Cargo.toml -- \
//!     --workload hotspot_hc16k --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The benchmark builds from the manifest beside this file; the root
//! package also builds this file as its `vtbench` binary, which is how the
//! unit tests below run with the root `cargo test`.
//!
//! Each measured run is a fresh child process (`--child <workload>`), one
//! at a time, so every run has its own peak RSS and no two runs share a
//! core. Rounds run every selected workload once and repeat until the time
//! budget is spent. See `README.md` beside this file for the workloads and
//! metrics.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod layers;
mod workload;

use layers::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use vt_simnet::stats::percentile;
use workload::{Inputs, Workload, ALL};

const USAGE: &str = "usage: vtbench [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]
  workloads: hotspot_hc16k, uniform_mfcg16k, serve_flash1s, faults_cfcg4k
  --seconds: measuring time per workload (default 20)
  --trace 1: add one traced round and report the per-layer metrics";

/// End-to-end metrics `(name, unit)`: each is the median over a run's
/// samples. Host time and memory, then the simulated outcome.
const E2E: [(&str, &str); 4] = [
    ("ns_per_op", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_done_frac", "ratio"),
];

/// Per-layer metrics `(name, unit)` of the traced run that every workload
/// exercises: the JSON result line of `--trace 1` carries exactly these.
const LAYER: [(&str, &str); 26] = [
    ("armci.sim_makespan_ms", "sim_ms"),
    ("armci.sim_lat_p50_us", "sim_us"),
    ("armci.sim_lat_p99_us", "sim_us"),
    ("armci.sim_ops_per_s", "1/sim_s"),
    ("simnet.events_per_op", "1/op"),
    ("simnet.msgs_per_op", "1/op"),
    ("simnet.hops_per_op", "1/op"),
    ("simnet.kib_per_op", "KiB/op"),
    ("simnet.stream_miss_ratio", "ratio"),
    ("armci.cht.serviced_per_op", "1/op"),
    ("armci.cht.forwarded_per_op", "1/op"),
    ("armci.cht.wakeups_per_op", "1/op"),
    ("armci.cht.max_queue", "count"),
    ("armci.credit.parked_per_op", "1/op"),
    ("core.next_hop_ns", "ns"),
    ("core.next_hop_calls_per_op", "1/op"),
    ("core.next_hop_share", "ratio"),
    ("simnet.send_ns", "ns"),
    ("simnet.send_calls_per_op", "1/op"),
    ("simnet.send_share", "ratio"),
    ("armci.credit.pair_ns", "ns"),
    ("armci.credit.pairs_per_op", "1/op"),
    ("bench.build_s", "s"),
    ("bench.run_s", "s"),
    ("bench.check_s", "s"),
    ("bench.traced_ns_ratio", "ratio"),
];

const SERVE_FAULTS: &[Workload] = &[Workload::ServeFlash1s, Workload::FaultsCfcg4k];
const FAULTS: &[Workload] = &[Workload::FaultsCfcg4k];
const SERVE: &[Workload] = &[Workload::ServeFlash1s];

/// Per-layer metrics `(name, unit, workloads)` that only some workloads
/// exercise; elsewhere they are 0 by construction. They are reported in the
/// table and `result.json` for those workloads only, never in the JSON
/// result line.
const OWN_LAYER: [(&str, &str, &[Workload]); 21] = [
    ("simnet.dropped", "count", FAULTS),
    ("simnet.corrupted", "count", FAULTS),
    ("armci.coalesce.envelopes_per_op", "1/op", FAULTS),
    ("armci.coalesce.fold_ratio", "ratio", FAULTS),
    ("armci.reliab.retries_per_op", "1/op", SERVE_FAULTS),
    ("armci.reliab.timeouts", "count", SERVE_FAULTS),
    ("armci.reliab.dedup_hits", "count", SERVE_FAULTS),
    ("armci.reliab.reclaims", "count", FAULTS),
    ("armci.reliab.reroutes", "count", FAULTS),
    ("armci.reliab.corrupt_detected", "count", FAULTS),
    ("armci.member.epochs", "count", FAULTS),
    ("armci.member.probes_per_op", "1/op", FAULTS),
    ("armci.member.suspicions", "count", FAULTS),
    ("armci.serve.admit_ratio", "ratio", SERVE),
    ("armci.serve.shed_ratio", "ratio", SERVE),
    ("armci.serve.retries", "count", SERVE),
    ("armci.serve.gave_up", "count", SERVE),
    ("armci.serve.guard_trips", "count", SERVE),
    ("analyze.certify_repair_s", "s", FAULTS),
    ("analyze.certify_calls", "count", FAULTS),
    ("analyze.certify_share", "ratio", FAULTS),
];

/// The layer metrics `w` reports: all of `LAYER`, then its own.
fn layer_metrics(w: Workload) -> impl Iterator<Item = (&'static str, &'static str)> {
    let own = OWN_LAYER
        .into_iter()
        .filter(move |(_, _, ws)| ws.contains(&w))
        .map(|(name, unit, _)| (name, unit));
    LAYER.into_iter().chain(own)
}

/// Median, quartiles and sample count of one metric over a run's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

/// Summarises `values`; `None` when there are none.
fn summarize(values: &[f64]) -> Option<Summary> {
    (!values.is_empty()).then(|| Summary {
        median: percentile(values, 50.0),
        q1: percentile(values, 25.0),
        q3: percentile(values, 75.0),
        n: values.len(),
    })
}

/// Command-line options.
#[derive(Debug, PartialEq)]
struct Args {
    /// Workloads to measure, in round order.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run one measurement of this workload and print it.
    child: Option<Workload>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: ALL.to_vec(),
        seed: 1,
        seconds: 20,
        trace: false,
        child: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let workload = |v: &str| Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"));
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {v}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => out.workloads = ALL.to_vec(),
            "--workload" => out.workloads = vec![workload(value)?],
            "--seed" => out.seed = number(value)?,
            "--seconds" => out.seconds = number(value)?,
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--child" => out.child = Some(workload(value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// What one child run measured.
#[derive(Debug, Default, PartialEq)]
struct Sample {
    /// Metric values by name.
    values: BTreeMap<String, f64>,
    /// Digest of the report's deterministic fields.
    digest: u64,
    /// Oracle violations, `"<oracle>: <detail>"`.
    fails: Vec<String>,
    /// Spans of a traced run, relative to the child's start.
    spans: Vec<Span>,
}

impl Sample {
    fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The line protocol a child prints and its parent parses.
    fn to_lines(&self) -> String {
        let mut out = format!("digest {}\n", self.digest);
        for (k, v) in &self.values {
            let _ = writeln!(out, "value {k} {v}");
        }
        for f in &self.fails {
            let _ = writeln!(out, "fail {f}");
        }
        for s in &self.spans {
            let parent = if s.parent.is_empty() { "-" } else { &s.parent };
            let _ = writeln!(out, "span {} {parent} {} {}", s.name, s.start_ns, s.end_ns);
        }
        out
    }

    fn from_lines(text: &str) -> Result<Sample, String> {
        let mut s = Sample::default();
        let bad = |line: &str| format!("unparsable child output line: {line}");
        for line in text.lines() {
            let mut parts = line.split(' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("digest"), Some(d), None) => s.digest = d.parse().map_err(|_| bad(line))?,
                (Some("value"), Some(k), Some(v)) => {
                    s.values
                        .insert(k.to_string(), v.parse().map_err(|_| bad(line))?);
                }
                (Some("fail"), _, _) => {
                    let detail = line.strip_prefix("fail ").unwrap_or_default();
                    s.fails.push(detail.to_string());
                }
                (Some("span"), Some(name), Some(parent)) => {
                    let mut ns = parts.map(str::parse::<u64>);
                    let (Some(Ok(start_ns)), Some(Ok(end_ns))) = (ns.next(), ns.next()) else {
                        return Err(bad(line));
                    };
                    s.spans.push(Span {
                        name: name.to_string(),
                        parent: if parent == "-" { "" } else { parent }.to_string(),
                        start_ns,
                        end_ns,
                    });
                }
                _ => return Err(bad(line)),
            }
        }
        Ok(s)
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs `inputs` once and measures it; `traced` adds the layer replays and
/// spans, timed from `epoch`, the moment input generation began.
fn measure(inputs: &Inputs, traced: bool, epoch: Instant) -> Result<Sample, String> {
    let generated = Instant::now();
    let run = workload::run(inputs)?;
    let report = &run.report;
    let check_from = Instant::now();
    let mut fails = workload::check(inputs, report);
    let digest = workload::digest(report);
    let check_to = Instant::now();

    let ops = report.metrics.total_ops();
    if ops == 0 {
        fails.push("ledger: no op completed".to_string());
    }
    let per_op = |x: f64| if ops == 0 { 0.0 } else { x / ops as f64 };
    let certify_s: Vec<f64> = run
        .certify
        .iter()
        .map(|(a, b)| (*b - *a).as_secs_f64())
        .collect();
    let mut values: Vec<(&str, f64)> = vec![
        ("ns_per_op", per_op(run.run_s() * 1e9)),
        ("setup_s", run.setup_s()),
        ("peak_rss_mib", peak_rss_mib()?),
        ("analyze.certify_calls", certify_s.len() as f64),
        ("analyze.certify_repair_s", percentile(&certify_s, 50.0)),
        (
            "analyze.certify_s_per_op",
            per_op(certify_s.iter().fold(0.0, |a, b| a + b)),
        ),
        ("bench.build_s", run.setup_s()),
        ("bench.run_s", run.run_s()),
        ("bench.check_s", (check_to - check_from).as_secs_f64()),
    ];
    values.extend(workload::sim_metrics(inputs, report));
    values.extend(workload::layer_counts(report));

    let mut spans = Vec::new();
    if traced {
        let span =
            |name: &str, parent: &str, from, to| Span::between(name, parent, epoch, from, to);
        spans.push(span("inputs", "workload", epoch, generated));
        spans.push(span("build", "workload", run.built_from, run.run_from));
        spans.push(span("run", "workload", run.run_from, run.run_to));
        for &(from, to) in &run.certify {
            spans.push(span("analyze.certify_repair", "run", from, to));
        }
        spans.push(span("check", "workload", check_from, check_to));
        let completed = inputs.completed_ops(report);
        let replays = [
            ("core.next_hop", layers::next_hop(inputs, &completed)),
            ("simnet.send", layers::send(inputs, &completed)),
            (
                "armci.credit.pair",
                layers::credit_pairs(inputs, &completed),
            ),
        ];
        let replay_from = replays[0].1.from;
        let replay_to = replays[2].1.to;
        spans.push(span("replay", "workload", replay_from, replay_to));
        for (name, r) in &replays {
            spans.push(span(name, "replay", r.from, r.to));
        }
        let [next_hop, send, credit] = &replays;
        values.extend([
            ("core.next_hop_ns", next_hop.1.ns_per_call()),
            (
                "core.next_hop_calls_per_op",
                per_op(next_hop.1.calls as f64),
            ),
            ("simnet.send_ns", send.1.ns_per_call()),
            ("simnet.send_calls_per_op", per_op(send.1.calls as f64)),
            ("armci.credit.pair_ns", credit.1.ns_per_call()),
            ("armci.credit.pairs_per_op", per_op(credit.1.calls as f64)),
        ]);
    }
    Ok(Sample {
        values: values
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        digest,
        fails,
        spans,
    })
}

/// Child mode: measure one run and print it in the line protocol.
fn child(w: Workload, seed: u64, traced: bool) -> ExitCode {
    let epoch = Instant::now();
    match measure(&w.inputs(seed, false), traced, epoch) {
        Ok(sample) => {
            print!("{}", sample.to_lines());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vtbench: {}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs one child to completion and parses what it measured.
fn spawn(exe: &Path, w: Workload, seed: u64, traced: bool) -> Result<Sample, String> {
    let out = Command::new(exe)
        .args(["--child", w.name(), "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    Sample::from_lines(&String::from_utf8_lossy(&out.stdout))
}

/// Everything measured for one workload.
#[derive(Default)]
struct Results {
    samples: Vec<Sample>,
    /// The traced run and when it started, relative to the parent's epoch.
    traced: Option<(Sample, u64)>,
    /// Runs attempted, and those that errored or broke an oracle.
    attempted: u64,
    failed: u64,
    /// One line per failed run or oracle violation.
    errors: Vec<String>,
}

impl Results {
    fn record(&mut self, w: Workload, sample: Result<Sample, String>) -> Option<Sample> {
        self.attempted += 1;
        match sample {
            Ok(s) if s.fails.is_empty() => Some(s),
            Ok(s) => {
                self.failed += 1;
                let named = s.fails.iter().map(|f| format!("{}: oracle {f}", w.name()));
                self.errors.extend(named);
                Some(s)
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{}: run failed: {e}", w.name()));
                None
            }
        }
    }

    /// Replay identity: every run of the same inputs must give the same
    /// report digest.
    fn check_replay_identity(&mut self, w: Workload) {
        let digests: Vec<u64> = self
            .samples
            .iter()
            .chain(self.traced.as_ref().map(|(s, _)| s))
            .map(|s| s.digest)
            .collect();
        let Some(&first) = digests.first() else {
            return;
        };
        let differing = digests.iter().filter(|&&d| d != first).count();
        if differing > 0 {
            self.failed += differing as u64;
            self.errors.push(format!(
                "{}: oracle replay_identity: {differing} of {} runs gave a different report digest",
                w.name(),
                digests.len()
            ));
        }
    }

    fn e2e(&self, name: &str) -> Option<Summary> {
        let values: Vec<f64> = self.samples.iter().map(|s| s.value(name)).collect();
        summarize(&values)
    }

    /// Every layer metric of the traced run, by name. Shares divide a
    /// layer's cost per op by the untraced median `ns_per_op`.
    fn layers(&self) -> Option<BTreeMap<&'static str, f64>> {
        let (t, _) = self.traced.as_ref()?;
        let ns_per_op = self.e2e("ns_per_op")?.median;
        let share = |ns: f64| if ns_per_op > 0.0 { ns / ns_per_op } else { 0.0 };
        let mut out: BTreeMap<&'static str, f64> = LAYER
            .iter()
            .copied()
            .chain(OWN_LAYER.iter().map(|&(name, unit, _)| (name, unit)))
            .map(|(name, _)| (name, t.value(name)))
            .collect();
        out.insert(
            "core.next_hop_share",
            share(t.value("core.next_hop_ns") * t.value("core.next_hop_calls_per_op")),
        );
        out.insert(
            "simnet.send_share",
            share(t.value("simnet.send_ns") * t.value("simnet.send_calls_per_op")),
        );
        out.insert(
            "analyze.certify_share",
            share(t.value("analyze.certify_s_per_op") * 1e9),
        );
        out.insert("bench.traced_ns_ratio", share(t.value("ns_per_op")));
        Some(out)
    }
}

fn parent(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("vtbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let epoch = Instant::now();
    let budget = Duration::from_secs(args.seconds * args.workloads.len() as u64);
    let mut results: Vec<Results> = args.workloads.iter().map(|_| Results::default()).collect();
    let mut rounds = 0;
    loop {
        for (w, r) in args.workloads.iter().zip(&mut results) {
            if let Some(s) = r.record(*w, spawn(&exe, *w, args.seed, false)) {
                r.samples.push(s);
            }
        }
        rounds += 1;
        if epoch.elapsed() >= budget {
            break;
        }
    }
    let measured_s = epoch.elapsed().as_secs_f64();
    if args.trace {
        for (w, r) in args.workloads.iter().zip(&mut results) {
            let at = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            r.traced = r
                .record(*w, spawn(&exe, *w, args.seed, true))
                .map(|s| (s, at));
        }
    }
    for (w, r) in args.workloads.iter().zip(&mut results) {
        r.check_replay_identity(*w);
    }

    let single = args.workloads.len() == 1;
    let mut metrics = Vec::new();
    let mut text = format!(
        "vtbench seed {}: {rounds} rounds in {measured_s:.1} s\n",
        args.seed
    );
    for (w, r) in args.workloads.iter().zip(&results) {
        let prefix = if single {
            String::new()
        } else {
            format!("{}.", w.name())
        };
        let _ = writeln!(
            text,
            "\n{} ({} runs)\n  {:<28} {:>8} {:>16} {:>16} {:>16} {:>3}",
            w.name(),
            r.samples.len(),
            "metric",
            "unit",
            "median",
            "q1",
            "q3",
            "n"
        );
        for (name, unit) in E2E {
            if let Some(s) = r.e2e(name) {
                let _ = writeln!(
                    text,
                    "  {name:<28} {unit:>8} {:>16.6} {:>16.6} {:>16.6} {:>3}",
                    s.median, s.q1, s.q3, s.n
                );
                if !args.trace {
                    metrics.push((format!("{prefix}{name}"), s.median, unit));
                }
            }
        }
        if let Some(layers) = r.layers() {
            let value = |name| layers.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(text, "  traced run:");
            for (name, unit) in layer_metrics(*w) {
                let _ = writeln!(text, "  {name:<34} {unit:>8} {:>16.6}", value(name));
            }
            for (name, unit) in LAYER {
                metrics.push((format!("{prefix}{name}"), value(name), unit));
            }
        }
    }
    for e in results.iter().flat_map(|r| &r.errors) {
        let _ = writeln!(text, "FAIL {e}");
        eprintln!("vtbench: {e}");
    }
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let complete = results.iter().all(|r| !r.samples.is_empty())
        && (!args.trace || results.iter().all(|r| r.traced.is_some()));
    let correct = failed == 0 && complete;

    if let Err(e) = write_files(args, &results, rounds) {
        eprintln!("vtbench: {e}");
    }
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    print!("{text}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics_json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `target/vtbench/result.json` (every metric with median, quartiles
/// and sample count) and, for a traced run, `target/vtbench/trace.json`,
/// whose spans carry the traced round's id: the round after the `rounds`
/// timed ones.
fn write_files(args: &Args, results: &[Results], rounds: usize) -> Result<(), String> {
    let dir = Path::new("target").join("vtbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut workloads = Vec::new();
    for (w, r) in args.workloads.iter().zip(results) {
        let mut fields = vec![format!("\"runs\": {}", r.samples.len())];
        for (name, unit) in E2E {
            if let Some(s) = r.e2e(name) {
                fields.push(format!(
                    "\"{name}\": {{\"unit\": \"{unit}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    s.median, s.q1, s.q3, s.n
                ));
            }
        }
        if let Some(layers) = r.layers() {
            for (name, unit) in layer_metrics(*w) {
                let v = layers.get(name).copied().unwrap_or(0.0);
                fields.push(format!(
                    "\"{name}\": {{\"unit\": \"{unit}\", \"value\": {v}}}"
                ));
            }
        }
        workloads.push(format!(
            "    \"{}\": {{\n      {}\n    }}",
            w.name(),
            fields.join(",\n      ")
        ));
    }
    let json = format!(
        "{{\n  \"seed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        workloads.join(",\n")
    );
    let path = dir.join("result.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;

    if args.trace {
        let tracks: Vec<(&str, Vec<Span>)> = args
            .workloads
            .iter()
            .zip(results)
            .filter_map(|(w, r)| {
                let (sample, at) = r.traced.as_ref()?;
                let end = sample.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
                let mut spans = vec![Span {
                    name: "workload".to_string(),
                    parent: String::new(),
                    start_ns: *at,
                    end_ns: at + end,
                }];
                spans.extend(sample.spans.iter().map(|s| Span {
                    start_ns: at + s.start_ns,
                    end_ns: at + s.end_ns,
                    ..s.clone()
                }));
                Some((w.name(), spans))
            })
            .collect();
        let path = dir.join("trace.json");
        std::fs::write(&path, layers::chrome_trace(&tracks, rounds))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vtbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(w) => child(w, args.seed, args.trace),
        None => parent(&args),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_and_workload_names_follow_the_naming_rule() {
        for w in ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        let own = OWN_LAYER.iter().map(|&(name, unit, _)| (name, unit));
        let metrics: Vec<_> = E2E.iter().copied().chain(LAYER).chain(own).collect();
        for (name, unit) in &metrics {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        let mut names: Vec<_> = metrics.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.len(), "metric names must be unique");
    }

    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let doc = include_str!("../../../BENCHMARK.json");
        for w in ALL {
            assert!(
                doc.contains(&format!("{{\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
        for (name, unit) in E2E.iter().chain(LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, _, _) in OWN_LAYER {
            let entry = format!("{{\"name\": \"{name}\"");
            assert!(!doc.contains(&entry), "{name} is not on every workload");
        }
    }

    #[test]
    fn release_profile_matches_the_root_package() {
        let profile = |manifest: &'static str| {
            let from = manifest.find("[profile.release]").unwrap();
            let body = &manifest[from..];
            let end = body[1..].find("\n[").map_or(body.len(), |i| i + 1);
            body[..end].trim().to_string()
        };
        assert_eq!(
            profile(include_str!("Cargo.toml")),
            profile(include_str!("../../../Cargo.toml"))
        );
    }

    #[test]
    fn summaries_give_median_quartiles_and_count() {
        assert_eq!(summarize(&[]), None);
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn args_take_the_driver_form_and_reject_garbage() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload serve_flash1s --seed 6 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workloads, [Workload::ServeFlash1s]);
        assert_eq!((a.seed, a.seconds, a.trace, a.child), (6, 10, true, None));
        let d = parse("").unwrap();
        assert_eq!((d.workloads, d.seed, d.trace), (ALL.to_vec(), 1, false));
        assert_eq!(parse("--workload all").unwrap().workloads, ALL);
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--workload nope",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_workload_runs_tiny_with_its_oracles_passing() {
        for w in ALL {
            let epoch = Instant::now();
            let inputs = w.inputs(3, true);
            let traced = measure(&inputs, true, epoch).unwrap();
            assert!(traced.fails.is_empty(), "{}: {:?}", w.name(), traced.fails);
            for (name, _) in E2E {
                let v = traced.value(name);
                assert!(v.is_finite() && v > 0.0, "{} {name} = {v}", w.name());
            }
            assert!(traced.spans.iter().any(|s| s.name == "run"));
            assert!(traced.value("core.next_hop_calls_per_op") > 0.0);
            // Replay identity, and the child line protocol round-trips.
            let plain = measure(&inputs, false, Instant::now()).unwrap();
            assert_eq!(plain.digest, traced.digest, "{}", w.name());
            assert_eq!(Sample::from_lines(&traced.to_lines()).unwrap(), traced);
        }
    }
}
