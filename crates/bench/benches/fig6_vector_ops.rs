//! Figure 6 — vectored data transfer operations under varying contention.
//!
//! Paper setup (§V-B): 1 024 processes, 4 per node over 256 nodes; each
//! measured process performs 20 vectored puts to rank 0; contenders (one in
//! nine → 11 %, one in five → 20 %) hammer rank 0 concurrently. Six panels:
//!
//! * (a) FCG & MFCG, no contention — FCG fastest, MFCG's forwarded group
//!   ~2× slower, latency rising with rank (physical distance);
//! * (b)/(c) FCG & MFCG at 11 %/20 % — FCG degrades by ~two orders of
//!   magnitude; MFCG completes faster than FCG for nearly all ranks;
//! * (d) CFCG & Hypercube, no contention — more forwarding steps, distinct
//!   latency groups; Hypercube worst;
//! * (e)/(f) CFCG at 11 %/20 % (Hypercube omitted, as in the paper).

#![warn(clippy::unwrap_used, clippy::expect_used)]

use vt_apps::contention::{run, ContentionConfig, OpSpec, Scenario};
use vt_apps::{run_parallel, Panel};
use vt_bench::{emit, parse_opts};
use vt_core::TopologyKind;

fn main() {
    let opts = parse_opts();
    let stride = if opts.quick { 16 } else { 4 };
    let cfg = |topology, scenario| ContentionConfig {
        measure_stride: stride,
        ..ContentionConfig::paper(topology, OpSpec::vector_put(), scenario)
    };

    // One job per (topology, scenario) curve; Hypercube only without
    // contention ("it takes too long to get a complete set of numbers").
    let jobs: Vec<(TopologyKind, Scenario)> = vec![
        (TopologyKind::Fcg, Scenario::NoContention),
        (TopologyKind::Fcg, Scenario::pct11()),
        (TopologyKind::Fcg, Scenario::pct20()),
        (TopologyKind::Mfcg, Scenario::NoContention),
        (TopologyKind::Mfcg, Scenario::pct11()),
        (TopologyKind::Mfcg, Scenario::pct20()),
        (TopologyKind::Cfcg, Scenario::NoContention),
        (TopologyKind::Cfcg, Scenario::pct11()),
        (TopologyKind::Cfcg, Scenario::pct20()),
        (TopologyKind::Hypercube, Scenario::NoContention),
    ];
    let outcomes = run_parallel(jobs.clone(), opts.threads, |&(topology, scenario)| {
        run(&cfg(topology, scenario))
    });
    let get = |topology, scenario| {
        let idx = jobs
            .iter()
            .position(|&j| j == (topology, scenario))
            .unwrap_or_else(|| unreachable!("get() is only called with enumerated jobs"));
        &outcomes[idx]
    };

    let mut out = String::new();
    let panels = [
        (
            "6(a)",
            "FCG & MFCG with No Contention",
            vec![
                (TopologyKind::Fcg, Scenario::NoContention),
                (TopologyKind::Mfcg, Scenario::NoContention),
            ],
        ),
        (
            "6(b)",
            "FCG & MFCG with 11% Contention",
            vec![
                (TopologyKind::Fcg, Scenario::pct11()),
                (TopologyKind::Mfcg, Scenario::pct11()),
            ],
        ),
        (
            "6(c)",
            "FCG & MFCG with 20% Contention",
            vec![
                (TopologyKind::Fcg, Scenario::pct20()),
                (TopologyKind::Mfcg, Scenario::pct20()),
            ],
        ),
        (
            "6(d)",
            "CFCG & Hypercube with No Contention",
            vec![
                (TopologyKind::Cfcg, Scenario::NoContention),
                (TopologyKind::Hypercube, Scenario::NoContention),
            ],
        ),
        (
            "6(e)",
            "CFCG with 11% Contention",
            vec![(TopologyKind::Cfcg, Scenario::pct11())],
        ),
        (
            "6(f)",
            "CFCG with 20% Contention",
            vec![(TopologyKind::Cfcg, Scenario::pct20())],
        ),
    ];
    for (id, title, curves) in panels {
        let mut panel = Panel::new(
            format!("Figure {id}: {title} (vectored put, 1024 procs)"),
            "process rank",
            "time (usec)",
        );
        for (topology, scenario) in curves {
            panel
                .series
                .push(get(topology, scenario).series(topology.name()));
        }
        out.push_str(&panel.render());
        out.push('\n');
    }

    // Shape summary the paper's text highlights.
    out.push_str("# Shape summary (mean usec per curve):\n");
    for &(topology, scenario) in &jobs {
        let o = get(topology, scenario);
        out.push_str(&format!(
            "#   {:9} {:15}  mean {:>12.1}  median {:>12.1}  stream-misses {:>9}  forwards {:>9}\n",
            topology.name(),
            scenario.label(),
            o.mean_us(),
            o.median_us(),
            o.net.stream_misses,
            o.cht.forwarded,
        ));
    }
    emit(&opts, "fig6_vector_ops", &out);
}
