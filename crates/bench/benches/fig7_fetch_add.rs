//! Figure 7 — atomic fetch-&-add operations under varying contention.
//!
//! Identical protocol to Figure 6 with the paper's other representative
//! CHT-path operation: `ARMCI_Rmw` fetch-&-add against rank 0. Expected
//! shapes match Fig. 6 with smaller absolute times (tiny payloads): FCG
//! collapses by orders of magnitude under contention while MFCG/CFCG stay
//! resilient; under no contention the extra forwarding steps rank the
//! topologies FCG < MFCG < CFCG < Hypercube.

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
        ..ContentionConfig::paper(topology, OpSpec::fetch_add(), scenario)
    };

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
            "7(a)",
            "FCG & MFCG with No Contention",
            vec![
                (TopologyKind::Fcg, Scenario::NoContention),
                (TopologyKind::Mfcg, Scenario::NoContention),
            ],
        ),
        (
            "7(b)",
            "FCG & MFCG with 11% Contention",
            vec![
                (TopologyKind::Fcg, Scenario::pct11()),
                (TopologyKind::Mfcg, Scenario::pct11()),
            ],
        ),
        (
            "7(c)",
            "FCG & MFCG with 20% Contention",
            vec![
                (TopologyKind::Fcg, Scenario::pct20()),
                (TopologyKind::Mfcg, Scenario::pct20()),
            ],
        ),
        (
            "7(d)",
            "CFCG & Hypercube with No Contention",
            vec![
                (TopologyKind::Cfcg, Scenario::NoContention),
                (TopologyKind::Hypercube, Scenario::NoContention),
            ],
        ),
        (
            "7(e)",
            "CFCG with 11% Contention",
            vec![(TopologyKind::Cfcg, Scenario::pct11())],
        ),
        (
            "7(f)",
            "CFCG with 20% Contention",
            vec![(TopologyKind::Cfcg, Scenario::pct20())],
        ),
    ];
    for (id, title, curves) in panels {
        let mut panel = Panel::new(
            format!("Figure {id}: {title} (fetch-&-add, 1024 procs)"),
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
    emit(&opts, "fig7_fetch_add", &out);
}
