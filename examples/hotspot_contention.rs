//! Hot-spot contention study: how each virtual topology behaves when a
//! fraction of the job hammers one process — a compact version of the
//! paper's Figs. 6/7 experiment.
//!
//! ```sh
//! cargo run --release --example hotspot_contention
//! ```

use vt_apps::contention::{run, ContentionConfig, OpSpec, Scenario};
use vt_apps::{run_parallel, Table};
use vt_core::TopologyKind;

fn main() {
    let scenarios = [Scenario::NoContention, Scenario::pct11(), Scenario::pct20()];
    let topologies = [TopologyKind::Fcg, TopologyKind::Mfcg, TopologyKind::Cfcg];

    let mut jobs = Vec::new();
    for t in topologies {
        for s in scenarios {
            jobs.push((t, s));
        }
    }
    println!(
        "running {} contention scenarios (1024 procs, fetch-&-add vs rank 0)...",
        jobs.len()
    );
    let outcomes = run_parallel(jobs.clone(), 0, |&(topology, scenario)| {
        let cfg = ContentionConfig {
            measure_stride: 16,
            ..ContentionConfig::paper(topology, OpSpec::fetch_add(), scenario)
        };
        run(&cfg)
    });

    let mut table = Table::new(&[
        "topology",
        "scenario",
        "mean (us)",
        "median (us)",
        "stream misses",
        "forwards",
    ]);
    for ((topology, scenario), o) in jobs.iter().zip(&outcomes) {
        table.row(&[
            topology.name().to_string(),
            scenario.label(),
            format!("{:.1}", o.mean_us()),
            format!("{:.1}", o.median_us()),
            o.net.stream_misses.to_string(),
            o.cht.forwarded.to_string(),
        ]);
    }
    println!("{}", table.render());

    let mean = |t, s| {
        jobs.iter()
            .zip(&outcomes)
            .find(|(&j, _)| j == (t, s))
            .map(|(_, o)| o.mean_us())
            .unwrap()
    };
    let fcg_collapse = mean(TopologyKind::Fcg, Scenario::pct20())
        / mean(TopologyKind::Fcg, Scenario::NoContention);
    let mfcg_gain =
        mean(TopologyKind::Fcg, Scenario::pct20()) / mean(TopologyKind::Mfcg, Scenario::pct20());
    println!(
        "FCG degrades {fcg_collapse:.0}x under 20% contention (paper: ~two orders of magnitude)."
    );
    println!("MFCG completes the hot-spot ops {mfcg_gain:.1}x faster than FCG at 20% contention.");
}
