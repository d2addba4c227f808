//! Ablation — NIC message-stream contexts and the BEER cliff.
//!
//! The paper attributes FCG's contention collapse to the exhaustion of the
//! SeaStar's bounded message-stream state, after which Cray BEER throttles
//! traffic (§II). This study sweeps the number of fast stream contexts
//! under the 20 % fetch-&-add hot spot and locates the cliff: FCG recovers
//! once contexts exceed the number of concurrently sending *nodes*
//! (~200 at 1 024 processes / 4 ppn / 20 %), while MFCG — whose whole point
//! is bounding distinct sources per node to O(√N) — is insensitive to the
//! sweep.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use vt_apps::contention::{run, ContentionConfig, OpSpec, Scenario};
use vt_apps::{run_parallel, Panel, Series};
use vt_bench::{emit, parse_opts};
use vt_core::TopologyKind;

fn main() {
    let opts = parse_opts();
    let stride = if opts.quick { 32 } else { 8 };
    let contexts = [32usize, 64, 96, 128, 192, 256, 512];
    let topologies = [TopologyKind::Fcg, TopologyKind::Mfcg];

    let jobs: Vec<(TopologyKind, usize)> = topologies
        .into_iter()
        .flat_map(|t| contexts.iter().map(move |&c| (t, c)))
        .collect();
    let outcomes = run_parallel(jobs.clone(), opts.threads, |&(topology, ctxs)| {
        let cfg = ContentionConfig {
            measure_stride: stride,
            stream_contexts: Some(ctxs),
            ..ContentionConfig::paper(topology, OpSpec::fetch_add(), Scenario::pct20())
        };
        run(&cfg)
    });

    let mut panel = Panel::new(
        "Ablation: NIC fast stream contexts under 20% contention (fetch-&-add)",
        "stream contexts",
        "mean time (usec)",
    );
    for topology in topologies {
        let points = jobs
            .iter()
            .zip(&outcomes)
            .filter(|((t, _), _)| *t == topology)
            .map(|(&(_, c), o)| (c as f64, o.mean_us()))
            .collect();
        panel.series.push(Series::new(topology.name(), points));
    }
    let mut out = panel.render();

    out.push_str("\n# Stream misses per configuration:\n");
    for ((topology, ctxs), o) in jobs.iter().zip(&outcomes) {
        out.push_str(&format!(
            "#   {:5} contexts={:<4}  mean {:>10.1} us  misses {:>9}\n",
            topology.name(),
            ctxs,
            o.mean_us(),
            o.net.stream_misses
        ));
    }
    emit(&opts, "ablation_streams", &out);
}
