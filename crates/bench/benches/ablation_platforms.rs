//! Ablation — virtual topologies on a different petascale platform.
//!
//! The paper's future work (§VIII) asks whether virtual topologies help "on
//! other petascale platforms with different physical topologies, e.g.
//! BlueGene/P". This study reruns the Fig. 7 hot-spot protocol on the
//! Blue Gene/P machine model: a denser torus of slower links whose DMA
//! engine keeps per-source state in hardware, so there is no BEER-style
//! stream cliff — hot-spot damage is pure serialisation.
//!
//! Expected outcome: FCG still degrades under contention (the hot node's
//! receive engine serialises every request) but by a much smaller factor
//! than on the XT5; MFCG still attenuates, because bounding the *queue* at
//! the hot node is platform-independent. The virtual-topology idea survives
//! the platform change; the BEER cliff does not.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use vt_apps::contention::{run, ContentionConfig, OpSpec, Scenario};
use vt_apps::{run_parallel, Table};
use vt_bench::{emit, parse_opts};
use vt_core::TopologyKind;
use vt_simnet::NetworkConfig;

fn main() {
    let opts = parse_opts();
    let stride = if opts.quick { 32 } else { 8 };
    let platforms = [
        ("xt5", NetworkConfig::jaguar()),
        ("bluegene-p", NetworkConfig::bluegene_p()),
    ];
    let topologies = [TopologyKind::Fcg, TopologyKind::Mfcg];
    let scenarios = [Scenario::NoContention, Scenario::pct20()];

    let mut jobs = Vec::new();
    for &(name, net) in &platforms {
        for t in topologies {
            for s in scenarios {
                jobs.push((name, net, t, s));
            }
        }
    }
    let outcomes = run_parallel(
        jobs.clone(),
        opts.threads,
        |&(_, net, topology, scenario)| {
            let cfg = ContentionConfig {
                measure_stride: stride,
                net: Some(net),
                ..ContentionConfig::paper(topology, OpSpec::fetch_add(), scenario)
            };
            run(&cfg)
        },
    );

    let mut table = Table::new(&[
        "platform",
        "topology",
        "scenario",
        "mean (us)",
        "stream misses",
    ]);
    for ((name, _, topology, scenario), o) in jobs.iter().zip(&outcomes) {
        table.row(&[
            name.to_string(),
            topology.name().to_string(),
            scenario.label(),
            format!("{:.1}", o.mean_us()),
            o.net.stream_misses.to_string(),
        ]);
    }
    let mut out = String::from("# Ablation: the Fig. 7 hot-spot protocol on XT5 vs Blue Gene/P\n");
    out.push_str(&table.render());

    // Collapse factors per platform.
    let mean = |name: &str, t: TopologyKind, s: Scenario| {
        jobs.iter()
            .zip(&outcomes)
            .find(|((n, _, jt, js), _)| *n == name && *jt == t && *js == s)
            .map(|(_, o)| o.mean_us())
            .unwrap_or_else(|| unreachable!("every job tuple was enumerated above"))
    };
    out.push_str("\n# Contention collapse factor (20% / none):\n");
    for &(name, _) in &platforms {
        let fcg = mean(name, TopologyKind::Fcg, Scenario::pct20())
            / mean(name, TopologyKind::Fcg, Scenario::NoContention);
        let mfcg = mean(name, TopologyKind::Mfcg, Scenario::pct20())
            / mean(name, TopologyKind::Mfcg, Scenario::NoContention);
        out.push_str(&format!(
            "#   {name:10}  fcg {fcg:>8.1}x   mfcg {mfcg:>8.1}x\n"
        ));
    }
    emit(&opts, "ablation_platforms", &out);
}
