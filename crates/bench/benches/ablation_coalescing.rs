//! Ablation — request coalescing on the CHT forwarding path.
//!
//! Runs the Fig. 7 fetch-&-add hot spot (pipelined contenders, 20 %
//! contention) with coalescing off and on for every topology. Forwarding
//! topologies fold requests that share a next LDF hop into bounded
//! envelopes on a single downstream credit, so the expected shape is:
//!
//! * FCG is untouched — it never forwards, so there is nothing to coalesce
//!   and both columns are identical;
//! * MFCG/CFCG/Hypercube send markedly fewer physical forwarding messages
//!   (`fwd msgs` < `forwarded`) and fewer network messages overall, at
//!   completion times no worse than the uncoalesced run.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use vt_apps::contention::{run, ContentionConfig, OpSpec, Scenario};
use vt_apps::{run_parallel, Table};
use vt_bench::{emit, parse_opts};
use vt_core::TopologyKind;

fn main() {
    let opts = parse_opts();
    let (n_procs, stride) = if opts.quick { (256, 16) } else { (1024, 8) };
    let topologies = [
        TopologyKind::Fcg,
        TopologyKind::Mfcg,
        TopologyKind::Cfcg,
        TopologyKind::Hypercube,
    ];
    let mut jobs: Vec<(TopologyKind, bool)> = Vec::new();
    for t in topologies.into_iter().filter(|t| t.supports(n_procs / 4)) {
        jobs.push((t, false));
        jobs.push((t, true));
    }
    let outcomes = run_parallel(jobs.clone(), opts.threads, |&(topology, coalesce)| {
        let cfg = ContentionConfig {
            n_procs,
            measure_stride: stride,
            pipelined_contenders: true,
            coalesce,
            ..ContentionConfig::paper(topology, OpSpec::fetch_add(), Scenario::pct20())
        };
        run(&cfg)
    });

    let mut out = String::new();
    out.push_str(&format!(
        "# Request coalescing under the 20% fetch-&-add hot spot at {} ranks (4 ppn)\n",
        n_procs
    ));
    let mut table = Table::new(&[
        "topology",
        "coalescing",
        "finish (us)",
        "mean (us)",
        "forwarded",
        "fwd msgs",
        "envelopes",
        "members",
        "net msgs",
    ]);
    for ((topology, coalesce), o) in jobs.iter().zip(&outcomes) {
        table.row(&[
            topology.name().to_string(),
            if *coalesce { "on" } else { "off" }.to_string(),
            format!("{:.1}", o.finish.as_micros_f64()),
            format!("{:.1}", o.mean_us()),
            o.cht.forwarded.to_string(),
            o.cht.fwd_messages.to_string(),
            o.cht.envelopes.to_string(),
            o.cht.coalesced.to_string(),
            o.net.messages.to_string(),
        ]);
    }
    out.push_str(&table.render());
    emit(&opts, "ablation_coalescing", &out);
}
