//! Ablation — topology resilience under a forwarder kill.
//!
//! The robustness counterpart of the Fig. 7 hot-spot study: every rank
//! fetch-&-adds at rank 0 while the node forwarding the far corner's
//! traffic is crashed mid-run. For each topology the harness reports the
//! healthy completion time, the faulted completion time, availability, and
//! the self-healing runtime's recovery counters (retransmissions, LDF
//! route-arounds, credit reclaims, dedup hits).
//!
//! Expected shape: FCG only loses the victim's resident ranks — there are
//! no forwarders, so nothing is rerouted and completion time barely moves.
//! The virtual topologies additionally pay timeout/retransmit rounds for
//! the requests the dead forwarder held, then route around it on
//! escape-class buffers; availability is identical across topologies
//! (`1 − ppn/P`), so the price of contention attenuation under faults is
//! measured purely in recovery time.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use vt_apps::faults::{run, FaultScenarioConfig};
use vt_apps::{run_parallel, Table};
use vt_armci::SimTime;
use vt_bench::{emit, parse_opts};
use vt_core::TopologyKind;

fn main() {
    let opts = parse_opts();
    let (n_procs, ops) = if opts.quick { (64, 4) } else { (256, 8) };
    let topologies = [
        TopologyKind::Fcg,
        TopologyKind::Mfcg,
        TopologyKind::Cfcg,
        TopologyKind::Hypercube,
    ];
    let jobs: Vec<TopologyKind> = topologies
        .into_iter()
        .filter(|t| t.supports(n_procs / 4))
        .collect();
    let outcomes = run_parallel(jobs.clone(), opts.threads, |&topology| {
        run(&FaultScenarioConfig {
            n_procs,
            ops_per_rank: ops,
            kill_at: SimTime::from_micros(if opts.quick { 60 } else { 300 }),
            ..FaultScenarioConfig::paper(topology)
        })
    });

    let mut out = String::new();
    out.push_str(&format!(
        "# Forwarder kill at {} ranks (4 ppn): victim = first hop of node N-1 -> 0\n",
        n_procs
    ));
    let mut table = Table::new(&[
        "topology",
        "victim",
        "healthy (us)",
        "faulted (us)",
        "slowdown",
        "avail",
        "retries",
        "reroutes",
        "reclaims",
        "dedup",
    ]);
    for (topology, o) in jobs.iter().zip(&outcomes) {
        table.row(&[
            topology.name().to_string(),
            format!("node{}", o.victim),
            format!("{:.1}", o.healthy_seconds * 1e6),
            format!("{:.1}", o.exec_seconds * 1e6),
            format!("{:.2}x", o.slowdown()),
            format!("{:.3}", o.availability),
            o.faults.retries.to_string(),
            o.faults.reroutes.to_string(),
            o.faults.reclaims.to_string(),
            o.faults.dedup_hits.to_string(),
        ]);
    }
    out.push_str(&table.render());
    emit(&opts, "ablation_faults", &out);
}
