//! Integration tests at realistic scale for the paper's contention results
//! (Figs. 6/7 shapes). These run the full stack — topology, machine model,
//! runtime, workload — at the paper's 1 024-process scale with a sparse
//! measurement stride to stay fast in debug builds.

use vt_apps::contention::{run, ContentionConfig, OpSpec, Scenario};
use vt_core::TopologyKind;

fn cfg(topology: TopologyKind, op: OpSpec, scenario: Scenario) -> ContentionConfig {
    ContentionConfig {
        measure_stride: 96,
        ..ContentionConfig::paper(topology, op, scenario)
    }
}

#[test]
fn fcg_collapses_under_hot_spot_contention() {
    // Paper §V-B2: vectored put degraded "by nearly two orders of
    // magnitude" under contention inside FCG.
    let quiet = run(&cfg(
        TopologyKind::Fcg,
        OpSpec::fetch_add(),
        Scenario::NoContention,
    ));
    let loud = run(&cfg(
        TopologyKind::Fcg,
        OpSpec::fetch_add(),
        Scenario::pct20(),
    ));
    let ratio = loud.mean_us() / quiet.mean_us();
    assert!(
        ratio > 50.0,
        "FCG should degrade by ~two orders of magnitude, got {ratio:.1}x \
         ({:.1} -> {:.1} us)",
        quiet.mean_us(),
        loud.mean_us()
    );
    // The BEER mechanism must be engaged: hundreds of interleaved source
    // nodes thrash the stream table.
    assert!(
        loud.net.stream_misses > 10_000,
        "misses {}",
        loud.net.stream_misses
    );
}

#[test]
fn mfcg_attenuates_contention() {
    // Paper §V-B3: "With 20% contention, it becomes faster to complete
    // atomic operations for nearly all processes using MFCG than FCG."
    let fcg = run(&cfg(
        TopologyKind::Fcg,
        OpSpec::fetch_add(),
        Scenario::pct20(),
    ));
    let mfcg = run(&cfg(
        TopologyKind::Mfcg,
        OpSpec::fetch_add(),
        Scenario::pct20(),
    ));
    assert!(
        mfcg.mean_us() * 3.0 < fcg.mean_us(),
        "MFCG must be well ahead under contention: mfcg {:.1} vs fcg {:.1}",
        mfcg.mean_us(),
        fcg.mean_us()
    );
    // ... and for nearly all individual ranks, not just on average.
    let better = mfcg
        .points
        .iter()
        .zip(&fcg.points)
        .filter(|((ra, a), (rb, b))| {
            assert_eq!(ra, rb);
            a < b
        })
        .count();
    assert!(
        better * 10 >= mfcg.points.len() * 9,
        "only {better}/{} ranks faster under MFCG",
        mfcg.points.len()
    );
}

#[test]
fn no_contention_ranking_follows_forwarding_depth() {
    // Paper Figs. 6a/6d/7a/7d: without contention the direct FCG path is
    // fastest and each extra forwarding step costs more.
    let mean = |kind| run(&cfg(kind, OpSpec::vector_put(), Scenario::NoContention)).mean_us();
    let fcg = mean(TopologyKind::Fcg);
    let mfcg = mean(TopologyKind::Mfcg);
    let cfcg = mean(TopologyKind::Cfcg);
    let hc = mean(TopologyKind::Hypercube);
    assert!(
        fcg < mfcg && mfcg < cfcg && cfcg < hc,
        "expected fcg < mfcg < cfcg < hypercube, got {fcg:.1} {mfcg:.1} {cfcg:.1} {hc:.1}"
    );
    // Hypercube's many forwarding steps make it a poor trade-off (§V-B2).
    assert!(hc > 2.5 * fcg);
}

#[test]
fn contention_at_11_percent_sits_below_20_percent() {
    let low = run(&cfg(
        TopologyKind::Fcg,
        OpSpec::fetch_add(),
        Scenario::pct11(),
    ));
    let high = run(&cfg(
        TopologyKind::Fcg,
        OpSpec::fetch_add(),
        Scenario::pct20(),
    ));
    assert!(
        low.mean_us() < high.mean_us(),
        "11% ({:.1}) must hurt less than 20% ({:.1})",
        low.mean_us(),
        high.mean_us()
    );
}

#[test]
fn latency_rises_with_rank_distance_under_linear_placement() {
    // Paper Figs. 6a/7a: completion time grows with rank because physical
    // distance to rank 0 grows (linear placement on the torus).
    let out = run(&cfg(
        TopologyKind::Fcg,
        OpSpec::fetch_add(),
        Scenario::NoContention,
    ));
    let n = out.points.len();
    assert!(n >= 8);
    let head: f64 = out.points[..n / 4].iter().map(|&(_, y)| y).sum::<f64>() / (n / 4) as f64;
    let tail: f64 =
        out.points[3 * n / 4..].iter().map(|&(_, y)| y).sum::<f64>() / (n - 3 * n / 4) as f64;
    assert!(
        tail > head * 1.1,
        "expected a distance slope: head {head:.1} tail {tail:.1}"
    );
}

#[test]
fn mfcg_no_contention_shows_direct_and_forwarded_groups() {
    // Paper Fig. 6a: "the performance numbers from all processes form
    // several distinct curves, representing differences in their
    // (virtual-) topological relationship with respect to Rank 0."
    let out = run(&cfg(
        TopologyKind::Mfcg,
        OpSpec::fetch_add(),
        Scenario::NoContention,
    ));
    // Split points by whether their node is directly connected to node 0.
    let topo = TopologyKind::Mfcg.build(256);
    use vt_core::VirtualTopology;
    let (mut direct, mut forwarded) = (Vec::new(), Vec::new());
    for &(rank, us) in &out.points {
        let node = rank / 4;
        if topo.has_edge(node, 0) {
            direct.push(us);
        } else {
            forwarded.push(us);
        }
    }
    assert!(!direct.is_empty() && !forwarded.is_empty());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&forwarded) > mean(&direct) * 1.3,
        "forwarded group ({:.1}) must sit clearly above direct group ({:.1})",
        mean(&forwarded),
        mean(&direct)
    );
}
