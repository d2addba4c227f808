//! Golden-figure snapshots: scaled-down, fully deterministic renderings of
//! the paper's Fig. 5/6/7 pipelines — coalescing off, the baseline the
//! ablation compares against — diffed byte-for-byte against checked-in
//! snapshots under `tests/golden/`.
//!
//! When an intentional model change shifts the numbers, regenerate with
//!
//! ```text
//! VT_UPDATE_GOLDEN=1 cargo test --test golden_figures
//! ```
//!
//! and review the snapshot diff like any other code change.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use vt_apps::contention::{run, ContentionConfig, OpSpec, Scenario};
use vt_apps::Table;
use vt_core::{MemoryModel, TopologyKind};

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Whether this process was asked to run the figure pipelines with
/// membership repair enabled (`VT_GOLDEN_MEMBERSHIP=1`). The figures are
/// fault-free, so membership changes no number — but it *is* a different
/// protocol configuration, and the regen guard below refuses to let its
/// output overwrite the membership-disabled baselines.
fn membership_requested() -> bool {
    std::env::var_os("VT_GOLDEN_MEMBERSHIP").is_some_and(|v| v != "0")
}

/// FNV-1a hash of the canonical figure-configuration descriptor. Stamped
/// into every golden header so a snapshot records which protocol
/// configuration produced it.
fn config_stamp() -> String {
    let descriptor = format!(
        "procs=64 ppn=4 iterations=4 stride=8 seed=0xF166 coalescing=off \
         faults=off membership={}",
        if membership_requested() { "on" } else { "off" }
    );
    let mut h: u64 = 0xcbf29ce484222325;
    for b in descriptor.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// The header line stamped as the first line of every golden snapshot.
fn stamp_header(stamp: &str) -> String {
    format!("# config {stamp}\n")
}

/// The regeneration guard: overwriting an existing snapshot is allowed
/// only when the snapshot's stamped configuration matches the one this
/// process is about to bake in. A missing file or a legacy file without a
/// stamp is fair game (first stamping); a mismatched stamp is refused so
/// e.g. a membership-enabled run cannot silently replace the
/// membership-disabled baselines.
///
/// # Errors
/// Returns the refusal message when `existing` carries a different stamp.
fn regen_guard(existing: Option<&str>, stamp: &str) -> Result<(), String> {
    let Some(first) = existing.and_then(|s| s.lines().next()) else {
        return Ok(());
    };
    match first.strip_prefix("# config ") {
        Some(old) if old != stamp => Err(format!(
            "refusing to overwrite golden snapshot: it was generated under \
             config {old}, but this run is config {stamp} (e.g. membership \
             enabled vs. the committed membership-disabled baseline); \
             rerun the regeneration under the baseline configuration"
        )),
        _ => Ok(()),
    }
}

/// Regenerating a snapshot bakes the current model's numbers into the
/// repository, so refuse outright when `vt-analyze` will not certify the
/// figure configurations (16 nodes x 4 ppn, coalescing off, fault-free,
/// every topology): numbers produced by an uncertified protocol are not
/// worth committing.
fn assert_figure_configs_certified() {
    for kind in TopologyKind::ALL {
        let rt = vt_armci::RuntimeConfig::new(64, kind);
        if let Err(report) = vt_analyze::certify(&rt, None) {
            panic!(
                "refusing to regenerate golden snapshots: the {kind} figure \
                 configuration is not certified by vt-analyze\n{report}"
            );
        }
    }
}

/// Compares `actual` against the checked-in snapshot, or rewrites the
/// snapshot when `VT_UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    let stamp = config_stamp();
    let actual = format!("{}{}", stamp_header(&stamp), actual);
    if std::env::var_os("VT_UPDATE_GOLDEN").is_some() {
        assert_figure_configs_certified();
        let existing = std::fs::read_to_string(&path).ok();
        if let Err(refusal) = regen_guard(existing.as_deref(), &stamp) {
            panic!("{refusal}");
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             regenerate with VT_UPDATE_GOLDEN=1 cargo test --test golden_figures",
            path.display()
        )
    });
    if expected != actual {
        let diff = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| format!("first diff at line {}:\n -{e}\n +{a}", i + 1))
            .unwrap_or_else(|| "files differ in length".to_string());
        panic!(
            "{name} drifted from its golden snapshot ({})\n{diff}\n\
             if the change is intentional, regenerate with \
             VT_UPDATE_GOLDEN=1 cargo test --test golden_figures",
            path.display()
        );
    }
}

// ---- Figure 5: memory scaling -------------------------------------------

#[test]
fn fig5_memory_matches_golden() {
    let model = MemoryModel::default(); // 12 ppn, B = 16 KiB, M = 4
    let mut out = String::from("# Fig. 5 (scaled): master memory by topology and node count\n");
    let mut table = Table::new(&[
        "topology",
        "nodes",
        "pool (KiB)",
        "VmRSS (KiB)",
        "incr (KiB)",
    ]);
    for kind in TopologyKind::ALL {
        for nodes in [16u32, 64, 256] {
            let topo = kind.build(nodes);
            table.row(&[
                kind.name().to_string(),
                nodes.to_string(),
                (model.cht_pool_bytes(&topo, 0) / 1024).to_string(),
                (model.master_vmrss_bytes(&topo, 0) / 1024).to_string(),
                (model.increment_bytes(&topo, 0) / 1024).to_string(),
            ]);
        }
    }
    out.push_str(&table.render());
    check_golden("fig5_memory.txt", &out);
}

// ---- Figures 6 and 7: contention protocol -------------------------------

fn contention_figure(title: &str, op: OpSpec) -> String {
    let jobs = [
        (TopologyKind::Fcg, Scenario::NoContention),
        (TopologyKind::Fcg, Scenario::pct20()),
        (TopologyKind::Mfcg, Scenario::NoContention),
        (TopologyKind::Mfcg, Scenario::pct20()),
        (TopologyKind::Cfcg, Scenario::NoContention),
        (TopologyKind::Cfcg, Scenario::pct20()),
        (TopologyKind::Hypercube, Scenario::NoContention),
    ];
    let mut out = format!("# {title}: 64 procs (16 nodes x 4 ppn), coalescing off\n");
    let mut table = Table::new(&[
        "topology",
        "scenario",
        "finish (us)",
        "mean (us)",
        "median (us)",
        "stream misses",
        "forwards",
        "net msgs",
    ]);
    for (topology, scenario) in jobs {
        let cfg = ContentionConfig {
            n_procs: 64,
            measure_stride: 8,
            iterations: 4,
            membership: membership_requested(),
            ..ContentionConfig::paper(topology, op, scenario)
        };
        let o = run(&cfg);
        table.row(&[
            topology.name().to_string(),
            scenario.label().to_string(),
            format!("{:.3}", o.finish.as_micros_f64()),
            format!("{:.3}", o.mean_us()),
            format!("{:.3}", o.median_us()),
            o.net.stream_misses.to_string(),
            o.cht.forwarded.to_string(),
            o.net.messages.to_string(),
        ]);
    }
    let _ = write!(out, "{}", table.render());
    out
}

#[test]
fn fig6_vector_ops_matches_golden() {
    check_golden(
        "fig6_vector_ops.txt",
        &contention_figure("Fig. 6 (scaled): vector put", OpSpec::vector_put()),
    );
}

#[test]
fn fig7_fetch_add_matches_golden() {
    check_golden(
        "fig7_fetch_add.txt",
        &contention_figure("Fig. 7 (scaled): fetch-&-add", OpSpec::fetch_add()),
    );
}

// ---- Regeneration guard --------------------------------------------------

#[test]
fn regen_guard_refuses_mismatched_config_stamps() {
    let stamp = config_stamp();
    // Fresh file / legacy unstamped file: regeneration is allowed.
    assert!(regen_guard(None, &stamp).is_ok());
    assert!(regen_guard(Some("# Fig. 5 (scaled): legacy header\n"), &stamp).is_ok());
    // Same stamp: allowed.
    let same = format!("{}# Fig. 5 ...\n", stamp_header(&stamp));
    assert!(regen_guard(Some(&same), &stamp).is_ok());
    // Different stamp — e.g. the committed membership-disabled baseline
    // against a membership-enabled regeneration run: refused.
    let other = "# config 0123456789abcdef\n# Fig. 5 ...\n";
    let refusal = regen_guard(Some(other), &stamp).unwrap_err();
    assert!(refusal.contains("refusing to overwrite"), "{refusal}");
    assert!(refusal.contains(&stamp), "{refusal}");
}

#[test]
fn baseline_config_stamp_is_pinned() {
    // The literal FNV-1a stamp of the baseline figure configuration,
    // pinned so core refactors (event queue, payload plumbing, hashers)
    // provably cannot drift the configuration descriptor — and with it the
    // committed snapshots — without a reviewed change to this constant.
    if membership_requested() {
        return; // the pin is for the baseline descriptor only
    }
    assert_eq!(config_stamp(), "c24d9f8164b8c159");
}

#[test]
fn committed_baselines_carry_the_membership_disabled_stamp() {
    // The committed snapshots must be regenerable under the baseline
    // (membership-off) configuration — i.e. their stamped header matches
    // what a default regeneration run would stamp. During a regeneration
    // run the snapshots are being rewritten concurrently, so the check
    // only applies to the committed state.
    if std::env::var_os("VT_UPDATE_GOLDEN").is_some() {
        return;
    }
    assert!(
        !membership_requested(),
        "golden comparison tests assume the baseline configuration"
    );
    for name in [
        "fig5_memory.txt",
        "fig6_vector_ops.txt",
        "fig7_fetch_add.txt",
    ] {
        let content = std::fs::read_to_string(golden_path(name)).unwrap();
        assert!(
            content.starts_with(&stamp_header(&config_stamp())),
            "{name} is not stamped with the baseline config"
        );
        assert!(regen_guard(Some(&content), &config_stamp()).is_ok());
    }
}
