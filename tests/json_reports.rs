//! JSON report snapshots: `vtsim repair`, `serve` and `chaos` with
//! `--format json`, compared byte for byte against the documents checked
//! in under `tests/golden/`. Every field, its order and its precision are
//! part of what CI and downstream scripts parse, so a change to any of
//! them shows up here as a diff to review.

use armci_vt::cli::run_command;
use std::path::Path;

fn assert_matches_golden(name: &str, cmd: &str, args: &[&str]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let out = run_command(cmd, &args).unwrap_or_else(|e| panic!("vtsim {cmd} failed: {e}"));
    assert_eq!(out, golden, "vtsim {cmd} {args:?} differs from {name}");
}

#[test]
fn repair_json_matches_golden() {
    assert_matches_golden("repair.json", "repair", &["--format", "json"]);
}

#[test]
fn serve_steady_json_matches_golden() {
    assert_matches_golden(
        "serve_steady.json",
        "serve",
        &["--preset", "steady", "--curve", "0.5,1", "--format", "json"],
    );
}

#[test]
fn chaos_quick_json_matches_golden() {
    assert_matches_golden(
        "chaos_quick.json",
        "chaos",
        &["--quick", "on", "--format", "json"],
    );
}
