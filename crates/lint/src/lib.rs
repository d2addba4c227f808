//! # vt-lint — workspace determinism & panic-policy static analyzer
//!
//! Every PR in this repo keeps one contract: byte-identical timelines,
//! golden snapshots, differential oracles. Until now that contract was
//! enforced only *dynamically* — by re-running and diffing. `vt-lint`
//! enforces it *statically*: it lexes every workspace source file and
//! turns the determinism discipline into named, machine-checked rules
//! (D1–D4) plus a panic-policy audit (P1), so an unordered `HashMap`
//! iteration or a stray wall-clock read fails the build before it can
//! silently break replay determinism across worker counts — exactly the
//! hazard class the sharded parallel engine (ROADMAP 1) will be exposed
//! to.
//!
//! The build environment is fully offline (no `syn`), so the analyzer
//! works on a hand-rolled token stream ([`lexer`]) rather than a full AST:
//! sound about what is code vs. comment/string, line-accurate, and
//! dependency-free. Exceptions live in the committed `lint_allow.toml`
//! ([`allowlist`]) with mandatory per-entry justifications; stale entries
//! are a hard error. Surfaced as `vtsim lint` and a blocking CI job, and
//! backed dynamically by scheduled Miri and ThreadSanitizer jobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod allowlist;
pub mod lexer;
pub mod report;
pub mod rules;

pub use allowlist::{parse as parse_allowlist, to_toml, AllowEntry, AllowError};
pub use report::{Finding, LintReport};
pub use rules::{check_file, FileScope, RawFinding, Rule};

use std::path::{Path, PathBuf};

/// A fatal analyzer error (I/O, malformed allowlist, stale entries) — as
/// opposed to findings, which are reported, not thrown.
#[derive(Debug)]
pub enum LintError {
    /// Filesystem problem reading the workspace.
    Io(String),
    /// `lint_allow.toml` is malformed or has an invalid entry.
    Allowlist(String),
    /// Allowlist entries that matched no finding: the register has gone
    /// stale and must shrink.
    StaleAllow(Vec<AllowEntry>),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(e) => write!(f, "i/o: {e}"),
            LintError::Allowlist(e) => write!(f, "allowlist: {e}"),
            LintError::StaleAllow(entries) => {
                writeln!(
                    f,
                    "stale lint_allow.toml entries (matched no finding — remove them):"
                )?;
                for e in entries {
                    writeln!(f, "  [{}] {} :: {:?}", e.rule, e.path, e.pattern)?;
                }
                Ok(())
            }
        }
    }
}

/// Classifies a repo-relative source path into the rule scopes that apply.
///
/// * Protocol paths (D1/D4): `crates/armci/src` and `crates/simnet/src`,
///   minus the reporting modules `metrics.rs` / `stats.rs` (percentile
///   rendering legitimately uses floats and ordered output formatting).
/// * Sim crates (D2): `core`, `simnet`, `armci`, `analyze`, `apps`.
///   `vt-bench` measures wall-clock time *by design* and the root CLI
///   parses `env::args`; both stay outside D2 (D3/P1 still apply there).
pub fn classify(rel_path: &str) -> FileScope {
    let p = rel_path.replace('\\', "/");
    let crate_name = p
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or(if p.starts_with("src/") { "root" } else { "" });
    let stem = p.rsplit('/').next().unwrap_or("");
    let reporting = matches!(stem, "metrics.rs" | "stats.rs");
    FileScope {
        protocol_path: matches!(crate_name, "armci" | "simnet") && !reporting,
        sim_crate: matches!(crate_name, "core" | "simnet" | "armci" | "analyze" | "apps"),
    }
}

/// Lints one file's source under an explicit scope, returning located
/// findings (used by the fixture selftests and [`lint_workspace`]).
pub fn lint_source(rel_path: &str, src: &str, scope: FileScope) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    check_file(src, scope)
        .into_iter()
        .map(|raw| Finding {
            rule: raw.rule,
            path: rel_path.to_string(),
            line: raw.line,
            snippet: lines
                .get(raw.line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
            note: raw.note,
        })
        .collect()
}

/// Walks the workspace at `root` (every `crates/*/src/**/*.rs` plus the
/// root crate's `src/**/*.rs`; `vendor/`, `tests/`, and `examples/` are out
/// of scope), lints each file, and applies the allowlist at `allow_path`
/// (pass `None` for `<root>/lint_allow.toml`; a missing file means an
/// empty register).
pub fn lint_workspace(root: &Path, allow_path: Option<&Path>) -> Result<LintReport, LintError> {
    let default_allow = root.join("lint_allow.toml");
    let allow_path = allow_path.unwrap_or(&default_allow);
    let allow = match std::fs::read_to_string(allow_path) {
        Ok(text) => allowlist::parse(&text).map_err(|e| LintError::Allowlist(e.to_string()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(LintError::Io(format!("{}: {e}", allow_path.display()))),
    };

    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for member in sorted_dir(&crates_dir)? {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    files.sort();

    let mut report = LintReport {
        allow_entries: allow.len(),
        files_scanned: files.len(),
        ..Default::default()
    };
    let mut matched = vec![false; allow.len()];
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)
            .map_err(|e| LintError::Io(format!("{}: {e}", path.display())))?;
        for finding in lint_source(&rel, &src, classify(&rel)) {
            let hit = allow.iter().position(|a| {
                a.rule == finding.rule.id()
                    && a.path == finding.path
                    && finding.snippet.contains(&a.pattern)
            });
            match hit {
                Some(idx) => {
                    matched[idx] = true;
                    report.allowed.push(finding);
                }
                None => report.findings.push(finding),
            }
        }
    }
    let stale: Vec<AllowEntry> = allow
        .iter()
        .zip(&matched)
        .filter(|&(_, &m)| !m)
        .map(|(a, _)| a.clone())
        .collect();
    if !stale.is_empty() {
        return Err(LintError::StaleAllow(stale));
    }
    Ok(report)
}

/// Immediate subdirectories of `dir`, sorted by name for deterministic
/// walk order (the report must be byte-identical across filesystems).
fn sorted_dir(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    let rd =
        std::fs::read_dir(dir).map_err(|e| LintError::Io(format!("{}: {e}", dir.display())))?;
    for entry in rd {
        let entry = entry.map_err(|e| LintError::Io(format!("{}: {e}", dir.display())))?;
        if entry.path().is_dir() {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let rd =
        std::fs::read_dir(dir).map_err(|e| LintError::Io(format!("{}: {e}", dir.display())))?;
    let mut entries: Vec<PathBuf> = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| LintError::Io(format!("{}: {e}", dir.display())))?;
        entries.push(entry.path());
    }
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_policy() {
        let engine = classify("crates/armci/src/engine.rs");
        assert!(engine.protocol_path && engine.sim_crate);
        let metrics = classify("crates/armci/src/metrics.rs");
        assert!(!metrics.protocol_path && metrics.sim_crate);
        let bench = classify("crates/bench/src/throughput.rs");
        assert!(!bench.protocol_path && !bench.sim_crate);
        let cli = classify("src/cli.rs");
        assert!(!cli.protocol_path && !cli.sim_crate);
        let core = classify("crates/core/src/graph.rs");
        assert!(!core.protocol_path && core.sim_crate);
    }

    #[test]
    fn lint_source_attaches_snippets() {
        let src = "fn f() { g().unwrap(); }\n";
        let f = lint_source("x.rs", src, FileScope::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].snippet, "fn f() { g().unwrap(); }");
        assert_eq!(f[0].line, 1);
    }
}
