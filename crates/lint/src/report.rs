//! Rendering of lint results as human text. The JSON document is built
//! by `vtsim lint` with `vt_core::json`, so this crate keeps no
//! dependencies.

use crate::rules::Rule;
use std::fmt::Write as _;

/// One finding, located in the workspace.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Repo-relative path (`crates/armci/src/engine/mod.rs`).
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Why the rule fired.
    pub note: String,
}

/// The full result of a workspace lint run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Unallowlisted findings — any entry here fails the gate.
    pub findings: Vec<Finding>,
    /// Findings matched (and silenced) by `lint_allow.toml` entries.
    pub allowed: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of allowlist entries loaded.
    pub allow_entries: usize,
}

impl LintReport {
    /// True when the gate passes.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human rendering: one block per finding, then a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{} [{}] {}", f.path, f.line, f.rule, f.note);
            let _ = writeln!(out, "    {}", f.snippet);
        }
        let _ = writeln!(
            out,
            "vt-lint: {} file(s) scanned, {} finding(s), {} allowlisted \
             (register: {} entr{})",
            self.files_scanned,
            self.findings.len(),
            self.allowed.len(),
            self.allow_entries,
            if self.allow_entries == 1 { "y" } else { "ies" },
        );
        let _ = writeln!(
            out,
            "determinism gate: {}",
            if self.clean() { "CLEAN" } else { "FINDINGS" }
        );
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: Rule::D1,
            path: "crates/armci/src/engine.rs".into(),
            line: 42,
            snippet: "for k in map.keys() {".into(),
            note: "unordered iteration".into(),
        }
    }

    #[test]
    fn human_render_has_location_and_verdict() {
        let mut r = LintReport {
            files_scanned: 3,
            ..Default::default()
        };
        assert!(r.render().contains("CLEAN"));
        r.findings.push(finding());
        let text = r.render();
        assert!(text.contains("crates/armci/src/engine.rs:42 [D1]"));
        assert!(text.contains("FINDINGS"));
    }
}
