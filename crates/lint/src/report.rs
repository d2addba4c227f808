//! Rendering of lint results: human text and hand-rolled JSON (the
//! vendored serde shim provides no serialization), mirroring
//! `vt-analyze`'s report idiom.

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

    /// Machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let one = |f: &Finding| {
            format!(
                "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"snippet\":\"{}\",\"note\":\"{}\"}}",
                f.rule,
                json_escape(&f.path),
                f.line,
                json_escape(&f.snippet),
                json_escape(&f.note)
            )
        };
        let findings: Vec<String> = self.findings.iter().map(one).collect();
        let allowed: Vec<String> = self.allowed.iter().map(one).collect();
        format!(
            "{{\"tool\":\"vt-lint\",\"clean\":{},\"files_scanned\":{},\"allow_entries\":{},\
             \"findings\":[{}],\"allowed\":[{}]}}",
            self.clean(),
            self.files_scanned,
            self.allow_entries,
            findings.join(","),
            allowed.join(",")
        )
    }
}

/// Minimal JSON string escaping (same contract as `vt_analyze`'s).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut f = finding();
        f.note = "a \"quoted\"\nnote".into();
        let r = LintReport {
            findings: vec![f],
            files_scanned: 1,
            ..Default::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"clean\":false"));
        assert!(j.contains("\\\"quoted\\\"\\nnote"));
        assert!(!j.contains('\n'));
    }
}
