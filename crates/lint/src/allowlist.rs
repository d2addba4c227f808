//! The committed exception register, `lint_allow.toml`.
//!
//! Each entry names a rule, the file, a `pattern` substring of the
//! offending source line, and a **mandatory justification**. Matching on a
//! line-content substring instead of a line number keeps entries stable
//! across unrelated edits to the same file. Stale entries (matching no
//! finding) are a hard error so the register can only shrink or stay
//! honest — an allowlist that outlives its finding is how coverage rots.
//!
//! The workspace is offline (no `toml` crate), so this module implements
//! exactly the subset the register uses: `[[allow]]` array-of-tables with
//! basic `key = "string"` pairs, `#` comments, and standard backslash
//! escapes. [`to_toml`] is the inverse; a proptest pins the round-trip.

use std::fmt;

/// One committed exception.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the exception applies to (`D1`..`D4`, `P1`).
    pub rule: String,
    /// Repo-relative path of the file (`crates/armci/src/engine/mod.rs`).
    pub path: String,
    /// Substring of the offending source line; a finding in `path` for
    /// `rule` whose line contains `pattern` is suppressed.
    pub pattern: String,
    /// Why the site is allowed to stand. Must be non-trivial.
    pub justification: String,
}

/// Parse/validation error with a 1-based line number into the TOML text.
#[derive(Debug, PartialEq, Eq)]
pub struct AllowError {
    /// 1-based line in `lint_allow.toml` (0 = whole-file problem).
    pub line: u32,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for AllowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint_allow.toml:{}: {}", self.line, self.msg)
    }
}

/// Minimum length for a justification to count as one — long enough that
/// "ok" or "legacy" can't slip through.
pub const MIN_JUSTIFICATION: usize = 15;

const KNOWN_RULES: [&str; 5] = ["D1", "D2", "D3", "D4", "P1"];

/// Parses the register. Returns every entry or the first error.
pub fn parse(text: &str) -> Result<Vec<AllowEntry>, AllowError> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut cur: Option<PartialEntry> = None;
    let mut cur_line = 0u32;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(p) = cur.take() {
                entries.push(p.finish(cur_line)?);
            }
            cur = Some(PartialEntry::default());
            cur_line = lineno;
            continue;
        }
        if line.starts_with('[') {
            return Err(AllowError {
                line: lineno,
                msg: format!("unknown table '{line}' (only [[allow]] is recognised)"),
            });
        }
        let (key, value) = parse_kv(&line, lineno)?;
        let Some(p) = cur.as_mut() else {
            return Err(AllowError {
                line: lineno,
                msg: format!("key '{key}' outside any [[allow]] table"),
            });
        };
        let slot = match key.as_str() {
            "rule" => &mut p.rule,
            "path" => &mut p.path,
            "pattern" => &mut p.pattern,
            "justification" => &mut p.justification,
            other => {
                return Err(AllowError {
                    line: lineno,
                    msg: format!("unknown key '{other}' (rule|path|pattern|justification)"),
                })
            }
        };
        if slot.is_some() {
            return Err(AllowError {
                line: lineno,
                msg: format!("duplicate key '{key}'"),
            });
        }
        *slot = Some(value);
    }
    if let Some(p) = cur.take() {
        entries.push(p.finish(cur_line)?);
    }
    Ok(entries)
}

/// Serializes entries back to the committed format. `parse(to_toml(e)) == e`
/// for every valid entry list (pinned by proptest).
pub fn to_toml(entries: &[AllowEntry]) -> String {
    let mut out = String::from(
        "# vt-lint exception register. Every entry must carry a justification;\n\
         # entries that no longer match a finding are a hard error (stale).\n",
    );
    for e in entries {
        out.push_str("\n[[allow]]\n");
        out.push_str(&format!("rule = \"{}\"\n", escape(&e.rule)));
        out.push_str(&format!("path = \"{}\"\n", escape(&e.path)));
        out.push_str(&format!("pattern = \"{}\"\n", escape(&e.pattern)));
        out.push_str(&format!(
            "justification = \"{}\"\n",
            escape(&e.justification)
        ));
    }
    out
}

#[derive(Default)]
struct PartialEntry {
    rule: Option<String>,
    path: Option<String>,
    pattern: Option<String>,
    justification: Option<String>,
}

impl PartialEntry {
    fn finish(self, line: u32) -> Result<AllowEntry, AllowError> {
        let need = |name: &str, v: Option<String>| {
            v.ok_or_else(|| AllowError {
                line,
                msg: format!("[[allow]] entry is missing '{name}'"),
            })
        };
        let entry = AllowEntry {
            rule: need("rule", self.rule)?,
            path: need("path", self.path)?,
            pattern: need("pattern", self.pattern)?,
            justification: need("justification", self.justification)?,
        };
        if !KNOWN_RULES.contains(&entry.rule.as_str()) {
            return Err(AllowError {
                line,
                msg: format!("unknown rule '{}' (D1|D2|D3|D4|P1)", entry.rule),
            });
        }
        if entry.pattern.trim().is_empty() {
            return Err(AllowError {
                line,
                msg: "pattern must be a non-empty line substring".into(),
            });
        }
        if entry.justification.trim().len() < MIN_JUSTIFICATION {
            return Err(AllowError {
                line,
                msg: format!(
                    "justification too short (< {MIN_JUSTIFICATION} chars): say *why* the \
                     site is safe, not that it is"
                ),
            });
        }
        Ok(entry)
    }
}

/// Strips a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `key = "value"` with backslash escapes.
fn parse_kv(line: &str, lineno: u32) -> Result<(String, String), AllowError> {
    let Some((key, rest)) = line.split_once('=') else {
        return Err(AllowError {
            line: lineno,
            msg: format!("expected key = \"value\", got '{line}'"),
        });
    };
    let key = key.trim().to_string();
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| AllowError {
            line: lineno,
            msg: format!("value for '{key}' must be a double-quoted string"),
        })?;
    // A trailing backslash would have escaped the closing quote we just
    // stripped; reject rather than mis-parse.
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            if c == '"' {
                return Err(AllowError {
                    line: lineno,
                    msg: format!("unescaped '\"' inside value for '{key}'"),
                });
            }
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            other => {
                return Err(AllowError {
                    line: lineno,
                    msg: format!(
                        "bad escape '\\{}' in value for '{key}'",
                        other.unwrap_or(' ')
                    ),
                })
            }
        }
    }
    Ok((key, out))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn entry() -> AllowEntry {
        AllowEntry {
            rule: "D4".into(),
            path: "crates/armci/src/engine.rs".into(),
            pattern: "0.8 * m.mean_interval_ns[idx]".into(),
            justification: "per-node scalar EWMA updated in deterministic event order".into(),
        }
    }

    #[test]
    fn round_trip_one_entry() {
        let e = vec![entry()];
        assert_eq!(parse(&to_toml(&e)).unwrap(), e);
    }

    #[test]
    fn round_trip_escapes() {
        let mut e = entry();
        e.pattern = "say \"hi\"\\path\nnewline\ttab".into();
        let e = vec![e];
        assert_eq!(parse(&to_toml(&e)).unwrap(), e);
    }

    #[test]
    fn missing_justification_is_an_error() {
        let toml = "[[allow]]\nrule = \"D1\"\npath = \"x.rs\"\npattern = \"y\"\n";
        let err = parse(toml).unwrap_err();
        assert!(err.msg.contains("missing 'justification'"), "{err}");
    }

    #[test]
    fn short_justification_is_an_error() {
        let toml = "[[allow]]\nrule = \"D1\"\npath = \"x.rs\"\npattern = \"y\"\n\
                    justification = \"ok\"\n";
        let err = parse(toml).unwrap_err();
        assert!(err.msg.contains("too short"), "{err}");
    }

    #[test]
    fn unknown_rule_and_key_are_errors() {
        let toml = "[[allow]]\nrule = \"D9\"\npath = \"x.rs\"\npattern = \"y\"\n\
                    justification = \"a long enough justification\"\n";
        assert!(parse(toml).unwrap_err().msg.contains("unknown rule"));
        let toml2 = "[[allow]]\nrle = \"D1\"\n";
        assert!(parse(toml2).unwrap_err().msg.contains("unknown key"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!("# header\n\n{}# trailing\n", to_toml(&[entry()]));
        assert_eq!(parse(&text).unwrap(), vec![entry()]);
    }

    #[test]
    fn hash_inside_value_is_not_a_comment() {
        let mut e = entry();
        e.justification = "issue #42 tracks the sharded-merge question".into();
        let e = vec![e];
        assert_eq!(parse(&to_toml(&e)).unwrap(), e);
    }
}
