//! Rendering of analysis results: human text, a JSON object built with
//! [`vt_core::json`], and Graphviz DOT for cycle counterexamples.

use crate::{AnalysisReport, CycleWitness};
use std::fmt::Write as _;
use vt_core::json::Object;

impl CycleWitness {
    /// Number of `(channel, class)` vertices on the closed walk (the
    /// closing repeat excluded).
    pub fn len(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }

    /// True for a degenerate (empty) witness — never produced by the
    /// analyzer, present for API completeness.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-line rendering: `(0->1 c0) -> (1->2 c0) -> (0->1 c0)`.
    pub fn label(&self) -> String {
        self.hops
            .iter()
            .map(|((f, t), c)| format!("({f}->{t} c{c})"))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// Graphviz DOT rendering of the offending cycle: one node per
    /// `(channel, class)` buffer, arcs along the wait-for order.
    pub fn dot(&self) -> String {
        let mut out = String::from("digraph buffer_wait_cycle {\n");
        out.push_str("  label=\"buffer wait-for cycle (counterexample)\";\n");
        out.push_str("  node [shape=box, fontname=\"monospace\"];\n");
        for ((f, t), c) in self.hops.iter().take(self.len()) {
            let _ = writeln!(
                out,
                "  \"e{f}_{t}_c{c}\" [label=\"edge {f}->{t}\\nclass {c}\"];"
            );
        }
        for w in self.hops.windows(2) {
            let ((f1, t1), c1) = w[0];
            let ((f2, t2), c2) = w[1];
            let _ = writeln!(out, "  \"e{f1}_{t1}_c{c1}\" -> \"e{f2}_{t2}_c{c2}\";");
        }
        out.push_str("}\n");
        out
    }
}

impl AnalysisReport {
    /// Machine-readable JSON object: the configuration, the verdict,
    /// every check, and the counterexample and model-check result when
    /// present.
    pub fn json(&self) -> Object {
        let checks: Vec<Object> = self
            .checks
            .iter()
            .map(|c| {
                Object::new()
                    .field("name", &c.name)
                    .field("passed", c.passed)
                    .field("detail", &c.detail)
            })
            .collect();
        let mut doc = Object::new()
            .field("topology", &self.topology)
            .field("nodes", self.nodes)
            .field("procs_per_node", self.procs_per_node)
            .field("coalescing", self.coalescing)
            .field("dead", &self.dead)
            .field("certified", self.certified())
            .field("checks", checks);
        if let Some(w) = &self.counterexample {
            doc = doc.field("counterexample", w.label());
        }
        if let Some(m) = &self.model {
            doc = doc.field(
                "model",
                Object::new()
                    .field("states", m.states)
                    .field("transitions", m.transitions)
                    .field("quiescent", m.quiescent)
                    .field("sleep_skips", m.sleep_skips)
                    .field("passed", m.passed())
                    .field("violations", &m.violations),
            );
        }
        doc
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "vt-analyze: {} over {} nodes ({} ppn, coalescing {}, dead {:?})",
            self.topology,
            self.nodes,
            self.procs_per_node,
            if self.coalescing { "on" } else { "off" },
            self.dead
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  [{}] {:<18} {}",
                if c.passed { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        if let Some(m) = &self.model {
            let _ = writeln!(
                out,
                "  [{}] {:<18} {} states, {} transitions, {} quiescent, {} sleep-set prunes",
                if m.passed() { "PASS" } else { "FAIL" },
                "model-check",
                m.states,
                m.transitions,
                m.quiescent,
                m.sleep_skips
            );
            for v in &m.violations {
                let _ = writeln!(out, "         violation: {v}");
            }
        }
        if let Some(w) = &self.counterexample {
            let _ = writeln!(out, "  counterexample: {}", w.label());
        }
        let _ = writeln!(
            out,
            "  verdict: {}",
            if self.certified() {
                "CERTIFIED deadlock-free"
            } else {
                "NOT CERTIFIED"
            }
        );
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn witness_dot_contains_every_hop() {
        let w = CycleWitness {
            hops: vec![((0, 1), 0), ((1, 2), 1), ((0, 1), 0)],
        };
        assert_eq!(w.len(), 2);
        let dot = w.dot();
        assert!(dot.contains("e0_1_c0"));
        assert!(dot.contains("e1_2_c1"));
        assert!(dot.contains("\"e1_2_c1\" -> \"e0_1_c0\""));
        assert!(w.label().contains("(0->1 c0) -> (1->2 c1)"));
    }
}
