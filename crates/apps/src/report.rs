//! Plain-text report formatting for the figure harnesses.
//!
//! Output follows the paper's figures: each series is a `# label` header
//! followed by whitespace-separated `x y` rows — directly loadable by
//! gnuplot or any plotting tool.

use std::fmt::Write as _;

/// A named (x, y) series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// A series with a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// Mean of the y values (0 for an empty series).
    pub fn mean_y(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, y)| y).sum::<f64>() / self.points.len() as f64
    }
}

/// A figure panel: a title, axis names, and one or more series.
#[derive(Clone, Debug)]
pub struct Panel {
    /// Panel title, e.g. `Figure 6(a): FCG & MFCG with No Contention`.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Panel {
    /// An empty panel.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Panel {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series and returns self (builder style).
    pub fn with(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Renders the panel as gnuplot-ready text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# ===== {} =====", self.title);
        let _ = writeln!(out, "# x: {}    y: {}", self.x_label, self.y_label);
        for s in &self.series {
            let _ = writeln!(out, "\n# series: {}", s.label);
            for &(x, y) in &s.points {
                let _ = writeln!(out, "{x:>12.3} {y:>16.3}");
            }
        }
        out
    }

    /// Finds a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

/// An aligned text table (used for Fig. 5-style numeric summaries).
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_stats() {
        let s = Series::new("fcg", vec![(1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(s.mean_y(), 15.0);
        assert_eq!(Series::new("e", vec![]).mean_y(), 0.0);
    }

    #[test]
    fn panel_renders_all_series() {
        let p = Panel::new("Figure X", "rank", "us")
            .with(Series::new("fcg", vec![(1.0, 2.0)]))
            .with(Series::new("mfcg", vec![(1.0, 3.0)]));
        let text = p.render();
        assert!(text.contains("Figure X"));
        assert!(text.contains("# series: fcg"));
        assert!(text.contains("# series: mfcg"));
        assert!(p.series("mfcg").is_some());
        assert!(p.series("nope").is_none());
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["topology", "MB"]);
        t.row(&["fcg".into(), "1424.0".into()]);
        t.row(&["hypercube".into(), "630.1".into()]);
        let text = t.render();
        assert!(text.contains("topology"));
        assert!(text.lines().count() >= 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
