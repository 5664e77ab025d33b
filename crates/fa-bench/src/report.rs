//! Plain-text rendering of experiment results.
//!
//! Every experiment binary prints a fixed-width table (rows = workloads,
//! columns = systems or metrics) plus, where the paper uses one, a series
//! listing. The format is intentionally stable so two runs of a figure
//! binary (for example serial against parallel in CI) can be diffed.

use std::fmt::Write as _;

/// A simple fixed-width table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Missing cells render empty; extra cells are kept.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut header_line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(header_line, "{:<width$}  ", h, width = widths[i]);
        }
        let _ = writeln!(out, "{}", header_line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header_line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:<width$}  ", cell, width = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }
}

/// Formats a float with one decimal.
pub(crate) fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a value normalized to a baseline (baseline = 1.0).
pub(crate) fn normalized(value: f64, baseline: f64) -> String {
    if baseline <= 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.2}", value / baseline)
    }
}

/// Formats a percentage.
pub(crate) fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Renders a `(time, value)` series as `t=..s v=..` lines, downsampled to at
/// most `max_points` points.
pub(crate) fn render_series(title: &str, points: &[(f64, f64)], max_points: usize) -> String {
    let mut out = format!("-- {title} --\n");
    if points.is_empty() {
        out.push_str("(empty)\n");
        return out;
    }
    let stride = (points.len() / max_points.max(1)).max(1);
    for (i, (t, v)) in points.iter().enumerate() {
        if i % stride == 0 || i == points.len() - 1 {
            let _ = writeln!(out, "t={t:.6}s  v={v:.3}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["short".into(), "1.0".into()]);
        t.row(vec!["a-much-longer-name".into(), "2.0".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("a-much-longer-name"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // Header separator is as wide as the header line.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].chars().all(|c| c == '-'));
    }

    #[test]
    fn numeric_formatting_helpers() {
        assert_eq!(f1(12.34), "12.3");
        assert_eq!(normalized(2.0, 4.0), "0.50");
        assert_eq!(normalized(1.0, 0.0), "n/a");
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    fn series_rendering_downsamples() {
        let points: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64 * 2.0)).collect();
        let s = render_series("series", &points, 10);
        let lines = s.lines().count();
        assert!(lines <= 13, "rendered {lines} lines");
        assert!(s.contains("t=99.000000s"));
        assert_eq!(render_series("empty", &[], 10).lines().count(), 2);
    }
}
