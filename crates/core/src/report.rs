//! Plain-text table rendering and results persistence.
//!
//! Every experiment binary prints the same rows/series as the paper's
//! tables and figures and mirrors them to `results/<name>.txt` so
//! EXPERIMENTS.md can reference stable artifacts.

use std::io::Write;
use std::path::{Path, PathBuf};

/// A fixed-width text table.
///
/// # Examples
///
/// ```
/// use saga_core::report::TextTable;
///
/// let mut t = TextTable::new(["alg", "latency"]);
/// t.add_row(["BFS", "0.17"]);
/// let s = t.render();
/// assert!(s.contains("BFS"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn add_row<I, S>(&mut self, row: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as CSV (RFC-4180 quoting for cells containing commas or
    /// quotes), for downstream plotting.
    pub fn to_csv(&self) -> String {
        fn csv_cell(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let row: Vec<String> = cells.iter().map(|c| csv_cell(c)).collect();
            out.push_str(&row.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }

    /// Renders with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Writes `content` to `results/<name>` (creating the directory, and any
/// subdirectory `name` names), echoing the path. Returns the path written.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the file.
pub fn write_results_file(name: &str, content: &str) -> std::io::Result<PathBuf> {
    write_results_file_in(&results_dir(), name, content)
}

/// [`write_results_file`] with an explicit directory instead of the
/// `$SAGA_RESULTS_DIR` lookup. Tests use this to avoid mutating the
/// process environment (`set_var` races against parallel tests reading it).
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the file.
pub fn write_results_file_in(dir: &Path, name: &str, content: &str) -> std::io::Result<PathBuf> {
    let path = dir.join(name);
    std::fs::create_dir_all(path.parent().unwrap_or(dir))?;
    let mut f = std::fs::File::create(&path)?;
    f.write_all(content.as_bytes())?;
    Ok(path)
}

/// Writes the current metrics-registry snapshot to
/// `results/<stem>.metrics.csv` and returns the path (`None` when the
/// registry is empty). Figure binaries call this after their runs so
/// software timings and simulated hardware counters land in one artifact.
///
/// # Errors
///
/// Returns any I/O error from writing the snapshot file.
pub fn write_metrics_snapshot(stem: &str) -> std::io::Result<Option<PathBuf>> {
    let snap = saga_trace::metrics::snapshot();
    if snap.is_empty() {
        return Ok(None);
    }
    write_results_file(&format!("{stem}.metrics.csv"), &snap.to_csv()).map(Some)
}

/// The results directory: `$SAGA_RESULTS_DIR` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("SAGA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("results").to_path_buf())
}

/// Formats seconds like the paper's tables (4 decimal places).
pub fn fmt_secs(seconds: f64) -> String {
    format!("{seconds:.4}")
}

/// Formats a ratio with two decimals and an `x` suffix (`1.66x`).
pub fn fmt_ratio(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// Formats a fraction as a percentage (`41.3%`).
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_pads_columns() {
        let mut t = TextTable::new(["a", "long-header"]);
        t.add_row(["xxxxxx", "y"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     "));
        assert!(lines[2].starts_with("xxxxxx"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(["a", "b"]);
        t.add_row(["only-one"]);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = TextTable::new(["a", "b"]);
        t.add_row(["plain", "has,comma"]);
        t.add_row(["has\"quote", "x"]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "plain,\"has,comma\"");
        assert_eq!(lines[2], "\"has\"\"quote\",x");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.17054), "0.1705");
        assert_eq!(fmt_ratio(1.6649), "1.66x");
        assert_eq!(fmt_pct(0.413), "41.3%");
    }

    #[test]
    fn results_file_roundtrip() {
        // Explicit directory override: mutating SAGA_RESULTS_DIR here
        // would race against any parallel test that calls results_dir().
        let dir = std::env::temp_dir().join("saga-test-results");
        let path = write_results_file_in(&dir, "unit.txt", "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello");
        assert!(path.starts_with(&dir));
    }
}
