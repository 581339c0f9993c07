//! CSV, Markdown, and JSON emission for experiment artifacts.
//!
//! Deliberately dependency-free (no serde): experiment outputs are simple
//! rectangular tables and per-panel curve files. JSON rendering goes
//! through the shared [`snc_json`] crate — the same escaper the
//! `snc-server` wire format uses, so report artifacts and service
//! responses cannot drift apart on string escaping.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A rectangular table of strings with a header row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as CSV (RFC-4180-style quoting for fields containing
    /// commas, quotes, or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            let mut first = true;
            for field in row {
                if !first {
                    out.push(',');
                }
                first = false;
                if field.contains(',') || field.contains('"') || field.contains('\n') {
                    out.push('"');
                    out.push_str(&field.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(field);
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders as a GitHub-flavored Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Writes the CSV form to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates IO errors.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(self.to_csv().as_bytes())?;
        f.flush()
    }
}

/// Formats a float with 4 significant decimals (curve values).
pub fn fmt_f(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering_and_quoting() {
        let mut t = Table::new(&["a", "b"]);
        t.push_row(vec!["1".into(), "plain".into()]);
        t.push_row(vec!["2".into(), "with,comma".into()]);
        t.push_row(vec!["3".into(), "with\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n1,plain\n"));
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new(&["x", "y"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| x | y |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn file_roundtrip() {
        let mut t = Table::new(&["k", "v"]);
        t.push_row(vec!["q".into(), "7".into()]);
        let path = std::env::temp_dir().join("snc_report_test/table.csv");
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "k,v\nq,7\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.87654321), "0.8765");
        assert_eq!(fmt_f(1.0), "1.0000");
    }
}
