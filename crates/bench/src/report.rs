//! Table rendering and result persistence for the experiment harness.

use bistream_types::jsonlite::json_str;
use std::fmt::Write as _;
use std::path::Path;

/// A simple aligned-column table that prints like the rows the paper's
/// tables report, and renders to JSON for post-processing.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (experiment id + description).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of preformatted values.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, values: Vec<String>) {
        assert_eq!(values.len(), self.columns.len(), "row arity");
        self.rows.push(values);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, v) in row.iter().enumerate() {
                widths[i] = widths[i].max(v.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().enumerate().map(|(i, v)| format!("{:>w$}", v, w = widths[i])).collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Render as a JSON object with the keys `title`, `columns`, `rows`;
    /// one row per line, every cell a string.
    pub fn to_json(&self) -> String {
        let array = |cells: &[String]| {
            format!("[{}]", cells.iter().map(|c| json_str(c)).collect::<Vec<_>>().join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| format!("    {}", array(r))).collect();
        format!(
            "{{\n  \"title\": {},\n  \"columns\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            json_str(&self.title),
            array(&self.columns),
            rows.join(",\n")
        )
    }

    /// Print to stdout and persist as JSON under `results/<name>.json`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        if let Err(e) = self.save_json(name) {
            eprintln!("(warn) could not save results/{name}.json: {e}");
        }
    }

    fn save_json(&self, name: &str) -> std::io::Result<()> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, self.to_json())
    }
}

/// Format a float with `d` decimals.
pub fn f(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

/// Format bytes as MiB with one decimal.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "20000".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows share the same width.
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(mib(1024 * 1024 * 3 / 2), "1.5");
    }
}
