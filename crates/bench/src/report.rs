//! Table rendering and result persistence for the experiment harness.

use std::fmt::Write as _;
use std::path::Path;

/// A printable results table: header plus rows of (label, values).
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Creates a table with a title and value-column names.
    pub fn new(title: &str, columns: &[impl AsRef<str>]) -> Self {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the column count.
    pub fn push(&mut self, label: &str, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.to_string(), values));
    }

    /// Appends a geometric-mean row over all current rows.
    pub fn push_geomean(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        let n = self.columns.len();
        let mut gm = vec![0.0f64; n];
        for (_, values) in &self.rows {
            for (g, v) in gm.iter_mut().zip(values) {
                *g += v.max(1e-300).ln();
            }
        }
        let count = self.rows.len() as f64;
        let values = gm.into_iter().map(|g| (g / count).exp()).collect();
        self.rows.push(("GM".to_string(), values));
    }

    /// The rows `(label, values)`.
    pub fn rows(&self) -> &[(String, Vec<f64>)] {
        &self.rows
    }

    /// The value of `(row label, column name)`, if present.
    pub fn get(&self, label: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        self.rows
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v[c])
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([8])
            .max()
            .unwrap_or(8);
        let col_w = 12usize;
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:label_w$}", "");
        for c in &self.columns {
            let _ = write!(out, " {c:>col_w$}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for v in values {
                let _ = write!(out, " {v:>col_w$.3}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders as CSV (RFC 4180): a label or column name holding a
    /// comma, a quote or a line break is quoted, its quotes doubled.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let columns: Vec<String> = self.columns.iter().map(|c| csv_field(c)).collect();
        let _ = writeln!(out, "label,{}", columns.join(","));
        for (label, values) in &self.rows {
            let vals: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
            let _ = writeln!(out, "{},{}", csv_field(label), vals.join(","));
        }
        out
    }

    /// Prints to stdout and writes `results/<name>.csv`.
    pub fn emit(&self, results_dir: &Path, name: &str) {
        println!("{}", self.render());
        if std::fs::create_dir_all(results_dir).is_ok() {
            let _ = std::fs::write(results_dir.join(format!("{name}.csv")), self.to_csv());
        }
    }
}

/// `text` as one CSV field: quoted, with its quotes doubled, when it
/// holds a comma, a quote or a line break; as it is otherwise.
fn csv_field(text: &str) -> String {
    if text.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", text.replace('"', "\"\""))
    } else {
        text.to_string()
    }
}

/// Geometric mean of a slice (ignores non-positive entries safely).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (s / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_computes_geomean() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push("r1", vec![2.0, 8.0]);
        t.push("r2", vec![8.0, 2.0]);
        t.push_geomean();
        let gm = t.get("GM", "a").unwrap();
        assert!((gm - 4.0).abs() < 1e-9);
        let rendered = t.render();
        assert!(rendered.contains("demo"));
        assert!(rendered.contains("r1"));
        let csv = t.to_csv();
        assert!(csv.starts_with("label,a,b"));
    }

    #[test]
    fn csv_quotes_fields_that_hold_separators() {
        let mut t = Table::new("demo", &["plain", "a,b", "say \"hi\""]);
        t.push("corr(bw,clock)", vec![0.5, 1.0, 2.0]);
        t.push("two\nlines", vec![1.0, 2.0, 3.0]);
        t.push("GM", vec![1.5, 2.5, 3.5]);
        assert_eq!(
            t.to_csv(),
            "label,plain,\"a,b\",\"say \"\"hi\"\"\"\n\
             \"corr(bw,clock)\",0.5,1,2\n\
             \"two\nlines\",1,2,3\n\
             GM,1.5,2.5,3.5\n"
        );
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("demo", &["a"]);
        t.push("r", vec![1.0, 2.0]);
    }
}
