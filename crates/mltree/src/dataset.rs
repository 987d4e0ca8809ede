use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// A feature matrix with integer class labels.
///
/// Rows are feature vectors (`f64`), labels are class indices. The CSV
/// format (`feature…,label` with a header row) matches the artifact's
/// `dataset-exp.csv` layout so datasets and models can be inspected and
/// persisted without extra dependencies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    feature_names: Vec<String>,
    features: Vec<Vec<f64>>,
    labels: Vec<usize>,
}

impl Dataset {
    /// An empty dataset with the given feature names.
    pub fn new(feature_names: Vec<String>) -> Self {
        Dataset {
            feature_names,
            features: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Appends one example.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the feature count.
    pub fn push(&mut self, row: Vec<f64>, label: usize) {
        assert_eq!(
            row.len(),
            self.feature_names.len(),
            "row has {} features, dataset has {}",
            row.len(),
            self.feature_names.len()
        );
        self.features.push(row);
        self.labels.push(label);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if no examples are stored.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per example.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// The number of classes (`max label + 1`).
    pub fn n_classes(&self) -> usize {
        self.labels.iter().max().map_or(0, |m| m + 1)
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The feature row of example `i`.
    pub fn feature_row(&self, i: usize) -> &[f64] {
        &self.features[i]
    }

    /// The label of example `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Iterates over `(features, label)` pairs.
    pub fn rows(&self) -> impl Iterator<Item = (&[f64], usize)> + '_ {
        self.features
            .iter()
            .map(Vec::as_slice)
            .zip(self.labels.iter().copied())
    }

    /// The sub-dataset at the given example indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            feature_names: self.feature_names.clone(),
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
        }
    }

    /// A copy keeping only the first `n` feature columns (labels
    /// unchanged) — used by ablation studies that drop trailing
    /// feature groups.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the feature count.
    pub fn project_prefix(&self, n: usize) -> Dataset {
        assert!(
            n <= self.n_features(),
            "cannot keep {n} of {} features",
            self.n_features()
        );
        Dataset {
            feature_names: self.feature_names[..n].to_vec(),
            features: self.features.iter().map(|r| r[..n].to_vec()).collect(),
            labels: self.labels.clone(),
        }
    }

    /// Serialises to CSV (`header…,label`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{},label", self.feature_names.join(","));
        for (x, y) in self.rows() {
            for v in x {
                let _ = write!(out, "{v},");
            }
            let _ = writeln!(out, "{y}");
        }
        out
    }

    /// Parses the CSV produced by [`Dataset::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error with a descriptive message on malformed
    /// input.
    pub fn from_csv(text: &str) -> io::Result<Dataset> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty CSV"))?;
        let mut cols: Vec<String> = header.split(',').map(str::to_string).collect();
        if cols.pop().as_deref() != Some("label") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "last CSV column must be 'label'",
            ));
        }
        let mut d = Dataset::new(cols);
        for (lineno, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts: Vec<&str> = line.split(',').collect();
            let label: usize =
                parts
                    .pop()
                    .and_then(|s| s.trim().parse().ok())
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad label on line {}", lineno + 2),
                        )
                    })?;
            let row: Result<Vec<f64>, _> = parts.iter().map(|s| s.trim().parse()).collect();
            let row = row.map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad feature on line {}: {e}", lineno + 2),
                )
            })?;
            if row.len() != d.n_features() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {} has {} features", lineno + 2, row.len()),
                ));
            }
            d.push(row, label);
        }
        Ok(d)
    }

    /// Writes the CSV to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())
    }

    /// Loads a CSV file.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse errors.
    pub fn load(path: &Path) -> io::Result<Dataset> {
        let file = std::fs::File::open(path)?;
        let mut text = String::new();
        for line in io::BufReader::new(file).lines() {
            text.push_str(&line?);
            text.push('\n');
        }
        Dataset::from_csv(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        d.push(vec![1.0, 2.0], 0);
        d.push(vec![3.5, -1.0], 2);
        d
    }

    #[test]
    fn push_and_query() {
        let d = sample();
        assert_eq!(d.len(), 2);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.feature_row(1), &[3.5, -1.0]);
        assert_eq!(d.label(1), 2);
    }

    #[test]
    fn csv_roundtrip() {
        let d = sample();
        let parsed = Dataset::from_csv(&d.to_csv()).unwrap();
        assert_eq!(d, parsed);
    }

    #[test]
    fn rejects_malformed_csv() {
        assert!(Dataset::from_csv("a,b\n1,2\n").is_err()); // no label column
        assert!(Dataset::from_csv("a,label\nxyz,0\n").is_err()); // bad float
        assert!(Dataset::from_csv("a,label\n1,zzz\n").is_err()); // bad label
    }

    #[test]
    fn project_prefix_keeps_leading_columns() {
        let d = sample();
        let p = d.project_prefix(1);
        assert_eq!(p.n_features(), 1);
        assert_eq!(p.feature_row(1), &[3.5]);
        assert_eq!(p.label(1), 2);
    }

    #[test]
    #[should_panic(expected = "features")]
    fn project_prefix_too_wide_panics() {
        sample().project_prefix(3);
    }

    #[test]
    fn subset_selects_rows() {
        let d = sample();
        let s = d.subset(&[1]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.label(0), 2);
    }

    #[test]
    #[should_panic(expected = "features")]
    fn push_wrong_arity_panics() {
        sample().push(vec![1.0], 0);
    }
}
