//! CSV dataset loading — the bring-your-own-data path.
//!
//! The reproduction ships synthetic generators, but a downstream user will
//! want to run the pipeline on real features (e.g. pre-extracted CIFAR-10
//! embeddings). Format: one sample per line, comma-separated feature
//! values with the **label as the last column**; an optional header line
//! is skipped automatically when its first field does not parse as a
//! number. Labels may be arbitrary non-negative integers; they are
//! compacted to `0..num_classes` preserving order of first appearance.

use std::io::BufRead;
use std::path::Path;

use gfl_tensor::{Matrix, Scalar};

use crate::Dataset;

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    Io(std::io::Error),
    /// (line number, message)
    Parse(usize, String),
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            CsvError::Empty => write!(f, "no samples in input"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Parses a dataset from any reader in last-column-label CSV form.
fn read_dataset(reader: impl BufRead) -> Result<Dataset, CsvError> {
    let mut features: Vec<Scalar> = Vec::new();
    let mut raw_labels: Vec<u64> = Vec::new();
    let mut dim: Option<usize> = None;

    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if fields.len() < 2 {
            return Err(CsvError::Parse(
                line_no,
                format!(
                    "need at least one feature and a label, got {}",
                    fields.len()
                ),
            ));
        }
        // Header detection: first field of the first row isn't numeric.
        if dim.is_none() && fields[0].parse::<f64>().is_err() {
            continue;
        }
        let this_dim = fields.len() - 1;
        match dim {
            None => dim = Some(this_dim),
            Some(d) if d != this_dim => {
                return Err(CsvError::Parse(
                    line_no,
                    format!("expected {d} features, got {this_dim}"),
                ));
            }
            _ => {}
        }
        for f in &fields[..this_dim] {
            let v: f64 = f
                .parse()
                .map_err(|_| CsvError::Parse(line_no, format!("bad feature value '{f}'")))?;
            features.push(v as Scalar);
        }
        let label: u64 = fields[this_dim]
            .parse()
            .map_err(|_| CsvError::Parse(line_no, format!("bad label '{}'", fields[this_dim])))?;
        raw_labels.push(label);
    }

    let dim = dim.ok_or(CsvError::Empty)?;
    if raw_labels.is_empty() {
        return Err(CsvError::Empty);
    }

    // Compact labels to 0..k preserving first-appearance order.
    let mut mapping: Vec<u64> = Vec::new();
    let labels: Vec<usize> = raw_labels
        .iter()
        .map(|&l| {
            if let Some(pos) = mapping.iter().position(|&m| m == l) {
                pos
            } else {
                mapping.push(l);
                mapping.len() - 1
            }
        })
        .collect();

    let rows = labels.len();
    Ok(Dataset::new(
        Matrix::from_vec(rows, dim, features),
        labels,
        mapping.len(),
    ))
}

/// Loads a dataset from a CSV file on disk.
pub fn load_dataset(path: impl AsRef<Path>) -> Result<Dataset, CsvError> {
    let file = std::fs::File::open(path)?;
    read_dataset(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticSpec;
    use std::io::Cursor;

    /// Writes a dataset in the same last-column-label format.
    fn write_dataset(dataset: &Dataset, mut w: impl std::io::Write) -> std::io::Result<()> {
        for r in 0..dataset.len() {
            let row = dataset.features().row(r);
            for v in row {
                write!(w, "{v},")?;
            }
            writeln!(w, "{}", dataset.labels()[r])?;
        }
        Ok(())
    }

    #[test]
    fn parses_basic_csv() {
        let input = "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n";
        let d = read_dataset(Cursor::new(input)).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.labels(), &[0, 1, 0]);
        assert_eq!(d.features().row(1), &[3.0, 4.0]);
    }

    #[test]
    fn skips_header_comments_and_blank_lines() {
        let input = "f1,f2,label\n# comment\n\n1.0,2.0,7\n3.0,4.0,9\n";
        let d = read_dataset(Cursor::new(input)).unwrap();
        assert_eq!(d.len(), 2);
        // labels 7 and 9 compacted to 0 and 1
        assert_eq!(d.labels(), &[0, 1]);
    }

    #[test]
    fn rejects_ragged_rows() {
        let input = "1.0,2.0,0\n1.0,0\n";
        let err = read_dataset(Cursor::new(input)).unwrap_err();
        assert!(matches!(err, CsvError::Parse(2, _)), "{err}");
    }

    #[test]
    fn rejects_bad_values() {
        let err = read_dataset(Cursor::new("1.0,x,0\n")).unwrap_err();
        assert!(err.to_string().contains("bad feature"));
        let err = read_dataset(Cursor::new("1.0,2.0,cat\n")).unwrap_err();
        assert!(err.to_string().contains("bad label"));
    }

    #[test]
    fn empty_input_errors() {
        assert!(matches!(
            read_dataset(Cursor::new("")).unwrap_err(),
            CsvError::Empty
        ));
        assert!(matches!(
            read_dataset(Cursor::new("a,b,label\n")).unwrap_err(),
            CsvError::Empty
        ));
    }

    #[test]
    fn roundtrip_preserves_synthetic_dataset() {
        let d = SyntheticSpec::tiny().generate(40, 5);
        let mut buf = Vec::new();
        write_dataset(&d, &mut buf).unwrap();
        let back = read_dataset(Cursor::new(buf)).unwrap();
        assert_eq!(back.len(), d.len());
        assert_eq!(back.feature_dim(), d.feature_dim());
        assert_eq!(back.num_classes(), d.num_classes());
        for r in 0..d.len() {
            for (a, b) in back.features().row(r).iter().zip(d.features().row(r)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn file_loading_works() {
        let d = SyntheticSpec::tiny().generate(10, 6);
        let path = std::env::temp_dir().join("gfl_csv_test.csv");
        let mut buf = Vec::new();
        write_dataset(&d, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        let back = load_dataset(&path).unwrap();
        assert_eq!(back.len(), 10);
        let _ = std::fs::remove_file(path);
    }
}
