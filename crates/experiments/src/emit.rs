//! Tables: cells under a declared header, printed aligned to stdout,
//! written as CSV, parsed back from CSV and compared cell by cell.
//!
//! A cell *is* its printed text — the precision is applied when the cell is
//! made and travels with it — so a table built by a run equals the table
//! parsed from the CSV that run wrote, and a shape predicate reads the same
//! numbers from either. A cell that is missing or not a number reads as NaN,
//! which fails every comparison a predicate makes.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One table cell, as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell(String);

impl Cell {
    /// A float printed with `prec` decimals.
    pub fn num(x: impl Into<f64>, prec: usize) -> Cell {
        Cell(format!("{:.prec$}", x.into()))
    }

    /// A count, a name or a configured value, printed as it displays.
    pub fn of(x: impl ToString) -> Cell {
        Cell(x.to_string())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The number the cell prints, NaN if it prints none.
    pub fn value(&self) -> f64 {
        self.0.parse().unwrap_or(f64::NAN)
    }
}

/// What a row of the registry declares about one of its tables.
#[derive(Debug)]
pub struct Output {
    /// File stem under `results/`.
    pub file: &'static str,
    /// The CSV's first line: the column names, comma-separated.
    pub header: &'static str,
    /// Columns holding wall-clock measurements: written and shape-checked,
    /// never compared against a committed file.
    pub measured: &'static [&'static str],
}

impl Output {
    /// A table with no measured column.
    pub const fn new(file: &'static str, header: &'static str) -> Output {
        let measured = &[];
        Output {
            file,
            header,
            measured,
        }
    }

    pub fn columns(&self) -> impl Iterator<Item = &'static str> {
        self.header.split(',')
    }
}

/// Selects rows: every `(column, printed value)` pair must match.
pub type Key<'a> = &'a [(&'a str, &'a str)];

/// An [`Output`] with its rows.
#[derive(Debug, Clone)]
pub struct Table {
    pub spec: &'static Output,
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    pub fn new(spec: &'static Output) -> Table {
        let rows = Vec::new();
        Table { spec, rows }
    }

    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.spec.columns().count(), "row arity mismatch");
        self.rows.push(row);
    }

    /// CSV text: the header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut out = format!("{}\n", self.spec.header);
        for row in &self.rows {
            let cells: Vec<&str> = row.iter().map(Cell::as_str).collect();
            out += &(cells.join(",") + "\n");
        }
        out
    }

    /// Parses CSV text written by [`Table::to_csv`] under `spec`'s header.
    pub fn parse(spec: &'static Output, text: &str) -> Result<Table, String> {
        let (file, header) = (spec.file, spec.header);
        let mut lines = text.lines();
        if lines.next() != Some(header) {
            return Err(format!("{file}.csv: header is not `{header}`"));
        }
        let mut table = Table::new(spec);
        for (i, line) in lines.enumerate() {
            let row: Vec<Cell> = line.split(',').map(Cell::of).collect();
            if row.len() != spec.columns().count() {
                let (n, row) = (row.len(), i + 1);
                return Err(format!("{file}.csv row {row}: {n} fields under `{header}`"));
            }
            table.rows.push(row);
        }
        Ok(table)
    }

    /// The index of a declared column.
    fn col(&self, name: &str) -> usize {
        let found = self.spec.columns().position(|h| h == name);
        found.unwrap_or_else(|| panic!("{}.csv declares no column `{name}`", self.spec.file))
    }

    /// The number in column `col` of row `row` (0-based).
    pub fn num(&self, row: usize, col: &str) -> f64 {
        self.rows[row][self.col(col)].value()
    }

    /// The printed text in column `col` of row `row` (0-based).
    pub fn text(&self, row: usize, col: &str) -> &str {
        self.rows[row][self.col(col)].as_str()
    }

    /// Indices of the rows matching `key`.
    pub fn select(&self, key: Key) -> Vec<usize> {
        let matches = |row: &usize| key.iter().all(|(col, want)| self.text(*row, col) == *want);
        (0..self.rows.len()).filter(matches).collect()
    }

    /// Column `col` of the rows matching `key`, in row order.
    pub fn column(&self, key: Key, col: &str) -> Vec<f64> {
        let rows = self.select(key).into_iter();
        rows.map(|row| self.num(row, col)).collect()
    }

    /// The printed values column `col` takes, in order of first appearance.
    pub fn distinct(&self, col: &str) -> Vec<&str> {
        let mut seen = Vec::new();
        for row in 0..self.rows.len() {
            if !seen.contains(&self.text(row, col)) {
                seen.push(self.text(row, col));
            }
        }
        seen
    }

    /// `col` of the one row matching `key` (NaN unless exactly one does).
    pub fn get(&self, key: Key, col: &str) -> f64 {
        match self.column(key, col).as_slice() {
            [x] => *x,
            _ => f64::NAN,
        }
    }

    /// The largest `col` over the rows matching `key` — of those whose
    /// `within.0` column is at most `within.1`, when given (the paper's
    /// "accuracy by a certain learning cost"). NaN when no row qualifies.
    pub fn best(&self, key: Key, col: &str, within: Option<(&str, f64)>) -> f64 {
        let affordable = |row: &usize| match within {
            Some((col, most)) => self.num(*row, col) <= most,
            None => true,
        };
        let rows = self.select(key).into_iter().filter(affordable);
        let values = rows.map(|row| self.num(row, col));
        values.reduce(f64::max).unwrap_or(f64::NAN)
    }

    /// The first cell where `self` (regenerated) and `committed` disagree
    /// outside the measured columns, as `file row N column C: …`.
    pub fn drift_from(&self, committed: &Table) -> Result<(), String> {
        let file = self.spec.file;
        let (new, old) = (self.rows.len(), committed.rows.len());
        if new != old {
            return Err(format!(
                "{file}.csv: committed has {old} rows, regenerated {new}"
            ));
        }
        for (r, (new, old)) in self.rows.iter().zip(&committed.rows).enumerate() {
            for (c, name) in self.spec.columns().enumerate() {
                if !self.spec.measured.contains(&name) && new[c] != old[c] {
                    let (row, old, new) = (r + 1, old[c].as_str(), new[c].as_str());
                    return Err(format!(
                        "{file}.csv row {row} column {name}: committed {old}, regenerated {new}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The header and rows, right-aligned, one line each.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.spec.columns().map(str::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.as_str().len());
            }
        }
        let line = |cells: &mut dyn Iterator<Item = &str>| {
            let padded = cells.zip(&widths).map(|(cell, w)| format!("{cell:>w$}  "));
            padded.collect::<String>().trim_end().to_string() + "\n"
        };
        let mut out = line(&mut self.spec.columns());
        for row in &self.rows {
            out += &line(&mut row.iter().map(Cell::as_str));
        }
        out
    }

    /// What EXPERIMENTS.md quotes of the table: all of it — or, of a
    /// trajectory (`accuracy` under a `round`/`cost` axis), one line per
    /// series: its best and final accuracy and its best within `budget`.
    pub fn digest(&self, budget: f64) -> String {
        let columns: Vec<&str> = self.spec.columns().collect();
        let cut = columns.iter().position(|c| matches!(*c, "round" | "cost"));
        let cut = cut.filter(|&cut| columns[cut..].contains(&"accuracy"));
        let Some(cut) = cut else {
            return self.render();
        };
        let priced = columns.contains(&"cost");
        let mut out = format!("{}.csv, accuracy by series: best, final", self.spec.file);
        if priced {
            out += &format!(", best within cost {budget:.0}");
        }
        let mut seen = Vec::new();
        for row in 0..self.rows.len() {
            let key: Vec<(&str, &str)> = columns[..cut]
                .iter()
                .map(|col| (*col, self.text(row, col)))
                .collect();
            if seen.contains(&key) {
                continue;
            }
            let name: Vec<&str> = key.iter().map(|k| k.1).collect();
            let (best, last) = (
                self.best(&key, "accuracy", None),
                self.column(&key, "accuracy"),
            );
            out += &format!(
                "\n{}: {best:.4}, {:.4}",
                name.join(" "),
                last[last.len() - 1]
            );
            if priced {
                let affordable = self.best(&key, "accuracy", Some(("cost", budget)));
                out += &format!(", {affordable:.4}");
            }
            seen.push(key);
        }
        out + "\n"
    }
}

/// Writes `table` to `<dir>/<file>.csv`, creating the directory.
pub fn write_csv(dir: &Path, table: &Table) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", table.spec.file));
    fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// Prints a heading, then the table.
pub fn print_series(title: &str, table: &Table) {
    println!(
        "\n=== {title} [{}.csv] ===\n{}",
        table.spec.file,
        table.render()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    static XY: Output = Output {
        file: "emit_test_artifact",
        header: "x,y",
        measured: &["y"],
    };

    fn xy() -> Table {
        let mut t = Table::new(&XY);
        t.push(vec![Cell::of(1), Cell::num(0.5, 1)]);
        t.push(vec![Cell::of(2), Cell::num(0.75, 2)]);
        t
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = xy().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines, vec!["x,y", "1,0.5", "2,0.75"]);
        assert_eq!(Table::parse(&XY, &csv).unwrap().rows, xy().rows);
        assert!(Table::parse(&XY, "x,z\n").is_err());
        assert!(Table::parse(&XY, "x,y\n1\n").unwrap_err().contains("row 1"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(Cell::num(1.23456, 2).as_str(), "1.23");
        assert_eq!(Cell::num(-0.5, 3).as_str(), "-0.500");
        assert_eq!(Cell::num(1.23456, 2).value(), 1.23);
        assert_eq!(Cell::num(7.6, 0), Cell::of(8));
        assert!(Cell::of("3/4").value().is_nan());
        assert_eq!(Cell::of(1.0f32).as_str(), "1");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn print_series_checks_arity() {
        let mut t = Table::new(&XY);
        t.push(vec![Cell::of(1)]);
        print_series("t", &t);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join(format!("gfl-emit-test-{}", std::process::id()));
        let path = write_csv(&dir, &xy()).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with("x,y"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn accessors_select_by_printed_value_and_read_nan_for_what_is_missing() {
        let t = xy();
        assert_eq!(t.get(&[("x", "2")], "y"), 0.75);
        assert!(t.get(&[("x", "3")], "y").is_nan());
        assert!(t.get(&[], "y").is_nan(), "two rows match");
        assert_eq!(t.best(&[], "y", None), 0.75);
        assert_eq!(t.best(&[], "y", Some(("x", 1.0))), 0.5);
        assert!(t.best(&[("x", "3")], "y", None).is_nan());
        assert_eq!(t.distinct("x"), vec!["1", "2"]);
    }

    #[test]
    fn digest_is_the_table_or_its_series() {
        assert_eq!(xy().digest(0.0), "x     y\n1   0.5\n2  0.75\n");
        static RUNS: Output = Output::new("runs", "method,cost,accuracy");
        let mut t = Table::new(&RUNS);
        for (method, cost, accuracy) in [("a", 1.0, 0.5), ("a", 3.0, 0.7), ("b", 1.0, 0.6)] {
            t.push(vec![
                Cell::of(method),
                Cell::num(cost, 1),
                Cell::num(accuracy, 4),
            ]);
        }
        let expected = "runs.csv, accuracy by series: best, final, best within cost 2\n\
                        a: 0.7000, 0.7000, 0.5000\nb: 0.6000, 0.6000, 0.6000\n";
        assert_eq!(t.digest(2.0), expected);
    }

    #[test]
    fn drift_names_row_and_column_and_skips_measured() {
        let fresh = xy();
        let mut committed = xy();
        committed.rows[1][1] = Cell::num(0.99, 2);
        assert_eq!(fresh.drift_from(&committed), Ok(()));
        committed.rows[1][0] = Cell::of(3);
        let err = fresh.drift_from(&committed).unwrap_err();
        assert!(
            err.contains("emit_test_artifact.csv row 2 column x"),
            "{err}"
        );
    }
}
