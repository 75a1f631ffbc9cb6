//! Result tables for the experiment harness: typed cells, rendered as
//! aligned text or as one JSON object.

use std::fmt;

use segstack_core::trace::percentile;

/// A sampled measurement: the median and quartiles of `reps` rounds.
///
/// `unit` is `"ns"` for a whole run's time, `"ns/<op>"` for a time per
/// operation, and `"x"` for a ratio of two times taken in the same round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    /// The median round.
    pub median: f64,
    /// The lower quartile.
    pub q1: f64,
    /// The upper quartile.
    pub q3: f64,
    /// How many rounds were sampled.
    pub reps: usize,
    /// What the numbers count.
    pub unit: &'static str,
}

impl Stat {
    /// The median and quartiles of `samples`, by the exact nearest-rank
    /// [`percentile`].
    pub fn of(samples: &[f64], unit: &'static str) -> Stat {
        let at = |p: f64| percentile(samples.iter().copied(), p);
        Stat { median: at(0.5), q1: at(0.25), q3: at(0.75), reps: samples.len(), unit }
    }
}

impl fmt::Display for Stat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Stat { median, q1, q3, .. } = *self;
        if self.unit == "x" {
            return write!(f, "{median:.2}x [{q1:.2}, {q3:.2}]");
        }
        if self.unit != "ns" {
            // Per-operation times keep their unit in the column header.
            let digits = if median < 100.0 { 1 } else { 0 };
            return write!(f, "{median:.digits$} [{q1:.digits$}, {q3:.digits$}]");
        }
        let (scale, suffix) = match median {
            m if m >= 1e6 => (1e6, "ms"),
            m if m >= 1e3 => (1e3, "us"),
            _ => (1.0, "ns"),
        };
        let digits = if scale == 1.0 { 0 } else { 2 };
        write!(
            f,
            "{:.digits$} [{:.digits$}, {:.digits$}] {suffix}",
            median / scale,
            q1 / scale,
            q3 / scale
        )
    }
}

/// One table cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A label: a workload, strategy or setting name.
    Text(String),
    /// An exact, host-independent number: a parameter, a counter, or a
    /// ratio of counters.
    Exact(f64),
    /// A sampled wall-clock time or time ratio.
    Sampled(Stat),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Exact(v)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Exact(v as f64)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Exact(v as f64)
    }
}

impl From<u32> for Cell {
    fn from(v: u32) -> Cell {
        Cell::Exact(v.into())
    }
}

impl From<Stat> for Cell {
    fn from(s: Stat) -> Cell {
        Cell::Sampled(s)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.pad(s),
            Cell::Exact(v) if v.fract() == 0.0 => f.pad(&format!("{v:.0}")),
            Cell::Exact(v) => f.pad(&format!("{v:.1}")),
            Cell::Sampled(s) => f.pad(&s.to_string()),
        }
    }
}

impl Cell {
    /// The cell as a JSON value: a string, a number, or a sampled object.
    fn to_json(&self) -> String {
        match self {
            Cell::Text(s) => format!("\"{}\"", json_escape(s)),
            Cell::Exact(v) => json_num(*v),
            Cell::Sampled(s) => format!(
                "{{\"median\":{},\"q1\":{},\"q3\":{},\"reps\":{},\"unit\":\"{}\"}}",
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                s.reps,
                json_escape(s.unit)
            ),
        }
    }
}

/// One experiment's result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id and title, e.g. `"E2: capture cost vs. stack depth"`.
    pub title: String,
    /// The paper claim this experiment checks.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Cell>>,
    /// Free-form observations appended under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, claim: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            claim: claim.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch in {}", self.title);
        self.rows.push(cells);
    }

    /// Appends an observation note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders the table as one JSON object (hand-rolled: the workspace
    /// deliberately has no serialization dependency). Text cells are
    /// strings, exact cells numbers, and sampled cells objects with
    /// `median`, `q1`, `q3`, `reps` and `unit`.
    pub fn to_json(&self) -> String {
        let strs = |items: &[String]| -> String {
            let quoted: Vec<String> =
                items.iter().map(|s| format!("\"{}\"", json_escape(s))).collect();
            format!("[{}]", quoted.join(","))
        };
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("[{}]", r.iter().map(Cell::to_json).collect::<Vec<_>>().join(",")))
            .collect();
        format!(
            "{{\"title\":\"{}\",\"claim\":\"{}\",\"headers\":{},\"rows\":[{}],\"notes\":{}}}",
            json_escape(&self.title),
            json_escape(&self.claim),
            strs(&self.headers),
            rows.join(","),
            strs(&self.notes),
        )
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        writeln!(f, "claim: {}", self.claim)?;
        let cells: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(Cell::to_string).collect()).collect();
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:<width$} |", c, width = w[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for width in &w {
            write!(f, "{:-<width$}|", "", width = width + 2)?;
        }
        writeln!(f)?;
        for row in &cells {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        Ok(())
    }
}

/// A number as JSON: the shortest decimal that reads back as `v`, so a
/// table rendered from the snapshot matches the harness's own output
/// digit for digit (`null` if not finite).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(median: f64, q1: f64, q3: f64, unit: &'static str) -> Stat {
        Stat { median, q1, q3, reps: 7, unit }
    }

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("E0: demo", "demo claim", &["name", "value"]);
        t.row(vec!["segmented".into(), 1u64.into()]);
        t.row(vec!["heap".into(), 12345u64.into()]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("## E0: demo"));
        assert!(s.contains("| segmented | 1     |"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_bad_rows() {
        let mut t = Table::new("t", "c", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_rendering_types_every_cell() {
        let mut t = Table::new("E0: \"demo\"", "claim\nline", &["a", "b", "c", "d"]);
        t.row(vec![
            "x".into(),
            57313u64.into(),
            12.5.into(),
            stat(2_000_000.0, 1_900_000.0, 2_100_000.0, "ns").into(),
        ]);
        t.note("n1");
        let j = t.to_json();
        assert!(j.contains("\"title\":\"E0: \\\"demo\\\"\""));
        assert!(j.contains("\"claim\":\"claim\\nline\""));
        assert!(j.contains("\"headers\":[\"a\",\"b\",\"c\",\"d\"]"));
        assert!(j.contains(
            "\"rows\":[[\"x\",57313,12.5,{\"median\":2000000,\"q1\":1900000,\
             \"q3\":2100000,\"reps\":7,\"unit\":\"ns\"}]]"
        ));
        assert!(j.contains("\"notes\":[\"n1\"]"));
    }

    #[test]
    fn formats_cells_by_kind() {
        assert_eq!(Cell::from(300_001u64).to_string(), "300001");
        assert_eq!(Cell::from(12.26).to_string(), "12.3");
        assert_eq!(stat(12.0, 11.0, 13.0, "ns").to_string(), "12 [11, 13] ns");
        assert_eq!(stat(4_500.0, 4_400.0, 4_750.0, "ns").to_string(), "4.50 [4.40, 4.75] us");
        assert_eq!(stat(2e6, 1.9e6, 2.1e6, "ns").to_string(), "2.00 [1.90, 2.10] ms");
        assert_eq!(stat(146.4, 140.2, 160.9, "ns/call-op").to_string(), "146 [140, 161]");
        assert_eq!(stat(13.94, 13.5, 14.0, "ns/frame").to_string(), "13.9 [13.5, 14.0]");
        assert_eq!(stat(1.234, 1.2, 1.31, "x").to_string(), "1.23x [1.20, 1.31]");
    }

    #[test]
    fn stat_reads_nearest_rank_quartiles() {
        let s = Stat::of(&[7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0], "ns");
        assert_eq!((s.q1, s.median, s.q3, s.reps), (3.0, 4.0, 6.0, 7));
    }
}
