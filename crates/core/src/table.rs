//! The one table layout: rows of typed cells under typed columns. Label
//! columns are left-aligned, number columns right-aligned at their
//! precision, and a timeline is a table whose last column holds its
//! points. `longlook-bench` lays out every experiment's tables with it,
//! and [`crate::traceview`] the trace analyzer's.

use longlook_stats::Summary;
use std::borrow::Cow;
use std::fmt::{self, Formatter, Write as _};

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text as is.
    Text(String),
    /// A number at its column's precision.
    Num(f64),
    /// `mean (std)` at its column's precision (sample standard deviation).
    Stat(Summary),
    /// A timeline's points, each at its column's width and precision,
    /// joined by spaces and never padded as a whole.
    Points(Vec<f64>),
}

macro_rules! from {
    ($($t:ty => $v:ident),*) => {$(
        impl From<$t> for Cell {
            fn from(x: $t) -> Self {
                Cell::$v(x.into())
            }
        }
    )*};
}

from!(&str => Text, String => Text, f64 => Num, Summary => Stat, Vec<f64> => Points);

/// One column: what precedes its cells, its heading, its minimum width
/// (wider text is never cut) and its kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// `None` is `" | "`, or nothing before the first column.
    pub lead: Option<&'static str>,
    /// `""` for none.
    pub head: &'static str,
    /// Minimum width.
    pub width: usize,
    /// `None`: a left-aligned label. `Some(p)`: right-aligned, numbers
    /// at `p` decimals.
    pub prec: Option<usize>,
}

impl Column {
    /// A left-aligned label column.
    pub fn label(head: &'static str, width: usize) -> Self {
        Column {
            lead: None,
            head,
            width,
            prec: None,
        }
    }

    /// A right-aligned number column at `prec` decimals.
    pub fn num(head: &'static str, width: usize, prec: usize) -> Self {
        Column {
            prec: Some(prec),
            ..Column::label(head, width)
        }
    }

    /// The same column with `lead` before its cells.
    pub fn after(self, lead: &'static str) -> Self {
        Column {
            lead: Some(lead),
            ..self
        }
    }

    /// `cell`'s text under this column, before alignment.
    pub fn text<'a>(&self, cell: &'a Cell) -> Cow<'a, str> {
        let (w, p) = (self.width, self.prec.unwrap_or(0));
        match cell {
            Cell::Text(s) => Cow::Borrowed(s),
            Cell::Num(x) => format!("{x:.p$}").into(),
            Cell::Stat(s) => format!("{:.p$} ({:.p$})", s.mean(), s.sample_std_dev()).into(),
            Cell::Points(xs) => {
                let points: Vec<String> = xs.iter().map(|x| format!("{x:w$.p$}")).collect();
                points.join(" ").into()
            }
        }
    }
}

/// Lay out one line of `cells` under `columns`. A line never ends in
/// padding: the last column's label is not padded, and points never are.
fn line(f: &mut Formatter<'_>, columns: &[Column], cells: &[Cell]) -> fmt::Result {
    for (i, (col, cell)) in columns.iter().zip(cells).enumerate() {
        f.write_str(col.lead.unwrap_or(if i == 0 { "" } else { " | " }))?;
        let (text, w) = (col.text(cell), col.width);
        match (col.prec, cell) {
            (None, _) if i + 1 == columns.len() => f.write_str(&text)?,
            (_, Cell::Points(_)) => f.write_str(&text)?,
            (None, _) => write!(f, "{text:<w$}")?,
            (Some(_), _) => write!(f, "{text:>w$}")?,
        }
    }
    Ok(())
}

/// Rows under typed columns. The heading line is printed when a column
/// has a heading and stops at the last one that has; an empty row is a
/// blank line.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Columns, left to right.
    pub columns: Vec<Column>,
    /// A `-+-` rule under the heading line.
    pub rule: bool,
    /// One cell per column.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table with no rows and no rule.
    pub fn new(columns: Vec<Column>) -> Self {
        Table {
            columns,
            rule: false,
            rows: Vec::new(),
        }
    }

    /// The same table with a rule under its heading.
    pub fn ruled(self) -> Self {
        Table { rule: true, ..self }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        if let Some(last) = self.columns.iter().rposition(|c| !c.head.is_empty()) {
            let heads: Vec<Cell> = self.columns[..=last]
                .iter()
                .map(|c| c.head.into())
                .collect();
            line(f, &self.columns[..=last], &heads)?;
            f.write_char('\n')?;
        }
        if self.rule {
            let dashes: Vec<String> = self.columns.iter().map(|c| "-".repeat(c.width)).collect();
            writeln!(f, "{}", dashes.join("-+-"))?;
        }
        for row in &self.rows {
            line(f, &self.columns, row)?;
            f.write_char('\n')?;
        }
        Ok(())
    }
}
