//! What an experiment found, as a value. A [`Report`] is the experiment's
//! id and an ordered list of [`Section`]s from a closed set: heatmaps
//! whose cells keep both sides' `Summary`, tables of labels and typed
//! numbers, inferred state machines, timelines, and notes.
//!
//! Experiments measure and fill in numbers; `Display` is the one place
//! that lays them out. `repro` prints that text and saves it as
//! `results/<id>.txt`, and saves [`Report::dots`] as `results/<id>_<n>.dot`.

use longlook_statemachine::InferredMachine;
use longlook_stats::{Heatmap, Summary};
use std::borrow::Cow;
use std::fmt::{self, Formatter, Write as _};

/// One experiment's result.
#[derive(Debug, Clone)]
pub struct Report {
    /// The experiment id (`fig6a`, `table4`, ...); it names the files.
    pub id: &'static str,
    /// Sections in render order.
    pub sections: Vec<Section>,
}

/// One piece of a [`Report`].
#[derive(Debug, Clone)]
pub enum Section {
    /// Welch-gated comparisons.
    Heatmap(Heatmap),
    /// Rows of labels and typed numbers.
    Table(Table),
    /// An inferred state machine and its DOT graph.
    Machine(Machine),
    /// Sampled timelines, one line per flow.
    Series(Series),
    /// Prose, including the "paper shape" lines, printed as is.
    Note(String),
}

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text as is.
    Text(String),
    /// A number at its column's precision.
    Num(f64),
    /// `mean (std)` at its column's precision (sample standard deviation).
    Stat(Summary),
}

macro_rules! from {
    ($($t:ty => $e:ident::$v:ident),*) => {$(
        impl From<$t> for $e {
            fn from(x: $t) -> Self {
                $e::$v(x.into())
            }
        }
    )*};
}

from!(Heatmap => Section::Heatmap, Table => Section::Table, Machine => Section::Machine,
    Series => Section::Series, &str => Cell::Text, String => Cell::Text, f64 => Cell::Num,
    Summary => Cell::Stat);

impl Report {
    /// An empty report.
    pub fn new(id: &'static str) -> Self {
        Report {
            id,
            sections: Vec::new(),
        }
    }

    /// Append a section.
    pub fn push(&mut self, section: impl Into<Section>) {
        self.sections.push(section.into());
    }

    /// Append prose.
    pub fn note(&mut self, text: impl Into<String>) {
        self.sections.push(Section::Note(text.into()));
    }

    /// Every machine's DOT graph in render order, without its final
    /// newline: the `n`th is `results/<id>_<n>.dot`.
    pub fn dots(&self) -> Vec<String> {
        let machines = self.sections.iter().filter_map(|s| match s {
            Section::Machine(m) => Some(m),
            _ => None,
        });
        machines
            .map(|m| m.machine.to_dot(m.title).trim_end().to_string())
            .collect()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let mut dots = 0;
        for section in &self.sections {
            match section {
                Section::Heatmap(map) => f.write_str(&map.render_ascii())?,
                Section::Table(table) => table.fmt(f)?,
                Section::Machine(m) => {
                    m.render(f, self.id, dots)?;
                    dots += 1;
                }
                Section::Series(series) => series.fmt(f)?,
                Section::Note(text) => f.write_str(text)?,
            }
        }
        Ok(())
    }
}

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

    fn text<'a>(&self, cell: &'a Cell) -> Cow<'a, str> {
        let p = self.prec.unwrap_or(0);
        match cell {
            Cell::Text(s) => Cow::Borrowed(s),
            Cell::Num(x) => format!("{x:.p$}").into(),
            Cell::Stat(s) => format!("{:.p$} ({:.p$})", s.mean(), s.sample_std_dev()).into(),
        }
    }
}

/// Lay out one line under `columns`. A table line never ends in padding,
/// so unless `pad_last` its last label column is not padded.
fn line<'a>(
    f: &mut Formatter<'_>,
    columns: &[Column],
    texts: impl Iterator<Item = Cow<'a, str>>,
    pad_last: bool,
) -> fmt::Result {
    for (i, (col, text)) in columns.iter().zip(texts).enumerate() {
        f.write_str(col.lead.unwrap_or(if i == 0 { "" } else { " | " }))?;
        let w = col.width;
        match col.prec {
            None if i + 1 == columns.len() && !pad_last => f.write_str(&text)?,
            None => write!(f, "{text:<w$}")?,
            Some(_) => write!(f, "{text:>w$}")?,
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
            let headed = &self.columns[..=last];
            line(f, headed, headed.iter().map(|c| c.head.into()), false)?;
            f.write_char('\n')?;
        }
        if self.rule {
            let dashes: Vec<String> = self.columns.iter().map(|c| "-".repeat(c.width)).collect();
            writeln!(f, "{}", dashes.join("-+-"))?;
        }
        for row in &self.rows {
            let texts = self.columns.iter().zip(row).map(|(c, cell)| c.text(cell));
            line(f, &self.columns, texts, false)?;
            f.write_char('\n')?;
        }
        Ok(())
    }
}

/// Timelines: per line a head laid out under `columns` (every column
/// padded), then `sep`, then the points at `width` and `prec` decimals.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// The head of every line.
    pub columns: Vec<Column>,
    /// Between a line's head and its points.
    pub sep: &'static str,
    /// Width of every point.
    pub width: usize,
    /// Decimals of every point.
    pub prec: usize,
    /// Each line's head cells and points.
    pub lines: Vec<(Vec<Cell>, Vec<f64>)>,
}

impl Series {
    /// A series with no lines.
    pub fn new(columns: Vec<Column>, sep: &'static str, width: usize, prec: usize) -> Self {
        Series {
            columns,
            sep,
            width,
            prec,
            lines: Vec::new(),
        }
    }

    /// Append a line.
    pub fn line(&mut self, head: Vec<Cell>, points: Vec<f64>) {
        self.lines.push((head, points));
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let (w, p) = (self.width, self.prec);
        for (head, points) in &self.lines {
            let texts = self.columns.iter().zip(head).map(|(c, cell)| c.text(cell));
            line(f, &self.columns, texts, true)?;
            let points: Vec<String> = points.iter().map(|x| format!("{x:w$.p$}")).collect();
            writeln!(f, "{}{}", self.sep, points.join(" "))?;
        }
        Ok(())
    }
}

/// An inferred state machine and its DOT graph, titled `title`. With
/// `summary: Some(n)` the graph follows the machine's text summary, its
/// first `n` mined invariants (no list when 0) and the name of the file
/// the graph is saved to (fig3a, fig3b); with `None` it stands alone
/// (fig13's pair).
#[derive(Debug, Clone)]
pub struct Machine {
    /// DOT graph title.
    pub title: &'static str,
    /// The machine.
    pub machine: InferredMachine,
    /// How many mined invariants to list before the graph, if any text.
    pub summary: Option<usize>,
}

impl Machine {
    /// Render as the `n`th machine of report `id`.
    fn render(&self, f: &mut Formatter<'_>, id: &str, n: usize) -> fmt::Result {
        let m = &self.machine;
        if let Some(listed) = self.summary {
            f.write_str(&m.render_text())?;
            let all = &m.invariants;
            if listed > 0 {
                writeln!(f, "\nmined invariants ({}):", all.len())?;
                all.iter()
                    .take(listed)
                    .try_for_each(|inv| writeln!(f, "  {inv}"))?;
                if all.len() > listed {
                    writeln!(f, "  ... ({} more)", all.len() - listed)?;
                }
            }
            writeln!(f, "\nGraphviz DOT (also written to results/{id}_{n}.dot):")?;
        }
        f.write_str(&m.to_dot(self.title))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_sim::time::{Dur, Time};
    use longlook_transport::ccstate::StateTrace;

    fn render(table: Table) -> String {
        table.to_string()
    }

    #[test]
    fn label_column_is_left_aligned_and_padded_unless_last() {
        let mut t = Table::new(vec![Column::label("Flow", 7), Column::label("Note", 6)]);
        t.row(vec!["QUIC".into(), "ok".into()]);
        t.row(vec!["a label wider than 7".into(), "last".into()]);
        assert_eq!(
            render(t),
            "Flow    | Note\n\
             QUIC    | ok\n\
             a label wider than 7 | last\n"
        );
    }

    #[test]
    fn fixed_column_is_right_aligned_at_its_precision() {
        let mut t = Table::new(vec![Column::label("x", 3), Column::num("Mbps", 8, 2)]);
        t.row(vec!["a".into(), 1.23456.into()]);
        t.row(vec!["b".into(), (-12.0).into()]);
        t.row(vec!["c".into(), "-".into()]);
        t.row(vec!["d".into(), 123456.789.into()]);
        assert_eq!(
            render(t),
            "x   |     Mbps\n\
             a   |     1.23\n\
             b   |   -12.00\n\
             c   |        -\n\
             d   | 123456.79\n"
        );
        let mut t = Table::new(vec![Column::num("", 4, 0), Column::num("", 6, 1)]);
        t.row(vec![8209.4.into(), f64::NAN.into()]);
        assert_eq!(render(t), "8209 |    NaN\n");
    }

    #[test]
    fn mean_std_cell_is_the_summary_at_the_column_precision() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        let mut t = Table::new(vec![
            Column::label("Scenario", 8),
            Column::num("Avg (std)", 14, 2),
            Column::num("rate", 16, 3),
        ]);
        t.row(vec!["one".into(), s.into(), s.into()]);
        assert_eq!(
            render(t),
            "Scenario |      Avg (std) |             rate\n\
             one      |    2.50 (1.29) |    2.500 (1.291)\n"
        );
        assert_eq!(Column::num("", 0, 2).text(&s.into()), s.mean_std());
    }

    #[test]
    fn rule_leads_blank_rows_and_headings_that_stop_early() {
        let mut t = Table::new(vec![
            Column::label("version", 8),
            Column::num("ms", 5, 0),
            Column::label("", 0).after("   "),
        ])
        .ruled();
        t.row(vec!["Q034".into(), 918.0.into(), "(baseline)".into()]);
        t.row(Vec::new());
        t.row(vec!["Q037".into(), 2091.0.into(), "(MACW 2000)".into()]);
        assert_eq!(
            render(t),
            "version  |    ms\n\
             ---------+-------+-\n\
             Q034     |   918   (baseline)\n\
             \n\
             Q037     |  2091   (MACW 2000)\n"
        );
    }

    #[test]
    fn series_pads_its_head_and_lays_out_points() {
        let mut s = Series::new(
            vec![Column::label("", 5), Column::num("", 6, 0).after(" plt=")],
            " | ",
            4,
            1,
        );
        s.line(vec!["QUIC".into(), 8209.0.into()], vec![0.0, 3.25, 141.0]);
        s.line(vec!["TCP".into(), 13971.0.into()], Vec::new());
        assert_eq!(
            s.to_string(),
            "QUIC  plt=  8209 |  0.0  3.2 141.0\n\
             TCP   plt= 13971 | \n"
        );
    }

    #[test]
    fn machine_names_the_file_its_graph_is_saved_to() {
        let trace = StateTrace {
            visits: vec![
                (Time::ZERO, "Init"),
                (Time::ZERO + Dur::from_millis(5), "SlowStart"),
            ],
            span: Dur::from_millis(10),
        };
        let machine = longlook_statemachine::infer(&[&trace]);
        let mut r = Report::new("fig3x");
        r.note("title\n\n");
        r.push(Machine {
            title: "T",
            machine: machine.clone(),
            summary: Some(1),
        });
        let text = r.to_string();
        let dot = machine.to_dot("T");
        assert!(text.starts_with(&format!("title\n\n{}", machine.render_text())));
        assert!(text.contains(&format!(
            "\nmined invariants ({}):\n",
            machine.invariants.len()
        )));
        assert!(text.ends_with(&format!(
            "\nGraphviz DOT (also written to results/fig3x_0.dot):\n{dot}"
        )));
        assert_eq!(r.dots(), vec![dot.trim_end().to_string()]);
    }
}
