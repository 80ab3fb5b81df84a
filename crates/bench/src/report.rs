//! What an experiment found, as a value. A [`Report`] is the experiment's
//! id and an ordered list of [`Section`]s from a closed set: heatmaps
//! whose cells keep both sides' `Summary`, tables of labels and typed
//! numbers (a timeline is a table whose last column holds its points),
//! inferred state machines, and notes.
//!
//! Experiments measure and fill in numbers; `Display` is the one place
//! that lays them out. `repro` prints that text and saves it as
//! `results/<id>.txt`, and saves [`Report::dots`] as `results/<id>_<n>.dot`.

pub use longlook_core::table::{Cell, Column, Table};
use longlook_statemachine::InferredMachine;
use longlook_stats::Heatmap;
use std::fmt::{self, Formatter};

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
    /// Prose, including the "paper shape" lines, printed as is.
    Note(String),
}

macro_rules! from {
    ($($t:ty => $v:ident),*) => {$(
        impl From<$t> for Section {
            fn from(x: $t) -> Self {
                Section::$v(x)
            }
        }
    )*};
}

from!(Heatmap => Heatmap, Table => Table, Machine => Machine);

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
                Section::Note(text) => f.write_str(text)?,
            }
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
    use longlook_stats::Summary;
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

    /// A timeline is a table whose last column holds its points: the
    /// head is padded, every point takes the column's width and
    /// precision, and an empty point list adds nothing after its lead.
    #[test]
    fn timeline_pads_its_head_and_lays_out_points() {
        let mut t = Table::new(vec![
            Column::label("", 5),
            Column::num("", 6, 0).after(" plt="),
            Column::num("", 4, 1).after(" | "),
        ]);
        t.row(vec![
            "QUIC".into(),
            8209.0.into(),
            vec![0.0, 3.25, 141.0].into(),
        ]);
        t.row(vec!["TCP".into(), 13971.0.into(), Vec::new().into()]);
        assert_eq!(
            render(t),
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
