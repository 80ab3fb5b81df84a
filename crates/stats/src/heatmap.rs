//! The paper's heatmap presentation (Figures 6-8, 12, 14, 15, 17, 18).
//!
//! Each cell is the percent PLT difference between QUIC and TCP for one
//! (row, column) scenario — positive/red means QUIC is faster, negative/blue
//! means TCP is faster, and white means the Welch test failed the `p < 0.01`
//! gate.

use crate::compare::{Comparison, Verdict};
use crate::summary::Summary;
use std::fmt::Write as _;

/// One heatmap cell. `PartialEq` compares both sides' summaries and the
/// exact percent, p-value and verdict — the determinism-equivalence suite
/// uses it to check that a parallel sweep reproduces a serial sweep
/// bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatmapCell {
    /// Candidate (QUIC) samples: n, mean, variance, extrema.
    pub candidate: Summary,
    /// Baseline (TCP) samples.
    pub baseline: Summary,
    /// Percent difference (positive = candidate better).
    pub percent: f64,
    /// p-value of the Welch test, if computable.
    pub p_value: Option<f64>,
    /// Gated verdict.
    pub verdict: Verdict,
}

impl HeatmapCell {
    /// Build a cell from a finished comparison.
    pub fn from_comparison(c: &Comparison) -> Self {
        HeatmapCell {
            candidate: c.candidate,
            baseline: c.baseline,
            percent: c.percent,
            p_value: c.welch.map(|w| w.p),
            verdict: c.verdict,
        }
    }

    /// An empty/unmeasured cell.
    pub fn empty() -> Self {
        HeatmapCell {
            candidate: Summary::new(),
            baseline: Summary::new(),
            percent: 0.0,
            p_value: None,
            verdict: Verdict::Inconclusive,
        }
    }

    /// Cell text in the paper's style: the rounded percentage, or blank when
    /// insignificant.
    pub fn label(&self) -> String {
        match self.verdict {
            Verdict::Inconclusive => "   .  ".to_string(),
            _ => format!("{:+5.0}%", self.percent),
        }
    }
}

/// A labelled matrix of comparison cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Figure-style title, e.g. "QUIC v34 vs TCP, 1% loss".
    pub title: String,
    /// Row labels (the paper uses bandwidths, top-to-bottom).
    pub row_labels: Vec<String>,
    /// Column labels (object sizes or object counts).
    pub col_labels: Vec<String>,
    /// Row-major cells; `cells[r][c]`.
    pub cells: Vec<Vec<HeatmapCell>>,
}

impl Heatmap {
    /// Create an all-empty heatmap with the given shape.
    pub fn new(title: impl Into<String>, row_labels: Vec<String>, col_labels: Vec<String>) -> Self {
        let rows = row_labels.len();
        let cols = col_labels.len();
        Heatmap {
            title: title.into(),
            row_labels,
            col_labels,
            cells: vec![vec![HeatmapCell::empty(); cols]; rows],
        }
    }

    /// Set one cell.
    pub fn set(&mut self, row: usize, col: usize, cell: HeatmapCell) {
        self.cells[row][col] = cell;
    }

    /// Get one cell.
    pub fn get(&self, row: usize, col: usize) -> &HeatmapCell {
        &self.cells[row][col]
    }

    /// Fraction of significant cells won by the candidate (ignores white).
    pub fn candidate_win_rate(&self) -> f64 {
        let mut wins = 0usize;
        let mut decided = 0usize;
        for row in &self.cells {
            for cell in row {
                match cell.verdict {
                    Verdict::CandidateWins => {
                        wins += 1;
                        decided += 1;
                    }
                    Verdict::BaselineWins => decided += 1,
                    Verdict::Inconclusive => {}
                }
            }
        }
        if decided == 0 {
            0.0
        } else {
            wins as f64 / decided as f64
        }
    }

    /// Exact Clopper–Pearson interval on [`Self::candidate_win_rate`] at
    /// confidence `1 - alpha`, treating each decided (non-white) cell as
    /// one Bernoulli trial. With no decided cells the interval is the
    /// vacuous `(0, 1)`.
    pub fn candidate_win_rate_ci(&self, alpha: f64) -> (f64, f64) {
        let (red, blue, _) = self.verdict_counts();
        crate::beta::binomial_ci(red as u64, (red + blue) as u64, alpha)
    }

    /// Count of cells per verdict: `(red, blue, white)`.
    pub fn verdict_counts(&self) -> (usize, usize, usize) {
        let mut r = 0;
        let mut b = 0;
        let mut w = 0;
        for row in &self.cells {
            for cell in row {
                match cell.verdict {
                    Verdict::CandidateWins => r += 1,
                    Verdict::BaselineWins => b += 1,
                    Verdict::Inconclusive => w += 1,
                }
            }
        }
        (r, b, w)
    }

    /// Render the heatmap as fixed-width ASCII, in the paper's orientation.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let rl_width = self
            .row_labels
            .iter()
            .map(|l| l.len())
            .max()
            .unwrap_or(0)
            .max(4);
        let _ = writeln!(out, "{}", self.title);
        // Header row.
        let _ = write!(out, "{:>rl_width$} |", "");
        for c in &self.col_labels {
            let _ = write!(out, " {c:>7}");
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{}-+{}",
            "-".repeat(rl_width),
            "-".repeat(8 * self.col_labels.len())
        );
        for (r, label) in self.row_labels.iter().enumerate() {
            let _ = write!(out, "{label:>rl_width$} |");
            for c in 0..self.col_labels.len() {
                let cell = &self.cells[r][c];
                let _ = write!(out, " {:>7}", cell.label().trim());
            }
            let _ = writeln!(out);
        }
        let (red, blue, white) = self.verdict_counts();
        let _ = writeln!(
            out,
            "legend: +% = QUIC faster (red), -% = TCP faster (blue), . = not significant (white) \
             [{red} red / {blue} blue / {white} white]"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> Heatmap {
        let mut h = Heatmap::new(
            "test map",
            vec!["100Mbps".into(), "5Mbps".into()],
            vec!["5KB".into(), "10MB".into()],
        );
        h.set(
            0,
            0,
            HeatmapCell {
                percent: 40.0,
                p_value: Some(0.001),
                verdict: Verdict::CandidateWins,
                ..HeatmapCell::empty()
            },
        );
        h.set(
            0,
            1,
            HeatmapCell {
                percent: -12.0,
                p_value: Some(0.002),
                verdict: Verdict::BaselineWins,
                ..HeatmapCell::empty()
            },
        );
        h.set(
            1,
            0,
            HeatmapCell {
                percent: 3.0,
                p_value: Some(0.4),
                verdict: Verdict::Inconclusive,
                ..HeatmapCell::empty()
            },
        );
        h
    }

    #[test]
    fn shape_and_access() {
        let h = sample_map();
        assert_eq!(h.cells.len(), 2);
        assert_eq!(h.cells[0].len(), 2);
        assert_eq!(h.get(0, 0).percent, 40.0);
    }

    #[test]
    fn verdict_counts_and_win_rate() {
        let h = sample_map();
        assert_eq!(h.verdict_counts(), (1, 1, 2));
        assert_eq!(h.candidate_win_rate(), 0.5);
    }

    #[test]
    fn empty_heatmap_win_rate_is_zero() {
        let h = Heatmap::new("t", vec!["r".into()], vec!["c".into()]);
        assert_eq!(h.candidate_win_rate(), 0.0);
        assert_eq!(h.candidate_win_rate_ci(0.05), (0.0, 1.0));
    }

    #[test]
    fn win_rate_ci_brackets_the_rate() {
        let h = sample_map(); // 1 red of 2 decided
        let (lo, hi) = h.candidate_win_rate_ci(0.05);
        let rate = h.candidate_win_rate();
        assert!(lo <= rate && rate <= hi, "({lo}, {hi}) vs {rate}");
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn ascii_rendering_contains_cells() {
        let text = sample_map().render_ascii();
        assert!(text.contains("+40%"));
        assert!(text.contains("-12%"));
        assert!(text.contains("legend"));
        assert!(text.contains("100Mbps"));
    }

    #[test]
    fn cell_keeps_both_sides_summaries() {
        let cmp = Comparison::lower_is_better(&[10.0, 12.0, 11.0], &[20.0, 22.0]);
        let cell = HeatmapCell::from_comparison(&cmp);
        assert_eq!(cell.candidate.count(), 3);
        assert_eq!(cell.candidate.mean(), 11.0);
        assert_eq!(cell.baseline.count(), 2);
        assert_eq!(cell.baseline.sample_variance(), 2.0);
        assert_eq!(cell.percent, cmp.percent);
    }

    #[test]
    fn insignificant_cell_label_is_dot() {
        let cell = HeatmapCell {
            percent: 33.0,
            p_value: Some(0.5),
            verdict: Verdict::Inconclusive,
            ..HeatmapCell::empty()
        };
        assert!(cell.label().contains('.'));
        assert!(!cell.label().contains("33"));
    }
}
