//! Paired protocol comparison: percent difference + significance verdict.

use crate::summary::Summary;
use crate::welch::{welch_t_test, WelchResult};

/// Who wins a comparison cell, in the paper's color language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// QUIC (the "candidate") is significantly better — a red cell.
    CandidateWins,
    /// TCP (the "baseline") is significantly better — a blue cell.
    BaselineWins,
    /// Difference not statistically significant — a white cell.
    Inconclusive,
}

impl Verdict {
    /// One-character cell marker used in ASCII heatmaps.
    pub fn glyph(&self) -> char {
        match self {
            Verdict::CandidateWins => 'R',
            Verdict::BaselineWins => 'B',
            Verdict::Inconclusive => '.',
        }
    }
}

/// Result of comparing candidate-protocol samples against baseline samples
/// for one scenario, where *lower is better* (e.g. page load time).
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Candidate (QUIC) sample summary.
    pub candidate: Summary,
    /// Baseline (TCP) sample summary.
    pub baseline: Summary,
    /// Percent improvement of candidate over baseline; positive means the
    /// candidate is faster. See [`percent_difference`].
    pub percent: f64,
    /// The Welch test outcome, when computable.
    pub welch: Option<WelchResult>,
    /// Significance-gated verdict at the paper's `p < 0.01`.
    pub verdict: Verdict,
}

/// Percent difference used in the paper's heatmaps: how much smaller the
/// candidate metric is relative to the baseline, as a percentage of the
/// baseline. Positive = candidate (QUIC) better for lower-is-better metrics.
pub fn percent_difference(candidate_mean: f64, baseline_mean: f64) -> f64 {
    if baseline_mean == 0.0 {
        return 0.0;
    }
    (baseline_mean - candidate_mean) / baseline_mean * 100.0
}

impl Comparison {
    /// Compare lower-is-better metric samples (e.g. PLT in ms), gated at
    /// the paper's `p < 0.01`.
    pub fn lower_is_better(candidate: &[f64], baseline: &[f64]) -> Self {
        let c = Summary::of(candidate);
        let b = Summary::of(baseline);
        let percent = percent_difference(c.mean(), b.mean());
        let welch = welch_t_test(candidate, baseline);
        let verdict = match welch {
            Some(w) if w.significant() => {
                if percent > 0.0 {
                    Verdict::CandidateWins
                } else {
                    Verdict::BaselineWins
                }
            }
            _ => Verdict::Inconclusive,
        };
        Comparison {
            candidate: c,
            baseline: b,
            percent,
            welch,
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_sign_convention() {
        // Candidate PLT 80 ms vs baseline 100 ms: 20% faster.
        assert_eq!(percent_difference(80.0, 100.0), 20.0);
        // Candidate slower: negative.
        assert_eq!(percent_difference(150.0, 100.0), -50.0);
        assert_eq!(percent_difference(5.0, 0.0), 0.0);
    }

    #[test]
    fn candidate_wins_lower_is_better() {
        let quic = [80.0, 81.0, 79.5, 80.2, 80.8];
        let tcp = [100.0, 101.0, 99.0, 100.5, 100.1];
        let c = Comparison::lower_is_better(&quic, &tcp);
        assert_eq!(c.verdict, Verdict::CandidateWins);
        assert!(c.percent > 15.0);
    }

    #[test]
    fn baseline_wins_lower_is_better() {
        let quic = [130.0, 131.0, 129.5, 130.2, 130.8];
        let tcp = [100.0, 101.0, 99.0, 100.5, 100.1];
        let c = Comparison::lower_is_better(&quic, &tcp);
        assert_eq!(c.verdict, Verdict::BaselineWins);
        assert!(c.percent < 0.0);
    }

    #[test]
    fn noisy_overlap_is_inconclusive() {
        let quic = [100.0, 140.0, 90.0, 130.0, 95.0];
        let tcp = [105.0, 135.0, 92.0, 128.0, 99.0];
        let c = Comparison::lower_is_better(&quic, &tcp);
        assert_eq!(c.verdict, Verdict::Inconclusive);
    }

    #[test]
    fn verdict_glyphs() {
        assert_eq!(Verdict::CandidateWins.glyph(), 'R');
        assert_eq!(Verdict::BaselineWins.glyph(), 'B');
        assert_eq!(Verdict::Inconclusive.glyph(), '.');
    }
}
