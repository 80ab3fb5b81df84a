//! The inferred state machine: states, transition counts/probabilities,
//! time-in-state fractions, and DOT rendering in the style of the paper's
//! Figures 3 and 13 (red time fractions, black transition probabilities).

use crate::invariants::{mine, Invariant};
use longlook_sim::time::Dur;
use longlook_transport::ccstate::StateTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Synthetic initial/terminal markers (as in Synoptic's graphs).
pub const INITIAL: &str = "INITIAL";
/// Synthetic terminal state.
pub const TERMINAL: &str = "TERMINAL";

/// An inferred state machine.
#[derive(Debug, Clone)]
pub struct InferredMachine {
    /// All observed state labels (sorted).
    pub states: Vec<String>,
    /// Transition counts `(from, to) -> n`, including INITIAL/TERMINAL.
    pub transitions: BTreeMap<(String, String), u64>,
    /// Total time spent per state across all traces.
    pub time_in: BTreeMap<String, Dur>,
    /// Total observed span across traces.
    pub total_span: Dur,
    /// Number of traces.
    pub trace_count: usize,
    /// Mined temporal invariants.
    pub invariants: Vec<Invariant>,
}

/// Infer a machine from execution traces.
pub fn infer(traces: &[&StateTrace<'_>]) -> InferredMachine {
    let mut transitions: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    let mut time_in: BTreeMap<&str, Dur> = BTreeMap::new();
    let mut total_span = Dur::ZERO;

    for tr in traces {
        total_span += tr.span;
        let mut from = INITIAL;
        for (s, dwell) in tr.dwells() {
            *time_in.entry(s).or_insert(Dur::ZERO) += dwell;
            *transitions.entry((from, s)).or_insert(0) += 1;
            from = s;
        }
        if !tr.visits.is_empty() {
            *transitions.entry((from, TERMINAL)).or_insert(0) += 1;
        }
    }

    InferredMachine {
        states: time_in.keys().map(|s| s.to_string()).collect(),
        transitions: transitions
            .into_iter()
            .map(|((from, to), n)| ((from.to_string(), to.to_string()), n))
            .collect(),
        time_in: time_in
            .into_iter()
            .map(|(s, d)| (s.to_string(), d))
            .collect(),
        total_span,
        trace_count: traces.len(),
        invariants: mine(traces),
    }
}

impl InferredMachine {
    /// Probability of moving to `to` when leaving `from`.
    pub fn transition_probability(&self, from: &str, to: &str) -> f64 {
        let total: u64 = self
            .transitions
            .iter()
            .filter(|((f, _), _)| f == from)
            .map(|(_, &n)| n)
            .sum();
        if total == 0 {
            return 0.0;
        }
        let n = self
            .transitions
            .get(&(from.to_string(), to.to_string()))
            .copied()
            .unwrap_or(0);
        n as f64 / total as f64
    }

    /// Fraction of total observed time spent in `state`.
    pub fn time_fraction(&self, state: &str) -> f64 {
        if self.total_span == Dur::ZERO {
            return 0.0;
        }
        self.time_in
            .get(state)
            .map_or(0.0, |&d| d / self.total_span)
    }

    /// Number of times `state` was visited.
    pub fn visit_count(&self, state: &str) -> u64 {
        self.transitions
            .iter()
            .filter(|((_, t), _)| t == state)
            .map(|(_, &n)| n)
            .sum()
    }

    /// States reachable from `from` in one step (with counts).
    pub fn successors(&self, from: &str) -> Vec<(&str, u64)> {
        self.transitions
            .iter()
            .filter(|((f, _), _)| f == from)
            .map(|((_, t), &n)| (t.as_str(), n))
            .collect()
    }

    /// Render Graphviz DOT in the style of the paper's Fig 13: nodes carry
    /// the time-in-state fraction (red), edges the transition probability
    /// (black).
    pub fn to_dot(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{title}\" {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=ellipse, fontsize=11];");
        let _ = writeln!(out, "  \"{INITIAL}\" [shape=point];");
        let _ = writeln!(out, "  \"{TERMINAL}\" [shape=doublecircle, label=\"\"];");
        for s in &self.states {
            let frac = self.time_fraction(s);
            let _ = writeln!(
                out,
                "  \"{s}\" [label=\"{s}\\n{:.2}\", fontcolor=black, xlabel=<<font color=\"red\">{:.2}</font>>];",
                frac, frac
            );
        }
        for ((from, to), n) in &self.transitions {
            let p = self.transition_probability(from, to);
            let _ = writeln!(
                out,
                "  \"{from}\" -> \"{to}\" [label=\"{p:.2}\", weight={n}];"
            );
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// Compact text rendering for terminal output.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "inferred machine: {} states, {} traces, span {}",
            self.states.len(),
            self.trace_count,
            self.total_span
        );
        for s in &self.states {
            let _ = writeln!(
                out,
                "  [{s}] time={:.1}% visits={}",
                self.time_fraction(s) * 100.0,
                self.visit_count(s)
            );
            let mut succ = self.successors(s);
            succ.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            for (t, n) in succ {
                let _ = writeln!(
                    out,
                    "     -> {t} (p={:.2}, n={n})",
                    self.transition_probability(s, t)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_sim::time::Time;

    fn trace(labels: &[&'static str], step_ms: u64) -> StateTrace<'static> {
        let visits = labels
            .iter()
            .enumerate()
            .map(|(i, &s)| (Time::ZERO + Dur::from_millis(i as u64 * step_ms), s))
            .collect();
        StateTrace {
            visits,
            span: Dur::from_millis(labels.len() as u64 * step_ms),
        }
    }

    #[test]
    fn infers_states_and_transitions() {
        let m = infer(&[
            &trace(&["Init", "SlowStart", "CA"], 10),
            &trace(&["Init", "SlowStart", "Recovery", "CA"], 10),
        ]);
        assert_eq!(m.states, vec!["CA", "Init", "Recovery", "SlowStart"]);
        assert_eq!(m.transitions[&("INITIAL".into(), "Init".into())], 2);
        assert_eq!(m.transitions[&("Init".into(), "SlowStart".into())], 2);
        assert_eq!(m.transitions[&("CA".into(), "TERMINAL".into())], 2);
        assert_eq!(m.trace_count, 2);
    }

    #[test]
    fn transition_probabilities_sum_to_one() {
        let m = infer(&[
            &trace(&["A", "B"], 10),
            &trace(&["A", "C"], 10),
            &trace(&["A", "B"], 10),
        ]);
        let p_b = m.transition_probability("A", "B");
        let p_c = m.transition_probability("A", "C");
        assert!((p_b - 2.0 / 3.0).abs() < 1e-12);
        assert!((p_c - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.transition_probability("A", "Z"), 0.0);
    }

    #[test]
    fn time_fractions_aggregate_across_traces() {
        // Trace 1: A for 10ms, B for 10ms. Trace 2: A for 20ms.
        let m = infer(&[&trace(&["A", "B"], 10), &trace(&["A"], 20)]);
        assert!((m.time_fraction("A") - 0.75).abs() < 1e-9);
        assert!((m.time_fraction("B") - 0.25).abs() < 1e-9);
    }

    #[test]
    fn visit_counts() {
        let m = infer(&[&trace(&["A", "B", "A", "B"], 5)]);
        assert_eq!(m.visit_count("A"), 2);
        assert_eq!(m.visit_count("B"), 2); // the terminal edge is from B
    }

    #[test]
    fn dot_output_is_wellformed() {
        let m = infer(&[&trace(&["Init", "SlowStart"], 10)]);
        let dot = m.to_dot("QUIC Cubic");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("\"Init\" -> \"SlowStart\""));
        assert!(dot.contains("INITIAL"));
        assert!(dot.contains("TERMINAL"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn text_rendering_mentions_all_states() {
        let m = infer(&[&trace(&["Init", "SlowStart", "CA"], 10)]);
        let text = m.render_text();
        for s in ["Init", "SlowStart", "CA"] {
            assert!(text.contains(s));
        }
    }

    #[test]
    fn invariants_included() {
        let m = infer(&[&trace(&["Init", "SlowStart"], 10)]);
        assert!(m.invariants.contains(&Invariant::AlwaysPrecedes(
            "Init".into(),
            "SlowStart".into()
        )));
    }

    #[test]
    fn empty_input() {
        let m = infer(&[]);
        assert!(m.states.is_empty());
        assert_eq!(m.time_fraction("X"), 0.0);
        assert_eq!(m.trace_count, 0);
    }
}
