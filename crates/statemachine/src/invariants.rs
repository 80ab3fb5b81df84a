//! Temporal invariant mining, after Synoptic (Beschastnikh et al., the
//! paper's citation 15).
//!
//! Synoptic mines three families of invariants from traces and uses them
//! to constrain the inferred model:
//!
//! * `a AlwaysFollowedBy b` — every occurrence of `a` is eventually
//!   followed by an occurrence of `b` in the same trace;
//! * `a NeverFollowedBy b` — no occurrence of `a` is ever followed by `b`;
//! * `a AlwaysPrecedes b` — every occurrence of `b` has some earlier `a`.

use longlook_transport::ccstate::StateTrace;
use std::collections::BTreeMap;

/// One mined invariant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Invariant {
    /// `a` is always eventually followed by `b`.
    AlwaysFollowedBy(String, String),
    /// `a` is never followed by `b`.
    NeverFollowedBy(String, String),
    /// `a` always precedes `b`.
    AlwaysPrecedes(String, String),
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invariant::AlwaysFollowedBy(a, b) => write!(f, "{a} AlwaysFollowedBy {b}"),
            Invariant::NeverFollowedBy(a, b) => write!(f, "{a} NeverFollowedBy {b}"),
            Invariant::AlwaysPrecedes(a, b) => write!(f, "{a} AlwaysPrecedes {b}"),
        }
    }
}

/// Mine all invariants that hold over every trace.
///
/// Only label pairs where both labels actually occur somewhere are
/// considered (vacuous invariants over absent labels are uninteresting).
pub fn mine(traces: &[&StateTrace<'_>]) -> Vec<Invariant> {
    // Per label, its occurrences; per pair `(a, b)`, how many occurrences
    // of `a` see `b` later in their trace, and how many occurrences of `b`
    // see `a` earlier.
    let mut occurrences: BTreeMap<&str, u64> = BTreeMap::new();
    let mut followed: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    let mut preceded: BTreeMap<(&str, &str), u64> = BTreeMap::new();

    for t in traces {
        // A label occurs after position `i` iff its last index exceeds
        // `i`, and before it iff its first index is below `i`.
        let mut first: BTreeMap<&str, usize> = BTreeMap::new();
        let mut last: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, &(_, s)) in t.visits.iter().enumerate() {
            first.entry(s).or_insert(i);
            last.insert(s, i);
        }
        for (i, &(_, a)) in t.visits.iter().enumerate() {
            *occurrences.entry(a).or_insert(0) += 1;
            for (&b, _) in last.iter().filter(|&(_, &j)| j > i) {
                *followed.entry((a, b)).or_insert(0) += 1;
            }
            for (&b, _) in first.iter().filter(|&(_, &j)| j < i) {
                *preceded.entry((b, a)).or_insert(0) += 1;
            }
        }
    }

    let mut out = Vec::new();
    for (&a, &occ_a) in &occurrences {
        for (&b, &occ_b) in &occurrences {
            let fol = followed.get(&(a, b)).copied().unwrap_or(0);
            if fol == occ_a {
                out.push(Invariant::AlwaysFollowedBy(a.into(), b.into()));
            } else if fol == 0 {
                out.push(Invariant::NeverFollowedBy(a.into(), b.into()));
            }
            let prec = preceded.get(&(a, b)).copied().unwrap_or(0);
            if prec == occ_b && a != b {
                out.push(Invariant::AlwaysPrecedes(a.into(), b.into()));
            }
        }
    }
    out.sort();
    out
}

/// Check a single trace against an invariant (for counterexample search).
pub fn holds(inv: &Invariant, trace: &StateTrace<'_>) -> bool {
    let seq = trace.labels();
    match inv {
        Invariant::AlwaysFollowedBy(a, b) => seq
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == a)
            .all(|(i, _)| seq[i + 1..].contains(&b.as_str())),
        Invariant::NeverFollowedBy(a, b) => !seq
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == a)
            .any(|(i, _)| seq[i + 1..].contains(&b.as_str())),
        Invariant::AlwaysPrecedes(a, b) => seq
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == b)
            .all(|(i, _)| seq[..i].contains(&a.as_str())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_sim::time::{Dur, Time};

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    fn trace(labels: &[&'static str]) -> StateTrace<'static> {
        let visits = labels
            .iter()
            .enumerate()
            .map(|(i, &s)| (t(i as u64 * 10), s))
            .collect();
        StateTrace {
            visits,
            span: Dur::from_millis(labels.len() as u64 * 10),
        }
    }

    fn mine_all(traces: &[StateTrace<'static>]) -> Vec<Invariant> {
        mine(&traces.iter().collect::<Vec<_>>())
    }

    #[test]
    fn mines_always_followed_by() {
        let traces = vec![
            trace(&["Init", "SlowStart", "CA"]),
            trace(&["Init", "SlowStart"]),
        ];
        let invs = mine_all(&traces);
        assert!(invs.contains(&Invariant::AlwaysFollowedBy(
            "Init".into(),
            "SlowStart".into()
        )));
        // CA does not always follow SlowStart (second trace lacks it).
        assert!(!invs.contains(&Invariant::AlwaysFollowedBy(
            "SlowStart".into(),
            "CA".into()
        )));
    }

    #[test]
    fn mines_never_followed_by() {
        let traces = vec![trace(&["Init", "SlowStart", "CA"])];
        let invs = mine_all(&traces);
        assert!(invs.contains(&Invariant::NeverFollowedBy("CA".into(), "Init".into())));
        assert!(invs.contains(&Invariant::NeverFollowedBy(
            "SlowStart".into(),
            "Init".into()
        )));
    }

    #[test]
    fn mines_always_precedes() {
        let traces = vec![
            trace(&["Init", "SlowStart", "CA", "Recovery", "CA"]),
            trace(&["Init", "SlowStart", "CA"]),
        ];
        let invs = mine_all(&traces);
        assert!(invs.contains(&Invariant::AlwaysPrecedes("Init".into(), "Recovery".into())));
        assert!(invs.contains(&Invariant::AlwaysPrecedes("Init".into(), "CA".into())));
    }

    #[test]
    fn holds_checks_counterexamples() {
        let good = trace(&["A", "B"]);
        let bad = trace(&["A"]);
        let inv = Invariant::AlwaysFollowedBy("A".into(), "B".into());
        assert!(holds(&inv, &good));
        assert!(!holds(&inv, &bad));
        let nfb = Invariant::NeverFollowedBy("B".into(), "A".into());
        assert!(holds(&nfb, &good));
        assert!(!holds(&nfb, &trace(&["B", "A"])));
        let ap = Invariant::AlwaysPrecedes("A".into(), "B".into());
        assert!(holds(&ap, &good));
        assert!(!holds(&ap, &trace(&["B"])));
    }

    #[test]
    fn mined_invariants_hold_on_inputs() {
        let traces = vec![
            trace(&["Init", "SlowStart", "CA", "Recovery", "CA", "AppLimited"]),
            trace(&["Init", "SlowStart", "AppLimited", "SlowStart", "CA"]),
            trace(&["Init", "SlowStart"]),
        ];
        for inv in mine_all(&traces) {
            for tr in &traces {
                assert!(holds(&inv, tr), "{inv} violated");
            }
        }
    }

    #[test]
    fn empty_traces_mine_nothing() {
        assert!(mine(&[]).is_empty());
    }
}
