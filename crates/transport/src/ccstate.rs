//! Congestion-control states (paper Table 3) and the state history that
//! the paper's state-machine inference consumes.
//!
//! The paper instrumented gQUIC with 23 lines of logging across 5 files to
//! capture state transitions; here the instrumentation is a first-class
//! citizen: every connection appends to a [`StateTrace`], which feeds
//! `longlook-statemachine` directly.

use longlook_sim::time::{Dur, Time};
use longlook_sim::trace::{TraceEvent, TraceRecord};
use std::collections::BTreeSet;

/// QUIC congestion-control states, exactly Table 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcState {
    /// Initial connection establishment.
    Init,
    /// Slow start phase.
    SlowStart,
    /// Normal congestion avoidance.
    CongestionAvoidance,
    /// Maximum allowed window size reached (QUIC's MACW clamp).
    CaMaxed,
    /// Current congestion window is not being utilized, hence the window
    /// will not be increased.
    ApplicationLimited,
    /// Loss detected due to timeout for ACK.
    RetransmissionTimeout,
    /// Proportional-rate-reduction fast recovery.
    Recovery,
    /// Recovering tail losses.
    TailLossProbe,
}

impl CcState {
    /// Stable label used in traces and inferred diagrams (matches Fig 3a).
    pub fn label(&self) -> &'static str {
        match self {
            CcState::Init => "Init",
            CcState::SlowStart => "SlowStart",
            CcState::CongestionAvoidance => "CongestionAvoidance",
            CcState::CaMaxed => "CongestionAvoidanceMaxed",
            CcState::ApplicationLimited => "ApplicationLimited",
            CcState::RetransmissionTimeout => "RetransmissionTimeout",
            CcState::Recovery => "Recovery",
            CcState::TailLossProbe => "TailLossProbe",
        }
    }

    /// All states, for table rendering.
    pub fn all() -> [CcState; 8] {
        [
            CcState::Init,
            CcState::SlowStart,
            CcState::CongestionAvoidance,
            CcState::CaMaxed,
            CcState::ApplicationLimited,
            CcState::RetransmissionTimeout,
            CcState::Recovery,
            CcState::TailLossProbe,
        ]
    }

    /// Paper Table 3 description.
    pub fn description(&self) -> &'static str {
        match self {
            CcState::Init => "Initial connection establishment",
            CcState::SlowStart => "Slow start phase",
            CcState::CongestionAvoidance => "Normal congestion avoidance",
            CcState::CaMaxed => "Max allowed win. size is reached",
            CcState::ApplicationLimited => {
                "Current cong. win. is not being utilized, hence window will not be increased"
            }
            CcState::RetransmissionTimeout => "Loss detected due to timeout for ACK",
            CcState::Recovery => "Proportional rate reduction fast recovery",
            CcState::TailLossProbe => "Recover tail losses",
        }
    }
}

/// BBR states (paper Fig 3b, for the experimental BBR implementation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BbrState {
    /// Exponential bandwidth probing at startup.
    Startup,
    /// Draining the queue built during startup.
    Drain,
    /// Steady-state bandwidth probing (gain cycling).
    ProbeBw,
    /// Periodic minimum-RTT probing with a tiny window.
    ProbeRtt,
}

impl BbrState {
    /// Stable label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            BbrState::Startup => "Startup",
            BbrState::Drain => "Drain",
            BbrState::ProbeBw => "ProbeBW",
            BbrState::ProbeRtt => "ProbeRTT",
        }
    }
}

/// A state of either Fig-3 machine: Cubic's Table 3 vocabulary (Fig 3a),
/// which connections overlay with their own states, or BBR's (Fig 3b),
/// reported as is. Connections sample it on every packet and write its
/// [`label`](Self::label) only when it changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig3State {
    /// A Table 3 state.
    Cubic(CcState),
    /// A BBR state.
    Bbr(BbrState),
}

impl Fig3State {
    /// The state's stable trace label.
    pub fn label(self) -> &'static str {
        match self {
            Fig3State::Cubic(s) => s.label(),
            Fig3State::Bbr(s) => s.label(),
        }
    }
}

/// One connection's Fig-3 state history: the ordered visit log and how
/// long it was observed. It is the one value that carries a history from
/// a live connection (labels `&'static str`) or a parsed trace file
/// (labels borrowed from its records) to inference, and every dwell time
/// is derived from it by [`StateTrace::dwells`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateTrace<'a> {
    /// Ordered `(time, state)` visit log, starting with the initial state.
    pub visits: Vec<(Time, &'a str)>,
    /// Total observation span, from the first visit.
    pub span: Dur,
}

impl<'a> StateTrace<'a> {
    /// A history that starts in `initial` at `now`.
    pub fn new(now: Time, initial: &'a str) -> Self {
        StateTrace {
            visits: vec![(now, initial)],
            span: Dur::ZERO,
        }
    }

    /// The history a structured event trace carries in its `CcState`
    /// records, observed until its last record.
    pub fn from_records(records: &'a [TraceRecord]) -> Self {
        let visits = records
            .iter()
            .filter_map(|r| match &r.ev {
                TraceEvent::CcState { state } => Some((Time::from_nanos(r.t), state.as_str())),
                _ => None,
            })
            .collect();
        let end = records.last().map_or(Time::ZERO, |r| Time::from_nanos(r.t));
        StateTrace {
            visits,
            span: Dur::ZERO,
        }
        .ended_at(end)
    }

    /// Record a (possibly unchanged) state observation; a visit is logged
    /// only when the state actually changes.
    pub fn enter(&mut self, now: Time, state: &'a str) {
        if self.visits.last().map(|&(_, s)| s) != Some(state) {
            self.visits.push((now, state));
        }
    }

    /// This history, observed until `end`.
    pub fn ended_at(mut self, end: Time) -> Self {
        self.span = self
            .visits
            .first()
            .map_or(Dur::ZERO, |&(t0, _)| end.saturating_since(t0));
        self
    }

    /// Each visit's state and dwell: until the next visit, the last one
    /// until the end of the span.
    pub fn dwells(&self) -> impl Iterator<Item = (&'a str, Dur)> + '_ {
        let end = self.visits.first().map(|&(t0, _)| t0 + self.span);
        let next = self.visits.iter().skip(1).map(|&(t, _)| t).chain(end);
        self.visits
            .iter()
            .zip(next)
            .map(|(&(t, s), next)| (s, next.saturating_since(t)))
    }

    /// `(state, dwell, share of span)` per state, summed over repeat
    /// visits, in order of first entry.
    pub fn dwell_table(&self) -> Vec<(&'a str, Dur, f64)> {
        let mut out: Vec<(&'a str, Dur, f64)> = Vec::new();
        for (s, dwell) in self.dwells() {
            match out.iter_mut().find(|row| row.0 == s) {
                Some(row) => row.1 += dwell,
                None => out.push((s, dwell, 0.0)),
            }
        }
        if self.span > Dur::ZERO {
            for row in &mut out {
                row.2 = row.1 / self.span;
            }
        }
        out
    }

    /// Fraction of observed time in `label`, in `[0, 1]`.
    pub fn fraction_in(&self, label: &str) -> f64 {
        self.dwell_table()
            .into_iter()
            .find(|row| row.0 == label)
            .map_or(0.0, |row| row.2)
    }

    /// Just the state-label sequence.
    pub fn labels(&self) -> Vec<&'a str> {
        self.visits.iter().map(|&(_, s)| s).collect()
    }
}

/// Cubic's legal transition graph (paper Fig 3a / Table 3): `Init` is
/// entered exactly once at handshake and never again; loss states are
/// reachable from every established state; `CongestionAvoidanceMaxed` is
/// an excursion from/into congestion avoidance. Anything not listed —
/// above all `* -> Init` — is a forbidden transition.
pub fn cubic_legal_edges() -> BTreeSet<(&'static str, &'static str)> {
    const SS: &str = "SlowStart";
    const CA: &str = "CongestionAvoidance";
    const CAM: &str = "CongestionAvoidanceMaxed";
    const AL: &str = "ApplicationLimited";
    const REC: &str = "Recovery";
    const RTO: &str = "RetransmissionTimeout";
    const TLP: &str = "TailLossProbe";
    let mut edges = BTreeSet::new();
    edges.insert(("Init", SS));
    // Established states interleave freely (the connection samples its
    // flags each tick), except no state ever returns to Init
    // and loss states only appear with loss evidence (checked separately).
    for from in [SS, CA, CAM, AL, REC, RTO, TLP] {
        for to in [SS, CA, CAM, AL, REC, RTO, TLP] {
            if from != to {
                edges.insert((from, to));
            }
        }
    }
    // Slow start is only re-entered after an RTO or when the app went
    // idle long enough to reset the window — never straight from CA.
    edges.remove(&(CA, SS));
    edges.remove(&(CAM, SS));
    edges
}

/// BBR's legal graph is tiny and exact (paper Fig 3b):
/// `Startup -> Drain -> ProbeBW <-> ProbeRTT`, nothing else — in
/// particular Startup is never re-entered and Drain is only reached from
/// Startup.
pub fn bbr_legal_edges() -> BTreeSet<(&'static str, &'static str)> {
    [
        ("Startup", "Drain"),
        ("Drain", "ProbeBW"),
        ("ProbeBW", "ProbeRTT"),
        ("ProbeRTT", "ProbeBW"),
    ]
    .into_iter()
    .collect()
}

/// Check one state history against a legal graph: the trace must be
/// non-empty, start in `initial`, never re-enter `initial`, and every
/// state change must be an edge of `legal`. Returns a human-readable
/// description of the first violation, if any — shared by the invariant
/// test suite and the fault-injection fuzzer's CC oracle.
pub fn check_trace_legal(
    trace: &StateTrace<'_>,
    legal: &BTreeSet<(&str, &str)>,
    initial: &str,
) -> Result<(), String> {
    let Some(&(_, first)) = trace.visits.first() else {
        return Err("empty trace".to_string());
    };
    if first != initial {
        return Err(format!("trace starts in {first} instead of {initial}"));
    }
    for pair in trace.visits.windows(2) {
        let (from, to) = (pair[0].1, pair[1].1);
        if from == to {
            continue; // re-logged same state: not a transition
        }
        if !legal.contains(&(from, to)) {
            return Err(format!(
                "illegal transition {from} -> {to} (not an edge of the \
                 paper's Fig 3 graph)"
            ));
        }
    }
    if trace
        .visits
        .windows(2)
        .any(|pair| pair[0].1 != initial && pair[1].1 == initial)
    {
        return Err(format!("re-entered initial state {initial}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    /// A history visiting `labels` one millisecond apart.
    fn trace(labels: &[&'static str]) -> StateTrace<'static> {
        let visits = (0..).map(t).zip(labels.iter().copied()).collect();
        StateTrace {
            visits,
            span: Dur::from_millis(labels.len() as u64),
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CcState::CaMaxed.label(), "CongestionAvoidanceMaxed");
        assert_eq!(CcState::all().len(), 8);
        for s in CcState::all() {
            assert!(!s.description().is_empty());
        }
    }

    #[test]
    fn tracker_ignores_no_op_sets() {
        let mut tr = StateTrace::new(t(0), CcState::Init.label());
        tr.enter(t(1), CcState::Init.label());
        tr.enter(t(2), CcState::Init.label());
        assert_eq!(tr.visits, [(t(0), "Init")]);
    }

    #[test]
    fn tracker_records_transitions_and_dwell() {
        let mut tr = StateTrace::new(t(0), "Init");
        tr.enter(t(10), "SlowStart");
        tr.enter(t(40), "CongestionAvoidance");
        tr.enter(t(100), "Recovery");
        let trace = tr.ended_at(t(130));
        assert_eq!(
            trace.labels(),
            vec!["Init", "SlowStart", "CongestionAvoidance", "Recovery"]
        );
        let ms = Dur::from_millis;
        assert_eq!(
            trace.dwells().collect::<Vec<_>>(),
            [
                ("Init", ms(10)),
                ("SlowStart", ms(30)),
                ("CongestionAvoidance", ms(60)),
                ("Recovery", ms(30)),
            ]
        );
        assert_eq!(trace.span, ms(130));
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut tr = StateTrace::new(t(0), "A");
        tr.enter(t(25), "B");
        tr.enter(t(75), "A");
        let trace = tr.ended_at(t(100));
        let total = trace.fraction_in("A") + trace.fraction_in("B");
        assert!((total - 1.0).abs() < 1e-9);
        assert!((trace.fraction_in("A") - 0.5).abs() < 1e-9);
        assert_eq!(trace.fraction_in("C"), 0.0);
    }

    #[test]
    fn revisits_accumulate() {
        let mut tr = StateTrace::new(t(0), "A");
        tr.enter(t(10), "B");
        tr.enter(t(20), "A");
        tr.enter(t(50), "B");
        let trace = tr.ended_at(t(60));
        assert_eq!(
            trace.dwell_table(),
            [
                ("A", Dur::from_millis(40), 40.0 / 60.0),
                ("B", Dur::from_millis(20), 20.0 / 60.0)
            ]
        );
        assert_eq!(trace.labels(), vec!["A", "B", "A", "B"]);
    }

    #[test]
    fn empty_trace_fraction_is_zero() {
        let trace = StateTrace::new(t(0), "A").ended_at(t(0));
        assert_eq!(trace.fraction_in("A"), 0.0);
        assert_eq!(trace.dwell_table(), [("A", Dur::ZERO, 0.0)]);
    }

    #[test]
    fn labels_and_dwells() {
        let mut trace = StateTrace::new(t(0), "A");
        trace.enter(t(10), "B");
        trace.enter(t(30), "A");
        let trace = trace.ended_at(t(100));
        assert_eq!(trace.labels(), vec!["A", "B", "A"]);
        let dwells: Vec<Dur> = trace.dwells().map(|(_, d)| d).collect();
        assert_eq!(dwells, [10, 20, 70].map(Dur::from_millis));
        assert_eq!(trace.span, Dur::from_millis(100));
    }

    #[test]
    fn empty_trace_span_is_zero() {
        let trace = StateTrace::default().ended_at(t(50));
        assert_eq!(trace.span, Dur::ZERO);
        assert!(trace.labels().is_empty());
        assert_eq!(trace.dwells().count(), 0);
        assert!(trace.dwell_table().is_empty());
    }

    #[test]
    fn from_records_reads_state_records_until_the_last_record() {
        let rec = |ms: u64, ev| TraceRecord {
            t: ms * 1_000_000,
            ev,
        };
        let state = |s: &str| TraceEvent::CcState { state: s.into() };
        let records = [
            rec(5, TraceEvent::Cwnd { bytes: 1 }),
            rec(10, state("A")),
            rec(20, TraceEvent::Loss { pn: 3 }),
            rec(30, state("B")),
            rec(110, TraceEvent::Cwnd { bytes: 2 }),
        ];
        let trace = StateTrace::from_records(&records);
        assert_eq!(trace.visits, [(t(10), "A"), (t(30), "B")]);
        assert_eq!(trace.span, Dur::from_millis(100));
        assert_eq!(
            StateTrace::from_records(&records[..1]),
            StateTrace::default()
        );
        assert_eq!(StateTrace::from_records(&[]), StateTrace::default());
    }

    #[test]
    fn bbr_labels() {
        assert_eq!(BbrState::ProbeBw.label(), "ProbeBW");
        assert_eq!(BbrState::ProbeRtt.label(), "ProbeRTT");
    }

    #[test]
    fn legal_graph_accepts_canonical_traces() {
        let cubic = cubic_legal_edges();
        check_trace_legal(
            &trace(&["Init", "SlowStart", "CongestionAvoidance", "Recovery"]),
            &cubic,
            "Init",
        )
        .expect("canonical cubic trace must be legal");
        let bbr = bbr_legal_edges();
        check_trace_legal(
            &trace(&["Startup", "Drain", "ProbeBW", "ProbeRTT", "ProbeBW"]),
            &bbr,
            "Startup",
        )
        .expect("canonical bbr trace must be legal");
    }

    #[test]
    fn legal_graph_rejects_violations() {
        let cubic = cubic_legal_edges();
        // Re-entering Init is forbidden.
        let err = check_trace_legal(&trace(&["Init", "SlowStart", "Init"]), &cubic, "Init")
            .expect_err("Init re-entry must be illegal");
        assert!(err.contains("Init"), "unexpected message: {err}");
        // CA -> SlowStart is explicitly removed from the graph.
        let err = check_trace_legal(
            &trace(&["Init", "SlowStart", "CongestionAvoidance", "SlowStart"]),
            &cubic,
            "Init",
        )
        .expect_err("CA -> SlowStart must be illegal");
        assert!(err.contains("illegal transition"), "{err}");
        // Wrong initial state and empty traces are violations too.
        assert!(check_trace_legal(&trace(&["SlowStart"]), &cubic, "Init").is_err());
        assert!(check_trace_legal(&trace(&[]), &cubic, "Init").is_err());
        // BBR never re-enters Startup.
        let bbr = bbr_legal_edges();
        assert!(
            check_trace_legal(&trace(&["Startup", "Drain", "Startup"]), &bbr, "Startup").is_err()
        );
    }

    #[test]
    fn self_loops_are_not_transitions() {
        let bbr = bbr_legal_edges();
        check_trace_legal(
            &trace(&["Startup", "Startup", "Drain", "Drain", "ProbeBW"]),
            &bbr,
            "Startup",
        )
        .expect("re-logged states must not count as transitions");
    }
}
