//! Congestion-control states (paper Table 3) and the transition tracker
//! that produces the execution traces the paper's state-machine inference
//! consumes.
//!
//! The paper instrumented gQUIC with 23 lines of logging across 5 files to
//! capture state transitions; here the instrumentation is a first-class
//! citizen: every connection owns a [`StateTracker`] and the resulting
//! [`StateTrace`] feeds `longlook-statemachine` directly.

use longlook_sim::time::{Dur, Time};
use std::collections::{BTreeMap, BTreeSet};

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

/// One observed transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State left.
    pub from: &'static str,
    /// State entered.
    pub to: &'static str,
    /// When.
    pub at: Time,
}

/// A completed state trace: the ordered transition log plus time spent in
/// each state. This is the artifact the Synoptic-style inference ingests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateTrace {
    /// Ordered `(time, state)` visit log, starting with the initial state.
    pub visits: Vec<(Time, &'static str)>,
    /// Total time spent per state label.
    pub time_in: BTreeMap<&'static str, Dur>,
    /// Total observation span.
    pub span: Dur,
}

impl StateTrace {
    /// Fraction of observed time in `label`, in `[0, 1]`.
    pub fn fraction_in(&self, label: &str) -> f64 {
        if self.span == Dur::ZERO {
            return 0.0;
        }
        self.time_in
            .get(label)
            .map_or(0.0, |d| d.as_secs_f64() / self.span.as_secs_f64())
    }

    /// Just the state-label sequence (for inference).
    pub fn labels(&self) -> Vec<&'static str> {
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
    // Established states interleave freely (the tracker samples the
    // connection's flags each tick), except no state ever returns to Init
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

/// Check one visit sequence against a legal graph: the trace must be
/// non-empty, start in `initial`, never re-enter `initial`, and every
/// state change must be an edge of `legal`. Returns a human-readable
/// description of the first violation, if any — shared by the invariant
/// test suite and the fault-injection fuzzer's CC oracle.
pub fn check_trace_legal(
    labels: &[&'static str],
    legal: &BTreeSet<(&'static str, &'static str)>,
    initial: &str,
) -> Result<(), String> {
    if labels.is_empty() {
        return Err("empty trace".to_string());
    }
    if labels[0] != initial {
        return Err(format!(
            "trace starts in {} instead of {initial}",
            labels[0]
        ));
    }
    for pair in labels.windows(2) {
        let (from, to) = (pair[0], pair[1]);
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
    if labels
        .windows(2)
        .any(|pair| pair[0] != initial && pair[1] == initial)
    {
        return Err(format!("re-entered initial state {initial}"));
    }
    Ok(())
}

/// Live tracker a connection drives as its state evolves.
#[derive(Debug, Clone)]
pub struct StateTracker {
    current: &'static str,
    entered_at: Time,
    started_at: Time,
    visits: Vec<(Time, &'static str)>,
    time_in: BTreeMap<&'static str, Dur>,
}

impl StateTracker {
    /// Start tracking in `initial` at time `now`.
    pub fn new(now: Time, initial: &'static str) -> Self {
        StateTracker {
            current: initial,
            entered_at: now,
            started_at: now,
            visits: vec![(now, initial)],
            time_in: BTreeMap::new(),
        }
    }

    /// The current state label.
    pub fn current(&self) -> &'static str {
        self.current
    }

    /// Record a (possibly unchanged) state observation; transitions are
    /// logged only when the state actually changes.
    pub fn set(&mut self, now: Time, state: &'static str) {
        if state == self.current {
            return;
        }
        let dwell = now.saturating_since(self.entered_at);
        *self.time_in.entry(self.current).or_insert(Dur::ZERO) += dwell;
        self.current = state;
        self.entered_at = now;
        self.visits.push((now, state));
    }

    /// Number of transitions so far (visits minus the initial state).
    pub fn transition_count(&self) -> usize {
        self.visits.len().saturating_sub(1)
    }

    /// Finalize at `now`, producing the trace.
    pub fn finish(&self, now: Time) -> StateTrace {
        let mut time_in = self.time_in.clone();
        *time_in.entry(self.current).or_insert(Dur::ZERO) += now.saturating_since(self.entered_at);
        StateTrace {
            visits: self.visits.clone(),
            time_in,
            span: now.saturating_since(self.started_at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
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
        let mut tr = StateTracker::new(t(0), CcState::Init.label());
        tr.set(t(1), CcState::Init.label());
        tr.set(t(2), CcState::Init.label());
        assert_eq!(tr.transition_count(), 0);
    }

    #[test]
    fn tracker_records_transitions_and_dwell() {
        let mut tr = StateTracker::new(t(0), "Init");
        tr.set(t(10), "SlowStart");
        tr.set(t(40), "CongestionAvoidance");
        tr.set(t(100), "Recovery");
        let trace = tr.finish(t(130));
        assert_eq!(
            trace.labels(),
            vec!["Init", "SlowStart", "CongestionAvoidance", "Recovery"]
        );
        assert_eq!(trace.time_in["Init"], Dur::from_millis(10));
        assert_eq!(trace.time_in["SlowStart"], Dur::from_millis(30));
        assert_eq!(trace.time_in["CongestionAvoidance"], Dur::from_millis(60));
        assert_eq!(trace.time_in["Recovery"], Dur::from_millis(30));
        assert_eq!(trace.span, Dur::from_millis(130));
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut tr = StateTracker::new(t(0), "A");
        tr.set(t(25), "B");
        tr.set(t(75), "A");
        let trace = tr.finish(t(100));
        let total = trace.fraction_in("A") + trace.fraction_in("B");
        assert!((total - 1.0).abs() < 1e-9);
        assert!((trace.fraction_in("A") - 0.5).abs() < 1e-9);
    }

    #[test]
    fn revisits_accumulate() {
        let mut tr = StateTracker::new(t(0), "A");
        tr.set(t(10), "B");
        tr.set(t(20), "A");
        tr.set(t(50), "B");
        let trace = tr.finish(t(60));
        assert_eq!(trace.time_in["A"], Dur::from_millis(40));
        assert_eq!(trace.time_in["B"], Dur::from_millis(20));
        assert_eq!(trace.labels(), vec!["A", "B", "A", "B"]);
    }

    #[test]
    fn empty_trace_fraction_is_zero() {
        let tr = StateTracker::new(t(0), "A");
        let trace = tr.finish(t(0));
        assert_eq!(trace.fraction_in("A"), 0.0);
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
            &["Init", "SlowStart", "CongestionAvoidance", "Recovery"],
            &cubic,
            "Init",
        )
        .expect("canonical cubic trace must be legal");
        let bbr = bbr_legal_edges();
        check_trace_legal(
            &["Startup", "Drain", "ProbeBW", "ProbeRTT", "ProbeBW"],
            &bbr,
            "Startup",
        )
        .expect("canonical bbr trace must be legal");
    }

    #[test]
    fn legal_graph_rejects_violations() {
        let cubic = cubic_legal_edges();
        // Re-entering Init is forbidden.
        let err = check_trace_legal(&["Init", "SlowStart", "Init"], &cubic, "Init")
            .expect_err("Init re-entry must be illegal");
        assert!(err.contains("Init"), "unexpected message: {err}");
        // CA -> SlowStart is explicitly removed from the graph.
        let err = check_trace_legal(
            &["Init", "SlowStart", "CongestionAvoidance", "SlowStart"],
            &cubic,
            "Init",
        )
        .expect_err("CA -> SlowStart must be illegal");
        assert!(err.contains("illegal transition"), "{err}");
        // Wrong initial state and empty traces are violations too.
        assert!(check_trace_legal(&["SlowStart"], &cubic, "Init").is_err());
        assert!(check_trace_legal(&[], &cubic, "Init").is_err());
        // BBR never re-enters Startup.
        let bbr = bbr_legal_edges();
        assert!(check_trace_legal(&["Startup", "Drain", "Startup"], &bbr, "Startup").is_err());
    }

    #[test]
    fn self_loops_are_not_transitions() {
        let bbr = bbr_legal_edges();
        check_trace_legal(
            &["Startup", "Startup", "Drain", "Drain", "ProbeBW"],
            &bbr,
            "Startup",
        )
        .expect("re-logged states must not count as transitions");
    }
}
