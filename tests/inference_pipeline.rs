//! Integration tests for the trace -> state-machine inference pipeline
//! (the paper's root-cause instrument), including property-based checks
//! on the inference invariants.

use longlook_core::prelude::*;
use longlook_core::rootcause::infer_from_records;
use longlook_sim::time::Time as STime;
use longlook_sim::trace::{encode_seq, parse_seq};
use longlook_statemachine::{holds, infer};
use longlook_transport::ccstate::StateTrace;
use proptest::prelude::*;

#[test]
fn cubic_machine_covers_expected_states_under_stress() {
    let mut records = Vec::new();
    // Clean, lossy, and jittery runs to visit many states.
    for (seed, net) in [
        (1u64, NetProfile::baseline(10.0)),
        (2, NetProfile::baseline(100.0).with_loss(0.01)),
        (
            3,
            NetProfile::baseline(50.0)
                .with_extra_rtt(Dur::from_millis(76))
                .with_jitter(Dur::from_millis(10)),
        ),
    ] {
        let sc = Scenario::new(net, PageSpec::single(3 * 1024 * 1024))
            .with_rounds(2)
            .with_seed(seed);
        records.extend(sc.records(Parallelism::auto()));
    }
    let m = infer_from_records(&records);
    for expected in ["Init", "SlowStart", "CongestionAvoidance", "Recovery"] {
        assert!(
            m.states.iter().any(|s| s == expected),
            "missing state {expected}: {:?}",
            m.states
        );
    }
    // Init always precedes SlowStart.
    assert!(m
        .invariants
        .iter()
        .any(|i| i.to_string() == "Init AlwaysPrecedes SlowStart"));
    // Probabilities out of each state sum to ~1.
    for s in &m.states {
        let total: f64 = m
            .successors(s)
            .iter()
            .map(|(t, _)| m.transition_probability(s, t))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "{s}: {total}");
    }
}

#[test]
fn bbr_machine_uses_bbr_states_only() {
    let cfg = QuicConfig {
        cc: CcKind::Bbr,
        ..QuicConfig::default()
    };
    let records = Scenario::new(
        NetProfile::baseline(20.0),
        PageSpec::single(10 * 1024 * 1024),
    )
    .with_proto(ProtoConfig::Quic(cfg))
    .with_rounds(2)
    .records(Parallelism::auto());
    let m = infer_from_records(&records);
    for s in &m.states {
        assert!(
            ["Startup", "Drain", "ProbeBW", "ProbeRTT"].contains(&s.as_str()),
            "unexpected BBR state {s}"
        );
    }
    assert!(m.states.iter().any(|s| s == "Startup"));
}

#[test]
fn motog_is_application_limited_far_more_than_desktop() {
    let desktop = Scenario::new(
        NetProfile::baseline(50.0),
        PageSpec::single(10 * 1024 * 1024),
    )
    .with_rounds(2);
    let motog = desktop.clone().on_device(DeviceProfile::MOTOG);
    let desktop = infer_from_records(&desktop.records(Parallelism::auto()));
    let motog = infer_from_records(&motog.records(Parallelism::auto()));
    let d = desktop.time_fraction("ApplicationLimited");
    let m = motog.time_fraction("ApplicationLimited");
    assert!(
        m > d + 0.2,
        "MotoG app-limited {:.0}% must far exceed desktop {:.0}% (paper: 58% vs 7%)",
        m * 100.0,
        d * 100.0
    );
}

/// The tracer's change-only `CcState` stream and the connection's own
/// state history agree: the history read back from a run's captured trace
/// file has exactly the visits of its `server_trace`, for each controller
/// vocabulary, clean and under loss.
#[test]
fn captured_trace_carries_the_connection_state_history() {
    let bbr = QuicConfig {
        cc: CcKind::Bbr,
        ..QuicConfig::default()
    };
    let cells = [
        ("QUIC-Cubic", ProtoConfig::Quic(QuicConfig::default())),
        ("QUIC-BBR", ProtoConfig::Quic(bbr)),
        ("TCP", ProtoConfig::Tcp(TcpConfig::default())),
    ];
    for (name, proto) in cells {
        for loss in [0.0, 0.01] {
            let sc = Scenario::new(
                NetProfile::baseline(20.0).with_loss(loss),
                PageSpec::single(2 * 1024 * 1024),
            )
            .with_proto(proto.clone())
            .with_seed(34);
            let (rec, records) = sc.run_traced(0);
            let parsed = parse_seq(&encode_seq(&records)).expect("captured trace parses");
            let live = rec.server_trace.expect("server trace");
            assert!(
                live.visits.len() > 1,
                "{name} at loss {loss}: no transitions"
            );
            assert_eq!(
                StateTrace::from_records(&parsed).visits,
                live.visits,
                "{name} at loss {loss}"
            );
        }
    }
}

/// Histories of the given label-index sequences, one visit every `step_ms`.
fn state_traces(
    seqs: &[Vec<usize>],
    labels: &[&'static str],
    step_ms: u64,
) -> Vec<StateTrace<'static>> {
    seqs.iter()
        .map(|seq| StateTrace {
            visits: seq
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    (
                        STime::ZERO + Dur::from_millis(i as u64 * step_ms),
                        labels[s],
                    )
                })
                .collect(),
            span: Dur::from_millis(seq.len() as u64 * step_ms),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mined invariants always hold on the traces they were mined from.
    #[test]
    fn mined_invariants_hold_on_inputs(
        traces in proptest::collection::vec(
            proptest::collection::vec(0usize..5, 1..12),
            1..6,
        )
    ) {
        let traces = state_traces(&traces, &["A", "B", "C", "D", "E"], 10);
        let machine = infer(&traces.iter().collect::<Vec<_>>());
        for inv in &machine.invariants {
            for tr in &traces {
                prop_assert!(holds(inv, tr), "{inv} violated");
            }
        }
        // Time fractions sum to ~1 when there is any dwell time.
        let total: f64 = machine
            .states
            .iter()
            .map(|s| machine.time_fraction(s))
            .sum();
        prop_assert!(total <= 1.0 + 1e-9);
    }

    /// Transition counts equal the number of adjacent pairs plus
    /// INITIAL/TERMINAL edges.
    #[test]
    fn transition_counts_are_consistent(
        seq in proptest::collection::vec(0usize..3, 1..20)
    ) {
        let trace = state_traces(std::slice::from_ref(&seq), &["X", "Y", "Z"], 1);
        let machine = infer(&[&trace[0]]);
        let total: u64 = machine.transitions.values().sum();
        // n-1 internal edges + INITIAL edge + TERMINAL edge.
        prop_assert_eq!(total, seq.len() as u64 + 1);
    }
}
