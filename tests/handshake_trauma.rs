//! Handshake-phase trauma: the connection-establishment edge cases the
//! fuzzer's random plans hit only occasionally, pinned as named tests.
//!
//! Two families:
//!
//! 1. **0-RTT rejection fallback** — a server whose cached config expired
//!    (`zero_rtt_accept = false`) REJs the early data; the client must
//!    fall back to a full 1-RTT handshake, retransmit the early request,
//!    and still complete the load (at a strictly-no-better PLT than an
//!    accepting server).
//! 2. **Blackout spanning the first flight** — an outage that swallows
//!    the initial handshake packets. A short outage must be survived by
//!    retransmission timers (completion after retry); an outage outlasting
//!    the watchdog must surface a *typed* error. Either way the world
//!    quiesces: `RunOutcome::DeadlineReached` is the silent hang the
//!    fault layer exists to make impossible.

use longlook_core::prelude::*;

fn cell_scenario(plan: Option<FaultPlan>) -> Scenario {
    let net = match plan {
        Some(p) => NetProfile::baseline(5.0).with_fault(p),
        None => NetProfile::baseline(5.0),
    };
    let mut sc = Scenario::new(net, PageSpec::single(40 * 1024))
        .with_rounds(1)
        .with_seed(8101);
    sc.deadline = Dur::from_secs(120);
    sc
}

fn blackout_from_start(secs: u64) -> FaultPlan {
    FaultPlan::new().with_event(FaultEvent {
        at: Time::ZERO,
        dur: Dur::from_secs(secs),
        dir: FaultDir::Both,
        kind: FaultKind::Blackout,
    })
}

/// A rejecting server forces the warm client through REJ -> full CHLO ->
/// retransmitted request, and the load still completes with no error on
/// either endpoint.
#[test]
fn quic_zero_rtt_rejection_falls_back_and_completes() {
    let sc = cell_scenario(None);
    let accepting = ProtoConfig::Quic(QuicConfig::default());
    let rejecting = ProtoConfig::Quic(QuicConfig {
        zero_rtt_accept: false,
        ..QuicConfig::default()
    });

    let ok = sc.clone().with_proto(accepting).run(0);
    let rej = sc.with_proto(rejecting).run(0);

    assert!(ok.completed(), "accepting baseline must complete");
    assert!(
        rej.completed(),
        "rejected 0-RTT must fall back and complete"
    );
    assert_eq!(rej.client_error, None);
    assert_eq!(rej.server_error, None);
    assert_eq!(
        rej.app_bytes, ok.app_bytes,
        "fallback must deliver the page"
    );

    let plt_ok = ok.plt.expect("accepting PLT");
    let plt_rej = rej.plt.expect("rejecting PLT");
    assert!(
        plt_rej > plt_ok,
        "a REJ costs at least one extra round trip: {plt_rej:?} vs {plt_ok:?}"
    );
}

/// A short blackout swallowing the entire first flight is survived by
/// both protocols: retransmission timers (SYN retry for TCP, RTO-driven
/// CHLO/data retry for QUIC) carry the handshake across the outage and
/// the load completes without any watchdog error.
#[test]
fn short_blackout_over_first_flight_is_survived_by_retry() {
    let sc = cell_scenario(Some(blackout_from_start(3)));
    for proto in [
        ProtoConfig::Quic(QuicConfig::default()),
        ProtoConfig::Tcp(TcpConfig::default()),
    ] {
        let rec = sc.clone().with_proto(proto.clone()).run(0);
        assert!(
            rec.completed(),
            "{}: a 3s outage must be retried through, got client={:?} server={:?}",
            proto.name(),
            rec.client_error,
            rec.server_error
        );
        assert_eq!(rec.client_error, None, "{}", proto.name());
        assert!(rec.app_bytes > 0, "{}", proto.name());
        assert_ne!(
            rec.outcome,
            RunOutcome::DeadlineReached,
            "{}: the world must quiesce after completing",
            proto.name()
        );
    }
}

/// An outage outlasting every watchdog budget: nothing can complete, so
/// each client must give up with the typed error matching its handshake
/// state — and never silently spin to the deadline.
#[test]
fn blackout_outlasting_watchdog_surfaces_typed_handshake_errors() {
    let sc = cell_scenario(Some(blackout_from_start(600)));

    // A *cold* QUIC client is mid-handshake when the link dies, so its
    // watchdog fires the handshake deadline; a warm 0-RTT client is
    // locally established from t=0 and reads the dead path as idleness.
    let mut cold = sc.clone();
    cold.zero_rtt = false;
    let cases = [
        (
            ProtoConfig::Quic(QuicConfig::default()),
            &cold,
            ConnError::HandshakeTimeout,
        ),
        (
            ProtoConfig::Quic(QuicConfig::default()),
            &sc,
            ConnError::IdleTimeout,
        ),
        (
            ProtoConfig::Tcp(TcpConfig::default()),
            &sc,
            ConnError::HandshakeTimeout,
        ),
    ];
    for (proto, sc, expect) in cases {
        let rec = sc.clone().with_proto(proto.clone()).run(0);
        assert!(!rec.completed(), "{}: nothing can complete", proto.name());
        assert_eq!(
            rec.client_error,
            Some(expect),
            "{} (zero_rtt={})",
            proto.name(),
            sc.zero_rtt
        );
        assert!(rec.accounted_for());
        assert_ne!(
            rec.outcome,
            RunOutcome::DeadlineReached,
            "{}: give-up must quiesce the world, not hang it",
            proto.name()
        );
    }
}

/// The composition of both families: the server rejects 0-RTT *and* a
/// short blackout eats the fallback flight. The retry machinery must
/// still land the full handshake and the page.
#[test]
fn rejection_plus_short_blackout_still_completes() {
    let sc = cell_scenario(Some(blackout_from_start(2)));
    let proto = ProtoConfig::Quic(QuicConfig {
        zero_rtt_accept: false,
        ..QuicConfig::default()
    });
    let rec = sc.with_proto(proto).run(0);
    assert!(
        rec.completed(),
        "REJ + 2s blackout must still complete, got client={:?} server={:?}",
        rec.client_error,
        rec.server_error
    );
    assert_eq!(rec.client_error, None);
    assert_ne!(rec.outcome, RunOutcome::DeadlineReached);
}
