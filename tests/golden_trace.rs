//! Golden structured-trace snapshots.
//!
//! Pins the exact JSON-SEQ trace (`longlook_sim::trace::encode_seq`) of
//! two small page loads — a clean QUIC transfer and a TCP transfer cut
//! by a blackout — byte for byte. Any silent drift in the trace layer (a
//! reordered emit, a changed key, a different analytic packet size, a
//! missing dedup) or in the transports themselves fails *this named
//! test* instead of surfacing as a confusing analyzer diff downstream.
//!
//! The golden constants store one JSON text per line; the checker
//! re-frames them as RFC 7464 JSON-SEQ (RS `\u{1e}` + JSON + LF) before
//! comparing, so the on-disk framing is pinned too while the constants
//! stay printable. If a change is *intentional*, re-bless with
//! `LONGLOOK_BLESS=1 cargo test -p longlook-integration --test
//! golden_trace -- --nocapture` and paste the printed block over the
//! constant it names.

mod common;

use longlook_core::prelude::*;
use longlook_sim::trace::{encode_seq, parse_seq};

fn quic_clean_scenario() -> Scenario {
    Scenario::new(NetProfile::baseline(10.0), PageSpec::single(2 * 1024))
        .with_rounds(1)
        .with_seed(9601)
}

fn tcp_blackout_scenario() -> Scenario {
    let plan = FaultPlan::new().with_event(FaultEvent {
        at: Time::ZERO + Dur::from_millis(30),
        dur: Dur::from_millis(40),
        dir: FaultDir::Both,
        kind: FaultKind::Blackout,
    });
    Scenario::new(
        NetProfile::baseline(5.0).with_fault(plan),
        PageSpec::single(8 * 1024),
    )
    .with_proto(ProtoConfig::Tcp(TcpConfig::default()))
    .with_rounds(1)
    .with_seed(9602)
}

/// Capture the server-side trace of round 0 as JSON-SEQ bytes.
fn capture(sc: &Scenario) -> String {
    encode_seq(&sc.run_traced(0).1)
}

/// Re-frame a printable golden (one JSON text per line) as JSON-SEQ.
fn frame(golden: &str) -> String {
    golden
        .trim()
        .lines()
        .map(|l| format!("\u{1e}{}\n", l.trim()))
        .collect()
}

fn check(name: &str, sc: &Scenario, golden: &str) {
    let encoded = capture(sc);
    // Same-seed replay must be byte-identical before anything else: a
    // golden is meaningless if capture itself is unstable.
    let replay = capture(sc);
    assert_eq!(
        encoded, replay,
        "{name}: same-seed trace capture is not byte-stable"
    );
    // The pinned bytes must round-trip through the parser losslessly.
    let parsed = parse_seq(&encoded)
        .unwrap_or_else(|e| panic!("{name}: captured trace does not parse as JSON-SEQ: {e}"));
    assert_eq!(
        encode_seq(&parsed),
        encoded,
        "{name}: parse/encode round-trip changed the bytes"
    );
    if std::env::var("LONGLOOK_BLESS").is_ok() {
        eprintln!("=== {name} ===\n{}", encoded.replace('\u{1e}', ""));
        return;
    }
    assert_eq!(
        encoded,
        frame(golden),
        "\n{name}: trace drifted from the golden snapshot.\n\
         If this change is intentional, bless a new snapshot:\n\
         LONGLOOK_BLESS=1 cargo test -p longlook-integration --test golden_trace -- --nocapture\n\
         --- actual (RS stripped) ---\n{}",
        encoded.replace('\u{1e}', "")
    );
}

const GOLDEN_TRACE_QUIC_CLEAN: &str = r#"
{"t":18433857,"k":"st","s":"Init"}
{"t":18433857,"k":"rx","pn":1,"sz":1207}
{"t":18433857,"k":"st","s":"SlowStart"}
{"t":18433857,"k":"st","s":"ApplicationLimited"}
{"t":18433857,"k":"tx","pn":1,"sz":389,"el":1}
{"t":18433857,"k":"ta","at":218433857}
{"t":22433857,"k":"st","s":"SlowStart"}
{"t":22433857,"k":"tx","pn":2,"sz":1409,"el":1}
{"t":22433857,"k":"ta","at":222433857}
{"t":22433857,"k":"tx","pn":3,"sz":893,"el":1}
{"t":22433857,"k":"ta","at":222433857}
{"t":22433857,"k":"st","s":"ApplicationLimited"}
"#;

const GOLDEN_TRACE_TCP_BLACKOUT: &str = r#"
{"t":17747414,"k":"st","s":"Init"}
{"t":17747414,"k":"rx","pn":0,"sz":54}
{"t":17747414,"k":"tx","pn":0,"sz":54}
{"t":30000000,"k":"f+","f":"blackout","d":"both"}
{"t":70000000,"k":"f-","f":"blackout","d":"both"}
{"t":253242742,"k":"rx","pn":0,"sz":404}
{"t":253242742,"k":"ack","nb":0}
{"t":253242742,"k":"cw","b":14000}
{"t":253242742,"k":"ta","at":453242742}
{"t":253242742,"k":"tx","pn":0,"sz":1454,"el":1}
{"t":253242742,"k":"ta","at":453242742}
{"t":253242742,"k":"tx","pn":1400,"sz":1454,"el":1}
{"t":253242742,"k":"ta","at":453242742}
{"t":253242742,"k":"tx","pn":2800,"sz":454,"el":1}
{"t":288739070,"k":"rx","pn":0,"sz":54}
{"t":288739070,"k":"ack","nb":2800}
{"t":288739070,"k":"ta","at":488739070}
{"t":288739070,"k":"cw","b":15400}
{"t":288740070,"k":"rx","pn":350,"sz":408}
{"t":288740070,"k":"ack","nb":400}
{"t":288740070,"k":"cw","b":15800}
{"t":288740070,"k":"st","s":"SlowStart"}
{"t":288740070,"k":"ta","at":488740070}
{"t":288740070,"k":"tx","pn":3200,"sz":118,"el":1}
{"t":288740070,"k":"st","s":"ApplicationLimited"}
{"t":288990070,"k":"ta","at":488990070}
{"t":288990070,"k":"tx","pn":3264,"sz":1471,"el":1}
{"t":288990070,"k":"st","s":"SlowStart"}
{"t":288990070,"k":"ta","at":488990070}
{"t":288990070,"k":"tx","pn":4664,"sz":1454,"el":1}
{"t":288990070,"k":"ta","at":488990070}
{"t":288990070,"k":"tx","pn":6064,"sz":1454,"el":1}
{"t":288990070,"k":"ta","at":488990070}
{"t":288990070,"k":"tx","pn":7464,"sz":1454,"el":1}
{"t":288990070,"k":"ta","at":488990070}
{"t":288990070,"k":"tx","pn":8864,"sz":1454,"el":1}
{"t":288990070,"k":"ta","at":488990070}
{"t":288990070,"k":"tx","pn":10264,"sz":1355,"el":1}
{"t":288990070,"k":"st","s":"ApplicationLimited"}
"#;

#[test]
fn quic_clean_trace_matches_golden() {
    check(
        "GOLDEN_TRACE_QUIC_CLEAN",
        &quic_clean_scenario(),
        GOLDEN_TRACE_QUIC_CLEAN,
    );
}

#[test]
fn tcp_blackout_trace_matches_golden() {
    check(
        "GOLDEN_TRACE_TCP_BLACKOUT",
        &tcp_blackout_scenario(),
        GOLDEN_TRACE_TCP_BLACKOUT,
    );
}

/// The trace itself — not just the observables — is path-independent:
/// sizes are analytic and `TimerArm` is emitted at the request point (as
/// the eager timer the goldens were blessed on did), so every
/// `TraceMode` reproduces the golden bytes.
#[test]
fn golden_traces_hold_on_every_execution_path() {
    for (axis, trace) in common::axes() {
        check(
            &format!("GOLDEN_TRACE_QUIC_CLEAN ({axis})"),
            &common::with_trace(&quic_clean_scenario(), trace),
            GOLDEN_TRACE_QUIC_CLEAN,
        );
        check(
            &format!("GOLDEN_TRACE_TCP_BLACKOUT ({axis})"),
            &common::with_trace(&tcp_blackout_scenario(), trace),
            GOLDEN_TRACE_TCP_BLACKOUT,
        );
    }
}
