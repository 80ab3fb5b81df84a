//! End-to-end integration: the full stack (workload -> transport -> link
//! emulation -> statistics) reproducing the paper's headline findings at
//! small scale.

use longlook_core::prelude::*;

fn tcp() -> ProtoConfig {
    ProtoConfig::Tcp(TcpConfig::default())
}

/// `sc` (calibrated QUIC) against the same cell over TCP.
fn quic_vs_tcp(sc: &Scenario) -> PairResult {
    compare(sc, &sc.clone().with_proto(tcp()), Parallelism::auto())
}

fn plts(sc: &Scenario) -> Vec<f64> {
    let records = sc.records(Parallelism::auto());
    records.iter().map(|r| sc.plt_ms(r)).collect()
}

#[test]
fn quic_wins_small_objects_via_zero_rtt() {
    let sc = Scenario::new(NetProfile::baseline(10.0), PageSpec::single(10 * 1024)).with_rounds(6);
    let pair = quic_vs_tcp(&sc);
    assert_eq!(pair.comparison.verdict, Verdict::CandidateWins);
    assert!(
        pair.comparison.percent > 40.0,
        "0-RTT vs 2-RTT handshake dominates small pages: {:+.0}%",
        pair.comparison.percent
    );
}

#[test]
fn quic_wins_under_loss() {
    let sc = Scenario::new(
        NetProfile::baseline(50.0).with_loss(0.01),
        PageSpec::single(5 * 1024 * 1024),
    )
    .with_rounds(6);
    let pair = quic_vs_tcp(&sc);
    assert_eq!(
        pair.comparison.verdict,
        Verdict::CandidateWins,
        "QUIC recovers from loss faster: {:+.0}%",
        pair.comparison.percent
    );
}

#[test]
fn quic_loses_under_deep_reordering() {
    // The paper's jitter scenario: netem-style jitter reorders packets and
    // QUIC's fixed NACK threshold misreads them as losses.
    let net = NetProfile::baseline(50.0)
        .with_extra_rtt(Dur::from_millis(76))
        .with_jitter(Dur::from_millis(10));
    let sc = Scenario::new(net, PageSpec::single(10 * 1024 * 1024)).with_rounds(6);
    let pair = quic_vs_tcp(&sc);
    assert!(
        pair.comparison.percent < 0.0,
        "QUIC should lose under reordering: {:+.0}%",
        pair.comparison.percent
    );
}

#[test]
fn raising_nack_threshold_rescues_quic_from_reordering() {
    let net = NetProfile::baseline(50.0)
        .with_extra_rtt(Dur::from_millis(76))
        .with_jitter(Dur::from_millis(10));
    let sc = Scenario::new(net, PageSpec::single(10 * 1024 * 1024)).with_rounds(4);
    let strict = sc.plt_summary(Parallelism::auto());
    let cfg = QuicConfig {
        nack_threshold: 50,
        ..QuicConfig::default()
    };
    let tolerant = sc
        .with_proto(ProtoConfig::Quic(cfg))
        .plt_summary(Parallelism::auto());
    assert!(
        tolerant.mean() < strict.mean() * 0.8,
        "threshold 50 must beat threshold 3: {:.0} vs {:.0} ms",
        tolerant.mean(),
        strict.mean()
    );
}

#[test]
fn quic_loses_for_many_small_objects_at_high_bandwidth() {
    let sc = Scenario::new(
        NetProfile::baseline(100.0),
        PageSpec::uniform(200, 10 * 1024),
    )
    .with_rounds(5);
    let pair = quic_vs_tcp(&sc);
    assert!(
        pair.comparison.percent < 0.0,
        "200 small objects serialize behind the toy QUIC server: {:+.0}%",
        pair.comparison.percent
    );
}

#[test]
fn mobile_diminishes_quic_gains() {
    let page = PageSpec::single(5 * 1024 * 1024);
    let desktop =
        quic_vs_tcp(&Scenario::new(NetProfile::baseline(50.0), page.clone()).with_rounds(4));
    let motog = quic_vs_tcp(
        &Scenario::new(NetProfile::baseline(50.0), page)
            .with_rounds(4)
            .on_device(DeviceProfile::MOTOG),
    );
    assert!(
        motog.comparison.percent < desktop.comparison.percent - 10.0,
        "MotoG gain ({:+.0}%) must be well below desktop ({:+.0}%)",
        motog.comparison.percent,
        desktop.comparison.percent
    );
}

#[test]
fn welch_gate_reports_inconclusive_for_noisy_ties() {
    // Two identical protocols differ only by noise: the verdict must be
    // Inconclusive, never a win.
    let sc = Scenario::new(
        NetProfile::baseline(10.0).with_loss(0.01),
        PageSpec::single(500 * 1024),
    )
    .with_rounds(8);
    let a = plts(&sc);
    let b = plts(&sc.clone().with_seed(999));
    let cmp = Comparison::lower_is_better(&a, &b);
    assert_eq!(cmp.verdict, Verdict::Inconclusive, "{:?}", cmp.percent);
}

#[test]
fn deadline_miss_is_reported_not_hung() {
    // An absurdly short deadline: the run must end and report None.
    let mut sc = Scenario::new(
        NetProfile::baseline(5.0),
        PageSpec::single(10 * 1024 * 1024),
    )
    .with_rounds(1);
    sc.deadline = Dur::from_millis(100);
    let rec = sc.run(0);
    assert!(rec.plt.is_none());
    assert!(rec.ended_at <= Time::ZERO + Dur::from_millis(150));
}
