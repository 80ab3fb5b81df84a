//! Framework-level tests: determinism, seed sensitivity, and the
//! testbed's structural guarantees.

use longlook_core::prelude::*;

fn quic() -> ProtoConfig {
    ProtoConfig::Quic(QuicConfig::default())
}

fn tcp() -> ProtoConfig {
    ProtoConfig::Tcp(TcpConfig::default())
}

fn plts(sc: &Scenario) -> Vec<f64> {
    let records = sc.records(Parallelism::auto());
    records.iter().map(|r| sc.plt_ms(r)).collect()
}

#[test]
fn identical_seeds_replay_identically_across_protocols() {
    for proto in [quic(), tcp()] {
        let sc = Scenario::new(
            NetProfile::baseline(10.0).with_loss(0.01),
            PageSpec::uniform(3, 100 * 1024),
        )
        .with_proto(proto)
        .with_rounds(3)
        .with_seed(77);
        let a = plts(&sc);
        let b = plts(&sc);
        assert_eq!(a, b, "{} replay mismatch", sc.proto.name());
    }
}

#[test]
fn different_base_seeds_differ_under_loss() {
    let sc1 = Scenario::new(
        NetProfile::baseline(10.0).with_loss(0.02),
        PageSpec::single(1024 * 1024),
    )
    .with_rounds(2)
    .with_seed(1);
    let sc2 = sc1.clone().with_seed(2);
    assert_ne!(plts(&sc1), plts(&sc2));
}

#[test]
fn rounds_vary_within_one_scenario() {
    // Per-round RTT noise means even a clean path's rounds differ.
    let sc = Scenario::new(NetProfile::baseline(10.0), PageSpec::single(100 * 1024)).with_rounds(4);
    let samples = plts(&sc);
    let all_same = samples.windows(2).all(|w| w[0] == w[1]);
    assert!(!all_same, "rounds should not be identical: {samples:?}");
}

#[test]
fn proxied_rounds_vary_within_one_scenario() {
    // A proxied cell draws the same per-round RTT noise as a direct one:
    // a clean path's proxied rounds differ too, for either protocol.
    for proto in [quic(), tcp()] {
        let sc = Scenario::new(NetProfile::baseline(50.0), PageSpec::single(500 * 1024))
            .with_proto(proto.clone())
            .via_proxy(proto)
            .with_rounds(6);
        let samples = plts(&sc);
        let all_same = samples.windows(2).all(|w| w[0] == w[1]);
        assert!(
            !all_same,
            "proxied rounds should not be identical: {samples:?}"
        );
    }
}

#[test]
fn cold_scenario_disables_zero_rtt() {
    let warm = Scenario::new(NetProfile::baseline(10.0), PageSpec::single(5 * 1024)).with_rounds(3);
    let cold = warm.clone().cold();
    let w = warm.plt_summary(Parallelism::auto());
    let c = cold.plt_summary(Parallelism::auto());
    assert!(
        c.mean() > w.mean() + 20.0,
        "cold start must pay ~1 RTT more: {} vs {}",
        c.mean(),
        w.mean()
    );
}

#[test]
fn run_record_exposes_server_side_instrumentation() {
    let sc = Scenario::new(
        NetProfile::baseline(50.0).with_loss(0.01),
        PageSpec::single(2 * 1024 * 1024),
    )
    .with_rounds(1);
    let (rec, records) = sc.run_traced(0);
    let trace = rec.server_trace.expect("trace");
    // The instrumented server must have visited the loss-recovery states.
    let labels = trace.labels();
    assert!(labels.contains(&"Recovery") || labels.contains(&"RetransmissionTimeout"));
    assert!(cwnd_timeline(&records).len() > 5, "cwnd timeline populated");
    let st = rec.server_stats.expect("stats");
    assert!(st.losses_detected > 0 || st.rto_count > 0);
}

#[test]
fn versions_share_results_below_37() {
    let page = PageSpec::single(1024 * 1024);
    let sc = Scenario::new(NetProfile::baseline(10.0), page).with_rounds(2);
    let version = |v: QuicVersion| plts(&sc.clone().with_proto(ProtoConfig::Quic(v.config())));
    let base = version(QuicVersion::V25);
    for v in [QuicVersion::V29, QuicVersion::V34, QuicVersion::V36] {
        let s = version(v);
        assert_eq!(s, base, "{v:?} must match V25 given identical config");
    }
}

#[test]
fn proxied_run_matches_direct_topology_semantics() {
    // A QUIC-through-proxy load completes and takes at least as long as a
    // direct one with warm 0-RTT (the proxy cannot use 0-RTT upstream).
    let sc = Scenario::new(NetProfile::baseline(10.0), PageSpec::single(50 * 1024)).with_rounds(1);
    let direct = sc.run(0).plt.expect("direct");
    let proxied = sc.via_proxy(quic()).run(0).plt.expect("proxied");
    assert!(
        proxied.as_millis_f64() > direct.as_millis_f64(),
        "proxy adds handshake latency for small objects: {proxied} <= {direct}"
    );
}

#[test]
fn server_profiles_order_as_figure2() {
    let profiles = [
        ServerProfile::Calibrated,
        ServerProfile::GaeLike,
        ServerProfile::PublicDefault,
    ];
    let [cal, gae, def]: [_; 3] = fig2_measure(&profiles, 3, 5, Parallelism::Serial)
        .try_into()
        .expect("three profiles");
    let total =
        |s: &longlook_core::calibration::WaitDownloadSplit| s.wait_ms.mean() + s.download_ms.mean();
    assert!(
        total(&cal) < total(&def),
        "calibrated beats the public default"
    );
    assert!(gae.wait_ms.mean() > 100.0, "GAE's variable wait is visible");
}

#[test]
fn heatmap_sweep_is_deterministic() {
    let rows = vec!["10Mbps".to_string()];
    let cols = vec!["50KB".to_string()];
    let build = || {
        sweep("det", &rows, &cols, Parallelism::auto(), |_r, _c| {
            let sc = Scenario::new(NetProfile::baseline(10.0), PageSpec::single(50 * 1024))
                .with_rounds(3);
            (sc.clone(), sc.with_proto(tcp()))
        })
    };
    let a = build();
    let b = build();
    assert_eq!(a.get(0, 0).percent, b.get(0, 0).percent);
}

#[test]
fn cellular_profiles_run_end_to_end() {
    for p in CELL_PROFILES {
        let rec = Scenario::new(p.net_profile_for_run(9), PageSpec::single(50 * 1024)).run(0);
        assert!(rec.plt.is_some(), "{} load incomplete", p.name);
    }
}
