//! Integration tests for the fairness instrumentation and the fidelity of
//! the link emulation (Table 5-style characterization).

use longlook_core::prelude::*;
use longlook_sim::link::{LinkDir, Verdict};
use longlook_sim::SimRng;

#[test]
fn table4_shape_quic_takes_about_double() {
    let quic = ProtoConfig::Quic(QuicConfig::default());
    let tcp = ProtoConfig::Tcp(TcpConfig::default());
    let run = quic_vs_n_tcp(&quic, &tcp, 1, Dur::from_secs(45), 5);
    let ratio = run.flows[0].mean_mbps / run.flows[1].mean_mbps.max(1e-9);
    assert!(
        ratio > 1.3 && ratio < 4.0,
        "paper: 2.71/1.62 = 1.67x; got {ratio:.2}x"
    );
}

#[test]
fn quic_majority_share_against_multiple_tcp_flows() {
    let quic = ProtoConfig::Quic(QuicConfig::default());
    let tcp = ProtoConfig::Tcp(TcpConfig::default());
    for n in [2usize, 4] {
        let run = quic_vs_n_tcp(&quic, &tcp, n, Dur::from_secs(45), 6);
        let quic_mbps = run.flows[0].mean_mbps;
        let total: f64 = run.flows.iter().map(|f| f.mean_mbps).sum();
        let share = quic_mbps / total;
        let fair = 1.0 / (n as f64 + 1.0);
        // Paper: QUIC holds >50% even against 2-4 TCP flows. Our model
        // reproduces the unfairness direction at ~1.4-1.7x the fair share
        // (see EXPERIMENTS.md for the calibration notes).
        assert!(
            share > 1.35 * fair,
            "vs {n} TCP flows QUIC share {share:.2} should far exceed fair {fair:.2}"
        );
    }
}

#[test]
fn same_protocol_flows_are_fair() {
    let quic = ProtoConfig::Quic(QuicConfig::default());
    let run = run_fairness(
        &[("A".to_string(), quic.clone()), ("B".to_string(), quic)],
        &fairness_net(),
        Dur::from_secs(45),
        7,
    );
    let ratio = run.flows[0].mean_mbps / run.flows[1].mean_mbps.max(1e-9);
    assert!((0.5..2.0).contains(&ratio), "ratio = {ratio:.2}");
}

#[test]
fn emulated_cellular_profiles_match_their_targets() {
    for p in CELL_PROFILES {
        let net = p.net_profile();
        let mut link = LinkDir::new(net.link(), SimRng::new(3));
        let gap_ns = (1200.0 * 8.0 / (p.throughput_mbps * 1e6) * 1e9) as u64;
        let mut delivered = 0u64;
        for k in 0..20_000u64 {
            let t = Time::ZERO + Dur::from_nanos(k * gap_ns);
            if matches!(link.transit(t, 1200), Verdict::DeliverAt(_)) {
                delivered += 1;
            }
        }
        assert!(delivered > 15_000);
        let st = link.stats();
        // Reordering within 2x of the target (Bernoulli noise).
        if p.reordering > 0.0 {
            let r = st.reorder_rate();
            assert!(
                r > p.reordering * 0.4 && r < p.reordering * 2.5,
                "{}: reorder {r:.4} vs target {:.4}",
                p.name,
                p.reordering
            );
        }
        // Loss close to target.
        let l = st.loss_rate();
        assert!(
            l <= p.loss * 3.0 + 0.001,
            "{}: loss {l:.4} vs target {:.4}",
            p.name,
            p.loss
        );
    }
}

#[test]
fn variable_bandwidth_favors_quic() {
    // Fig 11's shape at integration-test scale.
    use longlook_core::testbed::{FlowSpec, Testbed};
    let mut means = Vec::new();
    for proto in [
        ProtoConfig::Quic(QuicConfig::default()),
        ProtoConfig::Tcp(TcpConfig::default()),
    ] {
        // Home-router-sized buffer: rate down-shifts overflow it, and
        // recovery speed separates the protocols (paper: 79 vs 46 Mbps).
        let mut net = NetProfile::baseline(100.0).with_buffer(100 * 1024);
        net.rate = RateSchedule::random_hold_mbps(50.0, 150.0, Dur::from_secs(1), 44);
        let mut tb = Testbed::direct(
            44,
            &net,
            DeviceProfile::DESKTOP,
            PageSpec::single(210 * 1024 * 1024),
            vec![FlowSpec {
                proto,
                zero_rtt: true,
                app: Box::new(BulkClient::new(0, Dur::from_secs(1))),
            }],
            None,
            false,
        );
        tb.world.run_until(Time::ZERO + Dur::from_secs(15));
        let app = tb.client_host().app::<BulkClient>(0);
        let tl = app.throughput_mbps();
        let steady = &tl[2.min(tl.len())..];
        means.push(steady.iter().sum::<f64>() / steady.len().max(1) as f64);
    }
    assert!(
        means[0] > means[1],
        "QUIC {:.0} Mbps should beat TCP {:.0} Mbps under fluctuating bandwidth",
        means[0],
        means[1]
    );
}

#[test]
fn fairness_results_are_deterministic() {
    let quic = ProtoConfig::Quic(QuicConfig::default());
    let tcp = ProtoConfig::Tcp(TcpConfig::default());
    for n in [1, 4] {
        let a = quic_vs_n_tcp(&quic, &tcp, n, Dur::from_secs(20), 9);
        let b = quic_vs_n_tcp(&quic, &tcp, n, Dur::from_secs(20), 9);
        assert_eq!(a.flows.len(), n + 1);
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            assert_eq!(
                fa.timeline_mbps, fb.timeline_mbps,
                "{} vs {n} TCP",
                fa.label
            );
        }
    }
}

/// Table 4's 5-flow cell (QUIC against four TCP flows on one server)
/// gives one answer no matter which thread runs it. Each run gets a
/// fresh thread because `std` hash maps seed their keys per thread: a
/// host that walked its connections in hash order would differ here.
#[test]
fn many_flow_world_is_the_same_on_every_thread() {
    let quic = ProtoConfig::Quic(QuicConfig::default());
    let tcp = ProtoConfig::Tcp(TcpConfig::default());
    for seed in [41, 42] {
        let runs: Vec<Vec<Vec<f64>>> = (0..8)
            .map(|_| {
                let (quic, tcp) = (quic.clone(), tcp.clone());
                std::thread::spawn(move || {
                    quic_vs_n_tcp(&quic, &tcp, 4, Dur::from_secs(60), seed)
                        .flows
                        .into_iter()
                        .map(|f| f.timeline_mbps)
                        .collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("run thread"))
            .collect();
        let mut distinct: Vec<&Vec<Vec<f64>>> = Vec::new();
        for run in &runs {
            if !distinct.contains(&run) {
                distinct.push(run);
            }
        }
        assert_eq!(
            distinct.len(),
            1,
            "seed {seed}: 8 runs of one cell gave {} distinct per-flow timelines",
            distinct.len()
        );
    }
}
