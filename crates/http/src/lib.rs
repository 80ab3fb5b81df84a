//! Web workloads over either transport: page fetches, bulk downloads,
//! page-load-time measurement, and the host agents that run them inside
//! the simulated testbed.

pub mod app;
pub mod host;
pub mod workload;

pub use app::{BulkClient, ClientApp, ResourceTiming, WebClient};
pub use host::{ClientHost, ProtoConfig, ServerHost, WaitModel};
pub use workload::{fleet_object_bytes, table2, PageSpec, REQUEST_BASE, RESPONSE_HEADER};

#[cfg(test)]
mod world_tests {
    //! Full-stack tests: client host <-> emulated link <-> server host.

    use crate::app::{ClientApp, WebClient};
    use crate::host::{ClientHost, ProtoConfig, ServerHost, WaitModel};
    use crate::workload::PageSpec;
    use longlook_quic::QuicConfig;
    use longlook_sim::link::LinkConfig;
    use longlook_sim::schedule::RateSchedule;
    use longlook_sim::time::{Dur, Time};
    use longlook_sim::world::World;
    use longlook_sim::{DeviceProfile, FlowId, NodeId};
    use longlook_tcp::TcpConfig;

    /// Build client+server over a shaped 36ms-RTT link; returns
    /// (world, client node, server node).
    fn build(
        proto: &ProtoConfig,
        page: PageSpec,
        zero_rtt: bool,
        rate_mbps: f64,
        loss: f64,
        seed: u64,
    ) -> (World, NodeId, NodeId) {
        let mut world = World::new(seed);
        let server_id = NodeId(1);
        let mut client = ClientHost::new(server_id, true);
        client.add(
            FlowId(1),
            proto,
            zero_rtt,
            Box::new(WebClient::new(page.clone())),
            Time::ZERO,
        );
        let c = world.add_node(Box::new(client), DeviceProfile::DESKTOP);
        let server = ServerHost::new(proto.clone(), page, seed ^ 0xABCD);
        let s = world.add_node(Box::new(server), DeviceProfile::SERVER);
        assert_eq!(s, server_id);
        let rtt = Dur::from_millis(36);
        let owd = Dur::from_millis(18);
        let cfg = LinkConfig::shaped(RateSchedule::fixed_mbps(rate_mbps), owd, rtt).with_loss(loss);
        world.connect(c, s, cfg.clone(), cfg);
        world.kick(c);
        (world, c, s)
    }

    fn run_plt(
        proto: &ProtoConfig,
        page: PageSpec,
        zero_rtt: bool,
        rate_mbps: f64,
        loss: f64,
        seed: u64,
    ) -> Dur {
        let (mut world, c, _) = build(proto, page, zero_rtt, rate_mbps, loss, seed);
        world.run_until(Time::ZERO + Dur::from_secs(120));
        let client = world.agent::<ClientHost>(c);
        let app = client.app::<WebClient>(0);
        assert!(app.done(), "page load must complete");
        app.plt().expect("finished")
    }

    fn quic() -> ProtoConfig {
        ProtoConfig::Quic(QuicConfig::default())
    }

    fn tcp() -> ProtoConfig {
        ProtoConfig::Tcp(TcpConfig::default())
    }

    /// `with_trace` reaches the connection: the stamped trace mode picks
    /// the tracer, for both protocols and both roles.
    #[test]
    fn with_trace_selects_the_connections_paths() {
        use longlook_sim::TraceMode;
        for proto in [quic(), tcp()] {
            let mut plain = proto.client_conn(FlowId(1), false, Time::ZERO);
            plain.poll_transmit(Time::ZERO).expect("first flight");
            assert!(plain.trace_records().is_empty());

            let stamped = proto.with_trace(TraceMode::On);
            let mut client = stamped.client_conn(FlowId(1), false, Time::ZERO);
            client.poll_transmit(Time::ZERO).expect("first flight");
            assert!(!client.trace_records().is_empty());
            let server = stamped.server_conn(FlowId(1), Time::ZERO);
            assert!(!server.trace_records().is_empty());
        }
    }

    #[test]
    fn quic_page_load_completes() {
        let plt = run_plt(&quic(), PageSpec::single(100 * 1024), true, 10.0, 0.0, 1);
        // 100KB at 10Mbps is ~82ms of serialization + 1 RTT: sane bounds.
        assert!(plt > Dur::from_millis(80), "plt = {plt}");
        assert!(plt < Dur::from_millis(500), "plt = {plt}");
    }

    #[test]
    fn tcp_page_load_completes() {
        let plt = run_plt(&tcp(), PageSpec::single(100 * 1024), false, 10.0, 0.0, 1);
        assert!(plt > Dur::from_millis(100), "plt = {plt}");
        assert!(plt < Dur::from_millis(800), "plt = {plt}");
    }

    #[test]
    fn zero_rtt_beats_tcp_for_small_objects() {
        // The paper's headline: 0-RTT vs 2-RTT handshake dominates small
        // transfers.
        let q = run_plt(&quic(), PageSpec::single(5 * 1024), true, 10.0, 0.0, 2);
        let t = run_plt(&tcp(), PageSpec::single(5 * 1024), false, 10.0, 0.0, 2);
        assert!(
            q.as_millis_f64() < t.as_millis_f64() * 0.6,
            "QUIC {q} vs TCP {t}"
        );
    }

    #[test]
    fn quic_one_rtt_handshake_costs_one_extra_rtt() {
        let with = run_plt(&quic(), PageSpec::single(5 * 1024), true, 10.0, 0.0, 3);
        let without = run_plt(&quic(), PageSpec::single(5 * 1024), false, 10.0, 0.0, 3);
        let diff = without.as_millis_f64() - with.as_millis_f64();
        assert!(
            (diff - 36.0).abs() < 15.0,
            "1-RTT handshake adds ~1 RTT: diff = {diff}ms"
        );
    }

    #[test]
    fn multi_object_page_fetches_everything() {
        let (mut world, c, _) = build(
            &quic(),
            PageSpec::uniform(10, 20 * 1024),
            true,
            10.0,
            0.0,
            4,
        );
        world.run_until(Time::ZERO + Dur::from_secs(60));
        let client = world.agent::<ClientHost>(c);
        let app = client.app::<WebClient>(0);
        assert!(app.done());
        for rt in app.har() {
            assert!(rt.finished.is_some(), "object {} unfinished", rt.object);
            assert_eq!(rt.bytes, 20 * 1024 + 100, "payload + response header");
        }
    }

    #[test]
    fn loss_increases_plt_but_load_completes() {
        let clean = run_plt(&quic(), PageSpec::single(1024 * 1024), true, 10.0, 0.0, 5);
        let lossy = run_plt(&quic(), PageSpec::single(1024 * 1024), true, 10.0, 0.01, 5);
        assert!(lossy > clean, "1% loss must hurt: {lossy} vs {clean}");
    }

    #[test]
    fn tcp_page_load_with_loss_completes() {
        let plt = run_plt(&tcp(), PageSpec::single(1024 * 1024), false, 10.0, 0.01, 6);
        assert!(plt < Dur::from_secs(20), "plt = {plt}");
    }

    #[test]
    fn server_wait_model_delays_response() {
        let page = PageSpec::single(10 * 1024);
        let mut world = World::new(9);
        let server_id = NodeId(1);
        let mut client = ClientHost::new(server_id, true);
        client.add(
            FlowId(1),
            &quic(),
            true,
            Box::new(WebClient::new(page.clone())),
            Time::ZERO,
        );
        let c = world.add_node(Box::new(client), DeviceProfile::DESKTOP);
        let server = ServerHost::new(quic(), page, 7).with_wait(WaitModel {
            min: Dur::from_millis(300),
            max: Dur::from_millis(600),
        });
        world.add_node(Box::new(server), DeviceProfile::SERVER);
        let cfg = LinkConfig::shaped(
            RateSchedule::fixed_mbps(100.0),
            Dur::from_millis(6),
            Dur::from_millis(12),
        );
        world.connect(c, server_id, cfg.clone(), cfg);
        world.kick(c);
        world.run_until(Time::ZERO + Dur::from_secs(10));
        let app = world.agent::<ClientHost>(c).app::<WebClient>(0);
        let plt = app.plt().expect("done");
        assert!(plt >= Dur::from_millis(300), "wait dominates: {plt}");
    }

    #[test]
    fn deterministic_replay_same_seed() {
        let a = run_plt(
            &quic(),
            PageSpec::uniform(5, 50 * 1024),
            true,
            10.0,
            0.01,
            42,
        );
        let b = run_plt(
            &quic(),
            PageSpec::uniform(5, 50 * 1024),
            true,
            10.0,
            0.01,
            42,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_vary_under_loss() {
        let a = run_plt(&quic(), PageSpec::single(1024 * 1024), true, 10.0, 0.02, 1);
        let b = run_plt(&quic(), PageSpec::single(1024 * 1024), true, 10.0, 0.02, 2);
        assert_ne!(a, b, "loss realizations differ across seeds");
    }

    #[test]
    fn high_bandwidth_large_object_uses_the_pipe() {
        let plt = run_plt(
            &quic(),
            PageSpec::single(10 * 1024 * 1024),
            true,
            100.0,
            0.0,
            8,
        );
        // 10MB at 100Mbps is 0.84s of serialization; allow startup slack.
        assert!(plt < Dur::from_millis(2500), "plt = {plt}");
    }
}
