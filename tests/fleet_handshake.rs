//! Fleet handshake referee: the fleet world does not simulate connection
//! setup; it charges each protocol's `handshake_rtts` as whole RTTs
//! before the first flight. This holds that charge to the packet world
//! it stands for: over a clean 100 Mbps / 100 ms path, a 1 KB object's
//! first response byte arrives `handshake_rtts + 1` RTTs after the app
//! starts (the one extra RTT is the request and its response).

use longlook_core::prelude::*;

/// First response byte of a 1 KB object, in path RTTs after the client
/// app starts (at time zero, before any handshake packet).
fn first_byte_rtts(proto: ProtoConfig, zero_rtt: bool) -> f64 {
    let mut net = NetProfile::baseline(100.0);
    net.rtt = Dur::from_millis(100);
    let page = PageSpec::single(1024);
    let mut tb = Testbed::direct(
        1,
        &net,
        DeviceProfile::DESKTOP,
        page.clone(),
        vec![FlowSpec {
            proto,
            zero_rtt,
            app: Box::new(WebClient::new(page)),
        }],
        None,
        true,
    );
    tb.run(Dur::from_secs(60));
    let rt = tb.client_host().app::<WebClient>(0).har()[0];
    let first = rt.first_byte.expect("the object's first byte arrived");
    first.saturating_since(Time::ZERO).as_secs_f64() / net.rtt.as_secs_f64()
}

#[test]
fn handshake_rtts_match_the_packet_world() {
    let quic = QuicConfig::default();
    let tls = TcpConfig::default();
    let raw = TcpConfig {
        tls: false,
        ..TcpConfig::default()
    };
    let cases = [
        (
            "QUIC cold",
            ProtoConfig::Quic(quic.clone()),
            false,
            quic.handshake_rtts(false),
        ),
        (
            "QUIC 0-RTT",
            ProtoConfig::Quic(quic.clone()),
            true,
            quic.handshake_rtts(true),
        ),
        (
            "TCP+TLS",
            ProtoConfig::Tcp(tls.clone()),
            false,
            tls.handshake_rtts(),
        ),
        (
            "raw TCP",
            ProtoConfig::Tcp(raw.clone()),
            false,
            raw.handshake_rtts(),
        ),
    ];
    for (name, proto, zero_rtt, charged) in cases {
        let rtts = first_byte_rtts(proto, zero_rtt);
        let paid = rtts.round() as u32 - 1;
        assert_eq!(
            charged, paid,
            "{name}: the fleet charges {charged} handshake RTTs, the packet world \
             pays {paid} (first byte at {rtts:.2} RTT)"
        );
    }
}
