//! Cross-protocol matrix: every workload x protocol combination completes
//! correctly and the byte accounting is exact.

use longlook_core::prelude::*;
use longlook_core::testbed::{FlowSpec, Testbed};
use longlook_http::RESPONSE_HEADER;

fn protocols() -> Vec<(&'static str, ProtoConfig)> {
    vec![
        ("quic-cubic", ProtoConfig::Quic(QuicConfig::default())),
        (
            "quic-bbr",
            ProtoConfig::Quic(QuicConfig {
                cc: CcKind::Bbr,
                ..QuicConfig::default()
            }),
        ),
        ("quic-37", ProtoConfig::Quic(QuicConfig::quic37())),
        ("tcp", ProtoConfig::Tcp(TcpConfig::default())),
    ]
}

fn pages() -> Vec<(&'static str, PageSpec)> {
    vec![
        ("1x5KB", PageSpec::single(5 * 1024)),
        ("1x1MB", PageSpec::single(1024 * 1024)),
        ("10x10KB", PageSpec::uniform(10, 10 * 1024)),
        ("120x10KB (beyond MSPC)", PageSpec::uniform(120, 10 * 1024)),
    ]
}

fn impairments() -> Vec<(&'static str, NetProfile)> {
    vec![
        ("clean", NetProfile::baseline(10.0)),
        ("lossy", NetProfile::baseline(10.0).with_loss(0.02)),
        (
            "jittery",
            NetProfile::baseline(10.0)
                .with_extra_rtt(Dur::from_millis(40))
                .with_jitter(Dur::from_millis(5)),
        ),
    ]
}

#[test]
fn every_combination_completes_with_exact_bytes() {
    for (pname, proto) in protocols() {
        for (gname, page) in pages() {
            for (nname, net) in impairments() {
                let mut tb = Testbed::direct(
                    7,
                    &net,
                    DeviceProfile::DESKTOP,
                    page.clone(),
                    vec![FlowSpec {
                        proto: proto.clone(),
                        zero_rtt: true,
                        app: Box::new(WebClient::new(page.clone())),
                    }],
                    None,
                    true,
                );
                tb.run(Dur::from_secs(300));
                let app = tb.client_host().app::<WebClient>(0);
                assert!(
                    app.done(),
                    "{pname} / {gname} / {nname}: page load incomplete"
                );
                for rt in app.har() {
                    assert_eq!(
                        rt.bytes,
                        page.objects[rt.object] + RESPONSE_HEADER,
                        "{pname} / {gname} / {nname}: object {} byte mismatch",
                        rt.object
                    );
                    assert!(rt.finished.is_some());
                }
            }
        }
    }
}

#[test]
fn mobile_devices_complete_all_protocols() {
    let page = PageSpec::single(1024 * 1024);
    for (pname, proto) in protocols() {
        for device in [DeviceProfile::NEXUS6, DeviceProfile::MOTOG] {
            let rec = Scenario::new(NetProfile::baseline(50.0), page.clone())
                .with_proto(proto.clone())
                .on_device(device)
                .run(0);
            assert!(
                rec.plt.is_some(),
                "{pname} on {} did not finish",
                device.name
            );
        }
    }
}

#[test]
fn proxied_combinations_complete() {
    let page = PageSpec::uniform(5, 100 * 1024);
    let combos = [
        (
            "tcp/tcp",
            ProtoConfig::Tcp(TcpConfig::default()),
            ProtoConfig::Tcp(TcpConfig::default()),
        ),
        (
            "quic/quic",
            ProtoConfig::Quic(QuicConfig::default()),
            ProtoConfig::Quic(QuicConfig::default()),
        ),
        (
            "quic/tcp",
            ProtoConfig::Quic(QuicConfig::default()),
            ProtoConfig::Tcp(TcpConfig::default()),
        ),
    ];
    for (name, down, up) in combos {
        let rec = Scenario::new(NetProfile::baseline(10.0).with_loss(0.005), page.clone())
            .with_proto(down)
            .via_proxy(up)
            .run(0);
        assert!(rec.completed(), "{name} proxied load incomplete");
    }
}

#[test]
fn bbr_and_cubic_both_fill_a_fat_pipe() {
    for cc in [CcKind::Cubic, CcKind::Bbr] {
        let cfg = QuicConfig {
            cc,
            ..QuicConfig::default()
        };
        let rec = Scenario::new(
            NetProfile::baseline(100.0),
            PageSpec::single(20 * 1024 * 1024),
        )
        .with_proto(ProtoConfig::Quic(cfg))
        .run(0);
        let plt = rec.plt.expect("finished").as_secs_f64();
        // 20MB at 100Mbps is 1.68s of serialization; allow generous startup.
        assert!(plt < 6.0, "{cc:?}: plt = {plt:.2}s");
    }
}
