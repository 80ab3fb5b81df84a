//! Wire round-trip referee: the codec, held to live traffic.
//!
//! Links carry typed packets; nothing in the product serializes one. The
//! codec in `longlook_wire::{quic, tcp}` is the format's executable
//! specification, and two invariants lean on it: links charge a packet
//! the size its encoding would have (*analytic sizing*), and a packet the
//! state machines build is exactly what an encode → decode round trip
//! would deliver (*canonical packets*). The codec's proptests hold those
//! over generated values; this suite, over what real connections send.
//!
//! Every host of every world below sits behind a [`Referee`]: an `Agent`
//! that, on receipt, encodes the payload, checks the length against
//! `encoded_len()` and the link charge against the analytic wire size,
//! decodes, checks the result equals the original, and hands the
//! *decoded* value to the host it wraps. It forwards `as_any`, so results
//! read out through `World::agent` as usual. Public API only; the product
//! has no hook for this.
//!
//! One test per traffic class, both protocols in each (0-RTT rejection is
//! QUIC's alone). Each also names what its traffic must have contained —
//! acks with holes, window updates, a REJ, a DSACK — so a cell that stops
//! producing the packets it is there for fails too.

use longlook_core::prelude::*;
use longlook_proxy::ProxyHost;
use longlook_quic::wire::{Frame, HandshakeKind, QuicPacket};
use longlook_sim::world::{Agent, Ctx, World};
use longlook_sim::{FlowId, NodeId, Packet, Payload};
use longlook_tcp::wire::TcpSegment;
use longlook_transport::conn::{TCP_OVERHEAD, UDP_OVERHEAD};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// What the referees of one world saw go by.
#[derive(Debug, Default)]
struct Census {
    quic_packets: u64,
    stream_fins: u64,
    /// QUIC acks reporting more than one range.
    acks_with_holes: u64,
    window_updates: u64,
    rejs: u64,
    tcp_segments: u64,
    /// HTTP/2 record descriptors carried by TCP segments.
    records: u64,
    /// TCP segments carrying SACK blocks.
    with_sacks: u64,
    dsacks: u64,
}

impl Census {
    /// Round-trip one delivered packet through the codec and return it
    /// carrying the decoded value.
    fn referee(&mut self, pkt: Packet) -> Packet {
        let payload = match pkt.payload {
            Payload::Quic(p) => {
                let bytes = p.encode();
                assert_eq!(bytes.len(), p.encoded_len() as usize, "encoded_len: {p:?}");
                assert_eq!(pkt.wire_size, p.wire_size() + UDP_OVERHEAD, "charge: {p:?}");
                let back = QuicPacket::decode(&bytes).unwrap_or_else(|e| panic!("{e}: {p:?}"));
                assert_eq!(back, p, "decode(encode(p)) != p");
                self.quic_packets += 1;
                for f in &back.frames {
                    match f {
                        Frame::Stream { fin: true, .. } => self.stream_fins += 1,
                        Frame::Ack { blocks, .. } if blocks.len() > 1 => self.acks_with_holes += 1,
                        Frame::WindowUpdate { .. } => self.window_updates += 1,
                        Frame::Handshake {
                            kind: HandshakeKind::Rej,
                            ..
                        } => self.rejs += 1,
                        _ => {}
                    }
                }
                Payload::Quic(back)
            }
            Payload::Tcp(s) => {
                let bytes = s.encode();
                assert_eq!(bytes.len(), s.encoded_len() as usize, "encoded_len: {s:?}");
                let charge = s.wire_size_payload() + TCP_OVERHEAD + 17 * s.records.len() as u32;
                assert_eq!(pkt.wire_size, charge, "charge: {s:?}");
                let back = TcpSegment::decode(&bytes).unwrap_or_else(|e| panic!("{e}: {s:?}"));
                assert_eq!(back, s, "decode(encode(s)) != s");
                self.tcp_segments += 1;
                self.records += back.records.len() as u64;
                self.with_sacks += u64::from(!back.sacks.is_empty());
                self.dsacks += u64::from(back.dsack);
                Payload::Tcp(back)
            }
        };
        Packet { payload, ..pkt }
    }
}

/// An agent that referees everything delivered to the host it wraps.
struct Referee<A> {
    host: A,
    census: Rc<RefCell<Census>>,
}

impl<A: Agent> Agent for Referee<A> {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let pkt = self.census.borrow_mut().referee(pkt);
        self.host.on_packet(pkt, ctx);
    }

    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        self.host.on_wakeup(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self.host.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.host.as_any_mut()
    }
}

/// A world under construction whose every node is refereed.
struct Refereed {
    world: World,
    census: Rc<RefCell<Census>>,
}

impl Refereed {
    fn new(seed: u64) -> Refereed {
        Refereed {
            world: World::new(seed),
            census: Rc::default(),
        }
    }

    fn add(&mut self, host: impl Agent) -> NodeId {
        let referee = Referee {
            host,
            census: Rc::clone(&self.census),
        };
        self.world
            .add_node(Box::new(referee), DeviceProfile::DESKTOP)
    }

    /// Run from a kick of `client` to completion; the page must load
    /// with no connection error at the client.
    fn finish(mut self, name: &str, client: NodeId) -> Census {
        self.world.kick(client);
        self.world.run_until(Time::ZERO + Dur::from_secs(120));
        let host = self.world.agent::<ClientHost>(client);
        assert!(host.app::<WebClient>(0).done(), "{name}: page did not load");
        assert_eq!(host.conn_error(0), None, "{name}: client error");
        drop(self.world);
        Rc::try_unwrap(self.census)
            .expect("the world and its referees are gone")
            .into_inner()
    }
}

fn client(to: NodeId, proto: &ProtoConfig, zero_rtt: bool, page: &PageSpec) -> ClientHost {
    let mut host = ClientHost::new(to, true);
    let app = Box::new(WebClient::new(page.clone()));
    host.add(FlowId(1), proto, zero_rtt, app, Time::ZERO);
    host
}

/// Client — link pair — server, the Fig 1 topology, fault plan included.
fn direct(
    name: &str,
    seed: u64,
    net: &NetProfile,
    page: &PageSpec,
    proto: &ProtoConfig,
    zero_rtt: bool,
) -> Census {
    // Under a fault plan both ends run with armed watchdogs, as in
    // `Testbed::direct`.
    let proto = match net.fault {
        Some(_) => proto.clone().with_watchdog(),
        None => proto.clone(),
    };
    let mut cell = Refereed::new(seed);
    let s = NodeId(1);
    let c = cell.add(client(s, &proto, zero_rtt, page));
    assert_eq!(cell.add(ServerHost::new(proto, page.clone(), seed ^ 1)), s);
    let fault = |up| net.fault.as_ref().and_then(|plan| plan.link_view(up));
    cell.world.connect(
        c,
        s,
        net.link().with_fault(fault(true)),
        net.link().with_fault(fault(false)),
    );
    cell.finish(name, c)
}

/// Client — proxy — origin, the same protocol on both legs.
fn proxied(
    name: &str,
    seed: u64,
    net: &NetProfile,
    page: &PageSpec,
    proto: &ProtoConfig,
) -> Census {
    let mut cell = Refereed::new(seed);
    let (p, o) = (NodeId(1), NodeId(2));
    let c = cell.add(client(p, proto, false, page));
    assert_eq!(
        cell.add(ProxyHost::new(o, proto.clone(), proto.clone(), 1 << 32)),
        p
    );
    assert_eq!(
        cell.add(ServerHost::new(proto.clone(), page.clone(), seed ^ 1)),
        o
    );
    cell.world.connect(c, p, net.link(), net.link());
    cell.world.connect(p, o, net.link(), net.link());
    cell.finish(name, c)
}

fn quic() -> ProtoConfig {
    ProtoConfig::Quic(QuicConfig::default())
}

fn tcp() -> ProtoConfig {
    ProtoConfig::Tcp(TcpConfig::default())
}

/// `direct` over both protocols on their default configs.
fn both(name: &str, seed: u64, net: &NetProfile, page: &PageSpec) -> (Census, Census) {
    let run = |proto: ProtoConfig| {
        let cell = format!("{}/{name}", proto.name());
        direct(&cell, seed, net, page, &proto, false)
    };
    (run(quic()), run(tcp()))
}

#[test]
fn clean_path() {
    let (q, t) = both(
        "clean",
        7101,
        &NetProfile::baseline(10.0),
        &PageSpec::single(40 * 1024),
    );
    assert!(q.quic_packets > 30 && q.stream_fins >= 2, "{q:?}");
    assert!(t.tcp_segments > 30 && t.records >= 2, "{t:?}");
}

#[test]
fn lossy_path() {
    let (q, t) = both(
        "lossy",
        7102,
        &NetProfile::baseline(5.0).with_loss(0.02),
        &PageSpec::single(200 * 1024),
    );
    assert!(q.acks_with_holes > 0, "{q:?}");
    assert!(t.with_sacks > 0, "{t:?}");
}

#[test]
fn jittered_reordering_path() {
    let (q, t) = both(
        "jittered",
        7103,
        &NetProfile::baseline(20.0).with_jitter(Dur::from_millis(4)),
        &PageSpec::uniform(5, 40 * 1024),
    );
    assert!(q.acks_with_holes > 0, "{q:?}");
    assert!(t.with_sacks > 0, "{t:?}");
}

/// 120 × 10 KB objects over 1 % loss with the receive windows frozen
/// below the path's bandwidth-delay product: the sender is flow-control
/// bound for the whole load and every credit it gets is a frame (QUIC)
/// or a window field (TCP) that crossed the codec.
#[test]
fn many_streams_flow_control_bound() {
    let net = NetProfile::baseline(10.0).with_loss(0.01);
    let page = PageSpec::uniform(120, 10 * 1024);
    let blocked_quic = ProtoConfig::Quic(QuicConfig {
        conn_recv_window: 24 * 1024,
        flow_auto_tune: false,
        ..QuicConfig::default()
    });
    let blocked_tcp = ProtoConfig::Tcp(TcpConfig {
        recv_buffer: 24 * 1024,
        ..TcpConfig::default()
    });
    let q = direct("QUIC/blocked", 9005, &net, &page, &blocked_quic, true);
    assert!(q.window_updates > 20 && q.stream_fins >= 240, "{q:?}");
    let t = direct("TCP/blocked", 9005, &net, &page, &blocked_tcp, false);
    assert!(t.records >= 240, "{t:?}");
}

/// A warm client against a server whose cached config expired: the early
/// flight is dropped, a REJ comes back, and the request is replayed after
/// a full handshake — so its FIN is delivered twice, where every cold
/// cell above delivers one per direction. TCP has no 0-RTT to reject.
#[test]
fn zero_rtt_rejected() {
    let rejecting = ProtoConfig::Quic(QuicConfig {
        zero_rtt_accept: false,
        ..QuicConfig::default()
    });
    let q = direct(
        "QUIC/0rtt-rejected",
        8101,
        &NetProfile::baseline(5.0),
        &PageSpec::single(40 * 1024),
        &rejecting,
        true,
    );
    assert!(q.rejs > 0 && q.stream_fins > 2, "{q:?}");
}

/// A fault plan that duplicates 15 % of packets in both directions for
/// the first 400 ms: the only traffic here that makes a TCP receiver
/// report a DSACK.
#[test]
fn faulted_with_duplicates() {
    let plan = FaultPlan::new().with_event(FaultEvent {
        at: Time::ZERO,
        dur: Dur::from_millis(400),
        dir: FaultDir::Both,
        kind: FaultKind::Duplicate { prob_pm: 150 },
    });
    let (q, t) = both(
        "duplicates",
        8400,
        &NetProfile::baseline(5.0).with_fault(plan),
        &PageSpec::single(120 * 1024),
    );
    assert!(q.quic_packets > 100, "{q:?}");
    assert!(t.dsacks > 0, "{t:?}");
}

/// Through a split-connection proxy over 1 % loss: four connections per
/// load, the proxy's two refereed like the endpoints'.
#[test]
fn proxied_path() {
    let net = NetProfile::baseline(10.0).with_loss(0.01);
    let page = PageSpec::single(200 * 1024);
    let q = proxied("QUIC/proxied", 7107, &net, &page, &quic());
    assert!(q.quic_packets > 300 && q.stream_fins >= 4, "{q:?}");
    let t = proxied("TCP/proxied", 7107, &net, &page, &tcp());
    assert!(t.tcp_segments > 300 && t.records >= 4, "{t:?}");
}
