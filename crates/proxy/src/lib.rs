//! Split-connection transparent proxies (paper Sec 5.5, Figs 16-18).
//!
//! High-latency networks commonly deploy transparent TCP proxies that
//! terminate connections mid-path, halving the control-loop RTT and
//! recovering losses locally. QUIC's encrypted transport headers make
//! that impossible — so the paper measures what performance QUIC "leaves
//! on the table" by writing an explicit QUIC proxy and comparing.
//!
//! [`ProxyHost`] terminates the client-side connection and opens its own
//! connection to the origin, forwarding stream data in both directions
//! with store-and-forward buffering. Per the paper, the QUIC proxy cannot
//! use 0-RTT on either leg ("inability to establish connections via
//! 0-RTT"), which is why it *hurts* small objects while helping large
//! transfers under loss.

use longlook_http::host::{pump, ProtoConfig};
use longlook_sim::time::Time;
use longlook_sim::world::{Agent, Ctx};
use longlook_sim::{FlowId, NodeId, Packet};
use longlook_transport::conn::{AppEvent, Connection, StreamId};
use std::any::Any;
use std::collections::BTreeMap;

/// One proxied session: a client-side (downstream) connection and an
/// origin-side (upstream) connection, with stream mappings.
struct Session {
    down: Box<dyn Connection>,
    up: Box<dyn Connection>,
    client: NodeId,
    down_flow: FlowId,
    up_flow: FlowId,
    /// downstream stream -> upstream stream.
    map_up: BTreeMap<StreamId, StreamId>,
    /// upstream stream -> downstream stream.
    map_down: BTreeMap<StreamId, StreamId>,
    /// Requests arriving before the upstream leg is established.
    pending_up: Vec<(StreamId, u64, bool)>,
    up_established: bool,
}

impl Session {
    /// Forward `bytes` (and `fin`) of downstream stream `id` to the
    /// origin, opening and mapping its upstream stream on first use; held
    /// back until the upstream leg is established.
    fn forward_up(&mut self, now: Time, id: StreamId, bytes: u64, fin: bool) {
        if !self.up_established {
            self.pending_up.push((id, bytes, fin));
            return;
        }
        let up = self.up.as_mut();
        let up_id = *self
            .map_up
            .entry(id)
            .or_insert_with(|| up.open_stream(now).expect("upstream"));
        self.map_down.insert(up_id, id);
        self.up.stream_send(now, up_id, bytes, fin);
    }
}

/// A transparent split-connection proxy between clients and one origin.
/// Sessions are serviced in downstream flow-id order.
pub struct ProxyHost {
    origin: NodeId,
    /// Protocol used on the client-facing leg.
    down_proto: ProtoConfig,
    /// Protocol used on the origin-facing leg.
    up_proto: ProtoConfig,
    sessions: BTreeMap<FlowId, Session>,
    /// Upstream flow -> session key (downstream flow).
    up_index: BTreeMap<FlowId, FlowId>,
    next_up_flow: u64,
}

impl ProxyHost {
    /// New proxy forwarding to `origin`. The upstream flow-id space is
    /// `base_flow + k` — keep it disjoint from client flow ids.
    pub fn new(
        origin: NodeId,
        down_proto: ProtoConfig,
        up_proto: ProtoConfig,
        base_flow: u64,
    ) -> Self {
        ProxyHost {
            origin,
            down_proto,
            up_proto,
            sessions: BTreeMap::new(),
            up_index: BTreeMap::new(),
            next_up_flow: base_flow,
        }
    }

    fn service(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        let down_class = self.down_proto.pkt_class();
        let up_class = self.up_proto.pkt_class();
        for sess in self.sessions.values_mut() {
            // Downstream -> upstream forwarding.
            while let Some(ev) = sess.down.poll_event() {
                match ev {
                    AppEvent::StreamData { id, bytes } => sess.forward_up(now, id, bytes, false),
                    AppEvent::StreamFin(id) => sess.forward_up(now, id, 0, true),
                    AppEvent::StreamOpened(_) | AppEvent::HandshakeDone => {}
                }
            }
            // Upstream -> downstream forwarding.
            while let Some(ev) = sess.up.poll_event() {
                let (id, bytes, fin) = match ev {
                    AppEvent::HandshakeDone => {
                        sess.up_established = true;
                        for (id, bytes, fin) in std::mem::take(&mut sess.pending_up) {
                            sess.forward_up(now, id, bytes, fin);
                        }
                        continue;
                    }
                    AppEvent::StreamOpened(_) => continue,
                    AppEvent::StreamData { id, bytes } => (id, bytes, false),
                    AppEvent::StreamFin(id) => (id, 0, true),
                };
                if let Some(&down_id) = sess.map_down.get(&id) {
                    sess.down.stream_send(now, down_id, bytes, fin);
                }
            }
            pump(
                sess.down.as_mut(),
                ctx,
                sess.client,
                sess.down_flow,
                down_class,
            );
            pump(sess.up.as_mut(), ctx, self.origin, sess.up_flow, up_class);
        }
    }
}

impl Agent for ProxyHost {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        if let Some(&down_flow) = self.up_index.get(&pkt.flow) {
            // From the origin.
            if let Some(sess) = self.sessions.get_mut(&down_flow) {
                sess.up.on_datagram(pkt.payload, now);
            }
        } else {
            // From a client: find or create the session.
            let sess = self.sessions.entry(pkt.flow).or_insert_with(|| {
                let down = self.down_proto.server_conn(pkt.flow, now);
                // The proxy's upstream leg never has cached 0-RTT state
                // (the paper's observed limitation).
                let up_flow = FlowId(self.next_up_flow);
                self.next_up_flow += 1;
                let up = self.up_proto.client_conn(up_flow, false, now);
                self.up_index.insert(up_flow, pkt.flow);
                Session {
                    down,
                    up,
                    client: pkt.src,
                    down_flow: pkt.flow,
                    up_flow,
                    map_up: BTreeMap::new(),
                    map_down: BTreeMap::new(),
                    pending_up: Vec::new(),
                    up_established: false,
                }
            });
            sess.down.on_datagram(pkt.payload, now);
        }
        self.service(ctx);
    }

    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        for sess in self.sessions.values_mut() {
            sess.down.on_wakeup(now);
            sess.up.on_wakeup(now);
        }
        self.service(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_http::app::{ClientApp, WebClient};
    use longlook_http::host::{ClientHost, ServerHost};
    use longlook_http::workload::PageSpec;
    use longlook_quic::QuicConfig;
    use longlook_sim::link::LinkConfig;
    use longlook_sim::schedule::RateSchedule;
    use longlook_sim::time::{Dur, Time};
    use longlook_sim::world::World;
    use longlook_sim::DeviceProfile;
    use longlook_tcp::TcpConfig;

    /// client --(leg)-- proxy --(leg)-- origin, both legs shaped.
    fn run_proxied(
        down: ProtoConfig,
        up: ProtoConfig,
        page: PageSpec,
        rate_mbps: f64,
        loss_each_leg: f64,
        seed: u64,
    ) -> Dur {
        let mut world = World::new(seed);
        let proxy_id = NodeId(1);
        let origin_id = NodeId(2);
        let mut client = ClientHost::new(proxy_id, true);
        client.add(
            FlowId(1),
            &down,
            true,
            Box::new(WebClient::new(page.clone())),
            Time::ZERO,
        );
        let c = world.add_node(Box::new(client), DeviceProfile::DESKTOP);
        let proxy = ProxyHost::new(origin_id, down, up.clone(), 1000);
        world.add_node(Box::new(proxy), DeviceProfile::SERVER);
        let origin = ServerHost::new(up, page, seed ^ 0x5555);
        world.add_node(Box::new(origin), DeviceProfile::SERVER);
        // Each leg carries half of a 36ms RTT.
        let leg = || {
            LinkConfig::shaped(
                RateSchedule::fixed_mbps(rate_mbps),
                Dur::from_millis(9),
                Dur::from_millis(18),
            )
            .with_loss(loss_each_leg)
        };
        world.connect(c, proxy_id, leg(), leg());
        world.connect(proxy_id, origin_id, leg(), leg());
        world.kick(c);
        world.run_until(Time::ZERO + Dur::from_secs(120));
        let app = world.agent::<ClientHost>(c).app::<WebClient>(0);
        assert!(app.done(), "proxied load must complete");
        app.plt().expect("finished")
    }

    fn quic() -> ProtoConfig {
        ProtoConfig::Quic(QuicConfig::default())
    }

    fn tcp() -> ProtoConfig {
        ProtoConfig::Tcp(TcpConfig::default())
    }

    #[test]
    fn tcp_proxy_end_to_end() {
        let plt = run_proxied(tcp(), tcp(), PageSpec::single(100 * 1024), 10.0, 0.0, 1);
        assert!(plt < Dur::from_secs(2), "plt = {plt}");
    }

    #[test]
    fn quic_proxy_end_to_end() {
        let plt = run_proxied(quic(), quic(), PageSpec::single(100 * 1024), 10.0, 0.0, 2);
        assert!(plt < Dur::from_secs(2), "plt = {plt}");
    }

    #[test]
    fn proxied_multi_object_page() {
        let plt = run_proxied(
            quic(),
            quic(),
            PageSpec::uniform(5, 50 * 1024),
            10.0,
            0.0,
            3,
        );
        assert!(plt < Dur::from_secs(5), "plt = {plt}");
    }

    #[test]
    fn proxy_recovers_loss_on_each_leg() {
        let plt = run_proxied(tcp(), tcp(), PageSpec::single(1024 * 1024), 10.0, 0.01, 4);
        assert!(plt < Dur::from_secs(30), "plt = {plt}");
    }
}
