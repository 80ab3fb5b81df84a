//! Testbed construction: the paper's Fig 1 topology (client — emulating
//! router — server) and its variants (shared bottleneck for fairness,
//! proxy midpoint, cellular profiles).
//!
//! The emulating router collapses into the link pair: since the paper's
//! router only shapes/impairs traffic, the two directions of a
//! [`NetProfile`] carry all of its behavior.

use longlook_http::app::ClientApp;
use longlook_http::host::{ClientHost, ProtoConfig, ServerHost, WaitModel};
use longlook_http::workload::PageSpec;
use longlook_proxy::ProxyHost;
use longlook_quic::{CONN_RECV_WINDOW_MAX, STREAM_RECV_WINDOW_MAX};
use longlook_sim::link::{Jitter, LinkConfig, ReorderSpec};
use longlook_sim::schedule::RateSchedule;
use longlook_sim::time::{Dur, Time};
use longlook_sim::world::World;
use longlook_sim::{DeviceProfile, FaultPlan, FlowId, NodeId, PeerSide};

/// Half-width of the per-run RTT draw: each run's base RTT is the path's
/// times a factor in `[1 - RTT_DRAW, 1 + RTT_DRAW)`.
const RTT_DRAW: f64 = 0.03;

/// A network environment: everything `tc`/`netem` controlled on the
/// paper's router.
#[derive(Debug, Clone)]
pub struct NetProfile {
    /// Link rate schedule (both directions).
    pub rate: RateSchedule,
    /// Path round-trip time (split evenly across directions).
    pub rtt: Dur,
    /// Random loss per direction.
    pub loss: f64,
    /// Delay jitter per direction.
    pub jitter: Jitter,
    /// Explicit reordering per direction.
    pub reorder: Option<ReorderSpec>,
    /// Drop-tail buffer override in bytes (`None` = one BDP, min 64 KB).
    pub buffer_bytes: Option<u64>,
    /// Deterministic fault schedule layered on the path. `None` keeps the
    /// link transit paths and RNG streams byte-identical to a profile
    /// built before the fault layer existed (the golden-seed referee
    /// pins this). When set, the testbed also arms both endpoints'
    /// connection watchdogs so faulted runs terminate with typed errors.
    pub fault: Option<FaultPlan>,
}

impl NetProfile {
    /// The paper's baseline: `rate` Mbps, 36 ms RTT, clean path.
    pub fn baseline(rate_mbps: f64) -> Self {
        NetProfile {
            rate: RateSchedule::fixed_mbps(rate_mbps),
            rtt: Dur::from_millis(36),
            loss: 0.0,
            jitter: Jitter::None,
            reorder: None,
            buffer_bytes: None,
            fault: None,
        }
    }

    /// Builder: attach a deterministic fault schedule.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builder: add random loss.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Builder: add extra RTT.
    pub fn with_extra_rtt(mut self, extra: Dur) -> Self {
        self.rtt += extra;
        self
    }

    /// Builder: netem-style jitter (causes reordering).
    pub fn with_jitter(mut self, j: Dur) -> Self {
        self.jitter = Jitter::Uniform(j);
        self
    }

    /// Builder: explicit reordering.
    pub fn with_reorder(mut self, spec: ReorderSpec) -> Self {
        self.reorder = Some(spec);
        self
    }

    /// Builder: fixed buffer (e.g. the fairness tests' 30 KB).
    pub fn with_buffer(mut self, bytes: u64) -> Self {
        self.buffer_bytes = Some(bytes);
        self
    }

    /// This path as one run realizes it: the base RTT scaled by a factor
    /// within ±[`RTT_DRAW`], drawn as a pure hash of `(key, index)`. It
    /// models the path-latency noise any physical testbed has; without
    /// it the deterministic simulator would report sub-percent
    /// differences as maximally significant, which no real measurement
    /// could.
    pub(crate) fn with_rtt_draw(mut self, key: u64, index: u64) -> Self {
        let u = longlook_sim::rng::hash_unit(key, index);
        self.rtt = self.rtt.mul_f64((1.0 - RTT_DRAW) + 2.0 * RTT_DRAW * u);
        self
    }

    /// One direction's link configuration.
    pub fn link(&self) -> LinkConfig {
        let owd = Dur::from_nanos(self.rtt.as_nanos() / 2);
        let mut cfg = LinkConfig::shaped(self.rate.clone(), owd, self.rtt)
            .with_loss(self.loss)
            .with_jitter(self.jitter);
        if let Some(spec) = self.reorder {
            cfg = cfg.with_reorder(spec);
        }
        if let Some(b) = self.buffer_bytes {
            cfg = cfg.with_buffer(b);
        }
        cfg
    }
}

/// One client workload to install: protocol, 0-RTT availability, app.
pub struct FlowSpec {
    /// Protocol + configuration.
    pub proto: ProtoConfig,
    /// Whether the client holds cached 0-RTT state (QUIC only).
    pub zero_rtt: bool,
    /// The application.
    pub app: Box<dyn ClientApp>,
}

/// A built direct-topology testbed.
pub struct Testbed {
    /// The world, ready to run.
    pub world: World,
    /// Client node.
    pub client: NodeId,
    /// Server node.
    pub server: NodeId,
    /// Flow ids in the order the specs were given.
    pub flows: Vec<FlowId>,
}

impl Testbed {
    /// Build the Fig 1 topology with the given flows sharing one link.
    /// Each flow's connections trace as its protocol config's `trace`
    /// says.
    pub fn direct(
        seed: u64,
        net: &NetProfile,
        device: DeviceProfile,
        catalog: PageSpec,
        flows: Vec<FlowSpec>,
        wait: Option<WaitModel>,
        stop_when_done: bool,
    ) -> Testbed {
        let mut world = World::new(seed);
        let server_id = NodeId(1);
        // Under a fault plan both endpoints run with armed watchdogs:
        // blackouts and stalls must end in a typed error, never a hang.
        let install = |proto: ProtoConfig| -> ProtoConfig {
            if net.fault.is_some() {
                proto.with_watchdog()
            } else {
                proto
            }
        };
        let mut client = ClientHost::new(server_id, stop_when_done);
        let mut server = ServerHost::new(
            install(
                flows
                    .first()
                    .map(|f| f.proto.clone())
                    .unwrap_or(ProtoConfig::Quic(Default::default())),
            ),
            catalog,
            seed ^ 0x6C6F_6E67, // "long"
        );
        if let Some(w) = wait {
            server = server.with_wait(w);
        }
        let mut flow_ids = Vec::new();
        for (i, spec) in flows.into_iter().enumerate() {
            let flow = FlowId(i as u64 + 1);
            // Memory-constrained devices advertise smaller QUIC windows
            // (mobile Chrome scales flow control by device memory) and
            // stop auto-tuning them upward. The *server* still runs the
            // calibrated config; only the client's receive side shrinks.
            let client_proto = match (&spec.proto, device.quic_recv_window_cap) {
                (ProtoConfig::Quic(cfg), Some(cap)) => {
                    let mut c = cfg.clone();
                    c.conn_recv_window = cap.min(CONN_RECV_WINDOW_MAX);
                    c.stream_recv_window = (cap * 2 / 3).min(STREAM_RECV_WINDOW_MAX);
                    c.flow_auto_tune = false;
                    ProtoConfig::Quic(c)
                }
                _ => spec.proto.clone(),
            };
            if let (ProtoConfig::Quic(c), ProtoConfig::Quic(s)) = (&client_proto, &spec.proto) {
                // Each end bounds its peer's stream ids by its own limit.
                assert_eq!(c.max_streams, s.max_streams, "both ends run one MSPC");
            }
            server.expect_flow(flow, install(spec.proto.clone()));
            client.add(
                flow,
                &install(client_proto),
                spec.zero_rtt,
                spec.app,
                Time::ZERO,
            );
            flow_ids.push(flow);
        }
        let c = world.add_node(Box::new(client), device);
        let s = world.add_node(Box::new(server), DeviceProfile::SERVER);
        debug_assert_eq!(s, server_id);
        // Per-direction fault views: "up" is client -> server (the first
        // `connect` argument), "down" the reverse.
        let (up, down) = match &net.fault {
            Some(plan) => (
                net.link().with_fault(plan.link_view(true)),
                net.link().with_fault(plan.link_view(false)),
            ),
            None => (net.link(), net.link()),
        };
        world.connect(c, s, up, down);
        if let Some(plan) = &net.fault {
            for (from, until) in plan.stall_windows(PeerSide::Client) {
                world.stall_node(c, from, until);
            }
            for (from, until) in plan.stall_windows(PeerSide::Server) {
                world.stall_node(s, from, until);
            }
        }
        world.kick(c);
        Testbed {
            world,
            client: c,
            server: s,
            flows: flow_ids,
        }
    }

    /// Run until the client stops, the world idles, or `deadline`.
    pub fn run(&mut self, deadline: Dur) {
        self.world.run_until(Time::ZERO + deadline);
    }

    /// The client host (for result extraction).
    pub fn client_host(&self) -> &ClientHost {
        self.world.agent::<ClientHost>(self.client)
    }

    /// The server host.
    pub fn server_host(&self) -> &ServerHost {
        self.world.agent::<ServerHost>(self.server)
    }
}

/// A built proxy-topology testbed: client — leg — proxy — leg — origin.
pub struct ProxyTestbed {
    /// The world.
    pub world: World,
    /// Client node.
    pub client: NodeId,
    /// Proxy node.
    pub proxy: NodeId,
    /// Origin node.
    pub origin: NodeId,
}

impl ProxyTestbed {
    /// The origin-side flow of the client's session: the proxy numbers
    /// its upstream flows from here, clear of client flow ids.
    pub const ORIGIN_FLOW: FlowId = FlowId(1 << 32);

    /// Build with the proxy "located midway between client and server"
    /// (Fig 16): each leg gets half the RTT and the full rate/impairments
    /// of `net`. Panics if `net` carries a fault plan: its link views and
    /// stall windows are defined for one link pair, not for two legs.
    #[allow(clippy::too_many_arguments)]
    pub fn midpoint(
        seed: u64,
        net: &NetProfile,
        device: DeviceProfile,
        catalog: PageSpec,
        down_proto: ProtoConfig,
        up_proto: ProtoConfig,
        zero_rtt: bool,
        app: Box<dyn ClientApp>,
    ) -> ProxyTestbed {
        if net.fault.is_some() {
            panic!("NetProfile::fault is set, but the proxy testbed cannot apply a fault plan");
        }
        let mut world = World::new(seed);
        let proxy_id = NodeId(1);
        let origin_id = NodeId(2);
        let mut client = ClientHost::new(proxy_id, true);
        client.add(FlowId(1), &down_proto, zero_rtt, app, Time::ZERO);
        let c = world.add_node(Box::new(client), device);
        let proxy = ProxyHost::new(origin_id, down_proto, up_proto.clone(), Self::ORIGIN_FLOW.0);
        let p = world.add_node(Box::new(proxy), DeviceProfile::SERVER);
        debug_assert_eq!(p, proxy_id);
        let origin = ServerHost::new(up_proto, catalog, seed ^ 0x7072_6F78); // "prox"
        let o = world.add_node(Box::new(origin), DeviceProfile::SERVER);
        debug_assert_eq!(o, origin_id);
        // Each leg: half the path RTT, same rate and impairments.
        let half = NetProfile {
            rtt: Dur::from_nanos(net.rtt.as_nanos() / 2),
            ..net.clone()
        };
        world.connect(c, p, half.link(), half.link());
        world.connect(p, o, half.link(), half.link());
        world.kick(c);
        ProxyTestbed {
            world,
            client: c,
            proxy: p,
            origin: o,
        }
    }

    /// Run until stop/idle/deadline.
    pub fn run(&mut self, deadline: Dur) {
        self.world.run_until(Time::ZERO + deadline);
    }

    /// The client host.
    pub fn client_host(&self) -> &ClientHost {
        self.world.agent::<ClientHost>(self.client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_http::app::WebClient;
    use longlook_quic::QuicConfig;
    use longlook_tcp::TcpConfig;

    #[test]
    fn net_profile_builders_compose() {
        let p = NetProfile::baseline(10.0)
            .with_loss(0.01)
            .with_extra_rtt(Dur::from_millis(100))
            .with_jitter(Dur::from_millis(10))
            .with_buffer(30 * 1024);
        assert_eq!(p.rtt, Dur::from_millis(136));
        assert_eq!(p.loss, 0.01);
        let link = p.link();
        assert_eq!(link.delay, Dur::from_millis(68));
        assert_eq!(link.buffer_bytes, 30 * 1024);
        assert_eq!(link.loss, 0.01);
    }

    #[test]
    fn direct_testbed_runs_a_page_load() {
        let page = PageSpec::single(50 * 1024);
        let mut tb = Testbed::direct(
            1,
            &NetProfile::baseline(10.0),
            DeviceProfile::DESKTOP,
            page.clone(),
            vec![FlowSpec {
                proto: ProtoConfig::Quic(QuicConfig::default()),
                zero_rtt: true,
                app: Box::new(WebClient::new(page)),
            }],
            None,
            true,
        );
        tb.run(Dur::from_secs(30));
        let app = tb.client_host().app::<WebClient>(0);
        assert!(app.done());
    }

    #[test]
    fn mixed_protocol_flows_share_one_bottleneck() {
        let page = PageSpec::single(200 * 1024);
        let mut tb = Testbed::direct(
            2,
            &NetProfile::baseline(5.0).with_buffer(30 * 1024),
            DeviceProfile::DESKTOP,
            page.clone(),
            vec![
                FlowSpec {
                    proto: ProtoConfig::Quic(QuicConfig::default()),
                    zero_rtt: true,
                    app: Box::new(WebClient::new(page.clone())),
                },
                FlowSpec {
                    proto: ProtoConfig::Tcp(TcpConfig::default()),
                    zero_rtt: false,
                    app: Box::new(WebClient::new(page)),
                },
            ],
            None,
            true,
        );
        tb.run(Dur::from_secs(60));
        let host = tb.client_host();
        assert!(host.app::<WebClient>(0).done(), "QUIC flow finished");
        assert!(host.app::<WebClient>(1).done(), "TCP flow finished");
    }

    #[test]
    fn proxy_testbed_runs() {
        let page = PageSpec::single(50 * 1024);
        let mut tb = ProxyTestbed::midpoint(
            3,
            &NetProfile::baseline(10.0),
            DeviceProfile::DESKTOP,
            page.clone(),
            ProtoConfig::Tcp(TcpConfig::default()),
            ProtoConfig::Tcp(TcpConfig::default()),
            false,
            Box::new(WebClient::new(page)),
        );
        tb.run(Dur::from_secs(30));
        assert!(tb.client_host().app::<WebClient>(0).done());
    }
}
