//! Host agents: the glue between sans-IO connections and the simulated
//! world.
//!
//! A [`ClientHost`] owns one or more (connection, app) pairs to a server;
//! a [`ServerHost`] accepts connections on demand and serves a catalog of
//! objects, optionally after a GAE-style variable wait (Fig 2's middle
//! bar). Both implement [`longlook_sim::Agent`].

use crate::app::ClientApp;
use crate::workload::{PageSpec, RESPONSE_HEADER};
use longlook_quic::{QuicConfig, QuicConnection};
use longlook_sim::rng::SimRng;
use longlook_sim::time::{Dur, Time};
use longlook_sim::world::{Agent, Ctx};
use longlook_sim::{FlowId, NodeId, Packet, PktClass, TraceMode};
use longlook_tcp::{TcpConfig, TcpConnection};
use longlook_transport::ccstate::StateTrace;
use longlook_transport::conn::{AppEvent, ConnError, ConnStats, Connection, StreamId};
use std::any::Any;
use std::collections::BTreeMap;

/// Protocol selection plus configuration.
#[derive(Debug, Clone)]
pub enum ProtoConfig {
    /// QUIC with the given configuration.
    Quic(QuicConfig),
    /// TCP+TLS+HTTP/2 with the given configuration.
    Tcp(TcpConfig),
}

impl ProtoConfig {
    /// Packet-processing class at the receiving host.
    pub fn pkt_class(&self) -> PktClass {
        match self {
            ProtoConfig::Quic(_) => PktClass::Userspace,
            ProtoConfig::Tcp(_) => PktClass::Kernel,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ProtoConfig::Quic(_) => "QUIC",
            ProtoConfig::Tcp(_) => "TCP",
        }
    }

    /// Build a client-side connection.
    pub fn client_conn(&self, flow: FlowId, zero_rtt: bool, now: Time) -> Box<dyn Connection> {
        match self {
            ProtoConfig::Quic(cfg) => {
                Box::new(QuicConnection::client(cfg.clone(), flow.0, zero_rtt, now))
            }
            ProtoConfig::Tcp(cfg) => Box::new(TcpConnection::client(cfg.clone(), now)),
        }
    }

    /// Arm the connection watchdog (typed handshake/idle timeouts) on
    /// whichever protocol this is. The testbed applies this to both ends
    /// whenever a fault plan is attached, so faulted runs terminate with
    /// a typed error instead of livelocking.
    pub fn with_watchdog(mut self) -> Self {
        match &mut self {
            ProtoConfig::Quic(cfg) => cfg.watchdog = true,
            ProtoConfig::Tcp(cfg) => cfg.watchdog = true,
        }
        self
    }

    /// Stamp the trace mode both endpoints' connections run with. The
    /// experiment runner stamps it on the protocol configs it hands the
    /// testbed, so whether a cell traces is a value it carries rather
    /// than process state.
    pub fn with_trace(mut self, trace: TraceMode) -> Self {
        match &mut self {
            ProtoConfig::Quic(cfg) => cfg.trace = trace,
            ProtoConfig::Tcp(cfg) => cfg.trace = trace,
        }
        self
    }

    /// Build a server-side connection.
    pub fn server_conn(&self, flow: FlowId, now: Time) -> Box<dyn Connection> {
        match self {
            ProtoConfig::Quic(cfg) => Box::new(QuicConnection::server(cfg.clone(), flow.0, now)),
            ProtoConfig::Tcp(cfg) => Box::new(TcpConnection::server(cfg.clone(), now)),
        }
    }
}

/// Pump a connection's transmissions into the world and re-arm its timer.
pub fn pump(
    conn: &mut dyn Connection,
    ctx: &mut Ctx<'_>,
    peer: NodeId,
    flow: FlowId,
    class: PktClass,
) {
    let now = ctx.now;
    while let Some(tx) = conn.poll_transmit(now) {
        ctx.send(Packet::new(
            ctx.node(),
            peer,
            flow,
            class,
            tx.wire_size,
            tx.payload,
        ));
    }
    if let Some(w) = conn.next_wakeup() {
        ctx.wake_at(w);
    }
}

struct ClientSlot {
    flow: FlowId,
    conn: Box<dyn Connection>,
    app: Box<dyn ClientApp>,
    class: PktClass,
    started: bool,
}

/// A client host running one or more apps, each over its own connection
/// to `server`.
pub struct ClientHost {
    server: NodeId,
    slots: Vec<ClientSlot>,
    /// Stop the world when every app reports done.
    stop_when_done: bool,
    stopped: bool,
}

impl ClientHost {
    /// New empty client host targeting `server`.
    pub fn new(server: NodeId, stop_when_done: bool) -> Self {
        ClientHost {
            server,
            slots: Vec::new(),
            stop_when_done,
            stopped: false,
        }
    }

    /// Add a (connection, app) pair; returns its flow id.
    pub fn add(
        &mut self,
        flow: FlowId,
        proto: &ProtoConfig,
        zero_rtt: bool,
        app: Box<dyn ClientApp>,
        now: Time,
    ) -> FlowId {
        let conn = proto.client_conn(flow, zero_rtt, now);
        self.slots.push(ClientSlot {
            flow,
            conn,
            app,
            class: proto.pkt_class(),
            started: false,
        });
        flow
    }

    /// Borrow an app downcast to its concrete type (result extraction).
    pub fn app<T: 'static>(&self, index: usize) -> &T {
        self.slots[index]
            .app
            .as_any()
            .downcast_ref::<T>()
            .expect("app type mismatch")
    }

    /// Stats of the `index`-th connection.
    pub fn conn_stats(&self, index: usize) -> ConnStats {
        self.slots[index].conn.stats()
    }

    /// State trace of the `index`-th connection.
    pub fn state_trace(&self, index: usize, now: Time) -> StateTrace<'static> {
        self.slots[index].conn.state_trace(now)
    }

    /// Terminal error of the `index`-th connection, if it gave up.
    pub fn conn_error(&self, index: usize) -> Option<ConnError> {
        self.slots[index].conn.error()
    }

    /// Structured trace records of the `index`-th connection
    /// (its config's `trace`); empty when tracing is off.
    pub fn conn_trace(&self, index: usize) -> &[longlook_sim::trace::TraceRecord] {
        self.slots[index].conn.trace_records()
    }

    /// Number of apps.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the host has no apps.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// All apps done?
    pub fn all_done(&self) -> bool {
        self.slots.iter().all(|s| s.app.done())
    }

    fn service(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        for slot in &mut self.slots {
            if !slot.started {
                slot.started = true;
                slot.app.on_start(slot.conn.as_mut(), now);
            }
            slot.app.on_tick(slot.conn.as_mut(), now);
            // Event/app loop: apps may trigger sends that produce events.
            loop {
                let mut progressed = false;
                while let Some(ev) = slot.conn.poll_event() {
                    slot.app.on_event(ev, slot.conn.as_mut(), now);
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
            pump(slot.conn.as_mut(), ctx, self.server, slot.flow, slot.class);
            if let Some(w) = slot.app.next_wakeup() {
                ctx.wake_at(w);
            }
        }
        if self.stop_when_done && !self.stopped && !self.slots.is_empty() && self.all_done() {
            self.stopped = true;
            ctx.request_stop();
        }
    }
}

impl Agent for ClientHost {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        if let Some(slot) = self.slots.iter_mut().find(|s| s.flow == pkt.flow) {
            slot.conn.on_datagram(pkt.payload, now);
        }
        self.service(ctx);
    }

    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        for slot in &mut self.slots {
            slot.conn.on_wakeup(now);
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

/// GAE-style variable request wait (Fig 2): uniform in `[min, max]`.
#[derive(Debug, Clone)]
pub struct WaitModel {
    /// Minimum wait.
    pub min: Dur,
    /// Maximum wait.
    pub max: Dur,
}

/// Per-request serialized application processing cost. The paper's QUIC
/// server is the single-threaded standalone test server from the Chromium
/// tree, while its TCP baseline is multi-process Apache — so bursts of
/// requests (100-200 objects) serialize behind one core on the QUIC side.
/// This is part of why large numbers of small objects are QUIC's worst
/// case (Sec 5.2).
fn request_cost(class: PktClass) -> Dur {
    match class {
        // The standalone quic_server from the Chromium tree — the code
        // Google itself labels "not performant, for integration testing".
        PktClass::Userspace => Dur::from_micros(4_000),
        // Apache 2.4 with worker processes.
        PktClass::Kernel => Dur::from_micros(250),
    }
}

struct ServerSlot {
    flow: FlowId,
    conn: Box<dyn Connection>,
    peer: NodeId,
    class: PktClass,
    /// Request bytes accumulated per open request stream. A request is
    /// one small record or chunk, so a stream leaves soon after it enters
    /// and the list stays short.
    request_bytes: Vec<(StreamId, u64)>,
}

impl ServerSlot {
    /// Where `id`'s request bytes sit in `request_bytes`.
    fn request(&self, id: StreamId) -> Option<usize> {
        self.request_bytes.iter().rposition(|&(s, _)| s == id)
    }
}

/// A server host: accepts connections, serves the catalog. Connections
/// are serviced and pumped in flow-id order, so a world with several
/// flows on one server replays identically.
pub struct ServerHost {
    proto: ProtoConfig,
    /// Per-flow protocol overrides (mixed-protocol experiments, e.g. the
    /// fairness tests where QUIC and TCP flows share one bottleneck).
    flow_protos: BTreeMap<FlowId, ProtoConfig>,
    catalog: PageSpec,
    /// One slot per flow, ascending by flow id.
    conns: Vec<ServerSlot>,
    wait: Option<WaitModel>,
    /// When the single application worker frees up.
    app_cpu_free: Time,
    rng: SimRng,
    /// Deferred responses: (flow, stream, object).
    pending: Deferred<(FlowId, StreamId, usize)>,
}

/// Items due at given times, fired in the order they were pushed. Due
/// times are not in push order (a [`WaitModel`] adds a random wait after
/// the serialized request cost), and a due-ordered heap would reorder
/// responses that fall due together; so the entries stay in a `Vec`, and
/// the earliest due time rides beside them to skip the scan while
/// nothing is due.
struct Deferred<T> {
    entries: Vec<(Time, T)>,
    /// The earliest due time among `entries`; `Time::MAX` when empty.
    earliest: Time,
}

impl<T: Copy> Deferred<T> {
    fn new() -> Self {
        Deferred {
            entries: Vec::new(),
            earliest: Time::MAX,
        }
    }

    fn push(&mut self, due: Time, item: T) {
        self.earliest = self.earliest.min(due);
        self.entries.push((due, item));
    }

    /// Hand every item due at `now` to `fire`, in push order.
    fn fire_due(&mut self, now: Time, mut fire: impl FnMut(T)) {
        if self.earliest > now {
            return;
        }
        let mut earliest = Time::MAX;
        self.entries.retain(|&(due, item)| {
            if due > now {
                earliest = earliest.min(due);
                return true;
            }
            fire(item);
            false
        });
        self.earliest = earliest;
    }
}

impl ServerHost {
    /// New server with the given protocol and object catalog.
    pub fn new(proto: ProtoConfig, catalog: PageSpec, seed: u64) -> Self {
        ServerHost {
            proto,
            flow_protos: BTreeMap::new(),
            catalog,
            conns: Vec::new(),
            wait: None,
            app_cpu_free: Time::ZERO,
            rng: SimRng::new(seed),
            pending: Deferred::new(),
        }
    }

    /// Add a GAE-style variable wait before each response.
    pub fn with_wait(mut self, wait: WaitModel) -> Self {
        self.wait = Some(wait);
        self
    }

    /// Serve `flow` with a specific protocol (mixed-protocol worlds).
    pub fn expect_flow(&mut self, flow: FlowId, proto: ProtoConfig) {
        self.flow_protos.insert(flow, proto);
    }

    /// Where `flow`'s slot is in `conns`, or where it would go.
    fn find(conns: &[ServerSlot], flow: FlowId) -> Result<usize, usize> {
        conns.binary_search_by_key(&flow, |s| s.flow)
    }

    fn slot(&self, flow: FlowId) -> Option<&ServerSlot> {
        Self::find(&self.conns, flow).ok().map(|at| &self.conns[at])
    }

    /// State trace of the connection for `flow`, if any.
    pub fn state_trace(&self, flow: FlowId, now: Time) -> Option<StateTrace<'static>> {
        self.slot(flow).map(|s| s.conn.state_trace(now))
    }

    /// Stats of the connection for `flow`.
    pub fn conn_stats(&self, flow: FlowId) -> Option<ConnStats> {
        self.slot(flow).map(|s| s.conn.stats())
    }

    /// Terminal error of the connection for `flow`, if it gave up.
    pub fn conn_error(&self, flow: FlowId) -> Option<ConnError> {
        self.slot(flow).and_then(|s| s.conn.error())
    }

    /// Structured trace records of the connection for `flow`
    /// (its config's `trace`); empty when tracing is off.
    pub fn conn_trace(&self, flow: FlowId) -> Option<&[longlook_sim::trace::TraceRecord]> {
        self.slot(flow).map(|s| s.conn.trace_records())
    }

    fn service(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        let ServerHost {
            catalog,
            conns,
            wait,
            app_cpu_free,
            rng,
            pending,
            ..
        } = self;
        // Fire deferred responses that are due, in the order they were
        // scheduled.
        pending.fire_due(now, |(flow, stream, object)| {
            let size = catalog.objects.get(object).copied().unwrap_or(10 * 1024);
            if let Ok(at) = Self::find(conns, flow) {
                conns[at]
                    .conn
                    .stream_send(now, stream, RESPONSE_HEADER + size, true);
            }
        });
        // Collect requests; each completed one queues behind the single
        // application worker (and the optional wait), so it is always
        // answered from `pending` at a later wakeup.
        for slot in conns.iter_mut() {
            while let Some(ev) = slot.conn.poll_event() {
                let (stream, request_len) = match ev {
                    AppEvent::StreamOpened(id) => {
                        match slot.request(id) {
                            Some(at) => slot.request_bytes[at].1 = 0,
                            None => slot.request_bytes.push((id, 0)),
                        }
                        continue;
                    }
                    AppEvent::StreamData { id, bytes } => {
                        match slot.request(id) {
                            Some(at) => slot.request_bytes[at].1 += bytes,
                            None => slot.request_bytes.push((id, bytes)),
                        }
                        continue;
                    }
                    AppEvent::StreamFin(id) => {
                        let at = slot.request(id);
                        (id, at.map_or(0, |at| slot.request_bytes.swap_remove(at).1))
                    }
                    AppEvent::HandshakeDone => continue,
                };
                let Some(object) = PageSpec::decode_request(request_len) else {
                    continue;
                };
                let mut due = (*app_cpu_free).max(now) + request_cost(slot.class);
                *app_cpu_free = due;
                if let Some(w) = wait {
                    let span = w.max.saturating_sub(w.min).as_nanos();
                    due += w.min + Dur::from_nanos(rng.uniform_u64(0, span.max(1)));
                }
                pending.push(due, (slot.flow, stream, object));
                ctx.wake_at(due);
            }
        }
        for slot in conns.iter_mut() {
            pump(slot.conn.as_mut(), ctx, slot.peer, slot.flow, slot.class);
        }
    }
}

impl Agent for ServerHost {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        let at = Self::find(&self.conns, pkt.flow).unwrap_or_else(|at| {
            let proto = self.flow_protos.get(&pkt.flow).unwrap_or(&self.proto);
            let slot = ServerSlot {
                flow: pkt.flow,
                conn: proto.server_conn(pkt.flow, now),
                peer: pkt.src,
                class: proto.pkt_class(),
                request_bytes: Vec::new(),
            };
            self.conns.insert(at, slot);
            at
        });
        self.conns[at].conn.on_datagram(pkt.payload, now);
        self.service(ctx);
    }

    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        for slot in &mut self.conns {
            slot.conn.on_wakeup(now);
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

    /// The `Vec::retain` scan `Deferred` replaced: every pass looks at
    /// every entry.
    fn scan_all(pending: &mut Vec<(Time, u32)>, now: Time, fired: &mut Vec<u32>) {
        pending.retain(|&(due, item)| {
            if due > now {
                return true;
            }
            fired.push(item);
            false
        });
    }

    #[test]
    fn deferred_fires_due_items_in_push_order_under_a_wait_model() {
        // Requests queued the way `ServerHost::service` queues them: a
        // serialized 4 ms cost, then a GAE-style wait drawn from `wait`,
        // so due times leave push order.
        let wait = WaitModel {
            min: Dur::from_millis(1),
            max: Dur::from_millis(30),
        };
        let mut rng = SimRng::new(42);
        let mut cpu_free = Time::ZERO;
        let mut deferred = Deferred::new();
        let mut oracle = Vec::new();
        let mut dues = Vec::new();
        for item in 0..40u32 {
            let now = Time::ZERO + Dur::from_millis(u64::from(item / 8));
            let mut due = cpu_free.max(now) + request_cost(PktClass::Userspace);
            cpu_free = due;
            let span = wait.max.saturating_sub(wait.min).as_nanos();
            due += wait.min + Dur::from_nanos(rng.uniform_u64(0, span.max(1)));
            // Ties: two requests falling due at one instant.
            if item % 10 == 9 {
                due = dues[item as usize - 3];
            }
            deferred.push(due, item);
            oracle.push((due, item));
            dues.push(due);
        }
        assert!(dues.windows(2).any(|w| w[1] < w[0]), "dues out of order");
        // Service at every due instant and in between, as packets arrive.
        let mut instants: Vec<Time> = dues
            .iter()
            .flat_map(|&d| [d, d + Dur::from_micros(1)])
            .collect();
        instants.push(Time::ZERO);
        instants.sort();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for now in instants {
            deferred.fire_due(now, |item| got.push(item));
            scan_all(&mut oracle, now, &mut want);
            assert_eq!(got, want, "at {now:?}");
            assert_eq!(deferred.entries, oracle);
        }
        assert_eq!(got.len(), 40);
        assert_eq!(deferred.earliest, Time::MAX);
        // Tied items fire in push order, not due order.
        let tied = got.iter().position(|&i| i == 9).unwrap();
        assert!(got.iter().position(|&i| i == 6).unwrap() < tied);
    }
}
