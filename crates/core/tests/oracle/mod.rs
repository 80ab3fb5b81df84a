//! The global single-queue fleet loop, as it was before the link became
//! the unit of execution: every link's arrival chain seeded into one
//! `EventQueue`, one arena for the whole population, and each
//! connection's deadline a queue entry (`FleetEvent::Deadline`) pushed at
//! its arrival. The oracle of `link_loop_equivalent_to_global_queue`.
//!
//! Verbatim from `longlook_core::fleet::world` at that commit, but for:
//! the shard plumbing (this is the `shards = 1` loop, whose merge is the
//! identity apart from the per-link Summary fold, which is kept); the
//! struct-of-arrays arena of that commit, kept here as it was but
//! without the two columns nothing read (`object`, `retx`) and with
//! `link` / `server` widened from `u16` to `usize` (the narrowing was a
//! bug, and the oracle has to run the sizes that exposed it); the link,
//! buffer and server settings no cell varies, read from the product's
//! constants instead of `FleetConfig` fields; and `n_conns as u32`, left
//! as it was — callers stay below 2^32.

use longlook_core::fleet::{
    FleetConfig, FleetMetrics, BUFFER, CROSS_TRAFFIC_FRAC, LINK_MBPS, SERVER_SERVICE,
};
use longlook_http::host::ProtoConfig;
use longlook_http::workload::fleet_object_bytes;
use longlook_quic::CONN_RECV_WINDOW_MAX;
use longlook_sim::rng::hash_unit;
use longlook_sim::sched::EventQueue;
use longlook_sim::time::{Dur, Time};
use longlook_sim::{SlotHandle, SlotPool};
use longlook_stats::{QuantileSketch, Summary};

/// Hash-stream salts: one independent draw stream per decision kind.
const SALT_SIZE: u64 = 0x517E_0000_0000_0001;
const SALT_ARRIVE: u64 = 0x4121_0000_0000_0002;
const SALT_RTT: u64 = 0x0177_0000_0000_0003;
const SALT_REPEAT: u64 = 0x0E77_0000_0000_0004;
const SALT_LOSS: u64 = 0x1055_0000_0000_0005;

/// One scheduled occurrence in a fleet world.
enum FleetEvent {
    /// The `k`-th client arrives; processing it schedules arrival
    /// `k + n_links`, the next client of the same link.
    Arrival(u32),
    /// A flight's ack returns.
    Ack {
        h: SlotHandle,
        delivered: u32,
        lost: bool,
    },
    /// The per-connection completion deadline.
    Deadline(SlotHandle),
}

/// Initial state for one fleet connection.
struct ConnInit {
    arrived: Time,
    object: u32,
    cwnd: u32,
    ssthresh: u32,
    rtt_us: u32,
    client: u32,
    link: usize,
    server: usize,
}

/// Dense per-connection state, one column per field, for the whole
/// population at once.
#[derive(Default)]
struct ConnArena {
    pool: SlotPool,
    arrived_ns: Vec<u64>,
    remaining: Vec<u32>,
    cwnd: Vec<u32>,
    ssthresh: Vec<u32>,
    rtt_us: Vec<u32>,
    client: Vec<u32>,
    flights: Vec<u32>,
    link: Vec<usize>,
    server: Vec<usize>,
}

impl ConnArena {
    fn alloc(&mut self, init: ConnInit) -> SlotHandle {
        let h = self.pool.alloc();
        let i = h.index();
        if i == self.arrived_ns.len() {
            self.arrived_ns.push(init.arrived.as_nanos());
            self.remaining.push(init.object);
            self.cwnd.push(init.cwnd);
            self.ssthresh.push(init.ssthresh);
            self.rtt_us.push(init.rtt_us);
            self.client.push(init.client);
            self.flights.push(0);
            self.link.push(init.link);
            self.server.push(init.server);
        } else {
            self.arrived_ns[i] = init.arrived.as_nanos();
            self.remaining[i] = init.object;
            self.cwnd[i] = init.cwnd;
            self.ssthresh[i] = init.ssthresh;
            self.rtt_us[i] = init.rtt_us;
            self.client[i] = init.client;
            self.flights[i] = 0;
            self.link[i] = init.link;
            self.server[i] = init.server;
        }
        h
    }

    fn free(&mut self, h: SlotHandle) -> bool {
        self.pool.free(h)
    }

    fn resolve(&self, h: SlotHandle) -> Option<usize> {
        self.pool.resolve(h)
    }
}

/// Per-world constants derived from the protocol config.
struct ProtoModel {
    mss: u32,
    init_cwnd: u32,
    max_cwnd: u32,
    hs_cold: u32,
    hs_repeat: u32,
}

impl ProtoModel {
    fn of(proto: &ProtoConfig) -> ProtoModel {
        // Without a MACW clamp the window is bounded by the receiver's.
        let (cubic, recv_window, hs_cold, hs_repeat) = match proto {
            ProtoConfig::Quic(q) => (
                &q.cubic,
                CONN_RECV_WINDOW_MAX,
                q.handshake_rtts(false),
                q.handshake_rtts(true),
            ),
            ProtoConfig::Tcp(t) => (
                &t.cubic,
                t.recv_buffer,
                t.handshake_rtts(),
                t.handshake_rtts(),
            ),
        };
        let mss = cubic.mss;
        ProtoModel {
            mss: mss as u32,
            init_cwnd: (cubic.initial_cwnd_packets * mss) as u32,
            max_cwnd: cubic.max_cwnd_packets.map_or(recv_window, |p| p * mss) as u32,
            hs_cold,
            hs_repeat,
        }
    }
}

/// The one event loop over every link.
struct World<'a> {
    cfg: &'a FleetConfig,
    model: ProtoModel,
    queue: EventQueue<FleetEvent>,
    arena: ConnArena,
    /// Fluid busy horizon per link (ns).
    link_busy_ns: Vec<u64>,
    /// Per-link completion-latency accumulators, folded in link order.
    link_latency: Vec<Summary>,
    /// Serialization cost on the cross-traffic-reduced link (ns/byte).
    ns_per_byte: f64,
    buffer_ns: u64,
    metrics: FleetMetrics,
}

/// Run one fleet cell through the global single-queue loop. The capacity
/// diagnostics are the old loop's: `scheduled_peak` and `peak_live` over
/// the whole population, `arena_bytes_peak` left at zero.
pub fn run_fleet_global_queue(proto: &ProtoConfig, cfg: &FleetConfig) -> FleetMetrics {
    let n_links = cfg.n_links.max(1);
    let eff_mbps = LINK_MBPS * (1.0 - CROSS_TRAFFIC_FRAC).max(1e-3);
    let mut w = World {
        cfg,
        model: ProtoModel::of(proto),
        queue: EventQueue::default(),
        arena: ConnArena::default(),
        link_busy_ns: vec![0; n_links],
        link_latency: vec![Summary::new(); n_links],
        // mbps → bytes/ns is mbps / 8000; invert for ns/byte.
        ns_per_byte: 8000.0 / eff_mbps,
        buffer_ns: BUFFER.as_nanos(),
        metrics: FleetMetrics {
            events: 0,
            scheduled_peak: 0,
            peak_live: 0,
            arena_bytes_peak: 0,
            completed: 0,
            timed_out: 0,
            stale_deadline_pops: 0,
            latency_ms: Summary::new(),
            latency_sketch: QuantileSketch::new(),
            finished_at: Time::ZERO,
        },
    };
    // Seed one arrival per link: client `l` is the first client of link
    // `l` (links assign round-robin, `k % n_links`), and arrivals chain
    // per link from there.
    for l in 0..n_links {
        if l < cfg.n_conns {
            let t = w.arrival_time(l as u32);
            w.queue.push(Time::ZERO + t, FleetEvent::Arrival(l as u32));
        }
    }
    while let Some((now, ev)) = w.queue.pop() {
        w.metrics.events += 1;
        w.metrics.finished_at = now;
        match ev {
            FleetEvent::Arrival(k) => w.on_arrival(now, k),
            FleetEvent::Ack { h, delivered, lost } => w.on_ack(now, h, delivered, lost),
            FleetEvent::Deadline(h) => {
                if w.arena.free(h) {
                    w.metrics.timed_out += 1;
                } else {
                    // Completed connections freed their slot earlier and
                    // left this deadline behind as a tombstone; the
                    // generation check rejected the stale handle.
                    w.metrics.stale_deadline_pops += 1;
                }
            }
        }
    }
    w.metrics.scheduled_peak = w.queue.scheduled_peak();
    w.metrics.peak_live = w.arena.pool.live_peak();
    w.metrics.latency_ms = Summary::merge_all(&w.link_latency);
    w.metrics
}

impl World<'_> {
    /// Arrival offset of client `k` under the configured profile.
    fn arrival_time(&self, k: u32) -> Dur {
        let u = hash_unit(self.cfg.seed ^ SALT_ARRIVE, k.into());
        self.cfg
            .profile
            .time_at(self.cfg.window, k, self.cfg.n_conns as u32, u)
    }

    fn on_arrival(&mut self, now: Time, k: u32) {
        let n_links = self.cfg.n_links.max(1);
        // Chain to the next client of the *same* link (arrival times are
        // monotone in k, so the subsequence for one link is monotone too).
        let next = k as usize + n_links;
        if next < self.cfg.n_conns {
            let t = self.arrival_time(next as u32);
            self.queue
                .push(Time::ZERO + t, FleetEvent::Arrival(next as u32));
        }
        let object = fleet_object_bytes(hash_unit(self.cfg.seed ^ SALT_SIZE, k.into())) as u32;
        let rtt_jitter = hash_unit(self.cfg.seed ^ SALT_RTT, k.into());
        let rtt_us = (self.cfg.base_rtt.as_nanos() as f64 / 1_000.0
            * (1.0 + self.cfg.rtt_jitter_frac * rtt_jitter)) as u32;
        let h = self.arena.alloc(ConnInit {
            arrived: now,
            object,
            cwnd: self.model.init_cwnd,
            ssthresh: self.model.max_cwnd,
            rtt_us,
            client: k,
            link: k as usize % n_links,
            server: k as usize % self.cfg.n_servers.max(1),
        });
        self.queue
            .push(now + self.cfg.deadline, FleetEvent::Deadline(h));
        let repeat = hash_unit(self.cfg.seed ^ SALT_REPEAT, k.into()) < self.cfg.repeat_visit_frac;
        let hs_rtts = if repeat {
            self.model.hs_repeat
        } else {
            self.model.hs_cold
        };
        if hs_rtts == 0 {
            // 0-RTT: the first flight rides the handshake packet.
            self.send_flight(now, h);
        } else {
            let hs = Dur::from_nanos(u64::from(hs_rtts) * u64::from(rtt_us) * 1_000);
            self.queue.push(
                now + hs,
                FleetEvent::Ack {
                    h,
                    delivered: 0,
                    lost: false,
                },
            );
        }
    }

    /// Send one congestion window of data and schedule its ack, charging
    /// the shared link's fluid queue.
    fn send_flight(&mut self, now: Time, h: SlotHandle) {
        let i = self.arena.resolve(h).expect("send_flight on stale handle");
        let flight = self.arena.remaining[i].min(self.arena.cwnd[i]).max(1);
        let f = self.arena.flights[i];
        self.arena.flights[i] = f.saturating_add(1);
        let li = self.arena.link[i];
        let now_ns = now.as_nanos();
        let wait_ns = self.link_busy_ns[li].saturating_sub(now_ns);
        let ser_ns = (f64::from(flight) * self.ns_per_byte).round() as u64;
        self.link_busy_ns[li] = self.link_busy_ns[li].max(now_ns) + ser_ns;
        let key = (u64::from(self.arena.client[i]) << 32) | u64::from(f);
        let lost =
            wait_ns > self.buffer_ns || hash_unit(self.cfg.seed ^ SALT_LOSS, key) < self.cfg.loss;
        let delivered = if lost { flight / 2 } else { flight };
        let rtt_ns = u64::from(self.arena.rtt_us[i]) * 1_000;
        let service_ns = SERVER_SERVICE.as_nanos() * (1 + self.arena.server[i] as u64);
        self.queue.push(
            now + Dur::from_nanos(wait_ns + ser_ns + rtt_ns + service_ns),
            FleetEvent::Ack { h, delivered, lost },
        );
    }

    fn on_ack(&mut self, now: Time, h: SlotHandle, delivered: u32, lost: bool) {
        // Stale = the deadline already retired this connection.
        let Some(i) = self.arena.resolve(h) else {
            return;
        };
        let mss = self.model.mss;
        if lost {
            let half = (self.arena.cwnd[i] / 2).max(2 * mss);
            self.arena.ssthresh[i] = half;
            self.arena.cwnd[i] = half;
        } else if self.arena.cwnd[i] < self.arena.ssthresh[i] {
            // Slow start: grow by the bytes acked.
            self.arena.cwnd[i] =
                (self.arena.cwnd[i].saturating_add(delivered)).min(self.model.max_cwnd);
        } else {
            // Congestion avoidance: ~one MSS per cwnd of acked data.
            let grow = (u64::from(mss) * u64::from(delivered)
                / u64::from(self.arena.cwnd[i].max(1))) as u32;
            self.arena.cwnd[i] = (self.arena.cwnd[i].saturating_add(grow)).min(self.model.max_cwnd);
        }
        self.arena.remaining[i] = self.arena.remaining[i].saturating_sub(delivered);
        if self.arena.remaining[i] == 0 {
            let latency_ms = (now.as_nanos().saturating_sub(self.arena.arrived_ns[i])) as f64 / 1e6;
            let li = self.arena.link[i];
            self.link_latency[li].add(latency_ms);
            self.metrics.latency_sketch.add(latency_ms);
            self.metrics.completed += 1;
            self.arena.free(h);
        } else {
            self.send_flight(now, h);
        }
    }
}
