//! The fleet event loop: N clients against server pools over shared
//! bottleneck links, at flight granularity — run one link at a time.
//!
//! A fleet cell does not build N packet-level testbeds — that is what
//! the flight-grain model avoids. Each connection advances in *flights*:
//! one event per congestion window of data, charged against a fluid model
//! of its bottleneck link (a busy horizon per link; queueing delay is the
//! gap between "now" and the horizon, and a flight that would wait longer
//! than the buffer drains is marked lost). Handshakes are charged as
//! whole RTTs from the protocol configs' `handshake_rtts` — QUIC's 0/1
//! RTT versus TCP+TLS's 2 — which is exactly the asymmetry the paper's
//! Fig 7 isolates, scaled up to a population.
//!
//! # The link is the loop
//!
//! Connections interact only through their bottleneck link (`k %
//! n_links`) and the per-connection state itself; server pools are
//! stateless delay terms. So a cell is not one event loop over the
//! population but one event loop *per link*, run back to back through
//! scratch (queue, slot pool and connection records, deadline FIFO,
//! sketch) that is reset, not rebuilt, between links and dropped when
//! the call returns. What is live at any instant is one link's clients,
//! not the fleet's: one `Conn` record each, in a `Vec` indexed by its
//! [`SlotPool`] slot.
//!
//! Two rules make every link's run a pure function of `(cfg, proto,
//! link)`, whatever ran before it on the same scratch:
//!
//! 1. **Every event of a link is pushed while processing an event of
//!    that link.** Arrivals chain per link (`Arrival(k)` schedules
//!    `Arrival(k + n_links)`, the next client of the *same* link), acks
//!    follow flights of their own connection.
//! 2. **No draw or decision keys on execution-dependent identifiers.**
//!    Random draws hash (seed, client id, flight), never slots.
//!
//! # Deadlines wait in a FIFO, not in the scheduler
//!
//! A connection's deadline is `arrival + cfg.deadline` and a link's
//! arrivals are processed in time order, so the link's deadlines are
//! monotone: they wait in a `VecDeque` and the loop takes its next event
//! from whichever of {queue front, FIFO front} is earlier — **the
//! deadline first on equal times**. Each FIFO pop counts as an event:
//! it retires the connection (`timed_out`) or finds the handle stale
//! (`stale_deadline_pops`, one per completed connection).
//!
//! Why that is the order one queue holding everything would give, on
//! everything observable: a connection's deadline is created at its
//! arrival, before any of its acks, so on a shared queue it had the
//! lower sequence number and fired first on a tie — the same as here.
//! Against an equal-time event of *another* connection the order may
//! differ from a shared queue's, but the two commute: a deadline only
//! frees its own slot and schedules nothing, so swapping them changes
//! at most which slot a simultaneous arrival recycles and the live
//! count in between — and by rule 2 nothing reads a slot id. The
//! `link_loop_equivalent_to_global_queue` referee holds the loop to the
//! single-queue oracle it replaced, ties included.
//!
//! # What the numbers mean
//!
//! A cell runs on the calling thread, its links in order on one scratch;
//! the runner parallelises across cells, not inside one. Per-link
//! results are scalars and fold in link order: counters sum,
//! `finished_at` is a max, the [`QuantileSketch`] is shared by the links
//! (its buckets are `u64` counts, so order is moot), the Welford
//! [`Summary`] — whose batch merge *is* float-order-sensitive — folds
//! link by link, and the capacity diagnostics (`scheduled_peak`,
//! `peak_live`, `arena_bytes_peak`) are the largest over the links,
//! i.e. what the busiest link needed.

use std::collections::VecDeque;
use std::mem::size_of;

use longlook_http::host::ProtoConfig;
use longlook_http::workload::fleet_object_bytes;
use longlook_quic::CONN_RECV_WINDOW_MAX;
use longlook_sim::rng::hash_unit;
use longlook_sim::sched::EventQueue;
use longlook_sim::time::{Dur, Time};
use longlook_sim::{SlotHandle, SlotPool};
use longlook_stats::{QuantileSketch, Summary};

use super::{FleetConfig, BUFFER, CROSS_TRAFFIC_FRAC, LINK_MBPS, SERVER_SERVICE};
use crate::runner::note_cell_events;

/// Hash-stream salts: one independent draw stream per decision kind.
const SALT_SIZE: u64 = 0x517E_0000_0000_0001;
const SALT_ARRIVE: u64 = 0x4121_0000_0000_0002;
const SALT_RTT: u64 = 0x0177_0000_0000_0003;
const SALT_REPEAT: u64 = 0x0E77_0000_0000_0004;
const SALT_LOSS: u64 = 0x1055_0000_0000_0005;

/// Serialization cost on the cross-traffic-reduced link (ns/byte):
/// mbps → bytes/ns is mbps / 8000, inverted.
const NS_PER_BYTE: f64 = 8000.0 / (LINK_MBPS * (1.0 - CROSS_TRAFFIC_FRAC));

/// One live connection of the running link, in the slot its
/// [`SlotHandle`] names. The link it shares is the one running, and its
/// server pool is `client % n_servers`, so neither is stored.
#[derive(Clone, Copy)]
struct Conn {
    /// Arrival time — latency is measured from here.
    arrived: Time,
    /// Bytes still to deliver (the workload cursor).
    remaining: u32,
    /// Congestion window (bytes).
    cwnd: u32,
    /// Slow-start threshold (bytes).
    ssthresh: u32,
    /// Round-trip time (µs).
    rtt_us: u32,
    /// Global client id `k`, the key of the per-flight loss draw: slot
    /// assignment depends on what else the link has held, client ids do
    /// not.
    client: u32,
    /// Flights sent so far (indexes the per-flight loss draw; 32 bits so
    /// the loss key never aliases across flights).
    flights: u32,
}

/// Connection state per slot: one `Conn` record plus the slot pool's
/// generation word and free-list entry — an order of magnitude under the
/// 650 B/connection budget.
pub const BYTES_PER_SLOT: usize = size_of::<Conn>() + 2 * size_of::<u32>();

/// One scheduled occurrence on the running link. Completion deadlines
/// are not among them: they wait in the link's FIFO (module docs).
enum FleetEvent {
    /// The `k`-th client arrives. Chained **per link**: processing
    /// arrival `k` schedules arrival `k + n_links` — the next client of
    /// the same link — so the queue holds one pending arrival.
    Arrival(u32),
    /// A flight's ack returns. `delivered` bytes made it; `lost` marks a
    /// congestion or random loss in the flight.
    Ack {
        h: SlotHandle,
        delivered: u32,
        lost: bool,
    },
}

/// Everything a fleet run reports. Every field is a function of
/// per-link values folded in link order (module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Events processed (arrivals + acks + deadline pops), summed over
    /// links.
    pub events: u64,
    /// Peak simultaneously scheduled events on the busiest link: its
    /// pending arrival plus one ack per live connection. Deadlines wait
    /// in the link's FIFO, not in the scheduler, and are not counted.
    pub scheduled_peak: usize,
    /// Peak simultaneously live connections on the busiest link — the
    /// records held at once, since links run one at a time.
    pub peak_live: usize,
    /// Connection-state bytes at that high-water mark: the busiest
    /// link's slots × [`BYTES_PER_SLOT`].
    pub arena_bytes_peak: usize,
    /// Connections that delivered their full object before the deadline.
    pub completed: u64,
    /// Connections cut off at the deadline.
    pub timed_out: u64,
    /// Deadlines that came due after their connection had already
    /// completed and were rejected by the slot pool's generation check:
    /// exactly one per completed connection (the determinism suite pins
    /// `stale_deadline_pops == completed`). They cost a FIFO pop each,
    /// never a scheduler entry.
    pub stale_deadline_pops: u64,
    /// Completion latency (ms), streaming mean/variance — no per-sample
    /// vector is ever retained. Accumulated per link, folded in global
    /// link order.
    pub latency_ms: Summary,
    /// Completion latency (ms), log-bucketed tail sketch.
    pub latency_sketch: QuantileSketch,
    /// Simulated time when the last event fired (max over links).
    pub finished_at: Time,
}

impl FleetMetrics {
    fn empty() -> FleetMetrics {
        FleetMetrics {
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
        }
    }

    /// Median completion latency (ms).
    pub fn p50_ms(&self) -> f64 {
        self.latency_sketch.p50()
    }

    /// 99th-percentile completion latency (ms).
    pub fn p99_ms(&self) -> f64 {
        self.latency_sketch.p99()
    }

    /// 99.9th-percentile completion latency (ms).
    pub fn p999_ms(&self) -> f64 {
        self.latency_sketch.p999()
    }

    /// Peak connection-state bytes per connection at the concurrency
    /// high-water mark — the number the 650 B/connection budget gates.
    pub fn bytes_per_conn(&self) -> f64 {
        if self.peak_live == 0 {
            0.0
        } else {
            self.arena_bytes_peak as f64 / self.peak_live as f64
        }
    }

    /// What the cell measured, without the three capacity diagnostics
    /// (`scheduled_peak`, `peak_live`, `arena_bytes_peak`): the split is
    /// between results that only a model change may move and footprint
    /// figures a change to the loop may move. It is what the loop's
    /// referee compares with the single-queue oracle, whose footprint is
    /// the population's.
    pub fn observables(&self) -> FleetObservables {
        FleetObservables {
            events: self.events,
            completed: self.completed,
            timed_out: self.timed_out,
            stale_deadline_pops: self.stale_deadline_pops,
            latency_ms: self.latency_ms,
            latency_sketch: self.latency_sketch.clone(),
            finished_at: self.finished_at,
        }
    }
}

/// [`FleetMetrics`] without its capacity diagnostics — see
/// [`FleetMetrics::observables`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetObservables {
    /// Events processed.
    pub events: u64,
    /// Connections completed before their deadline.
    pub completed: u64,
    /// Connections cut off at the deadline.
    pub timed_out: u64,
    /// Generation-rejected deadlines popped.
    pub stale_deadline_pops: u64,
    /// Completion latency stream (ms).
    pub latency_ms: Summary,
    /// Completion latency tail sketch (ms).
    pub latency_sketch: QuantileSketch,
    /// Simulated time of the last event.
    pub finished_at: Time,
}

/// Per-world constants derived from the protocol config.
struct ProtoModel {
    mss: u32,
    init_cwnd: u32,
    max_cwnd: u32,
    /// Handshake RTTs when the client has no cached server state.
    hs_cold: u32,
    /// Handshake RTTs on a repeat visit (QUIC 0-RTT when enabled).
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

/// What the links of one cell share: the configuration and the
/// constants derived from it once per call.
struct Cell<'a> {
    cfg: &'a FleetConfig,
    model: ProtoModel,
    /// `cfg.n_conns`, checked to fit the 32-bit client id.
    n_conns: u32,
    n_links: usize,
    n_servers: usize,
}

impl<'a> Cell<'a> {
    /// Panics if `cfg.n_conns` does not fit a `u32`: client ids key the
    /// hash streams as 32-bit values and would silently alias past it.
    fn new(proto: &ProtoConfig, cfg: &'a FleetConfig) -> Cell<'a> {
        let n_conns = u32::try_from(cfg.n_conns).unwrap_or_else(|_| {
            panic!(
                "FleetConfig::n_conns = {} exceeds the 32-bit client id space",
                cfg.n_conns
            )
        });
        Cell {
            cfg,
            model: ProtoModel::of(proto),
            n_conns,
            n_links: cfg.n_links.max(1),
            n_servers: cfg.n_servers.max(1),
        }
    }

    /// Arrival offset of client `k` under the configured profile.
    fn arrival_time(&self, k: u32) -> Dur {
        let u = hash_unit(self.cfg.seed ^ SALT_ARRIVE, k.into());
        self.cfg
            .profile
            .time_at(self.cfg.window, k, self.n_conns, u)
    }
}

/// What a cell reuses from link to link. Reset, not rebuilt, between
/// links, so after the first link the loop allocates nothing; owned by
/// one [`run_fleet`] call and dropped with it.
struct Scratch {
    queue: EventQueue<FleetEvent>,
    /// Hands out the running link's slots; its generations turn the
    /// handle of a finished connection stale.
    pool: SlotPool,
    /// The running link's connections, indexed by slot, `pool.slots()`
    /// long: a finished connection's record stays until its slot is
    /// reused.
    conns: Vec<Conn>,
    /// The running link's pending completion deadlines, in arrival (and
    /// therefore time) order.
    deadlines: VecDeque<(Time, SlotHandle)>,
    /// Completion latencies of every link run on this scratch so far
    /// (bucket counts, so they need not be per link).
    sketch: QuantileSketch,
}

impl Scratch {
    fn new(cell: &Cell) -> Scratch {
        let per_link = cell.cfg.n_conns / cell.n_links;
        let slots = (per_link / 4).max(16);
        Scratch {
            queue: EventQueue::default(),
            pool: SlotPool::with_capacity(slots),
            conns: Vec::with_capacity(slots),
            deadlines: VecDeque::new(),
            sketch: QuantileSketch::new(),
        }
    }

    /// Forget the last link — queue, slots, generations, records and the
    /// peaks rewind — keeping every capacity, so the next link reuses
    /// this link's memory.
    fn reset(&mut self) {
        self.queue.reset();
        self.pool.reset();
        self.conns.clear();
        debug_assert!(self.deadlines.is_empty(), "a link left deadlines behind");
    }

    /// Admit a connection into a finished connection's slot (the most
    /// recently freed) or, when none is free, a new one at the end.
    fn admit(&mut self, conn: Conn) -> SlotHandle {
        let h = self.pool.alloc();
        match self.conns.get_mut(h.index()) {
            Some(slot) => *slot = conn,
            None => self.conns.push(conn),
        }
        h
    }
}

/// What one link's run reports: scalars, a pure function of `(cfg,
/// proto, link)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinkRun {
    events: u64,
    completed: u64,
    timed_out: u64,
    stale_deadline_pops: u64,
    latency_ms: Summary,
    finished_at: Time,
    scheduled_peak: usize,
    peak_live: usize,
    arena_bytes_peak: usize,
}

impl FleetMetrics {
    /// Fold the next link's run in. Links come in link order, because
    /// the Summary merge is float-order-sensitive; everything else here
    /// is a sum or a max.
    fn absorb(&mut self, r: &LinkRun) {
        self.events += r.events;
        self.completed += r.completed;
        self.timed_out += r.timed_out;
        self.stale_deadline_pops += r.stale_deadline_pops;
        self.latency_ms.merge(&r.latency_ms);
        self.finished_at = self.finished_at.max(r.finished_at);
        self.scheduled_peak = self.scheduled_peak.max(r.scheduled_peak);
        self.peak_live = self.peak_live.max(r.peak_live);
        self.arena_bytes_peak = self.arena_bytes_peak.max(r.arena_bytes_peak);
    }
}

/// Run one fleet cell to completion on the calling thread, link by
/// link. Deterministic in `cfg` (including `cfg.seed`) and `proto`;
/// independent of thread scheduling and everything else environmental.
///
/// # Panics
///
/// If `cfg.n_conns` exceeds `u32::MAX` (the client id space).
pub fn run_fleet(proto: &ProtoConfig, cfg: &FleetConfig) -> FleetMetrics {
    let cell = Cell::new(proto, cfg);
    let mut scratch = Scratch::new(&cell);
    let mut total = FleetMetrics::empty();
    // Only links `l < n_conns` have a client (`k % n_links` reaches no
    // other); the rest would never see an event and are not run.
    for link in 0..cell.n_links.min(cfg.n_conns) {
        total.absorb(&run_link(&cell, &mut scratch, link));
    }
    total.latency_sketch = scratch.sketch;
    note_cell_events(total.events);
    total
}

/// The link being run: its scalars plus the cell's scratch.
struct Link<'a> {
    cell: &'a Cell<'a>,
    s: &'a mut Scratch,
    /// Fluid busy horizon of this link (ns).
    busy_ns: u64,
    run: LinkRun,
}

/// One link's event loop: seed its first arrival, then take the earlier
/// of {queue front, deadline FIFO front} until both are empty.
fn run_link(cell: &Cell, scratch: &mut Scratch, link: usize) -> LinkRun {
    scratch.reset();
    let mut l = Link {
        cell,
        s: scratch,
        busy_ns: 0,
        run: LinkRun {
            events: 0,
            completed: 0,
            timed_out: 0,
            stale_deadline_pops: 0,
            latency_ms: Summary::new(),
            finished_at: Time::ZERO,
            scheduled_peak: 0,
            peak_live: 0,
            arena_bytes_peak: 0,
        },
    };
    // Client `link` is the first client of this link (links assign
    // round-robin, `k % n_links`); arrivals chain from there.
    let first = link as u32;
    l.s.queue.push(
        Time::ZERO + cell.arrival_time(first),
        FleetEvent::Arrival(first),
    );
    loop {
        // Deadline first on equal times: a queue event goes ahead only
        // if it is strictly earlier than the oldest pending deadline.
        let queued = match l.s.deadlines.front() {
            Some(&(due, _)) => l.s.queue.pop_if(|at, _| at < due),
            None => l.s.queue.pop(),
        };
        let now = match queued {
            Some((now, FleetEvent::Arrival(k))) => {
                l.on_arrival(now, k);
                now
            }
            Some((now, FleetEvent::Ack { h, delivered, lost })) => {
                l.on_ack(now, h, delivered, lost);
                now
            }
            None => {
                let Some((due, h)) = l.s.deadlines.pop_front() else {
                    break;
                };
                if l.s.pool.free(h) {
                    l.run.timed_out += 1;
                } else {
                    // The connection completed and freed its slot
                    // earlier; the generation check rejected the stale
                    // handle. Exactly one per completed connection.
                    l.run.stale_deadline_pops += 1;
                }
                due
            }
        };
        l.run.events += 1;
        l.run.finished_at = now;
    }
    debug_assert_eq!(l.s.pool.live(), 0, "every connection has a deadline");
    l.run.scheduled_peak = l.s.queue.scheduled_peak();
    l.run.peak_live = l.s.pool.live_peak();
    l.run.arena_bytes_peak = l.s.pool.slots() * BYTES_PER_SLOT;
    l.run
}

impl Link<'_> {
    fn on_arrival(&mut self, now: Time, k: u32) {
        let cfg = self.cell.cfg;
        // Chain to the next client of the *same* link (arrival times are
        // monotone in k, so the subsequence for one link is monotone too).
        let next = (k as usize).saturating_add(self.cell.n_links);
        if next < cfg.n_conns {
            let next = next as u32;
            self.s.queue.push(
                Time::ZERO + self.cell.arrival_time(next),
                FleetEvent::Arrival(next),
            );
        }
        let object = fleet_object_bytes(hash_unit(cfg.seed ^ SALT_SIZE, k.into())) as u32;
        let rtt_jitter = hash_unit(cfg.seed ^ SALT_RTT, k.into());
        let rtt_us = (cfg.base_rtt.as_nanos() as f64 / 1_000.0
            * (1.0 + cfg.rtt_jitter_frac * rtt_jitter)) as u32;
        let h = self.s.admit(Conn {
            arrived: now,
            remaining: object,
            cwnd: self.cell.model.init_cwnd,
            ssthresh: self.cell.model.max_cwnd,
            rtt_us,
            client: k,
            flights: 0,
        });
        let due = now + cfg.deadline;
        debug_assert!(
            self.s.deadlines.back().is_none_or(|&(last, _)| last <= due),
            "a link's deadlines must be monotone"
        );
        self.s.deadlines.push_back((due, h));
        let repeat = hash_unit(cfg.seed ^ SALT_REPEAT, k.into()) < cfg.repeat_visit_frac;
        let hs_rtts = if repeat {
            self.cell.model.hs_repeat
        } else {
            self.cell.model.hs_cold
        };
        if hs_rtts == 0 {
            // 0-RTT: the first flight rides the handshake packet.
            self.send_flight(now, h);
        } else {
            let hs = Dur::from_nanos(u64::from(hs_rtts) * u64::from(rtt_us) * 1_000);
            self.s.queue.push(
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
    /// the link's fluid queue.
    fn send_flight(&mut self, now: Time, h: SlotHandle) {
        let cfg = self.cell.cfg;
        let i = self.s.pool.resolve(h).expect("send_flight on stale handle");
        let c = &mut self.s.conns[i];
        let flight = c.remaining.min(c.cwnd).max(1);
        let f = c.flights;
        c.flights = f.saturating_add(1);
        let (client, rtt_us) = (c.client, c.rtt_us);
        let now_ns = now.as_nanos();
        let wait_ns = self.busy_ns.saturating_sub(now_ns);
        let ser_ns = (f64::from(flight) * NS_PER_BYTE).round() as u64;
        self.busy_ns = self.busy_ns.max(now_ns) + ser_ns;
        // Congestion loss: the flight would queue past the buffer's drain
        // time. Random loss: an independent per-flight draw keyed by
        // (client id, flight) — injective over the full 32-bit flight
        // counter, and keyed by the *client*, not the slot, which
        // depends on what else the link has held. `hash_unit`'s
        // SplitMix64 finalizer does the 64-bit mixing.
        let key = (u64::from(client) << 32) | u64::from(f);
        let lost = wait_ns > BUFFER.as_nanos() || hash_unit(cfg.seed ^ SALT_LOSS, key) < cfg.loss;
        let delivered = if lost { flight / 2 } else { flight };
        let rtt_ns = u64::from(rtt_us) * 1_000;
        // Clients round-robin over the server pools; pool `s` charges
        // `s + 1` service units.
        let server = (client as usize % self.cell.n_servers) as u64;
        let service_ns = SERVER_SERVICE.as_nanos() * (1 + server);
        self.s.queue.push(
            now + Dur::from_nanos(wait_ns + ser_ns + rtt_ns + service_ns),
            FleetEvent::Ack { h, delivered, lost },
        );
    }

    fn on_ack(&mut self, now: Time, h: SlotHandle, delivered: u32, lost: bool) {
        // Stale = the deadline already retired this connection.
        let Some(i) = self.s.pool.resolve(h) else {
            return;
        };
        let mss = self.cell.model.mss;
        let max_cwnd = self.cell.model.max_cwnd;
        let c = &mut self.s.conns[i];
        if lost {
            let half = (c.cwnd / 2).max(2 * mss);
            c.ssthresh = half;
            c.cwnd = half;
        } else if c.cwnd < c.ssthresh {
            // Slow start: grow by the bytes acked.
            c.cwnd = (c.cwnd.saturating_add(delivered)).min(max_cwnd);
        } else {
            // Congestion avoidance: ~one MSS per cwnd of acked data.
            let grow = (u64::from(mss) * u64::from(delivered) / u64::from(c.cwnd.max(1))) as u32;
            c.cwnd = (c.cwnd.saturating_add(grow)).min(max_cwnd);
        }
        c.remaining = c.remaining.saturating_sub(delivered);
        if c.remaining == 0 {
            let latency_ms = (now.as_nanos().saturating_sub(c.arrived.as_nanos())) as f64 / 1e6;
            self.run.latency_ms.add(latency_ms);
            self.s.sketch.add(latency_ms);
            self.run.completed += 1;
            self.s.pool.free(h);
        } else {
            self.send_flight(now, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scratch reuse is unobservable: a link reports the same run on a
    /// scratch that other links — busier ones included — have been
    /// through as on a fresh one. The fold's max would hide a peak that
    /// leaked from an earlier link, so this looks at the links one by one.
    #[test]
    fn a_links_run_does_not_depend_on_what_its_scratch_ran_before() {
        let mut cfg = FleetConfig::new(2_400);
        cfg.n_links = 8;
        let proto = ProtoConfig::Tcp(Default::default());
        let cell = Cell::new(&proto, &cfg);
        let fresh: Vec<LinkRun> = (0..8)
            .map(|link| run_link(&cell, &mut Scratch::new(&cell), link))
            .collect();
        assert!(
            fresh.iter().any(|r| r.peak_live != fresh[0].peak_live)
                && fresh
                    .iter()
                    .any(|r| r.scheduled_peak != fresh[0].scheduled_peak),
            "the links must differ in their peaks for a leak to show"
        );
        let mut scratch = Scratch::new(&cell);
        for link in (0..8).chain((0..8).rev()) {
            assert_eq!(
                run_link(&cell, &mut scratch, link),
                fresh[link],
                "link {link}"
            );
        }
    }

    /// Client ids are 32-bit (they key the hash streams and the arrival
    /// chain); a population past that is refused by name before any
    /// work, not truncated.
    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "FleetConfig::n_conns = 4294967296 exceeds")]
    fn a_population_past_the_client_id_space_is_refused() {
        let mut cfg = FleetConfig::new(10);
        cfg.n_conns = u32::MAX as usize + 1;
        run_fleet(&ProtoConfig::Quic(Default::default()), &cfg);
    }

    fn conn(client: u32) -> Conn {
        Conn {
            arrived: Time::ZERO,
            remaining: 1_000,
            cwnd: 14_000,
            ssthresh: u32::MAX,
            rtt_us: 36_000,
            client,
            flights: 0,
        }
    }

    /// A finished connection's slot goes to the next arrival, whose
    /// record replaces the old one whole, and the old handle is stale.
    #[test]
    fn a_recycled_slot_holds_only_its_new_connection() {
        let cfg = FleetConfig::new(100);
        let mut s = Scratch::new(&Cell::new(&ProtoConfig::Quic(Default::default()), &cfg));
        let h1 = s.admit(conn(1));
        s.conns[h1.index()].flights = 9;
        assert!(s.pool.free(h1));
        let h2 = s.admit(conn(2));
        assert_eq!(h2.index(), h1.index(), "slot recycled");
        assert_eq!(s.pool.resolve(h1), None, "stale handle rejected");
        let c = s.conns[s.pool.resolve(h2).unwrap()];
        assert_eq!((c.client, c.flights), (2, 0), "record re-initialized");
        assert_eq!(s.conns.len(), 1);
    }

    /// With the records and the pool's free list grown to exactly `n`
    /// slots (doubling reaches a power of two), the heap they hold is
    /// `n × BYTES_PER_SLOT`: the constant is what a slot costs.
    #[test]
    fn bytes_per_slot_is_what_a_slot_holds() {
        let n = 1024;
        let mut cfg = FleetConfig::new(4 * n);
        cfg.n_links = 1;
        let mut s = Scratch::new(&Cell::new(&ProtoConfig::Quic(Default::default()), &cfg));
        let hs: Vec<_> = (0..n as u32).map(|k| s.admit(conn(k))).collect();
        for h in hs {
            assert!(s.pool.free(h));
        }
        assert_eq!(s.pool.slots(), n);
        assert_eq!(held(&s), n * BYTES_PER_SLOT);
    }

    /// Heap held by the slot pool and the records, capacity included.
    fn held(s: &Scratch) -> usize {
        s.pool.bytes() + s.conns.capacity() * size_of::<Conn>()
    }

    /// 10 000 concurrent connections on one link hold far under the
    /// 650 B/connection budget, and churn through the same slots does
    /// not grow the footprint.
    #[test]
    fn bytes_per_connection_is_far_under_budget() {
        let n = 10_000;
        let mut cfg = FleetConfig::new(4 * n);
        cfg.n_links = 1;
        let mut s = Scratch::new(&Cell::new(&ProtoConfig::Quic(Default::default()), &cfg));
        let hs: Vec<_> = (0..n as u32).map(|k| s.admit(conn(k))).collect();
        let per_conn = held(&s) as f64 / s.pool.live_peak() as f64;
        assert!(
            per_conn <= 650.0,
            "{per_conn:.1} B/conn exceeds the 650 B budget"
        );
        let before = held(&s);
        for h in hs {
            assert!(s.pool.free(h));
        }
        for k in 0..n as u32 {
            let _ = s.admit(conn(k));
        }
        assert_eq!(s.pool.slots(), n);
        assert!(held(&s) <= before * 2);
    }

    /// A reset scratch issues a fresh scratch's handles and records but
    /// keeps the memory the last link grew.
    #[test]
    fn reset_scratch_is_a_fresh_scratch_with_the_old_capacity() {
        let cfg = FleetConfig::new(100);
        let cell = Cell::new(&ProtoConfig::Quic(Default::default()), &cfg);
        let mut s = Scratch::new(&cell);
        let hs: Vec<_> = (0..100).map(|k| s.admit(conn(k))).collect();
        assert!(s.pool.free(hs[3]));
        s.conns[hs[5].index()].flights = 9;
        let bytes = held(&s);
        s.reset();
        assert_eq!(
            (s.pool.live(), s.pool.live_peak(), s.pool.slots()),
            (0, 0, 0)
        );
        assert!(s.conns.is_empty());
        assert_eq!(held(&s), bytes, "reset keeps capacity");
        let h = s.admit(conn(2_000));
        assert_eq!(h, Scratch::new(&cell).admit(conn(2_000)));
        let c = s.conns[s.pool.resolve(h).unwrap()];
        assert_eq!((c.client, c.flights), (2_000, 0), "record re-initialized");
        assert_eq!(s.pool.slots(), 1);
    }

    #[test]
    fn loss_key_does_not_alias_across_flights() {
        // The old key masked flights to 12 bits: flight 4096 reused
        // flight 0's draw. The (client << 32) | flight key is injective,
        // so the hash inputs — and with overwhelming probability the
        // draws — differ.
        let client = 7u32;
        let draw = |f: u32| {
            let key = (u64::from(client) << 32) | u64::from(f);
            hash_unit(0xF1EE7 ^ SALT_LOSS, key)
        };
        assert_ne!(draw(0), draw(4096), "flight 4096 aliased flight 0");
        assert_ne!(draw(1), draw(4097));
        // And distinct clients get independent streams at equal flights.
        let other = u64::from(8u32) << 32;
        assert_ne!(draw(0), hash_unit(0xF1EE7 ^ SALT_LOSS, other));
    }
}
