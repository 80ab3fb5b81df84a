//! The fleet event loop: N clients against server pools over shared
//! bottleneck links, at flight granularity — run one link at a time.
//!
//! A fleet cell does not build N packet-level testbeds — that is what
//! the arena-backed model avoids. Each connection advances in *flights*:
//! one event per congestion window of data, charged against a fluid model
//! of its bottleneck link (a busy horizon per link; queueing delay is the
//! gap between "now" and the horizon, and a flight that would wait longer
//! than the buffer drains is marked lost). Handshakes are charged as
//! whole RTTs from the protocol configs' `handshake_rtts` — QUIC's 0/1
//! RTT versus TCP+TLS's 3 — which is exactly the asymmetry the paper's
//! Fig 7 isolates, scaled up to a population.
//!
//! # The link is the loop
//!
//! Connections interact only through their bottleneck link (`k %
//! n_links`) and the per-connection state itself; server pools are
//! stateless delay terms. So a cell is not one event loop over the
//! population but one event loop *per link*, run back to back through
//! scratch (queue, arena, deadline FIFO, sketch) that is reset, not
//! rebuilt, between links and dropped when the call returns. What is
//! live at any instant is one link's clients, not the fleet's.
//!
//! Two rules make every link's run a pure function of `(cfg, proto,
//! link)`, whatever ran before it on the same scratch and on whichever
//! thread:
//!
//! 1. **Every event of a link is pushed while processing an event of
//!    that link.** Arrivals chain per link (`Arrival(k)` schedules
//!    `Arrival(k + n_links)`, the next client of the *same* link), acks
//!    follow flights of their own connection.
//! 2. **No draw or decision keys on execution-dependent identifiers.**
//!    Random draws hash (seed, client id, flight), never arena slots.
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
//! # Threads, and what the numbers mean
//!
//! [`run_fleet_par`] deals contiguous link ranges to the
//! deterministic runner's workers, each with its own scratch. Per-link
//! results are scalars and fold in global link order in every mode:
//! counters sum, `finished_at` is a max, the [`QuantileSketch`] merges
//! bucket-wise in `u64`s (order-free), the Welford [`Summary`] — whose
//! batch merge *is* float-order-sensitive — folds link by link, and the
//! capacity diagnostics (`scheduled_peak`, `peak_live`,
//! `arena_bytes_peak`) are the largest over the links, i.e. what the
//! busiest link needed. All of that is a function of per-link values, so
//! the whole [`FleetMetrics`] is bit-identical for every `par`.

use std::collections::VecDeque;
use std::ops::Range;

use longlook_http::host::ProtoConfig;
use longlook_http::workload::fleet_object_bytes;
use longlook_sim::rng::hash_unit;
use longlook_sim::sched::EventQueue;
use longlook_sim::time::{Dur, Time};
use longlook_sim::SlotHandle;
use longlook_stats::{QuantileSketch, Summary};

use super::arena::{ConnArena, ConnInit};
use super::FleetConfig;
use crate::runner::{note_cell_events, run_ordered, Parallelism};

/// Hash-stream salts: one independent draw stream per decision kind.
const SALT_SIZE: u64 = 0x517E_0000_0000_0001;
const SALT_ARRIVE: u64 = 0x4121_0000_0000_0002;
const SALT_RTT: u64 = 0x0177_0000_0000_0003;
const SALT_REPEAT: u64 = 0x0E77_0000_0000_0004;
const SALT_LOSS: u64 = 0x1055_0000_0000_0005;

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
/// per-link values folded in link order, so the whole struct is
/// bit-identical however [`run_fleet_par`] deals the links to threads.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Events processed (arrivals + acks + deadline pops), summed over
    /// links.
    pub events: u64,
    /// Peak simultaneously scheduled events on the busiest link: its
    /// pending arrival plus one ack per live connection. Deadlines wait
    /// in the link's FIFO, not in the scheduler, and are not counted.
    pub scheduled_peak: usize,
    /// Peak simultaneously live connections on the busiest link — what
    /// the arena has to hold at once, since links run one at a time.
    pub peak_live: usize,
    /// Connection-arena bytes at that high-water mark
    /// ([`ConnArena::bytes_in_use`] on the busiest link).
    pub arena_bytes_peak: usize,
    /// Connections that delivered their full object before the deadline.
    pub completed: u64,
    /// Connections cut off at the deadline.
    pub timed_out: u64,
    /// Deadlines that came due after their connection had already
    /// completed and were rejected by the arena's generation check:
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

    /// Peak arena bytes per connection at the concurrency high-water
    /// mark — the number the 650 B/connection budget gates.
    pub fn bytes_per_conn(&self) -> f64 {
        if self.peak_live == 0 {
            0.0
        } else {
            self.arena_bytes_peak as f64 / self.peak_live as f64
        }
    }

    /// What the cell measured, without the three capacity diagnostics
    /// (`scheduled_peak`, `peak_live`, `arena_bytes_peak`). Both halves
    /// are invariant under `par`; the split is between results
    /// that only a model change may move and footprint figures a change
    /// to the loop may move. It is what the loop's referee compares with
    /// the single-queue oracle, whose footprint is the population's.
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

/// A contiguous, balanced partition of the fleet's link space into
/// shards: the ranges [`run_fleet_par`] deals to worker threads. Links
/// (and with them connections, `k % n_links`) are the unit because they
/// are the only state connections share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardPlan {
    /// Total links being partitioned (at least one).
    n_links: usize,
    /// Number of shards, in `[1, n_links]`.
    shards: usize,
}

impl ShardPlan {
    /// Plan `shards` shards over `n_links` links. The shard count is
    /// clamped to `[1, n_links]` — a shard must own at least one link.
    fn new(n_links: usize, shards: usize) -> ShardPlan {
        let n_links = n_links.max(1);
        ShardPlan {
            n_links,
            shards: shards.clamp(1, n_links),
        }
    }

    /// Global link ids owned by shard `s`: the standard balanced split
    /// `s·L/S .. (s+1)·L/S`, so shard sizes differ by at most one even
    /// when `n_links` is not divisible by the shard count, and
    /// concatenating the ranges in shard order walks the links in global
    /// order (which is what pins the Summary fold).
    fn link_range(&self, s: usize) -> Range<usize> {
        assert!(s < self.shards, "shard {s} out of {}", self.shards);
        (s * self.n_links / self.shards)..((s + 1) * self.n_links / self.shards)
    }
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
        match proto {
            ProtoConfig::Quic(q) => {
                let mss = q.mss as u32;
                ProtoModel {
                    mss,
                    init_cwnd: q.cubic.initial_cwnd_packets as u32 * mss,
                    max_cwnd: q
                        .cubic
                        .max_cwnd_packets
                        .map_or(q.conn_recv_window_max, |p| p * q.mss)
                        as u32,
                    hs_cold: q.handshake_rtts(false),
                    hs_repeat: q.handshake_rtts(true),
                }
            }
            ProtoConfig::Tcp(t) => {
                let mss = t.mss as u32;
                ProtoModel {
                    mss,
                    init_cwnd: t.cubic.initial_cwnd_packets as u32 * mss,
                    max_cwnd: t
                        .cubic
                        .max_cwnd_packets
                        .map_or(t.recv_buffer, |p| p * t.mss) as u32,
                    hs_cold: t.handshake_rtts(),
                    hs_repeat: t.handshake_rtts(),
                }
            }
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
    /// Serialization cost on the cross-traffic-reduced link (ns/byte).
    ns_per_byte: f64,
    buffer_ns: u64,
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
        let eff_mbps = cfg.link_mbps * (1.0 - cfg.cross_traffic_frac).max(1e-3);
        Cell {
            cfg,
            model: ProtoModel::of(proto),
            n_conns,
            n_links: cfg.n_links.max(1),
            n_servers: cfg.n_servers.max(1),
            // mbps → bytes/ns is mbps / 8000; invert for ns/byte.
            ns_per_byte: 8000.0 / eff_mbps,
            buffer_ns: cfg.buffer.as_nanos(),
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

/// What one worker reuses from link to link. Reset, not rebuilt, between
/// links, so after the first link the loop allocates nothing; owned by
/// one [`run_fleet_par`] call and dropped with it.
struct Scratch {
    queue: EventQueue<FleetEvent>,
    arena: ConnArena,
    /// The running link's pending completion deadlines, in arrival (and
    /// therefore time) order.
    deadlines: VecDeque<(Time, SlotHandle)>,
    /// Completion latencies of every link run on this scratch so far
    /// (the sketch merge is order-free, so it need not be per link).
    sketch: QuantileSketch,
}

impl Scratch {
    fn new(cell: &Cell) -> Scratch {
        let per_link = cell.cfg.n_conns / cell.n_links;
        Scratch {
            queue: EventQueue::default(),
            arena: ConnArena::with_capacity((per_link / 4).max(16)),
            deadlines: VecDeque::new(),
            sketch: QuantileSketch::new(),
        }
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
    /// Fold the next link's run in. Callers feed links in global link
    /// order — the one order every `par` reproduces — because
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
/// independent of thread scheduling and everything else environmental —
/// and bit-identical to any [`run_fleet_par`] execution of the same cell.
pub fn run_fleet(proto: &ProtoConfig, cfg: &FleetConfig) -> FleetMetrics {
    run_fleet_par(proto, cfg, Parallelism::Serial)
}

/// Run one fleet cell with its links dealt to `par`'s workers as one
/// contiguous range per worker (clamped to the links that have clients).
///
/// Each range runs link by link on its own scratch and the per-link
/// results fold in global link order, so the returned [`FleetMetrics`] —
/// diagnostics included — is bit-identical for every `par`, which only
/// decides which thread runs which link. With one job the calling thread
/// runs the plain loop over every link on one scratch.
///
/// # Panics
///
/// If `cfg.n_conns` exceeds `u32::MAX` (the client id space).
pub fn run_fleet_par(proto: &ProtoConfig, cfg: &FleetConfig, par: Parallelism) -> FleetMetrics {
    let cell = Cell::new(proto, cfg);
    // Only links `l < n_conns` have a client (`k % n_links` reaches no
    // other); the rest would never see an event and are not planned.
    let plan = ShardPlan::new(cell.n_links.min(cfg.n_conns), par.jobs());
    let mut total = FleetMetrics::empty();
    if plan.shards == 1 {
        let mut scratch = Scratch::new(&cell);
        for link in 0..plan.n_links {
            total.absorb(&run_link(&cell, &mut scratch, link));
        }
        total.latency_sketch = scratch.sketch;
    } else {
        let parts = run_ordered(par, plan.shards, |s| {
            let mut scratch = Scratch::new(&cell);
            let runs: Vec<LinkRun> = plan
                .link_range(s)
                .map(|link| run_link(&cell, &mut scratch, link))
                .collect();
            (runs, scratch.sketch)
        });
        // Shard ranges are contiguous and ascending, so shard order
        // concatenated is global link order.
        for (runs, sketch) in &parts {
            for r in runs {
                total.absorb(r);
            }
            total.latency_sketch.merge(sketch);
        }
    }
    note_cell_events(total.events);
    total
}

/// The link being run: its scalars plus the worker's scratch.
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
    scratch.queue.reset();
    scratch.arena.reset();
    debug_assert!(scratch.deadlines.is_empty(), "a link left deadlines behind");
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
    // round-robin, `k % n_links`); arrivals chain from there. Only the
    // one link planned for a cell with no clients at all has none.
    if link < cell.cfg.n_conns {
        let first = link as u32;
        l.s.queue.push(
            Time::ZERO + cell.arrival_time(first),
            FleetEvent::Arrival(first),
        );
    }
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
                if l.s.arena.free(h) {
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
    debug_assert_eq!(l.s.arena.live(), 0, "every connection has a deadline");
    l.run.scheduled_peak = l.s.queue.scheduled_peak();
    l.run.peak_live = l.s.arena.live_peak();
    l.run.arena_bytes_peak = l.s.arena.bytes_in_use();
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
        let h = self.s.arena.alloc(ConnInit {
            arrived: now,
            object,
            cwnd: self.cell.model.init_cwnd,
            ssthresh: self.cell.model.max_cwnd,
            rtt_us,
            client: k,
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
        let arena = &mut self.s.arena;
        let i = arena.resolve(h).expect("send_flight on stale handle");
        let flight = arena.remaining[i].min(arena.cwnd[i]).max(1);
        let f = arena.flights[i];
        arena.flights[i] = f.saturating_add(1);
        let now_ns = now.as_nanos();
        let wait_ns = self.busy_ns.saturating_sub(now_ns);
        let ser_ns = (f64::from(flight) * self.cell.ns_per_byte).round() as u64;
        self.busy_ns = self.busy_ns.max(now_ns) + ser_ns;
        // Congestion loss: the flight would queue past the buffer's drain
        // time. Random loss: an independent per-flight draw keyed by
        // (client id, flight) — injective over the full 32-bit flight
        // counter, and keyed by the *client*, not the arena slot, which
        // depends on what else the arena has held. `hash_unit`'s
        // SplitMix64 finalizer does the 64-bit mixing.
        let client = arena.client[i];
        let key = (u64::from(client) << 32) | u64::from(f);
        let lost = wait_ns > self.cell.buffer_ns || hash_unit(cfg.seed ^ SALT_LOSS, key) < cfg.loss;
        let delivered = if lost { flight / 2 } else { flight };
        let rtt_ns = u64::from(arena.rtt_us[i]) * 1_000;
        // Clients round-robin over the server pools; pool `s` charges
        // `s + 1` service units.
        let server = (client as usize % self.cell.n_servers) as u64;
        let service_ns = cfg.server_service.as_nanos() * (1 + server);
        self.s.queue.push(
            now + Dur::from_nanos(wait_ns + ser_ns + rtt_ns + service_ns),
            FleetEvent::Ack { h, delivered, lost },
        );
    }

    fn on_ack(&mut self, now: Time, h: SlotHandle, delivered: u32, lost: bool) {
        let arena = &mut self.s.arena;
        // Stale = the deadline already retired this connection.
        let Some(i) = arena.resolve(h) else {
            return;
        };
        let mss = self.cell.model.mss;
        let max_cwnd = self.cell.model.max_cwnd;
        if lost {
            arena.retx[i] = arena.retx[i].saturating_add(1);
            let half = (arena.cwnd[i] / 2).max(2 * mss);
            arena.ssthresh[i] = half;
            arena.cwnd[i] = half;
        } else if arena.cwnd[i] < arena.ssthresh[i] {
            // Slow start: grow by the bytes acked.
            arena.cwnd[i] = (arena.cwnd[i].saturating_add(delivered)).min(max_cwnd);
        } else {
            // Congestion avoidance: ~one MSS per cwnd of acked data.
            let grow =
                (u64::from(mss) * u64::from(delivered) / u64::from(arena.cwnd[i].max(1))) as u32;
            arena.cwnd[i] = (arena.cwnd[i].saturating_add(grow)).min(max_cwnd);
        }
        arena.remaining[i] = arena.remaining[i].saturating_sub(delivered);
        if arena.remaining[i] == 0 {
            let latency_ms = (now.as_nanos().saturating_sub(arena.arrived_ns[i])) as f64 / 1e6;
            self.run.latency_ms.add(latency_ms);
            self.s.sketch.add(latency_ms);
            self.run.completed += 1;
            arena.free(h);
        } else {
            self.send_flight(now, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_partitions_the_link_space() {
        for (n_links, shards) in [(1, 1), (4, 4), (5, 3), (7, 2), (666, 4), (3, 9)] {
            let plan = ShardPlan::new(n_links, shards);
            assert!(plan.shards >= 1 && plan.shards <= n_links);
            let mut covered = Vec::new();
            for s in 0..plan.shards {
                let r = plan.link_range(s);
                assert!(!r.is_empty(), "shard {s} of {plan:?} owns no links");
                covered.extend(r);
            }
            assert_eq!(
                covered,
                (0..n_links).collect::<Vec<_>>(),
                "{plan:?} is not a partition"
            );
            // Balanced: sizes differ by at most one.
            let sizes: Vec<usize> = (0..plan.shards).map(|s| plan.link_range(s).len()).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "{plan:?} unbalanced: {sizes:?}");
        }
    }

    #[test]
    fn shard_plan_clamps_degenerate_inputs() {
        assert_eq!(ShardPlan::new(8, 0).shards, 1);
        assert_eq!(ShardPlan::new(8, 100).shards, 8);
        assert_eq!(ShardPlan::new(0, 4).shards, 1);
        assert_eq!(ShardPlan::new(0, 4).n_links, 1);
    }

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
