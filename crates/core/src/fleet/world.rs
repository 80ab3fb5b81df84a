//! The fleet event loop: N clients against server pools over shared
//! bottleneck links, at flight granularity — shardable across workers
//! with a deterministic merge.
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
//! # Sharding
//!
//! Connections interact only through their bottleneck link (`k %
//! n_links`) and the per-connection state itself; server pools are
//! stateless delay terms. So the link space partitions: a [`ShardPlan`]
//! splits the links into contiguous ranges, [`run_fleet_sharded`] runs
//! one independent event loop per range (serially through one reused
//! queue, or fanned across the deterministic runner's worker threads),
//! and the per-shard [`FleetMetrics`] merge in fixed shard order.
//!
//! Two design rules make the merged observables *bit-identical* across
//! `shards=1` serial, `shards=S` serial, and `shards=S` threaded:
//!
//! 1. **Every same-time queue tie that touches shared state is between
//!    events of one link.** Arrivals chain per link (`Arrival(k)`
//!    schedules `Arrival(k + n_links)`, the next client of the *same*
//!    link; the queue is seeded with one arrival per link), and acks /
//!    deadlines are pushed while processing events of their own link. So
//!    each link's event subsequence — and therefore each connection's
//!    trajectory — is invariant under how links are grouped into queues.
//! 2. **No draw or decision keys on execution-dependent identifiers.**
//!    Random draws hash (seed, client id, flight), never arena slots,
//!    whose assignment depends on grouping.
//!
//! Merging is then exact: counters sum, the [`QuantileSketch`] merges
//! bucket-wise in `u64`s, and the Welford [`Summary`] — whose batch
//! merge *is* float-order-sensitive — is accumulated per link and folded
//! in global link order in every mode, so the fold sequence never
//! depends on sharding. Capacity diagnostics (queue/arena peaks) are
//! per-shard peaks summed in shard order; see
//! [`FleetMetrics::observables`] for the exact invariance contract.

use std::ops::Range;

use longlook_http::host::ProtoConfig;
use longlook_http::workload::fleet_object_bytes;
use longlook_sim::rng::hash_unit;
use longlook_sim::sched::{EventQueue, SchedKind};
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

/// One scheduled occurrence in a fleet world.
enum FleetEvent {
    /// The `k`-th client arrives. Chained **per link**: processing
    /// arrival `k` schedules arrival `k + n_links` — the next client of
    /// the same link — so the queue holds one pending arrival per link
    /// and cross-link arrivals never contend on push order.
    Arrival(u32),
    /// A flight's ack returns. `delivered` bytes made it; `lost` marks a
    /// congestion or random loss in the flight.
    Ack {
        h: SlotHandle,
        delivered: u32,
        lost: bool,
    },
    /// The per-connection completion deadline.
    Deadline(SlotHandle),
}

/// Everything a fleet run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Events processed (arrivals + acks + deadlines), summed over shards.
    pub events: u64,
    /// Peak simultaneously scheduled events — the per-shard queue peaks,
    /// summed in shard order (a capacity diagnostic: the total queue
    /// footprint the run provisioned, not a single instant's snapshot).
    pub scheduled_peak: usize,
    /// Peak simultaneously live connections — per-shard arena peaks,
    /// summed in shard order (capacity diagnostic, like
    /// [`scheduled_peak`](FleetMetrics::scheduled_peak)).
    pub peak_live: usize,
    /// Peak connection-arena heap bytes (columns + slot pool), summed
    /// over shards.
    pub arena_bytes_peak: usize,
    /// Connections that delivered their full object before the deadline.
    pub completed: u64,
    /// Connections cut off at the deadline.
    pub timed_out: u64,
    /// Deadline events that fired after their connection had already
    /// completed and were rejected by the arena's generation check.
    /// Each completed connection leaves exactly one such tombstone in
    /// the queue — this counter makes that queue bloat visible at 10^6
    /// connections instead of silent (the determinism suite pins
    /// `stale_deadline_pops == completed`).
    pub stale_deadline_pops: u64,
    /// Completion latency (ms), streaming mean/variance — no per-sample
    /// vector is ever retained. Accumulated per link, folded in global
    /// link order: bit-identical across shard counts and thread counts.
    pub latency_ms: Summary,
    /// Completion latency (ms), log-bucketed tail sketch.
    pub latency_sketch: QuantileSketch,
    /// Simulated time when the last event fired (max over shards).
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

    /// The shard-invariant observables: bit-identical for `shards=1`
    /// serial, `shards=S` serial, and `shards=S` threaded, for any `S`
    /// (the `fleet_shard_differential` referee pins this).
    ///
    /// The capacity diagnostics (`scheduled_peak`, `peak_live`,
    /// `arena_bytes_peak`) are excluded: they are per-shard peaks summed
    /// in shard order, and a peak legitimately depends on which links
    /// share a queue/arena (four quarter-fleet peaks at different
    /// instants sum higher than one global peak). They *are* still exact
    /// between serial and threaded execution at a fixed shard count,
    /// which the referee checks via full `FleetMetrics` equality.
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

/// The subset of [`FleetMetrics`] that is invariant under sharding —
/// see [`FleetMetrics::observables`] for the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetObservables {
    /// Events processed.
    pub events: u64,
    /// Connections completed before their deadline.
    pub completed: u64,
    /// Connections cut off at the deadline.
    pub timed_out: u64,
    /// Generation-rejected deadline tombstones popped.
    pub stale_deadline_pops: u64,
    /// Completion latency stream (ms).
    pub latency_ms: Summary,
    /// Completion latency tail sketch (ms).
    pub latency_sketch: QuantileSketch,
    /// Simulated time of the last event.
    pub finished_at: Time,
}

/// A contiguous, balanced partition of the fleet's link space into
/// shards. Links (and with them connections, `k % n_links`) are the unit
/// of sharding because they are the only state connections share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    n_links: usize,
    shards: usize,
}

impl ShardPlan {
    /// Plan `shards` shards over `n_links` links. The shard count is
    /// clamped to `[1, n_links]` — a shard must own at least one link.
    pub fn new(n_links: usize, shards: usize) -> ShardPlan {
        let n_links = n_links.max(1);
        ShardPlan {
            n_links,
            shards: shards.clamp(1, n_links),
        }
    }

    /// Number of shards after clamping.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total links being partitioned.
    pub fn n_links(&self) -> usize {
        self.n_links
    }

    /// Global link ids owned by shard `s`: the standard balanced split
    /// `s·L/S .. (s+1)·L/S`, so shard sizes differ by at most one even
    /// when `n_links` is not divisible by the shard count, and
    /// concatenating the ranges in shard order walks the links in global
    /// order (which is what pins the merge's Summary fold).
    pub fn link_range(&self, s: usize) -> Range<usize> {
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

/// One shard's event loop over its owned link range. The queue is
/// borrowed so the serial path can reuse (and reset) one allocation
/// across every shard of the cell.
struct World<'a> {
    cfg: &'a FleetConfig,
    model: ProtoModel,
    queue: &'a mut EventQueue<FleetEvent>,
    arena: ConnArena,
    /// First global link id this shard owns (local index = global - lo).
    link_lo: usize,
    /// Fluid busy horizon per owned link (ns), locally indexed.
    link_busy_ns: Vec<u64>,
    /// Per-link completion-latency accumulators, locally indexed. Kept
    /// per link (not per shard) so the merge can fold them in global
    /// link order — the one pinned order every sharding reproduces.
    link_latency: Vec<Summary>,
    /// Serialization cost on the cross-traffic-reduced link (ns/byte).
    ns_per_byte: f64,
    buffer_ns: u64,
    metrics: FleetMetrics,
}

/// What one shard hands to the merge.
struct ShardRun {
    /// Shard-local metrics; `latency_ms` is left empty here (the merge
    /// folds `link_latency` instead, in global link order).
    metrics: FleetMetrics,
    /// Per-owned-link latency summaries, in link order.
    link_latency: Vec<Summary>,
}

/// Run one fleet cell to completion on a single shard (the whole link
/// space, serial). Deterministic in `cfg` (including `cfg.seed`) and
/// `proto`; independent of thread scheduling and everything else
/// environmental — and, via
/// [`run_fleet_sharded`], bit-identical on the observables to any
/// sharded execution of the same cell.
pub fn run_fleet(proto: &ProtoConfig, cfg: &FleetConfig) -> FleetMetrics {
    run_fleet_sharded(proto, cfg, 1, Parallelism::Serial)
}

/// Run one fleet cell split into `shards` independent event loops over
/// the plan's link ranges, under `par`.
///
/// Serial execution (either `par` resolving to one job or a single
/// shard) runs the shards back to back through one reused event queue;
/// threaded execution fans the shards across the deterministic runner
/// and reassembles in shard order. Either way the merged
/// [`FleetMetrics::observables`] are bit-identical for every `(shards,
/// par)` combination, and the full metrics (capacity diagnostics
/// included) are bit-identical across `par` at fixed `shards`.
pub fn run_fleet_sharded(
    proto: &ProtoConfig,
    cfg: &FleetConfig,
    shards: usize,
    par: Parallelism,
) -> FleetMetrics {
    let plan = ShardPlan::new(cfg.n_links, shards);
    let runs: Vec<ShardRun> = if plan.shards() == 1 || par.jobs() == 1 {
        let mut queue = EventQueue::new(SchedKind::Wheel);
        (0..plan.shards())
            .map(|s| {
                let run = run_shard(proto, cfg, plan.link_range(s), &mut queue);
                // A reset queue is observationally a fresh one (seq and
                // peak rewound), so this loop is bit-identical to the
                // threaded path's queue-per-shard.
                queue.reset();
                run
            })
            .collect()
    } else {
        run_ordered(par, plan.shards(), |s| {
            let mut queue = EventQueue::new(SchedKind::Wheel);
            run_shard(proto, cfg, plan.link_range(s), &mut queue)
        })
    };
    let merged = merge_shards(runs);
    note_cell_events(merged.events);
    merged
}

/// Merge per-shard results in fixed shard order. Exactness argument:
/// counters sum in `u64`; the sketch merge is bucket-wise `u64` addition
/// (grouping-invariant, canonical representation); `finished_at` is a
/// max; and the float-order-sensitive Summary is folded from the
/// per-*link* accumulators — shard ranges are contiguous and ascending,
/// so shard-order concatenation *is* global link order, the same fold
/// sequence at any shard count.
fn merge_shards(runs: Vec<ShardRun>) -> FleetMetrics {
    let mut total = FleetMetrics::empty();
    for r in &runs {
        total.events += r.metrics.events;
        total.scheduled_peak += r.metrics.scheduled_peak;
        total.peak_live += r.metrics.peak_live;
        total.arena_bytes_peak += r.metrics.arena_bytes_peak;
        total.completed += r.metrics.completed;
        total.timed_out += r.metrics.timed_out;
        total.stale_deadline_pops += r.metrics.stale_deadline_pops;
        total.latency_sketch.merge(&r.metrics.latency_sketch);
        total.finished_at = total.finished_at.max(r.metrics.finished_at);
    }
    total.latency_ms = Summary::merge_all(runs.iter().flat_map(|r| r.link_latency.iter()));
    total
}

/// One shard's event loop: seed an arrival per owned link, drain.
fn run_shard(
    proto: &ProtoConfig,
    cfg: &FleetConfig,
    links: Range<usize>,
    queue: &mut EventQueue<FleetEvent>,
) -> ShardRun {
    debug_assert!(
        queue.is_empty() && queue.scheduled_peak() == 0,
        "shard queue must start (or reset to) fresh"
    );
    let n_links = cfg.n_links.max(1);
    let owned = links.len();
    // This shard admits the connections whose link lands in its range:
    // about n_conns * owned / n_links of them over the whole window.
    let approx_conns = (cfg.n_conns / n_links).saturating_mul(owned) + owned;
    let eff_mbps = cfg.link_mbps * (1.0 - cfg.cross_traffic_frac).max(1e-3);
    let mut w = World {
        cfg,
        model: ProtoModel::of(proto),
        queue,
        arena: ConnArena::with_capacity((approx_conns / 4).max(16)),
        link_lo: links.start,
        link_busy_ns: vec![0; owned],
        link_latency: vec![Summary::new(); owned],
        // mbps → bytes/ns is mbps / 8000; invert for ns/byte.
        ns_per_byte: 8000.0 / eff_mbps,
        buffer_ns: cfg.buffer.as_nanos(),
        metrics: FleetMetrics::empty(),
    };
    // Seed one arrival per owned link: client `l` is the first client of
    // link `l` (links assign round-robin, `k % n_links`), and arrivals
    // chain per link from there.
    for l in links {
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
                    // generation check rejected the stale handle. Counted
                    // so the queue bloat is visible, and bounded: exactly
                    // one tombstone per completed connection.
                    w.metrics.stale_deadline_pops += 1;
                }
            }
        }
    }
    w.metrics.scheduled_peak = w.queue.scheduled_peak();
    w.metrics.peak_live = w.arena.live_peak();
    w.metrics.arena_bytes_peak = w.metrics.arena_bytes_peak.max(w.arena.bytes());
    ShardRun {
        metrics: w.metrics,
        link_latency: w.link_latency,
    }
}

impl World<'_> {
    /// Arrival offset of client `k` under the configured profile.
    fn arrival_time(&self, k: u32) -> Dur {
        let u = hash_unit(self.cfg.seed ^ SALT_ARRIVE, k.into());
        self.cfg
            .profile
            .time_at(self.cfg.window, k, self.cfg.n_conns as u32, u)
    }

    /// Local (shard-relative) index of a connection's link.
    #[inline]
    fn local_link(&self, i: usize) -> usize {
        let li = self.arena.link[i] as usize;
        debug_assert!(
            li >= self.link_lo && li - self.link_lo < self.link_busy_ns.len(),
            "connection routed to a link outside this shard"
        );
        li - self.link_lo
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
            link: (k as usize % n_links) as u16,
            server: (k as usize % self.cfg.n_servers.max(1)) as u16,
        });
        self.metrics.arena_bytes_peak = self.metrics.arena_bytes_peak.max(self.arena.bytes());
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
        let li = self.local_link(i);
        let now_ns = now.as_nanos();
        let wait_ns = self.link_busy_ns[li].saturating_sub(now_ns);
        let ser_ns = (f64::from(flight) * self.ns_per_byte).round() as u64;
        self.link_busy_ns[li] = self.link_busy_ns[li].max(now_ns) + ser_ns;
        // Congestion loss: the flight would queue past the buffer's drain
        // time. Random loss: an independent per-flight draw keyed by
        // (client id, flight) — injective over the full 32-bit flight
        // counter (the old key masked flights to 12 bits, aliasing flight
        // 4096 onto flight 0's draw) and keyed by the *client*, not the
        // arena slot, so the stream is invariant under sharding (slot
        // assignment depends on execution grouping). `hash_unit`'s
        // SplitMix64 finalizer does the 64-bit mixing.
        let key = (u64::from(self.arena.client[i]) << 32) | u64::from(f);
        let lost =
            wait_ns > self.buffer_ns || hash_unit(self.cfg.seed ^ SALT_LOSS, key) < self.cfg.loss;
        let delivered = if lost { flight / 2 } else { flight };
        let rtt_ns = u64::from(self.arena.rtt_us[i]) * 1_000;
        let service_ns = self.cfg.server_service.as_nanos() * (1 + u64::from(self.arena.server[i]));
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
            self.arena.retx[i] = self.arena.retx[i].saturating_add(1);
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
            let li = self.local_link(i);
            self.link_latency[li].add(latency_ms);
            self.metrics.latency_sketch.add(latency_ms);
            self.metrics.completed += 1;
            self.arena.free(h);
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
            assert!(plan.shards() >= 1 && plan.shards() <= n_links);
            let mut covered = Vec::new();
            for s in 0..plan.shards() {
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
            let sizes: Vec<usize> = (0..plan.shards())
                .map(|s| plan.link_range(s).len())
                .collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "{plan:?} unbalanced: {sizes:?}");
        }
    }

    #[test]
    fn shard_plan_clamps_degenerate_inputs() {
        assert_eq!(ShardPlan::new(8, 0).shards(), 1);
        assert_eq!(ShardPlan::new(8, 100).shards(), 8);
        assert_eq!(ShardPlan::new(0, 4).shards(), 1);
        assert_eq!(ShardPlan::new(0, 4).n_links(), 1);
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
