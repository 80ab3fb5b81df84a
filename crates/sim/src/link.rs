//! One-directional link emulation with `tc tbf` + `netem` semantics.
//!
//! The paper's testbed shapes traffic on an OpenWRT router with Linux
//! Traffic Control: token-bucket filters for rate limits and netem for
//! delay, jitter, loss and reordering. This module reproduces those
//! behaviors analytically:
//!
//! * **tbf**: a token bucket (burst allowance) feeding a fluid drop-tail
//!   queue served at the (possibly time-varying) link rate;
//! * **netem delay/jitter**: each packet is assigned
//!   `base_delay + jitter_draw` *when it leaves the queue* and is delivered
//!   at that adjusted time — exactly netem's mechanism, which (as the paper
//!   observes in Sec 5.2) makes jitter cause packet reordering because
//!   packets are "queued based on the adjusted send time, not the packet
//!   arrival time";
//! * **netem loss**: i.i.d. Bernoulli drops;
//! * **netem reorder**: an explicit hold-back model (probability +
//!   extra delay) used for the cellular profiles of Table 5.

use crate::fault::{GeChain, LinkFault};
use crate::rng::SimRng;
use crate::schedule::RateSchedule;
use crate::time::{transmission_delay, Dur, Time};

/// Jitter model applied to each packet's one-way delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Jitter {
    /// No jitter.
    None,
    /// netem-style uniform jitter: delay drawn from `base ± j`.
    Uniform(Dur),
    /// Gaussian jitter with the given standard deviation (clamped so the
    /// total delay never goes negative).
    Normal(Dur),
}

/// Explicit reordering: with probability `prob` a packet is held back by
/// `hold` beyond its normal delivery time (models cellular RLC
/// retransmission holds, which work at any link speed — a netem-style
/// "send early" model cannot reorder once the inter-packet spacing
/// exceeds the one-way delay). Held packets are counted as reordered
/// directly and excluded from the inversion counter so each reordering
/// event is counted exactly once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderSpec {
    /// Probability a packet is held back.
    pub prob: f64,
    /// Extra delay applied to a held packet.
    pub hold: Dur,
}

/// Configuration of one link direction.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Rate limit; `None` means an unshaped (infinite-rate) link.
    pub rate: Option<RateSchedule>,
    /// Base one-way propagation delay.
    pub delay: Dur,
    /// Per-packet delay jitter.
    pub jitter: Jitter,
    /// Random loss probability per packet.
    pub loss: f64,
    /// Explicit reordering model.
    pub reorder: Option<ReorderSpec>,
    /// Drop-tail queue limit in bytes (only meaningful when shaped).
    pub buffer_bytes: u64,
    /// Token-bucket burst allowance in bytes.
    pub burst_bytes: u64,
    /// Scheduled fault injection for this direction (see [`crate::fault`]).
    /// `None` — the default everywhere — keeps the transit path and its
    /// RNG stream byte-identical to a build without the fault layer.
    pub fault: Option<LinkFault>,
}

impl LinkConfig {
    /// An ideal link: no shaping, a fixed delay, no impairment.
    pub fn ideal(delay: Dur) -> Self {
        LinkConfig {
            rate: None,
            delay,
            jitter: Jitter::None,
            loss: 0.0,
            reorder: None,
            buffer_bytes: u64::MAX,
            burst_bytes: 0,
            fault: None,
        }
    }

    /// A shaped link with a sensible default buffer: one bandwidth-delay
    /// product at the given RTT (min 64 KB), mirroring the paper's tbf
    /// tuning that "allow\[s\] the flows to achieve transfer rates that are
    /// close to the bandwidth caps".
    pub fn shaped(rate: RateSchedule, one_way_delay: Dur, assumed_rtt: Dur) -> Self {
        let bdp = (rate.max_rate() / 8.0 * assumed_rtt.as_secs_f64()) as u64;
        LinkConfig {
            rate: Some(rate),
            delay: one_way_delay,
            jitter: Jitter::None,
            loss: 0.0,
            reorder: None,
            buffer_bytes: bdp.max(64 * 1024),
            burst_bytes: 16 * 1024,
            fault: None,
        }
    }

    /// Builder-style: set random loss.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Builder-style: set jitter.
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// Builder-style: set explicit reordering.
    pub fn with_reorder(mut self, spec: ReorderSpec) -> Self {
        self.reorder = Some(spec);
        self
    }

    /// Builder-style: set the queue limit.
    pub fn with_buffer(mut self, bytes: u64) -> Self {
        self.buffer_bytes = bytes;
        self
    }

    /// Builder-style: attach a fault-injection view for this direction.
    pub fn with_fault(mut self, fault: Option<LinkFault>) -> Self {
        self.fault = fault;
        self
    }

    /// Rough upper bound on packets simultaneously in flight through this
    /// direction (drop-tail queue plus propagation), used by
    /// [`crate::World`] to pre-size its event queue. A hint only — it
    /// never affects link behavior.
    pub fn inflight_hint(&self) -> usize {
        // Queue occupancy is bounded by buffer_bytes; assume ~1200-byte
        // packets (the workspace's typical full datagram). Ideal links
        // report an unbounded buffer, so clamp to something modest.
        let queued = (self.buffer_bytes / 1200).min(256) as usize;
        queued + 16
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// Random (netem) loss.
    Random,
    /// Drop-tail queue overflow (congestion loss).
    Overflow,
    /// Link outage (fault-injected blackout or flap down-phase).
    Blackout,
    /// Gilbert–Elliott burst loss (fault-injected).
    Burst,
    /// Corruption (fault-injected): the packet is dropped whole, as a
    /// checksum failure would — links never forge bytes.
    Corrupt,
}

/// Outcome of offering a packet to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Packet will arrive at the far end at this instant.
    DeliverAt(Time),
    /// Packet was dropped.
    Dropped(DropKind),
}

/// Counters exposed for Table 5-style link characterization.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets offered to the link.
    pub offered: u64,
    /// Packets scheduled for delivery.
    pub delivered: u64,
    /// Random losses.
    pub random_drops: u64,
    /// Queue-overflow losses.
    pub overflow_drops: u64,
    /// Fault-injected outage drops (blackouts and flap down-phases).
    pub blackout_drops: u64,
    /// Fault-injected Gilbert–Elliott burst losses.
    pub burst_drops: u64,
    /// Fault-injected corruption drops.
    pub corrupt_drops: u64,
    /// Fault-injected duplicate deliveries scheduled.
    pub dup_copies: u64,
    /// Packets whose scheduled arrival precedes that of an earlier packet
    /// (i.e. delivered out of order).
    pub reordered: u64,
    /// Bytes scheduled for delivery.
    pub bytes_delivered: u64,
    /// Sum of per-packet one-way latency in nanoseconds (queue + delay).
    pub total_latency_ns: u128,
}

impl LinkStats {
    /// Observed loss rate (all causes).
    pub fn loss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            let drops = self.random_drops
                + self.overflow_drops
                + self.blackout_drops
                + self.burst_drops
                + self.corrupt_drops;
            drops as f64 / self.offered as f64
        }
    }

    /// Observed reordering rate among delivered packets.
    pub fn reorder_rate(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.reordered as f64 / self.delivered as f64
        }
    }

    /// Mean one-way latency.
    pub fn mean_latency(&self) -> Dur {
        if self.delivered == 0 {
            Dur::ZERO
        } else {
            Dur::from_nanos((self.total_latency_ns / self.delivered as u128) as u64)
        }
    }
}

/// One direction of an emulated link.
#[derive(Debug, Clone)]
pub struct LinkDir {
    cfg: LinkConfig,
    rng: SimRng,
    /// Instant the fluid queue drains to empty.
    backlog_end: Time,
    /// Token bucket fill (bytes) and its last-refill instant.
    tokens: f64,
    token_time: Time,
    /// Latest scheduled arrival so far (reorder detection).
    max_sched_arrival: Time,
    /// Gilbert–Elliott chain state (stepped only inside an active
    /// burst-loss fault window).
    ge: GeChain,
    /// Arrival time of a fault-injected duplicate of the packet just
    /// delivered; the world drains this right after `transit`.
    pending_dup: Option<Time>,
    stats: LinkStats,
}

impl LinkDir {
    /// Create a link direction with its own RNG stream.
    pub fn new(cfg: LinkConfig, rng: SimRng) -> Self {
        let tokens = cfg.burst_bytes as f64;
        LinkDir {
            cfg,
            rng,
            backlog_end: Time::ZERO,
            tokens,
            token_time: Time::ZERO,
            max_sched_arrival: Time::ZERO,
            ge: GeChain::default(),
            pending_dup: None,
            stats: LinkStats::default(),
        }
    }

    /// Offer a packet of `wire_size` bytes to the link at `now`; returns
    /// the delivery verdict. Must be called with non-decreasing `now`.
    pub fn transit(&mut self, now: Time, wire_size: u32) -> Verdict {
        self.stats.offered += 1;

        // Fault checks precede every RNG draw so that outside an active
        // window (or with no fault attached) the draw sequence is
        // byte-identical to an unfaulted link. Check order is part of the
        // determinism contract: outage (no draw), base loss draw, burst
        // draw, corruption draw, then the normal shaping/jitter path.
        if let Some(f) = &self.cfg.fault {
            if f.down(now) {
                self.stats.blackout_drops += 1;
                return Verdict::Dropped(DropKind::Blackout);
            }
        }

        if self.rng.chance(self.cfg.loss) {
            self.stats.random_drops += 1;
            return Verdict::Dropped(DropKind::Random);
        }

        if let Some(ge_params) = self.cfg.fault.as_ref().and_then(|f| f.ge(now)) {
            if self.ge.step(&mut self.rng, &ge_params) {
                self.stats.burst_drops += 1;
                return Verdict::Dropped(DropKind::Burst);
            }
        }

        let corrupt_p = self.cfg.fault.as_ref().map_or(0.0, |f| f.corrupt_prob(now));
        if corrupt_p > 0.0 && self.rng.chance(corrupt_p) {
            self.stats.corrupt_drops += 1;
            return Verdict::Dropped(DropKind::Corrupt);
        }

        let (rate_factor, buffer_factor) = match &self.cfg.fault {
            Some(f) => (f.rate_factor(now), f.buffer_factor(now)),
            None => (1.0, 1.0),
        };

        let depart = match &self.cfg.rate {
            None => now,
            Some(schedule) => {
                let rate = schedule.rate_at(now) * rate_factor;
                // Refill the token bucket.
                let elapsed = now.saturating_since(self.token_time).as_secs_f64();
                self.tokens = (self.tokens + elapsed * rate / 8.0).min(self.cfg.burst_bytes as f64);
                self.token_time = now;

                let queue_empty = self.backlog_end <= now;
                if queue_empty && self.tokens >= wire_size as f64 {
                    // Burst through the bucket without serialization wait.
                    self.tokens -= wire_size as f64;
                    self.backlog_end = now;
                    now
                } else {
                    // Fluid queue: estimate the backlog and drop-tail it.
                    let backlog_bytes =
                        self.backlog_end.saturating_since(now).as_secs_f64() * rate / 8.0;
                    let limit = self.cfg.buffer_bytes as f64 * buffer_factor;
                    if backlog_bytes + wire_size as f64 > limit {
                        self.stats.overflow_drops += 1;
                        return Verdict::Dropped(DropKind::Overflow);
                    }
                    let start = if queue_empty { now } else { self.backlog_end };
                    let depart = start + transmission_delay(wire_size as u64, rate);
                    self.backlog_end = depart;
                    depart
                }
            }
        };

        // netem delay + jitter, assigned at dequeue time. An unjittered
        // delay skips the trip through f64 seconds, which is exact for it
        // (`dur_roundtrips_through_f64_seconds`).
        let base = self.cfg.delay.as_secs_f64();
        let jittered = match self.cfg.jitter {
            Jitter::None => None,
            Jitter::Uniform(j) => {
                let j = j.as_secs_f64();
                Some(base + self.rng.uniform(-j, j))
            }
            Jitter::Normal(sigma) => Some(self.rng.normal(base, sigma.as_secs_f64())),
        };
        let mut delay = jittered.map_or(self.cfg.delay, |s| Dur::from_secs_f64(s.max(0.0)));

        // Explicit hold-back reordering.
        let mut held = false;
        if let Some(spec) = self.cfg.reorder {
            if self.rng.chance(spec.prob) {
                delay += spec.hold;
                held = true;
                self.stats.reordered += 1;
            }
        }

        let arrival = depart + delay;
        if held {
            // Counted above; a held packet's late arrival must not raise
            // the inversion watermark (its passers are not "reordered").
        } else if arrival < self.max_sched_arrival {
            self.stats.reordered += 1;
        } else {
            self.max_sched_arrival = arrival;
        }
        self.stats.delivered += 1;
        self.stats.bytes_delivered += wire_size as u64;
        self.stats.total_latency_ns += (arrival - now).as_nanos() as u128;

        // Fault-injected duplication: schedule a copy at the same arrival
        // instant (delivered after the original — queue order is FIFO at
        // equal times). The draw happens only inside an active window.
        let dup_p = self.cfg.fault.as_ref().map_or(0.0, |f| f.dup_prob(now));
        if dup_p > 0.0 && self.rng.chance(dup_p) {
            self.pending_dup = Some(arrival);
            self.stats.dup_copies += 1;
        }

        Verdict::DeliverAt(arrival)
    }

    /// Arrival time for a fault-injected duplicate of the packet whose
    /// `transit` verdict was just returned, if one was drawn. The caller
    /// must drain this after every delivering `transit` call.
    pub fn take_dup_arrival(&mut self) -> Option<Time> {
        self.pending_dup.take()
    }

    /// Estimated queue occupancy in bytes at `now`.
    pub fn queue_bytes(&self, now: Time) -> u64 {
        match &self.cfg.rate {
            None => 0,
            Some(schedule) => {
                let rate = schedule.rate_at(now);
                (self.backlog_end.saturating_since(now).as_secs_f64() * rate / 8.0) as u64
            }
        }
    }

    /// Link statistics so far.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// The configuration this direction was built with.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(cfg: LinkConfig) -> LinkDir {
        LinkDir::new(cfg, SimRng::new(1))
    }

    #[test]
    fn ideal_link_is_pure_delay() {
        let mut l = mk(LinkConfig::ideal(Dur::from_millis(6)));
        let t0 = Time::ZERO + Dur::from_secs(1);
        match l.transit(t0, 1500) {
            Verdict::DeliverAt(t) => assert_eq!(t, t0 + Dur::from_millis(6)),
            v => panic!("unexpected {v:?}"),
        }
        assert_eq!(l.stats().delivered, 1);
        assert_eq!(l.stats().loss_rate(), 0.0);
    }

    #[test]
    fn shaping_serializes_back_to_back_packets() {
        // 12 Mbps -> 1500 B takes exactly 1 ms; zero burst so every packet
        // pays serialization.
        let mut cfg = LinkConfig::shaped(
            RateSchedule::Fixed(12e6),
            Dur::from_millis(5),
            Dur::from_millis(36),
        );
        cfg.burst_bytes = 0;
        let mut l = mk(cfg);
        let t0 = Time::ZERO;
        let a1 = match l.transit(t0, 1500) {
            Verdict::DeliverAt(t) => t,
            v => panic!("{v:?}"),
        };
        let a2 = match l.transit(t0, 1500) {
            Verdict::DeliverAt(t) => t,
            v => panic!("{v:?}"),
        };
        assert_eq!(a1, t0 + Dur::from_millis(1) + Dur::from_millis(5));
        assert_eq!(a2, a1 + Dur::from_millis(1), "second packet queues");
    }

    #[test]
    fn burst_tokens_let_idle_link_skip_serialization() {
        let cfg = LinkConfig {
            rate: Some(RateSchedule::Fixed(12e6)),
            delay: Dur::ZERO,
            jitter: Jitter::None,
            loss: 0.0,
            reorder: None,
            buffer_bytes: 1 << 20,
            burst_bytes: 3000,
            fault: None,
        };
        let mut l = mk(cfg);
        // Two packets fit in the bucket: both depart immediately.
        assert_eq!(l.transit(Time::ZERO, 1500), Verdict::DeliverAt(Time::ZERO));
        assert_eq!(l.transit(Time::ZERO, 1500), Verdict::DeliverAt(Time::ZERO));
        // Third must serialize.
        match l.transit(Time::ZERO, 1500) {
            Verdict::DeliverAt(t) => assert_eq!(t, Time::ZERO + Dur::from_millis(1)),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn droptail_overflow() {
        let cfg = LinkConfig {
            rate: Some(RateSchedule::Fixed(8e6)), // 1 MB/s
            delay: Dur::ZERO,
            jitter: Jitter::None,
            loss: 0.0,
            reorder: None,
            buffer_bytes: 3000,
            burst_bytes: 0,
            fault: None,
        };
        let mut l = mk(cfg);
        let mut drops = 0;
        for _ in 0..10 {
            if let Verdict::Dropped(DropKind::Overflow) = l.transit(Time::ZERO, 1500) {
                drops += 1;
            }
        }
        assert!(
            drops >= 7,
            "queue of 3000 B holds ~2 packets, drops = {drops}"
        );
        assert_eq!(l.stats().overflow_drops, drops);
    }

    #[test]
    fn queue_drains_over_time() {
        let cfg = LinkConfig {
            rate: Some(RateSchedule::Fixed(12e6)),
            delay: Dur::ZERO,
            jitter: Jitter::None,
            loss: 0.0,
            reorder: None,
            buffer_bytes: 1 << 20,
            burst_bytes: 0,
            fault: None,
        };
        let mut l = mk(cfg);
        for _ in 0..8 {
            l.transit(Time::ZERO, 1500);
        }
        let q0 = l.queue_bytes(Time::ZERO);
        assert!(q0 >= 1500 * 6, "q0 = {q0}");
        let q_later = l.queue_bytes(Time::ZERO + Dur::from_millis(4));
        assert!(q_later < q0);
        assert_eq!(l.queue_bytes(Time::ZERO + Dur::from_secs(1)), 0);
    }

    #[test]
    fn random_loss_rate_matches_config() {
        let cfg = LinkConfig::ideal(Dur::from_millis(1)).with_loss(0.1);
        let mut l = mk(cfg);
        for i in 0..20_000u64 {
            l.transit(Time::ZERO + Dur::from_micros(i), 1000);
        }
        let rate = l.stats().loss_rate();
        assert!((0.08..0.12).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn uniform_jitter_causes_reordering() {
        let cfg = LinkConfig::ideal(Dur::from_millis(50))
            .with_jitter(Jitter::Uniform(Dur::from_millis(10)));
        let mut l = mk(cfg);
        // Back-to-back packets 100us apart: jitter range ±10ms swamps the
        // spacing, so many arrivals invert.
        for i in 0..2000u64 {
            l.transit(Time::ZERO + Dur::from_micros(100 * i), 1200);
        }
        let r = l.stats().reorder_rate();
        assert!(r > 0.2, "expected heavy reordering, got {r}");
    }

    #[test]
    fn no_jitter_no_reordering() {
        let mut cfg = LinkConfig::shaped(
            RateSchedule::Fixed(10e6),
            Dur::from_millis(10),
            Dur::from_millis(36),
        );
        cfg.burst_bytes = 0;
        let mut l = mk(cfg);
        for i in 0..1000u64 {
            l.transit(Time::ZERO + Dur::from_micros(100 * i), 1200);
        }
        assert_eq!(l.stats().reordered, 0);
    }

    #[test]
    fn explicit_reorder_rate_tracks_probability() {
        let cfg = LinkConfig::ideal(Dur::from_millis(20)).with_reorder(ReorderSpec {
            prob: 0.05,
            hold: Dur::from_millis(10),
        });
        let mut l = mk(cfg);
        for i in 0..10_000u64 {
            l.transit(Time::ZERO + Dur::from_micros(500 * i), 1200);
        }
        let r = l.stats().reorder_rate();
        assert!((0.03..0.08).contains(&r), "reorder rate = {r}");
    }

    #[test]
    fn variable_rate_changes_serialization() {
        let cfg = LinkConfig {
            rate: Some(RateSchedule::Piecewise(vec![
                (Time::ZERO, 8e6),
                (Time::ZERO + Dur::from_secs(1), 80e6),
            ])),
            delay: Dur::ZERO,
            jitter: Jitter::None,
            loss: 0.0,
            reorder: None,
            buffer_bytes: 1 << 20,
            burst_bytes: 0,
            fault: None,
        };
        let mut l = mk(cfg);
        let a_slow = match l.transit(Time::ZERO, 1000) {
            Verdict::DeliverAt(t) => t - Time::ZERO,
            v => panic!("{v:?}"),
        };
        let t1 = Time::ZERO + Dur::from_secs(2);
        let a_fast = match l.transit(t1, 1000) {
            Verdict::DeliverAt(t) => t - t1,
            v => panic!("{v:?}"),
        };
        assert_eq!(a_slow, Dur::from_millis(1));
        assert_eq!(a_fast, Dur::from_micros(100));
    }

    #[test]
    fn mean_latency_accounting() {
        let mut l = mk(LinkConfig::ideal(Dur::from_millis(7)));
        for i in 0..10u64 {
            l.transit(Time::ZERO + Dur::from_millis(i), 100);
        }
        assert_eq!(l.stats().mean_latency(), Dur::from_millis(7));
    }

    mod fault_hooks {
        use super::*;
        use crate::fault::{FaultDir, FaultEvent, FaultKind, GeParams, LinkFault};

        fn window(at_ms: u64, dur_ms: u64, kind: FaultKind) -> LinkFault {
            LinkFault::from_events(vec![FaultEvent {
                at: Time::ZERO + Dur::from_millis(at_ms),
                dur: Dur::from_millis(dur_ms),
                dir: FaultDir::Both,
                kind,
            }])
        }

        fn t(ms: u64) -> Time {
            Time::ZERO + Dur::from_millis(ms)
        }

        #[test]
        fn blackout_drops_everything_in_window() {
            let cfg = LinkConfig::ideal(Dur::from_millis(5)).with_fault(Some(window(
                10,
                20,
                FaultKind::Blackout,
            )));
            let mut l = mk(cfg);
            assert!(matches!(l.transit(t(5), 100), Verdict::DeliverAt(_)));
            assert_eq!(l.transit(t(10), 100), Verdict::Dropped(DropKind::Blackout));
            assert_eq!(l.transit(t(29), 100), Verdict::Dropped(DropKind::Blackout));
            assert!(matches!(l.transit(t(30), 100), Verdict::DeliverAt(_)));
            assert_eq!(l.stats().blackout_drops, 2);
            assert!(l.stats().loss_rate() > 0.0);
        }

        #[test]
        fn burst_loss_tracks_stationary_rate() {
            let p = GeParams {
                p_enter_pm: 100,
                p_exit_pm: 200,
                loss_good_pm: 0,
                loss_bad_pm: 800,
            };
            let cfg = LinkConfig::ideal(Dur::from_millis(1)).with_fault(Some(window(
                0,
                1_000_000,
                FaultKind::BurstLoss(p),
            )));
            let mut l = mk(cfg);
            for i in 0..30_000u64 {
                l.transit(Time::ZERO + Dur::from_micros(i * 20), 500);
            }
            let rate = l.stats().loss_rate();
            let stat = p.stationary_loss();
            assert!(
                (rate - stat).abs() < 0.03,
                "burst loss {rate} vs stationary {stat}"
            );
            assert_eq!(l.stats().random_drops, 0);
        }

        #[test]
        fn corruption_is_a_typed_whole_packet_drop() {
            let cfg = LinkConfig::ideal(Dur::from_millis(1)).with_fault(Some(window(
                0,
                10_000,
                FaultKind::Corrupt { prob_pm: 1000 },
            )));
            let mut l = mk(cfg);
            assert_eq!(l.transit(t(1), 900), Verdict::Dropped(DropKind::Corrupt));
            assert_eq!(l.stats().corrupt_drops, 1);
        }

        #[test]
        fn duplication_side_channel() {
            let cfg = LinkConfig::ideal(Dur::from_millis(4)).with_fault(Some(window(
                0,
                10_000,
                FaultKind::Duplicate { prob_pm: 1000 },
            )));
            let mut l = mk(cfg);
            let arrival = match l.transit(t(0), 700) {
                Verdict::DeliverAt(a) => a,
                v => panic!("{v:?}"),
            };
            assert_eq!(l.take_dup_arrival(), Some(arrival));
            assert_eq!(l.take_dup_arrival(), None, "drained");
            assert_eq!(l.stats().dup_copies, 1);
        }

        #[test]
        fn bandwidth_cliff_slows_serialization() {
            // 12 Mbps halved -> 1500 B takes 2 ms instead of 1.
            let mut cfg =
                LinkConfig::shaped(RateSchedule::Fixed(12e6), Dur::ZERO, Dur::from_millis(36));
            cfg.burst_bytes = 0;
            cfg.fault = Some(window(
                0,
                10_000,
                FaultKind::BandwidthCliff { factor_pm: 500 },
            ));
            let mut l = mk(cfg);
            match l.transit(t(0), 1500) {
                Verdict::DeliverAt(a) => assert_eq!(a, t(2)),
                v => panic!("{v:?}"),
            }
        }

        #[test]
        fn buffer_shrink_forces_overflow() {
            let cfg = LinkConfig {
                rate: Some(RateSchedule::Fixed(8e6)),
                delay: Dur::ZERO,
                jitter: Jitter::None,
                loss: 0.0,
                reorder: None,
                buffer_bytes: 64 * 1024,
                burst_bytes: 0,
                fault: Some(window(0, 10_000, FaultKind::BufferShrink { factor_pm: 20 })),
            };
            let mut l = mk(cfg);
            let mut overflows = 0;
            for _ in 0..10 {
                if let Verdict::Dropped(DropKind::Overflow) = l.transit(t(0), 1500) {
                    overflows += 1;
                }
            }
            assert!(overflows > 0, "shrunk buffer (~1.3KB) must drop-tail");
        }

        /// The zero-cost-when-off contract at the link level: a fault view
        /// whose windows lie entirely in the future leaves the verdict
        /// sequence — including every RNG draw — byte-identical to a link
        /// with no fault attached.
        #[test]
        fn inactive_fault_is_rng_invisible() {
            let base = LinkConfig::shaped(
                RateSchedule::Fixed(10e6),
                Dur::from_millis(5),
                Dur::from_millis(36),
            )
            .with_loss(0.05)
            .with_jitter(Jitter::Uniform(Dur::from_millis(2)));
            let far = window(
                1_000_000,
                1_000,
                FaultKind::BurstLoss(GeParams {
                    p_enter_pm: 500,
                    p_exit_pm: 500,
                    loss_good_pm: 100,
                    loss_bad_pm: 900,
                }),
            );
            let mut plain = LinkDir::new(base.clone(), SimRng::new(42));
            let mut faulted = LinkDir::new(base.with_fault(Some(far)), SimRng::new(42));
            for i in 0..5000u64 {
                let now = Time::ZERO + Dur::from_micros(i * 120);
                assert_eq!(
                    plain.transit(now, 1200),
                    faulted.transit(now, 1200),
                    "verdict diverged at packet {i}"
                );
                assert_eq!(faulted.take_dup_arrival(), None);
            }
            assert_eq!(plain.stats().random_drops, faulted.stats().random_drops);
        }
    }
}
