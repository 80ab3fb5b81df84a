//! Property-based tests for the link emulation and time arithmetic, the
//! event queue against its binary-heap oracle, and the world's
//! `run_until` loop against stepping one event at a time.

mod oracle;

use longlook_sim::link::{Jitter, LinkConfig, LinkDir, Verdict};
use longlook_sim::schedule::RateSchedule;
use longlook_sim::time::{transmission_delay, Dur, Time};
use longlook_sim::SimRng;
use longlook_sim::{Agent, Ctx, DeviceProfile, FlowId, NodeId, Packet, PktClass, World};
use longlook_sim::{EventQueue, FaultDir, FaultEvent, FaultKind, LinkFault, RunOutcome};
use longlook_wire::tcp::TcpSegment;
use oracle::HeapSched;
use proptest::prelude::*;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    /// Without jitter/reordering, deliveries never invert: arrival times
    /// are non-decreasing in send order.
    #[test]
    fn shaped_link_preserves_order(
        rate_mbps in 1.0f64..200.0,
        delay_ms in 0u64..200,
        sizes in proptest::collection::vec(40u32..1500, 1..200),
        gap_us in 1u64..2000,
    ) {
        let cfg = LinkConfig::shaped(
            RateSchedule::fixed_mbps(rate_mbps),
            Dur::from_millis(delay_ms),
            Dur::from_millis(36),
        );
        let mut link = LinkDir::new(cfg, SimRng::new(1));
        let mut last = Time::ZERO;
        for (i, &size) in sizes.iter().enumerate() {
            let t = Time::ZERO + Dur::from_micros(i as u64 * gap_us);
            if let Verdict::DeliverAt(at) = link.transit(t, size) {
                prop_assert!(at >= last, "ordering violated");
                prop_assert!(at >= t + Dur::from_millis(delay_ms), "faster than light");
                last = at;
            }
        }
        prop_assert_eq!(link.stats().reordered, 0);
    }

    /// Arrival is never earlier than departure + serialization at the
    /// configured rate.
    #[test]
    fn serialization_lower_bound(
        rate_mbps in 1.0f64..100.0,
        size in 100u32..1500,
    ) {
        let mut cfg = LinkConfig::shaped(
            RateSchedule::fixed_mbps(rate_mbps),
            Dur::ZERO,
            Dur::from_millis(36),
        );
        cfg.burst_bytes = 0;
        let mut link = LinkDir::new(cfg, SimRng::new(2));
        match link.transit(Time::ZERO, size) {
            Verdict::DeliverAt(at) => {
                let min = transmission_delay(size as u64, rate_mbps * 1e6);
                prop_assert!(at >= Time::ZERO + min);
            }
            v => prop_assert!(false, "unexpected {v:?}"),
        }
    }

    /// Loss rate converges to the configured probability.
    #[test]
    fn loss_rate_converges(p in 0.0f64..0.3) {
        let cfg = LinkConfig::ideal(Dur::from_millis(5)).with_loss(p);
        let mut link = LinkDir::new(cfg, SimRng::new(3));
        let n = 8000u64;
        for i in 0..n {
            link.transit(Time::ZERO + Dur::from_micros(i * 50), 1000);
        }
        let measured = link.stats().loss_rate();
        prop_assert!((measured - p).abs() < 0.03, "{measured} vs {p}");
    }

    /// Queue occupancy is bounded by the configured buffer.
    #[test]
    fn queue_never_exceeds_buffer(
        buffer_kb in 8u64..256,
        offered in proptest::collection::vec(100u32..1500, 1..300),
    ) {
        let cfg = LinkConfig {
            rate: Some(RateSchedule::fixed_mbps(5.0)),
            delay: Dur::ZERO,
            jitter: Jitter::None,
            loss: 0.0,
            reorder: None,
            buffer_bytes: buffer_kb * 1024,
            burst_bytes: 0,
            fault: None,
        };
        let mut link = LinkDir::new(cfg, SimRng::new(4));
        for &size in &offered {
            link.transit(Time::ZERO, size);
            prop_assert!(
                link.queue_bytes(Time::ZERO) <= buffer_kb * 1024 + 1500,
                "queue exceeded buffer"
            );
        }
    }

    /// Time arithmetic: (t + d) - t == d and saturating subtraction never
    /// panics.
    #[test]
    fn time_roundtrip(base_ns in 0u64..u64::MAX / 4, d_ns in 0u64..u64::MAX / 4) {
        let t = Time::from_nanos(base_ns);
        let d = Dur::from_nanos(d_ns);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!(t.saturating_since(t + d), Dur::ZERO);
        prop_assert_eq!((t + d).saturating_since(t), d);
    }

    /// A duration below 2^51 ns (26 days) survives the trip through f64
    /// seconds exactly, so a link whose delay is not jittered can skip it.
    /// The width is drawn first, so every scale is covered.
    #[test]
    fn dur_roundtrips_through_f64_seconds(bits in 0u32..52, raw in any::<u64>()) {
        let d = Dur::from_nanos(raw & ((1u64 << bits) - 1));
        prop_assert_eq!(Dur::from_secs_f64(d.as_secs_f64()), d);
    }

    /// RandomHold schedules are pure and respect bounds.
    #[test]
    fn random_hold_bounds(seed in any::<u64>(), queries in proptest::collection::vec(0u64..120_000, 1..64)) {
        let s = RateSchedule::random_hold_mbps(50.0, 150.0, Dur::from_secs(1), seed);
        for &ms in &queries {
            let t = Time::ZERO + Dur::from_millis(ms);
            let r = s.rate_at(t);
            prop_assert!((50e6..=150e6).contains(&r));
            prop_assert_eq!(r, s.rate_at(t));
        }
    }
}

proptest! {
    /// Token-bucket conformance: cumulative bytes delivered by any arrival
    /// instant never exceed the configured rate times elapsed time plus
    /// the burst allowance (one MTU of slop for the packet completing at
    /// that instant; twice the burst because the bucket may refill while
    /// the fluid queue is draining).
    #[test]
    fn token_bucket_throughput_never_exceeds_rate(
        rate_mbps in 1.0f64..100.0,
        burst_kb in 0u64..64,
        sizes in proptest::collection::vec(40u32..1500, 1..300),
        gap_us in 0u64..500,
    ) {
        let cfg = LinkConfig {
            rate: Some(RateSchedule::fixed_mbps(rate_mbps)),
            delay: Dur::ZERO,
            jitter: Jitter::None,
            loss: 0.0,
            reorder: None,
            buffer_bytes: u64::MAX,
            burst_bytes: burst_kb * 1024,
            fault: None,
        };
        let mut link = LinkDir::new(cfg, SimRng::new(5));
        let mut cum_bytes = 0u64;
        for (i, &size) in sizes.iter().enumerate() {
            let t = Time::ZERO + Dur::from_micros(i as u64 * gap_us);
            if let Verdict::DeliverAt(at) = link.transit(t, size) {
                cum_bytes += size as u64;
                let elapsed = at.saturating_since(Time::ZERO).as_secs_f64();
                let budget = rate_mbps * 1e6 / 8.0 * elapsed
                    + 2.0 * (burst_kb * 1024) as f64
                    + 1500.0;
                prop_assert!(
                    cum_bytes as f64 <= budget,
                    "delivered {cum_bytes} B by {elapsed}s exceeds budget {budget}"
                );
            }
        }
    }

    /// The drop-tail queue never exceeds its configured capacity at any
    /// probe instant, for any rate and arrival pattern (generalizes
    /// `queue_never_exceeds_buffer` beyond same-instant arrivals).
    #[test]
    fn droptail_occupancy_bounded_under_random_arrivals(
        rate_mbps in 1.0f64..50.0,
        buffer_kb in 4u64..128,
        arrivals in proptest::collection::vec((0u64..400, 100u32..1500), 1..300),
    ) {
        let cfg = LinkConfig {
            rate: Some(RateSchedule::fixed_mbps(rate_mbps)),
            delay: Dur::ZERO,
            jitter: Jitter::None,
            loss: 0.0,
            reorder: None,
            buffer_bytes: buffer_kb * 1024,
            burst_bytes: 0,
            fault: None,
        };
        let mut link = LinkDir::new(cfg, SimRng::new(6));
        let mut now = Time::ZERO;
        for &(gap_us, size) in &arrivals {
            now += Dur::from_micros(gap_us);
            link.transit(now, size);
            prop_assert!(
                link.queue_bytes(now) <= buffer_kb * 1024 + 1500,
                "occupancy exceeded the drop-tail capacity"
            );
        }
    }

    /// Reordering requires a cause: with no jitter and no explicit
    /// reorder spec the link never inverts deliveries, even with random
    /// loss and arbitrary arrival spacing.
    #[test]
    fn no_reordering_without_jitter_or_reorder_spec(
        rate_mbps in 1.0f64..100.0,
        delay_ms in 0u64..100,
        loss in 0.0f64..0.2,
        arrivals in proptest::collection::vec((0u64..1000, 40u32..1500), 1..300),
    ) {
        let cfg = LinkConfig::shaped(
            RateSchedule::fixed_mbps(rate_mbps),
            Dur::from_millis(delay_ms),
            Dur::from_millis(36),
        )
        .with_loss(loss);
        let mut link = LinkDir::new(cfg, SimRng::new(7));
        let mut now = Time::ZERO;
        let mut last = Time::ZERO;
        for &(gap_us, size) in &arrivals {
            now += Dur::from_micros(gap_us);
            if let Verdict::DeliverAt(at) = link.transit(now, size) {
                prop_assert!(at >= last, "delivery inverted without jitter");
                last = at;
            }
        }
        prop_assert_eq!(link.stats().reordered, 0);
    }
}

/// The wheel's slot width and horizon (`sched::SLOT_SHIFT`, `SLOTS`): the
/// generator below aims at their boundaries.
const TICK: u64 = 1 << 17;
const RING: u64 = 2048 * TICK;

/// A delay from one of the classes the wheel files differently.
fn delay(class: u8, x: u64) -> u64 {
    match class % 8 {
        // The instant being drained.
        0 => 0,
        // Inside the tick being drained, or just past it.
        1 => x % TICK,
        2 => (x % 4) * TICK + x % 2,
        // Anywhere in the ring (< 268 ms).
        3 => x % RING,
        // A coarse grid, so distinct pushes share ticks and instants.
        4 => (x % 600) * TICK + x % 3,
        // Either side of the horizon, then well into the overflow heap.
        5 => RING - 2 * TICK + x % (4 * TICK),
        6 => RING + x % (8 * RING),
        // `Time::MAX` and its neighbours (saturating).
        _ => u64::MAX - x % 3,
    }
}

proptest! {
    /// The timing wheel is a priority queue: popping everything yields
    /// exactly the (at, seq)-sorted order, i.e. time-sorted with FIFO
    /// tie-breaking on equal times — including deltas that span slot
    /// boundaries, full wheel rotations, and the overflow heap.
    #[test]
    fn wheel_pop_order_is_sorted_by_time_then_arrival(
        ats in proptest::collection::vec(0u64..3_000_000_000, 1..300),
    ) {
        let mut q: EventQueue<u64> = EventQueue::default();
        for (i, &at) in ats.iter().enumerate() {
            q.push(Time::from_nanos(at), i as u64);
        }
        let mut expect: Vec<(Time, u64)> = ats
            .iter()
            .enumerate()
            .map(|(i, &at)| (Time::from_nanos(at), i as u64))
            .collect();
        expect.sort();
        let mut got = Vec::with_capacity(expect.len());
        while let Some(x) = q.pop() {
            got.push(x);
        }
        prop_assert_eq!(got, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every method the world and the fleet loop call, against the binary
    /// heap the wheel replaced: pushes (with a monotone "now", as an
    /// event loop guarantees) at the instant being drained, in its tick,
    /// in the ring, past the horizon and next to `Time::MAX`; plain pops;
    /// `pop_at_most` with deadlines that admit and that refuse; `pop_if`
    /// with a predicate that may refuse on the time or on the item (and
    /// must then consume nothing); `quiet_through`, whose `true` must
    /// mean the heap holds nothing at or before the instant asked about,
    /// and which must answer `true` whenever the heap's earliest event
    /// lies in a later tick; `reserve_hint`; and `reset` in
    /// mid-sequence, after which the same queue starts over at time
    /// zero. A refusal leaves "now" behind the wheel's cursor, so the
    /// pushes that follow it land in the past of the loaded tick. After
    /// every step `len`, `is_empty` and `scheduled_peak` agree.
    #[test]
    fn wheel_matches_heap_under_interleaved_ops(
        ops in proptest::collection::vec((0u8..36, any::<u8>(), any::<u64>()), 1..400),
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::default();
        let mut heap: HeapSched<u64> = HeapSched::new();
        let mut now = 0u64;
        let mut id = 0u64;
        for &(op, class, x) in &ops {
            let popped = match op {
                0..=14 => {
                    let at = Time::from_nanos(now.saturating_add(delay(class, x)));
                    wheel.push(at, id);
                    heap.push(at, id);
                    id += 1;
                    None
                }
                15..=21 => {
                    let got = wheel.pop();
                    prop_assert_eq!(got, heap.pop());
                    got
                }
                22..=24 => {
                    let deadline = Time::from_nanos(now.saturating_add(delay(class, x)));
                    let got = wheel.pop_at_most(deadline);
                    prop_assert_eq!(got, heap.pop_at_most(deadline));
                    prop_assert!(got.is_none_or(|(at, _)| at <= deadline));
                    got
                }
                25..=28 => {
                    // Refuses a late front, or one item in four whatever
                    // its time; both queues must offer the same front.
                    let due = Time::from_nanos(now.saturating_add(delay(class, x)));
                    let veto = x % 5;
                    let mut offered = [None, None];
                    let got = wheel.pop_if(|at, &item| {
                        offered[0] = Some((at, item));
                        at <= due && item % 4 != veto
                    });
                    let want = heap.pop_if(|at, &item| {
                        offered[1] = Some((at, item));
                        at <= due && item % 4 != veto
                    });
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(offered[0], offered[1]);
                    prop_assert!(got.is_none() || got == offered[0]);
                    got
                }
                29..=30 => {
                    wheel.reserve_hint(x as usize % 2048);
                    heap.reserve_hint(x as usize % 2048);
                    None
                }
                31..=34 => {
                    let t = Time::from_nanos(now.saturating_add(delay(class, x)));
                    let quiet = wheel.quiet_through(t);
                    let earliest = heap.earliest();
                    if quiet {
                        prop_assert!(
                            earliest.is_none_or(|at| at > t),
                            "quiet through {t:?}, yet {earliest:?} is due"
                        );
                    }
                    if earliest.is_none_or(|at| at.as_nanos() / TICK > t.as_nanos() / TICK) {
                        prop_assert!(quiet, "nothing due in {t:?}'s tick, yet not quiet");
                    }
                    None
                }
                _ => {
                    wheel.reset();
                    heap.reset();
                    now = 0;
                    None
                }
            };
            if let Some((at, _)) = popped {
                prop_assert!(at.as_nanos() >= now, "time went backwards");
                now = at.as_nanos();
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.len() == 0);
            prop_assert_eq!(wheel.scheduled_peak(), heap.scheduled_peak());
        }
        loop {
            let got = wheel.pop();
            prop_assert_eq!(got, heap.pop());
            if got.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
        prop_assert_eq!(wheel.scheduled_peak(), heap.scheduled_peak());
    }
}

/// Moved here from `sched.rs` with its oracle: long deterministic runs
/// (500 steps, 20 rounds) of near- and far-future pushes against pops.
#[test]
fn randomized_wheel_matches_heap() {
    let mut rng = SimRng::new(0xC0FFEE);
    for round in 0..20u64 {
        let mut wheel = EventQueue::default();
        let mut heap = HeapSched::new();
        let mut now = 0u64;
        let mut id = 0u64;
        // Interleave pushes and pops with a monotone "now" like the
        // world's event loop does.
        for _ in 0..500 {
            if rng.chance(0.6) {
                let delta = if rng.chance(0.05) {
                    rng.uniform_u64(0, 500_000_000) // far future
                } else {
                    rng.uniform_u64(0, 2_000_000) // near future
                };
                let at = Time::from_nanos(now + delta);
                wheel.push(at, id);
                heap.push(at, id);
                id += 1;
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "round {round}");
                if let Some((t, _)) = a {
                    now = t.as_nanos();
                }
            }
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b, "round {round} drain");
            if a.is_none() {
                break;
            }
        }
    }
}

/// Every callback of a differential world, in dispatch order across its
/// nodes: `(now, node, packet id)`, with [`WAKE`] for a wakeup.
type Log = Rc<RefCell<Vec<(Time, u32, u64)>>>;
const WAKE: u64 = u64::MAX;

/// An agent that logs each callback and answers it from a script: a
/// wakeup sends to a scripted peer, a packet is answered to its sender,
/// one or two packets back to back, userspace or kernel class, and some
/// answers ask for a wake. Each answer spends one of `budget`, so every
/// world runs dry.
struct Chatter {
    log: Log,
    /// Each peer, with the one-way delay towards it and its device.
    peers: Vec<(NodeId, Dur, DeviceProfile)>,
    own: DeviceProfile,
    script: Rc<Vec<u8>>,
    turn: usize,
    budget: u32,
    sent: u64,
}

impl Chatter {
    fn answer(&mut self, ctx: &mut Ctx<'_>, to: Option<NodeId>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let b = self.script[self.turn % self.script.len()];
        self.turn += 1;
        let me = ctx.node();
        let (peer, delay, device) = match to {
            Some(src) => *self.peers.iter().find(|p| p.0 == src).expect("a peer"),
            None => self.peers[b as usize % self.peers.len()],
        };
        let class = if b & 1 == 0 {
            PktClass::Userspace
        } else {
            PktClass::Kernel
        };
        for _ in 0..=(b >> 7) {
            self.sent += 1;
            let id = u64::from(me.0) << 32 | self.sent;
            let size = 80 + u32::from(b % 16) * 90;
            let seg = TcpSegment::control(0, 0, 0, 0);
            ctx.send(Packet::new(me, peer, FlowId(id), class, size, seg));
        }
        match (b >> 1) % 4 {
            // The instant this packet clears the peer's CPU when the link
            // is unshaped and unjittered and the CPU idle.
            0 => ctx.wake_at(ctx.now + delay + device.cost(class)),
            // The instant a packet queued behind one clearing this node's
            // CPU now would clear it.
            1 => ctx.wake_at(ctx.now + self.own.cost(class)),
            2 => ctx.wake_at(ctx.now + Dur::from_micros(u64::from(b) * 13)),
            _ => {}
        }
    }
}

impl Agent for Chatter {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.log
            .borrow_mut()
            .push((ctx.now, ctx.node().0, pkt.flow.0));
        self.answer(ctx, Some(pkt.src));
    }
    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        self.log.borrow_mut().push((ctx.now, ctx.node().0, WAKE));
        self.answer(ctx, None);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A world of 2–3 fully connected `Chatter`s decoded from `shape` (at
/// least 28 bytes): devices from DESKTOP, MOTOG and SERVER (0.5–400 µs
/// per packet), links ideal or shaped with 0–5 ms delay, jitter, loss and
/// duplication, and the given stall windows. Every node is kicked.
fn chatter_world(
    seed: u64,
    shape: &[u8],
    script: &Rc<Vec<u8>>,
    log: &Log,
    stalls: &[(NodeId, Time, Time)],
) -> World {
    const DEVICES: [DeviceProfile; 3] = [
        DeviceProfile::DESKTOP,
        DeviceProfile::MOTOG,
        DeviceProfile::SERVER,
    ];
    let n = 2 + usize::from(shape[0] % 2);
    let devices: Vec<DeviceProfile> = (0..n)
        .map(|i| DEVICES[usize::from(shape[1 + i] % 3)])
        .collect();
    let pairs: &[(usize, usize)] = if n == 2 {
        &[(0, 1)]
    } else {
        &[(0, 1), (1, 2), (0, 2)]
    };
    // Four bytes per direction: delay, rate, jitter, loss and duplication.
    let direction = |k: usize| {
        let b = &shape[4 + 4 * k..8 + 4 * k];
        let delay = Dur::from_micros(u64::from(b[0]) * 20);
        let mut cfg = if b[1] & 1 == 0 {
            LinkConfig::ideal(delay)
        } else {
            let rate = RateSchedule::fixed_mbps(1.0 + f64::from(b[1] >> 1));
            LinkConfig::shaped(rate, delay, Dur::from_millis(20))
        };
        let spread = Dur::from_micros(u64::from(b[2]) * 4);
        cfg.jitter = match b[2] % 3 {
            0 => Jitter::None,
            1 => Jitter::Uniform(spread),
            _ => Jitter::Normal(spread),
        };
        cfg.loss = f64::from(b[3] % 4) * 0.05;
        let prob_pm = u32::from(b[3] >> 2) * 10;
        cfg.fault = (prob_pm > 0).then(|| {
            LinkFault::from_events(vec![FaultEvent {
                at: Time::ZERO,
                dur: Dur::from_secs(3600),
                dir: FaultDir::Both,
                kind: FaultKind::Duplicate { prob_pm },
            }])
        });
        cfg
    };
    let links: Vec<(usize, usize, LinkConfig, LinkConfig)> = pairs
        .iter()
        .enumerate()
        .map(|(k, &(a, b))| (a, b, direction(2 * k), direction(2 * k + 1)))
        .collect();
    let mut world = World::new(seed);
    for (i, &own) in devices.iter().enumerate() {
        let mut peers = Vec::new();
        for (a, b, ab, ba) in &links {
            if *a == i {
                peers.push((NodeId(*b as u32), ab.delay, devices[*b]));
            } else if *b == i {
                peers.push((NodeId(*a as u32), ba.delay, devices[*a]));
            }
        }
        let agent = Chatter {
            log: log.clone(),
            peers,
            own,
            script: script.clone(),
            turn: i,
            budget: 12 + u32::from(shape[1 + i] % 32),
            sent: 0,
        };
        world.add_node(Box::new(agent), own);
    }
    for (a, b, ab, ba) in links {
        world.connect(NodeId(a as u32), NodeId(b as u32), ab, ba);
    }
    for &(node, from, until) in stalls {
        world.stall_node(node, from, until);
    }
    for i in 0..n {
        world.kick(NodeId(i as u32));
    }
    world
}

/// Up to three stall windows from `shape[28..34]`, each opening at a
/// delivery in `log` (a run without windows) on the node it reached: a
/// window that opens while a packet clears the CPU covers its delivery
/// but not its link exit.
fn stall_windows(shape: &[u8], log: &[(Time, u32, u64)]) -> Vec<(NodeId, Time, Time)> {
    let deliveries: Vec<(Time, u32)> = log
        .iter()
        .filter(|e| e.2 != WAKE)
        .map(|&(at, node, _)| (at, node))
        .collect();
    if deliveries.is_empty() {
        return Vec::new();
    }
    shape[28..34]
        .chunks(2)
        .take(usize::from(shape[2] % 4))
        .map(|w| {
            let (at, node) = deliveries[usize::from(w[0]) % deliveries.len()];
            (
                NodeId(node),
                at,
                at + Dur::from_micros(20 + u64::from(w[1]) * 10),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `run_until` delivers a packet straight from its link exit when
    /// nothing queued, no stall window and no deadline can come between;
    /// `step` never does. Run in random deadline slices, the first must
    /// dispatch exactly what the second does one event at a time: after
    /// each slice its log is the step run's log up to the deadline, and
    /// at the end the logs, `events_processed`, `scheduled_peak` and
    /// `now` are equal. Three worlds in four get stall windows, placed
    /// from a run without them.
    #[test]
    fn run_until_matches_step(
        seed in any::<u64>(),
        shape in proptest::collection::vec(any::<u8>(), 34..35),
        script in proptest::collection::vec(any::<u8>(), 1..48),
        slices in proptest::collection::vec(0u64..1_500_000, 0..60),
    ) {
        let script = Rc::new(script);
        let unstalled_log = Log::default();
        let mut unstalled = chatter_world(seed, &shape, &script, &unstalled_log, &[]);
        while unstalled.step() {}
        let stalls = stall_windows(&shape, &unstalled_log.borrow());

        let stepped_log = Log::default();
        let mut stepped = chatter_world(seed, &shape, &script, &stepped_log, &stalls);
        while stepped.step() {}
        let want = stepped_log.borrow().clone();

        let fused_log = Log::default();
        let mut fused = chatter_world(seed, &shape, &script, &fused_log, &stalls);
        let mut deadline = Time::ZERO;
        for &ns in &slices {
            deadline += Dur::from_nanos(ns);
            let outcome = fused.run_until(deadline);
            prop_assert!(fused.now() <= deadline, "ran past {deadline:?}");
            let upto = want.partition_point(|&(t, _, _)| t <= deadline);
            prop_assert_eq!(&fused_log.borrow()[..], &want[..upto], "at {:?}", deadline);
            if outcome == RunOutcome::Idle {
                break;
            }
        }
        prop_assert_eq!(fused.run_until(Time::MAX), RunOutcome::Idle);
        prop_assert_eq!(&fused_log.borrow()[..], &want[..]);
        prop_assert_eq!(fused.events_processed(), stepped.events_processed());
        prop_assert_eq!(fused.scheduled_peak(), stepped.scheduled_peak());
        prop_assert_eq!(fused.now(), stepped.now());
    }
}

proptest! {
    /// The generational slot pool is a faithful allocator under arbitrary
    /// alloc/free interleavings: live handles always resolve, freed
    /// handles never do (even after their slot is recycled), double
    /// frees are rejected, and the live count matches a reference model.
    #[test]
    fn slot_pool_model_check(ops in proptest::collection::vec(any::<u32>(), 1..400)) {
        use longlook_sim::{SlotHandle, SlotPool};
        let mut pool = SlotPool::new();
        let mut live: Vec<SlotHandle> = Vec::new();
        let mut dead: Vec<SlotHandle> = Vec::new();
        let mut peak = 0usize;
        for op in ops {
            // Low bit chooses alloc vs free; high bits pick the victim.
            let is_alloc = op & 1 == 0;
            if is_alloc || live.is_empty() {
                live.push(pool.alloc());
                peak = peak.max(live.len());
            } else {
                let h = live.swap_remove((op >> 1) as usize % live.len());
                prop_assert!(pool.free(h), "live handle must free");
                dead.push(h);
            }
            prop_assert_eq!(pool.live(), live.len());
            for h in &live {
                prop_assert_eq!(pool.resolve(*h), Some(h.index()));
            }
            for h in &dead {
                prop_assert_eq!(pool.resolve(*h), None, "stale handle resolved");
            }
        }
        prop_assert_eq!(pool.live_peak(), peak);
        // Slot space never exceeds the high-water mark of live conns.
        prop_assert!(pool.slots() <= peak);
        for h in dead {
            prop_assert!(!pool.free(h), "double free must be rejected");
        }
    }
}
