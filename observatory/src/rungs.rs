//! Micro-rungs: std-only loops that each call one layer directly, from
//! outside, through its public functions. A rung's figure is the cost of
//! one operation of that layer in reference-host nanoseconds (every
//! repetition is bracketed by yardstick samples, like a pass segment),
//! the median of [`REPS`] repetitions.
//!
//! README.md says which end-to-end metric, on which workload, each rung
//! should move.

use crate::alloc;
use crate::estimate::median;
use crate::report::Metric;
use crate::workloads::{quic, tcp};
use crate::yardstick;
use longlook_core::prelude::*;
use longlook_core::rootcause::infer_from_records;
use longlook_http::workload::{PageSpec as Page, RESPONSE_HEADER};
use longlook_quic::recv_ack::AckTracker;
use longlook_quic::sent::{SentPacket, SentStore};
use longlook_quic::streams::Chunk;
use longlook_quic::{Frame, QuicPacket};
use longlook_sim::link::{LinkConfig, LinkDir};
use longlook_sim::packet::Payload;
use longlook_sim::rng::SimRng;
use longlook_sim::trace::{encode_seq, parse_seq};
use longlook_sim::{EventQueue, FlowId, SchedKind, SlotPool};
use longlook_stats::QuantileSketch;
use longlook_tcp::scoreboard::Scoreboard;
use longlook_transport::cc::CongestionControl;
use longlook_transport::conn::{AppEvent, Connection};
use longlook_transport::cubic::{Cubic, CubicConfig};
use longlook_transport::rtt::RttEstimator;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per rung.
const REPS: usize = 3;

/// The rungs measured so far, and the yardstick sample that closed the
/// last repetition (it opens the next one: nothing runs in between).
struct Ladder {
    carried: Option<f64>,
    out: Vec<Metric>,
}

impl Ladder {
    /// Measure one rung. `f` runs one repetition and returns the seconds
    /// its timed part took and the operations that part performed; set-up
    /// inside `f` but outside its own timer is not charged.
    fn rung(&mut self, name: &'static str, mut f: impl FnMut() -> (f64, u64)) {
        let mut before = self.carried.take().unwrap_or_else(yardstick::sample);
        let mut xs = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let (secs, ops) = f();
            let after = yardstick::sample();
            xs.push(yardstick::normalise(secs, before, after) * 1e9 / ops.max(1) as f64);
            before = after;
        }
        self.carried = Some(before);
        self.out.push(Metric::new(name, median(&xs), "ns"));
    }

    fn value(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.out.push(Metric::new(name, value, unit));
    }
}

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

// --- sim --------------------------------------------------------------

/// `EventQueue` hold-steady at bulk-transfer depth: ~300 outstanding
/// events, mostly serialization- and pacing-scale deltas, a slice of
/// RTT-scale timers, a thin tail of idle timeouts.
fn sched_shallow(seed: u64) -> (f64, u64) {
    const OPS: u64 = 1_000_000;
    let mut rng = SimRng::new(seed ^ 0xBE7C4);
    let mut q: EventQueue<u64> = EventQueue::new(SchedKind::from_env());
    let delta = |rng: &mut SimRng| -> u64 {
        if rng.chance(0.85) {
            rng.uniform_u64(20_000, 1_200_000)
        } else if rng.chance(0.87) {
            rng.uniform_u64(30_000_000, 42_000_000)
        } else {
            rng.uniform_u64(200_000_000, 1_000_000_000)
        }
    };
    for id in 0..300 {
        q.push(Time::from_nanos(delta(&mut rng)), id);
    }
    let t = secs(|| {
        for id in 0..OPS {
            let (at, _) = q.pop().expect("queue held steady");
            q.push(Time::from_nanos(at.as_nanos() + delta(&mut rng)), id);
        }
    });
    black_box(q.len());
    (t, OPS)
}

/// `EventQueue` hold-steady at fleet depth: 5*10^5 outstanding events,
/// nine in ten of them deadlines a constant 40 s after their arrival (the
/// fleet's tombstones), the rest acks an RTT or so out.
fn sched_deep(seed: u64) -> (f64, u64) {
    const DEPTH: u64 = 500_000;
    const OPS: u64 = 1_000_000;
    const DEADLINE: u64 = 40_000_000_000;
    let mut rng = SimRng::new(seed ^ 0xDEE9);
    let mut q: EventQueue<bool> = EventQueue::new(SchedKind::from_env());
    for i in 0..DEPTH {
        if i % 10 == 0 {
            q.push(Time::from_nanos(rng.uniform_u64(0, 54_000_000)), false);
        } else {
            q.push(Time::from_nanos(i * (DEADLINE / DEPTH)), true);
        }
    }
    let t = secs(|| {
        for _ in 0..OPS {
            let (at, deadline) = q.pop().expect("queue held steady");
            let d = if deadline {
                DEADLINE
            } else {
                rng.uniform_u64(36_000_000, 54_000_000)
            };
            q.push(Time::from_nanos(at.as_nanos() + d), deadline);
        }
    });
    black_box(q.len());
    (t, OPS)
}

/// `LinkDir::transit` at line rate on a 100 Mbps link.
fn link_transit(seed: u64, impaired: bool) -> (f64, u64) {
    const PKTS: u64 = 1_000_000;
    const WIRE: u32 = 1392;
    let owd = Dur::from_millis(18);
    let mut cfg = LinkConfig::shaped(RateSchedule::fixed_mbps(100.0), owd, owd + owd);
    if impaired {
        cfg = cfg
            .with_loss(0.01)
            .with_jitter(Jitter::Uniform(Dur::from_millis(10)));
    }
    let mut link = LinkDir::new(cfg, SimRng::new(seed ^ 0x11C4));
    // One packet per serialization time keeps the queue short of its
    // drop-tail limit: every packet takes the shaping path.
    let gap = Dur::from_nanos(u64::from(WIRE) * 8 * 10);
    let mut now = Time::ZERO;
    let mut delivered = 0u64;
    let t = secs(|| {
        for _ in 0..PKTS {
            if let longlook_sim::Verdict::DeliverAt(_) = link.transit(now, WIRE) {
                delivered += 1;
            }
            now += gap;
        }
    });
    black_box(delivered);
    (t, PKTS)
}

/// `SlotPool` at fleet concurrency: 10^5 live slots, then free the
/// oldest, allocate, resolve — three operations per turn.
fn arena(_seed: u64) -> (f64, u64) {
    const LIVE: usize = 100_000;
    const TURNS: u64 = 1_000_000;
    let mut pool = SlotPool::with_capacity(LIVE);
    let mut handles: VecDeque<_> = (0..LIVE).map(|_| pool.alloc()).collect();
    let mut hits = 0u64;
    let t = secs(|| {
        for _ in 0..TURNS {
            let old = handles.pop_front().expect("pool held steady");
            pool.free(old);
            let new = pool.alloc();
            hits += u64::from(pool.resolve(new).is_some());
            hits += u64::from(pool.resolve(old).is_some());
            handles.push_back(new);
        }
    });
    black_box(hits);
    (t, TURNS * 3)
}

// --- wire -------------------------------------------------------------

/// `QuicPacket::encoded_len` + `wire_size`: what the structured wire path
/// computes per data packet in place of encoding it.
fn quic_len(_seed: u64) -> (f64, u64) {
    const PKTS: u64 = 2_000_000;
    let mut pkt = QuicPacket {
        conn_id: 7,
        pn: 0,
        frames: vec![
            Frame::Stream {
                id: 3,
                offset: 0,
                len: 1200,
                fin: false,
            },
            Frame::Ack {
                largest: 0,
                ack_delay_us: 40,
                blocks: vec![(0, 0)],
            },
        ],
    };
    let mut sum = 0u64;
    let t = secs(|| {
        for pn in 0..PKTS {
            pkt.pn = pn;
            let p = black_box(&pkt);
            sum += u64::from(p.encoded_len()) + u64::from(p.wire_size());
        }
    });
    black_box(sum);
    (t, PKTS)
}

/// One impaired cell, the input of every trace rung: 4 MiB over QUIC at
/// 1 % loss, which visits recovery often enough to make a varied trace.
fn trace_scenario(seed: u64) -> Scenario {
    Scenario::new(
        NetProfile::baseline(20.0).with_loss(0.01),
        Page::single(4 * 1024 * 1024),
    )
    .with_rounds(1)
    .with_seed(seed ^ 0x7ACE)
    .cold()
}

// --- transport --------------------------------------------------------

/// `CongestionControl` trait calls on a synthetic stream: a send and an
/// ack per packet at a 50 ms RTT, a congestion event every 1000 packets.
fn cubic(_seed: u64) -> (f64, u64) {
    const ACKS: u64 = 1_000_000;
    const MSS: u64 = 1350;
    let mut cc: Box<dyn CongestionControl> =
        Box::new(Cubic::new(CubicConfig::quic34(MSS), Time::ZERO));
    let mut rtt = RttEstimator::new(Dur::from_millis(100));
    rtt.on_sample(Dur::from_millis(50), Dur::ZERO);
    let mut in_flight = 0u64;
    let t = secs(|| {
        for i in 0..ACKS {
            let now = Time::from_nanos(i * 100_000);
            let sent_at = Time::from_nanos((i * 100_000).saturating_sub(50_000_000));
            in_flight += MSS;
            cc.on_packet_sent(now, MSS, in_flight);
            if i % 1000 == 999 {
                cc.on_congestion_event(now, sent_at, MSS, in_flight);
            } else {
                cc.on_ack(now, sent_at, MSS, &rtt, in_flight, false);
            }
            in_flight -= MSS;
        }
    });
    black_box(cc.cwnd());
    (t, ACKS)
}

/// A client/server connection pair pumped by the harness through a
/// fixed-delay FIFO each way: no `World`, no link model, no host agent.
/// The client requests one object, the server sends it; with `lossy` the
/// harness drops every 100th packet in each direction. Returns the timed
/// seconds, the packets both sides put on the wire and the server's
/// retransmissions, or `None` if the transfer stalls (reported as 0 ns).
fn pump(proto: &ProtoConfig, bytes: u64, lossy: bool) -> Option<(f64, u64, u64)> {
    let flow = FlowId(1);
    let delay = Dur::from_millis(18);
    let mut client = proto.client_conn(flow, false, Time::ZERO);
    let mut server: Option<Box<dyn Connection>> = None;
    let mut to_server: VecDeque<(Time, Payload)> = VecDeque::new();
    let mut to_client: VecDeque<(Time, Payload)> = VecDeque::new();
    let mut now = Time::ZERO;
    let mut pkts = 0u64;
    let mut done = false;
    let mut got = 0u64;

    let t = secs(|| {
        // Far more turns than any transfer here needs; a stall ends the
        // loop instead of hanging the benchmark.
        for _ in 0..50_000_000u64 {
            while to_server.front().is_some_and(|p| p.0 <= now) {
                let (_, payload) = to_server.pop_front().expect("checked");
                server
                    .get_or_insert_with(|| proto.server_conn(flow, now))
                    .on_datagram(payload, now);
            }
            while to_client.front().is_some_and(|p| p.0 <= now) {
                let (_, payload) = to_client.pop_front().expect("checked");
                client.on_datagram(payload, now);
            }
            if client.next_wakeup().is_some_and(|w| w <= now) {
                client.on_wakeup(now);
            }
            if let Some(s) = server.as_mut() {
                if s.next_wakeup().is_some_and(|w| w <= now) {
                    s.on_wakeup(now);
                }
            }

            while let Some(ev) = client.poll_event() {
                match ev {
                    AppEvent::HandshakeDone => {
                        let id = client.open_stream(now).expect("first stream");
                        client.stream_send(now, id, Page::request_len(0), true);
                    }
                    AppEvent::StreamData { bytes, .. } => got += bytes,
                    AppEvent::StreamFin(_) => done = true,
                    AppEvent::StreamOpened(_) => {}
                }
            }
            if let Some(s) = server.as_mut() {
                while let Some(ev) = s.poll_event() {
                    if let AppEvent::StreamFin(id) = ev {
                        s.stream_send(now, id, RESPONSE_HEADER + bytes, true);
                    }
                }
            }

            while let Some(tx) = client.poll_transmit(now) {
                pkts += 1;
                if !(lossy && pkts.is_multiple_of(100)) {
                    to_server.push_back((now + delay, tx.payload));
                }
            }
            if let Some(s) = server.as_mut() {
                while let Some(tx) = s.poll_transmit(now) {
                    pkts += 1;
                    if !(lossy && pkts.is_multiple_of(100)) {
                        to_client.push_back((now + delay, tx.payload));
                    }
                }
            }
            if done {
                break;
            }

            let next = [
                to_server.front().map(|p| p.0),
                to_client.front().map(|p| p.0),
                client.next_wakeup(),
                server.as_ref().and_then(|s| s.next_wakeup()),
            ]
            .into_iter()
            .flatten()
            .min();
            match next {
                Some(t) => now = now.max(t),
                None => break,
            }
        }
    });
    let retx = server.map_or(0, |s| s.stats().retransmissions);
    (done && got == RESPONSE_HEADER + bytes).then_some((t, pkts, retx))
}

// --- quic -------------------------------------------------------------

/// One step of a pre-generated sender script.
enum QuicOp {
    Sent(u64),
    Ack(u64, Vec<(u64, u64)>),
}

/// A sender's view of a `pkts`-packet transfer with 100 packets in
/// flight: every packet sent, and the ack frames a real `AckTracker`
/// receiving them (minus every 50th, with `holes`) would send back, one
/// per two packets.
fn quic_script(pkts: u64, holes: bool) -> Vec<QuicOp> {
    const WINDOW: u64 = 100;
    let mut rx = AckTracker::default();
    let mut ops = Vec::new();
    for pn in 1..=pkts {
        ops.push(QuicOp::Sent(pn));
        let Some(arrived) = pn.checked_sub(WINDOW).filter(|&p| p > 0) else {
            continue;
        };
        if holes && arrived % 50 == 0 {
            continue;
        }
        let now = Time::from_nanos(arrived * 100_000);
        rx.on_packet(arrived, now, true, 2, Dur::from_millis(25));
        if rx.ack_due(now, 2) {
            if let Some((largest, _, blocks)) = rx.build_ack(now) {
                ops.push(QuicOp::Ack(largest, blocks));
            }
        }
    }
    ops
}

/// `SentStore::on_sent` / `on_ack_frame` replaying a script.
fn sent_store(script: &[QuicOp]) -> (f64, u64) {
    let mut store = SentStore::from_env();
    let mut lost = 0usize;
    let mut sent = 0u64;
    let t = secs(|| {
        for op in script {
            match op {
                QuicOp::Sent(pn) => {
                    sent += 1;
                    let mut chunks = store.take_spare_chunks();
                    chunks.push(Chunk {
                        id: 3,
                        offset: pn * 1300,
                        len: 1300,
                        fin: false,
                    });
                    store.on_sent(SentPacket {
                        pn: *pn,
                        sent_at: Time::from_nanos(pn * 100_000),
                        wire_bytes: 1392,
                        chunks,
                        handshake: None,
                        wu_streams: Vec::new(),
                        retransmittable: true,
                        nacks: 0,
                    });
                }
                QuicOp::Ack(largest, blocks) => {
                    let now = Time::from_nanos((largest + 100) * 100_000);
                    let out = store.on_ack_frame(now, *largest, Dur::ZERO, blocks, 3, None);
                    lost += out.lost.len();
                }
            }
        }
    });
    black_box((lost, store.outstanding()));
    (t, sent)
}

// --- tcp --------------------------------------------------------------

/// One step of a pre-generated TCP sender script.
enum TcpOp {
    Sent(u64),
    Ack(u64, Vec<(u64, u64)>),
}

const SEG: u32 = 1448;

/// Receiver half of the TCP script: cumulative ack plus SACK ranges.
#[derive(Default)]
struct TcpReceiver {
    next: u64,
    /// Out-of-order data, start -> end (exclusive), disjoint.
    ooo: BTreeMap<u64, u64>,
}

impl TcpReceiver {
    /// Take one segment; return the ack it elicits: the cumulative ack and
    /// up to three SACK blocks, the one holding this segment first.
    fn on_segment(&mut self, seq: u64) -> (u64, Vec<(u64, u64)>) {
        let end = seq + u64::from(SEG);
        let mut first = None;
        if seq == self.next {
            self.next = end;
            while let Some((&s, &e)) = self.ooo.first_key_value() {
                if s > self.next {
                    break;
                }
                self.ooo.remove(&s);
                self.next = self.next.max(e);
            }
        } else if seq > self.next {
            let (mut s, mut e) = (seq, end);
            if let Some((&ps, &pe)) = self.ooo.range(..=s).next_back() {
                if pe >= s {
                    s = ps;
                    e = e.max(pe);
                    self.ooo.remove(&ps);
                }
            }
            while let Some((&ns, &ne)) = self.ooo.range(s..).next() {
                if ns > e {
                    break;
                }
                e = e.max(ne);
                self.ooo.remove(&ns);
            }
            self.ooo.insert(s, e);
            first = Some((s, e));
        }
        let mut sacks: Vec<(u64, u64)> = first.into_iter().collect();
        for (&s, &e) in self.ooo.iter().rev() {
            if sacks.len() == 3 {
                break;
            }
            if Some((s, e)) != first {
                sacks.push((s, e));
            }
        }
        (self.next, sacks)
    }
}

/// A sender's view of a `segs`-segment transfer with 100 segments in
/// flight. With `holes`, every 50th segment's first transmission is
/// dropped; the sender retransmits what the scoreboard marks lost, and
/// the retransmission arrives.
fn tcp_script(segs: u64, holes: bool) -> Vec<TcpOp> {
    const WINDOW: usize = 100;
    let mut sb = Scoreboard::new();
    let mut rx = TcpReceiver::default();
    let mut ops = Vec::new();
    // (seq, is_retransmission) in the order the network delivers them.
    let mut pipe: VecDeque<(u64, bool)> = VecDeque::new();
    let mut clock = 0u64;
    let mut sent = 0u64;
    while sent < segs || !pipe.is_empty() {
        clock += 1;
        let now = Time::from_nanos(clock * 100_000);
        if sent < segs {
            let seq = sent * u64::from(SEG);
            sent += 1;
            sb.on_sent(seq, SEG, now);
            ops.push(TcpOp::Sent(seq));
            pipe.push_back((seq, false));
        }
        // Keep WINDOW segments in flight; once everything is sent, drain.
        while pipe.len() > if sent < segs { WINDOW } else { 0 } {
            let (seq, retx) = pipe.pop_front().expect("checked non-empty");
            let index = seq / u64::from(SEG);
            if holes && !retx && index % 50 == 49 {
                continue;
            }
            let (ack, sacks) = rx.on_segment(seq);
            let out = sb.on_ack(now, ack, &sacks, false, false);
            ops.push(TcpOp::Ack(ack, sacks));
            for (lost_seq, len) in out.lost_ranges {
                sb.on_sent(lost_seq, len, now);
                ops.push(TcpOp::Sent(lost_seq));
                pipe.push_back((lost_seq, true));
            }
        }
    }
    ops
}

/// `Scoreboard::on_sent` / `on_ack` replaying a script.
fn scoreboard(script: &[TcpOp]) -> (f64, u64) {
    let mut sb = Scoreboard::new();
    let mut clock = 0u64;
    let mut sent = 0u64;
    let mut lost = 0usize;
    let t = secs(|| {
        for op in script {
            clock += 1;
            let now = Time::from_nanos(clock * 100_000);
            match op {
                TcpOp::Sent(seq) => {
                    sent += 1;
                    sb.on_sent(*seq, SEG, now);
                }
                TcpOp::Ack(ack, sacks) => {
                    lost += sb.on_ack(now, *ack, sacks, false, false).lost_ranges.len();
                }
            }
        }
    });
    black_box((lost, sb.pipe()));
    (t, sent)
}

// --- http / core --------------------------------------------------------

fn small_cell(seed: u64, proto: &ProtoConfig, page: &Page) -> Testbed {
    Testbed::direct(
        seed,
        &NetProfile::baseline(50.0),
        DeviceProfile::DESKTOP,
        page.clone(),
        vec![FlowSpec {
            proto: proto.clone(),
            zero_rtt: true,
            app: Box::new(WebClient::new(page.clone())),
        }],
        None,
        true,
    )
}

/// Whole page loads of `page` over QUIC, build to teardown; seconds per
/// load.
fn loads(seed: u64, page: &Page, n: u64) -> f64 {
    let proto = quic();
    secs(|| {
        for i in 0..n {
            let mut tb = small_cell(seed.wrapping_add(i), &proto, page);
            tb.run(Dur::from_secs(600));
            assert!(
                tb.client_host().app::<WebClient>(0).plt().is_some(),
                "micro-rung page load did not finish"
            );
        }
    })
}

/// Every micro-rung, measured now, in reporting order.
pub fn all(seed: u64) -> Vec<Metric> {
    let mut l = Ladder {
        carried: None,
        out: Vec::new(),
    };

    l.rung("sim.sched.shallow_ns_per_op", || sched_shallow(seed));
    l.rung("sim.sched.deep_ns_per_op", || sched_deep(seed));
    l.rung("sim.link.clean_ns_per_pkt", || link_transit(seed, false));
    l.rung("sim.link.impaired_ns_per_pkt", || link_transit(seed, true));
    l.rung("sim.arena.ns_per_op", || arena(seed));

    l.rung("wire.quic.len_ns_per_pkt", || quic_len(seed));
    // Trace rungs: one impaired cell run plain and traced, then the
    // trace's records through encode, parse, the analyzer and inference.
    let sc = trace_scenario(seed);
    let proto = quic();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut records = Vec::new();
    for _ in 0..REPS {
        plain.push(secs(|| drop(black_box(run_trauma_cell(&proto, &sc, 0)))));
        traced.push(secs(|| {
            records = run_trauma_cell_traced(&proto, &sc, 0).1;
        }));
    }
    let n = records.len().max(1) as u64;
    let mut text = String::new();
    l.rung("wire.trace.encode_ns_per_rec", || {
        (secs(|| text = encode_seq(&records)), n)
    });
    l.rung("wire.trace.parse_ns_per_rec", || {
        (
            secs(|| {
                black_box(parse_seq(&text).expect("own encoding parses").len());
            }),
            n,
        )
    });
    l.value(
        "wire.trace.on_overhead",
        crate::estimate::min(&traced) / crate::estimate::min(&plain),
        "ratio",
    );

    l.rung("transport.cubic.ns_per_ack", || cubic(seed));
    const PUMP_BYTES: u64 = 64 * 1024 * 1024;
    for (name, proto, lossy) in [
        ("transport.pump.quic_ns_per_pkt", quic(), false),
        ("transport.pump.tcp_ns_per_pkt", tcp(), false),
        ("transport.pump.quic_lossy_ns_per_pkt", quic(), true),
        ("transport.pump.tcp_lossy_ns_per_pkt", tcp(), true),
    ] {
        // A stalled pump reports 0 ns: visible, and not a panic.
        l.rung(name, || {
            pump(&proto, PUMP_BYTES, lossy).map_or((0.0, 1), |(t, pkts, _)| (t, pkts))
        });
    }

    const SCRIPT_LEN: u64 = 200_000;
    let clean = quic_script(SCRIPT_LEN, false);
    let holes = quic_script(SCRIPT_LEN, true);
    l.rung("quic.sent.clean_ns_per_pkt", || sent_store(&clean));
    l.rung("quic.sent.holes_ns_per_pkt", || sent_store(&holes));
    drop((clean, holes));
    let clean = tcp_script(SCRIPT_LEN, false);
    let holes = tcp_script(SCRIPT_LEN, true);
    l.rung("tcp.scoreboard.clean_ns_per_seg", || scoreboard(&clean));
    l.rung("tcp.scoreboard.sack_ns_per_seg", || scoreboard(&holes));
    drop((clean, holes));

    // (200-object load - 1-object load) / 199: what one more object on an
    // open connection costs, handshake and teardown cancelled out.
    let one = Page::uniform(1, 10 * 1024);
    let many = Page::uniform(200, 10 * 1024);
    l.rung("http.ns_per_object", || {
        let a = loads(seed, &one, 20) / 20.0;
        let b = loads(seed, &many, 20) / 20.0;
        ((b - a).max(0.0), 199)
    });

    let tiny = Page::single(5 * 1024);
    let mut build_allocs = 0u64;
    l.rung("core.testbed.build_ns", || {
        const N: u64 = 2_000;
        let proto = quic();
        let mut t = 0.0;
        let mut allocs = 0;
        for i in 0..N {
            // Build timed, teardown not: each testbed is dropped before
            // the next is built, as in a sweep.
            alloc::reset();
            let t0 = Instant::now();
            let tb = small_cell(seed.wrapping_add(i), &proto, &tiny);
            t += t0.elapsed().as_secs_f64();
            allocs += alloc::snapshot().allocs;
            drop(black_box(tb));
        }
        build_allocs = allocs / N;
        (t, N)
    });
    l.value("core.testbed.build_allocs", build_allocs as f64, "count");
    l.rung("core.cell.small_ns", || (loads(seed, &tiny, 2_000), 2_000));

    // One figure's sweep on two workers over the same sweep serial. Guards
    // `-j` users; moves no end-to-end metric (every timed region is
    // serial). Skipped, as 0, where the host has one hardware thread.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = if threads >= 2 {
        let sweep = |par| {
            secs(|| {
                let rows = vec!["10Mbps".to_string(), "50Mbps".to_string()];
                let cols = vec!["100KB".to_string(), "1MB".to_string()];
                let sizes = [100 * 1024, 1024 * 1024];
                let rates = [10.0, 50.0];
                let map = sweep_heatmap_par(
                    "observatory speedup_j2",
                    &rows,
                    &cols,
                    &quic(),
                    &tcp(),
                    |r, c| {
                        Scenario::new(NetProfile::baseline(rates[r]), Page::single(sizes[c]))
                            .with_rounds(10)
                            .with_seed(seed.wrapping_add((r * 2 + c) as u64))
                    },
                    par,
                );
                black_box(map.render_ascii().len());
            })
        };
        let serial: Vec<f64> = (0..REPS).map(|_| sweep(Parallelism::Serial)).collect();
        let two: Vec<f64> = (0..REPS).map(|_| sweep(Parallelism::Threads(2))).collect();
        l.carried = None;
        crate::estimate::min(&serial) / crate::estimate::min(&two)
    } else {
        0.0
    };
    l.value("core.runner.speedup_j2", speedup, "ratio");

    // --- stats / statemachine ------------------------------------------
    l.rung("stats.welch.ns_per_cell", || {
        const CELLS: u64 = 20_000;
        let mut rng = SimRng::new(seed ^ 0x3E1C);
        let a: Vec<f64> = (0..10).map(|_| rng.uniform(90.0, 110.0)).collect();
        let b: Vec<f64> = (0..10).map(|_| rng.uniform(95.0, 125.0)).collect();
        let mut wins = 0u64;
        let t = secs(|| {
            for _ in 0..CELLS {
                let cmp = Comparison::lower_is_better(black_box(&a), black_box(&b));
                wins += u64::from(HeatmapCell::from_comparison(&cmp).p_value.is_some());
            }
        });
        black_box(wins);
        (t, CELLS)
    });
    l.rung("stats.sketch.insert_ns", || {
        const N: u64 = 2_000_000;
        let mut rng = SimRng::new(seed ^ 0x5CE7);
        let xs: Vec<f64> = (0..4096).map(|_| rng.uniform(1.0, 40_000.0)).collect();
        let mut sk = QuantileSketch::new();
        let t = secs(|| {
            for i in 0..N {
                sk.add(xs[(i & 4095) as usize]);
            }
        });
        black_box(sk.p99());
        (t, N)
    });
    let runs: Vec<RunRecord> = (0..4)
        .map(|k| run_page_load(&proto, &trace_scenario(seed), k))
        .collect();
    let visits: u64 = runs
        .iter()
        .filter_map(|r| r.server_trace.as_ref())
        .map(|t| t.visits.len() as u64)
        .sum();
    l.rung("statemachine.infer_ns_per_visit", || {
        const TIMES: u64 = 200;
        let t = secs(|| {
            for _ in 0..TIMES {
                black_box(infer_from_records(black_box(&runs)).render_text().len());
            }
        });
        (t, visits.max(1) * TIMES)
    });
    l.rung("core.traceview.report_ns_per_rec", || {
        (
            secs(|| {
                black_box(render_report(&records).len());
            }),
            n,
        )
    });

    l.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_moves_every_byte_over_both_protocols_clean_and_lossy() {
        for proto in [quic(), tcp()] {
            for lossy in [false, true] {
                let (t, pkts, retx) = pump(&proto, 2 * 1024 * 1024, lossy)
                    .unwrap_or_else(|| panic!("{} lossy={lossy} stalled", proto.name()));
                assert!(t > 0.0);
                // 2 MiB is ~1500 full packets down, plus acks back.
                assert!(pkts > 1_500, "{} sent only {pkts} packets", proto.name());
                // Only the harness drops packets: the clean pump never
                // retransmits, the lossy one must.
                assert_eq!(retx > 0, lossy, "{} retransmitted {retx}", proto.name());
            }
        }
    }

    #[test]
    fn scripts_exercise_the_path_they_are_named_for() {
        let count = |ops: &[QuicOp]| {
            ops.iter()
                .filter_map(|op| match op {
                    QuicOp::Ack(_, blocks) => Some(blocks.len()),
                    QuicOp::Sent(_) => None,
                })
                .max()
        };
        assert_eq!(
            count(&quic_script(20_000, false)),
            Some(1),
            "clean acks are one block"
        );
        assert!(
            count(&quic_script(20_000, true)) > Some(8),
            "holes make many blocks"
        );

        let retx = |ops: &[TcpOp]| {
            let sent = ops.iter().filter(|op| matches!(op, TcpOp::Sent(_))).count();
            sent - 20_000
        };
        assert_eq!(retx(&tcp_script(20_000, false)), 0);
        // Every 50th of 2*10^4 segments is dropped once and resent at least
        // once (the dupack fallback resends some a second time).
        assert!(retx(&tcp_script(20_000, true)) >= 400);
    }

    #[test]
    fn tcp_receiver_merges_ranges_and_acks_cumulatively() {
        let s = u64::from(SEG);
        let mut rx = TcpReceiver::default();
        assert_eq!(rx.on_segment(0), (s, vec![]));
        assert_eq!(rx.on_segment(2 * s), (s, vec![(2 * s, 3 * s)]));
        assert_eq!(rx.on_segment(3 * s), (s, vec![(2 * s, 4 * s)]));
        assert_eq!(
            rx.on_segment(6 * s),
            (s, vec![(6 * s, 7 * s), (2 * s, 4 * s)])
        );
        // Filling the first hole releases the merged range behind it.
        assert_eq!(rx.on_segment(s), (4 * s, vec![(6 * s, 7 * s)]));
    }
}
