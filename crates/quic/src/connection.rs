//! The QUIC connection state machine.
//!
//! Implements [`longlook_transport::Connection`]: a sans-IO gQUIC-like
//! endpoint with 0-RTT/1-RTT handshake, multiplexed streams with two-level
//! flow control, ack decimation, NACK-threshold + optional time-based loss
//! detection, tail loss probes, RTO with backoff, Cubic or BBR congestion
//! control, pacing, and the Table 3 state instrumentation.

use crate::config::{CcKind, QuicConfig, CONN_RECV_WINDOW_MAX, STREAM_RECV_WINDOW_MAX};
use crate::recv_ack::AckTracker;
use crate::sent::{SentPacket, SentStore};
use crate::streams::{Chunk, StreamTable};
use crate::wire::{Frame, HandshakeKind, QuicPacket, MAX_ACK_BLOCKS, MAX_PACKET_PAYLOAD};
use longlook_sim::packet::Payload;
use longlook_sim::pool;
use longlook_sim::time::{Dur, Time};
use longlook_sim::trace::RecoveryKind;
use longlook_transport::cc::CongestionControl;
use longlook_transport::ccstate::StateTrace;
use longlook_transport::chassis::{ConnTelemetry, RecoveryTimer, Watchdog};
use longlook_transport::conn::{
    AppEvent, ConnError, ConnStats, Connection, StreamId, Transmit, UDP_OVERHEAD,
};
use longlook_transport::cubic::Cubic;
use longlook_transport::pacing::Pacer;
use longlook_transport::rtt::{RttEstimator, INITIAL_RTT};
use longlook_transport::Bbr;
use std::collections::VecDeque;

/// Ack after this many unacked retransmittable packets (gQUIC's ack
/// decimation), or when the delayed-ack timer fires first.
const ACK_EVERY: u32 = 2;

/// The first stream id an endpoint opens; it opens every second id after
/// it. Stream 0 is the connection-level window.
fn first_own_stream(role: Role) -> u32 {
    match role {
        Role::Client => 3,
        Role::Server => 2,
    }
}

/// Which end of the connection we are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Initiates the handshake.
    Client,
    /// Accepts it.
    Server,
}

impl Role {
    fn peer(self) -> Role {
        match self {
            Role::Client => Role::Server,
            Role::Server => Role::Client,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handshake {
    /// Client sent an inchoate CHLO and awaits the REJ (1-RTT path).
    AwaitingRej,
    /// Server awaits a CHLO.
    AwaitingChlo,
    /// Crypto complete; data flows.
    Established,
}

/// A gQUIC-like connection.
pub struct QuicConnection {
    cfg: QuicConfig,
    role: Role,
    conn_id: u64,
    hs: Handshake,
    /// Handshake messages waiting to be sent.
    hs_queue: VecDeque<HandshakeKind>,
    /// Client learned the server config from a REJ (caller caches it to
    /// unlock 0-RTT next time).
    learned_server_config: bool,
    used_zero_rtt: bool,
    /// Server already sent a REJ refusing early data (one-shot).
    rej_sent: bool,
    /// Client's 0-RTT attempt was rejected; it fell back to 1-RTT.
    zero_rtt_rejected: bool,

    /// Give-up deadlines.
    watchdog: Watchdog,

    next_pn: u64,
    sent: SentStore,
    acks: AckTracker,
    rtt: RttEstimator,
    cc: Box<dyn CongestionControl>,
    pacer: Pacer,
    nack_threshold: u32,

    /// Per-stream state and the send schedule over it.
    streams: StreamTable,
    next_stream_id: u32,
    /// Streams we opened that the peer has not finished yet (MSPC gate).
    open_initiated: u32,
    /// The largest peer-initiated stream id a frame has named (the first
    /// peer id − 2 before any has): the base of the peer id bound.
    largest_peer_stream: u32,

    // Connection-level flow control.
    conn_send_limit: u64,
    conn_fresh_sent: u64,
    conn_delivered: u64,
    conn_advertised: u64,
    /// Current (auto-tuned) connection receive window.
    conn_window: u64,
    /// Current (auto-tuned) per-stream receive window.
    stream_window: u64,
    /// When the previous connection window update was queued.
    last_conn_update: Option<Time>,
    /// When the previous stream window update was queued (any stream).
    last_stream_update: Option<Time>,
    /// Window updates queued for transmission: (stream, max_offset).
    wu_queue: VecDeque<(u32, u64)>,

    /// TLP/RTO timer over `sent`'s retransmittable packets.
    recovery: RecoveryTimer,
    /// Probe transmission requested by the TLP timer.
    tlp_fire: bool,

    pacing_deadline: Option<Time>,
    app_limited: bool,

    /// Counters, last window, state trace, event trace, app events.
    tel: ConnTelemetry,
}

impl QuicConnection {
    /// Client connection. `zero_rtt` = the caller holds a cached server
    /// config for this destination.
    pub fn client(cfg: QuicConfig, conn_id: u64, zero_rtt: bool, now: Time) -> Self {
        let mut c = Self::new_common(cfg, conn_id, Role::Client, now);
        if zero_rtt {
            c.establish(now);
            c.used_zero_rtt = true;
            c.hs_queue.push_back(HandshakeKind::FullChlo);
        } else {
            c.hs = Handshake::AwaitingRej;
            c.hs_queue.push_back(HandshakeKind::InchoateChlo);
        }
        c.announce_windows();
        c
    }

    /// Server connection.
    pub fn server(cfg: QuicConfig, conn_id: u64, now: Time) -> Self {
        let mut c = Self::new_common(cfg, conn_id, Role::Server, now);
        c.hs = Handshake::AwaitingChlo;
        c.announce_windows();
        c
    }

    /// Announce our receive windows in the first flight (stand-in for
    /// gQUIC's handshake window negotiation): without this, a peer whose
    /// assumed defaults are *smaller* than our actual windows would stall
    /// waiting for updates we never send.
    fn announce_windows(&mut self) {
        self.conn_advertised = self.conn_window;
        self.wu_queue.push_back((0, self.conn_window));
    }

    fn new_common(cfg: QuicConfig, conn_id: u64, role: Role, now: Time) -> Self {
        let cc: Box<dyn CongestionControl> = match cfg.cc {
            CcKind::Cubic => Box::new(Cubic::new(cfg.cubic.clone(), now)),
            CcKind::Bbr => Box::new(Bbr::new(cfg.cubic.mss, now)),
        };
        let pacer = if cfg.pacing {
            Pacer::new(10 * cfg.cubic.mss)
        } else {
            Pacer::disabled()
        };
        let next_stream_id = first_own_stream(role);
        QuicConnection {
            watchdog: Watchdog::new(now, cfg.watchdog),
            recovery: RecoveryTimer::new(cfg.tlp),
            tel: ConnTelemetry::new(now, cfg.trace, cc.state()),
            rtt: RttEstimator::new(INITIAL_RTT),
            nack_threshold: cfg.nack_threshold,
            conn_send_limit: cfg.conn_recv_window,
            conn_advertised: cfg.conn_recv_window,
            conn_window: cfg.conn_recv_window,
            stream_window: cfg.stream_recv_window,
            streams: StreamTable::new(cfg.stream_recv_window),
            cfg,
            role,
            conn_id,
            hs: Handshake::AwaitingChlo,
            hs_queue: VecDeque::new(),
            learned_server_config: false,
            used_zero_rtt: false,
            rej_sent: false,
            zero_rtt_rejected: false,
            next_pn: 1,
            sent: SentStore::default(),
            acks: AckTracker::default(),
            cc,
            pacer,
            next_stream_id,
            open_initiated: 0,
            largest_peer_stream: first_own_stream(role.peer()) - 2,
            conn_fresh_sent: 0,
            conn_delivered: 0,
            last_conn_update: None,
            last_stream_update: None,
            wu_queue: VecDeque::new(),
            tlp_fire: false,
            pacing_deadline: None,
            app_limited: false,
        }
    }

    /// Whether the client learned a server config (populate 0-RTT cache).
    pub fn server_config_learned(&self) -> bool {
        self.learned_server_config || (self.role == Role::Client && self.used_zero_rtt)
    }

    /// Whether this connection actually used 0-RTT establishment.
    pub fn used_zero_rtt(&self) -> bool {
        self.used_zero_rtt
    }

    /// Whether a 0-RTT attempt was refused by the server and the client
    /// fell back to a full 1-RTT handshake.
    pub fn zero_rtt_rejected(&self) -> bool {
        self.zero_rtt_rejected
    }

    /// The connection id.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// Streams the send scheduler has examined so far.
    #[cfg(test)]
    pub(crate) fn stream_probes(&self) -> u64 {
        self.streams.probes
    }

    /// Every caller is in a pre-established state, so `HandshakeDone` is
    /// emitted exactly once.
    fn establish(&mut self, _now: Time) {
        debug_assert!(self.hs != Handshake::Established);
        self.hs = Handshake::Established;
        self.tel.events.push_back(AppEvent::HandshakeDone);
    }

    fn on_handshake_frame(&mut self, kind: HandshakeKind, now: Time) {
        match (self.role, kind) {
            (Role::Server, HandshakeKind::InchoateChlo) if self.hs == Handshake::AwaitingChlo => {
                // The REJ carries a fresh server config, so any FullCHLO
                // that follows it is acceptable even under 0-RTT refusal.
                self.rej_sent = true;
                self.hs_queue.push_back(HandshakeKind::Rej);
            }
            (Role::Server, HandshakeKind::FullChlo) if self.hs != Handshake::Established => {
                self.establish(now);
                self.hs_queue.push_back(HandshakeKind::Shlo);
            }
            (Role::Client, HandshakeKind::Rej) if self.hs == Handshake::AwaitingRej => {
                self.learned_server_config = true;
                self.establish(now);
                self.hs_queue.push_back(HandshakeKind::FullChlo);
            }
            // 0-RTT rejection: the server refused our early data. Fall
            // back to 1-RTT — declare everything outstanding lost (the
            // server dropped it unacked), refresh the config, and
            // re-drive the full handshake. One-shot: a duplicated REJ
            // must not re-trigger the fallback (it falls to the ignore
            // arm below).
            (Role::Client, HandshakeKind::Rej)
                if self.hs == Handshake::Established
                    && self.used_zero_rtt
                    && !self.zero_rtt_rejected =>
            {
                self.zero_rtt_rejected = true;
                self.learned_server_config = true;
                let lost = self.sent.declare_oldest_lost(usize::MAX);
                let had_chlo = lost
                    .iter()
                    .any(|p| matches!(p.handshake, Some(HandshakeKind::FullChlo)));
                for pkt in &lost {
                    self.tel.tracer.loss(now.as_nanos(), pkt.pn);
                    self.requeue_lost(pkt);
                }
                if !had_chlo {
                    self.hs_queue.push_back(HandshakeKind::FullChlo);
                }
                self.arm_recovery(now);
            }
            (Role::Client, HandshakeKind::Shlo) => {
                // Forward secure keys; nothing further to do in the model.
            }
            _ => {} // Ignore nonsensical combinations.
        }
    }

    /// Whether a STREAM or WINDOW_UPDATE frame for `id` may reach the
    /// stream table. Refused, before any record exists, are the ids no
    /// legal peer could send a frame for:
    /// - an id of our parity that we never opened;
    /// - a peer id past `largest_peer_stream + 2 × max_streams`. The peer
    ///   opens a new id only while fewer than `max_streams` of its streams
    ///   lack our FIN, and every peer id above the largest we have seen is
    ///   such a stream, so a legal peer never reaches past the bound. Both
    ///   ends must run the same `max_streams` for this to hold (see
    ///   [`QuicConfig::max_streams`]).
    ///
    /// An admitted peer id raises `largest_peer_stream`.
    fn admit_stream(&mut self, id: u32) -> bool {
        if id % 2 == self.next_stream_id % 2 {
            return (first_own_stream(self.role)..self.next_stream_id).contains(&id);
        }
        if id as u64 > self.largest_peer_stream as u64 + 2 * self.cfg.max_streams as u64 {
            return false;
        }
        self.largest_peer_stream = self.largest_peer_stream.max(id);
        true
    }

    fn on_stream_frame(&mut self, id: u32, offset: u64, len: u32, fin: bool, now: Time) {
        // 0-RTT data on the server implies a valid cached config.
        if self.role == Role::Server && self.hs != Handshake::Established {
            self.establish(now);
            self.hs_queue.push_back(HandshakeKind::Shlo);
        }
        let peer_initiated = (id % 2) != (self.next_stream_id % 2);
        let rec = self.streams.rec_mut(id);
        if peer_initiated && !rec.announced {
            rec.announced = true;
            self.tel
                .events
                .push_back(AppEvent::StreamOpened(StreamId(id as u64)));
            rec.advertised = Some(self.stream_window);
            self.wu_queue.push_back((id, self.stream_window));
        }
        let newly = rec.recv.on_chunk(offset, len, fin);
        if newly > 0 {
            self.conn_delivered += newly;
            self.tel.events.push_back(AppEvent::StreamData {
                id: StreamId(id as u64),
                bytes: newly,
            });
            // gQUIC auto-tuning: if two consecutive updates are closer
            // than 2 x sRTT the window may be the bottleneck — double it
            // (up to the ceiling).
            let srtt = self.rtt.srtt();
            let fast =
                |last: Option<Time>| last.is_some_and(|t| now.saturating_since(t) < srtt * 2);
            // Connection level.
            let target = self.conn_delivered + self.conn_window;
            if target.saturating_sub(self.conn_advertised) >= self.conn_window / 2 {
                if self.cfg.flow_auto_tune && fast(self.last_conn_update) {
                    self.conn_window = (self.conn_window * 2).min(CONN_RECV_WINDOW_MAX);
                }
                self.last_conn_update = Some(now);
                let target = self.conn_delivered + self.conn_window;
                self.conn_advertised = target;
                self.wu_queue.push_back((0, target));
            }
            // Stream level.
            let delivered = rec.recv.delivered();
            let adv = rec.advertised.get_or_insert(self.cfg.stream_recv_window);
            let target = delivered + self.stream_window;
            if target.saturating_sub(*adv) >= self.stream_window / 2 {
                if self.cfg.flow_auto_tune && fast(self.last_stream_update) {
                    self.stream_window = (self.stream_window * 2).min(STREAM_RECV_WINDOW_MAX);
                }
                self.last_stream_update = Some(now);
                let target = delivered + self.stream_window;
                *adv = target;
                self.wu_queue.push_back((id, target));
            }
        }
        if rec.recv.take_fin() {
            self.tel
                .events
                .push_back(AppEvent::StreamFin(StreamId(id as u64)));
            // A stream we initiated is finished by the peer: free an MSPC slot.
            if !peer_initiated {
                self.open_initiated = self.open_initiated.saturating_sub(1);
            }
        }
    }

    fn process_ack(&mut self, largest: u64, ack_delay_us: u64, blocks: &[(u64, u64)], now: Time) {
        let time_threshold = if self.cfg.time_loss_detection {
            Some(self.rtt.srtt().mul_f64(1.25))
        } else {
            None
        };
        let out = self.sent.on_ack_frame(
            now,
            largest,
            Dur::from_micros(ack_delay_us),
            blocks,
            self.nack_threshold,
            time_threshold,
        );
        if let Some(sample) = out.rtt_sample {
            self.rtt.on_sample(sample, Dur::from_micros(ack_delay_us));
        }
        if out.spurious > 0 {
            self.tel.stats.spurious_retransmissions += out.spurious as u64;
            if self.cfg.adaptive_nack {
                // RR-TCP-style: grow the tolerance when reordering is
                // proven, up to a sane cap.
                self.nack_threshold = (self.nack_threshold * 2).min(64);
            }
        }
        if out.acked_new_data {
            self.recovery.on_new_data_acked();
            self.tel.stats.bytes_acked += out.acked_payload_bytes;
        }
        if out.newly_acked_bytes > 0 {
            self.cc.on_ack(
                now,
                out.newest_acked_sent_at.unwrap_or(now),
                out.newly_acked_bytes,
                &self.rtt,
                self.sent.bytes_in_flight(),
                self.app_limited,
            );
        }
        self.tel.tracer.ack(now.as_nanos(), out.newly_acked_bytes);
        for lost in &out.lost {
            self.tel.stats.losses_detected += 1;
            self.tel.tracer.loss(now.as_nanos(), lost.pn);
            self.requeue_lost(lost);
            self.cc.on_congestion_event(
                now,
                lost.sent_at,
                lost.wire_bytes as u64,
                self.sent.bytes_in_flight(),
            );
        }
        self.arm_recovery(now);
        self.tel.log_cwnd(now, self.cc.cwnd());
    }

    fn requeue_lost(&mut self, lost: &SentPacket) {
        for chunk in &lost.chunks {
            self.tel.stats.retransmissions += 1;
            self.streams.on_chunk_lost(chunk);
        }
        if let Some(kind) = lost.handshake {
            self.hs_queue.push_back(kind);
        }
        // Re-announce current flow-control windows that were lost with
        // this packet (idempotent: the peer takes the max).
        for &stream in &lost.wu_streams {
            let current = if stream == 0 {
                self.conn_advertised
            } else {
                self.streams
                    .get(stream)
                    .and_then(|rec| rec.advertised)
                    .unwrap_or(self.stream_window)
            };
            self.wu_queue.push_back((stream, current));
        }
    }

    fn arm_recovery(&mut self, now: Time) {
        self.recovery.rearm(
            now,
            self.sent.has_retransmittable(),
            &self.rtt,
            &mut self.tel.tracer,
        );
    }

    fn update_state(&mut self, now: Time) {
        self.tel.update_state(
            now,
            self.cc.state(),
            self.is_established(),
            &self.recovery,
            self.app_limited,
        );
    }

    /// Watchdog trip: stop trying, clear every pending timer and queue so
    /// the connection reads as quiescent, and surface the typed error.
    fn give_up(&mut self, err: ConnError, now: Time) {
        self.watchdog.trip(err, now, &mut self.tel.tracer);
        self.recovery.cancel();
        self.hs_queue.clear();
        self.pacing_deadline = None;
        self.tlp_fire = false;
    }

    /// Append `f` to a packet under construction, drawing the vector's
    /// storage from the thread's free list on first use.
    fn push_frame(frames: &mut Vec<Frame>, f: Frame) {
        if frames.capacity() == 0 {
            *frames = pool::take_frames();
        }
        frames.push(f);
    }

    fn frame_budget(used: u32) -> u32 {
        MAX_PACKET_PAYLOAD.saturating_sub(used)
    }

    /// Assemble and account one outgoing packet from `frames`;
    /// `wu_streams` names the window updates among them. `rate` is the
    /// pacing rate if this poll already computed it: no controller's
    /// `on_packet_sent` moves it.
    #[allow(clippy::too_many_arguments)]
    fn finalize_packet(
        &mut self,
        frames: Vec<Frame>,
        chunks: Vec<Chunk>,
        wu_streams: Vec<u32>,
        handshake: Option<HandshakeKind>,
        retransmittable: bool,
        rate: Option<f64>,
        now: Time,
    ) -> Transmit {
        let pn = self.next_pn;
        self.next_pn += 1;
        let pkt = QuicPacket {
            conn_id: self.conn_id,
            pn,
            frames,
        };
        let wire_size = pkt.wire_size() + UDP_OVERHEAD;
        self.tel.on_sent(now, pn, wire_size, retransmittable);
        if !retransmittable {
            self.tel.stats.acks_sent += 1;
        }
        self.sent.on_sent(SentPacket {
            pn,
            sent_at: now,
            wire_bytes: wire_size,
            chunks,
            handshake,
            wu_streams,
            retransmittable,
            nacks: 0,
        });
        if retransmittable {
            self.cc
                .on_packet_sent(now, wire_size as u64, self.sent.bytes_in_flight());
            let rate = rate.unwrap_or_else(|| self.cc.pacing_rate_bps(&self.rtt));
            debug_assert_eq!(
                rate.to_bits(),
                self.cc.pacing_rate_bps(&self.rtt).to_bits(),
                "on_packet_sent moved the pacing rate"
            );
            self.pacer.on_sent(now, wire_size as u64, rate);
            self.arm_recovery(now);
        }
        Transmit {
            payload: Payload::Quic(pkt),
            wire_size,
        }
    }
}

impl Connection for QuicConnection {
    fn on_datagram(&mut self, payload: Payload, now: Time) {
        self.tel.stats.packets_received += 1;
        // Flow demux never routes a TCP segment here; drop one like an
        // undecodable datagram.
        let Payload::Quic(pkt) = payload else {
            return;
        };
        if self.watchdog.gave_up() {
            return;
        }
        self.watchdog.on_progress(now);
        if self.tel.tracer.enabled() {
            let sz = (pkt.wire_size() + UDP_OVERHEAD) as u64;
            self.tel.tracer.pkt_rx(now.as_nanos(), pkt.pn, sz);
        }
        // 0-RTT rejection: a server whose cached config expired must not
        // process — or ack — early data arriving before the handshake. The
        // whole flight is dropped and a single REJ queued; the client
        // replays everything after its fallback. Once the REJ is out,
        // the retransmitted FullCHLO takes the normal 1-RTT accept path.
        if self.role == Role::Server
            && self.hs != Handshake::Established
            && !self.cfg.zero_rtt_accept
            && !self.rej_sent
            && pkt.frames.iter().any(|f| {
                matches!(f, Frame::Stream { .. })
                    || matches!(
                        f,
                        Frame::Handshake {
                            kind: HandshakeKind::FullChlo,
                            ..
                        }
                    )
            })
        {
            self.rej_sent = true;
            self.hs_queue.push_back(HandshakeKind::Rej);
            self.update_state(now);
            return;
        }
        let retransmittable = pkt.frames.iter().any(|f| {
            matches!(
                f,
                Frame::Stream { .. } | Frame::Handshake { .. } | Frame::WindowUpdate { .. }
            )
        });
        self.acks.on_packet(
            pkt.pn,
            now,
            retransmittable,
            ACK_EVERY,
            self.cfg.delayed_ack,
        );
        let mut frames = pkt.frames;
        for frame in frames.drain(..) {
            match frame {
                Frame::Stream {
                    id,
                    offset,
                    len,
                    fin,
                } => {
                    if self.admit_stream(id) {
                        self.on_stream_frame(id, offset, len, fin, now);
                    }
                }
                Frame::Ack {
                    largest,
                    ack_delay_us,
                    blocks,
                } => {
                    self.process_ack(largest, ack_delay_us, &blocks, now);
                    pool::give_blocks(blocks);
                }
                Frame::WindowUpdate { stream, max_offset } => {
                    if stream == 0 {
                        self.conn_send_limit = self.conn_send_limit.max(max_offset);
                    } else if self.admit_stream(stream) {
                        self.streams.on_window_update(stream, max_offset);
                    }
                }
                Frame::Handshake { kind, .. } => self.on_handshake_frame(kind, now),
                Frame::Ping | Frame::Blocked { .. } | Frame::Close { .. } => {}
            }
        }
        pool::give_frames(frames);
        self.update_state(now);
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Transmit> {
        if self.watchdog.gave_up() {
            return None;
        }
        // Most polls find nothing to send: `push_frame` draws the vector's
        // storage from the thread's free list only when a frame turns up.
        let mut frames: Vec<Frame> = Vec::new();
        let mut chunks: Vec<Chunk> = self.sent.take_spare_chunks();
        debug_assert!(chunks.is_empty());
        let mut used = 0u32;
        let mut retransmittable = false;
        // cc state is constant within one poll, so the pacing rate is too;
        // compute it at most once (identical f64 value).
        let mut rate: Option<f64> = None;

        // 1. Handshake messages (highest priority, not pacing/cc gated —
        //    they are few and must flow for anything else to work).
        let handshake = self.hs_queue.pop_front();
        if let Some(kind) = handshake {
            let pad = match kind {
                HandshakeKind::InchoateChlo => 1200, // padded per gQUIC
                HandshakeKind::Rej => 1300,          // server config + certs
                HandshakeKind::FullChlo => 900,
                HandshakeKind::Shlo => 300,
            };
            let f = Frame::Handshake { kind, pad };
            used += f.wire_size();
            Self::push_frame(&mut frames, f);
            retransmittable = true;
        }

        // 2. Ack if due.
        if self.acks.ack_due(now, ACK_EVERY) {
            if let Some((largest, delay, mut blocks)) = self.acks.build_ack(now) {
                // Canonicalize to the wire's block cap at build time so the
                // typed packet is exactly what an encode→decode round
                // trip would deliver.
                blocks.truncate(MAX_ACK_BLOCKS);
                let f = Frame::Ack {
                    largest,
                    ack_delay_us: (delay.as_nanos() / 1000),
                    blocks,
                };
                used += f.wire_size();
                Self::push_frame(&mut frames, f);
            }
        }

        // 3. Window updates. Their stream ids stay with the sent packet
        //    (replayed on loss), in storage an acked packet gave back.
        let mut wu_streams: Vec<u32> = Vec::new();
        while used + 13 <= MAX_PACKET_PAYLOAD {
            let Some((stream, max_offset)) = self.wu_queue.pop_front() else {
                break;
            };
            let f = Frame::WindowUpdate { stream, max_offset };
            used += f.wire_size();
            Self::push_frame(&mut frames, f);
            if wu_streams.capacity() == 0 {
                wu_streams = self.sent.take_spare_ids();
            }
            wu_streams.push(stream);
            retransmittable = true;
        }

        // 4. Stream data, gated by cc + pacing + flow control. A TLP probe
        //    bypasses the congestion window.
        if self.hs == Handshake::Established {
            let probe = std::mem::take(&mut self.tlp_fire);
            if probe {
                // Retransmit the newest outstanding packet's payload.
                let probe_chunks: Vec<Chunk> = self
                    .sent
                    .newest_retransmittable()
                    .map(|p| p.chunks.clone())
                    .unwrap_or_default();
                for c in &probe_chunks {
                    Self::push_frame(
                        &mut frames,
                        Frame::Stream {
                            id: c.id,
                            offset: c.offset,
                            len: c.len,
                            fin: c.fin,
                        },
                    );
                    chunks.push(*c);
                    retransmittable = true;
                }
                if probe_chunks.is_empty() {
                    Self::push_frame(&mut frames, Frame::Ping);
                    retransmittable = true;
                }
            } else {
                let mut sent_any_data = false;
                let mut data_was_available = false;
                let mut pacing_blocked = false;
                loop {
                    let budget = Self::frame_budget(used).saturating_sub(18);
                    if budget < 16 {
                        break;
                    }
                    if !self.cc.can_send(
                        self.sent.bytes_in_flight(),
                        budget.min(self.cfg.cubic.mss as u32) as u64,
                    ) {
                        break;
                    }
                    // Pacing gate applies to data only.
                    let rate = *rate.get_or_insert_with(|| self.cc.pacing_rate_bps(&self.rtt));
                    let ready = self.pacer.earliest_send(now, self.cfg.cubic.mss, rate);
                    if ready > now {
                        self.pacing_deadline = Some(ready);
                        pacing_blocked = true;
                        break;
                    }
                    // Connection-level flow control for fresh data.
                    let conn_room = self.conn_send_limit.saturating_sub(self.conn_fresh_sent);
                    // Strict priority, not round-robin: the lowest stream
                    // id with something sendable goes first (see
                    // `StreamTable`).
                    let pull = self.streams.next_chunk(budget, conn_room);
                    data_was_available |= pull.data_was_available;
                    match pull.chunk {
                        Some(chunk) => {
                            if pull.fresh {
                                self.conn_fresh_sent += chunk.len as u64;
                            }
                            let f = Frame::Stream {
                                id: chunk.id,
                                offset: chunk.offset,
                                len: chunk.len,
                                fin: chunk.fin,
                            };
                            used += f.wire_size();
                            Self::push_frame(&mut frames, f);
                            chunks.push(chunk);
                            retransmittable = true;
                            sent_any_data = true;
                        }
                        None => break,
                    }
                }
                // Application-limited: window open but nothing to send.
                // A pacing-deferred send is *not* application-limited —
                // the data exists and will go out at the pacer's release.
                self.app_limited = !sent_any_data
                    && !data_was_available
                    && !pacing_blocked
                    && self
                        .cc
                        .can_send(self.sent.bytes_in_flight(), self.cfg.cubic.mss)
                    && self.sent.bytes_in_flight() < self.cc.cwnd();
                if sent_any_data {
                    self.app_limited = false;
                }
            }
        }

        self.update_state(now);
        if frames.is_empty() {
            // Nothing to send: hand the recycled storage straight back.
            self.sent.give_spare_chunks(chunks);
            return None;
        }
        Some(self.finalize_packet(
            frames,
            chunks,
            wu_streams,
            handshake,
            retransmittable,
            rate,
            now,
        ))
    }

    fn next_wakeup(&self) -> Option<Time> {
        if self.watchdog.gave_up() {
            return None;
        }
        [
            self.recovery
                .deadline(self.sent.has_retransmittable(), &self.rtt),
            self.acks.deadline(),
            self.pacing_deadline,
            self.watchdog
                .deadline(self.is_established(), || self.is_quiescent()),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn on_wakeup(&mut self, now: Time) {
        if let Some(err) = self
            .watchdog
            .check(now, self.is_established(), || self.is_quiescent())
        {
            return self.give_up(err, now);
        }
        if self.watchdog.gave_up() {
            return;
        }
        if self.pacing_deadline.is_some_and(|d| now >= d) {
            self.pacing_deadline = None;
        }
        match self.recovery.expire(
            now,
            self.sent.has_retransmittable(),
            &self.rtt,
            &mut self.tel.tracer,
        ) {
            Some(RecoveryKind::Tlp) => {
                self.tel.stats.tlp_count += 1;
                self.tlp_fire = true;
                self.arm_recovery(now);
            }
            Some(_) => {
                self.tel.stats.rto_count += 1;
                // A repeated timeout with no ack in between means the
                // whole flight is gone (link outage), not a stray tail
                // drop: declare everything lost so the requeued data
                // isn't forever gated by a flight full of dead packets.
                // First RTOs keep the conservative oldest-2 declaration.
                let repeated = self.recovery.rto_backoff() > 1;
                let cap = if repeated { usize::MAX } else { 2 };
                let lost = self.sent.declare_oldest_lost(cap);
                for pkt in &lost {
                    self.tel.tracer.loss(now.as_nanos(), pkt.pn);
                    self.requeue_lost(pkt);
                }
                self.cc.on_rto(now);
                self.arm_recovery(now);
                self.tel.log_cwnd(now, self.cc.cwnd());
            }
            None => {}
        }
        self.update_state(now);
    }

    fn open_stream(&mut self, _now: Time) -> Option<StreamId> {
        if self.open_initiated >= self.cfg.max_streams {
            return None;
        }
        let id = self.next_stream_id;
        self.next_stream_id += 2;
        self.open_initiated += 1;
        // Announce our receive window for this stream (the peer assumes
        // its own default otherwise).
        self.streams.rec_mut(id).advertised = Some(self.stream_window);
        self.wu_queue.push_back((id, self.stream_window));
        Some(StreamId(id as u64))
    }

    fn stream_send(&mut self, _now: Time, id: StreamId, bytes: u64, fin: bool) {
        self.streams.write(id.0 as u32, bytes, fin);
        self.app_limited = false;
    }

    fn poll_event(&mut self) -> Option<AppEvent> {
        self.tel.events.pop_front()
    }

    fn is_established(&self) -> bool {
        self.hs == Handshake::Established
    }

    fn is_quiescent(&self) -> bool {
        self.watchdog.gave_up()
            || (!self.sent.has_retransmittable()
                && self.hs_queue.is_empty()
                && !self.streams.any_ready())
    }

    fn stats(&self) -> ConnStats {
        self.tel.stats
    }

    fn state_trace(&self, now: Time) -> StateTrace<'static> {
        self.tel.state_trace(now)
    }

    fn srtt(&self) -> Dur {
        self.rtt.srtt()
    }

    fn trace_records(&self) -> &[longlook_sim::trace::TraceRecord] {
        self.tel.tracer.records()
    }

    fn error(&self) -> Option<ConnError> {
        self.watchdog.error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A packet from the peer carrying `frames`.
    fn packet(pn: u64, frames: Vec<Frame>) -> Payload {
        Payload::Quic(QuicPacket {
            conn_id: 7,
            pn,
            frames,
        })
    }

    #[test]
    fn hostile_peer_stream_ids_create_no_record() {
        let now = Time::ZERO;
        let cfg = QuicConfig::default();
        let max = cfg.max_streams;
        for role in [Role::Client, Role::Server] {
            let mut c = match role {
                Role::Client => QuicConnection::client(cfg.clone(), 7, true, now),
                Role::Server => QuicConnection::server(cfg.clone(), 7, now),
            };
            while c.poll_event().is_some() {}
            // No peer id seen yet: the bound counts from the first peer
            // id − 2 (0 at the client, 1 at the server).
            let bound = first_own_stream(role.peer()) - 2 + 2 * max;
            let slots = c.streams.slots();
            for (pn, id) in [(1, bound + 2), (2, u32::MAX - 1), (3, u32::MAX)] {
                let frames = vec![
                    Frame::Stream {
                        id,
                        offset: 0,
                        len: 500,
                        fin: true,
                    },
                    Frame::WindowUpdate {
                        stream: id,
                        max_offset: 1 << 20,
                    },
                ];
                c.on_datagram(packet(pn, frames), now);
                assert!(c.streams.get(id).is_none(), "{role:?}: stream {id}");
                assert_eq!(c.streams.slots(), slots, "{role:?}: stream {id}");
                while let Some(ev) = c.poll_event() {
                    assert_eq!(ev, AppEvent::HandshakeDone, "{role:?}: stream {id}");
                }
            }
            // A window update and a stream frame exactly at the bound are
            // served.
            let frames = vec![
                Frame::WindowUpdate {
                    stream: bound,
                    max_offset: 1 << 20,
                },
                Frame::Stream {
                    id: bound,
                    offset: 0,
                    len: 500,
                    fin: false,
                },
            ];
            c.on_datagram(packet(4, frames), now);
            assert!(c.streams.get(bound).is_some(), "{role:?}");
            let opened =
                std::iter::from_fn(|| c.poll_event()).find(|ev| *ev != AppEvent::HandshakeDone);
            assert_eq!(opened, Some(AppEvent::StreamOpened(StreamId(bound as u64))));
        }
    }

    #[test]
    fn frames_for_unopened_own_streams_are_dropped() {
        let now = Time::ZERO;
        let mut c = QuicConnection::client(QuicConfig::default(), 7, true, now);
        let opened = c.open_stream(now).expect("stream slot");
        assert_eq!(opened, StreamId(3));
        while c.poll_event().is_some() {}
        // Ours but never opened: below the first own id, and at or above
        // the next one.
        for (pn, id) in [(1, 1), (2, 5), (3, 9)] {
            let frames = vec![
                Frame::Stream {
                    id,
                    offset: 0,
                    len: 500,
                    fin: true,
                },
                Frame::WindowUpdate {
                    stream: id + 4,
                    max_offset: 1 << 20,
                },
            ];
            c.on_datagram(packet(pn, frames), now);
            assert!(c.streams.get(id).is_none(), "stream {id}");
            assert!(c.streams.get(id + 4).is_none(), "stream {}", id + 4);
            assert_eq!(c.poll_event(), None);
        }
        // The stream we opened, the peer's streams and the connection
        // window are served as before.
        let frames = vec![
            Frame::Stream {
                id: 2,
                offset: 0,
                len: 500,
                fin: false,
            },
            Frame::WindowUpdate {
                stream: 3,
                max_offset: 1 << 20,
            },
            Frame::WindowUpdate {
                stream: 0,
                max_offset: 1 << 30,
            },
        ];
        c.on_datagram(packet(4, frames), now);
        assert_eq!(c.poll_event(), Some(AppEvent::StreamOpened(StreamId(2))));
        assert_eq!(
            c.poll_event(),
            Some(AppEvent::StreamData {
                id: StreamId(2),
                bytes: 500
            })
        );
        assert_eq!(c.poll_event(), None);
        assert_eq!(c.conn_send_limit, 1 << 30);
    }
}
