//! The QUIC connection state machine.
//!
//! Implements [`longlook_transport::Connection`]: a sans-IO gQUIC-like
//! endpoint with 0-RTT/1-RTT handshake, multiplexed streams with two-level
//! flow control, ack decimation, NACK-threshold + optional time-based loss
//! detection, tail loss probes, RTO with backoff, Cubic or BBR congestion
//! control, pacing, and the Table 3 state instrumentation.

use crate::config::{CcKind, QuicConfig};
use crate::recv_ack::AckTracker;
use crate::sent::{SentPacket, SentStore};
use crate::streams::{Chunk, RecvStream, SendStream};
use crate::wire::{Frame, HandshakeKind, QuicPacket, MAX_ACK_BLOCKS, MAX_PACKET_PAYLOAD};
use longlook_sim::packet::Payload;
use longlook_sim::time::{Dur, Time};
use longlook_sim::trace::RecoveryKind;
use longlook_sim::{PayloadPool, Tracer, WireMode};
use longlook_transport::cc::CongestionControl;
use longlook_transport::ccstate::{CcState, StateTrace, StateTracker};
use longlook_transport::conn::{
    AppEvent, ConnError, ConnStats, Connection, StreamId, Transmit, UDP_OVERHEAD,
};
use longlook_transport::cubic::Cubic;
use longlook_transport::pacing::Pacer;
use longlook_transport::rtt::RttEstimator;
use longlook_transport::Bbr;
use std::collections::{BTreeMap, VecDeque};

/// Which end of the connection we are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Initiates the handshake.
    Client,
    /// Accepts it.
    Server,
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

/// Loss timer kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LossTimer {
    Tlp,
    Rto,
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

    /// Construction instant: base for the handshake watchdog deadline.
    started_at: Time,
    /// Last inbound packet: base for the idle watchdog deadline.
    last_progress: Time,
    /// Watchdog tripped: the connection stopped trying (error may be
    /// muted by the test-only canary).
    gave_up: bool,
    error: Option<ConnError>,

    next_pn: u64,
    sent: SentStore,
    acks: AckTracker,
    rtt: RttEstimator,
    cc: Box<dyn CongestionControl>,
    pacer: Pacer,
    nack_threshold: u32,

    send_streams: BTreeMap<u32, SendStream>,
    recv_streams: BTreeMap<u32, RecvStream>,
    next_stream_id: u32,
    /// Streams we opened that the peer has not finished yet (MSPC gate).
    open_initiated: u32,
    /// Peer streams we've already announced via StreamOpened.
    seen_peer_streams: BTreeMap<u32, ()>,

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
    /// Per-stream advertised receive offsets.
    stream_advertised: BTreeMap<u32, u64>,
    /// Peer-announced stream send limits for streams we haven't opened a
    /// send side for yet (window updates can precede our first write).
    pending_stream_limits: BTreeMap<u32, u64>,
    /// Window updates queued for transmission: (stream, max_offset).
    wu_queue: VecDeque<(u32, u64)>,

    loss_timer: Option<(LossTimer, Time)>,
    /// Batched hot path: a pending loss-timer re-arm deferred to the next
    /// observation point (`next_wakeup`/`on_wakeup`). Re-arming is a pure
    /// function of connection state, and every re-arm request inside one
    /// dispatch shares the same `now`, so resolving only the *last* one
    /// lazily yields the exact timer the eager path would have set.
    loss_rearm_at: Option<Time>,
    /// Batched hot path selected (`cfg.exec.batch`).
    batch: bool,
    tlp_count: u32,
    rto_backoff: u32,
    /// Probe transmission requested by the TLP timer.
    tlp_fire: bool,
    /// Sticky labels cleared by the next ack of new data.
    in_rto_state: bool,
    in_tlp_state: bool,

    pacing_deadline: Option<Time>,
    app_limited: bool,

    events: VecDeque<AppEvent>,
    handshake_done_emitted: bool,
    stats: ConnStats,
    cwnd_log: Vec<(Time, u64)>,
    tracker: StateTracker,
    /// Structured event trace (`cfg.exec.trace`); a disabled tracer is
    /// an inlined no-op on every emit.
    tracer: Tracer,
    /// Recycled payload buffers (encoded path only): encoders take from
    /// here, spent received payloads are reclaimed in `on_datagram`.
    pool: PayloadPool,
    /// Recycled `Frame` vectors: received packets donate their (drained)
    /// frame storage, outgoing packets take it back — the vec flow
    /// mirrors the packet flow, so a steady ack-for-data exchange builds
    /// frames without touching the allocator.
    spare_frames: Vec<Vec<Frame>>,
    /// Structured (typed packets in memory) vs encoded (serialize +
    /// reparse) wire path (`cfg.exec.wire`).
    wire_mode: WireMode,
}

impl QuicConnection {
    /// Client connection. `zero_rtt` = the caller holds a cached server
    /// config for this destination.
    pub fn client(cfg: QuicConfig, conn_id: u64, zero_rtt: bool, now: Time) -> Self {
        let use_zero_rtt = zero_rtt && cfg.zero_rtt_enabled;
        let mut c = Self::new_common(cfg, conn_id, Role::Client, now);
        if use_zero_rtt {
            c.hs = Handshake::Established;
            c.used_zero_rtt = true;
            c.hs_queue.push_back(HandshakeKind::FullChlo);
            c.events.push_back(AppEvent::HandshakeDone);
            c.handshake_done_emitted = true;
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
            CcKind::Bbr => Box::new(Bbr::new(cfg.mss, now)),
        };
        let pacer = if cfg.pacing {
            Pacer::new(10 * cfg.mss)
        } else {
            Pacer::disabled()
        };
        let rtt = RttEstimator::new(cfg.initial_rtt);
        let next_stream_id = match role {
            Role::Client => 3,
            Role::Server => 2,
        };
        let nack_threshold = cfg.nack_threshold;
        let conn_send_limit = cfg.conn_recv_window;
        let conn_advertised = cfg.conn_recv_window;
        let cfg_conn_window = cfg.conn_recv_window;
        let cfg_stream_window = cfg.stream_recv_window;
        // BBR reports its own state vocabulary from the first instant
        // (Fig 3b has no Init state); Cubic overlays connection states.
        let initial_label = if cc.overlay_connection_states() {
            CcState::Init.label()
        } else {
            cc.state_label(now)
        };
        let exec = cfg.exec;
        let mut tracer = Tracer::new(exec.trace.is_on());
        tracer.cc_state(now.as_nanos(), initial_label);
        QuicConnection {
            cfg,
            role,
            conn_id,
            hs: Handshake::AwaitingChlo,
            hs_queue: VecDeque::new(),
            learned_server_config: false,
            used_zero_rtt: false,
            rej_sent: false,
            zero_rtt_rejected: false,
            started_at: now,
            last_progress: now,
            gave_up: false,
            error: None,
            next_pn: 1,
            sent: SentStore::new(exec.batch),
            acks: AckTracker::default(),
            rtt,
            cc,
            pacer,
            nack_threshold,
            send_streams: BTreeMap::new(),
            recv_streams: BTreeMap::new(),
            next_stream_id,
            open_initiated: 0,
            seen_peer_streams: BTreeMap::new(),
            conn_send_limit,
            conn_fresh_sent: 0,
            conn_delivered: 0,
            conn_advertised,
            conn_window: cfg_conn_window,
            stream_window: cfg_stream_window,
            last_conn_update: None,
            last_stream_update: None,
            stream_advertised: BTreeMap::new(),
            pending_stream_limits: BTreeMap::new(),
            wu_queue: VecDeque::new(),
            loss_timer: None,
            loss_rearm_at: None,
            batch: exec.batch.is_on(),
            tlp_count: 0,
            rto_backoff: 0,
            tlp_fire: false,
            in_rto_state: false,
            in_tlp_state: false,
            pacing_deadline: None,
            app_limited: false,
            events: VecDeque::new(),
            handshake_done_emitted: false,
            stats: ConnStats::default(),
            cwnd_log: vec![(now, 0)],
            tracker: StateTracker::new(now, initial_label),
            tracer,
            pool: PayloadPool::new(),
            spare_frames: Vec::new(),
            wire_mode: exec.wire,
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

    /// The effective NACK threshold (grows under `adaptive_nack`).
    pub fn current_nack_threshold(&self) -> u32 {
        self.nack_threshold
    }

    /// The connection id.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    fn establish(&mut self, _now: Time) {
        self.hs = Handshake::Established;
        if !self.handshake_done_emitted {
            self.events.push_back(AppEvent::HandshakeDone);
            self.handshake_done_emitted = true;
        }
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
                    self.tracer.loss(now.as_nanos(), pkt.pn);
                    self.requeue_lost(pkt);
                }
                if !had_chlo {
                    self.hs_queue.push_back(HandshakeKind::FullChlo);
                }
                self.rearm_loss_timer(now);
            }
            (Role::Client, HandshakeKind::Shlo) => {
                // Forward secure keys; nothing further to do in the model.
            }
            _ => {} // Ignore nonsensical combinations.
        }
    }

    fn on_stream_frame(&mut self, id: u32, offset: u64, len: u32, fin: bool, now: Time) {
        // 0-RTT data on the server implies a valid cached config.
        if self.role == Role::Server && self.hs != Handshake::Established {
            self.establish(now);
            self.hs_queue.push_back(HandshakeKind::Shlo);
        }
        let peer_initiated = (id % 2) != (self.next_stream_id % 2);
        if peer_initiated && !self.seen_peer_streams.contains_key(&id) {
            self.seen_peer_streams.insert(id, ());
            self.events
                .push_back(AppEvent::StreamOpened(StreamId(id as u64)));
            self.stream_advertised.insert(id, self.stream_window);
            self.wu_queue.push_back((id, self.stream_window));
        }
        let stream = self.recv_streams.entry(id).or_default();
        let newly = stream.on_chunk(offset, len, fin);
        if newly > 0 {
            self.conn_delivered += newly;
            self.events.push_back(AppEvent::StreamData {
                id: StreamId(id as u64),
                bytes: newly,
            });
            self.maybe_queue_window_updates(id, now);
        }
        if self
            .recv_streams
            .get_mut(&id)
            .expect("just inserted")
            .take_fin()
        {
            self.events
                .push_back(AppEvent::StreamFin(StreamId(id as u64)));
            // A stream we initiated is finished by the peer: free an MSPC slot.
            if !peer_initiated {
                self.open_initiated = self.open_initiated.saturating_sub(1);
            }
        }
    }

    fn maybe_queue_window_updates(&mut self, id: u32, now: Time) {
        // gQUIC auto-tuning: if two consecutive updates are closer than
        // 2 x sRTT the window may be the bottleneck — double it (up to
        // the ceiling).
        let fast = |last: Option<Time>, srtt: Dur| -> bool {
            last.is_some_and(|t| now.saturating_since(t) < srtt * 2)
        };
        // Connection level.
        let target = self.conn_delivered + self.conn_window;
        if target.saturating_sub(self.conn_advertised) >= self.conn_window / 2 {
            if self.cfg.flow_auto_tune && fast(self.last_conn_update, self.rtt.srtt()) {
                self.conn_window = (self.conn_window * 2).min(self.cfg.conn_recv_window_max);
            }
            self.last_conn_update = Some(now);
            let target = self.conn_delivered + self.conn_window;
            self.conn_advertised = target;
            self.wu_queue.push_back((0, target));
        }
        // Stream level.
        let delivered = self.recv_streams.get(&id).map_or(0, |s| s.delivered());
        let adv = self
            .stream_advertised
            .entry(id)
            .or_insert(self.cfg.stream_recv_window);
        let target = delivered + self.stream_window;
        if target.saturating_sub(*adv) >= self.stream_window / 2 {
            if self.cfg.flow_auto_tune && fast(self.last_stream_update, self.rtt.srtt()) {
                self.stream_window = (self.stream_window * 2).min(self.cfg.stream_recv_window_max);
            }
            self.last_stream_update = Some(now);
            let target = delivered + self.stream_window;
            *adv = target;
            self.wu_queue.push_back((id, target));
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
            self.stats.spurious_retransmissions += out.spurious as u64;
            if self.cfg.adaptive_nack {
                // RR-TCP-style: grow the tolerance when reordering is
                // proven, up to a sane cap.
                self.nack_threshold = (self.nack_threshold * 2).min(64);
            }
        }
        if out.acked_new_data {
            self.tlp_count = 0;
            self.rto_backoff = 0;
            self.in_rto_state = false;
            self.in_tlp_state = false;
            self.stats.bytes_acked += out.acked_payload_bytes;
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
        self.tracer.ack(now.as_nanos(), out.newly_acked_bytes);
        for lost in &out.lost {
            self.stats.losses_detected += 1;
            self.tracer.loss(now.as_nanos(), lost.pn);
            self.requeue_lost(lost);
            self.cc.on_congestion_event(
                now,
                lost.sent_at,
                lost.wire_bytes as u64,
                self.sent.bytes_in_flight(),
            );
        }
        self.rearm_loss_timer(now);
        self.log_cwnd(now);
    }

    fn requeue_lost(&mut self, lost: &SentPacket) {
        for chunk in &lost.chunks {
            self.stats.retransmissions += 1;
            if let Some(s) = self.send_streams.get_mut(&chunk.id) {
                s.on_chunk_lost(chunk);
            }
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
                self.stream_advertised
                    .get(&stream)
                    .copied()
                    .unwrap_or(self.stream_window)
            };
            self.wu_queue.push_back((stream, current));
        }
    }

    /// What the loss timer should be, re-armed at `now` — a pure function
    /// of connection state, shared by the eager and lazy re-arm paths.
    fn compute_loss_timer(&self, now: Time) -> Option<(LossTimer, Time)> {
        if !self.sent.has_retransmittable() {
            return None;
        }
        if self.cfg.tlp && self.tlp_count < 2 {
            Some((LossTimer::Tlp, now + self.rtt.tlp_timeout()))
        } else {
            let rto = self.rtt.rto().saturating_mul(1 << self.rto_backoff.min(6));
            Some((LossTimer::Rto, now + rto))
        }
    }

    fn rearm_loss_timer(&mut self, now: Time) {
        if self.tracer.enabled() {
            // Pure recomputation for the trace only: in batch mode the
            // deadline resolves lazily, but `compute_loss_timer` is a pure
            // function of state that cannot change between the request and
            // the observation point, so this records the same deadline the
            // eager path sets — identically under either batch mode.
            if let Some((_, at)) = self.compute_loss_timer(now) {
                self.tracer.timer_arm(now.as_nanos(), at.as_nanos());
            }
        }
        if self.batch {
            // Defer: the timer is unobservable until `next_wakeup` or the
            // next `on_wakeup`, and nothing that feeds `compute_loss_timer`
            // changes between the last re-arm request of a dispatch and
            // those observation points — resolving once there is exact.
            self.loss_rearm_at = Some(now);
        } else {
            self.loss_timer = self.compute_loss_timer(now);
        }
    }

    /// Apply a deferred re-arm before the timer is read mutably.
    fn resolve_loss_timer(&mut self) {
        if let Some(at) = self.loss_rearm_at.take() {
            self.loss_timer = self.compute_loss_timer(at);
        }
    }

    fn log_cwnd(&mut self, now: Time) {
        let cwnd = self.cc.cwnd();
        self.stats.max_cwnd = self.stats.max_cwnd.max(cwnd);
        if self.cwnd_log.last().map(|&(_, c)| c) != Some(cwnd) {
            self.cwnd_log.push((now, cwnd));
            self.tracer.cwnd(now.as_nanos(), cwnd);
        }
    }

    fn update_state(&mut self, now: Time) {
        let label = if !self.cc.overlay_connection_states() {
            self.cc.state_label(now)
        } else if self.hs != Handshake::Established {
            CcState::Init.label()
        } else if self.in_rto_state {
            CcState::RetransmissionTimeout.label()
        } else if self.in_tlp_state {
            CcState::TailLossProbe.label()
        } else {
            let cc_label = self.cc.state_label(now);
            if cc_label == CcState::Recovery.label() {
                cc_label
            } else if self.app_limited {
                CcState::ApplicationLimited.label()
            } else {
                cc_label
            }
        };
        self.tracker.set(now, label);
        self.tracer.cc_state(now.as_nanos(), label);
    }

    /// Does any stream have bytes or FINs ready (ignoring cc/pacing)?
    fn stream_data_pending(&self) -> bool {
        self.send_streams.values().any(SendStream::wants_to_send)
    }

    /// Watchdog trip: stop trying, clear every pending timer and queue so
    /// the connection reads as quiescent, and surface the typed error —
    /// unless the test-only canary mutes it (the silent-livelock bug the
    /// fuzzer oracle exists to catch).
    fn give_up(&mut self, err: ConnError, now: Time) {
        self.gave_up = true;
        self.tracer.recovery(now.as_nanos(), RecoveryKind::GiveUp);
        if !self.cfg.canary_mute_watchdog {
            self.error = Some(err);
        }
        self.hs_queue.clear();
        self.loss_timer = None;
        self.loss_rearm_at = None;
        self.pacing_deadline = None;
        self.tlp_fire = false;
    }

    /// Check the armed watchdog at `now`, tripping it when a deadline
    /// passed. Handshake phase uses the construction-relative deadline;
    /// established connections time out on inbound silence, but only
    /// while work is actually outstanding (a finished, idle connection
    /// never times out).
    fn check_watchdog(&mut self, now: Time) {
        if !self.cfg.watchdog || self.gave_up {
            return;
        }
        if self.hs != Handshake::Established {
            if now >= self.started_at + self.cfg.handshake_timeout {
                self.give_up(ConnError::HandshakeTimeout, now);
            }
        } else if !self.is_quiescent() && now >= self.last_progress + self.cfg.idle_timeout {
            self.give_up(ConnError::IdleTimeout, now);
        }
    }

    fn frame_budget(used: u32) -> u32 {
        MAX_PACKET_PAYLOAD.saturating_sub(used)
    }

    /// Assemble and account one outgoing packet from `frames`.
    fn finalize_packet(
        &mut self,
        frames: Vec<Frame>,
        chunks: Vec<Chunk>,
        handshake: Option<HandshakeKind>,
        retransmittable: bool,
        now: Time,
    ) -> Transmit {
        let pn = self.next_pn;
        self.next_pn += 1;
        // Window updates are rare; only allocate the id list when one is
        // actually aboard.
        let has_wu = frames
            .iter()
            .any(|f| matches!(f, Frame::WindowUpdate { .. }));
        let wu_streams: Vec<u32> = if has_wu {
            frames
                .iter()
                .filter_map(|f| match f {
                    Frame::WindowUpdate { stream, .. } => Some(*stream),
                    _ => None,
                })
                .collect()
        } else {
            Vec::new()
        };
        let pkt = QuicPacket {
            conn_id: self.conn_id,
            pn,
            frames,
        };
        let wire_size = pkt.wire_size() + UDP_OVERHEAD;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += wire_size as u64;
        self.tracer
            .pkt_tx(now.as_nanos(), pn, wire_size as u64, retransmittable);
        if !retransmittable {
            self.stats.acks_sent += 1;
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
            let rate = self.cc.pacing_rate_bps(&self.rtt);
            self.pacer.on_sent(now, wire_size as u64, rate);
            self.rearm_loss_timer(now);
        }
        let payload = match self.wire_mode {
            WireMode::Structured => Payload::Quic(pkt),
            WireMode::Encoded => {
                // The typed packet dies here after encoding; keep its
                // frame storage for the next build.
                let bytes = pkt.encode_with(&mut self.pool);
                let mut frames = pkt.frames;
                frames.clear();
                if self.spare_frames.len() < 8 {
                    self.spare_frames.push(frames);
                }
                Payload::Wire(bytes)
            }
        };
        Transmit { payload, wire_size }
    }
}

impl Connection for QuicConnection {
    fn on_datagram(&mut self, payload: Payload, now: Time) {
        self.stats.packets_received += 1;
        let pkt = match payload {
            // Structured fast path: the typed packet arrives by value.
            Payload::Quic(p) => p,
            Payload::Wire(bytes) => {
                // Decode borrows the payload so the spent buffer can be
                // reclaimed into the pool afterwards (sole-owner fast
                // path — no refcount bump, no clone).
                let decoded = QuicPacket::decode(&bytes[..]);
                self.pool.reclaim(bytes);
                match decoded {
                    Ok(p) => p,
                    Err(_) => return, // corrupt packets are dropped silently
                }
            }
            // Flow demux never routes a TCP segment here; treat one like
            // an undecodable datagram.
            Payload::Tcp(_) => return,
        };
        if self.gave_up {
            return;
        }
        self.last_progress = now;
        if self.tracer.enabled() {
            // Analytic sizing is proptest-pinned to the encoded length,
            // so recomputing it here is wire-mode invariant.
            let sz = (pkt.wire_size() + UDP_OVERHEAD) as u64;
            self.tracer.pkt_rx(now.as_nanos(), pkt.pn, sz);
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
            self.cfg.ack_every,
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
                } => self.on_stream_frame(id, offset, len, fin, now),
                Frame::Ack {
                    largest,
                    ack_delay_us,
                    blocks,
                } => self.process_ack(largest, ack_delay_us, &blocks, now),
                Frame::WindowUpdate { stream, max_offset } => {
                    if stream == 0 {
                        self.conn_send_limit = self.conn_send_limit.max(max_offset);
                    } else if let Some(s) = self.send_streams.get_mut(&stream) {
                        s.on_window_update(max_offset);
                    } else {
                        // The send side doesn't exist yet; remember the
                        // limit for when the application first writes.
                        let e = self.pending_stream_limits.entry(stream).or_insert(0);
                        *e = (*e).max(max_offset);
                    }
                }
                Frame::Handshake { kind, .. } => self.on_handshake_frame(kind, now),
                Frame::Ping | Frame::Blocked { .. } | Frame::Close { .. } => {}
            }
        }
        if self.spare_frames.len() < 8 {
            self.spare_frames.push(frames);
        }
        self.update_state(now);
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Transmit> {
        if self.gave_up {
            return None;
        }
        let mut frames: Vec<Frame> = self.spare_frames.pop().unwrap_or_default();
        debug_assert!(frames.is_empty());
        let mut chunks: Vec<Chunk> = self.sent.take_spare_chunks();
        debug_assert!(chunks.is_empty());
        let mut used = 0u32;
        let mut retransmittable = false;

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
            frames.push(f);
            retransmittable = true;
        }

        // 2. Ack if due.
        if self.acks.ack_due(now, self.cfg.ack_every) {
            if let Some((largest, delay, mut blocks)) = self.acks.build_ack(now) {
                // Canonicalize to the wire's block cap at build time so a
                // structured packet carries exactly what an encode→decode
                // round trip would deliver.
                blocks.truncate(MAX_ACK_BLOCKS);
                let f = Frame::Ack {
                    largest,
                    ack_delay_us: (delay.as_nanos() / 1000),
                    blocks,
                };
                used += f.wire_size();
                frames.push(f);
            }
        }

        // 3. Window updates.
        while used + 13 <= MAX_PACKET_PAYLOAD {
            let Some((stream, max_offset)) = self.wu_queue.pop_front() else {
                break;
            };
            let f = Frame::WindowUpdate { stream, max_offset };
            used += f.wire_size();
            frames.push(f);
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
                    frames.push(Frame::Stream {
                        id: c.id,
                        offset: c.offset,
                        len: c.len,
                        fin: c.fin,
                    });
                    chunks.push(*c);
                    retransmittable = true;
                }
                if probe_chunks.is_empty() {
                    frames.push(Frame::Ping);
                    retransmittable = true;
                }
            } else {
                let mut sent_any_data = false;
                let mut data_was_available = false;
                let mut pacing_blocked = false;
                // cc state is constant within one poll, so the pacing rate
                // is too; compute it at most once (identical f64 value).
                let mut cached_rate: Option<f64> = None;
                loop {
                    let budget = Self::frame_budget(used).saturating_sub(18);
                    if budget < 16 {
                        break;
                    }
                    if !self.cc.can_send(
                        self.sent.bytes_in_flight(),
                        budget.min(self.cfg.mss as u32) as u64,
                    ) {
                        break;
                    }
                    // Pacing gate applies to data only.
                    let rate = match cached_rate {
                        Some(r) => r,
                        None => {
                            let r = self.cc.pacing_rate_bps(&self.rtt);
                            cached_rate = Some(r);
                            r
                        }
                    };
                    let ready = self.pacer.earliest_send(now, self.cfg.mss, rate);
                    if ready > now {
                        self.pacing_deadline = Some(ready);
                        pacing_blocked = true;
                        break;
                    }
                    // Connection-level flow control for fresh data.
                    let conn_room = self.conn_send_limit.saturating_sub(self.conn_fresh_sent);
                    // Round-robin across streams with pending chunks
                    // (in-place iteration, no key-list allocation; the
                    // fresh-sent update is deferred past the borrow).
                    let mut got: Option<Chunk> = None;
                    let mut fresh_sent = 0u64;
                    for s in self.send_streams.values_mut() {
                        let had_retransmit = s.has_retransmit_pending();
                        let fresh_ok = s.sendable_new().min(conn_room) > 0 || s.fin_pending();
                        if !had_retransmit && !fresh_ok {
                            continue;
                        }
                        data_was_available = true;
                        // Cap fresh sends by connection flow control.
                        let cap = if had_retransmit {
                            budget
                        } else {
                            budget.min(conn_room.min(u32::MAX as u64) as u32)
                        };
                        if let Some(chunk) = s.next_chunk(cap) {
                            if !had_retransmit {
                                fresh_sent = chunk.len as u64;
                            }
                            got = Some(chunk);
                            break;
                        }
                    }
                    self.conn_fresh_sent += fresh_sent;
                    match got {
                        Some(chunk) => {
                            let f = Frame::Stream {
                                id: chunk.id,
                                offset: chunk.offset,
                                len: chunk.len,
                                fin: chunk.fin,
                            };
                            used += f.wire_size();
                            frames.push(f);
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
                    && self.cc.can_send(self.sent.bytes_in_flight(), self.cfg.mss)
                    && self.sent.bytes_in_flight() < self.cc.cwnd();
                if sent_any_data {
                    self.app_limited = false;
                }
            }
        }

        self.update_state(now);
        if frames.is_empty() {
            // Nothing to send: hand the recycled storage straight back.
            if self.spare_frames.len() < 8 {
                self.spare_frames.push(frames);
            }
            self.sent.give_spare_chunks(chunks);
            return None;
        }
        Some(self.finalize_packet(frames, chunks, handshake, retransmittable, now))
    }

    fn next_wakeup(&self) -> Option<Time> {
        if self.gave_up {
            return None;
        }
        let mut t: Option<Time> = None;
        let mut consider = |cand: Option<Time>| {
            if let Some(c) = cand {
                t = Some(match t {
                    Some(cur) if cur <= c => cur,
                    _ => c,
                });
            }
        };
        // A deferred re-arm resolves here without mutation: the pure
        // computation sees exactly the state the eager path saw.
        let loss_timer = match self.loss_rearm_at {
            Some(at) => self.compute_loss_timer(at),
            None => self.loss_timer,
        };
        consider(loss_timer.map(|(_, at)| at));
        consider(self.acks.deadline());
        consider(self.pacing_deadline);
        if self.cfg.watchdog {
            // The watchdog only schedules a wake while there is work it
            // could give up on; a quiescent connection stays silent so
            // unfaulted runs still end in the Idle outcome.
            if self.hs != Handshake::Established {
                consider(Some(self.started_at + self.cfg.handshake_timeout));
            } else if !self.is_quiescent() {
                consider(Some(self.last_progress + self.cfg.idle_timeout));
            }
        }
        t
    }

    fn on_wakeup(&mut self, now: Time) {
        self.resolve_loss_timer();
        self.check_watchdog(now);
        if self.gave_up {
            return;
        }
        if let Some(d) = self.pacing_deadline {
            if now >= d {
                self.pacing_deadline = None;
            }
        }
        if let Some((kind, at)) = self.loss_timer {
            if now >= at && self.sent.has_retransmittable() {
                match kind {
                    LossTimer::Tlp => {
                        self.tracer.timer_fire(now.as_nanos(), RecoveryKind::Tlp);
                        self.tracer.recovery(now.as_nanos(), RecoveryKind::Tlp);
                        self.tlp_count += 1;
                        self.stats.tlp_count += 1;
                        self.in_tlp_state = true;
                        self.tlp_fire = true;
                        self.rearm_loss_timer(now);
                    }
                    LossTimer::Rto => {
                        self.tracer.timer_fire(now.as_nanos(), RecoveryKind::Rto);
                        self.tracer.recovery(now.as_nanos(), RecoveryKind::Rto);
                        self.stats.rto_count += 1;
                        self.in_rto_state = true;
                        // A repeated timeout with no ack in between means
                        // the whole flight is gone (link outage), not a
                        // stray tail drop: declare everything lost so the
                        // requeued data isn't forever gated by a flight
                        // full of dead packets. First RTOs keep the
                        // conservative oldest-2 declaration.
                        let cap = if self.rto_backoff > 0 { usize::MAX } else { 2 };
                        let lost = self.sent.declare_oldest_lost(cap);
                        for pkt in &lost {
                            self.tracer.loss(now.as_nanos(), pkt.pn);
                            self.requeue_lost(pkt);
                        }
                        self.cc.on_rto(now);
                        self.rto_backoff += 1;
                        self.rearm_loss_timer(now);
                        self.log_cwnd(now);
                    }
                }
            } else if now >= at {
                self.loss_timer = None;
            }
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
        self.send_streams
            .insert(id, SendStream::with_window(id, self.cfg.stream_recv_window));
        // Announce our receive window for this stream (the peer assumes
        // its own default otherwise).
        self.stream_advertised.insert(id, self.stream_window);
        self.wu_queue.push_back((id, self.stream_window));
        Some(StreamId(id as u64))
    }

    fn stream_send(&mut self, _now: Time, id: StreamId, bytes: u64, fin: bool) {
        let id = id.0 as u32;
        let window = self
            .pending_stream_limits
            .remove(&id)
            .unwrap_or(0)
            .max(self.cfg.stream_recv_window);
        let s = self
            .send_streams
            .entry(id)
            .or_insert_with(|| SendStream::with_window(id, window));
        s.write(bytes, fin);
        self.app_limited = false;
    }

    fn poll_event(&mut self) -> Option<AppEvent> {
        self.events.pop_front()
    }

    fn is_established(&self) -> bool {
        self.hs == Handshake::Established
    }

    fn is_quiescent(&self) -> bool {
        self.gave_up
            || (!self.sent.has_retransmittable()
                && self.hs_queue.is_empty()
                && !self.stream_data_pending())
    }

    fn stats(&self) -> ConnStats {
        self.stats
    }

    fn cwnd_timeline(&self) -> &[(Time, u64)] {
        &self.cwnd_log
    }

    fn state_trace(&self, now: Time) -> StateTrace {
        self.tracker.finish(now)
    }

    fn srtt(&self) -> Dur {
        self.rtt.srtt()
    }

    fn trace_records(&self) -> &[longlook_sim::trace::TraceRecord] {
        self.tracer.records()
    }

    fn error(&self) -> Option<ConnError> {
        self.error
    }
}
