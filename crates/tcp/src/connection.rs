//! The TCP(+TLS+HTTP/2) connection state machine — the paper's baseline.
//!
//! Implements [`longlook_transport::Connection`] so workloads run
//! unchanged over either protocol. Where QUIC saves round trips and
//! sidesteps ambiguity, this model faithfully pays the costs:
//!
//! * 1 RTT of TCP handshake plus 1 RTT of TLS (False Start) before the
//!   first request byte can leave;
//! * Karn's algorithm: no RTT samples from retransmitted sequences;
//! * delayed acks (every 2nd segment / 40 ms);
//! * no tail loss probe — tail drops wait for the RTO;
//! * a single ordered byte stream: HTTP/2 head-of-line blocking;
//! * DSACK-adaptive dupthresh: TCP *tolerates* reordering QUIC cannot.

use crate::h2::{H2Demux, H2Event, H2Mux};
use crate::recv::TcpReceiver;
use crate::scoreboard::Scoreboard;
use crate::wire::{flags, TcpSegment};
use longlook_sim::packet::Payload;
use longlook_sim::time::{Dur, Time};
use longlook_sim::trace::RecoveryKind;
use longlook_sim::{pool, TraceMode};
use longlook_transport::cc::CongestionControl;
use longlook_transport::ccstate::StateTrace;
use longlook_transport::chassis::{ConnTelemetry, RecoveryTimer, Watchdog};
use longlook_transport::conn::{
    AppEvent, ConnError, ConnStats, Connection, StreamId, Transmit, TCP_OVERHEAD,
};
use longlook_transport::cubic::{Cubic, CubicConfig};
use longlook_transport::rtt::{RttEstimator, INITIAL_RTT};

/// TLS 1.2 handshake message sizes in stream bytes.
mod tls {
    /// ClientHello.
    pub const CLIENT_HELLO: u64 = 350;
    /// Client Finished (+ ChangeCipherSpec).
    pub const CLIENT_FINISHED: u64 = 128;
    /// Client handshake prefix.
    pub const CLIENT_PREFIX: u64 = CLIENT_HELLO + CLIENT_FINISHED;
    /// ServerHello + Certificate chain + ServerHelloDone.
    pub const SERVER_HELLO: u64 = 3200;
    /// Server Finished.
    pub const SERVER_FINISHED: u64 = 64;
    /// Server handshake prefix.
    pub const SERVER_PREFIX: u64 = SERVER_HELLO + SERVER_FINISHED;
}

/// Initial SYN retransmission timeout; it doubles with each retry, as
/// Linux's does (the shift capped at 6, as the RTO's is). An armed
/// watchdog gives up at `HANDSHAKE_TIMEOUT`, after 4 retries; an unarmed
/// connection retries forever.
const SYN_RTO: Dur = Dur::from_secs(1);

/// Delayed-ack timeout (Linux delack min).
const DELAYED_ACK: Dur = Dur::from_millis(40);

/// TCP configuration.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Cubic parameters (Linux defaults); its `mss` is the maximum
    /// segment payload size.
    pub cubic: CubicConfig,
    /// Receive buffer / advertised window.
    pub recv_buffer: u64,
    /// Model TLS on top (HTTPS); disable for a raw-TCP proxy leg.
    pub tls: bool,
    /// Arm the connection watchdog: give up with a typed
    /// [`longlook_transport::ConnError`] when the handshake (SYN + TLS)
    /// exceeds
    /// [`HANDSHAKE_TIMEOUT`](longlook_transport::chassis::HANDSHAKE_TIMEOUT)
    /// or an established connection sits idle with outstanding work past
    /// [`IDLE_TIMEOUT`](longlook_transport::chassis::IDLE_TIMEOUT). Off by
    /// default so unfaulted runs behave exactly as before; the testbed
    /// arms it whenever a fault plan is attached.
    pub watchdog: bool,
    /// Whether this connection keeps an event trace. Never changes
    /// protocol behavior; the experiment runner stamps the scenario's
    /// value onto both endpoints.
    pub trace: TraceMode,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            cubic: CubicConfig::linux_tcp(1400),
            recv_buffer: 6 * 1024 * 1024,
            tls: true,
            watchdog: false,
            trace: TraceMode::Off,
        }
    }
}

impl TcpConfig {
    /// Round trips spent on connection establishment before request data
    /// can flow: 1 for the SYN exchange, plus 1 for the TLS 1.2 handshake
    /// when `tls` is set (the request leaves with the client's Finished,
    /// TLS False Start) — 2 RTTs against QUIC's 0/1-RTT setup.
    ///
    /// Used by the fleet world's flight-granular model, where handshakes
    /// are charged as whole RTTs rather than simulated packet by packet;
    /// the `fleet_handshake` referee holds it to the packet-level model.
    pub fn handshake_rtts(&self) -> u32 {
        if self.tls {
            2
        } else {
            1
        }
    }
}

/// TCP-level connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TcpState {
    /// Client sent SYN.
    SynSent,
    /// Server awaiting SYN.
    Listen,
    /// Three-way handshake complete.
    Open,
}

/// Which end we are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpRole {
    /// Initiates the handshake.
    Client,
    /// Accepts it.
    Server,
}

/// A TCP+TLS+HTTP/2 connection.
pub struct TcpConnection {
    cfg: TcpConfig,
    role: TcpRole,
    state: TcpState,
    /// SYN needs (re)sending.
    syn_pending: bool,
    /// SYN-ACK needs sending (server).
    synack_pending: bool,
    syn_deadline: Option<Time>,
    syn_retries: u32,

    scoreboard: Scoreboard,
    receiver: TcpReceiver,
    rtt: RttEstimator,
    /// Always Cubic (the Linux default), so its calls, the Fig-3 state
    /// sample on every packet included, are direct.
    cc: Cubic,

    mux: H2Mux,
    demux: H2Demux,
    /// Next fresh stream byte to transmit.
    snd_nxt: u64,
    /// Peer's advertised receive window.
    peer_window: u64,
    /// Next client-initiated h2 stream id.
    next_stream_id: u32,

    /// RTO timer over the scoreboard's outstanding bytes (no tail loss
    /// probe — tail drops wait for the RTO).
    recovery: RecoveryTimer,

    tls_established: bool,
    app_limited: bool,

    /// Give-up deadlines; the handshake one covers SYN + TLS.
    watchdog: Watchdog,
    /// Counters, last window, state trace, event trace, app events.
    tel: ConnTelemetry,
}

impl TcpConnection {
    /// Client endpoint; the SYN goes out on the first `poll_transmit`.
    pub fn client(cfg: TcpConfig, now: Time) -> Self {
        let mut c = Self::new_common(cfg, TcpRole::Client, now);
        c.state = TcpState::SynSent;
        c.syn_pending = true;
        c
    }

    /// Server endpoint.
    pub fn server(cfg: TcpConfig, now: Time) -> Self {
        let mut c = Self::new_common(cfg, TcpRole::Server, now);
        c.state = TcpState::Listen;
        c
    }

    fn new_common(cfg: TcpConfig, role: TcpRole, now: Time) -> Self {
        let (our_prefix, peer_prefix) = if cfg.tls {
            match role {
                TcpRole::Client => (tls::CLIENT_PREFIX, tls::SERVER_PREFIX),
                TcpRole::Server => (tls::SERVER_PREFIX, tls::CLIENT_PREFIX),
            }
        } else {
            (0, 0)
        };
        let cc = Cubic::new(cfg.cubic.clone(), now);
        TcpConnection {
            watchdog: Watchdog::new(now, cfg.watchdog),
            recovery: RecoveryTimer::new(false),
            tel: ConnTelemetry::new(now, cfg.trace, cc.state()),
            rtt: RttEstimator::new(INITIAL_RTT),
            receiver: TcpReceiver::new(cfg.recv_buffer),
            mux: H2Mux::new(our_prefix),
            demux: H2Demux::new(peer_prefix),
            peer_window: cfg.recv_buffer,
            cfg,
            role,
            state: TcpState::Listen,
            syn_pending: false,
            synack_pending: false,
            syn_deadline: None,
            syn_retries: 0,
            scoreboard: Scoreboard::new(),
            cc,
            snd_nxt: 0,
            next_stream_id: 1,
            tls_established: false,
            app_limited: false,
        }
    }

    /// Highest stream byte we are allowed to transmit right now, given the
    /// TCP and TLS handshake state.
    fn sendable_limit(&self) -> u64 {
        if self.state != TcpState::Open {
            return 0;
        }
        if !self.cfg.tls {
            return u64::MAX;
        }
        let peer_bytes = self.receiver.rcv_nxt();
        match self.role {
            TcpRole::Client => {
                if peer_bytes >= tls::SERVER_HELLO {
                    // Got the ServerHello flight: finish + data (False Start).
                    u64::MAX
                } else {
                    tls::CLIENT_HELLO
                }
            }
            TcpRole::Server => {
                if peer_bytes >= tls::CLIENT_PREFIX {
                    u64::MAX
                } else if peer_bytes >= tls::CLIENT_HELLO {
                    tls::SERVER_HELLO
                } else {
                    0
                }
            }
        }
    }

    fn maybe_tls_established(&mut self, _now: Time) {
        if self.tls_established {
            return;
        }
        let done = if !self.cfg.tls {
            self.state == TcpState::Open
        } else {
            let peer_bytes = self.receiver.rcv_nxt();
            match self.role {
                TcpRole::Client => peer_bytes >= tls::SERVER_HELLO,
                TcpRole::Server => peer_bytes >= tls::CLIENT_PREFIX,
            }
        };
        if done {
            self.tls_established = true;
            self.tel.events.push_back(AppEvent::HandshakeDone);
        }
    }

    fn update_state(&mut self, now: Time) {
        self.tel.update_state(
            now,
            self.cc.state(),
            self.tls_established,
            &self.recovery,
            self.app_limited,
        );
    }

    fn arm_recovery(&mut self, now: Time) {
        self.recovery.rearm(
            now,
            self.scoreboard.has_outstanding(),
            &self.rtt,
            &mut self.tel.tracer,
        );
    }

    /// Emit one data segment covering `[seq, seq+len)`.
    fn make_data_segment(&mut self, seq: u64, len: u32, now: Time) -> Transmit {
        let (ack, window, sacks, dsack) = self.receiver.build_ack();
        let records = self.mux.descs_in(seq, seq + len as u64);
        let seg = TcpSegment {
            seq,
            ack,
            flags: flags::ACK,
            window,
            payload_len: len,
            sacks,
            dsack,
            records,
        };
        self.scoreboard.on_sent(seq, len, now);
        self.cc
            .on_packet_sent(now, len as u64, self.scoreboard.pipe());
        self.arm_recovery(now);
        let wire_size = seg.wire_size_payload() + TCP_OVERHEAD + 17 * seg.records.len() as u32;
        self.tel.on_sent(now, seq, wire_size, true);
        Transmit {
            payload: Payload::Tcp(seg),
            wire_size,
        }
    }

    fn make_control(&mut self, flag_bits: u8, now: Time) -> Transmit {
        let (ack, window, sacks, dsack) = self.receiver.build_ack();
        let seg = TcpSegment {
            seq: 0,
            ack,
            flags: flag_bits,
            window,
            payload_len: 0,
            sacks,
            dsack,
            records: Vec::new(),
        };
        let wire_size = seg.wire_size_payload() + TCP_OVERHEAD;
        self.tel.on_sent(now, 0, wire_size, false);
        if seg.is_bare_ack() {
            self.tel.stats.acks_sent += 1;
        }
        Transmit {
            payload: Payload::Tcp(seg),
            wire_size,
        }
    }

    fn drain_h2_events(&mut self) {
        let events = &mut self.tel.events;
        self.demux.advance(self.receiver.rcv_nxt(), |e| {
            events.push_back(match e {
                H2Event::StreamOpened(s) => AppEvent::StreamOpened(StreamId(s as u64)),
                H2Event::StreamData { stream, bytes } => AppEvent::StreamData {
                    id: StreamId(stream as u64),
                    bytes,
                },
                H2Event::StreamFin(s) => AppEvent::StreamFin(StreamId(s as u64)),
            })
        });
    }

    /// Current dupthresh (diagnostics; grows via DSACK).
    pub fn dupthresh(&self) -> u32 {
        self.scoreboard.dupthresh()
    }

    /// Watchdog trip: stop trying, clear every pending timer and control
    /// flag so the connection reads as quiescent, and surface the error.
    fn give_up(&mut self, err: ConnError, now: Time) {
        self.watchdog.trip(err, now, &mut self.tel.tracer);
        self.recovery.cancel();
        self.syn_pending = false;
        self.synack_pending = false;
        self.syn_deadline = None;
    }
}

impl Connection for TcpConnection {
    fn on_datagram(&mut self, payload: Payload, now: Time) {
        self.tel.stats.packets_received += 1;
        // Flow demux never routes a QUIC packet here; drop one like an
        // undecodable segment.
        let Payload::Tcp(seg) = payload else {
            return;
        };
        if self.watchdog.gave_up() {
            return;
        }
        self.watchdog.on_progress(now);
        if self.tel.tracer.enabled() {
            let sz = seg.wire_size_payload() + TCP_OVERHEAD + 17 * seg.records.len() as u32;
            self.tel.tracer.pkt_rx(now.as_nanos(), seg.seq, sz as u64);
        }

        // Handshake control.
        if seg.flags & flags::SYN != 0 {
            match (self.role, self.state) {
                (TcpRole::Server, TcpState::Listen) => {
                    self.state = TcpState::Open;
                    self.synack_pending = true;
                    self.maybe_tls_established(now);
                }
                (TcpRole::Server, TcpState::Open) => {
                    // Duplicate SYN: our SYN-ACK was lost; resend.
                    self.synack_pending = true;
                }
                (TcpRole::Client, TcpState::SynSent) if seg.flags & flags::ACK != 0 => {
                    self.state = TcpState::Open;
                    self.syn_deadline = None;
                    self.maybe_tls_established(now);
                }
                _ => {}
            }
            self.update_state(now);
            return;
        }

        self.peer_window = seg.window;

        // Data path.
        if seg.payload_len > 0 {
            self.demux.on_descs(&seg.records);
            let newly = self
                .receiver
                .on_segment(seg.seq, seg.payload_len, now, DELAYED_ACK);
            self.tel.stats.bytes_received += seg.payload_len as u64;
            if newly > 0 {
                self.maybe_tls_established(now);
                self.drain_h2_events();
            }
        }

        // Ack path.
        if seg.flags & flags::ACK != 0 && self.state == TcpState::Open {
            let out =
                self.scoreboard
                    .on_ack(now, seg.ack, &seg.sacks, seg.dsack, seg.payload_len > 0);
            if let Some(sample) = out.rtt_sample {
                self.rtt.on_sample(sample, Dur::ZERO);
            }
            if out.spurious {
                self.tel.stats.spurious_retransmissions += 1;
            }
            self.tel.tracer.ack(now.as_nanos(), out.newly_acked);
            if out.newly_acked > 0 {
                self.recovery.on_new_data_acked();
                self.tel.stats.bytes_acked += out.newly_acked;
                self.mux.prune(self.scoreboard.snd_una());
            }
            let delivered = out.newly_acked + out.newly_sacked;
            if delivered > 0 {
                self.cc.on_ack(
                    now,
                    out.newest_acked_sent_at.unwrap_or(now),
                    delivered,
                    &self.rtt,
                    self.scoreboard.pipe(),
                    self.app_limited,
                );
                self.arm_recovery(now);
            }
            if out.fast_retransmit {
                self.tel.stats.losses_detected += out.lost_ranges.len() as u64;
                self.tel
                    .tracer
                    .recovery(now.as_nanos(), RecoveryKind::FastRetx);
                if self.tel.tracer.enabled() {
                    for &(seq, _) in &out.lost_ranges {
                        self.tel.tracer.loss(now.as_nanos(), seq);
                    }
                }
                self.cc.on_congestion_event(
                    now,
                    out.lost_sent_at.unwrap_or(now),
                    out.lost_ranges.iter().map(|&(_, l)| l as u64).sum(),
                    self.scoreboard.pipe(),
                );
            }
            self.tel.log_cwnd(now, self.cc.cwnd());
        }
        pool::give_blocks(seg.sacks);
        self.update_state(now);
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Transmit> {
        if self.watchdog.gave_up() {
            return None;
        }
        // 1. TCP handshake control segments.
        if self.syn_pending {
            self.syn_pending = false;
            let backoff = SYN_RTO.saturating_mul(1 << self.syn_retries.min(6));
            self.syn_deadline = Some(now + backoff);
            return Some(self.make_control(flags::SYN, now));
        }
        if self.synack_pending {
            self.synack_pending = false;
            return Some(self.make_control(flags::SYN | flags::ACK, now));
        }
        if self.state != TcpState::Open {
            return None;
        }

        // 2. Retransmissions first (cc-gated via PRR/cwnd).
        if let Some((seq, len)) = self.scoreboard.first_lost() {
            if self.cc.can_send(self.scoreboard.pipe(), len as u64) {
                self.tel.stats.retransmissions += 1;
                return Some(self.make_data_segment(seq, len, now));
            }
        }

        // 3. Fresh data.
        let limit = self.sendable_limit().min(self.mux.stream_len());
        let rwnd_edge = self.scoreboard.snd_una() + self.peer_window;
        if self.snd_nxt < limit && self.snd_nxt < rwnd_edge {
            let len = (limit - self.snd_nxt)
                .min(self.cfg.cubic.mss)
                .min(rwnd_edge - self.snd_nxt) as u32;
            if len > 0 && self.cc.can_send(self.scoreboard.pipe(), len as u64) {
                let seq = self.snd_nxt;
                self.snd_nxt += len as u64;
                self.app_limited = false;
                let seg = self.make_data_segment(seq, len, now);
                self.update_state(now);
                return Some(seg);
            }
        }
        // Application-limited bookkeeping: window open but no data.
        let have_data = self.snd_nxt < self.mux.stream_len().min(self.sendable_limit());
        self.app_limited = self.tls_established
            && !have_data
            && self.cc.can_send(self.scoreboard.pipe(), self.cfg.cubic.mss)
            && self.scoreboard.pipe() < self.cc.cwnd();

        // 4. Bare ack if one is due.
        if self.receiver.ack_due(now) {
            let t = self.make_control(flags::ACK, now);
            self.update_state(now);
            return Some(t);
        }
        self.update_state(now);
        None
    }

    fn next_wakeup(&self) -> Option<Time> {
        if self.watchdog.gave_up() {
            return None;
        }
        [
            self.recovery
                .deadline(self.scoreboard.has_outstanding(), &self.rtt),
            self.syn_deadline,
            self.receiver.deadline(),
            self.watchdog
                .deadline(self.tls_established, || self.is_quiescent()),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn on_wakeup(&mut self, now: Time) {
        if let Some(err) = self
            .watchdog
            .check(now, self.tls_established, || self.is_quiescent())
        {
            return self.give_up(err, now);
        }
        if self.watchdog.gave_up() {
            return;
        }
        if let Some(d) = self.syn_deadline {
            if now >= d && self.state == TcpState::SynSent {
                self.syn_pending = true;
                self.syn_retries += 1;
                self.syn_deadline = None;
            }
        }
        let outstanding = self.scoreboard.has_outstanding();
        if self
            .recovery
            .expire(now, outstanding, &self.rtt, &mut self.tel.tracer)
            .is_some()
        {
            self.tel.stats.rto_count += 1;
            self.scoreboard.mark_all_lost();
            self.cc.on_rto(now);
            self.arm_recovery(now);
            self.tel.log_cwnd(now, self.cc.cwnd());
        }
        self.update_state(now);
    }

    fn open_stream(&mut self, _now: Time) -> Option<StreamId> {
        // h2 allows effectively unlimited concurrent streams for our
        // workloads (Chrome's default is 100-1000); no MSPC pathology.
        let id = self.next_stream_id;
        self.next_stream_id += 2;
        Some(StreamId(id as u64))
    }

    fn stream_send(&mut self, _now: Time, id: StreamId, bytes: u64, fin: bool) {
        debug_assert!(bytes <= u32::MAX as u64, "single h2 record cap");
        self.mux.push_record(id.0 as u32, bytes as u32, fin);
        self.app_limited = false;
    }

    fn poll_event(&mut self) -> Option<AppEvent> {
        self.tel.events.pop_front()
    }

    fn is_established(&self) -> bool {
        self.tls_established
    }

    fn is_quiescent(&self) -> bool {
        self.watchdog.gave_up()
            || (!self.scoreboard.has_outstanding()
                && self.snd_nxt >= self.mux.stream_len().min(self.sendable_limit())
                && self.scoreboard.lost_count() == 0)
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
