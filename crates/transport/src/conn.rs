//! The sans-IO connection abstraction shared by the QUIC and TCP models.
//!
//! A [`Connection`] is a pure state machine: the host agent feeds it
//! datagrams and wakeups and drains transmissions — the smoltcp idiom. The
//! application layers (`longlook-http`, `longlook-video`, the proxies)
//! program against this trait only, so every workload runs unchanged over
//! either protocol.

use crate::ccstate::StateTrace;
use longlook_sim::packet::Payload;
use longlook_sim::time::Time;

/// Ethernet + IP + UDP framing overhead charged per QUIC datagram.
pub const UDP_OVERHEAD: u32 = 42;
/// Ethernet + IP + TCP framing overhead charged per segment (no options).
pub const TCP_OVERHEAD: u32 = 54;

/// Stream identifier. Stream 0 is reserved by both protocol models for
/// handshake/control; applications get ids from
/// [`Connection::open_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u64);

/// Events surfaced to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppEvent {
    /// The connection is established; streams may be opened.
    HandshakeDone,
    /// The peer opened a stream.
    StreamOpened(StreamId),
    /// In-order bytes became readable on a stream (synthetic count).
    StreamData {
        /// Which stream.
        id: StreamId,
        /// How many new in-order bytes.
        bytes: u64,
    },
    /// A stream finished: all data up to FIN delivered.
    StreamFin(StreamId),
}

/// A datagram/segment ready for the wire.
#[derive(Debug, Clone)]
pub struct Transmit {
    /// Protocol control information: the typed packet or segment.
    pub payload: Payload,
    /// Total on-the-wire size including framing overhead and synthetic
    /// payload bytes.
    pub wire_size: u32,
}

/// Counters every connection maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Packets/segments sent (all kinds).
    pub packets_sent: u64,
    /// Packets/segments received.
    pub packets_received: u64,
    /// Wire bytes sent.
    pub bytes_sent: u64,
    /// Wire bytes received.
    pub bytes_received: u64,
    /// Application payload bytes delivered in order to the peer
    /// (sender-side view: acked payload bytes).
    pub bytes_acked: u64,
    /// Data retransmissions.
    pub retransmissions: u64,
    /// Retransmissions later proven unnecessary (the original arrived).
    pub spurious_retransmissions: u64,
    /// Losses declared by fast-retransmit style detection.
    pub losses_detected: u64,
    /// Retransmission timeouts fired.
    pub rto_count: u64,
    /// Tail loss probes fired.
    pub tlp_count: u64,
    /// Pure ack packets sent.
    pub acks_sent: u64,
    /// Largest congestion window observed (bytes).
    pub max_cwnd: u64,
}

/// Terminal connection errors surfaced by the watchdog machinery. A
/// connection that hits one of these transitions to quiescence and
/// reports the error through [`Connection::error`]; the fault-injection
/// oracles treat "incomplete with no error" as a livelock violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnError {
    /// The handshake did not complete within the configured deadline
    /// (e.g. a blackout swallowed the first flight past all retries).
    HandshakeTimeout,
    /// An established connection made no forward progress for the
    /// configured idle window while work was still outstanding.
    IdleTimeout,
}

impl ConnError {
    /// Stable label for repro files and logs.
    pub fn label(&self) -> &'static str {
        match self {
            ConnError::HandshakeTimeout => "HandshakeTimeout",
            ConnError::IdleTimeout => "IdleTimeout",
        }
    }
}

/// A transport connection as seen by the host agent and application.
pub trait Connection {
    /// Ingest one datagram/segment from the wire.
    fn on_datagram(&mut self, payload: Payload, now: Time);

    /// Produce the next datagram/segment to put on the wire, if any is
    /// ready (congestion window, pacing and flow control permitting).
    fn poll_transmit(&mut self, now: Time) -> Option<Transmit>;

    /// Earliest instant at which a timer (RTO, TLP, pacing release, delayed
    /// ack) needs service.
    fn next_wakeup(&self) -> Option<Time>;

    /// Service timers at `now`.
    fn on_wakeup(&mut self, now: Time);

    /// Open a new application stream; `None` if the concurrent-stream
    /// limit is reached (QUIC's MSPC) or the connection is not ready.
    /// Each id is larger than every id opened before it.
    fn open_stream(&mut self, now: Time) -> Option<StreamId>;

    /// Queue `bytes` of application data (synthetic) on a stream,
    /// optionally finishing it.
    fn stream_send(&mut self, now: Time, id: StreamId, bytes: u64, fin: bool);

    /// Drain the next application event.
    fn poll_event(&mut self) -> Option<AppEvent>;

    /// Whether the handshake has completed.
    fn is_established(&self) -> bool;

    /// Whether the connection has nothing left to send or retransmit.
    fn is_quiescent(&self) -> bool;

    /// Counters.
    fn stats(&self) -> ConnStats;

    /// Finalize and return the congestion-control state trace.
    fn state_trace(&self, now: Time) -> StateTrace<'static>;

    /// Current smoothed RTT estimate (for reporting).
    fn srtt(&self) -> longlook_sim::time::Dur;

    /// Terminal error, if the connection gave up (watchdog timeouts).
    /// Default `None` keeps existing implementations and test doubles
    /// compiling unchanged.
    fn error(&self) -> Option<ConnError> {
        None
    }

    /// Structured trace records emitted so far. Empty when tracing is
    /// off (`TraceMode::Off`); the default keeps test doubles compiling
    /// unchanged, like [`Connection::error`].
    fn trace_records(&self) -> &[longlook_sim::trace::TraceRecord] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_realistic() {
        // UDP framing is 14 (eth) + 20 (ip) + 8 (udp).
        assert_eq!(UDP_OVERHEAD, 42);
        // TCP framing is 14 + 20 + 20.
        assert_eq!(TCP_OVERHEAD, 54);
    }

    #[test]
    fn stream_ids_order() {
        assert!(StreamId(3) < StreamId(5));
    }

    #[test]
    fn app_event_equality() {
        assert_eq!(
            AppEvent::StreamData {
                id: StreamId(1),
                bytes: 10
            },
            AppEvent::StreamData {
                id: StreamId(1),
                bytes: 10
            }
        );
        assert_ne!(AppEvent::HandshakeDone, AppEvent::StreamFin(StreamId(1)));
    }
}
