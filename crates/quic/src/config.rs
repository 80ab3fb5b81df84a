//! QUIC connection configuration.
//!
//! Every knob the paper varies is a field here: the NACK threshold
//! (Fig 10), MACW via the Cubic config (Figs 2, 15), MSPC (Sec 5.2),
//! 0-RTT (Fig 7), pacing, HyStart, and the choice of congestion
//! controller (Fig 3b). `longlook-core`'s version model maps QUIC versions
//! 25-37 onto instances of this struct.
//!
//! What no experiment varies is a constant, not a field: the flow-control
//! auto-tune ceilings below, the ack decimation count and delayed-ack
//! timer ([`connection`](crate::connection)), tail loss probes (always
//! on), the RTT seed
//! ([`longlook_transport::rtt::INITIAL_RTT`]) and the watchdog deadlines
//! ([`longlook_transport::chassis`]). The segment size is `cubic.mss`, and
//! a client with cached server state always attempts 0-RTT; the server
//! side's `zero_rtt_accept` decides whether it succeeds.

use longlook_sim::TraceMode;
use longlook_transport::cubic::CubicConfig;

/// Auto-tune ceiling for the connection-level receive window.
pub const CONN_RECV_WINDOW_MAX: u64 = 15 * 1024 * 1024;
/// Auto-tune ceiling for stream-level receive windows.
pub const STREAM_RECV_WINDOW_MAX: u64 = 6 * 1024 * 1024;

/// Which congestion controller to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcKind {
    /// Cubic (the deployed default the paper measures).
    Cubic,
    /// Experimental BBR (Fig 3b).
    Bbr,
}

/// QUIC connection configuration.
#[derive(Debug, Clone)]
pub struct QuicConfig {
    /// Congestion controller selection.
    pub cc: CcKind,
    /// Cubic parameters (MACW, N-connection emulation, HyStart, ...).
    /// Its `mss` is the connection's stream payload budget per packet,
    /// whichever controller runs.
    pub cubic: CubicConfig,
    /// Consecutive-NACK threshold for fast retransmit (gQUIC default 3).
    /// The fixed threshold is why QUIC misreads deep reordering as loss
    /// (Sec 5.2, Fig 10).
    pub nack_threshold: u32,
    /// Adapt the NACK threshold upward when a retransmission is proven
    /// spurious (the DSACK-like behavior the paper recommends QUIC adopt).
    pub adaptive_nack: bool,
    /// Also declare loss by time: packets older than 1.25 * sRTT below the
    /// largest acked ("time based" loss detection QUIC was experimenting
    /// with per the paper).
    pub time_loss_detection: bool,
    /// Enable packet pacing.
    pub pacing: bool,
    /// Maximum concurrent streams per connection (MSPC, default 100).
    /// Each end also bounds the stream ids its peer may open by its own
    /// value (a legal peer opens at most this many past the largest id we
    /// have seen), so both ends must run the same limit: a peer with a
    /// larger one would have legal frames dropped. Every testbed builds
    /// both ends from one `QuicConfig` and holds them to this.
    pub max_streams: u32,
    /// Initial connection-level receive window (bytes). gQUIC auto-tunes
    /// this upward (doubling, up to [`CONN_RECV_WINDOW_MAX`]) while the
    /// receiver consumes fast enough.
    pub conn_recv_window: u64,
    /// Initial per-stream receive window (bytes); auto-tuning grows it up
    /// to [`STREAM_RECV_WINDOW_MAX`].
    pub stream_recv_window: u64,
    /// Enable receive-window auto-tuning (double the window whenever two
    /// consecutive window updates are less than 2 x sRTT apart). This is
    /// the mechanism behind the paper's mobile finding: a phone that
    /// cannot consume packets in userspace never grows its windows, so
    /// the sender ends up Application-Limited (Fig 13).
    pub flow_auto_tune: bool,
    /// Whether the server accepts 0-RTT data before the full handshake
    /// (real servers reject when the cached server config expired). When
    /// `false`, a 0-RTT attempt draws a REJ: the client falls back to a
    /// full 1-RTT handshake and retransmits the early data.
    pub zero_rtt_accept: bool,
    /// Arm the connection watchdog: give up with a typed
    /// [`longlook_transport::ConnError`] when the handshake exceeds
    /// [`HANDSHAKE_TIMEOUT`](longlook_transport::chassis::HANDSHAKE_TIMEOUT)
    /// or an established connection sits idle with outstanding work past
    /// [`IDLE_TIMEOUT`](longlook_transport::chassis::IDLE_TIMEOUT). Off by
    /// default so unfaulted runs schedule no extra timers; the testbed
    /// flips it on whenever a fault plan is attached.
    pub watchdog: bool,
    /// Whether this connection keeps an event trace. Never changes
    /// protocol behavior; the experiment runner stamps the scenario's
    /// value onto both endpoints.
    pub trace: TraceMode,
}

impl Default for QuicConfig {
    /// QUIC 34 as calibrated by the paper against Google's servers:
    /// MACW = 430, N = 2, NACK threshold 3, MSPC 100, 0-RTT on.
    fn default() -> Self {
        QuicConfig {
            cc: CcKind::Cubic,
            cubic: CubicConfig::quic34(1350),
            nack_threshold: 3,
            adaptive_nack: false,
            time_loss_detection: false,
            pacing: true,
            max_streams: 100,
            // gQUIC-era initial flow-control windows; auto-tuning grows
            // them toward the ceilings on fast consumers.
            conn_recv_window: 192 * 1024,
            stream_recv_window: 128 * 1024,
            flow_auto_tune: true,
            zero_rtt_accept: true,
            watchdog: false,
            trace: TraceMode::Off,
        }
    }
}

impl QuicConfig {
    /// The miscalibrated public-release configuration of Fig 2: small
    /// MACW (107), a conservative initial window, and the Chromium 52
    /// ssthresh bug (the slow-start threshold never raised to the
    /// receiver-advertised buffer, forcing an early slow-start exit).
    pub fn uncalibrated() -> Self {
        let mut cfg = QuicConfig::default();
        cfg.cubic.max_cwnd_packets = Some(107);
        cfg.cubic.initial_cwnd_packets = 10;
        cfg.cubic.initial_ssthresh_packets = Some(20);
        cfg
    }

    /// QUIC 37 as shipped in Chromium 60: MACW = 2000, N = 1.
    pub fn quic37() -> Self {
        let mut cfg = QuicConfig::default();
        cfg.cubic.max_cwnd_packets = Some(2000);
        cfg.cubic.num_connections = 1;
        cfg
    }

    /// Round trips spent on connection establishment before request data
    /// can flow: 0 when a cached server config allows 0-RTT (Fig 7's
    /// repeat-visit case), otherwise 1 for the full REJ/SHLO exchange.
    ///
    /// Used by the fleet world's flight-granular model, where handshakes
    /// are charged as whole RTTs rather than simulated packet by packet.
    pub fn handshake_rtts(&self, zero_rtt_available: bool) -> u32 {
        if zero_rtt_available && self.zero_rtt_accept {
            0
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_calibrated_quic34() {
        let c = QuicConfig::default();
        assert_eq!(c.cubic.max_cwnd_packets, Some(430));
        assert_eq!(c.cubic.num_connections, 2);
        assert_eq!(c.nack_threshold, 3);
        assert_eq!(c.max_streams, 100);
        assert!(c.zero_rtt_accept);
        assert!(c.pacing);
    }

    #[test]
    fn uncalibrated_reproduces_the_bug() {
        let c = QuicConfig::uncalibrated();
        assert_eq!(c.cubic.max_cwnd_packets, Some(107));
        assert!(c.cubic.initial_ssthresh_packets.is_some());
    }

    #[test]
    fn quic37_raises_macw_and_drops_emulation() {
        let c = QuicConfig::quic37();
        assert_eq!(c.cubic.max_cwnd_packets, Some(2000));
        assert_eq!(c.cubic.num_connections, 1);
    }
}
