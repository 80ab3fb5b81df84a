//! The congestion-control interface shared by Cubic and BBR.
//!
//! All quantities are in bytes; time comes from the simulation clock. The
//! trait is deliberately close to gQUIC's `SendAlgorithmInterface` so the
//! QUIC and TCP connection models drive it identically and differences
//! between the protocols come from *their* machinery (ack ambiguity, loss
//! detection, delayed acks), not from divergent CC plumbing.
//!
//! A controller reports its Fig-3 state through one method returning a
//! `Copy` [`Fig3State`], which connections sample on every packet and
//! compare as an enum; the label string is written only on a change.

use crate::ccstate::Fig3State;
use crate::rtt::RttEstimator;
use longlook_sim::time::Time;

/// A pluggable congestion controller.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// A packet carrying `bytes` left the sender; `in_flight_after`
    /// includes it.
    fn on_packet_sent(&mut self, now: Time, bytes: u64, in_flight_after: u64);

    /// Newly acked bytes. `newest_acked_sent_at` is the send time of the
    /// most recent packet covered by this ack (round/recovery epoch
    /// bookkeeping); `app_limited` reports whether the sender was unable
    /// to fill the window when the acked data was sent.
    fn on_ack(
        &mut self,
        now: Time,
        newest_acked_sent_at: Time,
        acked_bytes: u64,
        rtt: &RttEstimator,
        in_flight: u64,
        app_limited: bool,
    );

    /// A loss was detected for a packet sent at `lost_sent_at`. The
    /// controller decides whether this starts a new recovery epoch.
    fn on_congestion_event(
        &mut self,
        now: Time,
        lost_sent_at: Time,
        lost_bytes: u64,
        in_flight: u64,
    );

    /// The retransmission timer fired.
    fn on_rto(&mut self, now: Time);

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Current slow-start threshold in bytes (`u64::MAX` when unset).
    fn ssthresh(&self) -> u64;

    /// Whether a packet of `bytes` may be sent with `in_flight` bytes
    /// outstanding (congestion window plus any recovery rate gate).
    fn can_send(&self, in_flight: u64, bytes: u64) -> bool;

    /// Whether the given send time falls inside the current recovery
    /// epoch (losses there don't trigger another reduction).
    fn in_recovery(&self, sent_at: Time) -> bool;

    /// Pacing rate in bits/sec (callers may ignore if pacing disabled).
    fn pacing_rate_bps(&self, rtt: &RttEstimator) -> f64;

    /// The current Fig-3 state: a Table 3 phase the connection overlays
    /// with its own states (Cubic, Fig 3a), or the controller's own
    /// vocabulary, reported as is (BBR, Fig 3b).
    fn state(&self) -> Fig3State;

    /// Controller name for reports.
    fn name(&self) -> &'static str;
}
