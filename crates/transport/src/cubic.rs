//! Cubic congestion control, ported from gQUIC's `TcpCubicSenderBytes` /
//! `CubicBytes` with the features the paper studies:
//!
//! * **N-connection emulation** — gQUIC sets Cubic's β and the
//!   Reno-friendly α so one QUIC connection behaves like `N` TCP
//!   connections (`N = 2` in QUIC 34, `N = 1` in QUIC 37). The paper's
//!   fairness experiments (Sec 5.1) show this — together with QUIC's
//!   per-ack window updates — lets QUIC take ~2x its fair share.
//! * **Maximum allowed congestion window (MACW)** — the clamp whose value
//!   (107 → 430 → 2000 packets) drives the calibration story (Sec 4.1,
//!   Fig 15). The clamp surfaces as the `CongestionAvoidanceMaxed` state.
//! * **Hybrid Slow Start** — early exit on delay increase (Sec 5.2).
//! * **PRR fast recovery** — proportional rate reduction (Table 3), always
//!   on, as is fast convergence (a lower W_max after repeated losses).
//! * **the Chromium-52 ssthresh bug** — optionally start with a small
//!   fixed ssthresh instead of deriving it from the receiver window,
//!   reproducing the miscalibrated public build of Fig 2.

use crate::cc::CongestionControl;
use crate::ccstate::{CcState, Fig3State};
use crate::hystart::HyStart;
use crate::prr::Prr;
use crate::rtt::RttEstimator;
use longlook_sim::time::{Dur, Time};

/// Cubic's C constant (window growth scale, packets/sec^3).
const CUBIC_C: f64 = 0.4;
/// Default single-connection β.
const DEFAULT_BETA: f64 = 0.7;
/// Minimum congestion window after loss/RTO, in packets.
const MIN_CWND_PACKETS: u64 = 2;

/// Cubic configuration.
#[derive(Debug, Clone)]
pub struct CubicConfig {
    /// Sender maximum segment size in bytes.
    pub mss: u64,
    /// Initial congestion window in packets (gQUIC default 32, Linux 10).
    pub initial_cwnd_packets: u64,
    /// Maximum allowed congestion window in packets (QUIC's MACW);
    /// `None` = unclamped (the TCP model).
    pub max_cwnd_packets: Option<u64>,
    /// Number of emulated connections `N`.
    pub num_connections: u32,
    /// Enable Hybrid Slow Start.
    pub hystart: bool,
    /// Initial ssthresh in packets; `None` = unlimited. `Some(small)`
    /// reproduces the Chromium 52 bug where the slow-start threshold was
    /// never raised to the receiver-advertised buffer.
    pub initial_ssthresh_packets: Option<u64>,
}

impl CubicConfig {
    /// gQUIC defaults for QUIC 34 as calibrated by the paper
    /// (MACW = 430, N = 2).
    pub fn quic34(mss: u64) -> Self {
        CubicConfig {
            mss,
            initial_cwnd_packets: 32,
            max_cwnd_packets: Some(430),
            num_connections: 2,
            hystart: true,
            initial_ssthresh_packets: None,
        }
    }

    /// Linux TCP Cubic defaults (initial window 10, no MACW clamp).
    pub fn linux_tcp(mss: u64) -> Self {
        CubicConfig {
            mss,
            initial_cwnd_packets: 10,
            max_cwnd_packets: None,
            num_connections: 1,
            hystart: false,
            initial_ssthresh_packets: None,
        }
    }

    /// β after N-connection scaling: `(N - 1 + 0.7) / N`.
    pub fn beta(&self) -> f64 {
        let n = self.num_connections.max(1) as f64;
        (n - 1.0 + DEFAULT_BETA) / n
    }

    /// Reno-friendly α after N-connection scaling:
    /// `3 N^2 (1 - β) / (1 + β)`.
    pub fn alpha(&self) -> f64 {
        let n = self.num_connections.max(1) as f64;
        let beta = self.beta();
        3.0 * n * n * (1.0 - beta) / (1.0 + beta)
    }
}

/// Cubic congestion controller.
#[derive(Debug)]
pub struct Cubic {
    cfg: CubicConfig,
    cwnd: u64,
    ssthresh: u64,
    /// Epoch start of the current cubic growth curve; `None` until the
    /// first CA ack after a loss event (lazy init, as in gQUIC).
    epoch_start: Option<Time>,
    /// Window at the last reduction, in packets (W_max).
    w_max_packets: f64,
    /// Time offset of the cubic origin, seconds.
    k: f64,
    /// Window where the current cubic curve originated.
    origin_cwnd: u64,
    /// Reno-friendly companion estimate.
    est_tcp_cwnd: f64,
    /// Recovery epoch: losses of packets sent before this are ignored.
    recovery_start: Option<Time>,
    /// Whether we are between a congestion event and its recovery point.
    in_recovery_now: bool,
    prr: Prr,
    hystart: Option<HyStart>,
    app_limited_latch: bool,
}

impl Cubic {
    /// Create a controller; `now` anchors HyStart's first round.
    pub fn new(cfg: CubicConfig, now: Time) -> Self {
        let cwnd = cfg.initial_cwnd_packets * cfg.mss;
        let ssthresh = cfg
            .initial_ssthresh_packets
            .map(|p| p * cfg.mss)
            .unwrap_or(u64::MAX);
        let hystart = if cfg.hystart {
            Some(HyStart::new(now))
        } else {
            None
        };
        Cubic {
            cfg,
            cwnd,
            ssthresh,
            epoch_start: None,
            w_max_packets: 0.0,
            k: 0.0,
            origin_cwnd: 0,
            est_tcp_cwnd: 0.0,
            recovery_start: None,
            in_recovery_now: false,
            prr: Prr::default(),
            hystart,
            app_limited_latch: false,
        }
    }

    fn max_cwnd_bytes(&self) -> u64 {
        self.cfg
            .max_cwnd_packets
            .map(|p| p * self.cfg.mss)
            .unwrap_or(u64::MAX)
    }

    fn min_cwnd_bytes(&self) -> u64 {
        MIN_CWND_PACKETS * self.cfg.mss
    }

    fn clamp_cwnd(&mut self) {
        self.cwnd = self
            .cwnd
            .clamp(self.min_cwnd_bytes(), self.max_cwnd_bytes());
    }

    /// Cubic window as a function of elapsed time since the epoch.
    fn cubic_window(&self, elapsed: Dur) -> u64 {
        let t = elapsed.as_secs_f64();
        let delta_packets = CUBIC_C * (t - self.k).powi(3);
        let target_packets = self.w_max_packets + delta_packets;
        let origin_packets = self.origin_cwnd as f64 / self.cfg.mss as f64;
        // The curve passes through origin_cwnd at t = 0 by construction
        // (w_max*(plateau)); guard against numeric dips below the floor.
        let floor = origin_packets.min(MIN_CWND_PACKETS as f64);
        (target_packets.max(floor) * self.cfg.mss as f64) as u64
    }

    /// Begin a new cubic epoch from the current window.
    fn reset_epoch(&mut self, now: Time) {
        self.epoch_start = Some(now);
        self.origin_cwnd = self.cwnd;
        let cwnd_packets = self.cwnd as f64 / self.cfg.mss as f64;
        if self.w_max_packets <= cwnd_packets {
            // We are past the old maximum: restart the curve here.
            self.k = 0.0;
            self.w_max_packets = cwnd_packets;
        } else {
            self.k = ((self.w_max_packets - cwnd_packets) / CUBIC_C).cbrt();
        }
        self.est_tcp_cwnd = self.cwnd as f64;
    }
}

impl CongestionControl for Cubic {
    fn on_packet_sent(&mut self, _now: Time, bytes: u64, _in_flight_after: u64) {
        self.prr.on_sent(bytes);
    }

    fn on_ack(
        &mut self,
        now: Time,
        newest_acked_sent_at: Time,
        acked_bytes: u64,
        rtt: &RttEstimator,
        in_flight: u64,
        app_limited: bool,
    ) {
        self.prr.on_ack(acked_bytes);
        self.app_limited_latch = app_limited;

        // Recovery ends when data sent after the recovery start is acked.
        if self.in_recovery_now {
            if let Some(start) = self.recovery_start {
                if newest_acked_sent_at > start {
                    self.in_recovery_now = false;
                    self.prr.exit();
                }
            }
        }
        if self.in_recovery_now {
            return; // No window growth during recovery.
        }

        // Application-limited: do not grow the window (gQUIC behavior).
        if app_limited && in_flight < self.cwnd {
            return;
        }

        if self.cwnd < self.ssthresh {
            // Slow start: byte-counting exponential growth.
            self.cwnd += acked_bytes.min(self.cfg.mss);
            self.clamp_cwnd();
            if let Some(h) = self.hystart.as_mut() {
                if h.on_ack(now, newest_acked_sent_at, rtt.latest()) {
                    self.ssthresh = self.cwnd;
                }
            }
            if self.cwnd < self.ssthresh {
                return;
            }
            // Fall through into CA on exact boundary.
        }

        // Congestion avoidance: cubic + Reno-friendly region.
        if self.epoch_start.is_none() {
            self.reset_epoch(now);
        }
        let epoch = self.epoch_start.expect("epoch initialized above");
        // gQUIC adds min_rtt so the target reflects window at arrival of
        // the next ack.
        let elapsed = now.saturating_since(epoch) + rtt.min_rtt();
        let cubic_target = self.cubic_window(elapsed);
        self.est_tcp_cwnd += self.cfg.alpha() * acked_bytes as f64 / self.est_tcp_cwnd.max(1.0)
            * self.cfg.mss as f64;
        let target = cubic_target.max(self.est_tcp_cwnd as u64);
        // Never grow more than half the acked bytes per ack (gQUIC caps
        // growth rate to stay within 2x per RTT even in CA).
        let max_step = acked_bytes.max(1);
        self.cwnd = target.min(self.cwnd + max_step);
        self.clamp_cwnd();
    }

    fn on_congestion_event(
        &mut self,
        now: Time,
        lost_sent_at: Time,
        _lost_bytes: u64,
        in_flight: u64,
    ) {
        if self.in_recovery(lost_sent_at) {
            return; // Already reacted this epoch.
        }
        let cwnd_packets = self.cwnd as f64 / self.cfg.mss as f64;
        // Fast convergence: a loss below the last W_max releases bandwidth
        // to newer flows by remembering a lower maximum.
        if cwnd_packets < self.w_max_packets {
            self.w_max_packets = cwnd_packets * (1.0 + self.cfg.beta()) / 2.0;
        } else {
            self.w_max_packets = cwnd_packets;
        }
        self.cwnd = (self.cwnd as f64 * self.cfg.beta()) as u64;
        self.clamp_cwnd();
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
        self.recovery_start = Some(now);
        self.in_recovery_now = true;
        self.prr.enter(in_flight, self.ssthresh);
    }

    fn on_rto(&mut self, now: Time) {
        let cwnd_packets = self.cwnd as f64 / self.cfg.mss as f64;
        self.w_max_packets = cwnd_packets;
        self.ssthresh = ((self.cwnd as f64 * self.cfg.beta()) as u64).max(self.min_cwnd_bytes());
        self.cwnd = self.min_cwnd_bytes();
        self.epoch_start = None;
        self.recovery_start = Some(now);
        self.in_recovery_now = false;
        self.prr.exit();
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn can_send(&self, in_flight: u64, bytes: u64) -> bool {
        if self.in_recovery_now {
            return self.prr.can_send(in_flight, self.cfg.mss);
        }
        in_flight + bytes <= self.cwnd
    }

    fn in_recovery(&self, sent_at: Time) -> bool {
        match self.recovery_start {
            Some(start) => sent_at <= start,
            None => false,
        }
    }

    fn state(&self) -> Fig3State {
        Fig3State::Cubic(if self.in_recovery_now {
            CcState::Recovery
        } else if self.cwnd >= self.max_cwnd_bytes() {
            // The MACW clamp dominates: the window cannot grow regardless
            // of the slow-start threshold.
            CcState::CaMaxed
        } else if self.cwnd < self.ssthresh {
            CcState::SlowStart
        } else {
            CcState::CongestionAvoidance
        })
    }

    fn pacing_rate_bps(&self, rtt: &RttEstimator) -> f64 {
        let bw = self.cwnd as f64 * 8.0 / rtt.srtt().as_secs_f64().max(1e-6);
        if self.cwnd < self.ssthresh {
            2.0 * bw
        } else {
            1.25 * bw
        }
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1350;

    fn rtt36() -> RttEstimator {
        let mut r = RttEstimator::new(Dur::from_millis(36));
        r.on_sample(Dur::from_millis(36), Dur::ZERO);
        r
    }

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn n_connection_scaling() {
        let one = CubicConfig {
            num_connections: 1,
            ..CubicConfig::quic34(MSS)
        };
        let two = CubicConfig::quic34(MSS);
        assert!((one.beta() - 0.7).abs() < 1e-12);
        assert!((two.beta() - 0.85).abs() < 1e-12);
        // alpha(1) = 3*0.3/1.7 = 0.529..., alpha(2) = 12*0.15/1.85 = 0.973...
        assert!((one.alpha() - 0.5294).abs() < 1e-3);
        assert!((two.alpha() - 0.9730).abs() < 1e-3);
        assert!(two.alpha() > one.alpha(), "N=2 grows faster in CA");
    }

    #[test]
    fn initial_window() {
        let c = Cubic::new(CubicConfig::quic34(MSS), t(0));
        assert_eq!(c.cwnd(), 32 * MSS);
        let l = Cubic::new(CubicConfig::linux_tcp(MSS), t(0));
        assert_eq!(l.cwnd(), 10 * MSS);
    }

    #[test]
    fn slow_start_doubles_per_round() {
        let mut cfg = CubicConfig::quic34(MSS);
        cfg.hystart = false;
        let mut c = Cubic::new(cfg, t(0));
        let rtt = rtt36();
        let start = c.cwnd();
        // Ack one full window worth of data.
        let mut acked = 0;
        while acked < start {
            c.on_ack(t(36), t(0), MSS, &rtt, start - acked, false);
            acked += MSS;
        }
        assert_eq!(c.cwnd(), 2 * start);
    }

    #[test]
    fn macw_clamps_growth_and_reports_maxed() {
        let mut cfg = CubicConfig::quic34(MSS);
        cfg.hystart = false;
        cfg.max_cwnd_packets = Some(40);
        let mut c = Cubic::new(cfg, t(0));
        let rtt = rtt36();
        for i in 0..100 {
            c.on_ack(t(36 + i), t(0), MSS, &rtt, c.cwnd(), false);
        }
        assert_eq!(c.cwnd(), 40 * MSS);
        assert_eq!(c.state(), Fig3State::Cubic(CcState::CaMaxed));
        assert_eq!(c.state().label(), "CongestionAvoidanceMaxed");
    }

    #[test]
    fn loss_multiplies_window_by_beta() {
        let mut cfg = CubicConfig::quic34(MSS);
        cfg.hystart = false;
        let mut c = Cubic::new(cfg, t(0));
        let before = c.cwnd();
        c.on_congestion_event(t(100), t(90), MSS, before);
        let expect = (before as f64 * 0.85) as u64;
        assert_eq!(c.cwnd(), expect);
        assert_eq!(c.state(), Fig3State::Cubic(CcState::Recovery));
    }

    #[test]
    fn losses_within_one_epoch_reduce_once() {
        let mut c = Cubic::new(CubicConfig::quic34(MSS), t(0));
        let before = c.cwnd();
        c.on_congestion_event(t(100), t(90), MSS, before);
        let after_first = c.cwnd();
        // Second loss for a packet sent before the recovery started.
        c.on_congestion_event(t(101), t(95), MSS, after_first);
        assert_eq!(c.cwnd(), after_first, "no double reduction");
        // A loss for data sent after recovery began does reduce again.
        c.on_congestion_event(t(200), t(150), MSS, after_first);
        assert!(c.cwnd() < after_first);
    }

    #[test]
    fn recovery_exits_when_new_data_acked() {
        let mut c = Cubic::new(CubicConfig::quic34(MSS), t(0));
        let rtt = rtt36();
        c.on_congestion_event(t(100), t(90), MSS, c.cwnd());
        assert_eq!(c.state(), Fig3State::Cubic(CcState::Recovery));
        // Ack data sent during recovery.
        c.on_ack(t(150), t(120), MSS, &rtt, c.cwnd() / 2, false);
        assert_ne!(c.state(), Fig3State::Cubic(CcState::Recovery));
    }

    #[test]
    fn cubic_growth_resumes_toward_wmax() {
        let mut cfg = CubicConfig::quic34(MSS);
        cfg.hystart = false;
        cfg.max_cwnd_packets = None;
        let mut c = Cubic::new(cfg, t(0));
        let rtt = rtt36();
        // Grow to 100 packets, then lose.
        for i in 0..80 {
            c.on_ack(t(36 + i), t(i), MSS, &rtt, c.cwnd(), false);
        }
        let peak = c.cwnd();
        c.on_congestion_event(t(200), t(199), MSS, peak);
        let reduced = c.cwnd();
        assert!(reduced < peak);
        // Exit recovery, then grow for several seconds of acks.
        let mut now_ms = 300;
        for _ in 0..2000 {
            c.on_ack(t(now_ms), t(now_ms - 10), MSS, &rtt, c.cwnd(), false);
            now_ms += 9;
        }
        assert!(
            c.cwnd() > peak,
            "cubic should re-reach and exceed W_max: {} vs {}",
            c.cwnd(),
            peak
        );
    }

    #[test]
    fn rto_collapses_window() {
        let mut c = Cubic::new(CubicConfig::quic34(MSS), t(0));
        let before = c.cwnd();
        c.on_rto(t(500));
        assert_eq!(c.cwnd(), 2 * MSS);
        assert!(c.ssthresh() < before);
        assert!(c.ssthresh() >= 2 * MSS);
    }

    #[test]
    fn buggy_ssthresh_exits_slow_start_early() {
        // The Chromium 52 bug: ssthresh fixed low. Growth stops doubling
        // at 38 packets instead of rising to the BDP.
        let mut cfg = CubicConfig::quic34(MSS);
        cfg.hystart = false;
        cfg.initial_ssthresh_packets = Some(38);
        let mut c = Cubic::new(cfg, t(0));
        let rtt = rtt36();
        for i in 0..40 {
            c.on_ack(t(36 + i), t(0), MSS, &rtt, c.cwnd(), false);
        }
        // Already in CA even though we've acked only ~40 packets.
        assert_eq!(c.state(), Fig3State::Cubic(CcState::CongestionAvoidance));
        assert!(c.cwnd() < 50 * MSS);
    }

    #[test]
    fn app_limited_acks_do_not_grow_window() {
        let mut cfg = CubicConfig::quic34(MSS);
        cfg.hystart = false;
        let mut c = Cubic::new(cfg, t(0));
        let rtt = rtt36();
        let before = c.cwnd();
        for i in 0..50 {
            c.on_ack(t(36 + i), t(0), MSS, &rtt, MSS, true);
        }
        assert_eq!(c.cwnd(), before);
    }

    #[test]
    fn prr_gates_sending_in_recovery() {
        let mut c = Cubic::new(CubicConfig::quic34(MSS), t(0));
        let in_flight = c.cwnd();
        c.on_congestion_event(t(100), t(90), MSS, in_flight);
        // Immediately after entering recovery nothing was delivered, so
        // PRR blocks even though in_flight < cwnd might hold.
        assert!(!c.can_send(in_flight - MSS, MSS));
        let rtt = rtt36();
        // Deliver a few packets: budget opens.
        c.on_ack(t(110), t(95), 4 * MSS, &rtt, in_flight - 4 * MSS, false);
        // (ack of pre-recovery data keeps us in recovery)
        assert!(c.can_send(in_flight - 4 * MSS, MSS));
    }

    #[test]
    fn can_send_respects_cwnd() {
        let c = Cubic::new(CubicConfig::quic34(MSS), t(0));
        assert!(c.can_send(0, MSS));
        assert!(c.can_send(31 * MSS, MSS));
        assert!(!c.can_send(32 * MSS, MSS));
    }

    #[test]
    fn pacing_rate_reflects_phase() {
        let mut cfg = CubicConfig::quic34(MSS);
        cfg.hystart = false;
        let mut c = Cubic::new(cfg, t(0));
        let rtt = rtt36();
        let ss_rate = c.pacing_rate_bps(&rtt);
        // Force into CA.
        c.on_congestion_event(t(10), t(5), MSS, c.cwnd());
        c.on_ack(t(50), t(20), MSS, &rtt, c.cwnd(), false);
        let ca_rate = c.pacing_rate_bps(&rtt);
        let bw = c.cwnd() as f64 * 8.0 / 0.036;
        assert!((ca_rate / bw - 1.25).abs() < 0.01);
        assert!(ss_rate > ca_rate);
    }
}
