//! A simplified BBR congestion controller.
//!
//! The paper instrumented gQUIC's *experimental* BBR to show the inference
//! approach generalizes beyond Cubic (Fig 3b): Startup → Drain → ProbeBW
//! with periodic ProbeRTT excursions. This implementation follows the
//! published BBR v1 sketch — windowed-max bandwidth filter, windowed-min
//! RTT filter, pacing-gain cycling — at the fidelity needed for state
//! machine extraction and the CC ablation benches, not as a tuned
//! production controller (Google told the authors BBR was "not yet
//! performing as well as Cubic" at the time).

use crate::cc::CongestionControl;
use crate::ccstate::{BbrState, Fig3State};
use crate::rtt::RttEstimator;
use longlook_sim::time::{Dur, Time};

/// Startup/Drain pacing gain: 2/ln(2).
const STARTUP_GAIN: f64 = 2.885;
/// ProbeBW gain cycle.
const CYCLE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// How long a bandwidth sample stays in the max filter.
const BW_WINDOW: Dur = Dur::from_secs(2);
/// Re-probe min RTT at least this often.
const MIN_RTT_WINDOW: Dur = Dur::from_secs(10);
/// Duration of a ProbeRTT excursion.
const PROBE_RTT_DURATION: Dur = Dur::from_millis(200);

/// Simplified BBR.
#[derive(Debug)]
pub struct Bbr {
    mss: u64,
    state: BbrState,
    cwnd: u64,
    /// `(sample_time, bits_per_sec)` bandwidth samples.
    bw_samples: Vec<(Time, f64)>,
    min_rtt: Dur,
    min_rtt_at: Time,
    /// Bandwidth plateau detection in Startup.
    full_bw: f64,
    full_bw_rounds: u32,
    /// ProbeBW cycle position.
    cycle_index: usize,
    cycle_start: Time,
    probe_rtt_done_at: Option<Time>,
    /// Last ack time, for delivery-rate estimation.
    last_ack_at: Option<Time>,
    recovery_start: Option<Time>,
}

impl Bbr {
    /// Create a BBR controller.
    pub fn new(mss: u64, _now: Time) -> Self {
        Bbr {
            mss,
            state: BbrState::Startup,
            cwnd: 32 * mss,
            bw_samples: Vec::new(),
            min_rtt: Dur::MAX,
            min_rtt_at: Time::ZERO,
            full_bw: 0.0,
            full_bw_rounds: 0,
            cycle_index: 0,
            cycle_start: Time::ZERO,
            probe_rtt_done_at: None,
            last_ack_at: None,
            recovery_start: None,
        }
    }

    /// Current BBR state (for Fig 3b traces).
    pub fn bbr_state(&self) -> BbrState {
        self.state
    }

    fn max_bw(&self) -> f64 {
        self.bw_samples
            .iter()
            .map(|&(_, bw)| bw)
            .fold(0.0, f64::max)
    }

    fn bdp_bytes(&self) -> u64 {
        if self.min_rtt == Dur::MAX {
            return 64 * self.mss;
        }
        ((self.max_bw() / 8.0) * self.min_rtt.as_secs_f64()).max(4.0 * self.mss as f64) as u64
    }

    fn pacing_gain(&self) -> f64 {
        match self.state {
            BbrState::Startup => STARTUP_GAIN,
            BbrState::Drain => 1.0 / STARTUP_GAIN,
            BbrState::ProbeBw => CYCLE_GAINS[self.cycle_index],
            BbrState::ProbeRtt => 1.0,
        }
    }

    fn update_cwnd(&mut self) {
        self.cwnd = match self.state {
            BbrState::ProbeRtt => 4 * self.mss,
            BbrState::Startup => (2.0 * self.bdp_bytes() as f64) as u64,
            _ => (2.0 * self.bdp_bytes() as f64) as u64,
        }
        .max(4 * self.mss);
    }
}

impl CongestionControl for Bbr {
    fn on_packet_sent(&mut self, _now: Time, _bytes: u64, _in_flight_after: u64) {}

    fn on_ack(
        &mut self,
        now: Time,
        _newest_acked_sent_at: Time,
        acked_bytes: u64,
        rtt: &RttEstimator,
        in_flight: u64,
        app_limited: bool,
    ) {
        // Delivery-rate sample from inter-ack spacing.
        if let Some(prev) = self.last_ack_at {
            let gap = now.saturating_since(prev);
            if gap > Dur::ZERO && !app_limited {
                let bw = acked_bytes as f64 * 8.0 / gap.as_secs_f64();
                self.bw_samples.push((now, bw));
            }
        }
        self.last_ack_at = Some(now);
        self.bw_samples
            .retain(|&(t, _)| now.saturating_since(t) <= BW_WINDOW);

        // Min RTT filter: only ever tightens here. A stale window is not
        // refreshed in place — staleness of `min_rtt_at` is what drives
        // the ProbeBW -> ProbeRTT transition below, and ProbeRTT takes a
        // fresh sample on exit.
        let sample = rtt.latest();
        if sample < self.min_rtt {
            self.min_rtt = sample;
            self.min_rtt_at = now;
        }

        match self.state {
            BbrState::Startup => {
                let bw = self.max_bw();
                if bw > self.full_bw * 1.25 {
                    self.full_bw = bw;
                    self.full_bw_rounds = 0;
                } else if bw > 0.0 {
                    self.full_bw_rounds += 1;
                    if self.full_bw_rounds >= 3 {
                        self.state = BbrState::Drain;
                    }
                }
            }
            BbrState::Drain => {
                if in_flight <= self.bdp_bytes() {
                    self.state = BbrState::ProbeBw;
                    self.cycle_start = now;
                    self.cycle_index = 0;
                }
            }
            BbrState::ProbeBw => {
                let phase_len = self.min_rtt.min(Dur::from_millis(200));
                if now.saturating_since(self.cycle_start) >= phase_len {
                    self.cycle_index = (self.cycle_index + 1) % CYCLE_GAINS.len();
                    self.cycle_start = now;
                }
                if now.saturating_since(self.min_rtt_at) > MIN_RTT_WINDOW {
                    self.state = BbrState::ProbeRtt;
                    self.probe_rtt_done_at = Some(now + PROBE_RTT_DURATION);
                }
            }
            BbrState::ProbeRtt => {
                if let Some(done) = self.probe_rtt_done_at {
                    if now >= done {
                        self.min_rtt = sample;
                        self.min_rtt_at = now;
                        self.state = BbrState::ProbeBw;
                        self.cycle_start = now;
                    }
                }
            }
        }
        self.update_cwnd();
    }

    fn on_congestion_event(
        &mut self,
        now: Time,
        lost_sent_at: Time,
        _lost_bytes: u64,
        _in_flight: u64,
    ) {
        // BBR v1 largely ignores individual losses; just note the epoch.
        if !self.in_recovery(lost_sent_at) {
            self.recovery_start = Some(now);
        }
    }

    fn on_rto(&mut self, _now: Time) {
        self.cwnd = 4 * self.mss;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        u64::MAX
    }

    fn can_send(&self, in_flight: u64, bytes: u64) -> bool {
        in_flight + bytes <= self.cwnd
    }

    fn in_recovery(&self, sent_at: Time) -> bool {
        matches!(self.recovery_start, Some(start) if sent_at <= start)
    }

    fn pacing_rate_bps(&self, rtt: &RttEstimator) -> f64 {
        let bw = self.max_bw();
        let base = if bw > 0.0 {
            bw
        } else {
            self.cwnd as f64 * 8.0 / rtt.srtt().as_secs_f64().max(1e-6)
        };
        base * self.pacing_gain()
    }

    fn state(&self) -> Fig3State {
        Fig3State::Bbr(self.state)
    }

    fn name(&self) -> &'static str {
        "bbr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1350;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    fn rtt(ms_val: u64) -> RttEstimator {
        let mut r = RttEstimator::new(Dur::from_millis(100));
        r.on_sample(Dur::from_millis(ms_val), Dur::ZERO);
        r
    }

    /// Feed a steady ack clock: `acks` acks, 10ms apart, `bytes` each.
    fn steady_acks(b: &mut Bbr, start_ms: u64, acks: u64, bytes: u64, in_flight: u64) {
        let r = rtt(36);
        for i in 0..acks {
            b.on_ack(
                t(start_ms + 10 * i),
                t(start_ms),
                bytes,
                &r,
                in_flight,
                false,
            );
        }
    }

    #[test]
    fn starts_in_startup() {
        let b = Bbr::new(MSS, t(0));
        assert_eq!(b.bbr_state(), BbrState::Startup);
        assert_eq!(b.state(), Fig3State::Bbr(BbrState::Startup));
    }

    #[test]
    fn plateau_moves_to_drain_then_probebw() {
        let mut b = Bbr::new(MSS, t(0));
        // Constant delivery rate: bandwidth stops growing -> Drain.
        steady_acks(&mut b, 0, 30, 10 * MSS, 100 * MSS);
        assert_ne!(b.bbr_state(), BbrState::Startup, "should leave startup");
        // Small in_flight drains the queue -> ProbeBW.
        let r = rtt(36);
        b.on_ack(t(1000), t(990), MSS, &r, MSS, false);
        assert_eq!(b.bbr_state(), BbrState::ProbeBw);
    }

    #[test]
    fn probe_rtt_entered_when_min_rtt_stale() {
        let mut b = Bbr::new(MSS, t(0));
        steady_acks(&mut b, 0, 30, 10 * MSS, 100 * MSS);
        let r = rtt(36);
        b.on_ack(t(1000), t(990), MSS, &r, MSS, false);
        assert_eq!(b.bbr_state(), BbrState::ProbeBw);
        // 11 seconds later the min-RTT sample is stale.
        b.on_ack(t(12_000), t(11_990), MSS, &r, 10 * MSS, false);
        assert_eq!(b.bbr_state(), BbrState::ProbeRtt);
        assert_eq!(b.cwnd(), 4 * MSS, "ProbeRTT shrinks the window");
        // After the excursion it returns to ProbeBW.
        b.on_ack(t(12_300), t(12_290), MSS, &r, 2 * MSS, false);
        assert_eq!(b.bbr_state(), BbrState::ProbeBw);
    }

    #[test]
    fn cwnd_tracks_bdp() {
        let mut b = Bbr::new(MSS, t(0));
        steady_acks(&mut b, 0, 20, 10 * MSS, 100 * MSS);
        // Delivery rate = 10 MSS per 10ms = 1000 pkts/s = 10.8 Mbps;
        // min_rtt = 36ms -> BDP = 48.6KB; cwnd ~ 2 BDP.
        let bdp = (10.0 * MSS as f64 / 0.010) * 0.036;
        let expect = 2.0 * bdp;
        let got = b.cwnd() as f64;
        assert!(
            (got / expect - 1.0).abs() < 0.3,
            "cwnd {} vs 2*BDP {}",
            got,
            expect
        );
    }

    #[test]
    fn app_limited_samples_excluded() {
        let mut b = Bbr::new(MSS, t(0));
        let r = rtt(36);
        b.on_ack(t(0), t(0), 100 * MSS, &r, MSS, true);
        b.on_ack(t(10), t(0), 100 * MSS, &r, MSS, true);
        assert_eq!(b.max_bw(), 0.0, "app-limited acks produce no bw samples");
    }

    #[test]
    fn loss_does_not_collapse_window() {
        let mut b = Bbr::new(MSS, t(0));
        steady_acks(&mut b, 0, 20, 10 * MSS, 100 * MSS);
        let before = b.cwnd();
        b.on_congestion_event(t(300), t(290), MSS, 50 * MSS);
        assert_eq!(b.cwnd(), before, "BBR v1 ignores isolated losses");
    }
}
