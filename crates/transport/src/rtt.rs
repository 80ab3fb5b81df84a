//! RTT estimation (RFC 6298 smoothing) with QUIC's ack-delay correction.
//!
//! A core claim of the paper (Sec 2.1) is that "QUIC's ACK implementation
//! eliminates ACK ambiguity ... \[and\] provides more precise timing
//! information that improves bandwidth and RTT estimates". Two mechanisms
//! produce that here:
//!
//! * QUIC acks carry the receiver's *ack delay*, which the estimator
//!   subtracts to isolate propagation from receiver scheduling;
//! * QUIC packet numbers are never reused, so every ack yields a valid
//!   sample — whereas the TCP model obeys Karn's algorithm and discards
//!   samples for retransmitted sequences (see `longlook-tcp`).

use longlook_sim::time::Dur;

/// RTT both protocol models assume before their first sample.
pub const INITIAL_RTT: Dur = Dur::from_millis(100);
/// Lower clamp for the RTO.
const MIN_RTO: Dur = Dur::from_millis(200);
/// Upper clamp for the RTO.
const MAX_RTO: Dur = Dur::from_secs(60);

/// Smoothed RTT state for one connection.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<Dur>,
    rttvar: Dur,
    min_rtt: Dur,
    latest: Dur,
    /// Default RTT assumed before the first sample.
    initial_rtt: Dur,
}

impl RttEstimator {
    /// Create an estimator. `initial_rtt` seeds timers before any sample.
    pub fn new(initial_rtt: Dur) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: Dur::ZERO,
            min_rtt: Dur::MAX,
            latest: initial_rtt,
            initial_rtt,
        }
    }

    /// Feed a sample. `ack_delay` is the peer-reported delay between
    /// receiving the packet and sending the ack (zero for TCP); it is
    /// subtracted unless that would push the sample below the observed
    /// minimum (QUIC's rule, which guards against lying peers).
    pub fn on_sample(&mut self, measured: Dur, ack_delay: Dur) {
        if measured < self.min_rtt {
            self.min_rtt = measured;
        }
        let adjusted = if measured.saturating_sub(ack_delay) >= self.min_rtt {
            measured.saturating_sub(ack_delay)
        } else {
            measured
        };
        self.latest = adjusted;
        match self.srtt {
            None => {
                self.srtt = Some(adjusted);
                self.rttvar = Dur::from_nanos(adjusted.as_nanos() / 2);
            }
            Some(srtt) => {
                // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - sample|.
                let err = if srtt > adjusted {
                    srtt - adjusted
                } else {
                    adjusted - srtt
                };
                self.rttvar = Dur::from_nanos((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                // srtt = 7/8 srtt + 1/8 sample.
                self.srtt = Some(Dur::from_nanos(
                    (7 * srtt.as_nanos() + adjusted.as_nanos()) / 8,
                ));
            }
        }
    }

    /// Smoothed RTT (the initial assumption before any sample).
    pub fn srtt(&self) -> Dur {
        self.srtt.unwrap_or(self.initial_rtt)
    }

    /// Latest accepted sample.
    pub fn latest(&self) -> Dur {
        self.latest
    }

    /// Minimum RTT observed (the initial assumption before any sample).
    pub fn min_rtt(&self) -> Dur {
        if self.min_rtt == Dur::MAX {
            self.initial_rtt
        } else {
            self.min_rtt
        }
    }

    /// RTT variation estimate.
    pub fn rttvar(&self) -> Dur {
        self.rttvar
    }

    /// Retransmission timeout: `srtt + max(4*rttvar, 1ms)`, clamped.
    pub fn rto(&self) -> Dur {
        let var_term = (self.rttvar * 4).max(Dur::from_millis(1));
        (self.srtt() + var_term).clamp(MIN_RTO, MAX_RTO)
    }

    /// Tail-loss-probe delay: `max(2*srtt, 10ms)` (simplified from the TLP
    /// draft the paper cites).
    pub fn tlp_timeout(&self) -> Dur {
        (self.srtt() * 2).max(Dur::from_millis(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Dur {
        Dur::from_millis(v)
    }

    #[test]
    fn first_sample_initializes() {
        let mut r = RttEstimator::new(ms(100));
        assert_eq!(r.srtt(), ms(100));
        r.on_sample(ms(40), Dur::ZERO);
        assert_eq!(r.srtt(), ms(40));
        assert_eq!(r.min_rtt(), ms(40));
        assert_eq!(r.rttvar(), ms(20));
    }

    #[test]
    fn smoothing_converges() {
        let mut r = RttEstimator::new(ms(100));
        for _ in 0..100 {
            r.on_sample(ms(36), Dur::ZERO);
        }
        let srtt = r.srtt().as_millis_f64();
        assert!((srtt - 36.0).abs() < 0.5, "srtt = {srtt}");
        assert!(r.rttvar() < ms(1));
    }

    #[test]
    fn ack_delay_is_subtracted() {
        let mut r = RttEstimator::new(ms(100));
        r.on_sample(ms(50), Dur::ZERO); // min = 50
        r.on_sample(ms(80), ms(25)); // adjusted to 55
        assert_eq!(r.latest(), ms(55));
    }

    #[test]
    fn ack_delay_not_applied_below_min() {
        let mut r = RttEstimator::new(ms(100));
        r.on_sample(ms(50), Dur::ZERO);
        // Subtracting 30 would give 40 < min 50: use raw sample.
        r.on_sample(ms(70), ms(30));
        assert_eq!(r.latest(), ms(70));
    }

    #[test]
    fn rto_floors_and_tracks_variance() {
        let mut r = RttEstimator::new(ms(100));
        for _ in 0..50 {
            r.on_sample(ms(36), Dur::ZERO);
        }
        // Stable RTT: RTO floors at min_rto (200ms) since srtt+4var is small.
        assert_eq!(r.rto(), ms(200));
        // Inject variance: RTO rises above the floor.
        for i in 0..20u64 {
            r.on_sample(ms(36 + (i % 2) * 150), Dur::ZERO);
        }
        assert!(r.rto() > ms(200));
    }

    #[test]
    fn tlp_timeout_scales_with_srtt() {
        let mut r = RttEstimator::new(ms(100));
        r.on_sample(ms(40), Dur::ZERO);
        assert_eq!(r.tlp_timeout(), ms(80));
        let mut fast = RttEstimator::new(ms(100));
        fast.on_sample(ms(2), Dur::ZERO);
        assert_eq!(fast.tlp_timeout(), ms(10), "floor applies");
    }

    #[test]
    fn min_rtt_tracks_smallest() {
        let mut r = RttEstimator::new(ms(100));
        r.on_sample(ms(50), Dur::ZERO);
        r.on_sample(ms(30), Dur::ZERO);
        r.on_sample(ms(90), Dur::ZERO);
        assert_eq!(r.min_rtt(), ms(30));
    }
}
