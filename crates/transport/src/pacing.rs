//! Packet pacing: spacing transmissions to avoid bursty losses.
//!
//! The paper lists pacing among QUIC's congestion-control enhancements
//! ("QUIC includes packet pacing to space packet transmissions in a way
//! that reduces bursty packet losses"). The pacer is a token bucket whose
//! fill rate tracks the congestion controller's pacing rate; a small burst
//! allowance keeps short flows from being delayed at startup.

use longlook_sim::time::{transmission_delay, Time};

/// Token-bucket pacer.
#[derive(Debug, Clone)]
pub struct Pacer {
    /// Burst allowance in bytes.
    burst: f64,
    tokens: f64,
    last_refill: Time,
    enabled: bool,
}

impl Pacer {
    /// A pacer allowing an initial burst of `burst_bytes`.
    pub fn new(burst_bytes: u64) -> Self {
        Pacer {
            burst: burst_bytes as f64,
            tokens: burst_bytes as f64,
            last_refill: Time::ZERO,
            enabled: true,
        }
    }

    /// A disabled pacer (the TCP model: Linux in 2016 did not pace
    /// without `fq`).
    pub fn disabled() -> Self {
        Pacer {
            burst: 0.0,
            tokens: 0.0,
            last_refill: Time::ZERO,
            enabled: false,
        }
    }

    /// Whether pacing is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Credit the tokens earned since the last refill. A second refill at
    /// one instant would add exactly nothing (tokens never exceed the
    /// burst), so it returns at once.
    fn refill(&mut self, now: Time, rate_bps: f64) {
        if now == self.last_refill {
            return;
        }
        let elapsed = now.saturating_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + elapsed * rate_bps / 8.0).min(self.burst);
        self.last_refill = now;
    }

    /// When may a packet of `bytes` go out? Returns `now` if immediately.
    pub fn earliest_send(&mut self, now: Time, bytes: u64, rate_bps: f64) -> Time {
        if !self.enabled {
            return now;
        }
        self.refill(now, rate_bps);
        if self.tokens >= bytes as f64 {
            now
        } else {
            let deficit = bytes as f64 - self.tokens;
            now + transmission_delay(deficit.ceil() as u64, rate_bps.max(1.0))
        }
    }

    /// Account a transmission of `bytes` at `now`.
    pub fn on_sent(&mut self, now: Time, bytes: u64, rate_bps: f64) {
        if !self.enabled {
            return;
        }
        self.refill(now, rate_bps);
        // Tokens may go negative: the debt delays the next packet.
        self.tokens -= bytes as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_sim::time::Dur;
    use proptest::prelude::*;

    const RATE: f64 = 8e6; // 1 MB/s: 1000 bytes per ms

    fn t(us: u64) -> Time {
        Time::ZERO + Dur::from_micros(us)
    }

    #[test]
    fn disabled_pacer_never_delays() {
        let mut p = Pacer::disabled();
        for i in 0..10 {
            assert_eq!(p.earliest_send(t(i), 100_000, RATE), t(i));
            p.on_sent(t(i), 100_000, RATE);
        }
    }

    #[test]
    fn burst_then_paced() {
        let mut p = Pacer::new(2000);
        // First two 1000-byte packets ride the burst.
        assert_eq!(p.earliest_send(t(0), 1000, RATE), t(0));
        p.on_sent(t(0), 1000, RATE);
        assert_eq!(p.earliest_send(t(0), 1000, RATE), t(0));
        p.on_sent(t(0), 1000, RATE);
        // Third must wait one serialization time (1ms at 1MB/s).
        let ready = p.earliest_send(t(0), 1000, RATE);
        assert_eq!(ready, t(1000));
    }

    #[test]
    fn tokens_refill_over_time() {
        let mut p = Pacer::new(1000);
        p.on_sent(t(0), 1000, RATE);
        assert!(p.earliest_send(t(0), 1000, RATE) > t(0));
        // After 1ms, one packet's worth refilled.
        assert_eq!(p.earliest_send(t(1000), 1000, RATE), t(1000));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut p = Pacer::new(1500);
        // Long idle: tokens cap at burst, allowing one packet + partial.
        assert_eq!(p.earliest_send(t(10_000_000), 1000, RATE), t(10_000_000));
        p.on_sent(t(10_000_000), 1000, RATE);
        p.on_sent(t(10_000_000), 1000, RATE);
        // Now in debt by 500: next packet waits 0.5ms then serialization.
        let ready = p.earliest_send(t(10_000_000), 1000, RATE);
        assert_eq!(ready, t(10_001_500));
    }

    /// The pacer as it was before `refill` skipped a repeated instant:
    /// the same token bucket, refilled on every call.
    struct EveryCallPacer {
        burst: f64,
        tokens: f64,
        last_refill: Time,
    }

    impl EveryCallPacer {
        fn refill(&mut self, now: Time, rate_bps: f64) {
            let elapsed = now.saturating_since(self.last_refill).as_secs_f64();
            self.tokens = (self.tokens + elapsed * rate_bps / 8.0).min(self.burst);
            self.last_refill = now;
        }

        fn earliest_send(&mut self, now: Time, bytes: u64, rate_bps: f64) -> Time {
            self.refill(now, rate_bps);
            if self.tokens >= bytes as f64 {
                now
            } else {
                let deficit = bytes as f64 - self.tokens;
                now + transmission_delay(deficit.ceil() as u64, rate_bps.max(1.0))
            }
        }

        fn on_sent(&mut self, now: Time, bytes: u64, rate_bps: f64) {
            self.refill(now, rate_bps);
            self.tokens -= bytes as f64;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Refilling once per instant is indistinguishable from refilling
        /// on every call: the same `earliest_send` answers and
        /// bit-identical tokens over non-decreasing times with repeats,
        /// the rate changing between calls as a controller's does.
        #[test]
        fn refill_once_per_instant_matches_refill_every_call(
            burst in 0u64..20_000,
            ops in proptest::collection::vec((0u8..3, 0u64..4, 1u64..3000, 1e5f64..1e10), 1..200),
        ) {
            let mut pacer = Pacer::new(burst);
            let mut model = EveryCallPacer {
                burst: burst as f64,
                tokens: burst as f64,
                last_refill: Time::ZERO,
            };
            let mut now = Time::ZERO;
            for (op, step, bytes, rate) in ops {
                // Half the calls repeat the previous instant; a quarter
                // come within a microsecond of it.
                now += Dur::from_nanos(match step {
                    0 | 1 => 0,
                    2 => bytes % 1000 + 1,
                    _ => bytes * 997,
                });
                if op == 0 {
                    pacer.on_sent(now, bytes, rate);
                    model.on_sent(now, bytes, rate);
                } else {
                    prop_assert_eq!(
                        pacer.earliest_send(now, bytes, rate),
                        model.earliest_send(now, bytes, rate)
                    );
                }
                prop_assert_eq!(pacer.tokens.to_bits(), model.tokens.to_bits());
            }
        }
    }

    #[test]
    fn higher_rate_means_less_delay() {
        let mut slow = Pacer::new(0);
        let mut fast = Pacer::new(0);
        let d_slow = slow.earliest_send(t(0), 1000, RATE) - t(0);
        let d_fast = fast.earliest_send(t(0), 1000, 10.0 * RATE) - t(0);
        assert!(d_fast < d_slow);
    }
}
