//! Property-based tests for congestion control and RTT estimation
//! invariants, and the typed Fig-3 state sampler against the label
//! sampler it replaced.

mod oracle;

use longlook_sim::time::{Dur, Time};
use longlook_sim::trace::{RecoveryKind, TraceEvent};
use longlook_sim::{TraceMode, Tracer};
use longlook_transport::cc::CongestionControl;
use longlook_transport::ccstate::{BbrState, CcState, Fig3State};
use longlook_transport::chassis::{ConnTelemetry, RecoveryTimer};
use longlook_transport::cubic::{Cubic, CubicConfig};
use longlook_transport::prr::Prr;
use longlook_transport::rtt::RttEstimator;
use oracle::LabelSampler;
use proptest::prelude::*;

fn t(ms: u64) -> Time {
    Time::ZERO + Dur::from_millis(ms)
}

proptest! {
    /// The congestion window stays within [2 MSS, MACW] no matter what
    /// sequence of acks, losses, and RTOs the controller sees.
    #[test]
    fn cubic_cwnd_always_bounded(
        events in proptest::collection::vec(0u8..4, 1..300),
        macw in 10u64..500,
    ) {
        let mss = 1350u64;
        let mut cfg = CubicConfig::quic34(mss);
        cfg.max_cwnd_packets = Some(macw);
        let mut cubic = Cubic::new(cfg, t(0));
        let mut rtt = RttEstimator::new(Dur::from_millis(36));
        rtt.on_sample(Dur::from_millis(36), Dur::ZERO);
        let mut now_ms = 1u64;
        for e in events {
            now_ms += 7;
            match e {
                0 | 1 => cubic.on_ack(
                    t(now_ms),
                    t(now_ms.saturating_sub(36)),
                    mss,
                    &rtt,
                    cubic.cwnd() / 2,
                    false,
                ),
                2 => cubic.on_congestion_event(
                    t(now_ms),
                    t(now_ms.saturating_sub(10)),
                    mss,
                    cubic.cwnd(),
                ),
                _ => cubic.on_rto(t(now_ms)),
            }
            prop_assert!(cubic.cwnd() >= 2 * mss, "cwnd below floor");
            prop_assert!(cubic.cwnd() <= macw * mss, "cwnd above MACW");
        }
    }

    /// A congestion event never increases the window.
    #[test]
    fn loss_never_grows_window(grow_acks in 1u64..200) {
        let mss = 1350u64;
        let mut cfg = CubicConfig::quic34(mss);
        cfg.hystart = false;
        let mut cubic = Cubic::new(cfg, t(0));
        let mut rtt = RttEstimator::new(Dur::from_millis(36));
        rtt.on_sample(Dur::from_millis(36), Dur::ZERO);
        for k in 0..grow_acks {
            cubic.on_ack(t(10 + k), t(k), mss, &rtt, cubic.cwnd(), false);
        }
        let before = cubic.cwnd();
        cubic.on_congestion_event(t(1000), t(999), mss, before);
        prop_assert!(cubic.cwnd() <= before);
    }

    /// RTT estimator: srtt always lies within the observed sample range,
    /// and the RTO never drops below its floor.
    #[test]
    fn rtt_srtt_within_range(samples in proptest::collection::vec(1u64..2_000, 1..100)) {
        let mut est = RttEstimator::new(Dur::from_millis(100));
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for &ms in &samples {
            est.on_sample(Dur::from_millis(ms), Dur::ZERO);
            lo = lo.min(ms);
            hi = hi.max(ms);
        }
        let srtt = est.srtt().as_millis_f64();
        // First sample seeds srtt, so range bounds include the initial 100ms
        // only if it was never updated — here we always update.
        prop_assert!(srtt >= lo as f64 - 1e-6, "srtt {srtt} below min {lo}");
        prop_assert!(srtt <= hi as f64 + 1e-6, "srtt {srtt} above max {hi}");
        prop_assert!(est.rto() >= Dur::from_millis(200));
        prop_assert!(est.min_rtt() == Dur::from_millis(lo));
    }

    /// PRR never allows the pipe to grow past ssthresh while it is the
    /// binding constraint (SSRB mode).
    #[test]
    fn prr_bounds_pipe_in_ssrb(
        deliveries in proptest::collection::vec(1u64..4, 1..60),
    ) {
        let mss = 1000u64;
        let mut prr = Prr::default();
        let ssthresh = 10 * mss;
        let mut in_flight = 20 * mss;
        prr.enter(in_flight, ssthresh);
        for &d in &deliveries {
            let delivered = d * mss;
            prr.on_ack(delivered);
            in_flight = in_flight.saturating_sub(delivered);
            while prr.can_send(in_flight, mss) {
                prr.on_sent(mss);
                in_flight += mss;
                // The pipe must never exceed its value at entry; once at or
                // below ssthresh it must not cross back above it.
                prop_assert!(in_flight <= 20 * mss + mss);
                if in_flight <= ssthresh {
                    prop_assert!(in_flight <= ssthresh + mss);
                }
            }
        }
    }

    /// The estimator's ack-delay adjustment never produces a sample below
    /// the tracked minimum.
    #[test]
    fn ack_delay_never_undercuts_min(
        pairs in proptest::collection::vec((10u64..500, 0u64..200), 1..50),
    ) {
        let mut est = RttEstimator::new(Dur::from_millis(100));
        for &(raw, delay) in &pairs {
            est.on_sample(Dur::from_millis(raw), Dur::from_millis(delay));
            prop_assert!(est.latest() >= est.min_rtt());
        }
    }
}

/// The four states a controller of each kind reports: Cubic's Table 3
/// phases, BBR's Fig 3b states.
fn controller_state(bbr: bool, i: u64) -> Fig3State {
    if bbr {
        let s = [
            BbrState::Startup,
            BbrState::Drain,
            BbrState::ProbeBw,
            BbrState::ProbeRtt,
        ];
        Fig3State::Bbr(s[i as usize % 4])
    } else {
        let s = [
            CcState::SlowStart,
            CcState::CongestionAvoidance,
            CcState::CaMaxed,
            CcState::Recovery,
        ];
        Fig3State::Cubic(s[i as usize % 4])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Sampling the typed state and logging its label only on change
    /// gives exactly what comparing label strings on every sample gave:
    /// the same `StateTrace` visits and the same `CcState` trace records
    /// after every sample, over random controller states (Cubic's four
    /// phases or BBR's four states), handshake, sticky RTO/TLP labels from
    /// a real `RecoveryTimer`, and app-limited flags, at non-decreasing
    /// times with repeats.
    #[test]
    fn typed_state_sampling_matches_label_sampling(
        bbr in any::<bool>(),
        tlp in any::<bool>(),
        first in 0u64..4,
        ops in proptest::collection::vec((0u8..6, 0u64..8, 1u64..4), 1..150),
    ) {
        let mut now = Time::ZERO + Dur::from_millis(first);
        let mut cc = controller_state(bbr, first);
        let mut typed = ConnTelemetry::new(now, TraceMode::On, cc);
        let mut labels = LabelSampler::new(now, cc);
        let mut timer = RecoveryTimer::new(tlp);
        let mut timer_log = Tracer::new(false);
        let mut rtt = RttEstimator::new(Dur::from_millis(100));
        rtt.on_sample(Dur::from_millis(40), Dur::ZERO);
        let (mut established, mut app_limited) = (false, false);
        let (mut in_rto, mut in_tlp) = (false, false);
        for (op, x, samples) in ops {
            match op {
                0 | 1 => cc = controller_state(bbr, x),
                2 => established = x % 4 != 0,
                3 => app_limited = x % 2 == 0,
                // The timer fires at its deadline: a probe while TLPs
                // remain, then timeouts.
                4 if x % 3 != 0 => {
                    timer.rearm(now, true, &rtt, &mut timer_log);
                    now = timer.deadline(true, &rtt).expect("armed").max(now);
                    match timer.expire(now, true, &rtt, &mut timer_log) {
                        Some(RecoveryKind::Tlp) => in_tlp = true,
                        Some(_) => in_rto = true,
                        None => prop_assert!(false, "an armed timer fires at its deadline"),
                    }
                }
                // New data acked: the sticky labels clear.
                _ => {
                    timer.on_new_data_acked();
                    in_rto = false;
                    in_tlp = false;
                }
            }
            for k in 0..samples {
                // Half the samples repeat the previous instant.
                now += Dur::from_micros((x + k) % 2 * (1 + x * 250));
                typed.update_state(now, cc, established, &timer, app_limited);
                labels.update(now, cc, established, in_rto, in_tlp, app_limited);
                prop_assert_eq!(&typed.state_trace(now).visits[..], labels.visits());
                let typed_states: Vec<_> = typed
                    .tracer
                    .records()
                    .iter()
                    .filter(|r| matches!(r.ev, TraceEvent::CcState { .. }))
                    .collect();
                prop_assert_eq!(typed_states, labels.records().iter().collect::<Vec<_>>());
            }
        }
    }
}
