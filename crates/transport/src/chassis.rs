//! The recovery chassis both protocol models embed by value: the
//! give-up [`Watchdog`], the TLP/RTO [`RecoveryTimer`] and the
//! [`ConnTelemetry`] bundle. Each owns its state *and* its rule, and none
//! knows which protocol it serves: the connections pass in what differs
//! ("is anything outstanding", "is the handshake done").

use crate::cc::CongestionControl;
use crate::ccstate::{CcState, StateTrace};
use crate::conn::{AppEvent, ConnError, ConnStats};
use crate::rtt::RttEstimator;
use longlook_sim::time::{Dur, Time};
use longlook_sim::trace::RecoveryKind;
use longlook_sim::{TraceMode, Tracer};
use std::collections::VecDeque;

/// How long an armed watchdog lets a handshake run before giving up.
pub const HANDSHAKE_TIMEOUT: Dur = Dur::from_secs(30);
/// How long an armed watchdog lets an established connection go without
/// inbound progress while work is outstanding.
pub const IDLE_TIMEOUT: Dur = Dur::from_secs(60);

/// Gives a connection up with a typed [`ConnError`] instead of letting it
/// retry forever into a blackout.
#[derive(Debug, Clone)]
pub struct Watchdog {
    armed: bool,
    started_at: Time,
    last_progress: Time,
    gave_up: bool,
    error: Option<ConnError>,
}

impl Watchdog {
    /// A watchdog for a connection constructed at `now`; never trips on
    /// its own unless `armed`.
    pub fn new(now: Time, armed: bool) -> Self {
        Watchdog {
            armed,
            started_at: now,
            last_progress: now,
            gave_up: false,
            error: None,
        }
    }

    /// When the watchdog next needs a wake. The handshake deadline is
    /// construction-relative; an established connection times out on
    /// inbound silence, but only while work is outstanding (`quiescent`
    /// is consulted lazily), so unfaulted runs still end idle.
    pub fn deadline(&self, established: bool, quiescent: impl FnOnce() -> bool) -> Option<Time> {
        if !self.armed || self.gave_up {
            None
        } else if !established {
            Some(self.started_at + HANDSHAKE_TIMEOUT)
        } else if !quiescent() {
            Some(self.last_progress + IDLE_TIMEOUT)
        } else {
            None
        }
    }

    /// The error to give up with if the deadline has passed at `now`.
    pub fn check(
        &self,
        now: Time,
        established: bool,
        quiescent: impl FnOnce() -> bool,
    ) -> Option<ConnError> {
        let at = self.deadline(established, quiescent)?;
        (now >= at).then_some(if established {
            ConnError::IdleTimeout
        } else {
            ConnError::HandshakeTimeout
        })
    }

    /// Stop trying (sticky) and log the give-up. `surface = false` mutes
    /// the typed error — the silent livelock the fuzzer's canary plants.
    pub fn trip(&mut self, err: ConnError, surface: bool, now: Time, tracer: &mut Tracer) {
        tracer.recovery(now.as_nanos(), RecoveryKind::GiveUp);
        self.gave_up = true;
        if surface {
            self.error = Some(err);
        }
    }

    /// Inbound traffic arrived: restart the idle clock.
    pub fn on_progress(&mut self, now: Time) {
        self.last_progress = now;
    }

    /// Whether the watchdog tripped.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// The surfaced terminal error, if any.
    pub fn error(&self) -> Option<ConnError> {
        self.error
    }
}

/// The loss-recovery timer: up to two tail loss probes, then an RTO whose
/// backoff doubles per consecutive expiry (shift capped at 6). Construct
/// with `tlp = false` for RTO only.
///
/// A re-arm is deferred to the next observation point
/// ([`deadline`](Self::deadline) / [`expire`](Self::expire)): a dispatch
/// that sends ten packets asks ten times and computes once. That is
/// exact: the schedule is a pure function of (`outstanding`, rtt,
/// counters), and every change to those is followed by a re-arm request
/// before the connection is next observed — so resolving the last request
/// late yields the deadline an eager re-arm would have stored
/// (`deferred_rearm_equals_eager_rearm`).
#[derive(Debug, Clone, Default)]
pub struct RecoveryTimer {
    tlp: bool,
    armed: Option<(RecoveryKind, Time)>,
    /// `now` of the newest deferred re-arm request.
    rearm_at: Option<Time>,
    tlp_count: u32,
    rto_backoff: u32,
    /// Sticky state labels, cleared by the next ack of new data.
    in_rto: bool,
    in_tlp: bool,
}

impl RecoveryTimer {
    /// A disarmed timer.
    pub fn new(tlp: bool) -> Self {
        RecoveryTimer {
            tlp,
            ..Default::default()
        }
    }

    fn schedule(
        &self,
        now: Time,
        outstanding: bool,
        rtt: &RttEstimator,
    ) -> Option<(RecoveryKind, Time)> {
        if !outstanding {
            None
        } else if self.tlp && self.tlp_count < 2 {
            Some((RecoveryKind::Tlp, now + rtt.tlp_timeout()))
        } else {
            let rto = rtt.rto().saturating_mul(1 << self.rto_backoff.min(6));
            Some((RecoveryKind::Rto, now + rto))
        }
    }

    /// Request a re-arm at `now` (after a send, an ack or a repair).
    pub fn rearm(&mut self, now: Time, outstanding: bool, rtt: &RttEstimator, tracer: &mut Tracer) {
        if tracer.enabled() {
            // Traced at the request, so the trace shows every arm and not
            // only the ones an observation resolved.
            if let Some((_, at)) = self.schedule(now, outstanding, rtt) {
                tracer.timer_arm(now.as_nanos(), at.as_nanos());
            }
        }
        self.rearm_at = Some(now);
    }

    /// The armed deadline; a deferred request supersedes the stored one.
    pub fn deadline(&self, outstanding: bool, rtt: &RttEstimator) -> Option<Time> {
        match self.rearm_at {
            Some(at) => self.schedule(at, outstanding, rtt),
            None => self.armed,
        }
        .map(|(_, at)| at)
    }

    /// Service the timer at `now`. An expiry with data outstanding counts
    /// the probe or timeout, sets its sticky label and returns the kind;
    /// the caller repairs, then calls [`rearm`](Self::rearm).
    pub fn expire(
        &mut self,
        now: Time,
        outstanding: bool,
        rtt: &RttEstimator,
        tracer: &mut Tracer,
    ) -> Option<RecoveryKind> {
        if let Some(at) = self.rearm_at.take() {
            self.armed = self.schedule(at, outstanding, rtt);
        }
        let (kind, at) = self.armed?;
        if now < at {
            return None;
        }
        if !outstanding {
            self.armed = None;
            return None;
        }
        tracer.timer_fire(now.as_nanos(), kind);
        tracer.recovery(now.as_nanos(), kind);
        if kind == RecoveryKind::Tlp {
            self.tlp_count += 1;
            self.in_tlp = true;
        } else {
            self.rto_backoff += 1;
            self.in_rto = true;
        }
        Some(kind)
    }

    /// New data was acked: the path works, so reset the schedule.
    pub fn on_new_data_acked(&mut self) {
        self.tlp_count = 0;
        self.rto_backoff = 0;
        self.in_rto = false;
        self.in_tlp = false;
    }

    /// Disarm, dropping any deferred request (the watchdog gave up).
    pub fn cancel(&mut self) {
        self.armed = None;
        self.rearm_at = None;
    }

    /// Consecutive RTOs since the last ack of new data.
    pub fn rto_backoff(&self) -> u32 {
        self.rto_backoff
    }
}

/// What a connection reports about itself: counters, cwnd timeline,
/// Fig-3 state trace, structured event trace and the app-event queue.
#[derive(Debug)]
pub struct ConnTelemetry {
    /// Counters.
    pub stats: ConnStats,
    /// Structured event trace; a disabled tracer is an inlined no-op.
    pub tracer: Tracer,
    /// Events awaiting `Connection::poll_event`.
    pub events: VecDeque<AppEvent>,
    cwnd_log: Vec<(Time, u64)>,
    states: StateTrace<'static>,
}

impl ConnTelemetry {
    /// Telemetry for a connection constructed at `now`, starting in `Init`
    /// unless the controller reports its own vocabulary (BBR, Fig 3b).
    pub fn new(now: Time, trace: TraceMode, cc: &dyn CongestionControl) -> Self {
        let initial = if cc.overlay_connection_states() {
            CcState::Init.label()
        } else {
            cc.state_label(now)
        };
        let mut tracer = Tracer::new(trace.is_on());
        tracer.cc_state(now.as_nanos(), initial);
        ConnTelemetry {
            stats: ConnStats::default(),
            tracer,
            events: VecDeque::new(),
            cwnd_log: vec![(now, 0)],
            states: StateTrace::new(now, initial),
        }
    }

    /// Count one outgoing packet of `wire_size` bytes and trace it.
    pub fn on_sent(&mut self, now: Time, pn: u64, wire_size: u32, elicit: bool) {
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += wire_size as u64;
        self.tracer
            .pkt_tx(now.as_nanos(), pn, wire_size as u64, elicit);
    }

    /// Record `cwnd` if it changed since the last entry.
    pub fn log_cwnd(&mut self, now: Time, cwnd: u64) {
        self.stats.max_cwnd = self.stats.max_cwnd.max(cwnd);
        if self.cwnd_log.last().map(|&(_, c)| c) != Some(cwnd) {
            self.cwnd_log.push((now, cwnd));
            self.tracer.cwnd(now.as_nanos(), cwnd);
        }
    }

    /// Record the current Fig-3 state. Connection states overlay the
    /// controller's label in the order Init, RTO, TLP, Recovery,
    /// ApplicationLimited; a controller that opts out is reported as is.
    pub fn update_state(
        &mut self,
        now: Time,
        cc: &dyn CongestionControl,
        established: bool,
        timer: &RecoveryTimer,
        app_limited: bool,
    ) {
        let label = if !cc.overlay_connection_states() {
            cc.state_label(now)
        } else if !established {
            CcState::Init.label()
        } else if timer.in_rto {
            CcState::RetransmissionTimeout.label()
        } else if timer.in_tlp {
            CcState::TailLossProbe.label()
        } else {
            let cc_label = cc.state_label(now);
            if app_limited && cc_label != CcState::Recovery.label() {
                CcState::ApplicationLimited.label()
            } else {
                cc_label
            }
        };
        self.states.enter(now, label);
        self.tracer.cc_state(now.as_nanos(), label);
    }

    /// Congestion window over time, one entry per change.
    pub fn cwnd_timeline(&self) -> &[(Time, u64)] {
        &self.cwnd_log
    }

    /// The state trace, observed until `now`.
    pub fn state_trace(&self, now: Time) -> StateTrace<'static> {
        self.states.clone().ended_at(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbr::Bbr;
    use crate::cubic::{Cubic, CubicConfig};
    use longlook_sim::trace::{TraceEvent, TraceRecord};
    use proptest::prelude::*;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    fn armed_watchdog(now: Time) -> Watchdog {
        Watchdog::new(now, true)
    }

    #[test]
    fn handshake_deadline_is_construction_relative() {
        let mut w = armed_watchdog(t(500));
        // Inbound traffic does not extend the handshake budget.
        w.on_progress(t(20_000));
        assert_eq!(w.deadline(false, || true), Some(t(500) + HANDSHAKE_TIMEOUT));
        assert_eq!(w.check(t(30_499), false, || true), None);
        assert_eq!(
            w.check(t(30_500), false, || true),
            Some(ConnError::HandshakeTimeout)
        );
    }

    #[test]
    fn idle_deadline_follows_progress_and_needs_outstanding_work() {
        let mut w = armed_watchdog(t(0));
        w.on_progress(t(7_000));
        assert_eq!(w.deadline(true, || false), Some(t(7_000) + IDLE_TIMEOUT));
        assert_eq!(w.check(t(66_999), true, || false), None);
        assert_eq!(
            w.check(t(67_000), true, || false),
            Some(ConnError::IdleTimeout)
        );
        // A quiescent established connection never schedules a wake and
        // never times out, however long the silence.
        assert_eq!(w.deadline(true, || true), None);
        assert_eq!(w.check(t(10_000_000), true, || true), None);
    }

    #[test]
    fn disarmed_watchdog_is_silent_and_never_asks_for_quiescence() {
        let w = Watchdog::new(t(0), false);
        let unasked = || -> bool { panic!("a disarmed watchdog must not evaluate quiescence") };
        assert_eq!(w.deadline(false, unasked), None);
        assert_eq!(w.deadline(true, unasked), None);
        assert_eq!(w.check(t(10_000_000), true, unasked), None);
        // Nor does an armed one during the handshake.
        assert!(armed_watchdog(t(0)).deadline(false, unasked).is_some());
    }

    #[test]
    fn trip_is_sticky_logs_once_and_can_be_muted() {
        for surface in [true, false] {
            let mut w = armed_watchdog(t(0));
            let mut tracer = Tracer::new(true);
            assert!(!w.gave_up());
            w.trip(ConnError::IdleTimeout, surface, t(9), &mut tracer);
            assert!(w.gave_up());
            assert_eq!(w.error(), surface.then_some(ConnError::IdleTimeout));
            // Tripped: no further deadline, whatever arrives afterwards.
            w.on_progress(t(10));
            assert!(w.gave_up());
            assert_eq!(w.deadline(false, || false), None);
            assert_eq!(w.check(t(10_000_000), true, || false), None);
            assert!(matches!(
                tracer.records(),
                [TraceRecord {
                    t: 9_000_000,
                    ev: TraceEvent::Recovery {
                        kind: RecoveryKind::GiveUp
                    }
                }]
            ));
        }
    }

    fn sampled_rtt(ms: u64) -> RttEstimator {
        let mut rtt = RttEstimator::new(Dur::from_millis(100));
        rtt.on_sample(Dur::from_millis(ms), Dur::ZERO);
        rtt
    }

    /// Fire the timer at its own deadline and re-arm, as a connection
    /// whose peer has gone silent does.
    fn fire(timer: &mut RecoveryTimer, rtt: &RttEstimator, now: &mut Time) -> (RecoveryKind, Dur) {
        let mut tracer = Tracer::new(false);
        let at = timer.deadline(true, rtt).expect("armed");
        let waited = at.saturating_since(*now);
        *now = at;
        let kind = timer.expire(at, true, rtt, &mut tracer).expect("expired");
        timer.rearm(at, true, rtt, &mut tracer);
        (kind, waited)
    }

    #[test]
    fn two_probes_then_rto_whose_backoff_shift_saturates_at_six() {
        let rtt = sampled_rtt(40);
        let mut timer = RecoveryTimer::new(true);
        let mut now = t(0);
        timer.rearm(now, true, &rtt, &mut Tracer::new(false));
        for _ in 0..2 {
            let (kind, waited) = fire(&mut timer, &rtt, &mut now);
            assert_eq!((kind, waited), (RecoveryKind::Tlp, rtt.tlp_timeout()));
        }
        for n in 0..10u32 {
            let (kind, waited) = fire(&mut timer, &rtt, &mut now);
            assert_eq!(kind, RecoveryKind::Rto);
            assert_eq!(waited, rtt.rto().saturating_mul(1 << n.min(6)), "rto #{n}");
        }
        assert_eq!((timer.tlp_count, timer.rto_backoff()), (2, 10));
        // An ack of new data restarts the whole schedule.
        timer.on_new_data_acked();
        timer.rearm(now, true, &rtt, &mut Tracer::new(false));
        assert_eq!(fire(&mut timer, &rtt, &mut now).0, RecoveryKind::Tlp);
    }

    #[test]
    fn nothing_outstanding_disarms_and_cancel_drops_a_deferred_request() {
        let rtt = sampled_rtt(40);
        let mut tracer = Tracer::new(false);
        let mut timer = RecoveryTimer::new(false);
        timer.rearm(t(0), false, &rtt, &mut tracer);
        assert_eq!(timer.deadline(false, &rtt), None);
        // Armed, then everything got acked before the expiry.
        timer.rearm(t(0), true, &rtt, &mut tracer);
        let at = timer.deadline(true, &rtt).expect("armed");
        assert_eq!(timer.expire(at, false, &rtt, &mut tracer), None);
        assert_eq!(timer.deadline(false, &rtt), None);
        assert_eq!(timer.rto_backoff(), 0, "a moot expiry is not a timeout");
        timer.rearm(t(5), true, &rtt, &mut tracer);
        timer.cancel();
        assert_eq!(timer.deadline(true, &rtt), None);
        assert_eq!(timer.expire(t(100_000), true, &rtt, &mut tracer), None);
    }

    /// One endpoint's view of a [`RecoveryTimer`], driven the way the
    /// connections drive it: every change to the schedule's inputs is
    /// followed by a re-arm request before the next observation. With
    /// `eager` set it is the model of the timer as it was before re-arms
    /// were deferred: each request is resolved into `armed` on the spot,
    /// from the inputs of that instant.
    struct Harness {
        timer: RecoveryTimer,
        eager: bool,
        tracer: Tracer,
        fired: Vec<RecoveryKind>,
    }

    impl Harness {
        fn new(tlp: bool, eager: bool) -> Self {
            Harness {
                timer: RecoveryTimer::new(tlp),
                eager,
                tracer: Tracer::new(true),
                fired: Vec::new(),
            }
        }

        fn rearm(&mut self, now: Time, outstanding: bool, rtt: &RttEstimator) {
            self.timer.rearm(now, outstanding, rtt, &mut self.tracer);
            if self.eager {
                self.timer.rearm_at = None;
                self.timer.armed = self.timer.schedule(now, outstanding, rtt);
            }
        }

        fn wake(&mut self, now: Time, outstanding: bool, rtt: &RttEstimator) {
            if let Some(kind) = self.timer.expire(now, outstanding, rtt, &mut self.tracer) {
                self.fired.push(kind);
                self.rearm(now, outstanding, rtt);
            }
        }

        fn observe(&self, outstanding: bool, rtt: &RttEstimator) -> (Option<Time>, u32, u32) {
            let at = self.timer.deadline(outstanding, rtt);
            (at, self.timer.tlp_count, self.timer.rto_backoff())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The deferred re-arm is indistinguishable from the eager one
        /// it replaced at every observation point: same deadline, same
        /// fired kinds, same counters, same trace.
        #[test]
        fn deferred_rearm_equals_eager_rearm(
            tlp in any::<bool>(),
            ops in proptest::collection::vec((0u8..6, 1u64..400), 1..120),
        ) {
            let mut eager = Harness::new(tlp, true);
            let mut lazy = Harness::new(tlp, false);
            let mut rtt = RttEstimator::new(Dur::from_millis(100));
            let mut now = t(0);
            let mut outstanding = false;
            for (op, x) in ops {
                match op {
                    // A burst of sends in one dispatch: several re-arm
                    // requests sharing one `now`.
                    0 => {
                        now += Dur::from_millis(x % 20);
                        outstanding = true;
                        for h in [&mut eager, &mut lazy] {
                            for _ in 0..=x % 4 {
                                h.rearm(now, outstanding, &rtt);
                            }
                        }
                    }
                    // An ack of new data with an RTT sample; odd `x`
                    // drains the flight.
                    1 | 2 => {
                        now += Dur::from_millis(x % 50);
                        rtt.on_sample(Dur::from_millis(x), Dur::ZERO);
                        outstanding &= x % 2 == 0;
                        for h in [&mut eager, &mut lazy] {
                            h.timer.on_new_data_acked();
                            h.rearm(now, outstanding, &rtt);
                        }
                    }
                    // Sleep to the armed deadline and service it.
                    3 | 4 => {
                        let at = eager.observe(outstanding, &rtt).0;
                        prop_assert_eq!(at, lazy.observe(outstanding, &rtt).0);
                        now = at.map_or(now, |at| at.max(now));
                        eager.wake(now, outstanding, &rtt);
                        lazy.wake(now, outstanding, &rtt);
                    }
                    // A wake for some other timer (early), or a give-up.
                    _ if x % 8 != 0 => {
                        now += Dur::from_millis(x % 5);
                        eager.wake(now, outstanding, &rtt);
                        lazy.wake(now, outstanding, &rtt);
                    }
                    // The flight stays outstanding, as it does when the
                    // watchdog gives up on it.
                    _ => {
                        eager.timer.cancel();
                        lazy.timer.cancel();
                    }
                }
                prop_assert_eq!(
                    eager.observe(outstanding, &rtt),
                    lazy.observe(outstanding, &rtt)
                );
                prop_assert_eq!(&eager.fired, &lazy.fired);
            }
            prop_assert_eq!(eager.tracer.records(), lazy.tracer.records());
            prop_assert!(tlp || !eager.fired.contains(&RecoveryKind::Tlp));
            prop_assert!(eager.timer.tlp_count <= 2);
        }
    }

    fn current_label(tel: &ConnTelemetry, now: Time) -> &'static str {
        tel.state_trace(now).visits.last().expect("non-empty").1
    }

    /// A timer that has fired the given sticky labels.
    fn timer_in(rto: bool, tlp: bool) -> RecoveryTimer {
        RecoveryTimer {
            in_rto: rto,
            in_tlp: tlp,
            ..RecoveryTimer::new(true)
        }
    }

    #[test]
    fn overlay_precedence_is_init_rto_tlp_recovery_app_limited_cc() {
        let mut cubic = Cubic::new(CubicConfig::quic34(1350), t(0));
        let mut tel = ConnTelemetry::new(t(0), TraceMode::Off, &cubic);
        assert_eq!(current_label(&tel, t(0)), "Init");
        // (established, in_rto, in_tlp, app_limited) -> label, with the
        // controller in slow start.
        let table = [
            ((false, true, true, true), "Init"),
            ((true, true, true, true), "RetransmissionTimeout"),
            ((true, false, true, true), "TailLossProbe"),
            ((true, false, false, true), "ApplicationLimited"),
            ((true, false, false, false), "SlowStart"),
        ];
        for (k, ((est, rto, tlp, app), want)) in table.into_iter().enumerate() {
            let now = t(1 + k as u64);
            tel.update_state(now, &cubic, est, &timer_in(rto, tlp), app);
            assert_eq!(current_label(&tel, now), want, "row {k}");
        }
        // Recovery outranks ApplicationLimited but not the timer labels.
        cubic.on_congestion_event(t(10), t(9), 1350, 20 * 1350);
        tel.update_state(t(10), &cubic, true, &timer_in(false, false), true);
        assert_eq!(current_label(&tel, t(10)), "Recovery");
        tel.update_state(t(11), &cubic, true, &timer_in(false, true), true);
        assert_eq!(current_label(&tel, t(11)), "TailLossProbe");
    }

    #[test]
    fn bbr_bypasses_the_overlay_from_the_first_instant() {
        let bbr = Bbr::new(1350, t(0));
        let mut tel = ConnTelemetry::new(t(0), TraceMode::On, &bbr);
        tel.update_state(t(1), &bbr, false, &timer_in(true, true), true);
        tel.update_state(t(2), &bbr, true, &timer_in(true, true), true);
        assert_eq!(tel.state_trace(t(3)).labels(), vec!["Startup"]);
        assert!(matches!(
            tel.tracer.records(),
            [TraceRecord {
                t: 0,
                ev: TraceEvent::CcState { .. }
            }]
        ));
    }

    #[test]
    fn cwnd_log_records_changes_only_and_tracks_the_maximum() {
        let cubic = Cubic::new(CubicConfig::quic34(1350), t(0));
        let mut tel = ConnTelemetry::new(t(0), TraceMode::On, &cubic);
        for (ms, cwnd) in [(1, 10), (2, 10), (3, 30), (4, 30), (5, 20), (6, 20)] {
            tel.log_cwnd(t(ms), cwnd);
        }
        assert_eq!(
            tel.cwnd_timeline(),
            [(t(0), 0), (t(1), 10), (t(3), 30), (t(5), 20)]
        );
        assert_eq!(tel.stats.max_cwnd, 30);
        let traced = tel
            .tracer
            .records()
            .iter()
            .filter(|r| matches!(r.ev, TraceEvent::Cwnd { .. }))
            .count();
        assert_eq!(traced, 3, "one cwnd record per change");
        tel.on_sent(t(7), 1, 1392, true);
        tel.on_sent(t(8), 2, 100, false);
        assert_eq!((tel.stats.packets_sent, tel.stats.bytes_sent), (2, 1492));
    }
}
