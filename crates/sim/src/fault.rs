//! Deterministic fault injection: typed trauma events on a schedule.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s — link blackouts and
//! flaps, bandwidth cliffs and ramps, Gilbert–Elliott burst loss, packet
//! duplication and corruption, peer stalls, and buffer shrinks — each
//! applied over a half-open window `[at, at + dur)` of simulated time to
//! one link direction (or both) of a testbed cell.
//!
//! Two design rules keep trauma runs bit-identical across serial and
//! threaded runners:
//!
//! * **Window evaluation is a pure function of time.** Like
//!   [`crate::schedule::RateSchedule`], a fault's activity at instant `t`
//!   depends only on the plan, never on query order or extra events, so
//!   replays and re-runs agree exactly.
//! * **Randomness rides the existing per-direction link RNG**, and draws
//!   happen *only inside an active window*. A plan that is absent — or
//!   present but inactive at `t` — consumes no draws, so the RNG stream
//!   (and therefore every downstream result) is byte-identical to an
//!   unfaulted run outside trauma windows. `golden_seed` holds this
//!   zero-cost-when-off property as a named regression.
//!
//! Probabilities and factors are stored in exact **per-mille** integers so
//! a plan survives a JSON round trip (the `traumafuzz` repro files)
//! without floating-point drift.

use crate::rng::SimRng;
use crate::time::{Dur, Time};
use longlook_wire::trace::{TraceEvent, TraceRecord};

/// Which link direction a fault applies to. `Up` is the first direction
/// passed to `World::connect` — client→server in testbed terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDir {
    /// Client→server only.
    Up,
    /// Server→client only.
    Down,
    /// Both directions.
    Both,
}

impl FaultDir {
    /// Whether a fault with this selector applies to the given direction.
    pub fn applies(self, up: bool) -> bool {
        match self {
            FaultDir::Up => up,
            FaultDir::Down => !up,
            FaultDir::Both => true,
        }
    }

    /// Stable label, matching the `traumafuzz` repro spelling.
    pub fn label(self) -> &'static str {
        match self {
            FaultDir::Up => "up",
            FaultDir::Down => "down",
            FaultDir::Both => "both",
        }
    }
}

/// Which endpoint a [`FaultKind::PeerStall`] freezes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerSide {
    /// The client host.
    Client,
    /// The server host.
    Server,
}

/// Gilbert–Elliott burst-loss parameters (all per-mille). The chain moves
/// good→bad with probability `p_enter` per packet and bad→good with
/// `p_exit`; each packet is then lost with the current state's loss
/// probability. Stationary bad-state occupancy is
/// `p_enter / (p_enter + p_exit)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeParams {
    /// Good→bad transition probability, per-mille.
    pub p_enter_pm: u32,
    /// Bad→good transition probability, per-mille.
    pub p_exit_pm: u32,
    /// Loss probability in the good state, per-mille.
    pub loss_good_pm: u32,
    /// Loss probability in the bad state, per-mille.
    pub loss_bad_pm: u32,
}

fn pm(v: u32) -> f64 {
    f64::from(v.min(1000)) / 1000.0
}

impl GeParams {
    /// Stationary probability of the bad state.
    pub fn stationary_bad(&self) -> f64 {
        let (e, x) = (pm(self.p_enter_pm), pm(self.p_exit_pm));
        if e + x == 0.0 {
            0.0
        } else {
            e / (e + x)
        }
    }

    /// Stationary per-packet loss probability.
    pub fn stationary_loss(&self) -> f64 {
        let b = self.stationary_bad();
        (1.0 - b) * pm(self.loss_good_pm) + b * pm(self.loss_bad_pm)
    }
}

/// The Gilbert–Elliott chain state, stepped once per packet while a
/// burst-loss window is active. Lives in `LinkDir` so the chain survives
/// across packets but never draws outside a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeChain {
    /// Whether the chain is currently in the bad (bursty) state.
    pub bad: bool,
}

impl GeChain {
    /// Advance the chain one packet and decide whether that packet is
    /// lost. Exactly two `chance` calls' worth of draws per packet (each
    /// of which draws nothing when its probability is zero).
    pub fn step(&mut self, rng: &mut SimRng, p: &GeParams) -> bool {
        if self.bad {
            if rng.chance(pm(p.p_exit_pm)) {
                self.bad = false;
            }
        } else if rng.chance(pm(p.p_enter_pm)) {
            self.bad = true;
        }
        let loss = if self.bad {
            pm(p.loss_bad_pm)
        } else {
            pm(p.loss_good_pm)
        };
        rng.chance(loss)
    }
}

/// What a fault does during its window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Total outage: every packet offered to the link is dropped.
    Blackout,
    /// Periodic outage: within the window the link repeats a cycle of
    /// `period`, down for the first `down_pm`‰ of each cycle.
    Flap {
        /// Cycle length.
        period: Dur,
        /// Fraction of each cycle spent down, per-mille.
        down_pm: u32,
    },
    /// Rate multiplied by `factor_pm`‰ for the whole window.
    BandwidthCliff {
        /// Rate multiplier, per-mille (e.g. 100 = 10% of nominal).
        factor_pm: u32,
    },
    /// Rate ramps linearly from 100% at window start down to `floor_pm`‰
    /// at window end.
    BandwidthRamp {
        /// Rate multiplier reached at the end of the window, per-mille.
        floor_pm: u32,
    },
    /// Gilbert–Elliott bursty loss.
    BurstLoss(GeParams),
    /// Each delivered packet is additionally duplicated with this
    /// probability (the copy arrives at the same instant, after the
    /// original).
    Duplicate {
        /// Duplication probability, per-mille.
        prob_pm: u32,
    },
    /// Each packet is corrupted with this probability. A corrupted packet
    /// is dropped whole (checksum failure); links never forge bytes.
    Corrupt {
        /// Corruption probability, per-mille.
        prob_pm: u32,
    },
    /// One endpoint freezes: every event addressed to it during the
    /// window is deferred to the window end.
    PeerStall {
        /// Which endpoint stalls.
        side: PeerSide,
    },
    /// Drop-tail queue limit multiplied by `factor_pm`‰ for the window.
    BufferShrink {
        /// Buffer multiplier, per-mille.
        factor_pm: u32,
    },
}

impl FaultKind {
    /// Stable kind label, matching the `traumafuzz` repro spelling.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Blackout => "blackout",
            FaultKind::Flap { .. } => "flap",
            FaultKind::BandwidthCliff { .. } => "bw_cliff",
            FaultKind::BandwidthRamp { .. } => "bw_ramp",
            FaultKind::BurstLoss(_) => "burst_loss",
            FaultKind::Duplicate { .. } => "duplicate",
            FaultKind::Corrupt { .. } => "corrupt",
            FaultKind::PeerStall { .. } => "stall",
            FaultKind::BufferShrink { .. } => "buffer_shrink",
        }
    }
}

/// One scheduled fault: `kind` applied to `dir` over `[at, at + dur)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Window start (simulated time).
    pub at: Time,
    /// Window length.
    pub dur: Dur,
    /// Direction selector.
    pub dir: FaultDir,
    /// What happens during the window.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Window end (exclusive).
    pub fn end(&self) -> Time {
        self.at + self.dur
    }

    /// Whether the window covers `t` (half-open: `at <= t < at + dur`).
    pub fn active(&self, t: Time) -> bool {
        self.at <= t && t < self.end()
    }
}

/// A schedule of fault events composable onto any scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled events, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style: append an event.
    pub fn with_event(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Latest window end across all events (`Time::ZERO` when empty).
    pub fn horizon(&self) -> Time {
        self.events
            .iter()
            .map(FaultEvent::end)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// The link-applicable events for one direction, or `None` when no
    /// event touches that direction (so the link carries no fault state at
    /// all and its hot path stays on the unfaulted branch).
    pub fn link_view(&self, up: bool) -> Option<LinkFault> {
        let events: Vec<FaultEvent> = self
            .events
            .iter()
            .filter(|e| e.dir.applies(up) && !matches!(e.kind, FaultKind::PeerStall { .. }))
            .copied()
            .collect();
        if events.is_empty() {
            None
        } else {
            Some(LinkFault { events })
        }
    }

    /// Stall windows `(from, until)` for one endpoint.
    pub fn stall_windows(&self, side: PeerSide) -> Vec<(Time, Time)> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::PeerStall { side: s } if s == side))
            .map(|e| (e.at, e.end()))
            .collect()
    }

    /// Window-edge trace records for the plan: a `FaultOn` at each
    /// event's start and a `FaultOff` at its end, sorted by time. A pure
    /// function of the plan — nothing here observes the run — so merging
    /// these into a connection trace can never perturb it.
    pub fn trace_window_edges(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(2 * self.events.len());
        for e in &self.events {
            out.push(TraceRecord {
                t: e.at.as_nanos(),
                ev: TraceEvent::FaultOn {
                    kind: e.kind.label().to_string(),
                    dir: e.dir.label().to_string(),
                },
            });
            out.push(TraceRecord {
                t: e.end().as_nanos(),
                ev: TraceEvent::FaultOff {
                    kind: e.kind.label().to_string(),
                    dir: e.dir.label().to_string(),
                },
            });
        }
        out.sort_by_key(|r| r.t);
        out
    }
}

/// The per-direction slice of a [`FaultPlan`] a `LinkDir` evaluates.
/// Every method is a pure function of `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFault {
    events: Vec<FaultEvent>,
}

impl LinkFault {
    /// A view straight from events (test/bench convenience).
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        LinkFault { events }
    }

    /// Whether the link is down at `t` (blackout, or the down phase of a
    /// flap cycle).
    pub fn down(&self, t: Time) -> bool {
        self.events.iter().any(|e| {
            if !e.active(t) {
                return false;
            }
            match e.kind {
                FaultKind::Blackout => true,
                FaultKind::Flap { period, down_pm } => {
                    let p = period.as_nanos().max(1);
                    let phase = (t.as_nanos() - e.at.as_nanos()) % p;
                    // Integer per-mille comparison: exact, no float cut.
                    (phase as u128) * 1000 < (p as u128) * u128::from(down_pm.min(1000))
                }
                _ => false,
            }
        })
    }

    /// Rate multiplier at `t` (product of active cliffs and ramps,
    /// clamped to stay positive so shaped links never divide by zero).
    pub fn rate_factor(&self, t: Time) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if !e.active(t) {
                continue;
            }
            match e.kind {
                FaultKind::BandwidthCliff { factor_pm } => f *= pm(factor_pm),
                FaultKind::BandwidthRamp { floor_pm } => {
                    let span = e.dur.as_nanos().max(1) as f64;
                    let progress = (t.as_nanos() - e.at.as_nanos()) as f64 / span;
                    f *= 1.0 - (1.0 - pm(floor_pm)) * progress;
                }
                _ => {}
            }
        }
        f.max(1e-3)
    }

    /// Buffer multiplier at `t` (product of active shrinks).
    pub fn buffer_factor(&self, t: Time) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if let FaultKind::BufferShrink { factor_pm } = e.kind {
                if e.active(t) {
                    f *= pm(factor_pm);
                }
            }
        }
        f
    }

    /// Duplication probability at `t` (max of active windows; 0 when
    /// none, in which case the caller must not draw).
    pub fn dup_prob(&self, t: Time) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Duplicate { prob_pm } if e.active(t) => Some(pm(prob_pm)),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Corruption probability at `t` (max of active windows).
    pub fn corrupt_prob(&self, t: Time) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Corrupt { prob_pm } if e.active(t) => Some(pm(prob_pm)),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// The burst-loss parameters active at `t`, if any (first match wins;
    /// overlapping burst windows share the one chain anyway).
    pub fn ge(&self, t: Time) -> Option<GeParams> {
        self.events.iter().find_map(|e| match e.kind {
            FaultKind::BurstLoss(p) if e.active(t) => Some(p),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ms: u64, dur_ms: u64, dir: FaultDir, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: Time::ZERO + Dur::from_millis(at_ms),
            dur: Dur::from_millis(dur_ms),
            dir,
            kind,
        }
    }

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn windows_are_half_open() {
        let e = ev(100, 50, FaultDir::Both, FaultKind::Blackout);
        assert!(!e.active(t(99)));
        assert!(e.active(t(100)));
        assert!(e.active(t(149)));
        assert!(!e.active(t(150)), "window end is exclusive");
    }

    #[test]
    fn link_view_filters_direction_and_stalls() {
        let plan = FaultPlan::new()
            .with_event(ev(0, 10, FaultDir::Up, FaultKind::Blackout))
            .with_event(ev(
                0,
                10,
                FaultDir::Down,
                FaultKind::Duplicate { prob_pm: 100 },
            ))
            .with_event(ev(
                0,
                10,
                FaultDir::Both,
                FaultKind::PeerStall {
                    side: PeerSide::Client,
                },
            ));
        let up = plan.link_view(true).expect("up view");
        assert!(up.down(t(5)));
        assert_eq!(up.dup_prob(t(5)), 0.0);
        let down = plan.link_view(false).expect("down view");
        assert!(!down.down(t(5)));
        assert_eq!(down.dup_prob(t(5)), 0.1);
        assert_eq!(plan.stall_windows(PeerSide::Client), vec![(t(0), t(10))]);
        assert!(plan.stall_windows(PeerSide::Server).is_empty());
    }

    #[test]
    fn stall_only_plan_has_no_link_view() {
        let plan = FaultPlan::new().with_event(ev(
            0,
            10,
            FaultDir::Both,
            FaultKind::PeerStall {
                side: PeerSide::Server,
            },
        ));
        assert!(plan.link_view(true).is_none());
        assert!(plan.link_view(false).is_none());
    }

    #[test]
    fn flap_duty_cycle() {
        let f = LinkFault::from_events(vec![ev(
            0,
            1000,
            FaultDir::Both,
            FaultKind::Flap {
                period: Dur::from_millis(100),
                down_pm: 300,
            },
        )]);
        // Down for the first 30ms of every 100ms cycle.
        assert!(f.down(t(0)));
        assert!(f.down(t(29)));
        assert!(!f.down(t(30)));
        assert!(!f.down(t(99)));
        assert!(f.down(t(100)));
        assert!(f.down(t(529)));
        assert!(!f.down(t(530)));
        // Outside the window the flap is gone entirely.
        assert!(!f.down(t(1000)));
    }

    #[test]
    fn cliff_and_ramp_compose() {
        let f = LinkFault::from_events(vec![
            ev(
                0,
                1000,
                FaultDir::Both,
                FaultKind::BandwidthCliff { factor_pm: 500 },
            ),
            ev(
                0,
                1000,
                FaultDir::Both,
                FaultKind::BandwidthRamp { floor_pm: 200 },
            ),
        ]);
        assert!(
            (f.rate_factor(t(0)) - 0.5).abs() < 1e-9,
            "ramp starts at 1.0"
        );
        // Halfway: ramp at 0.6, cliff 0.5 -> 0.3.
        assert!((f.rate_factor(t(500)) - 0.3).abs() < 1e-9);
        assert_eq!(f.rate_factor(t(1000)), 1.0, "window over");
    }

    #[test]
    fn rate_factor_never_hits_zero() {
        let f = LinkFault::from_events(vec![ev(
            0,
            100,
            FaultDir::Both,
            FaultKind::BandwidthCliff { factor_pm: 0 },
        )]);
        assert!(f.rate_factor(t(50)) > 0.0);
    }

    #[test]
    fn buffer_factor_windows() {
        let f = LinkFault::from_events(vec![ev(
            10,
            10,
            FaultDir::Both,
            FaultKind::BufferShrink { factor_pm: 250 },
        )]);
        assert_eq!(f.buffer_factor(t(0)), 1.0);
        assert_eq!(f.buffer_factor(t(15)), 0.25);
        assert_eq!(f.buffer_factor(t(20)), 1.0);
    }

    #[test]
    fn ge_stationary_math() {
        let p = GeParams {
            p_enter_pm: 100,
            p_exit_pm: 300,
            loss_good_pm: 0,
            loss_bad_pm: 500,
        };
        assert!((p.stationary_bad() - 0.25).abs() < 1e-12);
        assert!((p.stationary_loss() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn ge_chain_is_deterministic_per_seed() {
        let p = GeParams {
            p_enter_pm: 200,
            p_exit_pm: 400,
            loss_good_pm: 10,
            loss_bad_pm: 700,
        };
        let run = || {
            let mut rng = SimRng::new(77);
            let mut chain = GeChain::default();
            (0..1000)
                .map(|_| chain.step(&mut rng, &p))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn window_edges_are_sorted_on_off_pairs() {
        let plan = FaultPlan::new()
            .with_event(ev(200, 100, FaultDir::Up, FaultKind::Blackout))
            .with_event(ev(
                0,
                50,
                FaultDir::Both,
                FaultKind::Duplicate { prob_pm: 100 },
            ));
        let edges = plan.trace_window_edges();
        assert_eq!(edges.len(), 4);
        assert!(edges.windows(2).all(|w| w[0].t <= w[1].t), "sorted");
        assert_eq!(
            edges[0].ev,
            TraceEvent::FaultOn {
                kind: "duplicate".into(),
                dir: "both".into()
            }
        );
        assert_eq!(
            edges[3].ev,
            TraceEvent::FaultOff {
                kind: "blackout".into(),
                dir: "up".into()
            }
        );
        assert!(FaultPlan::new().trace_window_edges().is_empty());
    }

    #[test]
    fn horizon_is_latest_end() {
        let plan = FaultPlan::new()
            .with_event(ev(0, 50, FaultDir::Both, FaultKind::Blackout))
            .with_event(ev(200, 100, FaultDir::Up, FaultKind::Blackout));
        assert_eq!(plan.horizon(), t(300));
        assert_eq!(FaultPlan::new().horizon(), Time::ZERO);
    }

    mod ge_proptests {
        use super::*;
        use proptest::prelude::*;

        fn empirical_loss(p: GeParams, seed: u64, n: usize) -> f64 {
            let mut rng = SimRng::new(seed);
            let mut chain = GeChain::default();
            let losses = (0..n).filter(|_| chain.step(&mut rng, &p)).count();
            losses as f64 / n as f64
        }

        proptest! {
            /// Over a long run the empirical loss rate converges to the
            /// stationary loss probability (chain mixes fast for the
            /// drawn transition probabilities).
            #[test]
            fn ge_converges_to_stationary(
                p_enter_pm in 50u32..500,
                p_exit_pm in 50u32..500,
                loss_good_pm in 0u32..200,
                loss_bad_pm in 300u32..1000,
                seed in 0u64..1000,
            ) {
                let p = GeParams { p_enter_pm, p_exit_pm, loss_good_pm, loss_bad_pm };
                let emp = empirical_loss(p, seed, 30_000);
                let stat = p.stationary_loss();
                prop_assert!(
                    (emp - stat).abs() < 0.05,
                    "empirical {} vs stationary {}", emp, stat
                );
            }

            /// When good and bad states share the same loss probability
            /// the chain state is irrelevant: the model degenerates to
            /// the existing Bernoulli uniform-loss path.
            #[test]
            fn ge_degenerates_to_bernoulli(
                loss_pm in 10u32..600,
                p_enter_pm in 0u32..1000,
                p_exit_pm in 0u32..1000,
                seed in 0u64..1000,
            ) {
                let p = GeParams {
                    p_enter_pm,
                    p_exit_pm,
                    loss_good_pm: loss_pm,
                    loss_bad_pm: loss_pm,
                };
                prop_assert!((p.stationary_loss() - pm(loss_pm)).abs() < 1e-12);
                let emp = empirical_loss(p, seed, 30_000);
                // Match a plain Bernoulli stream of the same probability
                // within the same statistical tolerance.
                let mut rng = SimRng::new(seed ^ 0xB357);
                let bern = (0..30_000).filter(|_| rng.chance(pm(loss_pm))).count() as f64
                    / 30_000.0;
                prop_assert!((emp - pm(loss_pm)).abs() < 0.02, "emp {}", emp);
                prop_assert!((emp - bern).abs() < 0.03, "emp {} vs bern {}", emp, bern);
            }
        }
    }
}
