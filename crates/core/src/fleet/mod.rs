//! Fleet-scale worlds: population-level QUIC-vs-TCP comparison.
//!
//! The paper's grid (Sec 3.3) compares one client at a time; operators
//! care how the protocols behave when *fleets* of clients share
//! infrastructure — flash crowds hitting a server pool, diurnal load on a
//! bottleneck. This module scales the back-to-back methodology to 10^5
//! concurrent connections by trading packet granularity for flight
//! granularity:
//!
//! * each live connection is one 32-byte record in a `Vec`, indexed by
//!   a generational [`SlotPool`] slot ([`world`]),
//! * latency distributions stream into a Welford [`Summary`] and a
//!   log-bucketed [`QuantileSketch`] — no per-sample vectors
//!   ([`longlook_stats`]),
//! * the event loop charges flights against fluid shared-bottleneck
//!   links ([`world`]) and runs one link at a time, so what is live at
//!   once is one link's clients, not the fleet's.
//!
//! A cell runs on one thread. The headline output is [`fleet_heatmap`]:
//! arrival profiles × load multipliers, QUIC-vs-TCP p99 completion
//! latency, Welch-gated exactly like the paper's figures, its cells dealt
//! to the deterministic parallel runner's workers so the matrix is
//! bit-identical at any worker count.
//!
//! [`Summary`]: longlook_stats::Summary
//! [`QuantileSketch`]: longlook_stats::QuantileSketch
//! [`SlotPool`]: longlook_sim::SlotPool

pub mod world;

pub use world::{run_fleet, FleetMetrics, FleetObservables, BYTES_PER_SLOT};

use longlook_http::host::ProtoConfig;
use longlook_quic::QuicConfig;
use longlook_sim::time::Dur;
use longlook_stats::Heatmap;
use longlook_tcp::TcpConfig;

use crate::experiment::sweep_with;
use crate::runner::Parallelism;

/// How the fleet's clients arrive inside the window.
///
/// All three are inverse-CDF maps from a per-client unit uniform, so the
/// arrival sequence is sorted by construction and bit-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProfile {
    /// Constant-rate arrivals: client `k` lands near `window * k / n`
    /// with a hash-jittered offset (the order statistics of a Poisson
    /// process conditioned on its count).
    Poisson,
    /// Flash crowd: arrivals compress into the start of the window
    /// (`t = window * x²`), front-loading the bottlenecks.
    FlashCrowd,
    /// Diurnal ramp: a sinusoidally modulated rate that peaks mid-window
    /// at ~6x the trough (`t = window * (x + A/2π · sin 2πx)`, A = 0.85).
    DiurnalRamp,
}

impl ArrivalProfile {
    /// Row label used by heatmaps and reports.
    pub fn label(self) -> &'static str {
        match self {
            ArrivalProfile::Poisson => "poisson",
            ArrivalProfile::FlashCrowd => "flash-crowd",
            ArrivalProfile::DiurnalRamp => "diurnal",
        }
    }

    /// Arrival offset of client `k` of `n`, given its unit jitter `u`.
    /// Monotone in `k`, so chained arrival events never run backwards.
    pub fn time_at(self, window: Dur, k: u32, n: u32, u: f64) -> Dur {
        let n = n.max(1);
        let x = (f64::from(k) + u.clamp(0.0, 1.0 - f64::EPSILON)) / f64::from(n);
        let frac = match self {
            ArrivalProfile::Poisson => x,
            ArrivalProfile::FlashCrowd => x * x,
            ArrivalProfile::DiurnalRamp => {
                const A: f64 = 0.85;
                x + A / (2.0 * std::f64::consts::PI) * (2.0 * std::f64::consts::PI * x).sin()
            }
        };
        window.mul_f64(frac)
    }
}

/// Raw capacity of each bottleneck link (Mbps).
pub const LINK_MBPS: f64 = 500.0;
/// Fraction of each link consumed by non-fleet cross traffic.
pub const CROSS_TRAFFIC_FRAC: f64 = 0.15;
/// Buffer drain time per link; flights that would queue longer are
/// marked lost (drop-tail congestion loss).
pub const BUFFER: Dur = Dur::from_millis(50);
/// Per-flight service delay unit; server pool `s` charges `s + 1` units.
pub const SERVER_SERVICE: Dur = Dur::from_micros(200);

/// The parameterization of one fleet cell. The link capacity, cross
/// traffic, buffer and server service time are the same in every cell:
/// [`LINK_MBPS`], [`CROSS_TRAFFIC_FRAC`], [`BUFFER`], [`SERVER_SERVICE`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Clients to spawn across the window.
    pub n_conns: usize,
    /// Arrival window.
    pub window: Dur,
    /// Arrival process shape.
    pub profile: ArrivalProfile,
    /// Shared bottleneck links (clients round-robin across them).
    pub n_links: usize,
    /// Server pools (each adds its own per-flight service delay).
    pub n_servers: usize,
    /// Base client RTT; per-client jitter stretches it upward.
    pub base_rtt: Dur,
    /// Max fractional RTT stretch (0.5 = up to 1.5x base).
    pub rtt_jitter_frac: f64,
    /// Random per-flight loss probability (on top of congestion loss).
    pub loss: f64,
    /// Per-connection completion deadline (measured from arrival).
    pub deadline: Dur,
    /// Fraction of clients that are repeat visitors (QUIC may 0-RTT).
    pub repeat_visit_frac: f64,
    /// Experiment seed; every draw in the world derives from it.
    pub seed: u64,
}

impl FleetConfig {
    /// A fleet of `n` clients over infrastructure sized so the *average*
    /// load sits below capacity while flash crowds transiently overload
    /// it — the regime where tail latency separates the protocols.
    pub fn new(n: usize) -> Self {
        FleetConfig {
            n_conns: n,
            window: Dur::from_secs(10),
            profile: ArrivalProfile::FlashCrowd,
            // ~1500 clients per 500 Mbps link keeps average utilization
            // below capacity for the workload mixture's ~280 KB mean.
            n_links: (n / 1500).max(4),
            n_servers: ((n / 1500).max(4) / 4).max(2),
            base_rtt: Dur::from_millis(36),
            rtt_jitter_frac: 0.5,
            loss: 0.001,
            deadline: Dur::from_secs(40),
            repeat_visit_frac: 0.5,
            seed: 0xF1EE7,
        }
    }

    /// Re-key the run (fleet worlds derive every draw from the seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Change the arrival shape.
    pub fn with_profile(mut self, profile: ArrivalProfile) -> Self {
        self.profile = profile;
        self
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::new(2_000)
    }
}

/// Arrival profiles × load multipliers, QUIC vs TCP on p99 completion
/// latency, Welch-gated. Rows are the three [`ArrivalProfile`]s; columns
/// scale `base.n_conns` by 0.5 / 1 / 2. Runs through the deterministic
/// parallel runner: bit-identical at any `par`.
pub fn fleet_heatmap(
    quic: &QuicConfig,
    tcp: &TcpConfig,
    base: &FleetConfig,
    rounds: u64,
    par: Parallelism,
) -> Heatmap {
    const PROFILES: [ArrivalProfile; 3] = [
        ArrivalProfile::Poisson,
        ArrivalProfile::FlashCrowd,
        ArrivalProfile::DiurnalRamp,
    ];
    const LOADS: [f64; 3] = [0.5, 1.0, 2.0];
    let rows: Vec<String> = PROFILES.iter().map(|p| p.label().to_string()).collect();
    let cols: Vec<String> = LOADS.iter().map(|l| format!("{l}x load")).collect();
    sweep_with(
        "fleet p99 completion latency: QUIC vs TCP",
        &rows,
        &cols,
        rounds,
        par,
        |cand, r, c, k| {
            let mut cfg = base.clone().with_profile(PROFILES[r]);
            cfg.n_conns = ((base.n_conns as f64 * LOADS[c]).round() as usize).max(1);
            cfg.seed = base
                .seed
                .wrapping_add((k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let proto = if cand {
                ProtoConfig::Quic(quic.clone())
            } else {
                ProtoConfig::Tcp(tcp.clone())
            };
            run_fleet(&proto, &cfg).p99_ms()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_profiles_are_monotone_and_bounded() {
        let w = Dur::from_secs(10);
        for profile in [
            ArrivalProfile::Poisson,
            ArrivalProfile::FlashCrowd,
            ArrivalProfile::DiurnalRamp,
        ] {
            let mut last = Dur::from_nanos(0);
            for k in 0..1_000u32 {
                let u = longlook_sim::rng::hash_unit(7, k.into());
                let t = profile.time_at(w, k, 1_000, u);
                assert!(t >= last, "{profile:?} ran backwards at k={k}");
                assert!(t <= w, "{profile:?} escaped the window at k={k}");
                last = t;
            }
        }
    }

    #[test]
    fn flash_crowd_front_loads() {
        let w = Dur::from_secs(10);
        // Half the clients land in the first quarter of the window.
        let mid = ArrivalProfile::FlashCrowd.time_at(w, 500, 1_000, 0.0);
        assert!(mid <= w.mul_f64(0.26), "median arrival {mid:?}");
    }

    #[test]
    fn small_fleet_completes_with_quic_ahead_on_handshakes() {
        let cfg = FleetConfig::new(400);
        let q = run_fleet(&ProtoConfig::Quic(QuicConfig::default()), &cfg);
        let t = run_fleet(&ProtoConfig::Tcp(TcpConfig::default()), &cfg);
        assert_eq!(q.completed + q.timed_out, 400);
        assert_eq!(t.completed + t.timed_out, 400);
        assert!(q.completed > 380, "QUIC completed only {}", q.completed);
        // Same seed, same arrival draws: the handshake gap (0/1 RTT vs 2)
        // must show up in the medians.
        assert!(
            q.p50_ms() < t.p50_ms(),
            "QUIC p50 {} vs TCP {}",
            q.p50_ms(),
            t.p50_ms()
        );
        assert!(q.bytes_per_conn() <= 650.0);
    }

    #[test]
    fn same_config_is_bit_identical() {
        let cfg = FleetConfig::new(300);
        let proto = ProtoConfig::Quic(QuicConfig::default());
        let a = run_fleet(&proto, &cfg);
        let b = run_fleet(&proto, &cfg);
        assert_eq!(a, b);
        let c = run_fleet(&proto, &cfg.clone().with_seed(99));
        assert_ne!(a.latency_ms, c.latency_ms, "seed must matter");
    }
}
