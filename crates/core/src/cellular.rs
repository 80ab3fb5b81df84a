//! Cellular network profiles (paper Table 5, Fig 14).
//!
//! The paper measured Verizon and Sprint 3G/LTE characteristics and then
//! explained QUIC's cellular behavior in terms of exactly four quantities:
//! throughput, RTT (mean and variation), reordering rate, and loss rate.
//! These profiles parameterize the emulator with those measurements, so
//! the Fig 14 heatmaps are regenerated from the same four knobs.
//!
//! Note: the LTE RTT cell for Verizon is illegible in the source scan of
//! Table 5; we use 61 (8) ms, consistent with the surrounding values
//! (documented in DESIGN.md).

use crate::testbed::NetProfile;
use longlook_sim::link::{Jitter, ReorderSpec};
use longlook_sim::schedule::RateSchedule;
use longlook_sim::time::Dur;

/// One measured cellular network.
#[derive(Debug, Clone, Copy)]
pub struct CellProfile {
    /// Carrier + technology label.
    pub name: &'static str,
    /// Mean downlink throughput, Mbps.
    pub throughput_mbps: f64,
    /// Mean RTT, ms.
    pub rtt_ms: u64,
    /// RTT standard deviation, ms.
    pub rtt_std_ms: u64,
    /// Fraction of packets reordered.
    pub reordering: f64,
    /// Random loss rate.
    pub loss: f64,
}

/// Table 5: the four measured networks.
pub const CELL_PROFILES: [CellProfile; 4] = [
    CellProfile {
        name: "Verizon-3G",
        throughput_mbps: 0.17,
        rtt_ms: 109,
        rtt_std_ms: 20,
        reordering: 0.0143,
        loss: 0.0005,
    },
    CellProfile {
        name: "Verizon-LTE",
        throughput_mbps: 4.0,
        rtt_ms: 61,
        rtt_std_ms: 8,
        reordering: 0.0025,
        loss: 0.0,
    },
    CellProfile {
        name: "Sprint-3G",
        throughput_mbps: 0.31,
        rtt_ms: 70,
        rtt_std_ms: 39,
        reordering: 0.0138,
        loss: 0.0002,
    },
    CellProfile {
        name: "Sprint-LTE",
        throughput_mbps: 2.4,
        rtt_ms: 55,
        rtt_std_ms: 11,
        reordering: 0.0013,
        loss: 0.0002,
    },
];

impl CellProfile {
    /// Convert to an emulation profile: throughput becomes the token
    /// bucket rate, and the reordering rate drives an explicit
    /// netem-style reorder model whose jump is a couple of RTT deviations
    /// (deep enough to defeat a NACK threshold of 3 at cellular packet
    /// rates). Per-packet jitter is kept mild (sigma/8) because cellular
    /// RTT variation is mostly *run-to-run* (bufferbloat, scheduling),
    /// not i.i.d. per packet (sigma/20, clamped to 0.2-2 ms) — see
    /// [`CellProfile::net_profile_for_run`].
    pub fn net_profile(&self) -> NetProfile {
        let mut p = NetProfile::baseline(self.throughput_mbps);
        p.rate = RateSchedule::fixed_mbps(self.throughput_mbps);
        p.rtt = Dur::from_millis(self.rtt_ms);
        p.loss = self.loss;
        p.jitter = Jitter::Normal(Dur::from_micros(
            (self.rtt_std_ms * 1000 / 20).clamp(200, 2_000),
        ));
        if self.reordering > 0.0 {
            // Hold a packet long enough for at least one successor to
            // pass it even on sub-Mbps links.
            let spacing_ms = 1200.0 * 8.0 / (self.throughput_mbps * 1e6) * 1e3;
            let hold_ms = (2 * self.rtt_std_ms.max(5)).max((spacing_ms * 1.5) as u64);
            p.reorder = Some(ReorderSpec {
                prob: self.reordering,
                hold: Dur::from_millis(hold_ms),
            });
        }
        p
    }

    /// Per-run profile: the base RTT is drawn from
    /// `Normal(rtt, rtt_std)` so repeated rounds see the run-to-run RTT
    /// variability the paper measured — this is what drives the high
    /// p-values (white cells) in the 3G results of Fig 14.
    pub fn net_profile_for_run(&self, run_seed: u64) -> NetProfile {
        let mut rng = longlook_sim::SimRng::new(run_seed ^ 0xCE11);
        let rtt = rng
            .normal(self.rtt_ms as f64, self.rtt_std_ms as f64)
            .max(self.rtt_ms as f64 / 3.0);
        let mut p = self.net_profile();
        p.rtt = Dur::from_secs_f64(rtt / 1000.0);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_networks() {
        assert_eq!(CELL_PROFILES.len(), 4);
        // 3G is slower and reorders more than LTE for both carriers.
        let find = |n: &str| {
            CELL_PROFILES
                .iter()
                .find(|p| p.name == n)
                .copied()
                .expect("profile present")
        };
        for carrier in ["Verizon", "Sprint"] {
            let g3 = find(&format!("{carrier}-3G"));
            let lte = find(&format!("{carrier}-LTE"));
            assert!(g3.throughput_mbps < lte.throughput_mbps);
            assert!(g3.reordering > lte.reordering);
            assert!(g3.rtt_ms > lte.rtt_ms);
        }
    }

    #[test]
    fn profiles_convert_to_net_profiles() {
        for p in CELL_PROFILES {
            let net = p.net_profile();
            assert_eq!(net.rtt, Dur::from_millis(p.rtt_ms));
            assert_eq!(net.loss, p.loss);
            assert_eq!(net.reorder.is_some(), p.reordering > 0.0);
        }
    }
}
