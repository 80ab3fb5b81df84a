//! The QUIC version model (paper Sec 5.4, "Historical Comparison").
//!
//! Twelve QUIC versions shipped during the paper's study window. The
//! changelogs show most changes touched crypto, flags, and connection IDs;
//! the *transport-relevant* deltas the paper isolates are:
//!
//! * versions 25-36: identical transport behavior given the same
//!   configuration (the paper measured 25-34 and found near-identical
//!   results; 35/36 "exhibit identical performance" to 34);
//! * version 34: N = 2 connection emulation, calibrated MACW 430;
//! * version 37 (Chromium 60): MACW raised to 2000, N = 1.

use longlook_quic::QuicConfig;

/// A gQUIC protocol version in the paper's study range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QuicVersion {
    /// Oldest version testable with Chrome 52 (the paper's floor).
    V25,
    /// Q026.
    V26,
    /// Q027.
    V27,
    /// Q028.
    V28,
    /// Q029.
    V29,
    /// Q030.
    V30,
    /// Q031.
    V31,
    /// Q032.
    V32,
    /// Q033.
    V33,
    /// Q034 — the paper's workhorse version.
    V34,
    /// Q035.
    V35,
    /// Q036.
    V36,
    /// Q037 — Chromium 60's latest stable (MACW 2000, N = 1).
    V37,
}

impl QuicVersion {
    /// All versions in study order.
    pub fn all() -> Vec<QuicVersion> {
        use QuicVersion::*;
        vec![
            V25, V26, V27, V28, V29, V30, V31, V32, V33, V34, V35, V36, V37,
        ]
    }

    /// Numeric version.
    pub fn number(self) -> u32 {
        use QuicVersion::*;
        match self {
            V25 => 25,
            V26 => 26,
            V27 => 27,
            V28 => 28,
            V29 => 29,
            V30 => 30,
            V31 => 31,
            V32 => 32,
            V33 => 33,
            V34 => 34,
            V35 => 35,
            V36 => 36,
            V37 => 37,
        }
    }

    /// Chromium's name for the version, e.g. `Q034`.
    pub fn name(self) -> String {
        format!("Q{:03}", self.number())
    }

    /// The transport configuration this version deploys with (calibrated
    /// per Sec 4.1 — i.e. matching Google's servers, not the public
    /// defaults).
    pub fn config(self) -> QuicConfig {
        if self.number() >= 37 {
            QuicConfig::quic37()
        } else {
            // 25-36 share QUIC 34's transport behavior under the paper's
            // fixed configuration.
            QuicConfig::default()
        }
    }

    /// Changelog summary (what actually changed, per the paper's
    /// analysis of the wire-layout changelogs).
    pub fn changelog(self) -> &'static str {
        match self.number() {
            25..=33 => "crypto logic, QUIC flags, connection ID handling — no transport impact",
            34 => "baseline studied version (N=2 emulation, MACW 430 calibrated)",
            35 | 36 => "identical performance to 34 (changelog: crypto/flags only)",
            37 => "MACW raised to 2000 in Chromium 60; N=1 connection emulation",
            _ => "unknown",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_versions_in_order() {
        let all = QuicVersion::all();
        assert_eq!(all.len(), 13);
        assert_eq!(all[0].number(), 25);
        assert_eq!(all[12].number(), 37);
        assert!(all.windows(2).all(|w| w[0].number() < w[1].number()));
    }

    #[test]
    fn transport_configs_match_paper() {
        // 25..=36 share the same transport config.
        let base = QuicVersion::V34.config();
        for v in QuicVersion::all() {
            if v.number() < 37 {
                let c = v.config();
                assert_eq!(c.cubic.max_cwnd_packets, base.cubic.max_cwnd_packets);
                assert_eq!(c.cubic.num_connections, base.cubic.num_connections);
            }
        }
        let v37 = QuicVersion::V37.config();
        assert_eq!(v37.cubic.max_cwnd_packets, Some(2000));
        assert_eq!(v37.cubic.num_connections, 1);
    }

    #[test]
    fn changelogs_non_empty() {
        for v in QuicVersion::all() {
            assert!(!v.changelog().is_empty());
        }
    }
}
