//! Calibration (paper Sec 4.1, Fig 2): making the tested QUIC server
//! behave like the deployed one.
//!
//! The paper found the public QUIC release is *not* what Google runs:
//! the default maximum allowed congestion window was 107 packets (vs 430
//! in Chromium's dev channel) and a bug kept the slow-start threshold from
//! being raised to the receiver-advertised buffer — together costing 2x on
//! a 10 MB download. Google App Engine, the other tempting test target,
//! adds a large *variable* wait before responses. This module reproduces
//! all three server profiles and the grey-box search that recovers the
//! deployed parameters.

use crate::experiment::Scenario;
use crate::runner::Parallelism;
use crate::testbed::{FlowSpec, NetProfile, Testbed};
use longlook_http::app::WebClient;
use longlook_http::host::{ProtoConfig, WaitModel};
use longlook_http::workload::PageSpec;
use longlook_quic::QuicConfig;
use longlook_sim::time::Dur;
use longlook_sim::DeviceProfile;
use longlook_stats::Summary;

/// The three server profiles of Fig 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerProfile {
    /// The public code release, unconfigured (MACW 107 + ssthresh bug).
    PublicDefault,
    /// Google App Engine: well-tuned transport but a variable wait before
    /// content is served.
    GaeLike,
    /// Tuned to match Google's production QUIC servers (MACW 430, bug
    /// fixed) — the configuration the whole paper uses.
    Calibrated,
}

impl ServerProfile {
    /// Transport configuration for this profile.
    pub fn quic_config(self) -> QuicConfig {
        match self {
            ServerProfile::PublicDefault => QuicConfig::uncalibrated(),
            ServerProfile::GaeLike | ServerProfile::Calibrated => QuicConfig::default(),
        }
    }

    /// Server-side response wait, if any.
    pub fn wait_model(self) -> Option<WaitModel> {
        match self {
            ServerProfile::GaeLike => Some(WaitModel {
                min: Dur::from_millis(150),
                max: Dur::from_millis(900),
            }),
            _ => None,
        }
    }

    /// Display label (Fig 2 bar names).
    pub fn label(self) -> &'static str {
        match self {
            ServerProfile::PublicDefault => "EC2-default",
            ServerProfile::GaeLike => "GAE",
            ServerProfile::Calibrated => "EC2-calibrated",
        }
    }
}

/// One Fig 2 bar: wait vs download split, averaged over rounds.
#[derive(Debug, Clone)]
pub struct WaitDownloadSplit {
    /// Profile label.
    pub profile: &'static str,
    /// Time between the request reaching the server and the first
    /// response byte arriving (ms): the "wait".
    pub wait_ms: Summary,
    /// First byte to completion (ms): the "download".
    pub download_ms: Summary,
}

/// Run the Fig 2 measurement: a 10 MB image over a 100 Mbps link with the
/// paper's 12 ms empirical RTT, 10 rounds.
pub fn fig2_measure(profile: ServerProfile, rounds: u64, base_seed: u64) -> WaitDownloadSplit {
    let mut net = NetProfile::baseline(100.0);
    net.rtt = Dur::from_millis(12);
    let page = PageSpec::single(10 * 1024 * 1024);
    let mut wait = Summary::new();
    let mut download = Summary::new();
    for k in 0..rounds {
        let seed = base_seed.wrapping_mul(7_919).wrapping_add(k);
        let mut tb = Testbed::direct(
            seed,
            &net,
            DeviceProfile::DESKTOP,
            page.clone(),
            vec![FlowSpec {
                proto: ProtoConfig::Quic(profile.quic_config()),
                zero_rtt: true,
                app: Box::new(WebClient::new(page.clone())),
            }],
            profile.wait_model(),
            true,
        );
        tb.run(Dur::from_secs(120));
        let app = tb.client_host().app::<WebClient>(0);
        let rt = app.har()[0];
        let (Some(first), Some(fin)) = (rt.first_byte, rt.finished) else {
            continue;
        };
        // Wait = first-byte latency minus one path RTT (request up +
        // response down).
        let fb_ms = first.saturating_since(rt.started).as_millis_f64();
        wait.add((fb_ms - net.rtt.as_millis_f64()).max(0.0));
        download.add(fin.saturating_since(first).as_millis_f64());
    }
    WaitDownloadSplit {
        profile: profile.label(),
        wait_ms: wait,
        download_ms: download,
    }
}

/// One grey-box calibration candidate.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Max allowed congestion window (packets).
    pub macw: u64,
    /// Whether the ssthresh-from-receiver-buffer fix is applied.
    pub ssthresh_fixed: bool,
}

impl Candidate {
    fn config(self) -> QuicConfig {
        let mut cfg = QuicConfig::default();
        cfg.cubic.max_cwnd_packets = Some(self.macw);
        cfg.cubic.initial_ssthresh_packets = if self.ssthresh_fixed { None } else { Some(38) };
        cfg
    }
}

/// Grey-box calibration (Sec 4.1): "we vary server-side parameters until
/// we obtain performance that matches QUIC from Google servers." The
/// reference PLT plays the role of the measurement against Google; the
/// search sweeps the candidate grid and returns the closest match.
pub fn grey_box_search(
    reference_plt_ms: f64,
    candidates: &[Candidate],
    rounds: u64,
    base_seed: u64,
    par: Parallelism,
) -> (Candidate, f64) {
    let mut net = NetProfile::baseline(100.0);
    net.rtt = Dur::from_millis(12);
    let page = PageSpec::single(10 * 1024 * 1024);
    let mut best: Option<(Candidate, f64)> = None;
    for &cand in candidates {
        let sc = Scenario::new(net.clone(), page.clone())
            .with_proto(ProtoConfig::Quic(cand.config()))
            .with_rounds(rounds)
            .with_seed(base_seed);
        let mean = sc.plt_summary(par).mean();
        let err = (mean - reference_plt_ms).abs();
        if best.as_ref().is_none_or(|(_, e)| err < *e) {
            best = Some((cand, err));
        }
    }
    best.expect("non-empty candidate list")
}

/// Measure the reference ("Google server") PLT for the grey-box demo.
pub fn reference_plt_ms(rounds: u64, base_seed: u64, par: Parallelism) -> f64 {
    let mut net = NetProfile::baseline(100.0);
    net.rtt = Dur::from_millis(12);
    let sc = Scenario::new(net, PageSpec::single(10 * 1024 * 1024))
        .with_rounds(rounds)
        .with_seed(base_seed ^ 0x600613); // "Google"
    sc.plt_summary(par).mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncalibrated_server_is_much_slower() {
        let cal = fig2_measure(ServerProfile::Calibrated, 3, 1);
        let def = fig2_measure(ServerProfile::PublicDefault, 3, 1);
        let ratio = def.download_ms.mean() / cal.download_ms.mean();
        assert!(
            ratio > 1.5,
            "public default should be >=1.5x slower (paper: 2x): {ratio:.2}"
        );
    }

    #[test]
    fn gae_has_large_variable_wait() {
        let cal = fig2_measure(ServerProfile::Calibrated, 4, 2);
        let gae = fig2_measure(ServerProfile::GaeLike, 4, 2);
        assert!(
            gae.wait_ms.mean() > cal.wait_ms.mean() + 100.0,
            "GAE wait {} vs calibrated {}",
            gae.wait_ms.mean(),
            cal.wait_ms.mean()
        );
        assert!(
            gae.wait_ms.sample_std_dev() > 50.0,
            "GAE wait should be highly variable"
        );
    }

    #[test]
    fn grey_box_search_recovers_deployed_parameters() {
        let reference = reference_plt_ms(2, 3, Parallelism::Serial);
        let candidates = [
            Candidate {
                macw: 107,
                ssthresh_fixed: false,
            },
            Candidate {
                macw: 107,
                ssthresh_fixed: true,
            },
            Candidate {
                macw: 430,
                ssthresh_fixed: false,
            },
            Candidate {
                macw: 430,
                ssthresh_fixed: true,
            },
        ];
        let (best, err) = grey_box_search(reference, &candidates, 2, 3, Parallelism::Serial);
        assert_eq!(best.macw, 430);
        assert!(best.ssthresh_fixed);
        assert!(err < reference * 0.05, "match within 5%: err = {err}");
    }
}
