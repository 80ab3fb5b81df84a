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

use crate::experiment::{plt_summaries, sample, Scenario};
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

/// Run the Fig 2 measurement for each of `profiles`: a 10 MB image over
/// a 100 Mbps link with the paper's 12 ms empirical RTT, `rounds` rounds
/// each, every profile's rounds in one [`sample`] batch.
pub fn fig2_measure(
    profiles: &[ServerProfile],
    rounds: u64,
    base_seed: u64,
    par: Parallelism,
) -> Vec<WaitDownloadSplit> {
    let net = fig2_net();
    let page = PageSpec::single(10 * 1024 * 1024);
    let runs = sample(par, vec![rounds; profiles.len()], |i, k| {
        let profile = &profiles[i];
        let mut tb = Testbed::direct(
            base_seed.wrapping_mul(7_919).wrapping_add(k),
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
        let rt = tb.client_host().app::<WebClient>(0).har()[0];
        let (first, fin) = (rt.first_byte?, rt.finished?);
        // Wait = first-byte latency minus one path RTT (request up +
        // response down).
        let fb_ms = first.saturating_since(rt.started).as_millis_f64();
        let wait = (fb_ms - net.rtt.as_millis_f64()).max(0.0);
        Some((wait, fin.saturating_since(first).as_millis_f64()))
    });
    let split = |(profile, runs): (&ServerProfile, Vec<_>)| {
        let done = runs.into_iter().flatten();
        WaitDownloadSplit {
            profile: profile.label(),
            wait_ms: done.clone().map(|(wait, _)| wait).collect(),
            download_ms: done.map(|(_, download)| download).collect(),
        }
    };
    profiles.iter().zip(runs).map(split).collect()
}

/// Fig 2's path: 100 Mbps at the paper's 12 ms empirical RTT.
fn fig2_net() -> NetProfile {
    let mut net = NetProfile::baseline(100.0);
    net.rtt = Dur::from_millis(12);
    net
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
/// we obtain performance that matches QUIC from Google servers." A
/// reference cell (the calibrated server on its own seed) plays the
/// measurement against Google. It and every candidate run as one batch,
/// and the search returns the reference PLT (ms), the closest candidate
/// (the first, on a tie) and its distance from the reference (ms).
pub fn grey_box_search(
    candidates: &[Candidate],
    rounds: u64,
    base_seed: u64,
    par: Parallelism,
) -> (f64, Candidate, f64) {
    let cell = |cfg: QuicConfig, seed| {
        Scenario::new(fig2_net(), PageSpec::single(10 * 1024 * 1024))
            .with_proto(ProtoConfig::Quic(cfg))
            .with_rounds(rounds)
            .with_seed(seed)
    };
    let reference = cell(QuicConfig::default(), base_seed ^ 0x600613); // "Google"
    let cells: Vec<Scenario> = std::iter::once(reference)
        .chain(candidates.iter().map(|c| cell(c.config(), base_seed)))
        .collect();
    let plts = plt_summaries(&cells, par);
    let reference_ms = plts[0].mean();
    let errs = plts[1..]
        .iter()
        .map(|plt| (plt.mean() - reference_ms).abs());
    let (best, err) = (candidates.iter().copied().zip(errs))
        .reduce(|best, c| if c.1 < best.1 { c } else { best })
        .expect("non-empty candidate list");
    (reference_ms, best, err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncalibrated_server_is_much_slower() {
        let [cal, def] = [ServerProfile::Calibrated, ServerProfile::PublicDefault]
            .map(|p| fig2_measure(&[p], 3, 1, Parallelism::Serial).remove(0));
        let ratio = def.download_ms.mean() / cal.download_ms.mean();
        assert!(
            ratio > 1.5,
            "public default should be >=1.5x slower (paper: 2x): {ratio:.2}"
        );
    }

    #[test]
    fn gae_has_large_variable_wait() {
        let profiles = [ServerProfile::Calibrated, ServerProfile::GaeLike];
        let [cal, gae]: [WaitDownloadSplit; 2] = fig2_measure(&profiles, 4, 2, Parallelism::Serial)
            .try_into()
            .expect("two profiles");
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
        let (reference, best, err) = grey_box_search(&candidates, 2, 3, Parallelism::Serial);
        assert_eq!(best.macw, 430);
        assert!(best.ssthresh_fixed);
        assert!(err < reference * 0.05, "match within 5%: err = {err}");
    }
}
