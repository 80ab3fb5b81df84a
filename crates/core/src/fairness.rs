//! Fairness experiments (paper Sec 5.1, Fig 4/5, Table 4): competing
//! flows on one bottleneck.
//!
//! Setup per the paper: a shared 5 Mbps link, RTT 36 ms, 30 KB drop-tail
//! buffer; each flow bulk-downloads a 210 MB object. The finding to
//! reproduce: although both protocols run Cubic, one QUIC flow takes
//! roughly *twice* the bandwidth of the competing TCP flows combined —
//! driven by N-connection emulation and per-ack window growth.

use crate::testbed::{FlowSpec, NetProfile, Testbed};
use longlook_http::app::BulkClient;
use longlook_http::host::ProtoConfig;
use longlook_http::workload::PageSpec;
use longlook_sim::time::{Dur, Time};
use longlook_sim::DeviceProfile;

/// The paper's bottleneck for these tests.
pub fn fairness_net() -> NetProfile {
    NetProfile::baseline(5.0).with_buffer(30 * 1024)
}

/// Result for one competing flow.
#[derive(Debug, Clone)]
pub struct FlowThroughput {
    /// Flow label (e.g. "QUIC", "TCP 1").
    pub label: String,
    /// Mean throughput over the measurement window, Mbps.
    pub mean_mbps: f64,
    /// Per-second throughput timeline, Mbps.
    pub timeline_mbps: Vec<f64>,
}

/// Result of one fairness run.
#[derive(Debug, Clone)]
pub struct FairnessRun {
    /// Per-flow outcomes, in the order the flows were specified.
    pub flows: Vec<FlowThroughput>,
}

impl FairnessRun {
    /// Throughput of flow 0 divided by the mean of the rest.
    pub fn first_vs_rest_ratio(&self) -> f64 {
        if self.flows.len() < 2 {
            return 1.0;
        }
        let rest: f64 = self.flows[1..].iter().map(|f| f.mean_mbps).sum::<f64>()
            / (self.flows.len() - 1) as f64;
        if rest == 0.0 {
            f64::INFINITY
        } else {
            self.flows[0].mean_mbps / rest
        }
    }
}

/// Run `flows` (label, protocol) concurrently over the shared bottleneck
/// for `duration`; throughput is measured in 1-second buckets, skipping
/// the first 2 seconds of warm-up.
pub fn run_fairness(
    flows: &[(String, ProtoConfig)],
    net: &NetProfile,
    duration: Dur,
    seed: u64,
) -> FairnessRun {
    // Per-run path-latency noise, as in the PLT experiments.
    let net = &net.clone().with_rtt_draw(seed ^ 0xFA1A, 0);
    // The server must have a huge object: 210 MB (catalog entry 0).
    let catalog = PageSpec::single(210 * 1024 * 1024);
    // Stagger flow starts by 200 ms each so handshakes don't collide in
    // the 30 KB bottleneck buffer (processes never start in lockstep).
    let specs: Vec<FlowSpec> = flows
        .iter()
        .enumerate()
        .map(|(i, (_, proto))| FlowSpec {
            proto: proto.clone(),
            zero_rtt: true,
            app: Box::new(BulkClient::with_delay(
                0,
                Dur::from_secs(1),
                Dur::from_millis(200 * i as u64),
            )),
        })
        .collect();
    let mut tb = Testbed::direct(
        seed,
        net,
        DeviceProfile::DESKTOP,
        catalog,
        specs,
        None,
        false,
    );
    tb.world.run_until(Time::ZERO + duration);
    let host = tb.client_host();
    let mut out = Vec::new();
    let full_buckets = (duration.as_secs_f64()).floor() as usize;
    for (i, (label, _)) in flows.iter().enumerate() {
        let app = host.app::<BulkClient>(i);
        let mut tl = app.throughput_mbps();
        // Pad to the full window (a stalled flow's silence counts as zero
        // throughput), then trim warm-up and the partial final bucket.
        if tl.len() < full_buckets {
            tl.resize(full_buckets, 0.0);
        }
        let skip = 2.min(tl.len());
        tl.drain(..skip);
        if !tl.is_empty() {
            tl.pop();
        }
        let mean = if tl.is_empty() {
            0.0
        } else {
            tl.iter().sum::<f64>() / tl.len() as f64
        };
        out.push(FlowThroughput {
            label: label.clone(),
            mean_mbps: mean,
            timeline_mbps: tl,
        });
    }
    FairnessRun { flows: out }
}

/// The paper's Table 4 scenarios: QUIC vs N competing TCP flows.
pub fn quic_vs_n_tcp(
    quic: &ProtoConfig,
    tcp: &ProtoConfig,
    n_tcp: usize,
    duration: Dur,
    seed: u64,
) -> FairnessRun {
    let mut flows = vec![("QUIC".to_string(), quic.clone())];
    for k in 1..=n_tcp {
        flows.push((format!("TCP {k}"), tcp.clone()));
    }
    run_fairness(&flows, &fairness_net(), duration, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_quic::QuicConfig;
    use longlook_tcp::TcpConfig;

    fn quic() -> ProtoConfig {
        ProtoConfig::Quic(QuicConfig::default())
    }

    fn tcp() -> ProtoConfig {
        ProtoConfig::Tcp(TcpConfig::default())
    }

    #[test]
    fn two_quic_flows_share_fairly() {
        let run = run_fairness(
            &[("QUIC A".into(), quic()), ("QUIC B".into(), quic())],
            &fairness_net(),
            Dur::from_secs(30),
            1,
        );
        let ratio = run.first_vs_rest_ratio();
        assert!(
            (0.6..1.67).contains(&ratio),
            "same-protocol flows split evenly: ratio = {ratio:.2}"
        );
    }

    #[test]
    fn quic_beats_tcp_for_bandwidth() {
        let run = quic_vs_n_tcp(&quic(), &tcp(), 1, Dur::from_secs(30), 2);
        let ratio = run.first_vs_rest_ratio();
        assert!(
            ratio > 1.3,
            "QUIC should take well over its fair share: ratio = {ratio:.2} ({:?})",
            run.flows.iter().map(|f| f.mean_mbps).collect::<Vec<_>>()
        );
    }

    #[test]
    fn link_is_fully_utilized() {
        let run = quic_vs_n_tcp(&quic(), &tcp(), 1, Dur::from_secs(30), 3);
        let total: f64 = run.flows.iter().map(|f| f.mean_mbps).sum();
        assert!(
            total > 3.5 && total < 5.5,
            "aggregate goodput near the 5 Mbps cap: {total:.2}"
        );
    }

    #[test]
    fn timelines_have_expected_length() {
        let run = quic_vs_n_tcp(&quic(), &tcp(), 2, Dur::from_secs(20), 4);
        assert_eq!(run.flows.len(), 3);
        for f in &run.flows {
            assert!(f.timeline_mbps.len() >= 15, "{}", f.timeline_mbps.len());
        }
    }
}
