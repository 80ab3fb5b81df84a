//! Timeline figures: 9 (cwnd under loss), 10 (NACK threshold vs
//! reordering), 11 (variable bandwidth).

use super::{cwnd_kb, quic, reordering, tcp};
use crate::report::{Column, Report, Table};
use crate::RunConfig;
use longlook_core::prelude::*;
use longlook_core::testbed::{FlowSpec, Testbed};

/// Fig 9: congestion window over time at 100 Mbps with 1% loss.
pub fn fig9(_: &RunConfig) -> Report {
    let mut r = Report::new("fig9");
    r.note(
        "Fig 9 — congestion window over time, 100 Mbps, 1% loss (KB, sampled\n\
         every 250 ms while downloading a 10 MB object)\n\n",
    );
    let mut t = Table::new(vec![
        Column::label("", 5),
        Column::num("", 6, 0).after(" plt="),
        Column::label("", 4).after("ms losses="),
        Column::label("", 4).after(" rtx="),
        Column::num("", 4, 0).after(" | "),
    ]);
    let net = NetProfile::baseline(100.0).with_loss(0.01);
    for proto in [quic(), tcp()] {
        let (rec, trace) = Scenario::new(net.clone(), PageSpec::single(10 * 1024 * 1024))
            .with_proto(proto.clone())
            .with_seed(900)
            .run_traced(0);
        let samples = cwnd_kb(&cwnd_timeline(&trace), Dur::from_millis(250));
        let stats = rec.server_stats.unwrap_or_default();
        t.row(vec![
            proto.name().into(),
            rec.plt.map_or(f64::NAN, |d| d.as_millis_f64()).into(),
            stats.losses_detected.to_string().into(),
            stats.retransmissions.to_string().into(),
            samples.into(),
        ]);
    }
    r.push(t);
    r.note(
        "\npaper shape: under the same loss, QUIC recovers faster and holds a\n\
         larger window on average than TCP.\n",
    );
    r
}

/// Fig 10: larger NACK thresholds rescue QUIC from jitter-induced
/// reordering (10 MB, 112 ms RTT, ±10 ms jitter).
pub fn fig10(cfg: &RunConfig) -> Report {
    let mut r = Report::new("fig10");
    r.note(
        "Fig 10 — QUIC vs TCP downloading 10 MB (112 ms RTT, ±10 ms jitter\n\
         causing packet reordering), mean PLT over rounds\n\n",
    );
    let quic_at = |nack_threshold| {
        let quic_cfg = QuicConfig {
            nack_threshold,
            ..QuicConfig::default()
        };
        ProtoConfig::Quic(quic_cfg)
    };
    let mut senders: Vec<(String, ProtoConfig)> = [3, 10, 25, 50]
        .into_iter()
        .map(|n| (format!("QUIC thresh={n}"), quic_at(n)))
        .collect();
    // TCP baseline with DSACK adaptation.
    senders.push(("TCP (DSACK-adaptive)".into(), tcp()));
    let columns = vec![
        Column::label("Sender", 24),
        Column::num("PLT ms (std)", 14, 2),
        Column::num("false loss", 10, 0),
        Column::num("spurious rtx", 12, 0),
    ];
    r.push(reordering(cfg, columns, senders, 1000));
    r.note(
        "\npaper shape: at the default threshold (3) reordering is misread as\n\
         loss and QUIC is much slower than TCP; raising the threshold\n\
         restores QUIC's performance.\n",
    );
    r
}

/// Fig 11: variable bandwidth (210 MB, rate redrawn from [50, 150] Mbps
/// every second).
pub fn fig11(cfg: &RunConfig) -> Report {
    let mut r = Report::new("fig11");
    r.note(
        "Fig 11 — downloading 210 MB while the bottleneck rate is redrawn\n\
         uniformly from [50, 150] Mbps every second\n\n",
    );
    let mut t = Table::new(vec![
        Column::label("", 5),
        Column::num("", 3, 0).after(" Mbps/s: "),
    ]);
    let run_secs = 20u64;
    let protos = [quic(), tcp()];
    // Each run's per-second throughput timeline.
    let runs = sample(cfg.par, [cfg.rounds.min(5); 2], |i, k| {
        // A home-router-sized buffer (the paper's OpenWRT testbed):
        // down-shifts in rate overflow it, and recovery speed decides
        // the average throughput.
        let mut net = NetProfile::baseline(100.0).with_buffer(100 * 1024);
        net.rate = RateSchedule::random_hold_mbps(50.0, 150.0, Dur::from_secs(1), 1100 + k);
        let catalog = PageSpec::single(210 * 1024 * 1024);
        let mut tb = Testbed::direct(
            1100 + k,
            &net,
            DeviceProfile::DESKTOP,
            catalog,
            vec![FlowSpec {
                proto: protos[i].clone(),
                zero_rtt: true,
                app: Box::new(BulkClient::new(0, Dur::from_secs(1))),
            }],
            None,
            false,
        );
        tb.world.run_until(Time::ZERO + Dur::from_secs(run_secs));
        tb.client_host()
            .app::<BulkClient>(0)
            .throughput_mbps()
            .to_vec()
    });
    let steady_mean = |tl: &Vec<f64>| {
        let steady = &tl[2.min(tl.len())..];
        match steady.len() {
            0 => 0.0,
            n => steady.iter().sum::<f64>() / n as f64,
        }
    };
    let [q_mean, t_mean]: [Summary; 2] = [0, 1].map(|i| runs[i].iter().map(steady_mean).collect());
    for (proto, runs) in protos.iter().zip(&runs) {
        t.row(vec![proto.name().into(), runs[0].clone().into()]);
    }
    r.push(t);
    r.note(format!(
        "\nQUIC mean throughput: {} Mbps\nTCP  mean throughput: {} Mbps\n\
         \npaper shape: QUIC tracks the fluctuating rate better (79 vs 46 Mbps\n\
         in the paper's testbed) thanks to unambiguous acks and faster\n\
         window recovery.\n",
        q_mean.mean_std(),
        t_mean.mean_std()
    ));
    r
}
