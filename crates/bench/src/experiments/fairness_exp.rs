//! Fairness artifacts: Fig 4 (throughput timelines), Fig 5 (congestion
//! windows while competing), Table 4 (average allocations over 10 runs).

use super::{cwnd_kb, quic, tcp};
use crate::report::{Column, Report, Table};
use crate::RunConfig;
use longlook_core::prelude::*;
use longlook_core::testbed::{FlowSpec, Testbed};

const RUN_SECS: u64 = 60;

/// Fig 4: throughput timelines for QUIC vs TCP and QUIC vs 2 TCP.
pub fn fig4(_: &RunConfig) -> Report {
    let mut r = Report::new("fig4");
    r.note(
        "Fig 4 — timeline showing unfairness between QUIC and TCP over the same\n\
         5 Mbps bottleneck (RTT=36ms, buffer=30KB); Mbps per second\n",
    );
    for (title, n) in [("(a) QUIC vs TCP", 1usize), ("(b) QUIC vs TCPx2", 2)] {
        let run = quic_vs_n_tcp(&quic(), &tcp(), n, Dur::from_secs(RUN_SECS), 31);
        r.note(format!("\n{title}\n"));
        let mut t = Table::new(vec![
            Column::label("", 7).after("  "),
            Column::num("", 4, 2).after(" mean "),
            Column::num("", 4, 1).after(" Mbps | "),
        ]);
        for f in run.flows {
            let points: Vec<f64> = f.timeline_mbps.into_iter().step_by(4).collect();
            t.row(vec![f.label.into(), f.mean_mbps.into(), points.into()]);
        }
        r.push(t);
    }
    r
}

/// Fig 5: congestion windows of the competing flows.
pub fn fig5(_: &RunConfig) -> Report {
    let mut r = Report::new("fig5");
    r.note(
        "Fig 5 — congestion window sizes for QUIC and TCP sharing a 5 Mbps link\n\
         (KB, sampled every 2 s)\n\n",
    );
    // Build the mixed world manually, traced, to read server-side cwnd.
    let catalog = PageSpec::single(210 * 1024 * 1024);
    let mut tb = Testbed::direct(
        33,
        &fairness_net(),
        DeviceProfile::DESKTOP,
        catalog,
        vec![
            FlowSpec {
                proto: quic().with_trace(TraceMode::On),
                zero_rtt: true,
                app: Box::new(BulkClient::new(0, Dur::from_secs(1))),
            },
            FlowSpec {
                proto: tcp().with_trace(TraceMode::On),
                zero_rtt: false,
                app: Box::new(BulkClient::new(0, Dur::from_secs(1))),
            },
        ],
        None,
        false,
    );
    tb.world.run_until(Time::ZERO + Dur::from_secs(RUN_SECS));
    let server = tb.server_host();
    let mut t = Table::new(vec![
        Column::label("", 0).after("  "),
        Column::num("", 3, 0).after(": "),
    ]);
    for (flow, label) in tb.flows.iter().zip(["QUIC", "TCP "]) {
        let Some(trace) = server.conn_trace(*flow) else {
            continue;
        };
        let kb = cwnd_kb(&cwnd_timeline(trace), Dur::from_secs(2));
        t.row(vec![label.into(), kb.into()]);
    }
    r.push(t);
    r.note(
        "\npaper shape: QUIC's window grows more aggressively (steeper slope,\n\
         more frequent increases) so it holds a larger share of the pipe.\n",
    );
    r
}

/// Table 4: average throughputs over 10 runs for the three scenarios.
pub fn table4(cfg: &RunConfig) -> Report {
    let mut r = Report::new("table4");
    r.note("Table 4 — average throughput (5 Mbps link, buffer=30KB) when competing\n\n");
    let mut t = Table::new(vec![
        Column::label("Scenario", 16),
        Column::label("Flow", 7),
        Column::num("Avg Mbps (std)", 22, 2),
    ])
    .ruled();
    let scenarios: [(&str, usize); 3] = [
        ("QUIC vs TCP", 1),
        ("QUIC vs TCPx2", 2),
        ("QUIC vs TCPx4", 4),
    ];
    let mut quic_share_sum = 0.0;
    let secs = Dur::from_secs(RUN_SECS);
    let runs = sample(cfg.par, [cfg.rounds; 3], |i, k| {
        quic_vs_n_tcp(&quic(), &tcp(), scenarios[i].1, secs, 41 + k)
    });
    for ((name, n), runs) in scenarios.into_iter().zip(runs) {
        // Each flow's throughput over the rounds, in round order.
        let per_flow: Vec<Summary> = (0..=n)
            .map(|f| runs.iter().map(|run| run.flows[f].mean_mbps).collect())
            .collect();
        for (flow, s) in runs[0].flows.iter().zip(&per_flow) {
            t.row(vec![name.into(), flow.label.as_str().into(), (*s).into()]);
        }
        let tcp_total: f64 = per_flow[1..].iter().map(Summary::mean).sum();
        quic_share_sum += per_flow[0].mean() / (per_flow[0].mean() + tcp_total);
        t.row(Vec::new());
    }
    r.push(t);
    r.note(format!(
        "QUIC's mean share of the bottleneck across scenarios: {:.0}%\n\
         paper: QUIC consumes more than half the bottleneck even against 2\n\
         and 4 competing TCP flows (e.g. 2.71 vs 1.62 Mbps one-on-one).\n",
        quic_share_sum / 3.0 * 100.0
    ));
    r
}
