//! Ablation benches for the design choices DESIGN.md calls out: NACK
//! threshold policy, HyStart, pacing, and N-connection emulation.

use super::{recovery, reordering, summaries, tcp};
use crate::report::{Column, Report, Table};
use crate::RunConfig;
use longlook_core::prelude::*;

/// NACK policy under reordering: fixed 3 vs fixed 25 vs adaptive
/// (DSACK-like doubling) vs time-based loss detection.
pub fn nack(cfg: &RunConfig) -> Report {
    let mut r = Report::new("ablation_nack");
    r.note(
        "Ablation — loss-detection policy under ±10 ms jitter reordering\n\
         (10 MB, 112 ms RTT, 50 Mbps; mean over rounds)\n\n",
    );
    let senders = [
        ("fixed threshold 3", QuicConfig::default()),
        (
            "fixed threshold 25",
            QuicConfig {
                nack_threshold: 25,
                ..QuicConfig::default()
            },
        ),
        (
            "adaptive (DSACK-like)",
            QuicConfig {
                adaptive_nack: true,
                ..QuicConfig::default()
            },
        ),
        (
            "time-based (1.25 sRTT)",
            QuicConfig {
                // A huge threshold effectively disables nack counting.
                nack_threshold: 1000,
                time_loss_detection: true,
                ..QuicConfig::default()
            },
        ),
    ];
    let senders = senders
        .into_iter()
        .map(|(label, quic_cfg)| (label.to_string(), ProtoConfig::Quic(quic_cfg)))
        .collect();
    let columns = vec![
        Column::label("Policy", 24),
        Column::num("PLT ms (std)", 16, 2),
        Column::num("losses", 10, 0),
        Column::num("spurious", 12, 0),
    ];
    r.push(reordering(cfg, columns, senders, 2100));
    r
}

/// HyStart on/off: where the delay-based slow-start exit matters.
pub fn hystart(cfg: &RunConfig) -> Report {
    let mut r = Report::new("ablation_hystart");
    r.note(
        "Ablation — Hybrid Slow Start (mean over rounds, 36 ms RTT)\n\n\
         (a) Deep-buffered link: without HyStart, slow start overshoots the\n\
         BDP and dumps a burst of drop-tail losses; HyStart exits on the\n\
         rising round-trip before the cliff.\n\n",
    );
    let mut deep_table = Table::new(vec![
        Column::label("Scenario", 28),
        Column::num("HyStart", 14, 0),
        Column::num("PLT ms", 14, 0),
        Column::num("losses", 10, 0),
    ]);
    // 20 MB at 50 Mbps through a 2-BDP buffer (450 KB); MACW 2000 so the
    // window cap doesn't mask the overshoot.
    let deep = NetProfile::baseline(50.0).with_buffer(450 * 1024);
    let hystart = |mut quic_cfg: QuicConfig, on| {
        quic_cfg.cubic.hystart = on;
        ProtoConfig::Quic(quic_cfg)
    };
    let cells = [true, false].map(|on| {
        Scenario::new(deep.clone(), PageSpec::single(20 * 1024 * 1024))
            .with_proto(hystart(QuicConfig::quic37(), on))
    });
    let label = "20MB @50Mbps, 2-BDP buffer";
    let deep_runs = recovery(cfg, &cells, cfg.rounds.min(5), 2200);
    for (on, [plt, losses, _]) in ["on", "off"].into_iter().zip(deep_runs) {
        let (plt, losses) = (plt.mean(), losses.mean());
        deep_table.row(vec![label.into(), on.into(), plt.into(), losses.into()]);
    }
    r.push(deep_table);
    r.note("\n(b) Many small objects (the paper's Sec 5.2 pathology):\n\n");
    // The rate cells run one wider than their heading.
    r.push(Table::new(vec![
        Column::label("Page", 12),
        Column::num("rate", 10, 0),
        Column::num("HyStart on", 14, 0),
        Column::num("HyStart off", 14, 0),
    ]));
    let mut pages_table = Table::new(vec![
        Column::label("", 12),
        Column::num("", 7, 0),
        Column::num("", 14, 0).after("Mbps | "),
        Column::num("", 14, 0),
    ]);
    let pages = [
        ("1 x 1MB", PageSpec::single(1024 * 1024)),
        ("100 x 10KB", PageSpec::uniform(100, 10 * 1024)),
        ("200 x 10KB", PageSpec::uniform(200, 10 * 1024)),
    ];
    let rows = [10.0, 100.0]
        .into_iter()
        .flat_map(|rate| pages.iter().map(move |(label, page)| (rate, *label, page)));
    let cells: Vec<Scenario> = (rows.clone())
        .flat_map(|(rate, _, page)| {
            [true, false].map(|on| {
                Scenario::new(NetProfile::baseline(rate), page.clone())
                    .with_proto(hystart(QuicConfig::default(), on))
                    .with_rounds(cfg.rounds.min(5))
                    .with_seed(2250)
            })
        })
        .collect();
    let plts = plt_summaries(&cells, cfg.par);
    for ((rate, label, _), plt) in rows.zip(plts.chunks(2)) {
        let [on, off] = [&plt[0], &plt[1]].map(Summary::mean);
        pages_table.row(vec![label.into(), rate.into(), on.into(), off.into()]);
    }
    r.push(pages_table);
    r.note(
        "\nnote: the paper attributes the many-small-objects pathology to an\n\
         unexplained min-RTT jump triggering HyStart (they leave the cause\n\
         to future work). That jump does not arise in this testbed; here\n\
         the pathology is reproduced by the single-threaded toy QUIC\n\
         server serializing request handling (see DESIGN.md), so HyStart\n\
         on/off is neutral in panel (b) and decisive in panel (a).\n",
    );
    r
}

/// Pacing on/off under loss at high bandwidth.
pub fn pacing(cfg: &RunConfig) -> Report {
    let mut r = Report::new("ablation_pacing");
    r.note("Ablation — pacing and bursty losses (10 MB @ 100 Mbps, small buffer)\n\n");
    let net = NetProfile::baseline(100.0).with_buffer(64 * 1024);
    let page = PageSpec::single(10 * 1024 * 1024);
    let mut t = Table::new(vec![
        Column::label("Pacing", 12),
        Column::num("PLT ms (std)", 16, 2),
        Column::num("losses (mean)", 16, 1),
    ]);
    let cells = [true, false].map(|pacing| {
        let quic_cfg = QuicConfig {
            pacing,
            ..QuicConfig::default()
        };
        Scenario::new(net.clone(), page.clone()).with_proto(ProtoConfig::Quic(quic_cfg))
    });
    let results = recovery(cfg, &cells, cfg.rounds, 2300);
    for (on, [plt, losses, _]) in ["on", "off"].into_iter().zip(results) {
        t.row(vec![on.into(), plt.into(), losses.mean().into()]);
    }
    r.push(t);
    r.note("\nexpected: pacing reduces drop-tail losses from slow-start bursts.\n");
    r
}

/// N-connection emulation's effect on fairness.
pub fn nconn(cfg: &RunConfig) -> Report {
    let mut r = Report::new("ablation_nconn");
    r.note(
        "Ablation — N-connection emulation vs fairness (QUIC vs 1 TCP flow,\n\
         5 Mbps shared link, 30 s)\n\n",
    );
    let mut t = Table::new(vec![
        Column::label("N", 6),
        Column::num("QUIC Mbps", 12, 2),
        Column::num("TCP Mbps", 12, 2),
        Column::num("ratio", 8, 2),
    ]);
    let ns = [1u32, 2];
    let runs = sample(cfg.par, [cfg.rounds.min(5); 2], |i, k| {
        let mut quic_cfg = QuicConfig::default();
        quic_cfg.cubic.num_connections = ns[i];
        let proto = ProtoConfig::Quic(quic_cfg);
        let run = quic_vs_n_tcp(&proto, &tcp(), 1, Dur::from_secs(30), 2400 + k);
        [run.flows[0].mean_mbps, run.flows[1].mean_mbps]
    });
    for (n, runs) in ns.into_iter().zip(runs) {
        let [q, tcp] = summaries(&runs);
        t.row(vec![
            n.to_string().into(),
            q.mean().into(),
            tcp.mean().into(),
            (q.mean() / tcp.mean().max(1e-9)).into(),
        ]);
    }
    r.push(t);
    r.note(
        "\npaper: \"we found that N had little impact on fairness\" — QUIC\n\
         overtakes TCP even with N=1, because per-ack window updates and\n\
         faster recovery matter more than the Cubic constants.\n",
    );
    r
}

/// Experimental BBR vs Cubic (Sec 5.4: Google reported BBR was "not yet
/// performing as well as Cubic in our deployment tests").
pub fn bbr(cfg: &RunConfig) -> Report {
    let mut r = Report::new("ablation_bbr");
    r.note(
        "Ablation — experimental BBR vs Cubic (QUIC 34 transport, mean PLT\n\
         ms over rounds)\n\n",
    );
    let scenarios = [
        (
            "10MB @50Mbps clean",
            NetProfile::baseline(50.0),
            PageSpec::single(10 * 1024 * 1024),
        ),
        (
            "10MB @50Mbps 1% loss",
            NetProfile::baseline(50.0).with_loss(0.01),
            PageSpec::single(10 * 1024 * 1024),
        ),
        (
            "1MB @10Mbps +100ms",
            NetProfile::baseline(10.0).with_extra_rtt(Dur::from_millis(100)),
            PageSpec::single(1024 * 1024),
        ),
    ];
    let mut t = Table::new(vec![
        Column::label("Scenario", 22),
        Column::num("Cubic", 12, 0),
        Column::num("BBR", 12, 0),
    ]);
    let cells: Vec<Scenario> = scenarios
        .iter()
        .flat_map(|(_, net, page)| {
            [CcKind::Cubic, CcKind::Bbr].map(|cc| {
                let quic_cfg = QuicConfig {
                    cc,
                    ..QuicConfig::default()
                };
                Scenario::new(net.clone(), page.clone())
                    .with_proto(ProtoConfig::Quic(quic_cfg))
                    .with_rounds(cfg.rounds.min(5))
                    .with_seed(2500)
            })
        })
        .collect();
    let plts = plt_summaries(&cells, cfg.par);
    for ((label, _, _), plt) in scenarios.iter().zip(plts.chunks(2)) {
        t.row(vec![
            (*label).into(),
            plt[0].mean().into(),
            plt[1].mean().into(),
        ]);
    }
    r.push(t);
    r.note(
        "\npaper context: BBR was experimental and not yet deployed; Google\n\
         told the authors it did not yet match Cubic. Our simplified BBR v1\n\
         is likewise a state-machine-fidelity model, not a tuned controller.\n",
    );
    r
}
