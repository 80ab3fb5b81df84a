//! Ablation benches for the design choices DESIGN.md calls out: NACK
//! threshold policy, HyStart, pacing, and N-connection emulation.

use crate::rounds;
use longlook_core::prelude::*;
use std::fmt::Write as _;

/// NACK policy under reordering: fixed 3 vs fixed 25 vs adaptive
/// (DSACK-like doubling) vs time-based loss detection.
pub fn nack() -> String {
    let mut out = String::from(
        "Ablation — loss-detection policy under ±10 ms jitter reordering\n\
         (10 MB, 112 ms RTT, 50 Mbps; mean over rounds)\n\n",
    );
    let net = NetProfile::baseline(50.0)
        .with_extra_rtt(Dur::from_millis(76))
        .with_jitter(Dur::from_millis(10));
    let page = PageSpec::single(10 * 1024 * 1024);
    let variants: Vec<(&str, QuicConfig)> = vec![
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
    let _ = writeln!(
        out,
        "{:<24} | {:>16} | {:>10} | {:>12}",
        "Policy", "PLT ms (std)", "losses", "spurious"
    );
    for (label, cfg) in variants {
        let proto = ProtoConfig::Quic(cfg);
        let mut plt = Summary::new();
        let mut losses = Summary::new();
        let mut spurious = Summary::new();
        // Rounds are independent worlds: shard them, then fold the
        // summaries in round order so the printed stats are identical to
        // a serial sweep.
        let recs = run_ordered(Parallelism::auto(), rounds() as usize, |k| {
            let k = k as u64;
            let sc = Scenario::new(net.clone(), page.clone())
                .with_proto(proto.clone())
                .with_seed(2100 + k);
            let rec = sc.run(k);
            (sc.plt_ms(&rec), rec.server_stats.unwrap_or_default())
        });
        for (plt_ms, st) in recs {
            plt.add(plt_ms);
            losses.add(st.losses_detected as f64);
            spurious.add(st.spurious_retransmissions as f64);
        }
        let _ = writeln!(
            out,
            "{:<24} | {:>16} | {:>10.0} | {:>12.0}",
            label,
            plt.mean_std(),
            losses.mean(),
            spurious.mean(),
        );
    }
    out
}

/// HyStart on/off: where the delay-based slow-start exit matters.
pub fn hystart() -> String {
    let mut out = String::from(
        "Ablation — Hybrid Slow Start (mean over rounds, 36 ms RTT)\n\n\
         (a) Deep-buffered link: without HyStart, slow start overshoots the\n\
         BDP and dumps a burst of drop-tail losses; HyStart exits on the\n\
         rising round-trip before the cliff.\n\n",
    );
    let _ = writeln!(
        out,
        "{:<28} | {:>14} | {:>14} | {:>10}",
        "Scenario", "HyStart", "PLT ms", "losses"
    );
    // 20 MB at 50 Mbps through a 2-BDP buffer (450 KB); MACW 2000 so the
    // window cap doesn't mask the overshoot.
    let deep = NetProfile::baseline(50.0).with_buffer(450 * 1024);
    for hystart_on in [true, false] {
        let mut cfg = QuicConfig::quic37();
        cfg.cubic.hystart = hystart_on;
        let proto = ProtoConfig::Quic(cfg);
        let mut plt = Summary::new();
        let mut losses = Summary::new();
        let recs = run_ordered(Parallelism::auto(), rounds().min(5) as usize, |k| {
            let k = k as u64;
            let sc = Scenario::new(deep.clone(), PageSpec::single(20 * 1024 * 1024))
                .with_proto(proto.clone())
                .with_seed(2200 + k);
            let rec = sc.run(k);
            (
                sc.plt_ms(&rec),
                rec.server_stats.unwrap_or_default().losses_detected as f64,
            )
        });
        for (plt_ms, lost) in recs {
            plt.add(plt_ms);
            losses.add(lost);
        }
        let _ = writeln!(
            out,
            "{:<28} | {:>14} | {:>14.0} | {:>10.0}",
            "20MB @50Mbps, 2-BDP buffer",
            if hystart_on { "on" } else { "off" },
            plt.mean(),
            losses.mean(),
        );
    }
    out.push_str("\n(b) Many small objects (the paper's Sec 5.2 pathology):\n\n");
    let _ = writeln!(
        out,
        "{:<12} | {:>10} | {:>14} | {:>14}",
        "Page", "rate", "HyStart on", "HyStart off"
    );
    let pages = [
        ("1 x 1MB", PageSpec::single(1024 * 1024)),
        ("100 x 10KB", PageSpec::uniform(100, 10 * 1024)),
        ("200 x 10KB", PageSpec::uniform(200, 10 * 1024)),
    ];
    for rate in [10.0, 100.0] {
        for (label, page) in &pages {
            let mut row = format!("{label:<12} | {rate:>7}Mbps");
            for hystart_on in [true, false] {
                let mut cfg = QuicConfig::default();
                cfg.cubic.hystart = hystart_on;
                let sc = Scenario::new(NetProfile::baseline(rate), page.clone())
                    .with_proto(ProtoConfig::Quic(cfg))
                    .with_rounds(rounds().min(5))
                    .with_seed(2250);
                let mean = sc.plt_summary(Parallelism::auto()).mean();
                row.push_str(&format!(" | {mean:>14.0}"));
            }
            let _ = writeln!(out, "{row}");
        }
    }
    out.push_str(
        "\nnote: the paper attributes the many-small-objects pathology to an\n\
         unexplained min-RTT jump triggering HyStart (they leave the cause\n\
         to future work). That jump does not arise in this testbed; here\n\
         the pathology is reproduced by the single-threaded toy QUIC\n\
         server serializing request handling (see DESIGN.md), so HyStart\n\
         on/off is neutral in panel (b) and decisive in panel (a).\n",
    );
    out
}

/// Pacing on/off under loss at high bandwidth.
pub fn pacing() -> String {
    let mut out =
        String::from("Ablation — pacing and bursty losses (10 MB @ 100 Mbps, small buffer)\n\n");
    let net = NetProfile::baseline(100.0).with_buffer(64 * 1024);
    let page = PageSpec::single(10 * 1024 * 1024);
    let _ = writeln!(
        out,
        "{:<12} | {:>16} | {:>16}",
        "Pacing", "PLT ms (std)", "losses (mean)"
    );
    for pacing_on in [true, false] {
        let cfg = QuicConfig {
            pacing: pacing_on,
            ..QuicConfig::default()
        };
        let proto = ProtoConfig::Quic(cfg);
        let mut plt = Summary::new();
        let mut losses = Summary::new();
        let recs = run_ordered(Parallelism::auto(), rounds() as usize, |k| {
            let k = k as u64;
            let sc = Scenario::new(net.clone(), page.clone())
                .with_proto(proto.clone())
                .with_seed(2300 + k);
            let rec = sc.run(k);
            (
                sc.plt_ms(&rec),
                rec.server_stats.unwrap_or_default().losses_detected as f64,
            )
        });
        for (plt_ms, lost) in recs {
            plt.add(plt_ms);
            losses.add(lost);
        }
        let _ = writeln!(
            out,
            "{:<12} | {:>16} | {:>16.1}",
            if pacing_on { "on" } else { "off" },
            plt.mean_std(),
            losses.mean(),
        );
    }
    out.push_str("\nexpected: pacing reduces drop-tail losses from slow-start bursts.\n");
    out
}

/// N-connection emulation's effect on fairness.
pub fn nconn() -> String {
    let mut out = String::from(
        "Ablation — N-connection emulation vs fairness (QUIC vs 1 TCP flow,\n\
         5 Mbps shared link, 30 s)\n\n",
    );
    let _ = writeln!(
        out,
        "{:<6} | {:>12} | {:>12} | {:>8}",
        "N", "QUIC Mbps", "TCP Mbps", "ratio"
    );
    for n in [1u32, 2] {
        let mut cfg = QuicConfig::default();
        cfg.cubic.num_connections = n;
        let mut q = Summary::new();
        let mut t = Summary::new();
        let runs = run_ordered(Parallelism::auto(), rounds().min(5) as usize, |k| {
            quic_vs_n_tcp(
                &ProtoConfig::Quic(cfg.clone()),
                &ProtoConfig::Tcp(TcpConfig::default()),
                1,
                Dur::from_secs(30),
                2400 + k as u64,
            )
        });
        for run in &runs {
            q.add(run.flows[0].mean_mbps);
            t.add(run.flows[1].mean_mbps);
        }
        let _ = writeln!(
            out,
            "{:<6} | {:>12.2} | {:>12.2} | {:>8.2}",
            n,
            q.mean(),
            t.mean(),
            q.mean() / t.mean().max(1e-9),
        );
    }
    out.push_str(
        "\npaper: \"we found that N had little impact on fairness\" — QUIC\n\
         overtakes TCP even with N=1, because per-ack window updates and\n\
         faster recovery matter more than the Cubic constants.\n",
    );
    out
}

/// Experimental BBR vs Cubic (Sec 5.4: Google reported BBR was "not yet
/// performing as well as Cubic in our deployment tests").
pub fn bbr() -> String {
    let mut out = String::from(
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
    let _ = writeln!(out, "{:<22} | {:>12} | {:>12}", "Scenario", "Cubic", "BBR");
    for (label, net, page) in scenarios {
        let mut row = format!("{label:<22}");
        for cc in [CcKind::Cubic, CcKind::Bbr] {
            let cfg = QuicConfig {
                cc,
                ..QuicConfig::default()
            };
            let sc = Scenario::new(net.clone(), page.clone())
                .with_proto(ProtoConfig::Quic(cfg))
                .with_rounds(rounds().min(5))
                .with_seed(2500);
            let mean = sc.plt_summary(Parallelism::auto()).mean();
            row.push_str(&format!(" | {mean:>12.0}"));
        }
        let _ = writeln!(out, "{row}");
    }
    out.push_str(
        "\npaper context: BBR was experimental and not yet deployed; Google\n\
         told the authors it did not yet match Cubic. Our simplified BBR v1\n\
         is likewise a state-machine-fidelity model, not a tuned controller.\n",
    );
    out
}
