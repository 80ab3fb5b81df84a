//! All heatmap figures: 6a/6b (desktop), 7 (0-RTT), 8 (impairments),
//! 12 (mobile), 14 (cellular), 15 (MACW), 17/18 (proxying).

use super::{quic, tcp};
use crate::report::Report;
use crate::RunConfig;
use longlook_core::prelude::*;

/// The paper's pair: `sc` as built (calibrated QUIC unless it says
/// otherwise) against the same cell over TCP.
fn vs_tcp(sc: Scenario) -> (Scenario, Scenario) {
    (sc.clone(), sc.with_proto(tcp()))
}

/// Heatmap labels for Table 2's object sizes, without the 210 MB bulk
/// object, which belongs to Fig 11 (values: `table2::OBJECT_SIZES`).
const SIZES: [&str; table2::OBJECT_SIZES.len()] =
    ["5KB", "10KB", "100KB", "200KB", "500KB", "1MB", "10MB"];

/// Heatmap labels for Table 2's object counts (`table2::OBJECT_COUNTS`).
const COUNTS: [&str; table2::OBJECT_COUNTS.len()] = ["1", "2", "5", "10", "100", "200"];

/// Heatmap labels for Table 2's rates (`table2::RATES_MBPS`).
const RATES: [&str; table2::RATES_MBPS.len()] = ["5Mbps", "10Mbps", "50Mbps", "100Mbps"];

fn labels(axis: &[&str]) -> Vec<String> {
    axis.iter().map(|l| l.to_string()).collect()
}

fn rate(r: usize) -> NetProfile {
    NetProfile::baseline(table2::RATES_MBPS[r])
}

fn size_page(c: usize) -> PageSpec {
    PageSpec::single(table2::OBJECT_SIZES[c])
}

fn count_page(c: usize) -> PageSpec {
    PageSpec::uniform(table2::OBJECT_COUNTS[c], 10 * 1024)
}

/// A heatmap of `cell(rate, size)` pairs over Table 2's rates and sizes.
fn by_rate_and_size(
    cfg: &RunConfig,
    title: &str,
    cell: impl FnMut(usize, usize) -> (Scenario, Scenario),
) -> Heatmap {
    sweep(title, &labels(&RATES), &labels(&SIZES), cfg.par, cell)
}

/// Fig 6a: QUIC v34 vs TCP across object sizes and rates.
pub fn fig6a(cfg: &RunConfig) -> Report {
    let mut report = Report::new("fig6a");
    report.push(by_rate_and_size(
        cfg,
        "Fig 6a — QUIC vs TCP: object size x rate (RTT 36ms, no impairment)",
        |r, c| {
            vs_tcp(
                Scenario::new(rate(r), size_page(c))
                    .with_rounds(cfg.rounds)
                    .with_seed(600 + r as u64 * 16 + c as u64),
            )
        },
    ));
    report
}

/// Fig 6b: QUIC v34 vs TCP across object counts and rates.
pub fn fig6b(cfg: &RunConfig) -> Report {
    let mut report = Report::new("fig6b");
    report.push(sweep(
        "Fig 6b — QUIC vs TCP: number of 10KB objects x rate (RTT 36ms)",
        &labels(&RATES),
        &labels(&COUNTS),
        cfg.par,
        |r, c| {
            vs_tcp(
                Scenario::new(rate(r), count_page(c))
                    .with_rounds(cfg.rounds)
                    .with_seed(660 + r as u64 * 16 + c as u64),
            )
        },
    ));
    report
}

/// Fig 7: QUIC with 0-RTT (candidate) vs QUIC without (baseline).
pub fn fig7(cfg: &RunConfig) -> Report {
    let mut report = Report::new("fig7");
    report.push(by_rate_and_size(
        cfg,
        "Fig 7 — QUIC with vs without 0-RTT (positive = 0-RTT gain)",
        |r, c| {
            let warm = Scenario::new(rate(r), size_page(c))
                .with_rounds(cfg.rounds)
                .with_seed(700 + r as u64 * 100 + c as u64 * 10);
            (warm.clone(), warm.cold())
        },
    ));
    report
}

/// Fig 8: impairment panels (loss, extra delay, jitter) for sizes and
/// counts.
pub fn fig8(cfg: &RunConfig) -> Report {
    let mut report = Report::new("fig8");
    type Impair = (&'static str, fn(NetProfile) -> NetProfile);
    let impairments: [Impair; 5] = [
        ("0.1% loss", |n| n.with_loss(0.001)),
        ("1% loss", |n| n.with_loss(0.01)),
        ("+50ms RTT", |n| n.with_extra_rtt(Dur::from_millis(50))),
        ("+100ms RTT", |n| n.with_extra_rtt(Dur::from_millis(100))),
        ("±10ms jitter (variable delay)", |n| {
            n.with_extra_rtt(Dur::from_millis(76))
                .with_jitter(Dur::from_millis(10))
        }),
    ];
    for (pi, (label, imp)) in impairments.iter().enumerate() {
        let map = by_rate_and_size(cfg, &format!("Fig 8 — object sizes, {label}"), |r, c| {
            vs_tcp(
                Scenario::new(imp(rate(r)), size_page(c))
                    .with_rounds(cfg.rounds)
                    .with_seed(800 + pi as u64 * 1000 + r as u64 * 16 + c as u64),
            )
        });
        report.push(map);
        report.note("\n");
        let map = sweep(
            &format!("Fig 8 — object counts (10KB each), {label}"),
            &labels(&RATES),
            &labels(&COUNTS),
            cfg.par,
            |r, c| {
                vs_tcp(
                    Scenario::new(imp(rate(r)), count_page(c))
                        .with_rounds(cfg.rounds)
                        .with_seed(860 + pi as u64 * 1000 + r as u64 * 16 + c as u64),
                )
            },
        );
        report.push(map);
        report.note("\n");
    }
    report
}

/// Fig 12: mobile devices (WiFi rates up to 50 Mbps per the paper).
pub fn fig12(cfg: &RunConfig) -> Report {
    let mut report = Report::new("fig12");
    for device in [DeviceProfile::MOTOG, DeviceProfile::NEXUS6] {
        let map = sweep(
            &format!("Fig 12 — QUIC vs TCP on {} (object sizes)", device.name),
            &labels(&RATES[..3]), // 5, 10, 50 Mbps
            &labels(&SIZES),
            cfg.par,
            |r, c| {
                vs_tcp(
                    Scenario::new(rate(r), size_page(c))
                        .with_rounds(cfg.rounds)
                        .with_seed(1200 + r as u64 * 16 + c as u64)
                        .on_device(device),
                )
            },
        );
        report.push(map);
        report.note("\n");
    }
    report.note(
        "paper shape: QUIC still mostly wins on phones, but by far less than\n\
         on the desktop (compare with fig6a) — userspace packet processing\n\
         leaves the sender Application-Limited (see fig13).\n",
    );
    report
}

/// Fig 14: cellular networks. The base RTT is redrawn per round from the
/// measured (mean, std), reproducing the run-to-run variance that made
/// many 3G cells statistically insignificant.
pub fn fig14(cfg: &RunConfig) -> Report {
    let sizes: [(u64, &str); 4] = [
        (10 * 1024, "10KB"),
        (100 * 1024, "100KB"),
        (1024 * 1024, "1MB"),
        (5 * 1024 * 1024, "5MB"),
    ];
    let rows: Vec<String> = CELL_PROFILES.iter().map(|p| p.name.to_string()).collect();
    let cols: Vec<String> = sizes.iter().map(|&(_, l)| l.to_string()).collect();
    let map = sweep_with(
        "Fig 14 — QUIC vs TCP over emulated cellular networks",
        &rows,
        &cols,
        cfg.rounds,
        cfg.par,
        |is_quic, r, c, k| {
            let profile = CELL_PROFILES[r];
            let net = profile.net_profile_for_run(1400 + r as u64 * 100 + k);
            let sc = Scenario::new(net, PageSpec::single(sizes[c].0))
                .with_proto(if is_quic { quic() } else { tcp() })
                .with_seed(1400 + r as u64 * 100 + c as u64 * 10);
            sc.plt_ms(&sc.run(k))
        },
    );
    let mut report = Report::new("fig14");
    report.push(map);
    report.note(
        "\npaper shape: LTE looks like a low-bandwidth desktop (QUIC wins,\n\
         larger 0-RTT benefit); on 3G the benefits diminish and variance\n\
         produces white (insignificant) cells.\n",
    );
    report
}

/// Fig 15: QUIC 37 with MACW 430 vs MACW 2000 (against TCP). The MACW
/// binds when the path BDP approaches 430 x 1350 B = 580 KB, so the sweep
/// includes high-BDP rows (extra 100 ms of RTT).
pub fn fig15(cfg: &RunConfig) -> Report {
    let mut report = Report::new("fig15");
    let rows: [(&str, f64, u64); 6] = [
        ("10Mbps", 10.0, 0),
        ("50Mbps", 50.0, 0),
        ("100Mbps", 100.0, 0),
        ("50Mbps+100ms", 50.0, 100),
        ("100Mbps+100ms", 100.0, 100),
        ("100Mbps+200ms", 100.0, 200),
    ];
    let row_labels: Vec<String> = rows.iter().map(|&(l, _, _)| l.to_string()).collect();
    for (macw, seed) in [(430u64, 1500u64), (2000, 1550)] {
        let mut quic_cfg = QuicConfig::quic37();
        quic_cfg.cubic.max_cwnd_packets = Some(macw);
        let map = sweep(
            &format!("Fig 15 — QUIC 37 (MACW={macw}) vs TCP, object sizes"),
            &row_labels,
            &labels(&SIZES),
            cfg.par,
            |r, c| {
                let (_, rate, extra_ms) = rows[r];
                vs_tcp(
                    Scenario::new(
                        NetProfile::baseline(rate).with_extra_rtt(Dur::from_millis(extra_ms)),
                        size_page(c),
                    )
                    .with_proto(ProtoConfig::Quic(quic_cfg.clone()))
                    .with_rounds(cfg.rounds)
                    .with_seed(seed + r as u64 * 16 + c as u64),
                )
            },
        );
        report.push(map);
        report.note("\n");
    }
    report.note(
        "paper shape: MACW=2000 improves the large-transfer cells wherever\n\
         the path BDP exceeds 430 packets (the high-RTT rows here);\n\
         MACW=430 reproduces QUIC 34 (compare with fig6a).\n",
    );
    report
}

/// Fig 17: QUIC direct (candidate) vs TCP through a midpoint proxy
/// (baseline); red = QUIC still better.
pub fn fig17(cfg: &RunConfig) -> Report {
    let mut report = Report::new("fig17");
    type Panel = (&'static str, fn(NetProfile) -> NetProfile);
    let panels: [Panel; 3] = [
        ("no impairment", |n| n),
        ("1% loss", |n| n.with_loss(0.01)),
        ("+100ms RTT", |n| n.with_extra_rtt(Dur::from_millis(100))),
    ];
    for (pi, (label, imp)) in panels.iter().enumerate() {
        let map = by_rate_and_size(
            cfg,
            &format!("Fig 17 — QUIC vs proxied TCP, {label}"),
            |r, c| {
                let direct = Scenario::new(imp(rate(r)), size_page(c))
                    .with_rounds(cfg.rounds)
                    .with_seed(1700 + pi as u64 * 1000 + r as u64 * 60 + c as u64);
                let proxied = direct.clone().with_proto(tcp()).via_proxy(tcp());
                (direct, proxied)
            },
        );
        report.push(map);
        report.note("\n");
    }
    report.note(
        "paper shape: a TCP proxy erases much of QUIC's edge in low-latency\n\
         and lossy cells, but QUIC keeps winning when delay is high (0-RTT).\n",
    );
    report
}

/// Fig 18: QUIC direct (candidate) vs QUIC through a proxy (baseline);
/// red = direct better, blue = the proxy helps.
pub fn fig18(cfg: &RunConfig) -> Report {
    let mut report = Report::new("fig18");
    type Panel = (&'static str, fn(NetProfile) -> NetProfile);
    let panels: [Panel; 2] = [("no impairment", |n| n), ("1% loss", |n| n.with_loss(0.01))];
    for (pi, (label, imp)) in panels.iter().enumerate() {
        let map = by_rate_and_size(
            cfg,
            &format!("Fig 18 — QUIC direct vs proxied QUIC, {label}"),
            |r, c| {
                let direct = Scenario::new(imp(rate(r)), size_page(c))
                    .with_rounds(cfg.rounds)
                    .with_seed(1800 + pi as u64 * 1000 + r as u64 * 60 + c as u64);
                (direct.clone(), direct.via_proxy(quic()))
            },
        );
        report.push(map);
        report.note("\n");
    }
    report.note(
        "paper shape: the QUIC proxy hurts small objects (no 0-RTT through\n\
         it) but helps large transfers under loss (local recovery).\n",
    );
    report
}
