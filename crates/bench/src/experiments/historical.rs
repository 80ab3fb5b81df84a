//! Historical comparison (Sec 5.4): PLT across QUIC versions 25-37 with a
//! fixed Chrome-side configuration.

use crate::report::{Cell, Column, Report, Table};
use crate::RunConfig;
use longlook_core::prelude::*;

/// Versions 25-36 should be indistinguishable; 37 should win for large
/// transfers at high bandwidth (MACW 2000).
pub fn historical(cfg: &RunConfig) -> Report {
    let mut r = Report::new("historical");
    r.note(
        "Sec 5.4 — historical comparison, mean PLT (ms) with the same\n\
         configuration across QUIC versions\n\n",
    );
    let scenarios = [
        (
            "1MB @ 10Mbps",
            NetProfile::baseline(10.0),
            PageSpec::single(1024 * 1024),
        ),
        (
            "10MB @ 100Mbps",
            NetProfile::baseline(100.0),
            PageSpec::single(10 * 1024 * 1024),
        ),
        (
            "10MB @ 100Mbps +100ms",
            NetProfile::baseline(100.0).with_extra_rtt(Dur::from_millis(100)),
            PageSpec::single(10 * 1024 * 1024),
        ),
    ];
    let mut columns = vec![Column::label("version", 8)];
    columns.extend(
        scenarios
            .iter()
            .map(|(label, _, _)| Column::num(label, 22, 0)),
    );
    columns.push(Column::label("", 0).after("   "));
    let mut t = Table::new(columns);
    let versions = QuicVersion::all();
    let cells: Vec<Scenario> = versions
        .iter()
        .flat_map(|v| {
            scenarios.iter().enumerate().map(|(i, (_, net, page))| {
                Scenario::new(net.clone(), page.clone())
                    .with_proto(ProtoConfig::Quic(v.config()))
                    .with_rounds(cfg.rounds.min(5))
                    .with_seed(2000 + i as u64)
            })
        })
        .collect();
    let plts = plt_summaries(&cells, cfg.par);
    let per_version: Vec<&[Summary]> = plts.chunks(scenarios.len()).collect();
    for (v, plts) in versions.iter().zip(&per_version) {
        let mut row: Vec<Cell> = vec![v.name().into()];
        row.extend(plts.iter().map(|plt| plt.mean().into()));
        row.push(format!("({})", v.changelog()).into());
        t.row(row);
    }
    // The last column's mean for version `n`.
    let last = |n| {
        let v = versions.iter().position(|v| v.number() == n);
        v.map_or(f64::NAN, |v| per_version[v][scenarios.len() - 1].mean())
    };
    r.push(t);
    r.note(format!(
        "\npaper shape: versions 25-36 are indistinguishable under the same\n\
         configuration; Q037's larger MACW (2000) helps big transfers in\n\
         high-delay/high-bandwidth paths (v34 {:.0}ms vs v37 {:.0}ms on the\n\
         last column).\n",
        last(34),
        last(37),
    ));
    r
}
