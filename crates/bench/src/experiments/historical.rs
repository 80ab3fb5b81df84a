//! Historical comparison (Sec 5.4): PLT across QUIC versions 25-37 with a
//! fixed Chrome-side configuration.

use crate::report::{Cell, Column, Report, Table};
use crate::rounds;
use longlook_core::prelude::*;

/// Versions 25-36 should be indistinguishable; 37 should win for large
/// transfers at high bandwidth (MACW 2000).
pub fn historical() -> Report {
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
    let mut v34_vals: Vec<f64> = Vec::new();
    let mut v37_vals: Vec<f64> = Vec::new();
    for v in QuicVersion::all() {
        let proto = ProtoConfig::Quic(v.config());
        let mut row: Vec<Cell> = vec![v.name().into()];
        for (i, (_, net, page)) in scenarios.iter().enumerate() {
            let sc = Scenario::new(net.clone(), page.clone())
                .with_proto(proto.clone())
                .with_rounds(rounds().min(5))
                .with_seed(2000 + i as u64);
            let mean = sc.plt_summary(Parallelism::auto()).mean();
            row.push(mean.into());
            if v.number() == 34 {
                v34_vals.push(mean);
            }
            if v.number() == 37 {
                v37_vals.push(mean);
            }
        }
        row.push(format!("({})", v.changelog()).into());
        t.row(row);
    }
    r.push(t);
    r.note(format!(
        "\npaper shape: versions 25-36 are indistinguishable under the same\n\
         configuration; Q037's larger MACW (2000) helps big transfers in\n\
         high-delay/high-bandwidth paths (v34 {:.0}ms vs v37 {:.0}ms on the\n\
         last column).\n",
        v34_vals.last().copied().unwrap_or(f64::NAN),
        v37_vals.last().copied().unwrap_or(f64::NAN),
    ));
    r
}
