//! Tables 1, 2, 3 and 5.

use crate::report::{Cell, Column, Report, Table};
use crate::RunConfig;
use longlook_core::params::table1 as related_work;
use longlook_core::prelude::*;
use longlook_transport::ccstate::CcState;

/// `a, b, c` from anything displayable.
fn list<T: ToString>(values: &[T]) -> Cell {
    let items: Vec<String> = values.iter().map(T::to_string).collect();
    Cell::Text(items.join(", "))
}

/// Table 1: related-work matrix.
pub fn table1(_: &RunConfig) -> Report {
    let mut r = Report::new("table1");
    r.note("Table 1 — contributions vs prior work\n\n");
    let heads = [
        "Study", "QUIC", "Calib", "RCA", "Pages", "Scen.", "Net", "Dev", "Fair", "QoE", "Reord",
        "Proxy",
    ];
    // Each column is as wide as its heading; Study as its longest name.
    let mut columns: Vec<Column> = heads.map(|h| Column::label(h, h.len())).to_vec();
    columns[0].width = 13;
    let mut t = Table::new(columns).ruled();
    let b = |v: bool| Cell::from(if v { "yes" } else { "no" });
    for w in related_work() {
        t.row(vec![
            w.study.into(),
            w.quic_version.into(),
            b(w.calibration),
            b(w.root_cause),
            w.tested_pages.into(),
            w.emulated_scenarios.into(),
            w.networks.into(),
            w.devices.into(),
            b(w.fairness),
            b(w.video_qoe),
            b(w.reordering),
            b(w.proxying),
        ]);
    }
    r.push(t);
    r
}

/// Table 2: parameter space.
pub fn table2(_: &RunConfig) -> Report {
    let p = ParameterSpace::table2();
    let mut r = Report::new("table2");
    r.note("Table 2 — parameters used in our tests\n\n");
    let mut t = Table::new(vec![
        Column::label("Parameter", 20),
        Column::label("Values tested", 43),
    ])
    .ruled();
    t.row(vec!["Rate limits (Mbps)".into(), list(&p.rate_limits_mbps)]);
    t.row(vec!["Extra Delay (RTT ms)".into(), list(&p.extra_delay_ms)]);
    t.row(vec!["Extra Loss".into(), list(&p.extra_loss)]);
    t.row(vec!["Number of objects".into(), list(&p.num_objects)]);
    t.row(vec!["Object sizes (KB)".into(), list(&p.object_sizes_kb)]);
    t.row(vec!["Proxy".into(), list(&p.proxies)]);
    t.row(vec!["Clients".into(), list(&p.clients)]);
    t.row(vec!["Video qualities".into(), list(&p.video_qualities)]);
    r.push(t);
    r
}

/// Table 3: QUIC congestion-control states.
pub fn table3(_: &RunConfig) -> Report {
    let mut r = Report::new("table3");
    r.note("Table 3 — QUIC states (Cubic CC) and their meanings\n\n");
    let mut t = Table::new(vec![
        Column::label("State", 26),
        Column::label("Description", 50),
    ])
    .ruled();
    for s in CcState::all() {
        t.row(vec![s.label().into(), s.description().into()]);
    }
    r.push(t);
    r
}

/// Table 5: target cellular characteristics and what the emulation
/// actually delivers (measured on a 60 s bulk transfer through each
/// profile's link).
pub fn table5(_: &RunConfig) -> Report {
    use longlook_sim::link::Verdict;
    use longlook_sim::{LinkDir, SimRng};

    let mut r = Report::new("table5");
    r.note(
        "Table 5 — characteristics of tested cell networks\n\n\
         Target (from the paper's measurements):\n",
    );
    // The RTT heading spans the mean and its parenthesised deviation.
    r.push(
        Table::new(vec![
            Column::label("Network", 12),
            Column::num("Thrghpt (Mbps)", 14, 2),
            Column::num("RTT ms (std)", 12, 0),
            Column::num("Reordering (%)", 14, 2),
            Column::label("Loss (%)", 8),
        ])
        .ruled(),
    );
    let mut target = Table::new(vec![
        Column::label("", 12),
        Column::num("", 14, 2),
        Column::num("", 7, 0),
        Column::num("", 2, 0).after(" ("),
        Column::num("", 14, 2).after(") | "),
        Column::num("", 0, 2),
    ]);
    for p in CELL_PROFILES {
        target.row(vec![
            p.name.into(),
            p.throughput_mbps.into(),
            (p.rtt_ms as f64).into(),
            (p.rtt_std_ms as f64).into(),
            (p.reordering * 100.0).into(),
            (p.loss * 100.0).into(),
        ]);
    }
    r.push(target);
    r.note("\nEmulated (offered a 1000-packet probe stream):\n");
    let mut emulated = Table::new(vec![
        Column::label("Network", 12),
        Column::num("loss(%)", 10, 2),
        Column::num("reorder(%)", 12, 2),
        Column::num("RTT(ms)", 8, 0),
    ]);
    for p in CELL_PROFILES {
        let net = p.net_profile();
        let mut link = LinkDir::new(net.link(), SimRng::new(42));
        // Offer packets at roughly the link rate.
        let gap_ns = (1200.0 * 8.0 / (p.throughput_mbps * 1e6) * 1e9) as u64;
        for k in 0..5000u64 {
            let t = Time::ZERO + Dur::from_nanos(k * gap_ns);
            let _ = matches!(link.transit(t, 1200), Verdict::DeliverAt(_));
        }
        let st = link.stats();
        emulated.row(vec![
            p.name.into(),
            (st.loss_rate() * 100.0).into(),
            (st.reorder_rate() * 100.0).into(),
            st.mean_latency().as_millis_f64().into(),
        ]);
    }
    r.push(emulated);
    r.note(
        "\n(The emulated reorder/loss rates should match the target columns; \
         RTT shown is one-way latency including queueing.)\n",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables measure nothing, so any settings give the same render.
    const CFG: RunConfig = RunConfig {
        par: Parallelism::Serial,
        rounds: RunConfig::DEFAULT_ROUNDS,
    };

    #[test]
    fn table1_lists_this_work_last() {
        let text = table1(&CFG).to_string();
        assert!(text.contains("This work"));
        let last = text.lines().last().expect("rows");
        assert!(last.starts_with("This work     | 25 to 37 | yes"), "{last}");
    }

    #[test]
    fn table2_lists_every_parameter() {
        let text = table2(&CFG).to_string();
        assert!(text.contains("Rate limits (Mbps)   | 5, 10, 50, 100\n"));
        assert!(text.contains("210000"));
        assert!(text.contains("Video qualities      | tiny, medium, hd720, hd2160\n"));
    }

    #[test]
    fn table5_target_rows_hold_the_paper_measurements() {
        let text = table5(&CFG).to_string();
        assert!(
            text.contains("Verizon-3G   |           0.17 |     109 (20) |           1.43 | 0.05\n")
        );
        assert!(text.contains("Verizon-LTE  |           4.00 |      61 ( 8) |"));
        assert!(text.contains("Sprint-LTE"));
    }
}
