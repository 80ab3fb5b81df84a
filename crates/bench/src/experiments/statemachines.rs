//! State-machine figures: 3a (Cubic), 3b (BBR), 13 (Desktop vs MotoG).

use super::records;
use crate::report::{Column, Machine, Report, Table};
use crate::RunConfig;
use longlook_core::prelude::*;
use longlook_core::rootcause::infer_from_records;
use longlook_statemachine::InferredMachine;

/// The experiment mix used to exercise "all of our experiment
/// configurations" for Fig 3a: clean, lossy, jittery, high-delay, and
/// many-small-objects scenarios.
fn trace_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(NetProfile::baseline(10.0), PageSpec::single(1024 * 1024))
            .with_rounds(2)
            .with_seed(301),
        Scenario::new(
            NetProfile::baseline(100.0).with_loss(0.01),
            PageSpec::single(5 * 1024 * 1024),
        )
        .with_rounds(2)
        .with_seed(302),
        Scenario::new(
            NetProfile::baseline(50.0)
                .with_extra_rtt(Dur::from_millis(76))
                .with_jitter(Dur::from_millis(10)),
            PageSpec::single(2 * 1024 * 1024),
        )
        .with_rounds(2)
        .with_seed(303),
        Scenario::new(NetProfile::baseline(5.0), PageSpec::uniform(100, 10 * 1024))
            .with_rounds(2)
            .with_seed(304),
        Scenario::new(
            NetProfile::baseline(100.0),
            PageSpec::single(10 * 1024 * 1024),
        )
        .with_rounds(2)
        .with_seed(305),
    ]
}

/// The machine inferred from every round of every cell, one batch.
fn machine_for(cfg: &RunConfig, cells: &[Scenario]) -> InferredMachine {
    infer_from_records(&records(cfg, cells).concat())
}

/// Fig 3a: the inferred Cubic state machine across all configurations.
pub fn fig3a(cfg: &RunConfig) -> Report {
    let machine = machine_for(cfg, &trace_scenarios());
    let mut r = Report::new("fig3a");
    r.note("Fig 3a — QUIC (Cubic) state machine inferred from execution traces\n\n");
    r.push(Machine {
        title: "QUIC Cubic (Fig 3a)",
        machine,
        summary: Some(20),
    });
    r
}

/// Fig 3b: the experimental BBR implementation's state machine.
pub fn fig3b(cfg: &RunConfig) -> Report {
    let bbr = ProtoConfig::Quic(QuicConfig {
        cc: CcKind::Bbr,
        ..QuicConfig::default()
    });
    let cells = [
        Scenario::new(
            NetProfile::baseline(10.0),
            PageSpec::single(5 * 1024 * 1024),
        )
        .with_proto(bbr.clone())
        .with_rounds(2)
        .with_seed(311),
        Scenario::new(
            NetProfile::baseline(50.0).with_loss(0.005),
            PageSpec::single(20 * 1024 * 1024),
        )
        .with_proto(bbr)
        .with_rounds(2)
        .with_seed(312),
    ];
    let machine = machine_for(cfg, &cells);
    let mut r = Report::new("fig3b");
    r.note("Fig 3b — QUIC (experimental BBR) state machine inferred from traces\n\n");
    r.push(Machine {
        title: "QUIC BBR (Fig 3b)",
        machine,
        summary: Some(0),
    });
    r
}

/// Fig 13: Desktop vs MotoG state machines at 50 Mbps, no impairment.
pub fn fig13(cfg: &RunConfig) -> Report {
    let page = PageSpec::single(10 * 1024 * 1024);
    let base = |seed: u64| {
        Scenario::new(NetProfile::baseline(50.0), page.clone())
            .with_rounds(3)
            .with_seed(seed)
    };
    let cells = [base(321), base(322).on_device(DeviceProfile::MOTOG)];
    let recs = records(cfg, &cells);
    let [desktop, motog] = [0, 1].map(|i| infer_from_records(&recs[i]));
    let mut r = Report::new("fig13");
    r.note(
        "Fig 13 — QUIC state transitions on MotoG vs Desktop (50 Mbps, no\n\
         added loss or delay); fraction of time in each state\n\n",
    );
    r.push(time_in_state(["Desktop", "MotoG"], [&desktop, &motog]));
    r.note(format!(
        "\nApplicationLimited fraction: Desktop {:.0}%, MotoG {:.0}%\n\
         paper: 7% on desktop vs 58% on the MotoG — the phone cannot consume\n\
         packets fast enough in userspace, starving the sender.\n",
        desktop.time_fraction("ApplicationLimited") * 100.0,
        motog.time_fraction("ApplicationLimited") * 100.0,
    ));
    for (label, title, machine) in [
        ("Desktop", "Desktop (Fig 13)", desktop),
        ("MotoG", "MotoG (Fig 13)", motog),
    ] {
        r.note(format!("\nDOT ({label}):\n"));
        r.push(Machine {
            title,
            machine,
            summary: None,
        });
    }
    r
}

/// Each state either machine visited, with the percent of time each
/// machine spent in it.
fn time_in_state(labels: [&'static str; 2], machines: [&InferredMachine; 2]) -> Table {
    let mut states: Vec<&str> = machines
        .iter()
        .flat_map(|m| m.states.iter().map(String::as_str))
        .collect();
    states.sort_unstable();
    states.dedup();
    let mut t = Table::new(vec![
        Column::label("state", 26),
        Column::num(labels[0], 10, 1).after(" "),
        Column::num(labels[1], 10, 1).after(" "),
    ]);
    for s in states {
        let pct = |m: &InferredMachine| format!("{:.1}%", m.time_fraction(s) * 100.0).into();
        t.row(vec![s.into(), pct(machines[0]), pct(machines[1])]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_in_state_table_has_both_columns() {
        let sc =
            Scenario::new(NetProfile::baseline(10.0), PageSpec::single(200 * 1024)).with_rounds(2);
        let m = infer_from_records(&sc.records(Parallelism::Serial));
        let text = time_in_state(["Desktop", "MotoG"], [&m, &m]).to_string();
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some("state                         Desktop      MotoG")
        );
        let slow = lines
            .find(|l| l.starts_with("SlowStart "))
            .expect("a SlowStart row");
        let pct = format!("{:.1}%", m.time_fraction("SlowStart") * 100.0);
        assert_eq!(
            slow.split_whitespace().skip(1).collect::<Vec<_>>(),
            [&pct, &pct]
        );
    }
}
