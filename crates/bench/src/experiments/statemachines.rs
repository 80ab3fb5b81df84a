//! State-machine figures: 3a (Cubic), 3b (BBR), 13 (Desktop vs MotoG).

use longlook_core::prelude::*;
use longlook_core::rootcause::infer_from_records;
use std::fmt::Write as _;

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

fn machine_for(
    proto: &ProtoConfig,
    scenarios: &[Scenario],
) -> longlook_statemachine::InferredMachine {
    let mut records = Vec::new();
    for sc in scenarios {
        let sc = sc.clone().with_proto(proto.clone());
        records.extend(sc.records(Parallelism::auto()));
    }
    infer_from_records(&records)
}

/// Fig 3a: the inferred Cubic state machine across all configurations.
pub fn fig3a() -> String {
    let machine = machine_for(
        &ProtoConfig::Quic(QuicConfig::default()),
        &trace_scenarios(),
    );
    let mut out =
        String::from("Fig 3a — QUIC (Cubic) state machine inferred from execution traces\n\n");
    out.push_str(&machine.render_text());
    let _ = writeln!(out, "\nmined invariants ({}):", machine.invariants.len());
    for inv in machine.invariants.iter().take(20) {
        let _ = writeln!(out, "  {inv}");
    }
    if machine.invariants.len() > 20 {
        let _ = writeln!(out, "  ... ({} more)", machine.invariants.len() - 20);
    }
    out.push_str("\nGraphviz DOT (also written to results/fig3a.dot):\n");
    out.push_str(&machine.to_dot("QUIC Cubic (Fig 3a)"));
    out
}

/// Fig 3b: the experimental BBR implementation's state machine.
pub fn fig3b() -> String {
    let cfg = QuicConfig {
        cc: CcKind::Bbr,
        ..QuicConfig::default()
    };
    let scenarios = vec![
        Scenario::new(
            NetProfile::baseline(10.0),
            PageSpec::single(5 * 1024 * 1024),
        )
        .with_rounds(2)
        .with_seed(311),
        Scenario::new(
            NetProfile::baseline(50.0).with_loss(0.005),
            PageSpec::single(20 * 1024 * 1024),
        )
        .with_rounds(2)
        .with_seed(312),
    ];
    let machine = machine_for(&ProtoConfig::Quic(cfg), &scenarios);
    let mut out =
        String::from("Fig 3b — QUIC (experimental BBR) state machine inferred from traces\n\n");
    out.push_str(&machine.render_text());
    out.push_str("\nGraphviz DOT (also written to results/fig3b.dot):\n");
    out.push_str(&machine.to_dot("QUIC BBR (Fig 3b)"));
    out
}

/// Fig 13: Desktop vs MotoG state machines at 50 Mbps, no impairment.
pub fn fig13() -> String {
    let page = PageSpec::single(10 * 1024 * 1024);
    let base = |seed: u64| {
        Scenario::new(NetProfile::baseline(50.0), page.clone())
            .with_rounds(3)
            .with_seed(seed)
    };
    let desktop = infer_from_records(&base(321).records(Parallelism::auto()));
    let motog = infer_from_records(
        &base(322)
            .on_device(DeviceProfile::MOTOG)
            .records(Parallelism::auto()),
    );
    let mut out = String::from(
        "Fig 13 — QUIC state transitions on MotoG vs Desktop (50 Mbps, no\n\
         added loss or delay); fraction of time in each state\n\n",
    );
    out.push_str(&longlook_core::rootcause::compare_machines(
        "Desktop", &desktop, "MotoG", &motog,
    ));
    let _ = writeln!(
        out,
        "\nApplicationLimited fraction: Desktop {:.0}%, MotoG {:.0}%\n\
         paper: 7% on desktop vs 58% on the MotoG — the phone cannot consume\n\
         packets fast enough in userspace, starving the sender.",
        desktop.time_fraction("ApplicationLimited") * 100.0,
        motog.time_fraction("ApplicationLimited") * 100.0,
    );
    out.push_str("\nDOT (Desktop):\n");
    out.push_str(&desktop.to_dot("Desktop (Fig 13)"));
    out.push_str("\nDOT (MotoG):\n");
    out.push_str(&motog.to_dot("MotoG (Fig 13)"));
    out
}
