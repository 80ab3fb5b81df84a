//! Fault-injection sweep: QUIC vs TCP under the trauma catalogue.
//!
//! One row per canonical fault plan: how often the load completes, the
//! mean PLT of completed rounds, and every typed error the watchdogs
//! surfaced. The final row is a blackout longer than the idle timeout,
//! where completion is impossible and both protocols must give up with a
//! typed error instead of hanging.

use super::{quic, records, tcp};
use crate::report::{Cell, Column, Report, Table};
use crate::RunConfig;
use longlook_core::prelude::*;

fn ev(at_ms: u64, dur_ms: u64, dir: FaultDir, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        at: Time::ZERO + Dur::from_millis(at_ms),
        dur: Dur::from_millis(dur_ms),
        dir,
        kind,
    }
}

fn catalogue() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("clean (armed, no faults)", FaultPlan::new()),
        (
            "blackout 2s",
            FaultPlan::new().with_event(ev(1_000, 2_000, FaultDir::Both, FaultKind::Blackout)),
        ),
        (
            "flap 500ms/30%",
            FaultPlan::new().with_event(ev(
                1_000,
                4_000,
                FaultDir::Both,
                FaultKind::Flap {
                    period: Dur::from_millis(500),
                    down_pm: 300,
                },
            )),
        ),
        (
            "bw cliff to 10%",
            FaultPlan::new().with_event(ev(
                1_000,
                5_000,
                FaultDir::Both,
                FaultKind::BandwidthCliff { factor_pm: 100 },
            )),
        ),
        (
            "bw ramp to 20%",
            FaultPlan::new().with_event(ev(
                1_000,
                5_000,
                FaultDir::Both,
                FaultKind::BandwidthRamp { floor_pm: 200 },
            )),
        ),
        (
            "burst loss (GE)",
            FaultPlan::new().with_event(ev(
                1_000,
                4_000,
                FaultDir::Both,
                FaultKind::BurstLoss(GeParams {
                    p_enter_pm: 100,
                    p_exit_pm: 300,
                    loss_good_pm: 5,
                    loss_bad_pm: 600,
                }),
            )),
        ),
        (
            "duplicate 20%",
            FaultPlan::new().with_event(ev(
                1_000,
                4_000,
                FaultDir::Down,
                FaultKind::Duplicate { prob_pm: 200 },
            )),
        ),
        (
            "corrupt 10%",
            FaultPlan::new().with_event(ev(
                1_000,
                4_000,
                FaultDir::Both,
                FaultKind::Corrupt { prob_pm: 100 },
            )),
        ),
        (
            "server stall 1.5s",
            FaultPlan::new().with_event(ev(
                1_000,
                1_500,
                FaultDir::Both,
                FaultKind::PeerStall {
                    side: PeerSide::Server,
                },
            )),
        ),
        (
            "buffer shrink to 25%",
            FaultPlan::new().with_event(ev(
                1_000,
                4_000,
                FaultDir::Both,
                FaultKind::BufferShrink { factor_pm: 250 },
            )),
        ),
        (
            "blackout 75s (give-up)",
            FaultPlan::new().with_event(ev(1_000, 75_000, FaultDir::Both, FaultKind::Blackout)),
        ),
    ]
}

/// The trauma sweep table.
pub fn trauma(cfg: &RunConfig) -> Report {
    let mut r = Report::new("trauma");
    r.note(
        "Fault-injection sweep — 2 MB page at 2 Mbps, 36 ms RTT\n\
         (watchdog armed: handshake 30 s, idle 60 s; mean over rounds)\n\n",
    );
    // The "completed" heading spans the count and its "/rounds".
    r.push(Table::new(vec![
        Column::label("Fault plan", 26),
        Column::label("Proto", 5),
        Column::num("completed", 9, 0),
        Column::num("PLT ms", 11, 0),
        Column::num("retrans", 9, 0),
        Column::label("errors", 0),
    ]));
    let mut t = Table::new(vec![
        Column::label("", 26),
        Column::label("", 5),
        Column::num("", 6, 0),
        Column::label("", 2).after("/"),
        Column::num("", 11, 0),
        Column::num("", 9, 1),
        Column::label("", 0),
    ]);
    let protos = [quic(), tcp()];
    let catalogue = catalogue();
    let page = PageSpec::single(2 * 1024 * 1024);
    // Cell `2p + q` runs plan `p` over protocol `q`.
    let cells: Vec<Scenario> = (catalogue.iter())
        .flat_map(|(_, plan)| protos.iter().map(move |proto| (plan, proto)))
        .map(|(plan, proto)| {
            let net = NetProfile::baseline(2.0).with_fault(plan.clone());
            let sc = Scenario::new(net, page.clone()).with_proto(proto.clone());
            sc.with_rounds(cfg.rounds).with_seed(9_000)
        })
        .collect();
    for (i, recs) in records(cfg, &cells).iter().enumerate() {
        let (label, proto) = (catalogue[i / 2].0, &protos[i % 2]);
        let completed = recs.iter().filter(|r| r.completed()).count();
        let plt: Summary = (recs.iter())
            .filter_map(|r| Some(r.plt?.as_millis_f64()))
            .collect();
        let retrans: Summary = (recs.iter())
            .map(|r| r.server_stats.map_or(0, |s| s.retransmissions) as f64)
            .collect();
        let mut errors: Vec<String> = Vec::new();
        for rec in recs {
            for (side, err) in [("client", rec.client_error), ("server", rec.server_error)] {
                if let Some(e) = err {
                    let tag = format!("{side}:{}", e.label());
                    if !errors.contains(&tag) {
                        errors.push(tag);
                    }
                }
            }
        }
        t.row(vec![
            label.into(),
            proto.name().into(),
            (completed as f64).into(),
            recs.len().to_string().into(),
            if plt.count() > 0 {
                plt.mean().into()
            } else {
                "-".into()
            },
            retrans.mean().into(),
            if errors.is_empty() {
                "-".into()
            } else {
                Cell::Text(errors.join(", "))
            },
        ]);
    }
    r.push(t);
    r.note(
        "\nEvery round must be accounted for: completed, or a typed error on an\n\
         endpoint. The 75 s blackout row demonstrates the watchdog give-up path;\n\
         shorter traumas are survived via RTO backoff and retransmission.\n",
    );
    r
}
