//! Fault-injection sweep: QUIC vs TCP under the trauma catalogue.
//!
//! One row per canonical fault plan: how often the load completes, the
//! mean PLT of completed rounds, and every typed error the watchdogs
//! surfaced. The final row is a blackout longer than the idle timeout,
//! where completion is impossible and both protocols must give up with a
//! typed error instead of hanging.

use crate::rounds;
use longlook_core::prelude::*;
use std::fmt::Write as _;

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
pub fn trauma() -> String {
    let mut out = String::from(
        "Fault-injection sweep — 2 MB page at 2 Mbps, 36 ms RTT\n\
         (watchdog armed: handshake 30 s, idle 60 s; mean over rounds)\n\n",
    );
    let _ = writeln!(
        out,
        "{:<26} | {:<5} | {:>9} | {:>11} | {:>9} | errors",
        "Fault plan", "Proto", "completed", "PLT ms", "retrans"
    );
    let protos = [
        ProtoConfig::Quic(QuicConfig::default()),
        ProtoConfig::Tcp(TcpConfig::default()),
    ];
    for (label, plan) in catalogue() {
        for proto in &protos {
            let recs = Scenario::new(
                NetProfile::baseline(2.0).with_fault(plan.clone()),
                PageSpec::single(2 * 1024 * 1024),
            )
            .with_proto(proto.clone())
            .with_rounds(rounds())
            .with_seed(9_000)
            .records(Parallelism::auto());
            let completed = recs.iter().filter(|r| r.completed()).count();
            let mut plt = Summary::new();
            let mut retrans = Summary::new();
            let mut errors: Vec<String> = Vec::new();
            for rec in &recs {
                if let Some(d) = rec.plt {
                    plt.add(d.as_millis_f64());
                }
                retrans.add(rec.server_stats.map_or(0, |s| s.retransmissions) as f64);
                for (side, err) in [("client", rec.client_error), ("server", rec.server_error)] {
                    if let Some(e) = err {
                        let tag = format!("{side}:{}", e.label());
                        if !errors.contains(&tag) {
                            errors.push(tag);
                        }
                    }
                }
            }
            let plt_cell = if plt.count() > 0 {
                format!("{:.0}", plt.mean())
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:<26} | {:<5} | {:>6}/{:<2} | {:>11} | {:>9.1} | {}",
                label,
                proto.name(),
                completed,
                recs.len(),
                plt_cell,
                retrans.mean(),
                if errors.is_empty() {
                    "-".to_string()
                } else {
                    errors.join(", ")
                },
            );
        }
    }
    out.push_str(
        "\nEvery round must be accounted for: completed, or a typed error on an\n\
         endpoint. The 75 s blackout row demonstrates the watchdog give-up path;\n\
         shorter traumas are survived via RTO backoff and retransmission.\n",
    );
    out
}
