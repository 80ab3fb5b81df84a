//! Congestion-control state-machine invariants (paper Fig 3a/3b, Table 3).
//!
//! Every inferred trace the Cubic and BBR experiments produce must stay
//! inside the paper's legal transition graph, and the loss-recovery
//! states must never be entered without loss evidence in the same run's
//! counters. This is simulation-level invariant checking in the spirit of
//! "State machine inference of QUIC" (Rasool et al.): end-to-end PLT
//! diffs can stay plausible while the state machine silently goes wrong,
//! so the machine itself is pinned here.

mod common;

use longlook_core::prelude::*;
use longlook_transport::ccstate::{bbr_legal_edges, check_trace_legal, cubic_legal_edges};
use std::collections::BTreeSet;

/// Scenarios spanning the regimes that reach every state family: clean
/// links (ApplicationLimited), heavy loss (Recovery), long-RTT tail-heavy
/// pages (TailLossProbe), and a fast link for the app-limited extremes.
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(NetProfile::baseline(10.0), PageSpec::single(50 * 1024))
            .with_rounds(4)
            .with_seed(8101),
        Scenario::new(
            NetProfile::baseline(20.0).with_loss(0.02),
            PageSpec::single(300 * 1024),
        )
        .with_rounds(4)
        .with_seed(8102),
        Scenario::new(
            NetProfile::baseline(1.0).with_loss(0.05),
            PageSpec::single(100 * 1024),
        )
        .with_rounds(4)
        .with_seed(8103),
        Scenario::new(
            NetProfile::baseline(5.0)
                .with_extra_rtt(Dur::from_millis(100))
                .with_loss(0.01),
            PageSpec::uniform(8, 6 * 1024),
        )
        .with_rounds(4)
        .with_seed(8104),
        Scenario::new(NetProfile::baseline(100.0), PageSpec::single(10 * 1024))
            .with_rounds(4)
            .with_seed(8105),
    ]
}

fn quic_with(cc: CcKind) -> ProtoConfig {
    ProtoConfig::Quic(QuicConfig {
        cc,
        ..QuicConfig::default()
    })
}

fn records_for(cc: CcKind) -> Vec<RunRecord> {
    scenarios()
        .into_iter()
        .flat_map(|sc| sc.with_proto(quic_with(cc)).records(Parallelism::auto()))
        .collect()
}

fn assert_trace_legal(
    records: &[RunRecord],
    legal: &BTreeSet<(&'static str, &'static str)>,
    initial: &str,
    cc: CcKind,
) {
    let mut traces = 0;
    for (k, rec) in records.iter().enumerate() {
        let trace = rec
            .server_trace
            .as_ref()
            .unwrap_or_else(|| panic!("{cc:?} record {k} lost its server trace"));
        if let Err(msg) = check_trace_legal(trace, legal, initial) {
            panic!("{cc:?} record {k}: {msg}");
        }
        traces += 1;
    }
    assert!(traces > 0, "{cc:?}: no traces collected");
}

/// All Cubic transitions across the scenario battery are edges of the
/// legal graph, every trace starts in Init, and Init is never re-entered.
#[test]
fn cubic_traces_stay_inside_legal_graph() {
    assert_trace_legal(
        &records_for(CcKind::Cubic),
        &cubic_legal_edges(),
        "Init",
        CcKind::Cubic,
    );
}

/// Same for BBR against its exact four-edge graph, starting in Startup.
#[test]
fn bbr_traces_stay_inside_legal_graph() {
    assert_trace_legal(
        &records_for(CcKind::Bbr),
        &bbr_legal_edges(),
        "Startup",
        CcKind::Bbr,
    );
}

/// Recovery-family states require loss evidence in the same run's server
/// counters: a trace visiting Recovery needs `losses_detected > 0`, an
/// RTO visit needs `rto_count > 0`, a TLP visit needs `tlp_count > 0`.
/// (Counters are per-connection aggregates, the finest evidence the
/// record keeps — a visit with a zero counter would mean the state was
/// entered with *no* loss signal anywhere in the connection's lifetime.)
#[test]
fn recovery_states_require_loss_evidence() {
    for cc in [CcKind::Cubic, CcKind::Bbr] {
        for (k, rec) in records_for(cc).iter().enumerate() {
            let Some(trace) = &rec.server_trace else {
                continue;
            };
            let stats = rec
                .server_stats
                .as_ref()
                .unwrap_or_else(|| panic!("{cc:?} record {k} lost server stats"));
            let labels = trace.labels();
            let visited = |s: &str| labels.contains(&s);
            if visited("Recovery") {
                assert!(
                    stats.losses_detected > 0,
                    "{cc:?} record {k}: Recovery entered with zero losses detected"
                );
            }
            if visited("RetransmissionTimeout") {
                assert!(
                    stats.rto_count > 0,
                    "{cc:?} record {k}: RTO state entered but no timeout fired"
                );
            }
            if visited("TailLossProbe") {
                assert!(
                    stats.tlp_count > 0,
                    "{cc:?} record {k}: TLP state entered but no probe fired"
                );
            }
        }
    }
}

/// The loss machinery is actually exercised: at least one lossy-scenario
/// Cubic trace must visit Recovery (otherwise the three invariants above
/// would pass vacuously).
#[test]
fn battery_reaches_recovery_states() {
    let records = records_for(CcKind::Cubic);
    let visits = |state: &str| {
        records
            .iter()
            .filter_map(|r| r.server_trace.as_ref())
            .filter(|t| t.labels().contains(&state))
            .count()
    };
    assert!(visits("Recovery") > 0, "no trace ever reached Recovery");
    assert!(
        visits("ApplicationLimited") > 0,
        "no trace ever reached ApplicationLimited"
    );
}

/// The cwnd timeline `fig5` and `fig9` plot, rebuilt from a traced run,
/// on every shared scenario and both protocols: it opens at the server
/// connection's creation (the instant its state trace starts) with a
/// window of 0, its times never decrease, each entry is a change, and
/// its peak is the `max_cwnd` counter.
#[test]
fn rebuilt_cwnd_timeline_is_well_formed() {
    for (name, sc) in common::scenarios() {
        for (proto_name, proto) in common::protos() {
            let sc = sc.clone().with_proto(proto);
            for k in 0..sc.rounds {
                let at = format!("{name}/{proto_name} round {k}");
                let (rec, trace) = sc.run_traced(k);
                let timeline = cwnd_timeline(&trace);
                let created = rec.server_trace.expect("server connection").visits[0].0;
                assert_eq!(timeline.first(), Some(&(created, 0)), "{at}");
                for pair in timeline.windows(2) {
                    let [(t0, w0), (t1, w1)] = [pair[0], pair[1]];
                    assert!(t0 <= t1, "{at}: time went back, {t0} then {t1}");
                    assert_ne!(w0, w1, "{at}: an entry at {t1} repeats the window");
                }
                let peak = timeline.iter().map(|&(_, w)| w).max();
                let max_cwnd = rec.server_stats.expect("server connection").max_cwnd;
                assert_eq!(peak, Some(max_cwnd), "{at}");
            }
        }
    }
}
