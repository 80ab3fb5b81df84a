//! Shared referee harness: the table of execution axes and the
//! scenario / fault-plan / bulk-cell tables every axis is checked over.
//!
//! An axis is a non-default [`TraceMode`], the one execution choice a
//! protocol config carries; today that is one row (tracing on). There is one
//! wire representation, one scheduler, one event loop, one sent-packet
//! store and one recovery timer; the implementations the last four
//! replaced are held to them by proptests against oracles under
//! `crates/*/tests/oracle/`, and the codec is held to live traffic by
//! `wire_roundtrip`, not by a runtime axis here. Modes are values, so
//! every comparison runs in-process and the suites using this module need
//! no serialization against each other.

#![allow(dead_code)] // each test binary uses a subset

use longlook_core::prelude::*;
use longlook_transport::conn::ConnStats;

/// Every non-default `TraceMode`, by name.
pub fn axes() -> [(&'static str, TraceMode); 1] {
    // Exhaustive on purpose: a new `TraceMode` variant fails to compile
    // here, at the table that has to grow a row for it.
    match TraceMode::default() {
        TraceMode::Off | TraceMode::On => {}
    }
    [("trace=on", TraceMode::On)]
}

/// The axis called `name` in [`axes`].
pub fn axis(name: &str) -> TraceMode {
    axes()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no axis named {name:?}"))
        .1
}

pub fn protos() -> [(&'static str, ProtoConfig); 2] {
    [
        ("quic", ProtoConfig::Quic(QuicConfig::default())),
        ("tcp", ProtoConfig::Tcp(TcpConfig::default())),
    ]
}

/// Exhaustive deterministic rendering of a record set — every counter
/// and the full state trace as exact integers, so equality is
/// bit-for-bit. A record carries no cwnd timeline: that lives in a
/// traced run's trace.
pub fn render(records: &[RunRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let stats_line = |s: &ConnStats| {
        format!(
            "sent={} recv={} bytes_out={} bytes_in={} acked={} rexmit={} spurious={} \
             losses={} rto={} tlp={} acks={} max_cwnd={}",
            s.packets_sent,
            s.packets_received,
            s.bytes_sent,
            s.bytes_received,
            s.bytes_acked,
            s.retransmissions,
            s.spurious_retransmissions,
            s.losses_detected,
            s.rto_count,
            s.tlp_count,
            s.acks_sent,
            s.max_cwnd,
        )
    };
    for (k, r) in records.iter().enumerate() {
        let _ = writeln!(
            out,
            "round {k}: plt_ns={} ended_ns={}",
            r.plt
                .map_or_else(|| "none".into(), |d| d.as_nanos().to_string()),
            r.ended_at.as_nanos(),
        );
        let _ = writeln!(
            out,
            "  outcome={:?} client_error={:?} server_error={:?} app_bytes={}",
            r.outcome, r.client_error, r.server_error, r.app_bytes,
        );
        let _ = writeln!(out, "  client {}", stats_line(&r.client_stats));
        if let Some(s) = &r.server_stats {
            let _ = writeln!(out, "  server {}", stats_line(s));
        }
        if let Some(t) = &r.server_trace {
            let _ = writeln!(
                out,
                "  trace={} span_ns={}",
                t.labels().join(">"),
                t.span.as_nanos()
            );
        }
    }
    out
}

/// Seed bases the four retired per-axis suites used; each shape below
/// runs at `base + 1 + index`, reproducing all of their cells.
const SCENARIO_SEED_BASES: [u64; 4] = [7100, 8200, 8300, 9500];

/// Clean / lossy / jittered cells (loss and jitter exercise drop and
/// reorder handling, where a tie-break divergence surfaces at once) and
/// a page that fits in one packet.
pub fn scenarios() -> Vec<(String, Scenario)> {
    let shapes = [
        (
            "clean",
            NetProfile::baseline(10.0),
            PageSpec::single(40 * 1024),
        ),
        (
            "lossy",
            NetProfile::baseline(5.0).with_loss(0.02),
            PageSpec::single(80 * 1024),
        ),
        (
            "jittered",
            NetProfile::baseline(20.0).with_jitter(Dur::from_millis(4)),
            PageSpec::uniform(5, 20 * 1024),
        ),
        ("tiny", NetProfile::baseline(10.0), PageSpec::single(1024)),
    ];
    let mut out = Vec::new();
    for base in SCENARIO_SEED_BASES {
        for (i, (name, net, page)) in shapes.iter().enumerate() {
            let seed = base + 1 + i as u64;
            out.push((
                format!("{name}@{seed}"),
                Scenario::new(net.clone(), page.clone())
                    .with_rounds(2)
                    .with_seed(seed),
            ));
        }
    }
    out
}

/// Many-stream QUIC cells: 120 × 10 KB objects over 1 % loss, the page
/// shape the object-count sweeps spend their time on. Every other cell
/// here opens at most five streams, so these are what pin the send
/// scheduler's policy (lowest ready stream id first, retransmissions
/// exempt from connection flow control). `conn_blocked` freezes both
/// receive windows at 24 KB — below the path's bandwidth-delay product —
/// so the sender spends the load with a hundred streams holding fresh
/// data the connection window will not admit while retransmissions and
/// FINs still go out.
pub fn many_stream_cells() -> Vec<(&'static str, Scenario)> {
    let page = PageSpec::uniform(120, 10 * 1024);
    let net = NetProfile::baseline(10.0).with_loss(0.01);
    let blocked = QuicConfig {
        conn_recv_window: 24 * 1024,
        flow_auto_tune: false,
        ..QuicConfig::default()
    };
    vec![
        (
            "many_streams",
            Scenario::new(net.clone(), page.clone())
                .with_rounds(2)
                .with_seed(9003),
        ),
        (
            "many_streams_conn_blocked",
            Scenario::new(net, page)
                .with_proto(ProtoConfig::Quic(blocked))
                .with_rounds(2)
                .with_seed(9005),
        ),
    ]
}

/// `sc` with `trace` stamped on the protocol it runs.
pub fn with_trace(sc: &Scenario, trace: TraceMode) -> Scenario {
    sc.clone().with_proto(sc.proto.clone().with_trace(trace))
}

fn fev(at_ms: u64, dur_ms: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        at: Time::ZERO + Dur::from_millis(at_ms),
        dur: Dur::from_millis(dur_ms),
        dir: FaultDir::Both,
        kind,
    }
}

/// Fault plans chosen to cut through the middle of a transfer: a
/// blackout opening mid-flight (losses, an RTO storm and a recovery —
/// the densest emit schedule the trace layer has), a flapping link, a
/// bandwidth cliff spanning most of the run, a frozen server, and
/// duplicated packets arriving right behind their originals.
fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "blackout_mid",
            FaultPlan::new().with_event(fev(30, 80, FaultKind::Blackout)),
        ),
        (
            "flap",
            FaultPlan::new().with_event(fev(
                20,
                200,
                FaultKind::Flap {
                    period: Dur::from_millis(10),
                    down_pm: 400,
                },
            )),
        ),
        (
            "cliff",
            FaultPlan::new().with_event(fev(10, 300, FaultKind::BandwidthCliff { factor_pm: 200 })),
        ),
        (
            "server_stall",
            FaultPlan::new().with_event(fev(
                40,
                60,
                FaultKind::PeerStall {
                    side: PeerSide::Server,
                },
            )),
        ),
        (
            "duplicate",
            FaultPlan::new().with_event(fev(0, 400, FaultKind::Duplicate { prob_pm: 150 })),
        ),
    ]
}

/// One single-round 120 KiB cell per fault plan and seed.
pub fn faulted_scenarios() -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    for seed in [8400, 9504] {
        for (name, plan) in fault_plans() {
            let net = NetProfile::baseline(5.0).with_fault(plan);
            out.push((
                format!("{name}@{seed}"),
                Scenario::new(net, PageSpec::single(120 * 1024))
                    .with_rounds(1)
                    .with_seed(seed),
            ));
        }
    }
    out
}

pub const BULK_SEEDS: [u64; 4] = [7777, 8888, 8899, 9599];

/// One 2 MiB page load under `trace`; returns `(events_processed,
/// scheduled_peak)`.
pub fn bulk_cell(proto: &ProtoConfig, trace: TraceMode, seed: u64) -> (u64, u64) {
    let net = NetProfile::baseline(20.0);
    let page = PageSpec::single(2 * 1024 * 1024);
    let mut tb = Testbed::direct(
        seed,
        &net,
        DeviceProfile::DESKTOP,
        page.clone(),
        vec![FlowSpec {
            proto: proto.clone().with_trace(trace),
            zero_rtt: false,
            app: Box::new(WebClient::new(page)),
        }],
        None,
        true,
    );
    tb.run(Dur::from_secs(120));
    (tb.world.events_processed(), tb.world.scheduled_peak())
}
