//! Golden seed-stability snapshot.
//!
//! Pins the full `RunRecord` summary (exact nanosecond PLTs, every
//! connection counter, and the congestion-control visit sequence) of one
//! small clean/lossy scenario pair, for both QUIC and TCP. Any silent
//! behavior drift in `longlook-sim` or the transports — a changed RNG
//! draw order, an off-by-one in loss detection, a reordered event tie —
//! fails *this named test* instead of surfacing as a mysteriously shifted
//! downstream statistic.
//!
//! The snapshot is plain text rendered by [`render_records`] (std-only,
//! no serde). If a change is *intentional* (e.g. a transport fix), re-run
//! with `LONGLOOK_BLESS=1 cargo test -p longlook-integration --test
//! golden_seed -- --nocapture` and paste the printed block over the
//! constant it names.

mod common;

use longlook_core::prelude::*;

fn clean_scenario() -> Scenario {
    Scenario::new(NetProfile::baseline(10.0), PageSpec::single(30 * 1024))
        .with_rounds(2)
        .with_seed(9001)
}

fn lossy_scenario() -> Scenario {
    Scenario::new(
        NetProfile::baseline(5.0).with_loss(0.02),
        PageSpec::single(60 * 1024),
    )
    .with_rounds(2)
    .with_seed(9002)
}

/// Deterministic full-fidelity text rendering of a record set: exact
/// integers only, so equality is bit-for-bit.
fn render_records(records: &[RunRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (k, r) in records.iter().enumerate() {
        let _ = writeln!(
            out,
            "round {k}: plt_ns={} ended_ns={}",
            r.plt
                .map_or_else(|| "none".into(), |d| d.as_nanos().to_string()),
            r.ended_at.as_nanos(),
        );
        let c = &r.client_stats;
        let _ = writeln!(
            out,
            "  client: sent={} recv={} bytes_out={} bytes_in={} acked={} rexmit={} \
             spurious={} losses={} rto={} tlp={} acks={} max_cwnd={}",
            c.packets_sent,
            c.packets_received,
            c.bytes_sent,
            c.bytes_received,
            c.bytes_acked,
            c.retransmissions,
            c.spurious_retransmissions,
            c.losses_detected,
            c.rto_count,
            c.tlp_count,
            c.acks_sent,
            c.max_cwnd,
        );
        if let Some(s) = &r.server_stats {
            let _ = writeln!(
                out,
                "  server: sent={} recv={} bytes_out={} bytes_in={} acked={} rexmit={} \
                 spurious={} losses={} rto={} tlp={} acks={} max_cwnd={}",
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
            );
        }
        if let Some(t) = &r.server_trace {
            let labels = t.labels().join(">");
            // A flow-control-bound many-stream load flips in and out of
            // ApplicationLimited hundreds of times; past 16 visits pin the
            // sequence by length and FNV-1a digest instead of verbatim.
            let shown = if t.labels().len() > 16 {
                let fnv = labels.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                });
                format!("{} visits fnv1a={fnv:016x}", t.labels().len())
            } else {
                labels
            };
            let _ = writeln!(out, "  trace: {shown} span_ns={}", t.span.as_nanos());
        }
        let _ = writeln!(out, "  cwnd_points={}", r.server_cwnd.len());
    }
    out
}

fn check(name: &str, sc: &Scenario, golden: &str) {
    let rendered = render_records(&sc.records(Parallelism::auto()));
    if std::env::var("LONGLOOK_BLESS").is_ok() {
        eprintln!("=== {name} ===\n{rendered}");
        return;
    }
    assert_eq!(
        rendered.trim(),
        golden.trim(),
        "\n{name}: RunRecord summary drifted from the golden snapshot.\n\
         If this change is intentional, bless a new snapshot:\n\
         LONGLOOK_BLESS=1 cargo test -p longlook-integration --test golden_seed -- --nocapture\n\
         --- actual ---\n{rendered}"
    );
}

const GOLDEN_QUIC_CLEAN: &str = "\
round 0: plt_ns=62780720 ended_ns=62780720
  client: sent=13 recv=26 bytes_out=2323 bytes_in=0 acked=200 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=12 max_cwnd=43200
  server: sent=26 recv=8 bytes_out=33150 bytes_in=0 acked=17316 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=1 max_cwnd=43200
  trace: Init>SlowStart>ApplicationLimited>SlowStart>ApplicationLimited span_ns=45114911
  cwnd_points=2
round 1: plt_ns=63850566 ended_ns=63850566
  client: sent=13 recv=26 bytes_out=2323 bytes_in=0 acked=200 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=12 max_cwnd=43200
  server: sent=26 recv=7 bytes_out=33150 bytes_in=0 acked=14652 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=1 max_cwnd=43200
  trace: Init>SlowStart>ApplicationLimited>SlowStart>ApplicationLimited span_ns=45649834
  cwnd_points=2";

const GOLDEN_QUIC_LOSSY: &str = "\
round 0: plt_ns=119615267 ended_ns=119615267
  client: sent=25 recv=49 bytes_out=3663 bytes_in=0 acked=200 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=24 max_cwnd=43200
  server: sent=50 recv=20 bytes_out=67050 bytes_in=0 acked=49284 rexmit=1 spurious=0 losses=1 rto=0 tlp=0 acks=1 max_cwnd=52650
  trace: Init>SlowStart>ApplicationLimited>SlowStart>ApplicationLimited>Recovery span_ns=101991408
  cwnd_points=9
round 1: plt_ns=119611897 ended_ns=119611897
  client: sent=25 recv=49 bytes_out=3743 bytes_in=0 acked=200 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=24 max_cwnd=43200
  server: sent=50 recv=20 bytes_out=67050 bytes_in=0 acked=49284 rexmit=1 spurious=0 losses=1 rto=0 tlp=0 acks=1 max_cwnd=51300
  trace: Init>SlowStart>ApplicationLimited>SlowStart>ApplicationLimited>Recovery span_ns=101869697
  cwnd_points=8";

const GOLDEN_TCP_CLEAN: &str = "\
round 0: plt_ns=141591472 ended_ns=141591472
  client: sent=16 recv=28 bytes_out=1568 bytes_in=34093 acked=687 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=13 max_cwnd=14350
  server: sent=28 recv=10 bytes_out=35622 bytes_in=687 acked=18664 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=0 max_cwnd=22800
  trace: Init>SlowStart>ApplicationLimited>SlowStart>ApplicationLimited span_ns=123925663
  cwnd_points=9
round 1: plt_ns=145870856 ended_ns=145870856
  client: sent=16 recv=28 bytes_out=1568 bytes_in=34093 acked=687 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=13 max_cwnd=14350
  server: sent=28 recv=10 bytes_out=35622 bytes_in=687 acked=18664 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=0 max_cwnd=22800
  trace: Init>SlowStart>ApplicationLimited>SlowStart>ApplicationLimited span_ns=127670124
  cwnd_points=9";

const GOLDEN_TCP_LOSSY: &str = "\
round 0: plt_ns=190378890 ended_ns=190378890
  client: sent=37 recv=49 bytes_out=2878 bytes_in=64813 acked=687 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=34 max_cwnd=14350
  server: sent=50 recv=23 bytes_out=68930 bytes_in=687 acked=25664 rexmit=1 spurious=0 losses=1 rto=0 tlp=0 acks=0 max_cwnd=29800
  trace: Init>SlowStart>ApplicationLimited>SlowStart>Recovery span_ns=172755031
  cwnd_points=15
round 1: plt_ns=213171400 ended_ns=213171400
  client: sent=35 recv=49 bytes_out=2730 bytes_in=64813 acked=687 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=32 max_cwnd=14350
  server: sent=50 recv=30 bytes_out=68930 bytes_in=687 acked=50864 rexmit=1 spurious=0 losses=1 rto=0 tlp=0 acks=0 max_cwnd=22800
  trace: Init>SlowStart>ApplicationLimited>SlowStart>Recovery>CongestionAvoidance>ApplicationLimited span_ns=195429200
  cwnd_points=15";

const GOLDEN_QUIC_MANY_STREAMS: &str = "\
round 0: plt_ns=1826828601 ended_ns=1826828601
  client: sent=522 recv=976 bytes_out=170533 bytes_in=0 acked=31140 rexmit=5 spurious=0 losses=1 rto=0 tlp=0 acks=467 max_cwnd=43200
  server: sent=996 recv=508 bytes_out=1347346 bytes_in=0 acked=1221050 rexmit=19 spurious=0 losses=20 rto=0 tlp=0 acks=11 max_cwnd=61370
  trace: 35 visits fnv1a=9ccc1fd1627d4fee span_ns=1808290948
  cwnd_points=323
round 1: plt_ns=1227969388 ended_ns=1227969388
  client: sent=528 recv=978 bytes_out=131617 bytes_in=0 acked=31140 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=474 max_cwnd=43200
  server: sent=988 recv=522 bytes_out=1334509 bytes_in=0 acked=1238926 rexmit=11 spurious=0 losses=10 rto=0 tlp=0 acks=10 max_cwnd=51920
  trace: 18 visits fnv1a=b63977db81f98805 span_ns=1209532611
  cwnd_points=383";

const GOLDEN_QUIC_MANY_STREAMS_CONN_BLOCKED: &str = "\
round 0: plt_ns=3523684529 ended_ns=3523684529
  client: sent=645 recv=1089 bytes_out=141267 bytes_in=0 acked=31140 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=512 max_cwnd=43200
  server: sent=1101 recv=631 bytes_out=1351464 bytes_in=0 acked=1228482 rexmit=17 spurious=0 losses=11 rto=0 tlp=0 acks=79 max_cwnd=128250
  trace: 192 visits fnv1a=7bc2712a46964fe0 span_ns=3505192759
  cwnd_points=338
round 1: plt_ns=3497537569 ended_ns=3497537569
  client: sent=628 recv=1095 bytes_out=156846 bytes_in=0 acked=31140 rexmit=0 spurious=0 losses=0 rto=0 tlp=0 acks=494 max_cwnd=43200
  server: sent=1108 recv=622 bytes_out=1353015 bytes_in=0 acked=1238280 rexmit=16 spurious=0 losses=13 rto=0 tlp=0 acks=83 max_cwnd=54000
  trace: 196 visits fnv1a=b69cff6c6fbbdf98 span_ns=3479372346
  cwnd_points=393";

/// The golden for the many-stream cell called `name` in
/// [`common::many_stream_cells`].
fn many_stream_golden(name: &str) -> &'static str {
    match name {
        "many_streams" => GOLDEN_QUIC_MANY_STREAMS,
        "many_streams_conn_blocked" => GOLDEN_QUIC_MANY_STREAMS_CONN_BLOCKED,
        _ => panic!("no golden for many-stream cell {name:?}"),
    }
}

/// Zero-cost-when-off referee: attaching an *empty* `FaultPlan` arms the
/// whole fault layer (link views, stall windows, the connection watchdog)
/// yet must not perturb a single RunRecord field. If arming ever costs an
/// RNG draw, an extra timer firing mid-transfer, or a reordered event tie,
/// this test pins the drift to the fault layer instead of letting it
/// surface as a blessed-snapshot change.
#[test]
fn armed_empty_fault_plan_is_invisible() {
    for (name, quic) in [("clean", clean_scenario()), ("lossy", lossy_scenario())] {
        let tcp = quic
            .clone()
            .with_proto(ProtoConfig::Tcp(TcpConfig::default()));
        for sc in [quic, tcp] {
            let mut armed = sc.clone();
            armed.net = armed.net.clone().with_fault(FaultPlan::new());
            let off = render_records(&sc.records(Parallelism::auto()));
            let on = render_records(&armed.records(Parallelism::auto()));
            assert_eq!(
                off, on,
                "{name} / {:?}: an empty fault plan changed the record \
                 (the fault layer is not zero-cost when idle)",
                sc.proto
            );
        }
    }
}

/// The snapshots were blessed on the implementations that have since
/// been replaced (binary-heap scheduler, per-event loop, map sent-store,
/// eager timer re-arm), so they pin the survivors to that history. Every
/// non-default `TraceMode` (the tests below cover the default) must
/// reproduce every one of them bit for bit, with nothing re-blessed.
#[test]
fn goldens_hold_on_every_execution_path() {
    for (axis, trace) in common::axes() {
        for (name, proto, sc, golden) in [
            (
                "GOLDEN_QUIC_CLEAN",
                ProtoConfig::Quic(QuicConfig::default()),
                clean_scenario(),
                GOLDEN_QUIC_CLEAN,
            ),
            (
                "GOLDEN_QUIC_LOSSY",
                ProtoConfig::Quic(QuicConfig::default()),
                lossy_scenario(),
                GOLDEN_QUIC_LOSSY,
            ),
            (
                "GOLDEN_TCP_CLEAN",
                ProtoConfig::Tcp(TcpConfig::default()),
                clean_scenario(),
                GOLDEN_TCP_CLEAN,
            ),
            (
                "GOLDEN_TCP_LOSSY",
                ProtoConfig::Tcp(TcpConfig::default()),
                lossy_scenario(),
                GOLDEN_TCP_LOSSY,
            ),
        ] {
            check(
                &format!("{name} ({axis})"),
                &sc.with_proto(proto.with_trace(trace)),
                golden,
            );
        }
        for (name, sc) in common::many_stream_cells() {
            check(
                &format!("{name} ({axis})"),
                &common::with_trace(&sc, trace),
                many_stream_golden(name),
            );
        }
    }
}

/// The send scheduler's policy, pinned on 120-stream loads (blessed on
/// the full every-stream scan that the ready index replaced).
#[test]
fn quic_many_streams_match_golden() {
    for (name, sc) in common::many_stream_cells() {
        check(name, &sc, many_stream_golden(name));
    }
}

#[test]
fn quic_clean_matches_golden() {
    check("GOLDEN_QUIC_CLEAN", &clean_scenario(), GOLDEN_QUIC_CLEAN);
}

#[test]
fn quic_lossy_matches_golden() {
    check("GOLDEN_QUIC_LOSSY", &lossy_scenario(), GOLDEN_QUIC_LOSSY);
}

#[test]
fn tcp_clean_matches_golden() {
    check(
        "GOLDEN_TCP_CLEAN",
        &clean_scenario().with_proto(ProtoConfig::Tcp(TcpConfig::default())),
        GOLDEN_TCP_CLEAN,
    );
}

#[test]
fn tcp_lossy_matches_golden() {
    check(
        "GOLDEN_TCP_LOSSY",
        &lossy_scenario().with_proto(ProtoConfig::Tcp(TcpConfig::default())),
        GOLDEN_TCP_LOSSY,
    );
}
