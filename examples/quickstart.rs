//! Quickstart: compare QUIC and TCP loading one page, the way the paper
//! does — back-to-back runs, Welch-gated verdict.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use longlook_core::prelude::*;

fn main() {
    // A 100 KB page over a 10 Mbps, 36 ms RTT emulated path: one cell
    // over calibrated QUIC (the default) and the same cell over TCP.
    let quic =
        Scenario::new(NetProfile::baseline(10.0), PageSpec::single(100 * 1024)).with_rounds(10);
    let tcp = quic
        .clone()
        .with_proto(ProtoConfig::Tcp(TcpConfig::default()));

    // Shard the rounds over every hardware thread.
    let result = compare(&quic, &tcp, Parallelism::auto());
    println!("QUIC PLTs (ms): {:?}", result.cand_ms);
    println!("TCP  PLTs (ms): {:?}", result.base_ms);
    println!(
        "QUIC vs TCP: {:+.1}% ({:?}, p = {})",
        result.comparison.percent,
        result.comparison.verdict,
        result
            .comparison
            .welch
            .map_or("n/a".into(), |w| format!("{:.4}", w.p)),
    );

    // Root-cause peek: the server's congestion-control state machine.
    let rec = quic.run(0);
    let trace = rec.server_trace.expect("server trace");
    println!("\nserver state visits: {:?}", trace.labels());
    println!(
        "time in SlowStart: {:.0}%, ApplicationLimited: {:.0}%",
        trace.fraction_in("SlowStart") * 100.0,
        trace.fraction_in("ApplicationLimited") * 100.0,
    );
}
