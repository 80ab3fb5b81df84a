//! The fleet experiment: population-level QUIC vs TCP tail latency.
//!
//! Arrival profiles (poisson / flash-crowd / diurnal) × load multipliers
//! (0.5x / 1x / 2x of the base fleet), compared on p99 completion latency
//! with the usual Welch gate. The base fleet size defaults to 2 000
//! clients and is overridable with `LONGLOOK_FLEET_N`; rounds come from
//! `LONGLOOK_ROUNDS` like every other experiment. The representative
//! appendix fleets deal their links to the runner's worker threads, one
//! range per worker — which never changes a reported number (the
//! `fleet_shard_differential` referee pins that), it only spreads one
//! big cell across cores.

use crate::report::Report;
use crate::rounds;
use longlook_core::prelude::*;

/// The fleet tail-latency heatmap plus a one-fleet metrics appendix.
pub fn fleet() -> Report {
    let n = fleet_n(2_000);
    let base = FleetConfig::new(n);
    let map = fleet_heatmap(
        &QuicConfig::default(),
        &TcpConfig::default(),
        &base,
        rounds(),
        Parallelism::auto(),
    );
    let mut r = Report::new("fleet");
    r.push(map);

    // One representative flash-crowd fleet per protocol, for the numbers
    // the heatmap compresses away: completion rate, tails, arena cost.
    // One link range per worker thread, so big interactive fleets use
    // the cores the heatmap cells above have left idle by now.
    let par = Parallelism::auto();
    for (label, proto) in [
        ("QUIC", ProtoConfig::Quic(QuicConfig::default())),
        ("TCP", ProtoConfig::Tcp(TcpConfig::default())),
    ] {
        let m = run_fleet_par(&proto, &base, par);
        r.note(format!(
            "\n{label}: {n} clients flash-crowd over {} links — \
             {} completed, {} timed out; \
             latency p50/p99/p999 = {:.0}/{:.0}/{:.0} ms (mean {}); \
             {} events; on the busiest link: peak {} scheduled, \
             peak {} live conns, arena {:.0} B/conn",
            base.n_links,
            m.completed,
            m.timed_out,
            m.p50_ms(),
            m.p99_ms(),
            m.p999_ms(),
            m.latency_ms.mean_std(),
            m.events,
            m.scheduled_peak,
            m.peak_live,
            m.bytes_per_conn(),
        ));
    }
    r.note("\n");
    r
}
