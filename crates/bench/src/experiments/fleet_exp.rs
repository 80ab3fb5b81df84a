//! The fleet experiment: population-level QUIC vs TCP tail latency.
//!
//! Arrival profiles (poisson / flash-crowd / diurnal) × load multipliers
//! (0.5x / 1x / 2x of the base fleet), compared on p99 completion latency
//! with the usual Welch gate. The base fleet is 2 000 clients; rounds
//! and workers come from the [`RunConfig`] like every other experiment:
//! the heatmap's cells are dealt to the workers, each fleet cell runs on
//! one thread.

use crate::report::Report;
use crate::RunConfig;
use longlook_core::prelude::*;

/// Clients in the base fleet (the 1x load column).
const CLIENTS: usize = 2_000;

/// The fleet tail-latency heatmap plus a one-fleet metrics appendix.
pub fn fleet(cfg: &RunConfig) -> Report {
    let base = FleetConfig::new(CLIENTS);
    let map = fleet_heatmap(
        &QuicConfig::default(),
        &TcpConfig::default(),
        &base,
        cfg.rounds,
        cfg.par,
    );
    let mut r = Report::new("fleet");
    r.push(map);

    // One representative flash-crowd fleet per protocol, for the numbers
    // the heatmap compresses away: completion rate, tails, arena cost.
    for (label, proto) in [
        ("QUIC", ProtoConfig::Quic(QuicConfig::default())),
        ("TCP", ProtoConfig::Tcp(TcpConfig::default())),
    ] {
        let m = run_fleet(&proto, &base);
        r.note(format!(
            "\n{label}: {CLIENTS} clients flash-crowd over {} links — \
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
