//! Fleet determinism suite: the 10^5-connection worlds obey the same
//! worker-count invariance contract as every other experiment.
//!
//! The claim under test: a fleet cell is a pure function of its
//! `FleetConfig` — every random draw is a pure hash of (seed, entity
//! key), never a shared RNG stream — so `run_fleet` is bit-repeatable,
//! and the fleet heatmap is field-for-field identical whether its cells
//! run serially, on 4 worker threads, or at the auto-detected width
//! (i.e. across `repro -j 1`, `-j 4`, …). The rest pin the cell's
//! footprint and accounting: a 10k flash crowd completes far under the
//! 650 bytes-per-connection acceptance bar, the scheduler holds about
//! one event per live connection, and every client is accounted for.

use longlook_core::fleet::BYTES_PER_SLOT;
use longlook_core::prelude::*;

fn quic() -> ProtoConfig {
    ProtoConfig::Quic(QuicConfig::default())
}

fn tcp() -> ProtoConfig {
    ProtoConfig::Tcp(TcpConfig::default())
}

/// Same config, same process, repeated runs: every `FleetMetrics` field
/// — streamed moments, sketch buckets, event counts, arena peaks — is
/// bit-identical. This is the foundation the heatmap invariance builds
/// on.
#[test]
fn run_fleet_is_bit_repeatable() {
    for profile in [
        ArrivalProfile::Poisson,
        ArrivalProfile::FlashCrowd,
        ArrivalProfile::DiurnalRamp,
    ] {
        let cfg = FleetConfig::new(500).with_profile(profile);
        for proto in [quic(), tcp()] {
            let a = run_fleet(&proto, &cfg);
            let b = run_fleet(&proto, &cfg);
            assert_eq!(a, b, "fleet diverged on repeat: {profile:?} / {proto:?}");
        }
    }
}

/// Distinct seeds must actually change the world — otherwise the
/// repeatability test above would pass vacuously.
#[test]
fn seeds_produce_distinct_fleets() {
    let base = FleetConfig::new(500);
    let a = run_fleet(&quic(), &base);
    let b = run_fleet(&quic(), &base.clone().with_seed(0xDEAD_BEEF));
    assert_ne!(a.latency_ms, b.latency_ms, "seed had no effect");
}

/// The fleet heatmap — arrival profiles x load, QUIC vs TCP, Welch-gated
/// — is field-for-field identical across Serial, Threads(4), and the
/// auto-detected parallelism: the fleet experiment is bit-identical at
/// any `repro -j N`, because `Parallelism` is exactly what `-j` sets.
#[test]
fn fleet_heatmap_serial_equals_threads4_equals_auto() {
    let base = FleetConfig::new(250);
    let q = QuicConfig::default();
    let t = TcpConfig::default();
    let serial = fleet_heatmap(&q, &t, &base, 2, Parallelism::Serial);
    let par4 = fleet_heatmap(&q, &t, &base, 2, Parallelism::Threads(4));
    let auto = fleet_heatmap(&q, &t, &base, 2, Parallelism::auto());

    assert_eq!(serial.row_labels, par4.row_labels);
    assert_eq!(serial.col_labels, par4.col_labels);
    for (r, (srow, prow)) in serial.cells.iter().zip(&par4.cells).enumerate() {
        for (c, (s, p)) in srow.iter().zip(prow).enumerate() {
            assert_eq!(s, p, "cell ({r},{c}) diverged serial vs 4 threads");
        }
    }
    for (r, (srow, arow)) in serial.cells.iter().zip(&auto.cells).enumerate() {
        for (c, (s, a)) in srow.iter().zip(arow).enumerate() {
            assert_eq!(s, a, "cell ({r},{c}) diverged serial vs auto");
        }
    }
}

/// Budget check at an integration-worthy scale: a 10k-client flash
/// crowd runs to completion with its connection records far under the
/// 650 B/connection acceptance bar, and the population is
/// fully accounted for (completed + timed out == spawned).
#[test]
fn flash_crowd_10k_fits_connection_budget() {
    let cfg = FleetConfig::new(10_000);
    let m = run_fleet(&quic(), &cfg);
    assert_eq!(m.completed + m.timed_out, 10_000, "clients unaccounted for");
    assert!(
        m.completed as f64 >= 0.90 * 10_000.0,
        "only {} of 10k completed",
        m.completed
    );
    assert!(
        m.bytes_per_conn() <= 650.0,
        "arena cost {:.0} B/conn exceeds the 650 B budget",
        m.bytes_per_conn()
    );
    // The latency stream and the sketch must agree on the sample count:
    // both are fed once per completion, nothing retained per-sample.
    assert_eq!(m.latency_sketch.count(), m.completed);
    // Stale deadlines are bounded, not silent: every completed
    // connection leaves exactly one deadline in its link's FIFO that
    // comes due after the slot was freed and is generation-rejected. A
    // higher count would mean a deadline was queued twice; a lower one
    // that deadlines are being dropped or double-consumed.
    assert_eq!(
        m.stale_deadline_pops, m.completed,
        "stale deadline pops must equal completions"
    );
}

/// A 20 000-client flash crowd over 13 links. The scheduler holds the
/// running link's pending arrival and one ack per live connection — a
/// deadline per client in the queue would make it ≈ `n_conns` — and the
/// connection state reported is the busiest link's slots at
/// `BYTES_PER_SLOT` each.
#[test]
fn scheduler_depth_tracks_live_connections() {
    let m = run_fleet(&quic(), &FleetConfig::new(20_000));
    assert!(
        m.scheduled_peak <= m.peak_live + 2,
        "scheduled_peak {} vs peak_live {}",
        m.scheduled_peak,
        m.peak_live
    );
    assert_eq!(
        m.arena_bytes_peak,
        m.peak_live * BYTES_PER_SLOT,
        "connection bytes come from the slot high-water mark"
    );
}

/// Fewer connections than links: the links no client maps to are not
/// run, and the three clients are all accounted for.
#[test]
fn fewer_clients_than_links_are_benign() {
    let mut cfg = FleetConfig::new(3);
    cfg.n_links = 8;
    cfg.n_servers = 2;
    let m = run_fleet(&quic(), &cfg);
    assert_eq!(m.completed + m.timed_out, 3);
    assert_eq!(m.peak_live, 1, "one client per link");
}

/// Population accounting is exact for both protocols: completed +
/// timed_out covers every spawned client, the latency feeds agree on
/// the sample count, and each completion leaves exactly one stale
/// deadline.
#[test]
fn population_accounting_is_exact() {
    let cfg = FleetConfig::new(1_500);
    for proto in [quic(), tcp()] {
        let m = run_fleet(&proto, &cfg);
        assert_eq!(m.completed + m.timed_out, 1_500, "{}", proto.name());
        assert_eq!(m.latency_sketch.count(), m.completed);
        assert_eq!(m.latency_ms.count(), m.completed);
        assert_eq!(
            m.stale_deadline_pops,
            m.completed,
            "stale deadline pops must equal completions ({})",
            proto.name()
        );
    }
}
