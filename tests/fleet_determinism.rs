//! Fleet determinism suite: the 10^5-connection worlds obey the same
//! shard-invariance contract as every other experiment.
//!
//! The claim under test: a fleet cell is a pure function of its
//! `FleetConfig` — every random draw is a pure hash of (seed, entity
//! key), never a shared RNG stream — so `run_fleet` is bit-repeatable,
//! and the fleet heatmap is field-for-field identical whether its cells
//! run serially, on 4 worker threads, or at the auto-detected width
//! (i.e. across `repro -j 1`, `-j 4`, …). A final test pins the
//! tentpole memory budget: a 10k flash crowd completes with the arena
//! far under the 650 bytes-per-connection acceptance bar.

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

/// Tentpole budget check at an integration-worthy scale: a 10k-client
/// flash crowd runs to completion with the struct-of-arrays arena far
/// under the 650 B/connection acceptance bar, and the population is
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
