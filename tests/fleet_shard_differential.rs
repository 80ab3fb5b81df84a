//! Sharded-fleet differential referee: dealing one fleet cell's links to
//! worker threads must not change a bit of what it reports.
//!
//! The contract under test, from `longlook_core::fleet::world`: the
//! *whole* [`FleetMetrics`] — events, completions, timeouts, stale
//! deadlines, the latency Summary and sketch, finish time, and the three
//! capacity diagnostics — is bit-identical for every `Parallelism`.
//! A cell runs one bottleneck link at a time; a link's run is a pure
//! function of the configuration and the link; and the per-link results
//! (the diagnostics are the largest over the links) fold in global link
//! order however the links were dealt out. `run_fleet_par` deals one
//! contiguous link range per worker, so the thread count is the shard
//! count, clamped to the links that have clients.

use longlook_core::prelude::*;

fn quic() -> ProtoConfig {
    ProtoConfig::Quic(QuicConfig::default())
}

fn tcp() -> ProtoConfig {
    ProtoConfig::Tcp(TcpConfig::default())
}

/// The headline differential: the full metrics are bit-identical at
/// every thread count from 1 to 9, for both protocols and all three
/// arrival profiles. The referee's fleet (FleetConfig::new(1500) → 4
/// links by default) covers divisible (2, 4), non-divisible (3) and
/// oversized (5–9 → clamped to 4) splits.
#[test]
fn sharded_observables_match_serial_bitwise() {
    for profile in [
        ArrivalProfile::Poisson,
        ArrivalProfile::FlashCrowd,
        ArrivalProfile::DiurnalRamp,
    ] {
        let cfg = FleetConfig::new(1_500).with_profile(profile);
        for proto in [quic(), tcp()] {
            let baseline = run_fleet(&proto, &cfg);
            for jobs in 1..=9 {
                assert_eq!(
                    baseline,
                    run_fleet_par(&proto, &cfg, Parallelism::Threads(jobs)),
                    "Threads({jobs}) diverged from run_fleet: {profile:?} / {proto:?}"
                );
            }
        }
    }
}

/// A 20 000-client flash crowd over 13 links. The scheduler holds the
/// running link's pending arrival and one ack per live connection — a
/// deadline per client in the queue would make it ≈ `n_conns` — and
/// every way of dealing the links out reports the same struct,
/// diagnostics included.
#[test]
fn scheduler_depth_tracks_live_connections_in_every_mode() {
    let cfg = FleetConfig::new(20_000);
    let baseline = run_fleet(&quic(), &cfg);
    assert!(
        baseline.scheduled_peak <= baseline.peak_live + 2,
        "scheduled_peak {} vs peak_live {}",
        baseline.scheduled_peak,
        baseline.peak_live
    );
    assert_eq!(
        baseline.arena_bytes_peak,
        baseline.peak_live * ConnArena::BYTES_PER_SLOT,
        "arena bytes come from the slot high-water mark"
    );
    for jobs in [2, 3, 5, cfg.n_links] {
        assert_eq!(
            baseline,
            run_fleet_par(&quic(), &cfg, Parallelism::Threads(jobs)),
            "Threads({jobs})"
        );
    }
}

/// Non-divisible splits: a fleet whose link count is not a multiple of
/// the thread count (here 5 links over 2 and 3 workers) still merges to
/// the serial baseline bit-for-bit.
#[test]
fn non_divisible_link_count_still_merges_exactly() {
    let mut cfg = FleetConfig::new(2_000);
    cfg.n_links = 5;
    cfg.n_servers = 2;
    let baseline = run_fleet(&quic(), &cfg);
    for jobs in [2, 3, 5] {
        let m = run_fleet_par(&quic(), &cfg, Parallelism::Threads(jobs));
        assert_eq!(baseline, m, "5 links over {jobs} workers diverged");
    }
}

/// Fewer connections than links: the links no client maps to are not
/// run at all, and eight workers clamp to the three links that are.
#[test]
fn shards_with_idle_links_are_benign() {
    let mut cfg = FleetConfig::new(3);
    cfg.n_links = 8;
    cfg.n_servers = 2;
    let baseline = run_fleet(&quic(), &cfg);
    let m = run_fleet_par(&quic(), &cfg, Parallelism::Threads(8));
    assert_eq!(baseline, m);
    assert_eq!(m.completed + m.timed_out, 3);
}

/// Population accounting holds in every mode: completed + timed_out
/// covers every spawned client, the latency feeds agree on the sample
/// count, and each completion leaves exactly one stale deadline.
#[test]
fn population_accounting_is_exact_in_every_mode() {
    let cfg = FleetConfig::new(1_500);
    for par in [Parallelism::Serial, Parallelism::Threads(4)] {
        let m = run_fleet_par(&quic(), &cfg, par);
        assert_eq!(
            m.completed + m.timed_out,
            1_500,
            "clients unaccounted for at {par:?}"
        );
        assert_eq!(m.latency_sketch.count(), m.completed);
        assert_eq!(m.latency_ms.count(), m.completed);
        assert_eq!(
            m.stale_deadline_pops, m.completed,
            "stale deadline pops must equal completions at {par:?}"
        );
    }
}
