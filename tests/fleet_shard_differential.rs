//! Sharded-fleet differential referee: dealing one fleet cell's links to
//! shards (and the shards to worker threads) must not change a bit of
//! what it reports.
//!
//! The contract under test, from `longlook_core::fleet::world`: the
//! *whole* [`FleetMetrics`] — events, completions, timeouts, stale
//! deadlines, the latency Summary and sketch, finish time, and the three
//! capacity diagnostics — is bit-identical for every `(shards, par)`.
//! A cell runs one bottleneck link at a time; a link's run is a pure
//! function of the configuration and the link; and the per-link results
//! (the diagnostics are the largest over the links) fold in global link
//! order however the links were dealt out. With one job the shard count
//! selects nothing — the ranges run back to back, which is the plain
//! loop — so the threaded rows are the ones that vary the path.

use longlook_core::prelude::*;

fn quic() -> ProtoConfig {
    ProtoConfig::Quic(QuicConfig::default())
}

fn tcp() -> ProtoConfig {
    ProtoConfig::Tcp(TcpConfig::default())
}

/// Shard counts exercised against the serial baseline. The referee's
/// fleet (FleetConfig::new(1500) → 4 links by default) covers divisible
/// (2, 4) and oversized (9 → clamped to 4) splits.
const SHARD_COUNTS: [usize; 3] = [2, 4, 9];

/// The headline differential: the full metrics are bit-identical across
/// shard counts and thread counts, for both protocols and all three
/// arrival profiles.
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
            for shards in SHARD_COUNTS {
                for par in [
                    Parallelism::Serial,
                    Parallelism::Threads(2),
                    Parallelism::Threads(4),
                ] {
                    assert_eq!(
                        baseline,
                        run_fleet_sharded(&proto, &cfg, shards, par),
                        "shards={shards} {par:?} diverged from run_fleet: \
                         {profile:?} / {proto:?}"
                    );
                }
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
    for shards in [1, 2, 5, cfg.n_links] {
        for par in [Parallelism::Serial, Parallelism::Threads(3)] {
            assert_eq!(
                baseline,
                run_fleet_sharded(&quic(), &cfg, shards, par),
                "shards={shards} {par:?}"
            );
        }
    }
}

/// Non-divisible splits: a fleet whose link count is not a multiple of
/// the shard count (here 5 links over 2 and 3 shards) still merges to
/// the serial baseline bit-for-bit.
#[test]
fn non_divisible_link_count_still_merges_exactly() {
    let mut cfg = FleetConfig::new(2_000);
    cfg.n_links = 5;
    cfg.n_servers = 2;
    let baseline = run_fleet(&quic(), &cfg);
    for shards in [2, 3, 5] {
        let plan = ShardPlan::new(cfg.n_links, shards);
        assert_eq!(plan.shards(), shards.min(cfg.n_links));
        let m = run_fleet_sharded(&quic(), &cfg, shards, Parallelism::Threads(3));
        assert_eq!(baseline, m, "5 links over {shards} shards diverged");
    }
}

/// Fewer connections than links: the links no client maps to are not
/// run at all, and the shard count clamps to the three that are.
#[test]
fn shards_with_idle_links_are_benign() {
    let mut cfg = FleetConfig::new(3);
    cfg.n_links = 8;
    cfg.n_servers = 2;
    let baseline = run_fleet(&quic(), &cfg);
    let m = run_fleet_sharded(&quic(), &cfg, 8, Parallelism::Threads(4));
    assert_eq!(baseline, m);
    assert_eq!(m.completed + m.timed_out, 3);
}

/// Population accounting holds in every mode: completed + timed_out
/// covers every spawned client, the latency feeds agree on the sample
/// count, and each completion leaves exactly one stale deadline.
#[test]
fn population_accounting_is_exact_in_every_mode() {
    let cfg = FleetConfig::new(1_500);
    for (shards, par) in [
        (1, Parallelism::Serial),
        (4, Parallelism::Serial),
        (4, Parallelism::Threads(4)),
    ] {
        let m = run_fleet_sharded(&quic(), &cfg, shards, par);
        assert_eq!(
            m.completed + m.timed_out,
            1_500,
            "clients unaccounted for at shards={shards}"
        );
        assert_eq!(m.latency_sketch.count(), m.completed);
        assert_eq!(m.latency_ms.count(), m.completed);
        assert_eq!(
            m.stale_deadline_pops, m.completed,
            "stale deadline pops must equal completions at shards={shards}"
        );
    }
}

/// `ShardPlan` unit geometry at integration scope: ranges partition the
/// link space contiguously in order, stay balanced within one link, and
/// degenerate inputs clamp instead of panicking.
#[test]
fn shard_plan_geometry() {
    for (n_links, shards) in [(4, 2), (5, 3), (7, 7), (1, 4), (12, 5)] {
        let plan = ShardPlan::new(n_links, shards);
        let mut next = 0;
        for s in 0..plan.shards() {
            let r = plan.link_range(s);
            assert_eq!(r.start, next, "gap before shard {s} of {plan:?}");
            assert!(!r.is_empty());
            next = r.end;
        }
        assert_eq!(next, n_links, "{plan:?} did not cover the link space");
    }
    assert_eq!(ShardPlan::new(6, 0).shards(), 1);
    assert_eq!(ShardPlan::new(0, 3).shards(), 1);
}
