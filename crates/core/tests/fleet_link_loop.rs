//! Referee for the fleet's link-at-a-time loop and its deadline FIFO:
//! against the global single-queue loop it replaced (`oracle/`), every
//! observable must be equal bit for bit — also when some, most or all
//! connections time out, when an ack arrives after its connection's
//! deadline, and when the two land on the same nanosecond.

mod oracle;

use longlook_core::prelude::*;
use oracle::run_fleet_global_queue;
use proptest::prelude::*;

fn proto(quic: bool) -> ProtoConfig {
    if quic {
        ProtoConfig::Quic(QuicConfig::default())
    } else {
        ProtoConfig::Tcp(TcpConfig::default())
    }
}

/// Round trips before a first-time visitor's request can leave.
fn cold_handshake_rtts(proto: &ProtoConfig) -> u64 {
    match proto {
        ProtoConfig::Quic(q) => q.handshake_rtts(false).into(),
        ProtoConfig::Tcp(t) => t.handshake_rtts().into(),
    }
}

proptest! {
    /// Random cells, from "nobody times out" to "everybody does at the
    /// instant they arrive", dealt to threads at random: the link loop's
    /// observables are the global queue's, the population is accounted
    /// for, and the whole struct is the serial loop's.
    #[test]
    fn link_loop_equivalent_to_global_queue(
        n_conns in 0usize..4000,
        // Up to 8 links, so small fleets have more links than clients.
        n_links in 1usize..9,
        n_servers in 1usize..5,
        profile in prop_oneof![
            Just(ArrivalProfile::Poisson),
            Just(ArrivalProfile::FlashCrowd),
            Just(ArrivalProfile::DiurnalRamp),
        ],
        window_ms in prop_oneof![Just(200u64), Just(10_000)],
        loss in prop_oneof![Just(0.0), 0.0..0.3],
        // Zero (everyone times out on arrival), the protocol's cold
        // handshake time (`None`; with jitter off that is the handshake
        // ack's own nanosecond, with it on the ack comes just after), a
        // few RTTs (most time out), seconds (some do), 40 s (none do).
        deadline_ns in prop_oneof![
            Just(Some(0u64)),
            Just(None),
            Just(None),
            (30_000_000u64..400_000_000).prop_map(Some),
            (30_000_000u64..400_000_000).prop_map(Some),
            (400_000_000u64..4_000_000_000).prop_map(Some),
            (400_000_000u64..4_000_000_000).prop_map(Some),
            Just(Some(40_000_000_000)),
        ],
        jitter in prop_oneof![Just(0.0), Just(0.5)],
        repeat in prop_oneof![Just(0.0), Just(0.5), Just(1.0)],
        quic in any::<bool>(),
        jobs in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut cfg = FleetConfig::new(n_conns).with_profile(profile).with_seed(seed);
        cfg.n_links = n_links;
        cfg.n_servers = n_servers;
        cfg.window = Dur::from_millis(window_ms);
        cfg.loss = loss;
        let proto = proto(quic);
        let handshake_ns = cold_handshake_rtts(&proto) * cfg.base_rtt.as_nanos();
        cfg.deadline = Dur::from_nanos(deadline_ns.unwrap_or(handshake_ns));
        cfg.rtt_jitter_frac = jitter;
        cfg.repeat_visit_frac = repeat;
        let want = run_fleet_global_queue(&proto, &cfg);
        let got = run_fleet_par(&proto, &cfg, Parallelism::Threads(jobs));
        prop_assert_eq!(got.observables(), want.observables());
        prop_assert_eq!(got.completed + got.timed_out, n_conns as u64);
        prop_assert_eq!(got.stale_deadline_pops, got.completed);
        prop_assert_eq!(got, run_fleet(&proto, &cfg));
    }
}

/// Every connection's handshake ack on its own deadline's nanosecond:
/// no jitter, no repeat visitors, `deadline = handshake_rtts × base_rtt`
/// (36 ms for QUIC's one round trip, 108 ms for TCP+TLS's three).
/// The deadline was pushed first (at arrival), so it fires first and the
/// ack finds a stale handle: three events per client, everyone timed
/// out. A loop that took the queue first on equal times would let the
/// handshake complete and send a flight — more events, and the late ack
/// of that flight on top.
#[test]
fn an_ack_on_its_own_deadlines_nanosecond_loses_to_the_deadline() {
    for proto in [proto(true), proto(false)] {
        let mut cfg = FleetConfig::new(3_000);
        cfg.rtt_jitter_frac = 0.0;
        cfg.repeat_visit_frac = 0.0;
        cfg.deadline = Dur::from_nanos(cold_handshake_rtts(&proto) * cfg.base_rtt.as_nanos());
        let m = run_fleet(&proto, &cfg);
        assert_eq!(
            (m.events, m.timed_out, m.completed, m.stale_deadline_pops),
            (9_000, 3_000, 0, 0),
            "{}",
            proto.name()
        );
        assert_eq!(
            m.observables(),
            run_fleet_global_queue(&proto, &cfg).observables()
        );
    }
}

/// Link and server counts past 65 535 used to wrap silently in `u16`
/// arena columns, aliasing link 65 536 + x onto link x and charging the
/// wrong pool's service time. With more clients than that, the top
/// links and pools are really used.
#[test]
fn link_and_server_counts_past_u16_do_not_alias() {
    let mut cfg = FleetConfig::new(71_000);
    cfg.n_links = 70_000;
    cfg.n_servers = 70_000;
    let proto = proto(true);
    let m = run_fleet_par(&proto, &cfg, Parallelism::Threads(3));
    assert_eq!(m.completed + m.timed_out, 71_000);
    assert!(m.completed > 0 && m.timed_out > 0, "{m:?}");
    assert_eq!(
        m.observables(),
        run_fleet_global_queue(&proto, &cfg).observables()
    );
}
