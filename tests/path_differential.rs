//! Execution-path differential referee: each non-default `TraceMode`
//! against `TraceMode::default()`.
//!
//! The trace mode a protocol config carries changes *how* a cell is
//! carried out, never *what* happens in it: every emit point sits after
//! the decision it records and the tracer draws no randomness, so it
//! observes and never steers.
//!
//! That is an equivalence-by-construction argument; this suite re-checks
//! the conclusion end to end: bit-identical `RunRecord`s and
//! `StateTrace`s over clean / lossy / jittered / tiny cells under
//! `Serial` and `Threads(4)` runners and over 120-stream lossy loads,
//! identical whole `RunRecord`s (outcome and typed errors included) under
//! fault plans, and identical event counts and scheduler high-water marks
//! on bulk transfers, for both protocols.
//!
//! The wire representation, the scheduler, the event loop, the QUIC
//! sent-packet store and the recovery timer are not axes: links carry
//! typed packets and nothing else (`wire_roundtrip` holds the codec to
//! that traffic), and each of the other four has one implementation, held
//! to the one it replaced by a proptest against an oracle
//! (`wheel_matches_heap_under_interleaved_ops`,
//! `slab_store_equivalent_to_map_store`,
//! `deferred_rearm_equals_eager_rearm`); `golden_seed` / `golden_trace`
//! were blessed on the replaced implementations.
//!
//! Modes are values carried by the protocol configs, so each axis is its
//! own `#[test]` and they run concurrently.

mod common;

use common::{
    axis, bulk_cell, faulted_scenarios, many_stream_cells, protos, render, scenarios, with_trace,
    BULK_SEEDS,
};
use longlook_core::prelude::*;

fn assert_identical_to_default(axis_name: &str) {
    let trace = axis(axis_name);
    let default = TraceMode::default();

    for par in [Parallelism::Serial, Parallelism::Threads(4)] {
        for (proto_name, proto) in &protos() {
            for (sc_name, sc) in scenarios() {
                let sc = sc.with_proto(proto.clone());
                let want = render(&sc.records(par));
                let got = render(&with_trace(&sc, trace).records(par));
                assert_eq!(
                    got, want,
                    "{axis_name}: {proto_name}/{sc_name}/{par:?}: RunRecords diverged \
                     from TraceMode::default()"
                );
            }
        }
    }

    // 120-stream loads, flow-control-bound and not: the send scheduler
    // and the sent-packet store at the depth the object-count sweeps run.
    for (name, sc) in many_stream_cells() {
        let want = render(&sc.records(Parallelism::auto()));
        let got = render(&with_trace(&sc, trace).records(Parallelism::auto()));
        assert_eq!(
            got, want,
            "{axis_name}: {name}: RunRecords diverged from TraceMode::default()"
        );
    }

    // Faulted cells: the whole RunRecord (outcome, typed errors,
    // app-level bytes, counters, traces) must match field for field.
    for (proto_name, proto) in &protos() {
        for (sc_name, sc) in faulted_scenarios() {
            let sc = sc.with_proto(proto.clone());
            let want = sc.run(0);
            let got = with_trace(&sc, trace).run(0);
            assert_eq!(
                got, want,
                "{axis_name}: {proto_name}/{sc_name}: RunRecord diverged from \
                 TraceMode::default()"
            );
        }
    }

    // Event-loop accounting on a bulk transfer: identical push/pop
    // sequences mean identical counts and scheduler high-water marks.
    for (proto_name, proto) in &protos() {
        for seed in BULK_SEEDS {
            let (ev_want, peak_want) = bulk_cell(proto, default, seed);
            let (ev_got, peak_got) = bulk_cell(proto, trace, seed);
            assert_eq!(
                ev_got, ev_want,
                "{axis_name}: {proto_name}/bulk@{seed}: events_processed diverged"
            );
            assert_eq!(
                peak_got, peak_want,
                "{axis_name}: {proto_name}/bulk@{seed}: scheduled_peak diverged"
            );
            assert!(
                ev_want > 1_000,
                "{proto_name}/bulk@{seed}: bulk cell suspiciously small"
            );
        }
    }
}

#[test]
fn tracing_on_is_observationally_identical() {
    assert_identical_to_default("trace=on");
}

/// Tracing is a property of one cell, not of the process: traced and
/// untraced cells sharded across the same worker pool must each see
/// exactly the mode they asked for.
#[test]
fn tracing_is_per_cell_under_a_threaded_runner() {
    let sc = faulted_scenarios().swap_remove(0).1;
    // Even cells are traced page loads, odd cells plain default-path
    // testbeds; each reports how many trace records its server kept.
    let lens = run_ordered(Parallelism::Threads(4), 24, |k| {
        if k % 2 == 0 {
            sc.run_traced(k as u64).1.len()
        } else {
            let mut tb = Testbed::direct(
                k as u64,
                &sc.net,
                sc.device,
                sc.page.clone(),
                vec![FlowSpec {
                    proto: sc.proto.clone(),
                    zero_rtt: false,
                    app: Box::new(WebClient::new(sc.page.clone())),
                }],
                None,
                true,
            );
            tb.run(sc.deadline);
            tb.server_host()
                .conn_trace(tb.flows[0])
                .expect("server accepted the flow")
                .len()
        }
    });
    for (k, len) in lens.into_iter().enumerate() {
        if k % 2 == 0 {
            assert!(len > 10, "traced cell {k} recorded only {len} events");
        } else {
            assert_eq!(len, 0, "untraced cell {k} recorded {len} trace events");
        }
    }
}

/// Arming the fault layer is inert in a healthy cell: an empty plan
/// (armed watchdogs, fault views on both links) and a plan whose only
/// event is a server stall at t = 10 h — a stall table the event loop
/// consults on every event and that never matches — render the same
/// `RunRecord`s, and on the plain cells the same as no plan at all.
#[test]
fn a_stall_that_never_opens_changes_nothing() {
    let never = FaultPlan::new().with_event(FaultEvent {
        at: Time::ZERO + Dur::from_secs(10 * 3600),
        dur: Dur::from_nanos(1),
        dir: FaultDir::Both,
        kind: FaultKind::PeerStall {
            side: PeerSide::Server,
        },
    });
    let with_plan = |sc: &Scenario, plan: &FaultPlan| {
        let mut sc = sc.clone();
        sc.net = sc.net.with_fault(plan.clone());
        sc
    };
    let records = |sc: &Scenario| render(&sc.records(Parallelism::auto()));
    for (proto_name, proto) in &protos() {
        for (sc_name, sc) in scenarios() {
            let sc = sc.with_proto(proto.clone());
            let plain = records(&sc);
            let empty = records(&with_plan(&sc, &FaultPlan::new()));
            let stalled = records(&with_plan(&sc, &never));
            assert_eq!(
                empty, plain,
                "{proto_name}/{sc_name}: an empty fault plan changed the record"
            );
            assert_eq!(
                stalled, empty,
                "{proto_name}/{sc_name}: a stall window that never opens changed the record"
            );
        }
    }
    for (name, sc) in many_stream_cells() {
        let empty = records(&with_plan(&sc, &FaultPlan::new()));
        let stalled = records(&with_plan(&sc, &never));
        assert_eq!(
            stalled, empty,
            "{name}: a stall window that never opens changed the record"
        );
    }
}
