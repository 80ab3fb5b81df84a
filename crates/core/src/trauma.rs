//! Trauma cells: page loads run under a deterministic [`FaultPlan`] with
//! everything the fault-injection oracles need extracted alongside the
//! ordinary [`RunRecord`].
//!
//! A trauma cell is the fuzzer's unit of work: one protocol, one
//! scenario whose `net.fault` carries the schedule, one round. The record
//! keeps the run outcome (no silent livelock means the world either
//! stopped or went idle before the deadline), both endpoints' typed
//! errors, and the client's app-level delivered byte count (the wire
//! level would double-count duplicated packets).

use crate::experiment::{collect, per_round_net, run_cell, RunRecord, Scenario};
use crate::runner::{run_ordered, Parallelism};
use longlook_http::app::{ClientApp, WebClient};
use longlook_http::host::ProtoConfig;
use longlook_sim::trace::{merge_by_time, TraceRecord};
use longlook_sim::{ExecConfig, RunOutcome, TraceMode};
use longlook_transport::ccstate::StateTrace;
use longlook_transport::conn::{ConnError, ConnStats};

/// Everything one faulted run produces. `PartialEq` compares every field
/// so same-seed replay equality is exact (the determinism oracle).
#[derive(Debug, Clone, PartialEq)]
pub struct TraumaRecord {
    /// The ordinary run record (PLT, counters, trace, cwnd).
    pub record: RunRecord,
    /// How the world loop ended.
    pub outcome: RunOutcome,
    /// Whether the page load finished.
    pub completed: bool,
    /// Client connection's terminal error, if it gave up.
    pub client_error: Option<ConnError>,
    /// Server connection's terminal error, if it gave up.
    pub server_error: Option<ConnError>,
    /// App-level response bytes delivered in order to the client. Unlike
    /// wire counters this cannot be inflated by duplication faults.
    pub app_bytes: u64,
}

impl TraumaRecord {
    /// The run terminated cleanly: completed, or surfaced a typed error
    /// on at least one endpoint before the deadline. The negation is the
    /// "silent livelock" the fuzzer's oracle hunts.
    pub fn accounted_for(&self) -> bool {
        self.completed || self.client_error.is_some() || self.server_error.is_some()
    }
}

/// Run one trauma cell: same seeding and per-round network realization
/// as [`crate::experiment::run_page_load`], plus the oracle extras.
pub fn run_trauma_cell(proto: &ProtoConfig, sc: &Scenario, round: u64) -> TraumaRecord {
    run_trauma_cell_inner(proto, sc, round, sc.exec).0
}

/// Run one trauma cell with the structured trace layer on for this cell
/// only, whatever `sc.exec` says. Returns the record plus the server
/// connection's event trace merged with the fault plan's synthesized
/// window edges, so the trace explains *when* the network was faulted as
/// well as how the transport reacted.
pub fn run_trauma_cell_traced(
    proto: &ProtoConfig,
    sc: &Scenario,
    round: u64,
) -> (TraumaRecord, Vec<TraceRecord>) {
    let exec = ExecConfig {
        trace: TraceMode::On,
    };
    let (rec, conn_trace) = run_trauma_cell_inner(proto, sc, round, exec);
    let edges = per_round_net(sc, round)
        .fault
        .map(|p| p.trace_window_edges())
        .unwrap_or_default();
    (rec, merge_by_time(&conn_trace, &edges))
}

fn run_trauma_cell_inner(
    proto: &ProtoConfig,
    sc: &Scenario,
    round: u64,
    exec: ExecConfig,
) -> (TraumaRecord, Vec<TraceRecord>) {
    let (tb, outcome) = run_cell(proto, sc, round, exec);
    let host = tb.client_host();
    let app = host.app::<WebClient>(0);
    let flow = tb.flows[0];
    let server = tb.server_host();
    let conn_trace = server
        .conn_trace(flow)
        .map(<[_]>::to_vec)
        .unwrap_or_default();
    let rec = TraumaRecord {
        completed: app.done(),
        app_bytes: app.har().iter().map(|r| r.bytes).sum(),
        client_error: host.conn_error(0),
        server_error: server.conn_error(flow),
        outcome,
        record: collect(&tb),
    };
    (rec, conn_trace)
}

/// All rounds of a trauma scenario, sharded like
/// [`crate::experiment::run_records_par`]; results keep round order.
pub fn run_trauma_records_par(
    proto: &ProtoConfig,
    sc: &Scenario,
    par: Parallelism,
) -> Vec<TraumaRecord> {
    run_ordered(par, sc.rounds as usize, |k| {
        run_trauma_cell(proto, sc, k as u64)
    })
}

/// Convenience accessor used by reports and oracles: the server's
/// counters or zeroed stats when no server connection ever existed (a
/// blackout can eat the entire first flight).
pub fn server_stats_or_zero(rec: &TraumaRecord) -> ConnStats {
    rec.record.server_stats.unwrap_or_default()
}

/// The server trace, if a server connection ever existed.
pub fn server_trace(rec: &TraumaRecord) -> Option<&StateTrace> {
    rec.record.server_trace.as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::NetProfile;
    use longlook_http::workload::PageSpec;
    use longlook_quic::QuicConfig;
    use longlook_sim::fault::{FaultDir, FaultEvent, FaultKind, FaultPlan};
    use longlook_sim::time::{Dur, Time};
    use longlook_tcp::TcpConfig;

    fn faulted_scenario(plan: FaultPlan) -> Scenario {
        Scenario::new(
            NetProfile::baseline(5.0).with_fault(plan),
            PageSpec::single(60 * 1024),
        )
        .with_rounds(1)
        .with_seed(4242)
    }

    #[test]
    fn clean_fault_plan_still_completes() {
        // A plan whose windows sit far past the page load is a no-op.
        let plan = FaultPlan::new().with_event(FaultEvent {
            at: Time::ZERO + Dur::from_secs(500),
            dur: Dur::from_secs(1),
            dir: FaultDir::Both,
            kind: FaultKind::Blackout,
        });
        for proto in [
            ProtoConfig::Quic(QuicConfig::default()),
            ProtoConfig::Tcp(TcpConfig::default()),
        ] {
            let rec = run_trauma_cell(&proto, &faulted_scenario(plan.clone()), 0);
            assert!(rec.completed, "{}: load must complete", proto.name());
            assert!(rec.accounted_for());
            assert!(rec.app_bytes > 0);
            assert_eq!(rec.client_error, None);
        }
    }

    #[test]
    fn same_seed_same_trauma_record() {
        let plan = FaultPlan::new().with_event(FaultEvent {
            at: Time::ZERO + Dur::from_millis(100),
            dur: Dur::from_millis(400),
            dir: FaultDir::Both,
            kind: FaultKind::Blackout,
        });
        let sc = faulted_scenario(plan);
        let proto = ProtoConfig::Quic(QuicConfig::default());
        let a = run_trauma_cell(&proto, &sc, 0);
        let b = run_trauma_cell(&proto, &sc, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn blackout_past_deadline_surfaces_typed_error() {
        // A blackout covering the whole run: the handshake can never
        // complete, so the armed watchdog must surface a typed error and
        // the world must go idle rather than run to the deadline.
        let plan = FaultPlan::new().with_event(FaultEvent {
            at: Time::ZERO,
            dur: Dur::from_secs(600),
            dir: FaultDir::Both,
            kind: FaultKind::Blackout,
        });
        let mut sc = faulted_scenario(plan);
        sc.deadline = Dur::from_secs(120);
        for proto in [
            ProtoConfig::Quic(QuicConfig::default()),
            ProtoConfig::Tcp(TcpConfig::default()),
        ] {
            let rec = run_trauma_cell(&proto, &sc, 0);
            assert!(!rec.completed, "{}: nothing can complete", proto.name());
            // A warm 0-RTT QUIC client is locally "established" from t=0,
            // so its watchdog reads the dead path as idleness; the TCP
            // client is still in the SYN handshake.
            let expect = match &proto {
                ProtoConfig::Quic(_) => ConnError::IdleTimeout,
                ProtoConfig::Tcp(_) => ConnError::HandshakeTimeout,
            };
            assert_eq!(
                rec.client_error,
                Some(expect),
                "{}: client must give up with a typed error",
                proto.name()
            );
            assert!(rec.accounted_for());
            assert_ne!(
                rec.outcome,
                RunOutcome::DeadlineReached,
                "{}: the world must quiesce, not spin to the deadline",
                proto.name()
            );
        }
    }
}
