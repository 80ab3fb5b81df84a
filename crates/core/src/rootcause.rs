//! Root-cause analysis: turning execution traces into inferred state
//! machines and side-by-side reports (paper Figs 3 and 13).

use crate::experiment::RunRecord;
use longlook_sim::time::Time;
use longlook_sim::trace::TraceRecord;
use longlook_statemachine::{
    infer, trace_from_records, trace_from_transport, InferredMachine, Trace,
};
use std::fmt::Write as _;

/// Infer a machine from server-side state traces of finished runs.
pub fn infer_from_records(records: &[RunRecord]) -> InferredMachine {
    let traces: Vec<Trace> = records
        .iter()
        .filter_map(|r| {
            r.server_trace
                .as_ref()
                .map(|t| trace_from_transport(t, r.ended_at))
        })
        .collect();
    infer(&traces)
}

/// Infer a machine from captured structured event traces (`repro trace`
/// evidence): each trace's `CcState` events are the state-visit
/// sequence, observed until its last record.
/// Empty traces contribute nothing.
pub fn infer_from_traces(traces: &[Vec<TraceRecord>]) -> InferredMachine {
    let traces: Vec<Trace> = traces
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| {
            let end = Time::from_nanos(t.last().map(|r| r.t).unwrap_or(0));
            trace_from_records(t, end)
        })
        .collect();
    infer(&traces)
}

/// Fig 13-style comparison: two inferred machines (e.g. Desktop vs MotoG)
/// with their time-in-state fractions side by side.
pub fn compare_machines(
    label_a: &str,
    a: &InferredMachine,
    label_b: &str,
    b: &InferredMachine,
) -> String {
    let mut states: Vec<&str> = a
        .states
        .iter()
        .chain(b.states.iter())
        .map(String::as_str)
        .collect();
    states.sort_unstable();
    states.dedup();
    let mut out = String::new();
    let _ = writeln!(out, "{:<26} {:>10} {:>10}", "state", label_a, label_b);
    for s in states {
        let _ = writeln!(
            out,
            "{:<26} {:>9.1}% {:>9.1}%",
            s,
            a.time_fraction(s) * 100.0,
            b.time_fraction(s) * 100.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scenario;
    use crate::runner::Parallelism;
    use crate::testbed::NetProfile;
    use longlook_http::workload::PageSpec;

    #[test]
    fn inference_pipeline_produces_cubic_states() {
        let sc = Scenario::new(
            NetProfile::baseline(10.0).with_loss(0.005),
            PageSpec::single(2 * 1024 * 1024),
        )
        .with_rounds(3);
        let records = sc.records(Parallelism::Serial);
        let machine = infer_from_records(&records);
        assert!(machine.states.iter().any(|s| s == "Init"));
        assert!(machine.states.iter().any(|s| s == "SlowStart"));
        assert!(machine.trace_count == 3);
        let dot = machine.to_dot("fig3a test");
        assert!(dot.contains("SlowStart"));
    }

    #[test]
    fn comparison_report_renders_both_columns() {
        let sc =
            Scenario::new(NetProfile::baseline(10.0), PageSpec::single(200 * 1024)).with_rounds(2);
        let records = sc.records(Parallelism::Serial);
        let m = infer_from_records(&records);
        let report = compare_machines("Desktop", &m, "MotoG", &m);
        assert!(report.contains("Desktop"));
        assert!(report.contains("MotoG"));
        assert!(report.contains("SlowStart"));
    }
}
