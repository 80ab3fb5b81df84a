//! Root-cause analysis: turning execution traces into inferred state
//! machines (paper Figs 3 and 13).

use crate::experiment::RunRecord;
use longlook_statemachine::{infer, InferredMachine};

/// Infer a machine from server-side state traces of finished runs.
pub fn infer_from_records(records: &[RunRecord]) -> InferredMachine {
    let traces: Vec<_> = records
        .iter()
        .filter_map(|r| r.server_trace.as_ref())
        .collect();
    infer(&traces)
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
}
