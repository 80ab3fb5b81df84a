//! Synoptic-style state-machine inference from execution traces.
//!
//! The paper's methodological contribution is using *inferred* protocol
//! state machines — generated automatically from instrumented execution
//! traces via Synoptic (Beschastnikh et al., the paper's citation 15) —
//! as the root-cause-analysis instrument: which
//! states a run visits, with what transition probabilities, and what
//! fraction of time it dwells in each, explains performance differences
//! (e.g. MotoG spending 58% of its time Application-Limited, Fig 13).
//!
//! This crate reimplements that pipeline: [`trace::Trace`] ingestion,
//! temporal-invariant mining ([`invariants`]), and graph construction with
//! dwell-time fractions and DOT export ([`model`]).

pub mod invariants;
pub mod model;
pub mod trace;

pub use invariants::{holds, mine, Invariant};
pub use model::{infer, InferredMachine, INITIAL, TERMINAL};
pub use trace::Trace;

/// Convenience: build a [`Trace`] from a transport-layer
/// [`longlook_transport::ccstate::StateTrace`].
pub fn trace_from_transport(
    st: &longlook_transport::ccstate::StateTrace,
    end: longlook_sim::time::Time,
) -> Trace {
    Trace::new(
        st.visits.iter().map(|&(t, s)| (t, s.to_string())).collect(),
        end,
    )
}

/// Convenience: build a [`Trace`] from structured trace records
/// (`longlook_sim::trace`, the structured trace layer). The `CcState`
/// events carry the same state-visit evidence as a transport
/// `StateTrace`, so a captured qlog-style trace file can feed inference
/// directly.
pub fn trace_from_records(
    records: &[longlook_sim::trace::TraceRecord],
    end: longlook_sim::time::Time,
) -> Trace {
    use longlook_sim::time::Time;
    use longlook_sim::trace::TraceEvent;
    let visits = records
        .iter()
        .filter_map(|r| match &r.ev {
            TraceEvent::CcState { state } => Some((Time::from_nanos(r.t), state.clone())),
            _ => None,
        })
        .collect();
    Trace::new(visits, end)
}
