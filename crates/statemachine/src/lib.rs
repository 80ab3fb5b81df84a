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
//! This crate reimplements that pipeline over
//! [`longlook_transport::ccstate::StateTrace`] histories, whether a live
//! connection's or one read from a captured trace file: temporal-invariant
//! mining ([`invariants`]), and graph construction with dwell-time
//! fractions and DOT export ([`model`]).

pub mod invariants;
pub mod model;

pub use invariants::{holds, mine, Invariant};
pub use model::{infer, InferredMachine, INITIAL, TERMINAL};
