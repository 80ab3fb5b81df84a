//! Shared transport abstractions for the `longlook` testbed.
//!
//! This crate defines what the QUIC and TCP protocol models have in
//! common, so that their *differences* — ack ambiguity, loss detection,
//! handshake latency, head-of-line blocking — live in the protocol crates
//! and everything else is held equal (the paper's "fair comparison"
//! requirement):
//!
//! * [`conn`] — the sans-IO [`Connection`] trait all applications use;
//! * [`rtt`] — RFC 6298 estimation with QUIC's ack-delay correction;
//! * [`cc`] / [`cubic`] / [`bbr`] — the congestion-control interface and
//!   the two controllers the paper studies;
//! * [`hystart`] / [`prr`] / [`pacing`] — Hybrid Slow Start, proportional
//!   rate reduction, and packet pacing;
//! * [`ccstate`] — Table 3's state vocabulary and the state history
//!   (`StateTrace`) that feeds state-machine inference;
//! * [`chassis`] — the watchdog, TLP/RTO timer and telemetry bundle both
//!   connection models embed instead of keeping twins.

pub mod bbr;
pub mod cc;
pub mod ccstate;
pub mod chassis;
pub mod conn;
pub mod cubic;
pub mod hystart;
pub mod pacing;
pub mod prr;
pub mod rtt;

pub use bbr::Bbr;
pub use cc::CongestionControl;
pub use ccstate::{
    bbr_legal_edges, check_trace_legal, cubic_legal_edges, BbrState, CcState, Fig3State, StateTrace,
};
pub use chassis::{ConnTelemetry, RecoveryTimer, Watchdog};
pub use conn::{
    AppEvent, ConnError, ConnStats, Connection, StreamId, Transmit, TCP_OVERHEAD, UDP_OVERHEAD,
};
pub use cubic::{Cubic, CubicConfig};
pub use hystart::HyStart;
pub use pacing::Pacer;
pub use prr::Prr;
pub use rtt::RttEstimator;
