//! Protocol wire formats, shared below the simulator.
//!
//! This crate sits at the bottom of the workspace (only the `bytes` shim
//! under it) so that *both* the simulator and the transport crates can name
//! the typed packet structures: `sim::packet::Payload` carries a
//! [`quic::QuicPacket`] or [`tcp::TcpSegment`] by value, while the QUIC/TCP
//! connection crates re-export these types as their `wire` modules.
//!
//! Two invariants everything else leans on:
//!
//! 1. **Analytic sizing**: every frame/header/segment type has an
//!    `encoded_len()` computed without allocating, proptest-pinned to
//!    `encode().len()`. Links are charged byte-identical wire sizes
//!    without anything ever being serialized.
//! 2. **Canonical packets**: `decode(encode(x)) == x` for every value the
//!    transports emit, so handing the typed value to the peer is
//!    observationally identical to serializing it. Nothing in the product
//!    encodes a packet; the codec is the format's executable specification,
//!    and the `wire_roundtrip` referee suite holds it to live traffic.

pub mod mode;
pub mod pool;
pub mod quic;
pub mod tcp;
pub mod trace;

pub use mode::{env_knob, BatchMode, ExecConfig, SchedKind, WireMode};
pub use trace::{TraceEvent, TraceMode, TraceRecord, Tracer};
