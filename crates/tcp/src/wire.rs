//! TCP segment wire format — re-exported from `longlook-wire`.
//!
//! The segment/record types moved down into the `longlook-wire` base
//! crate so the simulator's `Payload` enum can carry a typed
//! [`TcpSegment`] by value. This module keeps the historical
//! `longlook_tcp::wire::*` paths working.

pub use longlook_wire::tcp::{flags, RecordDesc, TcpSegment, TcpWireError, MAX_RECORDS, MAX_SACKS};
