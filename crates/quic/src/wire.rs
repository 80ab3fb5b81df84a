//! gQUIC-like wire format — re-exported from `longlook-wire`.
//!
//! The packet/frame types moved down into the `longlook-wire` base crate
//! so the simulator's `Payload` enum can carry a typed [`QuicPacket`] by
//! value. This module keeps the historical `longlook_quic::wire::*` paths
//! working.

pub use longlook_wire::quic::{
    AckBlock, Frame, HandshakeKind, QuicPacket, WireError, HEADER_SIZE, MAX_ACK_BLOCKS,
    MAX_PACKET_PAYLOAD,
};
