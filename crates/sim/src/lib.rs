//! Deterministic discrete-event network testbed.
//!
//! This crate is the substrate the whole `longlook` evaluation framework
//! stands on: a seeded, single-threaded, discrete-event simulation of hosts
//! connected by emulated links with `tc tbf` / `netem` semantics (rate
//! limiting with a token bucket and drop-tail queue, base delay, jitter
//! that reorders, random loss, explicit hold-back reordering, time-varying
//! bandwidth), plus client device models that charge per-packet
//! kernel/userspace processing costs.
//!
//! Everything is deterministic given an experiment seed, which is what
//! makes the paper's methodology — back-to-back comparisons, at least 10
//! rounds, statistical significance gates — exactly repeatable here.

pub mod arena;
pub mod device;
pub mod fault;
pub mod link;
pub mod packet;
pub mod rng;
pub mod sched;
pub mod schedule;
pub mod time;
pub mod world;

pub use arena::{SlotHandle, SlotPool};
pub use device::{DeviceCpu, DeviceProfile};
pub use fault::{
    FaultDir, FaultEvent, FaultKind, FaultPlan, GeChain, GeParams, LinkFault, PeerSide,
};
pub use link::{DropKind, Jitter, LinkConfig, LinkDir, LinkStats, ReorderSpec, Verdict};
// The per-thread frame / block free lists live in `longlook-wire` (the
// wire formats draw from them); re-exported here as `longlook_sim::pool`.
pub use longlook_wire::pool;
// The structured trace layer lives in `longlook-wire` (the bottom crate,
// so transports and the fault layer can both emit); re-exported here as
// `longlook_sim::trace` for everything above the simulator.
pub use longlook_wire::trace;
// The one JSON codec (traces and traumafuzz repro files) and the warn-once
// knob parser also live in `longlook-wire`.
pub use longlook_wire::json;
pub use longlook_wire::{env_knob, TraceMode, TraceRecord, Tracer};
// Sole caller: `observatory/` (frozen), which names all three through
// this crate; see `longlook_wire::mode`.
#[doc(hidden)]
pub use longlook_wire::{BatchMode, SchedKind, WireMode};
pub use packet::{FlowId, NodeId, Packet, Payload, PktClass};
pub use rng::{current_cell, CellGuard, CellId, IsolationTag, SimRng};
pub use sched::EventQueue;
pub use schedule::RateSchedule;
pub use time::{transmission_delay, Dur, Time};
pub use world::{Agent, Ctx, RunOutcome, World};
