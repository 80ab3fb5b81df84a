//! The discrete-event world: nodes, links, and the event loop.
//!
//! Agents (hosts, proxies) are event-driven state machines in the smoltcp
//! tradition: the world delivers packets and wakeups, agents respond by
//! emitting packets and requesting future wakeups through [`Ctx`]. No
//! threads, no wall clock — a seeded world replays identically.

use crate::device::{DeviceCpu, DeviceProfile};
use crate::link::{LinkConfig, LinkDir, Verdict};
use crate::packet::{NodeId, Packet};
use crate::rng::{IsolationTag, SimRng};
use crate::sched::EventQueue;
use crate::time::Time;
use std::any::Any;

/// Interface the world hands an agent during a callback.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: Time,
    node: NodeId,
    out: &'a mut Vec<Packet>,
    wakes: &'a mut Vec<Time>,
    stop: &'a mut bool,
}

impl Ctx<'_> {
    /// The agent's own node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Emit a packet. `pkt.src` must be this node and `pkt.dst` must be an
    /// adjacent node; violations panic when the outbox is drained.
    pub fn send(&mut self, pkt: Packet) {
        self.out.push(pkt);
    }

    /// Request a wakeup at (or after) `t`. Multiple requests are fine;
    /// stale wakeups are harmless no-ops for a well-written agent.
    pub fn wake_at(&mut self, t: Time) {
        self.wakes.push(t);
    }

    /// Ask the world to stop after this callback returns. Used by
    /// experiment drivers when the measured workload completes.
    pub fn request_stop(&mut self) {
        *self.stop = true;
    }
}

/// An event-driven node.
pub trait Agent: Any {
    /// A packet addressed to this node has been fully processed by the
    /// device CPU and is ready for the protocol.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);

    /// A previously requested wakeup (or the bootstrap kick) fired.
    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>);

    /// Downcast support so experiment drivers can read results back out.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[derive(Debug)]
enum Ev {
    /// Packet finished traversing the link; next it pays CPU processing.
    LinkOut(Packet),
    /// Packet processed; deliver to the agent.
    Deliver(Packet),
    /// Agent wakeup.
    Wake(NodeId),
}

struct NodeSlot {
    agent: Option<Box<dyn Agent>>,
    cpu: DeviceCpu,
    /// Earliest pending Wake event for this node (dedup: scheduling a
    /// wake at or after this instant is a no-op).
    pending_wake: Option<Time>,
}

/// The simulated world.
pub struct World {
    now: Time,
    queue: EventQueue<Ev>,
    nodes: Vec<NodeSlot>,
    /// Directed links, keyed by `(src, dst)`. A flat vector: topologies
    /// are a handful of links, so the per-packet lookup in `route` is a
    /// short linear scan instead of a tuple hash.
    links: Vec<((NodeId, NodeId), LinkDir)>,
    rng: SimRng,
    stop: bool,
    events_processed: u64,
    /// Scratch outbox reused across agent callbacks (drained after each
    /// dispatch; retains capacity instead of reallocating per event).
    scratch_out: Vec<Packet>,
    /// Scratch wake-request buffer, reused like `scratch_out`.
    scratch_wakes: Vec<Time>,
    /// Fault-injected peer-stall windows: events addressed to `node`
    /// during `[from, until)` are deferred to `until`. Empty in every
    /// unfaulted run, so the per-event check is a length test.
    stalls: Vec<(NodeId, Time, Time)>,
    /// Debug-build cell-ownership tag (see [`crate::rng::IsolationTag`]):
    /// a `World` shared across experiment cells is caught even before any
    /// of its RNG streams draw.
    tag: IsolationTag,
}

/// A world is one cell, and the packet-storage free lists
/// (`longlook_wire::pool`) serve the cell that is running: emptying them
/// when it ends means the next world on this thread starts with empty
/// lists and an unchanged live heap, so what a cell allocates never
/// depends on which cells ran before it.
impl Drop for World {
    fn drop(&mut self) {
        longlook_wire::pool::reset();
    }
}

impl World {
    /// Create a world with the given experiment seed.
    pub fn new(seed: u64) -> Self {
        World {
            now: Time::ZERO,
            queue: EventQueue::default(),
            nodes: Vec::new(),
            links: Vec::new(),
            rng: SimRng::new(seed),
            stop: false,
            events_processed: 0,
            scratch_out: Vec::new(),
            scratch_wakes: Vec::new(),
            stalls: Vec::new(),
            tag: IsolationTag::default(),
        }
    }

    /// Add a node running `agent` on hardware `profile`.
    pub fn add_node(&mut self, agent: Box<dyn Agent>, profile: DeviceProfile) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            agent: Some(agent),
            cpu: DeviceCpu::new(profile),
            pending_wake: None,
        });
        // Each node contributes at least a wake plus a handful of packets
        // in a typical callback; keep the scratch buffers ahead of that.
        self.scratch_out.reserve(16);
        self.scratch_wakes.reserve(4);
        id
    }

    /// Connect `a -> b` with `cfg_ab` and `b -> a` with `cfg_ba`.
    /// Each direction gets an independent RNG stream.
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg_ab: LinkConfig, cfg_ba: LinkConfig) {
        self.queue
            .reserve_hint(cfg_ab.inflight_hint() + cfg_ba.inflight_hint());
        let rng_ab = self.rng.fork((a.0 as u64) << 32 | b.0 as u64);
        let rng_ba = self.rng.fork((b.0 as u64) << 32 | a.0 as u64);
        for (key, label) in [((a, b), "a->b"), ((b, a), "b->a")] {
            assert!(
                !self.links.iter().any(|(k, _)| *k == key),
                "link {label} {key:?} already exists"
            );
        }
        self.links.push(((a, b), LinkDir::new(cfg_ab, rng_ab)));
        self.links.push(((b, a), LinkDir::new(cfg_ba, rng_ba)));
    }

    /// Schedule a bootstrap wakeup so the node can start transmitting.
    pub fn kick(&mut self, node: NodeId) {
        self.schedule_wake(node, self.now);
    }

    /// Freeze `node` over `[from, until)`: every event addressed to it in
    /// that window (packets and wakeups alike) is deferred to `until`.
    /// Models a fault-injected peer stall — a suspended VM, a GC'd or
    /// swapped-out process — without touching agent code.
    pub fn stall_node(&mut self, node: NodeId, from: Time, until: Time) {
        if until > from {
            self.stalls.push((node, from, until));
        }
    }

    /// The deferral target if `node` is stalled at `t`: the latest `until`
    /// among windows covering `t` (windows may overlap).
    fn stall_until(&self, node: NodeId, t: Time) -> Option<Time> {
        self.stalls
            .iter()
            .filter(|&&(n, from, until)| n == node && from <= t && t < until)
            .map(|&(_, _, until)| until)
            .max()
    }

    /// Schedule a Wake for `node` at `at`, deduplicating against any
    /// earlier pending wake (agents re-request their next timer on every
    /// dispatch; without dedup the queue fills with stale duplicates).
    fn schedule_wake(&mut self, node: NodeId, at: Time) {
        let slot = &mut self.nodes[node.0 as usize];
        if slot.pending_wake.is_some_and(|p| p <= at) {
            return;
        }
        slot.pending_wake = Some(at);
        self.push(at, Ev::Wake(node));
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of simultaneously outstanding scheduled events.
    /// Correlates throughput with queue depth in bench output.
    pub fn scheduled_peak(&self) -> u64 {
        self.queue.scheduled_peak() as u64
    }

    /// Immutable access to an agent, downcast to its concrete type.
    pub fn agent<T: 'static>(&self, id: NodeId) -> &T {
        self.nodes[id.0 as usize]
            .agent
            .as_ref()
            .expect("agent is being dispatched")
            .as_any()
            .downcast_ref::<T>()
            .expect("agent type mismatch")
    }

    fn push(&mut self, at: Time, ev: Ev) {
        self.queue.push(at, ev);
    }

    /// Process one event. Returns `false` when the queue is exhausted.
    pub fn step(&mut self) -> bool {
        self.tag.check("World");
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        self.step_ev(at, ev);
        true
    }

    /// Dispatch one already-popped event (shared by `step` and the fused
    /// `run_until` loop; both check the isolation tag *before* popping so
    /// a misused World is caught even with an empty queue).
    fn step_ev(&mut self, at: Time, ev: Ev) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        if !self.stalls.is_empty() {
            let target = match &ev {
                Ev::LinkOut(pkt) | Ev::Deliver(pkt) => pkt.dst,
                Ev::Wake(node) => *node,
            };
            if let Some(until) = self.stall_until(target, at) {
                // Defer to the window end (half-open, so the re-queued
                // event at `until` is not re-stalled by the same window).
                // A deferred Wake must clear the dedup marker and re-arm
                // through schedule_wake, or later wakes would be lost.
                match ev {
                    Ev::Wake(node) => {
                        if self.nodes[node.0 as usize].pending_wake == Some(at) {
                            self.nodes[node.0 as usize].pending_wake = None;
                        }
                        self.schedule_wake(node, until);
                    }
                    deferred => self.push(until, deferred),
                }
                return;
            }
        }
        match ev {
            Ev::LinkOut(pkt) => {
                // Charge the destination's CPU, then deliver.
                let done = self.nodes[pkt.dst.0 as usize]
                    .cpu
                    .process(self.now, pkt.class);
                if done > self.now {
                    self.push(done, Ev::Deliver(pkt));
                } else {
                    self.dispatch(pkt.dst, Some(pkt));
                }
            }
            Ev::Deliver(pkt) => self.dispatch(pkt.dst, Some(pkt)),
            Ev::Wake(node) => {
                // Stale duplicates (superseded by an earlier wake) fire as
                // harmless no-ops; clear the dedup marker when the
                // earliest pending wake fires.
                if self.nodes[node.0 as usize].pending_wake == Some(self.now) {
                    self.nodes[node.0 as usize].pending_wake = None;
                }
                self.dispatch(node, None);
            }
        }
    }

    /// Run until an agent requests a stop, the queue empties, or `deadline`
    /// passes. Returns the stop reason.
    pub fn run_until(&mut self, deadline: Time) -> RunOutcome {
        loop {
            self.tag.check("World");
            if self.stop {
                return RunOutcome::Stopped;
            }
            // Fused front check: pops only an event at or before the
            // deadline, so a beyond-deadline event stays queued exactly as
            // the peek-then-step loop left it.
            match self.queue.pop_at_most(deadline) {
                Some((at, ev)) => self.step_ev(at, ev),
                None => {
                    return if self.queue.is_empty() {
                        RunOutcome::Idle
                    } else {
                        RunOutcome::DeadlineReached
                    };
                }
            }
        }
    }

    fn dispatch(&mut self, node: NodeId, pkt: Option<Packet>) {
        let mut agent = self.nodes[node.0 as usize]
            .agent
            .take()
            .expect("reentrant dispatch");
        // Reuse the world-owned scratch buffers across callbacks instead of
        // allocating fresh vectors per event. Dispatch never reenters (the
        // agent slot is taken), so `mem::take` hands out exclusive use.
        let mut out = std::mem::take(&mut self.scratch_out);
        let mut wakes = std::mem::take(&mut self.scratch_wakes);
        debug_assert!(out.is_empty() && wakes.is_empty());
        let mut stop = false;
        {
            let mut ctx = Ctx {
                now: self.now,
                node,
                out: &mut out,
                wakes: &mut wakes,
                stop: &mut stop,
            };
            match pkt {
                Some(p) => agent.on_packet(p, &mut ctx),
                None => agent.on_wakeup(&mut ctx),
            }
        }
        self.nodes[node.0 as usize].agent = Some(agent);
        if stop {
            self.stop = true;
        }
        for t in wakes.drain(..) {
            let at = if t < self.now { self.now } else { t };
            self.schedule_wake(node, at);
        }
        for pkt in out.drain(..) {
            assert_eq!(pkt.src, node, "agent spoofed src");
            self.route(pkt);
        }
        self.scratch_out = out;
        self.scratch_wakes = wakes;
    }

    fn route(&mut self, pkt: Packet) {
        let key = (pkt.src, pkt.dst);
        let link = self
            .links
            .iter_mut()
            .find(|(k, _)| *k == key)
            .map(|(_, l)| l)
            .unwrap_or_else(|| panic!("no link {:?} -> {:?}", pkt.src, pkt.dst));
        let verdict = link.transit(self.now, pkt.wire_size);
        let dup_at = link.take_dup_arrival();
        match verdict {
            Verdict::DeliverAt(at) => {
                if let Some(dup_at) = dup_at {
                    // Fault-injected duplicate: a cloned packet arriving
                    // right behind the original (FIFO at equal times).
                    let copy = pkt.clone();
                    self.push(at, Ev::LinkOut(pkt));
                    self.push(dup_at, Ev::LinkOut(copy));
                } else {
                    self.push(at, Ev::LinkOut(pkt));
                }
            }
            Verdict::Dropped(_) => {} // the network eats it; transports recover
        }
    }
}

/// Why [`World::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// An agent called [`Ctx::request_stop`].
    Stopped,
    /// No more events.
    Idle,
    /// The next event lies beyond the deadline.
    DeadlineReached,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PktClass};
    use crate::time::Dur;
    use longlook_wire::tcp::TcpSegment;

    /// What the agents below send: an empty control segment. The world
    /// never looks inside a payload.
    fn ctl() -> TcpSegment {
        TcpSegment::control(0, 0, 0, 0)
    }

    /// Replies to every packet; counts what it sees.
    struct Echo {
        peer: Option<NodeId>,
        received: Vec<(Time, u32)>,
        wakes: u32,
    }

    impl Echo {
        fn new(peer: Option<NodeId>) -> Self {
            Echo {
                peer,
                received: Vec::new(),
                wakes: 0,
            }
        }
    }

    impl Agent for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            self.received.push((ctx.now, pkt.wire_size));
            if let Some(peer) = self.peer {
                ctx.send(Packet::new(
                    ctx.node(),
                    peer,
                    pkt.flow,
                    pkt.class,
                    100,
                    ctl(),
                ));
            }
        }
        fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
            self.wakes += 1;
            if self.wakes == 1 {
                if let Some(peer) = self.peer {
                    ctx.send(Packet::new(
                        ctx.node(),
                        peer,
                        FlowId(1),
                        PktClass::Kernel,
                        1000,
                        ctl(),
                    ));
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_world(delay: Dur) -> (World, NodeId, NodeId) {
        let mut w = World::new(7);
        let b = NodeId(1);
        let a = w.add_node(Box::new(Echo::new(Some(b))), DeviceProfile::SERVER);
        let b2 = w.add_node(Box::new(Echo::new(Some(a))), DeviceProfile::SERVER);
        assert_eq!(b, b2);
        w.connect(a, b, LinkConfig::ideal(delay), LinkConfig::ideal(delay));
        (w, a, b)
    }

    #[test]
    fn ping_pong_rtt() {
        let (mut w, a, b) = two_node_world(Dur::from_millis(6));
        w.kick(a);
        // Run a few exchanges then stop by deadline.
        w.run_until(Time::ZERO + Dur::from_millis(100));
        let echo_b = w.agent::<Echo>(b);
        assert!(!echo_b.received.is_empty());
        // First arrival at b is one-way delay (+ negligible CPU).
        let (t, size) = echo_b.received[0];
        assert_eq!(size, 1000);
        assert!(
            t >= Time::ZERO + Dur::from_millis(6) && t < Time::ZERO + Dur::from_millis(7),
            "t = {t}"
        );
        // a receives replies 2 one-way delays after sending.
        let echo_a = w.agent::<Echo>(a);
        assert!(!echo_a.received.is_empty());
        assert!(echo_a.received[0].0 >= Time::ZERO + Dur::from_millis(12));
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut w, a, b) = two_node_world(Dur::from_millis(3));
            w.kick(a);
            w.run_until(Time::ZERO + Dur::from_millis(50));
            (
                w.agent::<Echo>(a).received.clone(),
                w.agent::<Echo>(b).received.clone(),
                w.events_processed(),
            )
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.0, r2.0);
        assert_eq!(r1.1, r2.1);
        assert_eq!(r1.2, r2.2);
    }

    #[test]
    fn deadline_stops_run() {
        let (mut w, a, _) = two_node_world(Dur::from_millis(10));
        w.kick(a);
        let outcome = w.run_until(Time::ZERO + Dur::from_millis(15));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert!(w.now() <= Time::ZERO + Dur::from_millis(15));
    }

    #[test]
    fn idle_when_no_events() {
        let mut w = World::new(1);
        assert_eq!(w.run_until(Time::MAX), RunOutcome::Idle);
        assert!(!w.step());
    }

    #[test]
    fn cpu_cost_delays_delivery() {
        struct Sink {
            got_at: Option<Time>,
        }
        impl Agent for Sink {
            fn on_packet(&mut self, _p: Packet, ctx: &mut Ctx<'_>) {
                self.got_at = Some(ctx.now);
            }
            fn on_wakeup(&mut self, _ctx: &mut Ctx<'_>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Src {
            dst: NodeId,
        }
        impl Agent for Src {
            fn on_packet(&mut self, _p: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(Packet::new(
                    ctx.node(),
                    self.dst,
                    FlowId(0),
                    PktClass::Userspace,
                    1200,
                    ctl(),
                ));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(3);
        let sink_id = NodeId(0);
        let sink = w.add_node(Box::new(Sink { got_at: None }), DeviceProfile::MOTOG);
        assert_eq!(sink, sink_id);
        let src = w.add_node(Box::new(Src { dst: sink }), DeviceProfile::SERVER);
        w.connect(
            src,
            sink,
            LinkConfig::ideal(Dur::ZERO),
            LinkConfig::ideal(Dur::ZERO),
        );
        w.kick(src);
        w.run_until(Time::MAX);
        let got = w.agent::<Sink>(sink).got_at.expect("delivered");
        // MotoG userspace cost is 400us.
        assert_eq!(got, Time::ZERO + Dur::from_micros(400));
    }

    #[test]
    fn stop_request_halts_world() {
        struct Stopper;
        impl Agent for Stopper {
            fn on_packet(&mut self, _p: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
                ctx.request_stop();
                ctx.wake_at(ctx.now + Dur::from_secs(1)); // should never fire
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(1);
        let n = w.add_node(Box::new(Stopper), DeviceProfile::SERVER);
        w.kick(n);
        assert_eq!(w.run_until(Time::MAX), RunOutcome::Stopped);
        assert_eq!(w.now(), Time::ZERO);
    }

    #[test]
    fn stalled_node_defers_packets_and_wakes() {
        let (mut w, a, b) = two_node_world(Dur::from_millis(1));
        w.stall_node(b, Time::ZERO, Time::ZERO + Dur::from_millis(50));
        w.kick(a);
        w.kick(b);
        w.run_until(Time::ZERO + Dur::from_millis(200));
        let echo_b = w.agent::<Echo>(b);
        assert!(
            echo_b.wakes >= 1,
            "deferred wake must still fire (no livelock)"
        );
        assert!(!echo_b.received.is_empty());
        // a's first packet would arrive at ~1ms; the stall pushes it to 50ms.
        assert!(
            echo_b.received[0].0 >= Time::ZERO + Dur::from_millis(50),
            "delivery not deferred: {:?}",
            echo_b.received[0].0
        );
        // After the window everything flows: a got echoes back.
        assert!(!w.agent::<Echo>(a).received.is_empty());
    }

    #[test]
    fn stall_of_one_node_leaves_peer_running() {
        let (mut w, a, b) = two_node_world(Dur::from_millis(1));
        w.stall_node(b, Time::ZERO, Time::ZERO + Dur::from_millis(30));
        w.kick(a);
        w.run_until(Time::ZERO + Dur::from_millis(10));
        // a woke and sent normally; b has processed nothing yet.
        assert_eq!(w.agent::<Echo>(a).wakes, 1);
        assert!(w.agent::<Echo>(b).received.is_empty());
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn routing_to_unconnected_node_panics() {
        struct Bad;
        impl Agent for Bad {
            fn on_packet(&mut self, _p: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(Packet::new(
                    ctx.node(),
                    NodeId(99),
                    FlowId(0),
                    PktClass::Kernel,
                    100,
                    ctl(),
                ));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(1);
        let n = w.add_node(Box::new(Bad), DeviceProfile::SERVER);
        w.kick(n);
        w.run_until(Time::MAX);
    }
}
