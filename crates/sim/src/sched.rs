//! The event queue of the discrete-event world and of the fleet loop.
//!
//! [`EventQueue`] is a hierarchical timing wheel: near-future events land
//! in fixed-width ring slots, far-future events wait in an overflow heap
//! that refills the wheel as the cursor advances.
//!
//! It pops in ascending `(Time, seq)` order, where `seq` is the
//! queue-assigned push sequence number — exactly the order of the
//! `BinaryHeap<(Time, seq)>` it replaced. That total order is what makes
//! simulation replay bit-identical, so the wheel never approximates it.
//! The binary heap survives as the oracle of
//! `wheel_matches_heap_under_interleaved_ops` (`tests/oracle/`), which
//! holds every method below to it.
//!
//! # Wheel layout
//!
//! Every pending event lives in one slab, a `Vec` of nodes: its payload is
//! written there once, at push, and read out once, at pop. Free nodes chain
//! through a `u32` link, so a freed node is the next push's. Everything
//! else holds `(at, seq, index)` keys or `u32` node links, never a payload.
//! The price is locality: a queue far deeper than the caches (10^5 events
//! held for seconds) pays a cache miss per long-lived event. The world and
//! the fleet's link loop hold a few hundred.
//!
//! The timeline is quantized into ticks of `2^SLOT_SHIFT` ns (128 µs) and
//! the wheel covers a ring of [`SLOTS`] consecutive ticks (~268 ms). With
//! the testbed's 36–54 ms RTTs, retransmission timers, pacing wakes,
//! link-transit completions, the fleet's acks (queueing, serialisation,
//! an RTT and server time) and TCP's 2-RTT handshakes all land inside the
//! ring; only idle timeouts and `Time::MAX`-style "never" wakes overflow.
//!
//! * Events whose tick equals the cursor's current tick have their keys in
//!   `active`, a vector sorted **descending** by `(at, seq)` so the next
//!   event pops from the end in O(1).
//! * Events in `(cursor, cursor + SLOTS)` ticks sit on their slot's list:
//!   the slot is a `u32` head, and its nodes chain through the same link
//!   the free list uses, in no particular order. A 2048-bit occupancy
//!   bitmap finds the next non-empty slot with `trailing_zeros` scans.
//! * Events at `>= cursor + SLOTS` ticks have their keys in the overflow
//!   heap.
//!
//! Advancing the cursor jumps straight to `min(next occupied slot tick,
//! overflow peek tick)`, drains newly-in-horizon overflow keys into their
//! slots, walks the target slot's list into `active`, and sorts it (exact:
//! `(at, seq)` keys are unique). Sorting, inserting and sifting move
//! 24-byte keys, whatever the payload's size.
//!
//! # Allocation
//!
//! The queue owns four buffers: the slab, `active`, the overflow heap's
//! vector and the ring of slot heads. The ring is allocated once; the other
//! three grow by doubling to the high-water mark of what they held, so a
//! queue allocates O(log peak) times over its life, however many slots it
//! touches. [`EventQueue::reset`] keeps every buffer, so a reset queue that
//! replays what it held before does not allocate at all.
//!
//! # Why the order is exact
//!
//! 1. Every live event's tick is `>= cursor` (pushes are never in the past
//!    relative to the popped front, and the cursor only advances to the
//!    minimum live tick).
//! 2. Every slot-resident tick is `< cursor + SLOTS`, so a ring index holds
//!    events of exactly one tick — ring distance from the cursor orders
//!    slots by tick.
//! 3. Overflow entries always have ticks `>= cursor + SLOTS` (they are
//!    drained into the ring whenever the horizon moves past them), so
//!    nothing in overflow can precede anything in the ring; the `min` in
//!    the advance target is defensive.
//! 4. Within a tick, `sort_unstable` over unique `(at, seq)` keys yields
//!    the same order the heap would, whatever order the slot's list held
//!    them in; the slab index in a key never decides a comparison.
//! 5. [`EventQueue::quiet_through`] reads without advancing: by 1–3, a
//!    non-empty `active` holds the earliest event at its end; when it is
//!    empty, nothing is due at or before `t` if `t`'s tick is the cursor's
//!    or earlier, or if the nearest occupied ring slot lies past `t`'s
//!    tick and the overflow's earliest key is later than `t`. An occupied
//!    slot in `t`'s own tick answers `false` without looking inside, so
//!    `true` is exact and `false` may be conservative. Leaving the cursor
//!    alone keeps the horizon, and with it where the next pushes land,
//!    exactly where a pop-only caller would leave it.

use crate::time::Time;
use longlook_wire::SchedKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

/// log2 of the wheel slot width in nanoseconds (2^17 ns = 131.072 µs).
const SLOT_SHIFT: u32 = 17;
/// Number of ring slots; the wheel horizon is `SLOTS << SLOT_SHIFT` ns
/// (~268 ms).
const SLOTS: usize = 2048;
/// Occupancy bitmap words (64 slots per word).
const WORDS: usize = SLOTS / 64;
/// The end of a node list: an empty slot, or the free list's last node.
const NIL: u32 = u32::MAX;

#[inline]
fn tick_of(at: Time) -> u64 {
    at.tick(SLOT_SHIFT)
}

/// An event's total-order key `(at, seq)` and its node's slab index.
type Key = (Time, u64, u32);

/// A slab node: a pending event, or a free node on the free list.
struct Node<T> {
    at: Time,
    seq: u64,
    /// Next node on the same slot's list or on the free list.
    next: u32,
    /// `None` exactly while the node is free.
    item: Option<T>,
}

/// Hierarchical timing-wheel scheduler. See the module docs for layout and
/// the exact-order argument.
pub struct EventQueue<T> {
    /// Tick currently being drained; lower bound on every live tick.
    cursor: u64,
    /// Keys of the cursor tick (plus defensively any pushed-in-the-past
    /// event), sorted descending by `(at, seq)` — next event at the end.
    active: Vec<Key>,
    /// Ring of per-tick list heads for ticks in `(cursor, cursor+SLOTS)`.
    heads: Box<[u32]>,
    /// One bit per slot: set iff the slot's list is non-empty.
    occ: [u64; WORDS],
    /// Keys of events at ticks `>= cursor + SLOTS`.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Every pending event's payload, and the free nodes between them.
    nodes: Vec<Node<T>>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
    seq: u64,
    len: usize,
    peak: usize,
}

impl<T> Default for EventQueue<T> {
    /// An empty wheel with the cursor at the origin.
    fn default() -> Self {
        EventQueue {
            cursor: 0,
            active: Vec::new(),
            heads: vec![NIL; SLOTS].into_boxed_slice(),
            occ: [0; WORDS],
            overflow: BinaryHeap::new(),
            nodes: Vec::new(),
            free: NIL,
            seq: 0,
            len: 0,
            peak: 0,
        }
    }
}

impl<T> EventQueue<T> {
    // Sole caller: `observatory/` (frozen); everything else constructs
    // with `Default`.
    #[doc(hidden)]
    pub fn new(_: SchedKind) -> Self {
        EventQueue::default()
    }

    /// Schedule `item` at `at`, after everything already scheduled there.
    pub fn push(&mut self, at: Time, item: T) {
        self.seq += 1;
        self.len += 1;
        self.peak = self.peak.max(self.len);
        let node = Node {
            at,
            seq: self.seq,
            next: NIL,
            item: Some(item),
        };
        let idx = if self.free == NIL {
            assert!(
                self.nodes.len() < NIL as usize,
                "the slab holds at most 2^32 - 1 events"
            );
            let idx = self.nodes.len() as u32;
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = mem::replace(&mut self.nodes[idx as usize], node).next;
            idx
        };
        let key = (at, self.seq, idx);
        let t = tick_of(at);
        if t <= self.cursor {
            // Cursor tick (or a defensive past push): keep `active` sorted
            // by inserting at the descending-order position. Same-key
            // events can't exist (seq is unique), so the position is exact.
            let pos = self.active.partition_point(|&k| k > key);
            self.active.insert(pos, key);
        } else if t < self.cursor + SLOTS as u64 {
            self.link(t, idx);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Remove and return the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(Time, T)> {
        self.front()?;
        Some(self.take_front())
    }

    /// Pop the earliest event iff it is at or before `deadline`: the
    /// world's event loop in one front check.
    pub fn pop_at_most(&mut self, deadline: Time) -> Option<(Time, T)> {
        let (at, _, _) = self.front()?;
        (at <= deadline).then(|| self.take_front())
    }

    /// Pop the earliest event iff `pred` approves it; the fleet loop
    /// takes a queue event only if it is due before the next deadline.
    pub fn pop_if(&mut self, pred: impl FnOnce(Time, &T) -> bool) -> Option<(Time, T)> {
        let (at, _, idx) = self.front()?;
        let item = self.nodes[idx as usize].item.as_ref().expect("live node");
        pred(at, item).then(|| self.take_front())
    }

    /// Whether no pending event is due at or before `t`, answered without
    /// moving the cursor. `true` is exact; `false` may be conservative:
    /// an occupied slot in `t`'s own tick answers `false` even when all
    /// its events are later than `t`.
    pub fn quiet_through(&self, t: Time) -> bool {
        if let Some(&(at, _, _)) = self.active.last() {
            // `active` is non-empty only while it holds the earliest event.
            return at > t;
        }
        let tick = tick_of(t);
        tick <= self.cursor
            || (self.next_occupied_tick().is_none_or(|w| w > tick)
                && self.overflow.peek().is_none_or(|Reverse(k)| k.0 > t))
    }

    /// Outstanding event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of outstanding events over the queue's lifetime.
    pub fn scheduled_peak(&self) -> usize {
        self.peak
    }

    /// Return to the just-constructed state — cursor at the origin,
    /// sequence counter and peak rewound, every event discarded — while
    /// keeping all allocations (slab, `active`, overflow heap, ring). A
    /// reset wheel is observationally identical to a fresh one — same pop
    /// order, same tie-breaks, same peak accounting — which is what lets
    /// the fleet run link after link through one queue and still match a
    /// threaded shard's fresh one.
    pub fn reset(&mut self) {
        self.active.clear();
        self.heads.fill(NIL);
        self.occ = [0; WORDS];
        self.overflow.clear();
        self.nodes.clear();
        self.free = NIL;
        self.cursor = 0;
        self.seq = 0;
        self.len = 0;
        self.peak = 0;
    }

    /// Pre-size internal storage for roughly `n` concurrently outstanding
    /// events (a hint; the queue grows on demand regardless).
    pub fn reserve_hint(&mut self, n: usize) {
        self.active.reserve(n.min(64));
        self.nodes.reserve(n.saturating_sub(self.nodes.len()));
    }

    /// The earliest event's key, loading the next live tick into `active`
    /// first if the cursor tick is spent.
    #[inline]
    fn front(&mut self) -> Option<Key> {
        if self.active.is_empty() && !self.advance() {
            return None;
        }
        self.active.last().copied()
    }

    /// Pop the front key and hand its node to the free list.
    #[inline]
    fn take_front(&mut self) -> (Time, T) {
        let (at, _, idx) = self.active.pop().expect("front loaded an event");
        let node = &mut self.nodes[idx as usize];
        let item = node.item.take().expect("live node");
        node.next = self.free;
        self.free = idx;
        self.len -= 1;
        (at, item)
    }

    /// Put node `idx`, due at tick `t`, on its ring slot's list.
    fn link(&mut self, t: u64, idx: u32) {
        debug_assert!(t > self.cursor && t < self.cursor + SLOTS as u64);
        let slot = (t % SLOTS as u64) as usize;
        let head = mem::replace(&mut self.heads[slot], idx);
        debug_assert!(
            head == NIL || tick_of(self.nodes[head as usize].at) == t,
            "slot holds two rotations"
        );
        if head == NIL {
            self.occ[slot / 64] |= 1 << (slot % 64);
        }
        self.nodes[idx as usize].next = head;
    }

    /// Move the cursor to the next live tick and load its events into
    /// `active`. Returns false when the queue is empty.
    fn advance(&mut self) -> bool {
        debug_assert!(self.active.is_empty());
        let wheel_next = self.next_occupied_tick();
        let over_next = self.overflow.peek().map(|Reverse((at, _, _))| tick_of(*at));
        // Overflow ticks are always >= cursor + SLOTS (see module docs), so
        // when the ring is non-empty the ring wins; the `min` is defensive.
        let target = match (wheel_next, over_next) {
            (None, None) => return false,
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (Some(w), Some(o)) => w.min(o),
        };
        self.cursor = target;
        if wheel_next == Some(target) {
            let slot = (target % SLOTS as u64) as usize;
            self.occ[slot / 64] &= !(1 << (slot % 64));
            let mut idx = mem::replace(&mut self.heads[slot], NIL);
            while idx != NIL {
                let node = &self.nodes[idx as usize];
                self.active.push((node.at, node.seq, idx));
                idx = node.next;
            }
        }
        // The horizon moved: drain newly coverable overflow keys. Ticks
        // equal to the new cursor go straight to `active`.
        while let Some(&Reverse(key)) = self.overflow.peek() {
            let t = tick_of(key.0);
            if t >= target + SLOTS as u64 {
                break;
            }
            self.overflow.pop();
            if t == target {
                self.active.push(key);
            } else {
                self.link(t, key.2);
            }
        }
        // Exact total order: keys are unique, so unstable sort is fine.
        self.active.sort_unstable_by(|a, b| b.cmp(a));
        debug_assert!(!self.active.is_empty(), "advance picked an empty tick");
        true
    }

    /// Tick of the nearest occupied ring slot after the cursor, scanning
    /// the occupancy bitmap in ring order.
    fn next_occupied_tick(&self) -> Option<u64> {
        let cursor_idx = (self.cursor % SLOTS as u64) as usize;
        let start = (cursor_idx + 1) % SLOTS;
        let (w0, b0) = (start / 64, start % 64);
        let first = self.occ[w0] >> b0;
        let found = if first != 0 {
            Some(start + first.trailing_zeros() as usize)
        } else {
            (1..=WORDS).find_map(|k| {
                let w = (w0 + k) % WORDS;
                let word = if w == w0 {
                    // Wrapped all the way around: only bits before `start`.
                    self.occ[w0] & ((1u64 << b0) - 1)
                } else {
                    self.occ[w]
                };
                (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
            })
        }?;
        debug_assert_ne!(found, cursor_idx, "cursor slot must drain to active");
        let dist = (found + SLOTS - cursor_idx) % SLOTS;
        Some(self.cursor + dist as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut EventQueue<T>) -> Vec<(Time, T)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn fifo_within_equal_time() {
        let mut q = EventQueue::default();
        let t = Time::from_nanos(5_000_000);
        for i in 0..10u32 {
            q.push(t, i);
        }
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn equal_time_fifo_survives_slot_boundary_and_overflow_refill() {
        // Same-instant events pushed before and after intervening pops that
        // advance the cursor across slot boundaries and drain overflow.
        let mut q = EventQueue::default();
        let far = Time::from_nanos((2 * SLOTS as u64) << SLOT_SHIFT); // overflow tick
        q.push(far, 0u32);
        q.push(far, 1);
        q.push(Time::from_nanos(100), 2); // near event forces an early advance
        assert_eq!(q.pop().map(|(_, i)| i), Some(2));
        q.push(far, 3); // same instant, pushed after a cursor advance
        let rest: Vec<u32> = drain(&mut q).into_iter().map(|(_, i)| i).collect();
        assert_eq!(rest, vec![0, 1, 3]);
    }

    #[test]
    fn time_max_adjacent_events_order_correctly() {
        let mut q = EventQueue::default();
        q.push(Time::MAX, 'z');
        q.push(Time::from_nanos(u64::MAX - 1), 'y');
        q.push(Time::ZERO, 'a');
        q.push(Time::MAX, 'w'); // FIFO after the first MAX event
        let order: Vec<char> = drain(&mut q).into_iter().map(|(_, c)| c).collect();
        assert_eq!(order, vec!['a', 'y', 'z', 'w']);
    }

    #[test]
    fn push_at_cursor_tick_while_draining() {
        // An agent scheduling a wake at `now` must run after events already
        // queued for `now` but before later times — even mid-drain.
        let mut q = EventQueue::default();
        let t = Time::from_nanos(50);
        q.push(t, 0u32);
        q.push(t, 1);
        assert_eq!(q.pop().map(|(_, i)| i), Some(0));
        q.push(t, 2); // same time, mid-drain
        q.push(Time::from_nanos(51), 3);
        let rest: Vec<u32> = drain(&mut q).into_iter().map(|(_, i)| i).collect();
        assert_eq!(rest, vec![1, 2, 3]);
    }

    #[test]
    fn overflow_refills_wheel_in_order() {
        let mut q = EventQueue::default();
        // Spread events over eight horizons; every refill must preserve
        // global order. The stride is an odd number of half-ticks, so the
        // events straddle slot widths.
        let stride = 2 * SLOTS as u64 / 5;
        let times: Vec<u64> = (0..40).map(|i| (i * stride) << (SLOT_SHIFT - 1)).collect();
        // Push in reverse so push order disagrees with time order.
        for (i, &ns) in times.iter().enumerate().rev() {
            q.push(Time::from_nanos(ns), i);
        }
        let popped: Vec<u64> = drain(&mut q)
            .into_iter()
            .map(|(t, _)| t.as_nanos())
            .collect();
        let mut want = times.clone();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    #[test]
    fn len_and_peak_track_outstanding_events() {
        let mut q = EventQueue::default();
        assert_eq!(q.scheduled_peak(), 0);
        for i in 0..5u64 {
            q.push(Time::from_nanos(i * 1_000_000), i);
        }
        assert_eq!(q.len(), 5);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 3);
        q.push(Time::from_nanos(9_000_000), 9);
        assert_eq!(q.scheduled_peak(), 5);
    }

    #[test]
    fn reserve_hint_is_harmless() {
        let mut q = EventQueue::default();
        q.reserve_hint(256);
        q.push(Time::ZERO, 1u8);
        assert_eq!(q.pop(), Some((Time::ZERO, 1)));
    }

    #[test]
    fn reset_queue_is_observationally_fresh() {
        // Run a workload, reset, run it again: pop order (including
        // same-time tie-breaks, which depend on the rewound seq counter),
        // len, and scheduled_peak must all match a brand-new queue's.
        let mut reused = EventQueue::default();
        let workload = |q: &mut EventQueue<u32>| {
            q.push(Time::from_nanos(40 << SLOT_SHIFT), 0); // far slot
            q.push(Time::from_nanos(5), 1);
            q.push(Time::from_nanos(5), 2); // FIFO tie with 1
            q.push(Time::from_nanos((2 * SLOTS as u64) << SLOT_SHIFT), 3); // overflow
            let order: Vec<(Time, u32)> = drain(q);
            (order, q.scheduled_peak())
        };
        let first = workload(&mut reused);
        reused.reset();
        assert!(reused.is_empty(), "reset left events behind");
        assert_eq!(reused.scheduled_peak(), 0, "peak survived");
        let again = workload(&mut reused);
        let fresh = workload(&mut EventQueue::default());
        assert_eq!(again, fresh, "reset queue diverged");
        assert_eq!(first, fresh, "workload not repeatable");
    }

    #[test]
    fn reset_mid_drain_discards_pending_events() {
        // Reset with events still queued (active, slots, and overflow all
        // populated): everything must vanish and the queue behave fresh.
        let mut q = EventQueue::default();
        q.push(Time::from_nanos(3), 'a');
        q.push(Time::from_nanos(3), 'b');
        q.push(Time::from_nanos(9 << SLOT_SHIFT), 'c');
        q.push(Time::from_nanos((4 * SLOTS as u64) << SLOT_SHIFT), 'd');
        assert_eq!(q.pop(), Some((Time::from_nanos(3), 'a'))); // loads active
        q.reset();
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        q.push(Time::from_nanos(1), 'z');
        assert_eq!(q.pop(), Some((Time::from_nanos(1), 'z')));
    }
}
