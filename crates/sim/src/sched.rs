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
//! The timeline is quantized into ticks of `2^SLOT_SHIFT` ns (128 µs) and
//! the wheel covers a ring of [`SLOTS`] consecutive ticks (~67 ms). With the
//! baseline 36 ms RTT of the testbed's cellular profiles, almost every
//! retransmission timer, pacing wake, and link-transit completion lands
//! inside the ring; only idle timeouts and `Time::MAX`-style "never" wakes
//! overflow.
//!
//! * Events whose tick equals the cursor's current tick live in `active`,
//!   a vector sorted **descending** by `(at, seq)` so the next event pops
//!   from the end in O(1).
//! * Events in `(cursor, cursor + SLOTS)` ticks live in their slot's FIFO
//!   vector; a 512-bit occupancy bitmap finds the next non-empty slot with
//!   a handful of `trailing_zeros` scans.
//! * Events at `>= cursor + SLOTS` ticks go to the overflow heap.
//!
//! Advancing the cursor jumps straight to `min(next occupied slot tick,
//! overflow peek tick)`, drains newly-in-horizon overflow entries into
//! their slots, moves the target slot into `active`, and sorts it (exact:
//! `(at, seq)` keys are unique). Emptied slot vectors are recycled through
//! a free list, so steady-state scheduling performs no allocation.
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
//!    the same order the heap would.

use crate::time::Time;
use longlook_wire::SchedKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

/// log2 of the wheel slot width in nanoseconds (2^17 ns = 131.072 µs).
const SLOT_SHIFT: u32 = 17;
/// Number of ring slots; the wheel horizon is `SLOTS << SLOT_SHIFT` ns
/// (~67 ms).
const SLOTS: usize = 512;
/// Occupancy bitmap words (64 slots per word).
const WORDS: usize = SLOTS / 64;

#[inline]
fn tick_of(at: Time) -> u64 {
    at.tick(SLOT_SHIFT)
}

/// A scheduled event: payload plus its total-order key.
struct Entry<T> {
    at: Time,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// Heap adapter giving `Entry<T>` the `(at, seq)` order without requiring
/// `T: Ord`.
struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// Hierarchical timing-wheel scheduler. See the module docs for layout and
/// the exact-order argument.
pub struct EventQueue<T> {
    /// Tick currently being drained; lower bound on every live tick.
    cursor: u64,
    /// Events of the cursor tick (plus defensively any pushed-in-the-past
    /// event), sorted descending by `(at, seq)` — next event at the end.
    active: Vec<Entry<T>>,
    /// Ring of per-tick FIFO vectors for ticks in `(cursor, cursor+SLOTS)`.
    slots: Vec<Vec<Entry<T>>>,
    /// One bit per slot: set iff the slot vector is non-empty.
    occ: [u64; WORDS],
    /// Events at ticks `>= cursor + SLOTS`.
    overflow: BinaryHeap<Reverse<HeapEntry<T>>>,
    /// Recycled slot vectors (drained slots park their allocation here).
    free: Vec<Vec<Entry<T>>>,
    seq: u64,
    len: usize,
    peak: usize,
}

impl<T> Default for EventQueue<T> {
    /// An empty wheel with the cursor at the origin.
    fn default() -> Self {
        let mut slots = Vec::with_capacity(SLOTS);
        slots.resize_with(SLOTS, Vec::new);
        EventQueue {
            cursor: 0,
            active: Vec::new(),
            slots,
            occ: [0; WORDS],
            overflow: BinaryHeap::new(),
            free: Vec::new(),
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
        let e = Entry {
            at,
            seq: self.seq,
            item,
        };
        let t = tick_of(at);
        if t <= self.cursor {
            // Cursor tick (or a defensive past push): keep `active` sorted
            // by inserting at the descending-order position. Same-key
            // events can't exist (seq is unique), so the position is exact.
            let pos = self.active.partition_point(|x| x.key() > e.key());
            self.active.insert(pos, e);
        } else if t < self.cursor + SLOTS as u64 {
            self.slot_insert(t, e);
        } else {
            self.overflow.push(Reverse(HeapEntry(e)));
        }
    }

    /// Remove and return the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(Time, T)> {
        if self.active.is_empty() && !self.advance() {
            return None;
        }
        let e = self.active.pop().expect("advance loaded events");
        self.len -= 1;
        Some((e.at, e.item))
    }

    /// Pop the earliest event iff it is at or before `deadline`: the
    /// world's event loop in one front check.
    pub fn pop_at_most(&mut self, deadline: Time) -> Option<(Time, T)> {
        if self.active.is_empty() && !self.advance() {
            return None;
        }
        if self.active.last().expect("advance loaded events").at > deadline {
            return None;
        }
        let e = self.active.pop().expect("checked above");
        self.len -= 1;
        Some((e.at, e.item))
    }

    /// Pop the earliest event iff `pred` approves it; the fleet loop
    /// takes a queue event only if it is due before the next deadline.
    pub fn pop_if(&mut self, pred: impl FnOnce(Time, &T) -> bool) -> Option<(Time, T)> {
        if self.active.is_empty() && !self.advance() {
            return None;
        }
        let front = self.active.last().expect("advance loaded events");
        if !pred(front.at, &front.item) {
            return None;
        }
        let e = self.active.pop().expect("checked above");
        self.len -= 1;
        Some((e.at, e.item))
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
    /// keeping all allocations (slot ring capacities, free list, overflow
    /// heap). A reset wheel is observationally identical to a fresh one —
    /// same pop order, same tie-breaks, same peak accounting — which is
    /// what lets the fleet run link after link through one queue and
    /// still match a threaded shard's fresh one.
    pub fn reset(&mut self) {
        self.active.clear();
        for v in &mut self.slots {
            v.clear();
        }
        self.occ = [0; WORDS];
        self.overflow.clear();
        self.cursor = 0;
        self.seq = 0;
        self.len = 0;
        self.peak = 0;
    }

    /// Pre-size internal storage for roughly `n` concurrently outstanding
    /// events (a hint; the queue grows on demand regardless).
    pub fn reserve_hint(&mut self, n: usize) {
        self.active.reserve(n.min(64));
        // Park pre-sized vectors in the free list so the first bursts of
        // slot traffic don't allocate.
        let want = (n / 4).clamp(1, 32);
        while self.free.len() < want {
            self.free.push(Vec::with_capacity(8));
        }
    }

    fn slot_insert(&mut self, t: u64, e: Entry<T>) {
        debug_assert!(t > self.cursor && t < self.cursor + SLOTS as u64);
        let idx = (t % SLOTS as u64) as usize;
        let v = &mut self.slots[idx];
        debug_assert!(
            v.first().is_none_or(|f| tick_of(f.at) == t),
            "slot holds two rotations"
        );
        if v.is_empty() {
            if v.capacity() == 0 {
                if let Some(recycled) = self.free.pop() {
                    *v = recycled;
                }
            }
            self.occ[idx / 64] |= 1 << (idx % 64);
        }
        v.push(e);
    }

    /// Move the cursor to the next live tick and load its events into
    /// `active`. Returns false when the queue is empty.
    fn advance(&mut self) -> bool {
        debug_assert!(self.active.is_empty());
        let wheel_next = self.next_occupied_tick();
        let over_next = self
            .overflow
            .peek()
            .map(|Reverse(HeapEntry(e))| tick_of(e.at));
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
            let idx = (target % SLOTS as u64) as usize;
            self.occ[idx / 64] &= !(1 << (idx % 64));
            // `active` is empty here, so the slot vector becomes the new
            // `active` wholesale — no entry copies — and the old `active`
            // allocation parks in the free list.
            let old = mem::replace(&mut self.active, mem::take(&mut self.slots[idx]));
            if self.free.len() < SLOTS && old.capacity() > 0 {
                self.free.push(old);
            }
        }
        // The horizon moved: drain newly coverable overflow entries. Ticks
        // equal to the new cursor go straight to `active`.
        while let Some(Reverse(HeapEntry(e))) = self.overflow.peek() {
            let t = tick_of(e.at);
            if t >= target + SLOTS as u64 {
                break;
            }
            let Some(Reverse(HeapEntry(e))) = self.overflow.pop() else {
                unreachable!()
            };
            if t == target {
                self.active.push(e);
            } else {
                self.slot_insert(t, e);
            }
        }
        // Exact total order: keys are unique, so unstable sort is fine.
        self.active
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
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
        let far = Time::from_nanos((1000u64) << SLOT_SHIFT); // overflow tick
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
        // Spread events far past the initial horizon; every refill must
        // preserve global order.
        let times: Vec<u64> = (0..40)
            .map(|i| (i * 97) << (SLOT_SHIFT - 1)) // straddles slot widths
            .collect();
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
            q.push(Time::from_nanos((1000u64) << SLOT_SHIFT), 3); // overflow
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
        q.push(Time::from_nanos((2000u64) << SLOT_SHIFT), 'd');
        assert_eq!(q.pop(), Some((Time::from_nanos(3), 'a'))); // loads active
        q.reset();
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        q.push(Time::from_nanos(1), 'z');
        assert_eq!(q.pop(), Some((Time::from_nanos(1), 'z')));
    }
}
