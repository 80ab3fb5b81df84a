//! The binary-heap scheduler, verbatim in behaviour from when it was the
//! reference backend of `longlook_sim::sched::EventQueue`: a
//! `BinaryHeap` ordered by `(time, push sequence)`. The oracle of
//! `wheel_matches_heap_under_interleaved_ops` and
//! `randomized_wheel_matches_heap`; `earliest` is what
//! `EventQueue::quiet_through` is held to.

use longlook_sim::time::Time;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A scheduled event: payload plus its total-order key.
struct Entry<T> {
    at: Time,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The original binary-heap scheduler, generic over the event payload.
pub struct HeapSched<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
    len: usize,
    peak: usize,
}

impl<T> HeapSched<T> {
    /// An empty heap scheduler.
    pub fn new() -> Self {
        HeapSched {
            heap: BinaryHeap::new(),
            seq: 0,
            len: 0,
            peak: 0,
        }
    }

    /// Schedule `item` at `at`, after everything already scheduled there.
    pub fn push(&mut self, at: Time, item: T) {
        self.seq += 1;
        self.len += 1;
        self.peak = self.peak.max(self.len);
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            item,
        }));
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let Reverse(e) = self.heap.pop()?;
        self.len -= 1;
        Some((e.at, e.item))
    }

    /// Pop the earliest event iff it is at or before `deadline`.
    pub fn pop_at_most(&mut self, deadline: Time) -> Option<(Time, T)> {
        match self.heap.peek() {
            Some(Reverse(e)) if e.at <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Pop the earliest event iff `pred` approves it.
    pub fn pop_if(&mut self, pred: impl FnOnce(Time, &T) -> bool) -> Option<(Time, T)> {
        match self.heap.peek() {
            Some(Reverse(e)) if pred(e.at, &e.item) => self.pop(),
            _ => None,
        }
    }

    /// When the earliest event is due.
    pub fn earliest(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Outstanding event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// High-water mark of outstanding events since construction or reset.
    pub fn scheduled_peak(&self) -> usize {
        self.peak
    }

    /// Return to the just-constructed state — empty, sequence counter and
    /// peak rewound.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.len = 0;
        self.peak = 0;
    }

    /// A capacity hint; never observable.
    pub fn reserve_hint(&mut self, n: usize) {
        self.heap.reserve(n);
    }
}
