//! Generational slot allocation for dense connection storage.
//!
//! Fleet-scale worlds hold 10^5–10^6 concurrent connections; per-cell
//! `Box`/`HashMap` ownership (one allocation per connection, pointer
//! chasing per event) is exactly the layout the slab sent-store removed
//! from the 1-vs-1 cells, so the fleet substrate never introduces it.
//! Instead, per-connection state lives in one `Vec` of records indexed
//! by a *slot*, and [`SlotPool`] is the allocator that hands slots out,
//! recycles them LIFO when connections finish, and brands every handle
//! with a *generation* so a handle that outlives its connection can never
//! silently read the stranger that reused the slot.
//!
//! The pool itself costs 4 bytes per slot (the generation word) plus the
//! recycled-slot free list; the records are owned by the caller (the
//! fleet world's connection `Vec`) and sized via [`SlotPool::slots`].
//! Everything is deterministic: allocation order is a pure function of
//! the alloc/free call sequence, which the fleet world drives from its
//! seeded event loop.

/// A generational handle to one slot: the slot index plus the generation
/// the slot had when this handle was issued. Stale handles (the slot was
/// freed, and possibly reallocated, since) are detected by
/// [`SlotPool::resolve`] returning `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotHandle {
    index: u32,
    generation: u32,
}

impl SlotHandle {
    /// The raw slot index. Only meaningful while the handle is live;
    /// resolve through the pool before trusting it.
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The generation this handle was issued under.
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// Generational slot allocator backing dense per-slot records.
///
/// Generations use the low bit as the liveness flag: a slot's generation
/// is odd while allocated and even while free, so a handle is live iff
/// its recorded generation equals the slot's current (odd) generation.
/// Freeing bumps the generation, invalidating every outstanding handle
/// to that slot in O(1) without any per-handle bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct SlotPool {
    /// Per-slot generation; odd = allocated, even = free.
    generations: Vec<u32>,
    /// Recycled slot indices, LIFO (keeps the hot end of the records in
    /// cache and makes allocation order deterministic).
    free: Vec<u32>,
    live: usize,
    live_peak: usize,
}

impl SlotPool {
    /// An empty pool.
    pub fn new() -> Self {
        SlotPool::default()
    }

    /// An empty pool with room for `n` slots before the generation column
    /// reallocates.
    pub fn with_capacity(n: usize) -> Self {
        SlotPool {
            generations: Vec::with_capacity(n),
            free: Vec::new(),
            live: 0,
            live_peak: 0,
        }
    }

    /// Return to the just-constructed state — no slots, generations and
    /// the live high-water mark rewound — while keeping both vectors'
    /// capacity. A reset pool is observationally a fresh one: it issues
    /// the same handles for the same alloc/free sequence. Handles issued
    /// before the reset must not be used after it (the generations that
    /// would have rejected them are gone).
    pub fn reset(&mut self) {
        self.generations.clear();
        self.free.clear();
        self.live = 0;
        self.live_peak = 0;
    }

    /// Allocate a slot: recycle the most recently freed one, or grow the
    /// slot space by one. The caller must keep its records at least
    /// [`Self::slots`] long.
    pub fn alloc(&mut self) -> SlotHandle {
        let index = match self.free.pop() {
            Some(i) => {
                // Even (free) → odd (allocated).
                self.generations[i as usize] += 1;
                i
            }
            None => {
                let i = self.generations.len() as u32;
                assert!(i < u32::MAX, "slot space exhausted");
                self.generations.push(1);
                i
            }
        };
        self.live += 1;
        self.live_peak = self.live_peak.max(self.live);
        SlotHandle {
            index,
            generation: self.generations[index as usize],
        }
    }

    /// Free the slot behind `h`. Returns `false` (and does nothing) if
    /// the handle is stale — already freed, or freed and reallocated.
    pub fn free(&mut self, h: SlotHandle) -> bool {
        if self.resolve(h).is_none() {
            return false;
        }
        // Odd (allocated) → even (free); every outstanding handle to this
        // slot is now stale.
        self.generations[h.index as usize] = self.generations[h.index as usize].wrapping_add(1);
        self.free.push(h.index);
        self.live -= 1;
        true
    }

    /// The slot index behind `h`, or `None` if the handle is stale.
    #[inline]
    pub fn resolve(&self, h: SlotHandle) -> Option<usize> {
        let g = *self.generations.get(h.index as usize)?;
        (g == h.generation && g & 1 == 1).then_some(h.index as usize)
    }

    /// Whether `h` is still live.
    #[inline]
    pub fn contains(&self, h: SlotHandle) -> bool {
        self.resolve(h).is_some()
    }

    /// Total slots ever allocated (live + recycled); the minimum length
    /// the caller's record vector must have.
    #[inline]
    pub fn slots(&self) -> usize {
        self.generations.len()
    }

    /// Currently live slots.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of live slots.
    #[inline]
    pub fn live_peak(&self) -> usize {
        self.live_peak
    }

    /// Heap bytes the pool itself holds (generation column + free list
    /// capacities) — the allocator's share of a per-connection budget.
    pub fn bytes(&self) -> usize {
        self.generations.capacity() * std::mem::size_of::<u32>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_resolve_free_roundtrip() {
        let mut p = SlotPool::new();
        let a = p.alloc();
        let b = p.alloc();
        assert_eq!(p.live(), 2);
        assert_eq!(p.slots(), 2);
        assert_eq!(p.resolve(a), Some(0));
        assert_eq!(p.resolve(b), Some(1));
        assert!(p.free(a));
        assert_eq!(p.live(), 1);
        assert_eq!(p.resolve(a), None, "freed handle is stale");
    }

    #[test]
    fn stale_handle_rejected_after_reuse() {
        let mut p = SlotPool::new();
        let a = p.alloc();
        assert!(p.free(a));
        let b = p.alloc();
        // LIFO recycling reuses slot 0 under a new generation.
        assert_eq!(b.index(), a.index());
        assert_ne!(b.generation(), a.generation());
        assert_eq!(p.resolve(a), None, "old handle must not alias the reuser");
        assert_eq!(p.resolve(b), Some(0));
        assert!(!p.free(a), "stale free is a no-op");
        assert!(p.contains(b), "stale free must not kill the live conn");
        assert_eq!(p.live(), 1);
    }

    #[test]
    fn double_free_rejected() {
        let mut p = SlotPool::new();
        let a = p.alloc();
        assert!(p.free(a));
        assert!(!p.free(a));
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn out_of_range_handle_is_stale() {
        let p = SlotPool::new();
        let bogus = SlotHandle {
            index: 7,
            generation: 1,
        };
        assert_eq!(p.resolve(bogus), None);
    }

    #[test]
    fn live_peak_tracks_high_water() {
        let mut p = SlotPool::new();
        let hs: Vec<_> = (0..5).map(|_| p.alloc()).collect();
        for h in &hs[..3] {
            assert!(p.free(*h));
        }
        let _ = p.alloc();
        assert_eq!(p.live(), 3);
        assert_eq!(p.live_peak(), 5);
        assert_eq!(p.slots(), 5, "recycling does not grow the slot space");
    }

    #[test]
    fn reset_pool_issues_a_fresh_pools_handles_and_keeps_capacity() {
        let script = |p: &mut SlotPool| {
            let a = p.alloc();
            let b = p.alloc();
            assert!(p.free(a));
            let c = p.alloc();
            (a, b, c, p.live(), p.live_peak(), p.slots())
        };
        let mut used = SlotPool::with_capacity(64);
        let hs: Vec<_> = (0..40).map(|_| used.alloc()).collect();
        for h in &hs[..30] {
            assert!(used.free(*h));
        }
        let sized = used.bytes();
        used.reset();
        assert_eq!((used.live(), used.live_peak(), used.slots()), (0, 0, 0));
        assert_eq!(used.bytes(), sized, "reset keeps capacity");
        assert_eq!(script(&mut used), script(&mut SlotPool::new()));
    }

    #[test]
    fn pool_bytes_scale_with_slots_not_churn() {
        let mut p = SlotPool::with_capacity(64);
        let hs: Vec<_> = (0..64).map(|_| p.alloc()).collect();
        let sized = p.bytes();
        for h in hs {
            assert!(p.free(h));
        }
        for _ in 0..64 {
            let _ = p.alloc();
        }
        assert_eq!(p.slots(), 64);
        assert_eq!(p.bytes(), sized.max(p.bytes()).min(sized * 2));
    }
}
