//! Counting global allocator: every heap allocation of the bench binary
//! (and therefore of every longlook crate it calls) is counted on its way
//! to the system allocator.
//!
//! The counters are per thread. Every timed region runs on the main
//! thread alone, so a pass's counts are the whole program's and repeat
//! exactly; per-thread cells also keep the counts exact under `cargo
//! test`'s parallel test threads and cost a plain add where a shared
//! atomic would cost a locked one on every allocation. A block freed on
//! another thread than it was allocated on skews both threads' `live`;
//! nothing measured here does that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

/// One thread's counters.
struct Counters {
    allocs: Cell<u64>,
    bytes: Cell<u64>,
    // Signed: a thread that frees a block another thread allocated (the
    // test harness does) goes below zero instead of wrapping.
    live: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor fails at thread exit.
    static COUNTERS: Counters = const {
        Counters {
            allocs: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

#[inline]
fn on_alloc(size: usize) {
    COUNTERS.with(|c| {
        c.allocs.set(c.allocs.get() + 1);
        c.bytes.set(c.bytes.get() + size as u64);
        let live = c.live.get() + size as i64;
        c.live.set(live);
        c.peak.set(c.peak.get().max(live));
    });
}

#[inline]
fn on_free(size: usize) {
    COUNTERS.with(|c| c.live.set(c.live.get() - size as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are thread-local cells
// and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from this allocator with this `layout`, and
        // this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block (see
        // `dealloc`); `new_size` is the caller's, passed through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A grow or shrink is one allocation of the new size and one
            // release of the old, which is what it costs the program.
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// The calling thread's counter values since its last [`reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations made (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested over all allocations.
    pub bytes: u64,
    /// Bytes live now.
    pub live: i64,
    /// Highest value `live` reached.
    pub peak: i64,
}

/// Read the calling thread's counters.
pub fn snapshot() -> Snapshot {
    COUNTERS.with(|c| Snapshot {
        allocs: c.allocs.get(),
        bytes: c.bytes.get(),
        live: c.live.get(),
        peak: c.peak.get(),
    })
}

/// Start a new measuring interval: zero `allocs` and `bytes`, and restart
/// `peak` from what is live now. `live` itself is never reset — blocks
/// allocated before the interval may be freed inside it.
pub fn reset() {
    COUNTERS.with(|c| {
        c.allocs.set(0);
        c.bytes.set(0);
        c.peak.set(c.live.get());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_pattern_gives_exact_counts_and_peak() {
        reset();
        let base = snapshot();
        assert_eq!((base.allocs, base.bytes), (0, 0));
        assert_eq!(base.peak, base.live);

        let a = std::hint::black_box(vec![0u8; 1000]);
        let b = std::hint::black_box(vec![0u8; 3000]);
        drop(a);
        let c = std::hint::black_box(vec![0u8; 500]);
        let s = snapshot();
        assert_eq!(s.allocs, 3);
        assert_eq!(s.bytes, 4500);
        // Peak was a + b; now b + c are live.
        assert_eq!(s.peak - base.live, 4000);
        assert_eq!(s.live - base.live, 3500);
        drop((b, c));
        let end = snapshot();
        assert_eq!(end.live, base.live);
        assert_eq!(end.peak - base.live, 4000, "peak survives the frees");
    }

    #[test]
    fn realloc_counts_once_and_tracks_the_new_size() {
        reset();
        let base = snapshot();
        let mut v: Vec<u8> = Vec::with_capacity(100);
        v.extend_from_slice(&[1; 100]);
        v.reserve_exact(900); // grows 100 -> 1000 through realloc
        let v = std::hint::black_box(v);
        let s = snapshot();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.bytes, 1100);
        assert_eq!(s.live - base.live, v.capacity() as i64);
        drop(v);
        assert_eq!(snapshot().live, base.live);
    }

    #[test]
    fn reset_restarts_peak_from_live() {
        let keep = std::hint::black_box(vec![0u8; 2048]);
        drop(std::hint::black_box(vec![0u8; 1 << 20]));
        reset();
        let s = snapshot();
        assert_eq!(s.peak, s.live, "the freed megabyte is forgotten");
        drop(keep);
    }
}
