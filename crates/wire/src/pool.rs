//! Recycled packet storage: the frame and block vectors of the typed
//! packets themselves ([`take_frames`], [`take_blocks`]).
//!
//! A typed packet's vectors cannot balance per connection: a
//! `Vec<Frame>` or a block vector is born at the endpoint that builds the
//! packet and dies at the one that consumes it, and a bulk sender builds
//! far more than it receives. Both endpoints of a simulated connection run
//! on one thread, so the free lists for those vectors are per *thread*: the
//! builder [`take_frames`] / [`take_blocks`], the consumer hands the spent
//! vector back with [`give_frames`] / [`give_blocks`]. Each list holds at
//! most [`FREE_LIST_CAP`] empty vectors; a packet the network drops simply
//! frees its storage. Only capacity is recycled — a taken vector is always
//! empty — so the lists are invisible to determinism at any worker
//! count. They are emptied at every cell boundary ([`reset`]), so
//! allocation counts are history-free too.

use crate::quic::{AckBlock, Frame};
use std::cell::RefCell;

/// Bound on each per-thread free list; beyond it a returned vector is
/// dropped. The lists only have to absorb the swing between what one
/// endpoint builds and the other consumes within a delivery burst — the
/// rest of a window's vectors are inside packets in flight. 32 leaves the
/// observatory's `sweep_grid` peak heap where it was; 64 saved another 2 %
/// of that workload's allocations and cost it 8 % of peak heap.
pub const FREE_LIST_CAP: usize = 32;

/// A fixed-capacity stack of empty vectors. The slots are inline, so the
/// list itself never allocates and never remembers having been fuller.
struct FreeList<T> {
    len: usize,
    slots: [Vec<T>; FREE_LIST_CAP],
}

impl<T> FreeList<T> {
    const fn new() -> Self {
        FreeList {
            len: 0,
            slots: [const { Vec::new() }; FREE_LIST_CAP],
        }
    }

    fn take(&mut self) -> Vec<T> {
        match self.len.checked_sub(1) {
            Some(top) => {
                self.len = top;
                std::mem::take(&mut self.slots[top])
            }
            None => Vec::new(),
        }
    }

    fn give(&mut self, v: Vec<T>) {
        debug_assert!(v.is_empty());
        if v.capacity() > 0 && self.len < FREE_LIST_CAP {
            self.slots[self.len] = v;
            self.len += 1;
        }
    }

    fn clear(&mut self) {
        self.slots[..self.len].fill_with(Vec::new);
        self.len = 0;
    }
}

thread_local! {
    static FRAME_VECS: RefCell<FreeList<Frame>> = const { RefCell::new(FreeList::new()) };
    static BLOCK_VECS: RefCell<FreeList<AckBlock>> = const { RefCell::new(FreeList::new()) };
}

/// Empty this thread's free lists. `World` does this when it is dropped,
/// so what a cell allocates never depends on which cells ran on its
/// thread before it: allocation counts and peak heap repeat exactly, pass
/// after pass, which the observatory's `allocs_k` and `peak_heap_mb` rely
/// on.
pub fn reset() {
    FRAME_VECS.with(|l| l.borrow_mut().clear());
    BLOCK_VECS.with(|l| l.borrow_mut().clear());
}

/// An empty frame vector for a packet under construction, recycled from
/// this thread's free list when it has one.
pub fn take_frames() -> Vec<Frame> {
    FRAME_VECS.with(|l| l.borrow_mut().take())
}

/// Hand back a consumed packet's frame vector. Frames still in it are
/// dropped, their ack blocks going to [`give_blocks`].
pub fn give_frames(mut frames: Vec<Frame>) {
    for f in frames.drain(..) {
        if let Frame::Ack { blocks, .. } = f {
            give_blocks(blocks);
        }
    }
    FRAME_VECS.with(|l| l.borrow_mut().give(frames));
}

/// An empty `(u64, u64)` range vector — a QUIC ack frame's blocks or a
/// TCP segment's SACK blocks, which have the same shape — recycled from
/// this thread's free list when it has one.
pub fn take_blocks() -> Vec<AckBlock> {
    BLOCK_VECS.with(|l| l.borrow_mut().take())
}

/// Hand back the block vector of a processed ack.
pub fn give_blocks(mut blocks: Vec<AckBlock>) {
    blocks.clear();
    BLOCK_VECS.with(|l| l.borrow_mut().give(blocks));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_and_block_vectors_come_back_empty_with_their_capacity() {
        // Own thread: the lists are thread-local, other tests' traffic
        // must not show up here.
        std::thread::spawn(|| {
            assert_eq!(take_frames().capacity(), 0, "fresh thread, empty list");
            let mut blocks = take_blocks();
            blocks.extend([(5, 9), (1, 2)]);
            let blocks_cap = blocks.capacity();
            let mut frames = take_frames();
            frames.push(Frame::Ping);
            frames.push(Frame::Ack {
                largest: 9,
                ack_delay_us: 0,
                blocks,
            });
            let frames_cap = frames.capacity();
            give_frames(frames);
            let (frames, blocks) = (take_frames(), take_blocks());
            assert!(frames.is_empty() && blocks.is_empty());
            assert_eq!(frames.capacity(), frames_cap);
            assert_eq!(blocks.capacity(), blocks_cap, "the ack's blocks rode along");
        })
        .join()
        .expect("pool thread");
    }

    #[test]
    fn reset_empties_both_lists() {
        std::thread::spawn(|| {
            give_blocks(Vec::with_capacity(4));
            give_frames(Vec::with_capacity(4));
            reset();
            assert_eq!(take_blocks().capacity(), 0);
            assert_eq!(take_frames().capacity(), 0);
        })
        .join()
        .expect("pool thread");
    }

    #[test]
    fn free_lists_are_bounded_and_skip_unallocated_vectors() {
        std::thread::spawn(|| {
            give_blocks(Vec::new());
            assert_eq!(take_blocks().capacity(), 0, "nothing worth parking");
            for _ in 0..FREE_LIST_CAP + 10 {
                give_blocks(Vec::with_capacity(4));
            }
            let parked = (0..FREE_LIST_CAP + 10)
                .filter(|_| take_blocks().capacity() > 0)
                .count();
            assert_eq!(parked, FREE_LIST_CAP);
        })
        .join()
        .expect("pool thread");
    }
}
