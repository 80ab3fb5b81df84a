//! Struct-of-arrays connection state for fleet-scale worlds.
//!
//! One [`ConnArena`] holds every live connection of the bottleneck link
//! a fleet cell is running, in parallel columns indexed by a [`SlotPool`]
//! slot: the hot per-event fields (workload cursor, cwnd, RTT, flight
//! counters) sit in dense `Vec`s instead of one heap allocation per
//! connection, so an event touches two or three cache lines rather than
//! chasing a `Box` per connection, and the fleet loop [`reset`]s the
//! arena between links instead of building one per link.
//!
//! [`reset`]: ConnArena::reset
//!
//! Handles are generational ([`SlotHandle`]): an ack or deadline event
//! that arrives after its connection finished resolves to `None` and is
//! dropped, instead of silently mutating whichever connection recycled
//! the slot.

use longlook_sim::time::Time;
use longlook_sim::{SlotHandle, SlotPool};

/// Initial state for one fleet connection.
#[derive(Debug, Clone, Copy)]
pub struct ConnInit {
    /// Simulation time the client arrived.
    pub arrived: Time,
    /// Total object bytes to transfer.
    pub object: u32,
    /// Initial congestion window (bytes).
    pub cwnd: u32,
    /// Initial slow-start threshold (bytes).
    pub ssthresh: u32,
    /// Round-trip time for this client (microseconds).
    pub rtt_us: u32,
    /// Global client id `k` — the key of every per-connection hash
    /// stream. Stored so draws made after admission (per-flight loss)
    /// can key on the *client*, not the arena slot: slot assignment
    /// depends on execution grouping, client ids do not.
    pub client: u32,
}

/// Dense per-connection state, one column per field.
///
/// All columns are kept exactly `pool.slots()` long; a freed slot's
/// column entries are simply overwritten by the next connection that
/// recycles it. An arena holds the connections of *one* bottleneck link
/// at a time (the fleet loop [`reset`](ConnArena::reset)s it between
/// links), so which link a connection shares is not a column, and its
/// server pool is `client % n_servers`. Budget: [`BYTES_PER_SLOT`] —
/// an order of magnitude under the 650 B/connection acceptance budget.
///
/// [`BYTES_PER_SLOT`]: ConnArena::BYTES_PER_SLOT
#[derive(Debug, Clone, Default)]
pub struct ConnArena {
    pool: SlotPool,
    /// Arrival time (ns since sim start) — latency is measured from here.
    pub(crate) arrived_ns: Vec<u64>,
    /// Bytes still to deliver (the workload cursor).
    pub(crate) remaining: Vec<u32>,
    /// Total object size (bytes), for diagnostics and byte accounting.
    pub(crate) object: Vec<u32>,
    /// Congestion window (bytes).
    pub(crate) cwnd: Vec<u32>,
    /// Slow-start threshold (bytes).
    pub(crate) ssthresh: Vec<u32>,
    /// Per-client round-trip time (µs).
    pub(crate) rtt_us: Vec<u32>,
    /// Global client id (keys the per-flight loss hash stream).
    pub(crate) client: Vec<u32>,
    /// Flights sent so far (indexes the per-flight loss hash stream;
    /// 32 bits so the loss key never aliases across flights).
    pub(crate) flights: Vec<u32>,
    /// Flights that experienced loss (congestion or random).
    pub(crate) retx: Vec<u16>,
}

impl ConnArena {
    /// An empty arena.
    pub fn new() -> Self {
        ConnArena::default()
    }

    /// An arena pre-sized for `n` concurrent connections (columns grow
    /// past this only if the live high-water mark does).
    pub fn with_capacity(n: usize) -> Self {
        ConnArena {
            pool: SlotPool::with_capacity(n),
            arrived_ns: Vec::with_capacity(n),
            remaining: Vec::with_capacity(n),
            object: Vec::with_capacity(n),
            cwnd: Vec::with_capacity(n),
            ssthresh: Vec::with_capacity(n),
            rtt_us: Vec::with_capacity(n),
            client: Vec::with_capacity(n),
            flights: Vec::with_capacity(n),
            retx: Vec::with_capacity(n),
        }
    }

    /// Forget every connection — slots, generations and the live
    /// high-water mark rewind — keeping the columns' capacity, so the
    /// next link's connections reuse this link's memory. Observationally
    /// a fresh arena; handles issued before the reset must not be used.
    pub fn reset(&mut self) {
        self.pool.reset();
        self.arrived_ns.clear();
        self.remaining.clear();
        self.object.clear();
        self.cwnd.clear();
        self.ssthresh.clear();
        self.rtt_us.clear();
        self.client.clear();
        self.flights.clear();
        self.retx.clear();
    }

    /// Admit a connection, recycling a finished connection's slot when
    /// one is free.
    pub fn alloc(&mut self, init: ConnInit) -> SlotHandle {
        let h = self.pool.alloc();
        let i = h.index();
        if i == self.arrived_ns.len() {
            self.arrived_ns.push(init.arrived.as_nanos());
            self.remaining.push(init.object);
            self.object.push(init.object);
            self.cwnd.push(init.cwnd);
            self.ssthresh.push(init.ssthresh);
            self.rtt_us.push(init.rtt_us);
            self.client.push(init.client);
            self.flights.push(0);
            self.retx.push(0);
        } else {
            self.arrived_ns[i] = init.arrived.as_nanos();
            self.remaining[i] = init.object;
            self.object[i] = init.object;
            self.cwnd[i] = init.cwnd;
            self.ssthresh[i] = init.ssthresh;
            self.rtt_us[i] = init.rtt_us;
            self.client[i] = init.client;
            self.flights[i] = 0;
            self.retx[i] = 0;
        }
        h
    }

    /// Retire a connection. Stale handles are rejected (`false`).
    pub fn free(&mut self, h: SlotHandle) -> bool {
        self.pool.free(h)
    }

    /// Column index for a live handle, `None` if stale.
    #[inline]
    pub fn resolve(&self, h: SlotHandle) -> Option<usize> {
        self.pool.resolve(h)
    }

    /// Whether `h` still refers to a live connection.
    #[inline]
    pub fn contains(&self, h: SlotHandle) -> bool {
        self.pool.contains(h)
    }

    /// Live connections right now.
    pub fn live(&self) -> usize {
        self.pool.live()
    }

    /// High-water mark of concurrent connections.
    pub fn live_peak(&self) -> usize {
        self.pool.live_peak()
    }

    /// Total slots (and column length) ever needed.
    pub fn slots(&self) -> usize {
        self.pool.slots()
    }

    /// Arena state per slot: the columns (one `u64`, seven `u32`s, one
    /// `u16`) plus the pool's generation word and free-list entry.
    pub const BYTES_PER_SLOT: usize = 8 + 7 * 4 + 2 + 4 + 4;

    /// Bytes of arena state the slots in use occupy —
    /// `slots() * BYTES_PER_SLOT`. Unlike [`bytes`](ConnArena::bytes)
    /// this does not see capacity an earlier, busier link left behind,
    /// so it is a function of this link's own high-water mark: what the
    /// fleet loop reports and the 650 B-per-connection budget gates.
    pub fn bytes_in_use(&self) -> usize {
        self.slots() * Self::BYTES_PER_SLOT
    }

    /// Heap bytes held by all columns plus the slot pool, allocator
    /// slack and reused capacity included.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.pool.bytes()
            + self.arrived_ns.capacity() * size_of::<u64>()
            + self.remaining.capacity() * size_of::<u32>()
            + self.object.capacity() * size_of::<u32>()
            + self.cwnd.capacity() * size_of::<u32>()
            + self.ssthresh.capacity() * size_of::<u32>()
            + self.rtt_us.capacity() * size_of::<u32>()
            + self.client.capacity() * size_of::<u32>()
            + self.flights.capacity() * size_of::<u32>()
            + self.retx.capacity() * size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_sim::time::Time;

    fn init(object: u32) -> ConnInit {
        ConnInit {
            arrived: Time::ZERO,
            object,
            cwnd: 14_000,
            ssthresh: u32::MAX,
            rtt_us: 36_000,
            client: 17,
        }
    }

    #[test]
    fn alloc_reuses_columns_and_rejects_stale() {
        let mut a = ConnArena::new();
        let h1 = a.alloc(init(1000));
        let i = a.resolve(h1).unwrap();
        assert_eq!(a.remaining[i], 1000);
        assert!(a.free(h1));
        let h2 = a.alloc(init(2000));
        assert_eq!(h2.index(), h1.index(), "slot recycled");
        assert_eq!(a.resolve(h1), None, "stale handle rejected");
        let j = a.resolve(h2).unwrap();
        assert_eq!(a.remaining[j], 2000, "columns re-initialized");
        assert_eq!(a.flights[j], 0);
        assert_eq!(a.client[j], 17);
        assert_eq!(a.slots(), 1);
    }

    #[test]
    fn bytes_per_connection_is_far_under_budget() {
        let n = 10_000;
        let mut a = ConnArena::with_capacity(n);
        let hs: Vec<_> = (0..n).map(|_| a.alloc(init(5 * 1024))).collect();
        let per_conn = a.bytes() as f64 / a.live_peak() as f64;
        assert!(
            per_conn <= 650.0,
            "{per_conn:.1} B/conn exceeds the 650 B budget"
        );
        // Churn does not grow the footprint.
        let before = a.bytes();
        for h in hs {
            assert!(a.free(h));
        }
        for _ in 0..n {
            let _ = a.alloc(init(5 * 1024));
        }
        assert_eq!(a.slots(), n);
        assert!(a.bytes() <= before * 2);
    }

    #[test]
    fn bytes_per_slot_counts_every_column() {
        // Exactly-sized columns and a free list grown to exactly `n`
        // (doubling reaches a power of two): the heap figure and the
        // per-slot constant must agree, so a new column cannot be added
        // without moving the constant.
        let n = 1024;
        let mut a = ConnArena::with_capacity(n);
        let hs: Vec<_> = (0..n).map(|_| a.alloc(init(1))).collect();
        for h in hs {
            assert!(a.free(h));
        }
        assert_eq!(a.bytes_in_use(), n * ConnArena::BYTES_PER_SLOT);
        assert_eq!(a.bytes(), a.bytes_in_use());
    }

    #[test]
    fn reset_arena_is_a_fresh_arena_with_the_old_capacity() {
        let mut a = ConnArena::new();
        let hs: Vec<_> = (0..100).map(|_| a.alloc(init(9))).collect();
        assert!(a.free(hs[3]));
        let held = a.bytes();
        a.reset();
        assert_eq!((a.live(), a.live_peak(), a.slots()), (0, 0, 0));
        assert_eq!(a.bytes_in_use(), 0);
        assert_eq!(a.bytes(), held, "reset keeps capacity");
        // Same handles as a fresh arena, columns re-initialized.
        let h = a.alloc(init(2000));
        assert_eq!(h, ConnArena::new().alloc(init(2000)));
        let i = a.resolve(h).unwrap();
        assert_eq!((a.remaining[i], a.flights[i]), (2000, 0));
        assert_eq!(a.slots(), 1);
    }
}
