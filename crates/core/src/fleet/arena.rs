//! Struct-of-arrays connection state for fleet-scale worlds.
//!
//! One [`ConnArena`] holds every live connection of a fleet cell in
//! parallel columns indexed by a [`SlotPool`] slot: the hot per-event
//! fields (workload cursor, cwnd, RTT, flight counters) sit in dense
//! `Vec`s instead of one heap allocation per connection, so a 100k-client
//! flash crowd costs tens of megabytes at most and an event touches two
//! or three cache lines rather than chasing a `Box` per connection.
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
    /// Bottleneck link this client shares.
    pub link: u16,
    /// Server pool serving this client.
    pub server: u16,
}

/// Dense per-connection state, one column per field.
///
/// All columns are kept exactly `pool.slots()` long; a freed slot's
/// column entries are simply overwritten by the next connection that
/// recycles it. Budget: 42 bytes of column state plus 4 bytes of
/// generation plus amortized free-list per slot — about 48 B/connection,
/// an order of magnitude under the 650 B/connection acceptance budget.
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
    /// Shared bottleneck link id.
    pub(crate) link: Vec<u16>,
    /// Server pool id.
    pub(crate) server: Vec<u16>,
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
            link: Vec::with_capacity(n),
            server: Vec::with_capacity(n),
        }
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
            self.link.push(init.link);
            self.server.push(init.server);
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
            self.link[i] = init.link;
            self.server[i] = init.server;
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

    /// Heap bytes held by all columns plus the slot pool — the number
    /// the `fleet_determinism` suite and the unit tests gate against
    /// the 650 B-per-connection budget.
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
            + self.link.capacity() * size_of::<u16>()
            + self.server.capacity() * size_of::<u16>()
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
            link: 3,
            server: 1,
        }
    }

    #[test]
    fn alloc_reuses_columns_and_rejects_stale() {
        let mut a = ConnArena::new();
        let h1 = a.alloc(init(1000));
        let i = a.resolve(h1).unwrap();
        assert_eq!(a.remaining[i], 1000);
        assert_eq!(a.link[i], 3);
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
}
