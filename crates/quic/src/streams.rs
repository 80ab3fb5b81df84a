//! Stream state: send scheduling, receive reassembly, flow control.
//!
//! QUIC's independence between streams is what removes head-of-line
//! blocking: each receive stream reassembles on its own, so a hole in
//! stream A never delays delivery on stream B (contrast with the single
//! ordered byte stream in `longlook-tcp`).

use std::collections::{BTreeMap, VecDeque};

/// A chunk of stream data scheduled for (re)transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Stream id.
    pub id: u32,
    /// Byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
    /// FIN rides on this chunk.
    pub fin: bool,
}

/// Sender side of one stream.
#[derive(Debug)]
pub struct SendStream {
    id: u32,
    /// Next fresh byte to transmit.
    next_offset: u64,
    /// Total bytes the application has queued.
    queued: u64,
    /// Whether the application finished the stream.
    fin_queued: bool,
    /// Whether the FIN has been transmitted at least once.
    fin_sent: bool,
    /// Peer flow-control limit: highest absolute offset we may send.
    max_offset: u64,
    /// Lost chunks awaiting retransmission (offset -> (len, fin)).
    retransmit: BTreeMap<u64, (u32, bool)>,
}

impl SendStream {
    /// Create a send stream with the peer's initial flow-control window.
    pub fn with_window(id: u32, max_offset: u64) -> Self {
        Self::new(id, max_offset)
    }

    /// Whether lost chunks are waiting for retransmission.
    pub fn has_retransmit_pending(&self) -> bool {
        !self.retransmit.is_empty()
    }

    /// Whether this stream would produce a chunk if asked (retransmission,
    /// fresh data within flow control, or a pending FIN).
    pub fn wants_to_send(&self) -> bool {
        self.has_retransmit_pending() || self.sendable_new() > 0 || self.fin_pending()
    }

    fn new(id: u32, max_offset: u64) -> Self {
        SendStream {
            id,
            next_offset: 0,
            queued: 0,
            fin_queued: false,
            fin_sent: false,
            max_offset,
            retransmit: BTreeMap::new(),
        }
    }

    /// Application queues more data.
    pub fn write(&mut self, bytes: u64, fin: bool) {
        debug_assert!(!self.fin_queued, "write after fin");
        self.queued += bytes;
        self.fin_queued |= fin;
    }

    /// Raise the peer's flow-control limit.
    pub fn on_window_update(&mut self, max_offset: u64) {
        self.max_offset = self.max_offset.max(max_offset);
    }

    /// Bytes of fresh data ready and allowed by stream flow control.
    pub fn sendable_new(&self) -> u64 {
        let unsent = self.queued.saturating_sub(self.next_offset);
        let fc_room = self.max_offset.saturating_sub(self.next_offset);
        unsent.min(fc_room)
    }

    /// Whether a bare FIN still needs to go out.
    pub fn fin_pending(&self) -> bool {
        self.fin_queued && !self.fin_sent && self.next_offset >= self.queued
    }

    /// Whether the stream is flow-control blocked (has data, no credit).
    pub fn blocked(&self) -> bool {
        self.queued > self.next_offset && self.next_offset >= self.max_offset
    }

    /// Produce the next chunk (retransmissions first), at most `budget`
    /// bytes. Returns `None` when nothing is sendable.
    pub fn next_chunk(&mut self, budget: u32) -> Option<Chunk> {
        if budget == 0 {
            return None;
        }
        // Retransmissions take priority and ignore flow control (the peer
        // already granted credit for those offsets).
        if let Some((&offset, &(len, fin))) = self.retransmit.iter().next() {
            let take = len.min(budget);
            self.retransmit.remove(&offset);
            if take < len {
                self.retransmit
                    .insert(offset + take as u64, (len - take, fin));
                return Some(Chunk {
                    id: self.id,
                    offset,
                    len: take,
                    fin: false,
                });
            }
            return Some(Chunk {
                id: self.id,
                offset,
                len: take,
                fin,
            });
        }
        let avail = self.sendable_new();
        if avail > 0 {
            let take = (avail.min(budget as u64)) as u32;
            let offset = self.next_offset;
            self.next_offset += take as u64;
            let fin = self.fin_queued && self.next_offset >= self.queued;
            if fin {
                self.fin_sent = true;
            }
            return Some(Chunk {
                id: self.id,
                offset,
                len: take,
                fin,
            });
        }
        if self.fin_pending() {
            self.fin_sent = true;
            return Some(Chunk {
                id: self.id,
                offset: self.next_offset,
                len: 0,
                fin: true,
            });
        }
        None
    }

    /// A chunk was declared lost: queue it for retransmission.
    pub fn on_chunk_lost(&mut self, chunk: &Chunk) {
        if chunk.len == 0 && chunk.fin {
            self.fin_sent = false;
            return;
        }
        // Merge naively: exact-offset replacement is enough because chunks
        // are only ever split, never re-fragmented differently.
        self.retransmit.insert(chunk.offset, (chunk.len, chunk.fin));
    }

    /// Whether all queued data (and FIN) has been transmitted at least
    /// once and no retransmissions are pending.
    pub fn drained(&self) -> bool {
        self.next_offset >= self.queued
            && self.retransmit.is_empty()
            && (!self.fin_queued || self.fin_sent)
    }
}

/// Receiver side of one stream: interval reassembly.
#[derive(Debug, Default)]
pub struct RecvStream {
    /// Received intervals (start -> end), non-overlapping, non-adjacent.
    segments: BTreeMap<u64, u64>,
    /// Everything below this has been delivered to the application.
    delivered: u64,
    /// Final length once FIN seen.
    fin_at: Option<u64>,
    fin_delivered: bool,
}

impl RecvStream {
    /// Ingest a chunk; returns newly deliverable in-order bytes.
    pub fn on_chunk(&mut self, offset: u64, len: u32, fin: bool) -> u64 {
        if fin {
            self.fin_at = Some(offset + len as u64);
        }
        if len > 0 {
            let chunk_end = offset + len as u64;
            // Fast paths for the common in-order flow, skipping the
            // insert-then-immediately-remove churn on the segment map:
            // a pure duplicate below the delivery point is a no-op, and a
            // chunk extending the in-order point that cannot reach the
            // first buffered segment advances `delivered` directly.
            if chunk_end <= self.delivered {
                return 0;
            }
            if offset <= self.delivered
                && self
                    .segments
                    .first_key_value()
                    .is_none_or(|(&s, _)| s > chunk_end)
            {
                let before = self.delivered;
                self.delivered = chunk_end;
                return self.delivered - before;
            }
            let mut start = offset;
            let mut end = chunk_end;
            // Merge with overlapping/adjacent existing segments. Segments
            // are non-overlapping and non-adjacent, so both starts and
            // ends are strictly ordered: the mergeable run is contiguous,
            // and walking backwards from the insertion point can stop at
            // the first segment that ends before `start`.
            while let Some((&s, &e)) = self.segments.range(..=end).next_back() {
                if e < start {
                    break;
                }
                self.segments.remove(&s);
                start = start.min(s);
                end = end.max(e);
            }
            self.segments.insert(start, end);
        }
        // Advance the in-order point.
        let before = self.delivered;
        while let Some((&s, &e)) = self.segments.first_key_value() {
            if s <= self.delivered {
                self.delivered = self.delivered.max(e);
                self.segments.remove(&s);
            } else {
                break;
            }
        }
        self.delivered - before
    }

    /// Whether the FIN point has been reached (callers emit StreamFin
    /// once; see [`RecvStream::take_fin`]).
    pub fn fin_reached(&self) -> bool {
        matches!(self.fin_at, Some(end) if self.delivered >= end)
    }

    /// Latch the FIN event: true exactly once when complete.
    pub fn take_fin(&mut self) -> bool {
        if self.fin_reached() && !self.fin_delivered {
            self.fin_delivered = true;
            true
        } else {
            false
        }
    }

    /// Bytes delivered in order so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Bytes buffered out of order (for flow-control accounting).
    pub fn buffered_out_of_order(&self) -> u64 {
        self.segments.iter().map(|(&s, &e)| e - s).sum()
    }
}

/// Everything the connection keeps for one stream id, so a stream frame
/// costs one lookup.
#[derive(Debug)]
pub struct StreamRec {
    /// Send side. Private: it changes only through [`StreamTable`], which
    /// keeps the ready index in step with it.
    send: SendStream,
    /// Receive-side reassembly.
    pub recv: RecvStream,
    /// Peer-initiated stream already announced to the application.
    pub announced: bool,
    /// Receive offset last advertised to the peer (`None` until the first
    /// announcement).
    pub advertised: Option<u64>,
}

/// What [`StreamTable::next_chunk`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pull {
    /// The chunk to send, if any stream could produce one.
    pub chunk: Option<Chunk>,
    /// The chunk is fresh data (counts against connection flow control)
    /// rather than a retransmission.
    pub fresh: bool,
    /// Some stream passed the flow-control gate, whether or not it then
    /// produced a chunk (a bare FIN with no connection credit does not).
    pub data_was_available: bool,
}

/// The connection's streams and their send schedule.
///
/// The policy is strict priority: the lowest stream id that has a
/// retransmission queued, fresh data that both its own and the
/// connection's flow-control window admit, or a FIN to send, goes first.
/// `ready` holds exactly the ids whose send side `wants_to_send()`,
/// ascending: a stream enters when a write, a stream window update or a
/// declared loss gives it something to send, and leaves when the pull
/// that drained it sees so. Connection flow control is not part of that
/// test — a stream it alone blocks stays indexed and is passed over — so
/// one pull costs the streams ahead of the first sendable one, not every
/// stream the connection ever opened.
#[derive(Debug)]
pub struct StreamTable {
    recs: BTreeMap<u32, StreamRec>,
    ready: VecDeque<u32>,
    /// Send limit a stream starts with (the peer's initial window).
    initial_window: u64,
    /// Streams examined by `next_chunk` so far (complexity guard).
    #[cfg(test)]
    pub(crate) probes: u64,
}

impl StreamTable {
    /// An empty table whose streams start with `initial_window` bytes of
    /// send credit.
    pub fn new(initial_window: u64) -> Self {
        StreamTable {
            recs: BTreeMap::new(),
            ready: VecDeque::new(),
            initial_window,
            #[cfg(test)]
            probes: 0,
        }
    }

    fn entry(recs: &mut BTreeMap<u32, StreamRec>, window: u64, id: u32) -> &mut StreamRec {
        recs.entry(id).or_insert_with(|| StreamRec {
            send: SendStream::new(id, window),
            recv: RecvStream::default(),
            announced: false,
            advertised: None,
        })
    }

    /// The record for `id`, created on first use.
    pub fn rec_mut(&mut self, id: u32) -> &mut StreamRec {
        Self::entry(&mut self.recs, self.initial_window, id)
    }

    /// The record for `id`, if the stream was ever touched.
    pub fn get(&self, id: u32) -> Option<&StreamRec> {
        self.recs.get(&id)
    }

    /// Enter `send`'s stream in the ready index if it has something to
    /// send (every caller has just given it a reason to).
    fn index_if_ready(ready: &mut VecDeque<u32>, send: &SendStream) {
        if !send.wants_to_send() {
            return;
        }
        match ready.back() {
            Some(&last) if last >= send.id => {
                if let Err(at) = ready.binary_search(&send.id) {
                    ready.insert(at, send.id);
                }
            }
            _ => ready.push_back(send.id),
        }
    }

    /// Application queues `bytes` (and optionally the FIN) on `id`.
    pub fn write(&mut self, id: u32, bytes: u64, fin: bool) {
        let send = &mut Self::entry(&mut self.recs, self.initial_window, id).send;
        send.write(bytes, fin);
        Self::index_if_ready(&mut self.ready, send);
    }

    /// The peer raised stream `id`'s flow-control limit. A limit that
    /// arrives before the application first writes waits on the idle
    /// send side.
    pub fn on_window_update(&mut self, id: u32, max_offset: u64) {
        let send = &mut Self::entry(&mut self.recs, self.initial_window, id).send;
        send.on_window_update(max_offset);
        Self::index_if_ready(&mut self.ready, send);
    }

    /// A chunk was declared lost: queue it for retransmission (or re-arm
    /// a bare FIN).
    pub fn on_chunk_lost(&mut self, chunk: &Chunk) {
        if let Some(rec) = self.recs.get_mut(&chunk.id) {
            rec.send.on_chunk_lost(chunk);
            Self::index_if_ready(&mut self.ready, &rec.send);
        }
    }

    /// Does any stream have bytes or a FIN ready (ignoring connection
    /// flow control, cc and pacing)?
    pub fn any_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Pull the next chunk of at most `budget` bytes; fresh data is
    /// further capped by `conn_room`, the connection-level credit left.
    pub fn next_chunk(&mut self, budget: u32, conn_room: u64) -> Pull {
        let mut data_was_available = false;
        for at in 0..self.ready.len() {
            let id = self.ready[at];
            let s = &mut self
                .recs
                .get_mut(&id)
                .expect("indexed stream has a record")
                .send;
            #[cfg(test)]
            {
                self.probes += 1;
            }
            let retransmit = s.has_retransmit_pending();
            if !retransmit && s.sendable_new().min(conn_room) == 0 && !s.fin_pending() {
                continue;
            }
            data_was_available = true;
            // Retransmissions ignore connection flow control: the peer
            // already granted credit for those offsets.
            let cap = if retransmit {
                budget
            } else {
                budget.min(conn_room.min(u32::MAX as u64) as u32)
            };
            if let Some(chunk) = s.next_chunk(cap) {
                if !s.wants_to_send() {
                    self.ready.remove(at);
                }
                return Pull {
                    chunk: Some(chunk),
                    fresh: !retransmit,
                    data_was_available,
                };
            }
        }
        Pull {
            chunk: None,
            fresh: false,
            data_was_available,
        }
    }

    /// The ready index, ascending (for the scheduling proptest).
    #[doc(hidden)]
    pub fn ready_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.ready.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_stream_chunks_respect_budget() {
        let mut s = SendStream::new(1, u64::MAX);
        s.write(3000, true);
        let c1 = s.next_chunk(1350).unwrap();
        assert_eq!((c1.offset, c1.len, c1.fin), (0, 1350, false));
        let c2 = s.next_chunk(1350).unwrap();
        assert_eq!((c2.offset, c2.len, c2.fin), (1350, 1350, false));
        let c3 = s.next_chunk(1350).unwrap();
        assert_eq!((c3.offset, c3.len, c3.fin), (2700, 300, true));
        assert!(s.next_chunk(1350).is_none());
        assert!(s.drained());
    }

    #[test]
    fn flow_control_blocks_fresh_data() {
        let mut s = SendStream::new(1, 1000);
        s.write(5000, false);
        let c = s.next_chunk(1350).unwrap();
        assert_eq!(c.len, 1000);
        assert!(s.next_chunk(1350).is_none(), "blocked at max_offset");
        assert!(s.blocked());
        s.on_window_update(2500);
        let c = s.next_chunk(1350).unwrap();
        assert_eq!((c.offset, c.len), (1000, 1350));
        assert!(!s.blocked());
    }

    #[test]
    fn window_updates_never_shrink() {
        let mut s = SendStream::new(1, 1000);
        s.on_window_update(500);
        s.write(800, false);
        assert_eq!(s.next_chunk(2000).unwrap().len, 800);
    }

    #[test]
    fn retransmissions_take_priority_and_split() {
        let mut s = SendStream::new(1, u64::MAX);
        s.write(4000, false);
        let lost = s.next_chunk(1350).unwrap();
        let _in_flight = s.next_chunk(1350).unwrap();
        s.on_chunk_lost(&lost);
        // Small budget splits the retransmission.
        let r1 = s.next_chunk(500).unwrap();
        assert_eq!((r1.offset, r1.len), (0, 500));
        let r2 = s.next_chunk(1350).unwrap();
        assert_eq!((r2.offset, r2.len), (500, 850));
        // Then fresh data resumes where it left off.
        let fresh = s.next_chunk(1350).unwrap();
        assert_eq!(fresh.offset, 2700);
    }

    #[test]
    fn bare_fin_is_sent_and_can_be_lost() {
        let mut s = SendStream::new(1, u64::MAX);
        s.write(0, true);
        let f = s.next_chunk(1350).unwrap();
        assert_eq!((f.len, f.fin), (0, true));
        assert!(s.drained());
        s.on_chunk_lost(&f);
        assert!(!s.drained());
        let f2 = s.next_chunk(1350).unwrap();
        assert!(f2.fin);
    }

    #[test]
    fn recv_in_order_delivery() {
        let mut r = RecvStream::default();
        assert_eq!(r.on_chunk(0, 100, false), 100);
        assert_eq!(r.on_chunk(100, 100, false), 100);
        assert_eq!(r.delivered(), 200);
        assert!(!r.fin_reached());
    }

    #[test]
    fn recv_out_of_order_holds_then_releases() {
        let mut r = RecvStream::default();
        assert_eq!(r.on_chunk(100, 100, false), 0);
        assert_eq!(r.buffered_out_of_order(), 100);
        // Filling the hole releases both.
        assert_eq!(r.on_chunk(0, 100, false), 200);
        assert_eq!(r.buffered_out_of_order(), 0);
    }

    #[test]
    fn recv_duplicate_and_overlap_are_idempotent() {
        let mut r = RecvStream::default();
        r.on_chunk(0, 100, false);
        assert_eq!(r.on_chunk(0, 100, false), 0, "exact duplicate");
        assert_eq!(r.on_chunk(50, 100, false), 50, "overlap extends");
        assert_eq!(r.delivered(), 150);
    }

    #[test]
    fn recv_fin_handling() {
        let mut r = RecvStream::default();
        r.on_chunk(0, 50, false);
        r.on_chunk(50, 50, true);
        assert!(r.fin_reached());
        assert!(r.take_fin());
        assert!(!r.take_fin(), "fin latches once");
    }

    #[test]
    fn recv_fin_waits_for_holes() {
        let mut r = RecvStream::default();
        r.on_chunk(100, 50, true);
        assert!(!r.fin_reached());
        r.on_chunk(0, 100, false);
        assert!(r.fin_reached());
    }

    #[test]
    fn recv_zero_length_fin() {
        let mut r = RecvStream::default();
        r.on_chunk(0, 100, false);
        assert_eq!(r.on_chunk(100, 0, true), 0);
        assert!(r.fin_reached());
    }

    #[test]
    fn recv_merges_many_segments() {
        let mut r = RecvStream::default();
        // Every other 10-byte block first.
        for i in (1..10).step_by(2) {
            r.on_chunk(i * 10, 10, false);
        }
        assert_eq!(r.delivered(), 0);
        // Then the gaps.
        let mut total = 0;
        for i in (0..10).step_by(2) {
            total += r.on_chunk(i * 10, 10, false);
        }
        assert_eq!(total, 100);
        assert_eq!(r.delivered(), 100);
    }
}
