//! TCP receive path: one ordered byte stream, SACK generation, DSACK
//! duplicate reporting, delayed acks.
//!
//! Unlike QUIC's per-stream reassembly, there is exactly one sequence
//! space here: a hole blocks *all* bytes behind it, which is what gives
//! HTTP/2-over-TCP its head-of-line blocking (Sec 2.1 of the paper).

use longlook_sim::pool;
use longlook_sim::time::{Dur, Time};
use std::collections::BTreeMap;

/// Receiver-side byte-stream state.
#[derive(Debug)]
pub struct TcpReceiver {
    /// Next in-order byte expected (cumulative ack value).
    rcv_nxt: u64,
    /// Out-of-order intervals `start -> end` (exclusive end).
    ooo: BTreeMap<u64, u64>,
    /// Most recently SACKed intervals, newest first (for block ordering).
    recent: Vec<(u64, u64)>,
    /// Pending DSACK block to report (duplicate data received).
    pending_dsack: Option<(u64, u64)>,
    /// Segments received since the last ack went out.
    unacked_segs: u32,
    /// Delayed-ack deadline.
    ack_deadline: Option<Time>,
    /// An event forced an immediate ack (out-of-order arrival, etc.).
    ack_now: bool,
    /// Receive buffer size (drives the advertised window).
    buffer: u64,
}

impl TcpReceiver {
    /// New receiver with the given receive buffer (advertised window).
    pub fn new(buffer: u64) -> Self {
        TcpReceiver {
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            recent: Vec::new(),
            pending_dsack: None,
            unacked_segs: 0,
            ack_deadline: None,
            ack_now: false,
            buffer,
        }
    }

    /// Ingest a data segment `[seq, seq + len)`. Returns the number of
    /// newly in-order bytes.
    pub fn on_segment(&mut self, seq: u64, len: u32, now: Time, delayed_ack: Dur) -> u64 {
        let end = seq + len as u64;
        self.unacked_segs += 1;

        // Fully duplicate data -> DSACK report, immediate ack.
        if end <= self.rcv_nxt {
            self.pending_dsack = Some((seq, end));
            self.ack_now = true;
            return 0;
        }
        let dup_overlap = self
            .ooo
            .range(..=seq)
            .next_back()
            .is_some_and(|(&s, &e)| s <= seq && end <= e);
        if dup_overlap {
            self.pending_dsack = Some((seq, end));
            self.ack_now = true;
            return 0;
        }

        if seq > self.rcv_nxt {
            // Out of order: store and demand an immediate (dup) ack.
            let mut start = seq;
            let mut stop = end;
            // Absorb every interval that overlaps or touches the segment.
            // Intervals are disjoint, so those are the last ones starting
            // at or below `end`, back to the first that ends short of
            // `seq`.
            while let Some((&s, &e)) = self.ooo.range(..=end).next_back() {
                if e < seq {
                    break;
                }
                self.ooo.remove(&s);
                start = start.min(s);
                stop = stop.max(e);
            }
            self.ooo.insert(start, stop);
            self.recent.retain(|&(s, _)| s != start);
            self.recent.insert(0, (start, stop));
            self.recent.truncate(3);
            self.ack_now = true;
            return 0;
        }

        // In-order (possibly partially duplicate) data.
        let before = self.rcv_nxt;
        self.rcv_nxt = self.rcv_nxt.max(end);
        // Pull any now-contiguous out-of-order intervals.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s <= self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.max(e);
                self.ooo.remove(&s);
                self.recent.retain(|&(rs, _)| rs != s);
            } else {
                break;
            }
        }
        // Ack every 2nd segment, else delay.
        if self.unacked_segs >= 2 {
            self.ack_now = true;
        } else if self.ack_deadline.is_none() {
            self.ack_deadline = Some(now + delayed_ack);
        }
        self.rcv_nxt - before
    }

    /// Whether an ack should be emitted now.
    pub fn ack_due(&self, now: Time) -> bool {
        self.ack_now || (self.unacked_segs > 0 && self.ack_deadline.is_some_and(|d| now >= d))
    }

    /// Delayed-ack deadline (for wakeups).
    pub fn deadline(&self) -> Option<Time> {
        if self.unacked_segs > 0 && !self.ack_now {
            self.ack_deadline
        } else {
            None
        }
    }

    /// Produce ack fields `(ack, window, sacks, dsack)`, resetting the
    /// delayed-ack machinery. A non-empty block vector comes from the
    /// thread's free list ([`pool::take_blocks`]); whoever processes the
    /// ack hands it back.
    pub fn build_ack(&mut self) -> (u64, u64, Vec<(u64, u64)>, bool) {
        // Only report blocks strictly above the cumulative ack; merges
        // can leave stale entries in the recency list.
        self.recent
            .retain(|&(s, e)| s > self.rcv_nxt && e > self.rcv_nxt);
        let dsack_block = self.pending_dsack.take();
        let dsack = dsack_block.is_some();
        let mut sacks: Vec<(u64, u64)> = Vec::new();
        if dsack || !self.recent.is_empty() {
            sacks = pool::take_blocks();
            sacks.extend(dsack_block);
            let plain = 4 - sacks.len();
            sacks.extend(self.recent.iter().take(plain));
        }
        self.unacked_segs = 0;
        self.ack_deadline = None;
        self.ack_now = false;
        let buffered: u64 = self.ooo.iter().map(|(&s, &e)| e - s).sum();
        let window = self.buffer.saturating_sub(buffered);
        (self.rcv_nxt, window, sacks, dsack)
    }

    /// Next expected byte (cumulative ack value).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Bytes buffered out of order.
    pub fn buffered(&self) -> u64 {
        self.ooo.iter().map(|(&s, &e)| e - s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DACK: Dur = Dur::from_millis(40);

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn in_order_advances_and_delays_ack() {
        let mut r = TcpReceiver::new(1 << 20);
        assert_eq!(r.on_segment(0, 1000, t(0), DACK), 1000);
        assert!(!r.ack_due(t(0)), "first segment: delayed ack armed");
        assert_eq!(r.deadline(), Some(t(40)));
        assert!(r.ack_due(t(40)), "delack timer");
    }

    #[test]
    fn every_second_segment_acks_immediately() {
        let mut r = TcpReceiver::new(1 << 20);
        r.on_segment(0, 1000, t(0), DACK);
        r.on_segment(1000, 1000, t(1), DACK);
        assert!(r.ack_due(t(1)));
        let (ack, _, sacks, dsack) = r.build_ack();
        assert_eq!(ack, 2000);
        assert!(sacks.is_empty());
        assert!(!dsack);
        assert!(!r.ack_due(t(1)));
    }

    #[test]
    fn out_of_order_sacks_immediately() {
        let mut r = TcpReceiver::new(1 << 20);
        r.on_segment(0, 1000, t(0), DACK);
        assert_eq!(r.on_segment(2000, 1000, t(1), DACK), 0);
        assert!(r.ack_due(t(1)), "out of order demands immediate dup ack");
        let (ack, _, sacks, dsack) = r.build_ack();
        assert_eq!(ack, 1000);
        assert_eq!(sacks, vec![(2000, 3000)]);
        assert!(!dsack);
    }

    #[test]
    fn hole_fill_releases_buffered_bytes() {
        let mut r = TcpReceiver::new(1 << 20);
        r.on_segment(1000, 1000, t(0), DACK);
        r.on_segment(2000, 1000, t(1), DACK);
        assert_eq!(r.buffered(), 2000);
        assert_eq!(r.on_segment(0, 1000, t(2), DACK), 3000);
        assert_eq!(r.rcv_nxt(), 3000);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn duplicate_triggers_dsack() {
        let mut r = TcpReceiver::new(1 << 20);
        r.on_segment(0, 1000, t(0), DACK);
        r.on_segment(0, 1000, t(5), DACK); // spurious retransmission arrives
        let (ack, _, sacks, dsack) = r.build_ack();
        assert_eq!(ack, 1000);
        assert!(dsack);
        assert_eq!(sacks[0], (0, 1000), "DSACK block reports the dup range");
    }

    #[test]
    fn duplicate_of_ooo_data_triggers_dsack() {
        let mut r = TcpReceiver::new(1 << 20);
        r.on_segment(2000, 1000, t(0), DACK);
        r.build_ack();
        r.on_segment(2000, 1000, t(1), DACK);
        let (_, _, sacks, dsack) = r.build_ack();
        assert!(dsack);
        assert_eq!(sacks[0], (2000, 3000));
    }

    #[test]
    fn sack_blocks_newest_first_capped() {
        let mut r = TcpReceiver::new(1 << 20);
        r.on_segment(2000, 500, t(0), DACK);
        r.on_segment(4000, 500, t(1), DACK);
        r.on_segment(6000, 500, t(2), DACK);
        r.on_segment(8000, 500, t(3), DACK);
        let (_, _, sacks, _) = r.build_ack();
        assert_eq!(sacks.len(), 3, "at most 3 plain SACK blocks");
        assert_eq!(sacks[0], (8000, 8500), "newest first");
    }

    #[test]
    fn window_shrinks_with_buffered_data() {
        let mut r = TcpReceiver::new(10_000);
        r.on_segment(5000, 2000, t(0), DACK);
        let (_, window, _, _) = r.build_ack();
        assert_eq!(window, 8000);
    }

    #[test]
    fn segment_bridging_several_intervals_absorbs_them_all() {
        let mut r = TcpReceiver::new(1 << 20);
        for (i, seq) in [2000, 4000, 6000, 9000].into_iter().enumerate() {
            r.on_segment(seq, 500, t(i as u64), DACK);
        }
        // Touches [2000,2500) at its end, covers [4000,4500), overlaps
        // [6000,6500); [9000,9500) is out of reach.
        r.on_segment(2500, 3700, t(9), DACK);
        let (_, _, sacks, _) = r.build_ack();
        assert_eq!(sacks[0], (2000, 6500));
        assert_eq!(sacks[1], (9000, 9500));
        assert_eq!(r.buffered(), 5000);
    }

    #[test]
    fn adjacent_ooo_intervals_merge() {
        let mut r = TcpReceiver::new(1 << 20);
        r.on_segment(3000, 1000, t(0), DACK);
        r.on_segment(2000, 1000, t(1), DACK);
        let (_, _, sacks, _) = r.build_ack();
        assert_eq!(sacks[0], (2000, 4000));
        assert_eq!(r.buffered(), 2000);
    }
}
