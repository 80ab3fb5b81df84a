//! Receiver-side ack state: which packet numbers arrived, and when to ack.
//!
//! gQUIC-style ack decimation: an ack is triggered after every
//! `ack_every` retransmittable packets or when the delayed-ack timer
//! fires. Acks carry the precise delay between receiving the largest
//! packet and sending the ack — the timing precision the paper credits
//! for QUIC's better bandwidth estimation.

use crate::wire::AckBlock;
use longlook_sim::pool;
use longlook_sim::time::{Dur, Time};

/// Cap on ack ranges carried per frame (oldest are dropped).
const MAX_BLOCKS: usize = 32;

/// Tracks received packet numbers and ack scheduling.
#[derive(Debug, Default)]
pub struct AckTracker {
    /// Received pn ranges, ascending, disjoint, inclusive.
    ranges: Vec<(u64, u64)>,
    largest: Option<u64>,
    largest_recv_time: Time,
    /// Retransmittable packets since the last ack went out.
    unacked_count: u32,
    /// Delayed-ack deadline, if armed.
    ack_deadline: Option<Time>,
}

impl AckTracker {
    /// Record an arriving packet. `retransmittable` = contains frames
    /// needing acknowledgement (stream/handshake/window-update data, not
    /// bare acks). Returns `true` if this pn was seen before (duplicate).
    pub fn on_packet(
        &mut self,
        pn: u64,
        now: Time,
        retransmittable: bool,
        ack_every: u32,
        delayed_ack: Dur,
    ) -> bool {
        let dup = self.insert(pn);
        if self.largest.is_none_or(|l| pn > l) {
            self.largest = Some(pn);
            self.largest_recv_time = now;
        }
        if retransmittable && !dup {
            self.unacked_count += 1;
            if self.unacked_count < ack_every {
                // Arm the delayed-ack timer.
                if self.ack_deadline.is_none() {
                    self.ack_deadline = Some(now + delayed_ack);
                }
            }
        }
        dup
    }

    fn insert(&mut self, pn: u64) -> bool {
        // In-order fast path: extending or appending past the newest range
        // is the overwhelming bulk-transfer case; the positional walk
        // below would scan every range just to reach the end. Ranges are
        // maximal (gaps of at least 2 between them), so extending the last
        // range can never trigger a merge — the outcomes are exactly what
        // the walk would produce.
        if let Some(&mut (_, ref mut e)) = self.ranges.last_mut() {
            if pn == *e + 1 {
                *e = pn;
                return false;
            }
            if pn > *e {
                self.ranges.push((pn, pn));
                self.trim();
                return false;
            }
        }
        // Find position; ranges is small (<= MAX_BLOCKS).
        for i in 0..self.ranges.len() {
            let (s, e) = self.ranges[i];
            if pn >= s && pn <= e {
                return true; // duplicate
            }
            if pn + 1 == s {
                self.ranges[i].0 = pn;
                // Possibly merge with the previous range.
                if i > 0 && self.ranges[i - 1].1 + 1 == pn {
                    self.ranges[i - 1].1 = self.ranges[i].1;
                    self.ranges.remove(i);
                }
                return false;
            }
            if pn == e + 1 {
                self.ranges[i].1 = pn;
                if i + 1 < self.ranges.len() && self.ranges[i + 1].0 == pn + 1 {
                    self.ranges[i].1 = self.ranges[i + 1].1;
                    self.ranges.remove(i + 1);
                }
                return false;
            }
            if pn < s {
                self.ranges.insert(i, (pn, pn));
                self.trim();
                return false;
            }
        }
        self.ranges.push((pn, pn));
        self.trim();
        false
    }

    fn trim(&mut self) {
        while self.ranges.len() > MAX_BLOCKS {
            self.ranges.remove(0); // drop the oldest (smallest) range
        }
    }

    /// Whether an ack should be sent right now.
    pub fn ack_due(&self, now: Time, ack_every: u32) -> bool {
        if self.unacked_count == 0 {
            return false;
        }
        self.unacked_count >= ack_every || self.ack_deadline.is_some_and(|d| now >= d)
    }

    /// Delayed-ack deadline for the wakeup calculation.
    pub fn deadline(&self) -> Option<Time> {
        if self.unacked_count > 0 {
            self.ack_deadline
        } else {
            None
        }
    }

    /// Build the ack frame contents and reset the decimation counter.
    /// Returns `(largest, ack_delay, blocks-descending)`, or `None` if
    /// nothing has been received yet. The block vector comes from the
    /// thread's free list ([`pool::take_blocks`]); whoever processes the
    /// ack hands it back.
    pub fn build_ack(&mut self, now: Time) -> Option<(u64, Dur, Vec<AckBlock>)> {
        let largest = self.largest?;
        let delay = now.saturating_since(self.largest_recv_time);
        let mut blocks = pool::take_blocks();
        blocks.extend(self.ranges.iter().rev()); // descending, largest first
        self.unacked_count = 0;
        self.ack_deadline = None;
        Some((largest, delay, blocks))
    }

    /// Largest packet number received.
    pub fn largest(&self) -> Option<u64> {
        self.largest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVERY: u32 = 2;
    const DELAY: Dur = Dur::from_millis(25);

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    fn on(a: &mut AckTracker, pn: u64, ms: u64) -> bool {
        a.on_packet(pn, t(ms), true, EVERY, DELAY)
    }

    #[test]
    fn ack_after_every_second_packet() {
        let mut a = AckTracker::default();
        on(&mut a, 0, 0);
        assert!(!a.ack_due(t(0), EVERY));
        on(&mut a, 1, 1);
        assert!(a.ack_due(t(1), EVERY));
        let (largest, _, blocks) = a.build_ack(t(1)).unwrap();
        assert_eq!(largest, 1);
        assert_eq!(blocks, vec![(0, 1)]);
        assert!(!a.ack_due(t(1), EVERY), "counter reset");
    }

    #[test]
    fn delayed_ack_timer_fires() {
        let mut a = AckTracker::default();
        on(&mut a, 0, 0);
        assert!(!a.ack_due(t(10), EVERY));
        assert_eq!(a.deadline(), Some(t(25)));
        assert!(a.ack_due(t(25), EVERY));
    }

    #[test]
    fn ack_delay_measures_since_largest() {
        let mut a = AckTracker::default();
        on(&mut a, 0, 0);
        on(&mut a, 1, 10);
        let (_, delay, _) = a.build_ack(t(13)).unwrap();
        assert_eq!(delay, Dur::from_millis(3));
    }

    #[test]
    fn gaps_produce_multiple_blocks() {
        let mut a = AckTracker::default();
        on(&mut a, 0, 0);
        on(&mut a, 1, 1);
        on(&mut a, 5, 2);
        on(&mut a, 6, 3);
        on(&mut a, 9, 4);
        let (largest, _, blocks) = a.build_ack(t(5)).unwrap();
        assert_eq!(largest, 9);
        assert_eq!(blocks, vec![(9, 9), (5, 6), (0, 1)]);
    }

    #[test]
    fn hole_filling_merges_blocks() {
        let mut a = AckTracker::default();
        on(&mut a, 0, 0);
        on(&mut a, 2, 1);
        on(&mut a, 1, 2); // fills the hole
        let (_, _, blocks) = a.build_ack(t(3)).unwrap();
        assert_eq!(blocks, vec![(0, 2)]);
    }

    #[test]
    fn duplicates_detected() {
        let mut a = AckTracker::default();
        assert!(!on(&mut a, 3, 0));
        assert!(on(&mut a, 3, 1), "same pn again is a duplicate");
    }

    #[test]
    fn out_of_order_arrival_recorded() {
        let mut a = AckTracker::default();
        on(&mut a, 5, 0);
        on(&mut a, 3, 1); // arrives late
        assert_eq!(a.largest(), Some(5));
        let (_, _, blocks) = a.build_ack(t(2)).unwrap();
        assert_eq!(blocks, vec![(5, 5), (3, 3)]);
    }

    #[test]
    fn non_retransmittable_packets_do_not_trigger_acks() {
        let mut a = AckTracker::default();
        a.on_packet(0, t(0), false, EVERY, DELAY);
        a.on_packet(1, t(1), false, EVERY, DELAY);
        assert!(!a.ack_due(t(100), EVERY));
        assert_eq!(a.deadline(), None);
    }

    #[test]
    fn block_cap_drops_oldest() {
        let mut a = AckTracker::default();
        // 40 isolated ranges: every other pn.
        for pn in 0..80u64 {
            if pn % 2 == 0 {
                on(&mut a, pn, pn);
            }
        }
        let (_, _, blocks) = a.build_ack(t(100)).unwrap();
        assert_eq!(blocks.len(), MAX_BLOCKS);
        // The newest (largest) survive.
        assert_eq!(blocks[0], (78, 78));
    }
}
