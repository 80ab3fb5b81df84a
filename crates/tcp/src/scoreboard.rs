//! Sender-side SACK scoreboard: dupack counting with an adaptive duplicate
//! threshold (DSACK / RR-TCP), loss marking, and Karn-compliant RTT
//! sampling metadata.
//!
//! The contrast with QUIC's `SentStore` is the point of the model:
//!
//! * sequence numbers are *byte ranges* that are reused on retransmission,
//!   so a retransmitted segment's ack is ambiguous and produces **no RTT
//!   sample** (Karn's algorithm);
//! * the duplicate-ack threshold **adapts upward** when a DSACK proves a
//!   retransmission spurious (RR-TCP), which is why TCP tolerates the
//!   packet reordering that cripples QUIC's fixed NACK threshold
//!   (Sec 5.2, Fig 10 of the paper).

use longlook_sim::time::Time;
use std::collections::VecDeque;

/// Metadata for one transmitted segment.
#[derive(Debug, Clone, Copy)]
struct Seg {
    len: u32,
    sent_at: Time,
    /// Retransmitted at least once (Karn: no RTT sample).
    retransmitted: bool,
    /// Covered by a SACK block.
    sacked: bool,
    /// Marked lost (scheduled for retransmission, out of the pipe).
    lost: bool,
}

/// Result of processing one incoming ack.
#[derive(Debug, Default)]
pub struct TcpAckOutcome {
    /// Bytes newly cumulatively acked.
    pub newly_acked: u64,
    /// Bytes newly SACKed (not yet cumulatively acked).
    pub newly_sacked: u64,
    /// RTT sample (only from a never-retransmitted segment — Karn).
    pub rtt_sample: Option<longlook_sim::time::Dur>,
    /// Send time of the newest segment covered by this ack.
    pub newest_acked_sent_at: Option<Time>,
    /// Segment start offsets newly marked lost (need retransmission).
    pub lost_ranges: Vec<(u64, u32)>,
    /// Whether a fast retransmit should fire now.
    pub fast_retransmit: bool,
    /// Send time of the first segment marked lost (congestion epoch anchor).
    pub lost_sent_at: Option<Time>,
    /// DSACK proved a retransmission spurious.
    pub spurious: bool,
}

/// The scoreboard.
///
/// Outstanding segments live in a ring ordered by sequence number.
/// Segments are contiguous, their boundaries are stable and first
/// transmissions arrive in increasing `seq`, so the steady state is a
/// `push_back` per send and a `pop_front` per acked segment, and the SACK
/// walks run over an index range of contiguous memory. Only a
/// retransmission (or an out-of-order first transmission, which the API
/// allows though the connection never does it) needs a binary search.
#[derive(Debug)]
pub struct Scoreboard {
    /// `(seq, segment)`, strictly ascending by `seq`.
    segs: VecDeque<(u64, Seg)>,
    snd_una: u64,
    /// Duplicate acks seen at the current snd_una.
    dupacks: u32,
    /// Current duplicate-ack threshold (adapts via DSACK).
    dupthresh: u32,
    /// Upper bound for the adaptive threshold.
    max_dupthresh: u32,
    /// Whether fast retransmit already fired at this snd_una.
    fr_fired: bool,
    /// Bytes in flight (sent, not acked/sacked/lost).
    pipe: u64,
    /// Segments currently marked lost — kept in lockstep with the `lost`
    /// flags so the per-poll retransmission check is O(1) instead of an
    /// allocating full scan.
    lost_segs: usize,
}

impl Scoreboard {
    /// New scoreboard with the classic initial dupthresh of 3.
    pub fn new() -> Self {
        Scoreboard {
            segs: VecDeque::new(),
            snd_una: 0,
            dupacks: 0,
            dupthresh: 3,
            max_dupthresh: 64,
            fr_fired: false,
            pipe: 0,
            lost_segs: 0,
        }
    }

    /// Record a (re)transmission of `[seq, seq+len)`.
    pub fn on_sent(&mut self, seq: u64, len: u32, now: Time) {
        let fresh = Seg {
            len,
            sent_at: now,
            retransmitted: false,
            sacked: false,
            lost: false,
        };
        // First transmissions arrive in increasing `seq`.
        if self.segs.back().is_none_or(|&(last, _)| last < seq) {
            self.segs.push_back((seq, fresh));
            self.pipe += len as u64;
            return;
        }
        let i = self.index_of(seq);
        match self.segs.get_mut(i) {
            Some((k, seg)) if *k == seq => {
                // Retransmission: back in the pipe, tainted for Karn.
                debug_assert_eq!(seg.len, len, "segment boundaries are stable");
                if seg.lost {
                    seg.lost = false;
                    self.lost_segs -= 1;
                    self.pipe += seg.len as u64;
                }
                seg.retransmitted = true;
                seg.sent_at = now;
            }
            _ => {
                self.segs.insert(i, (seq, fresh));
                self.pipe += len as u64;
            }
        }
    }

    /// Index of the first segment starting at or above `seq`.
    fn index_of(&self, seq: u64) -> usize {
        self.segs.partition_point(|&(k, _)| k < seq)
    }

    /// Bytes outstanding (sent, un-acked, un-sacked, not marked lost).
    pub fn pipe(&self) -> u64 {
        self.pipe
    }

    /// Current cumulative-ack point.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Current adaptive duplicate threshold.
    pub fn dupthresh(&self) -> u32 {
        self.dupthresh
    }

    /// Whether anything is outstanding.
    pub fn has_outstanding(&self) -> bool {
        !self.segs.is_empty()
    }

    /// RTO handling per RFC 6675 / Linux: consider *every* outstanding
    /// unsacked segment lost and rebuild from slow start. Marking only
    /// the oldest would leave phantom bytes in the pipe and starve the
    /// retransmission path after a burst of drops.
    pub fn mark_all_lost(&mut self) -> usize {
        let mut n = 0;
        for (_, seg) in self.segs.iter_mut() {
            if !seg.sacked && !seg.lost {
                seg.lost = true;
                self.lost_segs += 1;
                self.pipe -= seg.len as u64;
                n += 1;
            }
        }
        n
    }

    /// Process an incoming ack. `carries_data` marks a piggybacked ack on
    /// a data segment — those never count as duplicate acks (RFC 5681).
    pub fn on_ack(
        &mut self,
        now: Time,
        ack: u64,
        sacks: &[(u64, u64)],
        dsack: bool,
        carries_data: bool,
    ) -> TcpAckOutcome {
        let mut out = TcpAckOutcome::default();

        if dsack {
            out.spurious = true;
            // RR-TCP style: raise the tolerance for reordering.
            self.dupthresh = (self.dupthresh * 2).min(self.max_dupthresh);
        }

        // Cumulative ack advance.
        if ack > self.snd_una {
            out.newly_acked = ack - self.snd_una;
            self.snd_una = ack;
            self.dupacks = 0;
            self.fr_fired = false;
            // Pop every segment starting below the ack, oldest first.
            while let Some(&(seq, seg)) = self.segs.front().filter(|&&(seq, _)| seq < ack) {
                self.segs.pop_front();
                if !seg.sacked && !seg.lost {
                    self.pipe -= seg.len as u64;
                }
                if seg.lost {
                    self.lost_segs -= 1;
                }
                let newest = out.newest_acked_sent_at.get_or_insert(seg.sent_at);
                if seg.sent_at > *newest {
                    *newest = seg.sent_at;
                }
                // Karn: only clean samples, from the newest covered seg.
                if !seg.retransmitted && seq + seg.len as u64 == ack {
                    out.rtt_sample = Some(now.saturating_since(seg.sent_at));
                }
            }
        } else if ack == self.snd_una && self.has_outstanding() && !carries_data {
            self.dupacks += 1;
        }

        // SACK marking (skip the DSACK block — it reports old data).
        let plain = if dsack {
            &sacks[1.min(sacks.len())..]
        } else {
            sacks
        };
        let mut highest_sacked = 0u64;
        for &(s, e) in plain {
            highest_sacked = highest_sacked.max(e);
            // Segments starting inside the block; one that runs past its
            // end is not covered, and an inverted block covers nothing.
            let (lo, hi) = (self.index_of(s), self.index_of(e));
            for (k, seg) in self.segs.range_mut(lo..hi.max(lo)) {
                if *k + seg.len as u64 <= e && !seg.sacked {
                    seg.sacked = true;
                    if !seg.lost {
                        self.pipe -= seg.len as u64;
                    } else {
                        seg.lost = false;
                        self.lost_segs -= 1;
                    }
                    out.newly_sacked += seg.len as u64;
                    let newest = out.newest_acked_sent_at.get_or_insert(seg.sent_at);
                    if seg.sent_at > *newest {
                        *newest = seg.sent_at;
                    }
                }
            }
        }

        // Loss inference, RFC 6675 style: on every ack, a hole is lost
        // once at least `dupthresh` SACKed segments lie above it. Running
        // this continuously (not once per window) is what lets SACK
        // recovery handle multiple losses per window without an RTO.
        if highest_sacked > self.snd_una {
            // Walk the hole region newest-first, marking losses in place:
            // the verdict for a segment depends only on SACKed segments
            // *above* it, which the reverse walk has already consumed,
            // so no snapshot is needed.
            let mut sacked_above = 0u32;
            let mut latest_sacked_sent = None::<Time>;
            let dupthresh = self.dupthresh;
            let (lo, hi) = (self.index_of(self.snd_una), self.index_of(highest_sacked));
            for &mut (k, ref mut seg) in self.segs.range_mut(lo..hi).rev() {
                if seg.sacked {
                    sacked_above += 1;
                    latest_sacked_sent = Some(match latest_sacked_sent {
                        Some(t) if t >= seg.sent_at => t,
                        _ => seg.sent_at,
                    });
                } else if !seg.lost
                    && sacked_above >= dupthresh
                    // Time-order guard: only declare the hole lost if some
                    // SACKed segment was *sent after* it — otherwise a
                    // just-retransmitted segment would be instantly
                    // re-marked lost (and retransmitted forever).
                    && latest_sacked_sent.is_some_and(|t| t > seg.sent_at)
                {
                    seg.lost = true;
                    self.lost_segs += 1;
                    self.pipe -= seg.len as u64;
                    match out.lost_sent_at {
                        Some(t) if t <= seg.sent_at => {}
                        _ => out.lost_sent_at = Some(seg.sent_at),
                    }
                    out.lost_ranges.push((k, seg.len));
                }
            }
            if !out.lost_ranges.is_empty() {
                out.fast_retransmit = true;
                self.fr_fired = true;
            }
        }
        // Pure-dupack fallback (no SACK information): classic fast
        // retransmit of the first outstanding segment, once per window.
        if self.dupacks >= self.dupthresh && !self.fr_fired {
            self.fr_fired = true;
            out.fast_retransmit = true;
            if let Some(&mut (seq, ref mut seg)) = self.segs.iter_mut().find(|(_, s)| !s.sacked) {
                if !seg.lost {
                    seg.lost = true;
                    self.lost_segs += 1;
                    self.pipe -= seg.len as u64;
                }
                out.lost_sent_at = Some(seg.sent_at);
                out.lost_ranges.push((seq, seg.len));
            }
        }
        out
    }

    /// Lost ranges currently awaiting retransmission.
    #[cfg(test)]
    fn lost_ranges(&self) -> Vec<(u64, u32)> {
        self.segs
            .iter()
            .filter(|(_, s)| s.lost)
            .map(|&(k, s)| (k, s.len))
            .collect()
    }

    /// Number of segments currently marked lost (O(1)).
    pub fn lost_count(&self) -> usize {
        self.lost_segs
    }

    /// Lowest-sequence lost segment — the next retransmission target.
    /// Early-exits on the counter so the no-loss steady state pays nothing.
    pub fn first_lost(&self) -> Option<(u64, u32)> {
        if self.lost_segs == 0 {
            return None;
        }
        self.segs
            .iter()
            .find(|(_, s)| s.lost)
            .map(|&(k, s)| (k, s.len))
    }
}

impl Default for Scoreboard {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longlook_sim::time::Dur;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    /// Send k mss-sized segments starting at byte 0.
    fn send_n(sb: &mut Scoreboard, n: u64, mss: u32) {
        for i in 0..n {
            sb.on_sent(i * mss as u64, mss, t(i));
        }
    }

    #[test]
    fn cumulative_ack_frees_pipe_and_samples_rtt() {
        let mut sb = Scoreboard::new();
        send_n(&mut sb, 4, 1000);
        assert_eq!(sb.pipe(), 4000);
        let out = sb.on_ack(t(40), 2000, &[], false, false);
        assert_eq!(out.newly_acked, 2000);
        assert_eq!(sb.pipe(), 2000);
        // Sample from the segment ending at 2000 (sent at t=1).
        assert_eq!(out.rtt_sample, Some(Dur::from_millis(39)));
    }

    #[test]
    fn karn_suppresses_samples_from_retransmissions() {
        let mut sb = Scoreboard::new();
        sb.on_sent(0, 1000, t(0));
        sb.on_sent(0, 1000, t(100)); // retransmission of the same range
        let out = sb.on_ack(t(140), 1000, &[], false, false);
        assert_eq!(out.newly_acked, 1000);
        assert_eq!(out.rtt_sample, None, "ambiguous ack gives no sample");
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut sb = Scoreboard::new();
        send_n(&mut sb, 5, 1000);
        sb.on_ack(t(40), 1000, &[], false, false);
        let o1 = sb.on_ack(t(41), 1000, &[], false, false);
        let o2 = sb.on_ack(t(42), 1000, &[], false, false);
        assert!(!o1.fast_retransmit && !o2.fast_retransmit);
        let o3 = sb.on_ack(t(43), 1000, &[], false, false);
        assert!(o3.fast_retransmit);
        assert_eq!(o3.lost_ranges, vec![(1000, 1000)]);
        // Only once per window.
        let o4 = sb.on_ack(t(44), 1000, &[], false, false);
        assert!(!o4.fast_retransmit);
    }

    #[test]
    fn sack_based_loss_marking() {
        let mut sb = Scoreboard::new();
        send_n(&mut sb, 6, 1000);
        // Segment [0,1000) lost; SACKs arrive for 1..4.
        sb.on_ack(t(40), 0, &[(1000, 2000)], false, false);
        sb.on_ack(t(41), 0, &[(1000, 3000)], false, false);
        let o = sb.on_ack(t(42), 0, &[(1000, 4000)], false, false);
        assert!(o.fast_retransmit);
        assert_eq!(o.lost_ranges, vec![(0, 1000)]);
        // Pipe excludes sacked and lost bytes: 6000 - 3000 sacked - 1000 lost.
        assert_eq!(sb.pipe(), 2000);
    }

    #[test]
    fn dsack_doubles_dupthresh_and_reports_spurious() {
        let mut sb = Scoreboard::new();
        send_n(&mut sb, 2, 1000);
        assert_eq!(sb.dupthresh(), 3);
        let o = sb.on_ack(t(40), 2000, &[(0, 1000)], true, false);
        assert!(o.spurious);
        assert_eq!(sb.dupthresh(), 6);
        // Caps eventually.
        for _ in 0..10 {
            sb.on_ack(t(50), 2000, &[(0, 1000)], true, false);
        }
        assert_eq!(sb.dupthresh(), 64);
    }

    #[test]
    fn higher_dupthresh_requires_more_dupacks() {
        let mut sb = Scoreboard::new();
        send_n(&mut sb, 10, 1000);
        sb.on_ack(t(40), 1000, &[], false, false);
        // Raise the threshold via DSACK.
        sb.on_ack(t(41), 1000, &[(0, 1000)], true, false); // dupthresh -> 6
        for _ in 0..4 {
            let o = sb.on_ack(t(42), 1000, &[], false, false);
            assert!(!o.fast_retransmit);
        }
        // dupacks: 1 (from the dsack ack at same snd_una)... reach 6.
        let mut fired = false;
        for _ in 0..3 {
            fired |= sb.on_ack(t(43), 1000, &[], false, false).fast_retransmit;
        }
        assert!(fired, "eventually fires at the higher threshold");
    }

    #[test]
    fn retransmission_after_loss_restores_pipe() {
        let mut sb = Scoreboard::new();
        send_n(&mut sb, 5, 1000);
        // One advancing ack, then three duplicates to reach dupthresh.
        for k in 0..4 {
            sb.on_ack(t(40 + k), 1000, &[], false, false);
        }
        let lost = sb.lost_ranges();
        assert_eq!(lost, vec![(1000, 1000)]);
        let pipe_before = sb.pipe();
        sb.on_sent(1000, 1000, t(50)); // retransmit
        assert_eq!(sb.pipe(), pipe_before + 1000);
        assert!(sb.lost_ranges().is_empty());
    }

    /// The RTO marks the oldest unsacked segment lost, and every later
    /// unsacked one with it, so no phantom bytes stay in the pipe.
    #[test]
    fn rto_marks_oldest() {
        let mut sb = Scoreboard::new();
        send_n(&mut sb, 3, 1000);
        sb.on_ack(t(40), 0, &[(1000, 2000)], false, false);
        assert_eq!(sb.mark_all_lost(), 2);
        assert_eq!(sb.first_lost(), Some((0, 1000)));
        assert_eq!(sb.lost_ranges(), vec![(0, 1000), (2000, 1000)]);
        assert_eq!(sb.pipe(), 0);
    }

    #[test]
    fn lost_counter_tracks_flags_through_full_cycle() {
        let mut sb = Scoreboard::new();
        send_n(&mut sb, 8, 1000);
        assert_eq!(sb.lost_count(), 0);
        assert_eq!(sb.first_lost(), None);
        // SACK-driven loss of segment 0.
        sb.on_ack(t(40), 0, &[(1000, 2000)], false, false);
        sb.on_ack(t(41), 0, &[(1000, 3000)], false, false);
        sb.on_ack(t(42), 0, &[(1000, 4000)], false, false);
        assert_eq!(sb.lost_count(), 1);
        assert_eq!(sb.first_lost(), Some((0, 1000)));
        assert_eq!(sb.lost_ranges(), vec![(0, 1000)]);
        // Retransmission clears the mark.
        sb.on_sent(0, 1000, t(50));
        assert_eq!(sb.lost_count(), 0);
        // RTO marks everything unsacked; cumulative ack clears some.
        sb.mark_all_lost();
        assert_eq!(sb.lost_count(), sb.lost_ranges().len());
        let n_before = sb.lost_count();
        sb.on_ack(t(60), 5000, &[], false, false);
        assert_eq!(sb.lost_count(), sb.lost_ranges().len());
        assert!(sb.lost_count() < n_before);
        assert_eq!(
            sb.first_lost().map(|(s, _)| s),
            sb.lost_ranges().first().map(|&(s, _)| s)
        );
        // SACK covering a lost segment also clears its mark.
        sb.on_ack(t(61), 5000, &[(5000, 6000)], false, false);
        assert_eq!(sb.lost_count(), sb.lost_ranges().len());
    }

    #[test]
    fn newest_acked_sent_time_reported() {
        let mut sb = Scoreboard::new();
        send_n(&mut sb, 3, 1000);
        let o = sb.on_ack(t(40), 3000, &[], false, false);
        assert_eq!(o.newest_acked_sent_at, Some(t(2)));
    }
}
