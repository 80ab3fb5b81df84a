//! The `BTreeMap` SACK scoreboard, verbatim from before
//! `longlook_tcp::scoreboard::Scoreboard` became a sequence-ordered ring:
//! the oracle of `ring_scoreboard_equivalent_to_map_scoreboard`. Only the
//! allocating `lost_ranges()` scan, which nothing outside the unit tests
//! called, is left out. The `BTreeMap` h2 record indexes are in [`h2`].

pub mod h2;

use longlook_sim::time::Time;
use longlook_tcp::scoreboard::TcpAckOutcome;
use std::collections::BTreeMap;

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

/// The scoreboard as it was before the ring: one `BTreeMap` node per
/// segment.
#[derive(Debug)]
pub struct MapScoreboard {
    segs: BTreeMap<u64, Seg>,
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

impl MapScoreboard {
    /// New scoreboard with the classic initial dupthresh of 3.
    pub fn new() -> Self {
        MapScoreboard {
            segs: BTreeMap::new(),
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
        match self.segs.get_mut(&seq) {
            Some(seg) => {
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
            None => {
                self.segs.insert(
                    seq,
                    Seg {
                        len,
                        sent_at: now,
                        retransmitted: false,
                        sacked: false,
                        lost: false,
                    },
                );
                self.pipe += len as u64;
            }
        }
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

    /// Oldest unacked, un-sacked segment (the dupack fast-retransmit
    /// target).
    fn oldest_unsacked(&self) -> Option<(u64, u32)> {
        self.segs
            .iter()
            .find(|(_, s)| !s.sacked)
            .map(|(&seq, s)| (seq, s.len))
    }

    /// RTO handling per RFC 6675 / Linux: consider *every* outstanding
    /// unsacked segment lost and rebuild from slow start. Marking only
    /// the oldest would leave phantom bytes in the pipe and starve the
    /// retransmission path after a burst of drops.
    pub fn mark_all_lost(&mut self) -> usize {
        let mut n = 0;
        for seg in self.segs.values_mut() {
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
            // Pop covered segments in ascending order without collecting
            // the key set first.
            while let Some((&seq, _)) = self.segs.range(..ack).next() {
                let seg = self.segs.remove(&seq).expect("present");
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
            // Marking never changes keys, so mutate in place through the
            // range cursor instead of collecting the key set.
            for (&k, seg) in self.segs.range_mut(s..e) {
                if k >= s && k + seg.len as u64 <= e && !seg.sacked {
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
            // *above* it, which the reverse cursor has already consumed,
            // so no snapshot is needed.
            let mut sacked_above = 0u32;
            let mut latest_sacked_sent = None::<Time>;
            let dupthresh = self.dupthresh;
            for (&k, seg) in self.segs.range_mut(self.snd_una..highest_sacked).rev() {
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
            if let Some((seq, len)) = self.oldest_unsacked() {
                let seg = self.segs.get_mut(&seq).expect("found");
                if !seg.lost {
                    seg.lost = true;
                    self.lost_segs += 1;
                    self.pipe -= seg.len as u64;
                }
                out.lost_sent_at = Some(seg.sent_at);
                out.lost_ranges.push((seq, len));
            }
        }
        out
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
            .map(|(&k, s)| (k, s.len))
    }
}

impl Default for MapScoreboard {
    fn default() -> Self {
        Self::new()
    }
}
