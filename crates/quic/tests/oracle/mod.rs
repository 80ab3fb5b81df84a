//! The `BTreeMap` sent-packet tracker, verbatim from when it was the
//! per-event reference path behind `longlook_quic::sent::SentStore`: the
//! oracle of `slab_store_equivalent_to_map_store` and
//! `ack_outcome_depends_only_on_covered_set`. The `BTreeMap` stream table
//! is in [`streams`].

pub mod streams;

use longlook_quic::sent::{AckOutcome, SentPacket};
use longlook_quic::wire::AckBlock;
use longlook_sim::time::{Dur, Time};
use std::collections::BTreeMap;

/// The sender-side tracker as it was before the slab: one `BTreeMap` node
/// per packet, a nack counter bumped on every packet below the horizon on
/// every ack frame.
#[derive(Debug, Default)]
pub struct SentTracker {
    packets: BTreeMap<u64, SentPacket>,
    bytes_in_flight: u64,
    largest_acked: Option<u64>,
    /// Packets declared lost, retained briefly to detect spuriousness.
    lost_log: BTreeMap<u64, Time>,
}

impl SentTracker {
    /// Record a transmission.
    pub fn on_sent(&mut self, pkt: SentPacket) {
        if pkt.retransmittable {
            self.bytes_in_flight += pkt.wire_bytes as u64;
        }
        let prev = self.packets.insert(pkt.pn, pkt);
        debug_assert!(prev.is_none(), "packet number reused");
    }

    /// Retransmittable bytes currently outstanding.
    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }

    /// Whether any retransmittable packet is outstanding.
    pub fn has_retransmittable(&self) -> bool {
        self.bytes_in_flight > 0
    }

    /// Largest acked packet number.
    pub fn largest_acked(&self) -> Option<u64> {
        self.largest_acked
    }

    /// Clone of the newest outstanding retransmittable packet (for TLP).
    pub fn newest_retransmittable(&self) -> Option<&SentPacket> {
        self.packets.values().rev().find(|p| p.retransmittable)
    }

    /// Declare up to `n` oldest retransmittable packets lost (for RTO);
    /// returns them with in-flight accounting updated and spurious
    /// tracking armed.
    pub fn declare_oldest_lost(&mut self, n: usize) -> Vec<SentPacket> {
        let pns: Vec<u64> = self
            .packets
            .values()
            .filter(|p| p.retransmittable)
            .take(n)
            .map(|p| p.pn)
            .collect();
        let mut out = Vec::with_capacity(pns.len());
        for pn in pns {
            if let Some(pkt) = self.remove_in_flight(pn) {
                self.lost_log.insert(pkt.pn, pkt.sent_at);
                out.push(pkt);
            }
        }
        out
    }

    fn remove_in_flight(&mut self, pn: u64) -> Option<SentPacket> {
        let pkt = self.packets.remove(&pn)?;
        if pkt.retransmittable {
            self.bytes_in_flight -= pkt.wire_bytes as u64;
        }
        Some(pkt)
    }

    /// Process an ack frame. `time_threshold` (if set) additionally marks
    /// packets lost once they are older than that relative to `now` and
    /// below the largest acked pn.
    pub fn on_ack_frame(
        &mut self,
        now: Time,
        largest: u64,
        ack_delay: Dur,
        blocks: &[AckBlock],
        nack_threshold: u32,
        time_threshold: Option<Dur>,
    ) -> AckOutcome {
        let _ = ack_delay; // rtt adjustment is done by the caller's estimator
        let mut out = AckOutcome::default();

        // Collect newly acked pns present in our map.
        let mut acked: Vec<u64> = Vec::new();
        for &(start, end) in blocks {
            let in_range: Vec<u64> = self.packets.range(start..=end).map(|(&pn, _)| pn).collect();
            acked.extend(in_range);
        }
        acked.sort_unstable();

        for pn in acked {
            let pkt = self.remove_in_flight(pn).expect("collected above");
            if pkt.retransmittable {
                out.newly_acked_bytes += pkt.wire_bytes as u64;
                out.acked_payload_bytes += pkt.chunks.iter().map(|c| c.len as u64).sum::<u64>();
                out.acked_new_data = true;
            }
            out.newest_acked_sent_at = Some(match out.newest_acked_sent_at {
                Some(t) if t > pkt.sent_at => t,
                _ => pkt.sent_at,
            });
            if pn == largest {
                out.rtt_sample = Some(now.saturating_since(pkt.sent_at));
            }
        }

        // Spurious detection: acked pns we had declared lost.
        for &(start, end) in blocks {
            let hits: Vec<u64> = self
                .lost_log
                .range(start..=end)
                .map(|(&pn, _)| pn)
                .collect();
            for pn in hits {
                self.lost_log.remove(&pn);
                out.spurious += 1;
            }
        }

        self.largest_acked = Some(self.largest_acked.map_or(largest, |l| l.max(largest)));
        let horizon = self.largest_acked.expect("just set");

        // NACK counting: every unacked packet below the largest acked gets
        // one nack per ack frame processed.
        let mut lost_pns: Vec<u64> = Vec::new();
        for (&pn, pkt) in self.packets.range_mut(..horizon) {
            if !pkt.retransmittable {
                continue;
            }
            pkt.nacks += 1;
            let nack_lost = pkt.nacks >= nack_threshold;
            let time_lost = time_threshold.is_some_and(|th| now.saturating_since(pkt.sent_at) > th);
            if nack_lost || time_lost {
                lost_pns.push(pn);
            }
        }
        for pn in lost_pns {
            let pkt = self.remove_in_flight(pn).expect("present");
            self.lost_log.insert(pkt.pn, pkt.sent_at);
            out.lost.push(pkt);
        }

        self.prune_lost_log();
        out
    }

    fn prune_lost_log(&mut self) {
        if let Some(horizon) = self.largest_acked {
            let cutoff = horizon.saturating_sub(10_000);
            self.lost_log = self.lost_log.split_off(&cutoff);
        }
    }

    /// Outstanding packet count (diagnostics).
    pub fn outstanding(&self) -> usize {
        self.packets.len()
    }
}
