//! Sender-side packet tracking and loss detection.
//!
//! This is where QUIC's defining sender behaviors live:
//!
//! * **No retransmission ambiguity** — packet numbers are monotonic, every
//!   ack maps to exactly one transmission, so every ack can produce an RTT
//!   sample (TCP's Karn restriction does not apply);
//! * **NACK-threshold fast retransmit** — a packet is declared lost after
//!   being "nacked" by `nack_threshold` acks covering later packets
//!   (default 3). The paper shows this fixed threshold misclassifies
//!   reordered packets as lost (Sec 5.2, Fig 10);
//! * **spurious-retransmission detection** — an ack arriving for a packet
//!   already declared lost proves the retransmission spurious, feeding
//!   both statistics and the optional adaptive threshold.
//!
//! [`SentStore`] is the one implementation. The `BTreeMap` tracker it
//! replaced — one node per packet, a nack counter bumped on every packet
//! below the horizon on every ack — survives as the oracle of
//! `slab_store_equivalent_to_map_store` (`tests/oracle/`), which holds
//! every outcome field, the loss order and the accounting to it.

use crate::streams::Chunk;
use crate::wire::{AckBlock, HandshakeKind};
use longlook_sim::time::{Dur, Time};
use std::collections::VecDeque;
use std::mem;

/// Bookkeeping for one transmitted packet.
#[derive(Debug, Clone)]
pub struct SentPacket {
    /// Packet number.
    pub pn: u64,
    /// Transmission time.
    pub sent_at: Time,
    /// Full wire size (for in-flight accounting).
    pub wire_bytes: u32,
    /// Stream chunks carried (requeued on loss).
    pub chunks: Vec<Chunk>,
    /// Handshake message carried (retransmitted on loss).
    pub handshake: Option<HandshakeKind>,
    /// Streams whose window updates rode in this packet (0 = connection);
    /// on loss the *current* windows are re-announced.
    pub wu_streams: Vec<u32>,
    /// Whether the packet counts toward bytes in flight and needs acking.
    pub retransmittable: bool,
    // Unused by `SentStore`, which derives a packet's nack count from
    // the ack counter; only the map oracle counts here. Kept because
    // `observatory/` (frozen) builds `SentPacket` literals.
    #[doc(hidden)]
    pub nacks: u32,
}

/// What an incoming ack frame did.
#[derive(Debug, Default)]
pub struct AckOutcome {
    /// Retransmittable wire bytes newly acknowledged.
    pub newly_acked_bytes: u64,
    /// Stream payload bytes newly acknowledged.
    pub acked_payload_bytes: u64,
    /// Send time of the newest packet this ack covers (for CC epochs).
    pub newest_acked_sent_at: Option<Time>,
    /// RTT measurement from the largest acked packet, if it was newly
    /// acked by this frame.
    pub rtt_sample: Option<Dur>,
    /// Packets declared lost by this ack (NACK threshold / time).
    pub lost: Vec<SentPacket>,
    /// Previously-declared-lost packets now proven delivered.
    pub spurious: u32,
    /// Whether any new data was acked (resets TLP/RTO backoff).
    pub acked_new_data: bool,
}

/// Keep `v`'s storage for a later packet if it has any and `spares` has
/// room (eight cover a connection's steady state).
fn stash<T>(spares: &mut Vec<Vec<T>>, mut v: Vec<T>) {
    if spares.len() < 8 && v.capacity() > 0 {
        v.clear();
        spares.push(v);
    }
}

/// First index in `tags[i..end]` holding a live (non-zero) tag, or `end`.
/// Tombstone runs dominate the ack-scan window, so skip them eight tags
/// at a time before finishing byte-wise.
#[inline]
fn next_live_tag(tags: &[u8], mut i: usize, end: usize) -> usize {
    while i + 8 <= end {
        let w = u64::from_le_bytes(tags[i..i + 8].try_into().expect("8-byte slice"));
        if w == 0 {
            i += 8;
        } else {
            return i + (w.trailing_zeros() / 8) as usize;
        }
    }
    while i < end && tags[i] == 0 {
        i += 1;
    }
    i
}

/// Push onto `out` the key of every `items` entry (ascending by `key`)
/// that some ack block covers. Blocks are disjoint and sorted (descending
/// off the wire, ascending from tests), so after cutting `items` to the
/// blocks' overall span one merge walk finds each key's only candidate
/// block — entries outside the span are never touched.
fn covered_keys<T>(items: &[T], key: impl Fn(&T) -> u64, blocks: &[AckBlock], out: &mut Vec<u64>) {
    let (Some(&first), Some(&last)) = (blocks.first(), blocks.last()) else {
        return;
    };
    let span_lo = first.0.min(last.0);
    let span_hi = first.1.max(last.1);
    let lo_idx = items.partition_point(|e| key(e) < span_lo);
    let hi_idx = items.partition_point(|e| key(e) <= span_hi);
    let descending = blocks.len() >= 2 && blocks[0].0 > blocks[1].0;
    let at = |j: usize| {
        if descending {
            blocks[blocks.len() - 1 - j]
        } else {
            blocks[j]
        }
    };
    let mut j = 0usize;
    for e in &items[lo_idx..hi_idx] {
        let pn = key(e);
        while j < blocks.len() && at(j).1 < pn {
            j += 1;
        }
        if j < blocks.len() && at(j).0 <= pn {
            out.push(pn);
        }
    }
}

/// Slab-backed sender tracker with amortized NACK accounting.
///
/// Packet numbers are dense and monotone (the connection assigns them from
/// a counter), so outstanding packets live in a `VecDeque` slab indexed by
/// `pn - base`: O(1) insert/lookup/remove with no per-packet tree nodes.
///
/// Every ack frame nacks **every** outstanding packet below the ack
/// horizon; counting that per packet is O(outstanding) per ack. The slab
/// replaces the walk with arithmetic:
///
/// * `acks_seen` counts completed NACK walks (one per ack frame);
/// * a packet entering the below-horizon set records `entry = acks_seen`
///   at that instant, so its nack count is always `acks_seen - entry`
///   without being touched again;
/// * the `below` queue holds `(entry, pn)`, ascending in both fields
///   (packets enter in pn order, entries are monotone), so the
///   NACK-threshold loss condition `entry + threshold <= acks_seen` is
///   true for exactly a *prefix* — losses pop from the front in
///   pn-ascending order, even when the adaptive threshold grows between
///   frames.
///
/// Loss detection ignores non-retransmittable packets, so a bare ack the
/// network dropped is never acked and never declared lost: left in its
/// slot it would pin `base` for the rest of the connection while the
/// window grew by one slot per packet sent. The horizon walk (which
/// visits every pn exactly once) therefore moves each live
/// non-retransmittable packet it passes into `stragglers`, a small
/// pn-ordered side store that the ack scan also consults. Nothing can
/// tell where such a packet is kept — it carries no bytes in flight, is
/// in no NACK set, and is acked from the side store at the same place in
/// pn order — so outcomes, `outstanding()` and chunk recycling are those
/// of a store that kept it in place, and the slot window spans only the
/// packets still in flight plus those waiting out their NACK threshold.
///
/// Per ack frame the slab does O(blocks + newly-acked + newly-below +
/// newly-lost) work plus a word-at-a-time skip over that window's
/// tombstones. Time-threshold loss detection (off by default) takes a
/// full-scan path over `below` instead of the prefix pop, because for
/// arbitrary `sent_at` patterns time-lost packets need not be contiguous
/// at the front; the scan preserves pn order exactly.
///
/// Packets acked or RTO-abandoned while queued in `below` leave their
/// slab slot vacant; the queue skips such tombstones when it reaches them.
#[derive(Debug, Default)]
pub struct SentStore {
    /// Packet number of `slots[0]`.
    base: u64,
    /// Outstanding packets at `pn - base`; `None` marks acked/lost holes.
    slots: VecDeque<Option<SentPacket>>,
    /// Per-slot tag in lockstep with `slots`: 0 = hole, 1 = live
    /// non-retransmittable, 2 = live retransmittable. Ack-block and
    /// horizon scans probe this one-byte array instead of dragging the
    /// wide slot storage through the cache. Kept as a flat vec plus a
    /// head offset (`tags[tags_head + i]` pairs with `slots[i]`) so the
    /// scans run on a plain slice; the dead prefix is trimmed once it
    /// outgrows the live tail.
    tags: Vec<u8>,
    /// Index of the tag paired with `slots[0]`.
    tags_head: usize,
    /// Occupied slot count.
    live: usize,
    /// Live non-retransmittable packets the ack horizon has passed,
    /// ascending by pn. Allocates only once a first one exists.
    stragglers: Vec<SentPacket>,
    bytes_in_flight: u64,
    largest_acked: Option<u64>,
    /// Packets declared lost, retained briefly to detect spuriousness.
    /// Sorted ascending by pn; small (bounded by the prune horizon), so a
    /// flat vec with one merge walk per ack frame beats a tree descent
    /// per block.
    lost_log: Vec<(u64, Time)>,
    /// Completed NACK walks (one per ack frame processed).
    acks_seen: u64,
    /// Watermark: packets with `pn < next_below` have been offered to
    /// `below` (or were sent below the horizon and enqueued by `on_sent`).
    next_below: u64,
    /// `(entry, pn)` for retransmittable packets below the ack horizon,
    /// ascending in both fields; `nacks(pn) = acks_seen - entry`.
    below: VecDeque<(u64, u64)>,
    /// Scratch for newly acked pns (reused across frames; no per-ack
    /// allocation on the hot path).
    scratch_acked: Vec<u64>,
    /// Scratch for pns about to be removed (losses, spurious hits).
    scratch_pns: Vec<u64>,
    /// Recycled `Chunk` vectors: acked packets donate their chunk
    /// storage back to the connection's next packet build.
    spare_chunks: Vec<Vec<Chunk>>,
    /// Recycled `wu_streams` vectors, likewise.
    spare_ids: Vec<Vec<u32>>,
}

impl SentStore {
    // Sole caller: `observatory/` (frozen); everything else constructs
    // with `Default`.
    #[doc(hidden)]
    pub fn from_env() -> SentStore {
        SentStore::default()
    }

    #[inline]
    fn slot_index(&self, pn: u64) -> Option<usize> {
        pn.checked_sub(self.base)
            .map(|d| d as usize)
            .filter(|&d| d < self.slots.len())
    }

    /// Record a transmission. Packet numbers must be monotone (they are:
    /// the connection assigns them from a counter).
    pub fn on_sent(&mut self, pkt: SentPacket) {
        if pkt.retransmittable {
            self.bytes_in_flight += pkt.wire_bytes as u64;
        }
        if self.slots.is_empty() {
            debug_assert_eq!(self.live, 0);
            self.base = pkt.pn;
        }
        let next = self.base + self.slots.len() as u64;
        assert!(pkt.pn >= next, "packet number reused or out of order");
        for _ in next..pkt.pn {
            self.slots.push_back(None);
            self.tags.push(0);
        }
        // A packet sent below the current ack horizon (possible only for
        // adversarial acks claiming unseen pns) will never meet the
        // horizon walk. A retransmittable one joins the NACK set now: its
        // first nack lands on the next walk. A bare ack goes straight to
        // the side store, leaving a hole in its slot.
        if pkt.pn < self.next_below {
            if !pkt.retransmittable {
                self.tags.push(0);
                self.slots.push_back(None);
                self.push_straggler(pkt);
                self.compact_front();
                return;
            }
            self.below.push_back((self.acks_seen, pkt.pn));
        }
        self.tags.push(if pkt.retransmittable { 2 } else { 1 });
        self.slots.push_back(Some(pkt));
        self.live += 1;
    }

    /// Every straggler was sent before any packet that later becomes one,
    /// so pushing keeps the side store ascending.
    fn push_straggler(&mut self, pkt: SentPacket) {
        debug_assert!(self.stragglers.last().is_none_or(|p| p.pn < pkt.pn));
        self.stragglers.push(pkt);
    }

    fn take_straggler(&mut self, pn: u64) -> Option<SentPacket> {
        let i = self.stragglers.binary_search_by_key(&pn, |p| p.pn).ok()?;
        Some(self.stragglers.remove(i))
    }

    /// Slots the window currently spans, holes included (complexity
    /// guards only).
    #[doc(hidden)]
    pub fn window_len(&self) -> usize {
        self.slots.len()
    }

    /// Live view of the tag array: `tags()[i]` pairs with `slots[i]`.
    #[inline]
    fn tags(&self) -> &[u8] {
        &self.tags[self.tags_head..]
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

    /// The newest outstanding retransmittable packet (for TLP).
    pub fn newest_retransmittable(&self) -> Option<&SentPacket> {
        let i = self.tags().iter().rposition(|&t| t == 2)?;
        self.slots[i].as_ref()
    }

    /// Declare up to `n` oldest retransmittable packets lost (for RTO).
    pub fn declare_oldest_lost(&mut self, n: usize) -> Vec<SentPacket> {
        let mut pns = mem::take(&mut self.scratch_pns);
        debug_assert!(pns.is_empty());
        for (i, &tag) in self.tags().iter().enumerate() {
            if pns.len() >= n {
                break;
            }
            if tag == 2 {
                pns.push(self.base + i as u64);
            }
        }
        let mut out = Vec::with_capacity(pns.len());
        for pn in pns.drain(..) {
            if let Some(pkt) = self.remove_in_flight(pn) {
                self.log_lost(pkt.pn, pkt.sent_at);
                out.push(pkt);
            }
        }
        self.scratch_pns = pns;
        out
    }

    /// Record a lost pn in the sorted log (insert or replace).
    fn log_lost(&mut self, pn: u64, sent_at: Time) {
        match self.lost_log.binary_search_by_key(&pn, |e| e.0) {
            Ok(i) => self.lost_log[i].1 = sent_at,
            Err(i) => self.lost_log.insert(i, (pn, sent_at)),
        }
    }

    fn remove_in_flight(&mut self, pn: u64) -> Option<SentPacket> {
        let i = self.slot_index(pn)?;
        let pkt = self.slots[i].take()?;
        self.tags[self.tags_head + i] = 0;
        self.live -= 1;
        if pkt.retransmittable {
            self.bytes_in_flight -= pkt.wire_bytes as u64;
        }
        self.compact_front();
        Some(pkt)
    }

    /// Drop the fully-drained prefix so ack-block scans stay within the
    /// outstanding window.
    fn compact_front(&mut self) {
        while self.tags.get(self.tags_head) == Some(&0) {
            self.slots.pop_front();
            self.tags_head += 1;
            self.base += 1;
        }
        // Trim the dead tag prefix once it dominates the array.
        if self.tags_head >= 64 && self.tags_head * 2 >= self.tags.len() {
            self.tags.drain(..self.tags_head);
            self.tags_head = 0;
        }
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

        // Newly acked pns present in the slab or the side store, ascending.
        let mut acked = mem::take(&mut self.scratch_acked);
        debug_assert!(acked.is_empty());
        let window_end = self.base + self.slots.len() as u64;
        {
            // Ack blocks re-cover the receiver's whole history each time,
            // so most of the scanned window is already-acked tombstones;
            // skip those in word-sized runs.
            let tags = self.tags();
            for &(start, end) in blocks {
                let lo = start.max(self.base);
                let hi = end.saturating_add(1).min(window_end);
                if lo >= hi {
                    continue;
                }
                let mut i = (lo - self.base) as usize;
                let end_i = (hi - self.base) as usize;
                loop {
                    i = next_live_tag(tags, i, end_i);
                    if i >= end_i {
                        break;
                    }
                    acked.push(self.base + i as u64);
                    i += 1;
                }
            }
        }
        covered_keys(&self.stragglers, |p| p.pn, blocks, &mut acked);
        acked.sort_unstable();

        for &pn in &acked {
            let pkt = self
                .remove_in_flight(pn)
                .or_else(|| self.take_straggler(pn))
                .expect("collected above");
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
            stash(&mut self.spare_chunks, pkt.chunks);
            stash(&mut self.spare_ids, pkt.wu_streams);
        }
        acked.clear();
        self.scratch_acked = acked;

        // Spurious detection: acked pns we had declared lost (old losses
        // the blocks have trimmed past are never touched).
        if !self.lost_log.is_empty() {
            let mut hits = mem::take(&mut self.scratch_pns);
            debug_assert!(hits.is_empty());
            covered_keys(&self.lost_log, |e| e.0, blocks, &mut hits);
            for &pn in &hits {
                if let Ok(i) = self.lost_log.binary_search_by_key(&pn, |e| e.0) {
                    self.lost_log.remove(i);
                    out.spurious += 1;
                }
            }
            hits.clear();
            self.scratch_pns = hits;
        }

        self.largest_acked = Some(self.largest_acked.map_or(largest, |l| l.max(largest)));
        let horizon = self.largest_acked.expect("just set");

        // Packets newly below the horizon join the NACK set with the
        // pre-walk `acks_seen`, so this walk counts as their first nack;
        // bare acks among them leave the window for the side store.
        let lo = self.next_below.max(self.base);
        let hi = horizon.min(window_end);
        let mut moved = false;
        for pn in lo..hi {
            let i = (pn - self.base) as usize;
            match self.tags[self.tags_head + i] {
                2 => self.below.push_back((self.acks_seen, pn)),
                1 => {
                    let pkt = self.slots[i].take().expect("tag 1 marks a live slot");
                    self.tags[self.tags_head + i] = 0;
                    self.live -= 1;
                    self.push_straggler(pkt);
                    moved = true;
                }
                _ => {}
            }
        }
        if moved {
            self.compact_front();
        }
        self.next_below = self.next_below.max(horizon);
        self.acks_seen += 1;

        let thr = nack_threshold as u64;
        if let Some(th) = time_threshold {
            // Exact slow path: time-lost packets need not be a prefix of
            // `below` for arbitrary sent_at patterns, so scan it all.
            let mut lost_pns = mem::take(&mut self.scratch_pns);
            debug_assert!(lost_pns.is_empty());
            {
                let base = self.base;
                let slots = &self.slots;
                let acks_seen = self.acks_seen;
                self.below.retain(|&(entry, pn)| {
                    let live = pn
                        .checked_sub(base)
                        .map(|d| d as usize)
                        .filter(|&d| d < slots.len())
                        .and_then(|d| slots[d].as_ref());
                    let Some(pkt) = live else {
                        return false; // tombstone: acked or RTO-abandoned
                    };
                    let nack_lost = entry + thr <= acks_seen;
                    let time_lost = now.saturating_since(pkt.sent_at) > th;
                    if nack_lost || time_lost {
                        lost_pns.push(pn);
                        false
                    } else {
                        true
                    }
                });
            }
            for pn in lost_pns.drain(..) {
                let pkt = self.remove_in_flight(pn).expect("live above");
                self.log_lost(pkt.pn, pkt.sent_at);
                out.lost.push(pkt);
            }
            self.scratch_pns = lost_pns;
        } else {
            // Prefix pop: entries ascend, so once the front is too recent
            // nothing behind it can qualify.
            while let Some(&(entry, pn)) = self.below.front() {
                if entry + thr > self.acks_seen {
                    break;
                }
                self.below.pop_front();
                if let Some(pkt) = self.remove_in_flight(pn) {
                    self.log_lost(pkt.pn, pkt.sent_at);
                    out.lost.push(pkt);
                }
            }
        }

        self.prune_lost_log();
        out
    }

    fn prune_lost_log(&mut self) {
        // Only touches the vec when an entry actually falls below the
        // cutoff.
        if let Some(horizon) = self.largest_acked {
            let cutoff = horizon.saturating_sub(10_000);
            let cut = self.lost_log.partition_point(|&(pn, _)| pn < cutoff);
            if cut > 0 {
                self.lost_log.drain(..cut);
            }
        }
    }

    /// Outstanding packet count (diagnostics).
    pub fn outstanding(&self) -> usize {
        self.live + self.stragglers.len()
    }

    /// An empty `Chunk` vector for the next packet build, recycled from
    /// an acked packet when one is spare.
    pub fn take_spare_chunks(&mut self) -> Vec<Chunk> {
        self.spare_chunks.pop().unwrap_or_default()
    }

    /// An empty stream-id vector for a packet's `wu_streams`, recycled
    /// like [`SentStore::take_spare_chunks`].
    pub fn take_spare_ids(&mut self) -> Vec<u32> {
        self.spare_ids.pop().unwrap_or_default()
    }

    /// Return unused chunk storage taken with
    /// [`SentStore::take_spare_chunks`].
    pub fn give_spare_chunks(&mut self, chunks: Vec<Chunk>) {
        debug_assert!(chunks.is_empty());
        stash(&mut self.spare_chunks, chunks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    fn data_pkt(pn: u64, ms: u64) -> SentPacket {
        SentPacket {
            pn,
            sent_at: t(ms),
            wire_bytes: 1400,
            chunks: vec![Chunk {
                id: 1,
                offset: pn * 1350,
                len: 1350,
                fin: false,
            }],
            handshake: None,
            wu_streams: Vec::new(),
            retransmittable: true,
            nacks: 0,
        }
    }

    fn ack_pkt(pn: u64, ms: u64) -> SentPacket {
        SentPacket {
            pn,
            sent_at: t(ms),
            wire_bytes: 80,
            chunks: vec![],
            handshake: None,
            wu_streams: Vec::new(),
            retransmittable: false,
            nacks: 0,
        }
    }

    #[test]
    fn in_flight_accounting() {
        let mut s = SentStore::default();
        s.on_sent(data_pkt(0, 0));
        s.on_sent(data_pkt(1, 1));
        s.on_sent(ack_pkt(2, 2));
        assert_eq!(s.bytes_in_flight(), 2800);
        let out = s.on_ack_frame(t(40), 1, Dur::ZERO, &[(0, 1)], 3, None);
        assert_eq!(out.newly_acked_bytes, 2800);
        assert_eq!(s.bytes_in_flight(), 0);
        assert!(out.acked_new_data);
        assert_eq!(out.acked_payload_bytes, 2700);
    }

    #[test]
    fn rtt_sample_from_largest() {
        let mut s = SentStore::default();
        s.on_sent(data_pkt(0, 0));
        s.on_sent(data_pkt(1, 10));
        let out = s.on_ack_frame(t(50), 1, Dur::ZERO, &[(0, 1)], 3, None);
        assert_eq!(out.rtt_sample, Some(Dur::from_millis(40)));
        assert_eq!(out.newest_acked_sent_at, Some(t(10)));
    }

    #[test]
    fn no_rtt_sample_when_largest_already_acked() {
        let mut s = SentStore::default();
        s.on_sent(data_pkt(0, 0));
        s.on_sent(data_pkt(1, 1));
        s.on_ack_frame(t(40), 1, Dur::ZERO, &[(1, 1)], 3, None);
        // Second ack repeats largest=1 but only newly covers pn 0.
        let out = s.on_ack_frame(t(45), 1, Dur::ZERO, &[(0, 1)], 3, None);
        assert_eq!(out.rtt_sample, None);
        assert_eq!(out.newly_acked_bytes, 1400);
    }

    #[test]
    fn nack_threshold_declares_loss() {
        let mut s = SentStore::default();
        for pn in 0..5 {
            s.on_sent(data_pkt(pn, pn));
        }
        // pn 0 missing; acks covering later packets nack it.
        let o1 = s.on_ack_frame(t(40), 1, Dur::ZERO, &[(1, 1)], 3, None);
        assert!(o1.lost.is_empty());
        let o2 = s.on_ack_frame(t(41), 2, Dur::ZERO, &[(1, 2)], 3, None);
        assert!(o2.lost.is_empty());
        let o3 = s.on_ack_frame(t(42), 3, Dur::ZERO, &[(1, 3)], 3, None);
        assert_eq!(o3.lost.len(), 1);
        assert_eq!(o3.lost[0].pn, 0);
        // Its bytes left the pipe.
        assert_eq!(s.bytes_in_flight(), 1400, "only pn 4 remains");
    }

    #[test]
    fn higher_threshold_tolerates_deeper_reordering() {
        let mut s = SentStore::default();
        for pn in 0..12 {
            s.on_sent(data_pkt(pn, pn));
        }
        // 5 acks skip pn 0.
        for k in 1..=5u64 {
            let out = s.on_ack_frame(t(40 + k), k, Dur::ZERO, &[(1, k)], 10, None);
            assert!(out.lost.is_empty(), "threshold 10 not yet reached");
        }
    }

    #[test]
    fn spurious_detected_when_lost_packet_is_acked() {
        let mut s = SentStore::default();
        for pn in 0..5 {
            s.on_sent(data_pkt(pn, pn));
        }
        for k in 1..=3u64 {
            s.on_ack_frame(t(40 + k), k, Dur::ZERO, &[(1, k)], 3, None);
        }
        // pn 0 was declared lost; now the "reordered" original arrives.
        let out = s.on_ack_frame(t(45), 4, Dur::ZERO, &[(0, 4)], 3, None);
        assert_eq!(out.spurious, 1);
    }

    #[test]
    fn time_based_loss() {
        let mut s = SentStore::default();
        s.on_sent(data_pkt(0, 0));
        s.on_sent(data_pkt(1, 100));
        // One ack above pn 0, far in the future: time threshold trips
        // even though only one nack accumulated.
        let out = s.on_ack_frame(
            t(500),
            1,
            Dur::ZERO,
            &[(1, 1)],
            100,
            Some(Dur::from_millis(200)),
        );
        assert_eq!(out.lost.len(), 1);
        assert_eq!(out.lost[0].pn, 0);
    }

    #[test]
    fn rto_declares_oldest_lost() {
        let mut s = SentStore::default();
        for pn in 0..4 {
            s.on_sent(data_pkt(pn, pn));
        }
        let lost = s.declare_oldest_lost(2);
        assert_eq!(lost.len(), 2);
        assert_eq!(lost[0].pn, 0);
        assert_eq!(lost[1].pn, 1);
        assert_eq!(s.bytes_in_flight(), 2800);
        // Acking one of them later counts as spurious.
        let out = s.on_ack_frame(t(100), 3, Dur::ZERO, &[(0, 0), (3, 3)], 3, None);
        assert_eq!(out.spurious, 1);
    }

    #[test]
    fn newest_retransmittable_for_tlp() {
        let mut s = SentStore::default();
        s.on_sent(data_pkt(0, 0));
        s.on_sent(data_pkt(1, 1));
        s.on_sent(ack_pkt(2, 2));
        assert_eq!(s.newest_retransmittable().unwrap().pn, 1);
    }

    #[test]
    fn acked_packets_stop_being_nacked() {
        let mut s = SentStore::default();
        for pn in 0..3 {
            s.on_sent(data_pkt(pn, pn));
        }
        s.on_ack_frame(t(40), 2, Dur::ZERO, &[(0, 0), (2, 2)], 3, None);
        // pn 1 has 1 nack; ack it, then no more loss machinery applies.
        let out = s.on_ack_frame(t(41), 2, Dur::ZERO, &[(0, 2)], 3, None);
        assert!(out.lost.is_empty());
        assert_eq!(s.outstanding(), 0);
        assert!(!s.has_retransmittable());
    }

    #[test]
    fn bare_ack_below_the_horizon_stays_outstanding_until_acked_late() {
        let mut s = SentStore::default();
        s.on_sent(ack_pkt(0, 0));
        for pn in 1..4 {
            s.on_sent(data_pkt(pn, pn));
        }
        // The horizon passes the unacked bare ack: it is neither
        // nacked nor lost, and still counts as outstanding.
        let o1 = s.on_ack_frame(t(40), 3, Dur::ZERO, &[(1, 3)], 1, None);
        assert!(o1.lost.is_empty());
        assert_eq!(s.outstanding(), 1);
        assert_eq!(s.bytes_in_flight(), 0);
        assert!(s.newest_retransmittable().is_none());
        assert!(s.declare_oldest_lost(usize::MAX).is_empty());
        // A late ack that covers it retires it like any other packet.
        let o2 = s.on_ack_frame(t(50), 3, Dur::ZERO, &[(0, 3)], 1, None);
        assert_eq!(o2.newest_acked_sent_at, Some(t(0)));
        assert_eq!(o2.newly_acked_bytes, 0);
        assert!(!o2.acked_new_data);
        assert_eq!(s.outstanding(), 0);
    }

    /// Complexity guard, no timing: a bare ack the network dropped is
    /// never acked and never declared lost, yet the slot window must keep
    /// tracking what is in flight rather than everything sent since.
    #[test]
    fn lost_bare_ack_does_not_pin_the_slab_window() {
        let mut s = SentStore::default();
        s.on_sent(ack_pkt(0, 0));
        for pn in 1..=10_000u64 {
            s.on_sent(data_pkt(pn, pn));
            let out = s.on_ack_frame(t(pn + 40), pn, Dur::ZERO, &[(pn, pn)], 3, None);
            assert_eq!(out.newly_acked_bytes, 1400);
            assert_eq!(s.outstanding(), 1, "the lost bare ack stays outstanding");
            assert!(
                s.window_len() <= s.outstanding() + 2,
                "window {} slots for {} outstanding at pn {pn}",
                s.window_len(),
                s.outstanding()
            );
        }
    }

    #[test]
    fn slab_survives_abandon_then_late_ack_with_adaptive_threshold() {
        // The PR-5 livelock shape: repeated RTO abandons the whole flight
        // (`declare_oldest_lost(usize::MAX)`), retransmissions go out with
        // fresh pns, then a late ack covers abandoned pns (spurious) while
        // an adaptive caller raises the nack threshold between frames.
        let mut s = SentStore::default();
        for pn in 0..6 {
            s.on_sent(data_pkt(pn, pn));
        }
        let abandoned = s.declare_oldest_lost(usize::MAX);
        assert_eq!(abandoned.len(), 6);
        assert_eq!(s.bytes_in_flight(), 0);
        for pn in 6..10 {
            s.on_sent(data_pkt(pn, 100 + pn));
        }
        // Late ack for abandoned pns 0..=2: spurious, not newly acked.
        let o1 = s.on_ack_frame(t(200), 7, Dur::ZERO, &[(0, 2), (7, 7)], 3, None);
        assert_eq!(o1.spurious, 3);
        assert_eq!(o1.newly_acked_bytes, 1400);
        // Threshold grows (adaptive caller) mid-stream; pn 6 drops out
        // only after enough further acks.
        let o2 = s.on_ack_frame(t(201), 8, Dur::ZERO, &[(8, 8)], 6, None);
        assert!(o2.lost.is_empty());
        let o3 = s.on_ack_frame(t(202), 9, Dur::ZERO, &[(9, 9)], 3, None);
        assert_eq!(o3.lost.len(), 1, "threshold back down: pn 6 lost");
        assert_eq!(o3.lost[0].pn, 6);
    }

    #[test]
    fn slab_handles_retransmission_cycle_like_map() {
        // Loss -> retransmit under new pn -> ack of the retransmission;
        // the store must keep in-flight accounting exact throughout.
        let mut s = SentStore::default();
        for pn in 0..4 {
            s.on_sent(data_pkt(pn, pn));
        }
        for k in 1..=3u64 {
            s.on_ack_frame(t(40 + k), k, Dur::ZERO, &[(k, k)], 3, None);
        }
        // pn 0 declared lost on the third nack; retransmit as pn 4.
        assert_eq!(s.outstanding(), 0);
        s.on_sent(data_pkt(4, 50));
        assert_eq!(s.bytes_in_flight(), 1400);
        let out = s.on_ack_frame(t(90), 4, Dur::ZERO, &[(4, 4)], 3, None);
        assert_eq!(out.newly_acked_bytes, 1400);
        assert!(out.rtt_sample.is_some());
        assert_eq!(s.bytes_in_flight(), 0);
    }
}
