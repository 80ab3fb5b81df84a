//! Property-based tests for the QUIC wire format and reassembly
//! structures, and the sent-packet store and the stream table against
//! their `BTreeMap` oracles.

mod oracle;

use longlook_quic::recv_ack::AckTracker;
use longlook_quic::sent::{AckOutcome, SentPacket, SentStore};
use longlook_quic::streams::{Chunk, RecvStream, SendStream, StreamRec, StreamTable};
use longlook_quic::wire::{AckBlock, Frame, HandshakeKind, QuicPacket};
use longlook_sim::time::{Dur, Time};
use oracle::streams::{MapRec, MapStreamTable};
use oracle::SentTracker;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), 0u32..100_000, any::<bool>()).prop_map(
            |(id, offset, len, fin)| Frame::Stream {
                id,
                offset,
                len,
                fin
            }
        ),
        (
            any::<u64>(),
            0u64..10_000_000,
            proptest::collection::vec((any::<u32>(), any::<u32>()), 0..10)
        )
            .prop_map(|(largest, delay, raw)| {
                let blocks: Vec<AckBlock> = raw
                    .into_iter()
                    .map(|(a, b)| {
                        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                        (lo as u64, hi as u64)
                    })
                    .collect();
                Frame::Ack {
                    largest,
                    ack_delay_us: delay,
                    blocks,
                }
            }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(stream, max_offset)| { Frame::WindowUpdate { stream, max_offset } }),
        (0u8..4, any::<u16>()).prop_map(|(k, pad)| Frame::Handshake {
            kind: match k {
                0 => HandshakeKind::InchoateChlo,
                1 => HandshakeKind::Rej,
                2 => HandshakeKind::FullChlo,
                _ => HandshakeKind::Shlo,
            },
            pad,
        }),
        Just(Frame::Ping),
        any::<u32>().prop_map(|stream| Frame::Blocked { stream }),
        any::<u32>().prop_map(|code| Frame::Close { code }),
    ]
}

proptest! {
    /// Encode/decode is the identity for arbitrary packets.
    #[test]
    fn packet_roundtrip(
        conn_id in any::<u64>(),
        pn in any::<u64>(),
        frames in proptest::collection::vec(arb_frame(), 0..8),
    ) {
        let pkt = QuicPacket { conn_id, pn, frames };
        let decoded = QuicPacket::decode(&pkt.encode()).expect("roundtrip");
        prop_assert_eq!(decoded, pkt);
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn decode_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = QuicPacket::decode(&data);
    }

    /// Stream reassembly delivers exactly the union of received ranges,
    /// regardless of arrival order and overlap.
    #[test]
    fn recv_stream_delivers_union(
        mut chunks in proptest::collection::vec((0u64..5_000, 1u32..800), 1..40),
        shuffle_seed in any::<u64>(),
    ) {
        // Deterministic shuffle.
        let mut s = shuffle_seed;
        for i in (1..chunks.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            chunks.swap(i, j);
        }
        let mut rs = RecvStream::default();
        let mut delivered = 0;
        for &(off, len) in &chunks {
            delivered += rs.on_chunk(off, len, false);
        }
        // Expected: length of the prefix of the union starting at 0.
        let mut intervals: Vec<(u64, u64)> =
            chunks.iter().map(|&(o, l)| (o, o + l as u64)).collect();
        intervals.sort_unstable();
        let mut reach = 0u64;
        for (s, e) in intervals {
            if s <= reach {
                reach = reach.max(e);
            } else {
                break;
            }
        }
        prop_assert_eq!(delivered, reach);
        prop_assert_eq!(rs.delivered(), reach);
    }

    /// Ack tracker blocks are disjoint, descending, and cover every
    /// inserted packet number (subject to the 32-block cap).
    #[test]
    fn ack_tracker_blocks_are_wellformed(
        pns in proptest::collection::btree_set(0u64..500, 1..80),
    ) {
        let mut t = AckTracker::default();
        for (i, &pn) in pns.iter().enumerate() {
            t.on_packet(
                pn,
                Time::ZERO + Dur::from_micros(i as u64),
                true,
                2,
                Dur::from_millis(25),
            );
        }
        let (largest, _, blocks) =
            t.build_ack(Time::ZERO + Dur::from_secs(1)).expect("non-empty");
        prop_assert_eq!(largest, *pns.iter().max().expect("non-empty"));
        // Descending, disjoint.
        for w in blocks.windows(2) {
            prop_assert!(w[0].0 > w[1].1, "blocks overlap or out of order: {:?}", blocks);
        }
        for &(s, e) in &blocks {
            prop_assert!(s <= e);
            for pn in s..=e {
                prop_assert!(pns.contains(&pn), "block covers unseen pn {pn}");
            }
        }
    }
}

proptest! {
    /// Encoding is canonical: re-encoding a decoded packet reproduces the
    /// exact byte sequence.
    #[test]
    fn encoding_is_canonical(
        conn_id in any::<u64>(),
        pn in any::<u64>(),
        frames in proptest::collection::vec(arb_frame(), 0..8),
    ) {
        let pkt = QuicPacket { conn_id, pn, frames };
        let bytes = pkt.encode();
        let reencoded = QuicPacket::decode(&bytes).expect("valid").encode();
        prop_assert_eq!(reencoded.as_slice(), bytes.as_slice());
    }

    /// `wire_size` upper-bounds the materialized encoding (stream payload
    /// and handshake padding are synthetic — accounted, not serialized).
    #[test]
    fn wire_size_bounds_encoding(
        conn_id in any::<u64>(),
        pn in any::<u64>(),
        frames in proptest::collection::vec(arb_frame(), 0..8),
    ) {
        let pkt = QuicPacket { conn_id, pn, frames };
        prop_assert!(pkt.encode().len() as u32 <= pkt.wire_size());
    }

    /// Truncating an encoding never panics; when the truncation happens to
    /// land on a frame boundary the decode succeeds with a strict frame
    /// prefix of the original packet, never with reordered or altered
    /// frames.
    #[test]
    fn truncated_encoding_decodes_to_frame_prefix(
        conn_id in any::<u64>(),
        pn in any::<u64>(),
        frames in proptest::collection::vec(arb_frame(), 0..8),
        cut in any::<prop::sample::Index>(),
    ) {
        let pkt = QuicPacket { conn_id, pn, frames };
        let bytes = pkt.encode();
        let cut = cut.index(bytes.len() + 1);
        if let Ok(dec) = QuicPacket::decode(&bytes[..cut]) {
            prop_assert_eq!(dec.conn_id, pkt.conn_id);
            prop_assert_eq!(dec.pn, pkt.pn);
            prop_assert!(dec.frames.len() <= pkt.frames.len());
            prop_assert_eq!(&dec.frames[..], &pkt.frames[..dec.frames.len()]);
        }
    }
}

/// One abstract sender-store operation; the interpreter below applies it
/// identically to the map oracle and the store.
#[derive(Debug, Clone)]
enum StoreOp {
    /// Send `count` packets; bit `i` of `mask` makes packet `i`
    /// retransmittable (bare-ack otherwise).
    Send { count: u8, mask: u8 },
    /// Process one ack frame. `largest_jit` shifts `largest` around the
    /// newest sent pn (including *past* it — adversarial acks claiming
    /// unseen pns). `picks` selects acked pns; `thr` varies the NACK
    /// threshold mid-stream like the adaptive estimator does; `timed`
    /// additionally arms time-based loss detection.
    Ack {
        largest_jit: u8,
        picks: Vec<u8>,
        thr: u8,
        timed: bool,
    },
    /// RTO path: abandon up to `n` oldest packets (255 = whole flight,
    /// the PR-5 livelock shape).
    Rto { n: u8 },
    /// A bare ack the network drops: send it, then `data` data packets,
    /// then an ack frame covering exactly those — the horizon passes the
    /// bare ack and leaves it outstanding for good.
    Straggle { data: u8 },
    /// A late ack covering every pn sent so far, stragglers included.
    LateAck,
}

fn arb_store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (1u8..5, any::<u8>()).prop_map(|(count, mask)| StoreOp::Send { count, mask }),
        (
            any::<u8>(),
            proptest::collection::vec(any::<u8>(), 0..12),
            prop_oneof![Just(1u8), Just(2), Just(3), Just(6), Just(10)],
            any::<u8>().prop_map(|v| v % 5 == 0),
        )
            .prop_map(|(largest_jit, picks, thr, timed)| StoreOp::Ack {
                largest_jit,
                picks,
                thr,
                timed,
            }),
        prop_oneof![Just(1u8), Just(2), Just(255)].prop_map(|n| StoreOp::Rto { n }),
        (1u8..40).prop_map(|data| StoreOp::Straggle { data }),
        Just(StoreOp::LateAck),
    ]
}

fn mk_pkt(pn: u64, ms: u64, retransmittable: bool) -> SentPacket {
    SentPacket {
        pn,
        sent_at: Time::ZERO + Dur::from_millis(ms),
        wire_bytes: if retransmittable { 1400 } else { 80 },
        chunks: if retransmittable {
            vec![Chunk {
                id: 1,
                offset: pn * 1350,
                len: 1350,
                fin: false,
            }]
        } else {
            vec![]
        },
        handshake: None,
        wu_streams: Vec::new(),
        retransmittable,
        nacks: 0,
    }
}

/// Turn an arbitrary pick set into disjoint ascending ack blocks over
/// `[0, top]` (real ack frames are always disjoint — store and oracle
/// both assume it).
fn picks_to_blocks(picks: &[u8], top: u64) -> Vec<AckBlock> {
    let mut pns: Vec<u64> = picks.iter().map(|&p| p as u64 % (top + 1)).collect();
    pns.sort_unstable();
    pns.dedup();
    let mut blocks: Vec<AckBlock> = Vec::new();
    for pn in pns {
        match blocks.last_mut() {
            Some(&mut (_, ref mut e)) if *e + 1 == pn => *e = pn,
            _ => blocks.push((pn, pn)),
        }
    }
    blocks
}

fn outcomes_equal(a: &AckOutcome, b: &AckOutcome) -> bool {
    a.newly_acked_bytes == b.newly_acked_bytes
        && a.acked_payload_bytes == b.acked_payload_bytes
        && a.newest_acked_sent_at == b.newest_acked_sent_at
        && a.rtt_sample == b.rtt_sample
        && a.lost.iter().map(|p| p.pn).collect::<Vec<_>>()
            == b.lost.iter().map(|p| p.pn).collect::<Vec<_>>()
        && a.spurious == b.spurious
        && a.acked_new_data == b.acked_new_data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The slab store is indistinguishable from the map oracle over
    /// arbitrary operation sequences: same ack outcomes (including loss
    /// *order*), same in-flight accounting, same spurious detection,
    /// through retransmission cycles, whole-flight RTO abandonment,
    /// adaptive thresholds shifting between frames, and bare acks that
    /// outlive the horizon in the slab's side store until a late ack
    /// covers them (or for good).
    #[test]
    fn slab_store_equivalent_to_map_store(
        ops in proptest::collection::vec(arb_store_op(), 1..50),
    ) {
        let mut map = SentTracker::default();
        let mut slab = SentStore::default();
        let mut next_pn = 0u64;
        let mut ms = 0u64;
        for op in ops {
            // Every op reduces to sends, at most one ack frame, or an RTO.
            let mut sends: Vec<bool> = Vec::new();
            let mut ack: Option<(u64, Vec<AckBlock>, u32, bool)> = None;
            let mut rto: Option<usize> = None;
            match op {
                StoreOp::Send { count, mask } => {
                    sends.extend((0..count).map(|i| mask & (1 << (i % 8)) != 0));
                }
                StoreOp::Ack { largest_jit, picks, thr, timed } => {
                    if next_pn == 0 {
                        continue;
                    }
                    // largest in [0, next_pn + 3]: past-the-end values
                    // exercise the adversarial below-horizon send path.
                    let largest = (largest_jit as u64) % (next_pn + 4);
                    ack = Some((largest, picks_to_blocks(&picks, next_pn - 1), thr as u32, timed));
                }
                StoreOp::Rto { n } => {
                    rto = Some(if n == 255 { usize::MAX } else { n as usize });
                }
                StoreOp::Straggle { data } => {
                    sends.push(false);
                    sends.extend((0..data).map(|_| true));
                    let newest = next_pn + data as u64;
                    ack = Some((newest, vec![(next_pn + 1, newest)], 3, false));
                }
                StoreOp::LateAck => {
                    if next_pn == 0 {
                        continue;
                    }
                    ack = Some((next_pn - 1, vec![(0, next_pn - 1)], 3, false));
                }
            }
            for retrans in sends {
                let pkt = mk_pkt(next_pn, ms, retrans);
                map.on_sent(pkt.clone());
                slab.on_sent(pkt);
                next_pn += 1;
                ms += 1;
            }
            if let Some((largest, blocks, thr, timed)) = ack {
                ms += 5;
                let now = Time::ZERO + Dur::from_millis(ms);
                let tth = timed.then(|| Dur::from_millis(20));
                let a = map.on_ack_frame(now, largest, Dur::ZERO, &blocks, thr, tth);
                let b = slab.on_ack_frame(now, largest, Dur::ZERO, &blocks, thr, tth);
                prop_assert!(
                    outcomes_equal(&a, &b),
                    "ack outcome diverged:\n map: {a:?}\nslab: {b:?}"
                );
            }
            if let Some(n) = rto {
                let a = map.declare_oldest_lost(n);
                let b = slab.declare_oldest_lost(n);
                prop_assert_eq!(
                    a.iter().map(|p| p.pn).collect::<Vec<_>>(),
                    b.iter().map(|p| p.pn).collect::<Vec<_>>()
                );
            }
            prop_assert_eq!(map.bytes_in_flight(), slab.bytes_in_flight());
            prop_assert_eq!(map.largest_acked(), slab.largest_acked());
            prop_assert_eq!(map.outstanding(), slab.outstanding());
            prop_assert_eq!(map.has_retransmittable(), slab.has_retransmittable());
            prop_assert_eq!(
                map.newest_retransmittable().map(|p| p.pn),
                slab.newest_retransmittable().map(|p| p.pn)
            );
        }
    }

    /// Ack processing depends only on the *set* of pns the blocks cover,
    /// never on how that set is partitioned into ranges: a frame carrying
    /// maximal coalesced ranges and one carrying the same set split into
    /// arbitrary finer blocks produce identical outcomes on the store and
    /// on the oracle — same newly-acked bytes, largest-acked, and loss
    /// verdicts.
    #[test]
    fn ack_outcome_depends_only_on_covered_set(
        sent in 4u64..40,
        picks in proptest::collection::vec(any::<u8>(), 1..20),
        splits in proptest::collection::vec(any::<u8>(), 0..8),
        thr in 1u32..5,
    ) {
        // Coalesced blocks, then a finer partition of the same set.
        let coalesced = picks_to_blocks(&picks, sent - 1);
        let mut fine: Vec<AckBlock> = Vec::new();
        for (i, &(s, e)) in coalesced.iter().enumerate() {
            let cut = splits.get(i).map(|&c| s + (c as u64) % (e - s + 1));
            match cut {
                Some(c) if c < e => {
                    fine.push((s, c));
                    fine.push((c + 1, e));
                }
                _ => fine.push((s, e)),
            }
        }
        let largest = coalesced.last().map(|&(_, e)| e).unwrap_or(0);
        let now = Time::ZERO + Dur::from_millis(500);

        let run = |blocks: &[AckBlock]| {
            let mut map = SentTracker::default();
            let mut slab = SentStore::default();
            for pn in 0..sent {
                map.on_sent(mk_pkt(pn, pn, true));
                slab.on_sent(mk_pkt(pn, pn, true));
            }
            let a = map.on_ack_frame(now, largest, Dur::ZERO, blocks, thr, None);
            let b = slab.on_ack_frame(now, largest, Dur::ZERO, blocks, thr, None);
            (a, b, map.bytes_in_flight(), slab.bytes_in_flight())
        };
        let (ca, cb, cm, cs) = run(&coalesced);
        let (fa, fb, fm, fs) = run(&fine);
        prop_assert!(outcomes_equal(&ca, &cb), "coalesced: map vs slab diverged");
        prop_assert!(outcomes_equal(&fa, &fb), "fine: map vs slab diverged");
        prop_assert!(outcomes_equal(&ca, &fa), "block partition changed the outcome");
        prop_assert_eq!(cm, fm);
        prop_assert_eq!(cs, fs);
    }

}

proptest! {
    /// Receiver-side coalescing is insertion-order-invariant: any arrival
    /// interleaving of a pn set yields the same maximal ranges and the
    /// same duplicate verdicts. This pins the in-order fast path in
    /// `AckTracker::insert` against the positional walk (shuffled orders
    /// exercise both).
    #[test]
    fn ack_tracker_coalescing_is_order_invariant(
        pns in proptest::collection::vec(0u64..60, 1..50),
        shuffle_seed in any::<u64>(),
    ) {
        use std::collections::BTreeSet;
        let mut shuffled = pns.clone();
        let mut s = shuffle_seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let feed = |order: &[u64]| {
            let mut t = AckTracker::default();
            let mut seen = BTreeSet::new();
            for (i, &pn) in order.iter().enumerate() {
                let dup = t.on_packet(
                    pn,
                    Time::ZERO + Dur::from_micros(i as u64),
                    true,
                    u32::MAX, // never trip decimation: build_ack once at the end
                    Dur::from_millis(25),
                );
                assert_eq!(dup, !seen.insert(pn), "duplicate verdict wrong for {pn}");
            }
            let (largest, _, blocks) =
                t.build_ack(Time::ZERO + Dur::from_secs(1)).expect("non-empty");
            (largest, blocks)
        };
        let (l1, b1) = feed(&pns);
        let (l2, b2) = feed(&shuffled);
        prop_assert_eq!(l1, l2);
        prop_assert_eq!(b1, b2, "ranges depend on arrival order");
    }
}

proptest! {
    /// Analytic sizing invariant: `encoded_len()` equals `encode().len()`
    /// exactly — per frame variant (single-frame packets isolate each) and
    /// for whole multi-frame packets. The structured wire path charges
    /// links using `encoded_len`, so any drift here would silently skew
    /// byte accounting versus the encoded path.
    #[test]
    fn encoded_len_matches_encode_per_frame(f in arb_frame()) {
        let pkt = QuicPacket { conn_id: 0, pn: 0, frames: vec![f] };
        prop_assert_eq!(pkt.encoded_len() as usize, pkt.encode().len());
    }

    #[test]
    fn encoded_len_matches_encode_for_packets(
        conn_id in prop_oneof![Just(u64::MAX), any::<u64>()],
        pn in prop_oneof![Just(u64::MAX), any::<u64>()],
        frames in proptest::collection::vec(arb_frame(), 0..8),
    ) {
        let pkt = QuicPacket { conn_id, pn, frames };
        prop_assert_eq!(pkt.encoded_len() as usize, pkt.encode().len());
    }

    /// The 255-block ack cap truncates `encode` and `encoded_len`
    /// identically, including at max-valued fields (the varint-free
    /// layout's widest edges).
    #[test]
    fn encoded_len_tracks_ack_block_cap(
        largest in prop_oneof![Just(u64::MAX), any::<u64>()],
        delay in prop_oneof![Just(u64::MAX), any::<u64>()],
        nblocks in 0usize..300,
    ) {
        let blocks: Vec<AckBlock> =
            (0..nblocks as u64).map(|i| (2 * i, 2 * i + 1)).collect();
        let f = Frame::Ack { largest, ack_delay_us: delay, blocks };
        let pkt = QuicPacket { conn_id: u64::MAX, pn: u64::MAX, frames: vec![f] };
        prop_assert_eq!(pkt.encoded_len() as usize, pkt.encode().len());
    }
}

/// One abstract send-scheduling operation, applied identically to the
/// [`StreamTable`] and to the full-scan oracle below.
#[derive(Debug, Clone)]
enum SchedOp {
    /// The application writes to stream `3 + 2 * stream` (ignored once
    /// that stream has its FIN queued).
    Write { stream: u8, bytes: u16, fin: bool },
    /// The peer raises one stream's flow-control limit by `delta`.
    StreamWindow { stream: u8, delta: u16 },
    /// The peer raises the connection flow-control limit by `delta`.
    ConnWindow { delta: u16 },
    /// One of the chunks pulled so far (zero-length FINs included) is
    /// declared lost.
    Lose { pick: u8 },
    /// The connection asks for chunks of at most `budget` bytes until one
    /// pull comes back empty or `max` have been taken.
    Pull { budget: u16, max: u8 },
}

fn arb_sched_op() -> impl Strategy<Value = SchedOp> {
    prop_oneof![
        // Zero-byte writes on purpose: with `fin` they queue a bare FIN.
        (0u8..12, prop_oneof![Just(0u16), 0u16..6_000], any::<bool>())
            .prop_map(|(stream, bytes, fin)| SchedOp::Write { stream, bytes, fin }),
        (0u8..12, 0u16..4_000).prop_map(|(stream, delta)| SchedOp::StreamWindow { stream, delta }),
        (0u16..8_000).prop_map(|delta| SchedOp::ConnWindow { delta }),
        any::<u8>().prop_map(|pick| SchedOp::Lose { pick }),
        // Listed twice to weight pulls (the in-tree `prop_oneof!` has no
        // weight syntax): the index is only pruned by pulling.
        (0u16..1_400, 1u8..6).prop_map(|(budget, max)| SchedOp::Pull { budget, max }),
        (0u16..1_400, 1u8..6).prop_map(|(budget, max)| SchedOp::Pull { budget, max }),
    ]
}

/// The scheduling policy as the connection used to spell it out: walk
/// every stream ever opened from the lowest id, take the first that has a
/// retransmission, fresh data the connection window admits, or a FIN.
/// Returns `(chunk, fresh, data_was_available)`.
fn full_scan_pull(
    streams: &mut BTreeMap<u32, SendStream>,
    budget: u32,
    conn_room: u64,
) -> (Option<Chunk>, bool, bool) {
    let mut data_was_available = false;
    for s in streams.values_mut() {
        let had_retransmit = s.has_retransmit_pending();
        let fresh_ok = s.sendable_new().min(conn_room) > 0 || s.fin_pending();
        if !had_retransmit && !fresh_ok {
            continue;
        }
        data_was_available = true;
        let cap = if had_retransmit {
            budget
        } else {
            budget.min(conn_room.min(u32::MAX as u64) as u32)
        };
        if let Some(chunk) = s.next_chunk(cap) {
            return (Some(chunk), !had_retransmit, true);
        }
    }
    (None, false, data_was_available)
}

proptest! {
    /// The ready index changes what a pull costs, never what it returns:
    /// over random interleavings of writes, stream and connection window
    /// updates, losses (bare FINs included) and pulls, the table hands
    /// out the chunk sequence of the full scan, with the same
    /// `data_was_available`, and after every step indexes exactly the
    /// streams that still want to send — never a drained one.
    #[test]
    fn ready_index_schedules_like_the_full_scan(
        ops in proptest::collection::vec(arb_sched_op(), 1..120),
    ) {
        const INITIAL_WINDOW: u64 = 3_000;
        let mut table = StreamTable::new(INITIAL_WINDOW);
        let mut oracle: BTreeMap<u32, SendStream> = BTreeMap::new();
        let mut stream_limit: BTreeMap<u32, u64> = BTreeMap::new();
        let mut finished: Vec<u32> = Vec::new();
        let mut conn_limit = 5_000u64;
        let mut conn_fresh_sent = 0u64;
        let mut pulled: Vec<Chunk> = Vec::new();
        let id_of = |stream: u8| 3 + 2 * stream as u32;
        for op in ops {
            match op {
                SchedOp::Write { stream, bytes, fin } => {
                    let id = id_of(stream);
                    if finished.contains(&id) {
                        continue;
                    }
                    if fin {
                        finished.push(id);
                    }
                    table.write(id, bytes as u64, fin);
                    oracle
                        .entry(id)
                        .or_insert_with(|| SendStream::with_window(id, INITIAL_WINDOW))
                        .write(bytes as u64, fin);
                }
                SchedOp::StreamWindow { stream, delta } => {
                    let id = id_of(stream);
                    let limit = stream_limit.entry(id).or_insert(INITIAL_WINDOW);
                    *limit += delta as u64;
                    table.on_window_update(id, *limit);
                    oracle
                        .entry(id)
                        .or_insert_with(|| SendStream::with_window(id, INITIAL_WINDOW))
                        .on_window_update(*limit);
                }
                SchedOp::ConnWindow { delta } => conn_limit += delta as u64,
                SchedOp::Lose { pick } => {
                    if pulled.is_empty() {
                        continue;
                    }
                    let chunk = pulled.swap_remove(pick as usize % pulled.len());
                    table.on_chunk_lost(&chunk);
                    oracle
                        .get_mut(&chunk.id)
                        .expect("pulled from this stream")
                        .on_chunk_lost(&chunk);
                }
                SchedOp::Pull { budget, max } => {
                    for _ in 0..max {
                        let conn_room = conn_limit.saturating_sub(conn_fresh_sent);
                        let got = table.next_chunk(budget as u32, conn_room);
                        let want = full_scan_pull(&mut oracle, budget as u32, conn_room);
                        prop_assert_eq!((got.chunk, got.fresh, got.data_was_available), want);
                        let Some(chunk) = got.chunk else { break };
                        if got.fresh {
                            conn_fresh_sent += chunk.len as u64;
                        }
                        pulled.push(chunk);
                    }
                }
            }
            let wanting: Vec<u32> = oracle
                .iter()
                .filter(|(_, s)| s.wants_to_send())
                .map(|(&id, _)| id)
                .collect();
            prop_assert_eq!(table.ready_ids().collect::<Vec<_>>(), wanting);
            prop_assert_eq!(table.any_ready(), oracle.values().any(SendStream::wants_to_send));
        }
    }
}

/// One step applied to both the dense [`StreamTable`] and the map oracle.
/// Stream ids span both parities, so ids `2k` and `2k + 1` share a slot
/// number in their parity's vector.
#[derive(Debug, Clone)]
enum TableOp {
    /// The application writes to `id` (ignored once its FIN is queued).
    Write { id: u8, bytes: u16, fin: bool },
    /// The peer raises `id`'s flow-control limit by `delta`.
    StreamWindow { id: u8, delta: u16 },
    /// The peer raises the connection flow-control limit by `delta`.
    ConnWindow { delta: u16 },
    /// One of the chunks pulled so far is declared lost.
    Lose { pick: u8 },
    /// Pull chunks until one pull comes back empty or `max` were taken.
    Pull { budget: u16, max: u8 },
    /// Receive a chunk on `id` and update its announcement state, through
    /// `rec_mut`.
    Recv {
        id: u8,
        offset: u16,
        len: u16,
        fin: bool,
        announce: bool,
    },
}

/// Ids 0..24: both parities, a dozen slots each.
const TABLE_IDS: u8 = 24;

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (
            0..TABLE_IDS,
            prop_oneof![Just(0u16), 0u16..6_000],
            any::<bool>()
        )
            .prop_map(|(id, bytes, fin)| TableOp::Write { id, bytes, fin }),
        (0..TABLE_IDS, 0u16..4_000).prop_map(|(id, delta)| TableOp::StreamWindow { id, delta }),
        (0u16..8_000).prop_map(|delta| TableOp::ConnWindow { delta }),
        any::<u8>().prop_map(|pick| TableOp::Lose { pick }),
        (0u16..1_400, 1u8..6).prop_map(|(budget, max)| TableOp::Pull { budget, max }),
        (
            0..TABLE_IDS,
            0u16..3_000,
            0u16..1_500,
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(id, offset, len, fin, announce)| TableOp::Recv {
                id,
                offset,
                len,
                fin,
                announce,
            }),
    ]
}

/// Whether the dense record and the oracle's hold the same state.
fn same_rec(dense: Option<&StreamRec>, map: Option<&MapRec>) -> bool {
    match (dense, map) {
        (None, None) => true,
        (Some(d), Some(m)) => {
            *d.send() == m.send
                && d.recv == m.recv
                && d.announced == m.announced
                && d.advertised == m.advertised
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Finding a record by parity and slot instead of by tree changes
    /// nothing a caller sees: over random writes, window updates, losses,
    /// pulls and receive-side updates on ids of both parities, the dense
    /// table returns the oracle's `Pull`s, keeps its ready index, and
    /// holds the same record, or none, for every id.
    #[test]
    fn stream_table_equivalent_to_map_table(
        ops in proptest::collection::vec(arb_table_op(), 1..120),
    ) {
        const INITIAL_WINDOW: u64 = 3_000;
        let mut dense = StreamTable::new(INITIAL_WINDOW);
        let mut map = MapStreamTable::new(INITIAL_WINDOW);
        let mut stream_limit: BTreeMap<u32, u64> = BTreeMap::new();
        let mut finished: Vec<u32> = Vec::new();
        let mut conn_limit = 5_000u64;
        let mut conn_fresh_sent = 0u64;
        let mut pulled: Vec<Chunk> = Vec::new();
        for op in ops {
            match op {
                TableOp::Write { id, bytes, fin } => {
                    let id = id as u32;
                    if finished.contains(&id) {
                        continue;
                    }
                    if fin {
                        finished.push(id);
                    }
                    dense.write(id, bytes as u64, fin);
                    map.write(id, bytes as u64, fin);
                }
                TableOp::StreamWindow { id, delta } => {
                    let id = id as u32;
                    let limit = stream_limit.entry(id).or_insert(INITIAL_WINDOW);
                    *limit += delta as u64;
                    dense.on_window_update(id, *limit);
                    map.on_window_update(id, *limit);
                }
                TableOp::ConnWindow { delta } => conn_limit += delta as u64,
                TableOp::Lose { pick } => {
                    if pulled.is_empty() {
                        continue;
                    }
                    let chunk = pulled.swap_remove(pick as usize % pulled.len());
                    dense.on_chunk_lost(&chunk);
                    map.on_chunk_lost(&chunk);
                }
                TableOp::Pull { budget, max } => {
                    for _ in 0..max {
                        let conn_room = conn_limit.saturating_sub(conn_fresh_sent);
                        let got = dense.next_chunk(budget as u32, conn_room);
                        prop_assert_eq!(got, map.next_chunk(budget as u32, conn_room));
                        let Some(chunk) = got.chunk else { break };
                        if got.fresh {
                            conn_fresh_sent += chunk.len as u64;
                        }
                        pulled.push(chunk);
                    }
                }
                TableOp::Recv { id, offset, len, fin, announce } => {
                    let id = id as u32;
                    let (d, m) = (dense.rec_mut(id), map.rec_mut(id));
                    prop_assert_eq!(
                        d.recv.on_chunk(offset as u64, len as u32, fin),
                        m.recv.on_chunk(offset as u64, len as u32, fin)
                    );
                    prop_assert_eq!(d.recv.take_fin(), m.recv.take_fin());
                    if announce && !d.announced {
                        d.announced = true;
                        m.announced = true;
                        d.advertised = Some(d.recv.delivered() + INITIAL_WINDOW);
                        m.advertised = Some(m.recv.delivered() + INITIAL_WINDOW);
                    }
                }
            }
            prop_assert_eq!(
                dense.ready_ids().collect::<Vec<_>>(),
                map.ready_ids().collect::<Vec<_>>()
            );
            prop_assert_eq!(dense.any_ready(), map.ready_ids().next().is_some());
            for id in 0..TABLE_IDS as u32 {
                prop_assert!(same_rec(dense.get(id), map.get(id)), "stream {}", id);
            }
        }
    }
}
