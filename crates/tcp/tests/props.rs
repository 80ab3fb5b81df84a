//! Property-based tests for the TCP wire format, receive reassembly, the
//! h2 record layer, and the SACK scoreboard and the h2 record indexes
//! against their `BTreeMap` oracles.

mod oracle;

use longlook_sim::time::{Dur, Time};
use longlook_tcp::h2::{H2Demux, H2Event, H2Mux};
use longlook_tcp::recv::TcpReceiver;
use longlook_tcp::scoreboard::{Scoreboard, TcpAckOutcome};
use longlook_tcp::wire::{flags, RecordDesc, TcpSegment};
use oracle::h2::{MapH2Demux, MapH2Mux};
use oracle::MapScoreboard;
use proptest::prelude::*;

/// Everything `demux` releases on reaching `rcv_nxt`, collected.
fn advance(demux: &mut H2Demux, rcv_nxt: u64) -> Vec<H2Event> {
    let mut events = Vec::new();
    demux.advance(rcv_nxt, |e| events.push(e));
    events
}

proptest! {
    /// Segment encode/decode is the identity.
    #[test]
    fn segment_roundtrip(
        seq in any::<u64>(),
        ack in any::<u64>(),
        fl in 0u8..8,
        window in any::<u64>(),
        payload_len in any::<u32>(),
        raw_sacks in proptest::collection::vec((any::<u32>(), 1u32..1000), 0..5),
        dsack in any::<bool>(),
        records in proptest::collection::vec(
            (any::<u64>(), any::<u32>(), any::<u32>(), any::<bool>()),
            0..6
        ),
    ) {
        let seg = TcpSegment {
            seq,
            ack,
            flags: fl,
            window,
            payload_len,
            sacks: raw_sacks
                .into_iter()
                .map(|(s, l)| (s as u64, s as u64 + l as u64))
                .collect(),
            dsack,
            records: records
                .into_iter()
                .map(|(offset, stream, len, fin)| RecordDesc {
                    offset,
                    stream,
                    len,
                    fin,
                })
                .collect(),
        };
        let dec = TcpSegment::decode(&seg.encode()).expect("roundtrip");
        prop_assert_eq!(dec, seg);
    }

    /// Decoding garbage never panics.
    #[test]
    fn decode_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = TcpSegment::decode(&data);
    }

    /// rcv_nxt always equals the longest contiguous prefix received.
    #[test]
    fn receiver_tracks_contiguous_prefix(
        mut segs in proptest::collection::vec((0u64..20, 1u64..6), 1..30),
        shuffle in any::<u64>(),
    ) {
        // Segments on a 1000-byte grid so they don't split.
        let mut s = shuffle;
        for i in (1..segs.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            segs.swap(i, j);
        }
        let mut r = TcpReceiver::new(1 << 24);
        for (i, &(slot, len)) in segs.iter().enumerate() {
            r.on_segment(
                slot * 1000,
                (len * 1000).min(6000) as u32,
                Time::ZERO + Dur::from_millis(i as u64),
                Dur::from_millis(40),
            );
        }
        // Expected prefix from the union of intervals.
        let mut intervals: Vec<(u64, u64)> = segs
            .iter()
            .map(|&(slot, len)| (slot * 1000, slot * 1000 + (len * 1000).min(6000)))
            .collect();
        intervals.sort_unstable();
        let mut reach = 0u64;
        for (a, b) in intervals {
            if a <= reach {
                reach = reach.max(b);
            } else {
                break;
            }
        }
        prop_assert_eq!(r.rcv_nxt(), reach);
    }

    /// Ack fields are internally consistent: sack blocks are valid ranges
    /// above rcv_nxt (DSACK blocks may be below).
    #[test]
    fn ack_fields_wellformed(
        segs in proptest::collection::vec((0u64..30, 1u64..4), 1..25),
    ) {
        let mut r = TcpReceiver::new(1 << 24);
        for (i, &(slot, len)) in segs.iter().enumerate() {
            r.on_segment(
                slot * 1000,
                (len * 1000) as u32,
                Time::ZERO + Dur::from_millis(i as u64),
                Dur::from_millis(40),
            );
        }
        let (ack, window, sacks, dsack) = r.build_ack();
        prop_assert!(window <= 1 << 24);
        let plain = if dsack { &sacks[1.min(sacks.len())..] } else { &sacks[..] };
        for &(s, e) in plain {
            prop_assert!(s < e);
            prop_assert!(e > ack, "plain SACK block below the cumulative ack");
        }
    }

    /// h2 mux/demux: random record sets reconstruct exactly, regardless of
    /// how the descriptor announcements are batched.
    #[test]
    fn h2_records_reconstruct(
        recs in proptest::collection::vec((1u32..50, 0u32..5000, any::<bool>()), 1..20),
    ) {
        let mut mux = H2Mux::new(0);
        for &(stream, len, fin) in &recs {
            mux.push_record(stream * 2 + 1, len, fin);
        }
        let total = mux.stream_len();
        let mut demux = H2Demux::new(0);
        demux.on_descs(&mux.descs_in(0, total));
        let events = advance(&mut demux, total);
        // Total payload delivered matches; every fin surfaced.
        let delivered: u64 = events
            .iter()
            .map(|e| match e {
                H2Event::StreamData { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum();
        let expected: u64 = recs.iter().map(|&(_, len, _)| len as u64).sum();
        prop_assert_eq!(delivered, expected);
        let fins = events
            .iter()
            .filter(|e| matches!(e, H2Event::StreamFin(_)))
            .count();
        // Multiple fins on the same stream id are possible when the same
        // stream id repeats with fin; count record-level fins that end a
        // not-yet-finished stream is complex — just check at least one fin
        // per distinct finishing stream.
        let distinct_fin_streams: std::collections::BTreeSet<u32> = recs
            .iter()
            .filter(|&&(_, _, fin)| fin)
            .map(|&(s, _, _)| s * 2 + 1)
            .collect();
        prop_assert!(fins >= distinct_fin_streams.len());
    }

    /// Demux delivers the same totals no matter where the byte stream is
    /// split (head-of-line consistency).
    #[test]
    fn h2_partial_advance_is_lossless(
        recs in proptest::collection::vec((1u32..20, 1u32..2000), 1..10),
        cut in any::<u64>(),
    ) {
        let mut mux = H2Mux::new(0);
        for &(stream, len) in &recs {
            mux.push_record(stream * 2 + 1, len, false);
        }
        let total = mux.stream_len();
        let cut = cut % total.max(1);

        let mut one = H2Demux::new(0);
        one.on_descs(&mux.descs_in(0, total));
        let all_at_once: u64 = advance(&mut one, total)
            .iter()
            .map(|e| match e {
                H2Event::StreamData { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum();

        let mut two = H2Demux::new(0);
        two.on_descs(&mux.descs_in(0, total));
        let mut split_total = 0u64;
        for stage in [cut, total] {
            split_total += advance(&mut two, stage)
                .iter()
                .map(|e| match e {
                    H2Event::StreamData { bytes, .. } => *bytes,
                    _ => 0,
                })
                .sum::<u64>();
        }
        prop_assert_eq!(all_at_once, split_total);
    }

    /// Control segments always roundtrip (SYN, ACK, FIN combos).
    #[test]
    fn control_segments_roundtrip(fl in 0u8..8, window in any::<u64>()) {
        let seg = TcpSegment::control(0, 0, fl, window);
        prop_assert_eq!(TcpSegment::decode(&seg.encode()).expect("ok"), seg.clone());
        let expect_bare = seg.payload_len == 0 && fl & (flags::SYN | flags::FIN) == 0;
        prop_assert_eq!(seg.is_bare_ack(), expect_bare);
    }
}

/// An arbitrary well-formed segment (sack blocks normalized to start < end).
fn arb_segment() -> impl Strategy<Value = TcpSegment> {
    (
        (any::<u64>(), any::<u64>(), 0u8..8, any::<u64>()),
        (
            any::<u32>(),
            proptest::collection::vec((any::<u32>(), 1u32..1000), 0..5),
            any::<bool>(),
            proptest::collection::vec(
                (any::<u64>(), any::<u32>(), any::<u32>(), any::<bool>()),
                0..6,
            ),
        ),
    )
        .prop_map(
            |((seq, ack, flags, window), (payload_len, raw_sacks, dsack, records))| TcpSegment {
                seq,
                ack,
                flags,
                window,
                payload_len,
                sacks: raw_sacks
                    .into_iter()
                    .map(|(s, l)| (s as u64, s as u64 + l as u64))
                    .collect(),
                dsack,
                records: records
                    .into_iter()
                    .map(|(offset, stream, len, fin)| RecordDesc {
                        offset,
                        stream,
                        len,
                        fin,
                    })
                    .collect(),
            },
        )
}

proptest! {
    /// Encoding is canonical: re-encoding a decoded segment reproduces the
    /// exact byte sequence.
    #[test]
    fn encoding_is_canonical(seg in arb_segment()) {
        let bytes = seg.encode();
        let reencoded = TcpSegment::decode(&bytes).expect("valid").encode();
        prop_assert_eq!(reencoded.as_slice(), bytes.as_slice());
    }

    /// The encoded length follows the wire layout exactly:
    /// 31-byte fixed header + 16 bytes per SACK block + 2-byte record
    /// count + 17 bytes per record descriptor.
    #[test]
    fn encoded_length_matches_layout(seg in arb_segment()) {
        let expect = 31 + 16 * seg.sacks.len() + 2 + 17 * seg.records.len();
        prop_assert_eq!(seg.encode().len(), expect);
    }

    /// Every strict prefix of a valid encoding is rejected (the
    /// length-prefixed lists make truncation always detectable), and
    /// rejection never panics.
    #[test]
    fn strict_prefixes_never_decode(
        seg in arb_segment(),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = seg.encode();
        let cut = cut.index(bytes.len());
        prop_assert!(TcpSegment::decode(&bytes[..cut]).is_err());
    }
}

proptest! {
    /// Analytic sizing invariant: `encoded_len()` equals `encode().len()`
    /// exactly for every segment shape. The structured wire path charges
    /// links using `encoded_len`, so any drift here would silently skew
    /// byte accounting versus the encoded path.
    #[test]
    fn encoded_len_matches_encode(seg in arb_segment()) {
        prop_assert_eq!(seg.encoded_len() as usize, seg.encode().len());
    }

    /// Option-truncation edge: past the 255-SACK cap, `encode` and
    /// `encoded_len` truncate identically, including at max-valued fields.
    #[test]
    fn encoded_len_tracks_sack_cap(
        seq in prop_oneof![Just(u64::MAX), any::<u64>()],
        window in prop_oneof![Just(u64::MAX), any::<u64>()],
        nsacks in 0usize..300,
        nrecs in 0usize..40,
    ) {
        let seg = TcpSegment {
            seq,
            ack: u64::MAX,
            flags: flags::ACK,
            window,
            payload_len: u32::MAX,
            sacks: (0..nsacks as u64).map(|i| (2 * i, 2 * i + 1)).collect(),
            dsack: true,
            records: (0..nrecs)
                .map(|i| RecordDesc {
                    offset: u64::MAX - i as u64,
                    stream: u32::MAX,
                    len: u32::MAX,
                    fin: true,
                })
                .collect(),
        };
        prop_assert_eq!(seg.encoded_len() as usize, seg.encode().len());
    }
}

/// One abstract sender-side operation; the interpreter below applies it
/// identically to the ring scoreboard and the map oracle.
#[derive(Debug, Clone)]
enum SbOp {
    /// First transmissions of `count` fresh segments at `snd_nxt`; `lens`
    /// varies their sizes (boundaries stay stable afterwards).
    Send { count: u8, lens: u8 },
    /// Leave a hole at `snd_nxt`: the segment there is sent later, out of
    /// order, by `FillHole` — the sorted-insert path the public API allows.
    Skip,
    /// First transmission of the oldest skipped segment.
    FillHole,
    /// Retransmit the first lost segment if there is one (what the
    /// connection does), else the `pick`-th segment ever sent — which may
    /// already be acked, landing a fresh entry below `snd_una`.
    Retransmit { pick: u8 },
    /// One ack. `ack` picks the cumulative point (a segment boundary,
    /// mid-segment, stale, exactly `snd_una`, or beyond `snd_nxt`); each
    /// of `sacks` picks a block by its two boundaries, `ragged` shaving a
    /// byte off its end so the last segment inside is only partly
    /// covered; `dsack` prepends a duplicate report.
    Ack {
        ack: u8,
        shape: u8,
        sacks: Vec<(u8, u8)>,
        ragged: bool,
        dsack: bool,
        carries_data: bool,
    },
    /// `n` pure duplicate acks at `snd_una`, no SACK information.
    Dupacks { n: u8 },
    /// RTO: everything unsacked.
    MarkAllLost,
}

fn arb_sb_op() -> impl Strategy<Value = SbOp> {
    prop_oneof![
        (1u8..7, any::<u8>()).prop_map(|(count, lens)| SbOp::Send { count, lens }),
        (1u8..7, any::<u8>()).prop_map(|(count, lens)| SbOp::Send { count, lens }),
        Just(SbOp::Skip),
        Just(SbOp::FillHole),
        any::<u8>().prop_map(|pick| SbOp::Retransmit { pick }),
        (
            (any::<u8>(), 0u8..8),
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5),
            (any::<bool>(), any::<u8>(), any::<u8>()),
        )
            .prop_map(|((ack, shape), sacks, (ragged, d, c))| SbOp::Ack {
                ack,
                shape,
                sacks,
                ragged,
                dsack: d % 4 == 0,
                carries_data: c % 4 == 0,
            }),
        (
            (any::<u8>(), 0u8..8),
            proptest::collection::vec((any::<u8>(), any::<u8>()), 1..4),
        )
            .prop_map(|((ack, shape), sacks)| SbOp::Ack {
                ack,
                shape,
                sacks,
                ragged: false,
                dsack: false,
                carries_data: false,
            }),
        (1u8..5).prop_map(|n| SbOp::Dupacks { n }),
        Just(SbOp::MarkAllLost),
    ]
}

type SackBlocks = Vec<(u64, u64)>;

/// Every field of an ack outcome, `lost_ranges` in order.
fn outcome_fields(o: &TcpAckOutcome) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        o.newly_acked,
        o.newly_sacked,
        o.rtt_sample,
        o.newest_acked_sent_at,
        &o.lost_ranges,
        o.fast_retransmit,
        o.lost_sent_at,
        o.spurious,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The sequence-ordered ring is observationally identical to the
    /// `BTreeMap` scoreboard it replaced: same ack outcomes, same pipe,
    /// same loss bookkeeping, through first sends, retransmissions,
    /// out-of-order first sends, cumulative acks at and off segment
    /// boundaries, SACK and DSACK blocks, dupack runs and both RTO marks.
    #[test]
    fn ring_scoreboard_equivalent_to_map_scoreboard(
        ops in proptest::collection::vec(arb_sb_op(), 1..60),
    ) {
        let mut ring = Scoreboard::new();
        let mut map = MapScoreboard::new();
        // Every segment ever laid out, sent or still skipped: (seq, len).
        let mut layout: Vec<(u64, u32)> = Vec::new();
        let mut skipped: std::collections::VecDeque<(u64, u32)> = Default::default();
        let mut snd_nxt = 0u64;
        let mut ms = 0u64;
        for op in ops {
            let mut sends: Vec<(u64, u32)> = Vec::new();
            // (ack, blocks, dsack, carries_data)
            let mut acks: Vec<(u64, SackBlocks, bool, bool)> = Vec::new();
            match op {
                SbOp::Send { count, lens } => {
                    for i in 0..count {
                        let len = 400 + 200 * ((lens >> (i % 4)) & 7) as u32;
                        layout.push((snd_nxt, len));
                        sends.push((snd_nxt, len));
                        snd_nxt += len as u64;
                    }
                }
                SbOp::Skip => {
                    layout.push((snd_nxt, 1000));
                    skipped.push_back((snd_nxt, 1000));
                    snd_nxt += 1000;
                }
                SbOp::FillHole => sends.extend(skipped.pop_front()),
                SbOp::Retransmit { pick } => {
                    let sent: Vec<(u64, u32)> = layout
                        .iter()
                        .copied()
                        .filter(|seg| !skipped.contains(seg))
                        .collect();
                    match ring.first_lost() {
                        Some(seg) => sends.push(seg),
                        None if sent.is_empty() => continue,
                        None => sends.push(sent[pick as usize % sent.len()]),
                    }
                }
                SbOp::Ack { ack, shape, sacks, ragged, dsack, carries_data } => {
                    if layout.is_empty() {
                        continue;
                    }
                    let bound = |pick: u8| {
                        let (seq, len) = layout[pick as usize % layout.len()];
                        seq + len as u64
                    };
                    let ack = match shape {
                        0 => ring.snd_una(),
                        1 => bound(ack) - 1,          // mid-segment
                        2 => snd_nxt + 700,           // beyond anything sent
                        _ => bound(ack),
                    };
                    let mut blocks = SackBlocks::new();
                    if dsack {
                        let (seq, len) = layout[0];
                        blocks.push((seq, seq + len as u64));
                    }
                    for (a, b) in sacks {
                        let (a, b) = (bound(a), bound(b));
                        let (s, e) = (a.min(b), a.max(b) - u64::from(ragged));
                        // The wire rejects empty and inverted blocks.
                        if s < e {
                            blocks.push((s, e));
                        }
                    }
                    acks.push((ack, blocks, dsack, carries_data));
                }
                SbOp::Dupacks { n } => {
                    acks.extend((0..n).map(|_| (ring.snd_una(), Vec::new(), false, false)));
                }
                SbOp::MarkAllLost => {
                    prop_assert_eq!(ring.mark_all_lost(), map.mark_all_lost());
                }
            }
            for (seq, len) in sends {
                ms += 1;
                let now = Time::ZERO + Dur::from_millis(ms);
                ring.on_sent(seq, len, now);
                map.on_sent(seq, len, now);
            }
            for (ack, blocks, dsack, carries_data) in acks {
                ms += 5;
                let now = Time::ZERO + Dur::from_millis(ms);
                let a = ring.on_ack(now, ack, &blocks, dsack, carries_data);
                let b = map.on_ack(now, ack, &blocks, dsack, carries_data);
                prop_assert_eq!(
                    outcome_fields(&a),
                    outcome_fields(&b),
                    "ack {} sacks {:?} dsack {}", ack, blocks, dsack
                );
            }
            prop_assert_eq!(ring.pipe(), map.pipe());
            prop_assert_eq!(ring.snd_una(), map.snd_una());
            prop_assert_eq!(ring.dupthresh(), map.dupthresh());
            prop_assert_eq!(ring.lost_count(), map.lost_count());
            prop_assert_eq!(ring.first_lost(), map.first_lost());
            prop_assert_eq!(ring.has_outstanding(), map.has_outstanding());
        }
    }
}

/// One step applied to both the flat h2 indexes and the map oracles.
#[derive(Debug, Clone)]
enum H2Op {
    /// Both muxes append a record.
    Push { stream: u8, len: u16, fin: bool },
    /// A segment covering `width` bytes from a point `at` picks arrives:
    /// the descriptors the mux attaches to it reach both demuxes. `lie`
    /// may rewrite the first one in place (same offset, other record) or
    /// add a stray one at no record start.
    Announce { at: u16, width: u16, lie: u8 },
    /// The in-order point moves forward by `delta`.
    Advance { delta: u16 },
    /// Both muxes drop records fully below a point `at` picks.
    Prune { at: u16 },
}

fn arb_h2_op() -> impl Strategy<Value = H2Op> {
    prop_oneof![
        (0u8..12, 0u16..3_000, any::<bool>()).prop_map(|(stream, len, fin)| H2Op::Push {
            stream,
            len,
            fin
        }),
        (0u8..12, prop_oneof![Just(0u16), 0u16..3_000], any::<bool>())
            .prop_map(|(stream, len, fin)| H2Op::Push { stream, len, fin }),
        (any::<u16>(), 1u16..4_000, any::<u8>()).prop_map(|(at, width, lie)| H2Op::Announce {
            at,
            width,
            lie
        }),
        (any::<u16>(), 1u16..4_000, any::<u8>()).prop_map(|(at, width, lie)| H2Op::Announce {
            at,
            width,
            lie
        }),
        (0u16..2_500).prop_map(|delta| H2Op::Advance { delta }),
        any::<u16>().prop_map(|at| H2Op::Prune { at }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The offset-sorted deques are observationally identical to the
    /// `BTreeMap`s they replaced. The muxes lay out the same records and
    /// attach the same descriptors to any byte range, before and after
    /// pruning. The demuxes, fed the same descriptors out of order,
    /// twice, below the parse pointer, rewritten at a taken offset (the
    /// last one written wins) or at no record start, release the same
    /// events at the same parse pointer; the flat demux holds exactly the
    /// oracle's descriptors at or above it.
    #[test]
    fn h2_flat_index_equivalent_to_map_index(
        base in 0u64..600,
        ops in proptest::collection::vec(arb_h2_op(), 1..80),
    ) {
        let (mut mux, mut map_mux) = (H2Mux::new(base), MapH2Mux::new(base));
        let (mut demux, mut map_demux) = (H2Demux::new(base), MapH2Demux::new(base));
        let mut rcv_nxt = base;
        for op in ops {
            let span = mux.stream_len() + 1;
            match op {
                H2Op::Push { stream, len, fin } => {
                    let stream = 2 * stream as u32 + 1;
                    prop_assert_eq!(
                        mux.push_record(stream, len as u32, fin),
                        map_mux.push_record(stream, len as u32, fin)
                    );
                }
                H2Op::Announce { at, width, lie } => {
                    let start = at as u64 % span;
                    let end = start + width as u64;
                    let mut descs = mux.descs_in(start, end);
                    prop_assert_eq!(&descs, &map_mux.descs_in(start, end));
                    match (lie % 4, descs.first_mut()) {
                        (0, Some(d)) => {
                            d.stream += 2;
                            d.len = d.len / 2 + lie as u32;
                            d.fin = !d.fin;
                        }
                        (1, _) => descs.push(RecordDesc {
                            offset: start + lie as u64,
                            stream: lie as u32,
                            len: lie as u32 * 7,
                            fin: lie % 8 == 1,
                        }),
                        _ => {}
                    }
                    demux.on_descs(&descs);
                    map_demux.on_descs(&descs);
                }
                H2Op::Advance { delta } => {
                    rcv_nxt += delta as u64;
                    let got = advance(&mut demux, rcv_nxt);
                    let mut want = Vec::new();
                    map_demux.advance(rcv_nxt, |e| want.push(e));
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(demux.parse_ptr(), map_demux.parse_ptr());
                }
                H2Op::Prune { at } => {
                    let below = at as u64 % span;
                    mux.prune(below);
                    map_mux.prune(below);
                    prop_assert_eq!(mux.descs_in(0, u64::MAX), map_mux.descs_in(0, u64::MAX));
                }
            }
            let parse_ptr = map_demux.parse_ptr();
            let live: Vec<RecordDesc> = map_demux
                .held_descs()
                .filter(|d| d.offset >= parse_ptr)
                .copied()
                .collect();
            prop_assert_eq!(demux.held_descs().copied().collect::<Vec<_>>(), live);
        }
    }

    /// A retransmitted segment carries the descriptors of the records
    /// starting inside it again, after those records may have been parsed.
    /// Nothing reads below the parse pointer, so the demux keeps no
    /// descriptor there: its index does not grow with retransmissions.
    #[test]
    fn replayed_segments_leave_no_descriptor_below_parse_ptr(
        base in 0u64..600,
        recs in proptest::collection::vec((0u32..8, 0u32..3_000, any::<bool>()), 1..30),
        mss in 200u64..1_500,
        ops in proptest::collection::vec((any::<bool>(), any::<u8>()), 1..80),
    ) {
        let mut mux = H2Mux::new(base);
        for &(stream, len, fin) in &recs {
            mux.push_record(2 * stream + 1, len, fin);
        }
        let total = mux.stream_len();
        let segments: Vec<(u64, u64)> = (0..total)
            .step_by(mss as usize)
            .map(|s| (s, (s + mss).min(total)))
            .collect();
        let mut demux = H2Demux::new(base);
        let mut delivered = 0usize;
        let mut rcv_nxt = 0u64;
        let steps = ops.into_iter().chain(std::iter::repeat_n((false, 0), segments.len()));
        for (replay, pick) in steps {
            let (start, end) = if replay && delivered > 0 {
                segments[pick as usize % delivered]
            } else if delivered < segments.len() {
                delivered += 1;
                segments[delivered - 1]
            } else {
                continue;
            };
            rcv_nxt = rcv_nxt.max(end);
            demux.on_descs(&mux.descs_in(start, end));
            advance(&mut demux, rcv_nxt);
            let below = demux.held_descs().find(|d| d.offset < demux.parse_ptr()).copied();
            prop_assert_eq!(below, None, "parse_ptr {}", demux.parse_ptr());
        }
        prop_assert_eq!(demux.parse_ptr(), total);
        prop_assert_eq!(demux.held_descs().count(), 0);
    }
}
