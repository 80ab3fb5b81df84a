//! HTTP/2-like record multiplexing over the single TCP byte stream.
//!
//! Records are length-delimited frames (9-byte header + payload) laid out
//! back-to-back in stream-byte space. The sender keeps an index of record
//! start offsets so retransmitted segments can re-attach the descriptors of
//! records beginning inside them; the receiver consumes descriptors *only
//! as the in-order byte pointer sweeps past them* — so a single lost
//! segment stalls every stream multiplexed behind it. That is HTTP/2's
//! head-of-line blocking, arising from the layering rather than being
//! bolted on.

use crate::wire::RecordDesc;
use std::collections::VecDeque;

/// HTTP/2 frame header size in stream bytes.
pub const RECORD_HEADER: u64 = 9;

/// Record descriptors sorted by offset, at most one per offset. Records
/// are laid out in offset order and mostly announced in it, so an insert
/// is almost always a push at the back and the entries a reader wants sit
/// at the front.
#[derive(Debug, Default)]
struct RecordIndex(VecDeque<RecordDesc>);

impl RecordIndex {
    /// Insert `d`, replacing any descriptor at its offset.
    fn insert(&mut self, d: RecordDesc) {
        match self.0.back() {
            Some(last) if last.offset >= d.offset => {
                match self.0.binary_search_by_key(&d.offset, |r| r.offset) {
                    Ok(at) => self.0[at] = d,
                    Err(at) => self.0.insert(at, d),
                }
            }
            _ => self.0.push_back(d),
        }
    }

    /// Descriptors whose offset lies in `[start, end)`, ascending.
    fn range(&self, start: u64, end: u64) -> impl Iterator<Item = &RecordDesc> {
        let from = self.0.partition_point(|r| r.offset < start);
        self.0.range(from..).take_while(move |r| r.offset < end)
    }

    /// Drop leading descriptors while `dead` holds for them.
    fn drop_front_while(&mut self, mut dead: impl FnMut(&RecordDesc) -> bool) {
        while self.0.front().is_some_and(&mut dead) {
            self.0.pop_front();
        }
    }
}

/// Sender-side record index.
#[derive(Debug)]
pub struct H2Mux {
    records: RecordIndex,
    write_ptr: u64,
}

impl H2Mux {
    /// New mux whose first record begins at `base` (stream bytes below the
    /// base belong to the TLS handshake).
    pub fn new(base: u64) -> Self {
        H2Mux {
            records: RecordIndex::default(),
            write_ptr: base,
        }
    }

    /// Append a record; returns the stream-byte range it occupies.
    pub fn push_record(&mut self, stream: u32, len: u32, fin: bool) -> (u64, u64) {
        let offset = self.write_ptr;
        self.records.insert(RecordDesc {
            offset,
            stream,
            len,
            fin,
        });
        self.write_ptr += RECORD_HEADER + len as u64;
        (offset, self.write_ptr)
    }

    /// Total stream bytes produced so far (TLS prefix + records).
    pub fn stream_len(&self) -> u64 {
        self.write_ptr
    }

    /// Descriptors of records starting inside `[start, end)` — attached to
    /// the segment carrying those bytes (original or retransmission).
    pub fn descs_in(&self, start: u64, end: u64) -> Vec<RecordDesc> {
        self.records.range(start, end).copied().collect()
    }

    /// Drop index entries fully below `below` (cumulatively acked).
    pub fn prune(&mut self, below: u64) {
        // Records lie back to back, so the fully acked ones are a prefix;
        // keep any record whose span may still be retransmitted.
        self.records
            .drop_front_while(|d| d.offset + RECORD_HEADER + d.len as u64 <= below);
    }
}

/// Events the demux produces as the byte stream advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum H2Event {
    /// First record seen on a stream.
    StreamOpened(u32),
    /// Payload bytes became readable on a stream.
    StreamData {
        /// Stream id.
        stream: u32,
        /// Newly readable payload bytes.
        bytes: u64,
    },
    /// END_STREAM record fully delivered.
    StreamFin(u32),
}

/// Receiver-side record parser over the in-order byte stream.
#[derive(Debug)]
pub struct H2Demux {
    /// Descriptors at or above `parse_ptr`: nothing below it is read
    /// again, so none is kept there.
    descs: RecordIndex,
    /// Byte pointer: everything below is fully parsed.
    parse_ptr: u64,
    /// Record currently being consumed and payload bytes already taken.
    current: Option<(RecordDesc, u64)>,
    /// Streams a record header has opened, ascending.
    seen_streams: Vec<u32>,
}

impl H2Demux {
    /// New demux expecting records to start at `base` (the peer's TLS
    /// prefix length).
    pub fn new(base: u64) -> Self {
        H2Demux {
            descs: RecordIndex::default(),
            parse_ptr: base,
            current: None,
            seen_streams: Vec::new(),
        }
    }

    /// Store descriptors from an arriving segment (may be out of order or
    /// duplicates — idempotent). A descriptor below the parse pointer, the
    /// start of a record already parsed that a retransmission carried
    /// again, is dropped.
    pub fn on_descs(&mut self, descs: &[RecordDesc]) {
        for d in descs {
            if d.offset >= self.parse_ptr {
                self.descs.insert(*d);
            }
        }
    }

    /// Whether `stream`'s first record header is being parsed now.
    fn opens(&mut self, stream: u32) -> bool {
        match self.seen_streams.last() {
            Some(&last) if last >= stream => match self.seen_streams.binary_search(&stream) {
                Ok(_) => false,
                Err(at) => {
                    self.seen_streams.insert(at, stream);
                    true
                }
            },
            _ => {
                self.seen_streams.push(stream);
                true
            }
        }
    }

    /// Move the parse pointer to `to` and drop the descriptors it passed.
    fn parsed_to(&mut self, to: u64) {
        self.parse_ptr = to;
        self.current = None;
        self.descs.drop_front_while(|d| d.offset < to);
    }

    /// Advance parsing up to the receiver's in-order point `rcv_nxt`,
    /// handing each application event this releases to `emit`, in order.
    pub fn advance(&mut self, rcv_nxt: u64, mut emit: impl FnMut(H2Event)) {
        loop {
            if self.parse_ptr >= rcv_nxt {
                break;
            }
            if self.current.is_none() {
                // Look up the descriptor for the record at parse_ptr. Its
                // bytes have arrived in order, so the segment carrying the
                // record start arrived, so the descriptor is known.
                let Some(&d) = self.descs.0.front().filter(|d| d.offset == self.parse_ptr) else {
                    break; // TLS prefix or not yet announced: wait
                };
                self.current = Some((d, 0));
            }
            let (d, taken) = self.current.expect("set above");
            let rec_start = d.offset;
            let payload_start = rec_start + RECORD_HEADER;
            let rec_end = payload_start + d.len as u64;
            let readable_to = rcv_nxt.min(rec_end);
            // Consume header first.
            if readable_to <= payload_start {
                if readable_to == rec_end && d.len == 0 {
                    // Zero-length record fully consumed by its header.
                    if self.opens(d.stream) {
                        emit(H2Event::StreamOpened(d.stream));
                    }
                    if d.fin {
                        emit(H2Event::StreamFin(d.stream));
                    }
                    self.parsed_to(rec_end);
                    continue;
                }
                break; // header partially arrived: wait for more bytes
            }
            // The full record header is readable: the stream is now open.
            if self.opens(d.stream) {
                emit(H2Event::StreamOpened(d.stream));
            }
            let new_taken = readable_to - payload_start;
            let delta = new_taken - taken;
            if delta > 0 {
                emit(H2Event::StreamData {
                    stream: d.stream,
                    bytes: delta,
                });
            }
            if readable_to == rec_end {
                if d.fin {
                    emit(H2Event::StreamFin(d.stream));
                }
                self.parsed_to(rec_end);
            } else {
                self.current = Some((d, new_taken));
                break; // consumed all available bytes
            }
        }
    }

    /// The parse pointer (diagnostics).
    pub fn parse_ptr(&self) -> u64 {
        self.parse_ptr
    }

    /// The descriptors held, ascending by offset (diagnostics).
    pub fn held_descs(&self) -> impl Iterator<Item = &RecordDesc> {
        self.descs.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The events `d` releases on reaching `rcv_nxt`, collected.
    fn advance(d: &mut H2Demux, rcv_nxt: u64) -> Vec<H2Event> {
        let mut events = Vec::new();
        d.advance(rcv_nxt, |e| events.push(e));
        events
    }

    #[test]
    fn mux_lays_out_records_back_to_back() {
        let mut m = H2Mux::new(100);
        let (s1, e1) = m.push_record(1, 500, false);
        let (s2, e2) = m.push_record(3, 200, true);
        assert_eq!((s1, e1), (100, 609));
        assert_eq!((s2, e2), (609, 818));
        assert_eq!(m.stream_len(), 818);
    }

    #[test]
    fn descs_in_range() {
        let mut m = H2Mux::new(0);
        m.push_record(1, 500, false); // [0, 509)
        m.push_record(3, 200, true); // [509, 718)
        let d = m.descs_in(0, 400);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].stream, 1);
        let d = m.descs_in(400, 600);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].stream, 3);
        assert!(m.descs_in(100, 500).is_empty(), "no record starts here");
    }

    #[test]
    fn prune_keeps_unacked_spans() {
        let mut m = H2Mux::new(0);
        m.push_record(1, 100, false); // [0,109)
        m.push_record(3, 100, false); // [109,218)
        m.prune(150);
        assert!(m.descs_in(0, 109).is_empty(), "fully acked record pruned");
        assert_eq!(m.descs_in(109, 218).len(), 1);
    }

    #[test]
    fn demux_in_order_delivery() {
        let mut m = H2Mux::new(0);
        m.push_record(1, 1000, true);
        let mut d = H2Demux::new(0);
        d.on_descs(&m.descs_in(0, 2000));
        let ev = advance(&mut d, 1009);
        assert_eq!(
            ev,
            vec![
                H2Event::StreamOpened(1),
                H2Event::StreamData {
                    stream: 1,
                    bytes: 1000
                },
                H2Event::StreamFin(1),
            ]
        );
    }

    #[test]
    fn demux_partial_delivery_is_incremental() {
        let mut m = H2Mux::new(0);
        m.push_record(1, 1000, true);
        let mut d = H2Demux::new(0);
        d.on_descs(&m.descs_in(0, 2000));
        let ev = advance(&mut d, 500);
        assert_eq!(
            ev,
            vec![
                H2Event::StreamOpened(1),
                H2Event::StreamData {
                    stream: 1,
                    bytes: 491
                },
            ]
        );
        let ev = advance(&mut d, 1009);
        assert_eq!(
            ev,
            vec![
                H2Event::StreamData {
                    stream: 1,
                    bytes: 509
                },
                H2Event::StreamFin(1),
            ]
        );
    }

    #[test]
    fn demux_waits_for_header_bytes() {
        let mut m = H2Mux::new(0);
        m.push_record(1, 100, false);
        let mut d = H2Demux::new(0);
        d.on_descs(&m.descs_in(0, 200));
        assert!(advance(&mut d, 5).is_empty(), "header incomplete");
        let ev = advance(&mut d, 59);
        assert_eq!(ev.len(), 2); // opened + 50 bytes
    }

    #[test]
    fn demux_multiplexed_streams_in_order() {
        let mut m = H2Mux::new(0);
        m.push_record(1, 100, true); // [0,109)
        m.push_record(3, 100, true); // [109,218)
        let mut d = H2Demux::new(0);
        d.on_descs(&m.descs_in(0, 300));
        let ev = advance(&mut d, 218);
        assert_eq!(
            ev,
            vec![
                H2Event::StreamOpened(1),
                H2Event::StreamData {
                    stream: 1,
                    bytes: 100
                },
                H2Event::StreamFin(1),
                H2Event::StreamOpened(3),
                H2Event::StreamData {
                    stream: 3,
                    bytes: 100
                },
                H2Event::StreamFin(3),
            ]
        );
    }

    #[test]
    fn hol_blocking_stalls_later_streams() {
        // Stream 1's record occupies bytes [0,109); stream 3's [109,218).
        // Even if stream 3's bytes all arrived (rcv_nxt can't advance past
        // the hole), nothing on stream 3 is delivered until the hole fills.
        let mut m = H2Mux::new(0);
        m.push_record(1, 100, true);
        m.push_record(3, 100, true);
        let mut d = H2Demux::new(0);
        d.on_descs(&m.descs_in(0, 300));
        // rcv_nxt stuck at 50 because segment [50,109) was lost.
        let ev = advance(&mut d, 50);
        assert_eq!(ev.len(), 2, "only stream 1 partially delivered");
        // After the hole fills, everything flushes at once.
        let ev = advance(&mut d, 218);
        assert!(ev.contains(&H2Event::StreamFin(1)));
        assert!(ev.contains(&H2Event::StreamFin(3)));
    }

    #[test]
    fn tls_prefix_is_skipped() {
        let mut m = H2Mux::new(478);
        m.push_record(1, 100, true);
        let mut d = H2Demux::new(478);
        d.on_descs(&m.descs_in(0, 1000));
        assert!(advance(&mut d, 400).is_empty(), "still inside TLS prefix");
        let ev = advance(&mut d, 478 + 109);
        assert_eq!(ev.len(), 3);
    }

    #[test]
    fn zero_length_fin_record() {
        let mut m = H2Mux::new(0);
        m.push_record(1, 0, true);
        let mut d = H2Demux::new(0);
        d.on_descs(&m.descs_in(0, 100));
        let ev = advance(&mut d, 9);
        assert_eq!(ev, vec![H2Event::StreamOpened(1), H2Event::StreamFin(1)]);
    }

    #[test]
    fn duplicate_descs_are_idempotent() {
        let mut m = H2Mux::new(0);
        m.push_record(1, 100, true);
        let descs = m.descs_in(0, 200);
        let mut d = H2Demux::new(0);
        d.on_descs(&descs);
        d.on_descs(&descs);
        let ev = advance(&mut d, 109);
        assert_eq!(ev.len(), 3);
    }
}
