//! The `BTreeMap` HTTP/2 record indexes, verbatim from before
//! `longlook_tcp::h2` kept its descriptors in offset-sorted deques: the
//! oracle of `h2_flat_index_equivalent_to_map_index`.

use longlook_tcp::h2::{H2Event, RECORD_HEADER};
use longlook_tcp::wire::RecordDesc;
use std::collections::BTreeMap;

/// Sender-side record index: one `BTreeMap` node per record.
#[derive(Debug)]
pub struct MapH2Mux {
    records: BTreeMap<u64, RecordDesc>,
    write_ptr: u64,
}

impl MapH2Mux {
    /// New mux whose first record begins at `base`.
    pub fn new(base: u64) -> Self {
        MapH2Mux {
            records: BTreeMap::new(),
            write_ptr: base,
        }
    }

    /// Append a record; returns the stream-byte range it occupies.
    pub fn push_record(&mut self, stream: u32, len: u32, fin: bool) -> (u64, u64) {
        let offset = self.write_ptr;
        self.records.insert(
            offset,
            RecordDesc {
                offset,
                stream,
                len,
                fin,
            },
        );
        self.write_ptr += RECORD_HEADER + len as u64;
        (offset, self.write_ptr)
    }

    /// Descriptors of records starting inside `[start, end)`.
    pub fn descs_in(&self, start: u64, end: u64) -> Vec<RecordDesc> {
        self.records.range(start..end).map(|(_, &d)| d).collect()
    }

    /// Drop index entries fully below `below`.
    pub fn prune(&mut self, below: u64) {
        while let Some(first) = self.records.first_entry() {
            let d = first.get();
            if d.offset + RECORD_HEADER + d.len as u64 > below {
                break;
            }
            first.remove();
        }
    }
}

/// Receiver-side record parser: one `BTreeMap` node per descriptor, kept
/// until its record is parsed (or for good, if it arrives after).
#[derive(Debug)]
pub struct MapH2Demux {
    descs: BTreeMap<u64, RecordDesc>,
    parse_ptr: u64,
    current: Option<(RecordDesc, u64)>,
    seen_streams: BTreeMap<u32, ()>,
}

impl MapH2Demux {
    /// New demux expecting records to start at `base`.
    pub fn new(base: u64) -> Self {
        MapH2Demux {
            descs: BTreeMap::new(),
            parse_ptr: base,
            current: None,
            seen_streams: BTreeMap::new(),
        }
    }

    /// Store descriptors from an arriving segment.
    pub fn on_descs(&mut self, descs: &[RecordDesc]) {
        for d in descs {
            self.descs.insert(d.offset, *d);
        }
    }

    /// Advance parsing up to `rcv_nxt`, handing each event to `emit`.
    pub fn advance(&mut self, rcv_nxt: u64, mut emit: impl FnMut(H2Event)) {
        loop {
            if self.parse_ptr >= rcv_nxt {
                break;
            }
            if self.current.is_none() {
                let Some(&d) = self.descs.get(&self.parse_ptr) else {
                    break;
                };
                self.current = Some((d, 0));
            }
            let (d, taken) = self.current.expect("set above");
            let rec_start = d.offset;
            let payload_start = rec_start + RECORD_HEADER;
            let rec_end = payload_start + d.len as u64;
            let readable_to = rcv_nxt.min(rec_end);
            if readable_to <= payload_start {
                if readable_to == rec_end && d.len == 0 {
                    if self.seen_streams.insert(d.stream, ()).is_none() {
                        emit(H2Event::StreamOpened(d.stream));
                    }
                    if d.fin {
                        emit(H2Event::StreamFin(d.stream));
                    }
                    self.parse_ptr = rec_end;
                    self.current = None;
                    continue;
                }
                break;
            }
            if self.seen_streams.insert(d.stream, ()).is_none() {
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
                self.parse_ptr = rec_end;
                self.descs.remove(&rec_start);
                self.current = None;
            } else {
                self.current = Some((d, new_taken));
                break;
            }
        }
    }

    /// The parse pointer.
    pub fn parse_ptr(&self) -> u64 {
        self.parse_ptr
    }

    /// Every descriptor held, ascending by offset.
    pub fn held_descs(&self) -> impl Iterator<Item = &RecordDesc> {
        self.descs.values()
    }
}
