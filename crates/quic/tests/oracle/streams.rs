//! The `BTreeMap` stream table, verbatim from before
//! `longlook_quic::streams::StreamTable` kept one dense vector per id
//! parity: the oracle of `stream_table_equivalent_to_map_table`. Its
//! record spells out the product record's fields, whose send side only
//! the product table may change.

use longlook_quic::streams::{Chunk, Pull, RecvStream, SendStream};
use std::collections::{BTreeMap, VecDeque};

/// One stream's state, field for field as in `StreamRec`.
#[derive(Debug)]
pub struct MapRec {
    /// Send side.
    pub send: SendStream,
    /// Receive-side reassembly.
    pub recv: RecvStream,
    /// Peer-initiated stream already announced to the application.
    pub announced: bool,
    /// Receive offset last advertised to the peer.
    pub advertised: Option<u64>,
}

/// The stream table as it was before the dense layout: one `BTreeMap`
/// node per stream id, whatever its parity.
#[derive(Debug)]
pub struct MapStreamTable {
    recs: BTreeMap<u32, MapRec>,
    ready: VecDeque<u32>,
    initial_window: u64,
}

impl MapStreamTable {
    /// An empty table whose streams start with `initial_window` bytes of
    /// send credit.
    pub fn new(initial_window: u64) -> Self {
        MapStreamTable {
            recs: BTreeMap::new(),
            ready: VecDeque::new(),
            initial_window,
        }
    }

    fn entry(recs: &mut BTreeMap<u32, MapRec>, window: u64, id: u32) -> &mut MapRec {
        recs.entry(id).or_insert_with(|| MapRec {
            send: SendStream::with_window(id, window),
            recv: RecvStream::default(),
            announced: false,
            advertised: None,
        })
    }

    /// The record for `id`, created on first use.
    pub fn rec_mut(&mut self, id: u32) -> &mut MapRec {
        Self::entry(&mut self.recs, self.initial_window, id)
    }

    /// The record for `id`, if the stream was ever touched.
    pub fn get(&self, id: u32) -> Option<&MapRec> {
        self.recs.get(&id)
    }

    fn index_if_ready(ready: &mut VecDeque<u32>, id: u32, send: &SendStream) {
        if !send.wants_to_send() {
            return;
        }
        match ready.back() {
            Some(&last) if last >= id => {
                if let Err(at) = ready.binary_search(&id) {
                    ready.insert(at, id);
                }
            }
            _ => ready.push_back(id),
        }
    }

    /// Application queues `bytes` (and optionally the FIN) on `id`.
    pub fn write(&mut self, id: u32, bytes: u64, fin: bool) {
        let send = &mut Self::entry(&mut self.recs, self.initial_window, id).send;
        send.write(bytes, fin);
        Self::index_if_ready(&mut self.ready, id, send);
    }

    /// The peer raised stream `id`'s flow-control limit.
    pub fn on_window_update(&mut self, id: u32, max_offset: u64) {
        let send = &mut Self::entry(&mut self.recs, self.initial_window, id).send;
        send.on_window_update(max_offset);
        Self::index_if_ready(&mut self.ready, id, send);
    }

    /// A chunk was declared lost.
    pub fn on_chunk_lost(&mut self, chunk: &Chunk) {
        if let Some(rec) = self.recs.get_mut(&chunk.id) {
            rec.send.on_chunk_lost(chunk);
            Self::index_if_ready(&mut self.ready, chunk.id, &rec.send);
        }
    }

    /// Pull the next chunk of at most `budget` bytes; fresh data is
    /// further capped by `conn_room`.
    pub fn next_chunk(&mut self, budget: u32, conn_room: u64) -> Pull {
        let mut data_was_available = false;
        for at in 0..self.ready.len() {
            let id = self.ready[at];
            let s = &mut self
                .recs
                .get_mut(&id)
                .expect("indexed stream has a record")
                .send;
            let retransmit = s.has_retransmit_pending();
            if !retransmit && s.sendable_new().min(conn_room) == 0 && !s.fin_pending() {
                continue;
            }
            data_was_available = true;
            let cap = if retransmit {
                budget
            } else {
                budget.min(conn_room.min(u32::MAX as u64) as u32)
            };
            if let Some(chunk) = s.next_chunk(cap) {
                if !s.wants_to_send() {
                    self.ready.remove(at);
                }
                return Pull {
                    chunk: Some(chunk),
                    fresh: !retransmit,
                    data_was_available,
                };
            }
        }
        Pull {
            chunk: None,
            fresh: false,
            data_was_available,
        }
    }

    /// The ready index, ascending.
    pub fn ready_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.ready.iter().copied()
    }
}
