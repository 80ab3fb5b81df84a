//! TCP segment wire format (with SACK/DSACK options) plus the HTTP/2
//! record descriptors that ride alongside synthetic payload.
//!
//! As elsewhere in the testbed, bulk payload is synthetic: a segment
//! carries `payload_len` accounting plus the *descriptors* of any HTTP/2
//! records that begin inside its sequence range, so the receiver can
//! reconstruct the multiplexed record stream exactly as a real h2 parser
//! reading the in-order byte stream would — including head-of-line
//! blocking, because descriptors are only consumed once the byte stream is
//! contiguous up to them.
//!
//! [`TcpSegment::encoded_len`] is the allocation-free analytic size of
//! [`TcpSegment::encode`]'s output, proptest-pinned to `encode().len()`.

use crate::Reader;

/// TCP flag bits.
pub mod flags {
    /// Connection-open request.
    pub const SYN: u8 = 0x01;
    /// Acknowledgement field is valid.
    pub const ACK: u8 = 0x02;
    /// Sender is done.
    pub const FIN: u8 = 0x04;
}

/// Most SACK blocks one encoded segment can carry (u8 count field).
pub const MAX_SACKS: usize = 255;

/// Most record descriptors one encoded segment can carry (u16 count
/// field). Unreachable in practice: records are ≥ 9 stream bytes each, so
/// an MSS-sized segment bounds the count far below this.
pub const MAX_RECORDS: usize = 65535;

/// Descriptor of an HTTP/2 record that begins inside a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordDesc {
    /// Absolute stream-byte offset where the record (its 9-byte header)
    /// begins.
    pub offset: u64,
    /// HTTP/2 stream id.
    pub stream: u32,
    /// Record payload length (excluding the 9-byte header).
    pub len: u32,
    /// END_STREAM flag.
    pub fin: bool,
}

/// A TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// First sequence (stream byte) number carried.
    pub seq: u64,
    /// Cumulative ack: next expected sequence number.
    pub ack: u64,
    /// Flag bits.
    pub flags: u8,
    /// Receive window in bytes.
    pub window: u64,
    /// Synthetic payload bytes carried.
    pub payload_len: u32,
    /// SACK blocks `[start, end)`, most recent first (max 3, or 4 with a
    /// leading DSACK block).
    pub sacks: Vec<(u64, u64)>,
    /// Whether the first SACK block reports a duplicate (DSACK, RFC 2883).
    pub dsack: bool,
    /// HTTP/2 records starting inside `[seq, seq + payload_len)`.
    pub records: Vec<RecordDesc>,
}

impl TcpSegment {
    /// A bare control segment (SYN/ACK/FIN carrying no payload).
    pub fn control(seq: u64, ack: u64, flags: u8, window: u64) -> Self {
        TcpSegment {
            seq,
            ack,
            flags,
            window,
            payload_len: 0,
            sacks: Vec::new(),
            dsack: false,
            records: Vec::new(),
        }
    }

    /// Encode control bytes (synthetic payload not materialized).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len() as usize);
        buf.extend(self.seq.to_be_bytes());
        buf.extend(self.ack.to_be_bytes());
        buf.push(self.flags);
        buf.extend(self.window.to_be_bytes());
        buf.extend(self.payload_len.to_be_bytes());
        buf.push(u8::from(self.dsack));
        buf.push(self.sacks.len().min(MAX_SACKS) as u8);
        for &(s, e) in self.sacks.iter().take(MAX_SACKS) {
            buf.extend(s.to_be_bytes());
            buf.extend(e.to_be_bytes());
        }
        buf.extend((self.records.len().min(MAX_RECORDS) as u16).to_be_bytes());
        for r in self.records.iter().take(MAX_RECORDS) {
            buf.extend(r.offset.to_be_bytes());
            buf.extend(r.stream.to_be_bytes());
            buf.extend(r.len.to_be_bytes());
            buf.push(u8::from(r.fin));
        }
        buf
    }

    /// Decode control bytes.
    pub fn decode(bytes: &[u8]) -> Result<TcpSegment, TcpWireError> {
        let mut r = Reader::new(bytes, TcpWireError::Truncated);
        let seq = r.u64()?;
        let ack = r.u64()?;
        let flags = r.u8()?;
        let window = r.u64()?;
        let payload_len = r.u32()?;
        let dsack = r.u8()? != 0;
        let n_sacks = r.u8()? as usize;
        // The blocks and the record count behind them: a segment cut
        // anywhere there is truncated before a block is judged.
        r.need(n_sacks * 16 + 2)?;
        let mut sacks = Vec::with_capacity(n_sacks);
        for _ in 0..n_sacks {
            let (s, e) = (r.u64()?, r.u64()?);
            if s >= e {
                return Err(TcpWireError::Malformed("sack block start >= end"));
            }
            sacks.push((s, e));
        }
        let n_recs = r.u16()? as usize;
        r.need(n_recs * 17)?;
        let mut records = Vec::with_capacity(n_recs);
        for _ in 0..n_recs {
            records.push(RecordDesc {
                offset: r.u64()?,
                stream: r.u32()?,
                len: r.u32()?,
                fin: r.u8()? != 0,
            });
        }
        Ok(TcpSegment {
            seq,
            ack,
            flags,
            window,
            payload_len,
            sacks,
            dsack,
            records,
        })
    }

    /// Exact number of control bytes [`TcpSegment::encode`] produces,
    /// computed without allocating: 31 fixed header bytes + 16 per SACK
    /// block + 2 record-count bytes + 17 per record descriptor.
    pub fn encoded_len(&self) -> u32 {
        31 + 16 * self.sacks.len().min(MAX_SACKS) as u32
            + 2
            + 17 * self.records.len().min(MAX_RECORDS) as u32
    }

    /// Wire size including synthetic payload and TCP option estimates
    /// (each SACK block costs 8 bytes of real option space).
    pub fn wire_size_payload(&self) -> u32 {
        self.payload_len + 8 * self.sacks.len() as u32
    }

    /// Whether this is a pure ack (no payload, no SYN/FIN).
    pub fn is_bare_ack(&self) -> bool {
        self.payload_len == 0 && self.flags & (flags::SYN | flags::FIN) == 0
    }
}

/// TCP wire decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpWireError {
    /// Out of bytes.
    Truncated,
    /// Structurally invalid.
    Malformed(&'static str),
}

impl std::fmt::Display for TcpWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpWireError::Truncated => write!(f, "truncated segment"),
            TcpWireError::Malformed(w) => write!(f, "malformed {w}"),
        }
    }
}

impl std::error::Error for TcpWireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_segment_roundtrip() {
        let syn = TcpSegment::control(0, 0, flags::SYN, 65535);
        let dec = TcpSegment::decode(&syn.encode()).unwrap();
        assert_eq!(dec, syn);
        assert!(!syn.is_bare_ack());
    }

    #[test]
    fn data_segment_roundtrip() {
        let seg = TcpSegment {
            seq: 1_000_000,
            ack: 777,
            flags: flags::ACK,
            window: 6 << 20,
            payload_len: 1400,
            sacks: vec![(2000, 3400), (5000, 6400)],
            dsack: false,
            records: vec![
                RecordDesc {
                    offset: 1_000_100,
                    stream: 3,
                    len: 5000,
                    fin: false,
                },
                RecordDesc {
                    offset: 1_001_000,
                    stream: 5,
                    len: 100,
                    fin: true,
                },
            ],
        };
        assert_eq!(TcpSegment::decode(&seg.encode()).unwrap(), seg);
        assert_eq!(seg.encoded_len() as usize, seg.encode().len());
    }

    #[test]
    fn dsack_flag_roundtrip() {
        let mut seg = TcpSegment::control(0, 100, flags::ACK, 1000);
        seg.sacks = vec![(50, 100)];
        seg.dsack = true;
        let dec = TcpSegment::decode(&seg.encode()).unwrap();
        assert!(dec.dsack);
        assert_eq!(dec.sacks, vec![(50, 100)]);
    }

    #[test]
    fn bare_ack_detection() {
        let ack = TcpSegment::control(10, 20, flags::ACK, 1000);
        assert!(ack.is_bare_ack());
        let fin = TcpSegment::control(10, 20, flags::ACK | flags::FIN, 1000);
        assert!(!fin.is_bare_ack());
    }

    #[test]
    fn sack_blocks_add_wire_overhead() {
        let mut seg = TcpSegment::control(0, 0, flags::ACK, 1000);
        assert_eq!(seg.wire_size_payload(), 0);
        seg.sacks = vec![(0, 10), (20, 30)];
        assert_eq!(seg.wire_size_payload(), 16);
    }

    #[test]
    fn encoded_len_matches_encode() {
        let bare = TcpSegment::control(u64::MAX, u64::MAX, flags::ACK, u64::MAX);
        assert_eq!(bare.encoded_len() as usize, bare.encode().len());
        let seg = TcpSegment {
            seq: u64::MAX,
            ack: 0,
            flags: flags::ACK | flags::FIN,
            window: u64::MAX,
            payload_len: u32::MAX,
            sacks: vec![(0, 1), (2, 3), (4, 5), (6, 7)],
            dsack: true,
            records: vec![RecordDesc {
                offset: u64::MAX,
                stream: u32::MAX,
                len: u32::MAX,
                fin: true,
            }],
        };
        assert_eq!(seg.encoded_len() as usize, seg.encode().len());
    }

    #[test]
    fn decode_borrows_a_slice() {
        let seg = TcpSegment::control(5, 6, flags::ACK, 100);
        // The segment sits inside a larger buffer, as behind an IP header.
        let mut frame = vec![0xEE; 5];
        frame.extend(seg.encode());
        assert_eq!(TcpSegment::decode(&frame[5..]).expect("decode"), seg);
        assert_eq!(frame.len() - 5, seg.encoded_len() as usize);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            TcpSegment::decode(b"\x00\x01"),
            Err(TcpWireError::Truncated)
        );
        let seg = TcpSegment {
            sacks: vec![(1, 2)],
            ..TcpSegment::control(0, 0, flags::ACK, 10)
        };
        let enc = seg.encode();
        let cut = &enc[..enc.len() - 1];
        assert_eq!(TcpSegment::decode(cut), Err(TcpWireError::Truncated));
        // A bad block whose record count is cut off is truncated first.
        let bad = TcpSegment {
            sacks: vec![(5, 5)],
            ..TcpSegment::control(0, 0, flags::ACK, 10)
        }
        .encode();
        let cut = &bad[..bad.len() - 2];
        assert_eq!(TcpSegment::decode(cut), Err(TcpWireError::Truncated));
    }

    #[test]
    fn invalid_sack_block_rejected() {
        let seg = TcpSegment {
            sacks: vec![(5, 5)],
            ..TcpSegment::control(0, 0, flags::ACK, 10)
        };
        assert_eq!(
            TcpSegment::decode(&seg.encode()),
            Err(TcpWireError::Malformed("sack block start >= end"))
        );
    }
}
