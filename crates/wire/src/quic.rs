//! gQUIC-like wire format: packet header and frames.
//!
//! The format follows the shape of the 2016-era gQUIC wire layout the
//! paper studied (connection id + monotonic packet number header, then a
//! sequence of frames), simplified where crypto would be: handshake frames
//! carry a kind tag and a synthetic padding length instead of real crypto
//! handshake messages.
//!
//! Bulk stream data is *synthetic*: a [`Frame::Stream`] encodes its
//! metadata (id, offset, length, fin) but not `length` literal bytes — the
//! simulation charges the link for them via the packet's wire size. This
//! keeps a 210 MB experiment from materializing 210 MB while the encoded
//! control structure stays real and round-trippable.
//!
//! Sizing comes in two flavors: [`Frame::encoded_len`] is exactly the
//! number of control bytes `Frame::encode` would produce (proptest-pinned
//! to `encode().len()`), and [`Frame::wire_size`] adds the synthetic
//! payload bytes the link is charged for. The transports use these analytic
//! sizes and never serialize.

use crate::{pool, Reader};

/// Fixed public header size: 1 flags byte + 8 connection id + 8 packet
/// number.
pub const HEADER_SIZE: u32 = 17;

/// Maximum QUIC packet payload budget (frames + synthetic data), chosen so
/// header + payload + UDP/IP framing lands near a 1400-byte wire packet.
pub const MAX_PACKET_PAYLOAD: u32 = 1350;

/// Most ack blocks one encoded ack frame can carry (u8 count field).
/// Senders canonicalize to this cap at frame build time so the typed
/// packet is exactly what an encode→decode round trip would deliver.
pub const MAX_ACK_BLOCKS: usize = 255;

/// Handshake message kinds (crypto stream stand-ins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeKind {
    /// Client hello without server config (first contact).
    InchoateChlo,
    /// Server reject carrying the server config (enables future 0-RTT).
    Rej,
    /// Complete client hello (enables sending encrypted data now).
    FullChlo,
    /// Server hello completing the handshake.
    Shlo,
}

impl HandshakeKind {
    fn code(self) -> u8 {
        match self {
            HandshakeKind::InchoateChlo => 1,
            HandshakeKind::Rej => 2,
            HandshakeKind::FullChlo => 3,
            HandshakeKind::Shlo => 4,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            1 => HandshakeKind::InchoateChlo,
            2 => HandshakeKind::Rej,
            3 => HandshakeKind::FullChlo,
            4 => HandshakeKind::Shlo,
            _ => return None,
        })
    }
}

/// An acked packet-number range, inclusive: `[start, end]`.
pub type AckBlock = (u64, u64);

/// QUIC frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Stream data (synthetic payload of `len` bytes).
    Stream {
        /// Stream id.
        id: u32,
        /// Byte offset of this chunk.
        offset: u64,
        /// Chunk length (bytes charged on the wire, not carried).
        len: u32,
        /// Whether this chunk ends the stream.
        fin: bool,
    },
    /// Acknowledgement.
    Ack {
        /// Largest packet number acked.
        largest: u64,
        /// Microseconds between receiving `largest` and sending this ack.
        ack_delay_us: u64,
        /// Acked ranges, descending, inclusive. Must cover `largest`.
        blocks: Vec<AckBlock>,
    },
    /// Flow-control credit. `stream 0` = connection level.
    WindowUpdate {
        /// Stream id (0 = connection).
        stream: u32,
        /// New maximum absolute byte offset the peer may send.
        max_offset: u64,
    },
    /// Handshake message with synthetic padding.
    Handshake {
        /// Message kind.
        kind: HandshakeKind,
        /// Synthetic message + padding size in bytes.
        pad: u16,
    },
    /// Keep-alive / probe.
    Ping,
    /// Flow-control blocked notification (diagnostics).
    Blocked {
        /// Blocked stream (0 = connection).
        stream: u32,
    },
    /// Connection close.
    Close {
        /// Application error code.
        code: u32,
    },
}

impl Frame {
    /// Exact number of control bytes `Frame::encode` produces for this
    /// frame, computed without allocating. Pinned to `encode().len()` by
    /// proptest; link charging relies on this equality.
    pub fn encoded_len(&self) -> u32 {
        match self {
            Frame::Stream { .. } => 1 + 4 + 8 + 4 + 1,
            Frame::Ack { blocks, .. } => {
                1 + 8 + 8 + 1 + blocks.len().min(MAX_ACK_BLOCKS) as u32 * 16
            }
            Frame::WindowUpdate { .. } => 1 + 4 + 8,
            Frame::Handshake { .. } => 1 + 1 + 2,
            Frame::Ping => 1,
            Frame::Blocked { .. } => 1 + 4,
            Frame::Close { .. } => 1 + 4,
        }
    }

    /// Bytes this frame occupies on the wire: the encoded control bytes
    /// plus synthetic payload (stream data, handshake padding) the link is
    /// charged for but which is never materialized.
    pub fn wire_size(&self) -> u32 {
        let synthetic = match self {
            Frame::Stream { len, .. } => *len,
            Frame::Handshake { pad, .. } => *pad as u32,
            _ => 0,
        };
        self.encoded_len() + synthetic
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Stream {
                id,
                offset,
                len,
                fin,
            } => {
                buf.push(0x01);
                buf.extend(id.to_be_bytes());
                buf.extend(offset.to_be_bytes());
                buf.extend(len.to_be_bytes());
                buf.push(u8::from(*fin));
            }
            Frame::Ack {
                largest,
                ack_delay_us,
                blocks,
            } => {
                buf.push(0x02);
                buf.extend(largest.to_be_bytes());
                buf.extend(ack_delay_us.to_be_bytes());
                buf.push(blocks.len().min(MAX_ACK_BLOCKS) as u8);
                for &(start, end) in blocks.iter().take(MAX_ACK_BLOCKS) {
                    buf.extend(start.to_be_bytes());
                    buf.extend(end.to_be_bytes());
                }
            }
            Frame::WindowUpdate { stream, max_offset } => {
                buf.push(0x03);
                buf.extend(stream.to_be_bytes());
                buf.extend(max_offset.to_be_bytes());
            }
            Frame::Handshake { kind, pad } => {
                buf.push(0x04);
                buf.push(kind.code());
                buf.extend(pad.to_be_bytes());
            }
            Frame::Ping => buf.push(0x05),
            Frame::Blocked { stream } => {
                buf.push(0x06);
                buf.extend(stream.to_be_bytes());
            }
            Frame::Close { code } => {
                buf.push(0x07);
                buf.extend(code.to_be_bytes());
            }
        }
    }

    fn decode(r: &mut Reader<'_, WireError>) -> Result<Frame, WireError> {
        let tag = r.u8()?;
        match tag {
            0x01 => Ok(Frame::Stream {
                id: r.u32()?,
                offset: r.u64()?,
                len: r.u32()?,
                fin: r.u8()? != 0,
            }),
            0x02 => {
                let largest = r.u64()?;
                let ack_delay_us = r.u64()?;
                let n = r.u8()? as usize;
                r.need(n * 16)?;
                let mut blocks = if n == 0 {
                    Vec::new()
                } else {
                    pool::take_blocks()
                };
                blocks.reserve(n);
                for _ in 0..n {
                    let (start, end) = (r.u64()?, r.u64()?);
                    if start > end {
                        return Err(WireError::Malformed("ack block start > end"));
                    }
                    blocks.push((start, end));
                }
                Ok(Frame::Ack {
                    largest,
                    ack_delay_us,
                    blocks,
                })
            }
            0x03 => Ok(Frame::WindowUpdate {
                stream: r.u32()?,
                max_offset: r.u64()?,
            }),
            0x04 => {
                // A short frame is truncated before its kind is judged.
                let (code, pad) = (r.u8()?, r.u16()?);
                let kind =
                    HandshakeKind::from_code(code).ok_or(WireError::Malformed("handshake kind"))?;
                Ok(Frame::Handshake { kind, pad })
            }
            0x05 => Ok(Frame::Ping),
            0x06 => Ok(Frame::Blocked { stream: r.u32()? }),
            0x07 => Ok(Frame::Close { code: r.u32()? }),
            _ => Err(WireError::UnknownFrame(tag)),
        }
    }
}

/// A decoded QUIC packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuicPacket {
    /// Connection id.
    pub conn_id: u64,
    /// Monotonic packet number (never reused — the no-ambiguity property).
    pub pn: u64,
    /// Frames in order.
    pub frames: Vec<Frame>,
}

/// Wire decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-structure.
    Truncated,
    /// Unknown frame tag.
    UnknownFrame(u8),
    /// Structurally invalid field.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::UnknownFrame(t) => write!(f, "unknown frame tag {t:#x}"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl QuicPacket {
    /// Encode to control bytes. Synthetic stream payload is *not*
    /// materialized; use [`QuicPacket::wire_size`] for link accounting.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len() as usize);
        buf.push(0x80); // flags: long-header-style marker
        buf.extend(self.conn_id.to_be_bytes());
        buf.extend(self.pn.to_be_bytes());
        for f in &self.frames {
            f.encode(&mut buf);
        }
        buf
    }

    /// Decode from control bytes.
    pub fn decode(bytes: &[u8]) -> Result<QuicPacket, WireError> {
        let mut r = Reader::new(bytes, WireError::Truncated);
        // A short header is truncated before its flags are judged.
        let (flags, conn_id, pn) = (r.u8()?, r.u64()?, r.u64()?);
        if flags != 0x80 {
            return Err(WireError::Malformed("flags"));
        }
        let mut frames = pool::take_frames();
        while !r.is_empty() {
            frames.push(Frame::decode(&mut r)?);
        }
        Ok(QuicPacket {
            conn_id,
            pn,
            frames,
        })
    }

    /// Exact number of control bytes [`QuicPacket::encode`] produces,
    /// computed without allocating.
    pub fn encoded_len(&self) -> u32 {
        HEADER_SIZE + self.frames.iter().map(Frame::encoded_len).sum::<u32>()
    }

    /// Total bytes on the wire excluding UDP/IP framing: header + frames
    /// (+ synthetic payload).
    pub fn wire_size(&self) -> u32 {
        HEADER_SIZE + self.frames.iter().map(Frame::wire_size).sum::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: &QuicPacket) -> QuicPacket {
        QuicPacket::decode(&p.encode()).expect("roundtrip")
    }

    /// A packet header (flags, connection id 1, packet number `pn`)
    /// followed by hand-built frame bytes.
    fn header(flags: u8, pn: u64) -> Vec<u8> {
        let mut buf = vec![flags];
        buf.extend(1u64.to_be_bytes());
        buf.extend(pn.to_be_bytes());
        buf
    }

    #[test]
    fn stream_frame_roundtrip() {
        let p = QuicPacket {
            conn_id: 0xDEADBEEF,
            pn: 42,
            frames: vec![Frame::Stream {
                id: 3,
                offset: 1_000_000,
                len: 1300,
                fin: true,
            }],
        };
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn ack_frame_roundtrip_with_blocks() {
        let p = QuicPacket {
            conn_id: 7,
            pn: 100,
            frames: vec![Frame::Ack {
                largest: 99,
                ack_delay_us: 1250,
                blocks: vec![(90, 99), (50, 80), (1, 10)],
            }],
        };
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn multi_frame_packet_roundtrip() {
        let p = QuicPacket {
            conn_id: 1,
            pn: 7,
            frames: vec![
                Frame::Ack {
                    largest: 3,
                    ack_delay_us: 0,
                    blocks: vec![(0, 3)],
                },
                Frame::WindowUpdate {
                    stream: 0,
                    max_offset: 1 << 24,
                },
                Frame::Stream {
                    id: 5,
                    offset: 0,
                    len: 900,
                    fin: false,
                },
                Frame::Ping,
                Frame::Blocked { stream: 5 },
                Frame::Close { code: 0 },
            ],
        };
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn handshake_kinds_roundtrip() {
        for kind in [
            HandshakeKind::InchoateChlo,
            HandshakeKind::Rej,
            HandshakeKind::FullChlo,
            HandshakeKind::Shlo,
        ] {
            let p = QuicPacket {
                conn_id: 9,
                pn: 1,
                frames: vec![Frame::Handshake { kind, pad: 1200 }],
            };
            assert_eq!(roundtrip(&p), p);
        }
    }

    #[test]
    fn wire_size_counts_synthetic_payload() {
        let f = Frame::Stream {
            id: 1,
            offset: 0,
            len: 1000,
            fin: false,
        };
        assert_eq!(f.wire_size(), 18 + 1000);
        assert_eq!(f.encoded_len(), 18);
        let p = QuicPacket {
            conn_id: 1,
            pn: 1,
            frames: vec![f],
        };
        assert_eq!(p.wire_size(), HEADER_SIZE + 1018);
        assert_eq!(p.encoded_len(), HEADER_SIZE + 18);
        // Encoded control bytes are small even for big synthetic payloads.
        assert!(p.encode().len() < 64);
    }

    #[test]
    fn encoded_len_matches_encode() {
        let p = QuicPacket {
            conn_id: u64::MAX,
            pn: u64::MAX,
            frames: vec![
                Frame::Stream {
                    id: u32::MAX,
                    offset: u64::MAX,
                    len: u32::MAX,
                    fin: true,
                },
                Frame::Ack {
                    largest: u64::MAX,
                    ack_delay_us: u64::MAX,
                    blocks: vec![(0, u64::MAX)],
                },
                Frame::WindowUpdate {
                    stream: 0,
                    max_offset: u64::MAX,
                },
                Frame::Handshake {
                    kind: HandshakeKind::Shlo,
                    pad: u16::MAX,
                },
                Frame::Ping,
                Frame::Blocked { stream: u32::MAX },
                Frame::Close { code: u32::MAX },
            ],
        };
        assert_eq!(p.encoded_len() as usize, p.encode().len());
        for f in &p.frames {
            let mut buf = Vec::new();
            f.encode(&mut buf);
            assert_eq!(f.encoded_len() as usize, buf.len(), "{f:?}");
        }
    }

    #[test]
    fn ack_block_cap_applies_to_encode_and_encoded_len() {
        let f = Frame::Ack {
            largest: 1000,
            ack_delay_us: 0,
            blocks: (0..300).map(|i| (i * 2, i * 2)).collect(),
        };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(buf.len(), 18 + MAX_ACK_BLOCKS * 16);
        assert_eq!(f.encoded_len() as usize, buf.len());
        assert_eq!(f.wire_size(), f.encoded_len());
    }

    #[test]
    fn decode_borrows_a_slice() {
        let p = QuicPacket {
            conn_id: 3,
            pn: 4,
            frames: vec![Frame::Ping],
        };
        // The packet sits inside a larger buffer, as in a datagram.
        let mut dgram = vec![0xEE; 5];
        dgram.extend(p.encode());
        assert_eq!(QuicPacket::decode(&dgram[5..]).expect("decode"), p);
        assert_eq!(dgram.len() - 5, p.encoded_len() as usize);
    }

    #[test]
    fn truncated_packets_error() {
        assert_eq!(QuicPacket::decode(b"\x80\x00"), Err(WireError::Truncated));
        // A short header is truncated even when its flags byte is wrong.
        assert_eq!(QuicPacket::decode(b"\x01"), Err(WireError::Truncated));
        // Valid header, truncated frame.
        let p = QuicPacket {
            conn_id: 1,
            pn: 1,
            frames: vec![Frame::Stream {
                id: 1,
                offset: 0,
                len: 10,
                fin: false,
            }],
        };
        let enc = p.encode();
        let cut = &enc[..enc.len() - 3];
        assert_eq!(QuicPacket::decode(cut), Err(WireError::Truncated));
        // A handshake frame cut before its padding is truncated, whatever
        // its kind byte says.
        let mut bad_kind = header(0x80, 1);
        bad_kind.extend([0x04, 0x09]);
        assert_eq!(QuicPacket::decode(&bad_kind), Err(WireError::Truncated));
    }

    #[test]
    fn unknown_frame_tag_errors() {
        let mut bad = header(0x80, 1);
        bad.push(0x7F);
        assert_eq!(QuicPacket::decode(&bad), Err(WireError::UnknownFrame(0x7F)));
    }

    #[test]
    fn invalid_ack_block_errors() {
        let mut buf = header(0x80, 2);
        buf.push(0x02);
        buf.extend(9u64.to_be_bytes()); // largest
        buf.extend(0u64.to_be_bytes()); // delay
        buf.push(1); // one block
        buf.extend(8u64.to_be_bytes()); // start
        buf.extend(3u64.to_be_bytes()); // end < start: malformed
        assert_eq!(
            QuicPacket::decode(&buf),
            Err(WireError::Malformed("ack block start > end"))
        );
    }

    #[test]
    fn bad_flags_rejected() {
        assert_eq!(
            QuicPacket::decode(&header(0x01, 1)),
            Err(WireError::Malformed("flags"))
        );
    }
}
