//! Protocol wire formats, shared below the simulator.
//!
//! This crate sits at the bottom of the workspace, on std alone, so that
//! *both* the simulator and the transport crates can name the typed packet
//! structures: `sim::packet::Payload` carries a [`quic::QuicPacket`] or
//! [`tcp::TcpSegment`] by value, while the QUIC/TCP connection crates
//! re-export these types as their `wire` modules. Each serialisation
//! format has one implementation here: the binary packet codecs read
//! through one checked big-endian cursor, and traces and repro files share
//! one JSON codec ([`json`]).
//!
//! Two invariants everything else leans on:
//!
//! 1. **Analytic sizing**: every frame/header/segment type has an
//!    `encoded_len()` computed without allocating, proptest-pinned to
//!    `encode().len()`. Links are charged byte-identical wire sizes
//!    without anything ever being serialized.
//! 2. **Canonical packets**: `decode(encode(x)) == x` for every value the
//!    transports emit, so handing the typed value to the peer is
//!    observationally identical to serializing it. Nothing in the product
//!    encodes a packet; the codec is the format's executable specification,
//!    and the `wire_roundtrip` referee suite holds it to live traffic.

pub mod json;
pub mod mode;
pub mod pool;
pub mod quic;
pub mod tcp;
pub mod trace;

pub use mode::{BatchMode, SchedKind, WireMode};
pub use trace::{TraceEvent, TraceMode, TraceRecord, Tracer};

/// Checked big-endian read cursor over a borrowed packet: the decoding
/// primitive of both binary formats. A read past the end returns the
/// format's `Truncated` error and consumes nothing.
struct Reader<'a, E> {
    rest: &'a [u8],
    truncated: E,
}

impl<'a, E: Copy> Reader<'a, E> {
    fn new(bytes: &'a [u8], truncated: E) -> Self {
        Reader {
            rest: bytes,
            truncated,
        }
    }

    fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// Fail unless `n` more bytes remain. Only for sizing an allocation
    /// by a count the peer supplied, before making it.
    fn need(&self, n: usize) -> Result<(), E> {
        if self.rest.len() < n {
            return Err(self.truncated);
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], E> {
        let (head, tail) = self.rest.split_first_chunk().ok_or(self.truncated)?;
        self.rest = tail;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, E> {
        self.array().map(u8::from_be_bytes)
    }

    fn u16(&mut self) -> Result<u16, E> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, E> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, E> {
        self.array().map(u64::from_be_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_integers() {
        let mut b = vec![0xAB];
        b.extend(0x1234u16.to_be_bytes());
        b.extend(0xDEAD_BEEFu32.to_be_bytes());
        b.extend(0x0102_0304_0506_0708u64.to_be_bytes());
        let mut r = Reader::new(&b, ());
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x1234));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(0x0102_0304_0506_0708));
        assert!(r.is_empty());
    }

    #[test]
    fn advance_moves_window() {
        let mut r = Reader::new(&[9, 8, 7], ());
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.rest, [8, 7]);
        assert_eq!(r.u8(), Ok(8));
        assert_eq!(r.need(1), Ok(()));
        assert_eq!(r.need(2), Err(()));
    }

    /// A short read is the format's typed error, not a panic, and leaves
    /// the cursor where it was.
    #[test]
    fn short_read_is_truncated() {
        let mut r = Reader::new(&[1, 2, 3], "truncated");
        assert_eq!(r.u32(), Err("truncated"));
        assert_eq!(r.rest, [1, 2, 3]);
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u16(), Err("truncated"));
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.u8(), Err("truncated"));
    }
}
