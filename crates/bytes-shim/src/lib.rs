//! Vendored, std-only subset of the `bytes` crate.
//!
//! The build environment has no reachable crate registry, so the workspace
//! vendors the small slice of the `bytes` API it actually uses: cheaply
//! cloneable immutable [`Bytes`] (an `Arc<Vec<u8>>` window), an append-only
//! [`BytesMut`] builder, and the big-endian cursor traits [`Buf`] /
//! [`BufMut`]. Semantics match the real crate for this subset (big-endian
//! integer accessors, panics on underflow, `slice` by absolute range).
//!
//! Backing the shared buffer with `Arc<Vec<u8>>` (rather than `Arc<[u8]>`)
//! keeps [`BytesMut::freeze`] zero-copy — the `Vec` moves into the `Arc`
//! unchanged.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

fn empty_arc() -> Arc<Vec<u8>> {
    static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

/// A cheaply cloneable, immutable, contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes {
            data: empty_arc(),
            start: 0,
            end: 0,
        }
    }
}

impl Bytes {
    /// An empty buffer (shared backing; allocation-free).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wrap a static byte slice (copied; the zero-copy optimization of the
    /// real crate is irrelevant at this scale).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-window of this buffer sharing the same backing allocation.
    /// The range is interpreted relative to this view, like the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Capacity of the underlying allocation.
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Drop the contents, keeping the allocation.
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Reserve space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.vec.extend_from_slice(data);
    }

    /// Convert into an immutable [`Bytes`]. Zero-copy: the backing `Vec`
    /// moves into the shared allocation unchanged.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(vec: Vec<u8>) -> Self {
        BytesMut { vec }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

/// Read cursor over a contiguous byte region; integer accessors are
/// big-endian, like the network wire formats this workspace encodes.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes (always the full remainder here — the vendored
    /// buffers are contiguous).
    fn chunk(&self) -> &[u8];
    /// Consume `cnt` bytes. Panics if `cnt > remaining()`.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Consume one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Consume a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        raw.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_be_bytes(raw)
    }

    /// Consume a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(raw)
    }

    /// Consume a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(raw)
    }

    /// Copy `dst.len()` bytes out and consume them.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of Bytes");
        self.start += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write cursor; integer writers are big-endian.
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, data: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, data: &[u8]) {
        self.vec.extend_from_slice(data);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, data: &[u8]) {
        self.extend_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_integers() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(0xAB);
        b.put_u16(0x1234);
        b.put_u32(0xDEAD_BEEF);
        b.put_u64(0x0102_0304_0506_0708);
        let mut bytes = b.freeze();
        assert_eq!(bytes.remaining(), 15);
        assert_eq!(bytes.get_u8(), 0xAB);
        assert_eq!(bytes.get_u16(), 0x1234);
        assert_eq!(bytes.get_u32(), 0xDEAD_BEEF);
        assert_eq!(bytes.get_u64(), 0x0102_0304_0506_0708);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn slice_is_relative_and_shares_backing() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let mid = b.slice(2..5);
        assert_eq!(&mid[..], &[2, 3, 4]);
        let inner = mid.slice(1..);
        assert_eq!(&inner[..], &[3, 4]);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn advance_moves_window() {
        let mut b = Bytes::from(vec![9, 8, 7]);
        b.advance(1);
        assert_eq!(&b[..], &[8, 7]);
        assert_eq!(b.get_u8(), 8);
    }

    #[test]
    #[should_panic]
    fn advance_past_end_panics() {
        let mut b = Bytes::from(vec![1]);
        b.advance(2);
    }

    #[test]
    fn bytes_mut_clear_keeps_capacity() {
        let mut bm = BytesMut::from(Vec::with_capacity(128));
        bm.put_u64(9);
        bm.clear();
        assert!(bm.is_empty());
        assert!(bm.capacity() >= 128);
    }
}
