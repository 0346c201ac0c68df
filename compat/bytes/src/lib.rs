//! Offline shim for the subset of the `bytes` crate the frame codec used.
//!
//! No first-party user; declared only because removing the line rewrites
//! `perf/Cargo.lock`. `crates/lint/tests/workspace.rs` fails on any new use,
//! so deleting this crate and its manifest lines changes no code.
//! The Grid Console's frames are written and read with `cg_trace::codec`.
//!
//! `Bytes` is a cheaply-cloneable, sliceable view over shared immutable
//! storage; `BytesMut` is an append buffer with front consumption. Little-
//! endian put/get accessors mirror the real crate's `Buf`/`BufMut` traits so
//! `use bytes::{Buf, BufMut, Bytes, BytesMut}` keeps working unchanged.

use std::sync::Arc;

/// Cheaply cloneable shared byte slice.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty `Bytes`.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static slice (copies it; fine at our sizes).
    pub fn from_static(slice: &'static [u8]) -> Self {
        Bytes::from(slice.to_vec())
    }

    /// The viewed slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Splits off and returns the first `n` bytes, leaving the rest.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to out of bounds");
        let front = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        front
    }

    /// Copies the view into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl std::ops::Deref for Bytes {
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

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

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

/// Growable byte buffer with cheap front consumption.
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
    head: usize,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
            head: 0,
        }
    }

    /// Unconsumed length.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when nothing is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Drops the first `n` unconsumed bytes.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.head += n;
        self.maybe_compact();
    }

    /// Splits off and returns the first `n` bytes as a new `BytesMut`.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        assert!(n <= self.len(), "split_to out of bounds");
        let front = self.buf[self.head..self.head + n].to_vec();
        self.head += n;
        self.maybe_compact();
        BytesMut {
            buf: front,
            head: 0,
        }
    }

    /// Freezes into an immutable `Bytes`.
    pub fn freeze(mut self) -> Bytes {
        if self.head > 0 {
            self.buf.drain(..self.head);
        }
        Bytes::from(self.buf)
    }

    fn maybe_compact(&mut self) {
        // Reclaim consumed prefix once it dominates the allocation.
        if self.head > 4096 && self.head * 2 > self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.head..]
    }
}

/// Read-side accessors (mirrors `bytes::Buf` for the calls we make).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Reads and consumes `dst.len()` bytes.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian u16.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian u32.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian u64.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian i32.
    fn get_i32_le(&mut self) -> i32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        i32::from_le_bytes(b)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.end - self.start
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.remaining(), "copy_to_slice out of bounds");
        dst.copy_from_slice(&self.data[self.start..self.start + dst.len()]);
        self.start += dst.len();
    }
}

/// Write-side accessors (mirrors `bytes::BufMut` for the calls we make).
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, data: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i32.
    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, data: &[u8]) {
        self.extend_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_little_endian() {
        let mut m = BytesMut::new();
        m.put_u16_le(0xC6A7);
        m.put_u8(1);
        m.put_u32_le(0xDEAD_BEEF);
        m.put_u64_le(42);
        m.put_i32_le(-7);
        m.put_slice(b"tail");
        let mut b = m.freeze();
        assert_eq!(b.remaining(), 2 + 1 + 4 + 8 + 4 + 4);
        assert_eq!(b.get_u16_le(), 0xC6A7);
        assert_eq!(b.get_u8(), 1);
        assert_eq!(b.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(b.get_u64_le(), 42);
        assert_eq!(b.get_i32_le(), -7);
        assert_eq!(&b[..], b"tail");
    }

    #[test]
    fn split_and_advance() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"header payload");
        m.advance(7);
        assert_eq!(&m[..], b"payload");
        let front = m.split_to(3).freeze();
        assert_eq!(&front[..], b"pay");
        assert_eq!(&m[..], b"load");

        let mut b = Bytes::from(b"abcdef".to_vec());
        let first = b.split_to(2);
        assert_eq!(&first[..], b"ab");
        assert_eq!(&b[..], b"cdef");
        assert_eq!(first.to_vec(), b"ab");
    }
}
