//! Compact binary encoding of [`TimedEvent`] for the durable journal.
//!
//! This module owns the envelope and the primitives; which tag a variant
//! carries and which fields follow it come from the `events!` table in
//! [`crate::event`] (adding an event is one row there, and a reused tag does
//! not compile). The state codec in [`crate::replay`] frames its blobs with
//! the same primitives.
//!
//! Layout: `at_ns: u64 LE`, `seq: u64 LE`, `tag: u8`, then the variant's
//! fields in declaration order. Scalars are little-endian; booleans are one
//! byte (0/1); `f64` is its IEEE-754 bit pattern; strings are a `u32 LE`
//! byte length followed by UTF-8 bytes.

use crate::event::{Event, TimedEvent};
use cg_sim::SimTime;
use std::fmt;

/// A structural decode failure. Deliberately small and `'static`: the
/// journal wraps it with the file offset for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended inside a field.
    UnexpectedEof,
    /// An unknown event tag byte.
    BadTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A versioned blob had an unknown version byte.
    BadVersion(u8),
    /// Decoding finished before the end of the buffer.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "record truncated mid-field"),
            CodecError::BadTag(t) => write!(f, "unknown event tag {t}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::BadVersion(v) => write!(f, "unknown blob version {v}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after record"),
        }
    }
}

impl std::error::Error for CodecError {}

// ── primitive writers ───────────────────────────────────────────────────

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).unwrap_or(u32::MAX));
    out.extend_from_slice(s.as_bytes());
}

// ── cursor-based readers ────────────────────────────────────────────────

/// A bounds-checked read cursor over a byte slice.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::UnexpectedEof)?;
        if end > self.buf.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

// ── event codec ─────────────────────────────────────────────────────────

/// Appends the binary encoding of `ev` to `out`.
pub fn encode_event(ev: &TimedEvent, out: &mut Vec<u8>) {
    put_u64(out, ev.at.as_nanos());
    put_u64(out, ev.seq);
    ev.event.encode(out);
}

/// Decodes one [`TimedEvent`] from an exact-length buffer.
///
/// # Errors
/// Returns a [`CodecError`] when the buffer is truncated, carries an unknown
/// tag, holds invalid UTF-8, or has bytes left over after the event.
pub fn decode_event(buf: &[u8]) -> Result<TimedEvent, CodecError> {
    let mut c = Cursor::new(buf);
    let at = SimTime::from_nanos(c.u64()?);
    let seq = c.u64()?;
    let tag = c.u8()?;
    let event = Event::decode(tag, &mut c)?;
    if !c.is_empty() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(TimedEvent { at, seq, event })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FieldSamples;

    /// Every variant once, framed as consecutive records of a stream.
    fn encoded_catalog() -> Vec<(TimedEvent, Vec<u8>)> {
        let samples = FieldSamples {
            u64s: [7, 60_000_000_000],
            u32: 2,
            flag: true,
            f64: 1.25,
            strs: ["site:cesga", "lost \"quotes\" and\nnewlines"],
        };
        (0u64..)
            .zip(Event::catalog(samples))
            .map(|(seq, event)| {
                let at = SimTime::from_nanos(1_000 + seq);
                let te = TimedEvent { at, seq, event };
                let mut buf = Vec::new();
                encode_event(&te, &mut buf);
                (te, buf)
            })
            .collect()
    }

    #[test]
    fn every_variant_round_trips() {
        for (te, buf) in encoded_catalog() {
            let back = decode_event(&buf).unwrap_or_else(|e| panic!("{}: {e}", te.event.kind()));
            assert_eq!(back, te, "{} must round-trip", te.event.kind());
        }
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_length() {
        for (te, buf) in encoded_catalog() {
            for cut in 0..buf.len() {
                assert!(
                    decode_event(&buf[..cut]).is_err(),
                    "decoding a {cut}-byte prefix of {} must fail, not panic",
                    te.event.kind()
                );
            }
        }
    }

    #[test]
    fn bad_tag_and_trailing_bytes_are_rejected() {
        for (_, buf) in encoded_catalog() {
            let mut bad_tag = buf.clone();
            bad_tag[16] = 0xfe;
            assert_eq!(decode_event(&bad_tag), Err(CodecError::BadTag(0xfe)));
            let mut trailing = buf;
            trailing.push(0);
            assert_eq!(decode_event(&trailing), Err(CodecError::TrailingBytes));
        }
    }
}
