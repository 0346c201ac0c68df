//! Compact binary encoding of [`TimedEvent`] for the durable journal.
//!
//! This module owns the envelope and the primitives; which tag a variant
//! carries and which fields follow it come from the `events!` table in
//! `event.rs` (adding an event is one row there, and a reused tag does
//! not compile). The state codec in [`crate::replay`] frames its blobs with
//! the same primitives, and so does the Grid Console's agent ↔ shadow frame
//! codec in `cg-console`: they are public for that one other user.
//!
//! Layout: `at_ns: u64 LE`, `seq: u64 LE`, `tag: u8`, then the variant's
//! fields in declaration order. Scalars are little-endian; booleans are one
//! byte (0/1); `f64` is its IEEE-754 bit pattern; strings are a `u32 LE`
//! byte length followed by UTF-8 bytes.
//!
//! Two readers walk that layout through one envelope: [`decode_event`]
//! builds the [`TimedEvent`], and `check_event` makes every check it makes
//! (tag, field bounds, UTF-8, no trailing bytes) and returns only the
//! `seq`. The journal reader checks every event with the second and
//! decodes only the ones past its last snapshot.

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

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).unwrap_or(u32::MAX));
    out.extend_from_slice(s.as_bytes());
}

// ── cursor-based readers ────────────────────────────────────────────────

/// A bounds-checked read cursor over a byte slice.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
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

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Everything not yet read; the cursor ends empty.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn i32(&mut self) -> Result<i32, CodecError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A string field, borrowed from the buffer: the caller makes the one
    /// owned copy it keeps, whatever its type.
    pub fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
    }

    pub fn str(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_owned)
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
    walk_event(buf, Event::decode).map(|(at, seq, event)| TimedEvent { at, seq, event })
}

/// Checks one encoded event exactly as [`decode_event`] would read it and
/// returns its `seq`, building nothing: the journal reader's test for an
/// event a later snapshot may summarise.
///
/// # Errors
/// The [`CodecError`] [`decode_event`] returns on the same buffer.
pub(crate) fn check_event(buf: &[u8]) -> Result<u64, CodecError> {
    walk_event(buf, Event::skip).map(|(_, seq, ())| seq)
}

/// The envelope both readers walk: `at`, `seq`, the tag, the variant's
/// fields through `fields`, then nothing left over.
#[inline]
fn walk_event<T>(
    buf: &[u8],
    fields: impl FnOnce(u8, &mut Cursor<'_>) -> Result<T, CodecError>,
) -> Result<(SimTime, u64, T), CodecError> {
    let mut c = Cursor::new(buf);
    let at = SimTime::from_nanos(c.u64()?);
    let seq = c.u64()?;
    let tag = c.u8()?;
    let body = fields(tag, &mut c)?;
    if !c.is_empty() {
        return Err(CodecError::TrailingBytes);
    }
    Ok((at, seq, body))
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

    /// The check the journal reader makes on every event answers exactly
    /// what decoding would, on intact and on damaged buffers alike.
    #[test]
    fn check_event_agrees_with_decode_event_on_every_input() {
        let agree = |buf: &[u8], what: &str| {
            assert_eq!(
                check_event(buf),
                decode_event(buf).map(|e| e.seq),
                "{what} ({} bytes)",
                buf.len()
            );
        };
        for (te, buf) in encoded_catalog() {
            let kind = te.event.kind();
            agree(&buf, kind);
            assert_eq!(check_event(&buf), Ok(te.seq), "{kind} intact");
            for cut in 0..buf.len() {
                agree(&buf[..cut], &format!("{kind} cut at {cut}"));
            }
            for tag in 0..=u8::MAX {
                let mut retagged = buf.clone();
                retagged[16] = tag;
                agree(&retagged, &format!("{kind} retagged {tag}"));
            }
            // 0xFF never starts a UTF-8 sequence: on the first byte of a
            // string field it is invalid; set on every byte after the tag,
            // it lands on each string's first byte among the rest.
            let mut bad_utf8 = 0;
            for pos in 17..buf.len() {
                let mut damaged = buf.clone();
                damaged[pos] = 0xFF;
                agree(&damaged, &format!("{kind} with 0xFF at {pos}"));
                bad_utf8 += usize::from(check_event(&damaged) == Err(CodecError::BadUtf8));
            }
            let strings = te.to_json().matches("\":\"").count() - 1;
            assert!(bad_utf8 >= strings, "{kind}: {strings} string fields");
            let mut trailing = buf;
            trailing.push(0);
            agree(&trailing, &format!("{kind} with a trailing byte"));
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
