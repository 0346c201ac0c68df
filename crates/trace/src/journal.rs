//! Durable, CRC-framed event journal — the write-ahead log behind
//! [`crate::EventLog`].
//!
//! File layout:
//!
//! ```text
//! magic "CGJRNL01"                                  (8 bytes)
//! record*   where record = [kind: u8]               1 = event, 2 = snapshot
//!                          [len:  u32 LE]           payload length
//!                          [crc:  u32 LE]           CRC-32 over kind‖len‖payload
//!                          [payload: len bytes]
//! ```
//!
//! The checksum is IEEE CRC-32, from the `crc` submodule: a carry-less
//! multiplication fold on x86-64 hosts with `pclmulqdq`, slicing-by-8
//! tables elsewhere, the same value either way. The writer frames and the
//! reader checks every record with it; this file is framing and I/O.
//!
//! Event payloads use the binary codec in [`crate::codec`]; snapshot payloads
//! are `[through_seq: u64 LE]` followed by an opaque state blob (see
//! [`crate::replay`]). The journal is append-only: snapshots are inline
//! records, and a reader replays from the **last** snapshot, so replay work
//! is bounded by snapshot cadence even though the file itself only grows.
//!
//! Torn tails vs corruption: a record whose bytes simply stop at end-of-file
//! is the signature of a crash mid-write — the reader truncates it and
//! reports how many bytes were dropped. A record that is fully present but
//! fails its CRC (or decodes to garbage) is bit rot, not a torn write, and
//! surfaces as a typed [`JournalError::Corrupt`] — never a panic, never a
//! silent partial replay.

use crate::codec::{self, CodecError};
use crate::event::TimedEvent;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

mod crc;
pub use crc::crc32;
use crc::frame_crc;

/// File magic: "CrossGrid JouRNaL, format 01".
pub const JOURNAL_MAGIC: &[u8; 8] = b"CGJRNL01";

const KIND_EVENT: u8 = 1;
const KIND_SNAPSHOT: u8 = 2;
/// kind + len + crc.
const FRAME_HEADER: usize = 1 + 4 + 4;

// ── errors ──────────────────────────────────────────────────────────────

/// A typed journal failure. Corruption is always surfaced through here —
/// the journal code path contains no `panic!`/`unwrap` on file contents.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file could not be read or written.
    Io(io::Error),
    /// The file does not start with [`JOURNAL_MAGIC`].
    BadMagic,
    /// A fully-present record failed validation (CRC mismatch, undecodable
    /// payload, out-of-order sequence numbers, unknown record kind).
    Corrupt {
        /// Byte offset of the offending record's frame header.
        offset: u64,
        /// What failed.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => write!(f, "not a journal file (bad magic)"),
            JournalError::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

// ── writer ──────────────────────────────────────────────────────────────

/// Durability knobs for the journal writer.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// `fsync` after this many appended records; `0` means only on
    /// [`Journal::sync`] / snapshot writes. Snapshots always sync.
    pub fsync_every: u32,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { fsync_every: 64 }
    }
}

/// A commit group that no sync boundary closes (`fsync_every = 0`) still
/// reaches the file once the buffer passes this size.
const FLUSH_BYTES: usize = 64 * 1024;

struct WriterInner {
    file: File,
    config: JournalConfig,
    /// Encoded frames not yet handed to the OS: the open commit group.
    buf: Vec<u8>,
    unsynced: u32,
    appended: u64,
    /// The first write/sync failure. Sticky: bytes were lost, so anything
    /// appended afterwards would sit behind a hole the reader cannot see.
    failed: Option<(io::ErrorKind, String)>,
}

impl WriterInner {
    /// Runs `op` unless the writer is poisoned, and poisons it when `op`
    /// fails; a poisoned writer repeats its first error without touching
    /// the file.
    fn guarded(&mut self, op: impl FnOnce(&mut Self) -> io::Result<()>) -> io::Result<()> {
        if let Some((kind, msg)) = &self.failed {
            return Err(io::Error::new(*kind, msg.clone()));
        }
        let result = op(self);
        if let Err(e) = &result {
            self.failed = Some((e.kind(), e.to_string()));
            self.buf.clear();
        }
        result
    }

    /// Frames one record in the buffer: reserves the header, lets `encode`
    /// write the payload straight behind it, then patches `len` and the CRC
    /// computed in place. The group is written out when a sync is due.
    fn append(
        &mut self,
        kind: u8,
        force_sync: bool,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<()> {
        let start = self.buf.len();
        self.buf.push(kind);
        self.buf.extend_from_slice(&[0; FRAME_HEADER - 1]);
        encode(&mut self.buf);
        let (header, payload) = self.buf[start..].split_at_mut(FRAME_HEADER);
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::other("journal record over 4 GiB"))?;
        header[1..5].copy_from_slice(&len.to_le_bytes());
        let crc = frame_crc(&header[..5], payload);
        header[5..].copy_from_slice(&crc.to_le_bytes());
        self.appended += 1;
        self.unsynced += 1;
        if force_sync || (self.config.fsync_every > 0 && self.unsynced >= self.config.fsync_every) {
            self.sync()
        } else if self.buf.len() >= FLUSH_BYTES {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Hands the open group to the OS in one write.
    fn flush(&mut self) -> io::Result<()> {
        // cg-lint: allow(lock-across-io): single-writer journal; the group's one write under the writer lock keeps file order equal to seq order
        let written = self.file.write_all(&self.buf);
        self.buf.clear();
        written
    }

    fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        // cg-lint: allow(lock-across-io): single-writer journal; the batched fsync under the writer lock IS the durability point
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }
}

impl Drop for WriterInner {
    /// The last handle going away (unwinding included) hands the open group
    /// to the OS; errors have nowhere to go here, [`Journal::sync`] is the
    /// call that reports them.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Handle to an open journal file. Clones share the file; appends are
/// serialized by an internal mutex so the [`crate::EventLog`] can write from
/// any thread.
///
/// Records are framed into one buffer and reach the file a commit group at
/// a time: at every `fsync_every`-th record (with the fsync), on
/// [`Journal::append_snapshot`], on [`Journal::sync`], when the last handle
/// drops, and whenever the buffer passes 64 KiB. The first write or sync
/// failure poisons the writer: every later call returns that error and the
/// file is left alone.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<Mutex<WriterInner>>,
    path: Arc<PathBuf>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Creates (truncating) a journal at `path` and writes the file magic.
    ///
    /// # Errors
    /// Propagates file-creation and write failures.
    pub fn create(path: impl AsRef<Path>, config: JournalConfig) -> io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(JOURNAL_MAGIC)?;
        file.sync_data()?;
        Ok(Journal::over(file, path, config))
    }

    /// A writer appending to `file`, whose magic is already in place.
    fn over(file: File, path: PathBuf, config: JournalConfig) -> Journal {
        Journal {
            inner: Arc::new(Mutex::new(WriterInner {
                file,
                config,
                buf: Vec::new(),
                unsynced: 0,
                appended: 0,
                failed: None,
            })),
            path: Arc::new(path),
        }
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended (events + snapshots) since creation, buffered ones
    /// included.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.lock().appended
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WriterInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one event record.
    ///
    /// # Errors
    /// Propagates write/sync failures (see the type docs: the first one
    /// sticks).
    pub fn append_event(&self, ev: &TimedEvent) -> io::Result<()> {
        self.lock()
            .guarded(|w| w.append(KIND_EVENT, false, |buf| codec::encode_event(ev, buf)))
    }

    /// Appends a snapshot record covering all events with `seq <=
    /// through_seq`. Always fsyncs: a snapshot that might not be durable is
    /// worse than none.
    ///
    /// # Errors
    /// Propagates write/sync failures.
    pub fn append_snapshot(&self, through_seq: u64, state: &[u8]) -> io::Result<()> {
        self.lock().guarded(|w| {
            w.append(KIND_SNAPSHOT, true, |buf| {
                buf.extend_from_slice(&through_seq.to_le_bytes());
                buf.extend_from_slice(state);
            })
        })
    }

    /// Forces buffered records to stable storage.
    ///
    /// # Errors
    /// Propagates the write/fsync failure.
    pub fn sync(&self) -> io::Result<()> {
        self.lock().guarded(WriterInner::sync)
    }
}

// ── reader ──────────────────────────────────────────────────────────────

/// The last snapshot found in a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSnapshot {
    /// Events with `seq <= through_seq` are summarized by the blob.
    pub through_seq: u64,
    /// Opaque state blob (decode with [`crate::replay::decode_state`]).
    pub state: Vec<u8>,
}

/// Everything recovered from a journal file.
#[derive(Debug, Clone, Default)]
pub struct LoadedJournal {
    /// The last snapshot, if any.
    pub snapshot: Option<JournalSnapshot>,
    /// Events after the snapshot (all events when there is none), in
    /// stream order.
    pub events: Vec<TimedEvent>,
    /// Bytes dropped from a torn tail (crash mid-append). Zero for a
    /// cleanly closed journal.
    pub truncated_bytes: u64,
}

impl LoadedJournal {
    /// Sequence number of the last journalled event (or the snapshot
    /// horizon when the tail is empty).
    #[must_use]
    pub fn last_seq(&self) -> Option<u64> {
        self.events
            .last()
            .map(|e| e.seq)
            .or(self.snapshot.as_ref().map(|s| s.through_seq))
    }

    /// Sim-time of the last journalled event — the recovery epoch's "crash
    /// time".
    #[must_use]
    pub fn crash_at_ns(&self) -> u64 {
        self.events.last().map_or(0, |e| e.at.as_nanos())
    }
}

/// How much of the file [`open_journal`] holds at a time. A frame larger
/// than this (a snapshot blob) grows the window to that frame's size.
const READ_WINDOW: usize = 256 * 1024;

/// Opens and fully validates a journal file.
///
/// The file is read through a bounded window, and events a snapshot already
/// summarizes are dropped as that snapshot is passed, so memory is one
/// window, the last snapshot and one snapshot interval of events — not the
/// file.
///
/// # Errors
/// [`JournalError::Io`] on read failures, [`JournalError::BadMagic`] when
/// the header is wrong, [`JournalError::Corrupt`] when a fully-present
/// record fails CRC or decoding, or a snapshot's horizon lies below an
/// earlier snapshot's. A torn tail is **not** an error: the partial record
/// is dropped and counted in [`LoadedJournal::truncated_bytes`].
pub fn open_journal(path: impl AsRef<Path>) -> Result<LoadedJournal, JournalError> {
    read_journal(File::open(path.as_ref())?, READ_WINDOW)
}

/// Parses journal bytes (see [`open_journal`]).
///
/// # Errors
/// Same contract as [`open_journal`], minus the I/O.
pub fn parse_journal(bytes: &[u8]) -> Result<LoadedJournal, JournalError> {
    let head = &bytes[..bytes.len().min(JOURNAL_MAGIC.len())];
    if let Some(empty) = check_magic(head)? {
        return Ok(empty);
    }
    let records = &bytes[JOURNAL_MAGIC.len()..];
    let mut frames = FrameFold::default();
    let used = frames.consume(JOURNAL_MAGIC.len() as u64, records)?;
    Ok(frames.finish(records.len() - used))
}

/// `Ok(None)` for a full, correct magic. A crash between file creation and
/// the magic write leaves a short header: an empty journal, not a corrupt
/// one.
fn check_magic(head: &[u8]) -> Result<Option<LoadedJournal>, JournalError> {
    if head == JOURNAL_MAGIC {
        Ok(None)
    } else if head.len() < JOURNAL_MAGIC.len() && JOURNAL_MAGIC.starts_with(head) {
        Ok(Some(LoadedJournal {
            truncated_bytes: head.len() as u64,
            ..LoadedJournal::default()
        }))
    } else {
        Err(JournalError::BadMagic)
    }
}

/// Reads from `src` until `buf` holds `want` bytes; true at end of input.
fn top_up(src: &mut impl Read, buf: &mut Vec<u8>, want: usize) -> io::Result<bool> {
    let missing = want.saturating_sub(buf.len());
    let got = src.by_ref().take(missing as u64).read_to_end(buf)?;
    Ok(got < missing)
}

/// Size of the frame whose header starts `bytes`, once all of that header is
/// there.
fn frame_size(bytes: &[u8]) -> Option<usize> {
    let header = bytes.get(..FRAME_HEADER)?;
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
    Some(FRAME_HEADER.saturating_add(len as usize))
}

/// Streams `src` through a window of `window` bytes (grown to fit a larger
/// frame), folding whole frames as they come into view.
fn read_journal(mut src: impl Read, window: usize) -> Result<LoadedJournal, JournalError> {
    let mut buf = Vec::new();
    let mut eof = top_up(&mut src, &mut buf, JOURNAL_MAGIC.len())?;
    if let Some(empty) = check_magic(&buf)? {
        return Ok(empty);
    }
    buf.clear();
    let mut frames = FrameFold::default();
    let mut base = JOURNAL_MAGIC.len() as u64;
    while !eof {
        // A frame longer than the window needs all of itself in view; a
        // length the file cannot honour just runs into end of input.
        let want = frame_size(&buf).unwrap_or(FRAME_HEADER).max(window);
        eof = top_up(&mut src, &mut buf, want)?;
        let used = frames.consume(base, &buf)?;
        buf.drain(..used);
        base += used as u64;
    }
    Ok(frames.finish(buf.len()))
}

/// The reader's fold over validated frames: keeps the last snapshot, the
/// events past its horizon, and the ordering state the checks need.
#[derive(Default)]
struct FrameFold {
    last_seq: Option<u64>,
    /// `through_seq` of the last snapshot passed; its blob is in `state`.
    horizon: Option<u64>,
    /// One buffer reused across snapshots: only the last blob is kept.
    state: Vec<u8>,
    events: Vec<TimedEvent>,
}

impl FrameFold {
    /// Validates and folds every whole frame at the front of `bytes`, which
    /// start at file offset `base`. Returns the bytes consumed; what is left
    /// is a frame whose bytes stop short (torn, or not yet in the window).
    fn consume(&mut self, base: u64, bytes: &[u8]) -> Result<usize, JournalError> {
        let mut at = 0;
        while let Some(frame) = frame_size(&bytes[at..]).and_then(|size| bytes[at..].get(..size)) {
            let (header, payload) = frame.split_at(FRAME_HEADER);
            let offset = base + at as u64;
            let corrupt = |reason: String| JournalError::Corrupt { offset, reason };
            let stored_crc = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
            if frame_crc(&header[..5], payload) != stored_crc {
                return Err(corrupt("CRC mismatch".into()));
            }
            match header[0] {
                KIND_EVENT => {
                    let ev = codec::decode_event(payload)
                        .map_err(|e: CodecError| corrupt(format!("undecodable event: {e}")))?;
                    if let Some(prev) = self.last_seq.filter(|prev| ev.seq <= *prev) {
                        return Err(corrupt(format!(
                            "event seq {} not after previous {prev}",
                            ev.seq
                        )));
                    }
                    self.last_seq = Some(ev.seq);
                    if self.horizon.is_none_or(|h| ev.seq > h) {
                        self.events.push(ev);
                    }
                }
                KIND_SNAPSHOT => {
                    let Some((seq_bytes, state)) = payload.split_first_chunk::<8>() else {
                        return Err(corrupt("snapshot payload shorter than its header".into()));
                    };
                    let through_seq = u64::from_le_bytes(*seq_bytes);
                    // Replay starts at the last snapshot: events at or below
                    // its horizon are summarized by the blob and go now.
                    // That is only exact while horizons never step back —
                    // all a writer can emit.
                    if let Some(prev) = self.horizon.filter(|prev| through_seq < *prev) {
                        return Err(corrupt(format!(
                            "snapshot horizon {through_seq} below an earlier snapshot's {prev}"
                        )));
                    }
                    self.horizon = Some(through_seq);
                    self.events.retain(|e| e.seq > through_seq);
                    self.state.clear();
                    self.state.extend_from_slice(state);
                }
                other => return Err(corrupt(format!("unknown record kind {other}"))),
            }
            at += frame.len();
        }
        Ok(at)
    }

    fn finish(self, torn: usize) -> LoadedJournal {
        LoadedJournal {
            snapshot: self.horizon.map(|through_seq| JournalSnapshot {
                through_seq,
                state: self.state,
            }),
            events: self.events,
            truncated_bytes: torn as u64,
        }
    }
}

#[cfg(test)]
mod tests;
