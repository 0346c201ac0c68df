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
//! tables elsewhere, the same value either way. [`frame`] writes and
//! [`next_frame`] checks every frame, the journal's and the console spool's
//! (kinds 3 and 4); [`replace_file`] renames a file into place.
//!
//! Event payloads use the binary codec in [`crate::codec`]; snapshot payloads
//! are `[through_seq: u64 LE]` followed by an opaque state blob (see
//! [`crate::replay`]). Events are appended; a snapshot starts the file over
//! (see [`Journal::append_snapshot`]), so the file on disk is the magic, at
//! most one snapshot as its first record, and the events after it. Reading
//! and checking are O(file) and decoding and replay are O(tail), which makes
//! both O(live state + one snapshot interval), not O(uptime). The reader
//! still accepts a file with any number of inline snapshots and replays from
//! the **last** one.
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
/// A reliable-console spool record: `seq u64 LE ‖ payload`.
pub const KIND_SPOOL_RECORD: u8 = 3;
/// A spool's ack watermark: `acked u64 LE`, alone in its `.ack` file.
pub const KIND_SPOOL_ACK: u8 = 4;
/// kind + len + crc.
pub const FRAME_HEADER: usize = 1 + 4 + 4;

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
    /// Seq of the last event appended: a snapshot below it would drop it.
    last_seq: Option<u64>,
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

    /// Frames one event in the buffer. The group is written out when a sync
    /// is due.
    fn append_event(&mut self, ev: &TimedEvent) -> io::Result<()> {
        frame(&mut self.buf, KIND_EVENT, |buf| {
            codec::encode_event(ev, buf);
        })?;
        self.last_seq = Some(ev.seq);
        self.appended += 1;
        self.unsynced += 1;
        if self.config.fsync_every > 0 && self.unsynced >= self.config.fsync_every {
            self.sync()
        } else if self.buf.len() >= FLUSH_BYTES {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Starts the file over at a snapshot, through [`replace_file`]. The
    /// open group is dropped, not written: the caller checked that every
    /// record in it is at or below `through_seq`.
    fn rotate(&mut self, path: &Path, through_seq: u64, state: &[u8]) -> io::Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(JOURNAL_MAGIC);
        frame(&mut self.buf, KIND_SNAPSHOT, |buf| {
            buf.extend_from_slice(&through_seq.to_le_bytes());
            buf.extend_from_slice(state);
        })?;
        self.file = replace_file(path, &self.buf)?;
        self.buf.clear();
        self.appended += 1;
        self.unsynced = 0;
        Ok(())
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

/// Frames one record at the end of `buf`: reserves the header, lets `encode`
/// write the payload straight behind it, then patches `len` and the CRC
/// computed in place. Fails only on a payload over 4 GiB.
pub fn frame(buf: &mut Vec<u8>, kind: u8, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let start = buf.len();
    buf.push(kind);
    buf.extend_from_slice(&[0; FRAME_HEADER - 1]);
    encode(buf);
    let (header, payload) = buf[start..].split_at_mut(FRAME_HEADER);
    let len =
        u32::try_from(payload.len()).map_err(|_| io::Error::other("journal record over 4 GiB"))?;
    header[1..5].copy_from_slice(&len.to_le_bytes());
    let crc = frame_crc(&header[..5], payload);
    header[5..].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// A whole frame whose CRC does not match its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcMismatch;

/// Reads the frame at the front of `bytes`: its kind and payload when all of
/// it is there and its CRC holds, [`CrcMismatch`] when it is whole and does
/// not, `None` when it runs into the end of the input (torn, or not read).
pub fn next_frame(bytes: &[u8]) -> Result<Option<(u8, &[u8])>, CrcMismatch> {
    let Some(frame) = frame_size(bytes).and_then(|size| bytes.get(..size)) else {
        return Ok(None);
    };
    let (header, payload) = frame.split_at(FRAME_HEADER);
    let stored_crc = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
    (frame_crc(&header[..5], payload) == stored_crc)
        .then_some(Some((header[0], payload)))
        .ok_or(CrcMismatch)
}

/// Puts `bytes` in place as the whole of `path`: writes `{path}.next`,
/// fsyncs it, renames it over `path` and fsyncs the directory, so `path` is
/// always either the old file, intact, or the new one. Returns the new
/// file, open for writing at its end.
pub fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<File> {
    let next = next_path(path);
    let mut file = File::create(&next)?;
    file.write_all(bytes)?;
    // cg-lint: allow(lock-across-io): one writer per file; the new file is durable under its own name before it replaces the old one
    file.sync_data()?;
    std::fs::rename(&next, path)?;
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    // cg-lint: allow(lock-across-io): one writer per file; the directory fsync is the rename's durability point
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(file)
}

/// Where [`replace_file`] writes the next file before renaming it over `path`.
fn next_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".next");
    PathBuf::from(name)
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
/// [`Journal::sync`], when the last handle drops, and whenever the buffer
/// passes 64 KiB. [`Journal::append_snapshot`] replaces the file instead.
/// The first write or sync failure poisons the writer: every later call
/// returns that error and the file is left alone.
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
                last_seq: None,
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
        self.lock().guarded(|w| w.append_event(ev))
    }

    /// Writes a snapshot covering all events with `seq <= through_seq` and
    /// starts the journal over at it, dropping the prefix it summarises: the
    /// open commit group is dropped (the snapshot covers it), the magic and
    /// the snapshot record replace the file through [`replace_file`], and
    /// later records are appended to the new file. A crash before the rename
    /// leaves the old journal intact, short of at most the dropped group, as
    /// a killed process would leave it (a leftover `.next` is never read).
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`], with nothing written, when an event
    /// above `through_seq` was already appended: the rotation would drop it.
    /// Otherwise propagates file-creation, write, sync and rename failures.
    pub fn append_snapshot(&self, through_seq: u64, state: &[u8]) -> io::Result<()> {
        let mut w = self.lock();
        if let Some(last) = w.last_seq.filter(|last| *last > through_seq) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("snapshot through seq {through_seq} would drop appended event {last}"),
            ));
        }
        w.guarded(|w| w.rotate(&self.path, through_seq, state))
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
}

/// How much of the file [`open_journal`] holds at a time. A frame larger
/// than this (a snapshot blob) grows the window to that frame's size.
const READ_WINDOW: usize = 256 * 1024;

/// Opens and fully validates a journal file.
///
/// Every frame is CRC-checked and every event payload checked as
/// [`crate::decode_event`] would read it, but only the events past the last
/// snapshot are decoded, once the file has ended. The file is read through a
/// bounded window, and checked payloads a snapshot already summarizes are
/// dropped as that snapshot is passed, so memory is one window, the last
/// snapshot and one snapshot interval of checked payloads — not the file.
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

/// Parses journal bytes with the reader [`open_journal`] runs over a file.
///
/// # Errors
/// Same contract as [`open_journal`], minus the I/O.
pub fn parse_journal(bytes: &[u8]) -> Result<LoadedJournal, JournalError> {
    read_journal(bytes, READ_WINDOW)
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
    frames.finish(buf.len())
}

/// The reader's fold over validated frames: keeps the last snapshot, the
/// checked payloads of the events past its horizon, and the ordering state
/// the checks need. Only [`FrameFold::finish`] decodes, so an event a later
/// snapshot summarises is checked and never built.
#[derive(Default)]
struct FrameFold {
    last_seq: Option<u64>,
    /// `through_seq` of the last snapshot passed; its blob is in `state`.
    horizon: Option<u64>,
    /// One buffer reused across snapshots: only the last blob is kept.
    state: Vec<u8>,
    /// Checked payloads of the events past `horizon`, back to back.
    tail: Vec<u8>,
    /// Per event in `tail`: its seq, its frame's file offset and where its
    /// payload ends in `tail` (it starts where the previous one ends).
    tail_events: Vec<(u64, u64, usize)>,
}

impl FrameFold {
    /// Validates and folds every whole frame at the front of `bytes`, which
    /// start at file offset `base`. Returns the bytes consumed; what is left
    /// is a frame whose bytes stop short (torn, or not yet in the window).
    fn consume(&mut self, base: u64, bytes: &[u8]) -> Result<usize, JournalError> {
        let mut at = 0;
        loop {
            let offset = base + at as u64;
            let corrupt = |reason: String| JournalError::Corrupt { offset, reason };
            let Some((kind, payload)) =
                next_frame(&bytes[at..]).map_err(|CrcMismatch| corrupt("CRC mismatch".into()))?
            else {
                return Ok(at);
            };
            match kind {
                KIND_EVENT => {
                    let seq = codec::check_event(payload).map_err(|e| undecodable(offset, &e))?;
                    if let Some(prev) = self.last_seq.filter(|prev| seq <= *prev) {
                        return Err(corrupt(format!(
                            "event seq {seq} not after previous {prev}"
                        )));
                    }
                    self.last_seq = Some(seq);
                    if self.horizon.is_none_or(|h| seq > h) {
                        self.tail.extend_from_slice(payload);
                        self.tail_events.push((seq, offset, self.tail.len()));
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
                    self.drop_through(through_seq);
                    self.state.clear();
                    self.state.extend_from_slice(state);
                }
                other => return Err(corrupt(format!("unknown record kind {other}"))),
            }
            at += FRAME_HEADER + payload.len();
        }
    }

    /// Forgets the tail events a snapshot through `through_seq` summarises:
    /// a prefix of the tail, since seqs rise.
    fn drop_through(&mut self, through_seq: u64) {
        let summarised = self
            .tail_events
            .partition_point(|&(seq, ..)| seq <= through_seq);
        let cut = summarised
            .checked_sub(1)
            .map_or(0, |last| self.tail_events[last].2);
        self.tail.drain(..cut);
        self.tail_events.drain(..summarised);
        for (_, _, end) in &mut self.tail_events {
            *end -= cut;
        }
    }

    /// Decodes the tail, once the file has ended. Every payload passed
    /// [`codec::check_event`] as its frame was read, so decoding it cannot
    /// fail; if it did, the answer is the same typed error at the same
    /// offset, not a panic.
    fn finish(self, torn: usize) -> Result<LoadedJournal, JournalError> {
        let mut events = Vec::with_capacity(self.tail_events.len());
        let mut start = 0;
        for &(_, offset, end) in &self.tail_events {
            events.push(
                codec::decode_event(&self.tail[start..end]).map_err(|e| undecodable(offset, &e))?,
            );
            start = end;
        }
        Ok(LoadedJournal {
            snapshot: self.horizon.map(|through_seq| JournalSnapshot {
                through_seq,
                state: self.state,
            }),
            events,
            truncated_bytes: torn as u64,
        })
    }
}

/// The error for an event frame whose payload does not decode.
fn undecodable(offset: u64, e: &CodecError) -> JournalError {
    JournalError::Corrupt {
        offset,
        reason: format!("undecodable event: {e}"),
    }
}

#[cfg(test)]
mod tests;
