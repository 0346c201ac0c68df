//! Disk spooling for the *reliable* streaming mode.
//!
//! §4: "When the reliable mode is selected, both the CA and the CS write data
//! to the local disk and retry failed operations at regular intervals." The
//! spool is a log of `(seq, payload)` journal frames per stream; after a
//! reconnect the peer reports the highest sequence it received and the
//! sender replays everything after it, byte-exactly.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cg_sim::SimTime;
use cg_trace::journal::{self, CrcMismatch, FRAME_HEADER, KIND_SPOOL_ACK, KIND_SPOOL_RECORD};
use cg_trace::{Event, EventLog};

/// `(seq, payload_offset, len)` per record, in file order.
type Index = Vec<(u64, u64, u32)>;

/// A `kind` frame of `seq u64 LE ‖ payload`.
fn framed(kind: u8, seq: u64, payload: &[u8]) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + 8 + payload.len());
    journal::frame(&mut buf, kind, |buf| {
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(payload);
    })?;
    Ok(buf)
}

/// The whole frames at the front of `bytes`, and where the last one ends. A
/// whole frame that fails its CRC, or is not a `want` frame with a seq, is
/// `InvalidData` naming `path` and the frame's offset.
fn read_frames(path: &Path, bytes: &[u8], want: u8) -> io::Result<(Index, usize)> {
    let (mut index, mut at) = (Vec::new(), 0);
    while let Some((kind, payload)) = journal::next_frame(&bytes[at..])
        .map_err(|CrcMismatch| invalid(path, at, "CRC mismatch"))?
    {
        if kind != want {
            return Err(invalid(path, at, &format!("unexpected kind-{kind} frame")));
        }
        let Some((seq, data)) = payload.split_first_chunk() else {
            return Err(invalid(path, at, "frame too short for its seq"));
        };
        let start = at + FRAME_HEADER + 8;
        at = start + data.len();
        index.push((u64::from_le_bytes(*seq), start as u64, data.len() as u32));
    }
    Ok((index, at))
}

fn invalid(path: &Path, at: usize, what: &str) -> io::Error {
    let msg = format!("{}: {what} at byte {at}", path.display());
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The watermark in a `.ack` sidecar, which must be one whole kind-4 frame.
fn read_watermark(path: &Path) -> io::Result<u64> {
    let bytes = std::fs::read(path)?;
    let (frames, end) = read_frames(path, &bytes, KIND_SPOOL_ACK)?;
    match frames[..] {
        [(acked, _, 0)] if end == bytes.len() => Ok(acked),
        _ => Err(invalid(path, end, "not one whole watermark frame")),
    }
}

/// An append-only, replayable log of sequenced payloads.
#[derive(Debug)]
pub struct Spool {
    file: File,
    /// `{path}.ack`: the cumulative ack watermark, across reopens.
    ack_file: PathBuf,
    index: Index,
    /// Highest cumulatively acknowledged sequence.
    acked: u64,
    /// Total payload bytes ever appended (metric).
    appended_bytes: u64,
    truncated_bytes: u64,
    /// Lifecycle event sink and this spool's stream label.
    trace: Option<(EventLog, Arc<str>)>,
    /// The owner's clock at its current step: the trace events' stamp.
    now_ns: u64,
}

impl Spool {
    /// Opens (or creates) a spool file and indexes its records, reading the
    /// file whole once: memory for the unacked backlog, as a replay takes. A
    /// last frame cut short (a kill mid-append) is dropped and counted in
    /// [`Spool::truncated_bytes`]; any other bad frame, and a `.ack` that is
    /// not one whole watermark frame, is `InvalidData`. No sequence is used
    /// twice: each used one is in the file or under the watermark, which
    /// [`Spool::ack`] renames into place before it compacts.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let bytes = std::fs::read(path)?;
        let (index, end) = read_frames(path, &bytes, KIND_SPOOL_RECORD)?;
        file.set_len(end as u64)?;
        let mut ack_file = path.as_os_str().to_owned();
        ack_file.push(".ack");
        let acked = match read_watermark(Path::new(&ack_file)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            acked => acked?,
        };
        Ok(Spool {
            file,
            ack_file: ack_file.into(),
            appended_bytes: index.iter().map(|&(_, _, l)| l as u64).sum(),
            index,
            acked,
            truncated_bytes: (bytes.len() - end) as u64,
            trace: None,
            now_ns: 0,
        })
    }

    /// Routes this spool's append/ack/replay activity into `log` under the
    /// stream label `stream`, stamped with the owning console end's clock.
    pub fn set_trace(&mut self, log: EventLog, stream: impl Into<Arc<str>>) {
        self.trace = Some((log, stream.into()));
    }

    fn trace_event(&self, make: impl FnOnce(Arc<str>) -> Event) {
        if let Some((log, stream)) = &self.trace {
            log.record(SimTime::from_nanos(self.now_ns), make(Arc::clone(stream)));
        }
    }

    /// The owner's clock reading for what this spool does next.
    pub(crate) fn set_now(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Appends a record in one write, without an fsync: it survives a
    /// killed process. Sequences start at 1 and must be strictly increasing,
    /// including across acknowledged (compacted-away) records.
    ///
    /// # Panics
    /// Panics on a sequence at or below [`Spool::highest_seq`] — replay
    /// would be ambiguous.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        let high = self.highest_seq();
        assert!(seq > high, "sequence must increase: {seq} after {high}");
        let record = framed(KIND_SPOOL_RECORD, seq, payload)?;
        let start = self.file.seek(SeekFrom::End(0))? + (FRAME_HEADER + 8) as u64;
        self.file.write_all(&record)?;
        self.index.push((seq, start, payload.len() as u32));
        self.appended_bytes += payload.len() as u64;
        self.trace_event(|stream| Event::SpoolAppend { stream, seq });
        Ok(())
    }

    /// Reads back every record with `seq > after`, in order.
    pub fn replay_after(&mut self, after: u64) -> io::Result<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        let start = self.index.partition_point(|&(s, _, _)| s <= after);
        for &(seq, offset, len) in &self.index[start..] {
            self.file.seek(SeekFrom::Start(offset))?;
            let mut buf = vec![0u8; len as usize];
            self.file.read_exact(&mut buf)?;
            out.push((seq, buf));
        }
        self.trace_event(|stream| Event::SpoolReplay {
            stream,
            after,
            records: out.len() as u32,
        });
        Ok(out)
    }

    /// Records a cumulative acknowledgement. Once the new watermark is in
    /// place ([`journal::replace_file`]), a fully acked file is compacted.
    pub fn ack(&mut self, seq: u64) -> io::Result<()> {
        if seq > self.acked {
            journal::replace_file(&self.ack_file, &framed(KIND_SPOOL_ACK, seq, &[])?)?;
            self.acked = seq;
        }
        if !self.index.is_empty() && self.highest_seq() == self.acked {
            self.index.clear();
            self.file.set_len(0)?;
        }
        let acked = self.acked;
        self.trace_event(|stream| Event::SpoolAck { stream, seq: acked });
        Ok(())
    }

    /// Highest sequence ever appended or acknowledged, 0 when the spool has
    /// seen neither. Consistent across compaction: acknowledged records are
    /// removed from disk but their sequence numbers stay burned.
    pub fn highest_seq(&self) -> u64 {
        self.index.last().map_or(0, |r| r.0).max(self.acked)
    }

    /// Highest cumulative ack received.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Records not yet compacted away.
    pub fn record_count(&self) -> usize {
        self.index.len()
    }

    /// Total payload bytes appended over the spool's life.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Bytes of a torn last frame that [`Spool::open`] cut off.
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }
}

/// Each spool's watermark in `dir` from its `.ack` sidecar alone, keyed by
/// the spool file's name (the stream label), sorted; a sidecar that is not
/// one whole watermark frame is an error naming it. Crash recovery seeds the
/// broker's spool watermarks from this and checks that none regresses.
pub fn recover_watermarks(dir: impl AsRef<Path>) -> io::Result<Vec<(String, u64)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str());
        if let Some(stream) = name.and_then(|n| n.strip_suffix(".ack")) {
            out.push((stream.to_string(), read_watermark(&path)?));
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::temp_dir::TempDir;

    /// A spool path in a fresh directory that the returned guard removes.
    fn tmp(name: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new("cg-spool-test", name);
        let path = dir.path().join("s.spool");
        (dir, path)
    }

    #[test]
    fn append_and_replay_all() {
        let (_dir, path) = tmp("basic");
        let mut s = Spool::open(&path).unwrap();
        s.append(1, b"first").unwrap();
        s.append(2, b"second").unwrap();
        s.append(5, b"gap is fine").unwrap();
        let got = s.replay_after(0).unwrap();
        assert_eq!(
            got,
            vec![
                (1, b"first".to_vec()),
                (2, b"second".to_vec()),
                (5, b"gap is fine".to_vec())
            ]
        );
        assert_eq!(s.highest_seq(), 5);
        assert_eq!(s.appended_bytes(), 22);
    }

    #[test]
    fn replay_after_midpoint() {
        let (_dir, path) = tmp("mid");
        let mut s = Spool::open(&path).unwrap();
        for seq in 1..=10u64 {
            s.append(seq, format!("payload-{seq}").as_bytes()).unwrap();
        }
        let got = s.replay_after(7).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (8, b"payload-8".to_vec()));
        // Replay past the end is empty.
        assert!(s.replay_after(10).unwrap().is_empty());
        // Appending after a replay still works (file position restored).
        s.append(11, b"after-replay").unwrap();
        assert_eq!(
            s.replay_after(10).unwrap(),
            vec![(11, b"after-replay".to_vec())]
        );
    }

    #[test]
    fn full_ack_compacts_the_file() {
        let (_dir, path) = tmp("compact");
        let mut s = Spool::open(&path).unwrap();
        for seq in 1..=3u64 {
            s.append(seq, &[0u8; 1000]).unwrap();
        }
        assert!(std::fs::metadata(&path).unwrap().len() > 3000);
        s.ack(2).unwrap();
        assert_eq!(s.record_count(), 3, "partial ack keeps records");
        s.ack(3).unwrap();
        assert_eq!(s.record_count(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // Appending continues after compaction.
        s.append(4, b"next").unwrap();
        assert_eq!(s.replay_after(0).unwrap(), vec![(4, b"next".to_vec())]);
        assert_eq!(s.highest_seq(), 4);
    }

    #[test]
    fn reopen_rebuilds_index() {
        let (_dir, path) = tmp("reopen");
        {
            let mut s = Spool::open(&path).unwrap();
            s.append(1, b"survives").unwrap();
            s.append(2, b"reopen").unwrap();
        }
        let mut s = Spool::open(&path).unwrap();
        assert_eq!(s.highest_seq(), 2);
        assert_eq!(
            s.replay_after(0).unwrap(),
            vec![(1, b"survives".to_vec()), (2, b"reopen".to_vec())]
        );
    }

    #[test]
    fn partial_trailing_record_is_discarded() {
        let (_dir, path) = tmp("partial");
        {
            let mut s = Spool::open(&path).unwrap();
            s.append(1, b"complete").unwrap();
        }
        // Simulate a crash mid-append: garbage header tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB; 7]).unwrap();
        }
        let mut s = Spool::open(&path).unwrap();
        assert_eq!(s.replay_after(0).unwrap(), vec![(1, b"complete".to_vec())]);
        assert_eq!(s.record_count(), 1);
    }

    #[test]
    #[should_panic(expected = "sequence must increase")]
    fn non_increasing_seq_panics() {
        let (_dir, path) = tmp("monotonic");
        let mut s = Spool::open(&path).unwrap();
        s.append(5, b"x").unwrap();
        let _ = s.append(5, b"y");
    }

    #[test]
    fn empty_payloads_round_trip() {
        let (_dir, path) = tmp("empty");
        let mut s = Spool::open(&path).unwrap();
        s.append(1, b"").unwrap();
        s.append(2, b"x").unwrap();
        assert_eq!(
            s.replay_after(0).unwrap(),
            vec![(1, Vec::new()), (2, b"x".to_vec())]
        );
    }

    #[test]
    fn ack_beyond_highest_is_remembered() {
        let (_dir, path) = tmp("ackhigh");
        let mut s = Spool::open(&path).unwrap();
        s.ack(100).unwrap();
        assert_eq!(s.acked(), 100);
        assert_eq!(s.highest_seq(), 100, "empty spool reports ack watermark");
    }

    #[test]
    fn ack_watermark_survives_reopen() {
        let (_dir, path) = tmp("ack-reopen");
        {
            let mut s = Spool::open(&path).unwrap();
            for seq in 1..=3u64 {
                s.append(seq, b"payload").unwrap();
            }
            s.ack(3).unwrap(); // full ack compacts the file to zero length
            assert_eq!(s.record_count(), 0);
        }
        let mut s = Spool::open(&path).unwrap();
        assert_eq!(s.acked(), 3, "watermark must survive the reopen");
        assert_eq!(s.highest_seq(), 3);
        // Appending continues where the compacted history left off.
        s.append(4, b"next").unwrap();
        assert_eq!(s.replay_after(3).unwrap(), vec![(4, b"next".to_vec())]);
    }

    #[test]
    #[should_panic(expected = "sequence must increase")]
    fn reopened_spool_rejects_acked_sequences() {
        let (_dir, path) = tmp("ack-reopen-dup");
        {
            let mut s = Spool::open(&path).unwrap();
            s.append(1, b"x").unwrap();
            s.ack(1).unwrap();
        }
        let mut s = Spool::open(&path).unwrap();
        // Without the persisted watermark this would silently duplicate
        // sequence 1 and make replay ambiguous.
        s.append(1, b"duplicate").unwrap();
    }

    #[test]
    #[should_panic(expected = "sequence must increase")]
    fn compaction_does_not_reset_monotonicity() {
        let (_dir, path) = tmp("compact-monotonic");
        let mut s = Spool::open(&path).unwrap();
        s.append(5, b"x").unwrap();
        s.ack(5).unwrap(); // compacts; 5 stays burned
        let _ = s.append(5, b"reused seq");
    }

    #[test]
    fn highest_seq_consistent_after_partial_compaction_states() {
        let (_dir, path) = tmp("hs-consistency");
        let mut s = Spool::open(&path).unwrap();
        s.append(2, b"a").unwrap();
        s.ack(1).unwrap();
        assert_eq!(s.highest_seq(), 2, "live record above watermark wins");
        s.ack(2).unwrap();
        assert_eq!(s.highest_seq(), 2, "compaction keeps the sequence");
        s.append(7, b"b").unwrap();
        s.ack(9).unwrap(); // peer acks ahead; watermark dominates
        assert_eq!(s.highest_seq(), 9);
    }

    #[test]
    fn trace_records_append_ack_replay() {
        let (_dir, path) = tmp("trace");
        let log = cg_trace::EventLog::new(64);
        let mut s = Spool::open(&path).unwrap();
        s.set_trace(log.clone(), "stdout-r0");
        s.append(1, b"a").unwrap();
        s.append(2, b"b").unwrap();
        s.replay_after(1).unwrap();
        s.ack(2).unwrap();
        let kinds: Vec<&str> = log.snapshot().iter().map(|e| e.event.kind()).collect();
        assert_eq!(
            kinds,
            vec!["SpoolAppend", "SpoolAppend", "SpoolReplay", "SpoolAck"]
        );
        // A well-behaved spool stream satisfies the ack≤append invariant.
        assert!(cg_trace::check_invariants(&log.snapshot()).is_empty());
    }
}
