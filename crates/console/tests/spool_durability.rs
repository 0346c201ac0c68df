//! Property tests: spool durability under torn-write truncation.
//!
//! A crash can cut the reliable-mode spool file at any byte. Whatever the
//! cut, reopening must (a) never panic, (b) keep the persisted ack
//! watermark, (c) never re-deliver data at or below that watermark, and
//! (d) surface the surviving unacked records as an exact in-order prefix —
//! torn writes may only ever drop a suffix, never corrupt the middle.
//!
//! The plain tests at the end hold the rest of the crash contract (a killed
//! process, as in the journal's tests): a kill anywhere in the watermark's
//! replace leaves the old watermark, a short `.ack` is an error, never
//! watermark 0, a flipped bit is reported, never replayed, and a CRC-valid
//! frame of the wrong shape is named for what is wrong with it.

use std::fs::OpenOptions;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cg_console::{recover_watermarks, Spool};
use cg_trace::journal::{self, KIND_SPOOL_RECORD};
use proptest::prelude::*;

#[path = "support/temp_dir.rs"]
mod temp_dir;
use temp_dir::TempDir;

static CASE: AtomicU64 = AtomicU64::new(0);

fn case_path() -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "cg-spool-durability-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

fn cleanup(p: &Path) {
    let _ = std::fs::remove_file(p);
    let mut ack = p.as_os_str().to_os_string();
    ack.push(".ack");
    let _ = std::fs::remove_file(PathBuf::from(ack));
}

proptest! {
    /// Truncate the spool file at an arbitrary byte after an arbitrary
    /// append/ack history: the reopened spool keeps the watermark, replays
    /// only an in-order prefix of the unacked suffix, and keeps accepting
    /// appends.
    #[test]
    fn torn_truncation_never_loses_acked_state(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..12),
        ack_upto in 0usize..12,
        cut_bp in 0u64..=10_000,
    ) {
        let path = case_path();
        cleanup(&path);
        let ack_to = ack_upto.min(payloads.len()) as u64;
        {
            let mut s = Spool::open(&path).unwrap();
            for (i, p) in payloads.iter().enumerate() {
                s.append(i as u64 + 1, p).unwrap();
            }
            if ack_to > 0 {
                s.ack(ack_to).unwrap();
            }
        }
        // Tear the file at an arbitrary point (basis points of its length).
        let full_len = std::fs::metadata(&path).unwrap().len();
        let cut = full_len * cut_bp / 10_000;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let mut s = Spool::open(&path).unwrap();
        prop_assert_eq!(s.acked(), ack_to, "ack watermark lost in the tear");
        prop_assert!(s.highest_seq() >= ack_to);

        let got = s.replay_after(ack_to).unwrap();
        for (seq, _) in &got {
            prop_assert!(*seq > ack_to, "re-delivered acked record {seq}");
        }
        let expected: Vec<(u64, Vec<u8>)> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64 + 1, p.clone()))
            .filter(|(seq, _)| *seq > ack_to)
            .collect();
        prop_assert!(got.len() <= expected.len());
        prop_assert_eq!(
            &got[..],
            &expected[..got.len()],
            "a torn write may only drop a suffix"
        );

        // The spool keeps working where the surviving history left off.
        let next = s.highest_seq() + 1;
        s.append(next, b"resume").unwrap();
        prop_assert_eq!(
            s.replay_after(next - 1).unwrap(),
            vec![(next, b"resume".to_vec())]
        );
        cleanup(&path);
    }

    /// The `.ack` sidecar alone (what `recover_watermarks` reads) always
    /// reports exactly the highest cumulative ack, whatever the append/ack
    /// interleaving and however the data file was torn.
    #[test]
    fn recovered_watermarks_match_the_acks(
        records in 1usize..10,
        acks in prop::collection::vec(1u64..20, 0..6),
        cut_bp in 0u64..=10_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "cg-spool-wm-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stdout-r0");
        let mut highest_ack = 0u64;
        {
            let mut s = Spool::open(&path).unwrap();
            for i in 0..records {
                s.append(i as u64 + 1, b"payload").unwrap();
            }
            for a in &acks {
                let a = (*a).min(records as u64);
                s.ack(a).unwrap();
                highest_ack = highest_ack.max(a);
            }
        }
        let full_len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full_len * cut_bp / 10_000)
            .unwrap();

        let marks = cg_console::recover_watermarks(&dir).unwrap();
        if highest_ack == 0 {
            prop_assert!(marks.is_empty(), "no sidecar without an ack");
        } else {
            prop_assert_eq!(marks, vec![("stdout-r0".to_string(), highest_ack)]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

fn sidecar(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// A spool at `path` holding records 1–3, acked through 2: the watermark is
/// on disk and the file is not compacted.
fn three_records_acked_through_two(path: &Path) {
    let mut s = Spool::open(path).unwrap();
    for seq in 1..=3 {
        s.append(seq, format!("record-{seq}").as_bytes()).unwrap();
    }
    s.ack(2).unwrap();
}

/// Every `append(s)` with `s <= high` panics as a reused sequence.
fn every_burned_sequence_panics(s: &mut Spool, high: u64) {
    for seq in 0..=high {
        let reused = catch_unwind(AssertUnwindSafe(|| s.append(seq, b"again")));
        let err = reused.expect_err("a burned sequence was accepted again");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("sequence must increase"), "{msg}");
    }
}

/// A kill at any byte of the watermark's replace, before its rename: the
/// new watermark sits in `.ack.next`, cut at every byte or whole (a stale
/// file that was never renamed), next to the old `.ack` and the uncompacted
/// spool. The reopened spool keeps the old watermark and burns every
/// sequence it had seen; the next ack then goes through.
#[test]
fn a_kill_anywhere_in_the_ack_keeps_the_old_watermark() {
    let dir = TempDir::new("cg-spool-ack-kill", "next");
    let done = dir.path().join("done.spool");
    three_records_acked_through_two(&done);
    Spool::open(&done).unwrap().ack(3).unwrap();
    let new_mark = std::fs::read(sidecar(&done, ".ack")).unwrap();

    let path = dir.path().join("s.spool");
    three_records_acked_through_two(&path);
    let spool = std::fs::read(&path).unwrap();
    let old_mark = std::fs::read(sidecar(&path, ".ack")).unwrap();
    for cut in 0..=new_mark.len() {
        std::fs::write(&path, &spool).unwrap();
        std::fs::write(sidecar(&path, ".ack"), &old_mark).unwrap();
        std::fs::write(sidecar(&path, ".ack.next"), &new_mark[..cut]).unwrap();
        let mut s = Spool::open(&path).unwrap();
        assert_eq!((s.acked(), s.highest_seq()), (2, 3), "cut {cut}");
        assert_eq!(s.replay_after(2).unwrap(), vec![(3, b"record-3".to_vec())]);
        every_burned_sequence_panics(&mut s, 3);
        assert_eq!(
            recover_watermarks(dir.path()).unwrap()[1],
            ("s.spool".into(), 2)
        );
    }
    let mut s = Spool::open(&path).unwrap();
    s.ack(3).unwrap();
    assert_eq!(std::fs::read(sidecar(&path, ".ack")).unwrap(), new_mark);
    assert!(!sidecar(&path, ".ack.next").exists(), "renamed into place");
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "compacted");
    drop(s);
    every_burned_sequence_panics(&mut Spool::open(&path).unwrap(), 3);
}

/// A `.ack` of 0–7 bytes, as a kill between a truncate and a write would
/// leave one, is an error for `Spool::open` and `recover_watermarks` alike,
/// never watermark 0: after a full ack the spool file is empty, so
/// watermark 0 would hand out sequence 1 again.
#[test]
fn a_short_ack_is_an_error_not_watermark_zero() {
    let dir = TempDir::new("cg-spool-ack-short", "cut");
    let path = dir.path().join("s.spool");
    let mut s = Spool::open(&path).unwrap();
    for seq in 1..=3 {
        s.append(seq, b"payload").unwrap();
    }
    s.ack(3).unwrap();
    drop(s);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    let ack = sidecar(&path, ".ack");
    for len in 0..8 {
        OpenOptions::new()
            .write(true)
            .open(&ack)
            .unwrap()
            .set_len(len)
            .unwrap();
        let err = Spool::open(&path).expect_err("a short .ack read as a watermark");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{len} bytes: {err}");
        let err = recover_watermarks(dir.path()).expect_err("a short .ack was skipped");
        assert!(err.to_string().contains("s.spool.ack"), "{err}");
    }
}

/// One flipped bit anywhere in a five-record spool is reported: `open`
/// fails with `InvalidData`, or (a length that now runs past the end reads
/// as a torn tail) keeps exactly the records before the flipped frame and
/// counts every byte it dropped. A changed payload is never replayed.
#[test]
fn a_flipped_bit_is_reported_never_replayed() {
    let dir = TempDir::new("cg-spool-flip", "bits");
    let path = dir.path().join("s.spool");
    let records: Vec<(u64, Vec<u8>)> = (1..=5u64)
        .map(|seq| {
            (
                seq,
                format!("payload {seq}").repeat(seq as usize).into_bytes(),
            )
        })
        .collect();
    let mut s = Spool::open(&path).unwrap();
    let mut starts = Vec::new();
    for (seq, payload) in &records {
        starts.push(std::fs::metadata(&path).unwrap().len());
        s.append(*seq, payload).unwrap();
    }
    drop(s);
    let clean = std::fs::read(&path).unwrap();
    for bit in 0..clean.len() * 8 {
        let mut bytes = clean.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();
        let frame = starts.partition_point(|&start| start <= (bit / 8) as u64) - 1;
        match Spool::open(&path) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "bit {bit}: {e}"),
            Ok(mut s) => {
                assert_eq!(s.replay_after(0).unwrap(), records[..frame], "bit {bit}");
                let dropped = clean.len() as u64 - starts[frame];
                assert_eq!(s.truncated_bytes(), dropped, "bit {bit}");
            }
        }
    }
}

/// A whole, CRC-valid frame that is not a spool record is named for what it
/// is: another kind, or a record too short to hold its sequence number.
#[test]
fn a_valid_frame_of_the_wrong_shape_is_named() {
    let dir = TempDir::new("cg-spool-shape", "frames");
    let path = dir.path().join("s.spool");
    for (kind, payload, what) in [
        (1, &[0u8; 8][..], "unexpected kind-1 frame"),
        (
            KIND_SPOOL_RECORD,
            &[0u8; 4][..],
            "frame too short for its seq",
        ),
    ] {
        let mut bytes = Vec::new();
        journal::frame(&mut bytes, kind, |buf| buf.extend_from_slice(payload)).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let err = Spool::open(&path).expect_err("a misshapen frame was indexed");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().ends_with(&format!("{what} at byte 0")),
            "{err}"
        );
    }
}
