use super::crc::{crc32_bytewise_update, crc32_update, CRC_INIT};
use super::*;
use crate::event::Event;
use cg_sim::SimTime;

fn ev(seq: u64) -> TimedEvent {
    TimedEvent {
        at: SimTime::from_secs(seq),
        seq,
        event: Event::JobStarted { job: seq },
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cg-journal-{}-{name}", std::process::id()))
}

#[test]
fn crc32_matches_known_vector() {
    // IEEE CRC-32 of "123456789" is the classic check value.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn append_and_reload_round_trips() {
    let path = tmp("roundtrip.jrnl");
    let j = Journal::create(&path, JournalConfig::default()).unwrap();
    for seq in 0..10 {
        j.append_event(&ev(seq)).unwrap();
    }
    j.sync().unwrap();
    let loaded = open_journal(&path).unwrap();
    assert_eq!(loaded.events.len(), 10);
    assert_eq!(loaded.truncated_bytes, 0);
    assert_eq!(loaded.last_seq(), Some(9));
    assert!(loaded.snapshot.is_none());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn replay_resumes_from_the_last_snapshot() {
    let path = tmp("snapshot.jrnl");
    let j = Journal::create(&path, JournalConfig::default()).unwrap();
    for seq in 0..5 {
        j.append_event(&ev(seq)).unwrap();
    }
    j.append_snapshot(4, b"state-a").unwrap();
    for seq in 5..8 {
        j.append_event(&ev(seq)).unwrap();
    }
    j.sync().unwrap();
    let loaded = open_journal(&path).unwrap();
    let sn = loaded.snapshot.expect("snapshot present");
    assert_eq!(sn.through_seq, 4);
    assert_eq!(sn.state, b"state-a");
    let seqs: Vec<u64> = loaded.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![5, 6, 7], "only the tail replays");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_tail_is_truncated_not_an_error() {
    let path = tmp("torn.jrnl");
    let j = Journal::create(&path, JournalConfig::default()).unwrap();
    for seq in 0..4 {
        j.append_event(&ev(seq)).unwrap();
    }
    j.sync().unwrap();
    drop(j);
    let full = std::fs::read(&path).unwrap();
    // Cut the file at every possible length: each prefix must load the
    // CRC-valid whole records and drop the torn remainder.
    let record_size = (full.len() - 8) / 4;
    for cut in 8..=full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let loaded = open_journal(&path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let on_boundary = (cut - 8) % record_size == 0;
        assert_eq!(
            loaded.events.len(),
            (cut - 8) / record_size,
            "cut {cut}: every whole record loads"
        );
        assert_eq!(
            loaded.truncated_bytes > 0,
            !on_boundary,
            "cut {cut}: truncation is reported iff bytes were dropped"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_rot_is_a_typed_corrupt_error() {
    let path = tmp("bitrot.jrnl");
    let j = Journal::create(&path, JournalConfig::default()).unwrap();
    for seq in 0..3 {
        j.append_event(&ev(seq)).unwrap();
    }
    j.sync().unwrap();
    drop(j);
    let full = std::fs::read(&path).unwrap();
    // Flip one bit in the middle record's payload.
    let mut rotten = full.clone();
    let mid = 8 + (full.len() - 8) / 2;
    rotten[mid] ^= 0x10;
    match parse_journal(&rotten) {
        Err(JournalError::Corrupt { .. }) => {}
        Ok(loaded) => {
            // The flip may land in the last record's bytes in a way that
            // shortens it past EOF — then truncation is the correct read.
            assert!(loaded.truncated_bytes > 0, "accepted a corrupted journal");
        }
        Err(other) => panic!("wrong error type: {other}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn non_journal_file_is_bad_magic() {
    assert!(matches!(
        parse_journal(b"definitely not a journal"),
        Err(JournalError::BadMagic)
    ));
    // An empty or magic-prefix-only file is an empty journal (crash
    // before the header finished), not corruption.
    assert!(parse_journal(b"").unwrap().events.is_empty());
    assert!(parse_journal(b"CGJ").unwrap().events.is_empty());
}

// ── oracles: the write and read paths as they were before the one-buffer
// writer and the streaming reader, kept to compare against ──────────────

/// The byte-at-a-time CRC loop.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    !crc32_bytewise_update(CRC_INIT, bytes)
}

/// The old `append_record` framing: header, a CRC staging copy, the frame.
fn frame_oracle(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![kind];
    frame.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
    let mut crc_input = frame.clone();
    crc_input.extend_from_slice(payload);
    frame.extend_from_slice(&crc32_bytewise(&crc_input).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

fn event_frame(te: &TimedEvent) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::encode_event(te, &mut payload);
    frame_oracle(KIND_EVENT, &payload)
}

fn snapshot_frame(through_seq: u64, state: &[u8]) -> Vec<u8> {
    let mut payload = through_seq.to_le_bytes().to_vec();
    payload.extend_from_slice(state);
    frame_oracle(KIND_SNAPSHOT, &payload)
}

/// The old whole-file parser: every event held until the end, every
/// snapshot blob copied, one `retain` against the last horizon.
fn parse_journal_oracle(bytes: &[u8]) -> Result<LoadedJournal, JournalError> {
    if bytes.len() < JOURNAL_MAGIC.len() {
        if bytes.is_empty() || JOURNAL_MAGIC.starts_with(bytes) {
            return Ok(LoadedJournal {
                truncated_bytes: bytes.len() as u64,
                ..LoadedJournal::default()
            });
        }
        return Err(JournalError::BadMagic);
    }
    if &bytes[..8] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let mut loaded = LoadedJournal::default();
    let mut last_seq: Option<u64> = None;
    let mut offset = JOURNAL_MAGIC.len();
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < FRAME_HEADER {
            loaded.truncated_bytes = remaining as u64;
            break;
        }
        let corrupt = |reason: &str| JournalError::Corrupt {
            offset: offset as u64,
            reason: reason.into(),
        };
        let kind = bytes[offset];
        let len = u32::from_le_bytes(bytes[offset + 1..offset + 5].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(bytes[offset + 5..offset + 9].try_into().unwrap());
        let end = offset + FRAME_HEADER + len;
        if end > bytes.len() {
            loaded.truncated_bytes = remaining as u64;
            break;
        }
        let payload = &bytes[offset + FRAME_HEADER..end];
        let mut crc_input = bytes[offset..offset + 5].to_vec();
        crc_input.extend_from_slice(payload);
        if crc32_bytewise(&crc_input) != stored_crc {
            return Err(corrupt("CRC mismatch"));
        }
        match kind {
            KIND_EVENT => {
                let ev = codec::decode_event(payload).map_err(|_| corrupt("undecodable event"))?;
                if last_seq.is_some_and(|prev| ev.seq <= prev) {
                    return Err(corrupt("event seq not after previous"));
                }
                last_seq = Some(ev.seq);
                loaded.events.push(ev);
            }
            KIND_SNAPSHOT => {
                if payload.len() < 8 {
                    return Err(corrupt("snapshot payload shorter than its header"));
                }
                loaded.snapshot = Some(JournalSnapshot {
                    through_seq: u64::from_le_bytes(payload[..8].try_into().unwrap()),
                    state: payload[8..].to_vec(),
                });
            }
            _ => return Err(corrupt("unknown record kind")),
        }
        offset = end;
    }
    if let Some(sn) = &loaded.snapshot {
        let horizon = sn.through_seq;
        loaded.events.retain(|e| e.seq > horizon);
    }
    Ok(loaded)
}

/// What a read came to, in comparable form: the loaded parts, or the error
/// variant and the offset it names.
type Outcome = Result<(Option<JournalSnapshot>, Vec<TimedEvent>, u64), (&'static str, u64)>;

fn outcome(read: Result<LoadedJournal, JournalError>) -> Outcome {
    match read {
        Ok(l) => Ok((l.snapshot, l.events, l.truncated_bytes)),
        Err(JournalError::Corrupt { offset, .. }) => Err(("Corrupt", offset)),
        Err(JournalError::BadMagic) => Err(("BadMagic", 0)),
        Err(JournalError::Io(_)) => Err(("Io", 0)),
    }
}

/// An event payload that fails to decode in one of five ways, framed with a
/// valid CRC so that only the codec can reject it. The event under the
/// damage names its user in an `Arc<str>` or its reason in a `String`.
fn undecodable_event_frame(at_seq: u64, x: u64) -> Vec<u8> {
    let text = "u".repeat(1 + (x % 40) as usize);
    let event = if (x / 20).is_multiple_of(2) {
        Event::JobSubmitted {
            job: x,
            user: text.into(),
            interactive: true,
        }
    } else {
        Event::JobFailed {
            job: x,
            reason: text,
        }
    };
    let mut payload = Vec::new();
    codec::encode_event(
        &TimedEvent {
            at: SimTime::from_nanos(at_seq),
            seq: at_seq,
            event,
        },
        &mut payload,
    );
    // Both: `at`, `seq`, the tag at 16, `job` at 17..25, the string's
    // length at 25..29 and its bytes from 29.
    let pick = (x / 40) as usize;
    match (x / 4) % 5 {
        0 => payload.truncate(17 + pick % (payload.len() - 17)),
        1 => payload[16] = 200 + (x % 56) as u8,
        2 => payload[16] = crate::RETIRED_TAGS[pick % crate::RETIRED_TAGS.len()].0,
        3 => payload[29] = 0xFF,
        _ => payload.push(0),
    }
    frame_oracle(KIND_EVENT, &payload)
}

/// A journal image as a writer could have produced it: events with rising
/// seqs of mixed sizes, and up to five snapshots whose horizons never step
/// back (at, behind or ahead of the last event). One event record in
/// sixteen is CRC-valid garbage instead (see [`undecodable_event_frame`]);
/// a later snapshot may summarise it, and it is still corrupt.
fn journal_image(records: &[(u8, u64, u64)]) -> Vec<u8> {
    let mut bytes = JOURNAL_MAGIC.to_vec();
    let (mut seq, mut horizon, mut snapshots) = (0u64, 0u64, 0);
    for &(pick, gap, x) in records {
        if pick == 0 && snapshots < 5 {
            snapshots += 1;
            horizon = horizon.max((seq + x % 3).saturating_sub(1 + gap % 2));
            bytes.extend(snapshot_frame(horizon, &vec![x as u8; (x % 300) as usize]));
            continue;
        }
        seq += gap;
        if pick == 3 && x.is_multiple_of(4) {
            bytes.extend(undecodable_event_frame(seq, x));
            continue;
        }
        let event = match pick {
            1 => Event::JobStarted { job: x },
            2 => Event::SpoolAck {
                stream: format!("console:{}", x % 3).into(),
                seq: x,
            },
            _ => Event::JobSubmitted {
                job: x,
                user: "u".repeat((x % 40) as usize).into(),
                interactive: x % 2 == 0,
            },
        };
        bytes.extend(event_frame(&TimedEvent {
            at: SimTime::from_nanos(seq),
            seq,
            event,
        }));
    }
    bytes
}

mod differential {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Slicing-by-8 computes the values the byte loop did, whole and fed
        /// in two pieces split anywhere.
        #[test]
        fn crc32_equals_the_bytewise_oracle_at_every_split(
            bytes in prop::collection::vec(any::<u8>(), 0..=4096usize),
        ) {
            let want = crc32_bytewise(&bytes);
            prop_assert_eq!(crc32(&bytes), want);
            for split in 0..=bytes.len() {
                let (a, b) = bytes.split_at(split);
                prop_assert_eq!(!crc32_update(crc32_update(CRC_INIT, a), b), want, "split {}", split);
            }
        }

        /// The streaming reader — over a slice and through windows far
        /// smaller than a record — reads what the whole-file parser read:
        /// on the intact image, cut at every byte, and under bit flips.
        #[test]
        fn parse_journal_equals_the_oracle_on_cuts_and_bit_flips(
            records in prop::collection::vec((0u8..4, 1u64..4, any::<u64>()), 0..28usize),
        ) {
            let image = journal_image(&records);
            for cut in 0..=image.len() {
                let want = outcome(parse_journal_oracle(&image[..cut]));
                prop_assert_eq!(outcome(parse_journal(&image[..cut])), want.clone(), "cut {}", cut);
                let window = 1 + cut % 97;
                prop_assert_eq!(
                    outcome(read_journal(&image[..cut], window)),
                    want,
                    "cut {} through a {}-byte window", cut, window
                );
            }
            let mut flipped = image.clone();
            for pos in 0..image.len() {
                flipped[pos] ^= 1 << (pos % 8);
                let want = outcome(parse_journal_oracle(&flipped));
                prop_assert_eq!(outcome(parse_journal(&flipped)), want.clone(), "flip at {}", pos);
                prop_assert_eq!(
                    outcome(read_journal(flipped.as_slice(), 64)),
                    want,
                    "flip at {} through a window", pos
                );
                flipped[pos] = image[pos];
            }
        }
    }
}

/// Dropping events as each snapshot is passed is only exact while horizons
/// never step back, so a journal where one does — nothing a writer emits —
/// is refused rather than read differently from before.
#[test]
fn a_snapshot_horizon_below_an_earlier_one_is_typed_corrupt() {
    let mut image = JOURNAL_MAGIC.to_vec();
    for seq in 0..5 {
        image.extend(event_frame(&ev(seq)));
    }
    image.extend(snapshot_frame(4, b"later"));
    image.extend(event_frame(&ev(5)));
    let second = image.len() as u64;
    image.extend(snapshot_frame(2, b"earlier"));
    match parse_journal(&image) {
        Err(JournalError::Corrupt { offset, reason }) => {
            assert_eq!(offset, second);
            assert!(reason.contains("below an earlier"), "{reason}");
        }
        other => panic!("accepted a horizon stepping back: {other:?}"),
    }
    // Equal horizons (two snapshots with no event between) stay legal.
    let len = image.len() - snapshot_frame(2, b"earlier").len();
    image.truncate(len);
    image.extend(snapshot_frame(4, b"again"));
    let loaded = parse_journal(&image).unwrap();
    assert_eq!(loaded.snapshot.unwrap().state, b"again");
    assert_eq!(loaded.events.len(), 1);
}

/// The reader builds nothing for an event a later snapshot summarises, so
/// its check is all that stands between such a payload and a silent read.
#[test]
fn an_undecodable_event_a_snapshot_summarises_is_still_corrupt() {
    // Each of the five ways, over a `String` field and an `Arc<str>` one.
    for x in (0..200).step_by(4) {
        let mut image = JOURNAL_MAGIC.to_vec();
        image.extend(event_frame(&ev(0)));
        let bad = image.len() as u64;
        image.extend(undecodable_event_frame(1, x));
        image.extend(event_frame(&ev(2)));
        image.extend(snapshot_frame(2, b"covers all three"));
        image.extend(event_frame(&ev(3)));
        for read in [parse_journal(&image), read_journal(image.as_slice(), 16)] {
            match read {
                Err(JournalError::Corrupt { offset, reason }) => {
                    assert_eq!(offset, bad, "x = {x}: {reason}");
                    assert!(reason.starts_with("undecodable event: "), "{reason}");
                }
                other => panic!("x = {x}: accepted an undecodable event: {other:?}"),
            }
        }
    }
}

/// The writer frames records as the old one did; a snapshot starts the file
/// over, so the events it covers are gone and it is the first record.
#[test]
fn writer_bytes_equal_the_old_framing() {
    let path = tmp("framing.jrnl");
    let j = Journal::create(&path, JournalConfig { fsync_every: 3 }).unwrap();
    let mut before = JOURNAL_MAGIC.to_vec();
    for seq in 0..7 {
        j.append_event(&ev(seq)).unwrap();
        before.extend(event_frame(&ev(seq)));
    }
    j.sync().unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), before);
    j.append_snapshot(6, b"state").unwrap();
    j.append_event(&ev(7)).unwrap();
    j.sync().unwrap();
    let mut want = JOURNAL_MAGIC.to_vec();
    want.extend(snapshot_frame(6, b"state"));
    want.extend(event_frame(&ev(7)));
    assert_eq!(std::fs::read(&path).unwrap(), want);
    let _ = std::fs::remove_file(&path);
}

/// A snapshot below an event already appended would drop that event with
/// the old file, so it is refused before anything is written, and the
/// writer stays usable.
#[test]
fn a_snapshot_below_an_appended_event_is_refused_and_writes_nothing() {
    let path = tmp("horizon.jrnl");
    let j = Journal::create(&path, JournalConfig { fsync_every: 1 }).unwrap();
    for seq in 0..5 {
        j.append_event(&ev(seq)).unwrap();
    }
    let before = std::fs::read(&path).unwrap();
    let e = j
        .append_snapshot(3, b"behind")
        .expect_err("seq 4 is above 3");
    assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    assert!(e.to_string().contains("would drop appended event 4"), "{e}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "the file is untouched"
    );
    assert!(!next_path(&path).exists(), "no next file was made");
    assert_eq!(j.appended(), 5);

    j.append_snapshot(4, b"level").unwrap();
    j.append_event(&ev(5)).unwrap();
    let loaded = open_journal(&path).unwrap();
    assert_eq!(loaded.snapshot.map(|s| s.state), Some(b"level".to_vec()));
    assert_eq!(loaded.events, vec![ev(5)]);
    let _ = std::fs::remove_file(&path);
}

// ── the rotation's crash contract: every state a crash can leave on disk ──

/// A journal holding events 0..6, all of them durable.
fn six_events(path: &Path) -> Journal {
    let j = Journal::create(path, JournalConfig { fsync_every: 4 }).unwrap();
    for seq in 0..6 {
        j.append_event(&ev(seq)).unwrap();
    }
    j.sync().unwrap();
    j
}

/// What `append_snapshot(5, b"rotated")` writes into the next file.
fn rotated_file() -> Vec<u8> {
    let mut bytes = JOURNAL_MAGIC.to_vec();
    bytes.extend(snapshot_frame(5, b"rotated"));
    bytes
}

/// A crash before the rename leaves the old file intact beside some prefix
/// of the next one (none, torn at any byte, or complete): the journal reads
/// exactly as it did before the rotation began.
#[test]
fn a_crash_before_the_rename_reads_the_old_journal() {
    let path = tmp("rotate-before.jrnl");
    drop(six_events(&path));
    let before = outcome(open_journal(&path));
    assert!(matches!(&before, Ok((None, events, 0)) if events.len() == 6));
    let next = rotated_file();
    for cut in 0..=next.len() {
        std::fs::write(next_path(&path), &next[..cut]).unwrap();
        assert_eq!(
            outcome(open_journal(&path)),
            before,
            "next file cut at {cut}"
        );
    }
    let _ = std::fs::remove_file(next_path(&path));
    let _ = std::fs::remove_file(&path);
}

/// After the rename the file is the snapshot, as its first record, and the
/// events appended since.
#[test]
fn after_the_rename_the_snapshot_is_the_first_record() {
    let path = tmp("rotate-after.jrnl");
    let j = six_events(&path);
    j.append_snapshot(5, b"rotated").unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        rotated_file(),
        "durable on return"
    );
    assert!(!next_path(&path).exists(), "renamed, not copied");
    for seq in 6..9 {
        j.append_event(&ev(seq)).unwrap();
    }
    j.sync().unwrap();
    let mut want = rotated_file();
    for seq in 6..9 {
        want.extend(event_frame(&ev(seq)));
    }
    assert_eq!(std::fs::read(&path).unwrap(), want);
    let loaded = open_journal(&path).unwrap();
    assert_eq!(loaded.snapshot.map(|s| s.through_seq), Some(5));
    assert_eq!(loaded.events, (6..9).map(ev).collect::<Vec<_>>());
    let _ = std::fs::remove_file(&path);
}

/// A next file a crash left behind, longer than what the next rotation
/// writes, is truncated by it: nothing of the stale bytes survives.
#[test]
fn a_stale_next_file_is_truncated_by_the_next_rotation() {
    let path = tmp("rotate-stale.jrnl");
    std::fs::write(next_path(&path), vec![0xA5; 4 * rotated_file().len()]).unwrap();
    let j = six_events(&path);
    j.append_snapshot(5, b"rotated").unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), rotated_file());
    assert!(!next_path(&path).exists());
    let _ = std::fs::remove_file(&path);
}

/// A process killed after a rotation (no drop, no flush) loses at most the
/// open commit group, as it would without one.
#[test]
fn a_killed_process_loses_at_most_one_open_group_after_a_rotation() {
    let path = tmp("rotate-killed.jrnl");
    let j = six_events(&path);
    j.append_snapshot(5, b"rotated").unwrap();
    for seq in 6..13 {
        j.append_event(&ev(seq)).unwrap();
    }
    // The process dies here: the handle never drops, the group never flushes.
    std::mem::forget(j);
    let loaded = open_journal(&path).unwrap();
    assert_eq!(loaded.snapshot.map(|s| s.through_seq), Some(5));
    assert_eq!(
        loaded.events,
        (6..10).map(ev).collect::<Vec<_>>(),
        "one group of 4 closed"
    );
    assert_eq!(loaded.truncated_bytes, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn records_reach_the_file_a_commit_group_at_a_time() {
    let path = tmp("groups.jrnl");
    let on_disk = || open_journal(&path).unwrap().events.len();

    let j = Journal::create(&path, JournalConfig { fsync_every: 4 }).unwrap();
    for seq in 0..3 {
        j.append_event(&ev(seq)).unwrap();
    }
    assert_eq!(on_disk(), 0, "an open group is still in the buffer");
    assert_eq!(j.appended(), 3, "but its records are counted");
    j.append_event(&ev(3)).unwrap();
    assert_eq!(on_disk(), 4, "the fsync_every-th record closes the group");
    j.append_event(&ev(4)).unwrap();
    j.append_snapshot(4, b"s").unwrap();
    j.append_event(&ev(5)).unwrap();
    assert_eq!(on_disk(), 0, "a snapshot closes the group it lands in");
    assert!(open_journal(&path).unwrap().snapshot.is_some());
    j.sync().unwrap();
    assert_eq!(on_disk(), 1, "sync closes the group");

    // fsync_every = 1 is write-through.
    let j = Journal::create(&path, JournalConfig { fsync_every: 1 }).unwrap();
    j.append_event(&ev(0)).unwrap();
    assert_eq!(on_disk(), 1);

    // With no sync boundary at all, the buffer still drains once it passes
    // 64 KiB.
    let j = Journal::create(&path, JournalConfig { fsync_every: 0 }).unwrap();
    let record = event_frame(&ev(0)).len();
    let fills = FLUSH_BYTES.div_ceil(record) as u64;
    for seq in 0..fills - 1 {
        j.append_event(&ev(seq)).unwrap();
    }
    assert_eq!(on_disk(), 0);
    j.append_event(&ev(fills - 1)).unwrap();
    assert_eq!(on_disk() as u64, fills);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_handle_dropped_without_sync_leaves_every_record_readable() {
    let path = tmp("dropped.jrnl");
    let j = Journal::create(&path, JournalConfig { fsync_every: 0 }).unwrap();
    let clone = j.clone();
    for seq in 0..10 {
        j.append_event(&ev(seq)).unwrap();
    }
    drop(j);
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        JOURNAL_MAGIC.len() as u64,
        "another handle is alive: the group stays open"
    );
    assert_eq!(clone.appended(), 10, "buffered records are counted");
    drop(clone);
    let loaded = open_journal(&path).unwrap();
    assert_eq!(loaded.events.len(), 10);
    assert_eq!(loaded.truncated_bytes, 0);
    let _ = std::fs::remove_file(&path);
}

/// A journal writing to `/dev/full`: every write fails with `ENOSPC`.
/// (`Journal::create` cannot open one: its magic write already fails.)
#[cfg(target_os = "linux")]
fn journal_on_a_full_disk(config: JournalConfig) -> Journal {
    let file = OpenOptions::new().write(true).open("/dev/full").unwrap();
    Journal::over(file, PathBuf::from("/dev/full"), config)
}

#[cfg(target_os = "linux")]
#[test]
fn the_first_write_error_poisons_the_writer() {
    let j = journal_on_a_full_disk(JournalConfig { fsync_every: 2 });
    j.append_event(&ev(0)).expect("buffered, no I/O yet");
    let first = j.append_event(&ev(1)).expect_err("the group's write fails");
    assert_eq!(first.kind(), io::ErrorKind::StorageFull);
    // Every later call repeats that error: a record accepted now would sit
    // behind the lost group with nothing in the file to show the hole.
    for later in [
        j.append_event(&ev(2)),
        j.append_event(&ev(3)),
        j.append_snapshot(3, b"state"),
        j.sync(),
    ] {
        let e = later.expect_err("poisoned");
        assert_eq!(e.kind(), first.kind());
        assert_eq!(e.to_string(), first.to_string());
    }
}

#[cfg(target_os = "linux")]
#[test]
fn the_event_log_keeps_the_first_journal_error() {
    let log = crate::EventLog::new(16);
    log.set_journal(journal_on_a_full_disk(JournalConfig { fsync_every: 2 }));
    for seq in 0..6 {
        log.record(SimTime::from_secs(seq), Event::JobStarted { job: seq });
    }
    let error = log.journal_error().expect("the failed group is reported");
    assert!(
        error.contains("at seq 1"),
        "first failure, not a later one: {error}"
    );
    assert_eq!(log.len(), 6, "the in-memory log is unharmed");
}

/// A source that counts the bytes read from it.
struct Counted<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// The kinds of a journal file's whole frames, in file order.
fn frame_kinds(bytes: &[u8]) -> Vec<u8> {
    let mut at = JOURNAL_MAGIC.len();
    let mut kinds = Vec::new();
    while let Some(size) = frame_size(&bytes[at..]).filter(|size| at + size <= bytes.len()) {
        kinds.push(bytes[at]);
        at += size;
    }
    kinds
}

/// Recovery reads what the live state and one snapshot interval hold, not
/// the history: ten times the uptime, with ten times the snapshots, reads
/// the same bytes (the magic, the last snapshot, the tail) and checks the
/// same events (the tail) as the short run.
#[test]
fn recovery_reads_the_last_snapshot_and_its_tail_whatever_the_uptime() {
    const INTERVAL: u64 = 500;
    const TAIL: u64 = 73;
    let blob = vec![0x5a; 4096];
    let mut reads = Vec::new();
    for intervals in [3, 30] {
        let path = tmp(&format!("uptime-{intervals}.jrnl"));
        let j = Journal::create(&path, JournalConfig::default()).unwrap();
        for seq in 0..intervals * INTERVAL {
            j.append_event(&ev(seq)).unwrap();
            if (seq + 1).is_multiple_of(INTERVAL) {
                j.append_snapshot(seq, &blob).unwrap();
            }
        }
        let horizon = intervals * INTERVAL - 1;
        let tail: Vec<TimedEvent> = (horizon + 1..=horizon + TAIL).map(ev).collect();
        for e in &tail {
            j.append_event(e).unwrap();
        }
        j.sync().unwrap();

        let kinds = frame_kinds(&std::fs::read(&path).unwrap());
        let (first, rest) = kinds.split_first().unwrap();
        assert_eq!(*first, KIND_SNAPSHOT, "the snapshot opens the file");
        assert!(
            rest.iter().all(|k| *k == KIND_EVENT),
            "and only events follow"
        );
        let checked = rest.len() as u64;
        assert_eq!(checked, TAIL, "the reader checks the tail and nothing else");

        let mut src = Counted {
            inner: File::open(&path).unwrap(),
            bytes: 0,
        };
        let loaded = read_journal(&mut src, READ_WINDOW).unwrap();
        let want = JOURNAL_MAGIC.len()
            + snapshot_frame(horizon, &blob).len()
            + tail.iter().map(|e| event_frame(e).len()).sum::<usize>();
        assert_eq!(src.bytes, want as u64, "{intervals} intervals");
        assert_eq!(
            loaded.snapshot.map(|s| (s.through_seq, s.state)),
            Some((horizon, blob.clone()))
        );
        assert_eq!(loaded.events, tail);
        reads.push((src.bytes, checked));
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(
        reads[0], reads[1],
        "10x the uptime reads the same bytes and events"
    );
}
