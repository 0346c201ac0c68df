//! Exhaustive codec integrity: every `Event` variant, with randomized
//! field values, must survive encode → decode bit-identically, and every
//! malformed input must come back as a typed [`CodecError`] — never a
//! panic and never a silently wrong record. The variants come from
//! [`Event::catalog`], which the `events!` table generates, so a new row is
//! covered the moment it exists; what the table cannot promise — that
//! yesterday's bytes still mean the same thing — is the frozen fixture's job.

use cg_sim::SimTime;
use cg_trace::{
    decode_event, encode_event, CodecError, Event, FieldSamples, TimedEvent, RETIRED_TAGS,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

/// Strings exercising the length-prefixed codec path: empty, ASCII,
/// multi-byte UTF-8, embedded quotes/newlines/NULs, and a long tail.
fn tricky_strings() -> Vec<String> {
    vec![
        String::new(),
        "alice".to_string(),
        "site:cesga".to_string(),
        "å∆ \"quoted\"\npath\\seg".to_string(),
        "\u{0}\u{1f}".to_string(),
        "x".repeat(300),
    ]
}

/// One instance of every variant with fixed scalars: the variant set the
/// frozen fixture must cover.
fn catalog() -> Vec<Event> {
    Event::catalog(FieldSamples {
        u64s: [7, 9],
        u32: 3,
        flag: true,
        f64: 0.5,
        strs: ["cesga", "agent:3"],
    })
}

/// The wire tag of every variant, read off its encoding.
fn catalog_tags() -> BTreeSet<u8> {
    let tag = |event| {
        let te = TimedEvent {
            at: SimTime::ZERO,
            seq: 0,
            event,
        };
        let mut buf = Vec::new();
        encode_event(&te, &mut buf);
        buf[16]
    };
    catalog().into_iter().map(tag).collect()
}

/// The journal's cross-version compatibility lock: one line per record,
/// `tag<TAB>hex(encode_event bytes)<TAB>to_json()`, written once by the
/// hand-written codec this crate shipped before the `events!` table. A
/// line whose tag has since been retired stays, and must decode to
/// `BadTag`.
const WIRE_FIXTURE: &str = include_str!("fixtures/event_wire_v1.txt");

/// A record as a fixture line.
fn wire_line(te: &TimedEvent) -> String {
    let mut bytes = Vec::new();
    encode_event(te, &mut bytes);
    let mut hex = String::with_capacity(2 * bytes.len());
    for b in &bytes {
        let _ = write!(hex, "{b:02x}");
    }
    // Layout: at(8) seq(8) tag(1) fields…
    format!("{}\t{hex}\t{}", bytes[16], te.to_json())
}

#[test]
fn the_wire_format_is_frozen() {
    let mut kind_of_tag: BTreeMap<u8, &'static str> = BTreeMap::new();
    let mut retired = Vec::new();
    for (n, line) in WIRE_FIXTURE.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let n = n + 1;
        let cols: Vec<&str> = line.splitn(3, '\t').collect();
        assert_eq!(cols.len(), 3, "line {n}: want tag, hex and JSON columns");
        let tag: u8 = cols[0].parse().unwrap_or_else(|e| panic!("line {n}: {e}"));
        let hex = cols[1];
        assert!(
            hex.is_ascii() && hex.len().is_multiple_of(2),
            "line {n}: ragged hex"
        );
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("line {n}: {e}"));
        if let Some((_, name)) = RETIRED_TAGS.iter().find(|(t, _)| *t == tag) {
            assert_eq!(
                decode_event(&bytes),
                Err(CodecError::BadTag(tag)),
                "line {n}"
            );
            let named = format!("\"event\":\"{name}\"");
            assert!(cols[2].contains(&named), "line {n}: retired as {name}");
            retired.push(tag);
            continue;
        }
        let te = decode_event(&bytes).unwrap_or_else(|e| panic!("line {n}: {e}"));
        let kind = te.event.kind();
        assert_eq!(bytes[16], tag, "line {n}: tag byte and tag column differ");
        let named = format!("\"event\":\"{kind}\"");
        assert!(cols[2].contains(&named), "line {n}: decodes as {kind}");
        // Same bytes back out of the encoder, same JSON out of the writer.
        assert_eq!(wire_line(&te), line, "line {n} ({kind})");
        let owner = *kind_of_tag.entry(tag).or_insert(kind);
        assert_eq!(owner, kind, "line {n}: tag {tag} names two variants");
    }
    let seen: BTreeSet<&str> = kind_of_tag.values().copied().collect();
    assert_eq!(seen.len(), kind_of_tag.len(), "one variant under two tags");
    // A variant the fixture lacks: the message is the line to append.
    let missing: Vec<String> = (0u64..)
        .zip(catalog())
        .filter(|(_, event)| !seen.contains(event.kind()))
        .map(|(seq, event)| {
            let at = SimTime::from_nanos(seq);
            wire_line(&TimedEvent { at, seq, event })
        })
        .collect();
    assert!(
        missing.is_empty(),
        "variants without a line in event_wire_v1.txt; append:\n{}",
        missing.join("\n")
    );
    assert_eq!(seen.len(), catalog().len(), "a line no variant owns");
    let every_retired: Vec<u8> = RETIRED_TAGS.iter().map(|(t, _)| *t).collect();
    assert_eq!(
        retired, every_retired,
        "each retired tag keeps its one line"
    );
}

#[test]
fn the_catalog_covers_every_variant_once() {
    let events = catalog();
    let kinds: BTreeSet<&'static str> = events.iter().map(Event::kind).collect();
    assert_eq!(kinds.len(), events.len(), "a variant appears twice");
    assert_eq!(
        catalog_tags().len(),
        events.len(),
        "two variants share a tag"
    );
}

/// Names are `Arc<str>` and free text is `String`, but both draw from the
/// same alternating pair of samples, so neighbouring string fields differ
/// whichever types they have — the premise that makes a codec which swapped
/// two of them fail the round trip below.
#[test]
fn neighbouring_string_fields_alternate_across_both_string_types() {
    let samples = FieldSamples {
        u64s: [7, 9],
        u32: 3,
        flag: true,
        f64: 0.5,
        strs: ["s", "t"],
    };
    let mut neighbours = BTreeSet::new();
    for event in Event::catalog(samples) {
        let kind = event.kind();
        let json = TimedEvent {
            at: SimTime::ZERO,
            seq: 0,
            event,
        }
        .to_json();
        // Each string value follows a `":"`; the first is the `event` kind.
        let values: Vec<&str> = json.split("\":\"").skip(2).map(|v| &v[..1]).collect();
        for pair in values.windows(2) {
            assert_ne!(pair[0], pair[1], "{kind}: neighbours share a sample");
            neighbours.insert(kind);
        }
    }
    // `Arc<str>` then `String`, `String` then `String`, `Arc<str>` twice.
    for kind in ["BufferFlush", "JdlDiagnostic", "PolicyDecision"] {
        assert!(neighbours.contains(kind), "{kind} has neighbouring strings");
    }
}

#[test]
fn corrupted_utf8_is_a_typed_error() {
    let samples = FieldSamples {
        u64s: [7, 9],
        u32: 3,
        flag: true,
        f64: 0.5,
        strs: ["abc", "abc"],
    };
    let mut with_a_string = 0;
    for event in Event::catalog(samples) {
        let te = TimedEvent {
            at: SimTime::from_nanos(5),
            seq: 9,
            event,
        };
        let mut buf = Vec::new();
        encode_event(&te, &mut buf);
        // The variant's first string field, if it has one.
        let Some(at) = buf.windows(3).position(|w| w == b"abc") else {
            continue;
        };
        buf[at] = 0xff;
        let kind = te.event.kind();
        assert_eq!(decode_event(&buf), Err(CodecError::BadUtf8), "{kind}");
        with_a_string += 1;
    }
    assert!(with_a_string > 0, "no variant carries a string");
}

proptest! {
    /// Every variant, arbitrary field values: encode → decode is identity.
    #[test]
    fn every_variant_roundtrips_bit_identically(
        a in any::<u64>(),
        b in any::<u64>(),
        small in any::<u32>(),
        flag in any::<bool>(),
        x in -1.0e12..1.0e12f64,
        s in prop::sample::select(tricky_strings()),
        t in prop::sample::select(tricky_strings()),
        at in any::<u64>(),
        seq in any::<u64>(),
    ) {
        let samples = FieldSamples { u64s: [a, b], u32: small, flag, f64: x, strs: [&s, &t] };
        for event in Event::catalog(samples) {
            let te = TimedEvent {
                at: SimTime::from_nanos(at),
                seq,
                event,
            };
            let mut buf = Vec::new();
            encode_event(&te, &mut buf);
            let back = decode_event(&buf);
            prop_assert_eq!(back.as_ref(), Ok(&te), "{} did not roundtrip", te.event.kind());
        }
    }

    /// Every strict prefix of every variant's encoding fails with
    /// `UnexpectedEof` — the codec never reads past the buffer and never
    /// fabricates a record from partial bytes.
    #[test]
    fn every_truncation_of_every_variant_is_unexpected_eof(
        a in any::<u64>(),
        b in any::<u64>(),
        small in any::<u32>(),
        s in prop::sample::select(tricky_strings()),
    ) {
        let samples = FieldSamples { u64s: [a, b], u32: small, flag: true, f64: 1.5, strs: [&s, "t"] };
        for event in Event::catalog(samples) {
            let te = TimedEvent { at: SimTime::from_nanos(1), seq: 2, event };
            let mut buf = Vec::new();
            encode_event(&te, &mut buf);
            for cut in 0..buf.len() {
                prop_assert_eq!(
                    decode_event(&buf[..cut]),
                    Err(CodecError::UnexpectedEof),
                    "{} truncated to {} bytes",
                    te.event.kind(),
                    cut
                );
            }
        }
    }

    /// An unknown tag byte is `BadTag(tag)`, whatever the surrounding bytes.
    #[test]
    fn unknown_tags_are_badtag(at in any::<u64>(), seq in any::<u64>(), raw in any::<u8>()) {
        // Every byte the table does not use must be rejected by value.
        let known = catalog_tags();
        let unknown: Vec<u8> = (0..=u8::MAX).filter(|t| !known.contains(t)).collect();
        let tag = unknown[usize::from(raw) % unknown.len()];
        let mut buf = Vec::new();
        buf.extend_from_slice(&at.to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.push(tag);
        prop_assert_eq!(decode_event(&buf), Err(CodecError::BadTag(tag)));
    }

    /// Bytes past a complete record are `TrailingBytes` for every variant.
    #[test]
    fn trailing_bytes_are_rejected_for_every_variant(
        a in any::<u64>(),
        extra in any::<u8>(),
        s in prop::sample::select(tricky_strings()),
    ) {
        let samples = FieldSamples { u64s: [a, 7], u32: 3, flag: false, f64: 2.5, strs: [&s, "t"] };
        for event in Event::catalog(samples) {
            let te = TimedEvent { at: SimTime::from_nanos(1), seq: 2, event };
            let mut buf = Vec::new();
            encode_event(&te, &mut buf);
            buf.push(extra);
            prop_assert_eq!(
                decode_event(&buf),
                Err(CodecError::TrailingBytes),
                "{} with a trailing byte",
                te.event.kind()
            );
        }
    }
}
