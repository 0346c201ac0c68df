//! Exhaustive codec integrity: every `Event` variant, with randomized
//! field values, must survive encode → decode bit-identically, and every
//! malformed input must come back as a typed [`CodecError`] — never a
//! panic and never a silently wrong record. This is the value-level twin
//! of `cg-lint`'s L4 pass (which checks the same codec structurally).

use cg_sim::SimTime;
use cg_trace::{decode_event, encode_event, CodecError, Event, TimedEvent};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

/// One instance of EVERY `Event` variant, fields filled from the generated
/// scalars. Adding an enum variant without extending this list trips
/// `the_catalog_covers_every_variant_once` below, so the exhaustive tests
/// cannot silently go stale.
#[allow(clippy::too_many_lines)] // one constructor per variant, by design
fn all_variants(a: u64, b: u64, small: u32, flag: bool, x: f64, s: &str, t: &str) -> Vec<Event> {
    vec![
        Event::JobSubmitted {
            job: a,
            user: s.to_string(),
            interactive: flag,
        },
        Event::JobAd {
            job: a,
            jdl: t.to_string(),
            runtime_ns: b,
        },
        Event::JobQueued { job: a },
        Event::QueueRetry { job: a },
        Event::LeaseGranted {
            job: a,
            target: s.to_string(),
            until_ns: b,
        },
        Event::JobDispatched {
            job: a,
            target: t.to_string(),
            backend: s.to_string(),
        },
        Event::JobStarted { job: a },
        Event::JobResubmitted {
            job: a,
            attempt: small,
        },
        Event::JobBackoff {
            job: a,
            attempt: small,
            delay_ns: b,
        },
        Event::JobFinished { job: a },
        Event::JobFailed {
            job: a,
            reason: s.to_string(),
        },
        Event::JobCancelled { job: a },
        Event::JdlDiagnostic {
            job: a,
            severity: s.to_string(),
            code: t.to_string(),
            message: s.to_string(),
        },
        Event::JdlRejected {
            job: a,
            errors: small,
        },
        Event::RankNanDiscarded {
            job: a,
            site: s.to_string(),
        },
        Event::PolicyDecision {
            job: a,
            policy: s.to_string(),
            site: t.to_string(),
            score: x,
        },
        Event::FairShareTick { usages: small },
        Event::PriorityChanged {
            usage: a,
            kind: s.to_string(),
        },
        Event::AgentDeployed {
            agent: a,
            site: s.to_string(),
        },
        Event::AgentReady { agent: a },
        Event::AgentDied {
            agent: a,
            reason: t.to_string(),
            voluntary: flag,
        },
        Event::AgentBatchFinished { agent: a },
        Event::BatchYielded {
            agent: a,
            job: b,
            performance_loss: small,
        },
        Event::BatchRestored { agent: a, job: b },
        Event::SlotStarted {
            machine: s.to_string(),
            interactive: flag,
        },
        Event::SlotPreempted {
            machine: s.to_string(),
            batch_rate_pct: small,
        },
        Event::SlotRestored {
            machine: t.to_string(),
        },
        Event::SlotFinished {
            machine: s.to_string(),
            interactive: flag,
        },
        Event::ConsoleConnected { job: a },
        Event::ConsoleRetry {
            job: a,
            attempt: small,
        },
        Event::ConsoleReady { job: a },
        Event::SpoolAppend {
            stream: s.to_string(),
            seq: b,
        },
        Event::SpoolAck {
            stream: t.to_string(),
            seq: b,
        },
        Event::SpoolReplay {
            stream: s.to_string(),
            after: b,
            records: small,
        },
        Event::BufferFlush {
            stream: s.to_string(),
            reason: t.to_string(),
            bytes: b,
        },
        Event::ShadowConnected { rank: small },
        Event::ShadowDisconnected { rank: small },
        Event::LrmsQueued {
            site: s.to_string(),
            job: a,
        },
        Event::LrmsStarted {
            site: s.to_string(),
            job: a,
            nodes: small,
        },
        Event::LrmsFinished {
            site: t.to_string(),
            job: a,
        },
        Event::LrmsKilled {
            site: s.to_string(),
            job: a,
            reason: t.to_string(),
        },
        Event::DispositionEvicted {
            site: s.to_string(),
            job: a,
        },
        Event::BrokerRecovered {
            jobs: a,
            requeued: b,
            resubmitted: a,
            agents_lost: b,
        },
        Event::SiteSuspect {
            site: s.to_string(),
            missed_refreshes: small,
            failed_queries: small,
        },
        Event::SiteDead {
            site: t.to_string(),
            in_flight: small,
        },
        Event::SiteRejoin {
            site: s.to_string(),
            down_ns: b,
        },
        Event::LiveQueryTimeout {
            job: a,
            site: t.to_string(),
            attempt: small,
        },
        Event::QueryRetry {
            job: a,
            site: s.to_string(),
            attempt: small,
            delay_ns: b,
        },
        Event::DegradedMatch {
            job: a,
            staleness_ns: b,
        },
        Event::GiisDelta {
            leaf: small,
            epoch: b,
            changed: small,
        },
        Event::RefreshSweep {
            refreshed: small,
            missed: small,
            amnestied: small,
            late_merges: small,
        },
        Event::Measurement {
            name: s.to_string(),
            value: x,
        },
    ]
}

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
    all_variants(7, 9, 3, true, 0.5, "cesga", "agent:3")
}

/// The journal's cross-version compatibility lock: one line per record,
/// `tag<TAB>hex(encode_event bytes)<TAB>to_json()`, written once by the
/// hand-written codec this crate shipped before the `events!` table.
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
}

#[test]
fn the_catalog_covers_every_variant_once() {
    let events = all_variants(1, 2, 3, true, 0.5, "s", "t");
    let kinds: BTreeSet<&'static str> = events.iter().map(Event::kind).collect();
    assert_eq!(
        kinds.len(),
        events.len(),
        "a variant appears twice in all_variants"
    );
    // The enum has exactly this many variants today; `Event::kind`'s
    // exhaustive match keeps the enum and this count honest together.
    assert_eq!(events.len(), 52);
}

#[test]
fn corrupted_utf8_is_a_typed_error() {
    let te = TimedEvent {
        at: SimTime::from_nanos(5),
        seq: 9,
        event: Event::JobFailed {
            job: 8,
            reason: "abc".to_string(),
        },
    };
    let mut buf = Vec::new();
    encode_event(&te, &mut buf);
    // Layout: at(8) seq(8) tag(1) job(8) len(4) then the string bytes.
    buf[29] = 0xff;
    assert_eq!(decode_event(&buf), Err(CodecError::BadUtf8));
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
        for event in all_variants(a, b, small, flag, x, &s, &t) {
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
        for event in all_variants(a, b, small, true, 1.5, &s, "t") {
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
        // Real tags are dense through 51 (see `encode_event`); anything
        // above must be rejected by value.
        let tag = 52 + (raw % (u8::MAX - 51));
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
        for event in all_variants(a, 7, 3, false, 2.5, &s, "t") {
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
