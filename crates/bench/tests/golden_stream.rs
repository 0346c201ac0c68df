//! The event stream of the whole churn suite (four seeded broker days under
//! flapping, rolling-upgrade, mass-join and correlated-failure churn), byte
//! for byte: a host-side optimisation must not add, drop, reorder or re-time
//! a single event. A PR that moves the hash on purpose records the new one
//! and says why. History: recorded at the parent of PR 13 (shared machine
//! ads); re-recorded in PR 16 when a finished shared job stopped counting
//! as in flight on its (still live) agent's site — 8 of the 11 755 lines
//! changed, every one a `SiteDead.in_flight` value (e.g. `churn00` 7 → 0);
//! re-recorded when the index's instantaneous refresh walk became the
//! refresh sweep with no window, because a site whose publication path is
//! down at boot now holds a placeholder column under every index instead of
//! advertising its real ad. Only the mass-join day moves (11 755 → 11 732
//! lines): the broker no longer live-queries joiners that have never
//! published, so its `QueryRetry` events go 36 → 0 and `SiteDead` 18 → 14,
//! with the same 175 submitted, 169 done, 6 failed and 0 lost.

use std::process::Command;

/// FNV-1a over the bytes of a JSONL stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn churn_suite_event_stream_matches_the_recorded_golden() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("churn_suite.golden.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_churn_suite"))
        .env("CG_TRACE_JSONL", &path)
        .output()
        .expect("run churn_suite");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read(&path).expect("churn_suite wrote its JSONL stream");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        fnv1a(&jsonl),
        0xe12d_a6b8_cbcf_28cf,
        "the churn suite's event stream changed ({} bytes)",
        jsonl.len()
    );
}
