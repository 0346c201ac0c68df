//! Conformance tests over the paired fixtures in `examples/lint/`: every
//! `bad.rs` must trigger exactly its pass's documented codes, every
//! `good.rs` must come back clean — including through the
//! `// cg-lint: allow(...)` escape hatches the good fixtures exercise.

use cg_lint::{lint_root, Report, Severity};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/lint")
        .join(name)
}

fn lint_fixture(name: &str) -> Report {
    lint_root(&fixture(name)).expect("fixture dir readable")
}

/// Codes of the findings landing in `file`, sorted.
fn codes_in(report: &Report, file: &str) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = report
        .findings
        .iter()
        .filter(|f| f.path == file)
        .map(|f| f.diag.code)
        .collect();
    codes.sort_unstable();
    codes
}

#[test]
fn l1_bad_fixture_flags_every_wall_clock_and_rng() {
    let report = lint_fixture("l1_determinism");
    assert_eq!(codes_in(&report, "bad.rs"), ["L101", "L101", "L101"]);
    assert!(report.has_errors());
}

#[test]
fn l1_good_fixture_is_clean_via_sim_clock_and_escape_hatch() {
    let report = lint_fixture("l1_determinism");
    assert_eq!(codes_in(&report, "good.rs"), [] as [&str; 0]);
}

#[test]
fn l2_bad_fixture_flags_io_under_lock_and_nested_guards() {
    let report = lint_fixture("l2_locks");
    assert_eq!(codes_in(&report, "bad.rs"), ["L201", "L202"]);
    assert!(report.has_errors());
}

#[test]
fn l2_good_fixture_is_clean_via_drop_and_documented_order() {
    let report = lint_fixture("l2_locks");
    assert_eq!(codes_in(&report, "good.rs"), [] as [&str; 0]);
}

#[test]
fn l3_bad_fixture_flags_all_three_purity_breaches() {
    let report = lint_fixture("l3_policy");
    assert_eq!(codes_in(&report, "bad.rs"), ["L301", "L302", "L303"]);
    assert!(report.has_errors());
}

#[test]
fn l3_good_fixture_is_clean() {
    let report = lint_fixture("l3_policy");
    assert_eq!(codes_in(&report, "good.rs"), [] as [&str; 0]);
}

#[test]
fn w5_bad_fixture_warns_without_failing_the_error_gate() {
    let report = lint_fixture("w5_allow");
    assert_eq!(codes_in(&report, "bad.rs"), ["W501"]);
    let w501 = report
        .findings
        .iter()
        .find(|f| f.diag.code == "W501")
        .expect("just asserted");
    assert_eq!(w501.diag.severity, Severity::Warning);
    // Warnings alone do not trip has_errors — that's what --check is for.
    assert!(!report.has_errors());
}

#[test]
fn w5_good_fixture_is_clean() {
    let report = lint_fixture("w5_allow");
    assert_eq!(codes_in(&report, "good.rs"), [] as [&str; 0]);
}

#[test]
fn rendered_report_carries_codes_carets_and_summary() {
    let report = lint_fixture("l1_determinism");
    let rendered = report.render();
    assert!(rendered.contains("L101"), "missing code:\n{rendered}");
    assert!(rendered.contains('^'), "missing caret line:\n{rendered}");
    assert!(
        rendered.contains("3 error(s), 0 warning(s) across 2 file(s)"),
        "missing summary:\n{rendered}"
    );
}
