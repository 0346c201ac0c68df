//! Integration tests of `cgrun lint`: the submit-time JDL analyzer driven
//! through the real binary over the checked-in fixture files, asserting
//! span accuracy, stable error codes, and exit statuses.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(rel: &str) -> String {
    let p: PathBuf = [env!("CARGO_MANIFEST_DIR"), "examples", "jdl", rel]
        .iter()
        .collect();
    p.to_string_lossy().into_owned()
}

/// Every `*.jdl` file directly under `examples/jdl/{dir}`, sorted.
fn fixtures_in(dir: &str) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(fixture(dir))
        .expect("fixture directory readable")
        .map(|entry| entry.expect("directory entry readable").path())
        .filter(|path| path.extension().is_some_and(|e| e == "jdl"))
        .map(|path| path.to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures in examples/jdl/{dir}");
    files
}

fn lint(files: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cgrun"))
        .arg("lint")
        .args(files)
        .output()
        .unwrap()
}

/// Every checked-in good fixture lints clean, in one batch.
#[test]
fn clean_fixtures_lint_quietly() {
    let files = fixtures_in("");
    let args: Vec<&str> = files.iter().map(String::as_str).collect();
    let out = lint(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let clean = format!("{} file(s) clean", files.len());
    assert!(stdout.contains(&clean), "{stdout}");
    assert!(!stdout.contains("error["), "{stdout}");
    assert!(!stdout.contains("warning["), "{stdout}");
}

/// Every warn fixture exits 0 but prints its warning: a silent pass means
/// the diagnostic regressed.
#[test]
fn every_warn_fixture_exits_zero_with_a_warning() {
    for file in fixtures_in("warn") {
        let out = lint(&[&file]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{file}: {stdout}");
        assert!(stdout.contains("warning["), "{file}: {stdout}");
    }
}

/// Every bad fixture fails with exit 1: not 0, not a usage error, not a
/// crash.
#[test]
fn every_bad_fixture_exits_one() {
    for file in fixtures_in("bad") {
        let out = lint(&[&file]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{file}: {stdout}");
    }
}

#[test]
fn unknown_attribute_reports_e101_with_span() {
    let out = lint(&[&fixture("bad/unknown_attr.jdl")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout.contains("error[E101]"), "{stdout}");
    assert!(stdout.contains("unknown_attr.jdl:4:16"), "{stdout}");
    assert!(stdout.contains("other.FreeCpu"), "{stdout}");
    assert!(stdout.contains("sites advertise"), "{stdout}");
}

#[test]
fn type_mismatch_reports_e102_at_the_operator() {
    let out = lint(&[&fixture("bad/type_mismatch.jdl")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout.contains("error[E102]"), "{stdout}");
    assert!(stdout.contains("type_mismatch.jdl:4:31"), "{stdout}");
}

#[test]
fn unsatisfiable_requirements_reports_e108() {
    let out = lint(&[&fixture("bad/unsat.jdl")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout.contains("error[E108]"), "{stdout}");
    assert!(stdout.contains("can never match"), "{stdout}");
    assert!(stdout.contains("FreeCpus"), "{stdout}");
}

#[test]
fn non_numeric_rank_reports_e107() {
    let out = lint(&[&fixture("bad/rank_not_numeric.jdl")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout.contains("error[E107]"), "{stdout}");
    assert!(stdout.contains("rank_not_numeric.jdl:4:14"), "{stdout}");
}

#[test]
fn selection_policy_fixture_lints_clean() {
    let out = lint(&[&fixture("policy_forecast.jdl")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("1 file(s) clean"), "{stdout}");
}

#[test]
fn unknown_selection_policy_warns_w207_but_exits_zero() {
    let out = lint(&[&fixture("warn/policy_unknown.jdl")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Advisory only: the broker falls back to its default policy, so the
    // lint gate must NOT fail the file — CI treats exit 0 + warning text
    // as "clean with notes".
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("warning[W207]"), "{stdout}");
    assert!(stdout.contains("policy_unknown.jdl:6:1"), "{stdout}");
    assert!(stdout.contains("falls back"), "{stdout}");
    assert!(stdout.contains("0 error(s), 1 warning(s)"), "{stdout}");
}

#[test]
fn wrong_typed_selection_policy_is_an_error() {
    let out = lint(&[&fixture("bad/policy_wrong_type.jdl")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("error[E102]"), "{stdout}");
    assert!(stdout.contains("policy_wrong_type.jdl:4"), "{stdout}");
    // The wrong type is a hard error, never the advisory unknown-name path.
    assert!(!stdout.contains("W207"), "{stdout}");
}

#[test]
fn mixed_batch_still_fails_and_counts_both() {
    let out = lint(&[&fixture("figure2.jdl"), &fixture("bad/unsat.jdl")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout.contains("1 error(s)"), "{stdout}");
}

#[test]
fn usage_and_missing_file_exit_2() {
    let out = lint(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = lint(&["/nonexistent/nope.jdl"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn diagnostics_render_a_caret_under_the_offending_column() {
    let out = lint(&[&fixture("bad/unknown_attr.jdl")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The source line and a caret line beneath it.
    assert!(
        stdout.contains("4 | Requirements = other.FreeCpu > 1;"),
        "{stdout}"
    );
    let caret_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with('|') && l.contains('^'))
        .expect("caret line");
    // Column 16 → caret under `other`.
    assert_eq!(caret_line.find('^'), Some("  | ".len() + 15), "{stdout}");
}

/// The ads the examples construct — the quickstart JDL and the synthetic
/// workload population the `grid_day`/`trace_stream` examples submit — must
/// all pass the analyzer that now gates broker submit.
#[test]
fn example_ads_are_analyzer_clean() {
    use crossgrid::jdl::JobDescription;
    use crossgrid::sim::{SimDuration, SimRng, SimTime};
    use crossgrid::workloads::{poisson_arrivals, JobMix};

    let quickstart = JobDescription::parse(
        r#"
        Executable     = "hep_event_display";
        JobType        = "interactive";
        MachineAccess  = "exclusive";
        StreamingMode  = "reliable";
        User           = "alice";
    "#,
    )
    .unwrap();
    let a = quickstart.analyze();
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);

    let mut rng = SimRng::new(7);
    let arrivals = poisson_arrivals(
        &mut rng,
        &JobMix::default(),
        SimDuration::from_secs(60),
        SimTime::from_secs(4 * 3_600),
    );
    assert!(!arrivals.is_empty());
    for arr in &arrivals {
        let a = arr.job.analyze();
        assert!(
            !a.has_errors(),
            "workload job rejected: {:?}",
            a.diagnostics
        );
    }
}
