//! Regression test for the `selection_scaling --check` skip path: on a
//! machine with fewer than 4 cores the gate run must announce itself as
//! skipped (marker in stdout) and exit 77 — not quietly exit 0, which CI
//! logs used to read as "all gates passed". The gates that need no cores
//! run first: timed in an optimised build, announced as skipped too in an
//! unoptimised one.

use std::process::{Command, Output};
use std::sync::Mutex;

/// Runs `selection_scaling --check` as if on `cores` cores. One run at a
/// time: in an optimised build it times the single-threaded gates, and two
/// runs side by side would time each other.
fn check_with_cores(cores: &str) -> Output {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Command::new(env!("CARGO_BIN_EXE_selection_scaling"))
        .arg("--check")
        .env("CG_CHECK_CORES", cores)
        .output()
        .expect("run selection_scaling --check")
}

#[test]
fn sub_four_core_check_is_a_loud_skip_not_a_green_gate() {
    let out = check_with_cores("2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(77), "{stdout}");
    assert!(stdout.contains("SKIPPED speedup gate"), "{stdout}");
    assert!(stdout.contains("only 2 cores"), "{stdout}");
    assert!(!stdout.contains("all gates passed"), "{stdout}");
    // The single-threaded gates do not wait for cores: they ran (their
    // tables are in the output) unless the build makes timing meaningless.
    assert_eq!(
        stdout.contains("SKIPPED timing gates"),
        cfg!(debug_assertions),
        "{stdout}"
    );
    assert_eq!(
        stdout.contains("compiled map scan vs columnar snapshot"),
        !cfg!(debug_assertions),
        "{stdout}"
    );
}

#[test]
fn one_core_skip_names_the_core_count() {
    let out = check_with_cores("1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(77), "{stdout}");
    assert!(stdout.contains("only 1 cores, need 4"), "{stdout}");
}
