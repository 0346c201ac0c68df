//! The `--check` gates are gates: on whatever machine runs the tests, with
//! no environment variable set, `churn_suite --check` and
//! `policy_ab --check` run every gate they have and exit 0 — there is no
//! "skipped" status. This also puts zero-lost-jobs, rule 5b, replay
//! identity and backend invariance under the four churn shapes into
//! `cargo test`.

use std::process::Command;

fn assert_all_gates_pass(bin: &str, exe: &str) {
    let out = Command::new(exe)
        .arg("--check")
        .output()
        .unwrap_or_else(|e| panic!("run {bin} --check: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{stderr}");
    assert!(
        stdout.contains(&format!("{bin} --check: all gates passed")),
        "{stdout}\n{stderr}"
    );
}

#[test]
fn churn_suite_check_runs_every_gate_and_passes() {
    assert_all_gates_pass("churn_suite", env!("CARGO_BIN_EXE_churn_suite"));
}

#[test]
fn policy_ab_check_runs_every_gate_and_passes() {
    assert_all_gates_pass("policy_ab", env!("CARGO_BIN_EXE_policy_ab"));
}
