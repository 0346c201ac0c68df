//! Every workload at `--scale smoke`: the output has the contract's shape,
//! names every metric with a unit, and repeats exactly at a seed.

use std::path::PathBuf;
use std::process::Command;

use cg_perf::json::Json;
use cg_perf::metrics::{END_TO_END, PER_LAYER};
use cg_perf::workloads::WORKLOADS;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs `perf run WORKLOAD --scale smoke …`; returns the driver's last line
/// and the full `--json` result.
fn smoke(workload: &str, seed: u64, traced: bool) -> (Json, Json) {
    let path = scratch(&format!("{workload}-{seed}-{traced}.json"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perf"));
    cmd.args([
        "--workload",
        workload,
        "--scale",
        "smoke",
        "--seconds",
        "0.05",
    ])
    .args(["--seed", &seed.to_string()])
    .args(["--trace", if traced { "1" } else { "0" }])
    .arg("--json")
    .arg(&path);
    let out = cmd.output().expect("spawn perf");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("perf printed a result line");
    let line = Json::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"));
    let full = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);
    (line, full)
}

fn assert_contract_shape(workload: &str, line: &Json, names: &[(&str, &str)]) {
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        line.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    let attempted = line.get("attempted").and_then(Json::as_f64).unwrap();
    let failed = line.get("failed").and_then(Json::as_f64).unwrap();
    assert!(
        attempted >= 1.0 && attempted.fract() == 0.0,
        "{workload}: attempted {attempted}"
    );
    assert!(
        failed >= 0.0 && failed.fract() == 0.0 && failed <= attempted,
        "{workload}: failed {failed}"
    );
    let metrics = line.get("metrics").unwrap().members();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        got, want,
        "{workload}: every named metric, in order, and nothing else"
    );
    for ((name, m), (_, unit)) in metrics.iter().zip(names) {
        let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"], "{workload}.{name}");
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{workload}.{name}: value is not a number"));
        assert!(v.is_finite(), "{workload}.{name} = {v}");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{workload}.{name}"
        );
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_and_repeat_exactly() {
    let names: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        let (line, a) = smoke(w.name, 1, false);
        assert_contract_shape(w.name, &line, &names);
        for (name, m) in line.get("metrics").unwrap().members() {
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{}.{name} must never be 0",
                w.name
            );
        }
        let (_, b) = smoke(w.name, 1, false);
        let (_, c) = smoke(w.name, 2, false);
        let digest = |r: &Json| {
            r.get("sim_digest")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        let exact = |r: &Json, m: &str| {
            r.get("end_to_end")
                .unwrap()
                .get(m)
                .unwrap()
                .get("value")
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(digest(&a), digest(&b), "{}: same seed, same digest", w.name);
        assert_ne!(
            digest(&a),
            digest(&c),
            "{}: another seed, another digest",
            w.name
        );
        for m in ["sim_interactive_resp_p50_s", "sim_interactive_resp_p90_s"] {
            assert_eq!(
                exact(&a, m),
                exact(&b, m),
                "{}.{m} repeats exactly at a seed",
                w.name
            );
        }
        // Allocation counts repeat to within a handful: std seeds its hasher
        // per process, so wherever a `HashMap` is walked into an ordered
        // container node splits differ (a journal snapshot's `replay_state`
        // folds the agent table into a `BTreeMap`), and one run in fifty of
        // `testbed18_mixed` makes one allocation fewer than the rest.
        let (x, y) = (exact(&a, "allocs_per_op"), exact(&b, "allocs_per_op"));
        assert!(
            (x - y).abs() / x < 0.005,
            "{}: allocs_per_op {x} vs {y}",
            w.name
        );
        assert_eq!(a.get("draw"), b.get("draw"), "{}", w.name);
        for r in [&a, &c] {
            assert_eq!(
                r.get("ops_failed").and_then(Json::as_f64),
                Some(0.0),
                "{}: no operation fails",
                w.name
            );
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_write_their_spans() {
    let names: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        let (line, full) = smoke(w.name, 1, true);
        assert_contract_shape(w.name, &line, &names);
        assert!(
            full.get("per_layer").is_some(),
            "{}: --json carries the layers too",
            w.name
        );
        let trace = cg_perf::layers::trace_path(w.name);
        let spans = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let spans = spans.get("spans").unwrap().elements();
        assert!(
            spans.len() > PER_LAYER.len() / 2,
            "{}: a span per replay attempt",
            w.name
        );
        for s in spans {
            let keys: Vec<&str> = s.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "start_ns", "end_ns", "parent", "count"]);
            assert!(
                s.get("end_ns").and_then(Json::as_f64) >= s.get("start_ns").and_then(Json::as_f64)
            );
        }
        assert_eq!(
            spans[0].get("parent"),
            Some(&Json::Null),
            "the first span is the root"
        );
    }
}

#[test]
fn diff_reads_what_run_writes() {
    let (_, a) = smoke("testbed18_mixed", 3, false);
    let path = scratch("diff-a.json");
    std::fs::write(&path, a.render()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("diff")
        .arg(&path)
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "a file never regresses against itself:\n{stdout}"
    );
    assert!(stdout.contains("same model decisions"), "{stdout}");
    for m in &END_TO_END {
        assert!(stdout.contains(m.name), "diff lists {}:\n{stdout}", m.name);
    }
    let _ = std::fs::remove_file(&path);
}
