//! The benchmark's fixed points: `BENCHMARK.json` agrees with the tables in
//! the code, the measured build is the shipped build, and the generator is
//! a pure function of its seed.

use std::path::Path;

use cg_perf::json::Json;
use cg_perf::metrics::{END_TO_END, PER_LAYER};
use cg_perf::workloads::{find, generate, Scale, DEFAULT_SECONDS, WORKLOADS};

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_matches_the_code() {
    let text = repo_file("BENCHMARK.json");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    let b = Json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = b.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ],
        "exactly the contract's keys"
    );

    let paths: Vec<&str> = b
        .get("paths")
        .unwrap()
        .elements()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["perf"]);
    let command = b.get("command").unwrap().elements();
    assert!(!command.is_empty() && command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let run_seconds = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
    assert_eq!(
        run_seconds, DEFAULT_SECONDS,
        "the driver and `perf run` measure equally long"
    );

    let workloads = b.get("workloads").unwrap().elements();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(j.members().len(), 2, "a workload has exactly name and why");
        assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name));
        assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
        assert!(valid_name(w.name));
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is one short line",
            w.name
        );
    }

    let e2e = b.get("end_to_end").unwrap().elements();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(
            j.members().len(),
            4,
            "{}: exactly name, unit, better, bound",
            m.name
        );
        assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            j.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
        assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound within the contract",
            m.name
        );
        assert!(valid_name(m.name) && valid_unit(m.unit));
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );

    let layers = b.get("per_layer").unwrap().elements();
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (j, m) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(
            j.members().len(),
            3,
            "{}: exactly name, unit, better",
            m.name
        );
        assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            j.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
        assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
}

/// The lines of `[profile.release]`, comments and blanks dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_equals_the_root_manifests() {
    let root = release_profile(&repo_file("Cargo.toml"));
    let own = release_profile(&repo_file("perf/Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(
        own, root,
        "perf must measure the build the repository ships"
    );
}

#[test]
fn mixed_and_journal_share_their_inputs_byte_for_byte() {
    let mixed = find("testbed18_mixed").unwrap();
    let journal = find("testbed18_journal").unwrap();
    for scale in [Scale::Smoke, Scale::Full] {
        for seed in [1, 2, 99] {
            assert_eq!(generate(mixed, scale, seed), generate(journal, scale, seed));
        }
    }
}

#[test]
fn the_generator_is_a_function_of_its_seed() {
    for w in &WORKLOADS {
        let a = generate(w, Scale::Smoke, 7);
        assert_eq!(
            a,
            generate(w, Scale::Smoke, 7),
            "{}: same seed, same inputs",
            w.name
        );
        assert_ne!(
            a,
            generate(w, Scale::Smoke, 8),
            "{}: another seed, other inputs",
            w.name
        );
        assert_eq!(a.jobs.len(), w.job_count(Scale::Smoke));
        assert!(
            a.jobs.windows(2).all(|p| p[0].at <= p[1].at),
            "arrivals are ordered"
        );
        // The mix is dealt from a fixed deck: every seed has the same
        // number of interactive jobs.
        assert_eq!(
            a.interactive_count(),
            generate(w, Scale::Smoke, 8).interactive_count(),
            "{}: class counts do not depend on the seed",
            w.name
        );
    }
}
