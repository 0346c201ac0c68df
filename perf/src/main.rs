//! `perf` — the benchmark's command line.
//!
//! ```text
//! perf all  [--seed N] [--seconds S] [--json FILE]      every workload, one process each
//! perf run  WORKLOAD [--seed N] [--seconds S] [--traced] [--scale smoke] [--json FILE]
//! perf aa   [--runs N] [--seed N] [--workload W]        two sets of runs of the same code
//! perf diff A.json B.json                               ratios with their bases
//! perf manifest                                         BENCHMARK.json, from the tables in the code
//! perf --workload W --seed N --seconds S --trace 0|1    the benchmark driver's form
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use cg_perf::json::Json;
use cg_perf::layers;
use cg_perf::metrics::END_TO_END;
use cg_perf::report::{self, MetricRuns};
use cg_perf::run::{self, RunOptions, TempDir};
use cg_perf::workloads::{self, Scale, DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};

#[global_allocator]
static ALLOC: cg_perf::alloc::CountingAlloc = cg_perf::alloc::CountingAlloc;

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    json: Option<PathBuf>,
    runs: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        scale: Scale::Full,
        json: None,
        runs: 5,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--traced" => args.traced = true,
            "--scale" => {
                args.scale = match value("--scale")?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, got {other}")),
                };
            }
            "--json" => args.json = Some(PathBuf::from(value("--json")?)),
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a.clone()),
        }
    }
    Ok(args)
}

/// Runs one workload in this process. Prints the report, then the driver's
/// one-line result last. Returns whether every check held.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let w = workloads::find(name).ok_or_else(|| {
        format!(
            "unknown workload {name}; known: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
    };
    let (result, layer_values) = if args.traced {
        let (r, l) = layers::run_traced(w, &opts);
        (r, Some(l))
    } else {
        (run::run(w, &opts), None)
    };
    print!("{}", report::result_text(&result, layer_values.as_deref()));
    if let Some(path) = &args.json {
        std::fs::write(
            path,
            report::result_json(&result, layer_values.as_deref()).render() + "\n",
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!(
        "{}",
        report::contract_line(&result, layer_values.as_deref())
    );
    Ok(result.correct())
}

/// Runs `workload` in a child process of this same binary (peak RSS and the
/// allocator's state belong to one workload only) and returns its result.
fn run_child(workload: &str, seed: u64, args: &Args, dir: &TempDir) -> Result<Json, String> {
    let path = dir.file(&format!("{workload}-{seed}.json"));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .arg(workload)
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args([
            "--scale",
            if args.scale == Scale::Smoke {
                "smoke"
            } else {
                "full"
            },
        ])
        .arg("--json")
        .arg(&path);
    if args.traced {
        cmd.arg("--traced");
    }
    let status = cmd.status().map_err(|e| format!("spawn perf run: {e}"))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{workload}: no result file ({e}); child exited with {status}"))?;
    let _ = std::fs::remove_file(&path);
    let json = Json::parse(&text)?;
    if !status.success() {
        return Err(format!("{workload}: child exited with {status}"));
    }
    Ok(json)
}

fn cmd_all(args: &Args) -> Result<bool, String> {
    let dir = TempDir::new("all");
    let mut results = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        match run_child(w.name, args.seed, args, &dir) {
            Ok(json) => {
                ok &= json.get("correct").and_then(Json::as_bool) == Some(true);
                results.push(json);
            }
            Err(e) => {
                eprintln!("perf all: {e}");
                ok = false;
            }
        }
    }
    if let Some(path) = &args.json {
        std::fs::write(path, Json::Arr(results).render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!(
        "perf all: {}",
        if ok { "every check passed" } else { "FAILED" }
    );
    Ok(ok)
}

fn cmd_aa(args: &Args) -> Result<bool, String> {
    let dir = TempDir::new("aa");
    let mut ok = true;
    let mut text = String::new();
    // `perf aa --workload W` judges one workload only.
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == w.name))
    {
        let mut sets: [MetricRuns; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for i in 0..args.runs {
                let json = run_child(w.name, args.seed + i as u64, args, &dir)?;
                if json.get("correct").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("{}: a correctness check failed", w.name));
                }
                set.push(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            json.get("end_to_end")
                                .and_then(|e| e.get(m.name))
                                .and_then(|e| e.get("value"))
                                .and_then(Json::as_f64)
                                .ok_or_else(|| format!("{}: result lacks {}", w.name, m.name))
                        })
                        .collect::<Result<Vec<f64>, String>>()?,
                );
            }
        }
        let (t, set_ok) = report::aa_verdict(w.name, &sets[0], &sets[1]);
        text.push_str(&t);
        ok &= set_ok;
    }
    println!(
        "\nA/A: two sets of {} runs per workload, seeds {}..",
        args.runs, args.seed
    );
    print!("{text}");
    println!(
        "perf aa: {}",
        if ok {
            "within every bound"
        } else {
            "EXCEEDS a bound"
        }
    );
    Ok(ok)
}

fn cmd_diff(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: perf diff A.json B.json".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{p}: {e}"))?;
        // A single `perf run --json` result diffs like a one-workload file.
        Ok(match json {
            Json::Arr(_) => json,
            single => Json::Arr(vec![single]),
        })
    };
    let (text, regressed) = report::diff(&load(a)?, &load(b)?);
    print!("{text}");
    Ok(!regressed)
}

/// `BENCHMARK.json` as the tables in the code define it (a test keeps the
/// committed file equal to this).
fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ];
    let entry = |k: &str, v: String| format!("  {}: {v}", Json::str(k).render());
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let body = [
        entry(
            "command",
            Json::Arr(command.iter().map(|c| Json::str(*c)).collect()).render(),
        ),
        entry("paths", Json::Arr(vec![Json::str("perf")]).render()),
        entry("run_seconds", Json::Num(DEFAULT_SECONDS).render()),
        entry(
            "workloads",
            list(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        entry(
            "end_to_end",
            list(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        entry(
            "per_layer",
            list(
                cg_perf::metrics::PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| {
        match (args.positional.first().map(String::as_str), &args.workload) {
            (None, Some(w)) => run_one(w, &args),
            (Some("run"), _) => match args.positional.get(1) {
                Some(w) => run_one(&w.clone(), &args),
                None => Err("usage: perf run WORKLOAD [--seed N] [--traced]".into()),
            },
            (Some("all"), _) => cmd_all(&args),
            (Some("aa"), _) => cmd_aa(&args),
            (Some("diff"), _) => cmd_diff(&args),
            (Some("manifest"), _) => {
                print!("{}", manifest());
                Ok(true)
            }
            _ => Err("usage: perf all | run WORKLOAD | aa | diff A.json B.json | manifest".into()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
