//! Turning results into text and JSON, and comparing result files.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::RunResult;
use crate::stats;

/// A per-layer value with its unit, as the traced run reports it.
#[derive(Debug, Clone)]
pub struct LayerValue {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
}

fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// Per-repeat samples behind an end-to-end metric (one value for metrics
/// measured once per run).
fn samples_of(r: &RunResult, index: usize, value: f64) -> Vec<f64> {
    match END_TO_END[index].name {
        "setup_s" => r.setup_samples_s(),
        "work_per_s" => r
            .work_samples_s()
            .iter()
            .map(|s| r.outcome.units as f64 / s)
            .collect(),
        _ => vec![value],
    }
}

/// `(q3 − q1) ÷ median` of the untraced work phases.
pub fn repeat_spread_frac(r: &RunResult) -> f64 {
    stats::spread_frac(&r.work_samples_s())
}

/// The full machine-readable result of a run.
pub fn result_json(r: &RunResult, layers: Option<&[LayerValue]>) -> Json {
    let values = r.end_to_end();
    let e2e = END_TO_END.iter().enumerate().map(|(i, m)| {
        let samples = samples_of(r, i, values[i]);
        let (q1, med, q3) = stats::quartiles(&samples);
        (
            m.name,
            Json::obj([
                ("value", Json::Num(values[i])),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
                ("samples", Json::Num(samples.len() as f64)),
                ("median", Json::Num(med)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
            ]),
        )
    });
    let mut pairs = vec![
        ("workload".to_string(), Json::str(r.workload)),
        ("seed".into(), Json::Num(r.seed as f64)),
        ("draw".into(), Json::Num(f64::from(r.draw))),
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("repeats".into(), Json::Num(r.samples.len() as f64)),
        (
            "sim_digest".into(),
            Json::str(format!("{:016x}", r.outcome.digest)),
        ),
        ("units_per_repeat".into(), Json::Num(r.outcome.units as f64)),
        (
            "ops_attempted".into(),
            Json::Num(r.outcome.ops_attempted as f64),
        ),
        ("ops_failed".into(), Json::Num(r.outcome.ops_failed as f64)),
        (
            "interactive_samples".into(),
            Json::Num(r.outcome.interactive_resp_s.len() as f64),
        ),
        ("gen_s".into(), Json::Num(r.gen_s)),
        ("input_s".into(), Json::Num(r.input_s)),
        (
            "repeat_spread_frac".into(),
            Json::Num(repeat_spread_frac(r)),
        ),
        ("correct".into(), Json::Bool(r.correct())),
        (
            "checks".into(),
            Json::Arr(
                r.checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end".into(), Json::obj(e2e)),
        (
            "work_s_samples".into(),
            Json::Arr(r.work_samples_s().into_iter().map(Json::Num).collect()),
        ),
        (
            "setup_s_samples".into(),
            Json::Arr(r.setup_samples_s().into_iter().map(Json::Num).collect()),
        ),
        (
            "work_wall_s_samples".into(),
            Json::Arr(r.work_wall_samples_s().into_iter().map(Json::Num).collect()),
        ),
        (
            "reference_slowdown_median".into(),
            Json::Num(stats::quartiles(&r.slowdowns).1),
        ),
    ];
    if let Some(layers) = layers {
        pairs.push((
            "per_layer".into(),
            Json::obj(layers.iter().map(|l| {
                let unit = layer_unit(l.name);
                (
                    l.name,
                    Json::obj([("value", Json::Num(l.value)), ("unit", Json::str(unit))]),
                )
            })),
        ));
    }
    Json::Obj(pairs)
}

/// The one-line result the benchmark driver reads: end-to-end metrics for
/// an untraced run, per-layer metrics for a traced one.
pub fn contract_line(r: &RunResult, layers: Option<&[LayerValue]>) -> String {
    let metrics = match layers {
        None => Json::obj(END_TO_END.iter().zip(r.end_to_end()).map(|(m, v)| {
            (
                m.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
            )
        })),
        Some(layers) => Json::obj(PER_LAYER.iter().map(|m| {
            let v = layers
                .iter()
                .find(|l| l.name == m.name)
                .map_or(0.0, |l| l.value);
            (
                m.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
            )
        })),
    };
    let repeats = r.samples.len() as f64;
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        (
            "attempted",
            Json::Num(r.outcome.ops_attempted as f64 * repeats),
        ),
        ("failed", Json::Num(r.outcome.ops_failed as f64 * repeats)),
        ("metrics", metrics),
    ])
    .render()
}

/// The human-readable report of a run.
pub fn result_text(r: &RunResult, layers: Option<&[LayerValue]>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {}  seed {}  draw {}  repeats {}  sim_digest {:016x}",
        r.workload,
        r.seed,
        r.draw,
        r.samples.len(),
        r.outcome.digest
    );
    let _ = writeln!(
        out,
        "  ops_attempted {}  ops_failed {}  work units/repeat {}  interactive samples {}  gen_s {:.4}  input_s {:.3}",
        r.outcome.ops_attempted,
        r.outcome.ops_failed,
        r.outcome.units,
        r.outcome.interactive_resp_s.len(),
        r.gen_s,
        r.input_s
    );
    let wall = r.work_wall_samples_s();
    let (s1, s2, s3) = stats::quartiles(&r.slowdowns);
    let _ = writeln!(
        out,
        "  wall-clock work phase: fastest {:.4} s, median {:.4} s ({:.1} units/s at the fastest); reference slowdown q1 {:.2} median {:.2} q3 {:.2}",
        stats::min(&wall),
        stats::quartiles(&wall).1,
        r.outcome.units as f64 / stats::min(&wall),
        s1,
        s2,
        s3
    );
    for (reason, n) in &r.outcome.failure_reasons {
        let _ = writeln!(out, "  jobs the model failed x{n}: {reason}");
    }
    let _ = writeln!(
        out,
        "  {:<28} {:>14} {:<6} {:<7} {:>6} {:>4} {:>14} {:>14} {:>14}",
        "metric", "value", "unit", "better", "bound", "n", "q1", "median", "q3"
    );
    let values = r.end_to_end();
    for (i, m) in END_TO_END.iter().enumerate() {
        let samples = samples_of(r, i, values[i]);
        let (q1, med, q3) = stats::quartiles(&samples);
        let _ = writeln!(
            out,
            "  {:<28} {:>14.6} {:<6} {:<7} {:>6.3} {:>4} {:>14.6} {:>14.6} {:>14.6}",
            m.name,
            values[i],
            m.unit,
            m.better.as_str(),
            m.bound,
            samples.len(),
            q1,
            med,
            q3
        );
    }
    if let Some(layers) = layers {
        for l in layers {
            let unit = layer_unit(l.name);
            let _ = writeln!(out, "  {:<36} {:>16.6} {}", l.name, l.value, unit);
        }
    }
    for c in &r.checks {
        let _ = writeln!(
            out,
            "  check {:<40} {}{}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            if c.detail.is_empty() {
                String::new()
            } else {
                format!(": {}", c.detail)
            }
        );
    }
    out
}

fn e2e_value(result: &Json, metric: &str, field: &str) -> Option<f64> {
    result.get("end_to_end")?.get(metric)?.get(field)?.as_f64()
}

fn results_by_workload(file: &Json) -> Vec<(&str, &Json)> {
    file.elements()
        .iter()
        .filter_map(|r| Some((r.get("workload")?.as_str()?, r)))
        .collect()
}

/// `perf diff A.json B.json`: each ratio with its base; a metric is
/// `unresolved`, not `unchanged`, when either side's own repeat spread is
/// wider than the bound it would be judged by. Returns the text and whether
/// any metric is worse than its bound.
pub fn diff(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<18} {:<28} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "worse", "bound"
    );
    let b_results = results_by_workload(b);
    for (workload, ra) in results_by_workload(a) {
        let Some((_, rb)) = b_results.iter().find(|(w, _)| *w == workload) else {
            let _ = writeln!(out, "{workload:<18} missing from B");
            continue;
        };
        let spread = |r: &Json| {
            r.get("repeat_spread_frac")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                e2e_value(ra, m.name, "value"),
                e2e_value(rb, m.name, "value"),
            ) else {
                continue;
            };
            let worse = m.better.worsening(va, vb);
            let timed = matches!(m.name, "setup_s" | "work_per_s");
            let noisy = timed && (spread(ra) > m.bound || spread(rb) > m.bound);
            let verdict = if noisy {
                "unresolved"
            } else if worse > m.bound {
                regressed = true;
                "WORSE"
            } else if worse < -m.bound {
                "better"
            } else {
                "within bound"
            };
            let _ = writeln!(
                out,
                "{:<18} {:<28} {:>14.6} {:>14.6} {:>8.4} {:>+7.3} {:>7.3}  {}",
                workload,
                m.name,
                va,
                vb,
                if va == 0.0 { 0.0 } else { vb / va },
                worse,
                m.bound,
                verdict
            );
        }
        let digest = |r: &Json| {
            r.get("sim_digest")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let _ = writeln!(
            out,
            "{:<18} sim_digest {} -> {} ({})",
            workload,
            digest(ra),
            digest(rb),
            if digest(ra) == digest(rb) {
                "same model decisions"
            } else {
                "MODEL CHANGED"
            }
        );
    }
    (out, regressed)
}

/// One side of an A/A comparison: the value of every end-to-end metric in
/// every run of the set.
pub type MetricRuns = Vec<Vec<f64>>;

/// Judges two sets of runs of the same code the way the acceptance rule
/// does: each set's quartile spread and the second median against the
/// first, both as shares of the median and against the metric's bound.
/// Returns the text and whether everything stayed inside its bound.
pub fn aa_verdict(workload: &str, a: &MetricRuns, b: &MetricRuns) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for (i, m) in END_TO_END.iter().enumerate() {
        let col = |set: &MetricRuns| -> Vec<f64> { set.iter().map(|run| run[i]).collect() };
        let (ca, cb) = (col(a), col(b));
        let (_, med_a, _) = stats::quartiles(&ca);
        let (_, med_b, _) = stats::quartiles(&cb);
        let (sa, sb) = (stats::spread_frac(&ca), stats::spread_frac(&cb));
        let worse = m
            .better
            .worsening(med_a, med_b)
            .max(m.better.worsening(med_b, med_a));
        // setup_s is exempt from the spread rule, not from the median rule.
        let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
        let median_ok = worse <= m.bound;
        ok &= spread_ok && median_ok;
        let _ = writeln!(
            out,
            "{:<18} {:<28} median A {:>14.6} B {:>14.6}  diff {:>6.3}  spread A {:>6.3} B {:>6.3}  bound {:>5.3}  {}",
            workload,
            m.name,
            med_a,
            med_b,
            worse,
            sa,
            sb,
            m.bound,
            if spread_ok && median_ok { "ok" } else { "EXCEEDS" }
        );
    }
    (out, ok)
}
