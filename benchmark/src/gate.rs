//! The benchmark's own comparison and steadiness report, driven by the
//! bounds in `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

use cubie::golden::Json;

use crate::{median, RunArgs, RunResult};

/// One end-to-end metric's bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// The `end_to_end` bounds of a `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

fn values(runs: &[RunResult], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.value(metric)).collect()
}

/// The metrics on which `change`'s median is worse than `parent`'s by
/// more than their bound — the rule a later change is rejected by.
pub fn regressions(bounds: &[Bound], parent: &[RunResult], change: &[RunResult]) -> Vec<String> {
    bounds
        .iter()
        .filter(|b| {
            let (p, c) = (
                median(&values(parent, &b.name)),
                median(&values(change, &b.name)),
            );
            if b.lower_is_better {
                c > p * (1.0 + b.bound)
            } else {
                c < p * (1.0 - b.bound)
            }
        })
        .map(|b| b.name.clone())
        .collect()
}

/// Run-to-run spread of one metric: (q3 − q1) / median, with the
/// quartiles of Python's `statistics.quantiles(values, n=4)` (its
/// default "exclusive" method), the spread the acceptance rule uses.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return f64::INFINITY;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / m
}

/// The steadiness report of a set of runs: per metric its median,
/// spread and verdict against its bound. Drift shows here instead of
/// being absorbed into a median.
pub fn steadiness_report(bounds: &[Bound], runs: &[RunResult]) -> String {
    let mut out = format!(
        "{:<14} {:>12} {:>8} {:>7}  verdict ({} runs)\n",
        "metric",
        "median",
        "spread",
        "bound",
        runs.len()
    );
    for b in bounds {
        let v = values(runs, &b.name);
        let s = spread(&v);
        let verdict = if s <= b.bound / 3.0 {
            "steady"
        } else if s <= b.bound {
            "within bound"
        } else {
            "TOO NOISY"
        };
        out += &format!(
            "{:<14} {:>12.4} {:>7.1}% {:>6.0}%  {verdict}\n",
            b.name,
            median(&v),
            s * 100.0,
            b.bound * 100.0
        );
    }
    out
}

/// Run the benchmark binary `exe` once from the repository root `root`
/// and parse its result line.
pub fn run_child(exe: &Path, root: &Path, args: &RunArgs) -> Result<RunResult, String> {
    let out = Command::new(exe)
        .current_dir(root)
        .args(["--workload", args.bench.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--inject-delay-ms", &args.inject_delay_ms.to_string()])
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{} run failed ({}): {e}\n{}",
            args.bench.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    RunResult::from_json(&doc)
}
