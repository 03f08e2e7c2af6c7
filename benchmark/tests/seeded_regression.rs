//! Seeded-regression self-test: a delay equal to one op's median,
//! injected into one workload's ops, must make the benchmark's own
//! comparison flag `op_ms.p50` on that workload and on no other
//! workload of `BENCHMARK.json`.
//!
//! Runs the built binary from the repository root, four runs per side
//! per workload at `BENCHMARK.json`'s own `run_seconds`, alternating
//! sides, so each side's median rests on as much run time as one
//! measured run of the benchmark (about 15 minutes with 50 s runs).

use std::path::{Path, PathBuf};

use cubie::golden::Json;
use cubie_benchmark::layers::per_layer_metrics;
use cubie_benchmark::{gate, Bench, RunArgs, RunResult};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    Json::parse(&text).unwrap()
}

fn run_seconds() -> f64 {
    benchmark_json()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .unwrap()
}

fn run(bench: Bench, seed: u64, delay_ms: f64) -> RunResult {
    let args = RunArgs {
        bench,
        seed,
        seconds: run_seconds(),
        trace: false,
        inject_delay_ms: delay_ms,
    };
    let exe = Path::new(env!("CARGO_BIN_EXE_cubie-benchmark"));
    let r = gate::run_child(exe, &repo_root(), &args).unwrap();
    assert!(
        r.correct && r.failed == 0,
        "{}: {} of {} ops failed",
        bench.name(),
        r.failed,
        r.attempted
    );
    r
}

#[test]
fn injected_delay_trips_op_p50_on_that_workload_only() {
    let bounds = gate::read_bounds(&repo_root().join("BENCHMARK.json")).unwrap();
    let target = Bench::SuiteGolden;
    let workloads = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| Bench::parse(w.get("name").and_then(Json::as_str).unwrap()).unwrap())
        .collect::<Vec<_>>();
    assert!(workloads.contains(&target));
    for bench in workloads {
        let (mut parent, mut change) = (Vec::new(), Vec::new());
        for seed in 1..=4 {
            parent.push(run(bench, seed, 0.0));
            let delay = if bench == target {
                parent[0].value("op_ms.p50").unwrap()
            } else {
                0.0
            };
            change.push(run(bench, seed, delay));
        }
        for b in &bounds {
            assert!(
                parent[0].value(&b.name).is_some_and(|v| v > 0.0),
                "{}: {} missing or 0",
                bench.name(),
                b.name
            );
        }
        let flagged = gate::regressions(&bounds, &parent, &change);
        assert_eq!(
            flagged.iter().any(|m| m == "op_ms.p50"),
            bench == target,
            "{}: flagged {flagged:?}",
            bench.name()
        );
    }
}

#[test]
fn benchmark_json_lists_every_per_layer_metric_the_traced_run_emits() {
    let listed: Vec<(String, String)> = benchmark_json()
        .get("per_layer")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect();
    let emitted: Vec<(String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed, emitted);
}

#[test]
fn spread_uses_python_exclusive_quartiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((gate::spread(&v) - 1.0).abs() < 1e-12);
}
