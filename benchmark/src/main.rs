//! `cubie-benchmark`: run one workload, or report run-to-run steadiness.
//!
//! ```text
//! cubie-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cubie-benchmark steadiness --workload <name> [--runs 5] [--seconds <s>] [--trace 0]
//! ```
//!
//! Run from the repository root. A run prints a `labels` line, then as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Steadiness mode runs this binary `--runs` times with
//! successive seeds and prints each end-to-end metric's spread against
//! its bound in `BENCHMARK.json`.

use std::process::ExitCode;

use cubie_benchmark::{gate, Bench, RunArgs};

const USAGE: &str = "usage: cubie-benchmark [steadiness] --workload suite_golden|serve_mix \
                     --seed N --seconds S --trace 0|1 [--runs N]";

struct Cli {
    run: RunArgs,
    steadiness: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter().peekable();
    let steadiness = it.next_if(|a| *a == "steadiness").is_some();
    let (mut bench, mut seed, mut seconds, mut trace, mut delay, mut runs) =
        (None, 1, 10.0, false, 0.0, 5);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag} `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                bench =
                    Some(Bench::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed `{value}` is not an integer"))?
            }
            "--seconds" => seconds = num(value)?,
            "--trace" => trace = num(value)? != 0.0,
            "--inject-delay-ms" => delay = num(value)?,
            "--runs" if steadiness => runs = num(value)? as usize,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(seconds > 0.0 && delay >= 0.0) {
        return Err("--seconds must be positive and --inject-delay-ms non-negative".into());
    }
    Ok(Cli {
        run: RunArgs {
            bench: bench.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            inject_delay_ms: delay,
        },
        steadiness,
        runs: runs.max(2),
    })
}

fn steadiness(cli: &Cli) -> Result<(), String> {
    let bounds = gate::read_bounds(std::path::Path::new("BENCHMARK.json"))?;
    let mut runs = Vec::new();
    for i in 0..cli.runs {
        let args = RunArgs {
            seed: cli.run.seed + i as u64,
            ..cli.run.clone()
        };
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let r = gate::run_child(&exe, std::path::Path::new("."), &args)?;
        let line: Vec<String> = bounds
            .iter()
            .filter_map(|b| r.value(&b.name).map(|v| format!("{}={v:.4}", b.name)))
            .collect();
        println!(
            "run {} seed {}: failed {}/{} {}",
            i + 1,
            args.seed,
            r.failed,
            r.attempted,
            line.join(" ")
        );
        runs.push(r);
    }
    print!("{}", gate::steadiness_report(&bounds, &runs));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if cli.steadiness {
        steadiness(&cli)
    } else {
        cubie_benchmark::run(&cli.run).map(|r| println!("{}", r.to_json().to_canonical_string()))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cubie-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
