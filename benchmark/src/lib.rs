//! The cubie-rs benchmark: two closed-loop workloads, each run in its
//! own process, measured end to end with tracing off (`timed`) and
//! layer by layer in a separate traced run ([`layers`]). See README.md
//! for why each workload exists and which layer metric should move which
//! end-to-end metric.
//!
//! Every layer is measured from outside, by timing calls into its
//! public functions; nothing inside the program is instrumented here.

pub mod gate;
pub mod layers;
mod timed;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cubie::bench::SweepConfig;
use cubie::golden::{obj, Json};
use cubie::kernels::{Variant, Workload};

/// The workloads `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The ten-workload FP64 sweep at golden scales.
    SuiteGolden,
    /// One client against an in-process `cubied`.
    ServeMix,
}

impl Bench {
    /// All workloads.
    pub const ALL: [Bench; 2] = [Bench::SuiteGolden, Bench::ServeMix];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::SuiteGolden => "suite_golden",
            Bench::ServeMix => "serve_mix",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }
}

/// The sweep one `suite_golden` op runs: every workload at golden
/// scales, pinned to one worker.
pub(crate) fn suite_config() -> SweepConfig {
    SweepConfig {
        workloads: Workload::ALL.to_vec(),
        sparse_scale: GOLDEN_SPARSE,
        graph_scale: GOLDEN_GRAPH,
        jobs: Some(1),
        ..SweepConfig::default()
    }
}

/// Sparse scale divisor of the golden artifacts.
pub(crate) const GOLDEN_SPARSE: usize = cubie::bench::artifacts::GOLDEN_SPARSE_SCALE;
/// Graph scale divisor of the golden artifacts.
pub(crate) const GOLDEN_GRAPH: usize = cubie::bench::artifacts::GOLDEN_GRAPH_SCALE;

/// Parsed command line of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub bench: Bench,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the timed one.
    pub trace: bool,
    /// Self-test hook: sleep this long inside every timed op, to seed a
    /// known regression. 0 in every real run.
    pub inject_delay_ms: f64,
}

/// The result line of one run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Every op passed its correctness check.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose correctness check failed (or that panicked).
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// Record one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.insert(name.into(), (value, unit.to_string()));
    }

    /// The contract's one-line JSON object.
    pub fn to_json(&self) -> Json {
        let metrics = Json::Object(
            self.metrics
                .iter()
                .map(|(k, (v, u))| {
                    (
                        k.clone(),
                        obj(vec![("value", (*v).into()), ("unit", u.as_str().into())]),
                    )
                })
                .collect(),
        );
        obj(vec![
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics),
        ])
    }

    /// Parse a result line back (steadiness mode and the self-test).
    pub fn from_json(doc: &Json) -> Result<RunResult, String> {
        let int = |k: &str| {
            doc.get(k)
                .and_then(Json::as_int)
                .map(|v| v as u64)
                .ok_or_else(|| format!("result has no integer `{k}`"))
        };
        let mut out = RunResult {
            correct: doc
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("result has no `correct`")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            metrics: BTreeMap::new(),
        };
        let Some(Json::Object(pairs)) = doc.get("metrics") else {
            return Err("result has no `metrics` object".into());
        };
        for (name, m) in pairs {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            out.put(name.clone(), value, unit);
        }
        Ok(out)
    }

    /// A metric's value, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub(crate) fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub(crate) fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds since `t0`.
pub(crate) fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Time one call, in milliseconds.
pub(crate) fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms_since(t0))
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Lower-case, metric-name-safe variant key (`baseline`, `tc`, `cc`,
/// `cce`).
pub(crate) fn variant_key(v: Variant) -> &'static str {
    match v {
        Variant::Baseline => "baseline",
        Variant::Tc => "tc",
        Variant::Cc => "cc",
        Variant::CcE => "cce",
    }
}

/// Per-run scratch directory under `.bench_state/` in the working
/// directory (the checkout root). Removed when dropped.
pub(crate) struct StateDir(PathBuf);

impl StateDir {
    /// A fresh directory for this process and workload.
    pub fn new(bench: Bench) -> std::io::Result<StateDir> {
        let dir =
            PathBuf::from(".bench_state").join(format!("{}-{}", bench.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(StateDir(dir))
    }

    /// A fresh (removed, not yet created) subdirectory path.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_state` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_state");
    }
}

/// Point the prepared-input store at `dir`.
pub(crate) fn use_prep_dir(dir: &Path) {
    std::env::set_var("CUBIE_PREP_DIR", dir);
}

/// The commit under test: `CUBIE_BENCH_COMMIT`, else `.git/HEAD` of
/// the working directory, else `unknown` (a plain source checkout).
pub(crate) fn commit_label() -> String {
    if let Ok(c) = std::env::var("CUBIE_BENCH_COMMIT") {
        return c;
    }
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| r.to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// The run labels every output carries: host, dispatch, pinning, seed
/// and commit, so a number is never read without its conditions.
pub(crate) fn labels(args: &RunArgs) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mode = match cubie::prep::PrepConfig::from_env().mode {
        cubie::prep::LoadMode::Mmap => "mmap",
        cubie::prep::LoadMode::Copied => "copied",
    };
    obj(vec![
        ("workload", args.bench.name().into()),
        ("trace", args.trace.into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("nproc", (nproc as u64).into()),
        ("simd", cubie::core::simd::dispatch_line().into()),
        ("prep_load_mode", mode.into()),
        (
            "pinned_workers",
            (cubie::core::par::max_workers() as u64).into(),
        ),
        ("commit", commit_label().as_str().into()),
    ])
}

/// Run one workload as `args` asks.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    // Every timed op runs on one worker, with the prepared-input store
    // on and mmap loads, whatever the environment says; the labels then
    // show what runs.
    cubie::core::par::set_max_workers(1);
    for knob in ["CUBIE_JOBS", "CUBIE_PREP_CACHE", "CUBIE_PREP_MMAP"] {
        std::env::remove_var(knob);
    }
    println!("labels {}", labels(args).to_canonical_string());
    if args.trace {
        layers::run(args)
    } else {
        timed::run(args)
    }
}
