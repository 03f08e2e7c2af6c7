//! The timed runs: end-to-end metrics with tracing off.
//!
//! Every workload is a closed loop with one op in flight on one worker.
//! Caches are warmed in set-up, never inside a timed op, and every op's
//! output is checked after its timer stops; a failed check (or a panic)
//! is a failed op.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cubie::bench::artifacts::{fig3, golden_dir, trace_counters};
use cubie::bench::{Sweep, SweepCache, SweepConfig, SweepRunner};
use cubie::golden::{diff, Artifact, Json};
use cubie::kernels::Workload;
use cubie::serve::proto::{simple_request, AdviseSpec, SweepSpec};
use cubie::serve::{client_request, Daemon, Handle, ServeConfig};

use crate::{median, ms_since, peak_rss_mib, quantile, suite_config, time_ms, use_prep_dir};
use crate::{Bench, Rng, RunArgs, RunResult, StateDir, GOLDEN_GRAPH, GOLDEN_SPARSE};

/// `serve_mix` set-ups per run; `setup_s` is their median.
/// (`suite_golden` takes a set-up sample beside every cold op.)
const SERVE_SETUP_REPS: usize = 7;
/// Every how many `suite_golden` ops one is a cold op (`miss_ms.p50`
/// is their median). Cold and warm ops interleave all through the run,
/// so both medians see the same slow and fast spells of the host.
const SWEEP_COLD_EVERY: u64 = 3;

/// Op samples of one run.
#[derive(Debug, Default)]
pub(crate) struct Samples {
    /// Wall time of every timed op, ms.
    pub op: Vec<f64>,
    /// Ops served from a warm cache, ms.
    pub hit: Vec<f64>,
    /// Ops that missed the cache, ms.
    pub miss: Vec<f64>,
    /// Ops attempted (every op, hit and miss samples included).
    pub attempted: u64,
    /// Ops that failed their check or panicked.
    pub failed: u64,
}

impl Samples {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("op {} failed: {e}", self.attempted);
        }
    }
}

/// Run `f`, turning a panic into an error.
pub(crate) fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".into())
    })
}

fn inject(args: &RunArgs) {
    if args.inject_delay_ms > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(args.inject_delay_ms / 1e3));
    }
}

/// Run one timed workload.
pub(crate) fn run(args: &RunArgs) -> Result<RunResult, String> {
    let state = StateDir::new(args.bench).map_err(|e| format!("state dir: {e}"))?;
    let (setup_s, samples) = match args.bench {
        Bench::SuiteGolden => sweep_bench(args, &state)?,
        Bench::ServeMix => serve_bench(args, &state)?,
    };
    let mut r = RunResult {
        correct: samples.failed == 0 && samples.attempted > 0,
        attempted: samples.attempted,
        failed: samples.failed,
        ..RunResult::default()
    };
    r.put("setup_s", median(&setup_s), "s");
    r.put("op_ms.p50", median(&samples.op), "ms");
    r.put("op_ms.p90", quantile(&samples.op, 0.9), "ms");
    r.put("hit_ms.p50", median(&samples.hit), "ms");
    r.put("miss_ms.p50", median(&samples.miss), "ms");
    r.put("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(r)
}

// ---------------------------------------------------------------- sweeps

/// Cold prepared-input generation for every store-backed input of
/// `cfg`, recorded into the store `CUBIE_PREP_DIR` names.
pub(crate) fn cold_prep(cfg: &SweepConfig) {
    let has = |w| cfg.workloads.contains(&w);
    if has(Workload::Spmv) || has(Workload::Spgemm) {
        cubie::prep::table4_matrices(cfg.sparse_scale);
    }
    if has(Workload::Bfs) {
        cubie::prep::table3_graphs(cfg.graph_scale);
    }
}

/// The correctness oracle of one sweep op: Figure 3 and the trace
/// counters against the committed goldens.
pub(crate) struct SweepCheck {
    fig3: Artifact,
    counters: Artifact,
}

impl SweepCheck {
    /// Read the goldens.
    pub fn new() -> Result<SweepCheck, String> {
        let read = |name: &str| Artifact::read(golden_dir().join(format!("{name}.json")));
        Ok(SweepCheck {
            fig3: read("fig3_performance")?,
            counters: read("trace_counters")?,
        })
    }

    /// Check one op's sweep.
    pub fn check(&self, sweep: &Sweep) -> Result<(), String> {
        for (golden, actual) in [
            (&self.fig3, fig3(sweep)),
            (&self.counters, trace_counters(sweep)),
        ] {
            if !diff(golden, &actual).passed() {
                return Err(format!("{} differs from its golden", golden.name));
            }
        }
        Ok(())
    }
}

/// One sweep on a fresh memo, so no op is served from an earlier one.
pub(crate) fn fresh_sweep(cfg: &SweepConfig) -> Sweep {
    SweepRunner::with_cache(cfg.clone(), Arc::new(SweepCache::default())).run()
}

/// The closed loop of a workload whose op has a warm form (a cache hit,
/// the op proper) and a cold one (a miss), for `args.seconds`: one cold
/// op, then `cold_every - 1` warm ones, over and over. Each closure
/// returns its timed ms and its check outcome.
fn hit_miss_loop(
    args: &RunArgs,
    cold_every: u64,
    mut cold: impl FnMut() -> (f64, Result<(), String>),
    mut warm: impl FnMut() -> (f64, Result<(), String>),
) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    while s.op.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        if s.attempted % cold_every == 0 {
            let (ms, checked) = cold();
            s.miss.push(ms);
            s.record(checked);
            continue;
        }
        let (ms, checked) = warm();
        let ms = ms + time_ms(|| inject(args)).1;
        s.op.push(ms);
        s.hit.push(ms);
        s.record(checked);
    }
    s
}

fn sweep_bench(args: &RunArgs, state: &StateDir) -> Result<(Vec<f64>, Samples), String> {
    let cfg = suite_config();
    // Set-up: cold generation into a fresh store. The first store stays
    // as the warm one every op loads from; one more set-up runs beside
    // every cold op, so set-up is sampled all through the run instead
    // of in one spell of the host.
    let warm_dir = state.fresh("warm");
    use_prep_dir(&warm_dir);
    let mut setup = vec![time_ms(|| cold_prep(&cfg)).1 / 1e3];
    let oracle = SweepCheck::new()?;
    // Warm-up: page cache, pool, arenas. A failure shows in the ops.
    drop(guarded(|| fresh_sweep(&cfg)));

    // Every op runs on a fresh memo, so no op is served from an earlier
    // one. Hit: the prepared-input store is warm (the op). Miss: it is
    // empty, so the op generates and records its inputs, as the first
    // run in a fresh checkout does.
    let op = || {
        let (sweep, ms) = time_ms(|| guarded(|| fresh_sweep(&cfg)));
        (ms, sweep.and_then(|m| oracle.check(&m)))
    };
    let cold = || {
        let dir = state.fresh("cold");
        use_prep_dir(&dir);
        let out = op();
        let _ = std::fs::remove_dir_all(dir);
        use_prep_dir(&state.fresh("setup"));
        setup.push(time_ms(|| cold_prep(&cfg)).1 / 1e3);
        use_prep_dir(&warm_dir);
        out
    };
    let samples = hit_miss_loop(args, SWEEP_COLD_EVERY, cold, &op);
    Ok((setup, samples))
}

// ----------------------------------------------------------------- serve

/// One request of the serve mix.
#[derive(Debug, Clone)]
pub(crate) enum MixReq {
    /// A sweep whose result the store holds (index into the hit specs).
    Hit(usize),
    /// A sweep over a filter combination never requested before.
    Miss(SweepSpec),
    /// An advisor verdict.
    Advise(AdviseSpec),
}

impl MixReq {
    /// The wire request.
    pub fn to_json(&self, hits: &[SweepSpec]) -> Json {
        match self {
            MixReq::Hit(i) => hits[*i].to_json("sweep"),
            MixReq::Miss(spec) => spec.to_json("sweep"),
            MixReq::Advise(spec) => spec.to_json(),
        }
    }
}

const DEVICES: [&str; 3] = ["a100", "h200", "b200"];

fn golden_spec(filters: &[&str]) -> SweepSpec {
    SweepSpec {
        filters: filters.iter().map(|f| f.to_string()).collect(),
        jobs: Some(1),
        sparse_scale: Some(GOLDEN_SPARSE),
        graph_scale: Some(GOLDEN_GRAPH),
        verify: false,
    }
}

/// The sweeps seeded into the store in set-up: the full 525-cell suite
/// plus narrower requests.
pub(crate) fn hit_specs() -> Vec<SweepSpec> {
    [
        &[][..],
        &["workload=bfs"],
        &["workload=spmv,spgemm"],
        &["device=h200"],
        &["workload=gemm"],
        &["workload=scan,reduction"],
        &["device=a100", "case=2"],
        &["workload=stencil,fft", "device=b200"],
    ]
    .iter()
    .map(|f| golden_spec(f))
    .collect()
}

/// The seeded request stream: ~70% hits, ~20% misses on fresh filter
/// combinations at golden scale, ~10% `advise`.
pub(crate) struct Mix {
    rng: Rng,
    hits: Vec<SweepSpec>,
    seen: HashSet<String>,
}

impl Mix {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Mix {
        let hits = hit_specs();
        let seen = hits.iter().map(key_of).collect();
        Mix {
            rng: Rng::new(seed),
            hits,
            seen,
        }
    }

    /// The hit specs.
    pub fn hits(&self) -> &[SweepSpec] {
        &self.hits
    }

    fn subset(&mut self, names: &[&str]) -> Vec<String> {
        let mask = 1 + self.rng.below((1 << names.len()) - 1);
        (0..names.len())
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| names[i].to_string())
            .collect()
    }

    /// The next request.
    pub fn next_req(&mut self) -> MixReq {
        let u = self.rng.unit();
        if u < 0.7 {
            return MixReq::Hit(self.rng.below(self.hits.len()));
        }
        if u < 0.9 {
            let keys: Vec<&str> = Workload::ALL.iter().map(|w| w.key()).collect();
            loop {
                let spec = golden_spec(&[
                    &format!("workload={}", self.subset(&keys).join(",")),
                    &format!("device={}", self.subset(&DEVICES).join(",")),
                    &format!("case={}", self.subset(&["0", "1", "2", "3", "4"]).join(",")),
                ]);
                if self.seen.insert(key_of(&spec)) {
                    return MixReq::Miss(spec);
                }
            }
        }
        let w = Workload::ALL[self.rng.below(Workload::ALL.len())];
        let devices = Some(self.subset(&DEVICES));
        MixReq::Advise(AdviseSpec {
            workload: w.key().to_string(),
            devices,
            sparse_scale: Some(GOLDEN_SPARSE),
            graph_scale: Some(GOLDEN_GRAPH),
        })
    }
}

fn key_of(spec: &SweepSpec) -> String {
    spec.to_config()
        .expect("benchmark specs are valid")
        .cache_key()
}

/// The canonical artifact bytes an in-process sweep gives for `spec`.
pub(crate) fn expected_payload(spec: &SweepSpec) -> Result<String, String> {
    let mut cfg = spec.to_config()?;
    cfg.jobs = Some(1);
    Ok(SweepRunner::new(cfg)
        .run()
        .to_artifact()
        .to_json()
        .to_canonical_string())
}

/// Check one response: `ok`, the expected store outcome, and for sweeps
/// the artifact bytes.
pub(crate) fn check_response(
    resp: &Json,
    req: &MixReq,
    expected: Option<&str>,
) -> Result<(), String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("not ok: {}", resp.to_canonical_string()));
    }
    let want_store = match req {
        MixReq::Hit(_) => "hit",
        MixReq::Miss(_) => "miss",
        MixReq::Advise(spec) => {
            let n = resp
                .get("advice")
                .and_then(Json::as_array)
                .map_or(0, |a| a.len());
            let want = spec.devices.as_ref().map_or(3, Vec::len);
            return (n == want)
                .then_some(())
                .ok_or_else(|| format!("advise gave {n} rows, want {want}"));
        }
    };
    let store = resp.get("store").and_then(Json::as_str).unwrap_or("");
    if store != want_store {
        return Err(format!("store `{store}`, want `{want_store}`"));
    }
    let got = resp
        .get("artifact")
        .ok_or("sweep response without artifact")?
        .to_canonical_string();
    match expected {
        Some(e) if e == got => Ok(()),
        Some(_) => Err("artifact bytes differ from the in-process sweep".into()),
        None => Err("no expected payload".into()),
    }
}

/// A started daemon with its hit keys seeded.
pub(crate) struct Served {
    /// Keeps the daemon running; dropping it shuts the daemon down.
    _daemon: Handle,
    /// The socket path.
    pub socket: PathBuf,
}

/// Start `cubied` (one heavy slot, one worker) on fresh store and
/// socket directories and seed every hit spec into its store.
pub(crate) fn start_daemon(
    state: &StateDir,
    tag: &str,
    hits: &[SweepSpec],
) -> Result<Served, String> {
    let dir = state.fresh(tag);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cfg = ServeConfig {
        socket: dir.join("sock"),
        store_dir: dir.join("store"),
        max_jobs: 1,
        heavy_slots: 1,
        queue_limit: 16,
        exec_delay_ms: 0,
    };
    let socket = cfg.socket.clone();
    let handle = Daemon::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
    for spec in hits {
        let resp = client_request(&socket, &spec.to_json("sweep"))?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("seeding failed: {}", resp.to_canonical_string()));
        }
    }
    Ok(Served {
        _daemon: handle,
        socket,
    })
}

/// The daemon's `stats` counters.
pub(crate) fn daemon_counters(socket: &std::path::Path) -> Result<Json, String> {
    let stats = client_request(socket, &simple_request("stats"))?;
    stats
        .get("counters")
        .cloned()
        .ok_or_else(|| "stats without counters".into())
}

/// Warm the process-wide sweep memo at golden scale (set-up), so misses
/// are warm misses: store misses whose traces are already computed.
pub(crate) fn warm_memo(state: &StateDir) -> Vec<String> {
    use_prep_dir(&state.fresh("prep"));
    hit_specs()
        .iter()
        .map(|s| expected_payload(s).expect("valid spec"))
        .collect()
}

fn serve_bench(args: &RunArgs, state: &StateDir) -> Result<(Vec<f64>, Samples), String> {
    let expected = warm_memo(state);
    let mut mix = Mix::new(args.seed);
    let hits = mix.hits().to_vec();
    let mut setup = Vec::new();
    let mut served = None;
    for r in 0..SERVE_SETUP_REPS {
        drop(served.take()); // stop the previous daemon first
        let (d, ms) = time_ms(|| start_daemon(state, &format!("serve{r}"), &hits));
        setup.push(ms / 1e3);
        served = Some(d?);
    }
    let served = served.expect("at least one set-up");

    let mut s = Samples::default();
    let start = Instant::now();
    while s.attempted == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let req = mix.next_req();
        let wire = req.to_json(&hits);
        let t0 = Instant::now();
        let resp = client_request(&served.socket, &wire);
        inject(args);
        let ms = ms_since(t0);
        s.op.push(ms);
        let want = match &req {
            MixReq::Hit(i) => {
                s.hit.push(ms);
                Some(expected[*i].clone())
            }
            MixReq::Miss(spec) => {
                s.miss.push(ms);
                Some(expected_payload(spec)?)
            }
            MixReq::Advise(_) => None,
        };
        s.record(resp.and_then(|r| check_response(&r, &req, want.as_deref())));
    }
    drop(served);
    Ok((setup, s))
}
