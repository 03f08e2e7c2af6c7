//! The traced run: per-layer metrics.
//!
//! Ops run as in the timed run, alternately with the `cubie_obs` span
//! recorder off and on, and every op is checked. The layers' own spans
//! (`prepare/<workload>` around `prepare_cases`, `trace/<workload>/<variant>`
//! around `PreparedCase::trace`, `time` around `time_workload`) give the
//! sweep layers' times and allocations; the ops with the recorder off
//! give the tracing overhead. Layers without a span of their own are
//! timed by calling their public functions: the Table 6 kernels'
//! `run`, and for `cubied` requests `parse_request`, `Store::load`/`save`
//! and the canonical JSON writer, under spans the benchmark opens.
//! Layers a workload does not exercise read 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cubie::bench::{Sweep, SweepConfig, SweepRunner};
use cubie::core::simd::{self, SimdPath};
use cubie::core::{workspace, OpCounters};
use cubie::golden::Artifact;
use cubie::kernels::{
    fft, gemm, gemv, pic, prepare_cases, reduction, scan, spgemm, spmv, stencil, Variant, Workload,
};
use cubie::obs::{self, counter_get, SpanRecord};
use cubie::serve::client_request;
use cubie::serve::proto::{parse_request, Request, SweepSpec};
use cubie::serve::store::{Lookup, Store, StoreKey};
use cubie::sim::WorkloadTrace;

use crate::timed::{
    check_response, cold_prep, daemon_counters, expected_payload, fresh_sweep, guarded,
    start_daemon, warm_memo, Mix, MixReq, SweepCheck,
};
use crate::{
    median, suite_config, time_ms, use_prep_dir, variant_key, Bench, Rng, RunArgs, RunResult,
    StateDir,
};

const MIB: f64 = 1024.0 * 1024.0;
const STORE_BACKED: [Workload; 3] = [Workload::Spmv, Workload::Spgemm, Workload::Bfs];
/// The nine Table 6 workloads (BFS has no floating point).
const TABLE6: [Workload; 9] = [
    Workload::Gemv,
    Workload::Gemm,
    Workload::Spmv,
    Workload::Spgemm,
    Workload::Fft,
    Workload::Stencil,
    Workload::Reduction,
    Workload::Scan,
    Workload::Pic,
];
/// Every SIMD path a metric is named after; paths this host cannot
/// execute read 0.
const SIMD_PATHS: [SimdPath; 4] = [
    SimdPath::Scalar,
    SimdPath::Avx2,
    SimdPath::Avx512,
    SimdPath::Neon,
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| m.push((name, unit));
    for w in Workload::ALL {
        add(format!("kernels.trace_ms.{}", w.key()), "ms");
    }
    for v in Variant::ALL {
        add(format!("kernels.trace_ms.bfs.{}", variant_key(v)), "ms");
    }
    add("kernels.trace_ms.spgemm.ws_off".into(), "ms");
    add("graph.bitmap_build_ms".into(), "ms");
    for w in STORE_BACKED {
        add(format!("kernels.trace_allocs.{}", w.key()), "count");
        add(format!("kernels.trace_alloc_mib.{}", w.key()), "MiB");
    }
    add("core.ws_hit_ratio".into(), "ratio");
    add("prep.load_ms".into(), "ms");
    add("prep.load_ms.copied".into(), "ms");
    add("prep.load_mib".into(), "MiB");
    add("prep.hit_ratio".into(), "ratio");
    add("prep.generate_ms".into(), "ms");
    add("prep.written_mib".into(), "MiB");
    add("sparse.generate_ms".into(), "ms");
    add("graph.generate_ms".into(), "ms");
    for w in TABLE6 {
        add(format!("kernels.run_ms.{}", w.key()), "ms");
    }
    for p in SIMD_PATHS {
        add(format!("core.mma_ns.{}", p.label()), "ns");
    }
    for p in SIMD_PATHS {
        add(format!("core.spmv_row_ns.{}", p.label()), "ns");
    }
    add("sim.time_us".into(), "us");
    add("sim.cells".into(), "count");
    add("kernels.count.mma_f64".into(), "count");
    add("kernels.count.mma_b1".into(), "count");
    add("kernels.count.fma_f64".into(), "count");
    add("kernels.global_bytes".into(), "bytes");
    add("bench.sweep_self_ms".into(), "ms");
    add("serve.parse_us".into(), "us");
    add("golden.encode_ms".into(), "ms");
    add("serve.store_load_ms".into(), "ms");
    add("serve.store_save_ms".into(), "ms");
    add("serve.accept_wait_ms".into(), "ms");
    for c in ["hits", "misses", "errors", "rejected"] {
        add(format!("serve.{c}"), "count");
    }
    add("serve.hit_ratio".into(), "ratio");
    add("golden.diff_ms".into(), "ms");
    add("trace.overhead_pct".into(), "%");
    m
}

/// Per-iteration metric samples; the reported value is their median.
#[derive(Default)]
struct Acc(BTreeMap<String, Vec<f64>>);

impl Acc {
    fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }
}

/// Run `f` with the span recorder on; its spans come back with it.
fn recorded<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanRecord>) {
    obs::enable();
    let out = f();
    obs::disable();
    (out, obs::drain())
}

/// The spans of `phase` whose label satisfies `pick`.
fn spans<'a>(
    all: &'a [SpanRecord],
    phase: &'a str,
    pick: impl Fn(&str) -> bool + 'a,
) -> impl Iterator<Item = &'a SpanRecord> + 'a {
    all.iter()
        .filter(move |s| s.phase == phase && pick(&s.label))
}

fn ms(span: &SpanRecord) -> f64 {
    span.dur_ns as f64 / 1e6
}

/// Whether the op with the recorder on runs first in iteration `i`: the
/// order alternates so neither mode always runs first.
fn traced_first(i: u64) -> bool {
    i % 2 == 1
}

/// Run one traced workload.
pub(crate) fn run(args: &RunArgs) -> Result<RunResult, String> {
    let state = StateDir::new(args.bench).map_err(|e| format!("state dir: {e}"))?;
    let mut acc = Acc::default();
    let (attempted, failed) = match args.bench {
        Bench::SuiteGolden => sweep_layers(args, &state, &mut acc)?,
        Bench::ServeMix => serve_layers(args, &state, &mut acc)?,
    };
    simd_probes(args.seed, &mut acc);
    let mut r = RunResult {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        ..RunResult::default()
    };
    for (name, unit) in per_layer_metrics() {
        let v = acc.0.get(&name).map_or(0.0, |s| median(s));
        r.put(name, v, unit);
    }
    Ok(r)
}

/// Op and byte counts summed over every trace of `sweep` (one device's
/// cells cover every trace once; the counts are device-independent).
fn count_ops(sweep: &Sweep, acc: &mut Acc) {
    let Some(first) = sweep.devices().first().map(|d| d.name.clone()) else {
        return;
    };
    let total: OpCounters = sweep
        .cells
        .iter()
        .filter(|c| c.device == first)
        .filter_map(|c| sweep.trace(c.workload, c.case_idx, c.variant))
        .map(|t| WorkloadTrace::total_ops(t))
        .sum();
    let bytes = |m: cubie::core::MemTraffic| m.coalesced + m.strided + m.random;
    acc.push("kernels.count.mma_f64", total.mma_f64 as f64);
    acc.push("kernels.count.mma_b1", total.mma_b1 as f64);
    acc.push("kernels.count.fma_f64", total.fma_f64 as f64);
    acc.push(
        "kernels.global_bytes",
        (bytes(total.gmem_load) + bytes(total.gmem_store)) as f64,
    );
}

/// Hit share of the workspace arenas since `before`.
fn ws_ratio(before: workspace::WsStats) -> f64 {
    let after = workspace::stats();
    let (h, m) = (after.hits - before.hits, after.misses - before.misses);
    if h + m == 0 {
        0.0
    } else {
        h as f64 / (h + m) as f64
    }
}

/// Checks one op's outcome, timing the check; returns whether it passed.
fn checked(acc: &mut Acc, attempted: &mut u64, check: impl FnOnce() -> Result<(), String>) -> bool {
    let (ok, diff_ms) = time_ms(check);
    acc.push("golden.diff_ms", diff_ms);
    *attempted += 1;
    if let Err(e) = &ok {
        eprintln!("op {attempted} failed: {e}");
    }
    ok.is_ok()
}

fn sweep_layers(args: &RunArgs, state: &StateDir, acc: &mut Acc) -> Result<(u64, u64), String> {
    let cfg = suite_config();

    // Cold generation: through the store, and the bare generators.
    use_prep_dir(&state.fresh("prep"));
    let written0 = counter_get("prep.bytes_written");
    acc.push("prep.generate_ms", time_ms(|| cold_prep(&cfg)).1);
    acc.push(
        "prep.written_mib",
        (counter_get("prep.bytes_written") - written0) as f64 / MIB,
    );
    let (m, ms_gen) = time_ms(|| cubie::sparse::generators::table4_matrices(cfg.sparse_scale));
    drop(m);
    acc.push("sparse.generate_ms", ms_gen);
    let (g, ms_gen) = time_ms(|| cubie::graph::generators::table3_graphs(cfg.graph_scale));
    acc.push("graph.generate_ms", ms_gen);
    let bitmaps = time_ms(|| {
        g.iter()
            .map(|(_, g)| cubie::graph::BitmapGraph::from_graph(g))
            .collect::<Vec<_>>()
    });
    acc.push("graph.bitmap_build_ms", bitmaps.1);

    let oracle = SweepCheck::new()?;
    drop(guarded(|| fresh_sweep(&cfg))); // warm-up; ops record failures

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut off_ms, mut on_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while attempted < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let first = traced_first(attempted / 2);
        for traced in [first, !first] {
            let (hit0, miss0, mapped0) = (
                counter_get("prep.hit"),
                counter_get("prep.miss"),
                counter_get("prep.bytes_mapped"),
            );
            let ws0 = workspace::stats();
            let ((sweep, ms), recs) = if traced {
                recorded(|| time_ms(|| guarded(|| fresh_sweep(&cfg))))
            } else {
                (time_ms(|| guarded(|| fresh_sweep(&cfg))), Vec::new())
            };
            if traced {
                on_ms.push(ms);
                acc.push("core.ws_hit_ratio", ws_ratio(ws0));
                let (hits, misses) = (
                    counter_get("prep.hit") - hit0,
                    counter_get("prep.miss") - miss0,
                );
                if hits + misses > 0 {
                    acc.push("prep.hit_ratio", hits as f64 / (hits + misses) as f64);
                    acc.push(
                        "prep.load_mib",
                        (counter_get("prep.bytes_mapped") - mapped0) as f64 / MIB,
                    );
                }
                // Self time: what the op's layer spans do not cover,
                // from one op, so no spell of the host falls between.
                let layers_ms = record_sweep_spans(&recs, acc);
                acc.push("bench.sweep_self_ms", ms - layers_ms);
                if let Ok(s) = &sweep {
                    count_ops(s, acc);
                }
            } else {
                off_ms.push(ms);
            }
            if !checked(acc, &mut attempted, || sweep.and_then(|s| oracle.check(&s))) {
                failed += 1;
            }
        }
        time_kernels(acc);
    }
    acc.push(
        "trace.overhead_pct",
        (median(&on_ms) / median(&off_ms) - 1.0) * 100.0,
    );

    // Ablations, from public switches only.
    // Time the loads only, as the `prepare` spans do.
    let prepare_all = || -> f64 {
        STORE_BACKED
            .iter()
            .map(|&w| time_ms(|| prepare_cases(w, cfg.sparse_scale, cfg.graph_scale)).1)
            .sum()
    };
    std::env::set_var("CUBIE_PREP_MMAP", "off");
    let copied: Vec<f64> = (0..3).map(|_| prepare_all()).collect();
    std::env::remove_var("CUBIE_PREP_MMAP");
    acc.push("prep.load_ms.copied", median(&copied));
    let cases = prepare_cases(Workload::Spgemm, cfg.sparse_scale, cfg.graph_scale);
    let prev = workspace::set_reuse(false);
    let ms_off = time_ms(|| {
        for c in &cases {
            for v in Workload::Spgemm.variants() {
                black_box(c.trace(v));
            }
        }
    })
    .1;
    workspace::set_reuse(prev);
    acc.push("kernels.trace_ms.spgemm.ws_off", ms_off);
    Ok((attempted, failed))
}

/// The per-layer metrics of one traced sweep op's spans. Returns the
/// time its layers' spans cover, ms (they do not nest).
fn record_sweep_spans(recs: &[SpanRecord], acc: &mut Acc) -> f64 {
    for w in Workload::ALL {
        let prefix = format!("{}/", w.key());
        let traces: Vec<&SpanRecord> = spans(recs, "trace", |l| l.starts_with(&prefix)).collect();
        acc.push(
            format!("kernels.trace_ms.{}", w.key()),
            traces.iter().map(|s| ms(s)).sum(),
        );
        if STORE_BACKED.contains(&w) {
            let (n, bytes) = traces
                .iter()
                .fold((0, 0), |(n, b), s| (n + s.alloc_count, b + s.alloc_bytes));
            acc.push(format!("kernels.trace_allocs.{}", w.key()), n as f64);
            acc.push(
                format!("kernels.trace_alloc_mib.{}", w.key()),
                bytes as f64 / MIB,
            );
        }
    }
    for v in Variant::ALL {
        let label = format!("bfs/{}", v.label());
        acc.push(
            format!("kernels.trace_ms.bfs.{}", variant_key(v)),
            spans(recs, "trace", |l| l == label).map(ms).sum(),
        );
    }
    let load: f64 = spans(recs, "prepare", |l| {
        STORE_BACKED.iter().any(|w| w.key() == l)
    })
    .map(ms)
    .sum();
    acc.push("prep.load_ms", load);
    let cells: Vec<f64> = spans(recs, "time", |_| true).map(ms).collect();
    acc.push("sim.cells", cells.len() as f64);
    acc.push("sim.time_us", median(&cells) * 1e3);
    ["prepare", "trace", "time"]
        .iter()
        .map(|&p| spans(recs, p, |_| true).map(ms).sum::<f64>())
        .sum()
}

// ------------------------------------------------------------ execute

/// Time the nine Table 6 kernels' `run` at the quick sizes, every
/// variant of each.
fn time_kernels(acc: &mut Acc) {
    fn each(acc: &mut Acc, w: Workload, mut f: impl FnMut(Variant)) {
        let ms = time_ms(|| {
            for v in w.variants() {
                f(v);
            }
        })
        .1;
        acc.push(format!("kernels.run_ms.{}", w.key()), ms);
    }
    let (a, x) = gemv::inputs(&gemv::GemvCase { m: 512, n: 16 });
    each(acc, Workload::Gemv, |v| {
        drop(black_box(gemv::run(&a, &x, v)))
    });
    let (a, b) = gemm::inputs(&gemm::GemmCase::square(96));
    each(acc, Workload::Gemm, |v| {
        drop(black_box(gemm::run(&a, &b, v)))
    });
    let m = cubie::sparse::generators::conf5_like(16);
    let x = spmv::input_vector(&m);
    each(acc, Workload::Spmv, |v| {
        drop(black_box(spmv::run(&m, &x, v)))
    });
    let m = cubie::sparse::generators::spmsrts_like(32);
    each(acc, Workload::Spgemm, |v| {
        drop(black_box(spgemm::run(&m, v)))
    });
    let case = fft::FftCase {
        h: 16,
        w: 32,
        batch: 2,
    };
    let data = fft::input(&case);
    each(acc, Workload::Fft, |v| {
        drop(black_box(fft::run(&case, &data, v)))
    });
    let case = stencil::StencilCase::star2d(64, 64);
    let x = stencil::input(&case);
    each(acc, Workload::Stencil, |v| {
        drop(black_box(stencil::run(&case, &x, v)))
    });
    let x = reduction::input(&reduction::ReductionCase { n: 1024 });
    each(acc, Workload::Reduction, |v| {
        drop(black_box(reduction::run(&x, v)))
    });
    let x = scan::input(&scan::ScanCase { n: 1024 });
    each(acc, Workload::Scan, |v| drop(black_box(scan::run(&x, v))));
    let case = pic::PicCase { n: 1024 };
    let (parts, grid) = pic::input(&case);
    each(acc, Workload::Pic, |v| {
        drop(black_box(pic::run(&case, &parts, &grid, v)))
    });
}

// ----------------------------------------------------------------- serve

/// One request re-driven through the daemon's layers against a
/// benchmark-owned store, each layer under a span of its own name. A
/// miss runs the sweep as the daemon does, so its `time` spans are the
/// timing model's cells.
fn redrive_request(line: &str, store: &Store) -> Result<(), String> {
    let req = {
        let _s = obs::span("serve.parse", "");
        parse_request(line)?
    };
    let Request::Sweep(spec) = req else {
        return Ok(()); // advise: parsing is the only shared layer
    };
    let cfg = spec.to_config()?;
    let key = StoreKey::for_request(&cfg.cache_key());
    let lookup = {
        let _s = obs::span("serve.store_load", "");
        store.load(&key)
    };
    let encode = |artifact: &Artifact| {
        let _s = obs::span("golden.encode", "");
        black_box(artifact.to_json().to_canonical_string());
    };
    if let Lookup::Hit(artifact) = lookup {
        encode(&artifact);
        return Ok(());
    }
    let artifact = SweepRunner::new(jobs1(cfg)).run().to_artifact();
    encode(&artifact);
    let _s = obs::span("serve.store_save", "");
    store
        .save(&key, &artifact)
        .map(drop)
        .map_err(|e| e.to_string())
}

fn jobs1(mut cfg: SweepConfig) -> SweepConfig {
    cfg.jobs = Some(1);
    cfg
}

fn serve_layers(args: &RunArgs, state: &StateDir, acc: &mut Acc) -> Result<(u64, u64), String> {
    let expected = warm_memo(state);
    let mut mix = Mix::new(args.seed);
    let hits: Vec<SweepSpec> = mix.hits().to_vec();
    let served = start_daemon(state, "serve", &hits)?;
    // The benchmark's own stores, one per re-drive mode so both see
    // every miss as a miss, seeded with the same hit entries.
    let open = |tag: &str| {
        Store::open(state.fresh(tag))
            .map(|(s, _)| s)
            .map_err(|e| e.to_string())
    };
    let stores = [open("bstore_off")?, open("bstore_on")?];
    for spec in &hits {
        let cfg = jobs1(spec.to_config()?);
        let sweep = SweepRunner::new(cfg.clone()).run();
        for store in &stores {
            store
                .save(
                    &StoreKey::for_request(&cfg.cache_key()),
                    &sweep.to_artifact(),
                )
                .map_err(|e| e.to_string())?;
        }
        if spec.filters.is_empty() {
            count_ops(&sweep, acc);
        }
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut off_ms, mut on_ms) = (0.0, 0.0);
    let start = Instant::now();
    while attempted < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let req = mix.next_req();
        let wire = req.to_json(&hits);
        let (resp, rt_ms) = time_ms(|| client_request(&served.socket, &wire));
        let want = match &req {
            MixReq::Hit(i) => Some(expected[*i].clone()),
            MixReq::Miss(spec) => Some(expected_payload(spec)?),
            MixReq::Advise(_) => None,
        };
        let ok = checked(acc, &mut attempted, || {
            resp.and_then(|r| check_response(&r, &req, want.as_deref()))
        });
        if !ok {
            failed += 1;
        }

        // The handler re-driven with the recorder off, then on (or the
        // other way round).
        let line = wire.to_canonical_string();
        let untraced = || time_ms(|| redrive_request(&line, &stores[0])).1;
        let traced = || recorded(|| time_ms(|| redrive_request(&line, &stores[1])));
        let (untraced_ms, ((redriven, traced_ms), recs)) = if traced_first(attempted) {
            let t = traced();
            (untraced(), t)
        } else {
            (untraced(), traced())
        };
        redriven?;
        off_ms += untraced_ms;
        on_ms += traced_ms;
        let total = |phase: &str| {
            let mut s = spans(&recs, phase, |_| true).map(ms).peekable();
            s.peek().is_some().then(|| s.sum::<f64>())
        };
        if let Some(v) = total("serve.parse") {
            acc.push("serve.parse_us", v * 1e3);
        }
        for (phase, metric) in [
            ("golden.encode", "golden.encode_ms"),
            ("serve.store_load", "serve.store_load_ms"),
            ("serve.store_save", "serve.store_save_ms"),
        ] {
            if let Some(v) = total(phase) {
                acc.push(metric, v);
            }
        }
        if !matches!(req, MixReq::Advise(_)) {
            acc.push("serve.accept_wait_ms", rt_ms - untraced_ms);
        }
        let cells: Vec<f64> = spans(&recs, "time", |_| true).map(ms).collect();
        if !cells.is_empty() {
            acc.push("sim.cells", cells.len() as f64);
            for c in cells {
                acc.push("sim.time_us", c * 1e3);
            }
        }
    }
    acc.push("trace.overhead_pct", (on_ms / off_ms - 1.0) * 100.0);

    let counters = daemon_counters(&served.socket)?;
    let count = |k: &str| {
        counters
            .get(k)
            .and_then(cubie::golden::Json::as_f64)
            .unwrap_or(0.0)
    };
    let (h, m) = (count("hit"), count("miss"));
    acc.push("serve.hits", h);
    acc.push("serve.misses", m);
    acc.push("serve.errors", count("error"));
    acc.push("serve.rejected", count("rejected"));
    acc.push(
        "serve.hit_ratio",
        if h + m > 0.0 { h / (h + m) } else { 0.0 },
    );
    Ok((attempted, failed))
}

// ------------------------------------------------------------------ simd

/// Per-call cost of the SIMD MMA core and SpMV row on every path this
/// host supports, through the `*_on` entry points.
fn simd_probes(seed: u64, acc: &mut Acc) {
    const CALLS: usize = 20_000;
    let mut rng = Rng::new(seed);
    let mut rand = |n: usize| (0..n).map(|_| rng.unit() - 0.5).collect::<Vec<f64>>();
    let (a, b) = (rand(32), rand(32));
    let vals = rand(256);
    let x = rand(4096);
    let cols: Vec<u32> = (0..256)
        .map(|i| ((i * 2654435761usize) % 4096) as u32)
        .collect();
    for path in simd::supported_paths() {
        let mut c = vec![0.0; 64];
        let mma: Vec<f64> = (0..5)
            .map(|_| {
                time_ms(|| {
                    for _ in 0..CALLS {
                        simd::mma_f64_m8n8k4_strided_on(
                            path,
                            black_box(&a),
                            0,
                            4,
                            black_box(&b),
                            0,
                            8,
                            &mut c,
                            0,
                            8,
                        );
                    }
                })
                .1
            })
            .collect();
        black_box(&c);
        acc.push(
            format!("core.mma_ns.{}", path.label()),
            median(&mma) * 1e6 / CALLS as f64,
        );
        let row: Vec<f64> = (0..5)
            .map(|_| {
                time_ms(|| {
                    for _ in 0..CALLS {
                        black_box(simd::spmv_csr_row_on(path, black_box(&vals), &cols, &x));
                    }
                })
                .1
            })
            .collect();
        acc.push(
            format!("core.spmv_row_ns.{}", path.label()),
            median(&row) * 1e6 / CALLS as f64,
        );
    }
}
