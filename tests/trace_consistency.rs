//! Cross-crate consistency: the analytic traces that feed the simulator
//! must describe exactly the computation the functional kernels perform.

use cubie::core::C64;
use cubie::graph::bitmap::BLOCK_COLS;
use cubie::graph::{generators as graph_gen, CsrGraph};
use cubie::kernels::{
    bfs, fft, gemm, gemv, pic, prepare_cases, reduction, scan, spmv, stencil, Variant, Workload,
};

#[test]
fn gemm_run_returns_its_analytic_trace() {
    let case = gemm::GemmCase::square(128);
    let (a, b) = gemm::inputs(&case);
    for v in [Variant::Baseline, Variant::Tc, Variant::Cc] {
        let (_, rt) = gemm::run(&a, &b, v);
        assert_eq!(rt, gemm::trace(&case, v), "{v}");
    }
}

#[test]
fn gemv_scan_reduction_traces_match() {
    let case = gemv::GemvCase { m: 512, n: 16 };
    let (a, x) = gemv::inputs(&case);
    for v in Variant::ALL {
        assert_eq!(gemv::run(&a, &x, v).1, gemv::trace(&case, v), "gemv {v}");
    }
    let sc = scan::ScanCase { n: 512 };
    let xs = scan::input(&sc);
    for v in Variant::ALL {
        assert_eq!(scan::run(&xs, v).1, scan::trace(&sc, v), "scan {v}");
    }
    let rc = reduction::ReductionCase { n: 512 };
    let xr = reduction::input(&rc);
    for v in Variant::ALL {
        assert_eq!(
            reduction::run(&xr, v).1,
            reduction::trace(&rc, v),
            "reduction {v}"
        );
    }
}

#[test]
fn spmv_trace_is_structure_determined() {
    let m = cubie::sparse::generators::chevron1_like(16);
    let x = spmv::input_vector(&m);
    for v in Variant::ALL {
        assert_eq!(spmv::run(&m, &x, v).1, spmv::trace(&m, v), "{v}");
    }
}

#[test]
fn stencil_and_pic_traces_match() {
    let case = stencil::StencilCase::star2d(48, 64);
    let x = stencil::input(&case);
    for v in [Variant::Baseline, Variant::Tc, Variant::Cc] {
        assert_eq!(
            stencil::run(&case, &x, v).1,
            stencil::trace(&case, v),
            "{v}"
        );
    }
    let pc = pic::PicCase { n: 2048 };
    let (parts, grid) = pic::input(&pc);
    for v in [Variant::Tc, Variant::Cc] {
        assert_eq!(
            pic::run(&pc, &parts, &grid, v).1,
            pic::trace(&pc, v),
            "pic {v}"
        );
    }
}

#[test]
fn fft_executed_mma_count_matches_trace() {
    // The 1-D batched kernel exposes its executed counters; they must
    // equal the analytic per-group MMA formula underlying the 2-D trace.
    for log_n in [2u32, 3, 4, 5] {
        let n = 1usize << (2 * log_n.min(4)); // 16..256 (pure radix-4)
        let mut g = cubie::core::LcgF64::new(log_n as u64);
        let mut xs: Vec<Vec<C64>> = (0..8)
            .map(|_| {
                (0..n)
                    .map(|_| C64::new(g.next_f64(), g.next_f64()))
                    .collect()
            })
            .collect();
        let ctr = fft::fft1d_batch(&mut xs, Variant::Tc);
        let l4 = (n.trailing_zeros() / 2) as u64;
        assert_eq!(
            ctr.mma_f64,
            l4 * (n as u64 / 4) * 2,
            "n={n}: executed MMA count"
        );
    }
}

#[test]
fn gemm_functional_asserts_mma_against_trace_internally() {
    // run_tiled_mma asserts executed == analytic; exercise it on ragged
    // shapes where off-by-one tiling errors would show.
    let a = cubie::core::DenseMatrix::random(72, 100, 1);
    let b = cubie::core::DenseMatrix::random(100, 88, 2);
    let (_, t) = gemm::run(&a, &b, Variant::Tc);
    assert!(t.total_ops().mma_f64 > 0);
}

/// BFS inputs as (name, graph, source): symmetric and directed RMAT, a
/// disconnected graph, an isolated source, and vertex counts that are
/// not multiples of the 8-row band or the 128-column block.
fn bfs_graphs() -> Vec<(&'static str, CsrGraph, usize)> {
    let sym = graph_gen::rmat(1 << 10, 6 << 10, 0.5, 0.2, 0.2, 0.1, 9, true);
    let dir = graph_gen::rmat(1 << 10, 6 << 10, 0.57, 0.19, 0.19, 0.05, 4, false);
    // Two grids side by side with no arc between them.
    let mut edges = Vec::new();
    for (base, w) in [(0u32, 10u32), (200, 9)] {
        for y in 0..w {
            for x in 0..w {
                let v = base + y * w + x;
                if x + 1 < w {
                    edges.push((v, v + 1));
                }
                if y + 1 < w {
                    edges.push((v, v + w));
                }
            }
        }
    }
    let disconnected = CsrGraph::from_edges(300, &edges, true);
    // Vertex 500 has no arcs at all.
    let mut lcg = cubie::core::LcgF64::new(3);
    let ragged_edges: Vec<(u32, u32)> = (0..4000)
        .map(|_| {
            let u = lcg.next_raw() % 1001;
            let v = lcg.next_raw() % 1001;
            (u as u32, v as u32)
        })
        .filter(|&(u, v)| u != 500 && v != 500)
        .collect();
    let ragged = CsrGraph::from_edges(1001, &ragged_edges, false);
    let grid = graph_gen::grid_graph(13, 23); // 299 vertices
    let myc = graph_gen::mycielskian(8); // 191 vertices
    vec![
        ("rmat-sym", sym.clone(), sym.max_degree_vertex()),
        ("rmat-dir", dir.clone(), dir.max_degree_vertex()),
        ("disconnected", disconnected, 0),
        ("isolated-source", ragged.clone(), 500),
        ("ragged-1001", ragged.clone(), ragged.max_degree_vertex()),
        ("grid-299", grid, 150),
        ("mycielskian-191", myc.clone(), myc.max_degree_vertex()),
    ]
}

#[test]
fn bfs_run_trace_and_trace_all_agree() {
    for (name, g, src) in bfs_graphs() {
        let gold = bfs::reference(&g, src);
        let all = bfs::trace_all(&g, src);
        for (i, v) in Variant::ALL.into_iter().enumerate() {
            let (levels, rt) = bfs::run(&g, src, v);
            assert_eq!(levels, gold, "{name} {v}: levels");
            assert_eq!(rt, bfs::trace(&g, src, v), "{name} {v}: run vs trace");
            assert_eq!(all[i], bfs::trace(&g, src, v), "{name} {v}: trace_all");
        }
    }
}

#[test]
fn bfs_bitmap_variants_share_one_traversal_profile() {
    for (name, g, src) in bfs_graphs() {
        let (levels, profile) = bfs::traverse_bitmap(&g, src);
        assert_eq!(levels, bfs::reference(&g, src), "{name}");
        // One launch per discovered level plus the empty-frontier check.
        let depth = *levels.iter().max().unwrap() as usize;
        assert_eq!(profile.len(), depth + 1, "{name}");
        let discovered: u64 = profile.iter().map(|l| l.next_count).sum();
        let reached = levels.iter().filter(|&&l| l > 0).count() as u64;
        assert_eq!(discovered, reached, "{name}");
        for v in [Variant::Tc, Variant::Cc, Variant::CcE] {
            assert_eq!(
                bfs::bitmap_trace(&profile, g.n.div_ceil(BLOCK_COLS), v),
                bfs::trace(&g, src, v),
                "{name} {v}"
            );
        }
    }
}

#[test]
fn prepared_bfs_traces_equal_per_variant_traces() {
    let cases = prepare_cases(Workload::Bfs, 64, 512);
    assert_eq!(cases.len(), 5);
    for case in &cases {
        let all = case.traces();
        let each: Vec<_> = Variant::ALL.into_iter().map(|v| case.trace(v)).collect();
        assert_eq!(all, each, "{}", case.label());
    }
}
