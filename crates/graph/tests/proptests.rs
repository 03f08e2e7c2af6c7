//! Property-based tests of the graph substrate.

use cubie_graph::bitmap::{BitmapGraph, Slice, BLOCK_COLS, BLOCK_ROWS};
use cubie_graph::csr_graph::CsrGraph;
use proptest::prelude::*;

/// Arbitrary small graph as (n, edges, symmetrize).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, bool)> {
    (2usize..300, any::<bool>()).prop_flat_map(|(n, sym)| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..600);
        (Just(n), edges, Just(sym))
    })
}

/// Vertex counts on and around the 8-row band and 128-column block
/// boundaries of the bitmap format.
const BOUNDARY_N: [usize; 12] = [1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1000, 1031];

/// A boundary-sized graph through `from_edges` as (n, edges,
/// symmetrize): self-loops and duplicate edges included, and targets
/// confined to the first `spread/8` of the vertices so whole row bands
/// stay empty.
fn arb_boundary_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, bool)> {
    (any::<prop::sample::Index>(), 1usize..9, any::<bool>()).prop_flat_map(|(pick, spread, sym)| {
        let n = BOUNDARY_N[pick.index(BOUNDARY_N.len())];
        let hi = (n * spread).div_ceil(8) as u32;
        let edges = proptest::collection::vec((0..n as u32, 0..hi), 0..3 * n + 1);
        (Just(n), edges, Just(sym))
    })
}

/// Raw CSR adjacency that `from_edges` would never emit: per-vertex
/// lists unsorted, with duplicate arcs and self-loops as drawn.
fn arb_raw_csr() -> impl Strategy<Value = CsrGraph> {
    (any::<prop::sample::Index>(), 1usize..9)
        .prop_flat_map(|(pick, spread)| {
            let n = BOUNDARY_N[pick.index(BOUNDARY_N.len())];
            let hi = (n * spread).div_ceil(8) as u32;
            let lists = proptest::collection::vec(proptest::collection::vec(0..hi, 0..6), n);
            (Just(n), lists)
        })
        .prop_map(|(n, lists)| {
            let mut offsets = vec![0usize];
            let mut adj = Vec::new();
            for l in lists {
                adj.extend(l);
                offsets.push(adj.len());
            }
            CsrGraph::from_parts(n, offsets.into(), adj.into())
        })
}

/// The comparison-sort construction `BitmapGraph::from_graph` replaced,
/// kept as the oracle: one `(band, col block, local row, local col)`
/// key per arc of the transpose, sorted, then grouped into slices.
fn sort_based_bitmap(g: &CsrGraph) -> BitmapGraph {
    let n = g.n;
    let row_blocks = n.div_ceil(BLOCK_ROWS);
    let mut keys = Vec::with_capacity(g.num_arcs());
    for u in 0..n {
        for &v in g.neighbors(u) {
            let (r, c) = (v as usize, u);
            keys.push((
                (r / BLOCK_ROWS) as u32,
                (c / BLOCK_COLS) as u32,
                (r % BLOCK_ROWS) as u8,
                (c % BLOCK_COLS) as u8,
            ));
        }
    }
    keys.sort_unstable();
    let mut offsets = vec![0usize; row_blocks + 1];
    let mut slices: Vec<Slice> = Vec::new();
    let mut current: Option<(u32, u32)> = None;
    for &(rb, cb, lr, lc) in &keys {
        if current != Some((rb, cb)) {
            slices.push(Slice {
                col_block: cb,
                rows: [0u128; BLOCK_ROWS],
            });
            current = Some((rb, cb));
        }
        slices.last_mut().unwrap().rows[lr as usize] |= 1u128 << lc;
        offsets[rb as usize + 1] = slices.len();
    }
    for i in 1..=row_blocks {
        offsets[i] = offsets[i].max(offsets[i - 1]);
    }
    BitmapGraph {
        n,
        row_blocks,
        col_blocks: n.div_ceil(BLOCK_COLS),
        offsets,
        slices,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The counting-sort bitmap build equals the comparison-sort oracle
    /// on directed and symmetric graphs of boundary sizes.
    #[test]
    fn bitmap_build_matches_sort_oracle((n, edges, sym) in arb_boundary_graph()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        prop_assert_eq!(BitmapGraph::from_graph(&g), sort_based_bitmap(&g));
    }

    /// ... and on raw adjacency with unsorted lists and duplicate arcs.
    #[test]
    fn bitmap_build_matches_sort_oracle_on_raw_csr(g in arb_raw_csr()) {
        prop_assert_eq!(BitmapGraph::from_graph(&g), sort_based_bitmap(&g));
    }

    /// CSR adjacency is sorted, deduplicated and in bounds.
    #[test]
    fn csr_graph_well_formed((n, edges, sym) in arb_graph()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        prop_assert_eq!(g.offsets.len(), n + 1);
        for v in 0..n {
            let nb = g.neighbors(v);
            for w in nb.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for &u in nb {
                prop_assert!((u as usize) < n);
            }
        }
    }

    /// Symmetrized graphs contain every reverse arc.
    #[test]
    fn symmetrize_creates_reverse_arcs((n, edges, _) in arb_graph()) {
        let g = CsrGraph::from_edges(n, &edges, true);
        for u in 0..n {
            for &v in g.neighbors(u) {
                if v as usize != u {
                    prop_assert!(
                        g.neighbors(v as usize).contains(&(u as u32)),
                        "missing {}→{}",
                        v,
                        u
                    );
                }
            }
        }
    }

    /// BFS levels satisfy the defining property: level(v) = 1 + min
    /// level over in-neighbours, and every edge spans ≤ 1 level.
    #[test]
    fn bfs_levels_are_consistent((n, edges, sym) in arb_graph(), src_pick in any::<prop::sample::Index>()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        let src = src_pick.index(n);
        let level = g.bfs_serial(src);
        prop_assert_eq!(level[src], 0);
        for u in 0..n {
            if level[u] < 0 {
                continue;
            }
            for &v in g.neighbors(u) {
                let lv = level[v as usize];
                prop_assert!(lv >= 0, "reachable vertex unlabelled");
                prop_assert!(lv <= level[u] + 1, "edge {}→{} spans >1 level", u, v);
            }
        }
    }

    /// The bitmap slice-set holds exactly the arcs of the graph.
    #[test]
    fn bitmap_preserves_arcs((n, edges, sym) in arb_graph()) {
        let g = CsrGraph::from_edges(n, &edges, sym);
        let b = BitmapGraph::from_graph(&g);
        prop_assert_eq!(b.num_bits(), g.num_arcs());
        // Spot-check: every arc u→v sets bit u of row v.
        for u in 0..n {
            for &v in g.neighbors(u) {
                let band = b.band(v as usize / 8);
                let cb = (u / 128) as u32;
                let slice = band.iter().find(|s| s.col_block == cb);
                prop_assert!(slice.is_some(), "missing slice for arc {}→{}", u, v);
                let bit = slice.unwrap().rows[v as usize % 8] >> (u % 128) & 1;
                prop_assert_eq!(bit, 1, "bit unset for arc {}→{}", u, v);
            }
        }
    }

    /// BFS-order relabelling preserves the degree sequence and the arc
    /// count (it is a vertex permutation).
    #[test]
    fn relabel_preserves_structure((n, edges, _) in arb_graph()) {
        let g = CsrGraph::from_edges(n, &edges, true);
        let r = g.relabel_by_bfs_order();
        prop_assert_eq!(r.num_arcs(), g.num_arcs());
        let mut a: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
        let mut b: Vec<usize> = (0..n).map(|v| r.degree(v)).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}
