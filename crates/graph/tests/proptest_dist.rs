//! Differential property tests for the flat distance plane: the new dense
//! BFS ([`DistanceMap`] / [`DistanceBatch`]) against a **retained naive
//! `Option`-row reference** — a verbatim transcription of the pre-refactor
//! `bfs::distances` implementation, kept independent here so the
//! comparison is not tautological.
//!
//! Covered per the refactor's acceptance bar: random G(n,p), paths, and
//! grids; 1, 2, and 4 pool lanes; disconnected graphs (sentinel handling);
//! and the `n = 1` edge case. The hub-heavy families (preferential
//! attachment, stars, cliques, and multi-source sets with duplicates) are
//! the shapes on which the kernel's bottom-up levels run, so both
//! directions of the direction-optimizing BFS meet the reference.

use nas_graph::{generators, BatchScratch, BfsScratch, DistanceBatch, DistanceMap, Graph};
use nas_par::WorkerPool;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The pre-refactor BFS, verbatim: fresh `Vec<Option<u32>>` per call,
/// `VecDeque` frontier, `None` for unreachable vertices.
fn naive_multi_source(g: &Graph, sources: &[usize]) -> Vec<Option<u32>> {
    let n = g.num_vertices();
    let mut dist = vec![None; n];
    let mut queue = VecDeque::new();
    for &s in sources {
        assert!(s < n, "source {s} out of range");
        if dist[s].is_none() {
            dist[s] = Some(0);
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v].expect("queued vertex has distance");
        for &u in g.neighbors(v) {
            let u = u as usize;
            if dist[u].is_none() {
                dist[u] = Some(dv + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

fn naive_single(g: &Graph, source: usize) -> Vec<Option<u32>> {
    naive_multi_source(g, &[source])
}

/// One full differential round over a graph: single-source and
/// multi-source flat fills vs the naive reference, plus the batched fill
/// at 1/2/4 lanes.
fn check_graph(g: &Graph, sources: &[usize]) {
    let mut map = DistanceMap::new();
    let mut scratch = BfsScratch::new();
    for &s in sources {
        map.fill(g, [s], &mut scratch);
        assert_eq!(&map.to_options(), &naive_single(g, s), "source {}", s);
        // Owned constructor agrees with the scratch path.
        assert_eq!(&DistanceMap::from_source(g, s), &map);
    }
    map.fill(g, sources.iter().copied(), &mut scratch);
    assert_eq!(&map.to_options(), &naive_multi_source(g, sources));

    let want_rows: Vec<Vec<Option<u32>>> = sources.iter().map(|&s| naive_single(g, s)).collect();
    for threads in [1usize, 2, 4] {
        let pool = WorkerPool::new(threads);
        let mut batch = DistanceBatch::new();
        let mut bscratch = BatchScratch::new();
        batch.fill(g, sources, &mut bscratch, &pool);
        assert_eq!(batch.rows(), sources.len());
        for (i, want) in want_rows.iter().enumerate() {
            let got: Vec<Option<u32>> = (0..g.num_vertices()).map(|v| batch.get(i, v)).collect();
            assert_eq!(&got, want, "row {} at {} lanes", i, threads);
        }
        // Multi-source batch: each row set is a prefix of `sources`.
        let sets: Vec<&[usize]> = (1..=sources.len()).map(|k| &sources[..k]).collect();
        batch.fill_multi(g, &sets, &mut bscratch, &pool);
        for (i, set) in sets.iter().enumerate() {
            let want = naive_multi_source(g, set);
            let got: Vec<Option<u32>> = (0..g.num_vertices()).map(|v| batch.get(i, v)).collect();
            assert_eq!(&got, &want, "multi row {} at {} lanes", i, threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random G(n,p) — including sparse regimes that leave the graph
    /// disconnected, so the sentinel path is exercised constantly.
    #[test]
    fn flat_matches_naive_on_gnp(
        n in 1usize..60,
        p in 0.0f64..0.3,
        seed in 0u64..10_000,
        picks in prop::collection::vec(0usize..60, 1..6),
    ) {
        let g = generators::gnp(n, p, seed);
        let sources: Vec<usize> = picks.into_iter().map(|s| s % n).collect();
        check_graph(&g, &sources);
    }

    /// Paths: maximal-diameter traversals (the deepest frontier swaps).
    #[test]
    fn flat_matches_naive_on_paths(
        n in 1usize..80,
        picks in prop::collection::vec(0usize..80, 1..4),
    ) {
        let g = generators::path(n);
        let sources: Vec<usize> = picks.into_iter().map(|s| s % n).collect();
        check_graph(&g, &sources);
    }

    /// Grids: wide frontiers with many same-level ties.
    #[test]
    fn flat_matches_naive_on_grids(
        rows in 1usize..10,
        cols in 1usize..10,
        picks in prop::collection::vec(0usize..100, 1..4),
    ) {
        let g = generators::grid2d(rows, cols);
        let n = g.num_vertices();
        let sources: Vec<usize> = picks.into_iter().map(|s| s % n).collect();
        check_graph(&g, &sources);
    }

    /// Preferential attachment: hubs put most vertices within two or three
    /// levels of any source, which is where the kernel turns bottom-up.
    #[test]
    fn flat_matches_naive_on_pref_attach(
        n in 2usize..400,
        attach in 1usize..6,
        seed in 0u64..10_000,
        picks in prop::collection::vec(0usize..400, 1..5),
    ) {
        let attach = attach.min(n - 1);
        let g = generators::preferential_attachment(n, attach, seed);
        let sources: Vec<usize> = picks.into_iter().map(|s| s % n).collect();
        check_graph(&g, &sources);
    }

    /// Stars: from a leaf, level 2 is every other leaf; from the center,
    /// level 1 is the whole graph.
    #[test]
    fn flat_matches_naive_on_stars(
        n in 1usize..200,
        picks in prop::collection::vec(0usize..200, 1..4),
    ) {
        let g = generators::star(n);
        let sources: Vec<usize> = picks.into_iter().map(|s| s % n).collect();
        check_graph(&g, &sources);
    }

    /// Complete graphs: one level holds every vertex but the source.
    #[test]
    fn flat_matches_naive_on_complete(
        n in 1usize..40,
        picks in prop::collection::vec(0usize..40, 1..4),
    ) {
        let g = generators::complete(n);
        let sources: Vec<usize> = picks.into_iter().map(|s| s % n).collect();
        check_graph(&g, &sources);
    }

    /// Multi-source sets with repeated sources on a hub-heavy graph: a
    /// duplicate must neither re-seed a vertex nor count its arcs twice.
    #[test]
    fn flat_matches_naive_on_duplicate_sources(
        n in 2usize..300,
        seed in 0u64..10_000,
        picks in prop::collection::vec(0usize..300, 1..4),
        repeats in 2usize..4,
    ) {
        let g = generators::preferential_attachment(n, 3.min(n - 1), seed);
        let base: Vec<usize> = picks.into_iter().map(|s| s % n).collect();
        let sources: Vec<usize> = (0..repeats).flat_map(|_| base.iter().copied()).collect();
        check_graph(&g, &sources);
    }

    /// Hard disconnection: two components plus isolated vertices.
    #[test]
    fn flat_matches_naive_on_disconnected(
        left in 1usize..20,
        right in 1usize..20,
        isolated in 0usize..5,
        source_side in 0usize..2,
    ) {
        let n = left + right + isolated;
        let mut b = nas_graph::GraphBuilder::new(n);
        for v in 1..left {
            b.add_edge(v - 1, v);
        }
        for v in (left + 1)..(left + right) {
            b.add_edge(v - 1, v);
        }
        let g = b.build();
        let s = if source_side == 0 { 0 } else { left };
        check_graph(&g, &[s]);
        // Both components at once.
        check_graph(&g, &[0, left]);
    }
}

/// The `n = 1` graph, pinned explicitly (no random generation involved).
#[test]
fn single_vertex_graph() {
    let g = generators::path(1);
    check_graph(&g, &[0]);
    check_graph(&g, &[0, 0]);
}
