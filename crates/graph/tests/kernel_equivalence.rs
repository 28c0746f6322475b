//! Kernel equivalence: the direction-optimizing hybrid BFS and the
//! bit-parallel multi-source BFS must produce exactly the rows the scalar
//! top-down BFS produces — BFS levels are uniquely determined by the
//! graph, so any divergence is a kernel bug, not a tolerance question.

use cp_graph::bfs::{bfs, bfs_scalar_into, BfsWorkspace};
use cp_graph::builder::graph_from_edges;
use cp_graph::msbfs::{msbfs, msbfs_into, msbfs_visit, MsBfsWorkspace, WAVE_WIDTH};
use cp_graph::{NodeId, INF};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy: a random edge list over up to `n` nodes. Node universes are
/// deliberately larger than the edge count can saturate, so disconnected
/// components and fully isolated nodes occur routinely.
fn edge_list(n: u32, max_edges: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..=n).prop_flat_map(move |nodes| {
        let edges = prop::collection::vec((0..nodes, 0..nodes), 0..max_edges);
        (Just(nodes as usize), edges)
    })
}

/// Strategy: an edge list plus a batch of source nodes of the given width
/// (sources may repeat and may be isolated).
fn case_with_sources(
    n: u32,
    max_edges: usize,
    width: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32)>, Vec<u32>)> {
    (2..=n).prop_flat_map(move |nodes| {
        let edges = prop::collection::vec((0..nodes, 0..nodes), 0..max_edges);
        let sources = prop::collection::vec(0..nodes, width..=width);
        (Just(nodes as usize), edges, sources)
    })
}

fn assert_wave_matches_per_source(
    n: usize,
    edges: &[(u32, u32)],
    sources: &[u32],
) -> Result<(), TestCaseError> {
    let g = graph_from_edges(n, edges);
    let src: Vec<NodeId> = sources.iter().map(|&s| NodeId(s)).collect();
    let rows = msbfs(&g, &src);
    prop_assert_eq!(rows.len(), src.len());
    let mut ws = BfsWorkspace::new();
    for (i, &s) in src.iter().enumerate() {
        let mut expect = Vec::new();
        bfs_scalar_into(&g, s, &mut expect, &mut ws);
        prop_assert_eq!(&rows[i], &expect, "row of source {} diverges", s);
    }
    Ok(())
}

proptest! {
    // Width 1: a degenerate wave must still equal single-source BFS.
    #[test]
    fn msbfs_width_1_matches_bfs((n, edges, sources) in case_with_sources(40, 100, 1)) {
        assert_wave_matches_per_source(n, &edges, &sources)?;
    }

    // Width 3: a partial wave (most common case in the oracle's batches).
    #[test]
    fn msbfs_width_3_matches_bfs((n, edges, sources) in case_with_sources(40, 100, 3)) {
        assert_wave_matches_per_source(n, &edges, &sources)?;
    }

    // Width 64: a full wave — every bit of the u64 words in use.
    #[test]
    fn msbfs_width_64_matches_bfs((n, edges, sources) in case_with_sources(80, 200, 64)) {
        assert_wave_matches_per_source(n, &edges, &sources)?;
    }

    // Width 65: forces the chunking path (one full wave plus a remainder).
    #[test]
    fn msbfs_width_65_matches_bfs((n, edges, sources) in case_with_sources(80, 200, 65)) {
        assert_wave_matches_per_source(n, &edges, &sources)?;
    }

    // The direction-optimizing hybrid (`bfs`/`bfs_into`) equals the scalar
    // reference kernel from every source, including isolated nodes.
    #[test]
    fn hybrid_bfs_matches_scalar((n, edges) in edge_list(48, 140)) {
        let g = graph_from_edges(n, &edges);
        let mut ws = BfsWorkspace::new();
        for s in g.nodes() {
            let mut expect = Vec::new();
            bfs_scalar_into(&g, s, &mut expect, &mut ws);
            prop_assert_eq!(bfs(&g, s), expect, "source {} diverges", s);
        }
    }

    // Workspace reuse across waves of different graphs must not leak state.
    #[test]
    fn msbfs_workspace_reuse_is_clean(
        (n1, edges1, sources1) in case_with_sources(40, 80, 5),
        (n2, edges2, sources2) in case_with_sources(24, 50, 7),
    ) {
        let ga = graph_from_edges(n1, &edges1);
        let gb = graph_from_edges(n2, &edges2);
        let src_a: Vec<NodeId> = sources1.iter().map(|&s| NodeId(s)).collect();
        let src_b: Vec<NodeId> = sources2.iter().map(|&s| NodeId(s)).collect();
        let mut msws = MsBfsWorkspace::new();
        let mut rows_a: Vec<Vec<u32>> = vec![Vec::new(); src_a.len()];
        msbfs_into(&ga, &src_a, &mut rows_a, &mut msws);
        let mut rows_b: Vec<Vec<u32>> = vec![Vec::new(); src_b.len()];
        msbfs_into(&gb, &src_b, &mut rows_b, &mut msws);
        prop_assert_eq!(&rows_a, &msbfs(&ga, &src_a));
        prop_assert_eq!(&rows_b, &msbfs(&gb, &src_b));
    }

    // The visitor reports every `(bit, node)` discovery exactly once, at
    // the node's BFS level from that bit's source, in nondecreasing level
    // order, whichever direction each level runs in — and `msbfs_into`
    // rows through the same workspace, reused
    // across graphs and interleaved with visits, stay per-source BFS rows.
    #[test]
    fn msbfs_visit_reports_each_discovery_once_at_its_level(
        (n1, edges1, sources1) in case_with_sources(80, 200, 64),
        (n2, edges2, sources2) in case_with_sources(40, 80, 9),
    ) {
        let ga = graph_from_edges(n1, &edges1);
        let gb = graph_from_edges(n2, &edges2);
        let src_a: Vec<NodeId> = sources1.iter().map(|&s| NodeId(s)).collect();
        let src_b: Vec<NodeId> = sources2.iter().map(|&s| NodeId(s)).collect();
        let mut ws = MsBfsWorkspace::new();
        for (g, src) in [(&ga, &src_a), (&gb, &src_b), (&ga, &src_a)] {
            let mut expect = BTreeMap::new();
            for (b, &s) in src.iter().enumerate() {
                for (v, &d) in bfs(g, s).iter().enumerate() {
                    if d != INF {
                        expect.insert((b, NodeId::new(v)), d);
                    }
                }
            }
            let mut reported = BTreeMap::new();
            let (mut duplicates, mut out_of_order, mut last) = (0, 0, 0);
            msbfs_visit(g, src, &mut ws, |b, v, level| {
                duplicates += usize::from(reported.insert((b, v), level).is_some());
                out_of_order += usize::from(level < last);
                last = level;
            });
            prop_assert_eq!(duplicates, 0, "a discovery was reported twice");
            prop_assert_eq!(out_of_order, 0, "levels went backwards");
            prop_assert_eq!(reported, expect);

            let mut rows = vec![Vec::new(); src.len()];
            msbfs_into(g, src, &mut rows, &mut ws);
            for (b, &s) in src.iter().enumerate() {
                prop_assert_eq!(&rows[b], &bfs(g, s), "row of source {} diverges", s);
            }
        }
    }
}

/// A wave capped exactly at [`WAVE_WIDTH`] distinct sources on a graph with
/// several components: every row must match per-source BFS, including the
/// all-`INF`-except-self rows of isolated sources.
#[test]
fn full_wave_on_disconnected_graph() {
    // Three components: a 30-cycle, a 20-path, and 30 isolated nodes.
    let mut edges: Vec<(u32, u32)> = (0..30).map(|i| (i, (i + 1) % 30)).collect();
    edges.extend((30..49).map(|i| (i, i + 1)));
    let g = graph_from_edges(80, &edges);
    let sources: Vec<NodeId> = (0..WAVE_WIDTH as u32).map(NodeId).collect();
    let rows = msbfs(&g, &sources);
    for (i, &s) in sources.iter().enumerate() {
        assert_eq!(rows[i], bfs(&g, s), "source {s}");
    }
}
