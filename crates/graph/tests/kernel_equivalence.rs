//! Kernel equivalence: the direction-optimizing hybrid BFS and the
//! bit-parallel multi-source BFS must produce exactly the rows the scalar
//! top-down BFS produces — BFS levels are uniquely determined by the
//! graph, so any divergence is a kernel bug, not a tolerance question.

use cp_graph::bfs::{bfs, bfs_scalar_into, BfsWorkspace};
use cp_graph::builder::graph_from_edges;
use cp_graph::dijkstra::dijkstra;
use cp_graph::msbfs::{msbfs, msbfs_into, msbfs_visit, MsBfsWorkspace, WAVE_WIDTH};
use cp_graph::repair::{delta_repair, delta_repair_into, snapshot_delta, RepairWorkspace};
use cp_graph::{GraphBuilder, NodeId, INF};
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
    // order — and `msbfs_into` rows through the same workspace, reused
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
            let mut reported = BTreeMap::new();
            let (mut duplicates, mut out_of_order, mut last) = (0, 0, 0);
            msbfs_visit(g, src, &mut ws, |b, v, level| {
                duplicates += usize::from(reported.insert((b, v), level).is_some());
                out_of_order += usize::from(level < last);
                last = level;
            });
            prop_assert_eq!(duplicates, 0, "a discovery was reported twice");
            prop_assert_eq!(out_of_order, 0, "levels went backwards");
            let mut expect = BTreeMap::new();
            for (b, &s) in src.iter().enumerate() {
                for (v, &d) in bfs(g, s).iter().enumerate() {
                    if d != INF {
                        expect.insert((b, NodeId::new(v)), d);
                    }
                }
            }
            prop_assert_eq!(reported, expect);

            let mut rows = vec![Vec::new(); src.len()];
            msbfs_into(g, src, &mut rows, &mut ws);
            for (b, &s) in src.iter().enumerate() {
                prop_assert_eq!(&rows[b], &bfs(g, s), "row of source {} diverges", s);
            }
        }
    }
}

/// Strategy: a growing snapshot pair with node insertions. `g1`'s edges
/// live on the first `k ≤ n` nodes of an `n`-node universe; `g2` adds
/// edges over the whole universe — so nodes `k..n` model inserted nodes
/// (isolated at `t1`), and the extra edges routinely connect previously
/// separate components or touch previously isolated ones.
type GrowingPair = (usize, Vec<(u32, u32)>, Vec<(u32, u32)>);

fn growing_pair(n: u32) -> impl Strategy<Value = GrowingPair> {
    (4..=n).prop_flat_map(move |nodes| {
        (1..=nodes).prop_flat_map(move |active| {
            let base = prop::collection::vec((0..active, 0..active), 0..80);
            let extra = prop::collection::vec((0..nodes, 0..nodes), 0..40);
            (Just(nodes as usize), base, extra)
        })
    })
}

proptest! {
    // Snapshot-delta repair of a t1 BFS row equals a fresh BFS on t2 from
    // every source — inserted isolated nodes, newly connected components,
    // and sources unreachable at t1 included.
    #[test]
    fn bfs_repair_matches_fresh_bfs((n, base, extra) in growing_pair(40)) {
        let g1 = graph_from_edges(n, &base);
        let all: Vec<(u32, u32)> = base.iter().chain(extra.iter()).copied().collect();
        let g2 = graph_from_edges(n, &all);
        let delta = snapshot_delta(&g1, &g2);
        prop_assert!(delta.growth_only, "insert-only pairs must be repairable");
        let mut ws = RepairWorkspace::new();
        let mut dist = Vec::new();
        for s in g1.nodes() {
            let t1_row = bfs(&g1, s);
            let settled = delta_repair_into(&g2, &t1_row, &delta, &mut dist, &mut ws);
            prop_assert_eq!(&dist, &bfs(&g2, s), "repaired row of source {} diverges", s);
            prop_assert!(settled <= n, "settled count bounded by the universe");
        }
    }

    // The empty delta: identical snapshots repair to a bit-identical copy
    // with nothing settled.
    #[test]
    fn empty_delta_repair_is_a_copy((n, edges) in edge_list(32, 90)) {
        let g = graph_from_edges(n, &edges);
        let delta = snapshot_delta(&g, &g);
        prop_assert!(delta.growth_only);
        prop_assert!(delta.inserted.is_empty());
        let mut ws = RepairWorkspace::new();
        let mut dist = Vec::new();
        for s in g.nodes() {
            let t1_row = bfs(&g, s);
            let settled = delta_repair_into(&g, &t1_row, &delta, &mut dist, &mut ws);
            prop_assert_eq!(settled, 0, "empty delta settles nothing");
            prop_assert_eq!(&dist, &t1_row);
        }
    }

    // Weighted counterpart: Dijkstra-repair of a t1 row equals a fresh
    // Dijkstra on t2 for random insert-only weighted pairs.
    #[test]
    fn dijkstra_repair_matches_fresh_dijkstra(
        (n, base, extra) in growing_pair(24),
        weights in prop::collection::vec(1u32..10, 0..130),
    ) {
        // Assign deterministic weights per distinct pair; extra edges that
        // collide with a base pair are dropped so shared edges keep their
        // weight (the growth-only precondition for weighted pairs).
        let mut wit = weights.into_iter().cycle();
        let mut base_w: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for &(u, v) in &base {
            if u != v {
                let key = (u.min(v), u.max(v));
                base_w.entry(key).or_insert_with(|| wit.next().unwrap_or(1));
            }
        }
        let mut extra_w: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for &(u, v) in &extra {
            if u != v {
                let key = (u.min(v), u.max(v));
                if !base_w.contains_key(&key) {
                    extra_w.entry(key).or_insert_with(|| wit.next().unwrap_or(1));
                }
            }
        }
        let build = |maps: &[&BTreeMap<(u32, u32), u32>]| {
            let mut b = GraphBuilder::new(n);
            for m in maps {
                for (&(u, v), &w) in m.iter() {
                    b.add_weighted_edge(NodeId(u), NodeId(v), w);
                }
            }
            b.build()
        };
        let g1 = build(&[&base_w]);
        let g2 = build(&[&base_w, &extra_w]);
        // (If every sampled weight is 1 the builders produce unweighted
        // graphs; `delta_repair` then dispatches to BFS-repair, which must
        // still match Dijkstra on unit weights.)
        let delta = snapshot_delta(&g1, &g2);
        prop_assert!(delta.growth_only, "weight-preserving growth must be repairable");
        prop_assert_eq!(delta.inserted.len(), extra_w.len());
        for s in g1.nodes() {
            let t1_row = dijkstra(&g1, s);
            let repaired = delta_repair(&g2, &t1_row, &delta);
            prop_assert_eq!(&repaired, &dijkstra(&g2, s), "source {} diverges", s);
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
