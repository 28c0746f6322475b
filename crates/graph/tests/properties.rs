//! Property-based tests for the graph substrate.

use cp_graph::apsp::full_matrix;
use cp_graph::bfs::bfs;
use cp_graph::builder::graph_from_edges;
use cp_graph::components::components;
use cp_graph::diameter::{diameter_double_sweep, diameter_exact};
use cp_graph::dijkstra::dijkstra;
use cp_graph::rowpack::{fits_u16, pack_u16_into, widen_u16_into, RowRef, INF_U16};
use cp_graph::temporal::TemporalGraph;
use cp_graph::{NodeId, INF};
use proptest::prelude::*;

/// Strategy: a random edge list over up to `n` nodes.
fn edge_list(n: u32, max_edges: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..=n).prop_flat_map(move |nodes| {
        let edges = prop::collection::vec((0..nodes, 0..nodes), 0..max_edges);
        (Just(nodes as usize), edges)
    })
}

proptest! {
    #[test]
    fn builder_invariants_hold((n, edges) in edge_list(40, 120)) {
        let g = graph_from_edges(n, &edges);
        prop_assert_eq!(g.check_invariants(), Ok(()));
        // Handshake lemma.
        let degree_sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn bfs_distances_are_symmetric((n, edges) in edge_list(24, 60)) {
        let g = graph_from_edges(n, &edges);
        let matrix = full_matrix(&g, 2);
        for (u, row) in matrix.iter().enumerate() {
            for (v, &duv) in row.iter().enumerate() {
                prop_assert_eq!(duv, matrix[v][u], "asymmetry at ({}, {})", u, v);
            }
        }
    }

    #[test]
    fn bfs_satisfies_triangle_inequality_over_edges((n, edges) in edge_list(24, 60)) {
        // For every edge (a, b): |d(s, a) - d(s, b)| <= 1.
        let g = graph_from_edges(n, &edges);
        let dist = bfs(&g, NodeId(0));
        for (a, b) in g.edges() {
            let (da, db) = (dist[a.index()], dist[b.index()]);
            match (da == INF, db == INF) {
                (false, false) => {
                    prop_assert!(da.abs_diff(db) <= 1, "edge ({a}, {b}): {da} vs {db}")
                }
                (true, true) => {}
                _ => prop_assert!(false, "edge spans reachable/unreachable"),
            }
        }
    }

    #[test]
    fn bfs_reachability_matches_components((n, edges) in edge_list(30, 50)) {
        let g = graph_from_edges(n, &edges);
        let comps = components(&g);
        let dist = bfs(&g, NodeId(0));
        for (v, &dv) in dist.iter().enumerate() {
            let same = comps.connected(NodeId(0), NodeId::new(v));
            prop_assert_eq!(dv != INF, same, "node {}", v);
        }
    }

    #[test]
    fn dijkstra_equals_bfs_on_unit_weights((n, edges) in edge_list(24, 60)) {
        let g = graph_from_edges(n, &edges);
        for s in [0usize, n / 2, n - 1] {
            prop_assert_eq!(dijkstra(&g, NodeId::new(s)), bfs(&g, NodeId::new(s)));
        }
    }

    #[test]
    fn double_sweep_is_a_lower_bound((n, edges) in edge_list(24, 60)) {
        let g = graph_from_edges(n, &edges);
        let exact = diameter_exact(&g, 2);
        for s in 0..n.min(5) {
            prop_assert!(diameter_double_sweep(&g, NodeId::new(s)) <= exact);
        }
    }

    #[test]
    fn snapshots_grow_monotonically((n, edges) in edge_list(24, 60)) {
        let pairs: Vec<(NodeId, NodeId)> = edges
            .iter()
            .map(|&(u, v)| (NodeId(u), NodeId(v)))
            .collect();
        let t = TemporalGraph::from_sequence(n, pairs);
        let cuts = [0.0, 0.25, 0.5, 0.75, 1.0];
        for w in cuts.windows(2) {
            let g_small = t.snapshot_at_fraction(w[0]);
            let g_big = t.snapshot_at_fraction(w[1]);
            prop_assert!(g_small.num_edges() <= g_big.num_edges());
            for (u, v) in g_small.edges() {
                prop_assert!(g_big.has_edge(u, v));
            }
        }
    }

    #[test]
    fn distances_never_increase_under_edge_addition((n, edges) in edge_list(20, 50)) {
        prop_assume!(edges.len() >= 2);
        let split = edges.len() / 2;
        let g1 = graph_from_edges(n, &edges[..split]);
        let g2 = graph_from_edges(n, &edges);
        let d1 = bfs(&g1, NodeId(0));
        let d2 = bfs(&g2, NodeId(0));
        for v in 0..n {
            if d1[v] != INF {
                prop_assert!(d2[v] <= d1[v], "distance to {} grew", v);
            }
        }
    }

    #[test]
    fn u16_row_packing_roundtrips(raw in prop::collection::vec((0u32..=u32::from(u16::MAX - 1), any::<bool>()), 0..200)) {
        // Any mix of packable finite distances (0..=65534, including the
        // sentinel boundary 65534) and INF holes survives pack → widen.
        let row: Vec<u32> = raw
            .iter()
            .map(|&(d, inf)| if inf { INF } else { d })
            .collect();
        let mut packed = Vec::new();
        pack_u16_into(&row, &mut packed);
        let mut widened = Vec::new();
        widen_u16_into(&packed, &mut widened);
        prop_assert_eq!(&widened, &row);
        // Element reads through RowRef agree at both widths, sentinel
        // mapping included.
        let r16 = RowRef::U16(&packed);
        let r32 = RowRef::U32(&row);
        prop_assert_eq!(r16.len(), r32.len());
        for i in 0..row.len() {
            prop_assert_eq!(r16.get(i), r32.get(i), "element {}", i);
            prop_assert_eq!(packed[i] == INF_U16, row[i] == INF);
        }
        prop_assert_eq!(r16.to_u32_vec(), row);
    }

    #[test]
    fn bfs_rows_of_small_graphs_always_pack((n, edges) in edge_list(40, 120)) {
        // Every unweighted graph small enough for u16 ids packs: real BFS
        // rows never reach the sentinel.
        let g = graph_from_edges(n, &edges);
        prop_assert!(fits_u16(&g));
        let row = bfs(&g, NodeId(0));
        let mut packed = Vec::new();
        pack_u16_into(&row, &mut packed);
        let mut widened = Vec::new();
        widen_u16_into(&packed, &mut widened);
        prop_assert_eq!(widened, row);
    }

    #[test]
    fn connected_pair_counts_are_consistent((n, edges) in edge_list(30, 40)) {
        let g = graph_from_edges(n, &edges);
        let comps = components(&g);
        let connected = comps.connected_pairs();
        let not_connected = comps.not_connected_active_pairs(&g);
        let active = g.num_active_nodes() as u64;
        // connected_pairs counts ALL nodes including isolated singletons
        // (each contributing 0), so the two partitions of active pairs add
        // up when no isolated node has a neighbor.
        prop_assert!(connected + not_connected >= active * active.saturating_sub(1) / 2);
    }
}

/// Shortest-path counts from every source: `(dist[s][v], sigma[s][v])`,
/// with `sigma` the number of shortest `s → v` paths (0 if unreachable).
fn path_counts(g: &cp_graph::Graph) -> (Vec<Vec<u32>>, Vec<Vec<f64>>) {
    let n = g.num_nodes();
    let mut dists = Vec::with_capacity(n);
    let mut sigmas = Vec::with_capacity(n);
    for s in 0..n {
        let ds = bfs(g, NodeId::new(s));
        let mut order: Vec<usize> = (0..n).filter(|&v| ds[v] != INF).collect();
        order.sort_by_key(|&v| ds[v]);
        let mut sigma = vec![0.0f64; n];
        sigma[s] = 1.0;
        for &v in &order {
            for &w in g.neighbors(NodeId::new(v)) {
                if ds[w.index()] + 1 == ds[v] {
                    sigma[v] += sigma[w.index()];
                }
            }
        }
        dists.push(ds);
        sigmas.push(sigma);
    }
    (dists, sigmas)
}

/// Brute-force edge betweenness straight from the definition: edge
/// `(a, b)` carries `σ_sa·σ_bt/σ_st` (in either orientation) over ordered
/// pairs `(s, t)` on whose shortest paths it lies, halved to unordered
/// pairs.
fn brute_edge_betweenness(g: &cp_graph::Graph) -> Vec<f64> {
    let n = g.num_nodes();
    let (d, sigma) = path_counts(g);
    let on_path = |s: usize, x: usize, y: usize, t: usize| {
        d[s][x] != INF && d[y][t] != INF && d[s][x] + 1 + d[y][t] == d[s][t]
    };
    let mut edge = vec![0.0f64; g.num_edges()];
    for s in 0..n {
        for t in 0..n {
            if t == s || d[s][t] == INF {
                continue;
            }
            let st = sigma[s][t];
            for (a, b) in g.edges() {
                let e = g.edge_id(a, b).unwrap() as usize;
                for (x, y) in [(a.index(), b.index()), (b.index(), a.index())] {
                    if on_path(s, x, y, t) {
                        edge[e] += sigma[s][x] * sigma[y][t] / st;
                    }
                }
            }
        }
    }
    edge.iter_mut().for_each(|v| *v *= 0.5);
    edge
}

/// Strategy: the parent choices of a random tree of 2–5 nodes, for
/// [`push_tree`].
fn tree_shape() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..64, 2..6)
}

/// Hangs a tree of `shape.len()` new nodes, numbered from `*next`, off
/// `root`. Tree node `j ≥ 2` hangs off `shape[j] % (j + 1)`, where 0 is
/// `root` and `i ≥ 1` is tree node `i − 1`; node 0 hangs off `root` and
/// node 1 off node 0, so the tree is at least two deep.
fn push_tree(edges: &mut Vec<(u32, u32)>, root: u32, shape: &[u32], next: &mut u32) {
    let first = *next;
    for (j, &choice) in (0u32..).zip(shape) {
        let parent = match (j, choice % (j + 1)) {
            (0, _) | (2.., 0) => root,
            (1, _) => first,
            (_, i) => first + i - 1,
        };
        edges.push((parent, first + j));
    }
    *next += shape.len() as u32;
}

/// Strategy: graphs that exercise the forest peel. Components:
///
/// * a random graph with pendant leaves on its nodes;
/// * a cycle of 3–6 nodes with 3–4 pendant trees at least two deep,
///   all hung off its first two nodes, so one core node carries several
///   trees (at least 7 nodes, larger than every pure tree below);
/// * 1–2 pure trees of 3–6 nodes, which peel to nothing;
/// * isolated edges, stars and isolated nodes.
fn leafy_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (
        (edge_list(10, 20), prop::collection::vec(0u32..10, 0..6)),
        (
            3u32..7,
            prop::collection::vec((0u32..2, tree_shape()), 3..5),
        ),
        prop::collection::vec(tree_shape(), 1..3),
        (0usize..3, prop::collection::vec(1usize..5, 0..3), 0u32..3),
    )
        .prop_map(
            |(((n, mut edges), pendants), (cycle, trees), pure, (pairs, stars, isolated))| {
                let mut next = n as u32;
                for p in pendants {
                    edges.push((p % n as u32, next));
                    next += 1;
                }
                let ring = next;
                next += cycle;
                for i in 0..cycle {
                    edges.push((ring + i, ring + (i + 1) % cycle));
                }
                for (at, shape) in trees {
                    push_tree(&mut edges, ring + at, &shape, &mut next);
                }
                for shape in pure {
                    let root = next;
                    next += 1;
                    push_tree(&mut edges, root, &shape, &mut next);
                }
                for _ in 0..pairs {
                    edges.push((next, next + 1));
                    next += 2;
                }
                for leaves in stars {
                    let center = next;
                    for leaf in 1..=leaves as u32 {
                        edges.push((center, center + leaf));
                    }
                    next += 1 + leaves as u32;
                }
                ((next + isolated) as usize, edges)
            },
        )
}

fn assert_scores_close(fast: &[f64], brute: &[f64], what: &str) -> Result<(), TestCaseError> {
    for (i, (&f, &b)) in fast.iter().zip(brute).enumerate() {
        prop_assert!(
            (f - b).abs() <= 1e-9 * b.abs().max(1.0),
            "{} {}: brandes {} vs brute {}",
            what,
            i,
            f,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn brandes_matches_brute_force((n, edges) in leafy_graph()) {
        use cp_graph::betweenness::betweenness_exact;
        let g = graph_from_edges(n, &edges);
        let edge = brute_edge_betweenness(&g);
        for threads in [1, 3] {
            let fast = betweenness_exact(&g, threads);
            assert_scores_close(&fast.edge, &edge, "edge")?;
        }
    }

    #[test]
    fn edge_betweenness_sums_to_path_lengths((n, edges) in edge_list(10, 20)) {
        // Sum over edges of edge betweenness equals the sum over connected
        // pairs of their distance (every shortest path contributes its
        // length in edge traversals, split across tied paths).
        use cp_graph::betweenness::betweenness_exact;
        let g = graph_from_edges(n, &edges);
        let fast = betweenness_exact(&g, 2);
        let edge_total: f64 = fast.edge.iter().sum();
        let mut distance_total = 0.0f64;
        for u in 0..n {
            let d = bfs(&g, NodeId::new(u));
            for &dv in d.iter().skip(u + 1) {
                if dv != INF {
                    distance_total += dv as f64;
                }
            }
        }
        prop_assert!(
            (edge_total - distance_total).abs() < 1e-6,
            "edge sum {} vs distance sum {}",
            edge_total,
            distance_total
        );
    }
}

proptest! {
    /// A forward-only cursor over a random temporal stream cuts snapshots
    /// bit-identical to the from-scratch builder path at every prefix —
    /// including edge-id assignment (checked via `Graph` equality, which
    /// covers `arc_edge`).
    #[test]
    fn prefix_cursor_matches_builder_snapshots(
        (n, edges) in edge_list(30, 80),
        cuts in prop::collection::vec(0usize..100, 1..6),
    ) {
        let pairs: Vec<_> = edges
            .iter()
            .map(|&(u, v)| (NodeId(u), NodeId(v)))
            .collect();
        let t = TemporalGraph::from_sequence(n, pairs);
        let mut cuts = cuts;
        cuts.sort_unstable();
        let mut cursor = t.cursor();
        for &cut in &cuts {
            let count = cut.min(t.num_events());
            cursor.advance_to_prefix(count);
            // Reference: fold the same prefix through GraphBuilder.
            let mut b = cp_graph::GraphBuilder::with_capacity(n, count);
            for e in &t.events()[..count] {
                b.add_edge(e.u, e.v);
            }
            prop_assert_eq!(cursor.materialize(), b.build(), "prefix {}", count);
        }
    }
}
