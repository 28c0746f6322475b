//! Bit-parallel multi-source BFS (MS-BFS).
//!
//! The budget oracle's batched prefetch fixes its admitted source set
//! *before* any traversal runs, which is exactly the shape that lets many
//! sources share one sweep of the graph (Then et al., "The More the
//! Merrier: Efficient Multi-Source BFS Processing", VLDB 2014). Each node
//! carries one `u64` word per state — `seen` (discovered by source *b*) and
//! `visit` (in source *b*'s current frontier) — so one adjacency scan
//! advances up to [`WAVE_WIDTH`] BFS traversals at once:
//!
//! ```text
//! new = visit[u] & !seen[v]   // sources reaching v through u for the first time
//! ```
//!
//! All sources advance level-synchronously, so each bit is set exactly once
//! and the written distance is the true BFS level — the rows are
//! bit-identical to [`crate::bfs::bfs`] run per source, regardless of
//! traversal order within a level. That property is what lets the oracle
//! swap this kernel in without disturbing the paper's determinism contract
//! (one wave still *charges* one SSSP per source; see `cp-core`).
//!
//! Heavy levels run bottom-up (direction optimization, Beamer et al.,
//! SC 2012, applied to MS-BFS words): when the frontier's arcs outweigh
//! the arcs of the nodes still missing a source bit, every such node ORs
//! its neighbors' frontier words instead of each frontier node pushing its
//! word to every neighbor. Widely spread sources keep a node on the
//! frontier at many levels, which is where the pull pays. The choice is
//! made per level from those two observed counts; either direction
//! reports the same discoveries at the same levels.
//!
//! The kernel itself is [`msbfs_visit`], which hands each `(source bit,
//! node, level)` discovery to a caller's visitor; [`msbfs_into`] is the
//! visitor that writes rows, and the exact top-k baseline's visitor
//! computes distance decreases during the sweep without writing a row.

use crate::bfs::TraversalWork;
use crate::graph::{Graph, NodeId};
use crate::INF;

/// Maximum sources per wave: one bit per source in a `u64` word.
pub const WAVE_WIDTH: usize = 64;

/// Reusable scratch space for [`msbfs_visit`]: three words per node plus the
/// frontier queues. Buffers grow on first use and are recycled across waves.
#[derive(Default)]
pub struct MsBfsWorkspace {
    /// `seen[v]` bit *b* set ⇔ source *b* has discovered `v`.
    seen: Vec<u64>,
    /// `visit[v]` bit *b* set ⇔ `v` is in source *b*'s current frontier.
    visit: Vec<u64>,
    /// Next-level visit words being accumulated.
    next: Vec<u64>,
    /// Nodes with a non-zero `visit` word this level.
    frontier: Vec<u32>,
    /// Nodes with a non-zero `next` word (next level's frontier).
    next_frontier: Vec<u32>,
}

impl MsBfsWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Growth factor of [`msbfs_visit`]'s direction switch: a level runs
/// bottom-up when its frontier's arcs times `PULL_ALPHA` exceed the
/// arcs of the nodes some reaching source has not yet discovered.
/// Smaller than the single-source BFS's α = 14 because a bottom-up probe
/// stops early only once every missing source bit is found.
const PULL_ALPHA: usize = 4;

/// Advances up to [`WAVE_WIDTH`] BFS traversals in one graph sweep,
/// calling `visit_fn(b, v, level)` once for every node `v` that `sources[b]`
/// reaches, with `level` = the BFS distance from `sources[b]` to `v`.
///
/// Each `(b, v)` discovery is reported exactly once: the sources
/// themselves at level 0, then every other reachable node in
/// nondecreasing level order (the order within a level depends on the
/// direction each level runs in). Unreachable nodes are never reported.
/// Duplicate and isolated sources are fine (duplicates simply share
/// every discovery, each under its own bit).
///
/// Returns the settled `(source, node)` pairs and adjacency entries
/// scanned: a top-down level scans each frontier node's arcs once for the
/// whole wave (the shared sweep is exactly what makes a wave cheaper than
/// per-source BFS), a bottom-up level each open node's arcs up to the
/// first neighbors that supply every missing bit.
///
/// # Panics
/// Panics if `sources.len() > WAVE_WIDTH`.
#[inline]
pub fn msbfs_visit<F>(
    graph: &Graph,
    sources: &[NodeId],
    ws: &mut MsBfsWorkspace,
    mut visit_fn: F,
) -> TraversalWork
where
    F: FnMut(usize, NodeId, u32),
{
    let mut work = TraversalWork::new();
    assert!(
        sources.len() <= WAVE_WIDTH,
        "wave of {} sources exceeds WAVE_WIDTH={WAVE_WIDTH}",
        sources.len()
    );
    let n = graph.num_nodes();
    // Split the workspace into disjoint field borrows so the adjacency
    // closure can mutate the wave state while the frontier is iterated.
    let MsBfsWorkspace {
        seen,
        visit,
        next,
        frontier,
        next_frontier,
    } = ws;
    seen.clear();
    seen.resize(n, 0);
    visit.clear();
    visit.resize(n, 0);
    next.clear();
    next.resize(n, 0);
    frontier.clear();
    next_frontier.clear();

    // The bits a node other than the sources can still gain: an isolated
    // source reaches nothing, so no node waits for its bit.
    let mut reach = 0u64;
    for (b, &s) in sources.iter().enumerate() {
        visit_fn(b, s, 0);
        if visit[s.index()] == 0 {
            frontier.push(s.0);
        }
        seen[s.index()] |= 1u64 << b;
        visit[s.index()] |= 1u64 << b;
        if graph.degree(s) > 0 {
            reach |= 1u64 << b;
        }
    }
    work.settled += sources.len() as u64;
    // Arcs of the nodes still missing a reaching bit: the bottom-up
    // sweep's worst-case cost.
    let mut open_arcs = graph.num_arcs();
    for &s in frontier.iter() {
        if seen[s as usize] & reach == reach {
            open_arcs -= graph.degree(NodeId(s));
        }
    }

    let mut level: u32 = 0;
    while !frontier.is_empty() {
        level += 1;
        let frontier_arcs: usize = frontier.iter().map(|&u| graph.degree(NodeId(u))).sum();
        if frontier_arcs * PULL_ALPHA > open_arcs {
            for vi in 0..n {
                let missing = reach & !seen[vi];
                if missing == 0 {
                    continue;
                }
                let v = NodeId::new(vi);
                let mut found = 0u64;
                for &u in graph.neighbors(v) {
                    work.relaxed += 1;
                    found |= visit[u.index()];
                    if found & missing == missing {
                        break;
                    }
                }
                let new = found & missing;
                if new != 0 {
                    next_frontier.push(v.0);
                    next[vi] = new;
                    seen[vi] |= new;
                    if new == missing {
                        open_arcs -= graph.degree(v);
                    }
                    work.settled += u64::from(new.count_ones());
                    let mut bits = new;
                    while bits != 0 {
                        visit_fn(bits.trailing_zeros() as usize, v, level);
                        bits &= bits - 1;
                    }
                }
            }
        } else {
            for &uf in frontier.iter() {
                let u = uf as usize;
                let vis = visit[u];
                for &v in graph.neighbors(NodeId::new(u)) {
                    let vi = v.index();
                    work.relaxed += 1;
                    let new = vis & !seen[vi];
                    if new != 0 {
                        if next[vi] == 0 {
                            next_frontier.push(v.0);
                        }
                        next[vi] |= new;
                        seen[vi] |= new;
                        if seen[vi] & reach == reach && (seen[vi] ^ new) & reach != reach {
                            open_arcs -= graph.degree(v);
                        }
                        work.settled += u64::from(new.count_ones());
                        let mut bits = new;
                        while bits != 0 {
                            visit_fn(bits.trailing_zeros() as usize, v, level);
                            bits &= bits - 1;
                        }
                    }
                }
            }
        }
        // Roll the wave forward: retire this level's visit words, promote
        // the accumulated next words. A node can sit in both frontiers
        // (different sources reach it at different levels), so clear first.
        for &uf in frontier.iter() {
            visit[uf as usize] = 0;
        }
        for &vf in next_frontier.iter() {
            let v = vf as usize;
            visit[v] = next[v];
            next[v] = 0;
        }
        std::mem::swap(frontier, next_frontier);
        next_frontier.clear();
    }
    work
}

/// Advances up to [`WAVE_WIDTH`] BFS traversals in one graph sweep, writing
/// `rows[b]` = the distance row of `sources[b]`: [`msbfs_visit`] with a
/// visitor that stores each discovery's level.
///
/// Each row is resized to `graph.num_nodes()` and fully overwritten;
/// unreachable nodes get [`INF`]. Returns the traversal work.
///
/// # Panics
/// Panics if `sources.len() > WAVE_WIDTH` or `rows.len() != sources.len()`.
#[inline]
pub fn msbfs_into(
    graph: &Graph,
    sources: &[NodeId],
    rows: &mut [Vec<u32>],
    ws: &mut MsBfsWorkspace,
) -> TraversalWork {
    assert_eq!(sources.len(), rows.len(), "one row per source");
    let n = graph.num_nodes();
    for row in rows.iter_mut() {
        row.clear();
        row.resize(n, INF);
    }
    msbfs_visit(graph, sources, ws, |b, v, level| rows[b][v.index()] = level)
}

/// Allocating convenience wrapper: runs [`msbfs_into`] over `sources` in
/// chunks of [`WAVE_WIDTH`], returning one distance row per source (any
/// number of sources).
pub fn msbfs(graph: &Graph, sources: &[NodeId]) -> Vec<Vec<u32>> {
    let mut ws = MsBfsWorkspace::new();
    let mut rows: Vec<Vec<u32>> = (0..sources.len()).map(|_| Vec::new()).collect();
    for (chunk, out) in sources.chunks(WAVE_WIDTH).zip(rows.chunks_mut(WAVE_WIDTH)) {
        msbfs_into(graph, chunk, out, &mut ws);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::builder::graph_from_edges;

    fn sample() -> Graph {
        graph_from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (6, 7)])
    }

    #[test]
    fn matches_per_source_bfs() {
        let g = sample();
        let sources: Vec<NodeId> = g.nodes().collect();
        let rows = msbfs(&g, &sources);
        for (b, &s) in sources.iter().enumerate() {
            assert_eq!(rows[b], bfs(&g, s), "source {s}");
        }
    }

    #[test]
    fn duplicate_and_isolated_sources() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2)]); // 3, 4 isolated
        let sources = [NodeId(0), NodeId(3), NodeId(0), NodeId(4)];
        let rows = msbfs(&g, &sources);
        assert_eq!(rows[0], rows[2]);
        assert_eq!(rows[0], bfs(&g, NodeId(0)));
        assert_eq!(rows[1], bfs(&g, NodeId(3)));
        assert_eq!(rows[3], bfs(&g, NodeId(4)));
    }

    #[test]
    fn workspace_reuse_across_waves() {
        let g = sample();
        let mut ws = MsBfsWorkspace::new();
        let mut rows = vec![Vec::new(), Vec::new()];
        msbfs_into(&g, &[NodeId(0), NodeId(6)], &mut rows, &mut ws);
        assert_eq!(rows[0], bfs(&g, NodeId(0)));
        assert_eq!(rows[1], bfs(&g, NodeId(6)));
        msbfs_into(&g, &[NodeId(5), NodeId(7)], &mut rows, &mut ws);
        assert_eq!(rows[0], bfs(&g, NodeId(5)));
        assert_eq!(rows[1], bfs(&g, NodeId(7)));
    }

    #[test]
    fn heavy_levels_pull_and_report_per_source_bfs_levels() {
        // A dense random graph with a tail and isolated nodes: spread
        // sources put most nodes on the frontier at several levels, which
        // run bottom-up instead of pushing.
        let mut state = 0x2545_f491_u64;
        let mut next = |bound: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(bound)) as u32
        };
        let mut edges: Vec<(u32, u32)> = (0..2000).map(|_| (next(200), next(200))).collect();
        edges.extend((199..229).map(|i| (i, i + 1)));
        let g = graph_from_edges(240, &edges);
        let sources: Vec<NodeId> = (0..64).map(|i| NodeId((i * 37) % 240)).collect();
        let mut seen = Vec::new();
        let work = msbfs_visit(&g, &sources, &mut MsBfsWorkspace::new(), |b, v, l| {
            seen.push((b, v, l))
        });
        seen.sort_unstable();
        let rows: Vec<Vec<u32>> = sources.iter().map(|&s| bfs(&g, s)).collect();
        let mut expect = Vec::new();
        for (b, row) in rows.iter().enumerate() {
            for (v, &d) in row.iter().enumerate() {
                if d != INF {
                    expect.push((b, NodeId::new(v), d));
                }
            }
        }
        assert_eq!(seen, expect);
        assert_eq!(work.settled, expect.len() as u64);
        // An all-top-down wave scans each node's arcs once per distinct
        // level at which some source has it on the frontier.
        let push_arcs: u64 = g
            .nodes()
            .map(|v| {
                let mut levels: Vec<u32> = rows
                    .iter()
                    .map(|row| row[v.index()])
                    .filter(|&d| d != INF)
                    .collect();
                levels.sort_unstable();
                levels.dedup();
                (levels.len() * g.degree(v)) as u64
            })
            .sum();
        assert!(
            work.relaxed < push_arcs,
            "{work:?} vs {push_arcs} push arcs"
        );
    }

    #[test]
    fn empty_wave_is_noop() {
        let g = sample();
        assert!(msbfs(&g, &[]).is_empty());
    }

    #[test]
    fn chunking_beyond_wave_width() {
        // 70 sources on a ring: two waves, all rows still exact.
        let n = 70u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = graph_from_edges(n as usize, &edges);
        let sources: Vec<NodeId> = (0..n).map(NodeId).collect();
        let rows = msbfs(&g, &sources);
        assert_eq!(rows.len(), 70);
        for (b, &s) in sources.iter().enumerate() {
            assert_eq!(rows[b], bfs(&g, s), "source {s}");
        }
    }

    #[test]
    fn work_counts_every_settled_source_node_pair() {
        let g = sample();
        let sources = [NodeId(0), NodeId(6)];
        let mut rows = vec![Vec::new(), Vec::new()];
        let work = msbfs_into(&g, &sources, &mut rows, &mut MsBfsWorkspace::new());
        // Node 0 reaches its 6-node component, node 6 its 2-node one.
        assert_eq!(work.settled, 8);
        assert!(work.relaxed > 0);
    }

    #[test]
    #[should_panic(expected = "exceeds WAVE_WIDTH")]
    fn oversized_wave_panics() {
        let g = sample();
        let sources = vec![NodeId(0); WAVE_WIDTH + 1];
        let mut rows = vec![Vec::new(); WAVE_WIDTH + 1];
        msbfs_into(&g, &sources, &mut rows, &mut MsBfsWorkspace::new());
    }
}
