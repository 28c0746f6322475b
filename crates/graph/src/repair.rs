//! Snapshot-delta SSSP repair for growing graphs.
//!
//! The paper's evolution model (Problem 1) only ever *inserts* nodes and
//! edges: `G_t1 ⊆ G_t2`, so distances can only shrink. That makes the
//! `t1` distance row of a source a valid **upper bound** on its `t2` row,
//! and any `t2` shortest path that improves on it must cross at least one
//! edge of `E_t2 \ E_t1`. Repairing the row therefore never needs a full
//! graph sweep: seed a monotone frontier with the endpoints whose tentative
//! distance improves through an inserted edge, then relax outward in
//! nondecreasing distance order — exactly the insertion half of
//! Ramalingam–Reps dynamic shortest paths. Only the *shrinking region* is
//! traversed; nodes whose distance is unchanged are never touched.
//!
//! Two kernels share this logic:
//!
//! * [`bfs_repair_into`] — unit weights. The frontier is a Dial bucket
//!   queue indexed by tentative distance (levels are small integers), so
//!   pops are O(1) and the whole repair is `O(|region| + |Δ|)`.
//! * [`dijkstra_repair_into`] — weighted graphs, binary-heap frontier with
//!   the same stale-entry skip as [`crate::dijkstra::dijkstra_into`].
//!
//! Both produce rows **bit-identical** to a fresh BFS/Dijkstra on `G_t2`
//! (distance rows are uniquely determined by the graph), which is what
//! lets the budget oracle in `cp-core` swap repairs in without disturbing
//! its determinism contract. The precondition — `G_t1 ⊆ G_t2` with equal
//! weights on shared edges — is checked once per snapshot pair by
//! [`snapshot_delta`].

use crate::graph::{Graph, NodeId};
use crate::INF;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An edge of `E_t2 \ E_t1` with its weight in `G_t2` (1 when unweighted).
pub type InsertedEdge = (NodeId, NodeId, u32);

/// The edge delta between two snapshots, plus whether the pair satisfies
/// the growth-only precondition that makes row repair exact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// `true` iff every edge of `G_t1` exists in `G_t2` with the same
    /// weight (and the node universes match). Repair is only valid — and
    /// `inserted` only populated — when this holds.
    pub growth_only: bool,
    /// The edges of `E_t2 \ E_t1`, normalized `u < v`, ascending, with
    /// their `G_t2` weights. Empty when `growth_only` is `false`.
    pub inserted: Vec<InsertedEdge>,
}

impl SnapshotDelta {
    /// Whether repair can be applied to this snapshot pair.
    pub fn repairable(&self) -> bool {
        self.growth_only
    }
}

/// Computes the edge delta `E_t2 \ E_t1` and verifies the growth-only
/// precondition (`G_t1 ⊆ G_t2`, shared edges keep their weight, same node
/// universe). Cost is one adjacency-sorted membership probe per edge of
/// either snapshot — about the price of a single BFS.
pub fn snapshot_delta(g1: &Graph, g2: &Graph) -> SnapshotDelta {
    if g1.num_nodes() != g2.num_nodes() {
        return SnapshotDelta::default();
    }
    // Containment: every t1 edge must survive, with its weight.
    for u in g1.nodes() {
        for (v, e1) in g1.neighbors_with_edge_ids(u) {
            if u >= v {
                continue;
            }
            match g2.edge_id(u, v) {
                Some(e2) if g2.edge_weight(e2) == g1.edge_weight(e1) => {}
                _ => return SnapshotDelta::default(),
            }
        }
    }
    let mut inserted = Vec::with_capacity(g2.num_edges() - g1.num_edges());
    for u in g2.nodes() {
        for (v, e2) in g2.neighbors_with_edge_ids(u) {
            if u < v && !g1.has_edge(u, v) {
                inserted.push((u, v, g2.edge_weight(e2)));
            }
        }
    }
    SnapshotDelta {
        growth_only: true,
        inserted,
    }
}

/// Reusable scratch space for the repair kernels: the Dial buckets of the
/// unit-weight path and the heap of the weighted path. Buffers grow on
/// first use and are recycled across rows.
#[derive(Default)]
pub struct RepairWorkspace {
    /// `buckets[d]` holds nodes with tentative distance `d` (unit weights).
    buckets: Vec<Vec<u32>>,
    /// Weighted frontier, with stale-entry skip on pop.
    heap: BinaryHeap<Reverse<(u32, NodeId)>>,
}

impl RepairWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Repairs a unit-weight `t1` distance row into the `t2` row of the same
/// source, given the inserted edges `E_t2 \ E_t1`. Writes the exact `t2`
/// row into `dist` (resized and overwritten) and returns the number of
/// nodes settled — the size of the shrinking region, the work a full BFS
/// would have spent sweeping everything else.
///
/// Preconditions (checked by [`snapshot_delta`], debug-asserted here):
/// `t1_row.len() == g2.num_nodes()`, `g2` unweighted, every inserted edge
/// present in `g2`, and `t1_row` an upper bound on `t2` distances (true
/// whenever `G_t1 ⊆ G_t2`). An empty delta returns a plain copy.
#[inline]
pub fn bfs_repair_into(
    g2: &Graph,
    t1_row: &[u32],
    inserted: &[InsertedEdge],
    dist: &mut Vec<u32>,
    ws: &mut RepairWorkspace,
) -> usize {
    debug_assert_eq!(t1_row.len(), g2.num_nodes());
    debug_assert!(!g2.is_weighted());
    dist.clear();
    dist.extend_from_slice(t1_row);
    let RepairWorkspace { buckets, .. } = ws;

    let mut hi = 0usize;
    let mut lo = usize::MAX;
    for &(a, b, w) in inserted {
        debug_assert_eq!(w, 1, "unit-weight repair fed a weighted edge");
        debug_assert!(g2.has_edge(a, b));
        for (x, y) in [(a, b), (b, a)] {
            let dx = dist[x.index()];
            if dx == INF {
                continue;
            }
            let nd = dx + 1;
            if nd < dist[y.index()] {
                dist[y.index()] = nd;
                let d = nd as usize;
                if buckets.len() <= d {
                    buckets.resize_with(d + 1, Vec::new);
                }
                buckets[d].push(y.0);
                lo = lo.min(d);
                hi = hi.max(d);
            }
        }
    }
    if lo == usize::MAX {
        return 0;
    }

    let mut settled = 0usize;
    let mut d = lo;
    // Unit weights: settling bucket `d` only ever pushes into `d + 1`, so a
    // single ascending pass is a Dijkstra-correct processing order.
    while d <= hi {
        let mut bucket = std::mem::take(&mut buckets[d]);
        for &v in &bucket {
            let v = NodeId(v);
            if dist[v.index()] != d as u32 {
                continue; // stale: improved again after this push
            }
            settled += 1;
            let nd = d as u32 + 1;
            for &u in g2.neighbors(v) {
                if nd < dist[u.index()] {
                    dist[u.index()] = nd;
                    let nd = nd as usize;
                    if buckets.len() <= nd {
                        buckets.resize_with(nd + 1, Vec::new);
                    }
                    buckets[nd].push(u.0);
                    hi = hi.max(nd);
                }
            }
        }
        bucket.clear();
        buckets[d] = bucket; // keep the allocation for the next row
        d += 1;
    }
    settled
}

/// Allocating convenience wrapper around [`bfs_repair_into`].
pub fn bfs_repair(g2: &Graph, t1_row: &[u32], inserted: &[InsertedEdge]) -> Vec<u32> {
    let mut dist = Vec::new();
    bfs_repair_into(g2, t1_row, inserted, &mut dist, &mut RepairWorkspace::new());
    dist
}

/// Weighted counterpart of [`bfs_repair_into`]: repairs a `t1` Dijkstra
/// row into the exact `t2` row, seeding a heap with the improving endpoints
/// of the inserted edges and relaxing only the shrinking region. Returns
/// the number of nodes settled.
#[inline]
pub fn dijkstra_repair_into(
    g2: &Graph,
    t1_row: &[u32],
    inserted: &[InsertedEdge],
    dist: &mut Vec<u32>,
    ws: &mut RepairWorkspace,
) -> usize {
    debug_assert_eq!(t1_row.len(), g2.num_nodes());
    dist.clear();
    dist.extend_from_slice(t1_row);
    let RepairWorkspace { heap, .. } = ws;
    heap.clear();

    for &(a, b, w) in inserted {
        debug_assert!(g2.has_edge(a, b));
        for (x, y) in [(a, b), (b, a)] {
            let dx = dist[x.index()];
            if dx == INF {
                continue;
            }
            let nd = dx.saturating_add(w).min(INF - 1);
            if nd < dist[y.index()] {
                dist[y.index()] = nd;
                heap.push(Reverse((nd, y)));
            }
        }
    }

    let mut settled = 0usize;
    while let Some(Reverse((dv, v))) = heap.pop() {
        if dv > dist[v.index()] {
            continue; // stale entry
        }
        settled += 1;
        for (u, e) in g2.neighbors_with_edge_ids(v) {
            let w = g2.edge_weight(e);
            let nd = dv.saturating_add(w).min(INF - 1);
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    settled
}

/// Allocating convenience wrapper around [`dijkstra_repair_into`].
pub fn dijkstra_repair(g2: &Graph, t1_row: &[u32], inserted: &[InsertedEdge]) -> Vec<u32> {
    let mut dist = Vec::new();
    dijkstra_repair_into(g2, t1_row, inserted, &mut dist, &mut RepairWorkspace::new());
    dist
}

/// Dispatching repair: unit-weight bucket repair when `g2` is unweighted,
/// heap repair otherwise. `delta` must be [`SnapshotDelta::repairable`].
/// Returns the settled-node count.
pub fn delta_repair_into(
    g2: &Graph,
    t1_row: &[u32],
    delta: &SnapshotDelta,
    dist: &mut Vec<u32>,
    ws: &mut RepairWorkspace,
) -> usize {
    assert!(delta.growth_only, "repair requires a growth-only delta");
    if g2.is_weighted() {
        dijkstra_repair_into(g2, t1_row, &delta.inserted, dist, ws)
    } else {
        bfs_repair_into(g2, t1_row, &delta.inserted, dist, ws)
    }
}

/// Allocating convenience wrapper around [`delta_repair_into`].
pub fn delta_repair(g2: &Graph, t1_row: &[u32], delta: &SnapshotDelta) -> Vec<u32> {
    let mut dist = Vec::new();
    delta_repair_into(g2, t1_row, delta, &mut dist, &mut RepairWorkspace::new());
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::builder::{graph_from_edges, GraphBuilder};
    use crate::dijkstra::dijkstra;

    fn repaired_all_sources(g1: &Graph, g2: &Graph) {
        let delta = snapshot_delta(g1, g2);
        assert!(delta.growth_only);
        let mut ws = RepairWorkspace::new();
        let mut dist = Vec::new();
        for s in g1.nodes() {
            let t1 = bfs(g1, s);
            bfs_repair_into(g2, &t1, &delta.inserted, &mut dist, &mut ws);
            assert_eq!(dist, bfs(g2, s), "source {s}");
        }
    }

    #[test]
    fn chord_on_a_path() {
        let base: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
        let g1 = graph_from_edges(8, &base);
        let mut all = base;
        all.push((0, 7));
        all.push((2, 6));
        let g2 = graph_from_edges(8, &all);
        repaired_all_sources(&g1, &g2);
    }

    #[test]
    fn empty_delta_is_a_copy() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let delta = snapshot_delta(&g, &g);
        assert!(delta.growth_only);
        assert!(delta.inserted.is_empty());
        let t1 = bfs(&g, NodeId(0));
        assert_eq!(bfs_repair(&g, &t1, &delta.inserted), t1);
    }

    #[test]
    fn newly_connected_component() {
        // 0-1-2 and 3-4 are separate in g1; g2 bridges them and also wires
        // up the isolated node 5.
        let g1 = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let g2 = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (2, 3), (4, 5)]);
        repaired_all_sources(&g1, &g2);
    }

    #[test]
    fn settled_count_is_the_shrinking_region() {
        // Path 0..=7 plus chord (0,7): from source 0 exactly nodes 7, 6, 5
        // improve (d 7→1, 6→2, 5→3); 4 stays at 4.
        let base: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
        let g1 = graph_from_edges(8, &base);
        let mut all = base;
        all.push((0, 7));
        let g2 = graph_from_edges(8, &all);
        let delta = snapshot_delta(&g1, &g2);
        let t1 = bfs(&g1, NodeId(0));
        let mut dist = Vec::new();
        let settled = bfs_repair_into(
            &g2,
            &t1,
            &delta.inserted,
            &mut dist,
            &mut RepairWorkspace::new(),
        );
        assert_eq!(dist, bfs(&g2, NodeId(0)));
        assert_eq!(settled, 3);
    }

    #[test]
    fn weighted_repair_matches_fresh_dijkstra() {
        let mut b1 = GraphBuilder::new(5);
        b1.add_weighted_edge(NodeId(0), NodeId(1), 4);
        b1.add_weighted_edge(NodeId(1), NodeId(2), 3);
        b1.add_weighted_edge(NodeId(2), NodeId(3), 5);
        let g1 = b1.build();
        let mut b2 = GraphBuilder::new(5);
        b2.add_weighted_edge(NodeId(0), NodeId(1), 4);
        b2.add_weighted_edge(NodeId(1), NodeId(2), 3);
        b2.add_weighted_edge(NodeId(2), NodeId(3), 5);
        b2.add_weighted_edge(NodeId(0), NodeId(3), 2); // shortcut
        b2.add_weighted_edge(NodeId(3), NodeId(4), 1); // connects node 4
        let g2 = b2.build();
        let delta = snapshot_delta(&g1, &g2);
        assert!(delta.growth_only);
        assert_eq!(delta.inserted.len(), 2);
        let mut ws = RepairWorkspace::new();
        let mut dist = Vec::new();
        for s in g1.nodes() {
            let t1 = dijkstra(&g1, s);
            dijkstra_repair_into(&g2, &t1, &delta.inserted, &mut dist, &mut ws);
            assert_eq!(dist, dijkstra(&g2, s), "source {s}");
        }
    }

    #[test]
    fn delta_rejects_weight_changes_and_deletions() {
        let g1 = graph_from_edges(4, &[(0, 1), (1, 2)]);
        let g2 = graph_from_edges(4, &[(0, 1), (2, 3)]); // (1,2) deleted
        assert!(!snapshot_delta(&g1, &g2).growth_only);

        let mut b1 = GraphBuilder::new(3);
        b1.add_weighted_edge(NodeId(0), NodeId(1), 2);
        let mut b2 = GraphBuilder::new(3);
        b2.add_weighted_edge(NodeId(0), NodeId(1), 7); // weight changed
        assert!(!snapshot_delta(&b1.build(), &b2.build()).growth_only);

        let g3 = graph_from_edges(5, &[(0, 1)]); // universe mismatch
        assert!(!snapshot_delta(&g1, &g3).growth_only);
    }

    #[test]
    fn delta_lists_inserted_edges_normalized() {
        let g1 = graph_from_edges(4, &[(0, 1)]);
        let g2 = graph_from_edges(4, &[(0, 1), (3, 2), (1, 3)]);
        let delta = snapshot_delta(&g1, &g2);
        assert!(delta.growth_only);
        assert_eq!(
            delta.inserted,
            vec![(NodeId(1), NodeId(3), 1), (NodeId(2), NodeId(3), 1)]
        );
    }

    #[test]
    fn workspace_reuse_across_rows() {
        let g1 = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let g2 = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let delta = snapshot_delta(&g1, &g2);
        let mut ws = RepairWorkspace::new();
        let mut dist = Vec::new();
        for s in [NodeId(0), NodeId(3), NodeId(5), NodeId(0)] {
            let t1 = bfs(&g1, s);
            bfs_repair_into(&g2, &t1, &delta.inserted, &mut dist, &mut ws);
            assert_eq!(dist, bfs(&g2, s), "source {s}");
        }
    }
}
