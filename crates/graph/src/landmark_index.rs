//! Landmark-based point-to-point distance estimation.
//!
//! The classic technique the paper's related work builds on (Potamias et
//! al., Tretyakov et al.): precompute SSSP rows from a small set of
//! landmarks `L`; then for any pair `(u, v)` the triangle inequality gives
//!
//! * an **upper bound** `d(u, v) ≤ min_w d(u, w) + d(w, v)`, and
//! * a **lower bound** `d(u, v) ≥ max_w |d(u, w) − d(w, v)|`.
//!
//! Bounds are exact whenever some landmark lies on (or at the end of) a
//! shortest path. The converging-pairs library uses two of these indexes —
//! one per snapshot — to *certify* distance decreases without any extra
//! SSSP work (see `cp-core`'s `estimate` module).

use crate::bfs::{bfs_into, BfsWorkspace};
use crate::dijkstra::dijkstra;
use crate::graph::{Graph, NodeId};
use crate::INF;

/// Precomputed landmark distance rows over one graph.
///
/// ```
/// use cp_graph::builder::graph_from_edges;
/// use cp_graph::landmark_index::LandmarkIndex;
/// use cp_graph::NodeId;
///
/// // Path 0-1-2-3-4; landmark at the midpoint.
/// let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let idx = LandmarkIndex::build(&g, &[NodeId(2)]);
/// // True d(0, 4) = 4; the bounds bracket it.
/// assert_eq!(idx.lower_bound(NodeId(0), NodeId(4)), 0); // |2 - 2|
/// assert_eq!(idx.upper_bound(NodeId(0), NodeId(4)), 4); // 2 + 2, exact here
/// ```
#[derive(Clone, Debug)]
pub struct LandmarkIndex {
    landmarks: Vec<NodeId>,
    /// Row-major: `rows[i]` is the distance row of `landmarks[i]`.
    rows: Vec<Vec<u32>>,
}

impl LandmarkIndex {
    /// Builds the index by running one SSSP per landmark (BFS or Dijkstra
    /// depending on the graph's weighting). Duplicated landmarks are kept
    /// once.
    pub fn build(graph: &Graph, landmarks: &[NodeId]) -> Self {
        let mut seen = std::collections::HashSet::new();
        let mut uniq = Vec::with_capacity(landmarks.len());
        for &w in landmarks {
            if seen.insert(w) {
                uniq.push(w);
            }
        }
        // One reused workspace across the landmark sweep: the frontier and
        // bitset buffers are allocated once instead of per landmark.
        let mut ws = BfsWorkspace::new();
        let rows = uniq
            .iter()
            .map(|&w| {
                if graph.is_weighted() {
                    dijkstra(graph, w)
                } else {
                    let mut dist = vec![0u32; graph.num_nodes()];
                    bfs_into(graph, w, &mut dist, &mut ws);
                    dist
                }
            })
            .collect();
        LandmarkIndex {
            landmarks: uniq,
            rows,
        }
    }

    /// Wraps landmark rows that were already computed elsewhere (e.g. by
    /// the budget oracle), avoiding duplicate SSSP work.
    ///
    /// # Panics
    /// Panics if lengths mismatch.
    pub fn from_rows(landmarks: Vec<NodeId>, rows: Vec<Vec<u32>>) -> Self {
        assert_eq!(landmarks.len(), rows.len(), "one row per landmark");
        let n = rows.first().map(|r| r.len()).unwrap_or(0);
        assert!(rows.iter().all(|r| r.len() == n), "row length mismatch");
        LandmarkIndex { landmarks, rows }
    }

    /// The landmarks backing the index.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// Whether the index has no landmarks.
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// Upper bound on `d(u, v)`: the best two-hop route through a
    /// landmark; [`INF`] if no landmark reaches both endpoints.
    pub fn upper_bound(&self, u: NodeId, v: NodeId) -> u32 {
        if u == v {
            return 0;
        }
        let mut best = INF;
        for row in &self.rows {
            let (du, dv) = (row[u.index()], row[v.index()]);
            if du != INF && dv != INF {
                best = best.min(du.saturating_add(dv));
            }
        }
        best
    }

    /// Lower bound on `d(u, v)` via the reverse triangle inequality;
    /// 0 when no landmark gives information. Returns [`INF`] when some
    /// landmark proves the pair disconnected (one side reachable, the
    /// other not).
    pub fn lower_bound(&self, u: NodeId, v: NodeId) -> u32 {
        if u == v {
            return 0;
        }
        let mut best = 0;
        for row in &self.rows {
            let (du, dv) = (row[u.index()], row[v.index()]);
            match (du == INF, dv == INF) {
                (false, false) => best = best.max(du.abs_diff(dv)),
                (true, true) => {}
                // One endpoint in the landmark's component, one outside:
                // the pair cannot be connected.
                _ => return INF,
            }
        }
        best
    }

    /// Bulk form of [`Self::upper_bound`]: fills `out[v]` with the upper
    /// bound on `d(u, v)` for every node `v`, in `O(L · n)` — one pass per
    /// landmark row instead of `n` separate `O(L)` probes. `out` is
    /// resized to the row length and fully overwritten.
    pub fn accumulate_upper_bounds(&self, u: NodeId, out: &mut Vec<u32>) {
        let n = self.rows.first().map(|r| r.len()).unwrap_or(0);
        out.clear();
        out.resize(n, INF);
        for row in &self.rows {
            let du = row[u.index()];
            if du == INF {
                continue;
            }
            for (o, &dv) in out.iter_mut().zip(row.iter()) {
                if dv != INF {
                    *o = (*o).min(du.saturating_add(dv));
                }
            }
        }
        if n > 0 {
            out[u.index()] = 0;
        }
    }

    /// Bulk form of [`Self::lower_bound`]: fills `out[v]` with the lower
    /// bound on `d(u, v)` for every node `v` (with [`INF`] marking pairs
    /// certified disconnected), in `O(L · n)`. `out` is resized to the
    /// row length and fully overwritten.
    pub fn accumulate_lower_bounds(&self, u: NodeId, out: &mut Vec<u32>) {
        let n = self.rows.first().map(|r| r.len()).unwrap_or(0);
        out.clear();
        out.resize(n, 0);
        for row in &self.rows {
            let du = row[u.index()];
            for (o, &dv) in out.iter_mut().zip(row.iter()) {
                // One endpoint reachable from the landmark, one not:
                // certified disconnection. INF == u32::MAX, so once any
                // landmark certifies it the max-accumulation keeps it.
                *o = match (du == INF, dv == INF) {
                    (false, false) => (*o).max(du.abs_diff(dv)),
                    (true, true) => *o,
                    _ => INF,
                };
            }
        }
        if n > 0 {
            out[u.index()] = 0;
        }
    }

    /// Both bounds on `d(u, v)` in one pass over the landmark rows —
    /// `(lower, upper)`, with the same conventions as [`Self::lower_bound`]
    /// and [`Self::upper_bound`]. The point-query hot path calls this per
    /// lookup, so the rows are walked once instead of twice.
    pub fn bounds(&self, u: NodeId, v: NodeId) -> (u32, u32) {
        if u == v {
            return (0, 0);
        }
        let (mut lb, mut ub) = (0u32, INF);
        for row in &self.rows {
            let (du, dv) = (row[u.index()], row[v.index()]);
            match (du == INF, dv == INF) {
                (false, false) => {
                    lb = lb.max(du.abs_diff(dv));
                    ub = ub.min(du.saturating_add(dv));
                }
                (true, true) => {}
                // One endpoint in the landmark's component, one outside:
                // the pair is certified disconnected.
                _ => return (INF, INF),
            }
        }
        (lb, ub)
    }

    /// The midpoint estimate `(lower + upper) / 2`, a common scalar
    /// estimator; [`INF`] when the upper bound is infinite.
    pub fn estimate(&self, u: NodeId, v: NodeId) -> u32 {
        let ub = self.upper_bound(u, v);
        if ub == INF {
            return INF;
        }
        let lb = self.lower_bound(u, v);
        debug_assert!(lb <= ub);
        lb + (ub - lb) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::builder::graph_from_edges;

    /// Path 0-1-2-3-4-5 plus chord (0,4).
    fn sample() -> Graph {
        graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 4)])
    }

    #[test]
    fn bounds_bracket_true_distance() {
        let g = sample();
        let idx = LandmarkIndex::build(&g, &[NodeId(0), NodeId(3)]);
        for u in 0..6u32 {
            let truth = bfs(&g, NodeId(u));
            for v in 0..6u32 {
                let (lb, ub) = (
                    idx.lower_bound(NodeId(u), NodeId(v)),
                    idx.upper_bound(NodeId(u), NodeId(v)),
                );
                assert!(lb <= truth[v as usize], "lb({u},{v})");
                assert!(ub >= truth[v as usize], "ub({u},{v})");
                let est = idx.estimate(NodeId(u), NodeId(v));
                assert!(lb <= est && est <= ub);
            }
        }
    }

    #[test]
    fn landmark_endpoint_is_exact() {
        let g = sample();
        let idx = LandmarkIndex::build(&g, &[NodeId(2)]);
        let truth = bfs(&g, NodeId(2));
        for v in 0..6u32 {
            assert_eq!(idx.upper_bound(NodeId(2), NodeId(v)), truth[v as usize]);
            assert_eq!(idx.lower_bound(NodeId(2), NodeId(v)), truth[v as usize]);
        }
    }

    #[test]
    fn disconnection_is_certified() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let idx = LandmarkIndex::build(&g, &[NodeId(0)]);
        assert_eq!(idx.lower_bound(NodeId(1), NodeId(2)), INF);
        assert_eq!(idx.upper_bound(NodeId(1), NodeId(2)), INF);
    }

    #[test]
    fn same_node_is_zero() {
        let g = sample();
        let idx = LandmarkIndex::build(&g, &[NodeId(5)]);
        assert_eq!(idx.lower_bound(NodeId(3), NodeId(3)), 0);
        assert_eq!(idx.upper_bound(NodeId(3), NodeId(3)), 0);
        assert_eq!(idx.estimate(NodeId(3), NodeId(3)), 0);
    }

    #[test]
    fn duplicates_collapse_and_from_rows_roundtrips() {
        let g = sample();
        let idx = LandmarkIndex::build(&g, &[NodeId(1), NodeId(1), NodeId(4)]);
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
        let rebuilt = LandmarkIndex::from_rows(
            idx.landmarks().to_vec(),
            vec![bfs(&g, NodeId(1)), bfs(&g, NodeId(4))],
        );
        assert_eq!(
            rebuilt.upper_bound(NodeId(0), NodeId(5)),
            idx.upper_bound(NodeId(0), NodeId(5))
        );
    }

    #[test]
    #[should_panic(expected = "one row per landmark")]
    fn from_rows_validates() {
        LandmarkIndex::from_rows(vec![NodeId(0)], vec![]);
    }

    #[test]
    fn bulk_bounds_match_scalar_probes() {
        // Connected sample plus a graph with a certified-disconnected
        // component, so the INF propagation paths are all exercised.
        let graphs = [sample(), graph_from_edges(6, &[(0, 1), (1, 2), (4, 5)])];
        for g in &graphs {
            let idx = LandmarkIndex::build(g, &[NodeId(0), NodeId(2)]);
            let (mut ubs, mut lbs) = (Vec::new(), Vec::new());
            for u in 0..6u32 {
                idx.accumulate_upper_bounds(NodeId(u), &mut ubs);
                idx.accumulate_lower_bounds(NodeId(u), &mut lbs);
                for v in 0..6u32 {
                    assert_eq!(
                        ubs[v as usize],
                        idx.upper_bound(NodeId(u), NodeId(v)),
                        "ub({u},{v})"
                    );
                    assert_eq!(
                        lbs[v as usize],
                        idx.lower_bound(NodeId(u), NodeId(v)),
                        "lb({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_bounds_on_empty_index() {
        let idx = LandmarkIndex::from_rows(vec![], vec![]);
        let (mut ubs, mut lbs) = (vec![1, 2, 3], vec![4, 5, 6]);
        idx.accumulate_upper_bounds(NodeId(0), &mut ubs);
        idx.accumulate_lower_bounds(NodeId(0), &mut lbs);
        assert!(ubs.is_empty());
        assert!(lbs.is_empty());
    }

    #[test]
    fn fused_bounds_match_separate_probes() {
        let graphs = [sample(), graph_from_edges(6, &[(0, 1), (1, 2), (4, 5)])];
        for g in &graphs {
            let idx = LandmarkIndex::build(g, &[NodeId(0), NodeId(2)]);
            for u in 0..6u32 {
                for v in 0..6u32 {
                    let (lb, ub) = idx.bounds(NodeId(u), NodeId(v));
                    assert_eq!(lb, idx.lower_bound(NodeId(u), NodeId(v)), "lb({u},{v})");
                    if lb != INF {
                        assert_eq!(ub, idx.upper_bound(NodeId(u), NodeId(v)), "ub({u},{v})");
                    }
                }
            }
        }
    }

    #[test]
    fn more_landmarks_tighten_bounds() {
        let g = sample();
        let few = LandmarkIndex::build(&g, &[NodeId(0)]);
        let many = LandmarkIndex::build(&g, &[NodeId(0), NodeId(2), NodeId(5)]);
        for u in 0..6u32 {
            for v in 0..6u32 {
                assert!(
                    many.upper_bound(NodeId(u), NodeId(v)) <= few.upper_bound(NodeId(u), NodeId(v))
                );
                assert!(
                    many.lower_bound(NodeId(u), NodeId(v)) >= few.lower_bound(NodeId(u), NodeId(v))
                );
            }
        }
    }
}
