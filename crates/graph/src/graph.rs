//! The immutable CSR snapshot type.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A node identifier.
///
/// Nodes are dense indices `0..n` into a fixed universe shared by all
/// snapshots of the same evolving graph, so a `NodeId` obtained from the
/// first snapshot is valid in the second one. Stored as `u32`: the paper's
/// datasets (and our synthetic equivalents) have tens of thousands of nodes,
/// and compact ids keep distance rows and adjacency arrays small.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's dense index, for indexing into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// An immutable undirected graph snapshot in compressed-sparse-row form.
///
/// * Adjacency lists are sorted by target id, enabling `O(log deg)` edge
///   lookup ([`Graph::has_edge`], [`Graph::edge_id`]).
/// * Every undirected edge `{u, v}` is stored as two arcs; both arcs carry
///   the same *edge id* in `0..num_edges()`, which [`betweenness`] uses to
///   accumulate per-edge scores.
/// * Optional positive integer edge weights (indexed by edge id). The
///   converging-pairs experiments are unweighted (unit weights), matching
///   the paper's evaluation, but the SSSP layer dispatches to Dijkstra when
///   weights are present.
///
/// [`betweenness`]: crate::betweenness
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    pub(crate) offsets: Vec<usize>,
    pub(crate) targets: Vec<NodeId>,
    /// Undirected edge id per arc, parallel to `targets`.
    pub(crate) arc_edge: Vec<u32>,
    /// `weights[e]` is the weight of edge id `e`; `None` means unit weights.
    pub(crate) weights: Option<Vec<u32>>,
    pub(crate) num_edges: usize,
}

impl Graph {
    /// Number of nodes in the universe (including isolated nodes).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u.index() + 1] - self.offsets[u.index()]
    }

    /// Sorted neighbors of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[u.index()]..self.offsets[u.index() + 1]]
    }

    /// Number of arcs (`2 * num_edges()`): the degree sum the direction-
    /// optimizing BFS heuristic budgets against.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// The CSR degree-prefix array: `arc_offsets()[u.index()]..
    /// arc_offsets()[u.index() + 1]` indexes `u`'s arcs in
    /// [`Self::arc_targets`]. Raw access for flat traversal kernels
    /// (`bfs`, `msbfs`) that iterate all adjacency slices without
    /// per-node slicing overhead.
    #[inline]
    pub fn arc_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat CSR target array, parallel to [`Self::arc_offsets`].
    #[inline]
    pub fn arc_targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// The flat per-arc undirected edge ids, parallel to
    /// [`Self::arc_targets`]: arc `a` runs to `arc_targets()[a]` along
    /// edge `arc_edge_ids()[a]`.
    #[inline]
    pub fn arc_edge_ids(&self) -> &[u32] {
        &self.arc_edge
    }

    /// Neighbors of `u` zipped with the undirected edge id of each arc.
    #[inline]
    pub fn neighbors_with_edge_ids(&self, u: NodeId) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        let range = self.offsets[u.index()]..self.offsets[u.index() + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.arc_edge[range].iter().copied())
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The undirected edge id of `{u, v}`, if the edge exists.
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<u32> {
        let base = self.offsets[u.index()];
        self.neighbors(u)
            .binary_search(&v)
            .ok()
            .map(|pos| self.arc_edge[base + pos])
    }

    /// Weight of edge id `e` (1 for unweighted graphs).
    #[inline]
    pub fn edge_weight(&self, e: u32) -> u32 {
        match &self.weights {
            Some(w) => w[e as usize],
            None => 1,
        }
    }

    /// Whether the graph carries explicit edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Iterator over all node ids, including isolated ones.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Lazy iterator over all undirected edges as `(u, v)` with `u < v`,
    /// in **node order** (ascending `u`, then ascending `v`), `O(1)` space.
    ///
    /// Each undirected edge is emitted exactly once, from the arc whose
    /// source is the smaller endpoint. Callers that need **edge-id order**
    /// (e.g. to index per-edge score arrays) must use
    /// [`Self::edge_endpoints_vec`], which materializes the `O(m)`
    /// endpoint table instead.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Endpoint table indexed by edge id: `table[e] = (u, v)` with `u < v`.
    pub fn edge_endpoints_vec(&self) -> Vec<(NodeId, NodeId)> {
        let mut table = vec![(NodeId(0), NodeId(0)); self.num_edges];
        for u in self.nodes() {
            for (v, e) in self.neighbors_with_edge_ids(u) {
                if u < v {
                    table[e as usize] = (u, v);
                }
            }
        }
        table
    }

    /// Number of nodes with at least one incident edge.
    ///
    /// The paper reports active node counts for its datasets (Table 2); our
    /// snapshots share a fixed node universe so isolated nodes exist in the
    /// early snapshots.
    pub fn num_active_nodes(&self) -> usize {
        self.nodes().filter(|&u| self.degree(u) > 0).count()
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Density `2m / (n(n-1))` over *active* nodes.
    pub fn density(&self) -> f64 {
        let n = self.num_active_nodes() as f64;
        if n < 2.0 {
            return 0.0;
        }
        2.0 * self.num_edges as f64 / (n * (n - 1.0))
    }

    /// Heap bytes owned by the CSR arrays (`offsets`, `targets`,
    /// `arc_edge`, `weights`). Baseline for the per-store memory stats
    /// reported by the pipeline.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
            + self.arc_edge.len() * std::mem::size_of::<u32>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * std::mem::size_of::<u32>())
    }

    /// Verifies internal invariants; used by tests and debug assertions.
    ///
    /// Checks: offsets are monotone, adjacency sorted and symmetric, arc
    /// count is `2 * num_edges`, edge ids are consistent on both arcs and
    /// cover `0..num_edges`, no self-loops or duplicates.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() != self.targets.len() {
            return Err("offsets do not span targets".into());
        }
        if self.targets.len() != 2 * self.num_edges {
            return Err(format!(
                "arc count {} != 2 * edge count {}",
                self.targets.len(),
                self.num_edges
            ));
        }
        if self.arc_edge.len() != self.targets.len() {
            return Err("arc_edge length mismatch".into());
        }
        if let Some(w) = &self.weights {
            if w.len() != self.num_edges {
                return Err("weights length mismatch".into());
            }
        }
        let mut seen_edge = vec![0u8; self.num_edges];
        for u in self.nodes() {
            let nbrs = self.neighbors(u);
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency of {u:?} not strictly sorted"));
            }
            for (v, e) in self.neighbors_with_edge_ids(u) {
                if v.index() >= n {
                    return Err(format!("target {v:?} out of range"));
                }
                if v == u {
                    return Err(format!("self-loop at {u:?}"));
                }
                match self.edge_id(v, u) {
                    Some(back) if back == e => {}
                    _ => return Err(format!("asymmetric arc {u:?} -> {v:?}")),
                }
                if u < v {
                    seen_edge[e as usize] += 1;
                }
            }
        }
        if seen_edge.iter().any(|&c| c != 1) {
            return Err("edge ids do not cover 0..num_edges exactly once".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path4() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(3));
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = path4();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
        g.check_invariants().unwrap();
    }

    #[test]
    fn edge_ids_symmetric() {
        let g = path4();
        for (u, v) in g.edge_endpoints_vec() {
            assert_eq!(g.edge_id(u, v), g.edge_id(v, u));
        }
    }

    #[test]
    fn edges_iterator_matches_count() {
        let g = path4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn density_and_active_nodes() {
        let mut b = GraphBuilder::new(5); // node 4 isolated
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(3));
        let g = b.build();
        assert_eq!(g.num_active_nodes(), 4);
        assert!((g.density() - 2.0 * 3.0 / 12.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", NodeId(7)), "7");
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
        assert_eq!(NodeId::new(3), NodeId(3));
        assert_eq!(NodeId::from(9u32).index(), 9);
    }
}
