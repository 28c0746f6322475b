//! Reference implementations the pipeline is held to. Nothing here runs at
//! runtime: the oracle computes rows with direction-optimizing BFS and
//! multi-source waves, and the Δ-scan runs the blocked, chunk-skipping
//! kernel. These are the plain versions those optimizations must match.
//!
//! Shared by the conformance suites of several crates, which include this
//! file with `#[path = ".../core/tests/reference/mod.rs"] mod reference;`.

use cp_core::exact::{sort_pairs, ConvergingPair, TopKSpec};
use cp_graph::bfs::{bfs_scalar_into, BfsWorkspace};
use cp_graph::dijkstra::dijkstra;
use cp_graph::{distance_decrease, Graph, NodeId};

/// The distance row of `u` by the reference kernels: top-down scalar BFS,
/// or Dijkstra on a weighted graph.
pub fn reference_row(g: &Graph, u: NodeId) -> Vec<u32> {
    if g.is_weighted() {
        return dijkstra(g, u);
    }
    let mut dist = Vec::new();
    bfs_scalar_into(g, u, &mut dist, &mut BfsWorkspace::new());
    dist
}

/// The pairs the budgeted pipeline must report for a candidate set `M`:
/// the per-element Δ loop over each candidate's reference rows (no
/// chunking, no pruning), emitting `(u, v)` with `Δ ≥ 1` and skipping
/// `v = u` and `v ∈ M, v < u` (that pair is emitted from `v`'s row), then
/// the spec cut. `ThresholdFromMax` takes its maximum over the pairs
/// visible from `M`, as the pipeline does.
pub fn reference_pairs(
    g1: &Graph,
    g2: &Graph,
    candidates: &[NodeId],
    spec: &TopKSpec,
) -> Vec<ConvergingPair> {
    let mut in_m = vec![false; g1.num_nodes()];
    for &u in candidates {
        in_m[u.index()] = true;
    }
    let mut all = Vec::new();
    let mut observed_max = 0;
    for &u in candidates {
        let (d1, d2) = (reference_row(g1, u), reference_row(g2, u));
        for v in 0..d1.len() {
            if v == u.index() || (in_m[v] && v < u.index()) {
                continue;
            }
            let Some(delta) = distance_decrease(d1[v], d2[v]) else {
                continue;
            };
            if delta == 0 {
                continue;
            }
            observed_max = observed_max.max(delta);
            all.push(ConvergingPair::new(u, NodeId::new(v), delta));
        }
    }
    let floor = match spec {
        TopKSpec::Threshold { delta_min } => (*delta_min).max(1),
        TopKSpec::ThresholdFromMax { slack } => observed_max.saturating_sub(*slack).max(1),
        TopKSpec::TopK(_) => 1,
    };
    all.retain(|p| p.delta >= floor);
    sort_pairs(&mut all);
    if let TopKSpec::TopK(k) = spec {
        all.truncate(*k);
    }
    all
}
