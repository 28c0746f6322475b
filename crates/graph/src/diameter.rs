//! Graph diameter: exact (all-pairs sweeps) and double-sweep bounds.
//!
//! Table 2 of the paper reports the diameter of each dataset snapshot. The
//! exact computation is affordable at the experiment scale (tens of
//! thousands of nodes): unweighted graphs sweep 64 sources per MS-BFS
//! wave, weighted graphs run one Dijkstra per source. The double-sweep
//! lower bound is provided for quick sanity checks on bigger graphs.

use crate::apsp::for_each_source_block;
use crate::bfs::{farthest_node_into, BfsWorkspace};
use crate::dijkstra::dijkstra_into;
use crate::graph::{Graph, NodeId};
use crate::msbfs::{msbfs_visit, MsBfsWorkspace, WAVE_WIDTH};
use crate::INF;
use std::sync::atomic::{AtomicU32, Ordering};

/// Exact diameter of the graph: the largest finite pairwise distance
/// (i.e. the diameter of the largest-eccentricity component). Returns 0 for
/// edgeless graphs.
pub fn diameter_exact(graph: &Graph, threads: usize) -> u32 {
    let n = graph.num_nodes();
    let best = AtomicU32::new(0);
    if graph.is_weighted() {
        for_each_source_block(n, 1, threads, |sources, dist: &mut Vec<u32>| {
            dijkstra_into(graph, NodeId::new(sources.start), dist);
            let local = dist.iter().filter(|&&d| d != INF).max().copied();
            best.fetch_max(local.unwrap_or(0), Ordering::Relaxed);
        });
    } else {
        for_each_source_block(
            n,
            WAVE_WIDTH,
            threads,
            |sources, ws: &mut MsBfsWorkspace| {
                let sources: Vec<NodeId> = sources.map(NodeId::new).collect();
                // Discoveries arrive in nondecreasing level order, so the
                // last level reported is the wave's largest finite distance.
                let mut local = 0;
                msbfs_visit(graph, &sources, ws, |_, _, level| local = level);
                best.fetch_max(local, Ordering::Relaxed);
            },
        );
    }
    best.load(Ordering::Relaxed)
}

/// Double-sweep lower bound on the diameter.
///
/// BFS from `start`, then BFS from the farthest node found; the second
/// eccentricity is a classic (usually tight on real-world graphs) lower
/// bound. `start` should be a node of the component of interest — pass a
/// max-degree node for the conventional heuristic.
pub fn diameter_double_sweep(graph: &Graph, start: NodeId) -> u32 {
    let mut dist = vec![0u32; graph.num_nodes()];
    let mut ws = BfsWorkspace::new();
    let (far, _) = farthest_node_into(graph, start, &mut dist, &mut ws);
    let (_, ecc) = farthest_node_into(graph, far, &mut dist, &mut ws);
    ecc
}

/// Double-sweep lower bound started from a maximum-degree node.
pub fn diameter_estimate(graph: &Graph) -> u32 {
    let start = graph
        .nodes()
        .max_by_key(|&u| graph.degree(u))
        .unwrap_or(NodeId(0));
    if graph.num_nodes() == 0 {
        return 0;
    }
    diameter_double_sweep(graph, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn path_diameter() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(diameter_exact(&g, 2), 5);
        assert_eq!(diameter_double_sweep(&g, NodeId(2)), 5);
        assert_eq!(diameter_estimate(&g), 5);
    }

    #[test]
    fn cycle_diameter() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(diameter_exact(&g, 2), 3);
        // Double sweep is a lower bound; on even cycles it is exact.
        assert!(diameter_double_sweep(&g, NodeId(0)) <= 3);
    }

    #[test]
    fn disconnected_uses_largest_finite_distance() {
        let g = graph_from_edges(7, &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]);
        assert_eq!(diameter_exact(&g, 2), 3);
    }

    #[test]
    fn weighted_diameter_uses_dijkstra() {
        let mut b = crate::GraphBuilder::new(4);
        b.add_weighted_edge(NodeId(0), NodeId(1), 4);
        b.add_weighted_edge(NodeId(1), NodeId(2), 9);
        let g = b.build();
        assert_eq!(diameter_exact(&g, 2), 13);
    }

    #[test]
    fn edgeless_graph() {
        let g = graph_from_edges(3, &[]);
        assert_eq!(diameter_exact(&g, 2), 0);
        assert_eq!(diameter_estimate(&g), 0);
    }

    #[test]
    fn double_sweep_never_exceeds_exact() {
        let g = graph_from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
            ],
        );
        let exact = diameter_exact(&g, 2);
        for s in 0..9 {
            assert!(diameter_double_sweep(&g, NodeId(s)) <= exact);
        }
    }
}
