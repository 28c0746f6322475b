//! Brandes betweenness centrality (node and edge), exact and pivot-sampled.
//!
//! The Incidence baseline of Papadimitriou et al. ranks active nodes by the
//! *importance* of their new edges — an estimate of edge betweenness. The
//! paper grants that baseline the *actual* edge betweenness ("giving an
//! advantage to the Incidence algorithm"), so we implement exact Brandes;
//! the pivot-sampled variant is provided for larger graphs and for the
//! baseline's original shortest-path-tree-sampling spirit.
//!
//! Unweighted graphs only (BFS-based Brandes), which matches every use in
//! the paper's evaluation. One kernel serves both entry points:
//!
//! * **Backward pass over DAG arcs only.** While the forward BFS from a
//!   source runs, every arc `u→v` with `dist[v] == dist[u] + 1` (an arc of
//!   the shortest-path DAG) is recorded as `(tail, arc index)`, 8 bytes per
//!   DAG arc. The dependency pass walks that record in reverse — all arcs
//!   out of a node come after all arcs into it — adding
//!   `c = σ[u]·(1 + δ[v]) / σ[v]` to `δ[u]` and to the arc's edge, instead
//!   of rescanning all `2m` arcs and testing `dist` on each. The quotient
//!   `(1 + δ[v]) / σ[v]` is kept per node, so the pass divides once per
//!   reached node rather than once per arc.
//! * **Fixed-point reduction.** Each per-source contribution `c` is added
//!   as the integer `round(c·2^F)`, with
//!   `F = 61 − ⌈log2(n·max(n, sources))⌉`, so no score's sum (at most
//!   `n − 1` per source) can overflow an `i64`. Integer sums do not depend
//!   on which lane summed which source, so the scores are bit-identical at
//!   every thread count and steal schedule. The price is resolution: each
//!   score takes at most one rounding per swept source, so an exact
//!   score's absolute error is at most `n·2^-(F+2)` after halving, and `F`
//!   loses a bit each time `n²` doubles. That is 35 bits at the emulators'
//!   scale-0.25 sizes (bound ≈ 5e-8), 31 at the largest full-scale
//!   emulator (25.5k nodes, bound ≈ 3e-6) and about 21 at a million nodes,
//!   where small scores lose most of their digits.

use crate::graph::{Graph, NodeId};

/// Node and edge betweenness scores of one graph.
///
/// Scores are *unnormalized* sums over unordered source/target pairs, i.e.
/// each pair `{s, t}` contributes its dependency once (the directed Brandes
/// accumulation is halved). Sampled scores are scaled by `n / |pivots|` so
/// they estimate the exact ones.
#[derive(Clone, Debug)]
pub struct Betweenness {
    /// Per-node betweenness, indexed by node id.
    pub node: Vec<f64>,
    /// Per-edge betweenness, indexed by undirected edge id.
    pub edge: Vec<f64>,
}

/// `dist` of a node the current sweep has not reached. The largest value,
/// so one comparison `dist[v] >= level` admits both unreached nodes and
/// nodes already found on `level`.
const UNREACHED: u32 = u32::MAX;

/// `x ≥ 0` rounded to the nearest integer.
#[inline]
fn fixed(x: f64) -> i64 {
    (x + 0.5) as i64
}

/// Per-worker Brandes scratch, persistent across batches in the
/// executor's [`cp_exec::WorkerScratch`]. At rest every vector is clean —
/// `dist` all [`UNREACHED`], `sigma` and both accumulators all zero — so
/// a batch over a graph of the same size reuses it as is.
struct BrandesScratch {
    /// BFS level, [`UNREACHED`] for nodes not reached yet.
    dist: Vec<u32>,
    sigma: Vec<f64>,
    /// `(1 + δ[v]) / σ[v]`: written for every reached node, so it needs no
    /// reset.
    coef: Vec<f64>,
    /// Nodes reached from the current source, in BFS order.
    order: Vec<u32>,
    /// `(tail, arc index)` of every shortest-path DAG arc, in BFS order.
    dag: Vec<(u32, u32)>,
    /// Fixed-point node and edge sums of this lane's sources.
    node: Vec<i64>,
    edge: Vec<i64>,
}

impl BrandesScratch {
    fn new(n: usize, m: usize) -> Self {
        BrandesScratch {
            dist: vec![UNREACHED; n],
            sigma: vec![0.0; n],
            coef: vec![0.0; n],
            order: Vec::with_capacity(n),
            dag: Vec::new(),
            node: vec![0; n],
            edge: vec![0; m],
        }
    }

    /// One Brandes sweep from `s`, added to the lane's accumulators in
    /// units of `unit = 2^F`.
    fn sweep(&mut self, graph: &Graph, s: NodeId, unit: f64) {
        let offsets = graph.arc_offsets();
        let targets = graph.arc_targets();
        let arc_edge = graph.arc_edge_ids();
        let BrandesScratch {
            dist,
            sigma,
            coef,
            order,
            dag,
            node,
            edge,
        } = self;

        dist[s.index()] = 0;
        sigma[s.index()] = 1.0;
        order.push(s.0);
        let mut head = 0;
        while head < order.len() {
            let u = order[head] as usize;
            head += 1;
            let next = dist[u] + 1;
            // All of `u`'s DAG in-arcs came from the previous level, so
            // σ[u] is final: seed `coef[u] = (1 + δ[u]) / σ[u]` with δ = 0.
            let su = sigma[u];
            coef[u] = 1.0 / su;
            let first = offsets[u];
            for (a, v) in (first..).zip(&targets[first..offsets[u + 1]]) {
                let v = v.index();
                let dv = dist[v];
                if dv >= next {
                    if dv == UNREACHED {
                        dist[v] = next;
                        order.push(v as u32);
                    }
                    sigma[v] += su;
                    dag.push((u as u32, a as u32));
                }
            }
        }

        // Reverse BFS order visits each tail's arcs as one run, after the
        // runs of all its successors, so `coef[v]` is final when read:
        // `δ[u] = σ[u]·Σ coef[v]` and edge `u→v` carries `σ[u]·coef[v]`.
        let mut i = dag.len();
        while i > 0 {
            let u = dag[i - 1].0 as usize;
            let su = sigma[u] * unit;
            let mut sum = 0.0;
            while i > 0 && dag[i - 1].0 as usize == u {
                let a = dag[i - 1].1 as usize;
                i -= 1;
                let cv = coef[targets[a].index()];
                sum += cv;
                edge[arc_edge[a] as usize] += fixed(su * cv);
            }
            coef[u] += sum;
            if u != s.index() {
                node[u] += fixed(su * sum);
            }
        }
        for &v in order.iter() {
            dist[v as usize] = UNREACHED;
            sigma[v as usize] = 0.0;
        }
        order.clear();
        dag.clear();
    }
}

/// Fraction bits `F` of the fixed-point sums for `n` nodes and `sources`
/// swept sources: `61 − ⌈log2 bound⌉`, where `bound = n·max(n, sources)`
/// covers `n − 1` per source (pivots may repeat, so `sources` can exceed
/// `n`).
fn fraction_bits(n: usize, sources: usize) -> i32 {
    let bound = n.max(1) as u128 * n.max(sources).max(1) as u128;
    61 - (128 - (bound - 1).leading_zeros()) as i32
}

fn run_brandes(graph: &Graph, sources: &[NodeId], threads: usize, scale: f64) -> Betweenness {
    assert!(
        !graph.is_weighted(),
        "betweenness supports unweighted graphs only"
    );
    assert!(
        u32::try_from(graph.num_arcs()).is_ok(),
        "betweenness indexes arcs as u32"
    );
    let n = graph.num_nodes();
    let m = graph.num_edges();
    let unit = 2f64.powi(fraction_bits(n, sources.len()));
    let mut node = vec![0i64; n];
    let mut edge = vec![0i64; m];
    let mut slots = vec![(); sources.len()];
    cp_exec::global().run_collect(
        &mut slots,
        threads.max(1),
        |i, _slot, ctx| {
            let scratch = ctx.scratch.get_or(|| BrandesScratch::new(n, m));
            if scratch.dist.len() != n || scratch.edge.len() != m {
                *scratch = BrandesScratch::new(n, m);
            }
            scratch.sweep(graph, sources[i], unit);
        },
        |_w, scratch| {
            // Integer sums: the merge order, like the steal schedule that
            // decided which lane swept which source, cannot change a bit.
            if let Some(s) = scratch.get_if::<BrandesScratch>() {
                if s.node.len() == n && s.edge.len() == m {
                    for (dst, src) in node.iter_mut().zip(s.node.iter_mut()) {
                        *dst += std::mem::take(src);
                    }
                    for (dst, src) in edge.iter_mut().zip(s.edge.iter_mut()) {
                        *dst += std::mem::take(src);
                    }
                }
            }
        },
    );
    // Undirected: each unordered pair was counted from both endpoints when
    // iterating all sources; for pivot samples the halving still yields an
    // unbiased estimator of the unordered-pair score.
    let factor = 0.5 * scale / unit;
    Betweenness {
        node: node.into_iter().map(|x| x as f64 * factor).collect(),
        edge: edge.into_iter().map(|x| x as f64 * factor).collect(),
    }
}

/// Exact Brandes betweenness over all sources.
pub fn betweenness_exact(graph: &Graph, threads: usize) -> Betweenness {
    let sources: Vec<NodeId> = graph.nodes().collect();
    run_brandes(graph, &sources, threads, 1.0)
}

/// Pivot-sampled Brandes betweenness: accumulates from the given pivots and
/// scales by `n / |pivots|` to estimate the exact scores.
pub fn betweenness_sampled(graph: &Graph, pivots: &[NodeId], threads: usize) -> Betweenness {
    if pivots.is_empty() {
        return Betweenness {
            node: vec![0.0; graph.num_nodes()],
            edge: vec![0.0; graph.num_edges()],
        };
    }
    let scale = graph.num_nodes() as f64 / pivots.len() as f64;
    run_brandes(graph, pivots, threads, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn path_graph_node_betweenness() {
        // Path 0-1-2-3: node 1 lies on pairs {0,2},{0,3}; node 2 on {0,3},{1,3}.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = betweenness_exact(&g, 2);
        assert_close(b.node[0], 0.0);
        assert_close(b.node[1], 2.0);
        assert_close(b.node[2], 2.0);
        assert_close(b.node[3], 0.0);
    }

    #[test]
    fn path_graph_edge_betweenness() {
        // Edge {0,1} carries pairs {0,1},{0,2},{0,3} = 3; middle edge {1,2}
        // carries {0,2},{0,3},{1,2},{1,3} = 4.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = betweenness_exact(&g, 1);
        let e01 = g.edge_id(NodeId(0), NodeId(1)).unwrap() as usize;
        let e12 = g.edge_id(NodeId(1), NodeId(2)).unwrap() as usize;
        let e23 = g.edge_id(NodeId(2), NodeId(3)).unwrap() as usize;
        assert_close(b.edge[e01], 3.0);
        assert_close(b.edge[e12], 4.0);
        assert_close(b.edge[e23], 3.0);
    }

    #[test]
    fn star_center_has_all_betweenness() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let b = betweenness_exact(&g, 2);
        // Center lies on all C(4,2) = 6 leaf pairs.
        assert_close(b.node[0], 6.0);
        for leaf in 1..5 {
            assert_close(b.node[leaf], 0.0);
        }
        // Each spoke edge carries its leaf's 4 pairs (1 to center + 3 leaves).
        for e in 0..4 {
            assert_close(b.edge[e], 4.0);
        }
    }

    #[test]
    fn even_split_on_square() {
        // 4-cycle: two shortest paths between opposite corners, each through
        // a distinct intermediate -> each intermediate gets 1/2 per pair.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let b = betweenness_exact(&g, 2);
        for v in 0..4 {
            assert_close(b.node[v], 0.5);
        }
    }

    #[test]
    fn full_sample_equals_exact() {
        let g = graph_from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 6)]);
        let exact = betweenness_exact(&g, 2);
        let pivots: Vec<NodeId> = g.nodes().collect();
        let sampled = betweenness_sampled(&g, &pivots, 2);
        for i in 0..g.num_nodes() {
            assert_close(exact.node[i], sampled.node[i]);
        }
        for e in 0..g.num_edges() {
            assert_close(exact.edge[e], sampled.edge[e]);
        }
    }

    #[test]
    fn fraction_bits_shrink_with_the_graph() {
        // The emulators' largest graphs at scale 0.25 and at full scale.
        assert_eq!(fraction_bits(6_375, 6_375), 35);
        assert_eq!(fraction_bits(25_500, 25_500), 31);
        // More pivots than nodes widen the bound.
        assert_eq!(fraction_bits(4, 4), 57);
        assert_eq!(fraction_bits(4, 64), 53);
        assert_eq!(fraction_bits(0, 0), 61);
    }

    #[test]
    fn empty_pivot_sample() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let b = betweenness_sampled(&g, &[], 2);
        assert!(b.node.iter().all(|&x| x == 0.0));
        assert!(b.edge.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn disconnected_components_independent() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let b = betweenness_exact(&g, 2);
        assert_close(b.node[1], 1.0);
        assert_close(b.node[4], 1.0);
        assert_close(b.node[0], 0.0);
        assert_close(b.node[3], 0.0);
    }
}
