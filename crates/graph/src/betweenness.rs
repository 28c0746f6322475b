//! Exact Brandes edge betweenness, with the graph's forest peeled off first.
//!
//! The Incidence baseline of Papadimitriou et al. ranks active nodes by the
//! *importance* of their new edges — an estimate of edge betweenness. The
//! paper grants that baseline the *actual* edge betweenness ("giving an
//! advantage to the Incidence algorithm"), so we compute it exactly.
//!
//! Unweighted graphs only (BFS-based Brandes), which matches every use in
//! the paper's evaluation. One path computes every score:
//!
//! * **Peel the forest.** Nodes of degree ≤ 1 are removed repeatedly, in
//!   O(n + m), as in Baglioni et al. (ASONAM 2012) and Sariyüce et al.
//!   (SDM 2013). A peeled node `x` leaves through its parent edge, which is
//!   a bridge between `x`'s subtree of `s(x)` nodes and the rest of its
//!   component of `C` nodes, so that edge's score is exactly
//!   `s(x)·(C − s(x))`. Every node that survives — the 2-core — carries
//!   the weight `w(a) = 1 +` the number of nodes in the trees hanging off
//!   it. A pure tree component peels to nothing.
//! * **Weighted sweeps over the compacted core.** A shortest path between
//!   two core nodes never enters a tree, and a pair of tree nodes uses
//!   the core path between their attachment nodes, so a core edge's score
//!   is `Σ w(s)·w(t)·σ_st(e)/σ_st` over core pairs. Brandes runs once per
//!   core source on a CSR of the core alone: each target counts `w(t)`
//!   times (its coefficient starts at `w(t)/σ` instead of `1/σ`) and each
//!   source's contributions are scaled by `w(s)`.
//! * **Backward pass over DAG arcs only.** While the forward BFS from a
//!   source runs, every arc `u→v` with `dist[v] == dist[u] + 1` (an arc of
//!   the shortest-path DAG) is recorded as `(tail, arc index)`, 8 bytes per
//!   DAG arc. The dependency pass walks that record in reverse — all arcs
//!   out of a node come after all arcs into it — adding
//!   `c = σ[u]·coef[v]` to the arc's edge, with
//!   `coef[v] = (w(v) + δ[v]) / σ[v]` kept per node, instead of rescanning
//!   every arc and testing `dist` on each.
//! * **Fixed-point reduction.** Each per-source contribution `c` is added
//!   as the integer `round(c·2^F)`, with `F = 61 − ⌈log2 n²⌉`. The weights
//!   of a component sum to at most `n`, so one edge's sum over all core
//!   sources stays below `n²` and cannot overflow an `i64`. Integer sums
//!   do not depend on which lane summed which source, so the scores are
//!   bit-identical at every thread count and steal schedule. The price is
//!   resolution: a core edge's score takes at most one rounding per core
//!   source, so its absolute error is at most `k·2^-(F+2)` after halving,
//!   with `k ≤ n` the number of core nodes, and `F` loses a bit each time
//!   `n²` doubles. That is 35 bits at the emulators' scale-0.25 sizes
//!   (bound ≈ 5e-8), 31 at the largest full-scale emulator (25.5k nodes,
//!   bound ≈ 3e-6) and about 21 at a million nodes, where small scores
//!   lose most of their digits. Bridge scores are exact.

use crate::components::components;
use crate::graph::Graph;

/// Edge betweenness scores of one graph.
///
/// Scores are *unnormalized* sums over unordered source/target pairs, i.e.
/// each pair `{s, t}` contributes its dependency once (the directed Brandes
/// accumulation is halved).
#[derive(Clone, Debug)]
pub struct Betweenness {
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

/// A graph with its forest peeled off: the compacted 2-core the sweeps
/// walk, and the exact scores of the peeled bridges.
struct Peeled {
    /// CSR of the core over local ids (core nodes in ascending id order).
    offsets: Vec<usize>,
    targets: Vec<u32>,
    /// The graph's undirected edge id of each core arc.
    arc_edge: Vec<u32>,
    /// `w(a)`: 1 + the nodes in the trees hanging off core node `a`.
    weight: Vec<f64>,
    /// `(edge id, s·(C − s))` of every peeled node's parent edge.
    bridges: Vec<(u32, f64)>,
}

impl Peeled {
    fn new(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let offsets = graph.arc_offsets();
        let targets = graph.arc_targets();
        let arc_edge = graph.arc_edge_ids();
        let comps = components(graph);

        // `degree[u]` counts `u`'s neighbours not yet peeled, and `size[u]`
        // the nodes peeled into `u`'s subtree plus `u` itself: when `u`
        // peels, every neighbour but its parent has peeled onto it, so
        // `size[u]` is its final subtree size `s(u)`.
        let mut degree: Vec<usize> = (0..n).map(|u| offsets[u + 1] - offsets[u]).collect();
        let mut size = vec![1usize; n];
        let mut peeled = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&u| degree[u] <= 1).collect();
        let mut bridges = Vec::new();
        while let Some(x) = stack.pop() {
            peeled[x] = true;
            if degree[x] == 0 {
                // The last node of a tree component (or an isolated node).
                continue;
            }
            let a = (offsets[x]..offsets[x + 1])
                .find(|&a| !peeled[targets[a].index()])
                .expect("a node of degree 1 has one neighbour left");
            let p = targets[a].index();
            let c = comps.sizes[comps.labels[x] as usize];
            bridges.push((arc_edge[a], size[x] as f64 * (c - size[x]) as f64));
            size[p] += size[x];
            degree[p] -= 1;
            if degree[p] == 1 {
                stack.push(p);
            }
        }

        let mut local = vec![u32::MAX; n];
        let mut weight = Vec::new();
        for u in (0..n).filter(|&u| !peeled[u]) {
            local[u] = weight.len() as u32;
            weight.push(size[u] as f64);
        }
        let mut core_offsets = Vec::with_capacity(weight.len() + 1);
        core_offsets.push(0);
        let mut core_targets = Vec::new();
        let mut core_arc_edge = Vec::new();
        for u in (0..n).filter(|&u| !peeled[u]) {
            for a in offsets[u]..offsets[u + 1] {
                let v = local[targets[a].index()];
                if v != u32::MAX {
                    core_targets.push(v);
                    core_arc_edge.push(arc_edge[a]);
                }
            }
            core_offsets.push(core_targets.len());
        }
        Peeled {
            offsets: core_offsets,
            targets: core_targets,
            arc_edge: core_arc_edge,
            weight,
            bridges,
        }
    }

    fn num_nodes(&self) -> usize {
        self.weight.len()
    }
}

/// Per-worker Brandes scratch, persistent across batches in the
/// executor's [`cp_exec::WorkerScratch`]. At rest every vector is clean —
/// `dist` all [`UNREACHED`], `sigma` and the accumulator all zero — so a
/// batch over a core of the same size reuses it as is.
struct BrandesScratch {
    /// BFS level, [`UNREACHED`] for nodes not reached yet.
    dist: Vec<u32>,
    sigma: Vec<f64>,
    /// `(w(v) + δ[v]) / σ[v]`: written for every reached node, so it needs
    /// no reset.
    coef: Vec<f64>,
    /// Core nodes reached from the current source, in BFS order.
    order: Vec<u32>,
    /// `(tail, core arc index)` of every shortest-path DAG arc, in BFS
    /// order.
    dag: Vec<(u32, u32)>,
    /// Fixed-point edge sums of this lane's sources, by graph edge id.
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
            edge: vec![0; m],
        }
    }

    /// One weighted Brandes sweep from core node `s`, added to the lane's
    /// accumulator in units of `unit = 2^F`.
    fn sweep(&mut self, core: &Peeled, s: usize, unit: f64) {
        let offsets = &core.offsets;
        let targets = &core.targets;
        let weight = &core.weight;
        let BrandesScratch {
            dist,
            sigma,
            coef,
            order,
            dag,
            edge,
        } = self;

        dist[s] = 0;
        sigma[s] = 1.0;
        order.push(s as u32);
        let mut head = 0;
        while head < order.len() {
            let u = order[head] as usize;
            head += 1;
            let next = dist[u] + 1;
            // All of `u`'s DAG in-arcs came from the previous level, so
            // σ[u] is final: seed `coef[u] = (w(u) + δ[u]) / σ[u]` with
            // δ = 0.
            let su = sigma[u];
            coef[u] = weight[u] / su;
            let first = offsets[u];
            for (a, &v) in (first..).zip(&targets[first..offsets[u + 1]]) {
                let v = v as usize;
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
        // `δ[u] = σ[u]·Σ coef[v]` and edge `u→v` carries `σ[u]·coef[v]`,
        // counted `w(s)` times.
        let ws = weight[s] * unit;
        let mut i = dag.len();
        while i > 0 {
            let u = dag[i - 1].0 as usize;
            let su = sigma[u] * ws;
            let mut sum = 0.0;
            while i > 0 && dag[i - 1].0 as usize == u {
                let a = dag[i - 1].1 as usize;
                i -= 1;
                let cv = coef[targets[a] as usize];
                sum += cv;
                edge[core.arc_edge[a] as usize] += fixed(su * cv);
            }
            coef[u] += sum;
        }
        for &v in order.iter() {
            dist[v as usize] = UNREACHED;
            sigma[v as usize] = 0.0;
        }
        order.clear();
        dag.clear();
    }
}

/// Fraction bits `F` of the fixed-point sums for `n` nodes:
/// `61 − ⌈log2 n²⌉`, since one edge's sum stays below `n²`.
fn fraction_bits(n: usize) -> i32 {
    let bound = (n.max(1) as u128).pow(2);
    61 - (128 - (bound - 1).leading_zeros()) as i32
}

/// Exact edge betweenness: bridges of the peeled forest in closed form,
/// the 2-core by weighted Brandes from every core source.
pub fn betweenness_exact(graph: &Graph, threads: usize) -> Betweenness {
    assert!(
        !graph.is_weighted(),
        "betweenness supports unweighted graphs only"
    );
    assert!(
        u32::try_from(graph.num_arcs()).is_ok(),
        "betweenness indexes arcs as u32"
    );
    let m = graph.num_edges();
    let core = Peeled::new(graph);
    let k = core.num_nodes();
    let unit = 2f64.powi(fraction_bits(graph.num_nodes()));
    let mut sums = vec![0i64; m];
    let mut slots = vec![(); k];
    cp_exec::global().run_collect(
        &mut slots,
        threads.max(1),
        |s, _slot, ctx| {
            let scratch = ctx.scratch.get_or(|| BrandesScratch::new(k, m));
            if scratch.dist.len() != k || scratch.edge.len() != m {
                *scratch = BrandesScratch::new(k, m);
            }
            scratch.sweep(&core, s, unit);
        },
        |_w, scratch| {
            // Integer sums: the merge order, like the steal schedule that
            // decided which lane swept which source, cannot change a bit.
            if let Some(s) = scratch.get_if::<BrandesScratch>() {
                if s.dist.len() == k && s.edge.len() == m {
                    for (dst, src) in sums.iter_mut().zip(s.edge.iter_mut()) {
                        *dst += std::mem::take(src);
                    }
                }
            }
        },
    );
    // Undirected: each unordered core pair was counted from both
    // endpoints. Bridges were never swept, so their sums are zero.
    let factor = 0.5 / unit;
    let mut edge: Vec<f64> = sums.into_iter().map(|x| x as f64 * factor).collect();
    for &(e, score) in &core.bridges {
        edge[e as usize] = score;
    }
    Betweenness { edge }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::graph::NodeId;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    fn edge(g: &Graph, u: u32, v: u32) -> usize {
        g.edge_id(NodeId(u), NodeId(v)).unwrap() as usize
    }

    #[test]
    fn path_graph_edge_betweenness() {
        // Edge {0,1} carries pairs {0,1},{0,2},{0,3} = 3; middle edge {1,2}
        // carries {0,2},{0,3},{1,2},{1,3} = 4.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = betweenness_exact(&g, 1);
        assert_close(b.edge[edge(&g, 0, 1)], 3.0);
        assert_close(b.edge[edge(&g, 1, 2)], 4.0);
        assert_close(b.edge[edge(&g, 2, 3)], 3.0);
    }

    #[test]
    fn star_spokes_carry_their_leaf() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let b = betweenness_exact(&g, 2);
        // Each spoke edge carries its leaf's 4 pairs (1 to center + 3 leaves).
        for e in 0..4 {
            assert_close(b.edge[e], 4.0);
        }
    }

    #[test]
    fn even_split_on_square() {
        // 4-cycle: edge {0,1} carries its own pair plus half of each
        // opposite pair {0,2} and {1,3}, which have two shortest paths.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let b = betweenness_exact(&g, 2);
        for e in 0..4 {
            assert_close(b.edge[e], 2.0);
        }
    }

    #[test]
    fn lollipop_tail_edges_score_exactly() {
        // Cycle 0..=4 with the tail 4-5-6-7: every tail edge is a bridge
        // of the 8-node component and scores `s·(C − s)` bit for bit.
        let g = graph_from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (4, 5),
                (5, 6),
                (6, 7),
            ],
        );
        let core = Peeled::new(&g);
        assert_eq!(core.weight, vec![1.0, 1.0, 1.0, 1.0, 4.0]);
        for threads in [1, 3] {
            let b = betweenness_exact(&g, threads);
            for (u, v, s) in [(6, 7, 1.0f64), (5, 6, 2.0), (4, 5, 3.0)] {
                let want = s * (8.0 - s);
                assert_eq!(b.edge[edge(&g, u, v)].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn fraction_bits_shrink_with_the_graph() {
        // The emulators' largest graphs at scale 0.25 and at full scale.
        assert_eq!(fraction_bits(6_375), 35);
        assert_eq!(fraction_bits(25_500), 31);
        assert_eq!(fraction_bits(4), 57);
        assert_eq!(fraction_bits(0), 61);
    }

    #[test]
    fn disconnected_components_independent() {
        // Two 3-node paths: each edge is a bridge of its own component.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let core = Peeled::new(&g);
        assert_eq!(core.num_nodes(), 0, "a forest peels to nothing");
        let b = betweenness_exact(&g, 2);
        assert!(b.edge.iter().all(|&x| x == 2.0));
    }
}
