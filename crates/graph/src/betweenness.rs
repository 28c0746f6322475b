//! Exact Brandes edge betweenness, with the graph's forest peeled off first
//! and the 2-core swept in blocks of sources.
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
//!   is `Σ w(s)·w(t)·σ_st(e)/σ_st` over core pairs. Brandes runs from
//!   every core source on a CSR of the core alone: each target counts
//!   `w(t)` times (its coefficient starts at `w(t)/σ` instead of `1/σ`)
//!   and each source's contributions are scaled by `w(s)`.
//! * **Block sweeps.** One task sweeps a block of up to 64 core sources
//!   at once, the batched form of Brandes' algorithm (Brandes, 2001) with
//!   MS-BFS words as the frontier (Then et al., VLDB 2014). Blocks are
//!   consecutive runs of a BFS order of the core, so a block's sources
//!   are close and share most of their levels. A level entry is a node
//!   with the word of the sources that reach it on that level.
//!   - *Forward*, level by level: each entry `(u, vis)` scans `u`'s arcs
//!     once, `new = vis & !seen[v]` selects the sources for which `u→v`
//!     is a shortest-path DAG arc into a fresh node, and each of them
//!     pushes σ along it.
//!   - *Backward*, levels in reverse: with `cur[v]` the word of `v` one
//!     level deeper, `vis & cur[v]` selects the sources for which `u→v`
//!     is a DAG arc. Each adds `coef_b[v]` to `δ_b[u]` and
//!     `σ_b[u]·coef_b[v]`, counted `w(s_b)` times, to the arc's edge,
//!     where `coef_b[v] = (w(v) + δ_b[v]) / σ_b[v]`.
//!
//!   Node `v` and source `b` share one `f64` slot `val[v·w + b]`: σ
//!   during the forward pass, `coef` after it.
//! * **Masked accumulation.** [`betweenness_of`] scores only the edges a
//!   caller asks for; IncBet asks for the new edges, about a fifth of
//!   `G_t2`'s. Every DAG arc still feeds `δ`, but an arc whose edge is not
//!   requested skips the per-source product `σ_b[u]·coef_b[v]`, its
//!   rounding and its `i64` add, and a lane keeps one sum per requested
//!   edge instead of one per graph edge. [`betweenness_exact`] is the
//!   same sweep with every edge requested.
//! * **Width cap.** The block width is `w = clamp(2^17 / k, 1, 64)` for a
//!   core of `k` nodes, so a lane's slots hold at most 2^17 `f64` (1 MiB)
//!   next to its `O(k)` words, its level entries and one sum per
//!   requested edge. Wider blocks share each level's arc scans among more
//!   sources but cost memory in every lane: cores of up to 2048 nodes
//!   (Actors, Facebook) sweep full 64-source blocks, Internet links'
//!   4210-node core and DBLP's 4201-node core sweep 31, and a core of
//!   2^17 or more nodes sweeps one source per block, as plain Brandes
//!   does. Lane buffers live for one call and are freed by the merge, so
//!   they never add to a later phase's peak.
//! * **Fixed-point reduction.** Each per-source contribution `c` is added
//!   as the integer `round(c·2^F)`, with `F = 61 − ⌈log2 n²⌉`. The weights
//!   of a component sum to at most `n`, so one edge's sum over all core
//!   sources stays below `n²` and cannot overflow an `i64`. The price is
//!   resolution: a core edge's score takes at most one rounding per core
//!   source, so its absolute error is at most `k·2^-(F+2)` after halving,
//!   and `F` loses a bit each time `n²` doubles. That is 35 bits at the
//!   emulators' scale-0.25 sizes (bound ≈ 5e-8), 31 at the largest
//!   full-scale emulator (25.5k nodes, bound ≈ 3e-6) and about 21 at a
//!   million nodes, where small scores lose most of their digits. Bridge
//!   scores are exact.
//!
//! **Why the scores are bit-identical** at every block width, block order,
//! thread count and mask: σ values are integers (below 2^53), so the order
//! of the forward additions cannot change them. In the backward pass each
//! source's floating-point operations run in the order of the per-source
//! sweep — a node's DAG arcs in reverse CSR order, `coef` read only once
//! final — so every rounded contribution is the same integer, and
//! integer sums do not depend on which lane summed which block. The mask
//! only drops the products of unrequested edges, which no other value
//! reads. The per-source sweep survives as the reference the tests hold
//! the block sweep to.

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

/// Most sources in one block: one bit per source in a `u64` word.
const MAX_BLOCK: usize = 64;

/// Most `f64` slots a lane's block sweep holds: `k·w ≤ 2^17`, 1 MiB.
const LANE_SLOTS: usize = 1 << 17;

/// Block width for a core of `k` nodes: as many sources as fit
/// [`LANE_SLOTS`], between 1 and [`MAX_BLOCK`].
fn block_width(k: usize) -> usize {
    (LANE_SLOTS / k.max(1)).clamp(1, MAX_BLOCK)
}

/// `x ≥ 0` rounded to the nearest integer.
#[inline]
fn fixed(x: f64) -> i64 {
    (x + 0.5) as i64
}

/// The set bits of `word`, lowest first.
#[inline]
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// Marks an arc or edge whose score nobody requested.
const UNREQUESTED: u32 = u32::MAX;

/// A graph with its forest peeled off: the compacted 2-core the sweeps
/// walk, and the exact scores of the requested peeled bridges.
struct Peeled {
    /// CSR of the core over local ids (core nodes in ascending id order).
    offsets: Vec<usize>,
    targets: Vec<u32>,
    /// Each core arc's slot: the index of its edge among the requested
    /// edges, or [`UNREQUESTED`].
    arc_slot: Vec<u32>,
    /// `w(a)`: 1 + the nodes in the trees hanging off core node `a`.
    weight: Vec<f64>,
    /// `(slot, s·(C − s))` of every requested peeled node's parent edge.
    bridges: Vec<(u32, f64)>,
}

impl Peeled {
    /// Peels `graph`, with slots for the requested `edges` (distinct edge
    /// ids): edge `edges[i]` gets slot `i`.
    fn new(graph: &Graph, edges: &[u32]) -> Self {
        let mut slot = vec![UNREQUESTED; graph.num_edges()];
        for (i, &e) in edges.iter().enumerate() {
            let s = &mut slot[e as usize];
            assert!(*s == UNREQUESTED, "edge {e} requested twice");
            *s = i as u32;
        }
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
            let e = slot[arc_edge[a] as usize];
            if e != UNREQUESTED {
                bridges.push((e, size[x] as f64 * (c - size[x]) as f64));
            }
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
        let mut arc_slot = Vec::new();
        for u in (0..n).filter(|&u| !peeled[u]) {
            for a in offsets[u]..offsets[u + 1] {
                let v = local[targets[a].index()];
                if v != u32::MAX {
                    core_targets.push(v);
                    arc_slot.push(slot[arc_edge[a] as usize]);
                }
            }
            core_offsets.push(core_targets.len());
        }
        Peeled {
            offsets: core_offsets,
            targets: core_targets,
            arc_slot,
            weight,
            bridges,
        }
    }

    fn num_nodes(&self) -> usize {
        self.weight.len()
    }

    /// Every core node in BFS order, restarting at the lowest unreached
    /// node once per component.
    fn bfs_order(&self) -> Vec<u32> {
        let k = self.num_nodes();
        let mut reached = vec![false; k];
        let mut order = Vec::with_capacity(k);
        for root in 0..k {
            if reached[root] {
                continue;
            }
            reached[root] = true;
            let mut head = order.len();
            order.push(root as u32);
            while head < order.len() {
                let u = order[head] as usize;
                head += 1;
                for &v in &self.targets[self.offsets[u]..self.offsets[u + 1]] {
                    if !reached[v as usize] {
                        reached[v as usize] = true;
                        order.push(v);
                    }
                }
            }
        }
        order
    }
}

/// Per-lane block-sweep scratch, kept in the executor's
/// [`cp_exec::WorkerScratch`] for one call: the merge frees it. Between
/// blocks every word and slot is zero again, so the next block reuses it
/// as is.
#[derive(Default)]
struct BlockScratch {
    /// `(k, r, w)`: core nodes, requested edges and block width.
    shape: (usize, usize, usize),
    /// `seen[v]` bit `b`: source `b` reached `v` on a level already
    /// entered.
    seen: Vec<u64>,
    /// Forward: `v`'s word on the level being discovered. Backward:
    /// `cur[v]`, `v`'s word one level deeper than the level being walked.
    next: Vec<u64>,
    /// `val[v·w + b]`: `σ_b[v]` in the forward pass, then
    /// `coef_b[v] = (w(v) + δ_b[v]) / σ_b[v]`.
    val: Vec<f64>,
    /// `(node, word)` level entries, level after level: bit `b` of the
    /// word is set when the node is on this level of source `b`'s BFS.
    entries: Vec<(u32, u64)>,
    /// Where each level starts in `entries`, then the end.
    levels: Vec<usize>,
    /// Fixed-point edge sums of this lane's sources, by slot.
    edge: Vec<i64>,
}

impl BlockScratch {
    fn new(shape: (usize, usize, usize)) -> Self {
        let (k, r, w) = shape;
        BlockScratch {
            shape,
            seen: vec![0; k],
            next: vec![0; k],
            val: vec![0.0; k * w],
            entries: Vec::new(),
            levels: Vec::new(),
            edge: vec![0; r],
        }
    }

    /// Weighted Brandes from every core node in `sources` (at most the
    /// block width), added to the lane's accumulator in units of
    /// `unit = 2^F`.
    fn sweep(&mut self, core: &Peeled, sources: &[u32], unit: f64) {
        let w = self.shape.2;
        let offsets = &core.offsets;
        let targets = &core.targets;
        let weight = &core.weight;
        let BlockScratch {
            seen,
            next,
            val,
            entries,
            levels,
            edge,
            ..
        } = self;

        for (b, &s) in sources.iter().enumerate() {
            let s = s as usize;
            seen[s] = 1 << b;
            val[s * w + b] = 1.0;
            entries.push((s as u32, 1 << b));
        }
        // Forward: a node joins the next level at its first new bit, and
        // its word is final once the level is scanned. σ values are
        // integers, so the order of the pushes cannot change them.
        let mut start = 0;
        while start < entries.len() {
            let end = entries.len();
            levels.push(start);
            for i in start..end {
                let (u, vis) = entries[i];
                let u = u as usize;
                for &v in &targets[offsets[u]..offsets[u + 1]] {
                    let v = v as usize;
                    let new = vis & !seen[v];
                    if new != 0 {
                        if next[v] == 0 {
                            entries.push((v as u32, 0));
                        }
                        next[v] |= new;
                        for b in bits(new) {
                            val[v * w + b] += val[u * w + b];
                        }
                    }
                }
            }
            for entry in &mut entries[end..] {
                let v = entry.0 as usize;
                entry.1 = std::mem::take(&mut next[v]);
                seen[v] |= entry.1;
            }
            start = end;
        }
        levels.push(start);

        // Backward, deepest level first. A stale `cur` word from two or
        // more levels deeper never matches: BFS levels of adjacent nodes
        // differ by at most one. Per source this is the per-source sweep's
        // order — a node's DAG arcs in reverse CSR order, `coef[v]` final
        // when read — so `δ[u] = σ[u]·Σ coef[v]` and edge `u→v` carries
        // `σ[u]·coef[v]`, counted `w(s)` times, bit for bit.
        let cur = next;
        let mut ws = [0.0; MAX_BLOCK];
        for (b, &s) in sources.iter().enumerate() {
            ws[b] = weight[s as usize] * unit;
        }
        let mut su = [0.0; MAX_BLOCK];
        let mut sum = [0.0; MAX_BLOCK];
        let depth = levels.len() - 1;
        for l in (0..depth).rev() {
            let (lo, hi) = (levels[l], levels[l + 1]);
            let deeper = l + 1 < depth;
            if deeper {
                for &(v, word) in &entries[hi..levels[l + 2]] {
                    cur[v as usize] = word;
                }
            }
            for &(u, vis) in &entries[lo..hi] {
                let u = u as usize;
                let uw = u * w;
                for b in bits(vis) {
                    su[b] = val[uw + b] * ws[b];
                    sum[b] = 0.0;
                }
                if deeper {
                    for a in (offsets[u]..offsets[u + 1]).rev() {
                        let v = targets[a] as usize;
                        let mask = vis & cur[v];
                        if mask == 0 {
                            continue;
                        }
                        let vw = v * w;
                        let slot = core.arc_slot[a];
                        if slot == UNREQUESTED {
                            for b in bits(mask) {
                                sum[b] += val[vw + b];
                            }
                        } else {
                            let mut c = 0;
                            for b in bits(mask) {
                                let cv = val[vw + b];
                                sum[b] += cv;
                                c += fixed(su[b] * cv);
                            }
                            edge[slot as usize] += c;
                        }
                    }
                }
                for b in bits(vis) {
                    val[uw + b] = weight[u] / val[uw + b] + sum[b];
                }
            }
        }

        for &(v, word) in entries.iter() {
            let v = v as usize;
            seen[v] = 0;
            cur[v] = 0;
            for b in bits(word) {
                val[v * w + b] = 0.0;
            }
        }
        entries.clear();
        levels.clear();
    }
}

/// Fraction bits `F` of the fixed-point sums for `n` nodes:
/// `61 − ⌈log2 n²⌉`, since one edge's sum stays below `n²`.
fn fraction_bits(n: usize) -> i32 {
    let bound = (n.max(1) as u128).pow(2);
    61 - (128 - (bound - 1).leading_zeros()) as i32
}

/// Exact edge betweenness of every edge: [`betweenness_of`] with every
/// edge requested, in edge id order.
pub fn betweenness_exact(graph: &Graph, threads: usize) -> Betweenness {
    let all: Vec<u32> = (0..graph.num_edges() as u32).collect();
    Betweenness {
        edge: betweenness_of(graph, &all, threads),
    }
}

/// Exact betweenness of the requested `edges` (distinct edge ids), one
/// score per edge in the order of `edges`, bit-identical to
/// [`betweenness_exact`]'s: bridges of the peeled forest in closed form,
/// the 2-core by weighted Brandes from every core source, swept in blocks
/// of [`block_width`] sources that accumulate only the requested edges.
pub fn betweenness_of(graph: &Graph, edges: &[u32], threads: usize) -> Vec<f64> {
    betweenness_blocks(graph, edges, threads, block_width)
}

/// [`betweenness_of`] with blocks of `width(k)` sources for a core of `k`
/// nodes.
fn betweenness_blocks(
    graph: &Graph,
    edges: &[u32],
    threads: usize,
    width: fn(usize) -> usize,
) -> Vec<f64> {
    assert!(
        !graph.is_weighted(),
        "betweenness supports unweighted graphs only"
    );
    assert!(
        u32::try_from(graph.num_arcs()).is_ok(),
        "betweenness indexes arcs as u32"
    );
    let core = Peeled::new(graph, edges);
    let unit = 2f64.powi(fraction_bits(graph.num_nodes()));
    let w = width(core.num_nodes());
    let sums = block_sums(&core, edges.len(), unit, threads, w);
    scores(&core, sums, unit)
}

/// The fixed-point sums of the `r` requested edges' core arcs, over
/// `threads` lanes that each sweep blocks of `w` sources.
fn block_sums(core: &Peeled, r: usize, unit: f64, threads: usize, w: usize) -> Vec<i64> {
    assert!(
        (1..=MAX_BLOCK).contains(&w),
        "block width {w} not in 1..=64"
    );
    let shape = (core.num_nodes(), r, w);
    let order = core.bfs_order();
    let mut blocks: Vec<&[u32]> = order.chunks(w).collect();
    let mut sums = vec![0i64; r];
    cp_exec::global().run_collect(
        &mut blocks,
        threads.max(1),
        |_, block, ctx| {
            let scratch = ctx.scratch.get_or(BlockScratch::default);
            if scratch.shape != shape {
                // Empty since the last call's merge: a lane never holds
                // two scratches.
                *scratch = BlockScratch::new(shape);
            }
            scratch.sweep(core, block, unit);
        },
        |_w, scratch| {
            // Integer sums: the merge order, like the steal schedule that
            // decided which lane swept which block, cannot change a bit.
            // A lane that swept no block holds an empty scratch.
            if let Some(s) = scratch.get_if::<BlockScratch>() {
                for (dst, src) in sums.iter_mut().zip(&s.edge) {
                    *dst += src;
                }
                // Parked in the pool, the buffers would stay resident
                // through every later phase and add to its peak.
                *s = BlockScratch::default();
            }
        },
    );
    sums
}

/// Final scores by slot from the core edge sums and the requested peeled
/// bridges.
fn scores(core: &Peeled, sums: Vec<i64>, unit: f64) -> Vec<f64> {
    // Undirected: each unordered core pair was counted from both
    // endpoints. Bridges were never swept, so their sums are zero.
    let factor = 0.5 / unit;
    let mut edge: Vec<f64> = sums.into_iter().map(|x| x as f64 * factor).collect();
    for &(slot, score) in &core.bridges {
        edge[slot as usize] = score;
    }
    edge
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::graph::NodeId;
    use proptest::prelude::*;

    /// `dist` of a node the reference sweep has not reached. The largest
    /// value, so one comparison `dist[v] >= level` admits both unreached
    /// nodes and nodes already found on `level`.
    const UNREACHED: u32 = u32::MAX;

    /// The per-source weighted Brandes sweep: the reference the block
    /// sweep must match bit for bit. The forward BFS records every
    /// shortest-path DAG arc as `(tail, arc index)`, and the dependency
    /// pass walks that record in reverse.
    struct SourceScratch {
        dist: Vec<u32>,
        sigma: Vec<f64>,
        coef: Vec<f64>,
        order: Vec<u32>,
        dag: Vec<(u32, u32)>,
        edge: Vec<i64>,
    }

    impl SourceScratch {
        fn new(n: usize, m: usize) -> Self {
            SourceScratch {
                dist: vec![UNREACHED; n],
                sigma: vec![0.0; n],
                coef: vec![0.0; n],
                order: Vec::with_capacity(n),
                dag: Vec::new(),
                edge: vec![0; m],
            }
        }

        fn sweep(&mut self, core: &Peeled, s: usize, unit: f64) {
            let offsets = &core.offsets;
            let targets = &core.targets;
            let weight = &core.weight;
            let SourceScratch {
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
                    edge[core.arc_slot[a] as usize] += fixed(su * cv);
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

    /// `g` peeled with every edge requested, so an arc's slot is its
    /// edge id.
    fn peel(g: &Graph) -> Peeled {
        let all: Vec<u32> = (0..g.num_edges() as u32).collect();
        Peeled::new(g, &all)
    }

    /// The fixed-point core edge sums of per-source sweeps from every
    /// core node, in id order on one thread, over a core peeled with
    /// every edge requested.
    fn reference_sums(core: &Peeled, m: usize, unit: f64) -> Vec<i64> {
        let mut scratch = SourceScratch::new(core.num_nodes(), m);
        for s in 0..core.num_nodes() {
            scratch.sweep(core, s, unit);
        }
        scratch.edge
    }

    /// Holds the block sweep to the per-source reference on `g`, on four
    /// masks: no edge, every edge, the peeled bridges only, and a
    /// pseudo-random subset in descending id order. Each mask's `i64`
    /// sums at widths 1, 3, 64 and the capped width, and its final `f64`
    /// bits, at 1, 2 and 8 threads, must equal the reference's restricted
    /// to the mask.
    fn assert_blocks_match_reference(g: &Graph) -> Result<(), TestCaseError> {
        let m = g.num_edges();
        let full = peel(g);
        let unit = 2f64.powi(fraction_bits(g.num_nodes()));
        let want = reference_sums(&full, m, unit);
        let want_bits: Vec<u64> = scores(&full, want.clone(), unit)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let capped = block_width(full.num_nodes());
        let all: Vec<u32> = (0..m as u32).collect();
        let bridges: Vec<u32> = full.bridges.iter().map(|&(e, _)| e).collect();
        let subset: Vec<u32> = all
            .iter()
            .rev()
            .copied()
            .filter(|&e| {
                (u64::from(e) ^ (m as u64) << 20).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 == 0
            })
            .collect();
        for mask in [Vec::new(), all, bridges, subset] {
            let core = Peeled::new(g, &mask);
            let want: Vec<i64> = mask.iter().map(|&e| want[e as usize]).collect();
            let want_bits: Vec<u64> = mask.iter().map(|&e| want_bits[e as usize]).collect();
            for width in [1, 3, 64, capped] {
                for threads in [1, 2, 8] {
                    let got = block_sums(&core, mask.len(), unit, threads, width);
                    prop_assert!(
                        got == want,
                        "sums of {} requested edges differ at width {} threads {}",
                        mask.len(),
                        width,
                        threads
                    );
                }
            }
            for (width, threads) in [(block_width as fn(usize) -> usize, 2), (|_| 3, 8)] {
                let got: Vec<u64> = betweenness_blocks(g, &mask, threads, width)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                prop_assert!(
                    got == want_bits,
                    "score bits of {} requested edges differ at {} threads",
                    mask.len(),
                    threads
                );
            }
        }
        Ok(())
    }

    /// Strategy: a graph whose 2-core has exactly 63, 64, 65 or 130 nodes
    /// (one or two components of cycles with chords), with trees hung off
    /// core nodes, pure tree components and isolated nodes around it.
    fn sized_core_graph() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32)>)> {
        (
            (0usize..4, 0u32..40),
            prop::collection::vec((0u32..1000, 0u32..1000), 0..40),
            prop::collection::vec((0u32..1000, 1u32..5), 0..12),
            (prop::collection::vec(1u32..6, 0..3), 0u32..3),
        )
            .prop_map(|((pick, split), chords, trees, (pure, isolated))| {
                let k = [63u32, 64, 65, 130][pick];
                // A split below 3 leaves one core component.
                let first = if split < 3 { k } else { split };
                let mut edges = Vec::new();
                for (base, len) in [(0, first), (first, k - first)] {
                    for i in 0..len {
                        edges.push((base + i, base + (i + 1) % len));
                    }
                    for &(a, b) in &chords {
                        if len > 0 {
                            edges.push((base + a % len, base + b % len));
                        }
                    }
                }
                let mut next = k;
                for (at, size) in trees {
                    // A path of `size` nodes hung off core node `at % k`.
                    let mut parent = at % k;
                    for _ in 0..size {
                        edges.push((parent, next));
                        parent = next;
                        next += 1;
                    }
                }
                for size in pure {
                    for i in 1..=size {
                        edges.push((next + i / 2, next + i));
                    }
                    next += size + 1;
                }
                ((next + isolated) as usize, k as usize, edges)
            })
    }

    /// Strategy: a small random graph with pendant leaves and a separate
    /// pure tree, so some cases are disconnected and some cores are empty.
    fn leafy_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
        (2u32..30)
            .prop_flat_map(|n| {
                (
                    Just(n),
                    prop::collection::vec((0..n, 0..n), 0..50),
                    prop::collection::vec(0..n, 0..10),
                    0u32..5,
                )
            })
            .prop_map(|(n, mut edges, pendants, tree)| {
                let mut next = n;
                for p in pendants {
                    edges.push((p, next));
                    next += 1;
                }
                for i in 1..tree {
                    edges.push((next + i / 2, next + i));
                }
                ((next + tree) as usize, edges)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn block_sweep_matches_per_source_on_sized_cores((n, k, edges) in sized_core_graph()) {
            let g = graph_from_edges(n, &edges);
            prop_assert_eq!(peel(&g).num_nodes(), k);
            assert_blocks_match_reference(&g)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn block_sweep_matches_per_source_on_leafy_graphs((n, edges) in leafy_graph()) {
            assert_blocks_match_reference(&graph_from_edges(n, &edges))?;
        }
    }

    #[test]
    fn block_width_caps_the_lane_slots() {
        assert_eq!(block_width(0), 64);
        assert_eq!(block_width(1), 64);
        assert_eq!(block_width(2048), 64);
        assert_eq!(block_width(2049), 63);
        // Internet links' and DBLP's cores at scale 0.25.
        assert_eq!(block_width(4210), 31);
        assert_eq!(block_width(4201), 31);
        assert_eq!(block_width(1 << 16), 2);
        assert_eq!(block_width(1 << 17), 1);
        assert_eq!(block_width(usize::MAX), 1);
    }

    #[test]
    #[should_panic(expected = "edge 1 requested twice")]
    fn a_repeated_edge_is_rejected() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        betweenness_of(&g, &[1, 0, 1], 1);
    }

    #[test]
    fn lane_scratch_is_freed_when_the_call_returns() {
        // A wheel: its 13 nodes all stay in the core.
        let mut edges: Vec<(u32, u32)> = (1..13).map(|i| (0, i)).collect();
        edges.extend((1..13).map(|i| (i, i % 12 + 1)));
        let g = graph_from_edges(13, &edges);
        betweenness_exact(&g, 2);
        let mut slots = vec![(); 8];
        cp_exec::global().run_collect(
            &mut slots,
            2,
            |_, _, _| {},
            |_, scratch| {
                if let Some(s) = scratch.get_if::<BlockScratch>() {
                    assert!(s.seen.is_empty() && s.val.is_empty() && s.edge.is_empty());
                }
            },
        );
    }

    #[test]
    fn bfs_order_restarts_per_component() {
        // The cycle 0-3-1-4-2-0 in BFS order from 0, then the triangle
        // {5, 6, 7} from its lowest node.
        let g = graph_from_edges(
            8,
            &[
                (0, 3),
                (3, 1),
                (1, 4),
                (4, 2),
                (2, 0),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        );
        let core = peel(&g);
        assert_eq!(core.bfs_order(), vec![0, 2, 3, 4, 1, 5, 6, 7]);
    }

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
        let core = peel(&g);
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
        let core = peel(&g);
        assert_eq!(core.num_nodes(), 0, "a forest peels to nothing");
        let b = betweenness_exact(&g, 2);
        assert!(b.edge.iter().all(|&x| x == 2.0));
    }
}
