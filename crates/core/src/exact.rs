//! Exact computation of the top-k converging pairs (the baseline that the
//! budgeted algorithms are measured against).
//!
//! Problem 1's exact solution needs the distance decrease of every pair,
//! but on growth-only snapshots (`G_t1 ⊆ G_t2`, weights unchanged) only a
//! few sources can contribute. Let the active set `A` be the endpoints of
//! the new edges. A pair with `Δ(s, v) > 0` has a shortest `G_t2` path
//! through a new edge; with `a` the first active node on it from `s`,
//! `d1(s, a) = d2(s, a)` and the triangle inequality give
//! `Δ(s, v) ≤ Δ(a, v)`. So `Δmax` is reached with an active endpoint, and
//! both endpoints of a pair with `Δ ≥ δ` lie in
//! `V_δ = {x : max_{a∈A} Δ(a, x) ≥ δ}`. The sweep runs in two phases:
//!
//! 1. **The active set.** Sources `A` yield `Δmax`, every pair with an
//!    active endpoint, and per-lane column maxima `max_a Δ(a, x)` for
//!    `x ∉ A`, merged once after the phase. They fix the cut: `δ` for
//!    `Threshold`, `Δmax − slack` for `ThresholdFromMax`, and for
//!    `TopK(k)` the `k`-th best Δ found so far (1 if fewer than `k`).
//! 2. **The certified nodes.** Sources `V_δ \ A`, the non-active nodes
//!    whose column maximum reaches the cut.
//!
//! An active source records targets outside `A` and targets in `A` above
//! itself; a certified source records targets outside `A` above itself,
//! so each pair is recorded once. Snapshots that are not a growth pair
//! (an edge removed or reweighted) make every node active, which is the
//! all-sources sweep.
//!
//! Unweighted sources run as waves of 64 over the [`cp_exec`] pool, each
//! wave two bit-parallel direction-optimizing MS-BFS sweeps
//! ([`msbfs_visit`]): the `G_t2` sweep stores the wave's `d2` rows
//! (packed as `u16` when [`fits_u16`] allows, `u32` otherwise), and the
//! `G_t1` sweep computes `Δ = level − d2` at each discovery, so no `d1` row
//! is ever written. Weighted sources run one Dijkstra row pair each
//! through the same Δ sink. Nothing `n × n` is ever materialized: wave
//! buffers live for one phase, and workers keep pruned local buffers and
//! share a rising lower bound on the interesting Δ, so the answer buffers
//! stay proportional to the answer.

use cp_graph::apsp::for_each_source_block;
use cp_graph::dijkstra::dijkstra_into;
use cp_graph::msbfs::{msbfs_visit, MsBfsWorkspace, WAVE_WIDTH};
use cp_graph::rowpack::{fits_u16, INF_U16};
use cp_graph::{distance_decrease, Graph, NodeId, INF};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, Ordering};

/// A converging pair: normalized endpoints (`pair.0 < pair.1`) and the
/// distance decrease between the snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvergingPair {
    /// The node pair, normalized so `pair.0 < pair.1`.
    pub pair: (NodeId, NodeId),
    /// `Δ = d_t1 − d_t2`.
    pub delta: u32,
}

impl ConvergingPair {
    /// Creates a normalized pair.
    pub fn new(u: NodeId, v: NodeId, delta: u32) -> Self {
        let pair = if u < v { (u, v) } else { (v, u) };
        ConvergingPair { pair, delta }
    }
}

/// How the answer set is cut.
///
/// The paper evaluates with a *threshold* convention: because many pairs tie
/// on Δ, it sets `k` to the number of pairs with `Δ ≥ δ` where
/// `δ ∈ {Δmax, Δmax−1, Δmax−2}`, which makes the optimal answer unique
/// ("Setting k as above makes the problem harder", §5.1). Plain top-k with
/// deterministic tie-breaking is also provided.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopKSpec {
    /// The `k` pairs with the largest Δ; ties broken by ascending node ids,
    /// so the answer is deterministic but not canonical.
    TopK(usize),
    /// All pairs with `Δ ≥ delta_min` (and `Δ ≥ 1`).
    Threshold {
        /// The minimum distance decrease to include.
        delta_min: u32,
    },
    /// All pairs with `Δ ≥ Δmax − slack`, where `Δmax` is the largest
    /// decrease observed between the snapshots. `slack = i` is the paper's
    /// `δ = Δmax − i` setting.
    ThresholdFromMax {
        /// How far below the maximum decrease to cut.
        slack: u32,
    },
}

impl TopKSpec {
    /// The Δ floor known *before* any row is scanned: a pair below this
    /// value can never appear in the answer, whatever the snapshots hold.
    ///
    /// `Threshold` fixes its floor outright (clamped to ≥ 1 — a
    /// converging pair needs a positive decrease); `TopK(0)` keeps
    /// nothing, so its floor is the ceiling `u32::MAX`; the remaining
    /// specs only learn their final cut from the data and start at 1.
    /// This is the initial value of the scan's shared rising floor, which
    /// prunes conservatively because it only ever rises — the reason
    /// scan pruning never changes results.
    pub fn initial_floor(&self) -> u32 {
        match self {
            TopKSpec::Threshold { delta_min } => (*delta_min).max(1),
            TopKSpec::TopK(0) => u32::MAX,
            TopKSpec::ThresholdFromMax { .. } | TopKSpec::TopK(_) => 1,
        }
    }
}

/// The exact answer, plus the effective threshold it was cut at.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExactTopK {
    /// Answer pairs, sorted by descending Δ then ascending ids.
    pub pairs: Vec<ConvergingPair>,
    /// The maximum Δ over all connected pairs of `G_t1`.
    pub delta_max: u32,
    /// The smallest Δ present in `pairs` (0 if empty).
    pub delta_min: u32,
    /// Sources the exact sweep ran from: the active set plus the nodes
    /// its column maxima certified (`n` on non-growth snapshots). An
    /// answer derived from another one keeps that one's count.
    pub sources_swept: usize,
}

impl ExactTopK {
    /// Number of answer pairs (`k`).
    pub fn k(&self) -> usize {
        self.pairs.len()
    }

    /// A [`TopKSpec`] that reproduces exactly this answer set on the same
    /// snapshots: a threshold at `delta_min`. Budgeted runs use this so
    /// that "the algorithm found a pair" means "a pair of the unique
    /// optimal answer".
    pub fn spec(&self) -> TopKSpec {
        TopKSpec::Threshold {
            delta_min: self.delta_min.max(1),
        }
    }

    /// The answer as a hash set of normalized pairs.
    pub fn pair_set(&self) -> std::collections::HashSet<(NodeId, NodeId)> {
        self.pairs.iter().map(|p| p.pair).collect()
    }
}

/// Sorts pairs canonically: descending Δ, then ascending `(u, v)` — the
/// order every answer list in the library uses (the budgeted pipeline,
/// the exact baseline, and `cp-query`'s per-seed top-k).
pub fn sort_pairs(pairs: &mut [ConvergingPair]) {
    pairs.sort_unstable_by(canonical_order);
}

/// The canonical pair order: descending Δ, then ascending ids. Total on
/// pairs with distinct ids, so an unstable sort or a selection under it
/// is deterministic.
pub fn canonical_order(a: &ConvergingPair, b: &ConvergingPair) -> std::cmp::Ordering {
    b.delta.cmp(&a.delta).then(a.pair.cmp(&b.pair))
}

/// Per-buffer soft capacity before a worker re-prunes locally.
const PRUNE_AT: usize = 1 << 16;

/// The state every worker folds its Δ values into: the rising floor, the
/// exact running maximum and the merged answer candidates.
struct DeltaSink {
    /// Pairs below this Δ can never reach the answer. It starts at
    /// [`TopKSpec::initial_floor`] and only rises: from the running
    /// maximum under `ThresholdFromMax`, and to the cut before phase 2.
    floor: AtomicU32,
    /// The largest Δ seen so far, over every pair.
    delta_max: AtomicU32,
    from_max_slack: Option<u32>,
    merged: Mutex<Vec<ConvergingPair>>,
}

impl DeltaSink {
    fn new(spec: &TopKSpec) -> Self {
        DeltaSink {
            floor: AtomicU32::new(spec.initial_floor()),
            delta_max: AtomicU32::new(0),
            from_max_slack: match spec {
                TopKSpec::ThresholdFromMax { slack } => Some(*slack),
                _ => None,
            },
            merged: Mutex::new(Vec::new()),
        }
    }
}

/// One lane's buffered view of the [`DeltaSink`], flushed after each block
/// of sources.
#[derive(Default)]
struct LocalPairs {
    pairs: Vec<ConvergingPair>,
    /// The largest Δ this lane has already folded into `delta_max`, so
    /// repeats skip the shared read-modify-write.
    max: u32,
}

impl LocalPairs {
    /// Offers the pair `(u, v)` with decrease `delta ≥ 1`.
    #[inline]
    fn offer(&mut self, sink: &DeltaSink, u: usize, v: usize, delta: u32) {
        if delta > self.max {
            self.max = delta;
            let old_max = sink
                .delta_max
                .fetch_max(delta, Ordering::Relaxed)
                .max(delta);
            if let Some(slack) = sink.from_max_slack {
                let new_floor = old_max.saturating_sub(slack).max(1);
                sink.floor.fetch_max(new_floor, Ordering::Relaxed);
            }
        }
        if delta < sink.floor.load(Ordering::Relaxed) {
            return;
        }
        self.pairs
            .push(ConvergingPair::new(NodeId::new(u), NodeId::new(v), delta));
        if self.pairs.len() >= PRUNE_AT {
            let floor = sink.floor.load(Ordering::Relaxed);
            self.pairs.retain(|p| p.delta >= floor);
            if self.pairs.len() >= PRUNE_AT {
                // Genuinely that many qualifying pairs; flush to the
                // shared buffer to bound worker memory.
                self.flush(sink);
            }
        }
    }

    fn flush(&mut self, sink: &DeltaSink) {
        if !self.pairs.is_empty() {
            sink.merged.lock().append(&mut self.pairs);
        }
    }
}

/// A wave's `d2` storage width: `u16` whenever the rows fit, `u32` beyond.
trait WaveDist: Copy + Default + Into<u32> + Send {
    /// The unreachable sentinel. It exceeds every level, so
    /// `level.saturating_sub(UNREACHED)` is 0, matching
    /// [`distance_decrease`] for `d2 = INF`.
    const UNREACHED: Self;
    fn from_level(level: u32) -> Self;
}

impl WaveDist for u16 {
    const UNREACHED: u16 = INF_U16;
    #[inline(always)]
    fn from_level(level: u32) -> u16 {
        level as u16
    }
}

impl WaveDist for u32 {
    const UNREACHED: u32 = INF;
    #[inline(always)]
    fn from_level(level: u32) -> u32 {
        level
    }
}

/// Marks the active set `A`: the endpoints of the edges `G_t2` adds.
///
/// One merge pass over each node's sorted adjacencies. If an edge of
/// `G_t1` is missing from `G_t2` or changes weight, the snapshots are not
/// a growth pair, the active-set lemma does not hold, and every node is
/// marked: the sweep then runs from every source.
fn active_mask(g1: &Graph, g2: &Graph) -> Vec<bool> {
    let n = g1.num_nodes();
    let (off1, to1, id1) = (g1.arc_offsets(), g1.arc_targets(), g1.arc_edge_ids());
    let (off2, to2, id2) = (g2.arc_offsets(), g2.arc_targets(), g2.arc_edge_ids());
    let mut active = vec![false; n];
    for u in 0..n {
        let (mut i, end1) = (off1[u], off1[u + 1]);
        for j in off2[u]..off2[u + 1] {
            if i < end1 && to1[i] < to2[j] {
                return vec![true; n];
            }
            if i < end1 && to1[i] == to2[j] {
                if g1.edge_weight(id1[i]) != g2.edge_weight(id2[j]) {
                    return vec![true; n];
                }
                i += 1;
            } else {
                active[u] = true;
            }
        }
        if i < end1 {
            return vec![true; n];
        }
    }
    active
}

/// One lane's pair buffer plus, for active sources, its column maxima
/// `column_max[x] = max Δ(a, x)` over the lane's sources `a` and targets
/// `x ∉ A`, merged across lanes once after the phase.
#[derive(Default)]
struct LaneSink {
    local: LocalPairs,
    column_max: Vec<u32>,
}

impl LaneSink {
    /// Folds a recorded pair's decrease `delta ≥ 1`.
    #[inline(always)]
    fn fold<const ACTIVE: bool>(
        &mut self,
        sink: &DeltaSink,
        in_a: &[bool],
        u: usize,
        v: usize,
        delta: u32,
    ) {
        if ACTIVE && !in_a[v] {
            let max = &mut self.column_max[v];
            *max = (*max).max(delta);
        }
        self.local.offer(sink, u, v, delta);
    }
}

/// One lane's buffers for a run of waves; handed back when the phase ends.
#[derive(Default)]
struct WaveLane<T> {
    ws: MsBfsWorkspace,
    /// The wave's `G_t2` distances, node-major: `d2[v · width + b]`, so
    /// the bits that discover `v` together read adjacent entries.
    d2: Vec<T>,
    out: LaneSink,
}

/// Weighted lane buffers: one Dijkstra row per snapshot.
#[derive(Default)]
struct DijkstraLane {
    d1: Vec<u32>,
    d2: Vec<u32>,
    out: LaneSink,
}

/// What every phase of one [`exact_top_k`] call shares.
struct Sweep<'a> {
    g1: &'a Graph,
    g2: &'a Graph,
    /// `in_a[x]`: whether `x` is in the active set `A`.
    in_a: &'a [bool],
    threads: usize,
    sink: DeltaSink,
}

impl Sweep<'_> {
    /// The dedup rule. An active source (phase 1) records every target
    /// outside `A` and targets inside `A` above itself; a certified
    /// source (phase 2, never in `A`) records targets outside `A` above
    /// itself. Every pair of `A ∪ V_δ` is then recorded exactly once.
    #[inline(always)]
    fn records<const ACTIVE: bool>(&self, u: usize, v: usize) -> bool {
        if ACTIVE {
            v > u || !self.in_a[v]
        } else {
            v > u && !self.in_a[v]
        }
    }

    /// Sweeps `sources` under the phase's dedup rule and returns the
    /// merged column maxima (empty unless `ACTIVE` swept something).
    fn run<const ACTIVE: bool>(&self, sources: &[NodeId]) -> Vec<u32> {
        let lanes = if self.g1.is_weighted() || self.g2.is_weighted() {
            self.dijkstra_rows::<ACTIVE>(sources)
        } else if fits_u16(self.g2) {
            self.waves::<u16, ACTIVE>(sources)
        } else {
            self.waves::<u32, ACTIVE>(sources)
        };
        lanes
            .into_iter()
            .filter(|m| !m.is_empty())
            .reduce(|mut acc, m| {
                acc.iter_mut().zip(m).for_each(|(a, b)| *a = (*a).max(b));
                acc
            })
            .unwrap_or_default()
    }

    /// Unweighted sources: one `G_t2` sweep then one fused `G_t1` sweep
    /// per wave of up to [`WAVE_WIDTH`] sources. Returns each lane's
    /// column maxima.
    fn waves<T: WaveDist, const ACTIVE: bool>(&self, sources: &[NodeId]) -> Vec<Vec<u32>> {
        let (n, in_a, sink) = (self.g1.num_nodes(), self.in_a, &self.sink);
        let lanes = for_each_source_block(
            sources.len(),
            WAVE_WIDTH,
            self.threads,
            |block, lane: &mut WaveLane<T>| {
                let wave = &sources[block];
                let width = wave.len();
                let WaveLane { ws, d2, out } = lane;
                if ACTIVE {
                    out.column_max.resize(n, 0);
                }
                d2.clear();
                d2.resize(n * width, T::UNREACHED);
                msbfs_visit(self.g2, wave, ws, |b, v, level| {
                    d2[v.index() * width + b] = T::from_level(level);
                });
                msbfs_visit(self.g1, wave, ws, |b, v, level| {
                    let (u, v) = (wave[b].index(), v.index());
                    if !self.records::<ACTIVE>(u, v) {
                        return;
                    }
                    let delta = level.saturating_sub(d2[v * width + b].into());
                    if delta != 0 {
                        out.fold::<ACTIVE>(sink, in_a, u, v, delta);
                    }
                });
                out.local.flush(sink);
            },
        );
        lanes.into_iter().map(|l| l.out.column_max).collect()
    }

    /// Weighted sources: a Dijkstra row pair per source. Returns each
    /// lane's column maxima.
    fn dijkstra_rows<const ACTIVE: bool>(&self, sources: &[NodeId]) -> Vec<Vec<u32>> {
        let (n, in_a, sink) = (self.g1.num_nodes(), self.in_a, &self.sink);
        let lanes = for_each_source_block(
            sources.len(),
            1,
            self.threads,
            |block, lane: &mut DijkstraLane| {
                let u = sources[block.start];
                dijkstra_into(self.g1, u, &mut lane.d1);
                dijkstra_into(self.g2, u, &mut lane.d2);
                let u = u.index();
                if ACTIVE {
                    lane.out.column_max.resize(n, 0);
                }
                for v in 0..n {
                    if !self.records::<ACTIVE>(u, v) {
                        continue;
                    }
                    match distance_decrease(lane.d1[v], lane.d2[v]) {
                        Some(delta) if delta != 0 => {
                            lane.out.fold::<ACTIVE>(sink, in_a, u, v, delta)
                        }
                        _ => {}
                    }
                }
                lane.out.local.flush(sink);
            },
        );
        lanes.into_iter().map(|l| l.out.column_max).collect()
    }
}

/// The Δ below which no pair can be in the answer, known once phase 1
/// has run: `Threshold`'s `δ`, `ThresholdFromMax`'s `Δmax − slack`, and
/// for `TopK(k)` the `k`-th best Δ among phase 1's pairs, a lower bound
/// on the true `k`-th (1 if phase 1 found fewer than `k` pairs).
/// Reorders `phase1` when it selects.
fn cut(spec: &TopKSpec, delta_max: u32, phase1: &mut [ConvergingPair]) -> u32 {
    match *spec {
        TopKSpec::Threshold { delta_min } => delta_min.max(1),
        TopKSpec::ThresholdFromMax { slack } => delta_max.saturating_sub(slack).max(1),
        TopKSpec::TopK(0) => u32::MAX,
        TopKSpec::TopK(k) if phase1.len() >= k => {
            phase1.select_nth_unstable_by(k - 1, canonical_order);
            phase1[k - 1].delta
        }
        TopKSpec::TopK(_) => 1,
    }
}

/// Computes the exact top-k converging pairs between two snapshots.
///
/// `threads` bounds the worker count. Only sources in `A ∪ V_δ` are
/// swept (see the module docs): first the active set `A`, then the
/// non-active nodes its column maxima certify. Unweighted snapshots run
/// as fused 64-source MS-BFS waves; weighted ones run per-source
/// Dijkstra. The answer is the same at any thread count.
///
/// # Panics
/// Panics if the snapshots do not share a node universe.
pub fn exact_top_k(g1: &Graph, g2: &Graph, spec: &TopKSpec, threads: usize) -> ExactTopK {
    assert_eq!(
        g1.num_nodes(),
        g2.num_nodes(),
        "snapshots must share a node universe"
    );
    exact_from_mask(g1, g2, spec, threads, &active_mask(g1, g2))
}

/// The nodes whose flag is set, in ascending order.
fn nodes_where(flags: impl Iterator<Item = bool>) -> Vec<NodeId> {
    flags
        .enumerate()
        .filter(|&(_, on)| on)
        .map(|(x, _)| NodeId::new(x))
        .collect()
}

/// [`exact_top_k`] over a given active set; a mask of every node is the
/// all-sources sweep.
fn exact_from_mask(
    g1: &Graph,
    g2: &Graph,
    spec: &TopKSpec,
    threads: usize,
    in_a: &[bool],
) -> ExactTopK {
    let sweep = Sweep {
        g1,
        g2,
        in_a,
        threads,
        sink: DeltaSink::new(spec),
    };

    // Phase 1: the active set yields Δmax, every pair with an active
    // endpoint and the column maxima.
    let active = nodes_where(in_a.iter().copied());
    let column_max = sweep.run::<true>(&active);
    let delta_max = sweep.sink.delta_max.load(Ordering::Relaxed);
    let cut = {
        let mut phase1 = sweep.sink.merged.lock();
        let cut = cut(spec, delta_max, &mut phase1);
        phase1.retain(|p| p.delta >= cut);
        cut
    };

    // Phase 2: the non-active nodes whose column maximum reaches the cut.
    let certified = nodes_where(column_max.iter().map(|&m| m >= cut));
    sweep.sink.floor.fetch_max(cut, Ordering::Relaxed);
    sweep.run::<false>(&certified);
    debug_assert_eq!(
        sweep.sink.delta_max.load(Ordering::Relaxed),
        delta_max,
        "a certified source beat Δmax over the active set"
    );

    let mut pairs = sweep.sink.merged.into_inner();
    pairs.retain(|p| p.delta >= cut);
    sort_pairs(&mut pairs);
    if let TopKSpec::TopK(k) = spec {
        pairs.truncate(*k);
    }
    let delta_min = pairs.last().map(|p| p.delta).unwrap_or(0);
    ExactTopK {
        pairs,
        delta_max,
        delta_min,
        sources_swept: active.len() + certified.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_graph::builder::graph_from_edges;

    /// Path 0-1-2-3-4-5 in g1; g2 adds the chord (0,5) and the edge (1,4).
    fn shortcut_pair() -> (Graph, Graph) {
        let base = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        let g1 = graph_from_edges(6, &base);
        let mut all = base.to_vec();
        all.push((0, 5));
        all.push((1, 4));
        let g2 = graph_from_edges(6, &all);
        (g1, g2)
    }

    #[test]
    fn finds_the_maximal_pair() {
        let (g1, g2) = shortcut_pair();
        let res = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 0 }, 2);
        // d1(0,5)=5, d2(0,5)=1 -> delta 4, the unique max.
        assert_eq!(res.delta_max, 4);
        assert_eq!(
            res.pairs,
            vec![ConvergingPair::new(NodeId(0), NodeId(5), 4)]
        );
        assert_eq!(res.delta_min, 4);
        assert_eq!(res.k(), 1);
    }

    #[test]
    fn threshold_from_max_with_slack() {
        let (g1, g2) = shortcut_pair();
        let res = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 1 }, 2);
        // delta >= 3: (0,5)=4, (0,4): d1=4,d2=2 -> 2; (1,5): d1=4, d2=2 -> 2;
        // (1,4): d1=3, d2=1 -> 2. So only delta 4 and... check delta 3 pairs:
        // (2,5): d1=3, d2=min(2+? ) g2 dists from 5: 5-0=1,5-4=1; d2(2,5)=
        // min over: 2-1-0-5 = 3, 2-3-4-5=3, 2-1-4-5? 1-4 edge: 2-1-4-5 = 3 -> 3? No decrease? d1(2,5)=3 -> delta 0.
        // Only (0,5) has delta >= 3.
        assert_eq!(res.pairs.len(), 1);
        let res2 = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 2 }, 2);
        // Now delta >= 2 pairs join.
        assert!(res2.pairs.len() > 1);
        assert!(res2.pairs.iter().all(|p| p.delta >= 2));
        assert_eq!(res2.pairs[0].delta, 4);
        assert_eq!(res2.delta_min, 2);
    }

    #[test]
    fn explicit_threshold() {
        let (g1, g2) = shortcut_pair();
        let res = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: 2 }, 1);
        assert!(res.pairs.iter().all(|p| p.delta >= 2));
        let res_all = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: 1 }, 1);
        assert!(res_all.pairs.len() >= res.pairs.len());
    }

    #[test]
    fn plain_top_k_truncates_deterministically() {
        let (g1, g2) = shortcut_pair();
        let res = exact_top_k(&g1, &g2, &TopKSpec::TopK(3), 2);
        assert_eq!(res.pairs.len(), 3);
        // Sorted descending by delta.
        assert!(res.pairs.windows(2).all(|w| w[0].delta >= w[1].delta));
        // Deterministic across runs.
        let res2 = exact_top_k(&g1, &g2, &TopKSpec::TopK(3), 4);
        assert_eq!(res.pairs, res2.pairs);
    }

    #[test]
    fn disconnected_pairs_excluded() {
        // g1: two components; g2 connects them. The newly connected pairs
        // must NOT appear (they were not connected in g1).
        let g1 = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let g2 = graph_from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        let res = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: 1 }, 2);
        assert!(res.pairs.is_empty());
        assert_eq!(res.delta_max, 0);
    }

    #[test]
    fn identical_snapshots_have_no_pairs() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let res = exact_top_k(&g, &g, &TopKSpec::ThresholdFromMax { slack: 2 }, 2);
        assert!(res.pairs.is_empty());
        assert_eq!(res.delta_max, 0);
        assert_eq!(res.delta_min, 0);
    }

    #[test]
    fn spec_roundtrip_reproduces_answer() {
        let (g1, g2) = shortcut_pair();
        let res = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 2 }, 2);
        let again = exact_top_k(&g1, &g2, &res.spec(), 2);
        assert_eq!(res.pairs, again.pairs);
    }

    /// Runs phase 1 from every source at the given `d2` width, returning
    /// the sorted pairs (`Δ ≥ 1`) and `Δmax`.
    fn sweep_at(g1: &Graph, g2: &Graph, wide: bool) -> (Vec<ConvergingPair>, u32) {
        let every = vec![true; g1.num_nodes()];
        let sweep = Sweep {
            g1,
            g2,
            in_a: &every,
            threads: 2,
            sink: DeltaSink::new(&TopKSpec::Threshold { delta_min: 1 }),
        };
        let sources: Vec<NodeId> = g1.nodes().collect();
        if wide {
            sweep.waves::<u32, true>(&sources);
        } else {
            sweep.waves::<u16, true>(&sources);
        }
        let mut pairs = sweep.sink.merged.into_inner();
        sort_pairs(&mut pairs);
        (pairs, sweep.sink.delta_max.into_inner())
    }

    #[test]
    fn wide_wave_rows_match_packed_rows() {
        // The `u32` wave path (universes beyond `u16`) on a graph the
        // `u16` path also covers: same pairs, same maximum.
        let (g1, g2) = shortcut_pair();
        let packed = sweep_at(&g1, &g2, false);
        assert_eq!(packed.1, 4);
        assert_eq!(sweep_at(&g1, &g2, true), packed);
    }

    #[test]
    fn active_mask_marks_new_edge_endpoints() {
        let (g1, g2) = shortcut_pair();
        let mask = active_mask(&g1, &g2);
        assert_eq!(mask, vec![true, true, false, false, true, true]);
        assert_eq!(active_mask(&g1, &g1), vec![false; 6]);
        // A removed edge breaks growth: every node becomes a source.
        assert_eq!(active_mask(&g2, &g1), vec![true; 6]);
        let mut b = cp_graph::GraphBuilder::new(3);
        b.add_weighted_edge(NodeId(0), NodeId(1), 2);
        let heavy = b.build();
        let mut b = cp_graph::GraphBuilder::new(3);
        b.add_weighted_edge(NodeId(0), NodeId(1), 1);
        b.add_weighted_edge(NodeId(1), NodeId(2), 1);
        let light = b.build();
        // A weight change breaks growth too.
        assert_eq!(active_mask(&heavy, &light), vec![true; 3]);
    }

    #[test]
    fn active_set_sweep_equals_the_all_sources_sweep() {
        // Two paths joined by chords: the lemma's cut must keep every
        // answer pair whatever the spec.
        let base: Vec<(u32, u32)> = (0..39).filter(|&i| i != 19).map(|i| (i, i + 1)).collect();
        let g1 = graph_from_edges(40, &base);
        let mut all = base.clone();
        all.extend([(0, 30), (5, 38), (19, 20), (10, 25)]);
        let g2 = graph_from_edges(40, &all);
        let every = vec![true; 40];
        for spec in [
            TopKSpec::TopK(7),
            TopKSpec::TopK(500),
            TopKSpec::Threshold { delta_min: 2 },
            TopKSpec::ThresholdFromMax { slack: 0 },
            TopKSpec::ThresholdFromMax { slack: 3 },
        ] {
            let got = exact_top_k(&g1, &g2, &spec, 2);
            let want = exact_from_mask(&g1, &g2, &spec, 2, &every);
            assert_eq!(got.pairs, want.pairs, "{spec:?}");
            assert_eq!(got.delta_max, want.delta_max, "{spec:?}");
            assert_eq!(want.sources_swept, 40);
            assert!(got.sources_swept < 40, "{spec:?}: swept every source");
        }
    }

    #[test]
    #[should_panic(expected = "share a node universe")]
    fn mismatched_universe_panics() {
        let g1 = graph_from_edges(3, &[(0, 1)]);
        let g2 = graph_from_edges(4, &[(0, 1)]);
        exact_top_k(&g1, &g2, &TopKSpec::TopK(1), 1);
    }

    #[test]
    fn pair_normalization() {
        let p = ConvergingPair::new(NodeId(5), NodeId(2), 3);
        assert_eq!(p.pair, (NodeId(2), NodeId(5)));
    }

    #[test]
    fn pair_set_contains_all() {
        let (g1, g2) = shortcut_pair();
        let res = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 2 }, 2);
        let set = res.pair_set();
        assert_eq!(set.len(), res.pairs.len());
        for p in &res.pairs {
            assert!(set.contains(&p.pair));
        }
    }
}
