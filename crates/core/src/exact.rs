//! Exact computation of the top-k converging pairs (the baseline that the
//! budgeted algorithms are measured against).
//!
//! The exact solution needs the distance of every pair in both snapshots
//! (Problem 1's `2n` single-source shortest paths) and keeps the pairs with
//! the largest decrease. On unweighted snapshots the sources run as waves
//! of 64 over the [`cp_exec`] pool, each wave two bit-parallel MS-BFS
//! sweeps ([`msbfs_visit`]): the `G_t2` sweep stores the wave's `d2` rows
//! (packed as `u16` when [`fits_u16`] allows, `u32` otherwise), and the
//! `G_t1` sweep computes `Δ = level − d2` at each discovery, so no `d1` row
//! is ever written. Weighted snapshots run one Dijkstra row pair per
//! source through the same Δ sink. Nothing `n × n` is ever materialized:
//! wave buffers live for one call, and workers keep pruned local buffers
//! and share a rising lower bound on the interesting Δ, so the answer
//! buffers stay proportional to the answer.

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
    /// [`TopKSpec::initial_floor`] and only rises, from the running
    /// maximum under `ThresholdFromMax`.
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

/// One lane's buffers for a run of waves; dropped when the call returns.
#[derive(Default)]
struct WaveLane<T> {
    ws: MsBfsWorkspace,
    /// The wave's `G_t2` distances, node-major: `d2[v · width + b]`, so
    /// the bits that discover `v` together read adjacent entries.
    d2: Vec<T>,
    local: LocalPairs,
}

/// Runs the unweighted exact truth: one `G_t2` sweep then one fused
/// `G_t1` sweep per wave of up to [`WAVE_WIDTH`] sources.
fn unweighted_waves<T: WaveDist>(g1: &Graph, g2: &Graph, threads: usize, sink: &DeltaSink) {
    let n = g1.num_nodes();
    for_each_source_block(n, WAVE_WIDTH, threads, |block, lane: &mut WaveLane<T>| {
        let lo = block.start;
        let width = block.len();
        let sources: Vec<NodeId> = block.map(NodeId::new).collect();
        let WaveLane { ws, d2, local } = lane;
        d2.clear();
        d2.resize(n * width, T::UNREACHED);
        msbfs_visit(g2, &sources, ws, |b, v, level| {
            d2[v.index() * width + b] = T::from_level(level);
        });
        msbfs_visit(g1, &sources, ws, |b, v, level| {
            let (u, v) = (lo + b, v.index());
            // Only the upper triangle: each pair from its lower endpoint.
            if v <= u {
                return;
            }
            let delta = level.saturating_sub(d2[v * width + b].into());
            if delta != 0 {
                local.offer(sink, u, v, delta);
            }
        });
        local.flush(sink);
    });
}

/// Weighted lane buffers: one Dijkstra row per snapshot.
#[derive(Default)]
struct DijkstraLane {
    d1: Vec<u32>,
    d2: Vec<u32>,
    local: LocalPairs,
}

/// Runs the weighted exact truth: a Dijkstra row pair per source, scanned
/// over its upper triangle.
fn weighted_sources(g1: &Graph, g2: &Graph, threads: usize, sink: &DeltaSink) {
    for_each_source_block(
        g1.num_nodes(),
        1,
        threads,
        |block, lane: &mut DijkstraLane| {
            let u = block.start;
            dijkstra_into(g1, NodeId::new(u), &mut lane.d1);
            dijkstra_into(g2, NodeId::new(u), &mut lane.d2);
            for v in u + 1..lane.d1.len() {
                match distance_decrease(lane.d1[v], lane.d2[v]) {
                    Some(delta) if delta != 0 => lane.local.offer(sink, u, v, delta),
                    _ => {}
                }
            }
            lane.local.flush(sink);
        },
    );
}

/// Computes the exact top-k converging pairs between two snapshots.
///
/// `threads` bounds the worker count. Unweighted snapshots run as fused
/// 64-source MS-BFS waves (see the module docs); weighted ones run
/// per-source Dijkstra. The answer is the same at any thread count.
///
/// # Panics
/// Panics if the snapshots do not share a node universe.
pub fn exact_top_k(g1: &Graph, g2: &Graph, spec: &TopKSpec, threads: usize) -> ExactTopK {
    assert_eq!(
        g1.num_nodes(),
        g2.num_nodes(),
        "snapshots must share a node universe"
    );
    let sink = DeltaSink::new(spec);
    if g1.is_weighted() || g2.is_weighted() {
        weighted_sources(g1, g2, threads, &sink);
    } else if fits_u16(g2) {
        unweighted_waves::<u16>(g1, g2, threads, &sink);
    } else {
        unweighted_waves::<u32>(g1, g2, threads, &sink);
    }

    let dmax = sink.delta_max.load(Ordering::Relaxed);
    let mut pairs = sink.merged.into_inner();
    let floor = match spec {
        TopKSpec::Threshold { delta_min } => (*delta_min).max(1),
        TopKSpec::ThresholdFromMax { slack } => dmax.saturating_sub(*slack).max(1),
        TopKSpec::TopK(_) => 1,
    };
    pairs.retain(|p| p.delta >= floor);
    sort_pairs(&mut pairs);
    if let TopKSpec::TopK(k) = spec {
        pairs.truncate(*k);
    }
    let delta_min = pairs.last().map(|p| p.delta).unwrap_or(0);
    ExactTopK {
        pairs,
        delta_max: dmax,
        delta_min,
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

    #[test]
    fn wide_wave_rows_match_packed_rows() {
        // The `u32` wave path (universes beyond `u16`) on a graph the
        // `u16` path also covers: same pairs, same maximum.
        let (g1, g2) = shortcut_pair();
        let run = |wide: bool| {
            let sink = DeltaSink::new(&TopKSpec::Threshold { delta_min: 1 });
            if wide {
                unweighted_waves::<u32>(&g1, &g2, 2, &sink);
            } else {
                unweighted_waves::<u16>(&g1, &g2, 2, &sink);
            }
            let mut pairs = sink.merged.into_inner();
            sort_pairs(&mut pairs);
            (pairs, sink.delta_max.into_inner())
        };
        let packed = run(false);
        assert_eq!(packed.1, 4);
        assert_eq!(run(true), packed);
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
