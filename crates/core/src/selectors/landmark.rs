//! Landmark-based selection: SumDiff / MaxDiff and the dispersion hybrids.
//!
//! A set `L` of `l` landmarks gets its distance rows computed in both
//! snapshots (2l SSSPs). Every node `u` then has a change vector
//! `Λ(u)[i] = d_t1(u, w_i) − d_t2(u, w_i)`; candidates are the nodes with
//! the largest `‖Λ(u)‖₁` (SumDiff) or `‖Λ(u)‖∞` (MaxDiff). Landmarks may
//! be sampled uniformly from the active nodes of `G_t1` or placed by the
//! dispersion greedies (the hybrids MMSD/MMMD/MASD/MAMD) — dispersion
//! placement makes the landmark rows double as high-quality candidate
//! rows, the paper's "best of both worlds".

use super::dispersion::{dispersion_pick, DispersionMode};
use super::CandidateSelector;
use crate::oracle::SnapshotOracle;
use cp_graph::degrees::top_m_by_score_u32;
use cp_graph::rowpack::{RowDist, RowRef};
use cp_graph::{distance_decrease, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How landmarks are placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LandmarkPolicy {
    /// Uniform over the active nodes of `G_t1`.
    Random,
    /// Greedy max-min dispersion in `G_t1` (covers the graph).
    MaxMin,
    /// Greedy max-average dispersion in `G_t1` (periphery).
    MaxAvg,
}

/// Which norm of the change vector ranks the nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Norm {
    /// L1: SumDiff.
    L1,
    /// L∞: MaxDiff.
    LInf,
}

/// Per-node landmark distance-change scores.
#[derive(Clone, Debug)]
pub struct LandmarkScores {
    /// `‖Λ(u)‖₁` per node.
    pub sum: Vec<u32>,
    /// `‖Λ(u)‖∞` per node.
    pub max: Vec<u32>,
    /// The landmarks the scores are relative to.
    pub landmarks: Vec<NodeId>,
}

/// Computes both norms of the landmark change vectors for every node,
/// charging `2 · |landmarks|` SSSPs (minus whatever is already cached).
/// Landmarks whose rows cannot be paid for are skipped.
///
/// Rows for the whole landmark set go through one batched prefetch:
/// admission is sequential (identical ledger and skip decisions to paying
/// one landmark at a time), the SSSPs fan out over the oracle's worker
/// threads, and the accumulation below walks the served landmarks in
/// request order, so the scores are bit-identical at any thread count.
pub fn landmark_change_scores(
    oracle: &mut SnapshotOracle<'_>,
    landmarks: &[NodeId],
) -> LandmarkScores {
    let n = oracle.num_nodes();
    let mut sum = vec![0u32; n];
    let mut max = vec![0u32; n];
    let used = oracle.prefetch_node_rows(landmarks).usable;
    for &w in &used {
        // Served landmarks are paid, so both rows are resident, and the
        // store keeps both snapshots at one width.
        match oracle
            .cached_rows(w)
            .expect("a served landmark is resident")
        {
            (RowRef::U16(d1), RowRef::U16(d2)) => accumulate(d1, d2, &mut sum, &mut max),
            (RowRef::U32(d1), RowRef::U32(d2)) => accumulate(d1, d2, &mut sum, &mut max),
            _ => unreachable!("the row store keeps both snapshots at one width"),
        }
    }
    LandmarkScores {
        sum,
        max,
        landmarks: used,
    }
}

/// Folds one landmark's row pair into both norms of every node's change
/// vector, reading the rows at their storage width.
fn accumulate<T: RowDist>(d1: &[T], d2: &[T], sum: &mut [u32], max: &mut [u32]) {
    for (i, (&a, &b)) in d1.iter().zip(d2).enumerate() {
        let delta = distance_decrease(a.widen(), b.widen()).unwrap_or(0);
        sum[i] = sum[i].saturating_add(delta);
        max[i] = max[i].max(delta);
    }
}

/// Samples `count` distinct active nodes of `G_t1` uniformly (active =
/// degree > 0, the nodes that exist at `t1`). Falls back to the whole
/// universe if nothing is active.
pub(crate) fn sample_active_nodes(
    oracle: &SnapshotOracle<'_>,
    count: usize,
    rng: &mut StdRng,
) -> Vec<NodeId> {
    let g1 = oracle.g1();
    let mut pool: Vec<NodeId> = g1.nodes().filter(|&u| g1.degree(u) > 0).collect();
    if pool.is_empty() {
        pool = g1.nodes().collect();
    }
    let count = count.min(pool.len());
    // Partial Fisher-Yates: shuffle only the first `count` slots.
    for i in 0..count {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// The landmark-based selector family (SumDiff, MaxDiff and the four
/// hybrids, depending on policy × norm).
pub struct LandmarkSelector {
    policy: LandmarkPolicy,
    norm: Norm,
    landmarks: usize,
    rng: StdRng,
}

impl LandmarkSelector {
    /// Creates a selector with `landmarks` landmarks (clamped at rank time
    /// so probes never eat more than half the remaining budget).
    pub fn new(policy: LandmarkPolicy, norm: Norm, landmarks: usize, seed: u64) -> Self {
        LandmarkSelector {
            policy,
            norm,
            landmarks,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl CandidateSelector for LandmarkSelector {
    fn name(&self) -> String {
        match (self.policy, self.norm) {
            (LandmarkPolicy::Random, Norm::L1) => "SumDiff",
            (LandmarkPolicy::Random, Norm::LInf) => "MaxDiff",
            (LandmarkPolicy::MaxMin, Norm::L1) => "MMSD",
            (LandmarkPolicy::MaxMin, Norm::LInf) => "MMMD",
            (LandmarkPolicy::MaxAvg, Norm::L1) => "MASD",
            (LandmarkPolicy::MaxAvg, Norm::LInf) => "MAMD",
        }
        .to_string()
    }

    fn rank(&mut self, oracle: &mut SnapshotOracle<'_>) -> Vec<NodeId> {
        // 2 SSSPs per landmark; keep probes within half the budget so at
        // least as many candidates as landmarks remain affordable.
        let affordable = (oracle.remaining() / 4) as usize;
        let l = self
            .landmarks
            .min(affordable)
            .max(usize::from(oracle.remaining() >= 2));
        if l == 0 {
            return Vec::new();
        }
        let landmarks = match self.policy {
            LandmarkPolicy::Random => sample_active_nodes(oracle, l, &mut self.rng),
            LandmarkPolicy::MaxMin => dispersion_pick(oracle, l, DispersionMode::MaxMin),
            LandmarkPolicy::MaxAvg => dispersion_pick(oracle, l, DispersionMode::MaxAvg),
        };
        let scores = landmark_change_scores(oracle, &landmarks);

        match self.norm {
            Norm::L1 => top_m_by_score_u32(&scores.sum, oracle.num_nodes()),
            Norm::LInf => top_m_by_score_u32(&scores.max, oracle.num_nodes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_graph::builder::graph_from_edges;
    use cp_graph::Graph;

    /// Path 0..=7; g2 adds chord (0,7): node 0 and 7 come closer to many.
    fn graphs() -> (Graph, Graph) {
        let base: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
        let g1 = graph_from_edges(8, &base);
        let mut all = base;
        all.push((0, 7));
        let g2 = graph_from_edges(8, &all);
        (g1, g2)
    }

    #[test]
    fn change_scores_reflect_shortcut() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::unbounded(&g1, &g2);
        // Landmark at node 0: node 7 went from d=7 to d=1 -> delta 6.
        let scores = landmark_change_scores(&mut o, &[NodeId(0)]);
        assert_eq!(scores.sum[7], 6);
        assert_eq!(scores.max[7], 6);
        assert_eq!(scores.sum[1], 0);
        assert_eq!(scores.landmarks, vec![NodeId(0)]);
        assert_eq!(o.ledger().total(), 2);
    }

    #[test]
    fn sum_and_max_norms_differ() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::unbounded(&g1, &g2);
        let scores = landmark_change_scores(&mut o, &[NodeId(0), NodeId(1)]);
        // From landmark 0, node 7 gains 6; from landmark 1 (d1=6, d2 via
        // chord = 2) gains 4. Sum 10, max 6.
        assert_eq!(scores.sum[7], 10);
        assert_eq!(scores.max[7], 6);
    }

    #[test]
    fn hybrid_selector_ranks_shortcut_endpoints_high() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::with_budget(&g1, &g2, 16);
        let mut sel = LandmarkSelector::new(LandmarkPolicy::MaxMin, Norm::L1, 3, 7);
        let ranked = sel.rank(&mut o);
        // The two chord endpoints converge toward everything; at least one
        // must rank in the top three.
        let top3 = &ranked[..3];
        assert!(
            top3.contains(&NodeId(0)) || top3.contains(&NodeId(7)),
            "top3 {top3:?}"
        );
    }

    #[test]
    fn budget_clamps_landmarks() {
        let (g1, g2) = graphs();
        // Budget 6: l clamps to 6/4 = 1.
        let mut o = SnapshotOracle::with_budget(&g1, &g2, 6);
        let mut sel = LandmarkSelector::new(LandmarkPolicy::Random, Norm::L1, 10, 1);
        let _ = sel.rank(&mut o);
        assert!(o.ledger().generation <= 2, "spent {:?}", o.ledger());
    }

    #[test]
    fn tiny_budget_returns_empty() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::with_budget(&g1, &g2, 1);
        let mut sel = LandmarkSelector::new(LandmarkPolicy::Random, Norm::LInf, 10, 1);
        assert!(sel.rank(&mut o).is_empty());
    }

    #[test]
    fn sampling_is_distinct_and_active() {
        let (g1, g2) = graphs();
        let o = SnapshotOracle::unbounded(&g1, &g2);
        let mut rng = StdRng::seed_from_u64(3);
        let sample = sample_active_nodes(&o, 5, &mut rng);
        assert_eq!(sample.len(), 5);
        let set: std::collections::HashSet<_> = sample.iter().collect();
        assert_eq!(set.len(), 5);
        for u in sample {
            assert!(g1.degree(u) > 0);
        }
    }

    #[test]
    fn names_cover_all_variants() {
        let combos = [
            (LandmarkPolicy::Random, Norm::L1, "SumDiff"),
            (LandmarkPolicy::Random, Norm::LInf, "MaxDiff"),
            (LandmarkPolicy::MaxMin, Norm::L1, "MMSD"),
            (LandmarkPolicy::MaxMin, Norm::LInf, "MMMD"),
            (LandmarkPolicy::MaxAvg, Norm::L1, "MASD"),
            (LandmarkPolicy::MaxAvg, Norm::LInf, "MAMD"),
        ];
        for (policy, norm, name) in combos {
            assert_eq!(LandmarkSelector::new(policy, norm, 10, 0).name(), name);
        }
    }
}
