//! Reusable landmark bound machinery: certified Δ bounds for arbitrary
//! pairs.
//!
//! The budgeted pipeline *verifies* a pair's Δ by owning one endpoint's
//! full distance rows. But the `2l` landmark rows the landmark selectors
//! already paid for support a cheaper, weaker statement: by the triangle
//! inequality,
//!
//! ```text
//! Δ(u, v) = d1(u, v) − d2(u, v)
//!         ≥ LB1(u, v) − UB2(u, v)
//!         = max_w |d1(u,w) − d1(v,w)|  −  min_w (d2(u,w) + d2(w,v))
//! ```
//!
//! so any pair whose bound gap reaches `δ` is a **certified** converging
//! pair — no SSSP from either endpoint required, `O(l)` time per queried
//! pair. This turns the landmark rows into a verification oracle: screen
//! hypothesized pairs (from any source — an analyst, another heuristic, a
//! recommender) at almost zero cost, falling back to the budgeted pipeline
//! only for the uncertain ones.
//!
//! The streaming query index (`cp_stream::QueryIndex`) applies the same
//! inequalities to its own node-major landmark table at query time.

use crate::exact::ConvergingPair;
use crate::oracle::{Snapshot, SnapshotOracle};
use cp_graph::landmark_index::LandmarkIndex;
use cp_graph::{NodeId, INF};

/// Landmark bounds over a snapshot pair.
pub struct DeltaBounds {
    index1: LandmarkIndex,
    index2: LandmarkIndex,
}

impl DeltaBounds {
    /// Builds bounds from explicit landmark indexes (one per snapshot;
    /// they may use different landmark sets, though sharing one set is
    /// the economical choice).
    pub fn new(index1: LandmarkIndex, index2: LandmarkIndex) -> Self {
        DeltaBounds { index1, index2 }
    }

    /// Builds bounds through the budget oracle, charging (at most) `2·|L|`
    /// SSSPs to the current phase — rows the oracle already holds are
    /// free, so calling this after a landmark selector ran costs nothing.
    pub fn from_oracle(
        oracle: &mut SnapshotOracle<'_>,
        landmarks: &[NodeId],
    ) -> Result<Self, crate::oracle::BudgetError> {
        let mut rows1 = Vec::with_capacity(landmarks.len());
        let mut rows2 = Vec::with_capacity(landmarks.len());
        let mut used = Vec::with_capacity(landmarks.len());
        for &w in landmarks {
            let r1 = oracle.row(Snapshot::First, w)?.to_vec();
            let r2 = oracle.row(Snapshot::Second, w)?.to_vec();
            rows1.push(r1);
            rows2.push(r2);
            used.push(w);
        }
        Ok(DeltaBounds {
            index1: LandmarkIndex::from_rows(used.clone(), rows1),
            index2: LandmarkIndex::from_rows(used, rows2),
        })
    }

    /// The first snapshot's landmark index.
    pub fn index1(&self) -> &LandmarkIndex {
        &self.index1
    }

    /// The second snapshot's landmark index.
    pub fn index2(&self) -> &LandmarkIndex {
        &self.index2
    }

    /// A certified lower bound on `Δ(u, v)` (0 when nothing can be said).
    ///
    /// Returns `None` when the pair is provably not connected in `G_t1`
    /// (such pairs are outside the problem definition) or when no landmark
    /// reaches both endpoints in `G_t2`.
    pub fn delta_lower_bound(&self, u: NodeId, v: NodeId) -> Option<u32> {
        let lb1 = self.index1.lower_bound(u, v);
        if lb1 == INF {
            return None; // disconnected in G_t1
        }
        let ub2 = self.index2.upper_bound(u, v);
        if ub2 == INF {
            return None; // no landmark spans the pair in G_t2
        }
        Some(lb1.saturating_sub(ub2))
    }

    /// An upper bound on `Δ(u, v)`: `UB1 − LB2` (clamped at 0). Useful to
    /// *rule out* pairs cheaply. `None` when `G_t1` gives no finite upper
    /// bound through the landmarks.
    pub fn delta_upper_bound(&self, u: NodeId, v: NodeId) -> Option<u32> {
        let ub1 = self.index1.upper_bound(u, v);
        if ub1 == INF {
            return None;
        }
        let lb2 = self.index2.lower_bound(u, v);
        if lb2 == INF {
            return Some(0);
        }
        Some(ub1.saturating_sub(lb2))
    }

    /// Screens hypothesized pairs: returns those **certified** to have
    /// `Δ ≥ delta_min`, with their certified lower bounds (not the exact
    /// Δ, which may be higher).
    pub fn certify(&self, pairs: &[(NodeId, NodeId)], delta_min: u32) -> Vec<ConvergingPair> {
        let mut out = Vec::new();
        for &(u, v) in pairs {
            if u == v {
                continue;
            }
            if let Some(lb) = self.delta_lower_bound(u, v) {
                if lb >= delta_min.max(1) {
                    out.push(ConvergingPair::new(u, v, lb));
                }
            }
        }
        crate::exact::sort_pairs(&mut out);
        out
    }

    /// Splits hypothesized pairs into certified / ruled-out / undecided
    /// using both bounds — the undecided remainder is what a caller should
    /// spend real SSSPs on.
    pub fn triage(&self, pairs: &[(NodeId, NodeId)], delta_min: u32) -> Triage {
        let mut certified = Vec::new();
        let mut ruled_out = Vec::new();
        let mut undecided = Vec::new();
        let floor = delta_min.max(1);
        for &(u, v) in pairs {
            if u == v {
                ruled_out.push((u, v));
                continue;
            }
            let lb = self.delta_lower_bound(u, v);
            let ub = self.delta_upper_bound(u, v);
            match (lb, ub) {
                (Some(lb), _) if lb >= floor => certified.push((u, v)),
                (None, _) => ruled_out.push((u, v)), // outside the problem
                (_, Some(ub)) if ub < floor => ruled_out.push((u, v)),
                _ => undecided.push((u, v)),
            }
        }
        Triage {
            certified,
            ruled_out,
            undecided,
        }
    }
}

/// Result of [`DeltaBounds::triage`]: a partition of the queried pairs.
#[derive(Clone, Debug, Default)]
pub struct Triage {
    /// Pairs certified to have `Δ ≥ delta_min`.
    pub certified: Vec<(NodeId, NodeId)>,
    /// Pairs proven to have `Δ < delta_min` (or outside the problem).
    pub ruled_out: Vec<(NodeId, NodeId)>,
    /// Pairs the bounds cannot decide; verify these with real SSSPs.
    pub undecided: Vec<(NodeId, NodeId)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_top_k, TopKSpec};
    use cp_graph::builder::graph_from_edges;
    use cp_graph::Graph;

    /// Path 0..=9; g2 adds chord (0,9).
    fn graphs() -> (Graph, Graph) {
        let base: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let g1 = graph_from_edges(10, &base);
        let mut all = base;
        all.push((0, 9));
        let g2 = graph_from_edges(10, &all);
        (g1, g2)
    }

    fn bounds(g1: &Graph, g2: &Graph, landmarks: &[u32]) -> DeltaBounds {
        let l: Vec<NodeId> = landmarks.iter().map(|&i| NodeId(i)).collect();
        DeltaBounds::new(LandmarkIndex::build(g1, &l), LandmarkIndex::build(g2, &l))
    }

    #[test]
    fn bounds_bracket_true_delta() {
        let (g1, g2) = graphs();
        let b = bounds(&g1, &g2, &[0, 5]);
        let exact = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: 1 }, 2);
        for p in &exact.pairs {
            let (u, v) = p.pair;
            let lb = b.delta_lower_bound(u, v).unwrap_or(0);
            let ub = b.delta_upper_bound(u, v).unwrap_or(u32::MAX);
            assert!(
                lb <= p.delta,
                "lb {lb} > delta {} for {:?}",
                p.delta,
                p.pair
            );
            assert!(
                ub >= p.delta,
                "ub {ub} < delta {} for {:?}",
                p.delta,
                p.pair
            );
        }
    }

    #[test]
    fn certification_is_sound() {
        let (g1, g2) = graphs();
        let b = bounds(&g1, &g2, &[0, 4, 9]);
        let all_pairs: Vec<(NodeId, NodeId)> = (0..10u32)
            .flat_map(|u| ((u + 1)..10).map(move |v| (NodeId(u), NodeId(v))))
            .collect();
        let certified = b.certify(&all_pairs, 3);
        assert!(
            !certified.is_empty(),
            "landmark at the chord certifies pairs"
        );
        let exact = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: 3 }, 2);
        let truth = exact.pair_set();
        for c in &certified {
            assert!(
                truth.contains(&c.pair),
                "{:?} certified but not real",
                c.pair
            );
        }
    }

    #[test]
    fn triage_partitions_exhaustively() {
        let (g1, g2) = graphs();
        let b = bounds(&g1, &g2, &[0, 9]);
        let pairs: Vec<(NodeId, NodeId)> = (0..10u32)
            .flat_map(|u| ((u + 1)..10).map(move |v| (NodeId(u), NodeId(v))))
            .collect();
        let t = b.triage(&pairs, 2);
        let (certified, ruled_out, undecided) = (t.certified, t.ruled_out, t.undecided);
        assert_eq!(
            certified.len() + ruled_out.len() + undecided.len(),
            pairs.len()
        );
        // Soundness of both certain sets.
        let exact = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: 2 }, 2);
        let truth = exact.pair_set();
        for &(u, v) in &certified {
            let key = if u < v { (u, v) } else { (v, u) };
            assert!(truth.contains(&key));
        }
        for &(u, v) in &ruled_out {
            let key = if u < v { (u, v) } else { (v, u) };
            assert!(!truth.contains(&key), "{key:?} ruled out but real");
        }
    }

    #[test]
    fn disconnected_pairs_are_excluded() {
        let g1 = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let g2 = graph_from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        let b = bounds(&g1, &g2, &[0, 2]);
        assert_eq!(b.delta_lower_bound(NodeId(0), NodeId(3)), None);
        let certified = b.certify(&[(NodeId(0), NodeId(3))], 1);
        assert!(certified.is_empty());
    }

    #[test]
    fn from_oracle_reuses_cached_rows() {
        let (g1, g2) = graphs();
        let mut oracle = SnapshotOracle::with_budget(&g1, &g2, 4);
        oracle.rows(NodeId(0)).unwrap(); // pre-pay one landmark
        let b = DeltaBounds::from_oracle(&mut oracle, &[NodeId(0), NodeId(9)]).unwrap();
        assert_eq!(oracle.ledger().total(), 4); // only node 9 was fresh
        assert!(b.delta_lower_bound(NodeId(0), NodeId(9)).unwrap_or(0) > 0);
        // Budget exhausted: a third landmark errors.
        assert!(DeltaBounds::from_oracle(&mut oracle, &[NodeId(5)]).is_err());
    }

    #[test]
    fn self_pairs_never_certify() {
        let (g1, g2) = graphs();
        let b = bounds(&g1, &g2, &[0]);
        assert!(b.certify(&[(NodeId(3), NodeId(3))], 1).is_empty());
    }
}
