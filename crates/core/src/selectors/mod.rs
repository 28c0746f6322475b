//! Candidate-endpoint generation: the paper's selector suite.
//!
//! A selector's job is to rank the nodes most likely to belong to a cover
//! of the (unknown) pair graph `G^p_k`, using only structural information
//! it can afford within the SSSP budget. See the paper's Table 4 for the
//! naming; [`SelectorKind`] mirrors it one-to-one and adds a uniform
//! [`Random`](SelectorKind::Random) control.

mod classifier;
mod degree;
mod dispersion;
mod incidence;
mod landmark;
mod random;

pub use classifier::{
    extract_node_features, ClassifierConfig, ClassifierSelector, GraphLevelFeatures, NodeFeatures,
    PositiveClass, GRAPH_FEATURES, NODE_FEATURES, NODE_FEATURE_NAMES,
};
pub use degree::DegreeSelector;
pub use dispersion::{dispersion_pick, DispersionMode, DispersionSelector};
pub use incidence::{
    active_nodes, incidence_full, new_edge_importance, selective_expansion, IncidenceFull,
    IncidenceRanking, IncidenceSelector, SelectiveExpansion,
};
pub use landmark::{
    landmark_change_scores, LandmarkPolicy, LandmarkScores, LandmarkSelector, Norm,
};
pub use random::RandomSelector;

use crate::oracle::SnapshotOracle;
use cp_graph::NodeId;
use serde::{Deserialize, Serialize};

/// A candidate-endpoint generation strategy.
///
/// `rank` returns node ids in descending preference order; it may spend
/// SSSP computations through the oracle (they are charged to the
/// generation phase and count against the same `2m` cap as everything
/// else). Implementations degrade gracefully when the budget is too small
/// for their probes — they clamp their landmark counts and return whatever
/// ranking they managed to compute.
pub trait CandidateSelector {
    /// Display name, matching the paper's Table 4 where applicable.
    fn name(&self) -> String;

    /// Ranks candidate endpoints (best first). The returned list may be
    /// longer than what the budget can pay for; the pipeline consumes it
    /// until the budget runs out.
    fn rank(&mut self, oracle: &mut SnapshotOracle<'_>) -> Vec<NodeId>;
}

/// Default landmark count, the paper's `l = 10` ("a larger number of
/// landmarks did not improve the performance", §5.1).
pub const DEFAULT_LANDMARKS: usize = 10;

/// Enumeration of the built-in selectors (paper Table 4), for experiment
/// configuration. Classifier selectors need training data and are built
/// via [`ClassifierSelector`] instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectorKind {
    /// Largest `deg_t1(u)`.
    Degree,
    /// Largest `deg_t2(u) − deg_t1(u)`.
    DegDiff,
    /// Largest `(deg_t2(u) − deg_t1(u)) / deg_t1(u)`.
    DegRel,
    /// Greedy max-min dispersion in `G_t1`.
    MaxMin,
    /// Greedy max-average dispersion in `G_t1`.
    MaxAvg,
    /// Largest L1 norm of distance decrease to random landmarks.
    SumDiff {
        /// Landmark count `l`.
        landmarks: usize,
    },
    /// Largest L∞ norm of distance decrease to random landmarks.
    MaxDiff {
        /// Landmark count `l`.
        landmarks: usize,
    },
    /// MaxMin landmarks + SumDiff ranking (the paper's best hybrid).
    Mmsd {
        /// Landmark count `l`.
        landmarks: usize,
    },
    /// MaxMin landmarks + MaxDiff ranking.
    Mmmd {
        /// Landmark count `l`.
        landmarks: usize,
    },
    /// MaxAvg landmarks + SumDiff ranking.
    Masd {
        /// Landmark count `l`.
        landmarks: usize,
    },
    /// MaxAvg landmarks + MaxDiff ranking.
    Mamd {
        /// Landmark count `l`.
        landmarks: usize,
    },
    /// Active nodes ranked by degree difference (Incidence baseline).
    IncDeg,
    /// Active nodes ranked by the betweenness importance of their new
    /// edges (Incidence baseline; granted exact edge betweenness for free,
    /// as in the paper).
    IncBet,
    /// Uniform random active nodes (control, not in the paper).
    Random,
}

impl SelectorKind {
    /// Every single-feature selector evaluated in the paper's Table 5,
    /// with the default landmark count.
    pub fn table5_suite() -> Vec<SelectorKind> {
        let l = DEFAULT_LANDMARKS;
        vec![
            SelectorKind::Degree,
            SelectorKind::DegDiff,
            SelectorKind::DegRel,
            SelectorKind::MaxMin,
            SelectorKind::MaxAvg,
            SelectorKind::SumDiff { landmarks: l },
            SelectorKind::MaxDiff { landmarks: l },
            SelectorKind::Mmsd { landmarks: l },
            SelectorKind::Mmmd { landmarks: l },
            SelectorKind::Masd { landmarks: l },
            SelectorKind::Mamd { landmarks: l },
            SelectorKind::IncDeg,
            SelectorKind::IncBet,
        ]
    }

    /// The landmark-based and hybrid selectors plotted in Figure 1.
    pub fn fig1_suite() -> Vec<SelectorKind> {
        let l = DEFAULT_LANDMARKS;
        vec![
            SelectorKind::SumDiff { landmarks: l },
            SelectorKind::MaxDiff { landmarks: l },
            SelectorKind::Mmsd { landmarks: l },
            SelectorKind::Mmmd { landmarks: l },
            SelectorKind::Masd { landmarks: l },
            SelectorKind::Mamd { landmarks: l },
        ]
    }

    /// Display name, matching the paper's Table 4.
    pub fn name(&self) -> &'static str {
        match self {
            SelectorKind::Degree => "Degree",
            SelectorKind::DegDiff => "DegDiff",
            SelectorKind::DegRel => "DegRel",
            SelectorKind::MaxMin => "MaxMin",
            SelectorKind::MaxAvg => "MaxAvg",
            SelectorKind::SumDiff { .. } => "SumDiff",
            SelectorKind::MaxDiff { .. } => "MaxDiff",
            SelectorKind::Mmsd { .. } => "MMSD",
            SelectorKind::Mmmd { .. } => "MMMD",
            SelectorKind::Masd { .. } => "MASD",
            SelectorKind::Mamd { .. } => "MAMD",
            SelectorKind::IncDeg => "IncDeg",
            SelectorKind::IncBet => "IncBet",
            SelectorKind::Random => "Random",
        }
    }

    /// Instantiates the selector. `seed` drives any internal randomness
    /// (random landmark sampling, the random control); selectors without
    /// randomness ignore it.
    pub fn build(self, seed: u64) -> Box<dyn CandidateSelector> {
        match self {
            SelectorKind::Degree => Box::new(degree::DegreeSelector::Degree),
            SelectorKind::DegDiff => Box::new(degree::DegreeSelector::DegDiff),
            SelectorKind::DegRel => Box::new(degree::DegreeSelector::DegRel),
            SelectorKind::MaxMin => {
                Box::new(dispersion::DispersionSelector::new(DispersionMode::MaxMin))
            }
            SelectorKind::MaxAvg => {
                Box::new(dispersion::DispersionSelector::new(DispersionMode::MaxAvg))
            }
            SelectorKind::SumDiff { landmarks } => Box::new(landmark::LandmarkSelector::new(
                LandmarkPolicy::Random,
                landmark::Norm::L1,
                landmarks,
                seed,
            )),
            SelectorKind::MaxDiff { landmarks } => Box::new(landmark::LandmarkSelector::new(
                LandmarkPolicy::Random,
                landmark::Norm::LInf,
                landmarks,
                seed,
            )),
            SelectorKind::Mmsd { landmarks } => Box::new(landmark::LandmarkSelector::new(
                LandmarkPolicy::MaxMin,
                landmark::Norm::L1,
                landmarks,
                seed,
            )),
            SelectorKind::Mmmd { landmarks } => Box::new(landmark::LandmarkSelector::new(
                LandmarkPolicy::MaxMin,
                landmark::Norm::LInf,
                landmarks,
                seed,
            )),
            SelectorKind::Masd { landmarks } => Box::new(landmark::LandmarkSelector::new(
                LandmarkPolicy::MaxAvg,
                landmark::Norm::L1,
                landmarks,
                seed,
            )),
            SelectorKind::Mamd { landmarks } => Box::new(landmark::LandmarkSelector::new(
                LandmarkPolicy::MaxAvg,
                landmark::Norm::LInf,
                landmarks,
                seed,
            )),
            SelectorKind::IncDeg => Box::new(incidence::IncidenceSelector::new(
                IncidenceRanking::DegreeDiff,
            )),
            SelectorKind::IncBet => Box::new(incidence::IncidenceSelector::new(
                IncidenceRanking::Betweenness,
            )),
            SelectorKind::Random => Box::new(random::RandomSelector::new(seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_sizes() {
        assert_eq!(SelectorKind::table5_suite().len(), 13);
        assert_eq!(SelectorKind::fig1_suite().len(), 6);
    }

    #[test]
    fn names_match_paper_table4() {
        assert_eq!(SelectorKind::Mmsd { landmarks: 10 }.name(), "MMSD");
        assert_eq!(SelectorKind::Degree.name(), "Degree");
        assert_eq!(SelectorKind::IncBet.name(), "IncBet");
    }

    #[test]
    fn build_produces_matching_names() {
        for kind in SelectorKind::table5_suite() {
            let sel = kind.build(0);
            assert_eq!(sel.name(), kind.name());
        }
    }
}
