//! The experiment harness behind every table and figure of the paper.
//!
//! A [`Snapshots`] bundle holds the four standard cuts of one evolving
//! graph (40 %/60 % for training, 80 %/100 % for evaluation) plus a cache
//! of exact answers per δ-slack, so the expensive all-pairs ground truth is
//! computed once per configuration. [`run_selector`] evaluates one
//! selector at one budget and returns a [`CoverageRow`] — the unit every
//! table/figure binary aggregates.

use crate::coverage::{candidate_precision_against, candidate_precision_endpoints, coverage};
use crate::exact::{exact_top_k, ExactTopK, TopKSpec};
use crate::gpk::PairGraph;
use crate::oracle::{BudgetLedger, SnapshotOracle};
use crate::selectors::{CandidateSelector, ClassifierConfig, ClassifierSelector, SelectorKind};
use crate::topk::{run_pipeline, BudgetedResult, PipelineStats};
use cp_graph::components::components;
use cp_graph::diameter::diameter_exact;
use cp_graph::{Graph, TemporalGraph};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The standard snapshot cuts of one evolving graph.
pub struct Snapshots {
    /// Dataset display name.
    pub name: String,
    /// Evaluation snapshot `G_t1` (80 % of edges).
    pub g1: Graph,
    /// Evaluation snapshot `G_t2` (100 %).
    pub g2: Graph,
    /// Training snapshot `G_t'1` (40 %).
    pub train_g1: Graph,
    /// Training snapshot `G_t'2` (60 %).
    pub train_g2: Graph,
    /// BFS worker threads for exact computations.
    pub threads: usize,
    truth_cache: HashMap<u32, ExactTopK>,
}

impl Snapshots {
    /// Cuts the four standard snapshots from a temporal stream.
    pub fn from_temporal(name: impl Into<String>, t: &TemporalGraph, threads: usize) -> Self {
        let (train_g1, train_g2) = t.snapshot_pair(0.4, 0.6);
        let (g1, g2) = t.snapshot_pair(0.8, 1.0);
        Snapshots {
            name: name.into(),
            g1,
            g2,
            train_g1,
            train_g2,
            threads,
            truth_cache: HashMap::new(),
        }
    }

    /// Wraps pre-cut snapshots (training pair = evaluation pair; only
    /// valid when no classifier is evaluated).
    pub fn from_eval_pair(name: impl Into<String>, g1: Graph, g2: Graph, threads: usize) -> Self {
        Snapshots {
            name: name.into(),
            train_g1: g1.clone(),
            train_g2: g2.clone(),
            g1,
            g2,
            threads,
            truth_cache: HashMap::new(),
        }
    }

    /// The exact answer for `δ = Δmax − slack`, cached.
    ///
    /// Answers for smaller slacks are subsets of answers for larger ones,
    /// so once any slack `s >= slack` has been computed the request is
    /// served by filtering instead of sweeping again.
    pub fn truth(&mut self, slack: u32) -> &ExactTopK {
        if !self.truth_cache.contains_key(&slack) {
            let derived = self
                .truth_cache
                .iter()
                .find(|(&cached_slack, _)| cached_slack >= slack)
                .map(|(_, bigger)| {
                    let floor = bigger.delta_max.saturating_sub(slack).max(1);
                    let pairs: Vec<_> = bigger
                        .pairs
                        .iter()
                        .filter(|p| p.delta >= floor)
                        .copied()
                        .collect();
                    let delta_min = pairs.last().map(|p| p.delta).unwrap_or(0);
                    ExactTopK {
                        pairs,
                        delta_max: bigger.delta_max,
                        delta_min,
                        sources_swept: bigger.sources_swept,
                    }
                });
            let truth = derived.unwrap_or_else(|| {
                exact_top_k(
                    &self.g1,
                    &self.g2,
                    &TopKSpec::ThresholdFromMax { slack },
                    self.threads,
                )
            });
            self.truth_cache.insert(slack, truth);
        }
        &self.truth_cache[&slack]
    }

    /// Builds the local classifier for this dataset.
    pub fn local_classifier(&self, config: ClassifierConfig, seed: u64) -> ClassifierSelector {
        ClassifierSelector::train_local(&self.train_g1, &self.train_g2, config, seed)
    }
}

/// One evaluated (selector, budget, δ) cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoverageRow {
    /// Dataset name.
    pub dataset: String,
    /// Selector name.
    pub selector: String,
    /// Candidate budget `m` (the SSSP cap is `2m`).
    pub m: u64,
    /// δ slack (`δ = Δmax − slack`).
    pub slack: u32,
    /// `k` = size of the unique optimal answer at this δ.
    pub k: usize,
    /// Fraction of the true top-k pairs retrieved.
    pub coverage: f64,
    /// SSSPs actually spent, by phase.
    pub budget: BudgetLedger,
    /// Size of the fully paid candidate set `M`.
    pub num_candidates: usize,
    /// Wall-clock and cache instrumentation of the pipeline run.
    pub stats: PipelineStats,
}

/// Runs the budgeted pipeline on a snapshot bundle, using the bundle's
/// worker-thread count for the oracle (an explicit `--threads` beats the
/// `CP_THREADS` default).
pub fn run_budgeted(
    snaps: &Snapshots,
    selector: &mut dyn CandidateSelector,
    m: u64,
    spec: &TopKSpec,
) -> BudgetedResult {
    let mut oracle =
        SnapshotOracle::with_budget(&snaps.g1, &snaps.g2, 2 * m).with_threads(snaps.threads);
    run_pipeline(&mut oracle, selector, spec)
}

/// Evaluates `selector` on the snapshot pair at budget `m` against the
/// cached exact answer for `slack`.
pub fn run_selector(
    snaps: &mut Snapshots,
    selector: &mut dyn CandidateSelector,
    m: u64,
    slack: u32,
) -> CoverageRow {
    let truth_spec;
    let truth_k;
    {
        let truth = snaps.truth(slack);
        truth_spec = truth.spec();
        truth_k = truth.k();
    }
    let result = run_budgeted(snaps, selector, m, &truth_spec);
    let truth = snaps.truth_cache.get(&slack).expect("cached above");
    CoverageRow {
        dataset: snaps.name.clone(),
        selector: selector.name(),
        m,
        slack,
        k: truth_k,
        coverage: coverage(&result.pairs, truth),
        budget: result.budget,
        num_candidates: result.candidates.len(),
        stats: result.stats,
    }
}

/// Evaluates a [`SelectorKind`] (building it fresh with `seed`).
pub fn run_kind(
    snaps: &mut Snapshots,
    kind: SelectorKind,
    m: u64,
    slack: u32,
    seed: u64,
) -> CoverageRow {
    let mut selector = kind.build(seed);
    run_selector(snaps, selector.as_mut(), m, slack)
}

/// Dataset characteristics — one row of the paper's Table 2.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Dataset name.
    pub dataset: String,
    /// Active nodes in `G_t1` / `G_t2`.
    pub nodes: (usize, usize),
    /// Edges in `G_t1` / `G_t2`.
    pub edges: (usize, usize),
    /// Exact diameters.
    pub diameter: (u32, u32),
    /// Largest distance decrease between the snapshots.
    pub delta_max: u32,
    /// Unordered active-node pairs of `G_t1` that are not connected.
    pub not_connected: u64,
}

/// Computes the Table 2 row for a snapshot bundle.
pub fn dataset_stats(snaps: &mut Snapshots) -> DatasetStats {
    let d1 = diameter_exact(&snaps.g1, snaps.threads);
    let d2 = diameter_exact(&snaps.g2, snaps.threads);
    let comps = components(&snaps.g1);
    let not_connected = comps.not_connected_active_pairs(&snaps.g1);
    let delta_max = snaps.truth(0).delta_max;
    DatasetStats {
        dataset: snaps.name.clone(),
        nodes: (snaps.g1.num_active_nodes(), snaps.g2.num_active_nodes()),
        edges: (snaps.g1.num_edges(), snaps.g2.num_edges()),
        diameter: (d1, d2),
        delta_max,
        not_connected,
    }
}

/// Pair-graph characteristics — one cell of the paper's Table 3.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GpkStats {
    /// Dataset name.
    pub dataset: String,
    /// δ slack.
    pub slack: u32,
    /// δ itself (`Δmax − slack`).
    pub delta: u32,
    /// Distinct endpoints of the answer pairs.
    pub endpoints: usize,
    /// Number of answer pairs (`k`).
    pub pairs: usize,
    /// Size of the greedy vertex cover.
    pub maxcover: usize,
}

/// Computes the Table 3 cell for one δ slack.
pub fn gpk_stats(snaps: &mut Snapshots, slack: u32) -> GpkStats {
    let truth = snaps.truth(slack);
    let delta = truth.delta_max.saturating_sub(slack).max(1);
    let gpk = PairGraph::new(&truth.pairs);
    GpkStats {
        dataset: snaps.name.clone(),
        slack,
        delta,
        endpoints: gpk.num_endpoints(),
        pairs: gpk.num_pairs(),
        maxcover: gpk.greedy_vertex_cover().nodes.len(),
    }
}

/// Candidate-quality metrics at one budget — one x-position of the
/// paper's Figure 2.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CandidateQualityRow {
    /// Selector name.
    pub selector: String,
    /// Candidate budget.
    pub m: u64,
    /// Fraction of candidates that are endpoints of true pairs (Fig. 2a).
    pub in_gpk: f64,
    /// Fraction of candidates inside the greedy cover (Fig. 2b).
    pub in_greedy_cover: f64,
}

/// Evaluates how much of a selector's candidate set lands in `G^p_k` and
/// in its greedy cover.
pub fn candidate_quality(
    snaps: &mut Snapshots,
    kind: SelectorKind,
    m: u64,
    slack: u32,
    seed: u64,
) -> CandidateQualityRow {
    let truth_spec = snaps.truth(slack).spec();
    let mut selector = kind.build(seed);
    let result = run_budgeted(snaps, selector.as_mut(), m, &truth_spec);
    let truth = snaps.truth_cache.get(&slack).expect("cached above");
    let gpk = PairGraph::new(&truth.pairs);
    let cover = gpk.greedy_vertex_cover();
    CandidateQualityRow {
        selector: kind.name().to_string(),
        m,
        in_gpk: candidate_precision_endpoints(&result.candidates, truth),
        in_greedy_cover: candidate_precision_against(&result.candidates, &cover.nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_graph::NodeId;

    fn toy_temporal() -> TemporalGraph {
        // A ring that accumulates chords over time.
        let n = 30u32;
        let mut edges: Vec<(NodeId, NodeId)> =
            (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n))).collect();
        for (a, b) in [(0, 15), (5, 20), (10, 25), (3, 18), (7, 22)] {
            edges.push((NodeId(a), NodeId(b)));
        }
        TemporalGraph::from_sequence(n as usize, edges)
    }

    #[test]
    fn snapshots_cut_correctly() {
        let t = toy_temporal();
        let snaps = Snapshots::from_temporal("toy", &t, 2);
        assert!(snaps.train_g1.num_edges() < snaps.train_g2.num_edges());
        assert!(snaps.train_g2.num_edges() < snaps.g1.num_edges());
        assert!(snaps.g1.num_edges() < snaps.g2.num_edges());
    }

    #[test]
    fn truth_is_cached() {
        let t = toy_temporal();
        let mut snaps = Snapshots::from_temporal("toy", &t, 2);
        let k1 = snaps.truth(1).k();
        let k2 = snaps.truth(1).k();
        assert_eq!(k1, k2);
        assert_eq!(snaps.truth_cache.len(), 1);
        snaps.truth(0);
        assert_eq!(snaps.truth_cache.len(), 2);
    }

    #[test]
    fn run_kind_produces_sane_row() {
        let t = toy_temporal();
        let mut snaps = Snapshots::from_temporal("toy", &t, 2);
        let row = run_kind(&mut snaps, SelectorKind::MaxAvg, 5, 1, 0);
        assert_eq!(row.dataset, "toy");
        assert_eq!(row.selector, "MaxAvg");
        assert!(row.coverage >= 0.0 && row.coverage <= 1.0);
        assert!(row.budget.total() <= 10);
        assert!(row.k > 0);
        assert_eq!(row.stats.sssp_computed, row.budget.total());
        assert_eq!(row.stats.threads, snaps.threads);
        assert!(row.stats.cache_misses >= row.budget.total());
    }

    #[test]
    fn full_budget_reaches_full_coverage() {
        let t = toy_temporal();
        let mut snaps = Snapshots::from_temporal("toy", &t, 2);
        let n = snaps.g1.num_nodes() as u64;
        let row = run_kind(&mut snaps, SelectorKind::Degree, n, 1, 0);
        assert_eq!(row.coverage, 1.0);
    }

    #[test]
    fn stats_tables() {
        let t = toy_temporal();
        let mut snaps = Snapshots::from_temporal("toy", &t, 2);
        let stats = dataset_stats(&mut snaps);
        assert!(stats.nodes.1 >= stats.nodes.0);
        assert!(stats.edges.1 > stats.edges.0);
        assert!(stats.delta_max > 0);
        // Ring is connected: no not-connected pairs at 80%... the ring
        // closes only when all ring edges are in; just check consistency.
        let g = gpk_stats(&mut snaps, 0);
        assert!(g.pairs > 0);
        assert!(g.maxcover <= g.endpoints);
        assert!(g.endpoints <= 2 * g.pairs);
        assert_eq!(g.delta, stats.delta_max);
    }

    #[test]
    fn candidate_quality_bounds() {
        let t = toy_temporal();
        let mut snaps = Snapshots::from_temporal("toy", &t, 2);
        let q = candidate_quality(&mut snaps, SelectorKind::Mmsd { landmarks: 2 }, 6, 1, 0);
        assert!((0.0..=1.0).contains(&q.in_gpk));
        assert!((0.0..=1.0).contains(&q.in_greedy_cover));
        assert!(q.in_greedy_cover <= q.in_gpk + 1e-9);
    }

    #[test]
    fn from_eval_pair_wraps() {
        let t = toy_temporal();
        let (g1, g2) = t.snapshot_pair(0.8, 1.0);
        let mut snaps = Snapshots::from_eval_pair("wrap", g1, g2, 2);
        assert!(snaps.truth(0).k() > 0);
    }
}
