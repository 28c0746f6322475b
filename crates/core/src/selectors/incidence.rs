//! The Incidence family of baselines (Papadimitriou, Symeonidis,
//! Manolopoulos — cited as [14] in the paper).
//!
//! Prior work observes that converging pairs are caused by *new* edges and
//! therefore starts from the **active nodes** `A`: the endpoints of edges
//! present in `G_t2` but not in `G_t1`. The original Incidence algorithm
//! computes SSSPs from *all* of `A` — no budget, and `A` is routinely
//! 10–66 % of the graph (paper Table 6). The budgeted variants rank `A`
//! and take the top `m`:
//!
//! * **IncDeg** — by degree difference `deg_t2 − deg_t1`.
//! * **IncBet** — by the summed *importance* (edge betweenness in `G_t2`)
//!   of the new edges a node received. The paper grants this baseline the
//!   exact betweenness instead of the original's sampled estimate, "giving
//!   an advantage to the Incidence algorithm"; we do the same and likewise
//!   charge none of it to the SSSP budget.

use super::CandidateSelector;
use crate::exact::TopKSpec;
use crate::oracle::SnapshotOracle;
use crate::topk::{run_pipeline, BudgetedResult};
use cp_graph::betweenness::{betweenness_exact, betweenness_of};
use cp_graph::temporal::TemporalGraph;
use cp_graph::{Graph, NodeId};

/// The new edges between the snapshots as `(u, v, edge id in G_t2)`, in
/// [`TemporalGraph::new_edges_between`]'s order.
fn new_edges(g1: &Graph, g2: &Graph) -> Vec<(NodeId, NodeId, u32)> {
    TemporalGraph::new_edges_between(g1, g2)
        .into_iter()
        .map(|(u, v)| (u, v, g2.edge_id(u, v).expect("a new edge is in G_t2")))
        .collect()
}

/// The endpoints of `edges`, ascending.
fn endpoints(edges: &[(NodeId, NodeId, u32)]) -> Vec<NodeId> {
    let mut active: Vec<NodeId> = edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
    active.sort_unstable();
    active.dedup();
    active
}

/// The endpoints of the new edges between the snapshots, ascending.
pub fn active_nodes(g1: &Graph, g2: &Graph) -> Vec<NodeId> {
    endpoints(&new_edges(g1, g2))
}

/// IncBet's ranking input: the active nodes, ascending, and each one's
/// importance — the summed betweenness in `G_t2` of its new edges. Only
/// the new edges are scored ([`betweenness_of`]), and they are summed in
/// the order [`new_edges`] lists them, so each importance is the same
/// `f64` as summing [`betweenness_exact`]'s scores in that order.
pub fn new_edge_importance(g1: &Graph, g2: &Graph, threads: usize) -> (Vec<NodeId>, Vec<f64>) {
    let edges = new_edges(g1, g2);
    let ids: Vec<u32> = edges.iter().map(|&(_, _, e)| e).collect();
    let scores = betweenness_of(g2, &ids, threads);
    let mut importance = vec![0.0f64; g2.num_nodes()];
    for (&(u, v, _), score) in edges.iter().zip(scores) {
        importance[u.index()] += score;
        importance[v.index()] += score;
    }
    let active = endpoints(&edges);
    let scores = active.iter().map(|&u| importance[u.index()]).collect();
    (active, scores)
}

/// How the budgeted Incidence variants rank the active nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidenceRanking {
    /// `deg_t2(u) − deg_t1(u)`, descending (IncDeg).
    DegreeDiff,
    /// Summed edge betweenness (in `G_t2`) of the new edges incident to
    /// the node, descending (IncBet).
    Betweenness,
}

/// The budgeted Incidence selectors.
pub struct IncidenceSelector {
    ranking: IncidenceRanking,
    /// Betweenness worker threads; `None` runs at the oracle's width.
    threads: Option<usize>,
}

impl IncidenceSelector {
    /// Creates a selector with exact betweenness (where applicable).
    pub fn new(ranking: IncidenceRanking) -> Self {
        IncidenceSelector {
            ranking,
            threads: None,
        }
    }

    /// Caps the betweenness worker threads (default: the oracle's).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The active nodes and their ranking scores.
    fn scores(&self, g1: &Graph, g2: &Graph, threads: usize) -> (Vec<NodeId>, Vec<f64>) {
        match self.ranking {
            IncidenceRanking::DegreeDiff => {
                let active = active_nodes(g1, g2);
                let scores = active
                    .iter()
                    .map(|&u| (g2.degree(u) as f64) - (g1.degree(u) as f64))
                    .collect();
                (active, scores)
            }
            IncidenceRanking::Betweenness => new_edge_importance(g1, g2, threads),
        }
    }
}

impl CandidateSelector for IncidenceSelector {
    fn name(&self) -> String {
        match self.ranking {
            IncidenceRanking::DegreeDiff => "IncDeg",
            IncidenceRanking::Betweenness => "IncBet",
        }
        .to_string()
    }

    fn rank(&mut self, oracle: &mut SnapshotOracle<'_>) -> Vec<NodeId> {
        let threads = self.threads.unwrap_or(oracle.threads());
        let (active, scores) = self.scores(oracle.g1(), oracle.g2(), threads);
        let mut order: Vec<usize> = (0..active.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .total_cmp(&scores[a])
                .then(active[a].cmp(&active[b]))
        });
        order.into_iter().map(|i| active[i]).collect()
    }
}

/// Result of the original, unbudgeted Incidence algorithm.
#[derive(Clone, Debug)]
pub struct IncidenceFull {
    /// The pipeline result (pairs found, candidate set = all active nodes).
    pub result: BudgetedResult,
    /// `|A|`: the number of active nodes, i.e. SSSP sources it needed
    /// (times two snapshots).
    pub active_count: usize,
}

/// Runs the original Incidence algorithm: SSSPs from **every** active node
/// in both snapshots, no budget (paper Table 6 compares its near-complete
/// coverage against its order-of-magnitude larger cost).
pub fn incidence_full(g1: &Graph, g2: &Graph, spec: &TopKSpec) -> IncidenceFull {
    let mut oracle = SnapshotOracle::unbounded(g1, g2);
    let mut selector = IncidenceSelector::new(IncidenceRanking::DegreeDiff);
    let result = run_pipeline(&mut oracle, &mut selector, spec);
    let active_count = active_nodes(g1, g2).len();
    IncidenceFull {
        result,
        active_count,
    }
}

/// Result of the Selective Expansion variant.
#[derive(Clone, Debug)]
pub struct SelectiveExpansion {
    /// The final pipeline result.
    pub result: BudgetedResult,
    /// Candidate-set size after each round (round 0 = the active set).
    pub round_sizes: Vec<usize>,
}

/// The **Selective Expansion** variant of the Incidence algorithm
/// (Papadimitriou et al.): starting from the active set `A`, repeatedly
/// add the neighbors of current candidates whose incident edges carry the
/// most *importance* (edge betweenness in `G_t2`), re-run the pair
/// computation, and stop when a round discovers no new pairs (or after
/// `max_rounds`). Each round admits at most `per_round` new neighbors —
/// the knob that keeps this from degenerating into the all-pairs baseline,
/// which is why the original paper's authors (and ours, §5.4) call the
/// uncapped process prohibitively expensive.
pub fn selective_expansion(
    g1: &Graph,
    g2: &Graph,
    spec: &TopKSpec,
    per_round: usize,
    max_rounds: usize,
) -> SelectiveExpansion {
    let threads = cp_graph::apsp::default_threads();
    let bt = betweenness_exact(g2, threads);
    // Precomputed once: the ranking below would otherwise re-sum a node's
    // incident edge scores on every sort comparison (O(deg) per probe).
    let importance: Vec<f64> = g2
        .nodes()
        .map(|u| {
            g2.neighbors_with_edge_ids(u)
                .map(|(_, e)| bt.edge[e as usize])
                .sum()
        })
        .collect();

    let mut frontier: Vec<NodeId> = active_nodes(g1, g2);
    let mut in_set: std::collections::HashSet<NodeId> = frontier.iter().copied().collect();
    let mut oracle = SnapshotOracle::unbounded(g1, g2);
    let mut round_sizes = vec![in_set.len()];
    let mut last_pairs = 0usize;
    let mut result = {
        let mut sel = StaticRanking(frontier.clone());
        run_pipeline(&mut oracle, &mut sel, spec)
    };

    for _ in 0..max_rounds {
        if result.pairs.len() == last_pairs && round_sizes.len() > 1 {
            break; // no new pairs discovered last round
        }
        last_pairs = result.pairs.len();
        // Candidate neighbors of the current set, ranked by importance.
        let mut neighbors: Vec<NodeId> = frontier
            .iter()
            .flat_map(|&u| g2.neighbors(u).iter().copied())
            .filter(|v| !in_set.contains(v) && g1.degree(*v) > 0)
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        neighbors.sort_by(|&a, &b| {
            importance[b.index()]
                .total_cmp(&importance[a.index()])
                .then(a.cmp(&b))
        });
        neighbors.truncate(per_round);
        if neighbors.is_empty() {
            break;
        }
        for &v in &neighbors {
            in_set.insert(v);
        }
        frontier = neighbors;
        round_sizes.push(in_set.len());
        let mut sel = StaticRanking(in_set.iter().copied().collect());
        result = run_pipeline(&mut oracle, &mut sel, spec);
    }
    SelectiveExpansion {
        result,
        round_sizes,
    }
}

/// A selector that returns a fixed, precomputed ranking (internal helper
/// for the unbudgeted baselines).
struct StaticRanking(Vec<NodeId>);

impl CandidateSelector for StaticRanking {
    fn name(&self) -> String {
        "Static".to_string()
    }

    fn rank(&mut self, _oracle: &mut SnapshotOracle<'_>) -> Vec<NodeId> {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_top_k;
    use cp_graph::builder::graph_from_edges;

    /// Path 0..=5 in g1; g2 adds (0,5) and (2,4).
    fn graphs() -> (Graph, Graph) {
        let base: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
        let g1 = graph_from_edges(6, &base);
        let mut all = base;
        all.push((0, 5));
        all.push((2, 4));
        let g2 = graph_from_edges(6, &all);
        (g1, g2)
    }

    #[test]
    fn active_nodes_are_new_edge_endpoints() {
        let (g1, g2) = graphs();
        assert_eq!(
            active_nodes(&g1, &g2),
            vec![NodeId(0), NodeId(2), NodeId(4), NodeId(5)]
        );
    }

    #[test]
    fn incdeg_ranks_by_degree_gain() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::unbounded(&g1, &g2);
        let mut sel = IncidenceSelector::new(IncidenceRanking::DegreeDiff);
        let ranked = sel.rank(&mut o);
        // All four active nodes gained exactly one edge; ties by id.
        assert_eq!(ranked, vec![NodeId(0), NodeId(2), NodeId(4), NodeId(5)]);
        assert_eq!(o.ledger().total(), 0, "incidence ranking is free");
    }

    #[test]
    fn incbet_prefers_structurally_important_edges() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::unbounded(&g1, &g2);
        let mut sel = IncidenceSelector::new(IncidenceRanking::Betweenness).with_threads(2);
        let ranked = sel.rank(&mut o);
        // The chord (0,5) carries far more betweenness in g2 than (2,4),
        // so its endpoints rank first.
        assert_eq!(&ranked[..2], &[NodeId(0), NodeId(5)]);
    }

    #[test]
    fn full_incidence_reaches_full_coverage_here() {
        let (g1, g2) = graphs();
        let exact = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 2 }, 2);
        let full = incidence_full(&g1, &g2, &exact.spec());
        assert_eq!(full.active_count, 4);
        // Every converging pair here touches an active node.
        assert_eq!(full.result.pair_set(), exact.pair_set());
    }

    #[test]
    fn selective_expansion_extends_coverage() {
        // Build a case where a converging pair has NO endpoint among the
        // active nodes: path 0-1-2-3-4-5-6, new edge (2, 4) shortcuts the
        // middle; the pair (0, 6) converges but 0 and 6 are inactive.
        let base: Vec<(u32, u32)> = (0..6).map(|i| (i, i + 1)).collect();
        let g1 = graph_from_edges(7, &base);
        let mut all = base;
        all.push((2, 4));
        let g2 = graph_from_edges(7, &all);
        let spec = TopKSpec::Threshold { delta_min: 1 };
        let plain = incidence_full(&g1, &g2, &spec);
        let expanded = selective_expansion(&g1, &g2, &spec, 4, 5);
        assert!(
            expanded.result.pairs.len() >= plain.result.pairs.len(),
            "expansion must not lose pairs"
        );
        // The expansion reaches node 0/6 eventually and finds their pair.
        let exact = exact_top_k(&g1, &g2, &spec, 2);
        assert_eq!(expanded.result.pair_set(), exact.pair_set());
        assert!(expanded.round_sizes.len() > 1);
        assert!(expanded.round_sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn selective_expansion_respects_round_cap() {
        let (g1, g2) = graphs();
        let spec = TopKSpec::Threshold { delta_min: 1 };
        let expanded = selective_expansion(&g1, &g2, &spec, 1, 2);
        // Round 0 = 4 active nodes; each round adds at most 1.
        for w in expanded.round_sizes.windows(2) {
            assert!(w[1] - w[0] <= 1);
        }
        assert!(expanded.round_sizes.len() <= 3);
    }

    #[test]
    fn no_new_edges_no_active_nodes() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2)]);
        assert!(active_nodes(&g, &g).is_empty());
        let full = incidence_full(&g, &g, &TopKSpec::TopK(5));
        assert_eq!(full.active_count, 0);
        assert!(full.result.pairs.is_empty());
    }
}
