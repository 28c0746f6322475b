//! Property-based tests for the core algorithms: exactness, budget
//! enforcement, cover correctness.

use cp_core::exact::{exact_top_k, ConvergingPair, TopKSpec};
use cp_core::gpk::PairGraph;
use cp_core::selectors::SelectorKind;
use cp_core::topk::budgeted_top_k;
use cp_graph::bfs::bfs;
use cp_graph::builder::graph_from_edges;
use cp_graph::{distance_decrease, NodeId};
use proptest::prelude::*;

/// A generated case: node count, base edges, extra edges.
type SnapshotPairCase = (usize, Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Strategy: a growing snapshot pair — a base edge list plus extra edges.
fn snapshot_pair(n: u32) -> impl Strategy<Value = SnapshotPairCase> {
    (4..=n).prop_flat_map(move |nodes| {
        let base = prop::collection::vec((0..nodes, 0..nodes), 1..60);
        let extra = prop::collection::vec((0..nodes, 0..nodes), 0..20);
        (Just(nodes as usize), base, extra)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_answer_matches_brute_force((n, base, extra) in snapshot_pair(16)) {
        let g1 = graph_from_edges(n, &base);
        let all: Vec<(u32, u32)> = base.iter().chain(extra.iter()).copied().collect();
        let g2 = graph_from_edges(n, &all);

        // Brute force via per-source BFS.
        let mut brute: Vec<ConvergingPair> = Vec::new();
        for u in 0..n {
            let d1 = bfs(&g1, NodeId::new(u));
            let d2 = bfs(&g2, NodeId::new(u));
            for v in (u + 1)..n {
                if let Some(delta) = distance_decrease(d1[v], d2[v]) {
                    if delta >= 1 {
                        brute.push(ConvergingPair::new(NodeId::new(u), NodeId::new(v), delta));
                    }
                }
            }
        }
        brute.sort_by(|a, b| b.delta.cmp(&a.delta).then(a.pair.cmp(&b.pair)));

        let exact = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: 1 }, 2);
        prop_assert_eq!(exact.pairs, brute);
    }

    #[test]
    fn threshold_specs_nest((n, base, extra) in snapshot_pair(16)) {
        let g1 = graph_from_edges(n, &base);
        let all: Vec<(u32, u32)> = base.iter().chain(extra.iter()).copied().collect();
        let g2 = graph_from_edges(n, &all);
        let tight = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 0 }, 2);
        let loose = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 2 }, 2);
        let loose_set = loose.pair_set();
        for p in &tight.pairs {
            prop_assert!(loose_set.contains(&p.pair));
        }
        prop_assert!(tight.k() <= loose.k());
        prop_assert_eq!(tight.delta_max, loose.delta_max);
    }

    #[test]
    fn budget_never_exceeded((n, base, extra) in snapshot_pair(20), m in 0u64..12, seed in 0u64..8) {
        let g1 = graph_from_edges(n, &base);
        let all: Vec<(u32, u32)> = base.iter().chain(extra.iter()).copied().collect();
        let g2 = graph_from_edges(n, &all);
        for kind in [
            SelectorKind::Degree,
            SelectorKind::MaxMin,
            SelectorKind::SumDiff { landmarks: 3 },
            SelectorKind::Masd { landmarks: 3 },
            SelectorKind::Random,
        ] {
            let mut sel = kind.build(seed);
            let res = budgeted_top_k(&g1, &g2, sel.as_mut(), m, &TopKSpec::TopK(50));
            prop_assert!(
                res.budget.total() <= 2 * m,
                "{} spent {} > {}", kind.name(), res.budget.total(), 2 * m
            );
        }
    }

    #[test]
    fn budgeted_answers_are_sound((n, base, extra) in snapshot_pair(16), m in 1u64..10) {
        let g1 = graph_from_edges(n, &base);
        let all: Vec<(u32, u32)> = base.iter().chain(extra.iter()).copied().collect();
        let g2 = graph_from_edges(n, &all);
        let exact = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: 1 }, 2);
        let truth: std::collections::HashMap<_, _> =
            exact.pairs.iter().map(|p| (p.pair, p.delta)).collect();
        let mut sel = SelectorKind::MaxAvg.build(0);
        let res = budgeted_top_k(&g1, &g2, sel.as_mut(), m, &TopKSpec::Threshold { delta_min: 1 });
        for p in &res.pairs {
            prop_assert_eq!(truth.get(&p.pair), Some(&p.delta));
        }
    }

    #[test]
    fn greedy_cover_covers_everything(pairs in prop::collection::vec((0u32..30, 0u32..30), 1..80)) {
        let cps: Vec<ConvergingPair> = pairs
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| ConvergingPair::new(NodeId(u), NodeId(v), 1))
            .collect();
        prop_assume!(!cps.is_empty());
        let gpk = PairGraph::new(&cps);
        let cover = gpk.greedy_vertex_cover();
        prop_assert!(cover.is_complete(&gpk));
        prop_assert_eq!(gpk.covered_by(&cover.nodes), gpk.num_pairs());
        // A vertex cover can never be larger than the number of pairs.
        prop_assert!(cover.nodes.len() <= gpk.num_pairs());
    }

    #[test]
    fn greedy_coverage_is_monotone_in_budget(pairs in prop::collection::vec((0u32..20, 0u32..20), 1..60)) {
        let cps: Vec<ConvergingPair> = pairs
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| ConvergingPair::new(NodeId(u), NodeId(v), 1))
            .collect();
        prop_assume!(!cps.is_empty());
        let gpk = PairGraph::new(&cps);
        let mut last = 0;
        for budget in 0..=gpk.num_endpoints() {
            let covered = gpk.greedy_max_coverage(budget).covered_pairs;
            prop_assert!(covered >= last);
            last = covered;
        }
        prop_assert_eq!(last, gpk.num_pairs());
    }

    #[test]
    fn greedy_first_pick_is_max_gain(pairs in prop::collection::vec((0u32..15, 0u32..15), 1..40)) {
        let cps: Vec<ConvergingPair> = pairs
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| ConvergingPair::new(NodeId(u), NodeId(v), 1))
            .collect();
        prop_assume!(!cps.is_empty());
        let gpk = PairGraph::new(&cps);
        let first = gpk.greedy_max_coverage(1);
        // No single node may cover more than the greedy's first pick.
        let best_single = gpk
            .endpoints()
            .iter()
            .map(|&u| gpk.covered_by(&[u]))
            .max()
            .unwrap_or(0);
        prop_assert_eq!(first.covered_pairs, best_single);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delta_bounds_are_sound((n, base, extra) in snapshot_pair(18), l1 in 0u32..18, l2 in 0u32..18) {
        use cp_core::bounds::DeltaBounds;
        use cp_graph::landmark_index::LandmarkIndex;
        let g1 = graph_from_edges(n, &base);
        let all: Vec<(u32, u32)> = base.iter().chain(extra.iter()).copied().collect();
        let g2 = graph_from_edges(n, &all);
        let landmarks = [NodeId(l1 % n as u32), NodeId(l2 % n as u32)];
        let bounds = DeltaBounds::new(
            LandmarkIndex::build(&g1, &landmarks),
            LandmarkIndex::build(&g2, &landmarks),
        );
        // Against brute-force deltas: certified bounds must bracket truth.
        for u in 0..n {
            let d1 = bfs(&g1, NodeId::new(u));
            let d2 = bfs(&g2, NodeId::new(u));
            for v in (u + 1)..n {
                let (nu, nv) = (NodeId::new(u), NodeId::new(v));
                match distance_decrease(d1[v], d2[v]) {
                    Some(delta) => {
                        if let Some(lb) = bounds.delta_lower_bound(nu, nv) {
                            prop_assert!(lb <= delta, "lb {} > delta {} for ({u},{v})", lb, delta);
                        }
                        if let Some(ub) = bounds.delta_upper_bound(nu, nv) {
                            prop_assert!(ub >= delta, "ub {} < delta {} for ({u},{v})", ub, delta);
                        }
                    }
                    None => {
                        // Pair not connected in g1: a Some(lb) with lb >= 1
                        // would be an unsound certificate.
                        let lb = bounds.delta_lower_bound(nu, nv).unwrap_or(0);
                        prop_assert_eq!(lb, 0, "disconnected pair certified");
                    }
                }
            }
        }
    }

    #[test]
    fn triage_never_misclassifies((n, base, extra) in snapshot_pair(14), floor in 1u32..4) {
        use cp_core::bounds::DeltaBounds;
        use cp_graph::landmark_index::LandmarkIndex;
        let g1 = graph_from_edges(n, &base);
        let all: Vec<(u32, u32)> = base.iter().chain(extra.iter()).copied().collect();
        let g2 = graph_from_edges(n, &all);
        let landmarks: Vec<NodeId> = (0..3.min(n)).map(NodeId::new).collect();
        let bounds = DeltaBounds::new(
            LandmarkIndex::build(&g1, &landmarks),
            LandmarkIndex::build(&g2, &landmarks),
        );
        let pairs: Vec<(NodeId, NodeId)> = (0..n as u32)
            .flat_map(|u| ((u + 1)..n as u32).map(move |v| (NodeId(u), NodeId(v))))
            .collect();
        let truth = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: floor }, 2);
        let truth_set = truth.pair_set();
        let triage = bounds.triage(&pairs, floor);
        let (certified, ruled_out) = (triage.certified, triage.ruled_out);
        for p in certified {
            prop_assert!(truth_set.contains(&p), "certified {:?} not real", p);
        }
        for p in ruled_out {
            prop_assert!(!truth_set.contains(&p), "ruled out {:?} is real", p);
        }
    }
}
