//! Coverage evaluation against the exact ground truth.
//!
//! The paper's quality metric is **coverage**: the fraction of the true
//! top-k converging pairs that a budgeted run retrieves. A pair is
//! retrieved when at least one of its endpoints is in the candidate set
//! (its Δ is then computed exactly from that endpoint's rows).

use crate::exact::{ConvergingPair, ExactTopK};
use cp_graph::NodeId;
use std::collections::HashSet;

/// Fraction of `truth` pairs present in `found` (1.0 for empty truth).
pub fn coverage(found: &[ConvergingPair], truth: &ExactTopK) -> f64 {
    if truth.pairs.is_empty() {
        return 1.0;
    }
    let found_set: HashSet<(NodeId, NodeId)> = found.iter().map(|p| p.pair).collect();
    let hits = truth
        .pairs
        .iter()
        .filter(|p| found_set.contains(&p.pair))
        .count();
    hits as f64 / truth.pairs.len() as f64
}

/// Fraction of `truth` pairs with at least one endpoint in `candidates`.
///
/// This is the coverage an ideal top-k phase would achieve from the given
/// candidate set; it equals [`coverage`] of the pipeline output whenever
/// the spec threshold matches the truth cut.
pub fn candidate_coverage(candidates: &[NodeId], truth: &ExactTopK) -> f64 {
    if truth.pairs.is_empty() {
        return 1.0;
    }
    let set: HashSet<NodeId> = candidates.iter().copied().collect();
    let hits = truth
        .pairs
        .iter()
        .filter(|p| set.contains(&p.pair.0) || set.contains(&p.pair.1))
        .count();
    hits as f64 / truth.pairs.len() as f64
}

/// Fraction of `candidates` that are endpoints of truth pairs — the
/// quantity of the paper's Figure 2(a).
pub fn candidate_precision_endpoints(candidates: &[NodeId], truth: &ExactTopK) -> f64 {
    if candidates.is_empty() {
        return 0.0;
    }
    let endpoints: HashSet<NodeId> = truth
        .pairs
        .iter()
        .flat_map(|p| [p.pair.0, p.pair.1])
        .collect();
    let hits = candidates.iter().filter(|u| endpoints.contains(u)).count();
    hits as f64 / candidates.len() as f64
}

/// Fraction of `candidates` inside a given reference node set (the
/// greedy-cover intersection of the paper's Figure 2(b)).
pub fn candidate_precision_against(candidates: &[NodeId], reference: &[NodeId]) -> f64 {
    if candidates.is_empty() {
        return 0.0;
    }
    let set: HashSet<NodeId> = reference.iter().copied().collect();
    let hits = candidates.iter().filter(|u| set.contains(u)).count();
    hits as f64 / candidates.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::TopKSpec;

    fn truth() -> ExactTopK {
        ExactTopK {
            pairs: vec![
                ConvergingPair::new(NodeId(0), NodeId(5), 4),
                ConvergingPair::new(NodeId(1), NodeId(6), 3),
                ConvergingPair::new(NodeId(2), NodeId(7), 3),
                ConvergingPair::new(NodeId(3), NodeId(8), 3),
            ],
            delta_max: 4,
            delta_min: 3,
            sources_swept: 9,
        }
    }

    #[test]
    fn pair_coverage() {
        let t = truth();
        let found = vec![
            ConvergingPair::new(NodeId(0), NodeId(5), 4),
            ConvergingPair::new(NodeId(2), NodeId(7), 3),
            ConvergingPair::new(NodeId(9), NodeId(10), 2), // not in truth
        ];
        assert_eq!(coverage(&found, &t), 0.5);
        assert_eq!(coverage(&[], &t), 0.0);
    }

    #[test]
    fn empty_truth_is_fully_covered() {
        let empty = ExactTopK {
            pairs: vec![],
            delta_max: 0,
            delta_min: 0,
            sources_swept: 0,
        };
        assert_eq!(coverage(&[], &empty), 1.0);
        assert_eq!(candidate_coverage(&[], &empty), 1.0);
    }

    #[test]
    fn candidate_set_coverage() {
        let t = truth();
        // Node 0 covers pair 0; node 6 covers pair 1.
        assert_eq!(candidate_coverage(&[NodeId(0), NodeId(6)], &t), 0.5);
        assert_eq!(candidate_coverage(&[NodeId(99)], &t), 0.0);
        assert_eq!(
            candidate_coverage(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)], &t),
            1.0
        );
    }

    #[test]
    fn precision_measures() {
        let t = truth();
        let cands = vec![NodeId(0), NodeId(5), NodeId(99), NodeId(100)];
        assert_eq!(candidate_precision_endpoints(&cands, &t), 0.5);
        assert_eq!(candidate_precision_endpoints(&[], &t), 0.0);
        let cover = vec![NodeId(0), NodeId(1)];
        assert_eq!(candidate_precision_against(&cands, &cover), 0.25);
        assert_eq!(candidate_precision_against(&[], &cover), 0.0);
    }

    #[test]
    fn spec_of_truth_matches_threshold() {
        let t = truth();
        assert_eq!(t.spec(), TopKSpec::Threshold { delta_min: 3 });
    }
}
