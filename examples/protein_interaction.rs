//! Protein–protein interaction screening (the paper's biology motivation):
//! "for two given proteins, the knowledge that they came closer together
//! in the graph makes them candidates for an upcoming interaction.
//! Furthermore, if a certain protein comes closer to multiple others, they
//! may be part of the same community."
//!
//! PPI networks are affiliation-like — complexes behave as near-cliques —
//! so the example reuses the affiliation generator, streams "experiments"
//! (new complexes) over time, and screens for the proteins that converge
//! toward many others, flagging them as putative complex members.
//!
//! ```text
//! cargo run --release --example protein_interaction
//! ```

use converging_pairs::core::gpk::PairGraph;
use converging_pairs::gen::affiliation::{affiliation, AffiliationParams};
use converging_pairs::gen::seeded_rng;
use converging_pairs::prelude::*;
use std::collections::HashMap;

fn main() {
    // 900 proteins organized into ~300 discovered complexes of size 3-6.
    let temporal = affiliation(
        AffiliationParams {
            members: 900,
            groups: 300,
            group_min: 3,
            group_max: 6,
            newcomer_prob: 0.35,
        },
        &mut seeded_rng(7),
    );
    let (g1, g2) = temporal.snapshot_pair(0.8, 1.0);
    println!(
        "PPI network: {} proteins, {} -> {} interactions",
        g1.num_active_nodes(),
        g1.num_edges(),
        g2.num_edges()
    );

    // Screen with a 3 % budget using the SumDiff landmark method.
    let m = (g1.num_nodes() as u64) * 3 / 100;
    let mut selector = SelectorKind::SumDiff { landmarks: 10 }.build(99);
    let spec = TopKSpec::Threshold { delta_min: 3 };
    let result = budgeted_top_k(&g1, &g2, selector.as_mut(), m, &spec);
    println!(
        "screen: m = {m}, {} SSSPs, {} protein pairs converged by >= 3 hops",
        result.budget.total(),
        result.pairs.len()
    );

    // Proteins that converge toward MANY others are community signals.
    let mut convergence_count: HashMap<NodeId, usize> = HashMap::new();
    for p in &result.pairs {
        *convergence_count.entry(p.pair.0).or_default() += 1;
        *convergence_count.entry(p.pair.1).or_default() += 1;
    }
    let mut hubs: Vec<(NodeId, usize)> = convergence_count.into_iter().collect();
    hubs.sort_by_key(|&(u, c)| (std::cmp::Reverse(c), u));

    println!("\nputative complex members (converged toward most partners):");
    for (protein, partners) in hubs.iter().take(8) {
        println!("  protein {protein:>4}: converged toward {partners} others");
    }

    // The cover view doubles as an assay plan: SSSPs from the greedy cover
    // of the found pairs re-verify every flagged pair.
    let gpk = PairGraph::new(&result.pairs);
    let cover = gpk.greedy_vertex_cover();
    println!(
        "\nverification plan: {} pairs re-checkable from {} probe proteins",
        gpk.num_pairs(),
        cover.nodes.len()
    );

    // Cheaper still: landmark bounds certify or rule out hypothesized
    // interactions without ANY per-pair shortest-path work.
    use converging_pairs::core::bounds::DeltaBounds;
    use converging_pairs::graph::landmark_index::LandmarkIndex;
    let landmarks: Vec<NodeId> = g1
        .nodes()
        .filter(|&u| g1.degree(u) > 0)
        .step_by(97)
        .take(10)
        .collect();
    let bounds = DeltaBounds::new(
        LandmarkIndex::build(&g1, &landmarks),
        LandmarkIndex::build(&g2, &landmarks),
    );
    let hypotheses: Vec<(NodeId, NodeId)> = result.pairs.iter().map(|p| p.pair).collect();
    let triage = bounds.triage(&hypotheses, 3);
    println!(
        "landmark triage of {} hypotheses: {} certified, {} ruled out, {} need a real probe",
        hypotheses.len(),
        triage.certified.len(),
        triage.ruled_out.len(),
        triage.undecided.len()
    );

    // Compare against the exhaustive screen.
    let exact = exact_top_k(&g1, &g2, &spec, 4);
    println!(
        "exhaustive screen finds {} pairs; the budget found {:.0}% of them",
        exact.k(),
        100.0 * coverage(&result.pairs, &exact)
    );
}
