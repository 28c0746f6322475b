//! Property-based tests for the generators: every generator must produce a
//! structurally valid, deterministic, monotone temporal graph.
//!
//! Two invariants here carry the rest of the codebase:
//!
//! * **Growth-only snapshots** — for any fractions `f1 ≤ f2` the pair
//!   `(G_f1, G_f2)` must satisfy `G_t1 ⊆ G_t2` in both node and edge sets
//!   (with weights preserved). This is the paper's Problem 1 evolution
//!   model: distances only shrink, so `Δ ≥ 0`, and the Incidence
//!   baseline's active set (the endpoints of
//!   [`TemporalGraph::new_edges_between`]) covers every change. It is
//!   checked directly: every `G_t1` edge must reappear in `G_t2` with the
//!   same weight, and the new edges must account for the rest.
//! * **Byte-determinism** — the same seed must reproduce the identical
//!   event stream, byte for byte, across two runs; every experiment's
//!   reproducibility rests on this.

use cp_gen::affiliation::{affiliation, AffiliationParams};
use cp_gen::ba::barabasi_albert;
use cp_gen::core_tendril::{core_tendril, CoreTendrilParams};
use cp_gen::er::erdos_renyi;
use cp_gen::forest_fire::forest_fire;
use cp_gen::locality::{locality_pa, LocalityPaParams};
use cp_gen::ring_sbm::{ring_sbm, RingSbmParams};
use cp_gen::sbm::{sbm, SbmParams};
use cp_gen::seeded_rng;
use cp_gen::ws::watts_strogatz;
use cp_graph::TemporalGraph;
use proptest::prelude::*;

/// The canonical byte encoding of a generated stream (Debug formatting of
/// the event list is injective on `(u, v, weight, time)` tuples).
fn stream_bytes(t: &TemporalGraph) -> Vec<u8> {
    format!("{:?}", t.events()).into_bytes()
}

fn check_generator(t: &TemporalGraph) -> Result<(), TestCaseError> {
    // Full snapshot satisfies the CSR invariants.
    let g_full = t.snapshot_at_fraction(1.0);
    prop_assert_eq!(g_full.check_invariants(), Ok(()));

    // Snapshots are monotone: every prefix pair is growth-only in both
    // node and edge sets, weights included.
    let fractions = [0.25, 0.5, 0.75, 1.0];
    let snaps: Vec<_> = fractions
        .iter()
        .map(|&f| t.snapshot_at_fraction(f))
        .collect();
    for w in snaps.windows(2) {
        let (g1, g2) = (&w[0], &w[1]);
        prop_assert_eq!(g1.num_nodes(), g2.num_nodes(), "fixed node universe");
        for (u, v) in g1.edges() {
            let e1 = g1.edge_id(u, v).expect("listed edge exists");
            let e2 = g2.edge_id(u, v);
            prop_assert!(
                e2.is_some(),
                "prefix snapshots must be growth-only (G_t1 ⊆ G_t2): {:?} lost",
                (u, v)
            );
            prop_assert_eq!(
                g1.edge_weight(e1),
                g2.edge_weight(e2.unwrap()),
                "edge {:?} changed weight",
                (u, v)
            );
        }
        prop_assert_eq!(
            g1.num_edges() + TemporalGraph::new_edges_between(g1, g2).len(),
            g2.num_edges(),
            "the new edges account for every edge g2 adds"
        );
        // Node containment: a node active (degree > 0) at t1 stays active.
        for u in g1.nodes() {
            if g1.degree(u) > 0 {
                prop_assert!(g2.degree(u) > 0, "active node {u:?} vanished");
            }
        }
    }

    // All events in range.
    for e in t.events() {
        prop_assert!(e.u.index() < t.num_nodes());
        prop_assert!(e.v.index() < t.num_nodes());
    }
    Ok(())
}

/// Asserts two runs of a generator agree byte-for-byte.
fn check_byte_determinism(a: &TemporalGraph, b: &TemporalGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.events(), b.events());
    prop_assert_eq!(
        stream_bytes(a),
        stream_bytes(b),
        "event streams must be byte-identical"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn erdos_renyi_valid(n in 4usize..80, seed in 0u64..1000) {
        let max_edges = n * (n - 1) / 2;
        let m = max_edges.min(3 * n);
        let t = erdos_renyi(n, m, &mut seeded_rng(seed));
        check_generator(&t)?;
        prop_assert_eq!(t.snapshot_at_fraction(1.0).num_edges(), m);
        let t2 = erdos_renyi(n, m, &mut seeded_rng(seed));
        check_byte_determinism(&t, &t2)?;
    }

    #[test]
    fn barabasi_albert_valid(n in 6usize..100, k in 1usize..4, seed in 0u64..1000) {
        prop_assume!(n > k + 1);
        let t = barabasi_albert(n, k, &mut seeded_rng(seed));
        check_generator(&t)?;
        // Connected by construction.
        let g = t.snapshot_at_fraction(1.0);
        let comps = cp_graph::components::components(&g);
        prop_assert_eq!(comps.num_components(), 1);
        let t2 = barabasi_albert(n, k, &mut seeded_rng(seed));
        check_byte_determinism(&t, &t2)?;
    }

    #[test]
    fn watts_strogatz_valid(n in 10usize..80, beta in 0.0f64..1.0, seed in 0u64..1000) {
        let t = watts_strogatz(n, 4, beta, &mut seeded_rng(seed));
        check_generator(&t)?;
        let t2 = watts_strogatz(n, 4, beta, &mut seeded_rng(seed));
        check_byte_determinism(&t, &t2)?;
    }

    #[test]
    fn forest_fire_valid(n in 2usize..80, p in 0.0f64..0.6, seed in 0u64..1000) {
        let t = forest_fire(n, p, &mut seeded_rng(seed));
        check_generator(&t)?;
        let t2 = forest_fire(n, p, &mut seeded_rng(seed));
        check_byte_determinism(&t, &t2)?;
    }

    #[test]
    fn sbm_valid(n in 20usize..150, communities in 1usize..6, seed in 0u64..1000) {
        let params = SbmParams { n, communities, intra_degree: 4.0, inter_degree: 1.0 };
        let t = sbm(params, &mut seeded_rng(seed));
        check_generator(&t)?;
        let t2 = sbm(params, &mut seeded_rng(seed));
        check_byte_determinism(&t, &t2)?;
    }

    #[test]
    fn affiliation_valid(members in 20usize..150, groups in 1usize..40, seed in 0u64..1000) {
        let params = AffiliationParams {
            members,
            groups,
            group_min: 2,
            group_max: 6,
            newcomer_prob: 0.4,
        };
        let t = affiliation(params, &mut seeded_rng(seed));
        check_generator(&t)?;
        let t2 = affiliation(params, &mut seeded_rng(seed));
        check_byte_determinism(&t, &t2)?;
    }

    #[test]
    fn core_tendril_valid(n in 30usize..160, seed in 0u64..1000) {
        let params = CoreTendrilParams {
            n,
            ..CoreTendrilParams::default()
        };
        let t = core_tendril(params, &mut seeded_rng(seed));
        check_generator(&t)?;
        let t2 = core_tendril(params, &mut seeded_rng(seed));
        check_byte_determinism(&t, &t2)?;
    }

    #[test]
    fn ring_sbm_valid(n in 30usize..160, communities in 3usize..8, seed in 0u64..1000) {
        let params = RingSbmParams {
            n,
            communities,
            intra_degree: 4.0,
            adjacent_degree: 1.5,
            far_degree: 0.3,
        };
        let t = ring_sbm(params, &mut seeded_rng(seed));
        check_generator(&t)?;
        let t2 = ring_sbm(params, &mut seeded_rng(seed));
        check_byte_determinism(&t, &t2)?;
    }

    #[test]
    fn locality_pa_valid(n in 30usize..160, seed in 0u64..1000) {
        let params = LocalityPaParams {
            n,
            edges_per_node: 2,
            window: 16,
            global_prob: 0.15,
            peering_frac: 0.2,
            peering_global_prob: 0.1,
        };
        let t = locality_pa(params, &mut seeded_rng(seed));
        check_generator(&t)?;
        let t2 = locality_pa(params, &mut seeded_rng(seed));
        check_byte_determinism(&t, &t2)?;
    }
}
