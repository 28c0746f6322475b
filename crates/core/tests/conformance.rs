//! Differential conformance of the pipeline's runtime optimizations.
//!
//! The contract: the thread fan-out, the multi-source waves, the bounded
//! staging of batched passes and the blocked Δ-scan are pure wall-clock
//! optimizations. Pipeline **results** — pairs, candidate set, budget
//! ledger — are bit-identical at any thread count, on every synthetic
//! evolving-graph generator in `cp-gen`. Candidates and ledger must
//! reproduce the 1-thread run exactly; pairs must equal
//! [`reference::reference_pairs`] — the per-element Δ loop over scalar-BFS
//! rows of those candidates.
//!
//! A second family of checks anchors the pipeline to ground truth: the
//! exact all-pairs solver vs. the unbudgeted Incidence baseline, which by
//! construction finds exactly the converging pairs touching an active
//! node (an endpoint of a new edge); and the exact solver itself vs. a
//! per-source BFS (Dijkstra when weighted) brute force at several thread
//! counts, including the shapes of the active set `A` its source lists
//! are built from: empty, every node, nodes new in `G_t2`, and non-growth
//! snapshots where `A` falls back to every node.

use cp_core::exact::{exact_top_k, sort_pairs, ConvergingPair, TopKSpec};
use cp_core::oracle::SnapshotOracle;
use cp_core::selectors::{active_nodes, incidence_full, SelectorKind};
use cp_core::topk::{run_pipeline, BudgetedResult};
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
use cp_graph::bfs::bfs;
use cp_graph::builder::graph_from_edges;
use cp_graph::dijkstra::dijkstra;
use cp_graph::{distance_decrease, Graph, NodeId, TemporalGraph};
use proptest::prelude::*;
use reference::reference_pairs;
use std::collections::HashMap;

mod reference;

/// One small evolving graph per cp-gen generator.
fn generator_cases() -> Vec<(&'static str, TemporalGraph)> {
    vec![
        ("erdos_renyi", erdos_renyi(60, 140, &mut seeded_rng(7))),
        (
            "barabasi_albert",
            barabasi_albert(70, 2, &mut seeded_rng(11)),
        ),
        (
            "watts_strogatz",
            watts_strogatz(64, 4, 0.2, &mut seeded_rng(13)),
        ),
        ("forest_fire", forest_fire(60, 0.35, &mut seeded_rng(17))),
        (
            "sbm",
            sbm(
                SbmParams {
                    n: 80,
                    communities: 4,
                    intra_degree: 5.0,
                    inter_degree: 1.0,
                },
                &mut seeded_rng(19),
            ),
        ),
        (
            "affiliation",
            affiliation(
                AffiliationParams {
                    members: 60,
                    groups: 18,
                    group_min: 2,
                    group_max: 6,
                    newcomer_prob: 0.4,
                },
                &mut seeded_rng(23),
            ),
        ),
        (
            "core_tendril",
            core_tendril(
                CoreTendrilParams {
                    n: 80,
                    ..CoreTendrilParams::default()
                },
                &mut seeded_rng(29),
            ),
        ),
        (
            "ring_sbm",
            ring_sbm(
                RingSbmParams {
                    n: 80,
                    communities: 4,
                    intra_degree: 5.0,
                    adjacent_degree: 1.5,
                    far_degree: 0.3,
                },
                &mut seeded_rng(31),
            ),
        ),
        (
            "locality_pa",
            locality_pa(
                LocalityPaParams {
                    n: 70,
                    edges_per_node: 2,
                    window: 16,
                    global_prob: 0.15,
                    peering_frac: 0.2,
                    peering_global_prob: 0.1,
                },
                &mut seeded_rng(37),
            ),
        ),
    ]
}

fn run_config(
    g1: &Graph,
    g2: &Graph,
    kind: SelectorKind,
    m: u64,
    spec: &TopKSpec,
    threads: usize,
) -> BudgetedResult {
    let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * m).with_threads(threads);
    let mut sel = kind.build(3);
    run_pipeline(&mut oracle, sel.as_mut(), spec)
}

/// The full differential matrix: every spec shape × threads {1,2,8}
/// against the reference pairs and the 1-thread run, on every generator.
#[test]
fn pipeline_is_invariant_across_the_cache_matrix() {
    let specs = [
        TopKSpec::TopK(10),
        TopKSpec::Threshold { delta_min: 2 },
        TopKSpec::ThresholdFromMax { slack: 1 },
    ];
    for (name, t) in generator_cases() {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        for kind in [SelectorKind::Degree, SelectorKind::Mmsd { landmarks: 3 }] {
            for spec in &specs {
                for m in [4u64, 12] {
                    let reference = run_config(&g1, &g2, kind, m, spec, 1);
                    let want = reference_pairs(&g1, &g2, &reference.candidates, spec);
                    for threads in [1usize, 2, 8] {
                        let got = run_config(&g1, &g2, kind, m, spec, threads);
                        let ctx =
                            format!("{name}/{}/{spec:?}/m={m}/threads={threads}", kind.name());
                        assert_eq!(got.pairs, want, "pairs diverge: {ctx}");
                        assert_eq!(
                            got.candidates, reference.candidates,
                            "candidates diverge: {ctx}"
                        );
                        assert_eq!(got.budget, reference.budget, "ledger diverges: {ctx}");
                        // Stats stay coherent in every configuration:
                        // charged rows add up to the ledger.
                        assert_eq!(
                            got.stats.kernel_rows(),
                            got.budget.total(),
                            "kernel counters diverge from the ledger: {ctx}"
                        );
                    }
                }
            }
        }
    }
}

/// Ground truth anchoring: the unbudgeted Incidence baseline must find
/// exactly the exact solver's pairs that touch an active node — same
/// pairs, same Δ values. (Pairs with both endpoints inactive are invisible
/// to Incidence by design; the paper's Table 6 coverage gap.)
#[test]
fn incidence_baseline_matches_exact_ground_truth() {
    let spec = TopKSpec::Threshold { delta_min: 1 };
    for (name, t) in generator_cases() {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        let exact = exact_top_k(&g1, &g2, &spec, 2);
        let full = incidence_full(&g1, &g2, &spec);
        let active: std::collections::HashSet<NodeId> =
            active_nodes(&g1, &g2).into_iter().collect();
        let expected: HashMap<(NodeId, NodeId), u32> = exact
            .pairs
            .iter()
            .filter(|p| active.contains(&p.pair.0) || active.contains(&p.pair.1))
            .map(|p| (p.pair, p.delta))
            .collect();
        let got: HashMap<(NodeId, NodeId), u32> = full
            .result
            .pairs
            .iter()
            .map(|p| (p.pair, p.delta))
            .collect();
        assert_eq!(got, expected, "{name}: Incidence vs exact ground truth");
        // Sanity: the generators actually produce converging pairs here,
        // so the assertion above is not vacuous.
        assert!(
            !exact.pairs.is_empty(),
            "{name}: no converging pairs generated"
        );
    }
}

/// The Δ-scan matrix: threads {1,2,8} × every spec shape. The blocked
/// kernel's chunk skipping and rising floors must reproduce the reference
/// per-element loop ([`reference_pairs`]) and never change candidates or
/// the ledger of the 1-thread run.
#[test]
fn scan_kernel_is_invariant_across_the_matrix() {
    let specs = [
        TopKSpec::TopK(10),
        TopKSpec::ThresholdFromMax { slack: 1 },
        TopKSpec::Threshold { delta_min: 2 },
    ];
    let degree = SelectorKind::Degree;
    for (name, t) in generator_cases() {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        for spec in &specs {
            let reference = run_config(&g1, &g2, degree, 12, spec, 1);
            let want = reference_pairs(&g1, &g2, &reference.candidates, spec);
            for threads in [1usize, 2, 8] {
                let got = run_config(&g1, &g2, degree, 12, spec, threads);
                let ctx = format!("{name}/{spec:?}/threads={threads}");
                assert_eq!(got.pairs, want, "pairs diverge: {ctx}");
                assert_eq!(
                    got.candidates, reference.candidates,
                    "candidates diverge: {ctx}"
                );
                assert_eq!(got.budget, reference.budget, "ledger diverges: {ctx}");
                if !got.candidates.is_empty() {
                    assert!(
                        got.stats.scan_chunks_scanned + got.stats.scan_chunks_skipped > 0,
                        "blocked kernel saw no chunks: {ctx}"
                    );
                }
            }
        }
    }
}

/// A generated snapshot pair for the exact-truth property: `n` nodes,
/// `G_t1` edges among the first `old` nodes only (so nodes `old..n` are
/// new in `G_t2`), and extra `G_t2` edges anywhere in the universe.
type ExactCase = (usize, usize, Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Strategy for [`ExactCase`]: `n` from sizes that straddle the inline
/// cutoff (32 sources) and the edges of a 64-source wave. `G_t1` gets at
/// most `n` edges, so it is routinely disconnected.
fn exact_case() -> impl Strategy<Value = ExactCase> {
    const SIZES: [usize; 7] = [0, 1, 31, 63, 64, 65, 130];
    (0..SIZES.len()).prop_flat_map(|i| {
        let n = SIZES[i];
        (0..=n).prop_flat_map(move |old| {
            let (n32, old32) = (n as u32, old.max(1) as u32);
            let base = prop::collection::vec((0..old32, 0..old32), 0..=n.min(old * 2));
            let extra = prop::collection::vec((0..n32.max(1), 0..n32.max(1)), 0..=n / 4);
            (Just(n), Just(old), base, extra)
        })
    })
}

/// The reference answer, built from per-source `bfs` rows (`dijkstra`
/// rows when weighted) of both snapshots: every pair `u < v` connected in
/// `G_t1` with its Δ, cut by `spec` the way the answer contract defines
/// it.
fn brute_force_exact(g1: &Graph, g2: &Graph, spec: &TopKSpec) -> (Vec<ConvergingPair>, u32, u32) {
    let n = g1.num_nodes();
    let row = |g: &Graph, u: usize| {
        if g.is_weighted() {
            dijkstra(g, NodeId::new(u))
        } else {
            bfs(g, NodeId::new(u))
        }
    };
    let mut all = Vec::new();
    let mut delta_max = 0;
    for u in 0..n {
        let (d1, d2) = (row(g1, u), row(g2, u));
        for v in u + 1..n {
            if let Some(delta) = distance_decrease(d1[v], d2[v]) {
                delta_max = delta_max.max(delta);
                if delta >= 1 {
                    all.push(ConvergingPair::new(NodeId::new(u), NodeId::new(v), delta));
                }
            }
        }
    }
    let floor = match spec {
        TopKSpec::Threshold { delta_min } => (*delta_min).max(1),
        TopKSpec::ThresholdFromMax { slack } => delta_max.saturating_sub(*slack).max(1),
        TopKSpec::TopK(_) => 1,
    };
    all.retain(|p| p.delta >= floor);
    sort_pairs(&mut all);
    if let TopKSpec::TopK(k) = spec {
        all.truncate(*k);
    }
    let delta_min = all.last().map_or(0, |p| p.delta);
    (all, delta_max, delta_min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The exact truth (fused MS-BFS waves) equals the per-source BFS
    /// brute force for every spec shape, bit for bit, at 1, 2 and 8
    /// threads — on disconnected `G_t1`s and with nodes new in `G_t2`.
    #[test]
    fn exact_truth_matches_brute_force_reference((n, _old, base, extra) in exact_case()) {
        let g1 = graph_from_edges(n, &base);
        let all: Vec<(u32, u32)> = base.iter().chain(&extra).copied().collect();
        let g2 = graph_from_edges(n, &all);
        let specs = [
            TopKSpec::TopK(0),
            TopKSpec::TopK(25),
            TopKSpec::Threshold { delta_min: 1 },
            TopKSpec::Threshold { delta_min: 3 },
            TopKSpec::ThresholdFromMax { slack: 0 },
            TopKSpec::ThresholdFromMax { slack: 2 },
        ];
        for spec in &specs {
            let (pairs, delta_max, delta_min) = brute_force_exact(&g1, &g2, spec);
            for threads in [1usize, 2, 8] {
                let got = exact_top_k(&g1, &g2, spec, threads);
                let ctx = format!("n={n} {spec:?} threads={threads}");
                prop_assert_eq!(&got.pairs, &pairs, "pairs diverge: {}", ctx);
                prop_assert_eq!(got.delta_max, delta_max, "Δmax diverges: {}", ctx);
                prop_assert_eq!(got.delta_min, delta_min, "Δmin diverges: {}", ctx);
            }
        }
    }
}

/// Every spec shape of the exact-truth property.
const EXACT_SPECS: [TopKSpec; 7] = [
    TopKSpec::TopK(0),
    TopKSpec::TopK(25),
    TopKSpec::Threshold { delta_min: 1 },
    TopKSpec::Threshold { delta_min: 3 },
    TopKSpec::ThresholdFromMax { slack: 0 },
    TopKSpec::ThresholdFromMax { slack: 1 },
    TopKSpec::ThresholdFromMax { slack: 2 },
];

/// Holds `exact_top_k` to the brute force on one snapshot pair, for every
/// spec shape at 1, 2 and 8 threads. Returns the sources it swept.
fn assert_exact_matches_brute_force(name: &str, g1: &Graph, g2: &Graph) -> usize {
    let mut swept = None;
    for spec in &EXACT_SPECS {
        let (pairs, delta_max, delta_min) = brute_force_exact(g1, g2, spec);
        for threads in [1usize, 2, 8] {
            let got = exact_top_k(g1, g2, spec, threads);
            let ctx = format!("{name} {spec:?} threads={threads}");
            assert_eq!(got.pairs, pairs, "pairs diverge: {ctx}");
            assert_eq!(got.delta_max, delta_max, "Δmax diverges: {ctx}");
            assert_eq!(got.delta_min, delta_min, "Δmin diverges: {ctx}");
            assert!(got.sources_swept <= g1.num_nodes(), "{ctx}");
            if matches!(spec, TopKSpec::ThresholdFromMax { slack: 1 }) {
                swept = Some(got.sources_swept);
            }
        }
    }
    swept.expect("the spec list holds ThresholdFromMax { slack: 1 }")
}

/// A weighted snapshot from `(u, v, w)` triples.
fn weighted_graph(n: usize, edges: &[(u32, u32, u32)]) -> Graph {
    let mut b = cp_graph::GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_weighted_edge(NodeId(u), NodeId(v), w);
    }
    b.build()
}

/// The active-set shapes on every generator: `A` empty (`G_t2 = G_t1`),
/// with nodes new in `G_t2` (an early cut), and every node (each node
/// gains an edge, or an edge is removed so the pair is not growth-only). The exact truth equals the brute force in
/// each, and the sweep is as wide as the shape says.
#[test]
fn exact_truth_matches_brute_force_on_active_set_shapes() {
    for (name, t) in generator_cases() {
        let n = t.num_nodes();
        let (g1, same) = t.snapshot_pair(0.7, 0.7);
        let swept = assert_exact_matches_brute_force(&format!("{name}/A empty"), &g1, &same);
        assert_eq!(swept, 0, "{name}: G_t2 = G_t1 swept a source");

        let (g1, g2) = t.snapshot_pair(0.3, 1.0);
        assert!(
            (0..n).any(|x| g1.degree(NodeId::new(x)) == 0 && g2.degree(NodeId::new(x)) > 0),
            "{name}: the early cut has no node new in G_t2"
        );
        assert_exact_matches_brute_force(&format!("{name}/new nodes"), &g1, &g2);

        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        // Growth with every node active: one new edge at each node.
        let mut edges: Vec<(u32, u32)> = g2.edges().map(|(u, v)| (u.0, v.0)).collect();
        let base: Vec<(u32, u32)> = g1.edges().map(|(u, v)| (u.0, v.0)).collect();
        for u in 0..n {
            let v = (1..n)
                .map(|d| (u + n / 2 + d) % n)
                .find(|&v| v != u && !g1.has_edge(NodeId::new(u), NodeId::new(v)))
                .expect("the generator graphs are not complete");
            edges.push((u as u32, v as u32));
        }
        let everywhere = graph_from_edges(n, &edges);
        let swept = assert_exact_matches_brute_force(&format!("{name}/A = V"), &g1, &everywhere);
        assert_eq!(swept, n, "{name}: A = V swept fewer than n sources");

        // Non-growth: G_t2 drops one of G_t1's edges.
        let dropped: Vec<(u32, u32)> = edges.iter().copied().filter(|&e| e != base[0]).collect();
        let shrunk = graph_from_edges(n, &dropped);
        let swept = assert_exact_matches_brute_force(&format!("{name}/edge removed"), &g1, &shrunk);
        assert_eq!(swept, n, "{name}: a removed edge must sweep every source");
    }
}

/// Weighted snapshots: growth-only (the active-set sweep, against a
/// Dijkstra brute force) and a weight change (non-growth: every source).
#[test]
fn exact_truth_matches_brute_force_on_weighted_snapshots() {
    let n = 40u32;
    let path: Vec<(u32, u32, u32)> = (0..n - 1).map(|i| (i, i + 1, 1 + i % 3)).collect();
    let g1 = weighted_graph(n as usize, &path);
    let mut grown = path.clone();
    grown.extend([(0, 20, 2), (7, 33, 1), (12, 39, 4)]);
    let g2 = weighted_graph(n as usize, &grown);
    let swept = assert_exact_matches_brute_force("weighted growth", &g1, &g2);
    assert!(swept < n as usize, "weighted growth swept every source");

    let mut reweighted = grown.clone();
    reweighted[5].2 += 3;
    let g2 = weighted_graph(n as usize, &reweighted);
    let swept = assert_exact_matches_brute_force("weight change", &g1, &g2);
    assert_eq!(swept, n as usize, "a weight change must sweep every source");
}

/// A late cut leaves few new edges: the exact truth sweeps the active
/// set and the nodes it certifies, not every source, and still equals the
/// brute force. A regression to the all-sources sweep fails here.
#[test]
fn small_active_set_sweeps_fewer_than_n_sources() {
    let mut certified = 0;
    for (name, t) in generator_cases() {
        let (g1, g2) = t.snapshot_pair(0.9, 1.0);
        let n = g1.num_nodes();
        let active = active_nodes(&g1, &g2).len();
        let swept = assert_exact_matches_brute_force(&format!("{name}/late cut"), &g1, &g2);
        assert!(swept >= active, "{name}: swept {swept} < |A| = {active}");
        assert!(
            swept < n,
            "{name}: swept all {n} sources with |A| = {active}"
        );
        certified += swept - active;
    }
    assert!(
        certified > 0,
        "no late cut ran a certified (phase 2) source"
    );
}

/// Weighted snapshots must keep full-width rows — Dijkstra distances can
/// exceed `u16` — while the pipeline still reproduces the reference pairs
/// (Dijkstra rows, per-element Δ loop) on them.
#[test]
fn weighted_rows_take_the_u32_arena_path() {
    let weighted = |extra: &[(u32, u32, u32)]| {
        let mut b = cp_graph::GraphBuilder::new(16);
        for i in 0..15u32 {
            b.add_weighted_edge(NodeId(i), NodeId(i + 1), 2 + i % 4);
        }
        for &(u, v, w) in extra {
            b.add_weighted_edge(NodeId(u), NodeId(v), w);
        }
        b.build()
    };
    let g1 = weighted(&[]);
    let g2 = weighted(&[(0, 15, 1), (4, 11, 2)]);
    let spec = TopKSpec::ThresholdFromMax { slack: 1 };
    let degree = SelectorKind::Degree;
    let reference = run_config(&g1, &g2, degree, 8, &spec, 1);
    let want = reference_pairs(&g1, &g2, &reference.candidates, &spec);
    for threads in [1, 2] {
        let got = run_config(&g1, &g2, degree, 8, &spec, threads);
        let ctx = format!("threads={threads}");
        assert_eq!(got.pairs, want, "{ctx}");
        assert_eq!(got.candidates, reference.candidates, "{ctx}");
        assert_eq!(
            got.stats.arena.u16_rows, 0,
            "weighted rows must not be packed"
        );
        assert!(got.stats.arena.u32_rows > 0, "u32 arena must hold the rows");
    }
    assert!(!want.is_empty(), "weighted case must not be vacuous");
}

/// The exact solver's top-k cut is reproduced by the budgeted pipeline
/// when the budget covers every node — full recovery.
#[test]
fn full_budget_recovers_exact_top_k_under_any_cache() {
    for (name, t) in generator_cases().into_iter().take(4) {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        let spec = TopKSpec::TopK(10);
        let exact = exact_top_k(&g1, &g2, &spec, 2);
        let n = g1.num_nodes() as u64;
        let got = run_config(&g1, &g2, SelectorKind::Degree, n, &spec, 2);
        assert_eq!(
            got.pairs, exact.pairs,
            "{name}: full-budget pipeline must recover the exact top-k"
        );
    }
}
