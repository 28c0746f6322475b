//! Differential conformance of the snapshot-delta row cache.
//!
//! The tentpole's contract: the delta cache is a pure wall-clock
//! optimization. Pipeline **results** — pairs, candidate set, budget
//! ledger — are bit-identical with the cache on or off, at any thread
//! count, under either BFS kernel, and at any resident-row budget, on
//! every synthetic evolving-graph generator in `cp-gen`. The reference
//! configuration is the pre-cache compute path (1 thread, scalar kernel,
//! `RowCacheBudget::Bytes(0)`); every other configuration must reproduce
//! it exactly.
//!
//! A second family of checks anchors the pipeline to ground truth: the
//! exact all-pairs solver vs. the unbudgeted Incidence baseline, which by
//! construction finds exactly the converging pairs touching an active
//! node (an endpoint of a new edge); and the exact solver itself vs. a
//! per-source BFS brute force at several thread counts.

use cp_core::exact::{exact_top_k, sort_pairs, ConvergingPair, TopKSpec};
use cp_core::oracle::{BfsKernel, RowCacheBudget, SnapshotOracle};
use cp_core::scan::ScanKernel;
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
use cp_graph::{distance_decrease, Graph, NodeId, TemporalGraph};
use proptest::prelude::*;
use std::collections::HashMap;

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

#[allow(clippy::too_many_arguments)]
fn run_config(
    g1: &Graph,
    g2: &Graph,
    kind: SelectorKind,
    m: u64,
    spec: &TopKSpec,
    threads: usize,
    kernel: BfsKernel,
    cache: RowCacheBudget,
) -> BudgetedResult {
    let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * m)
        .with_threads(threads)
        .with_kernel(kernel)
        .with_row_cache(cache);
    let mut sel = kind.build(3);
    run_pipeline(&mut oracle, sel.as_mut(), spec)
}

/// The full differential matrix: every spec shape × threads {1,2,8} ×
/// kernels {scalar,auto} × cache budgets {off, tiny, unbounded} against
/// the reference configuration, on every generator. The tiny budget (one
/// row's worth of bytes beyond the pinned pair) forces constant eviction,
/// free recomputation, and donor-miss fallbacks in the repair planner.
/// Some unbounded-cache cell must actually repair, so the cache-on half
/// of the comparison is not vacuous.
#[test]
fn pipeline_is_invariant_across_the_cache_matrix() {
    let mut repaired_somewhere = false;
    let specs = [
        TopKSpec::TopK(10),
        TopKSpec::Threshold { delta_min: 2 },
        TopKSpec::ThresholdFromMax { slack: 1 },
    ];
    for (name, t) in generator_cases() {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        let tiny = RowCacheBudget::Bytes(3 * 4 * g1.num_nodes());
        for kind in [SelectorKind::Degree, SelectorKind::Mmsd { landmarks: 3 }] {
            for spec in &specs {
                for m in [4u64, 12] {
                    let reference = run_config(
                        &g1,
                        &g2,
                        kind,
                        m,
                        spec,
                        1,
                        BfsKernel::Scalar,
                        RowCacheBudget::Bytes(0),
                    );
                    for threads in [1usize, 2, 8] {
                        for kernel in [BfsKernel::Scalar, BfsKernel::Auto] {
                            for cache in [RowCacheBudget::Bytes(0), tiny, RowCacheBudget::Unbounded]
                            {
                                let got =
                                    run_config(&g1, &g2, kind, m, spec, threads, kernel, cache);
                                let ctx = format!(
                                    "{name}/{}/{spec:?}/m={m}/threads={threads}/{}/cache={}",
                                    kind.name(),
                                    kernel.name(),
                                    cache.describe(),
                                );
                                assert_eq!(got.pairs, reference.pairs, "pairs diverge: {ctx}");
                                assert_eq!(
                                    got.candidates, reference.candidates,
                                    "candidates diverge: {ctx}"
                                );
                                assert_eq!(got.budget, reference.budget, "ledger diverges: {ctx}");
                                // Stats stay coherent in every configuration:
                                // charged rows add up to the ledger, and the
                                // disabled cache never repairs.
                                let ks = got.stats.kernel_stats;
                                assert_eq!(
                                    ks.msbfs_rows
                                        + ks.bfs_rows
                                        + ks.dijkstra_rows
                                        + ks.repair_rows
                                        + got.stats.chained_rows,
                                    got.budget.total(),
                                    "kernel counters diverge from the ledger: {ctx}"
                                );
                                if cache == RowCacheBudget::Bytes(0) {
                                    assert_eq!(
                                        got.stats.repaired_rows, 0,
                                        "disabled cache must not repair: {ctx}"
                                    );
                                }
                                if cache == RowCacheBudget::Unbounded {
                                    repaired_somewhere |= got.stats.repaired_rows > 0;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        repaired_somewhere,
        "no unbounded-cache cell ever exercised the repair path"
    );
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

fn run_scan_config(
    g1: &Graph,
    g2: &Graph,
    m: u64,
    spec: &TopKSpec,
    threads: usize,
    scan: ScanKernel,
    cache: RowCacheBudget,
) -> BudgetedResult {
    let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * m)
        .with_threads(threads)
        .with_row_cache(cache)
        .with_scan_kernel(scan);
    let mut sel = SelectorKind::Degree.build(3);
    run_pipeline(&mut oracle, sel.as_mut(), spec)
}

/// The Δ-scan kernel matrix: `CP_SCAN_KERNEL` {scalar, auto} × threads
/// {1,2,8} × cache budgets {off, tiny, 64k, unbounded} × every spec shape,
/// against the reference scan (1 thread, scalar, cache off). The blocked
/// kernel's chunk skipping and rising floors must never change pairs,
/// candidates, or the ledger.
#[test]
fn scan_kernel_is_invariant_across_the_matrix() {
    let specs = [
        TopKSpec::TopK(10),
        TopKSpec::ThresholdFromMax { slack: 1 },
        TopKSpec::Threshold { delta_min: 2 },
    ];
    for (name, t) in generator_cases() {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        // One resident row pair plus change, at the packed (u16) width.
        let tiny = RowCacheBudget::Bytes(3 * 2 * g1.num_nodes());
        for spec in &specs {
            let reference = run_scan_config(
                &g1,
                &g2,
                12,
                spec,
                1,
                ScanKernel::Scalar,
                RowCacheBudget::Bytes(0),
            );
            for threads in [1usize, 2, 8] {
                for scan in [ScanKernel::Scalar, ScanKernel::Auto] {
                    for cache in [
                        RowCacheBudget::Bytes(0),
                        tiny,
                        RowCacheBudget::Bytes(64 * 1024),
                        RowCacheBudget::Unbounded,
                    ] {
                        let got = run_scan_config(&g1, &g2, 12, spec, threads, scan, cache);
                        let ctx = format!(
                            "{name}/{spec:?}/threads={threads}/scan={}/cache={}",
                            scan.name(),
                            cache.describe(),
                        );
                        assert_eq!(got.pairs, reference.pairs, "pairs diverge: {ctx}");
                        assert_eq!(
                            got.candidates, reference.candidates,
                            "candidates diverge: {ctx}"
                        );
                        assert_eq!(got.budget, reference.budget, "ledger diverges: {ctx}");
                        assert_eq!(got.stats.scan_kernel, scan, "kernel not recorded: {ctx}");
                        if scan == ScanKernel::Scalar {
                            // The reference loop neither chunks nor prunes.
                            assert_eq!(got.stats.scan_chunks_scanned, 0, "{ctx}");
                            assert_eq!(got.stats.scan_chunks_skipped, 0, "{ctx}");
                            assert_eq!(got.stats.scan_pairs_pruned, 0, "{ctx}");
                        } else if !got.candidates.is_empty() {
                            assert!(
                                got.stats.scan_chunks_scanned + got.stats.scan_chunks_skipped > 0,
                                "blocked kernel saw no chunks: {ctx}"
                            );
                        }
                    }
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

/// The reference answer, built from per-source `bfs` rows of both
/// snapshots: every pair `u < v` connected in `G_t1` with its Δ, cut by
/// `spec` the way the answer contract defines it.
fn brute_force_exact(g1: &Graph, g2: &Graph, spec: &TopKSpec) -> (Vec<ConvergingPair>, u32, u32) {
    let n = g1.num_nodes();
    let mut all = Vec::new();
    let mut delta_max = 0;
    for u in 0..n {
        let (d1, d2) = (bfs(g1, NodeId::new(u)), bfs(g2, NodeId::new(u)));
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

/// Weighted snapshots must keep full-width rows — Dijkstra distances can
/// exceed `u16` — while the pipeline stays scan-kernel-invariant on them.
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
    let reference = run_scan_config(
        &g1,
        &g2,
        8,
        &spec,
        1,
        ScanKernel::Scalar,
        RowCacheBudget::Bytes(0),
    );
    for scan in [ScanKernel::Scalar, ScanKernel::Auto] {
        let got = run_scan_config(&g1, &g2, 8, &spec, 2, scan, RowCacheBudget::Unbounded);
        assert_eq!(got.pairs, reference.pairs, "scan={}", scan.name());
        assert_eq!(got.candidates, reference.candidates, "scan={}", scan.name());
        assert_eq!(
            got.stats.arena.u16_rows, 0,
            "weighted rows must not be packed"
        );
        assert!(got.stats.arena.u32_rows > 0, "u32 arena must hold the rows");
    }
    assert!(
        !reference.pairs.is_empty(),
        "weighted case must not be vacuous"
    );
}

/// The exact solver's top-k cut is reproduced by the budgeted pipeline
/// when the budget covers every node — full recovery independent of the
/// cache configuration.
#[test]
fn full_budget_recovers_exact_top_k_under_any_cache() {
    for (name, t) in generator_cases().into_iter().take(4) {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        let spec = TopKSpec::TopK(10);
        let exact = exact_top_k(&g1, &g2, &spec, 2);
        let n = g1.num_nodes() as u64;
        for cache in [RowCacheBudget::Bytes(0), RowCacheBudget::Unbounded] {
            let got = run_config(
                &g1,
                &g2,
                SelectorKind::Degree,
                n,
                &spec,
                2,
                BfsKernel::Auto,
                cache,
            );
            assert_eq!(
                got.pairs,
                exact.pairs,
                "{name}/cache={}: full-budget pipeline must recover the exact top-k",
                cache.describe()
            );
        }
    }
}
