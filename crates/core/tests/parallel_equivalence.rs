//! Determinism of the parallel pipeline: the thread count configured on
//! the oracle may not change *what* is computed — pairs, candidate set,
//! and budget ledger are bit-identical at any worker count, because budget
//! admission is sequential and BFS levels are uniquely determined by the
//! graph; only the SSSP fan-out, the wave batching, and the Δ scan differ.
//! Rows and pairs are also held to the scalar-BFS / per-element-loop
//! references of `reference/mod.rs`.

use cp_core::exact::TopKSpec;
use cp_core::oracle::{RowCacheBudget, Snapshot, SnapshotOracle};
use cp_core::selectors::{new_edge_importance, SelectorKind};
use cp_core::topk::{run_pipeline, BudgetedResult};
use cp_exec::Executor;
use cp_gen::datasets::{DatasetKind, DatasetProfile};
use cp_graph::betweenness::{betweenness_exact, Betweenness};
use cp_graph::builder::graph_from_edges;
use cp_graph::rowpack::{widen_u16_into, RowRef};
use cp_graph::{Graph, GraphBuilder, NodeId, TemporalGraph};
use proptest::prelude::*;
use reference::{reference_pairs, reference_row};
use std::sync::Arc;

mod reference;

/// A generated case: node count, base edges, extra edges.
type SnapshotPairCase = (usize, Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Strategy: a growing snapshot pair — a base edge list plus extra edges.
/// Larger than the cases in `properties.rs` so the parallel cutoffs
/// (`PARALLEL_ROW_CUTOFF`, `PARALLEL_SCAN_CUTOFF`) are actually crossed.
fn snapshot_pair(n: u32) -> impl Strategy<Value = SnapshotPairCase> {
    (8..=n).prop_flat_map(move |nodes| {
        let base = prop::collection::vec((0..nodes, 0..nodes), 1..120);
        let extra = prop::collection::vec((0..nodes, 0..nodes), 0..40);
        (Just(nodes as usize), base, extra)
    })
}

fn build_graphs(case: &SnapshotPairCase) -> (Graph, Graph) {
    let (n, base, extra) = case;
    let g1 = graph_from_edges(*n, base);
    let all: Vec<(u32, u32)> = base.iter().chain(extra.iter()).copied().collect();
    let g2 = graph_from_edges(*n, &all);
    (g1, g2)
}

fn run_with_threads(
    g1: &Graph,
    g2: &Graph,
    kind: SelectorKind,
    m: u64,
    spec: &TopKSpec,
    seed: u64,
    threads: usize,
) -> BudgetedResult {
    let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * m).with_threads(threads);
    let mut sel = kind.build(seed);
    run_pipeline(&mut oracle, sel.as_mut(), spec)
}

/// Asserts that every cached row of `u` in `oracle` equals the reference
/// row (scalar BFS, or Dijkstra on weighted snapshots).
fn assert_rows_match_reference(
    oracle: &SnapshotOracle<'_>,
    g1: &Graph,
    g2: &Graph,
    u: NodeId,
    ctx: &str,
) {
    for (which, g) in [(Snapshot::First, g1), (Snapshot::Second, g2)] {
        let got = match oracle
            .cached_row(which, u)
            .expect("prefetched row is resident")
        {
            RowRef::U32(r) => r.to_vec(),
            RowRef::U16(p) => {
                let mut wide = Vec::new();
                widen_u16_into(p, &mut wide);
                wide
            }
        };
        assert_eq!(
            got,
            reference_row(g, u),
            "{ctx}: row of {u} diverges in {which:?}"
        );
    }
}

const SELECTORS: [SelectorKind; 6] = [
    SelectorKind::Degree,
    SelectorKind::MaxAvg,
    SelectorKind::SumDiff { landmarks: 3 },
    SelectorKind::Mmsd { landmarks: 3 },
    SelectorKind::Random,
    SelectorKind::IncBet,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipeline_is_thread_invariant(
        case in snapshot_pair(40),
        m in 1u64..24,
        seed in 0u64..8,
    ) {
        let (g1, g2) = build_graphs(&case);
        let spec = TopKSpec::ThresholdFromMax { slack: 1 };
        for kind in SELECTORS {
            let baseline = run_with_threads(&g1, &g2, kind, m, &spec, seed, 1);
            prop_assert!(
                baseline.budget.total() <= 2 * m,
                "{} overspent: {} > {}", kind.name(), baseline.budget.total(), 2 * m
            );
            for threads in [2usize, 8] {
                let parallel = run_with_threads(&g1, &g2, kind, m, &spec, seed, threads);
                prop_assert_eq!(
                    &parallel.pairs, &baseline.pairs,
                    "{} pairs diverge at {} threads", kind.name(), threads
                );
                prop_assert_eq!(
                    &parallel.candidates, &baseline.candidates,
                    "{} candidates diverge at {} threads", kind.name(), threads
                );
                prop_assert_eq!(
                    parallel.budget, baseline.budget,
                    "{} ledger diverges at {} threads", kind.name(), threads
                );
            }
        }
    }

    #[test]
    fn top_k_spec_is_thread_invariant(
        case in snapshot_pair(32),
        m in 1u64..16,
        k in 1usize..20,
    ) {
        let (g1, g2) = build_graphs(&case);
        let spec = TopKSpec::TopK(k);
        let baseline = run_with_threads(&g1, &g2, SelectorKind::MaxMin, m, &spec, 0, 1);
        for threads in [2usize, 8] {
            let parallel = run_with_threads(&g1, &g2, SelectorKind::MaxMin, m, &spec, 0, threads);
            prop_assert_eq!(&parallel.pairs, &baseline.pairs);
            prop_assert_eq!(&parallel.candidates, &baseline.candidates);
            prop_assert_eq!(parallel.budget, baseline.budget);
        }
    }

    /// The runtime kernels vs the references: pairs equal the
    /// per-element Δ loop over scalar-BFS rows of the candidates, and
    /// candidates and ledger equal the 1-thread run, at every thread count.
    #[test]
    fn pipeline_is_kernel_invariant(
        case in snapshot_pair(40),
        m in 1u64..24,
        seed in 0u64..8,
    ) {
        let (g1, g2) = build_graphs(&case);
        let spec = TopKSpec::ThresholdFromMax { slack: 1 };
        for kind in SELECTORS {
            let single = run_with_threads(&g1, &g2, kind, m, &spec, seed, 1);
            let want = reference_pairs(&g1, &g2, &single.candidates, &spec);
            for threads in [1usize, 2, 8] {
                let got = run_with_threads(&g1, &g2, kind, m, &spec, seed, threads);
                prop_assert_eq!(
                    &got.pairs, &want,
                    "{} pairs diverge from the reference ({} threads)", kind.name(), threads
                );
                prop_assert_eq!(
                    &got.candidates, &single.candidates,
                    "{} candidates diverge ({} threads)", kind.name(), threads
                );
                prop_assert_eq!(
                    got.budget, single.budget,
                    "{} ledger diverges ({} threads)", kind.name(), threads
                );
            }
        }
    }

    /// Executor axis: a dedicated injected pool must reproduce the
    /// global pool's output bit-for-bit, and a single pool must serve
    /// several consecutive pipeline runs without respawning workers.
    #[test]
    fn pipeline_is_executor_invariant(
        case in snapshot_pair(40),
        m in 1u64..24,
        seed in 0u64..8,
    ) {
        let (g1, g2) = build_graphs(&case);
        let spec = TopKSpec::ThresholdFromMax { slack: 1 };
        for kind in [SelectorKind::Degree, SelectorKind::Mmsd { landmarks: 3 }] {
            let baseline = run_with_threads(&g1, &g2, kind, m, &spec, seed, 1);
            for threads in [2usize, 8] {
                let pool = Arc::new(Executor::new(threads));
                let mut spawned_after_first = None;
                for round in 0..3 {
                    let mut oracle = SnapshotOracle::with_budget(&g1, &g2, 2 * m)
                        .with_threads(threads)
                        .with_executor(Arc::clone(&pool));
                    let mut sel = kind.build(seed);
                    let got = run_pipeline(&mut oracle, sel.as_mut(), &spec);
                    prop_assert_eq!(
                        &got.pairs, &baseline.pairs,
                        "{} pairs diverge on a dedicated pool ({} threads, round {})",
                        kind.name(), threads, round
                    );
                    prop_assert_eq!(
                        &got.candidates, &baseline.candidates,
                        "{} candidates diverge on a dedicated pool ({} threads, round {})",
                        kind.name(), threads, round
                    );
                    prop_assert_eq!(
                        got.budget, baseline.budget,
                        "{} ledger diverges on a dedicated pool ({} threads, round {})",
                        kind.name(), threads, round
                    );
                    let spawned = pool.stats().workers_spawned;
                    prop_assert!(
                        spawned < threads as u64,
                        "the caller works a lane itself: at most {} pool workers, got {}",
                        threads - 1, spawned
                    );
                    match spawned_after_first {
                        None => spawned_after_first = Some(spawned),
                        Some(first) => prop_assert_eq!(
                            spawned, first,
                            "pool respawned workers between identical runs"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn unbounded_oracle_is_thread_invariant(case in snapshot_pair(24)) {
        let (g1, g2) = build_graphs(&case);
        let spec = TopKSpec::Threshold { delta_min: 1 };
        let run = |threads: usize| {
            let mut oracle = SnapshotOracle::unbounded(&g1, &g2).with_threads(threads);
            let mut sel = SelectorKind::Degree.build(0);
            run_pipeline(&mut oracle, sel.as_mut(), &spec)
        };
        let baseline = run(1);
        for threads in [2usize, 8] {
            let parallel = run(threads);
            prop_assert_eq!(&parallel.pairs, &baseline.pairs);
            prop_assert_eq!(&parallel.candidates, &baseline.candidates);
            prop_assert_eq!(parallel.budget, baseline.budget);
        }
    }
}

/// A 70-node pair of snapshots, big enough that a 65-node batch spans a
/// full 64-wide wave plus a remainder: a 10×7 grid in `g1`, with diagonal
/// chords added in `g2`.
fn grid_snapshots() -> (Graph, Graph) {
    let n = 70usize;
    let (w, h) = (10u32, 7u32);
    let id = |x: u32, y: u32| y * w + x;
    let mut base: Vec<(u32, u32)> = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                base.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                base.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    let g1 = graph_from_edges(n, &base);
    let mut all = base;
    for y in 0..h - 1 {
        for x in 0..w - 1 {
            if (x + y) % 3 == 0 {
                all.push((id(x, y), id(x + 1, y + 1)));
            }
        }
    }
    let g2 = graph_from_edges(n, &all);
    (g1, g2)
}

/// Explicit batch widths {1, 64, 65} through `prefetch_node_rows`: every
/// row the oracle caches must equal the scalar-BFS reference row, the
/// report and ledger must match a 1-thread oracle's, and the wave counters
/// must reflect the planned chunking.
#[test]
fn prefetch_batch_widths_are_kernel_invariant() {
    let (g1, g2) = grid_snapshots();
    for width in [1usize, 64, 65] {
        let nodes: Vec<NodeId> = (0..width as u32).map(NodeId).collect();
        // The row checks below read resident rows, so pin the cache on
        // against the environment (the CI matrix sets CP_ROW_CACHE=0).
        let mut single = SnapshotOracle::unbounded(&g1, &g2)
            .with_threads(1)
            .with_row_cache(RowCacheBudget::Unbounded);
        let mut auto = SnapshotOracle::unbounded(&g1, &g2)
            .with_row_cache(RowCacheBudget::Unbounded)
            .with_threads(4);
        let rs = single.prefetch_node_rows(&nodes);
        let ra = auto.prefetch_node_rows(&nodes);
        assert_eq!(rs, ra, "width {width}: prefetch reports diverge");
        assert_eq!(single.ledger(), auto.ledger(), "width {width}");
        for &u in &nodes {
            assert_rows_match_reference(&auto, &g1, &g2, u, &format!("width {width}"));
        }
        let ks = auto.kernel_stats();
        // Each snapshot's batch of `width` sources is chunked into
        // ceil(width / 64) waves on its own; single-row remainders go to
        // plain BFS.
        let (waves, wave_rows, bfs_rows) = match width {
            1 => (0, 0, 2),
            64 => (2, 128, 0),
            65 => (2, 128, 2),
            _ => unreachable!(),
        };
        assert_eq!(ks.msbfs_waves, waves, "width {width}");
        assert_eq!(ks.msbfs_rows, wave_rows, "width {width}");
        assert_eq!(ks.bfs_rows, bfs_rows, "width {width}");
        assert_eq!(
            ks.rows(),
            auto.ledger().total(),
            "width {width}: row counters must add up to the ledger"
        );
        assert_eq!(
            single.kernel_stats(),
            ks,
            "width {width}: planning is thread-invariant"
        );
    }
}

/// Weighted snapshots always fall back to Dijkstra: the oracle plans no
/// waves and every row equals the reference Dijkstra row.
#[test]
fn weighted_snapshots_fall_back_to_dijkstra() {
    let weighted = |extra: &[(u32, u32, u32)]| {
        let mut b = GraphBuilder::new(12);
        for i in 0..11u32 {
            b.add_weighted_edge(NodeId(i), NodeId(i + 1), 2 + i % 3);
        }
        for &(u, v, w) in extra {
            b.add_weighted_edge(NodeId(u), NodeId(v), w);
        }
        b.build()
    };
    let g1 = weighted(&[]);
    let g2 = weighted(&[(0, 11, 1), (3, 8, 2)]);
    assert!(g1.is_weighted() && g2.is_weighted());
    let nodes: Vec<NodeId> = (0..12).map(NodeId).collect();
    // The row checks below read resident rows, so pin the cache on
    // regardless of the environment's CP_ROW_CACHE.
    let mut auto = SnapshotOracle::unbounded(&g1, &g2)
        .with_row_cache(RowCacheBudget::Unbounded)
        .with_threads(4);
    auto.prefetch_node_rows(&nodes);
    for &u in &nodes {
        assert_rows_match_reference(&auto, &g1, &g2, u, "weighted");
    }
    let ks = auto.kernel_stats();
    assert_eq!(ks.msbfs_waves, 0, "weighted graphs must not plan waves");
    assert_eq!(ks.msbfs_rows, 0);
    assert_eq!(ks.bfs_rows, 0);
    // Every row of both snapshots is one Dijkstra sweep.
    assert_eq!(ks.dijkstra_rows, 24);
    assert_eq!(ks.rows(), auto.ledger().total());
}

/// Spawn-once across prefetch batches: one injected pool serves three
/// consecutive wide prefetch fan-outs, `workers_spawned` settles after
/// the first batch and never moves again, every cached row equals the
/// scalar-BFS reference row, and reports and ledger match a single-thread
/// oracle's.
#[test]
fn injected_pool_is_reused_across_prefetch_batches() {
    let (g1, g2) = grid_snapshots();
    let pool = Arc::new(Executor::new(4));
    let mut single = SnapshotOracle::unbounded(&g1, &g2)
        .with_threads(1)
        .with_row_cache(RowCacheBudget::Unbounded);
    let mut auto = SnapshotOracle::unbounded(&g1, &g2)
        .with_row_cache(RowCacheBudget::Unbounded)
        .with_threads(4)
        .with_executor(Arc::clone(&pool));
    // Three disjoint 20-node batches, each wide enough to cross
    // PARALLEL_ROW_CUTOFF and fan out on the pool.
    let mut spawned_after_first = 0;
    for batch in 0..3u32 {
        let nodes: Vec<NodeId> = (batch * 20..(batch + 1) * 20).map(NodeId).collect();
        let rs = single.prefetch_node_rows(&nodes);
        let ra = auto.prefetch_node_rows(&nodes);
        assert_eq!(rs, ra, "batch {batch}: prefetch reports diverge");
        for &u in &nodes {
            assert_rows_match_reference(&auto, &g1, &g2, u, &format!("batch {batch}"));
        }
        let stats = pool.stats();
        assert!(
            stats.workers_spawned < 4,
            "the caller works a lane itself: at most 3 pool workers"
        );
        if batch == 0 {
            spawned_after_first = stats.workers_spawned;
        } else {
            assert_eq!(
                stats.workers_spawned, spawned_after_first,
                "batch {batch}: the pool respawned workers"
            );
        }
        assert!(stats.batches_run > u64::from(batch));
    }
    assert_eq!(single.ledger(), auto.ledger());
}

/// Brandes edge betweenness is bit-identical at every thread count: its
/// fixed-point reduction makes the sum independent of which lane swept
/// which source. Checked on the `G_t2` snapshot of all four emulators.
#[test]
fn betweenness_is_bit_identical_across_thread_counts() {
    fn bits(b: &Betweenness) -> Vec<u64> {
        b.edge.iter().map(|x| x.to_bits()).collect()
    }
    for kind in DatasetKind::ALL {
        let (_, g2) = DatasetProfile::scaled(kind, 0.05).eval_pair(42);
        let exact = bits(&betweenness_exact(&g2, 1));
        for threads in [2, 3, 8] {
            assert!(
                bits(&betweenness_exact(&g2, threads)) == exact,
                "{}: exact betweenness differs at {threads} threads",
                kind.name()
            );
        }
    }
}

/// IncBet scores only the new edges: every active node's importance from
/// the masked kernel is the same `f64` as summing the all-edges
/// `betweenness_exact` scores of its new edges in the same order. One
/// new-edge pass gives both the mask and the active set. Checked on the
/// eval pair of all four emulators at 1, 2 and 8 threads.
#[test]
fn incbet_importance_matches_all_edges_betweenness() {
    for kind in DatasetKind::ALL {
        let (g1, g2) = DatasetProfile::scaled(kind, 0.05).eval_pair(42);
        let new_edges = TemporalGraph::new_edges_between(&g1, &g2);
        let mut active: Vec<NodeId> = new_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        active.sort_unstable();
        active.dedup();
        assert!(!active.is_empty(), "{}: no new edges", kind.name());
        for threads in [1, 2, 8] {
            let all = betweenness_exact(&g2, threads);
            let mut importance = vec![0.0f64; g2.num_nodes()];
            for &(u, v) in &new_edges {
                let score = all.edge[g2.edge_id(u, v).unwrap() as usize];
                importance[u.index()] += score;
                importance[v.index()] += score;
            }
            let want: Vec<u64> = active
                .iter()
                .map(|&u| importance[u.index()].to_bits())
                .collect();
            let (got_active, got) = new_edge_importance(&g1, &g2, threads);
            assert_eq!(got_active, active, "{}: active sets differ", kind.name());
            let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert!(
                got == want,
                "{}: masked importance differs at {threads} threads",
                kind.name()
            );
        }
    }
}

/// A panicking task must poison only its batch: the panic re-throws on
/// the submitter (loudly, not as a deadlock or a silent wrong answer)
/// and the same pool then serves a full pipeline correctly.
#[test]
fn pool_survives_a_panicking_batch() {
    let pool = Arc::new(Executor::new(4));
    let mut slots = vec![0u32; 64];
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(&mut slots, 4, |i, _slot, _ctx| {
            if i == 17 {
                panic!("injected task failure");
            }
        });
    }));
    assert!(caught.is_err(), "the task panic must re-throw, not vanish");

    let (g1, g2) = grid_snapshots();
    let spec = TopKSpec::ThresholdFromMax { slack: 1 };
    let baseline = run_with_threads(&g1, &g2, SelectorKind::Degree, 12, &spec, 3, 1);
    let mut oracle = SnapshotOracle::with_budget(&g1, &g2, 24)
        .with_threads(4)
        .with_executor(Arc::clone(&pool));
    let mut sel = SelectorKind::Degree.build(3);
    let got = run_pipeline(&mut oracle, sel.as_mut(), &spec);
    assert_eq!(got.pairs, baseline.pairs, "pairs diverge after a panic");
    assert_eq!(
        got.candidates, baseline.candidates,
        "candidates diverge after a panic"
    );
    assert_eq!(got.budget, baseline.budget, "ledger diverges after a panic");
}
