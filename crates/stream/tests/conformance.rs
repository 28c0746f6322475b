//! Streaming conformance: the engine is a *serving shape*, not a new
//! algorithm. Every review's visible output — pairs, candidate set, budget
//! ledger — must be bit-identical to a from-scratch budgeted pipeline run
//! on the same snapshot pair with the same seed (1 thread), and its pairs
//! must equal the per-element reference loop over scalar-BFS rows, at
//! every thread count, with review-to-review donor chaining on or off.
//! Chaining is a pure wall-clock optimization.

use cp_core::exact::TopKSpec;
use cp_core::oracle::SnapshotOracle;
use cp_core::selectors::SelectorKind;
use cp_core::topk::{run_pipeline, BudgetedResult};
use cp_gen::ba::barabasi_albert;
use cp_gen::forest_fire::forest_fire;
use cp_gen::seeded_rng;
use cp_gen::ws::watts_strogatz;
use cp_graph::builder::graph_from_edges;
use cp_graph::{Graph, NodeId, TemporalGraph};
use cp_stream::{StreamConfig, StreamEngine, StreamError, StreamSnapshot};
use proptest::prelude::*;
use reference::reference_pairs;
use std::sync::Arc;

#[path = "../../core/tests/reference/mod.rs"]
mod reference;

/// A few small evolving graphs with different growth shapes.
fn generator_cases() -> Vec<(&'static str, TemporalGraph)> {
    vec![
        (
            "barabasi_albert",
            barabasi_albert(70, 2, &mut seeded_rng(11)),
        ),
        (
            "watts_strogatz",
            watts_strogatz(64, 4, 0.2, &mut seeded_rng(13)),
        ),
        ("forest_fire", forest_fire(60, 0.35, &mut seeded_rng(17))),
    ]
}

/// Feeds the events between two prefix cuts into the engine, skipping the
/// announcements a snapshot would drop anyway (duplicates, self-loops).
fn feed(engine: &mut StreamEngine, t: &TemporalGraph, from: usize, to: usize) {
    for &e in &t.events()[from..to] {
        match engine.ingest(e) {
            Ok(_) | Err(StreamError::DuplicateEdge { .. }) | Err(StreamError::SelfLoop { .. }) => {}
            Err(err) => panic!("sorted generator stream was rejected: {err}"),
        }
    }
}

/// The from-scratch reference: a fresh single-thread oracle with the
/// engine's per-review seed convention.
fn reference(g1: &Graph, g2: &Graph, cfg: &StreamConfig, review: u32) -> BudgetedResult {
    let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * cfg.m).with_threads(1);
    let mut sel = cfg.selector.build(cfg.seed.wrapping_add(review as u64));
    run_pipeline(&mut oracle, sel.as_mut(), &cfg.spec)
}

fn assert_review_matches(
    got: &StreamSnapshot,
    g1: &Graph,
    want: &BudgetedResult,
    spec: &TopKSpec,
    ctx: &str,
) {
    let pairs = reference_pairs(g1, &got.graph, &want.candidates, spec);
    assert_eq!(
        got.result.pairs, pairs,
        "pairs diverge from the reference: {ctx}"
    );
    assert_eq!(got.result.pairs, want.pairs, "pairs diverge: {ctx}");
    assert_eq!(
        got.result.candidates, want.candidates,
        "candidates diverge: {ctx}"
    );
    assert_eq!(got.result.budget, want.budget, "ledger diverges: {ctx}");
    // Charged rows add up to the ledger in every configuration — donor
    // chain hits included.
    assert_eq!(
        got.result.stats.kernel_rows(),
        got.result.budget.total(),
        "kernel counters diverge from the ledger: {ctx}"
    );
}

/// The full streaming matrix: every review of an engine run (chaining on)
/// reproduces the from-scratch pipeline and the reference pairs
/// bit-for-bit under threads {1, 2, 8}. The chained reviews import their donors from one-byte
/// epochs, widened to the oracle's `u16` rows in the import's copy.
#[test]
fn engine_reviews_match_from_scratch_pipeline_across_the_matrix() {
    let cuts = [0.6, 0.7, 0.8, 0.9, 1.0];
    let mut chained_reviews = 0;
    for (name, t) in generator_cases() {
        let prefix = |f: f64| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events());
        for threads in [1usize, 2, 8] {
            let mut cfg = StreamConfig::new(
                8,
                SelectorKind::Mmsd { landmarks: 3 },
                TopKSpec::ThresholdFromMax { slack: 1 },
                3,
            );
            cfg.threads = Some(threads);
            let mut engine =
                StreamEngine::from_snapshot(&t.snapshot_of_prefix(prefix(cuts[0])), cfg);
            for w in cuts.windows(2) {
                let (f1, f2) = (prefix(w[0]), prefix(w[1]));
                let g1 = t.snapshot_of_prefix(f1);
                let g2 = t.snapshot_of_prefix(f2);
                feed(&mut engine, &t, f1, f2);
                let donor_width = engine.latest().query.width_bytes();
                let epoch = engine.review();
                assert_eq!(*epoch.graph, g2, "engine snapshot drifted");
                let want = reference(&g1, &g2, &cfg, epoch.review);
                let ctx = format!("{name}/review={}/threads={threads}", epoch.review);
                assert_review_matches(&epoch, &g1, &want, &cfg.spec, &ctx);
                // The donors came from a one-byte epoch, so every chain
                // hit above went through the widening import.
                if epoch.stats.donor_rows_imported > 0 {
                    assert_eq!(donor_width, 1, "{ctx}");
                    chained_reviews += 1;
                }
            }
        }
    }
    assert!(chained_reviews > 0, "no review imported a donor row");
}

/// Executor axis: an engine with a dedicated injected pool reviews
/// bit-identically to one on the implicit global pool, the same pool
/// serves every review (≥3) without respawning workers, and the
/// submitting thread keeps working a lane itself (fewer pool workers
/// than the configured width).
#[test]
fn injected_pool_serves_every_review_without_respawning() {
    let cuts = [0.6, 0.7, 0.8, 0.9, 1.0];
    for (name, t) in generator_cases() {
        let prefix = |f: f64| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events());
        let mut cfg = StreamConfig::new(
            8,
            SelectorKind::Mmsd { landmarks: 3 },
            TopKSpec::ThresholdFromMax { slack: 1 },
            3,
        );
        cfg.threads = Some(4);
        let pool = Arc::new(cp_exec::Executor::new(4));
        let start = t.snapshot_of_prefix(prefix(cuts[0]));
        let mut pooled = StreamEngine::from_snapshot(&start, cfg);
        pooled.set_executor(Arc::clone(&pool));
        let mut global = StreamEngine::from_snapshot(&start, cfg);
        let mut spawned_after_first = None;
        for (review, w) in cuts.windows(2).enumerate() {
            let (f1, f2) = (prefix(w[0]), prefix(w[1]));
            feed(&mut pooled, &t, f1, f2);
            feed(&mut global, &t, f1, f2);
            let got = pooled.review();
            let want = global.review();
            let ctx = format!("{name}/review={review}");
            assert_eq!(
                got.result.pairs, want.result.pairs,
                "pairs diverge on a dedicated pool: {ctx}"
            );
            assert_eq!(
                got.result.candidates, want.result.candidates,
                "candidates diverge on a dedicated pool: {ctx}"
            );
            assert_eq!(
                got.result.budget, want.result.budget,
                "ledger diverges on a dedicated pool: {ctx}"
            );
            let spawned = pool.stats().workers_spawned;
            assert!(
                spawned < 4,
                "{ctx}: the caller works a lane itself — at most 3 pool workers, got {spawned}"
            );
            match spawned_after_first {
                None => spawned_after_first = Some(spawned),
                Some(first) => assert_eq!(
                    spawned, first,
                    "{ctx}: the pool respawned workers between reviews"
                ),
            }
        }
        assert_eq!(pooled.reviews(), 4, "every cut must have been reviewed");
    }
}

/// Chaining on vs chaining off: identical epochs review by review, and the
/// chain actually fires (some review serves charges from imported donors)
/// so the equality is not vacuous.
#[test]
fn chaining_never_changes_visible_output_and_actually_fires() {
    let mut chain_fired = false;
    for (name, t) in generator_cases() {
        let prefix = |f: f64| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events());
        let cuts = [0.6, 0.7, 0.8, 0.9, 1.0];
        let base = StreamConfig::new(
            10,
            SelectorKind::Degree,
            TopKSpec::ThresholdFromMax { slack: 1 },
            7,
        );
        let mut chained = StreamEngine::from_snapshot(
            &t.snapshot_of_prefix(prefix(cuts[0])),
            base.with_chaining(true),
        );
        let mut rebuilt = StreamEngine::from_snapshot(
            &t.snapshot_of_prefix(prefix(cuts[0])),
            base.with_chaining(false),
        );
        for w in cuts.windows(2) {
            let (f1, f2) = (prefix(w[0]), prefix(w[1]));
            feed(&mut chained, &t, f1, f2);
            feed(&mut rebuilt, &t, f1, f2);
            assert_eq!(chained.latest().query.width_bytes(), 1, "{name}");
            let a: Arc<StreamSnapshot> = chained.review();
            let b = rebuilt.review();
            let ctx = format!("{name}/review={}", a.review);
            assert_eq!(a.result.pairs, b.result.pairs, "pairs diverge: {ctx}");
            assert_eq!(
                a.result.candidates, b.result.candidates,
                "candidates diverge: {ctx}"
            );
            assert_eq!(a.result.budget, b.result.budget, "ledger diverges: {ctx}");
            assert_eq!(
                b.stats.donor_rows_imported, 0,
                "chain-off engine must not import donors: {ctx}"
            );
            chain_fired |= a.stats.donor_chain_hits > 0;
        }
    }
    assert!(
        chain_fired,
        "no review ever used a chained donor — the A/B comparison is vacuous"
    );
}

/// Strategy: a growing random edge list over up to `n` nodes.
fn edge_list(n: u32, max_edges: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4..=n).prop_flat_map(move |nodes| {
        let edges = prop::collection::vec((0..nodes, 0..nodes), 8..max_edges);
        (Just(nodes as usize), edges)
    })
}

proptest! {
    /// Chaining property: on arbitrary growing streams cut at
    /// arbitrary points into three reviews, the engine with donor chaining
    /// produces exactly the epochs of the engine without it — pairs,
    /// candidates, and ledger — at every review.
    #[test]
    fn chained_repair_is_output_invariant(
        (n, edges) in edge_list(30, 90),
        cut_a in 2usize..40,
        cut_b in 2usize..40,
    ) {
        let t = TemporalGraph::from_sequence(
            n,
            edges.iter().map(|&(u, v)| (NodeId(u), NodeId(v))),
        );
        let total = t.num_events();
        let mut cuts = [total / 4 + cut_a % (total / 2 + 1), total / 4 + cut_b % (total / 2 + 1), total];
        cuts.sort_unstable();
        let base = StreamConfig::new(
            6,
            SelectorKind::SumDiff { landmarks: 2 },
            TopKSpec::ThresholdFromMax { slack: 1 },
            9,
        );
        let g0 = graph_from_edges(n, &edges[..cuts[0].min(edges.len())]);
        let mut chained = StreamEngine::from_snapshot(&g0, base.with_chaining(true));
        let mut rebuilt = StreamEngine::from_snapshot(&g0, base.with_chaining(false));
        let mut prev = cuts[0];
        for &cut in &cuts[1..] {
            feed(&mut chained, &t, prev, cut);
            feed(&mut rebuilt, &t, prev, cut);
            prev = cut;
            let a = chained.review();
            let b = rebuilt.review();
            prop_assert_eq!(&a.result.pairs, &b.result.pairs, "review {}", a.review);
            prop_assert_eq!(
                &a.result.candidates,
                &b.result.candidates,
                "review {}",
                a.review
            );
            prop_assert_eq!(a.result.budget, b.result.budget, "review {}", a.review);
        }
    }
}
