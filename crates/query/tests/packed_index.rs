//! The packed epoch index answers exactly as the reference read path.
//!
//! `cp-query` serves from dense row slots and node-major landmark records
//! (`cp_stream::QueryIndex`); `reference/` keeps the plain read path it
//! replaced — hash-mapped `u32` rows, row-major landmark indexes built by
//! fresh SSSPs, the full-sweep seed certificate and a full sort cut to
//! `k`. Every `distance`, `delta` and `topk_for_seed(u, k ∈ {0, 1, 10,
//! n})` answer must be equal, not merely sound:
//!
//! * across generators × row cache {0, tiny, ∞} × threads {1, 8};
//! * as a property over arbitrary growing streams;
//! * on three edge cases: `u32` rows on a universe past 65 535 nodes,
//!   landmark sums past 65 535 on a long path, and epochs without
//!   landmarks.
//!
//! It also holds the landmark bounds independent of the row cache: the
//! landmarks are the first nodes paid in both snapshots, whether or not
//! their rows stayed resident.

use cp_core::exact::TopKSpec;
use cp_core::oracle::{RowCacheBudget, Snapshot, SnapshotOracle};
use cp_core::selectors::SelectorKind;
use cp_core::topk::BudgetedResult;
use cp_gen::ba::barabasi_albert;
use cp_gen::forest_fire::forest_fire;
use cp_gen::seeded_rng;
use cp_gen::ws::watts_strogatz;
use cp_graph::builder::graph_from_edges;
use cp_graph::landmark_index::LandmarkIndex;
use cp_graph::rowpack::RowRef;
use cp_graph::{Graph, NodeId, TemporalGraph, INF};
use cp_query::{Answer, EpochView};
use cp_stream::{QueryIndex, StreamConfig, StreamEngine, StreamError, StreamSnapshot};
use proptest::prelude::*;
use reference::{all_pairs_below, ReferenceView};
use std::sync::Arc;

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

/// The three row-cache legs of a universe of `n` nodes.
fn caches(n: usize) -> [RowCacheBudget; 3] {
    [
        RowCacheBudget::Bytes(0),
        RowCacheBudget::Bytes(3 * 4 * n),
        RowCacheBudget::Unbounded,
    ]
}

/// What the compared answers exercised, so no leg passes vacuously.
#[derive(Debug, Default)]
struct Tally {
    /// Distance answers bracketed by landmarks alone.
    landmark_bounded: u64,
    /// Seeds resident in both snapshots.
    resident_seeds: u64,
    /// Non-resident seeds the landmark walk ruled out or gave up on.
    walked_seeds: u64,
}

/// Holds every answer of `view` to the reference on the pairs and seeds
/// among `probe`.
fn assert_equal(
    view: &EpochView,
    reference: &ReferenceView,
    probe: &[NodeId],
    tally: &mut Tally,
    ctx: &str,
) {
    let q = &view.snapshot().query;
    let n = q.num_nodes();
    for &u in probe {
        for &v in probe {
            let d = view.distance(u, v);
            assert_eq!(d, reference.distance(u, v), "distance({u}, {v}): {ctx}");
            assert_eq!(
                view.delta(u, v),
                reference.delta(u, v),
                "delta({u}, {v}): {ctx}"
            );
            let resident = |w| q.row(Snapshot::Second, w).is_some();
            if !resident(u) && !resident(v) && matches!(d, Answer::Bounded { .. }) {
                tally.landmark_bounded += 1;
            }
        }
        let both = q.row(Snapshot::First, u).is_some() && q.row(Snapshot::Second, u).is_some();
        if both {
            tally.resident_seeds += 1;
        } else {
            tally.walked_seeds += 1;
        }
        for k in [0, 1, 10, n] {
            assert_eq!(
                view.topk_for_seed(u, k),
                reference.topk_for_seed(u, k),
                "topk_for_seed({u}, {k}): {ctx}"
            );
        }
    }
}

/// Every node of a universe.
fn all_nodes(n: usize) -> Vec<NodeId> {
    (0..n).map(NodeId::new).collect()
}

/// Runs a stream over generator `t` cut at `cuts` and checks every epoch
/// against the reference.
fn check_stream(t: &TemporalGraph, cuts: &[f64], cfg: StreamConfig, tally: &mut Tally, ctx: &str) {
    let prefix = |f: f64| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events());
    let mut engine = StreamEngine::from_snapshot(&t.snapshot_of_prefix(prefix(cuts[0])), cfg);
    for w in cuts.windows(2) {
        let g1 = Arc::clone(&engine.latest().graph);
        feed(&mut engine, t, prefix(w[0]), prefix(w[1]));
        let epoch = engine.review();
        let reference = ReferenceView::new(&epoch.query, &g1, &epoch.graph);
        let probe = all_nodes(epoch.graph.num_nodes());
        let ctx = format!("{ctx}/review={}", epoch.review);
        assert_equal(&EpochView::of(epoch), &reference, &probe, tally, &ctx);
    }
}

#[test]
fn answers_equal_the_reference_across_the_matrix() {
    let mut tally = Tally::default();
    for (name, t) in generator_cases() {
        for cache in caches(t.num_nodes()) {
            for threads in [1, 8] {
                let mut cfg = StreamConfig::new(
                    8,
                    SelectorKind::Mmsd { landmarks: 3 },
                    TopKSpec::ThresholdFromMax { slack: 1 },
                    3,
                );
                cfg.row_cache = Some(cache);
                cfg.threads = Some(threads);
                let ctx = format!("{name}/cache={cache:?}/threads={threads}");
                check_stream(&t, &[0.6, 0.8, 1.0], cfg, &mut tally, &ctx);
            }
        }
    }
    assert!(tally.landmark_bounded > 0, "vacuous: {tally:?}");
    assert!(tally.resident_seeds > 0, "vacuous: {tally:?}");
    assert!(tally.walked_seeds > 0, "vacuous: {tally:?}");
}

/// Strategy: a growing random edge list over up to `n` nodes.
fn edge_list(n: u32, max_edges: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4..=n).prop_flat_map(move |nodes| {
        let edges = prop::collection::vec((0..nodes, 0..nodes), 8..max_edges);
        (Just(nodes as usize), edges)
    })
}

proptest! {
    /// On arbitrary growing streams, under any cache leg and at one or
    /// eight threads, every answer equals the reference.
    #[test]
    fn answers_equal_the_reference_on_arbitrary_streams(
        (n, edges) in edge_list(28, 80),
        cut in 1usize..4,
        m in 2u64..10,
        cache in 0usize..3,
        wide in any::<bool>(),
    ) {
        let t = TemporalGraph::from_sequence(
            n,
            edges.iter().map(|&(u, v)| (NodeId(u), NodeId(v))),
        );
        let mut cfg = StreamConfig::new(
            m,
            SelectorKind::SumDiff { landmarks: 2 },
            TopKSpec::ThresholdFromMax { slack: 1 },
            9,
        );
        cfg.row_cache = Some(caches(n)[cache]);
        cfg.threads = Some(if wide { 8 } else { 1 });
        let ctx = format!("n={n} m={m} cache={cache} wide={wide}");
        let first = cut as f64 / 5.0;
        check_stream(&t, &[first, (first + 1.0) / 2.0, 1.0], cfg, &mut Tally::default(), &ctx);
    }
}

/// A published epoch over `g2` serving `index` (the review's oracle driven
/// by hand rather than by a pipeline run).
fn epoch_of(g2: &Graph, index: QueryIndex) -> EpochView {
    EpochView::of(Arc::new(StreamSnapshot {
        review: 1,
        graph: Arc::new(g2.clone()),
        result: BudgetedResult {
            pairs: Vec::new(),
            candidates: Vec::new(),
            budget: Default::default(),
            stats: Default::default(),
        },
        events: Vec::new(),
        stats: Default::default(),
        query: Arc::new(index),
    }))
}

/// Past 65 535 nodes rows and landmark records are `u32`; the answers
/// still equal the reference, isolated nodes included.
#[test]
fn a_universe_past_u16_serves_u32_rows_like_the_reference() {
    let n = 70_000;
    let active: Vec<u32> = (0..40).chain(69_980..70_000).collect();
    let path: Vec<(u32, u32)> = active.windows(2).map(|w| (w[0], w[1])).collect();
    let g1 = graph_from_edges(n, &path);
    let mut grown = path;
    grown.extend([(active[0], active[30]), (active[10], active[55])]);
    let g2 = graph_from_edges(n, &grown);
    let mut oracle = SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Unbounded);
    for &u in active.iter().step_by(7) {
        oracle.rows(NodeId(u)).unwrap();
    }
    oracle.row(Snapshot::Second, NodeId(active[3])).unwrap();
    let index = QueryIndex::capture(&oracle);
    assert!(matches!(
        index.row(Snapshot::Second, NodeId(active[0])),
        Some(RowRef::U32(_))
    ));
    assert_eq!(index.landmarks().len(), active.len().div_ceil(7));
    let reference = ReferenceView::new(&index, &g1, &g2);
    let view = epoch_of(&g2, index);
    let mut probe: Vec<NodeId> = active.iter().map(|&u| NodeId(u)).collect();
    probe.extend([NodeId(100), NodeId(50_000), NodeId(69_000)]);
    let mut tally = Tally::default();
    assert_equal(&view, &reference, &probe, &mut tally, "u32 universe");
    assert!(
        tally.landmark_bounded > 0 && tally.resident_seeds > 0,
        "{tally:?}"
    );
}

/// On a 40 000-node path with landmarks at both ends, the sum of a pair's
/// distances to landmark 0 passes 65 535. The `u16` records must sum in
/// `u32`: wrapped, 67 000 would read as 1 464 and undercut the true upper
/// bound 12 998 through the other end.
#[test]
fn long_path_landmark_sums_past_u16_stay_exact() {
    let n = 40_000u32;
    let path: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let g1 = graph_from_edges(n as usize, &path);
    let mut grown = path;
    grown.push((39_000, 39_990));
    let g2 = graph_from_edges(n as usize, &grown);
    let mut oracle = SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Unbounded);
    oracle.rows(NodeId(0)).unwrap();
    oracle.rows(NodeId(n - 1)).unwrap();
    let index = QueryIndex::capture(&oracle);
    assert_eq!(index.landmarks(), &[NodeId(0), NodeId(n - 1)]);
    assert!(matches!(
        index.row(Snapshot::First, NodeId(0)),
        Some(RowRef::U16(_))
    ));
    let (u, v) = (NodeId(33_000), NodeId(34_000));
    assert_eq!(
        index.landmark_bounds(Snapshot::First, u, v),
        (1_000, 12_998)
    );
    let l = index.landmarks().to_vec();
    assert_eq!(
        LandmarkIndex::build(&g1, &l).bounds(u, v),
        (1_000, 12_998),
        "the row-major reference agrees"
    );
    // The chord near the far end shortens the route through it.
    assert_eq!(
        index.landmark_bounds(Snapshot::Second, u, v),
        (1_000, 11_020)
    );
    assert_eq!(LandmarkIndex::build(&g2, &l).bounds(u, v), (1_000, 11_020));
    let reference = ReferenceView::new(&index, &g1, &g2);
    let view = epoch_of(&g2, index);
    assert_eq!(
        view.distance(u, v),
        Answer::Bounded {
            lb: 1_000,
            ub: 11_020
        }
    );
    let mut probe: Vec<NodeId> = (0..n).step_by(1_999).map(NodeId).collect();
    probe.extend([u, v, NodeId(39_500), NodeId(n - 1)]);
    assert_equal(
        &view,
        &reference,
        &probe,
        &mut Tally::default(),
        "long path",
    );
}

/// An epoch with no landmark — the pre-first-review epoch, or a review
/// that paid no node in both snapshots — answers from its rows alone.
#[test]
fn epochs_without_landmarks_match_the_reference() {
    let base: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
    let g1 = graph_from_edges(10, &base);
    let mut all = base;
    all.push((0, 9));
    let g2 = graph_from_edges(10, &all);
    let probe = all_nodes(10);

    let cfg = StreamConfig::new(
        4,
        SelectorKind::Degree,
        TopKSpec::ThresholdFromMax { slack: 0 },
        1,
    );
    let epoch0 = StreamEngine::from_snapshot(&g1, cfg).latest();
    assert!(epoch0.query.is_empty());
    let reference = ReferenceView::new(&epoch0.query, &g1, &g1);
    let mut tally = Tally::default();
    assert_equal(
        &EpochView::of(epoch0),
        &reference,
        &probe,
        &mut tally,
        "epoch 0",
    );

    let mut oracle = SnapshotOracle::unbounded(&g1, &g2);
    oracle.row(Snapshot::Second, NodeId(3)).unwrap();
    oracle.row(Snapshot::First, NodeId(7)).unwrap();
    let index = QueryIndex::capture(&oracle);
    assert!(index.landmarks().is_empty());
    assert_eq!(index.resident_rows(), (1, 1));
    let reference = ReferenceView::new(&index, &g1, &g2);
    let view = epoch_of(&g2, index);
    assert_equal(&view, &reference, &probe, &mut tally, "one-sided rows");
    assert_eq!(view.distance(NodeId(3), NodeId(9)), Answer::Exact(4));
    assert_eq!(view.distance(NodeId(1), NodeId(2)), Answer::Unknown);
    // Row of 7 in G_t1, row of 3 in G_t2: Δ(3, 7) is exact.
    assert_eq!(view.delta(NodeId(3), NodeId(7)), Answer::Exact(0));
    assert!(!view.topk_for_seed(NodeId(3), 5).complete);
}

/// The same stream under a zero, a tiny and an unbounded row cache
/// publishes the same landmarks and the same landmark-only answers every
/// review: the landmarks are paid rows, and an evicted one is recomputed
/// for the records instead of dropped.
#[test]
fn landmark_bounds_do_not_depend_on_the_row_cache() {
    let cuts = [0.6, 0.8, 1.0];
    for (name, t) in generator_cases() {
        let n = t.num_nodes();
        let prefix = |f: f64| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events());
        let mut engines: Vec<StreamEngine> = caches(n)
            .into_iter()
            .map(|cache| {
                let mut cfg = StreamConfig::new(
                    8,
                    SelectorKind::Mmsd { landmarks: 3 },
                    TopKSpec::ThresholdFromMax { slack: 1 },
                    3,
                );
                cfg.row_cache = Some(cache);
                StreamEngine::from_snapshot(&t.snapshot_of_prefix(prefix(cuts[0])), cfg)
            })
            .collect();
        for w in cuts.windows(2) {
            let epochs: Vec<Arc<StreamSnapshot>> = engines
                .iter_mut()
                .map(|e| {
                    feed(e, &t, prefix(w[0]), prefix(w[1]));
                    e.review()
                })
                .collect();
            let ctx = format!("{name}/review={}", epochs[0].review);
            let (zero, rest) = epochs.split_first().unwrap();
            let q0 = &zero.query;
            assert!(!q0.landmarks().is_empty(), "no landmark at all: {ctx}");
            let views: Vec<EpochView> = epochs.iter().cloned().map(EpochView::of).collect();
            // A pair no leg holds a row for is answered by landmarks alone.
            let unheld = |u: NodeId, v: NodeId| {
                epochs.iter().all(|e| {
                    [Snapshot::First, Snapshot::Second].iter().all(|&which| {
                        e.query.row(which, u).is_none() && e.query.row(which, v).is_none()
                    })
                })
            };
            for other in rest {
                let q = &other.query;
                assert_eq!(q.landmarks(), q0.landmarks(), "landmark ids: {ctx}");
                for u in all_nodes(n) {
                    assert_eq!(q.rules_out_seed(u), q0.rules_out_seed(u), "{u}: {ctx}");
                    for v in all_nodes(n) {
                        assert_eq!(
                            q.landmark_bounds_both(u, v),
                            q0.landmark_bounds_both(u, v),
                            "({u}, {v}): {ctx}"
                        );
                    }
                }
            }
            let mut bounded = 0;
            for u in all_nodes(n) {
                for v in all_nodes(n) {
                    if u == v || !unheld(u, v) {
                        continue;
                    }
                    let d = views[0].distance(u, v);
                    for view in &views[1..] {
                        assert_eq!(view.distance(u, v), d, "{ctx}");
                        assert_eq!(view.delta(u, v), views[0].delta(u, v), "{ctx}");
                    }
                    bounded += u64::from(matches!(d, Answer::Bounded { .. }));
                }
            }
            assert!(bounded > 0, "no landmark-only pair was bracketed: {ctx}");
        }
    }
}

/// The reference certificate itself, against brute-force probes.
#[test]
fn all_pairs_below_matches_bruteforce() {
    let base: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
    let g1 = graph_from_edges(10, &base);
    let mut all = base;
    all.push((0, 9));
    let g2 = graph_from_edges(10, &all);
    let l = [NodeId(0), NodeId(9)];
    let (i1, i2) = (LandmarkIndex::build(&g1, &l), LandmarkIndex::build(&g2, &l));
    let (mut ub1, mut lb2) = (Vec::new(), Vec::new());
    for floor in [1u32, 2, 5] {
        for u in (0..10u32).map(NodeId) {
            let brute = (0..10u32).map(NodeId).all(|v| {
                if v == u {
                    return true;
                }
                let ub = i1.upper_bound(u, v);
                let lb = i2.lower_bound(u, v);
                lb == INF || (ub != INF && ub.saturating_sub(lb) < floor)
            });
            assert_eq!(
                all_pairs_below(&i1, &i2, u, floor, &mut ub1, &mut lb2),
                brute,
                "u={u:?} floor={floor}"
            );
        }
    }
}
