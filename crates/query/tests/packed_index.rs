//! The packed epoch index answers exactly as the reference read path.
//!
//! `cp-query` serves from dense row slots and node-major landmark records
//! (`cp_stream::QueryIndex`); `reference/` keeps the plain read path it
//! replaced — hash-mapped `u32` rows, row-major landmark indexes built by
//! fresh SSSPs, the full-sweep seed certificate and a full sort cut to
//! `k`. Every `distance`, `delta` and `topk_for_seed(u, k ∈ {0, 1, 10,
//! n})` answer must be equal, not merely sound:
//!
//! * across generators × threads {1, 8};
//! * as a property over arbitrary growing streams;
//! * on edge cases: short distances on a universe past 65 535 nodes,
//!   landmark sums past 65 535 on a long path, and epochs without
//!   landmarks;
//! * at every storage width: one byte when every captured distance is
//!   below 255, two at 255 (the one-byte sentinel), four for weighted
//!   distances past 65 535.

use cp_core::exact::TopKSpec;
use cp_core::oracle::{Snapshot, SnapshotOracle};
use cp_core::selectors::SelectorKind;
use cp_core::topk::BudgetedResult;
use cp_gen::ba::barabasi_albert;
use cp_gen::forest_fire::forest_fire;
use cp_gen::seeded_rng;
use cp_gen::ws::watts_strogatz;
use cp_graph::builder::{graph_from_edges, GraphBuilder};
use cp_graph::landmark_index::LandmarkIndex;
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
        let ctx = format!("{ctx}/review={}", epoch.review);
        // Small generator graphs: every distance fits one byte.
        assert_eq!(epoch.query.width_bytes(), 1, "{ctx}");
        let reference = ReferenceView::new(&epoch.query, &g1, &epoch.graph);
        let probe = all_nodes(epoch.graph.num_nodes());
        assert_equal(&EpochView::of(epoch), &reference, &probe, tally, &ctx);
    }
}

#[test]
fn answers_equal_the_reference_across_the_matrix() {
    let mut tally = Tally::default();
    for (name, t) in generator_cases() {
        for threads in [1, 8] {
            let mut cfg = StreamConfig::new(
                8,
                SelectorKind::Mmsd { landmarks: 3 },
                TopKSpec::ThresholdFromMax { slack: 1 },
                3,
            );
            cfg.threads = Some(threads);
            let ctx = format!("{name}/threads={threads}");
            check_stream(&t, &[0.6, 0.8, 1.0], cfg, &mut tally, &ctx);
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
    /// On arbitrary growing streams, at one or eight threads, every answer
    /// equals the reference.
    #[test]
    fn answers_equal_the_reference_on_arbitrary_streams(
        (n, edges) in edge_list(28, 80),
        cut in 1usize..4,
        m in 2u64..10,
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
        cfg.threads = Some(if wide { 8 } else { 1 });
        let ctx = format!("n={n} m={m} wide={wide}");
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

/// Past 65 535 nodes, but with every distance below 255: the rows and
/// landmark records are one byte wide, and the answers still equal the
/// reference, isolated nodes included.
#[test]
fn a_universe_past_u16_serves_one_byte_rows_like_the_reference() {
    let n = 70_000;
    let active: Vec<u32> = (0..40).chain(69_980..70_000).collect();
    let path: Vec<(u32, u32)> = active.windows(2).map(|w| (w[0], w[1])).collect();
    let g1 = graph_from_edges(n, &path);
    let mut grown = path;
    grown.extend([(active[0], active[30]), (active[10], active[55])]);
    let g2 = graph_from_edges(n, &grown);
    let mut oracle = SnapshotOracle::unbounded(&g1, &g2);
    for &u in active.iter().step_by(7) {
        oracle.rows(NodeId(u)).unwrap();
    }
    oracle.row(Snapshot::Second, NodeId(active[3])).unwrap();
    let index = QueryIndex::capture(&oracle);
    assert_eq!(index.width_bytes(), 1);
    assert_eq!(index.landmarks().len(), active.len().div_ceil(7));
    let reference = ReferenceView::new(&index, &g1, &g2);
    let view = epoch_of(&g2, index);
    let mut probe: Vec<NodeId> = active.iter().map(|&u| NodeId(u)).collect();
    probe.extend([NodeId(100), NodeId(50_000), NodeId(69_000)]);
    let mut tally = Tally::default();
    assert_equal(&view, &reference, &probe, &mut tally, "70k universe");
    assert!(
        tally.landmark_bounded > 0 && tally.resident_seeds > 0,
        "{tally:?}"
    );
}

/// A path whose far end sits `len − 1` hops from node 0, beside a
/// separate edge `(len, len + 1)`; the second snapshot adds a chord and
/// joins that edge to the midpoint. Node 0 and the midpoint are paid in
/// both snapshots (so they are the landmarks, and in the first snapshot
/// they cut every pair of a path node and an edge node), and one more
/// node in the second snapshot only.
fn path_epoch(len: u32) -> (Graph, Graph, QueryIndex) {
    let mut edges: Vec<(u32, u32)> = (0..len - 1).map(|i| (i, i + 1)).collect();
    edges.push((len, len + 1));
    let g1 = graph_from_edges(len as usize + 2, &edges);
    edges.extend([(len / 4, len / 2), (len / 2, len)]);
    let g2 = graph_from_edges(len as usize + 2, &edges);
    let mut oracle = SnapshotOracle::unbounded(&g1, &g2);
    oracle.rows(NodeId(0)).unwrap();
    oracle.rows(NodeId(len / 2)).unwrap();
    oracle.row(Snapshot::Second, NodeId(len - 3)).unwrap();
    let index = QueryIndex::capture(&oracle);
    (g1, g2, index)
}

/// The width follows the largest captured distance: 254 hops fit one
/// byte, 255 is the one-byte sentinel and takes two. Both widths answer
/// like the reference.
#[test]
fn path_epochs_take_one_byte_up_to_254_hops_and_two_at_255() {
    for (len, width) in [(255, 1), (256, 2)] {
        let (g1, g2, index) = path_epoch(len);
        let ctx = format!("{} hops", len - 1);
        assert_eq!(index.width_bytes(), width, "{ctx}");
        assert_eq!(index.landmarks(), &[NodeId(0), NodeId(len / 2)], "{ctx}");
        let far = NodeId(len - 1);
        let reference = ReferenceView::new(&index, &g1, &g2);
        let view = epoch_of(&g2, index);
        assert_eq!(
            view.snapshot()
                .query
                .resident_distance(Snapshot::First, NodeId(0), far),
            Some(len - 1),
            "{ctx}"
        );
        let mut probe: Vec<NodeId> = (0..len).step_by(9).map(NodeId).collect();
        probe.extend([len / 2, len - 3, len, len + 1].map(NodeId));
        probe.push(far);
        assert_equal(&view, &reference, &probe, &mut Tally::default(), &ctx);
    }
}

/// Weighted snapshots whose distances pass 65 535 keep four bytes per
/// distance, and answer like the reference.
#[test]
fn weighted_distances_past_u16_keep_four_bytes() {
    let weighted = |edges: &[(u32, u32, u32)]| {
        let mut b = GraphBuilder::new(8);
        for &(u, v, w) in edges {
            b.add_weighted_edge(NodeId(u), NodeId(v), w);
        }
        b.build()
    };
    let base = [
        (0, 1, 30_000),
        (1, 2, 30_000),
        (2, 3, 30_000),
        (3, 4, 2),
        (5, 6, 7),
    ];
    let g1 = weighted(&base);
    let mut grown = base.to_vec();
    grown.extend([(0, 3, 40_000), (4, 5, 1)]);
    let g2 = weighted(&grown);
    let mut oracle = SnapshotOracle::unbounded(&g1, &g2);
    oracle.rows(NodeId(0)).unwrap();
    oracle.rows(NodeId(6)).unwrap();
    oracle.row(Snapshot::Second, NodeId(2)).unwrap();
    let index = QueryIndex::capture(&oracle);
    assert_eq!(index.width_bytes(), 4);
    let reference = ReferenceView::new(&index, &g1, &g2);
    let view = epoch_of(&g2, index);
    assert_eq!(view.distance(NodeId(0), NodeId(4)), Answer::Exact(40_002));
    assert_eq!(view.delta(NodeId(0), NodeId(4)), Answer::Exact(50_000));
    let mut tally = Tally::default();
    assert_equal(&view, &reference, &all_nodes(8), &mut tally, "weighted");
    assert!(tally.resident_seeds > 0, "{tally:?}");
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
    let mut oracle = SnapshotOracle::unbounded(&g1, &g2);
    oracle.rows(NodeId(0)).unwrap();
    oracle.rows(NodeId(n - 1)).unwrap();
    let index = QueryIndex::capture(&oracle);
    assert_eq!(index.landmarks(), &[NodeId(0), NodeId(n - 1)]);
    assert_eq!(index.width_bytes(), 2);
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
