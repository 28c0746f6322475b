//! Behaviour scenarios for the query contract, written Given/When/Then.
//! Each scenario is refutable: it names the epoch every answer must come
//! from, the truth every interval must contain and the ledger the reads
//! must leave alone, so one stale pin, unsound bound or charged read
//! fails it.

use cp_core::exact::TopKSpec;
use cp_core::oracle::Snapshot;
use cp_core::selectors::SelectorKind;
use cp_gen::ba::barabasi_albert;
use cp_gen::seeded_rng;
use cp_graph::bfs::bfs;
use cp_graph::builder::graph_from_edges;
use cp_graph::{distance_decrease, Graph, NodeId, TemporalGraph, TimedEdge};
use cp_query::{Answer, EpochView, QueryEngine};
use cp_stream::{StreamConfig, StreamEngine, StreamError, StreamSnapshot};
use std::sync::Arc;

fn edge(u: u32, v: u32, time: u64) -> TimedEdge {
    TimedEdge {
        u: NodeId(u),
        v: NodeId(v),
        time,
    }
}

/// The distance and Δ answers of every pair `(u, v)` with `u < v`.
fn answers(view: &EpochView) -> Vec<(Answer, Answer)> {
    let n = view.snapshot().graph.num_nodes();
    let mut out = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            out.push((view.distance(u, v), view.delta(u, v)));
        }
    }
    out
}

/// Scenario: a pinned view keeps its epoch while the engine moves on.
///
/// **Given** a 10-node path that gained the shortcut `0 – 9` at review 1,
/// with every row resident
/// **And** an `EpochView` pinned on review 1, with its answer to every
/// pair recorded
/// **When** the shortcut `2 – 7` arrives and review 2 publishes
/// **Then** the pinned view still reports review 1 and answers every pair
/// exactly as before, `d(2, 7) = 5` and `Δ(2, 7) = 0` included
/// **And** `QueryEngine` calls made after the review see review 2:
/// `d(2, 7) = 1` and `Δ(2, 7) = 4`
/// **And** a view pinned now keeps review 2 even after review 3.
#[test]
fn a_pinned_view_keeps_its_epoch_while_later_calls_see_the_next_review() {
    // Given
    let path: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
    let cfg = StreamConfig::new(
        10,
        SelectorKind::Degree,
        TopKSpec::ThresholdFromMax { slack: 0 },
        7,
    );
    let mut engine = StreamEngine::from_snapshot(&graph_from_edges(10, &path), cfg);
    let q = QueryEngine::new(engine.reader());
    engine.ingest(edge(0, 9, 1)).unwrap();
    engine.review();
    let pinned = q.epoch();
    assert_eq!(pinned.review(), 1);
    let before = answers(&pinned);
    let (a, b) = (NodeId(2), NodeId(7));
    assert_eq!(pinned.distance(a, b), Answer::Exact(5));
    assert_eq!(pinned.delta(a, b), Answer::Exact(0));

    // When
    engine.ingest(edge(2, 7, 2)).unwrap();
    let published = engine.review();

    // Then
    assert_eq!(pinned.review(), 1);
    assert_eq!(
        answers(&pinned),
        before,
        "the pinned view changed an answer"
    );
    assert_eq!(q.epoch().review(), 2);
    assert!(Arc::ptr_eq(q.epoch().snapshot(), &published));
    assert_eq!(q.distance(a, b), Answer::Exact(1));
    assert_eq!(q.delta(a, b), Answer::Exact(4));
    assert_eq!(answers(&EpochView::of(published)), answers(&q.epoch()));

    let second = q.epoch();
    let kept = answers(&second);
    engine.ingest(edge(4, 9, 3)).unwrap();
    engine.review();
    assert_eq!((second.review(), q.epoch().review()), (2, 3));
    assert_eq!(
        answers(&second),
        kept,
        "the review-2 view changed an answer"
    );
    assert_ne!(answers(&q.epoch()), kept, "review 3 answered like review 2");
}

fn feed(engine: &mut StreamEngine, t: &TemporalGraph, from: usize, to: usize) {
    for &e in &t.events()[from..to] {
        match engine.ingest(e) {
            Ok(_) | Err(StreamError::DuplicateEdge { .. }) | Err(StreamError::SelfLoop { .. }) => {}
            Err(err) => panic!("sorted generator stream was rejected: {err}"),
        }
    }
}

/// A small budget on a 70-node graph: most rows are not resident, so
/// most pairs lean on the landmark bounds.
fn budgeted_config() -> StreamConfig {
    StreamConfig::new(
        5,
        SelectorKind::Mmsd { landmarks: 3 },
        TopKSpec::ThresholdFromMax { slack: 1 },
        7,
    )
}

/// How one epoch answered the pairs it holds no row for.
#[derive(Debug, Default)]
struct Unproved {
    pairs: usize,
    bounded: usize,
    unknown: usize,
}

/// Checks every pair of `epoch` against BFS truth on its own graph (`d`)
/// and on the review's first snapshot `g1` (Δ): an exact answer equals
/// the truth and any interval contains it. Tallies the pairs with no
/// resident row on either endpoint in the second snapshot.
fn check_against_truth(epoch: &Arc<StreamSnapshot>, g1: &Graph) -> Unproved {
    let view = EpochView::of(Arc::clone(epoch));
    let g2 = &epoch.graph;
    let n = g2.num_nodes();
    let mut tally = Unproved::default();
    for u in 0..n {
        let (d1, d2) = (bfs(g1, NodeId::new(u)), bfs(g2, NodeId::new(u)));
        for v in u + 1..n {
            let (nu, nv) = (NodeId::new(u), NodeId::new(v));
            let distance = view.distance(nu, nv);
            let delta = view.delta(nu, nv);
            assert!(
                distance.admits(d2[v]),
                "d({u}, {v}) = {} outside {distance:?}",
                d2[v]
            );
            let truth = distance_decrease(d1[v], d2[v]).unwrap_or(0);
            assert!(
                delta.admits(truth),
                "Δ({u}, {v}) = {truth} outside {delta:?}"
            );
            let query = &epoch.query;
            if query.row(Snapshot::Second, nu).is_none()
                && query.row(Snapshot::Second, nv).is_none()
            {
                tally.pairs += 1;
                match distance {
                    Answer::Bounded { .. } => tally.bounded += 1,
                    Answer::Unknown => tally.unknown += 1,
                    // A landmark can pin a distance on its own shortest
                    // path; the admits check above holds it to the truth.
                    Answer::Exact(_) => {}
                }
            }
        }
    }
    tally
}

/// Scenario: what the epoch cannot prove, it brackets or admits not
/// knowing, and reading it costs the review nothing.
///
/// **Given** a 70-node preferential-attachment stream under MMSD with a
/// budget of 5 and 3 landmarks
/// **When** every pair's distance and Δ are queried on each of three
/// published epochs, between the reviews
/// **Then** every pair with no resident row answers `Bounded` or
/// `Unknown` unless a landmark pins it, some answer `Bounded`
/// **And** every reported interval contains the BFS truth
/// **And** each review's ledger, pairs and candidates equal those of a
/// twin engine fed the same stream with no reader.
#[test]
fn unproved_pairs_answer_bounded_or_unknown_and_reads_spend_nothing() {
    // Given
    let t = barabasi_albert(70, 2, &mut seeded_rng(11));
    let cuts: Vec<usize> = [0.55, 0.7, 0.85, 1.0]
        .iter()
        .map(|f| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events()))
        .collect();
    let mut engine = StreamEngine::from_snapshot(&t.snapshot_of_prefix(cuts[0]), budgeted_config());
    let q = QueryEngine::new(engine.reader());

    // When
    let mut epochs = Vec::new();
    let mut g1 = Arc::clone(engine.current_graph());
    let mut seen = Unproved::default();
    for w in cuts.windows(2) {
        feed(&mut engine, &t, w[0], w[1]);
        let epoch = engine.review();
        assert!(Arc::ptr_eq(q.epoch().snapshot(), &epoch));

        // Then
        let tally = check_against_truth(&epoch, &g1);
        seen.pairs += tally.pairs;
        seen.bounded += tally.bounded;
        seen.unknown += tally.unknown;
        g1 = Arc::clone(&epoch.graph);
        epochs.push(epoch);
    }
    assert!(seen.pairs > 0, "every pair had a resident row: {seen:?}");
    assert!(seen.bounded > 0, "no unproved pair was bracketed: {seen:?}");

    let mut twin = StreamEngine::from_snapshot(&t.snapshot_of_prefix(cuts[0]), budgeted_config());
    for (w, read) in cuts.windows(2).zip(&epochs) {
        feed(&mut twin, &t, w[0], w[1]);
        let quiet = twin.review();
        assert_eq!(read.review, quiet.review);
        assert_eq!(
            read.result.budget, quiet.result.budget,
            "review {}: reads changed the ledger",
            quiet.review
        );
        assert_eq!(read.result.pairs, quiet.result.pairs);
        assert_eq!(read.result.candidates, quiet.result.candidates);
    }
}
