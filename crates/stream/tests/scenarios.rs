//! Behaviour scenarios for the streaming contract, written Given/When/Then.
//! Each scenario is refutable: it names the observable state before and
//! after, and a single wrong counter, epoch or event order fails it.
//!
//! The setting throughout is a 10-node path that gains shortcuts, so every
//! review's reported pairs can be checked by hand.

use cp_core::exact::TopKSpec;
use cp_core::selectors::SelectorKind;
use cp_graph::builder::graph_from_edges;
use cp_graph::{NodeId, TimedEdge};
use cp_stream::{ReviewPolicy, StreamConfig, StreamEngine, StreamError, StreamEvent};
use std::collections::HashSet;
use std::sync::Arc;

/// A normalized `(min, max)` node pair.
type Pair = (NodeId, NodeId);

fn edge(u: u32, v: u32, time: u64) -> TimedEdge {
    TimedEdge {
        u: NodeId(u),
        v: NodeId(v),
        time,
    }
}

/// An engine whose first snapshot is the path `0 – 1 – … – 9`, with a
/// budget that covers every node (so each review reports the exact pairs).
fn path_engine(policy: ReviewPolicy) -> StreamEngine {
    let path: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
    let cfg = StreamConfig::new(
        10,
        SelectorKind::Degree,
        TopKSpec::ThresholdFromMax { slack: 0 },
        7,
    )
    .with_policy(policy);
    StreamEngine::from_snapshot(&graph_from_edges(10, &path), cfg)
}

/// Scenario: rejected events neither count toward a review policy nor
/// touch the published state.
///
/// **Given** an engine reviewing every 3 accepted events
/// **And** an epoch published by the policy, with no events pending
/// **When** a duplicate edge, a self-loop and an out-of-order event are
/// ingested — three events, exactly the policy's count
/// **Then** each returns its typed `StreamError`
/// **And** no review fires
/// **And** `reviews()`, `pending_events()` and `watermark()` are unchanged
/// **And** `latest()` is the very same epoch `Arc`
/// **And** three accepted events afterwards fire exactly one review.
#[test]
fn rejected_events_never_trigger_a_review_or_touch_the_published_epoch() {
    // Given
    let mut engine = path_engine(ReviewPolicy::EveryEvents(3));
    assert!(engine.ingest(edge(0, 9, 1)).unwrap().is_none());
    assert!(engine.ingest(edge(2, 7, 2)).unwrap().is_none());
    let published = engine
        .ingest(edge(0, 5, 3))
        .unwrap()
        .expect("the third accepted event fires the policy's review");
    assert_eq!(published.review, 1);
    let latest = engine.latest();
    assert!(Arc::ptr_eq(&latest, &published));
    let (reviews, pending, watermark) = (
        engine.reviews(),
        engine.pending_events(),
        engine.watermark(),
    );
    assert_eq!((reviews, pending, watermark), (1, 0, Some(3)));

    // When
    let duplicate = engine.ingest(edge(9, 0, 3));
    let self_loop = engine.ingest(edge(4, 4, 3));
    let out_of_order = engine.ingest(edge(3, 8, 2));

    // Then
    assert_eq!(
        duplicate.unwrap_err(),
        StreamError::DuplicateEdge {
            u: NodeId(0),
            v: NodeId(9)
        }
    );
    assert_eq!(
        self_loop.unwrap_err(),
        StreamError::SelfLoop { node: NodeId(4) }
    );
    assert_eq!(
        out_of_order.unwrap_err(),
        StreamError::OutOfOrder {
            time: 2,
            watermark: 3
        }
    );
    assert_eq!(engine.reviews(), reviews, "a rejected event fired a review");
    assert_eq!(
        engine.pending_events(),
        pending,
        "a rejected event was counted"
    );
    assert_eq!(
        engine.watermark(),
        watermark,
        "a rejected event moved the watermark"
    );
    assert!(
        Arc::ptr_eq(&engine.latest(), &latest),
        "a rejected event replaced the published epoch"
    );
    assert!(engine.ingest(edge(3, 8, 4)).unwrap().is_none());
    assert!(engine.ingest(edge(1, 6, 5)).unwrap().is_none());
    let next = engine.ingest(edge(4, 9, 6)).unwrap();
    assert_eq!(next.map(|e| e.review), Some(2));
    assert_eq!(engine.reviews(), 2);
}

/// The pairs named by one review's `EnteredTopK` and `LeftTopK` events,
/// checking on the way that every `EnteredTopK` precedes every `LeftTopK`
/// and that each event carries the review's index.
fn topk_events(events: &[StreamEvent], review: u32) -> (Vec<Pair>, Vec<Pair>) {
    let (mut entered, mut left) = (Vec::new(), Vec::new());
    for ev in events {
        match *ev {
            StreamEvent::EnteredTopK {
                review: r, pair, ..
            } => {
                assert!(
                    left.is_empty(),
                    "review {review}: EnteredTopK after a LeftTopK"
                );
                assert_eq!(r, review);
                entered.push(pair);
            }
            StreamEvent::LeftTopK {
                review: r, pair, ..
            } => {
                assert_eq!(r, review);
                left.push(pair);
            }
            _ => {}
        }
    }
    (entered, left)
}

/// Scenario: a top-k subscriber sees a pair enter when it is first
/// reported and leave when it stops being reported, entries first.
///
/// **Given** an engine over the path with a `watch_topk` subscriber
/// **When** review *r* adds the chord `(0, 9)`, so the pair `(0, 9)` is
/// reported (Δ = 8, the maximum)
/// **And** review *r + 1* adds the chord `(2, 7)` instead, so `(0, 9)` no
/// longer converges and is not reported
/// **Then** the subscriber sees `EnteredTopK` for `(0, 9)` at *r* and
/// `LeftTopK` for it at *r + 1*
/// **And** each review's entries and exits are exactly the pairs reported
/// now but not before, and before but not now
/// **And** within each review every `EnteredTopK` precedes every
/// `LeftTopK`.
#[test]
fn topk_subscriber_sees_a_pair_enter_then_leave_with_entries_first() {
    // Given
    let mut engine = path_engine(ReviewPolicy::Manual);
    let watch = engine.watch_topk();
    let target = (NodeId(0), NodeId(9));

    // When
    engine.ingest(edge(0, 9, 1)).unwrap();
    let at_r = engine.review();
    engine.ingest(edge(2, 7, 2)).unwrap();
    let at_r1 = engine.review();

    // Then
    let reported = |e: &cp_stream::StreamSnapshot| -> HashSet<Pair> {
        e.result.pairs.iter().map(|p| p.pair).collect()
    };
    let (before_r, now_r, now_r1) = (HashSet::new(), reported(&at_r), reported(&at_r1));
    assert!(now_r.contains(&target), "(0, 9) must be reported at r");
    assert!(
        !now_r1.contains(&target),
        "(0, 9) must not be reported at r + 1"
    );
    for (epoch, before, now) in [(&at_r, &before_r, &now_r), (&at_r1, &now_r, &now_r1)] {
        assert!(epoch.events.iter().all(|ev| ev.watch() == watch));
        let (entered, left) = topk_events(&epoch.events, epoch.review);
        let entered: HashSet<_> = entered.into_iter().collect();
        let left: HashSet<_> = left.into_iter().collect();
        assert_eq!(
            entered,
            now - before,
            "review {}: wrong entries",
            epoch.review
        );
        assert_eq!(left, before - now, "review {}: wrong exits", epoch.review);
    }
    let (entered_r, left_r) = topk_events(&at_r.events, at_r.review);
    assert!(entered_r.contains(&target) && !left_r.contains(&target));
    let (entered_r1, left_r1) = topk_events(&at_r1.events, at_r1.review);
    assert!(left_r1.contains(&target) && !entered_r1.contains(&target));
    assert!(
        !entered_r1.is_empty(),
        "review r + 1 must also report new pairs, so the order check is not vacuous"
    );
}
