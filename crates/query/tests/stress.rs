//! Concurrency stress: readers hammer the query layer while the engine
//! advances reviews, and nothing bends.
//!
//! * Every reader observes internally consistent epochs — its epoch ids
//!   are monotone non-decreasing, each pinned view keeps answering about
//!   the same review, and answers on a pinned view are repeatable.
//! * Queries charge nothing: a twin engine fed the identical stream with
//!   zero readers produces bit-identical budget ledgers (and pairs) at
//!   every review, so the ledger spend attributable to queries is exactly
//!   zero.

use cp_core::exact::TopKSpec;
use cp_core::selectors::SelectorKind;
use cp_gen::ba::barabasi_albert;
use cp_gen::seeded_rng;
use cp_graph::{NodeId, TemporalGraph};
use cp_query::{QueryEngine, SeedTopK};
use cp_stream::{StreamConfig, StreamEngine, StreamError, StreamSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const READERS: usize = 8;
const REVIEWS: usize = 5;

fn feed(engine: &mut StreamEngine, t: &TemporalGraph, from: usize, to: usize) {
    for &e in &t.events()[from..to] {
        match engine.ingest(e) {
            Ok(_) | Err(StreamError::DuplicateEdge { .. }) | Err(StreamError::SelfLoop { .. }) => {}
            Err(err) => panic!("sorted generator stream was rejected: {err}"),
        }
    }
}

fn config() -> StreamConfig {
    StreamConfig::new(
        10,
        SelectorKind::Mmsd { landmarks: 3 },
        TopKSpec::ThresholdFromMax { slack: 1 },
        7,
    )
}

/// One reader's inner loop body: pin an epoch, sanity-check it, fire a
/// mix of queries, and return the epoch id observed.
fn read_once(q: &QueryEngine, n: usize, salt: usize, queries: &AtomicU64) -> u32 {
    let view = q.epoch();
    let review = view.review();
    assert_eq!(
        view.snapshot().stats.review,
        review,
        "epoch id and stats disagree — torn epoch observed"
    );
    let u = NodeId::new(salt % n);
    let v = NodeId::new((salt * 7 + 3) % n);
    let a = view.distance(u, v);
    let b = view.delta(u, v);
    // A pinned view is immutable: the same question answers identically,
    // whatever the engine is doing meanwhile.
    assert_eq!(view.distance(u, v), a, "pinned view changed its answer");
    assert_eq!(view.delta(u, v), b, "pinned view changed its answer");
    let SeedTopK { pairs, .. } = view.topk_for_seed(u, 3);
    assert!(pairs.len() <= 3);
    for p in &pairs {
        assert!(p.delta >= 1, "non-converging pair reported");
    }
    let hop = view.from(u).step().collect();
    for w in &hop {
        assert!(w.index() < n, "traversal escaped the universe");
    }
    queries.fetch_add(5, Ordering::Relaxed);
    review
}

/// 8 reader threads issue mixed point/top-k/traversal queries nonstop
/// while the engine advances 5 reviews; afterwards a query-free twin run
/// proves the readers cost the ledger nothing.
#[test]
fn readers_observe_consistent_epochs_and_spend_nothing() {
    let t = barabasi_albert(70, 2, &mut seeded_rng(11));
    let n = t.num_nodes();
    let prefix = |f: f64| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events());
    let cuts: Vec<usize> = (0..=REVIEWS)
        .map(|i| prefix(0.5 + 0.5 * i as f64 / REVIEWS as f64))
        .collect();

    let mut engine = StreamEngine::from_snapshot(&t.snapshot_of_prefix(cuts[0]), config());
    let q = QueryEngine::new(engine.reader());
    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);

    let mut epochs: Vec<Arc<StreamSnapshot>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for r in 0..READERS {
            let q = q.clone();
            let (stop, queries) = (&stop, &queries);
            handles.push(s.spawn(move || {
                let mut last = 0u32;
                let mut iters = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let review = read_once(&q, n, r + iters, queries);
                    assert!(
                        review >= last,
                        "reader {r} saw the epoch id go backwards: {last} -> {review}"
                    );
                    last = review;
                    iters += 1;
                }
                (last, iters)
            }));
        }
        for w in cuts.windows(2) {
            feed(&mut engine, &t, w[0], w[1]);
            epochs.push(engine.review());
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let (last, iters) = h.join().expect("reader panicked");
            assert!(iters > 0, "a reader never ran");
            assert!(last <= REVIEWS as u32, "impossible epoch id {last}");
        }
    });
    assert!(
        queries.load(Ordering::Relaxed) > 0,
        "no queries were issued — the stress is vacuous"
    );

    // The query-free twin: same stream, same config, zero readers. Every
    // review's ledger (and output) is bit-identical, so the concurrent
    // queries above charged exactly nothing.
    let mut twin = StreamEngine::from_snapshot(&t.snapshot_of_prefix(cuts[0]), config());
    for (i, w) in cuts.windows(2).enumerate() {
        feed(&mut twin, &t, w[0], w[1]);
        let b = twin.review();
        let a = &epochs[i];
        assert_eq!(
            a.result.budget, b.result.budget,
            "review {}: queries changed the ledger",
            b.review
        );
        assert_eq!(
            a.result.pairs, b.result.pairs,
            "review {}: queries changed the pairs",
            b.review
        );
        assert_eq!(
            a.result.candidates, b.result.candidates,
            "review {}: queries changed the candidates",
            b.review
        );
    }
}
