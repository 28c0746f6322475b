//! Benchmarks the budget-free read path: `distance`, `delta` and
//! `topk_for_seed` against one published epoch's packed query index.
//!
//! The epoch is the second MMSD review (`l = 10`, `m = 25`, chained
//! donors) of the Internet-links stream at scale 0.25, replayed from its
//! 50 % prefix. Query sources are picked as the `query_reads` benchmark
//! picks them: half start at a hot node (a paid candidate of the epoch,
//! so mostly resident rows), half at a uniform node (mostly landmark
//! bounds); targets are uniform.

use cp_core::exact::TopKSpec;
use cp_core::selectors::{SelectorKind, DEFAULT_LANDMARKS};
use cp_gen::datasets::{DatasetKind, DatasetProfile};
use cp_graph::NodeId;
use cp_query::EpochView;
use cp_stream::{StreamConfig, StreamEngine};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Pairs per `distance` / `delta` iteration.
const PAIRS: usize = 4096;
/// Seeds per `topk_for_seed` iteration.
const SEEDS: usize = 16;
/// `k` of the per-seed top-k.
const SEED_K: usize = 10;

/// The second review's epoch of the Internet-links stream.
fn epoch() -> EpochView {
    let t = DatasetProfile::scaled(DatasetKind::InternetLinks, 0.25).generate(42);
    let events = t.events();
    let cut = |f: f64| ((f * events.len() as f64).ceil() as usize).min(events.len());
    let config = StreamConfig::new(
        25,
        SelectorKind::Mmsd {
            landmarks: DEFAULT_LANDMARKS,
        },
        TopKSpec::TopK(100),
        42,
    );
    let mut engine = StreamEngine::from_snapshot(&t.snapshot_of_prefix(cut(0.5)), config);
    let mut fed = cut(0.5);
    for f in [0.6, 0.7] {
        for &e in &events[fed..cut(f)] {
            let _ = engine.ingest(e); // generators re-announce edges
        }
        fed = cut(f);
        engine.review();
    }
    EpochView::of(engine.latest())
}

fn bench_query(c: &mut Criterion) {
    let view = epoch();
    let n = view.snapshot().graph.num_nodes();
    let hot = view.snapshot().result.candidates.clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let source = |i: usize, rng: &mut rand::rngs::StdRng| {
        if i % 2 == 1 && !hot.is_empty() {
            hot[rng.random_range(0..hot.len())]
        } else {
            NodeId::new(rng.random_range(0..n))
        }
    };
    let pairs: Vec<(NodeId, NodeId)> = (0..PAIRS)
        .map(|i| (source(i, &mut rng), NodeId::new(rng.random_range(0..n))))
        .collect();
    let seeds: Vec<NodeId> = (0..SEEDS).map(|i| source(i, &mut rng)).collect();

    let mut group = c.benchmark_group("query");
    group.sample_size(20);
    group.bench_function("distance_4096", |b| {
        b.iter(|| {
            for &(u, v) in &pairs {
                black_box(view.distance(u, v));
            }
        });
    });
    group.bench_function("delta_4096", |b| {
        b.iter(|| {
            for &(u, v) in &pairs {
                black_box(view.delta(u, v));
            }
        });
    });
    group.bench_function("topk_for_seed_16", |b| {
        b.iter(|| {
            for &u in &seeds {
                black_box(view.topk_for_seed(u, SEED_K));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
