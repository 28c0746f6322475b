//! Benchmarks exact Brandes edge betweenness — the hidden cost of the
//! IncBet baseline that the paper's budget model does not even charge for.

use cp_gen::datasets::{DatasetKind, DatasetProfile};
use cp_graph::betweenness::betweenness_exact;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_betweenness(c: &mut Criterion) {
    let g = DatasetProfile::scaled(DatasetKind::Facebook, 0.05)
        .generate(17)
        .snapshot_at_fraction(1.0);
    let mut group = c.benchmark_group("betweenness");
    group.sample_size(10);
    group.bench_function("exact", |b| {
        b.iter(|| black_box(betweenness_exact(&g, 4).edge.len()));
    });
    group.finish();
}

criterion_group!(benches, bench_betweenness);
criterion_main!(benches);
