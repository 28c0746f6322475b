//! Benchmarks exact Brandes edge betweenness — the hidden cost of the
//! IncBet baseline that the paper's budget model does not even charge for.
//!
//! Two cases at 2 threads on the second evaluation snapshot: Internet
//! links at scale 0.25, whose 2-core is large enough that the 512 KiB
//! lane cap narrows the blocks to 15 sources, and Facebook at scale 0.05,
//! whose small core sweeps full 64-source blocks.

use cp_gen::datasets::{DatasetKind, DatasetProfile, EVAL_SNAPSHOTS};
use cp_graph::betweenness::betweenness_exact;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_betweenness(c: &mut Criterion) {
    let mut group = c.benchmark_group("betweenness");
    group.sample_size(10);
    for (name, kind, scale) in [
        ("internet_links_0.25", DatasetKind::InternetLinks, 0.25),
        ("facebook_0.05", DatasetKind::Facebook, 0.05),
    ] {
        let (_, g2) = DatasetProfile::scaled(kind, scale)
            .generate(42)
            .snapshot_pair(EVAL_SNAPSHOTS.0, EVAL_SNAPSHOTS.1);
        group.bench_function(name, |b| {
            b.iter(|| black_box(betweenness_exact(&g2, 2).edge.len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_betweenness);
criterion_main!(benches);
