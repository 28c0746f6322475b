//! Benchmarks exact Brandes edge betweenness — the hidden cost of the
//! IncBet baseline that the paper's budget model does not even charge for.
//!
//! Two datasets at 2 threads on the second evaluation snapshot: Internet
//! links at scale 0.25, whose 2-core is large enough that the 1 MiB lane
//! cap narrows the blocks to 31 sources, and Facebook at scale 0.05,
//! whose small core sweeps full 64-source blocks. Each runs twice: every
//! edge scored (`all_edges`), and only the new edges IncBet reads
//! (`incbet_mask`, about a fifth of the edges).

use cp_gen::datasets::{DatasetKind, DatasetProfile, EVAL_SNAPSHOTS};
use cp_graph::betweenness::{betweenness_exact, betweenness_of};
use cp_graph::TemporalGraph;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_betweenness(c: &mut Criterion) {
    let mut group = c.benchmark_group("betweenness");
    group.sample_size(10);
    for (name, kind, scale) in [
        ("internet_links_0.25", DatasetKind::InternetLinks, 0.25),
        ("facebook_0.05", DatasetKind::Facebook, 0.05),
    ] {
        let (g1, g2) = DatasetProfile::scaled(kind, scale)
            .generate(42)
            .snapshot_pair(EVAL_SNAPSHOTS.0, EVAL_SNAPSHOTS.1);
        let mask: Vec<u32> = TemporalGraph::new_edges_between(&g1, &g2)
            .into_iter()
            .map(|(u, v)| g2.edge_id(u, v).unwrap())
            .collect();
        group.bench_function(format!("{name}/all_edges"), |b| {
            b.iter(|| black_box(betweenness_exact(&g2, 2).edge.len()));
        });
        group.bench_function(format!("{name}/incbet_mask"), |b| {
            b.iter(|| black_box(betweenness_of(&g2, &mask, 2).len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_betweenness);
criterion_main!(benches);
