//! Continuous monitoring of a growing network — the streaming engine that
//! generalizes the paper's single snapshot pair to a whole edge stream.
//!
//! A DBLP-style collaboration graph is replayed as timestamped edge events
//! into a [`StreamEngine`]; each review spends a small SSSP budget, chains
//! its paid rows into the next review, and pushes subscription events for
//! the watched top-k set. Persistent convergence (the same pair drawing
//! closer review after review) stands out from one-off jumps.
//!
//! ```text
//! cargo run --release --example stream_monitoring
//! ```

use converging_pairs::prelude::*;

fn main() {
    let temporal = DatasetProfile::scaled(DatasetKind::Dblp, 0.1).generate(2026);
    let events = temporal.events();
    let windows: Vec<f64> = (5..=10).map(|i| i as f64 / 10.0).collect();
    let cut = |f: f64| ((f * events.len() as f64).ceil() as usize).min(events.len());

    let first = temporal.snapshot_at_fraction(windows[0]);
    println!(
        "collaboration graph: {} authors, initial window has {} co-authorships",
        first.num_active_nodes(),
        first.num_edges()
    );

    let m = (first.num_nodes() as u64) / 100; // 1 % probe budget per review
    let config = StreamConfig::new(
        m,
        SelectorKind::SumDiff { landmarks: 10 },
        TopKSpec::Threshold { delta_min: 3 },
        11,
    );
    let mut engine = StreamEngine::from_snapshot(&first, config);
    engine.watch_topk(); // entered/left events for the reported set

    let mut fed = cut(windows[0]);
    for (i, &f) in windows[1..].iter().enumerate() {
        let end = cut(f);
        let mut duplicates = 0u64;
        for &e in &events[fed..end] {
            // Generators re-announce edges; the engine rejects those with a
            // typed error instead of skewing its event counts.
            match engine.ingest(e) {
                Ok(_) => {}
                Err(err) => {
                    duplicates += 1;
                    debug_assert!(matches!(
                        err,
                        converging_pairs::stream::StreamError::DuplicateEdge { .. }
                    ));
                }
            }
        }
        fed = end;
        let epoch = engine.review();
        println!(
            "review {}: window up to {:.0}% of the stream — {} pairs converged by >= 3 \
             ({} SSSPs spent, {} fresh edges, {} duplicate announcements rejected)",
            i + 1,
            100.0 * f,
            epoch.result.pairs.len(),
            epoch.result.budget.total(),
            epoch.stats.events_ingested,
            duplicates
        );
        for p in epoch.result.pairs.iter().take(3) {
            println!("    ({}, {})  delta {}", p.pair.0, p.pair.1, p.delta);
        }
        for ev in epoch.events.iter().take(3) {
            match ev {
                StreamEvent::EnteredTopK { pair, delta, .. } => {
                    println!(
                        "    -> entered top-k: ({}, {}) delta {}",
                        pair.0, pair.1, delta
                    )
                }
                StreamEvent::LeftTopK { pair, .. } => {
                    println!("    -> left top-k: ({}, {})", pair.0, pair.1)
                }
                _ => {}
            }
        }
        if epoch.stats.donor_rows_imported > 0 {
            println!(
                "    chained: {} donor rows imported, {} chain hits \
                 ({:.0}% of charges skipped a kernel)",
                epoch.stats.donor_rows_imported,
                epoch.stats.donor_chain_hits,
                100.0 * epoch.stats.donor_hit_rate
            );
        }
    }

    println!("\nwatch list (pairs that converged in more than one review):");
    let persistent = engine.persistent_pairs(2);
    if persistent.is_empty() {
        println!("  none — every detected convergence was a single event");
    }
    for ((u, v), track) in persistent.iter().take(5) {
        println!(
            "  ({}, {}): total decrease {} over {} reviews (last at review {}, \
             longest streak {})",
            u, v, track.total_delta, track.times_seen, track.last_seen_review, track.longest_streak
        );
    }
}
