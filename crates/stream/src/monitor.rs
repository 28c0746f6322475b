//! Continuous monitoring of converging pairs over a snapshot sequence —
//! the pre-engine API, kept as a thin wrapper over [`StreamEngine`].
//!
//! The paper analyses a single snapshot pair `(G_t1, G_t2)`; a deployed
//! system watches a *stream* of snapshots `G_1 ⊆ G_2 ⊆ …` and wants, at
//! every step, the pairs that converged since the last review — each step
//! under its own SSSP budget. [`ConvergenceMonitor`] keeps that
//! snapshot-at-a-time calling convention: [`ConvergenceMonitor::advance`]
//! diffs the new snapshot against the engine's rolling one, ingests the
//! new edges, and runs a review. Everything else — per-review ledger,
//! donor-chained row store, per-pair history — is the engine's.

use crate::engine::{StreamConfig, StreamEngine, StreamSnapshot};
use cp_core::exact::{ConvergingPair, TopKSpec};
use cp_core::selectors::SelectorKind;
use cp_core::topk::BudgetedResult;
use cp_graph::{Graph, NodeId, TemporalGraph, TimedEdge};
use std::sync::Arc;

/// Configuration of a monitoring loop.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Candidate budget per step (`2m` SSSPs each step).
    pub m: u64,
    /// Which selector to run each step.
    pub selector: SelectorKind,
    /// How pairs are cut each step.
    pub spec: TopKSpec,
    /// Seed for the per-step selector instances (stepped deterministically).
    pub seed: u64,
}

impl MonitorConfig {
    fn stream(self) -> StreamConfig {
        StreamConfig::new(self.m, self.selector, self.spec, self.seed)
    }
}

/// Aggregate history of one pair across monitoring steps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairHistory {
    /// Total distance decrease accumulated over all steps where the pair
    /// was reported.
    pub total_delta: u32,
    /// In how many steps the pair was reported.
    pub times_seen: u32,
    /// The step index (1-based) of the last report.
    pub last_seen_step: u32,
}

/// One step's output.
#[derive(Clone, Debug)]
pub struct MonitorStep {
    /// 1-based step index.
    pub step: u32,
    /// The budgeted result against the previous snapshot.
    pub result: BudgetedResult,
}

/// Watches a growing graph snapshot-by-snapshot (see module docs).
pub struct ConvergenceMonitor {
    engine: StreamEngine,
}

impl ConvergenceMonitor {
    /// Starts monitoring from an initial (unweighted) snapshot.
    pub fn new(initial: Graph, config: MonitorConfig) -> Self {
        ConvergenceMonitor {
            engine: StreamEngine::from_snapshot(&initial, config.stream()),
        }
    }

    /// The underlying engine — for subscriptions, epoch readers, and
    /// per-review [`crate::StreamStats`].
    pub fn engine(&mut self) -> &mut StreamEngine {
        &mut self.engine
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u32 {
        self.engine.reviews()
    }

    /// The snapshot the next step will diff against.
    pub fn current_snapshot(&self) -> &Graph {
        self.engine.current_graph()
    }

    /// Feeds the next snapshot; returns the pairs that converged since the
    /// previous one (under this step's budget) and advances the window.
    ///
    /// # Panics
    /// Panics if the snapshot's node universe differs from the previous
    /// one (grow the universe up front; `TemporalGraph` snapshots do), or
    /// if the snapshot dropped edges — the engine's insert-only model
    /// requires `G_t ⊆ G_{t+1}`, which the old rebuild-the-world loop
    /// merely assumed.
    pub fn advance(&mut self, next: Graph) -> MonitorStep {
        assert_eq!(
            self.current_snapshot().num_nodes(),
            next.num_nodes(),
            "snapshots must share a node universe"
        );
        let time = self.engine.watermark().unwrap_or(0);
        for (u, v) in TemporalGraph::new_edges_between(self.current_snapshot(), &next) {
            self.engine
                .ingest(TimedEdge { u, v, time })
                .expect("new_edges_between yields fresh in-universe edges");
        }
        assert_eq!(
            self.current_snapshot().num_edges() + self.engine.pending_events() as usize,
            next.num_edges(),
            "snapshots must grow: the monitor's insert-only model forbids edge removals"
        );
        let snap: Arc<StreamSnapshot> = self.engine.review();
        MonitorStep {
            step: snap.review,
            result: snap.result.clone(),
        }
    }

    /// History of one pair, if it was ever reported.
    pub fn pair_history(&self, u: NodeId, v: NodeId) -> Option<PairHistory> {
        self.engine.pair_history(u, v).map(|t| PairHistory {
            total_delta: t.total_delta,
            times_seen: t.times_seen,
            last_seen_step: t.last_seen_review,
        })
    }

    /// Pairs that have been reported in at least `min_steps` steps, sorted
    /// by total accumulated decrease (descending) — the "keeps converging"
    /// watch list.
    pub fn persistent_pairs(&self, min_steps: u32) -> Vec<(ConvergingPair, PairHistory)> {
        self.engine
            .persistent_pairs(min_steps)
            .into_iter()
            .map(|((u, v), t)| {
                (
                    ConvergingPair::new(u, v, t.total_delta),
                    PairHistory {
                        total_delta: t.total_delta,
                        times_seen: t.times_seen,
                        last_seen_step: t.last_seen_review,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_graph::TemporalGraph;

    /// A ring accumulating chords: three snapshots, chords arriving in two
    /// waves; the pair (0, 12) converges in wave one, (6, 18) in wave two.
    fn snapshots() -> Vec<Graph> {
        let n = 24u32;
        let mut edges: Vec<(NodeId, NodeId)> =
            (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n))).collect();
        edges.push((NodeId(0), NodeId(12)));
        edges.push((NodeId(6), NodeId(18)));
        let t = TemporalGraph::from_sequence(n as usize, edges);
        vec![
            t.snapshot_of_prefix(24),
            t.snapshot_of_prefix(25),
            t.snapshot_of_prefix(26),
        ]
    }

    fn config() -> MonitorConfig {
        MonitorConfig {
            m: 24,
            selector: SelectorKind::Degree,
            spec: TopKSpec::ThresholdFromMax { slack: 0 },
            seed: 5,
        }
    }

    #[test]
    fn detects_each_wave() {
        let snaps = snapshots();
        let mut monitor = ConvergenceMonitor::new(snaps[0].clone(), config());
        let step1 = monitor.advance(snaps[1].clone());
        assert_eq!(step1.step, 1);
        assert_eq!(step1.result.pairs[0].pair, (NodeId(0), NodeId(12)));
        let step2 = monitor.advance(snaps[2].clone());
        assert_eq!(step2.result.pairs[0].pair, (NodeId(6), NodeId(18)));
        assert_eq!(monitor.steps(), 2);
    }

    #[test]
    fn history_accumulates() {
        let snaps = snapshots();
        let mut monitor = ConvergenceMonitor::new(snaps[0].clone(), config());
        monitor.advance(snaps[1].clone());
        monitor.advance(snaps[2].clone());
        let h = monitor.pair_history(NodeId(12), NodeId(0)).unwrap();
        assert_eq!(h.times_seen, 1);
        assert_eq!(h.last_seen_step, 1);
        assert!(h.total_delta >= 10); // ring distance 12 -> 1
        assert!(monitor.pair_history(NodeId(1), NodeId(2)).is_none());
    }

    #[test]
    fn persistent_pairs_sorted_and_filtered() {
        let snaps = snapshots();
        let mut monitor = ConvergenceMonitor::new(snaps[0].clone(), config());
        monitor.advance(snaps[1].clone());
        monitor.advance(snaps[2].clone());
        let persistent = monitor.persistent_pairs(1);
        assert!(!persistent.is_empty());
        for w in persistent.windows(2) {
            assert!(w[0].0.delta >= w[1].0.delta);
        }
        // Nothing was seen twice across these two disjoint waves.
        assert!(monitor.persistent_pairs(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "node universe")]
    fn universe_mismatch_panics() {
        let snaps = snapshots();
        let mut monitor = ConvergenceMonitor::new(snaps[0].clone(), config());
        let small =
            TemporalGraph::from_sequence(3, vec![(NodeId(0), NodeId(1))]).snapshot_at_fraction(1.0);
        monitor.advance(small);
    }

    #[test]
    #[should_panic(expected = "insert-only")]
    fn shrinking_snapshot_panics() {
        let snaps = snapshots();
        let mut monitor = ConvergenceMonitor::new(snaps[1].clone(), config());
        monitor.advance(snaps[0].clone());
    }

    #[test]
    fn monitor_steps_chain_the_row_store() {
        let snaps = snapshots();
        let mut monitor = ConvergenceMonitor {
            engine: StreamEngine::from_snapshot(&snaps[0], config().stream()),
        };
        monitor.advance(snaps[1].clone());
        let step2 = monitor.advance(snaps[2].clone());
        assert!(
            step2.result.stats.chained_rows > 0,
            "second step should reuse first step's t2 rows as donors"
        );
    }
}
