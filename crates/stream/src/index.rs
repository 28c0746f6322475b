//! The read-only query index captured at epoch publish.
//!
//! A review's oracle dies with the review — it borrows the snapshot pair
//! and its row cache is consumed by the donor hand-off. But the rows it
//! paid for are exactly what budget-free point queries need: resident
//! distance rows answer `d(u, ·)` exactly, and a handful of fully-cached
//! candidate rows double as landmark rows whose triangle inequalities
//! bracket everything else. [`QueryIndex::capture`] copies that material
//! out of the oracle *before* it is dropped, and the engine publishes it
//! on the epoch ([`crate::StreamSnapshot::query`]) — so the query layer
//! (`cp-query`) serves entirely from published state, never touching a
//! ledger and never blocking a review.

use cp_core::bounds::{resident_landmark_indexes, MAX_RESIDENT_LANDMARKS};
use cp_core::oracle::{Snapshot, SnapshotOracle};
use cp_graph::landmark_index::LandmarkIndex;
use cp_graph::NodeId;
use std::collections::HashMap;

/// Immutable per-epoch query material: resident rows of both review
/// snapshots (chained donor rows included — they are resident rows like
/// any other) and at most [`MAX_RESIDENT_LANDMARKS`] landmark row pairs.
#[derive(Clone, Debug, Default)]
pub struct QueryIndex {
    num_nodes: usize,
    rows1: HashMap<u32, Vec<u32>>,
    rows2: HashMap<u32, Vec<u32>>,
    landmarks: Option<(LandmarkIndex, LandmarkIndex)>,
}

impl QueryIndex {
    /// An index with no rows and no landmarks (the pre-first-review
    /// epoch): every non-trivial query falls through to `Unknown`.
    pub fn empty(num_nodes: usize) -> Self {
        QueryIndex {
            num_nodes,
            ..QueryIndex::default()
        }
    }

    /// Captures the oracle's resident rows and landmark indexes.
    /// Read-only and free: nothing is computed or charged — the capture
    /// happens after the pipeline ran, inside the review, so published
    /// epochs carry it from birth.
    pub fn capture(oracle: &SnapshotOracle<'_>) -> Self {
        let rows = |which| {
            oracle
                .export_resident_rows(which)
                .into_rows()
                .into_iter()
                .collect()
        };
        QueryIndex {
            num_nodes: oracle.num_nodes(),
            rows1: rows(Snapshot::First),
            rows2: rows(Snapshot::Second),
            landmarks: resident_landmark_indexes(oracle, MAX_RESIDENT_LANDMARKS),
        }
    }

    /// Size of the node universe the rows were computed over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The captured exact distance row of `u` in the chosen review
    /// snapshot ([`Snapshot::Second`] is the published epoch's graph).
    pub fn row(&self, which: Snapshot, u: NodeId) -> Option<&[u32]> {
        match which {
            Snapshot::First => self.rows1.get(&u.0),
            Snapshot::Second => self.rows2.get(&u.0),
        }
        .map(Vec::as_slice)
    }

    /// The landmark indexes (first snapshot, second snapshot), when the
    /// review left any fully-cached exact row pair behind.
    pub fn landmarks(&self) -> Option<(&LandmarkIndex, &LandmarkIndex)> {
        self.landmarks.as_ref().map(|(a, b)| (a, b))
    }

    /// `(t1 rows, t2 rows)` captured.
    pub fn resident_rows(&self) -> (usize, usize) {
        (self.rows1.len(), self.rows2.len())
    }

    /// Whether the index holds nothing useful (no rows, no landmarks).
    pub fn is_empty(&self) -> bool {
        self.rows1.is_empty() && self.rows2.is_empty() && self.landmarks.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_core::oracle::RowCacheBudget;
    use cp_graph::builder::graph_from_edges;

    #[test]
    fn empty_index_answers_nothing() {
        let idx = QueryIndex::empty(7);
        assert_eq!(idx.num_nodes(), 7);
        assert!(idx.is_empty());
        assert!(idx.row(Snapshot::Second, NodeId(3)).is_none());
        assert!(idx.landmarks().is_none());
        assert_eq!(idx.resident_rows(), (0, 0));
    }

    #[test]
    fn capture_copies_paid_rows_and_landmarks() {
        let base: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let g1 = graph_from_edges(10, &base);
        let mut all = base;
        all.push((0, 9));
        let g2 = graph_from_edges(10, &all);
        let mut oracle =
            SnapshotOracle::with_budget(&g1, &g2, 8).with_row_cache(RowCacheBudget::Unbounded);
        oracle.rows(NodeId(0)).unwrap();
        oracle.rows(NodeId(5)).unwrap();
        let idx = QueryIndex::capture(&oracle);
        assert_eq!(idx.resident_rows(), (2, 2));
        assert!(!idx.is_empty());
        let row = idx.row(Snapshot::Second, NodeId(0)).expect("resident");
        assert_eq!(row[9], 1, "the chord distance");
        let (_, i2) = idx.landmarks().expect("two exact row pairs resident");
        assert_eq!(i2.landmarks(), &[NodeId(0), NodeId(5)]);
    }
}
