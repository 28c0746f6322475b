//! The query engine: budget-free answers over published epochs.

use crate::answer::Answer;
use crate::traverse::Cursor;
use cp_core::exact::{canonical_order, ConvergingPair};
use cp_core::oracle::Snapshot;
use cp_graph::rowpack::{RowDist, RowRef};
use cp_graph::{distance_decrease, NodeId, INF};
use cp_stream::{StreamReader, StreamSnapshot};
use std::sync::Arc;

/// A per-seed top-k answer (see [`EpochView::topk_for_seed`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedTopK {
    /// The seed's converging pairs, canonically sorted (descending Δ,
    /// ascending ids), at most `k`.
    pub pairs: Vec<ConvergingPair>,
    /// Whether `pairs` provably equals the exact per-seed top-k. `false`
    /// means the published rows could not certify the answer (seed not
    /// resident and not landmark-prunable).
    pub complete: bool,
}

/// Budget-free queries over the engine's *latest* published epoch.
///
/// Wraps an epoch reader ([`StreamReader`]); every call pins the newest
/// epoch with one `Arc` clone and serves entirely from its published
/// [`cp_stream::QueryIndex`] — resident rows, chained donor rows and
/// node-major records of at most 16 landmarks. Queries never touch a
/// budget ledger, never lock the engine, and never block a concurrent
/// review: the zero-budget guarantee is structural (this type holds no
/// oracle and no `&mut` anything).
///
/// Each convenience method pins the latest epoch independently; a caller
/// that needs several reads from *one* consistent epoch should hold an
/// [`EpochView`] from [`Self::epoch`] instead.
#[derive(Clone)]
pub struct QueryEngine {
    reader: StreamReader,
}

impl QueryEngine {
    /// Wraps an epoch reader ([`cp_stream::StreamEngine::reader`]).
    pub fn new(reader: StreamReader) -> Self {
        QueryEngine { reader }
    }

    /// Pins the latest published epoch for a consistent multi-read view.
    pub fn epoch(&self) -> EpochView {
        EpochView {
            snap: self.reader.latest(),
        }
    }

    /// [`EpochView::distance`] on the latest epoch.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Answer {
        self.epoch().distance(u, v)
    }

    /// [`EpochView::delta`] on the latest epoch.
    pub fn delta(&self, u: NodeId, v: NodeId) -> Answer {
        self.epoch().delta(u, v)
    }

    /// [`EpochView::topk_for_seed`] on the latest epoch.
    pub fn topk_for_seed(&self, u: NodeId, k: usize) -> SeedTopK {
        self.epoch().topk_for_seed(u, k)
    }

    /// [`EpochView::from`] on the latest epoch.
    pub fn from(&self, start: NodeId) -> Cursor {
        self.epoch().from(start)
    }
}

/// One pinned epoch: every answer this view produces refers to the same
/// published review, however many epochs the engine advances meanwhile.
#[derive(Clone)]
pub struct EpochView {
    snap: Arc<StreamSnapshot>,
}

impl EpochView {
    /// Wraps one published epoch directly (readers that already hold an
    /// `Arc<StreamSnapshot>` — e.g. from [`cp_stream::StreamEngine::review`]
    /// — can query it without a [`StreamReader`]).
    pub fn of(snap: Arc<StreamSnapshot>) -> Self {
        EpochView { snap }
    }

    /// The pinned epoch's review index (0 = pre-first-review).
    pub fn review(&self) -> u32 {
        self.snap.review
    }

    /// The pinned epoch.
    pub fn snapshot(&self) -> &Arc<StreamSnapshot> {
        &self.snap
    }

    /// Whether `u` is inside the epoch's node universe.
    fn in_universe(&self, u: NodeId) -> bool {
        u.index() < self.snap.graph.num_nodes()
    }

    /// `d(u, v)` in one review snapshot from a resident row of either
    /// endpoint (the graphs are undirected), if one was captured.
    #[inline]
    fn resident(&self, which: Snapshot, u: NodeId, v: NodeId) -> Option<u32> {
        let q = &self.snap.query;
        match q.row(which, u) {
            Some(row) => Some(row.get(v.index())),
            None => q.row(which, v).map(|row| row.get(u.index())),
        }
    }

    /// What the epoch proves about `d(u, v)` in the epoch's graph (the
    /// review's second snapshot): a resident row of either endpoint
    /// answers exactly, the landmark bounds otherwise. `Answer::Exact(INF)`
    /// means certified disconnected. Out-of-universe endpoints answer
    /// `Unknown`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Answer {
        if !self.in_universe(u) || !self.in_universe(v) {
            return Answer::Unknown;
        }
        if u == v {
            return Answer::Exact(0);
        }
        let (lb, ub) = match self.resident(Snapshot::Second, u, v) {
            Some(d) => (d, d),
            None => self.snap.query.landmark_bounds(Snapshot::Second, u, v),
        };
        Answer::from_interval(lb, ub)
    }

    /// What the epoch proves about `Δ(u, v) = d_t1(u, v) − d_t2(u, v)`,
    /// the review's distance decrease. Follows the pipeline's convention
    /// ([`cp_graph::distance_decrease`]): a pair disconnected in the first
    /// snapshot is outside the problem and answers `Exact(0)`. When
    /// neither snapshot has a resident row for the pair, both intervals
    /// come from one pass over the two endpoints' landmark records.
    pub fn delta(&self, u: NodeId, v: NodeId) -> Answer {
        if !self.in_universe(u) || !self.in_universe(v) {
            return Answer::Unknown;
        }
        if u == v {
            return Answer::Exact(0);
        }
        let q = &self.snap.query;
        let exact = |d: u32| (d, d);
        let [(lb1, ub1), (lb2, ub2)] = match (
            self.resident(Snapshot::First, u, v),
            self.resident(Snapshot::Second, u, v),
        ) {
            (Some(d1), Some(d2)) => [exact(d1), exact(d2)],
            (Some(d1), None) => [exact(d1), q.landmark_bounds(Snapshot::Second, u, v)],
            (None, Some(d2)) => [q.landmark_bounds(Snapshot::First, u, v), exact(d2)],
            (None, None) => q.landmark_bounds_both(u, v),
        };
        // Certified disconnection on either side forces Δ = 0: in the
        // first snapshot the pair is outside the problem; in the second it
        // implies (growth-only) disconnection in the first too.
        if lb1 == INF || lb2 == INF {
            return Answer::Exact(0);
        }
        if lb1 == ub1 && lb2 == ub2 {
            // Both sides exact (and finite, per the check above).
            return Answer::Exact(distance_decrease(lb1, lb2).unwrap_or(0));
        }
        // Interval arithmetic under the Δ-as-0 convention: when d1 may be
        // infinite (ub1 == INF) the decrease may legitimately be 0, so the
        // lower side collapses; the upper side is unbounded unless d1 has
        // a finite certificate.
        let dlb = if ub1 == INF {
            0
        } else {
            lb1.saturating_sub(ub2)
        };
        let dub = if ub1 == INF {
            INF
        } else {
            ub1.saturating_sub(lb2)
        };
        Answer::from_interval(dlb, dub.max(dlb))
    }

    /// The seed's top-k converging pairs from its resident rows, with
    /// landmark-certified pruning for non-resident seeds.
    ///
    /// * Seed resident in both snapshots: Δs are computed exactly from the
    ///   captured rows, the `k` best are selected and only they are
    ///   sorted, and the answer is `complete`.
    /// * Seed not resident: if the landmark bounds certify every pair of
    ///   the seed below Δ = 1, the empty answer is complete; otherwise the
    ///   epoch cannot serve the seed (`complete: false`). The walk stops at
    ///   the first pair the bounds cannot rule out.
    pub fn topk_for_seed(&self, u: NodeId, k: usize) -> SeedTopK {
        if !self.in_universe(u) {
            return SeedTopK {
                pairs: Vec::new(),
                complete: false,
            };
        }
        let q = &self.snap.query;
        let (Some(r1), Some(r2)) = (q.row(Snapshot::First, u), q.row(Snapshot::Second, u)) else {
            return SeedTopK {
                pairs: Vec::new(),
                complete: q.rules_out_seed(u),
            };
        };
        let mut pairs = match (r1, r2) {
            (RowRef::U16(a), RowRef::U16(b)) => seed_pairs(u, a, b),
            (RowRef::U16(a), RowRef::U32(b)) => seed_pairs(u, a, b),
            (RowRef::U32(a), RowRef::U16(b)) => seed_pairs(u, a, b),
            (RowRef::U32(a), RowRef::U32(b)) => seed_pairs(u, a, b),
        };
        // The canonical order is total, so selecting the k best and
        // sorting only them equals a full sort cut to k.
        if k < pairs.len() {
            pairs.select_nth_unstable_by(k, canonical_order);
            pairs.truncate(k);
        }
        pairs.sort_unstable_by(canonical_order);
        SeedTopK {
            pairs,
            complete: true,
        }
    }

    /// Starts a composable traversal over the epoch's graph at `start`
    /// (an empty cursor when `start` is outside the universe):
    /// `view.from(u).step().filter(pred).collect()`.
    pub fn from(&self, start: NodeId) -> Cursor {
        Cursor::rooted(Arc::clone(&self.snap), start)
    }
}

/// Every pair `(u, v)` with `Δ ≥ 1` from `u`'s two rows, in ascending `v`.
fn seed_pairs<A: RowDist, B: RowDist>(u: NodeId, r1: &[A], r2: &[B]) -> Vec<ConvergingPair> {
    r1.iter()
        .zip(r2)
        .enumerate()
        .filter(|&(v, _)| v != u.index())
        .filter_map(
            |(v, (&d1, &d2))| match distance_decrease(d1.widen(), d2.widen()) {
                Some(delta) if delta >= 1 => Some(ConvergingPair::new(u, NodeId::new(v), delta)),
                _ => None,
            },
        )
        .collect()
}
