//! The query engine: budget-free answers over published epochs.

use crate::answer::Answer;
use crate::traverse::Cursor;
use cp_core::bounds::all_pairs_below;
use cp_core::exact::{sort_pairs, ConvergingPair};
use cp_core::oracle::Snapshot;
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
/// [`cp_stream::QueryIndex`] — resident rows, chained donor rows and at
/// most 16 landmark row pairs. Queries never touch a budget ledger, never
/// lock the engine, and never block a concurrent review: the zero-budget
/// guarantee is structural (this type holds no oracle and no `&mut`
/// anything).
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

    /// The certified interval on `d(u, v)` in one review snapshot:
    /// resident rows first (either endpoint — the graphs are undirected),
    /// landmark triangle bounds otherwise. `(INF, INF)` is *certified
    /// disconnected*; `(0, INF)` is "nothing known".
    fn dist_interval(&self, which: Snapshot, u: NodeId, v: NodeId) -> (u32, u32) {
        if u == v {
            return (0, 0);
        }
        let q = &self.snap.query;
        for (a, b) in [(u, v), (v, u)] {
            if let Some(row) = q.row(which, a) {
                let d = row[b.index()];
                return (d, d);
            }
        }
        match q.landmarks() {
            Some((i1, i2)) => {
                let idx = match which {
                    Snapshot::First => i1,
                    Snapshot::Second => i2,
                };
                idx.bounds(u, v)
            }
            None => (0, INF),
        }
    }

    /// What the epoch proves about `d(u, v)` in the epoch's graph (the
    /// review's second snapshot). `Answer::Exact(INF)` means certified
    /// disconnected. Out-of-universe endpoints answer `Unknown`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Answer {
        if !self.in_universe(u) || !self.in_universe(v) {
            return Answer::Unknown;
        }
        let (lb, ub) = self.dist_interval(Snapshot::Second, u, v);
        Answer::from_interval(lb, ub)
    }

    /// What the epoch proves about `Δ(u, v) = d_t1(u, v) − d_t2(u, v)`,
    /// the review's distance decrease. Follows the pipeline's convention
    /// ([`cp_graph::distance_decrease`]): a pair disconnected in the first
    /// snapshot is outside the problem and answers `Exact(0)`.
    pub fn delta(&self, u: NodeId, v: NodeId) -> Answer {
        if !self.in_universe(u) || !self.in_universe(v) {
            return Answer::Unknown;
        }
        if u == v {
            return Answer::Exact(0);
        }
        let (lb1, ub1) = self.dist_interval(Snapshot::First, u, v);
        let (lb2, ub2) = self.dist_interval(Snapshot::Second, u, v);
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
    ///   captured rows, and the answer is `complete`.
    /// * Seed not resident: if the landmark bounds certify every pair of
    ///   the seed below Δ = 1, the empty answer is complete; otherwise the
    ///   epoch cannot serve the seed (`complete: false`).
    pub fn topk_for_seed(&self, u: NodeId, k: usize) -> SeedTopK {
        if !self.in_universe(u) {
            return SeedTopK {
                pairs: Vec::new(),
                complete: false,
            };
        }
        let q = &self.snap.query;
        let (r1, r2) = (q.row(Snapshot::First, u), q.row(Snapshot::Second, u));
        let (Some(r1), Some(r2)) = (r1, r2) else {
            // Landmark-certified pruning: every pair of `u` certified
            // below Δ = 1 proves the seed has no converging pair at all.
            let complete = match q.landmarks() {
                Some((i1, i2)) => {
                    let (mut ub1, mut lb2) = (Vec::new(), Vec::new());
                    all_pairs_below(i1, i2, u, 1, &mut ub1, &mut lb2)
                }
                None => false,
            };
            return SeedTopK {
                pairs: Vec::new(),
                complete,
            };
        };
        let mut pairs: Vec<ConvergingPair> = r1
            .iter()
            .zip(r2)
            .enumerate()
            .filter(|&(v, _)| v != u.index())
            .filter_map(|(v, (&d1, &d2))| match distance_decrease(d1, d2) {
                Some(delta) if delta >= 1 => Some(ConvergingPair::new(u, NodeId::new(v), delta)),
                _ => None,
            })
            .collect();
        sort_pairs(&mut pairs);
        pairs.truncate(k);
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
