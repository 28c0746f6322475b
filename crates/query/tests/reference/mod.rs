//! The query layer's reference read path. Nothing here runs at runtime:
//! `cp-query` serves from the packed epoch index (dense row slots and
//! node-major landmark records). This is the plain version it must match
//! answer for answer:
//!
//! * resident rows in hash maps of canonical `u32` rows;
//! * landmark bounds from two row-major [`LandmarkIndex`]es, one per
//!   snapshot, built by fresh SSSPs from the epoch's landmark ids, and
//!   probed with [`LandmarkIndex::bounds`] once per snapshot;
//! * the non-resident seed certificate as two full `n`-length bound
//!   sweeps ([`all_pairs_below`]);
//! * a resident seed's top-k as a full sort cut to `k`.

use cp_core::exact::{sort_pairs, ConvergingPair};
use cp_core::oracle::Snapshot;
use cp_graph::landmark_index::LandmarkIndex;
use cp_graph::{distance_decrease, Graph, NodeId, INF};
use cp_query::{Answer, SeedTopK};
use cp_stream::QueryIndex;
use std::collections::HashMap;

/// One epoch, as the reference path reads it.
pub struct ReferenceView {
    num_nodes: usize,
    rows1: HashMap<u32, Vec<u32>>,
    rows2: HashMap<u32, Vec<u32>>,
    landmarks: Option<(LandmarkIndex, LandmarkIndex)>,
}

impl ReferenceView {
    /// Widens an epoch's captured rows into maps, and builds the landmark
    /// indexes over the review's snapshots `g1` and `g2` (the epoch's
    /// graph) at the epoch's landmark ids.
    pub fn new(index: &QueryIndex, g1: &Graph, g2: &Graph) -> Self {
        let rows = |which| {
            index
                .rows(which)
                .map(|(u, r)| (u.0, r.to_u32_vec()))
                .collect()
        };
        let ids = index.landmarks();
        ReferenceView {
            num_nodes: index.num_nodes(),
            rows1: rows(Snapshot::First),
            rows2: rows(Snapshot::Second),
            landmarks: (!ids.is_empty())
                .then(|| (LandmarkIndex::build(g1, ids), LandmarkIndex::build(g2, ids))),
        }
    }

    fn in_universe(&self, u: NodeId) -> bool {
        u.index() < self.num_nodes
    }

    fn row(&self, which: Snapshot, u: NodeId) -> Option<&[u32]> {
        match which {
            Snapshot::First => self.rows1.get(&u.0),
            Snapshot::Second => self.rows2.get(&u.0),
        }
        .map(Vec::as_slice)
    }

    /// The certified interval on `d(u, v)` in one snapshot: resident rows
    /// of either endpoint first, landmark bounds otherwise.
    fn dist_interval(&self, which: Snapshot, u: NodeId, v: NodeId) -> (u32, u32) {
        if u == v {
            return (0, 0);
        }
        for (a, b) in [(u, v), (v, u)] {
            if let Some(row) = self.row(which, a) {
                let d = row[b.index()];
                return (d, d);
            }
        }
        match &self.landmarks {
            Some((i1, i2)) => match which {
                Snapshot::First => i1.bounds(u, v),
                Snapshot::Second => i2.bounds(u, v),
            },
            None => (0, INF),
        }
    }

    /// The reference `EpochView::distance`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Answer {
        if !self.in_universe(u) || !self.in_universe(v) {
            return Answer::Unknown;
        }
        let (lb, ub) = self.dist_interval(Snapshot::Second, u, v);
        Answer::from_interval(lb, ub)
    }

    /// The reference `EpochView::delta`.
    pub fn delta(&self, u: NodeId, v: NodeId) -> Answer {
        if !self.in_universe(u) || !self.in_universe(v) {
            return Answer::Unknown;
        }
        if u == v {
            return Answer::Exact(0);
        }
        let (lb1, ub1) = self.dist_interval(Snapshot::First, u, v);
        let (lb2, ub2) = self.dist_interval(Snapshot::Second, u, v);
        if lb1 == INF || lb2 == INF {
            return Answer::Exact(0);
        }
        if lb1 == ub1 && lb2 == ub2 {
            return Answer::Exact(distance_decrease(lb1, lb2).unwrap_or(0));
        }
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

    /// The reference `EpochView::topk_for_seed`.
    pub fn topk_for_seed(&self, u: NodeId, k: usize) -> SeedTopK {
        if !self.in_universe(u) {
            return SeedTopK {
                pairs: Vec::new(),
                complete: false,
            };
        }
        let (Some(r1), Some(r2)) = (self.row(Snapshot::First, u), self.row(Snapshot::Second, u))
        else {
            let complete = match &self.landmarks {
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
}

/// Whether **every** pair of `u` is certified below `floor`:
/// `UB1(u, v) − LB2(u, v) < floor` for all `v ≠ u`, or `LB2(u, v) = ∞`
/// (which proves `d2(u, v) = ∞`, hence Δ = 0 under the scan's convention).
///
/// `ub1`/`lb2` are caller-owned scratch (resized and overwritten).
pub fn all_pairs_below(
    index1: &LandmarkIndex,
    index2: &LandmarkIndex,
    u: NodeId,
    floor: u32,
    ub1: &mut Vec<u32>,
    lb2: &mut Vec<u32>,
) -> bool {
    index1.accumulate_upper_bounds(u, ub1);
    index2.accumulate_lower_bounds(u, lb2);
    ub1.iter()
        .zip(lb2.iter())
        .enumerate()
        .all(|(v, (&ub, &lb))| {
            v == u.index() || lb == INF || (ub != INF && ub.saturating_sub(lb) < floor)
        })
}
