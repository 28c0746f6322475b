//! Graph substrate for the converging-pairs library.
//!
//! This crate provides everything the EDBT 2015 *converging pairs* algorithms
//! need from a graph library, built from scratch:
//!
//! * [`Graph`] — an immutable, undirected snapshot in CSR form with sorted
//!   adjacency lists and optional integer edge weights.
//! * [`GraphBuilder`] — incremental construction with de-duplication of
//!   parallel edges and removal of self-loops.
//! * [`TemporalGraph`] — a timestamped edge stream over a fixed node universe
//!   from which prefix snapshots (e.g. "the graph after 80 % of the edges")
//!   can be extracted; this models the paper's slice sequence
//!   `S_1, S_2, …, S_t` of node and edge insertions.
//! * Single-source shortest paths: [`bfs`](bfs::bfs) for unit weights
//!   (direction-optimizing top-down/bottom-up hybrid) and
//!   [`dijkstra`](dijkstra::dijkstra) for weighted graphs, plus reusable
//!   workspaces so hot loops do not allocate.
//! * [`msbfs`] — bit-parallel, direction-optimizing multi-source BFS
//!   advancing up to 64 sources per graph sweep, the kernel behind the
//!   budget oracle's batched prefetch, the exact truth and the diameter.
//! * [`components`] — connected components, connected-pair counting.
//! * [`diameter`] — exact (threaded all-pairs BFS) and double-sweep bounds.
//! * [`betweenness`] — exact Brandes edge betweenness: tree edges in
//!   closed form, weighted sweeps over the 2-core (needed by the
//!   Incidence baseline of Papadimitriou et al. that the paper compares
//!   against).
//! * [`apsp`] — threaded source-block streaming over the pool, used to
//!   compute the exact ground-truth top-k converging pairs from a list of
//!   sources.
//! * [`landmark_index`] — classic landmark distance estimation (triangle
//!   upper/lower bounds), the technique the paper's related work builds on
//!   and the basis of the Δ-certification extension in `cp-core`.
//! * [`rowpack`] — compact row storage: `u16` packing for unweighted
//!   distance rows (half the bytes, twice the cache reach) and a pooled
//!   slab [`RowArena`](rowpack::RowArena), the backing store of the
//!   budget oracle's resident rows.
//!
//! Distances are `u32` with [`INF`] as the unreachable sentinel, which keeps
//! distance rows compact (4 bytes/node) — the experiments stream millions of
//! distance rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apsp;
pub mod betweenness;
pub mod bfs;
pub mod builder;
pub mod components;
pub mod degrees;
pub mod diameter;
pub mod dijkstra;
pub mod graph;
pub mod landmark_index;
pub mod msbfs;
pub mod rowpack;
pub mod temporal;
pub mod unionfind;

pub use builder::GraphBuilder;
pub use graph::{Graph, NodeId};
pub use temporal::{GraphAccumulator, PrefixCursor, TemporalGraph, TimedEdge};

/// Sentinel distance meaning "unreachable".
///
/// All shortest-path routines in this crate write this value for nodes that
/// are not connected to the source. Real distances are always strictly
/// smaller (a graph with `u32::MAX` nodes does not fit in memory).
pub const INF: u32 = u32::MAX;

/// Returns `true` for a reachable (finite) distance.
#[inline]
pub fn reachable(d: u32) -> bool {
    d != INF
}

/// The decrease in distance between two snapshots, `d1 - d2`, following the
/// paper's Δ_{t1,t2}(u, v) = d_{t1}(u, v) − d_{t2}(u, v).
///
/// Pairs that are unreachable in the *first* snapshot are excluded by the
/// problem definition (the paper only considers pairs connected in `G_t1`),
/// so this returns `None` when `d1 == INF`. Edge insertions can only shrink
/// distances, hence `d2 <= d1` whenever both are finite; the function is
/// nevertheless total and saturates at zero if fed a non-monotone input.
#[inline]
pub fn distance_decrease(d1: u32, d2: u32) -> Option<u32> {
    if d1 == INF {
        None
    } else if d2 == INF {
        // Cannot happen for growing graphs; treat as "no decrease" so that
        // corrupted inputs never produce a bogus huge delta.
        Some(0)
    } else {
        Some(d1.saturating_sub(d2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_decrease_basic() {
        assert_eq!(distance_decrease(5, 2), Some(3));
        assert_eq!(distance_decrease(5, 5), Some(0));
        assert_eq!(distance_decrease(INF, 2), None);
        assert_eq!(distance_decrease(5, INF), Some(0));
    }

    #[test]
    fn distance_decrease_saturates() {
        // Non-monotone input (would indicate edge deletion) saturates to 0.
        assert_eq!(distance_decrease(2, 5), Some(0));
    }

    #[test]
    fn reachable_sentinel() {
        assert!(reachable(0));
        assert!(reachable(123));
        assert!(!reachable(INF));
    }
}
