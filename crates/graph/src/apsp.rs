//! All-pairs shortest paths, streamed one block of sources at a time.
//!
//! The exact ground truth for the experiments (the true top-k converging
//! pairs, the diameter, Δmax) needs shortest-path sweeps from many nodes
//! of graphs with 10⁴–10⁵ nodes. Materializing the full `n × n` distance
//! matrix would cost gigabytes, so instead we *stream*:
//! [`for_each_source_block`] cuts `0..n` — the source ids, or positions
//! in a caller's list of sources — into contiguous blocks, fans the
//! blocks out over the persistent [`cp_exec`] worker pool, and hands each
//! one to the caller together with its lane's scratch, so the caller
//! extracts whatever aggregate it needs and drops the distances.
//!
//! Unweighted callers take blocks of [`crate::msbfs::WAVE_WIDTH`] sources and sweep each
//! block with one bit-parallel MS-BFS wave ([`crate::msbfs::msbfs_visit`]),
//! which reports every `(source, node, level)` discovery without writing a
//! row at all. Weighted callers take one-source blocks and run Dijkstra.
//!
//! Lane scratch is created per call and handed back to the caller when the
//! call returns, so lane-local aggregates merge once after the sweep; it
//! never lives in the pool's persistent [`cp_exec::WorkerScratch`], so an
//! all-pairs sweep leaves no wave-sized buffers resident behind it.

use crate::dijkstra::dijkstra;
use crate::graph::{Graph, NodeId};
use crate::msbfs::msbfs;
use parking_lot::Mutex;
use std::ops::Range;

/// Cap on [`default_threads`]: BFS row streaming is memory-bound, so
/// returns diminish well before high core counts, and an unbounded default
/// oversubscribes shared machines.
pub const MAX_DEFAULT_THREADS: usize = cp_exec::MAX_DEFAULT_THREADS;

/// Source count below which [`for_each_source_block`] runs on the calling
/// thread without waking pool workers.
const INLINE_SOURCE_CUTOFF: usize = 32;

/// Default number of worker threads: the available parallelism, capped at
/// [`MAX_DEFAULT_THREADS`] so tiny graphs and shared machines don't pay
/// wake-up and contention overhead per call.
pub fn default_threads() -> usize {
    cp_exec::default_threads()
}

/// Runs `f(sources, lane)` for every block of `block` consecutive
/// indices covering `0..n` (source ids, or positions in a caller's source
/// list), in parallel on up to `threads` lanes.
///
/// Blocks arrive in no particular order; `f` must be `Sync` and guard any
/// shared accumulation itself (atomics, `parking_lot::Mutex`). Each lane
/// owns one `S`, created empty (`S::default()`) when the call starts and
/// reused across the blocks that lane runs. The lanes are returned, one
/// per lane (none when `n == 0`), so the caller can merge lane-local
/// aggregates once; a caller that ignores them frees them right away.
/// Small inputs (fewer than 32 sources), a single block, or
/// `threads == 1` run on the calling thread without waking the pool.
///
/// # Panics
/// Panics if `block == 0` and `n > 0`.
pub fn for_each_source_block<S, F>(n: usize, block: usize, threads: usize, f: F) -> Vec<S>
where
    S: Default + Send,
    F: Fn(Range<usize>, &mut S) + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    assert!(block > 0, "source blocks must be non-empty");
    let blocks = n.div_ceil(block);
    let range = |k: usize| k * block..((k + 1) * block).min(n);
    let threads = threads.max(1).min(blocks);
    if threads == 1 || n < INLINE_SOURCE_CUTOFF {
        let mut lane = S::default();
        for k in 0..blocks {
            f(range(k), &mut lane);
        }
        return vec![lane];
    }
    // One scratch per lane; a lane index is held by one worker at a time,
    // so each lock is uncontended.
    let lanes: Vec<Mutex<S>> = (0..threads).map(|_| Mutex::new(S::default())).collect();
    let mut slots = vec![(); blocks];
    cp_exec::global().run(&mut slots, threads, |k, _slot, ctx| {
        f(range(k), &mut lanes[ctx.index()].lock());
    });
    lanes.into_iter().map(Mutex::into_inner).collect()
}

/// Collects the full distance matrix (row-major, `n × n`): MS-BFS waves on
/// unweighted graphs, per-source Dijkstra on weighted ones. Only sensible
/// for small graphs; tests use it as a reference.
pub fn full_matrix(graph: &Graph) -> Vec<Vec<u32>> {
    if graph.is_weighted() {
        graph.nodes().map(|s| dijkstra(graph, s)).collect()
    } else {
        let sources: Vec<NodeId> = graph.nodes().collect();
        msbfs(graph, &sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::builder::graph_from_edges;
    use crate::msbfs::WAVE_WIDTH;
    use crate::GraphBuilder;

    fn sample() -> Graph {
        graph_from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (6, 7)])
    }

    #[test]
    fn matches_sequential_bfs() {
        let g = sample();
        let matrix = full_matrix(&g);
        for (s, row) in matrix.iter().enumerate() {
            assert_eq!(row, &bfs(&g, NodeId::new(s)), "row {s}");
        }
    }

    #[test]
    fn weighted_matrix_uses_dijkstra() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(NodeId(0), NodeId(1), 5);
        b.add_weighted_edge(NodeId(1), NodeId(2), 7);
        let g = b.build();
        assert_eq!(full_matrix(&g)[0], vec![0, 5, 12]);
    }

    #[test]
    fn visits_every_source_once() {
        for (n, block) in [(8, 1), (130, WAVE_WIDTH), (64, WAVE_WIDTH), (65, 3)] {
            let seen = Mutex::new(vec![0u32; n]);
            for_each_source_block(n, block, 3, |sources, _: &mut ()| {
                assert!(sources.len() <= block && !sources.is_empty());
                for s in sources {
                    seen.lock()[s] += 1;
                }
            });
            assert!(seen.into_inner().iter().all(|&c| c == 1), "n={n}");
        }
    }

    #[test]
    fn lane_scratch_is_dropped_when_the_call_returns() {
        // Each lane counts the blocks it ran and reports the count when
        // it is dropped; every report is in once the call returns.
        #[derive(Default)]
        struct Lane<'a>(usize, Option<&'a Mutex<usize>>);
        impl Drop for Lane<'_> {
            fn drop(&mut self) {
                if let Some(total) = self.1 {
                    *total.lock() += self.0;
                }
            }
        }
        let total = Mutex::new(0usize);
        for_each_source_block(200, 10, 4, |_, lane: &mut Lane<'_>| {
            lane.0 += 1;
            lane.1 = Some(&total);
        });
        assert_eq!(total.into_inner(), 20);
    }

    #[test]
    fn lanes_come_back_for_one_merge() {
        for threads in [1, 4] {
            let lanes =
                for_each_source_block(200, 10, threads, |s, lane: &mut Vec<usize>| lane.extend(s));
            assert!(!lanes.is_empty() && lanes.len() <= threads);
            let mut all: Vec<usize> = lanes.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..200).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_graph_is_noop() {
        let lanes = for_each_source_block(0, WAVE_WIDTH, 4, |_, _: &mut ()| {
            panic!("should not be called")
        });
        assert!(lanes.is_empty());
    }

    #[test]
    fn single_thread_works() {
        let count = Mutex::new(0usize);
        for_each_source_block(100, 7, 1, |sources, _: &mut ()| {
            *count.lock() += sources.len()
        });
        assert_eq!(count.into_inner(), 100);
    }
}
