//! Budget-free query serving over published streaming epochs.
//!
//! The budgeted pipeline (cp-core) spends its `2m` SSSP ledger deciding
//! *which* rows to materialize; the streaming engine (cp-stream) publishes
//! each review as an immutable epoch carrying those rows in a read-only
//! [`cp_stream::QueryIndex`]. This crate is the third act: answering
//! *point* questions — `d(u, v)`, `Δ(u, v)`, "this seed's top-k", "what
//! is two hops out of `u`" — entirely from that published material.
//! Queries spend **zero** budget, take no engine lock, and never block a
//! concurrent review; what an epoch cannot prove is reported honestly
//! through the [`Answer`] lattice (`Exact` / `Bounded` / `Unknown`)
//! rather than re-computed.
//!
//! * [`QueryEngine`] — wraps an epoch reader ([`EpochReader`]); each call
//!   pins the latest epoch.
//! * [`EpochView`] — one pinned epoch for consistent multi-read sessions.
//! * [`Answer`] — the three-valued answer lattice with sound intervals.
//! * [`SeedTopK`] — per-seed top-k with a completeness certificate.
//! * [`Cursor`] — composable traversal: `from(u).step().filter(p).collect()`.
//!
//! # What a query reads
//!
//! The index is laid out for these reads (see [`cp_stream::index`]).
//! Resident rows are found through a dense slot per node and read at
//! the epoch's one storage width — `u8` when every captured distance is
//! below 255, else `u16` or `u32`. Landmark bounds come from one
//! node-major record per node, `[d1(ℓ_0..ℓ_16) | d2(ℓ_0..ℓ_16)]`: 64
//! bytes, one cache line at `u16` width. Because one record holds both
//! snapshots, [`EpochView::distance`] reads the `d2` halves of two records
//! and [`EpochView::delta`] folds both halves of the *same* two records in
//! one pass. A non-resident seed's [`EpochView::topk_for_seed`] walks the
//! records and stops at the first pair the bounds cannot rule out; a
//! resident seed sorts only its best `k` pairs.
//!
//! ```
//! use cp_query::{Answer, QueryEngine};
//! use cp_core::exact::TopKSpec;
//! use cp_core::selectors::SelectorKind;
//! use cp_graph::{NodeId, TimedEdge};
//! use cp_stream::{StreamConfig, StreamEngine};
//!
//! // A 10-node path that gains a shortcut: the pair (0, 9) converges.
//! let cfg = StreamConfig::new(10, SelectorKind::Degree,
//!                             TopKSpec::ThresholdFromMax { slack: 0 }, 7);
//! let mut engine = StreamEngine::new(10, cfg);
//! for i in 0..9u32 {
//!     engine.ingest(TimedEdge { u: NodeId(i), v: NodeId(i + 1), time: 0 }).unwrap();
//! }
//! engine.review();
//! engine.ingest(TimedEdge { u: NodeId(0), v: NodeId(9), time: 1 }).unwrap();
//! engine.review();
//!
//! // Queries are served from the published epoch — no budget, no locks.
//! let q = QueryEngine::new(engine.reader());
//! assert_eq!(q.distance(NodeId(0), NodeId(9)), Answer::Exact(1));
//! assert_eq!(q.delta(NodeId(0), NodeId(9)), Answer::Exact(8));
//!
//! let top = q.topk_for_seed(NodeId(0), 1);
//! assert!(top.complete);
//! assert_eq!(top.pairs[0].pair, (NodeId(0), NodeId(9)));
//!
//! // Composable traversal over the same epoch's graph.
//! let two_hops = q.from(NodeId(0)).step().step().filter(|n| n.0 % 2 == 0).collect();
//! assert!(two_hops.contains(&NodeId(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod engine;
pub mod traverse;

/// The epoch-reader handle queries are built on (re-export of
/// [`cp_stream::StreamReader`]).
pub use cp_stream::StreamReader as EpochReader;

pub use answer::Answer;
pub use engine::{EpochView, QueryEngine, SeedTopK};
pub use traverse::Cursor;
