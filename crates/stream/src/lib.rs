//! Streaming convergence engine: the paper's batch pipeline turned into a
//! long-running service.
//!
//! The paper's own motivation (§1) is *continuous* evolution — analysts
//! reviewing a growing network periodically, each review under a per-step
//! SSSP budget — while the batch crates operate on one `(G_t1, G_t2)` pair
//! at a time. [`StreamEngine`] closes that gap:
//!
//! * **Ingest** — timestamped edge events ([`cp_graph::TimedEdge`] is the
//!   wire format) fold into an incremental CSR assembler
//!   ([`cp_graph::GraphAccumulator`]); nothing is rebuilt per review.
//!   Events that violate the insert-only containment model — timestamps
//!   behind the watermark, duplicate edges — are rejected with a typed
//!   [`StreamError`], never a panic or a silently wrong snapshot.
//! * **Review** — on a configurable [`ReviewPolicy`] (every N events,
//!   every Δt of stream time, or explicit [`StreamEngine::review`]) the
//!   engine cuts the next snapshot and runs the budgeted pipeline against
//!   the previous one, charging each review its own honest `2m` ledger.
//! * **Donor chaining** — the `t2` rows step *t* publishes in its
//!   [`QueryIndex`] are imported into step *t+1*'s oracle as `t1` donors
//!   ([`cp_core::oracle::SnapshotOracle::import_donor_rows`]; the one copy
//!   it makes writes the oracle's `u16`/`u32` width, widening the epoch's
//!   one-byte rows on the way): the same graph object is on both sides of the
//!   hand-off, so rows carry over exactly, first uses are still charged,
//!   and the per-review results stay bit-identical to a from-scratch
//!   [`cp_core::topk::budgeted_top_k`] run.
//! * **Publish** — each review becomes an immutable epoch
//!   ([`StreamSnapshot`]) swapped behind an `Arc`; [`StreamReader`]
//!   handles never observe a half-advanced step.
//! * **Serve** — each epoch carries a read-only [`QueryIndex`] (resident
//!   rows in dense packed arenas and one node-major landmark record per
//!   node) captured from the review's oracle at publish, all at one
//!   storage width: the narrowest of `u8`, `u16` and `u32` that holds
//!   every captured distance below its sentinel (one byte on the
//!   emulators, where a landmark record is 32 bytes). The `cp-query`
//!   crate answers budget-free point queries entirely from this published
//!   material.
//! * **Subscribe** — [`StreamEngine::watch_pair`] /
//!   [`StreamEngine::watch_node`] / [`StreamEngine::watch_topk`] deliver
//!   [`StreamEvent`]s per review ("Δ(u,v) ≥ τ", "pair entered/left the
//!   top-k"), with per-pair streak history ([`PairTrack`]).
//!
//! [`ConvergenceMonitor`] (previously in `cp-core`) survives as a thin
//! wrapper that feeds whole snapshots to the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod index;
pub mod monitor;
pub mod subs;

pub use engine::{
    ReviewPolicy, StreamConfig, StreamEngine, StreamError, StreamReader, StreamSnapshot,
    StreamStats,
};
pub use index::{IndexRow, QueryIndex, MAX_RESIDENT_LANDMARKS};
pub use monitor::{ConvergenceMonitor, MonitorConfig, MonitorStep, PairHistory};
pub use subs::{PairTrack, StreamEvent, WatchId};
