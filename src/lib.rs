//! # converging-pairs
//!
//! A reproduction of *Identifying Converging Pairs of Nodes on a Budget*
//! (Lazaridou, Pitoura, Semertzidis, Tsaparas — EDBT 2015).
//!
//! Given two snapshots `G_t1 ⊆ G_t2` of a growing graph, the library finds
//! the **top-k converging pairs** — the connected pairs of `G_t1` whose
//! shortest-path distance decreased the most — either exactly (all-pairs
//! BFS) or under a *budget* of `2m` single-source shortest-path
//! computations using the paper's full suite of candidate-endpoint
//! selectors (centrality-, dispersion-, landmark-, hybrid-,
//! classification-based, plus the Incidence baselines).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`graph`] (`cp-graph`) — CSR snapshots, temporal streams, SSSP,
//!   components, diameter, betweenness.
//! * [`gen`] (`cp-gen`) — synthetic evolving-graph generators and the four
//!   dataset emulators used by the experiments.
//! * [`ml`] (`cp-ml`) — the logistic-regression substrate behind the
//!   classifier-based selectors.
//! * [`core`] (`cp-core`) — the paper's algorithms: exact baseline,
//!   `G^p_k` pair graph + greedy cover, budgeted top-k pipeline, selectors,
//!   coverage evaluation and the experiment runner.
//! * [`stream`] (`cp-stream`) — the streaming convergence engine: edge
//!   events in, budgeted reviews out on a policy, row store chained across
//!   reviews, subscription watches, immutable published epochs.
//! * [`query`] (`cp-query`) — budget-free point queries (`d(u,v)`,
//!   `Δ(u,v)`), per-seed top-k and composable traversals served entirely
//!   from published epochs, with honest `Exact`/`Bounded`/`Unknown`
//!   answers.
//! * [`exec`] (`cp-exec`) — the persistent work-stealing executor every
//!   parallel phase runs on: workers spawned once per process (or per
//!   injected pool), parked between batches, with per-worker scratch that
//!   persists across batches.
//!
//! ## Quickstart
//!
//! ```
//! use converging_pairs::prelude::*;
//!
//! // An evolving graph: a long path that gets a shortcut.
//! let mut edges: Vec<(NodeId, NodeId)> =
//!     (0..9).map(|i| (NodeId(i), NodeId(i + 1))).collect();
//! edges.push((NodeId(0), NodeId(9))); // the late shortcut
//! let temporal = TemporalGraph::from_sequence(10, edges);
//! let (g1, g2) = temporal.snapshot_pair(0.9, 1.0);
//!
//! // Exact ground truth: endpoints of the shortcut converge the most.
//! let exact = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 0 }, 1);
//! assert_eq!(exact.pairs[0].pair, (NodeId(0), NodeId(9)));
//! assert_eq!(exact.pairs[0].delta, 9 - 1);
//!
//! // Budgeted: spend 4 SSSP computations per snapshot with the MMSD
//! // (MaxMin landmarks + SumDiff ranking) hybrid selector.
//! let mut selector = SelectorKind::Mmsd { landmarks: 2 }.build(7);
//! let result = budgeted_top_k(&g1, &g2, selector.as_mut(), 4, &exact.spec());
//! assert!(result.budget.total() <= 8);
//! ```

pub use cp_core as core;
pub use cp_exec as exec;
pub use cp_gen as gen;
pub use cp_graph as graph;
pub use cp_ml as ml;
pub use cp_query as query;
pub use cp_stream as stream;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use cp_core::coverage::coverage;
    pub use cp_core::exact::{exact_top_k, ConvergingPair, ExactTopK, TopKSpec};
    pub use cp_core::gpk::PairGraph;
    pub use cp_core::selectors::{CandidateSelector, SelectorKind};
    pub use cp_core::topk::{budgeted_top_k, BudgetedResult};
    pub use cp_gen::datasets::{DatasetKind, DatasetProfile};
    pub use cp_graph::{Graph, GraphBuilder, NodeId, TemporalGraph, TimedEdge, INF};
    pub use cp_query::{Answer, EpochView, QueryEngine};
    pub use cp_stream::{
        ConvergenceMonitor, MonitorConfig, ReviewPolicy, StreamConfig, StreamEngine, StreamEvent,
    };
}
