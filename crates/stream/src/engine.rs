//! The streaming engine: ingest, review, chain, publish.

use crate::index::QueryIndex;
use crate::subs::{PairTrack, StreamEvent, Watch, WatchId, WatchKind};
use cp_core::exact::TopKSpec;
use cp_core::oracle::{Snapshot, SnapshotOracle};
use cp_core::selectors::SelectorKind;
use cp_core::topk::{run_pipeline, BudgetedResult, PipelineStats};
use cp_graph::temporal::GraphAccumulator;
use cp_graph::{Graph, NodeId, TimedEdge};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// When the engine cuts a review snapshot on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReviewPolicy {
    /// Never automatically; the caller drives [`StreamEngine::review`].
    Manual,
    /// After every `n` accepted events (`n = 0` behaves like `n = 1`).
    EveryEvents(usize),
    /// Whenever an accepted event's timestamp is at least `dt` past the
    /// anchor — the first accepted event after the previous review — the
    /// review fires *including* that event, and the anchor resets.
    EveryInterval(u64),
}

/// Configuration of a [`StreamEngine`].
///
/// The `m`/`selector`/`spec`/`seed` quadruple mirrors the batch pipeline;
/// each review runs under its own `2m` SSSP ledger with a selector seeded
/// `seed + review_index`, so review *r*'s output is bit-identical to a
/// from-scratch [`cp_core::topk::budgeted_top_k`] on the same snapshot
/// pair. `threads` overrides the process-environment default
/// (`CP_THREADS`) — `None` inherits it.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Candidate budget per review (`2m` SSSPs each).
    pub m: u64,
    /// Selector run each review.
    pub selector: SelectorKind,
    /// How pairs are cut each review.
    pub spec: TopKSpec,
    /// Base seed; review `r` builds its selector with `seed + r`.
    pub seed: u64,
    /// When reviews fire.
    pub policy: ReviewPolicy,
    /// Worker threads (`None`: `CP_THREADS` / default).
    pub threads: Option<usize>,
    /// Chain the row store across reviews: step *t*'s resident `t2` rows
    /// become step *t+1*'s `t1` donors. Pure wall-clock optimization —
    /// ledger and results are bit-identical either way.
    pub chain_cache: bool,
}

impl StreamConfig {
    /// A config with the given pipeline quadruple, manual reviews,
    /// the environment-default thread count, and donor chaining on.
    pub fn new(m: u64, selector: SelectorKind, spec: TopKSpec, seed: u64) -> Self {
        StreamConfig {
            m,
            selector,
            spec,
            seed,
            policy: ReviewPolicy::Manual,
            threads: None,
            chain_cache: true,
        }
    }

    /// Sets the review policy (builder style).
    pub fn with_policy(mut self, policy: ReviewPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables review-to-review cache chaining (builder style).
    pub fn with_chaining(mut self, on: bool) -> Self {
        self.chain_cache = on;
        self
    }
}

/// An ingested event the engine must reject to keep the insert-only
/// containment model (`G_t ⊆ G_{t+1}`) honest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The event's timestamp is behind the newest accepted event; folding
    /// it in would put edges into snapshots that were already published
    /// without them.
    OutOfOrder {
        /// The rejected event's timestamp.
        time: u64,
        /// The newest accepted timestamp (the stream's watermark).
        watermark: u64,
    },
    /// The undirected edge is already present. Snapshots are edge *sets*;
    /// re-announcing an edge is not an insertion, and silently dropping it
    /// would skew event-count review policies.
    DuplicateEdge {
        /// One endpoint (normalized: the smaller id).
        u: NodeId,
        /// Other endpoint.
        v: NodeId,
    },
    /// Self-loops never exist in a snapshot.
    SelfLoop {
        /// The looping node.
        node: NodeId,
    },
    /// An endpoint lies outside the engine's fixed node universe.
    OutOfUniverse {
        /// The offending endpoint.
        node: NodeId,
        /// The universe size.
        num_nodes: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StreamError::OutOfOrder { time, watermark } => write!(
                f,
                "event at time {time} is behind the stream watermark {watermark}"
            ),
            StreamError::DuplicateEdge { u, v } => {
                write!(f, "edge ({u}, {v}) is already present")
            }
            StreamError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            StreamError::OutOfUniverse { node, num_nodes } => write!(
                f,
                "node {node} outside the engine's universe of {num_nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Per-review instrumentation, in the style of
/// [`cp_core::topk::PipelineStats`] (which it embeds).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StreamStats {
    /// 1-based review index.
    pub review: u32,
    /// Events accepted since the previous review (the ones this review
    /// folded in).
    pub events_ingested: u64,
    /// Events accepted over the engine's lifetime.
    pub events_total: u64,
    /// Wall clock spent in [`StreamEngine::ingest`] since the previous
    /// review (validation + incremental CSR maintenance).
    pub ingest_secs: f64,
    /// Wall clock cutting this review's snapshot from the accumulator.
    pub advance_secs: f64,
    /// Wall clock of the budgeted pipeline run.
    pub pipeline_secs: f64,
    /// Donor rows imported from the previous review's hand-off.
    pub donor_rows_imported: u64,
    /// Charged rows served straight from imported donors (no kernel ran).
    pub donor_chain_hits: u64,
    /// Always 0; remains only for the benchmark, which reports it.
    pub repaired_rows: u64,
    /// `donor_chain_hits / sssp_computed` — the fraction of this review's
    /// charges that skipped a kernel thanks to the chain. 0 when nothing
    /// was charged.
    pub donor_hit_rate: f64,
    /// Subscription events delivered with this epoch.
    pub subscriptions_fired: u64,
    /// The embedded batch-pipeline instrumentation.
    pub pipeline: PipelineStats,
}

/// An immutable published epoch: one review's complete output.
#[derive(Clone, Debug)]
pub struct StreamSnapshot {
    /// 1-based review index (0 for the pre-first-review epoch).
    pub review: u32,
    /// The snapshot the review was cut at (the next review's `G_t1`).
    pub graph: Arc<Graph>,
    /// The budgeted pipeline output against the previous snapshot.
    pub result: BudgetedResult,
    /// Subscription events fired by this review.
    pub events: Vec<StreamEvent>,
    /// Per-review instrumentation.
    pub stats: StreamStats,
    /// Read-only query material captured from the review's oracle before
    /// it was dropped: resident rows and landmark records. Point queries
    /// (`cp-query`) are served entirely from this — no budget, no locks,
    /// no engine access.
    pub query: Arc<QueryIndex>,
}

/// A cloneable read handle onto the engine's latest published epoch.
///
/// Readers are decoupled from the engine: [`Self::latest`] takes the lock
/// only for an `Arc` pointer clone, so an epoch a reader holds stays
/// immutable and complete while the engine publishes newer ones.
#[derive(Clone)]
pub struct StreamReader {
    shared: Arc<RwLock<Arc<StreamSnapshot>>>,
}

impl StreamReader {
    /// The most recently published epoch.
    pub fn latest(&self) -> Arc<StreamSnapshot> {
        Arc::clone(&self.shared.read())
    }
}

/// The long-running streaming convergence engine (see the crate docs).
pub struct StreamEngine {
    config: StreamConfig,
    acc: GraphAccumulator,
    /// The snapshot of the last review — the `G_t1` of the next one.
    current: Arc<Graph>,
    history: HashMap<(NodeId, NodeId), PairTrack>,
    watches: Vec<Watch>,
    next_watch: u64,
    reviews: u32,
    watermark: Option<u64>,
    pending: u64,
    events_total: u64,
    interval_anchor: Option<u64>,
    ingest_secs: f64,
    prev_reported: HashSet<(NodeId, NodeId)>,
    shared: Arc<RwLock<Arc<StreamSnapshot>>>,
    /// The worker pool every review's oracle fans out on. `None` uses the
    /// process-wide [`cp_exec::global`] pool — either way the pool
    /// persists across reviews, so workers are spawned once, not per
    /// review.
    exec: Option<Arc<cp_exec::Executor>>,
}

impl StreamEngine {
    /// Starts an engine over an empty graph on a fixed node universe.
    pub fn new(num_nodes: usize, config: StreamConfig) -> Self {
        Self::from_accumulator(GraphAccumulator::new(num_nodes), config)
    }

    /// Starts an engine from an existing (unweighted) snapshot: the first
    /// review diffs against it.
    ///
    /// # Panics
    /// Panics if the snapshot is weighted — the stream wire format
    /// ([`TimedEdge`]) carries no weights.
    pub fn from_snapshot(initial: &Graph, config: StreamConfig) -> Self {
        assert!(
            !initial.is_weighted(),
            "streaming snapshots are unweighted (TimedEdge carries no weight)"
        );
        Self::from_accumulator(GraphAccumulator::from_graph(initial), config)
    }

    fn from_accumulator(acc: GraphAccumulator, config: StreamConfig) -> Self {
        let current = Arc::new(acc.materialize());
        let epoch0 = Arc::new(StreamSnapshot {
            review: 0,
            graph: Arc::clone(&current),
            result: BudgetedResult {
                pairs: Vec::new(),
                candidates: Vec::new(),
                budget: Default::default(),
                stats: PipelineStats::default(),
            },
            events: Vec::new(),
            stats: StreamStats::default(),
            query: Arc::new(QueryIndex::empty(acc.num_nodes())),
        });
        StreamEngine {
            config,
            acc,
            current,
            history: HashMap::new(),
            watches: Vec::new(),
            next_watch: 0,
            reviews: 0,
            watermark: None,
            pending: 0,
            events_total: 0,
            interval_anchor: None,
            ingest_secs: 0.0,
            prev_reported: HashSet::new(),
            shared: Arc::new(RwLock::new(epoch0)),
            exec: None,
        }
    }

    /// Injects a dedicated worker pool for every future review's oracle
    /// (builder style). Without one, reviews fan out on the process-wide
    /// [`cp_exec::global`] pool. The pool only changes *where* batched
    /// work runs — epochs are pool-invariant.
    pub fn with_executor(mut self, exec: Arc<cp_exec::Executor>) -> Self {
        self.set_executor(exec);
        self
    }

    /// Injects a dedicated worker pool for every future review's oracle.
    pub fn set_executor(&mut self, exec: Arc<cp_exec::Executor>) {
        self.exec = Some(exec);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Size of the fixed node universe.
    pub fn num_nodes(&self) -> usize {
        self.acc.num_nodes()
    }

    /// Completed reviews.
    pub fn reviews(&self) -> u32 {
        self.reviews
    }

    /// Accepted events not yet covered by a review.
    pub fn pending_events(&self) -> u64 {
        self.pending
    }

    /// The newest accepted timestamp, if any event was accepted.
    pub fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// The snapshot the next review will diff against.
    pub fn current_graph(&self) -> &Arc<Graph> {
        &self.current
    }

    /// A cloneable handle onto the latest published epoch.
    pub fn reader(&self) -> StreamReader {
        StreamReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The latest published epoch.
    pub fn latest(&self) -> Arc<StreamSnapshot> {
        Arc::clone(&self.shared.read())
    }

    /// Watches one pair: fires when a review reports it with `Δ ≥ tau`.
    pub fn watch_pair(&mut self, u: NodeId, v: NodeId, tau: u32) -> WatchId {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.register(WatchKind::Pair { a, b, tau })
    }

    /// Watches one node: fires for every reported pair touching it with
    /// `Δ ≥ tau`.
    pub fn watch_node(&mut self, node: NodeId, tau: u32) -> WatchId {
        self.register(WatchKind::Node { node, tau })
    }

    /// Watches the reported set: fires entered/left events as pairs move
    /// in and out between consecutive reviews.
    pub fn watch_topk(&mut self) -> WatchId {
        self.register(WatchKind::TopK)
    }

    fn register(&mut self, kind: WatchKind) -> WatchId {
        let id = WatchId(self.next_watch);
        self.next_watch += 1;
        self.watches.push(Watch { id, kind });
        id
    }

    /// Removes a watch; `false` if the id is unknown (or already removed).
    pub fn unwatch(&mut self, id: WatchId) -> bool {
        let before = self.watches.len();
        self.watches.retain(|w| w.id != id);
        self.watches.len() != before
    }

    /// History of one pair across reviews, if it was ever reported.
    pub fn pair_history(&self, u: NodeId, v: NodeId) -> Option<PairTrack> {
        let key = if u < v { (u, v) } else { (v, u) };
        self.history.get(&key).copied()
    }

    /// Pairs reported in at least `min_reviews` reviews, sorted by total
    /// accumulated decrease (descending, ties by pair id) — the "keeps
    /// converging" watch list.
    pub fn persistent_pairs(&self, min_reviews: u32) -> Vec<((NodeId, NodeId), PairTrack)> {
        let mut out: Vec<((NodeId, NodeId), PairTrack)> = self
            .history
            .iter()
            .filter(|(_, h)| h.times_seen >= min_reviews)
            .map(|(&pair, &h)| (pair, h))
            .collect();
        out.sort_by(|a, b| b.1.total_delta.cmp(&a.1.total_delta).then(a.0.cmp(&b.0)));
        out
    }

    /// Ingests one edge event. On acceptance the edge folds into the
    /// rolling snapshot immediately; if the [`ReviewPolicy`] triggers, the
    /// review runs inline and its epoch is returned. Rejected events
    /// ([`StreamError`]) leave the engine untouched.
    pub fn ingest(&mut self, e: TimedEdge) -> Result<Option<Arc<StreamSnapshot>>, StreamError> {
        let started = Instant::now();
        let n = self.acc.num_nodes();
        for node in [e.u, e.v] {
            if node.index() >= n {
                return Err(StreamError::OutOfUniverse { node, num_nodes: n });
            }
        }
        if e.u == e.v {
            return Err(StreamError::SelfLoop { node: e.u });
        }
        if let Some(w) = self.watermark {
            if e.time < w {
                return Err(StreamError::OutOfOrder {
                    time: e.time,
                    watermark: w,
                });
            }
        }
        if self.acc.contains_edge(e.u, e.v) {
            let (a, b) = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
            return Err(StreamError::DuplicateEdge { u: a, v: b });
        }
        self.acc.insert_edge(e.u, e.v);
        self.watermark = Some(e.time);
        self.pending += 1;
        self.events_total += 1;
        if self.interval_anchor.is_none() {
            self.interval_anchor = Some(e.time);
        }
        self.ingest_secs += started.elapsed().as_secs_f64();
        let fire = match self.config.policy {
            ReviewPolicy::Manual => false,
            ReviewPolicy::EveryEvents(k) => self.pending >= (k.max(1) as u64),
            ReviewPolicy::EveryInterval(dt) => {
                let anchor = self.interval_anchor.expect("anchor set above");
                e.time.saturating_sub(anchor) >= dt
            }
        };
        Ok(if fire { Some(self.review()) } else { None })
    }

    /// Ingests a batch, stopping at the first rejected event; returns the
    /// epochs of any reviews the batch triggered.
    pub fn extend(
        &mut self,
        events: impl IntoIterator<Item = TimedEdge>,
    ) -> Result<Vec<Arc<StreamSnapshot>>, StreamError> {
        let mut epochs = Vec::new();
        for e in events {
            if let Some(snap) = self.ingest(e)? {
                epochs.push(snap);
            }
        }
        Ok(epochs)
    }

    /// Cuts a review snapshot now and runs the budgeted pipeline against
    /// the previous one, publishing the result as a new epoch. The review
    /// runs even with zero pending events (an empty delta legitimately
    /// reports no pairs — and still spends its budget, like any review).
    pub fn review(&mut self) -> Arc<StreamSnapshot> {
        let t_advance = Instant::now();
        let next = Arc::new(self.acc.materialize());
        let advance_secs = t_advance.elapsed().as_secs_f64();
        self.reviews += 1;
        let review = self.reviews;
        let g1 = Arc::clone(&self.current);

        let mut oracle = SnapshotOracle::with_budget(&g1, &next, 2 * self.config.m);
        if let Some(exec) = &self.exec {
            oracle.set_executor(Arc::clone(exec));
        }
        if let Some(t) = self.config.threads {
            oracle.set_threads(t);
        }
        // Chain: the previous epoch's published t2 rows are exact t1 rows
        // here — `g1` *is* the graph they were computed on — and they are
        // copied at the oracle's storage width, one-byte epoch rows widened
        // inside that copy.
        let mut donor_rows_imported = 0;
        if self.config.chain_cache {
            let prev = Arc::clone(&self.shared.read().query);
            donor_rows_imported =
                oracle.import_donor_rows(Snapshot::First, prev.rows(Snapshot::Second));
        }

        let mut selector = self
            .config
            .selector
            .build(self.config.seed.wrapping_add(review as u64));
        let t_pipeline = Instant::now();
        let result = run_pipeline(&mut oracle, selector.as_mut(), &self.config.spec);
        let pipeline_secs = t_pipeline.elapsed().as_secs_f64();
        let donor_chain_hits = oracle.chained_rows();
        // Capture the query material while the oracle still owns its row
        // store; the published epoch serves point queries from this copy,
        // and the next review takes its t1 donors from it.
        let query = Arc::new(QueryIndex::capture(&oracle));
        drop(oracle);

        for p in &result.pairs {
            let h = self.history.entry(p.pair).or_default();
            h.total_delta += p.delta;
            h.times_seen += 1;
            h.current_streak = if h.last_seen_review + 1 == review {
                h.current_streak + 1
            } else {
                1
            };
            h.longest_streak = h.longest_streak.max(h.current_streak);
            h.last_seen_review = review;
        }

        let events = self.fire_watches(review, &result);
        let charged = result.stats.sssp_computed;
        let stats = StreamStats {
            review,
            events_ingested: self.pending,
            events_total: self.events_total,
            ingest_secs: self.ingest_secs,
            advance_secs,
            pipeline_secs,
            donor_rows_imported,
            donor_chain_hits,
            repaired_rows: 0,
            donor_hit_rate: if charged == 0 {
                0.0
            } else {
                donor_chain_hits as f64 / charged as f64
            },
            subscriptions_fired: events.len() as u64,
            pipeline: result.stats,
        };
        self.prev_reported = result.pair_set();
        let snap = Arc::new(StreamSnapshot {
            review,
            graph: Arc::clone(&next),
            result,
            events,
            stats,
            query,
        });
        *self.shared.write() = Arc::clone(&snap);
        self.current = next;
        self.pending = 0;
        self.ingest_secs = 0.0;
        self.interval_anchor = None;
        snap
    }

    /// Evaluates every watch against this review's result. Deterministic:
    /// watches in registration order, pairs in the result's canonical
    /// order (left-pairs sorted ascending).
    fn fire_watches(&self, review: u32, result: &BudgetedResult) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        if self.watches.is_empty() {
            return events;
        }
        let reported = result.pair_set();
        let mut left: Vec<(NodeId, NodeId)> = self
            .prev_reported
            .iter()
            .filter(|p| !reported.contains(*p))
            .copied()
            .collect();
        left.sort_unstable();
        for w in &self.watches {
            match w.kind {
                WatchKind::Pair { a, b, tau } => {
                    for p in &result.pairs {
                        if p.pair == (a, b) && p.delta >= tau {
                            events.push(StreamEvent::PairConverged {
                                watch: w.id,
                                review,
                                pair: p.pair,
                                delta: p.delta,
                            });
                        }
                    }
                }
                WatchKind::Node { node, tau } => {
                    for p in &result.pairs {
                        if (p.pair.0 == node || p.pair.1 == node) && p.delta >= tau {
                            events.push(StreamEvent::NodeConverged {
                                watch: w.id,
                                review,
                                pair: p.pair,
                                delta: p.delta,
                            });
                        }
                    }
                }
                WatchKind::TopK => {
                    for p in &result.pairs {
                        if !self.prev_reported.contains(&p.pair) {
                            events.push(StreamEvent::EnteredTopK {
                                watch: w.id,
                                review,
                                pair: p.pair,
                                delta: p.delta,
                            });
                        }
                    }
                    for &pair in &left {
                        events.push(StreamEvent::LeftTopK {
                            watch: w.id,
                            review,
                            pair,
                        });
                    }
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_graph::TemporalGraph;

    fn te(u: u32, v: u32, time: u64) -> TimedEdge {
        TimedEdge {
            u: NodeId(u),
            v: NodeId(v),
            time,
        }
    }

    /// A 24-ring plus two chords arriving later; the chords make (0, 12)
    /// and (6, 18) converge.
    fn ring(n: u32) -> Vec<TimedEdge> {
        (0..n).map(|i| te(i, (i + 1) % n, 0)).collect()
    }

    fn config(m: u64) -> StreamConfig {
        StreamConfig::new(
            m,
            SelectorKind::Degree,
            TopKSpec::ThresholdFromMax { slack: 0 },
            5,
        )
    }

    #[test]
    fn rejects_out_of_universe_nodes() {
        let mut e = StreamEngine::new(4, config(4));
        assert_eq!(
            e.ingest(te(0, 9, 0)).unwrap_err(),
            StreamError::OutOfUniverse {
                node: NodeId(9),
                num_nodes: 4
            }
        );
        assert_eq!(e.pending_events(), 0);
        assert_eq!(e.watermark(), None);
    }

    #[test]
    fn rejects_self_loops() {
        let mut e = StreamEngine::new(4, config(4));
        assert_eq!(
            e.ingest(te(2, 2, 0)).unwrap_err(),
            StreamError::SelfLoop { node: NodeId(2) }
        );
        assert_eq!(e.pending_events(), 0);
    }

    #[test]
    fn rejects_duplicate_edges_normalized() {
        let mut e = StreamEngine::new(4, config(4));
        e.ingest(te(0, 1, 0)).unwrap();
        // Same undirected edge, announced reversed and later.
        assert_eq!(
            e.ingest(te(1, 0, 7)).unwrap_err(),
            StreamError::DuplicateEdge {
                u: NodeId(0),
                v: NodeId(1)
            }
        );
        // Rejection leaves the engine untouched: watermark not advanced.
        assert_eq!(e.watermark(), Some(0));
        assert_eq!(e.pending_events(), 1);
    }

    #[test]
    fn rejects_events_behind_the_watermark() {
        let mut e = StreamEngine::new(6, config(4));
        e.ingest(te(0, 1, 10)).unwrap();
        assert_eq!(
            e.ingest(te(2, 3, 9)).unwrap_err(),
            StreamError::OutOfOrder {
                time: 9,
                watermark: 10
            }
        );
        // Equal timestamps are in order (ties allowed, as in TemporalGraph).
        assert!(e.ingest(te(2, 3, 10)).is_ok());
        assert_eq!(e.pending_events(), 2);
    }

    #[test]
    fn stream_errors_display_and_implement_error() {
        let err: Box<dyn std::error::Error> = Box::new(StreamError::OutOfOrder {
            time: 3,
            watermark: 8,
        });
        assert!(err.to_string().contains("watermark 8"));
    }

    #[test]
    fn every_events_policy_fires_on_the_nth_accepted_event() {
        let n = 24;
        let cfg = config(24).with_policy(ReviewPolicy::EveryEvents(2));
        let mut engine = StreamEngine::new(n as usize, cfg);
        engine.extend(ring(n)).unwrap();
        assert_eq!(engine.reviews(), n / 2, "one review per two ring edges");
        // Rejected events must NOT count toward the policy.
        let before = engine.reviews();
        assert!(engine.ingest(te(0, 1, 0)).is_err());
        assert!(engine.ingest(te(0, 12, 0)).unwrap().is_none());
        let fired = engine.ingest(te(6, 18, 0)).unwrap();
        assert!(fired.is_some(), "second accepted event fires the review");
        assert_eq!(engine.reviews(), before + 1);
    }

    #[test]
    fn every_interval_policy_anchors_on_first_event_after_review() {
        let cfg = config(24).with_policy(ReviewPolicy::EveryInterval(10));
        let mut e = StreamEngine::new(24, cfg);
        assert!(e.ingest(te(0, 1, 0)).unwrap().is_none()); // anchor = 0
        assert!(e.ingest(te(1, 2, 9)).unwrap().is_none()); // 9 - 0 < 10
        let epoch = e.ingest(te(2, 3, 10)).unwrap(); // 10 - 0 >= 10: fires
        assert!(epoch.is_some());
        let epoch = epoch.unwrap();
        assert_eq!(
            epoch.stats.events_ingested, 3,
            "the firing event is included"
        );
        // Anchor resets: next window starts at the next accepted event.
        assert!(e.ingest(te(3, 4, 12)).unwrap().is_none()); // anchor = 12
        assert!(e.ingest(te(4, 5, 21)).unwrap().is_none()); // 21 - 12 < 10
        assert!(e.ingest(te(5, 6, 22)).unwrap().is_some()); // 22 - 12 >= 10
    }

    #[test]
    fn manual_review_with_no_pending_events_reports_nothing() {
        let mut e = StreamEngine::new(24, config(24));
        e.extend(ring(24)).unwrap();
        e.review();
        let epoch = e.review(); // empty delta
        assert_eq!(epoch.review, 2);
        assert!(epoch.result.pairs.is_empty());
        assert_eq!(epoch.stats.events_ingested, 0);
    }

    #[test]
    fn epochs_are_immutable_and_reader_tracks_latest() {
        let mut e = StreamEngine::new(24, config(24));
        let reader = e.reader();
        assert_eq!(reader.latest().review, 0, "epoch 0 published at startup");
        e.extend(ring(24)).unwrap();
        let epoch1 = e.review();
        assert_eq!(reader.latest().review, 1);
        e.extend(vec![te(0, 12, 1)]).unwrap();
        let epoch2 = e.review();
        assert_eq!(reader.latest().review, 2);
        // The old epoch a reader held is untouched by later publishes.
        assert_eq!(epoch1.review, 1);
        assert!(epoch1.result.pairs.is_empty());
        assert_eq!(epoch2.result.pairs[0].pair, (NodeId(0), NodeId(12)));
    }

    #[test]
    fn watches_fire_and_unwatch_silences_them() {
        let mut e = StreamEngine::new(24, config(24));
        e.extend(ring(24)).unwrap();
        e.review();
        let wp = e.watch_pair(NodeId(12), NodeId(0), 5); // reversed: normalized inside
        let wn = e.watch_node(NodeId(18), 1);
        let wt = e.watch_topk();
        e.extend(vec![te(0, 12, 1), te(6, 18, 1)]).unwrap();
        let epoch = e.review();
        let fired: Vec<WatchId> = epoch.events.iter().map(|ev| ev.watch()).collect();
        assert!(fired.contains(&wp), "pair watch fired: {:?}", epoch.events);
        assert!(fired.contains(&wn), "node watch fired");
        assert!(fired.contains(&wt), "top-k watch fired");
        for ev in &epoch.events {
            if ev.watch() == wt {
                assert!(matches!(ev, StreamEvent::EnteredTopK { .. }));
            }
        }
        assert_eq!(epoch.stats.subscriptions_fired, epoch.events.len() as u64);
        // Unwatch the pair; nothing from it on the next (empty) review,
        // and the top-k watch reports the pairs leaving the set.
        assert!(e.unwatch(wp));
        assert!(!e.unwatch(wp), "double unwatch reports unknown id");
        let epoch = e.review();
        assert!(epoch.events.iter().all(|ev| ev.watch() != wp));
        assert!(epoch
            .events
            .iter()
            .any(|ev| matches!(ev, StreamEvent::LeftTopK { .. })));
    }

    #[test]
    fn streaks_track_consecutive_reviews() {
        // The pair (0, 2) is re-reported whenever a review sees its delta;
        // build it by hand: path 0-1-2, then add shortcut in review 1 only.
        let mut e = StreamEngine::new(24, config(24));
        e.extend(ring(24)).unwrap();
        e.review();
        e.extend(vec![te(0, 12, 1)]).unwrap();
        e.review(); // (0,12) reported at review 2
        e.extend(vec![te(6, 18, 2)]).unwrap();
        e.review(); // (6,18) reported at review 3, (0,12) not
        let t = e.pair_history(NodeId(0), NodeId(12)).unwrap();
        assert_eq!(t.times_seen, 1);
        assert_eq!(t.last_seen_review, 2);
        assert_eq!(t.current_streak, 1);
        assert_eq!(t.longest_streak, 1);
        assert!(e.pair_history(NodeId(1), NodeId(3)).is_none());
    }

    #[test]
    fn from_snapshot_round_trips_the_graph() {
        let t = TemporalGraph::from_sequence(24, ring(24).iter().map(|e| (e.u, e.v)));
        let g = t.snapshot_at_fraction(1.0);
        let e = StreamEngine::from_snapshot(&g, config(24));
        assert_eq!(**e.current_graph(), g);
        assert_eq!(e.num_nodes(), 24);
    }

    #[test]
    #[should_panic(expected = "unweighted")]
    fn from_snapshot_rejects_weighted_graphs() {
        let mut b = cp_graph::GraphBuilder::new(2);
        b.add_weighted_edge(NodeId(0), NodeId(1), 3);
        StreamEngine::from_snapshot(&b.build(), config(2));
    }
}
