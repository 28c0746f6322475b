//! The budget-enforcing SSSP oracle over a snapshot pair.
//!
//! The paper's cost model counts *single-source shortest-path computations*:
//! every algorithm, selector phase included, is allowed exactly `2m` of
//! them (Table 1). [`SnapshotOracle`] makes that model executable — all
//! distance rows flow through it, each fresh row is charged to the current
//! [`Phase`], cached rows are free (that is precisely how the dispersion
//! selectors reuse their `G_t1` rows), and a hard cap turns overdraft into
//! an error instead of a silently broken experiment.
//!
//! # The paid/resident row store
//!
//! Two orthogonal facts about a row are tracked separately:
//!
//! * **Paid** — the row has been charged to the ledger once. Admission,
//!   [`SnapshotOracle::cost_of`], [`SnapshotOracle::has_both`] and
//!   [`SnapshotOracle::fully_cached_nodes`] read *only* this, so the ledger
//!   and the candidate set are bit-identical at any thread count.
//! * **Resident** — the row's bytes are held. Every paid row is resident
//!   from the moment its batch pass merges until the oracle drops, and
//!   nothing is ever evicted, so every read of a paid row is a plain
//!   borrow. The only resident rows that are not paid are imported donors
//!   ([`SnapshotOracle::import_donor_rows`]), which are charged on first
//!   use without running a kernel.
//!
//! Row bytes live in one pooled slab arena at one width per oracle: `u16`
//! when both snapshots pass [`fits_u16`], `u32` otherwise.
//!
//! # Row kernels
//!
//! Fresh rows take one path in both snapshots: batched prefetches run
//! 64-source MS-BFS waves, singleton and fallback rows the
//! direction-optimizing [`cp_graph::bfs::bfs_into`], and weighted
//! snapshots Dijkstra. Each charged row costs one SSSP however it is
//! computed: the paper's cost model counts rows. The one runtime knob
//! is `CP_THREADS`, and it never changes a row's bytes. The plain
//! top-down BFS is a test reference that every cached row is
//! checked against, not a runtime option.

use cp_graph::bfs::{bfs_into, BfsWorkspace, TraversalWork};
use cp_graph::dijkstra::dijkstra_into;
use cp_graph::msbfs::{msbfs_into, MsBfsWorkspace, WAVE_WIDTH};
use cp_graph::rowpack::{fits_u16, widen_u16_into, RowArena, RowId, RowRef, RowSource};
use cp_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Number of pending rows below which a batched prefetch computes inline
/// instead of spawning workers.
const PARALLEL_ROW_CUTOFF: usize = 8;

/// Work items a batched prefetch stages per worker thread: a pass runs at
/// most this many items per thread, then merges their rows into the store
/// before the next pass starts, so at most `4 × threads` items' rows are
/// ever held at `u32` outside the store.
const STAGED_ITEMS_PER_THREAD: usize = 4;

/// Per-worker persistent scratch of the batched full-sweep pass: the BFS
/// and multi-source-wave workspaces live across batches (and across
/// oracles) in the executor's [`cp_exec::WorkerScratch`], so a steady
/// stream of prefetches allocates nothing per batch.
#[derive(Default)]
struct PrefetchScratch {
    ws: BfsWorkspace,
    msws: MsBfsWorkspace,
}

/// The unweighted SSSP kernel a run reports. The oracle always runs
/// direction-optimizing single-source BFS plus bit-parallel multi-source
/// waves (≤ 64 admitted sources per graph sweep) for batched prefetches,
/// and Dijkstra on weighted snapshots, so `Auto` is the only kernel; the
/// type remains only for the benchmark, which prints its name. The plain
/// top-down [`cp_graph::bfs::bfs_scalar_into`] is the test reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BfsKernel {
    /// Direction-optimizing BFS plus multi-source waves.
    #[default]
    Auto,
}

impl BfsKernel {
    /// The spelling of this kernel (`"auto"`).
    pub fn name(self) -> &'static str {
        "auto"
    }
}

/// The snapshot storage layout a run reports. Both snapshots are always
/// materialized CSR, so `Full` is the only layout; the type remains only
/// for the benchmark, which prints its name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphStore {
    /// Both snapshots as materialized CSR.
    #[default]
    Full,
}

impl GraphStore {
    /// The spelling of this layout (`"full"`).
    pub fn name(self) -> &'static str {
        "full"
    }
}

/// The SSSP pruning mode a run reports. Every charged SSSP runs to
/// completion, so `Off` is the only mode; the type remains only for the
/// benchmark, which prints its name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SsspPrune {
    /// Every charged SSSP runs to completion.
    #[default]
    Off,
}

impl SsspPrune {
    /// The spelling of this setting (`"off"`).
    pub fn name(self) -> &'static str {
        "off"
    }
}

/// Per-kernel work counters: how the charged SSSPs were actually computed.
///
/// [`Self::rows`] plus the oracle's [`SnapshotOracle::chained_rows`]
/// (rows charged whose bytes arrived via a donor hand-off) equals the
/// number of fresh *charged* rows (= ledger total). `msbfs_waves` counts
/// graph sweeps, each covering up to 64 of the `msbfs_rows`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Multi-source waves run (one graph sweep each).
    pub msbfs_waves: u64,
    /// Rows produced by multi-source waves.
    pub msbfs_rows: u64,
    /// Rows produced by single-source direction-optimizing BFS.
    pub bfs_rows: u64,
    /// Rows produced by Dijkstra (weighted snapshots).
    pub dijkstra_rows: u64,
}

impl KernelStats {
    /// Charged rows a kernel ran for: `msbfs_rows + bfs_rows +
    /// dijkstra_rows`.
    pub fn rows(&self) -> u64 {
        self.msbfs_rows + self.bfs_rows + self.dijkstra_rows
    }
}

/// Which accounting bucket an SSSP computation lands in (paper Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Candidate-endpoint generation (landmark rows, dispersion picks,
    /// classifier features).
    Generation,
    /// The top-k phase: rows of the chosen candidates in both snapshots.
    TopK,
}

/// The SSSP spend, split by phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetLedger {
    /// SSSPs spent generating candidates.
    pub generation: u64,
    /// SSSPs spent computing candidate rows for the top-k phase.
    pub topk: u64,
}

impl BudgetLedger {
    /// Total SSSPs spent.
    pub fn total(&self) -> u64 {
        self.generation + self.topk
    }
}

/// Attempted to exceed the SSSP budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetError {
    /// The configured cap.
    pub limit: u64,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SSSP budget of {} computations exhausted", self.limit)
    }
}

impl std::error::Error for BudgetError {}

/// Which snapshot a row belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Snapshot {
    /// The earlier snapshot `G_t1`.
    First,
    /// The later snapshot `G_t2`.
    Second,
}

/// Outcome of a batched prefetch: how each request was resolved.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefetchReport {
    /// Fresh rows admitted and computed, each charged one SSSP.
    pub computed: usize,
    /// Requests already paid for (free: their rows are resident).
    pub cached: usize,
    /// Requests the remaining budget could not cover.
    pub skipped: usize,
}

/// Outcome of a node-level (pair-atomic) batched prefetch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodePrefetchReport {
    /// Requested nodes that ended with **both** rows paid, in request
    /// order (duplicates preserved). Exactly the nodes a sequential
    /// `remaining() < cost_of(u) → skip, else rows(u)` walk would have
    /// served.
    pub usable: Vec<NodeId>,
    /// Per-request accounting.
    pub rows: PrefetchReport,
}

/// Slot-table entry of a node with no resident row.
const NO_ROW: u32 = u32::MAX;

/// The store's slab arena at the oracle's one storage width.
enum Arena {
    /// `u16`-packed rows: both snapshots pass [`fits_u16`].
    U16(RowArena<u16>),
    /// Full-width rows: a weighted snapshot, or a universe beyond `u16`.
    U32(RowArena<u32>),
}

impl Arena {
    /// `(live rows, bytes per row, slab bytes)`.
    fn occupancy(&self) -> (u64, usize, u64) {
        match self {
            Arena::U16(a) => (a.live_rows(), a.row_bytes(), a.slab_bytes()),
            Arena::U32(a) => (a.live_rows(), a.row_bytes(), a.slab_bytes()),
        }
    }
}

/// The paid/resident row store behind the oracle (see the module docs for
/// the paid-vs-resident split). Row bytes live in one slab arena; each
/// snapshot keeps a dense per-node slot table into it and a paid flag per
/// node. A row is written once and kept until the oracle drops. All
/// mutation happens on the oracle's single-threaded control path.
struct RowStore {
    arena: Arena,
    /// `slots[h][u]`: the arena slot of `u`'s row in snapshot `h`, or
    /// [`NO_ROW`].
    slots: [Vec<u32>; 2],
    paid: [Vec<bool>; 2],
}

/// The index of a snapshot's slot table and paid flags.
fn half(which: Snapshot) -> usize {
    match which {
        Snapshot::First => 0,
        Snapshot::Second => 1,
    }
}

impl RowStore {
    fn new(n: usize, packed: bool) -> Self {
        RowStore {
            arena: if packed {
                Arena::U16(RowArena::new(n))
            } else {
                Arena::U32(RowArena::new(n))
            },
            slots: [vec![NO_ROW; n], vec![NO_ROW; n]],
            paid: [vec![false; n], vec![false; n]],
        }
    }

    fn is_paid(&self, which: Snapshot, u: NodeId) -> bool {
        self.paid[half(which)][u.index()]
    }

    fn mark_paid(&mut self, which: Snapshot, u: NodeId) {
        self.paid[half(which)][u.index()] = true;
    }

    fn is_resident(&self, which: Snapshot, u: NodeId) -> bool {
        self.slots[half(which)][u.index()] != NO_ROW
    }

    fn slot_row(&self, slot: u32) -> RowRef<'_> {
        match &self.arena {
            Arena::U16(a) => RowRef::U16(a.row(RowId(slot))),
            Arena::U32(a) => RowRef::U32(a.row(RowId(slot))),
        }
    }

    /// The resident row at the store's width, if present.
    fn get(&self, which: Snapshot, u: NodeId) -> Option<RowRef<'_>> {
        let slot = self.slots[half(which)][u.index()];
        (slot != NO_ROW).then(|| self.slot_row(slot))
    }

    /// Copies a row into a fresh arena slot at the store's width and makes
    /// it resident. Each row is inserted at most once.
    fn insert(&mut self, which: Snapshot, u: NodeId, row: impl RowSource) {
        debug_assert!(!self.is_resident(which, u), "row inserted twice");
        let id = match &mut self.arena {
            Arena::U16(a) => {
                let id = a.alloc();
                row.copy_into(a.row_mut(id));
                id
            }
            Arena::U32(a) => {
                let id = a.alloc();
                row.copy_into(a.row_mut(id));
                id
            }
        };
        self.slots[half(which)][u.index()] = id.0;
    }

    /// Every resident row of one snapshot, ascending by source.
    fn resident(&self, which: Snapshot) -> Vec<(NodeId, RowRef<'_>)> {
        self.slots[half(which)]
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NO_ROW)
            .map(|(u, &slot)| (NodeId::new(u), self.slot_row(slot)))
            .collect()
    }
}

/// Occupancy counters of the row store's slab arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArenaStats {
    /// Live `u16`-packed rows.
    pub u16_rows: u64,
    /// Live full-width `u32` rows.
    pub u32_rows: u64,
    /// Bytes of slab capacity held.
    pub slab_bytes: u64,
}

/// A pair of snapshots behind a counting, capping, caching SSSP interface.
///
/// ```
/// use cp_core::oracle::SnapshotOracle;
/// use cp_graph::builder::graph_from_edges;
/// use cp_graph::NodeId;
///
/// let g1 = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let g2 = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
/// let mut oracle = SnapshotOracle::with_budget(&g1, &g2, 4);
///
/// let (d1, d2) = oracle.rows(NodeId(0))?; // 2 SSSPs charged
/// assert_eq!(d1[3], 3);
/// assert_eq!(d2[3], 1); // the new chord
/// assert_eq!(oracle.remaining(), 2);
///
/// oracle.rows(NodeId(0))?; // cached: free
/// assert_eq!(oracle.remaining(), 2);
/// # Ok::<(), cp_core::oracle::BudgetError>(())
/// ```
pub struct SnapshotOracle<'a> {
    g1: &'a Graph,
    g2: &'a Graph,
    limit: Option<u64>,
    phase: Phase,
    ledger: BudgetLedger,
    store: RowStore,
    ws: BfsWorkspace,
    msws: MsBfsWorkspace,
    /// Widening buffers for the `u32` row API over `u16`-packed residents
    /// (one per snapshot so [`Self::rows`] can return both at once).
    wide1: Vec<u32>,
    wide2: Vec<u32>,
    threads: usize,
    kstats: KernelStats,
    work: TraversalWork,
    sssp_secs: f64,
    sssp_t2_secs: f64,
    cache_hits: u64,
    cache_misses: u64,
    chained_rows: u64,
    /// The injected worker pool (callers that need isolated
    /// [`cp_exec::ExecStats`], e.g. the conformance tests); `None` fans
    /// batched passes out on the process-wide [`cp_exec::global`] pool.
    exec: Option<Arc<cp_exec::Executor>>,
    /// Reused result slots for the batched full-sweep pass — the slot
    /// vector allocation is amortized across batches (satellite of the
    /// executor PR: no per-item `Mutex`, one writer per slot).
    item_slots: Vec<(ItemResult, f64)>,
}

impl<'a> SnapshotOracle<'a> {
    /// Creates an oracle with a hard cap of `limit` SSSP computations
    /// across both snapshots (the paper's `2m`).
    pub fn with_budget(g1: &'a Graph, g2: &'a Graph, limit: u64) -> Self {
        Self::new_inner(g1, g2, Some(limit))
    }

    /// Creates an uncapped oracle (used by the exact baseline's
    /// bookkeeping and the unbudgeted Incidence algorithm; it still counts).
    pub fn unbounded(g1: &'a Graph, g2: &'a Graph) -> Self {
        Self::new_inner(g1, g2, None)
    }

    fn new_inner(g1: &'a Graph, g2: &'a Graph, limit: Option<u64>) -> Self {
        assert_eq!(
            g1.num_nodes(),
            g2.num_nodes(),
            "snapshots must share a node universe"
        );
        SnapshotOracle {
            g1,
            g2,
            limit,
            phase: Phase::Generation,
            ledger: BudgetLedger::default(),
            store: RowStore::new(g1.num_nodes(), fits_u16(g1) && fits_u16(g2)),
            ws: BfsWorkspace::new(),
            msws: MsBfsWorkspace::new(),
            wide1: Vec::new(),
            wide2: Vec::new(),
            threads: cp_exec::threads_from_env(),
            kstats: KernelStats::default(),
            work: TraversalWork::default(),
            sssp_secs: 0.0,
            sssp_t2_secs: 0.0,
            cache_hits: 0,
            cache_misses: 0,
            chained_rows: 0,
            exec: None,
            item_slots: Vec::new(),
        }
    }

    /// Sets the worker-thread count for batched prefetches. Thread count
    /// never changes results — only wall clock.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// Sets the worker-thread count for batched prefetches.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Injects a dedicated worker pool (builder style). Without one,
    /// batched passes fan out on the process-wide [`cp_exec::global`]
    /// pool. The pool only changes *where* work runs — rows, pairs, and
    /// ledger are pool-invariant.
    pub fn with_executor(mut self, exec: Arc<cp_exec::Executor>) -> Self {
        self.set_executor(exec);
        self
    }

    /// Injects a dedicated worker pool for batched passes.
    pub fn set_executor(&mut self, exec: Arc<cp_exec::Executor>) {
        self.exec = Some(exec);
    }

    /// A snapshot of the cumulative counters of the pool this oracle
    /// fans out on (the injected executor, or the global pool). Stats
    /// are advisory wall-clock instrumentation — they are excluded from
    /// the bit-identical output contract.
    pub fn exec_stats(&self) -> cp_exec::ExecStats {
        self.executor().stats()
    }

    /// The worker pool batched passes fan out on: the injected executor,
    /// or the process-wide [`cp_exec::global`] pool.
    pub(crate) fn executor(&self) -> &cp_exec::Executor {
        match self.exec.as_deref() {
            Some(e) => e,
            None => cp_exec::global(),
        }
    }

    /// Total nodes settled and adjacency entries examined by the SSSP
    /// kernels across every row this oracle computed.
    pub fn traversal_work(&self) -> TraversalWork {
        self.work
    }

    /// Occupancy counters of the row store's slab arena.
    pub fn arena_stats(&self) -> ArenaStats {
        let (rows, _, slab_bytes) = self.store.arena.occupancy();
        let packed = matches!(self.store.arena, Arena::U16(_));
        ArenaStats {
            u16_rows: if packed { rows } else { 0 },
            u32_rows: if packed { 0 } else { rows },
            slab_bytes,
        }
    }

    /// Bytes of row payload resident.
    pub fn cache_bytes(&self) -> usize {
        let (rows, row_bytes, _) = self.store.arena.occupancy();
        rows as usize * row_bytes
    }

    /// Per-kernel work counters accumulated so far.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kstats
    }

    /// Rows charged to the ledger whose bytes were already resident from a
    /// cross-oracle donor hand-off ([`Self::import_donor_rows`]): the row
    /// is paid — the paper's cost model charges every first use — but no
    /// kernel runs. Always 0 unless donors were imported.
    pub fn chained_rows(&self) -> u64 {
        self.chained_rows
    }

    /// Every resident row of one snapshot at the store's width, ascending
    /// by source. The streaming engine copies both snapshots' rows into the
    /// epoch's query index; that index's `t2` rows then seed the next
    /// review's oracle as `t1` donors ([`Self::import_donor_rows`]) — the
    /// two oracles index the *same* graph object, so the rows carry over
    /// exactly.
    pub fn resident_rows(&self, which: Snapshot) -> Vec<(NodeId, RowRef<'_>)> {
        self.store.resident(which)
    }

    /// Seeds the row store with donor rows computed elsewhere (the
    /// previous review's published `t2` rows) — resident but **unpaid**,
    /// so the first use of each row is still charged to this oracle's own
    /// ledger (and then counted in [`Self::chained_rows`] instead of
    /// running a kernel). Ledger, admission order, and results are
    /// bit-identical with or without an import; only the work done per
    /// charge changes.
    ///
    /// The caller asserts each row holds the exact distances of `which`'s
    /// graph from its source. Rows are copied at this oracle's storage
    /// width in the order given: a straight copy when the donor is stored
    /// at the same width, widened inside that one copy otherwise (the
    /// query index may hold one-byte rows). Rows already paid or resident
    /// are left untouched. Returns the rows admitted.
    ///
    /// # Panics
    /// Panics if a row's length differs from this oracle's node universe.
    pub fn import_donor_rows<R: RowSource>(
        &mut self,
        which: Snapshot,
        rows: impl IntoIterator<Item = (NodeId, R)>,
    ) -> u64 {
        let mut imported = 0u64;
        for (u, row) in rows {
            assert_eq!(
                row.num_nodes(),
                self.num_nodes(),
                "donor row node universe mismatch"
            );
            if self.store.is_paid(which, u) || self.store.is_resident(which, u) {
                continue;
            }
            self.store.insert(which, u, row);
            imported += 1;
        }
        imported
    }

    /// Wall-clock seconds spent computing distance rows (single requests
    /// and batched fan-outs alike), across every phase. This is the time
    /// the BFS kernels own; it excludes selector scoring, Δ scans, and
    /// anything else outside the oracle.
    pub fn sssp_secs(&self) -> f64 {
        self.sssp_secs
    }

    /// Seconds spent producing `G_t2` rows specifically, summed per work
    /// item across workers (so it is comparable across thread counts).
    pub fn sssp_t2_secs(&self) -> f64 {
        self.sssp_t2_secs
    }

    /// `(hits, misses)`: row requests served without charge vs. charged.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// The first snapshot.
    pub fn g1(&self) -> &'a Graph {
        self.g1
    }

    /// The second snapshot.
    pub fn g2(&self) -> &'a Graph {
        self.g2
    }

    /// Number of nodes in the shared universe.
    pub fn num_nodes(&self) -> usize {
        self.g1.num_nodes()
    }

    /// Switches the accounting bucket for subsequent computations.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// The spend so far.
    pub fn ledger(&self) -> BudgetLedger {
        self.ledger
    }

    /// Remaining SSSP allowance (`u64::MAX` when uncapped).
    pub fn remaining(&self) -> u64 {
        match self.limit {
            None => u64::MAX,
            Some(l) => l.saturating_sub(self.ledger.total()),
        }
    }

    /// The configured cap, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// How many fresh SSSPs it would cost to have both rows of `u`
    /// available (0, 1 or 2 depending on what is already paid).
    pub fn cost_of(&self, u: NodeId) -> u64 {
        u64::from(!self.store.is_paid(Snapshot::First, u))
            + u64::from(!self.store.is_paid(Snapshot::Second, u))
    }

    /// Whether both rows of `u` are already paid (i.e. `u` is already a
    /// fully paid candidate).
    pub fn has_both(&self, u: NodeId) -> bool {
        self.store.is_paid(Snapshot::First, u) && self.store.is_paid(Snapshot::Second, u)
    }

    /// Nodes with both rows paid, ascending. These are exactly the nodes
    /// whose pairs the top-k phase can evaluate; both rows of each are
    /// resident ([`Self::cached_rows`]).
    pub fn fully_cached_nodes(&self) -> Vec<NodeId> {
        let [paid1, paid2] = &self.store.paid;
        paid1
            .iter()
            .zip(paid2)
            .enumerate()
            .filter(|&(_, (&a, &b))| a && b)
            .map(|(u, _)| NodeId::new(u))
            .collect()
    }

    fn charge(&mut self) -> Result<(), BudgetError> {
        if let Some(limit) = self.limit {
            if self.ledger.total() >= limit {
                return Err(BudgetError { limit });
            }
        }
        match self.phase {
            Phase::Generation => self.ledger.generation += 1,
            Phase::TopK => self.ledger.topk += 1,
        }
        Ok(())
    }

    /// Computes one charged row by a full sweep.
    fn compute_one(&mut self, which: Snapshot, u: NodeId) -> Vec<u32> {
        let started = std::time::Instant::now();
        let graph = self.graph_of(which);
        let mut dist = Vec::new();
        let work = compute_row_fresh(graph, u, &mut dist, &mut self.ws);
        if graph.is_weighted() {
            self.kstats.dijkstra_rows += 1;
        } else {
            self.kstats.bfs_rows += 1;
        }
        self.work.merge(work);
        let secs = started.elapsed().as_secs_f64();
        self.sssp_secs += secs;
        if which == Snapshot::Second {
            self.sssp_t2_secs += secs;
        }
        dist
    }

    /// Makes the row of `u` paid and resident, charging it on first use.
    fn ensure_row(&mut self, which: Snapshot, u: NodeId) -> Result<(), BudgetError> {
        if self.store.is_paid(which, u) {
            self.cache_hits += 1;
            return Ok(());
        }
        self.charge()?;
        self.cache_misses += 1;
        self.store.mark_paid(which, u);
        if self.store.is_resident(which, u) {
            // Imported donor row: charged on first use like any other
            // row, but its bytes are already exact — no kernel runs.
            self.chained_rows += 1;
        } else {
            let dist = self.compute_one(which, u);
            self.store.insert(which, u, RowRef::U32(&dist));
        }
        Ok(())
    }

    /// The distance row of `u` in the chosen snapshot, computing (and
    /// charging) it on first use. Paid rows are free forever.
    /// `u16`-packed residents are widened into an oracle-owned buffer, so
    /// callers always see canonical `u32` distances.
    pub fn row(&mut self, which: Snapshot, u: NodeId) -> Result<&[u32], BudgetError> {
        self.ensure_row(which, u)?;
        let wide = match which {
            Snapshot::First => &mut self.wide1,
            Snapshot::Second => &mut self.wide2,
        };
        Ok(
            match self.store.get(which, u).expect("row just made resident") {
                RowRef::U32(r) => r,
                RowRef::U16(p) => {
                    widen_u16_into(p, wide);
                    wide.as_slice()
                }
            },
        )
    }

    /// Both rows of `u` at once (for Δ computation).
    pub fn rows(&mut self, u: NodeId) -> Result<(&[u32], &[u32]), BudgetError> {
        self.ensure_row(Snapshot::First, u)?;
        self.ensure_row(Snapshot::Second, u)?;
        let SnapshotOracle {
            store,
            wide1,
            wide2,
            ..
        } = self;
        let r1 = match store.get(Snapshot::First, u).expect("resident") {
            RowRef::U32(r) => r,
            RowRef::U16(p) => {
                widen_u16_into(p, wide1);
                wide1.as_slice()
            }
        };
        let r2 = match store.get(Snapshot::Second, u).expect("resident") {
            RowRef::U32(r) => r,
            RowRef::U16(p) => {
                widen_u16_into(p, wide2);
                wide2.as_slice()
            }
        };
        Ok((r1, r2))
    }

    /// The resident row of `u` in the chosen snapshot at the store's
    /// width, if present — always present once the row is paid. Never
    /// computes or charges; safe to call from parallel readers via `&self`.
    pub fn cached_row(&self, which: Snapshot, u: NodeId) -> Option<RowRef<'_>> {
        self.store.get(which, u)
    }

    /// Both resident rows of `u`, if both are present — always for a node
    /// of [`Self::fully_cached_nodes`]. Both rows share the store's width.
    /// Never computes or charges: the Δ scan, the landmark scores and the
    /// epoch capture read paid rows through this.
    pub fn cached_rows(&self, u: NodeId) -> Option<(RowRef<'_>, RowRef<'_>)> {
        Some((
            self.store.get(Snapshot::First, u)?,
            self.store.get(Snapshot::Second, u)?,
        ))
    }

    /// Batched row prefetch. Admission is **sequential and deterministic**:
    /// requests are walked in order and each unpaid row is charged to the
    /// current [`Phase`] exactly as a one-at-a-time [`Self::row`] walk
    /// would, skipping requests once the cap is reached (paid requests
    /// stay free throughout). The admitted rows are then computed in
    /// parallel — row contents do not depend on thread count, so the store,
    /// the ledger, and every later read are identical at any [`Self::threads`]
    /// setting.
    pub fn prefetch_rows(&mut self, requests: &[(Snapshot, NodeId)]) -> PrefetchReport {
        let mut report = PrefetchReport::default();
        let mut jobs: Vec<(Snapshot, u32)> = Vec::new();
        for &(which, u) in requests {
            if self.store.is_paid(which, u) {
                report.cached += 1;
                self.cache_hits += 1;
                continue;
            }
            if self.charge().is_err() {
                report.skipped += 1;
                continue;
            }
            self.cache_misses += 1;
            self.store.mark_paid(which, u);
            if self.store.is_resident(which, u) {
                self.chained_rows += 1;
            } else {
                jobs.push((which, u.0));
            }
            report.computed += 1;
        }
        self.compute_jobs(&jobs);
        report
    }

    /// Node-level batched prefetch with the pipeline's **pair-atomic**
    /// admission: a node is admitted only if the remaining budget covers
    /// *both* of its missing rows, and skipped (scanning continues) when it
    /// does not — the exact `remaining() < cost_of(u) → continue` walk of
    /// the sequential pipeline and landmark probes, so ledger and candidate
    /// set are bit-identical to the one-at-a-time path.
    pub fn prefetch_node_rows(&mut self, nodes: &[NodeId]) -> NodePrefetchReport {
        let mut report = NodePrefetchReport::default();
        let mut jobs: Vec<(Snapshot, u32)> = Vec::new();
        let mut planned_spend: u64 = 0;
        for &u in nodes {
            let have1 = self.store.is_paid(Snapshot::First, u);
            let have2 = self.store.is_paid(Snapshot::Second, u);
            let cost = u64::from(!have1) + u64::from(!have2);
            let remaining = match self.limit {
                None => u64::MAX,
                Some(l) => l.saturating_sub(self.ledger.total() + planned_spend),
            };
            if remaining < cost {
                report.rows.skipped += (!have1) as usize + (!have2) as usize;
                continue;
            }
            if !have1 {
                self.store.mark_paid(Snapshot::First, u);
                if self.store.is_resident(Snapshot::First, u) {
                    self.chained_rows += 1;
                } else {
                    jobs.push((Snapshot::First, u.0));
                }
            } else {
                report.rows.cached += 1;
                self.cache_hits += 1;
            }
            if !have2 {
                self.store.mark_paid(Snapshot::Second, u);
                if self.store.is_resident(Snapshot::Second, u) {
                    self.chained_rows += 1;
                } else {
                    jobs.push((Snapshot::Second, u.0));
                }
            } else {
                report.rows.cached += 1;
                self.cache_hits += 1;
            }
            planned_spend += cost;
            report.rows.computed += cost as usize;
            self.cache_misses += cost;
            report.usable.push(u);
        }
        match self.phase {
            Phase::Generation => self.ledger.generation += planned_spend,
            Phase::TopK => self.ledger.topk += planned_spend,
        }
        self.compute_jobs(&jobs);
        report
    }

    fn graph_of(&self, which: Snapshot) -> &'a Graph {
        match which {
            Snapshot::First => self.g1,
            Snapshot::Second => self.g2,
        }
    }

    /// Computes an admitted (deduplicated, already charged) job batch. Jobs
    /// of both snapshots are grouped into kernel work items first
    /// (multi-source waves, see [`Self::plan_items`]); the items then run
    /// in passes of at most [`STAGED_ITEMS_PER_THREAD`] `× threads`, each
    /// pass fanned out over the workers and merged into the store in item
    /// order before the next starts, so only one pass's rows are ever
    /// staged at `u32`. Row contents are thread-invariant, so store,
    /// ledger, and every later read are identical under any configuration.
    fn compute_jobs(&mut self, jobs: &[(Snapshot, u32)]) {
        if jobs.is_empty() {
            return;
        }
        let started = std::time::Instant::now();
        let items = self.plan_items(jobs);
        for (which, idxs) in &items {
            if self.graph_of(*which).is_weighted() {
                self.kstats.dijkstra_rows += idxs.len() as u64;
            } else if idxs.len() >= 2 {
                self.kstats.msbfs_waves += 1;
                self.kstats.msbfs_rows += idxs.len() as u64;
            } else {
                self.kstats.bfs_rows += idxs.len() as u64;
            }
        }
        for pass in items.chunks(STAGED_ITEMS_PER_THREAD * self.threads) {
            self.run_item_pass(jobs, pass);
        }
        self.sssp_secs += started.elapsed().as_secs_f64();
    }

    /// Runs one pass of planned items — in parallel above
    /// [`PARALLEL_ROW_CUTOFF`], inline otherwise — and merges the
    /// results. Each worker owns its scratch; the shared state is one
    /// atomic item cursor and disjoint per-item result slots, and merging
    /// happens after the join in item order, so rows and work counters
    /// are thread-count-invariant.
    fn run_item_pass(&mut self, jobs: &[(Snapshot, u32)], items: &[(Snapshot, Vec<usize>)]) {
        if items.is_empty() {
            return;
        }
        let pass_jobs: usize = items.iter().map(|(_, idxs)| idxs.len()).sum();
        let threads = self.threads.min(items.len()).max(1);
        if threads == 1 || pass_jobs < PARALLEL_ROW_CUTOFF {
            for (which, idxs) in items {
                let t_item = std::time::Instant::now();
                let graph = self.graph_of(*which);
                let res = compute_item(graph, jobs, idxs, &mut self.ws, &mut self.msws);
                if *which == Snapshot::Second {
                    self.sssp_t2_secs += t_item.elapsed().as_secs_f64();
                }
                self.merge_item(jobs, res);
            }
            return;
        }
        // Pre-sized one-writer-per-slot results (no per-item locking);
        // the slot vector itself is reused across batches. The fan-out
        // runs on the persistent pool — workers are woken, not spawned.
        let mut slots = std::mem::take(&mut self.item_slots);
        slots.clear();
        slots.resize_with(items.len(), || (ItemResult::default(), 0.0));
        let (g1, g2) = (self.g1, self.g2);
        let exec = self.exec.clone();
        let exec: &cp_exec::Executor = match exec.as_deref() {
            Some(e) => e,
            None => cp_exec::global(),
        };
        exec.run(&mut slots, threads, |i, slot, ctx| {
            let scratch = ctx.scratch.get_or(PrefetchScratch::default);
            let (which, idxs) = &items[i];
            let graph = match which {
                Snapshot::First => g1,
                Snapshot::Second => g2,
            };
            let t_item = std::time::Instant::now();
            let res = compute_item(graph, jobs, idxs, &mut scratch.ws, &mut scratch.msws);
            *slot = (res, t_item.elapsed().as_secs_f64());
        });
        // Merge strictly in item (admission) order, after the batch —
        // identical at any thread count.
        for (i, (res, secs)) in slots.drain(..).enumerate() {
            if items[i].0 == Snapshot::Second {
                self.sssp_t2_secs += secs;
            }
            self.merge_item(jobs, res);
        }
        self.item_slots = slots;
    }

    /// Plans the kernel work items for a job batch: the unweighted jobs of
    /// each snapshot are chunked, in admission order, into multi-source
    /// waves of at most [`WAVE_WIDTH`] sources; weighted jobs become
    /// single-source items. Each item carries the indices of the jobs it
    /// resolves.
    fn plan_items(&self, jobs: &[(Snapshot, u32)]) -> Vec<(Snapshot, Vec<usize>)> {
        let mut items: Vec<(Snapshot, Vec<usize>)> = Vec::new();
        let mut snap1: Vec<usize> = Vec::new();
        let mut snap2: Vec<usize> = Vec::new();
        for (i, &(which, _)) in jobs.iter().enumerate() {
            if self.graph_of(which).is_weighted() {
                items.push((which, vec![i]));
            } else {
                match which {
                    Snapshot::First => snap1.push(i),
                    Snapshot::Second => snap2.push(i),
                }
            }
        }
        for (which, idxs) in [(Snapshot::First, snap1), (Snapshot::Second, snap2)] {
            for chunk in idxs.chunks(WAVE_WIDTH) {
                items.push((which, chunk.to_vec()));
            }
        }
        items
    }

    /// Merges one item's results: rows into the row store, work into
    /// the traversal counters.
    fn merge_item(&mut self, jobs: &[(Snapshot, u32)], res: ItemResult) {
        self.work.merge(res.work);
        for (idx, dist) in res.rows {
            let (which, u) = jobs[idx];
            self.store.insert(which, NodeId(u), RowRef::U32(&dist));
        }
    }
}

/// One computed work item: produced rows (tagged with their job index)
/// plus the traversal work the item cost.
#[derive(Default)]
struct ItemResult {
    rows: Vec<(usize, Vec<u32>)>,
    work: TraversalWork,
}

/// Computes one row from scratch — direction-optimizing BFS, or Dijkstra
/// on a weighted snapshot — returning the traversal work.
fn compute_row_fresh(
    graph: &Graph,
    u: NodeId,
    dist: &mut Vec<u32>,
    ws: &mut BfsWorkspace,
) -> TraversalWork {
    if graph.is_weighted() {
        dijkstra_into(graph, u, dist)
    } else {
        bfs_into(graph, u, dist, ws)
    }
}

/// Runs one kernel work item — a multi-source wave (≥ 2 unweighted
/// sources) or a single-source BFS/Dijkstra — returning the produced rows
/// tagged with their job indices, plus the work counters.
fn compute_item(
    graph: &Graph,
    jobs: &[(Snapshot, u32)],
    idxs: &[usize],
    ws: &mut BfsWorkspace,
    msws: &mut MsBfsWorkspace,
) -> ItemResult {
    if idxs.len() >= 2 && !graph.is_weighted() {
        let sources: Vec<NodeId> = idxs.iter().map(|&i| NodeId(jobs[i].1)).collect();
        let mut rows: Vec<Vec<u32>> = (0..idxs.len()).map(|_| Vec::new()).collect();
        let work = msbfs_into(graph, &sources, &mut rows, msws);
        let rows = idxs.iter().copied().zip(rows).collect();
        return ItemResult { rows, work };
    }
    let mut work = TraversalWork::new();
    let rows = idxs
        .iter()
        .map(|&i| {
            let mut dist = Vec::new();
            work.merge(compute_row_fresh(graph, NodeId(jobs[i].1), &mut dist, ws));
            (i, dist)
        })
        .collect();
    ItemResult { rows, work }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_graph::builder::{graph_from_edges, GraphBuilder};
    use cp_graph::INF;

    fn graphs() -> (Graph, Graph) {
        let g1 = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let g2 = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        (g1, g2)
    }

    #[test]
    fn counts_and_caches() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::with_budget(&g1, &g2, 4);
        assert_eq!(o.cost_of(NodeId(0)), 2);
        let (d1, d2) = o.rows(NodeId(0)).unwrap();
        assert_eq!(d1[4], 4);
        assert_eq!(d2[4], 1);
        assert_eq!(o.ledger().total(), 2);
        assert_eq!(o.cost_of(NodeId(0)), 0);
        assert!(o.has_both(NodeId(0)));
        // Cached access is free.
        o.rows(NodeId(0)).unwrap();
        assert_eq!(o.ledger().total(), 2);
        assert_eq!(o.remaining(), 2);
    }

    #[test]
    fn enforces_cap() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::with_budget(&g1, &g2, 3);
        o.rows(NodeId(0)).unwrap(); // 2 spent
        o.row(Snapshot::First, NodeId(1)).unwrap(); // 3 spent
        let err = o.row(Snapshot::Second, NodeId(1)).unwrap_err();
        assert_eq!(err, BudgetError { limit: 3 });
        assert_eq!(o.remaining(), 0);
        // Cached rows remain readable after exhaustion.
        assert!(o.rows(NodeId(0)).is_ok());
    }

    #[test]
    fn phase_accounting() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::with_budget(&g1, &g2, 10);
        o.row(Snapshot::First, NodeId(2)).unwrap();
        o.set_phase(Phase::TopK);
        o.row(Snapshot::Second, NodeId(2)).unwrap();
        let ledger = o.ledger();
        assert_eq!(ledger.generation, 1);
        assert_eq!(ledger.topk, 1);
        assert_eq!(ledger.total(), 2);
    }

    #[test]
    fn fully_cached_nodes_sorted() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::unbounded(&g1, &g2);
        o.rows(NodeId(3)).unwrap();
        o.rows(NodeId(1)).unwrap();
        o.row(Snapshot::First, NodeId(4)).unwrap(); // only one side
        assert_eq!(o.fully_cached_nodes(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(o.remaining(), u64::MAX);
        assert_eq!(o.limit(), None);
    }

    #[test]
    fn rows_reflect_each_snapshot() {
        let g1 = graph_from_edges(3, &[(0, 1)]);
        let g2 = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let mut o = SnapshotOracle::unbounded(&g1, &g2);
        let (d1, d2) = o.rows(NodeId(0)).unwrap();
        assert_eq!(d1[2], INF);
        assert_eq!(d2[2], 2);
    }

    #[test]
    #[should_panic(expected = "share a node universe")]
    fn universe_mismatch_panics() {
        let g1 = graph_from_edges(3, &[(0, 1)]);
        let g2 = graph_from_edges(4, &[(0, 1)]);
        SnapshotOracle::unbounded(&g1, &g2);
    }

    #[test]
    fn t2_rows_match_fresh_bfs() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::unbounded(&g1, &g2);
        for u in g1.nodes() {
            let (d1, d2) = o.rows(u).unwrap();
            assert_eq!(d1, cp_graph::bfs::bfs(&g1, u).as_slice(), "t1 of {u:?}");
            assert_eq!(d2, cp_graph::bfs::bfs(&g2, u).as_slice(), "t2 of {u:?}");
        }
        // One-at-a-time reads: every row of both snapshots is one BFS.
        assert_eq!(o.kernel_stats().bfs_rows, 10);
        assert_eq!(o.kernel_stats().rows(), o.ledger().total());
    }

    #[test]
    fn weighted_snapshots_use_dijkstra() {
        let mut b1 = GraphBuilder::new(4);
        b1.add_weighted_edge(NodeId(0), NodeId(1), 3);
        b1.add_weighted_edge(NodeId(1), NodeId(2), 4);
        let g1 = b1.build();
        let mut b2 = GraphBuilder::new(4);
        b2.add_weighted_edge(NodeId(0), NodeId(1), 3);
        b2.add_weighted_edge(NodeId(1), NodeId(2), 4);
        b2.add_weighted_edge(NodeId(0), NodeId(2), 1);
        b2.add_weighted_edge(NodeId(2), NodeId(3), 2);
        let g2 = b2.build();
        let mut o = SnapshotOracle::unbounded(&g1, &g2);
        for u in g1.nodes() {
            let (d1, d2) = o.rows(u).unwrap();
            assert_eq!(d1, cp_graph::dijkstra::dijkstra(&g1, u).as_slice());
            assert_eq!(d2, cp_graph::dijkstra::dijkstra(&g2, u).as_slice());
        }
        // Both snapshots' four rows each.
        assert_eq!(o.kernel_stats().dijkstra_rows, 8);
        assert_eq!(o.kernel_stats().rows(), o.ledger().total());
    }

    #[test]
    fn non_growth_pairs_match_fresh_bfs() {
        let g1 = graph_from_edges(4, &[(0, 1), (1, 2)]);
        let g2 = graph_from_edges(4, &[(0, 1), (2, 3)]); // (1,2) removed
        let mut o = SnapshotOracle::unbounded(&g1, &g2);
        for u in g1.nodes() {
            let (d1, d2) = o.rows(u).unwrap();
            assert_eq!(d1, cp_graph::bfs::bfs(&g1, u).as_slice(), "t1 of {u:?}");
            assert_eq!(d2, cp_graph::bfs::bfs(&g2, u).as_slice(), "t2 of {u:?}");
        }
        assert_eq!(o.kernel_stats().bfs_rows, 8);
    }

    #[test]
    fn unweighted_rows_pack_to_u16_and_recycle_arena_slots() {
        let (g1, g2) = graphs();
        assert!(fits_u16(&g1) && fits_u16(&g2));
        let mut o = SnapshotOracle::with_budget(&g1, &g2, 10);
        for u in g1.nodes() {
            let (d1, d2) = o.rows(u).map(|(a, b)| (a.to_vec(), b.to_vec())).unwrap();
            assert_eq!(d1, cp_graph::bfs::bfs(&g1, u), "widened t1 of {u:?}");
            assert_eq!(d2, cp_graph::bfs::bfs(&g2, u), "widened t2 of {u:?}");
        }
        let stats = o.arena_stats();
        assert_eq!(stats.u32_rows, 0, "unweighted rows must pack");
        assert_eq!(stats.u16_rows, 10, "every paid row stays resident");
        assert!(stats.slab_bytes > 0);
        // Packed accounting: resident bytes are 2 per node.
        assert_eq!(o.cache_bytes(), 10 * 5 * 2);
        // The resident view is served at the packed width.
        for u in g1.nodes() {
            let (r1, r2) = o.cached_rows(u).expect("paid rows are resident");
            assert!(matches!(r1, RowRef::U16(_)) && matches!(r2, RowRef::U16(_)));
        }
    }

    #[test]
    fn one_weighted_snapshot_stores_both_at_u32() {
        let g1 = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let mut b2 = GraphBuilder::new(3);
        b2.add_weighted_edge(NodeId(0), NodeId(1), 1);
        b2.add_weighted_edge(NodeId(1), NodeId(2), 1);
        b2.add_weighted_edge(NodeId(0), NodeId(2), 5);
        let g2 = b2.build();
        let mut o = SnapshotOracle::unbounded(&g1, &g2);
        o.rows(NodeId(0)).unwrap();
        let (r1, r2) = o.cached_rows(NodeId(0)).expect("resident");
        assert_eq!(r1, RowRef::U32(&[0, 1, 2]));
        assert_eq!(r2, RowRef::U32(&[0, 1, 2]));
        assert_eq!(o.arena_stats().u32_rows, 2);
    }

    #[test]
    fn packed_reads_match_across_residency() {
        // The same rows, made resident by a kernel in one oracle and by a
        // donor import in the other, read back with the same width and
        // bits: the scan kernel cannot tell them apart.
        let (g1, g2) = graphs();
        let mut computed = SnapshotOracle::unbounded(&g1, &g2);
        for u in g1.nodes() {
            computed.rows(u).unwrap();
        }
        let mut imported = SnapshotOracle::unbounded(&g1, &g2);
        imported.import_donor_rows(Snapshot::First, computed.resident_rows(Snapshot::First));
        imported.import_donor_rows(Snapshot::Second, computed.resident_rows(Snapshot::Second));
        for u in g1.nodes() {
            let (a1, a2) = computed.cached_rows(u).expect("paid");
            let (b1, b2) = imported.cached_rows(u).expect("imported");
            assert_eq!(a1, b1, "t1 of {u:?}");
            assert_eq!(a2, b2, "t2 of {u:?}");
            assert!(matches!(a1, RowRef::U16(_)), "unweighted rows pack");
            assert_eq!(a1.to_u32_vec(), cp_graph::bfs::bfs(&g1, u));
        }
        assert_eq!(imported.ledger().total(), 0, "imports are not charged");
    }

    #[test]
    fn donor_handoff_chains_rows_across_oracles() {
        // Three growing snapshots; step 1 reviews (g0, g1), step 2 reviews
        // (g1, g2) with step 1's t2 residents imported as t1 donors.
        let g0 = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let (g1, g2) = graphs();
        let mut step1 = SnapshotOracle::unbounded(&g0, &g1);
        for u in g0.nodes() {
            step1.rows(u).unwrap();
        }
        let handoff = step1.resident_rows(Snapshot::Second);
        assert_eq!(handoff.len(), 5);
        assert!(handoff.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        assert!(handoff.iter().all(|(_, r)| matches!(r, RowRef::U16(_))));

        let mut chained = SnapshotOracle::unbounded(&g1, &g2);
        assert_eq!(chained.import_donor_rows(Snapshot::First, handoff), 5);
        let mut scratch = SnapshotOracle::unbounded(&g1, &g2);
        for u in g1.nodes() {
            let (c1, c2) = chained.rows(u).unwrap();
            let (c1, c2) = (c1.to_vec(), c2.to_vec());
            let (s1, s2) = scratch.rows(u).unwrap();
            assert_eq!(c1, s1, "t1 of {u:?}");
            assert_eq!(c2, s2, "t2 of {u:?}");
        }
        // Every charge is honest: the ledgers agree, but the chained
        // oracle served all five t1 rows from the import without a kernel.
        assert_eq!(chained.ledger().total(), scratch.ledger().total());
        assert_eq!(chained.chained_rows(), 5);
        assert_eq!(scratch.chained_rows(), 0);
        let ks = chained.kernel_stats();
        assert_eq!(
            ks.rows() + chained.chained_rows(),
            chained.ledger().total(),
            "charged-row invariant with chaining"
        );
    }

    #[test]
    fn donor_import_skips_paid_and_resident_rows() {
        let (g1, g2) = graphs();
        let mut donor = SnapshotOracle::unbounded(&g1, &g2);
        for u in g1.nodes() {
            donor.rows(u).unwrap();
        }
        // Exporting t1 of (g1, g2) and importing it back as t1 of another
        // (g1, g2) oracle that already paid for node 0's rows.
        let handoff = donor.resident_rows(Snapshot::First);
        let mut o = SnapshotOracle::unbounded(&g1, &g2);
        o.rows(NodeId(0)).unwrap();
        assert_eq!(o.import_donor_rows(Snapshot::First, handoff), 4);
        o.rows(NodeId(0)).unwrap();
        assert_eq!(o.chained_rows(), 0, "already-paid rows never chain");
        o.rows(NodeId(1)).unwrap();
        assert_eq!(o.chained_rows(), 1);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn donor_import_rejects_foreign_universe() {
        let (g1, g2) = graphs();
        let mut donor = SnapshotOracle::unbounded(&g1, &g2);
        donor.rows(NodeId(0)).unwrap();
        let handoff = donor.resident_rows(Snapshot::First);
        let h1 = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let h2 = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        SnapshotOracle::unbounded(&h1, &h2).import_donor_rows(Snapshot::First, handoff);
    }
}
