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
//! # The paid/resident row cache
//!
//! Two orthogonal facts about a row are tracked separately:
//!
//! * **Paid** — the row has been charged to the ledger once. Admission,
//!   [`Self::cost_of`], [`Self::has_both`] and [`Self::fully_cached_nodes`]
//!   read *only* this, so the ledger and the candidate set are bit-identical
//!   at any cache size or thread count.
//! * **Resident** — the row's bytes are currently held. Residency is
//!   bounded by a [`RowCacheBudget`] (LRU eviction, `CP_ROW_CACHE`); a paid
//!   row that was evicted is recomputed **free of charge** on its next
//!   read. Residency only moves wall clock and memory, never results.
//!
//! # Row kernels
//!
//! Fresh rows take one path in both snapshots: batched prefetches run
//! 64-source MS-BFS waves, singleton and fallback rows the
//! direction-optimizing [`cp_graph::bfs::bfs_into`], and weighted
//! snapshots Dijkstra. Each charged row costs one SSSP however it is
//! computed: the paper's cost model counts rows. The two runtime knobs
//! are `CP_THREADS` and `CP_ROW_CACHE`; neither changes a row's bytes.
//! The plain top-down BFS is a test reference that every cached row is
//! checked against, not a runtime option.

use cp_graph::bfs::{bfs_into, BfsWorkspace, TraversalWork};
use cp_graph::dijkstra::dijkstra_into;
use cp_graph::msbfs::{msbfs_into, MsBfsWorkspace, WAVE_WIDTH};
use cp_graph::rowpack::{
    copy_row_into, fits_u16, pack_u16_into, widen_u16_into, RowArena, RowId, RowRef,
};
use cp_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Number of pending rows below which a batched prefetch computes inline
/// instead of spawning workers.
const PARALLEL_ROW_CUTOFF: usize = 8;

/// Number of most-recently-touched rows the LRU never evicts, so the
/// borrows returned by [`SnapshotOracle::rows`] (one row per snapshot)
/// stay resident for the duration of the call that produced them.
const ROW_PIN_COUNT: usize = 2;

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

/// Byte budget of the oracle's resident-row cache (`CP_ROW_CACHE`).
///
/// The budget bounds *residency only*: which rows' bytes are held. Paid
/// status — and with it admission, the ledger, and the candidate set — is
/// tracked separately, so every budget produces bit-identical results;
/// a smaller budget just trades recomputation for memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowCacheBudget {
    /// Keep every paid row resident (the default): nothing is ever
    /// recomputed.
    #[default]
    Unbounded,
    /// Hold at most this many row-payload bytes at the *packed* width —
    /// 2 bytes per node for `u16`-packed unweighted rows, 4 for `u32`
    /// rows, so packing fits about twice the rows in the same budget —
    /// evicting least-recently-used rows beyond the [`ROW_PIN_COUNT`]
    /// most recent. `Bytes(0)` keeps nothing resident beyond those pinned
    /// rows: every later read of a paid row recomputes it, and the
    /// streaming engine's donor chaining switches off.
    Bytes(usize),
}

impl RowCacheBudget {
    /// Reads `CP_ROW_CACHE`: unset or `unbounded` → [`Self::Unbounded`];
    /// a byte count with optional `k`/`m`/`g` (or `kb`/`mb`/`gb`) suffix →
    /// [`Self::Bytes`]; `0` keeps nothing resident. Unparseable values
    /// fall back to the default with a one-time (per process) stderr
    /// warning: a typo like `CP_ROW_CACHE=64x` silently running unbounded
    /// has burned enough CI legs that the fallback is no longer silent.
    pub fn from_env() -> Self {
        static WARNED: std::sync::Once = std::sync::Once::new();
        match std::env::var("CP_ROW_CACHE") {
            Ok(s) => Self::parse(&s).unwrap_or_else(|| {
                WARNED.call_once(|| {
                    eprintln!("warning: unparseable CP_ROW_CACHE={s:?}; falling back to unbounded");
                });
                RowCacheBudget::Unbounded
            }),
            Err(_) => RowCacheBudget::Unbounded,
        }
    }

    /// Parses a knob spelling (see [`Self::from_env`]).
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim().to_ascii_lowercase();
        if s.is_empty() || s == "unbounded" {
            return Some(RowCacheBudget::Unbounded);
        }
        let (digits, mult) = ["gb", "g", "mb", "m", "kb", "k"]
            .iter()
            .find_map(|suf| {
                s.strip_suffix(suf).map(|d| {
                    let mult = match suf.as_bytes()[0] {
                        b'g' => 1usize << 30,
                        b'm' => 1 << 20,
                        _ => 1 << 10,
                    };
                    (d.trim_end().to_string(), mult)
                })
            })
            .unwrap_or((s, 1));
        let n: usize = digits.parse().ok()?;
        Some(RowCacheBudget::Bytes(n.checked_mul(mult)?))
    }

    /// The knob spelling of this budget (`"unbounded"` or a byte count).
    pub fn describe(self) -> String {
        match self {
            RowCacheBudget::Unbounded => "unbounded".to_string(),
            RowCacheBudget::Bytes(b) => b.to_string(),
        }
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
/// number of fresh *charged* rows (= ledger total); free recomputations
/// of evicted rows are counted by [`SnapshotOracle::recomputed_rows`]
/// instead. `msbfs_waves` counts graph sweeps, each covering up to 64 of
/// the `msbfs_rows`.
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
    /// Requests already paid for (free — served from residency or, if
    /// evicted, recomputed without charge on their next read).
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

/// A resident row's arena slot, tagged with its storage width.
enum RowSlot {
    /// `u16`-packed row in the compact arena (unweighted snapshots on a
    /// `u16`-sized node universe).
    U16(RowId),
    /// Full-width row (weighted Dijkstra rows, or universes beyond `u16`).
    U32(RowId),
}

/// One resident row with its LRU recency stamp.
struct CacheEntry {
    slot: RowSlot,
    tick: u64,
}

/// The paid/resident row store behind the oracle (see the module docs for
/// the paid-vs-resident split). Row bytes live in pooled slab arenas —
/// `u16`-packed where the snapshot allows it, so a byte budget fits about
/// twice the rows — and eviction recycles slots through the arenas' free
/// lists instead of reallocating. All mutation happens on the oracle's
/// single-threaded control path, so recency stamps — and therefore
/// evictions — are deterministic at any worker-thread count.
struct RowCache {
    budget: RowCacheBudget,
    resident: HashMap<u64, CacheEntry>,
    paid1: HashSet<u32>,
    paid2: HashSet<u32>,
    bytes: usize,
    tick: u64,
    evictions: u64,
    arena16: RowArena<u16>,
    arena32: RowArena<u32>,
    /// Whether each snapshot's rows pack to `u16` (decided once at
    /// construction from weightedness and universe size).
    pack1: bool,
    pack2: bool,
}

fn cache_key(which: Snapshot, u: NodeId) -> u64 {
    let snap = match which {
        Snapshot::First => 0u64,
        Snapshot::Second => 1u64 << 32,
    };
    snap | u64::from(u.0)
}

impl RowCache {
    fn new(budget: RowCacheBudget, row_len: usize, pack1: bool, pack2: bool) -> Self {
        RowCache {
            budget,
            resident: HashMap::new(),
            paid1: HashSet::new(),
            paid2: HashSet::new(),
            bytes: 0,
            tick: 0,
            evictions: 0,
            arena16: RowArena::new(row_len),
            arena32: RowArena::new(row_len),
            pack1,
            pack2,
        }
    }

    fn is_paid(&self, which: Snapshot, u: NodeId) -> bool {
        match which {
            Snapshot::First => self.paid1.contains(&u.0),
            Snapshot::Second => self.paid2.contains(&u.0),
        }
    }

    fn mark_paid(&mut self, which: Snapshot, u: NodeId) {
        match which {
            Snapshot::First => self.paid1.insert(u.0),
            Snapshot::Second => self.paid2.insert(u.0),
        };
    }

    /// Whether this snapshot's rows are stored `u16`-packed.
    fn packs(&self, which: Snapshot) -> bool {
        match which {
            Snapshot::First => self.pack1,
            Snapshot::Second => self.pack2,
        }
    }

    fn is_resident(&self, which: Snapshot, u: NodeId) -> bool {
        self.resident.contains_key(&cache_key(which, u))
    }

    /// The resident row at its storage width, if present.
    fn get_ref(&self, which: Snapshot, u: NodeId) -> Option<RowRef<'_>> {
        self.resident
            .get(&cache_key(which, u))
            .map(|e| match e.slot {
                RowSlot::U16(id) => RowRef::U16(self.arena16.row(id)),
                RowSlot::U32(id) => RowRef::U32(self.arena32.row(id)),
            })
    }

    /// Bumps the recency of a resident row; `false` if it was evicted.
    fn touch(&mut self, which: Snapshot, u: NodeId) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.resident.get_mut(&cache_key(which, u)) {
            Some(e) => {
                e.tick = tick;
                true
            }
            None => false,
        }
    }

    /// Copies a row into an arena slot at the snapshot's storage width
    /// (recycling freed slots) and makes it resident.
    fn insert(&mut self, which: Snapshot, u: NodeId, row: RowRef<'_>) {
        self.tick += 1;
        let key = cache_key(which, u);
        if let Some(old) = self.resident.remove(&key) {
            self.release_slot(old.slot);
        }
        let slot = if self.packs(which) {
            let id = self.arena16.alloc();
            copy_row_into(row, self.arena16.row_mut(id));
            self.bytes += self.arena16.row_bytes();
            RowSlot::U16(id)
        } else {
            let id = self.arena32.alloc();
            copy_row_into(row, self.arena32.row_mut(id));
            self.bytes += self.arena32.row_bytes();
            RowSlot::U32(id)
        };
        self.resident.insert(
            key,
            CacheEntry {
                slot,
                tick: self.tick,
            },
        );
        self.enforce();
    }

    /// Returns a slot to its arena's free list and settles the byte
    /// accounting (at the packed width).
    fn release_slot(&mut self, slot: RowSlot) {
        match slot {
            RowSlot::U16(id) => {
                self.bytes -= self.arena16.row_bytes();
                self.arena16.release(id);
            }
            RowSlot::U32(id) => {
                self.bytes -= self.arena32.row_bytes();
                self.arena32.release(id);
            }
        }
    }

    fn remove(&mut self, which: Snapshot, u: NodeId) {
        if let Some(e) = self.resident.remove(&cache_key(which, u)) {
            self.release_slot(e.slot);
        }
    }

    fn clear_resident(&mut self) {
        self.resident.clear();
        self.arena16.clear();
        self.arena32.clear();
        self.bytes = 0;
    }

    /// Evicts least-recently-used rows until the byte budget holds, always
    /// keeping the [`ROW_PIN_COUNT`] most recent (so borrows handed out by
    /// the current call remain valid even under `Bytes(0)`). Evicted slots
    /// go back to the arena free lists for the next insert to reuse.
    fn enforce(&mut self) {
        let cap = match self.budget {
            RowCacheBudget::Unbounded => return,
            RowCacheBudget::Bytes(b) => b,
        };
        while self.bytes > cap && self.resident.len() > ROW_PIN_COUNT {
            let victim = self
                .resident
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&k, _)| k)
                .expect("non-empty cache");
            let e = self.resident.remove(&victim).expect("victim resident");
            self.release_slot(e.slot);
            self.evictions += 1;
        }
    }
}

/// Occupancy counters of the row cache's slab arenas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArenaStats {
    /// Live `u16`-packed rows.
    pub u16_rows: u64,
    /// Live full-width `u32` rows.
    pub u32_rows: u64,
    /// Slot allocations served from the free lists (eviction/refill
    /// traffic that reused warm slabs instead of growing them).
    pub reused_rows: u64,
    /// Bytes of slab capacity held across both arenas (live and free
    /// slots alike).
    pub slab_bytes: u64,
}

/// Thread-private scratch for [`SnapshotOracle::read_rows`] and
/// [`SnapshotOracle::read_rows_packed`]: buffers a recomputed row per
/// snapshot (plus its `u16`-packed form and a BFS workspace), so
/// shared-`&self` readers (the Δ scan workers) can resolve evicted rows
/// without touching the oracle.
#[derive(Default)]
pub struct RowScratch {
    d1: Vec<u32>,
    d2: Vec<u32>,
    p1: Vec<u16>,
    p2: Vec<u16>,
    ws: BfsWorkspace,
}

impl RowScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
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
    cache: RowCache,
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
    recomputed_rows: u64,
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
            cache: RowCache::new(
                RowCacheBudget::from_env(),
                g1.num_nodes(),
                fits_u16(g1),
                fits_u16(g2),
            ),
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
            recomputed_rows: 0,
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
    /// kernels across every charged or free row this oracle computed.
    pub fn traversal_work(&self) -> TraversalWork {
        self.work
    }

    /// Whether the chosen snapshot's rows are stored `u16`-packed (half
    /// the bytes of the canonical `u32` rows). Decided once at
    /// construction: unit weights and a node universe that keeps every
    /// finite distance below the `u16` sentinel.
    pub fn row_packed(&self, which: Snapshot) -> bool {
        self.cache.packs(which)
    }

    /// Occupancy counters of the row cache's slab arenas.
    pub fn arena_stats(&self) -> ArenaStats {
        ArenaStats {
            u16_rows: self.cache.arena16.live_rows(),
            u32_rows: self.cache.arena32.live_rows(),
            reused_rows: self.cache.arena16.reused_rows() + self.cache.arena32.reused_rows(),
            slab_bytes: self.cache.arena16.slab_bytes() + self.cache.arena32.slab_bytes(),
        }
    }

    /// Sets the resident-row byte budget (builder style). Cache size never
    /// changes results — only wall clock and memory (see [`RowCacheBudget`]).
    pub fn with_row_cache(mut self, budget: RowCacheBudget) -> Self {
        self.set_row_cache(budget);
        self
    }

    /// Sets the resident-row byte budget, evicting immediately if the new
    /// budget is smaller than the current residency.
    pub fn set_row_cache(&mut self, budget: RowCacheBudget) {
        self.cache.budget = budget;
        self.cache.enforce();
    }

    /// The configured resident-row budget.
    pub fn row_cache(&self) -> RowCacheBudget {
        self.cache.budget
    }

    /// Bytes of row payload currently resident.
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes
    }

    /// Rows evicted by the LRU so far.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions
    }

    /// Per-kernel work counters accumulated so far.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kstats
    }

    /// Paid rows recomputed free of charge after LRU eviction (always 0
    /// under [`RowCacheBudget::Unbounded`]).
    pub fn recomputed_rows(&self) -> u64 {
        self.recomputed_rows
    }

    /// Rows charged to the ledger whose bytes were already resident from a
    /// cross-oracle donor hand-off ([`Self::import_donor_rows`]): the row
    /// is paid — the paper's cost model charges every first use — but no
    /// kernel runs. Always 0 unless donors were imported.
    pub fn chained_rows(&self) -> u64 {
        self.chained_rows
    }

    /// Every resident row of one snapshot at its storage width, ascending
    /// by source. The streaming engine copies both snapshots' rows into the
    /// epoch's query index; that index's `t2` rows then seed the next
    /// review's oracle as `t1` donors ([`Self::import_donor_rows`]) — the
    /// two oracles index the *same* graph object, so the rows carry over
    /// exactly.
    pub fn resident_rows(&self, which: Snapshot) -> Vec<(NodeId, RowRef<'_>)> {
        let snap_bit = match which {
            Snapshot::First => 0u64,
            Snapshot::Second => 1u64 << 32,
        };
        let mut rows: Vec<(NodeId, RowRef<'_>)> = self
            .cache
            .resident
            .keys()
            .filter(|&&key| key & (1u64 << 32) == snap_bit)
            .filter_map(|&key| {
                let u = NodeId(key as u32);
                Some((u, self.cache.get_ref(which, u)?))
            })
            .collect();
        rows.sort_unstable_by_key(|&(u, _)| u);
        rows
    }

    /// Seeds the resident cache with donor rows computed elsewhere (the
    /// previous review's published `t2` rows) — resident but **unpaid**,
    /// so the first use of each row is still charged to this oracle's own
    /// ledger (and then counted in [`Self::chained_rows`] instead of
    /// running a kernel). Ledger, admission order, and results are
    /// bit-identical with or without an import; only the work done per
    /// charge changes.
    ///
    /// The caller asserts each row holds the exact distances of `which`'s
    /// graph from its source. Rows are copied at this oracle's storage
    /// width (a straight copy when the donor is stored at the same width)
    /// in the order given. Rows already paid or resident are left
    /// untouched; imports land through the normal LRU (so a byte budget
    /// still holds). Returns the rows admitted.
    ///
    /// # Panics
    /// Panics if a row's length differs from this oracle's node universe.
    pub fn import_donor_rows<'r>(
        &mut self,
        which: Snapshot,
        rows: impl IntoIterator<Item = (NodeId, RowRef<'r>)>,
    ) -> u64 {
        let mut imported = 0u64;
        for (u, row) in rows {
            assert_eq!(
                row.len(),
                self.num_nodes(),
                "donor row node universe mismatch"
            );
            if self.cache.is_paid(which, u) || self.cache.is_resident(which, u) {
                continue;
            }
            self.cache.insert(which, u, row);
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
    /// available (0, 1 or 2 depending on what is already paid). Paid rows
    /// cost nothing even if their bytes were evicted.
    pub fn cost_of(&self, u: NodeId) -> u64 {
        u64::from(!self.cache.is_paid(Snapshot::First, u))
            + u64::from(!self.cache.is_paid(Snapshot::Second, u))
    }

    /// Whether both rows of `u` are already paid (i.e. `u` is already a
    /// fully paid candidate).
    pub fn has_both(&self, u: NodeId) -> bool {
        self.cache.is_paid(Snapshot::First, u) && self.cache.is_paid(Snapshot::Second, u)
    }

    /// Nodes with both rows paid, ascending. These are exactly the nodes
    /// whose pairs the top-k phase can evaluate — independent of which row
    /// bytes happen to be resident.
    pub fn fully_cached_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .cache
            .paid1
            .iter()
            .filter(|k| self.cache.paid2.contains(k))
            .map(|&k| NodeId(k))
            .collect();
        out.sort_unstable();
        out
    }

    /// Drops the resident bytes of one row. Paid status and ledger are
    /// untouched: a later read recomputes the row free of charge.
    pub fn invalidate_row(&mut self, which: Snapshot, u: NodeId) {
        self.cache.remove(which, u);
    }

    /// Drops every resident row (memory pressure relief); paid statuses
    /// and the ledger survive, so results are unaffected.
    pub fn invalidate_resident(&mut self) {
        self.cache.clear_resident();
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

    /// Computes one row by a full sweep. `charged` routes the per-kernel
    /// accounting (free recomputations stay out of [`KernelStats`] so its
    /// row sum keeps matching the ledger).
    fn compute_one(&mut self, which: Snapshot, u: NodeId, charged: bool) -> Vec<u32> {
        let started = std::time::Instant::now();
        let graph = self.graph_of(which);
        let mut dist = Vec::new();
        let work = compute_row_fresh(graph, u, &mut dist, &mut self.ws);
        if charged {
            if graph.is_weighted() {
                self.kstats.dijkstra_rows += 1;
            } else {
                self.kstats.bfs_rows += 1;
            }
        }
        self.work.merge(work);
        let secs = started.elapsed().as_secs_f64();
        self.sssp_secs += secs;
        if which == Snapshot::Second {
            self.sssp_t2_secs += secs;
        }
        dist
    }

    /// Makes the row of `u` paid and resident, charging it on first use;
    /// an evicted paid row is recomputed free of charge.
    fn ensure_row(&mut self, which: Snapshot, u: NodeId) -> Result<(), BudgetError> {
        if self.cache.is_paid(which, u) {
            self.cache_hits += 1;
            if !self.cache.touch(which, u) {
                let dist = self.compute_one(which, u, false);
                self.recomputed_rows += 1;
                self.cache.insert(which, u, RowRef::U32(&dist));
            }
        } else {
            self.charge()?;
            self.cache_misses += 1;
            self.cache.mark_paid(which, u);
            if self.cache.get_ref(which, u).is_some() {
                // Imported donor row: charged on first use like any other
                // row, but its bytes are already exact — no kernel runs.
                self.chained_rows += 1;
                self.cache.touch(which, u);
            } else {
                let dist = self.compute_one(which, u, true);
                self.cache.insert(which, u, RowRef::U32(&dist));
            }
        }
        Ok(())
    }

    /// The distance row of `u` in the chosen snapshot, computing (and
    /// charging) it on first use. Paid rows are free forever — if their
    /// bytes were evicted they are recomputed without touching the ledger.
    /// `u16`-packed residents are widened into an oracle-owned buffer, so
    /// callers always see canonical `u32` distances.
    pub fn row(&mut self, which: Snapshot, u: NodeId) -> Result<&[u32], BudgetError> {
        self.ensure_row(which, u)?;
        let wide = match which {
            Snapshot::First => &mut self.wide1,
            Snapshot::Second => &mut self.wide2,
        };
        Ok(
            match self
                .cache
                .get_ref(which, u)
                .expect("row just made resident")
            {
                RowRef::U32(r) => r,
                RowRef::U16(p) => {
                    widen_u16_into(p, wide);
                    wide.as_slice()
                }
            },
        )
    }

    /// Both rows of `u` at once (for Δ computation). The returned pair is
    /// protected from eviction by the LRU's recency pin.
    pub fn rows(&mut self, u: NodeId) -> Result<(&[u32], &[u32]), BudgetError> {
        self.ensure_row(Snapshot::First, u)?;
        self.ensure_row(Snapshot::Second, u)?;
        let SnapshotOracle {
            cache,
            wide1,
            wide2,
            ..
        } = self;
        let r1 = match cache.get_ref(Snapshot::First, u).expect("pinned") {
            RowRef::U32(r) => r,
            RowRef::U16(p) => {
                widen_u16_into(p, wide1);
                wide1.as_slice()
            }
        };
        let r2 = match cache.get_ref(Snapshot::Second, u).expect("pinned") {
            RowRef::U32(r) => r,
            RowRef::U16(p) => {
                widen_u16_into(p, wide2);
                wide2.as_slice()
            }
        };
        Ok((r1, r2))
    }

    /// The *resident* row of `u` in the chosen snapshot at its storage
    /// width, if present. Never computes or charges; safe to call from
    /// parallel readers via `&self`. Under a bounded [`RowCacheBudget`] a
    /// paid row may be absent — use [`Self::read_rows`] for eviction-safe
    /// shared reads.
    pub fn cached_row(&self, which: Snapshot, u: NodeId) -> Option<RowRef<'_>> {
        self.cache.get_ref(which, u)
    }

    /// Both resident rows of `u`, if both are present. Never
    /// computes or charges.
    pub fn cached_rows(&self, u: NodeId) -> Option<(RowRef<'_>, RowRef<'_>)> {
        Some((
            self.cache.get_ref(Snapshot::First, u)?,
            self.cache.get_ref(Snapshot::Second, u)?,
        ))
    }

    /// Eviction-safe shared read of both rows of `u`: resident rows are
    /// returned directly (widened into the caller's scratch when
    /// `u16`-packed), evicted ones are recomputed into the caller's
    /// [`RowScratch`]. Never charges and never mutates the oracle — the
    /// landmark probes call this via `&self`. Rows are uniquely determined
    /// by the graphs, so a recomputed row is bit-identical to the
    /// original; recomputation time here surfaces in the caller's phase
    /// timing, not in [`Self::sssp_secs`].
    pub fn read_rows<'s>(
        &'s self,
        u: NodeId,
        scratch: &'s mut RowScratch,
    ) -> (&'s [u32], &'s [u32]) {
        let RowScratch { d1, d2, ws, .. } = scratch;
        let r1 = match self.cache.get_ref(Snapshot::First, u) {
            Some(RowRef::U32(r)) => r,
            Some(RowRef::U16(p)) => {
                widen_u16_into(p, d1);
                d1.as_slice()
            }
            None => {
                compute_row_fresh(self.g1, u, d1, ws);
                d1.as_slice()
            }
        };
        let r2 = match self.cache.get_ref(Snapshot::Second, u) {
            Some(RowRef::U32(r)) => r,
            Some(RowRef::U16(p)) => {
                widen_u16_into(p, d2);
                d2.as_slice()
            }
            None => {
                compute_row_fresh(self.g2, u, d2, ws);
                d2.as_slice()
            }
        };
        (r1, r2)
    }

    /// Eviction-safe shared read of both rows of `u` at their *storage*
    /// width — the Δ-scan entry point. Resident rows are returned
    /// directly from the arena; evicted ones are recomputed into the
    /// caller's [`RowScratch`] and packed to the snapshot's width, so the
    /// scan kernel sees the same representation whether or not a row was
    /// resident. A mixed-width pair (one snapshot packed, the other not)
    /// is normalized to `u32` on both sides. Never charges and never
    /// mutates the oracle.
    pub fn read_rows_packed<'s>(
        &'s self,
        u: NodeId,
        scratch: &'s mut RowScratch,
    ) -> (RowRef<'s>, RowRef<'s>) {
        let RowScratch { d1, d2, p1, p2, ws } = scratch;
        let have1 = self.cache.is_resident(Snapshot::First, u);
        let have2 = self.cache.is_resident(Snapshot::Second, u);
        let (k1, k2) = (self.cache.pack1, self.cache.pack2);
        let mixed = k1 != k2;
        if !have1 {
            compute_row_fresh(self.g1, u, d1, ws);
            if k1 && !mixed {
                pack_u16_into(d1, p1);
            }
        }
        if !have2 {
            compute_row_fresh(self.g2, u, d2, ws);
            if k2 && !mixed {
                pack_u16_into(d2, p2);
            }
        }
        if mixed {
            if have1 && k1 {
                if let Some(RowRef::U16(p)) = self.cache.get_ref(Snapshot::First, u) {
                    widen_u16_into(p, d1);
                }
            }
            if have2 && k2 {
                if let Some(RowRef::U16(p)) = self.cache.get_ref(Snapshot::Second, u) {
                    widen_u16_into(p, d2);
                }
            }
        }
        let r1 = if have1 && !(mixed && k1) {
            self.cache.get_ref(Snapshot::First, u).expect("resident")
        } else if k1 && !mixed {
            RowRef::U16(p1)
        } else {
            RowRef::U32(d1)
        };
        let r2 = if have2 && !(mixed && k2) {
            self.cache.get_ref(Snapshot::Second, u).expect("resident")
        } else if k2 && !mixed {
            RowRef::U16(p2)
        } else {
            RowRef::U32(d2)
        };
        (r1, r2)
    }

    /// Batched row prefetch. Admission is **sequential and deterministic**:
    /// requests are walked in order and each unpaid row is charged to the
    /// current [`Phase`] exactly as a one-at-a-time [`Self::row`] walk
    /// would, skipping requests once the cap is reached (paid requests
    /// stay free throughout). The admitted rows are then computed in
    /// parallel — row contents do not depend on thread count, so the cache,
    /// the ledger, and every later read are identical at any [`Self::threads`]
    /// setting.
    pub fn prefetch_rows(&mut self, requests: &[(Snapshot, NodeId)]) -> PrefetchReport {
        let mut report = PrefetchReport::default();
        let mut jobs: Vec<(Snapshot, u32)> = Vec::new();
        for &(which, u) in requests {
            if self.cache.is_paid(which, u) {
                report.cached += 1;
                self.cache_hits += 1;
                continue;
            }
            if self.charge().is_err() {
                report.skipped += 1;
                continue;
            }
            self.cache_misses += 1;
            self.cache.mark_paid(which, u);
            if self.cache.get_ref(which, u).is_some() {
                self.chained_rows += 1;
                self.cache.touch(which, u);
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
            let have1 = self.cache.is_paid(Snapshot::First, u);
            let have2 = self.cache.is_paid(Snapshot::Second, u);
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
                self.cache.mark_paid(Snapshot::First, u);
                if self.cache.get_ref(Snapshot::First, u).is_some() {
                    self.chained_rows += 1;
                    self.cache.touch(Snapshot::First, u);
                } else {
                    jobs.push((Snapshot::First, u.0));
                }
            } else {
                report.rows.cached += 1;
                self.cache_hits += 1;
            }
            if !have2 {
                self.cache.mark_paid(Snapshot::Second, u);
                if self.cache.get_ref(Snapshot::Second, u).is_some() {
                    self.chained_rows += 1;
                    self.cache.touch(Snapshot::Second, u);
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

    /// Computes an admitted (deduplicated, already charged) job batch — in
    /// parallel above [`PARALLEL_ROW_CUTOFF`], inline otherwise. Jobs of
    /// both snapshots are grouped into kernel work items first
    /// (multi-source waves, see [`Self::plan_items`]); the scoped-worker
    /// fan-out then distributes *items*, so wave batching composes with
    /// thread parallelism. Each worker owns its scratch; the shared state
    /// is one atomic item cursor and disjoint per-item result slots. Row
    /// contents are thread-invariant, so cache, ledger, and every later
    /// read are identical under any configuration.
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
        self.run_item_pass(jobs, &items);
        self.sssp_secs += started.elapsed().as_secs_f64();
    }

    /// Runs one batch of planned items — in parallel above
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

    /// Merges one item's results: rows into the resident cache, work into
    /// the traversal counters.
    fn merge_item(&mut self, jobs: &[(Snapshot, u32)], res: ItemResult) {
        self.work.merge(res.work);
        for (idx, dist) in res.rows {
            let (which, u) = jobs[idx];
            self.cache.insert(which, NodeId(u), RowRef::U32(&dist));
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
/// on a weighted snapshot — returning the traversal work (no stats — also
/// the shared-read fallback of [`SnapshotOracle::read_rows`]).
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
    fn row_cache_parser_handles_suffixes_and_overflow() {
        use RowCacheBudget::{Bytes, Unbounded};
        assert_eq!(RowCacheBudget::parse(""), Some(Unbounded));
        assert_eq!(RowCacheBudget::parse("unbounded"), Some(Unbounded));
        assert_eq!(RowCacheBudget::parse("0"), Some(Bytes(0)));
        assert_eq!(RowCacheBudget::parse("4096"), Some(Bytes(4096)));
        assert_eq!(RowCacheBudget::parse("64k"), Some(Bytes(64 << 10)));
        // Uppercase suffixes and a space before the unit both parse.
        assert_eq!(RowCacheBudget::parse("64 KB"), Some(Bytes(64 << 10)));
        assert_eq!(RowCacheBudget::parse("2 Mb"), Some(Bytes(2 << 20)));
        assert_eq!(RowCacheBudget::parse("1G"), Some(Bytes(1 << 30)));
        // Empty digits, junk suffixes, and multiplier overflow are
        // rejected (not silently clamped).
        assert_eq!(RowCacheBudget::parse("k"), None);
        assert_eq!(RowCacheBudget::parse("64x"), None);
        assert_eq!(RowCacheBudget::parse("12.5m"), None);
        assert_eq!(RowCacheBudget::parse("18446744073709551615k"), None);
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
        let mut o = SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Unbounded);
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
    fn disabled_cache_keeps_rows_and_ledger() {
        let (g1, g2) = graphs();
        let mut on = SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Unbounded);
        let mut off = SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Bytes(0));
        for u in g1.nodes() {
            let (a1, a2) = on.rows(u).map(|(a, b)| (a.to_vec(), b.to_vec())).unwrap();
            let (b1, b2) = off.rows(u).map(|(a, b)| (a.to_vec(), b.to_vec())).unwrap();
            assert_eq!(a1, b1);
            assert_eq!(a2, b2);
        }
        assert_eq!(on.ledger(), off.ledger());
    }

    #[test]
    fn tiny_cache_evicts_but_results_and_ledger_survive() {
        let (g1, g2) = graphs();
        // Room for ~2 rows of 5 nodes (20 bytes each): constant eviction.
        let mut o =
            SnapshotOracle::with_budget(&g1, &g2, 10).with_row_cache(RowCacheBudget::Bytes(40));
        let mut reference = SnapshotOracle::with_budget(&g1, &g2, 10);
        for u in g1.nodes() {
            let (d1, d2) = o.rows(u).map(|(a, b)| (a.to_vec(), b.to_vec())).unwrap();
            let (r1, r2) = reference
                .rows(u)
                .map(|(a, b)| (a.to_vec(), b.to_vec()))
                .unwrap();
            assert_eq!(d1, r1, "t1 of {u:?}");
            assert_eq!(d2, r2, "t2 of {u:?}");
        }
        assert!(o.cache_evictions() > 0);
        assert!(o.cache_bytes() <= 40 + 2 * 20, "pinned rows may overhang");
        // All ten rows paid once; re-reads stay free even though evicted.
        assert_eq!(o.ledger(), reference.ledger());
        o.rows(NodeId(0)).unwrap();
        assert_eq!(o.ledger().total(), 10);
        assert!(o.recomputed_rows() > 0);
        assert_eq!(o.fully_cached_nodes(), reference.fully_cached_nodes());
    }

    #[test]
    fn invalidation_keeps_paid_status() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::with_budget(&g1, &g2, 4);
        let before = o
            .rows(NodeId(2))
            .map(|(a, b)| (a.to_vec(), b.to_vec()))
            .unwrap();
        o.invalidate_row(Snapshot::First, NodeId(2));
        assert!(o.cached_row(Snapshot::First, NodeId(2)).is_none());
        assert_eq!(o.cost_of(NodeId(2)), 0, "paid status survives invalidation");
        let after = o
            .rows(NodeId(2))
            .map(|(a, b)| (a.to_vec(), b.to_vec()))
            .unwrap();
        assert_eq!(before, after);
        assert_eq!(o.ledger().total(), 2, "recomputation is free");
        o.invalidate_resident();
        assert_eq!(o.cache_bytes(), 0);
        assert!(o.has_both(NodeId(2)));
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
        let mut o = SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Unbounded);
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
        // Room for ~4 packed rows (10 bytes each): constant eviction, so
        // freed slots must be recycled through the arena free list.
        let mut o =
            SnapshotOracle::with_budget(&g1, &g2, 10).with_row_cache(RowCacheBudget::Bytes(40));
        assert!(o.row_packed(Snapshot::First) && o.row_packed(Snapshot::Second));
        let mut reference = SnapshotOracle::with_budget(&g1, &g2, 10);
        for u in g1.nodes() {
            let (d1, d2) = o.rows(u).map(|(a, b)| (a.to_vec(), b.to_vec())).unwrap();
            let (r1, r2) = reference
                .rows(u)
                .map(|(a, b)| (a.to_vec(), b.to_vec()))
                .unwrap();
            assert_eq!(d1, r1, "widened t1 of {u:?}");
            assert_eq!(d2, r2, "widened t2 of {u:?}");
        }
        let stats = o.arena_stats();
        assert_eq!(stats.u32_rows, 0, "unweighted rows must pack");
        assert!(stats.u16_rows > 0);
        assert!(stats.reused_rows > 0, "evicted slots must be recycled");
        assert!(stats.slab_bytes > 0);
        assert!(o.cache_evictions() > 0);
        // Packed accounting: resident bytes are 2/node, so the 40-byte
        // budget holds twice the rows the u32 layout would.
        assert!(o.cache_bytes() <= 40 + 2 * 10, "pinned rows may overhang");
        // The resident view is served at the packed width.
        let some_resident = g1
            .nodes()
            .find_map(|u| o.cached_row(Snapshot::First, u))
            .expect("something is resident");
        assert!(matches!(some_resident, RowRef::U16(_)));
    }

    #[test]
    fn packed_reads_match_across_residency() {
        let (g1, g2) = graphs();
        let mut resident =
            SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Unbounded);
        let mut evicted =
            SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Bytes(0));
        for u in g1.nodes() {
            resident.rows(u).unwrap();
            evicted.rows(u).unwrap();
        }
        let mut s1 = RowScratch::new();
        let mut s2 = RowScratch::new();
        for u in g1.nodes() {
            let (a1, a2) = resident.read_rows_packed(u, &mut s1);
            let (b1, b2) = evicted.read_rows_packed(u, &mut s2);
            // Same width and same bits whether the row was resident or
            // recomputed into scratch — the scan kernel cannot tell.
            assert_eq!(a1, b1, "t1 of {u:?}");
            assert_eq!(a2, b2, "t2 of {u:?}");
            assert!(matches!(a1, RowRef::U16(_)), "unweighted rows pack");
            assert_eq!(a1.to_u32_vec(), resident.read_rows(u, &mut s1).0);
        }
    }

    #[test]
    fn row_cache_budget_parses() {
        use RowCacheBudget::*;
        assert_eq!(RowCacheBudget::parse(""), Some(Unbounded));
        assert_eq!(RowCacheBudget::parse("unbounded"), Some(Unbounded));
        assert_eq!(RowCacheBudget::parse("0"), Some(Bytes(0)));
        assert_eq!(RowCacheBudget::parse("4096"), Some(Bytes(4096)));
        assert_eq!(RowCacheBudget::parse("64k"), Some(Bytes(64 << 10)));
        assert_eq!(RowCacheBudget::parse("64KB"), Some(Bytes(64 << 10)));
        assert_eq!(RowCacheBudget::parse("2m"), Some(Bytes(2 << 20)));
        assert_eq!(RowCacheBudget::parse("1g"), Some(Bytes(1 << 30)));
        assert_eq!(RowCacheBudget::parse("nope"), None);
        assert_eq!(Bytes(0).describe(), "0");
        assert_eq!(Unbounded.describe(), "unbounded");
    }

    #[test]
    fn read_rows_recomputes_evicted_rows() {
        let (g1, g2) = graphs();
        let mut o = SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Bytes(0));
        let expected: Vec<(Vec<u32>, Vec<u32>)> = g1
            .nodes()
            .map(|u| {
                let (a, b) = o.rows(u).unwrap();
                (a.to_vec(), b.to_vec())
            })
            .collect();
        // All but the two pinned rows are gone; shared reads still resolve.
        let mut scratch = RowScratch::new();
        for (u, (e1, e2)) in g1.nodes().zip(&expected) {
            let (r1, r2) = o.read_rows(u, &mut scratch);
            assert_eq!(r1, e1.as_slice(), "t1 of {u:?}");
            assert_eq!(r2, e2.as_slice(), "t2 of {u:?}");
        }
        assert_eq!(o.ledger().total(), 10, "shared reads never charge");
    }

    #[test]
    fn donor_handoff_chains_rows_across_oracles() {
        // Three growing snapshots; step 1 reviews (g0, g1), step 2 reviews
        // (g1, g2) with step 1's t2 residents imported as t1 donors.
        let g0 = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let (g1, g2) = graphs();
        let mut step1 =
            SnapshotOracle::unbounded(&g0, &g1).with_row_cache(RowCacheBudget::Unbounded);
        for u in g0.nodes() {
            step1.rows(u).unwrap();
        }
        let handoff = step1.resident_rows(Snapshot::Second);
        assert_eq!(handoff.len(), 5);
        assert!(handoff.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        assert!(handoff.iter().all(|(_, r)| matches!(r, RowRef::U16(_))));

        let mut chained =
            SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Unbounded);
        assert_eq!(chained.import_donor_rows(Snapshot::First, handoff), 5);
        let mut scratch =
            SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Unbounded);
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
        let mut donor =
            SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Unbounded);
        for u in g1.nodes() {
            donor.rows(u).unwrap();
        }
        // Exporting t1 of (g1, g2) and importing it back as t1 of another
        // (g1, g2) oracle that already paid for node 0's rows.
        let handoff = donor.resident_rows(Snapshot::First);
        let mut o = SnapshotOracle::unbounded(&g1, &g2).with_row_cache(RowCacheBudget::Unbounded);
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
