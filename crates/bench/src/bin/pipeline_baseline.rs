//! Machine-readable perf baseline for the parallel pipeline, its BFS
//! kernels, and the snapshot-delta row cache.
//!
//! Six measurement phases, written together to `BENCH_pipeline.json` in
//! the current directory (`--out=PATH` overrides):
//!
//! **Phase 1 — kernel ladder** on the paper's evaluation snapshots
//! (80 % → 100 % of the stream). The Table 5 pipeline (every selector of
//! the suite at the paper's budget) runs four times per dataset:
//!
//! 1. `scalar` kernel, one thread, row cache disabled (the
//!    pre-optimization baseline),
//! 2. `auto` kernel (direction-optimizing BFS + multi-source waves), one
//!    thread, row cache disabled — isolates the pure kernel speedup,
//! 3. `auto` kernel, one thread, unbounded row cache — the default
//!    configuration, with snapshot-delta repair of `t2` rows,
//! 4. `auto` kernel + repair at the configured thread count.
//!
//! **Phase 2 — incremental regime** on a *tight* snapshot pair
//! ([`REPAIR_T1`] → 100 %): the re-evaluation scenario the delta cache is
//! built for, where the edge delta is a few percent of the stream and the
//! shrinking region is small. The same suite runs with the cache off and
//! on (auto kernel, one thread); `repair_speedup` compares the two on
//! `sssp_t2_secs`, the `t2`-row share of the oracle's distance work.
//!
//! The eval pair's 20 % edge delta moves roughly half of all distances,
//! so there a per-row repair cannot beat a 64-wide multi-source wave —
//! phase 1 documents that boundary honestly (its `t2` timings are part of
//! the sweeps), while phase 2 measures the regime the optimization
//! targets. Results are bit-identical in every configuration (see
//! `crates/core/tests/parallel_equivalence.rs` and
//! `crates/core/tests/conformance.rs`); only the timing differs, which is
//! what this baseline records.
//!
//! **Phase 3 — Δ-scan ladder** on the evaluation snapshots: a
//! deliberately scan-heavy pipeline (Degree selector at a budget of
//! `n / 4` candidates) runs with `CP_SCAN_KERNEL` scalar vs auto, best of
//! [`REPEATS`] on `scan_secs`. `scan_speedup` compares the reference
//! per-element loop against the blocked kernel (u16-packed rows,
//! chunk skipping, rising Δ floor) on the `M × V` scan it rewrites;
//! chunk/prune counters and row-arena occupancy ride along.
//!
//! **Phase 4 — streaming ladder** over a whole review sequence: the
//! `cp-stream` engine replays each dataset's event stream across
//! [`STREAM_CUTS`] (≥ 5 reviews, each under its own `2m` ledger) twice —
//! with review-to-review cache chaining on (step *t*'s resident `t2` rows
//! imported as step *t+1*'s `t1` donors) and off (the per-step rebuild the
//! old monitor did). Pairs and ledgers are bit-identical by construction
//! (the streaming conformance suite holds the engine to it); what moves is
//! the donor/repair hit rate — the fraction of charged rows served by a
//! chained donor or derived by snapshot-delta repair instead of a full
//! sweep — and the pipeline wall clock, best of [`REPEATS`] ladder runs.
//!
//! **Phase 5 — snapshot-store ladder** on the tight pair: the same
//! budgeted pipeline (Mmsd selector, auto kernel, unbounded cache, one
//! thread) runs once per `CP_GRAPH_STORE` value — full CSR, base + delta
//! overlay, gap-compressed CSR. Pairs are bit-identical by construction
//! (the conformance suite holds every store to it); what moves is graph
//! memory: `bytes_per_arc` of the compressed store against the full
//! store's, and the overlay's O(Δ) footprint against the base it borrows
//! (`overlay_shared_arcs` counts the arcs it never copied).
//!
//! **Phase 6 — query-throughput ladder** over the same review sequence:
//! the `cp-query` layer answers budget-free point queries (`distance` +
//! `delta`) from published epochs while the engine advances the
//! [`STREAM_CUTS`] reviews, at 1, 2 and 8 concurrent reader threads.
//! Recorded per rung: queries/sec and the Exact/Bounded/Unknown answer
//! mix. A reader-free twin run pins the ledger: every rung's summed
//! review budget must equal the twin's exactly (`query_budget_charged`
//! stays 0) — queries are served from immutable epochs and spend nothing.
//!
//! Per sweep, three timings: `secs` (whole suite, end to end),
//! `sssp_secs` (the oracle's distance-row computation, the path the
//! kernels own), and `sssp_t2_secs` (its `G_t2` share, per-item summed —
//! the path repair attacks). `kernel_speedup` compares ladder slots 1 and
//! 2 on `sssp_secs`; the suite total additionally includes IncBet's
//! exact-betweenness grant, which the paper gives that baseline for free
//! and which no kernel touches.
//!
//! ```text
//! cargo run --release -p cp-bench --bin pipeline_baseline -- --scale=0.25
//! ```

use cp_bench::{scaled_budget, Options};
use cp_core::exact::TopKSpec;
use cp_core::oracle::{BfsKernel, GraphStore, RowCacheBudget, SnapshotOracle};
use cp_core::scan::ScanKernel;
use cp_core::selectors::SelectorKind;
use cp_core::topk::{run_pipeline, PipelineStats};
use cp_gen::datasets::{DatasetKind, DatasetProfile, EVAL_SNAPSHOTS};
use cp_graph::repair::snapshot_delta;
use cp_graph::{Graph, NodeId, TemporalGraph};
use cp_query::{Answer, QueryEngine};
use cp_stream::{StreamConfig, StreamEngine, StreamError};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Timing of one (dataset, kernel, threads, cache) pipeline sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SweepTiming {
    dataset: String,
    kernel: String,
    threads: usize,
    /// Row-cache budget knob value (`"0"` = delta cache disabled).
    cache: String,
    /// Best-of-repeats wall clock of the whole selector suite, seconds.
    secs: f64,
    /// Oracle distance-row computation seconds within the best repeat.
    sssp_secs: f64,
    /// The `G_t2` share of `sssp_secs` (per-item summed) within the best
    /// repeat — what snapshot-delta repair attacks.
    sssp_t2_secs: f64,
    /// SSSPs charged across the suite (identical for every configuration).
    sssp_computed: u64,
    /// Multi-source waves run (0 under the scalar kernel).
    msbfs_waves: u64,
    /// Rows produced by multi-source waves.
    msbfs_rows: u64,
    /// `t2` rows produced by snapshot-delta repair (0 with the cache
    /// disabled).
    repaired_rows: u64,
    /// Nodes settled by repair frontiers — the work done in place of full
    /// sweeps.
    repair_frontier_nodes: u64,
    /// Resident row-cache bytes at the end of the suite's largest run.
    cache_bytes: usize,
    /// Persistent-executor activity within the best repeat (batches,
    /// tasks, steals, park/unpark events; `workers_spawned` is the
    /// pool's size — spawned once per process, not per batch).
    exec: cp_exec::ExecStats,
}

/// Per-dataset kernel-ladder comparison at one worker thread (phase 1,
/// evaluation snapshots).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct DatasetSummary {
    dataset: String,
    /// Whole suite, scalar kernel, one thread, cache off.
    scalar_single_secs: f64,
    /// Whole suite, optimized kernel, one thread, cache off.
    optimized_single_secs: f64,
    /// Oracle SSSP time within the scalar single-thread run.
    scalar_sssp_secs: f64,
    /// Oracle SSSP time within the optimized single-thread run.
    optimized_sssp_secs: f64,
    /// `scalar_sssp_secs / optimized_sssp_secs`: the single-thread
    /// speedup of the distance-row path the kernels own.
    kernel_speedup: f64,
    /// `scalar_single_secs / optimized_single_secs`: whole suite,
    /// including work no kernel touches.
    suite_speedup: f64,
    /// Whole suite at `threads_multi` workers: the best single-thread
    /// config (auto kernel, cache off) run on the persistent pool.
    multi_thread_secs: f64,
    /// The smallest whole-suite seconds across the optimized rungs
    /// (auto@1 cache-off, auto@1 + repair, auto@threads_multi).
    best_config_secs: f64,
    /// `true` when the `threads_multi` rung lost to its single-thread
    /// twin (the same auto-kernel cache-off config at one thread) by
    /// more than a 15 % + 50 ms noise allowance — the per-batch
    /// thread-spawn regression the persistent executor exists to kill.
    thread_regression: bool,
}

/// Per-dataset repair comparison on the tight snapshot pair (phase 2,
/// `REPAIR_T1` → 100 %, auto kernel, one thread).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct RepairSummary {
    dataset: String,
    /// First-snapshot cut of the tight pair (fraction of the stream).
    t1_fraction: f64,
    /// `|E_t2 \ E_t1|` of the tight pair.
    delta_edges: usize,
    /// `t2`-row seconds with the delta cache off.
    repair_off_t2_secs: f64,
    /// `t2`-row seconds with the delta cache on.
    repair_on_t2_secs: f64,
    /// `repair_off_t2_secs / repair_on_t2_secs`: the measured speedup of
    /// snapshot-delta repair on the `t2`-row path.
    repair_speedup: f64,
    /// `t2` rows repaired in the cache-on run.
    repaired_rows: u64,
    /// Mean shrinking-region size per repaired row.
    avg_frontier: f64,
}

/// Timing of one (dataset, scan kernel) Δ-scan sweep (phase 3).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ScanSweep {
    dataset: String,
    /// The Δ-scan kernel (`"scalar"` = reference per-element loop).
    scan_kernel: String,
    /// Fully paid candidate endpoints `|M|` (identical across kernels).
    candidates: usize,
    /// Pairs found (identical across kernels — conformance-tested).
    pairs: usize,
    /// Best-of-repeats `M × V` scan seconds.
    scan_secs: f64,
    /// Chunks whose elements were walked (blocked kernel; 0 for scalar).
    scan_chunks_scanned: u64,
    /// Chunks skipped whole below the shared Δ floor.
    scan_chunks_skipped: u64,
    /// Individual Δ ≥ 1 values pruned below the floor inside scanned
    /// chunks.
    scan_pairs_pruned: u64,
    /// Live `u16`-packed rows in the oracle's arena after the run.
    arena_u16_rows: u64,
    /// Live full-width rows after the run (weighted snapshots only).
    arena_u32_rows: u64,
    /// Arena slot allocations served from the free list.
    arena_reused_rows: u64,
    /// Slab bytes held by the arenas.
    arena_slab_bytes: u64,
}

/// One engine ladder run (phase 4): a full review sequence with chaining
/// on or off, counters summed over all reviews.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct StreamSweep {
    dataset: String,
    /// `"chained"` (donor hand-off across reviews) or `"rebuilt"`
    /// (per-step cache rebuild).
    mode: String,
    /// Reviews in the ladder.
    reviews: u32,
    /// Edge events accepted across the whole replay.
    events: u64,
    /// SSSPs charged across all reviews (identical across modes).
    sssp_computed: u64,
    /// Donor rows imported from the previous review's hand-off (0 when
    /// rebuilt).
    donor_rows_imported: u64,
    /// Charged rows served straight from imported donors.
    donor_chain_hits: u64,
    /// `t2` rows derived by snapshot-delta repair.
    repaired_rows: u64,
    /// `(donor_chain_hits + repaired_rows) / sssp_computed`.
    donor_hit_rate: f64,
    /// Best-of-repeats budgeted-pipeline seconds summed over reviews.
    pipeline_secs: f64,
    /// Snapshot materialization seconds summed over reviews (identical
    /// work in both modes; recorded for context).
    advance_secs: f64,
}

/// Per-dataset chained-vs-rebuilt comparison (phase 4).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct StreamSummary {
    dataset: String,
    /// Reviews in the ladder.
    reviews: u32,
    /// Donor/repair hit rate with chaining on.
    chained_hit_rate: f64,
    /// Donor/repair hit rate with per-step rebuild.
    rebuilt_hit_rate: f64,
    /// `chained_hit_rate - rebuilt_hit_rate` — strictly positive wherever
    /// the hand-off served rows the rebuild had to sweep for.
    hit_rate_gain: f64,
    /// Pipeline seconds with chaining on.
    chained_pipeline_secs: f64,
    /// Pipeline seconds with per-step rebuild.
    rebuilt_pipeline_secs: f64,
    /// `rebuilt / chained` on pipeline seconds.
    stream_speedup: f64,
}

/// One snapshot-store pipeline run on the tight pair (phase 5).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct StoreSweep {
    dataset: String,
    /// `CP_GRAPH_STORE` value of this run.
    store: String,
    /// Pairs found (identical across stores — conformance-tested).
    pairs: usize,
    /// Best-of-repeats pipeline wall clock, seconds.
    secs: f64,
    /// Oracle distance-row seconds within the best repeat.
    sssp_secs: f64,
    /// Full-CSR bytes of the snapshot pair (always materialized).
    base_bytes: u64,
    /// Overlay structure bytes — O(Δ), 0 unless this is the overlay run.
    overlay_bytes: u64,
    /// Base arcs the overlay borrows instead of copying.
    overlay_shared_arcs: u64,
    /// Gap-compressed adjacency bytes — 0 unless this is the compressed
    /// run.
    compressed_bytes: u64,
    /// `compressed_bytes` per directed arc.
    compressed_bytes_per_arc: f64,
    /// The full store's bytes per directed arc, for the shrink ratio.
    full_bytes_per_arc: f64,
}

/// Per-dataset store comparison (phase 5).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct StoreSummary {
    dataset: String,
    /// `|E_t2 \ E_t1|` of the tight pair the ladder ran on.
    delta_edges: usize,
    /// Full-store graph bytes per directed arc.
    full_bytes_per_arc: f64,
    /// Compressed-store adjacency bytes per directed arc.
    compressed_bytes_per_arc: f64,
    /// `compressed / full` bytes-per-arc — the shrink factor.
    compressed_ratio: f64,
    /// Overlay structure bytes (the O(Δ) footprint of sharing `G_t1`).
    overlay_bytes: u64,
    /// `overlay_bytes / base_bytes` — how small the second snapshot's
    /// marginal memory is next to materializing it in full.
    overlay_frac: f64,
    /// Base arcs the overlay run borrowed from `G_t1`.
    overlay_shared_arcs: u64,
}

/// One query-throughput rung (phase 6): point queries answered from
/// published epochs at a fixed reader-thread count while the engine
/// advances reviews.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct QuerySweep {
    dataset: String,
    /// Concurrent reader threads issuing queries.
    readers: usize,
    /// Point queries answered across all readers (distance + delta).
    queries: u64,
    /// Wall clock the readers ran for (the review-advance window).
    secs: f64,
    /// Queries per second, summed over readers.
    qps: f64,
    /// `Answer::Exact` answers observed.
    exact: u64,
    /// `Answer::Bounded` answers observed.
    bounded: u64,
    /// `Answer::Unknown` answers observed.
    unknown: u64,
    /// Summed review ledger of the run — must equal the reader-free
    /// twin's (queries spend nothing).
    ledger: u64,
}

/// Per-dataset Δ-scan kernel comparison (phase 3).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ScanSummary {
    dataset: String,
    /// Candidate budget of the scan-heavy pipeline (`n / 4`).
    m_scan: u64,
    /// Best scalar-kernel scan seconds.
    scalar_scan_secs: f64,
    /// Best blocked-kernel scan seconds.
    auto_scan_secs: f64,
    /// `scalar_scan_secs / auto_scan_secs`.
    scan_speedup: f64,
    /// Fraction of chunks the blocked kernel skipped whole.
    chunks_skipped_frac: f64,
}

/// The written baseline document.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Baseline {
    benchmark: String,
    scale: f64,
    seed: u64,
    m: u64,
    repeats: u32,
    threads_multi: usize,
    /// The tight pair's first-snapshot fraction (phase 2).
    repair_t1_fraction: f64,
    sweeps: Vec<SweepTiming>,
    datasets: Vec<DatasetSummary>,
    repair: Vec<RepairSummary>,
    scan_ladder: Vec<ScanSweep>,
    scan: Vec<ScanSummary>,
    stream_ladder: Vec<StreamSweep>,
    stream: Vec<StreamSummary>,
    store_ladder: Vec<StoreSweep>,
    store: Vec<StoreSummary>,
    query_ladder: Vec<QuerySweep>,
    /// Suite totals: scalar kernel, one thread, cache off (eval pair).
    scalar_single_secs: f64,
    /// Suite totals: optimized kernel, one thread, cache off (eval pair).
    optimized_single_secs: f64,
    /// Suite totals: optimized kernel, cache off, `threads_multi`
    /// threads — `optimized_single_secs` with the pool turned on.
    multi_thread_secs: f64,
    /// Single-thread kernel speedup on the oracle SSSP path, scalar vs
    /// optimized (both cache-off), summed over datasets.
    kernel_speedup: f64,
    /// Repair speedup on the `t2`-row path in the incremental regime,
    /// summed over datasets (phase 2).
    repair_speedup: f64,
    /// The best per-dataset `repair_speedup` — the repair win on the
    /// dataset whose delta structure suits it best.
    repair_speedup_max: f64,
    /// Δ-scan speedup of the blocked kernel over the reference loop on
    /// the scan-heavy pipeline, summed over datasets (phase 3).
    scan_speedup: f64,
    /// The best per-dataset `scan_speedup`.
    scan_speedup_max: f64,
    /// Donor/repair hit rate of the chained streaming ladder, summed over
    /// datasets (phase 4).
    stream_chained_hit_rate: f64,
    /// Donor/repair hit rate of the per-step-rebuild ladder.
    stream_rebuilt_hit_rate: f64,
    /// Datasets where chaining reached a strictly higher hit rate than
    /// the rebuild — the chain's reach across the review boundary.
    stream_gain_datasets: usize,
    /// Aggregate full-store graph bytes per directed arc (phase 5).
    full_bytes_per_arc: f64,
    /// Aggregate compressed adjacency bytes per directed arc (phase 5).
    compressed_bytes_per_arc: f64,
    /// `compressed / full` bytes-per-arc across all datasets — the
    /// compressed store's aggregate shrink factor.
    compressed_ratio: f64,
    /// Aggregate `overlay_bytes / base_bytes` — the marginal memory of an
    /// overlay-shared second snapshot.
    overlay_frac: f64,
    /// `Answer::Exact` point-query answers across the whole query ladder
    /// (phase 6).
    query_exact_answers: u64,
    /// `Answer::Bounded` point-query answers across the whole query
    /// ladder — nonzero proves the answer lattice's middle rung is live.
    query_bounded_answers: u64,
    /// `Answer::Unknown` point-query answers across the whole query
    /// ladder.
    query_unknown_answers: u64,
    /// Summed ledger difference between every query-ladder rung and its
    /// reader-free twin. Structurally zero: queries are answered from
    /// published epochs and never touch a budget.
    query_budget_charged: u64,
    /// The best queries/sec observed on any query-ladder rung.
    query_qps_peak: f64,
    /// Suite totals of the fastest optimized rung per dataset (auto@1
    /// cache-off, auto@1 + repair, or auto@`threads_multi` cache-off).
    best_config_secs: f64,
    /// `true` when any dataset's `threads_multi` rung lost to its
    /// single-thread twin — see [`DatasetSummary::thread_regression`].
    thread_regression: bool,
    /// Work-stealing events across every phase-1/phase-2 sweep's best
    /// repeat — nonzero proves chunks actually migrate between the
    /// persistent pool's workers.
    exec_steals: u64,
    /// End-to-end speedup of the best optimized configuration over the
    /// scalar single-thread baseline.
    total_speedup: f64,
}

const REPEATS: u32 = 3;
/// The phase-1 rung ladder feeds the headline threads-on/threads-off
/// comparison, so it gets more repeats than the section ladders: on a
/// shared single-core container individual suite runs jitter by
/// ±15-30 %, and a best-of-5 interleaved floor is what makes the rung
/// deltas reproducible.
const PHASE1_REPEATS: u32 = 5;

/// Phase 2's first-snapshot cut: the last 5 % of the stream is the delta,
/// emulating a re-evaluation shortly after the previous one.
const REPAIR_T1: f64 = 0.95;

/// Phase 4's review schedule: the engine starts at the first cut and
/// reviews at each subsequent one — five reviews over the stream's second
/// half, tight enough (10 % deltas) that chained donors stay relevant.
const STREAM_CUTS: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Phase 1 config slots (kernel, threads, cache): pre-optimization scalar,
/// kernels-only, kernels + repair, everything at full threads.
const SLOT_SCALAR: usize = 0;
const SLOT_AUTO: usize = 1;
const SLOT_REPAIR: usize = 2;
const SLOT_MULTI: usize = 3;

/// Accumulated pipeline counters of one suite run.
#[derive(Default)]
struct SuiteRun {
    secs: f64,
    sssp_secs: f64,
    sssp_t2_secs: f64,
    sssp_computed: u64,
    msbfs_waves: u64,
    msbfs_rows: u64,
    repaired_rows: u64,
    repair_frontier_nodes: u64,
    cache_bytes: usize,
    exec: cp_exec::ExecStats,
}

impl SuiteRun {
    fn absorb(&mut self, stats: &PipelineStats) {
        self.exec.absorb(&stats.exec);
        self.sssp_secs += stats.sssp_secs;
        self.sssp_t2_secs += stats.sssp_t2_secs;
        self.sssp_computed += stats.sssp_computed;
        self.msbfs_waves += stats.kernel_stats.msbfs_waves;
        self.msbfs_rows += stats.kernel_stats.msbfs_rows;
        self.repaired_rows += stats.repaired_rows;
        self.repair_frontier_nodes += stats.repair_frontier_nodes;
        self.cache_bytes = self.cache_bytes.max(stats.cache_bytes);
    }
}

/// Runs the full selector suite once and returns its counters.
#[allow(clippy::too_many_arguments)]
fn run_suite(
    g1: &Graph,
    g2: &Graph,
    suite: &[SelectorKind],
    spec: &TopKSpec,
    m: u64,
    seed: u64,
    threads: usize,
    kernel: BfsKernel,
    cache: RowCacheBudget,
) -> SuiteRun {
    let started = Instant::now();
    let mut run = SuiteRun::default();
    for &kind in suite {
        let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * m)
            .with_threads(threads)
            .with_kernel(kernel)
            .with_row_cache(cache);
        let mut sel = kind.build(seed);
        let res = run_pipeline(&mut oracle, sel.as_mut(), spec);
        run.absorb(&res.stats);
    }
    run.secs = started.elapsed().as_secs_f64();
    run
}

/// Best-of-repeats: keeps the run whose metric (`suite` wall clock or
/// `t2` seconds) is smallest.
fn best_of<F: FnMut() -> SuiteRun, M: Fn(&SuiteRun) -> f64>(mut run: F, metric: M) -> SuiteRun {
    let mut best: Option<SuiteRun> = None;
    for _ in 0..REPEATS {
        let r = run();
        if best.as_ref().is_none_or(|b| metric(&r) < metric(b)) {
            best = Some(r);
        }
    }
    best.expect("REPEATS >= 1")
}

/// One scan-heavy pipeline run (phase 3): Degree selector at a `n / 4`
/// candidate budget, unbounded row cache, one thread, the given Δ-scan
/// kernel. Returns the stats plus the candidate/pair counts (identical
/// across kernels).
fn run_scan_heavy(
    g1: &Graph,
    g2: &Graph,
    m_scan: u64,
    spec: &TopKSpec,
    seed: u64,
    scan: ScanKernel,
) -> (PipelineStats, usize, usize) {
    let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * m_scan)
        .with_threads(1)
        .with_kernel(BfsKernel::Auto)
        .with_row_cache(RowCacheBudget::Unbounded)
        .with_scan_kernel(scan);
    let mut sel = SelectorKind::Degree.build(seed);
    let res = run_pipeline(&mut oracle, sel.as_mut(), spec);
    (res.stats, res.candidates.len(), res.pairs.len())
}

/// One store-ladder pipeline run (phase 5): Mmsd selector on the tight
/// pair, auto kernel, unbounded cache, one thread, the given snapshot
/// store. Returns the stats, pair count, and wall clock.
fn run_store_probe(
    g1: &Graph,
    g2: &Graph,
    m: u64,
    seed: u64,
    store: GraphStore,
) -> (PipelineStats, usize, f64) {
    let started = Instant::now();
    let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * m)
        .with_graph_store(store)
        .with_threads(1)
        .with_kernel(BfsKernel::Auto)
        .with_row_cache(RowCacheBudget::Unbounded);
    let mut sel = SelectorKind::Mmsd { landmarks: 5 }.build(seed);
    let res = run_pipeline(
        &mut oracle,
        sel.as_mut(),
        &TopKSpec::ThresholdFromMax { slack: 1 },
    );
    (res.stats, res.pairs.len(), started.elapsed().as_secs_f64())
}

/// One full streaming ladder (phase 4): replays the dataset's events
/// across [`STREAM_CUTS`] with the given chaining mode, returning summed
/// per-review counters. Pairs/ledger are mode-invariant (conformance-
/// tested); the pairs of each review are folded into a checksum so the
/// caller can assert the two modes agreed.
fn run_stream_ladder(t: &TemporalGraph, m: u64, seed: u64, chain: bool) -> (StreamSweep, u64) {
    let prefix = |f: f64| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events());
    let mut cfg = StreamConfig::new(
        m,
        SelectorKind::Mmsd { landmarks: 10 },
        TopKSpec::ThresholdFromMax { slack: 1 },
        seed,
    )
    .with_chaining(chain);
    cfg.threads = Some(1);
    cfg.kernel = Some(BfsKernel::Auto);
    cfg.row_cache = Some(RowCacheBudget::Unbounded);
    let mut engine =
        StreamEngine::from_snapshot(&t.snapshot_of_prefix(prefix(STREAM_CUTS[0])), cfg);
    let mut sweep = StreamSweep {
        mode: if chain { "chained" } else { "rebuilt" }.to_string(),
        ..StreamSweep::default()
    };
    let mut checksum = 0u64;
    for w in STREAM_CUTS.windows(2) {
        for &e in &t.events()[prefix(w[0])..prefix(w[1])] {
            match engine.ingest(e) {
                Ok(_)
                | Err(StreamError::DuplicateEdge { .. })
                | Err(StreamError::SelfLoop { .. }) => {}
                Err(err) => panic!("sorted dataset stream was rejected: {err}"),
            }
        }
        let epoch = engine.review();
        sweep.reviews += 1;
        sweep.events += epoch.stats.events_ingested;
        sweep.sssp_computed += epoch.stats.pipeline.sssp_computed;
        sweep.donor_rows_imported += epoch.stats.donor_rows_imported;
        sweep.donor_chain_hits += epoch.stats.donor_chain_hits;
        sweep.repaired_rows += epoch.stats.repaired_rows;
        sweep.pipeline_secs += epoch.stats.pipeline_secs;
        sweep.advance_secs += epoch.stats.advance_secs;
        for p in &epoch.result.pairs {
            checksum = checksum.wrapping_mul(31).wrapping_add(
                (u64::from(p.pair.0 .0) << 40) ^ (u64::from(p.pair.1 .0) << 8) ^ u64::from(p.delta),
            );
        }
    }
    sweep.donor_hit_rate =
        (sweep.donor_chain_hits + sweep.repaired_rows) as f64 / sweep.sssp_computed.max(1) as f64;
    (sweep, checksum)
}

/// Phase 6's reader-thread rungs.
const QUERY_READERS: [usize; 3] = [1, 2, 8];

/// One query-throughput ladder run (phase 6): `readers` concurrent
/// threads issue point queries (`distance` + `delta`) against whatever
/// epoch is currently published while the main thread replays the
/// [`STREAM_CUTS`] reviews. With `readers == 0` this is the reader-free
/// twin that pins the ledger.
fn run_query_ladder(t: &TemporalGraph, m: u64, seed: u64, readers: usize) -> QuerySweep {
    let prefix = |f: f64| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events());
    let n = t.num_nodes();
    let mut cfg = StreamConfig::new(
        m,
        SelectorKind::Mmsd { landmarks: 10 },
        TopKSpec::ThresholdFromMax { slack: 1 },
        seed,
    );
    cfg.threads = Some(1);
    cfg.kernel = Some(BfsKernel::Auto);
    cfg.row_cache = Some(RowCacheBudget::Unbounded);
    let mut engine =
        StreamEngine::from_snapshot(&t.snapshot_of_prefix(prefix(STREAM_CUTS[0])), cfg);
    let q = QueryEngine::new(engine.reader());
    let stop = AtomicBool::new(false);
    let tallies = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
    let started = Instant::now();
    // The review driver runs on the caller thread; readers run on a
    // dedicated pool (not the global one, which the reviews' oracles
    // use for their own fan-out and which runs one batch at a time).
    let drive = |engine: &mut StreamEngine| -> u64 {
        let mut ledger = 0u64;
        for w in STREAM_CUTS.windows(2) {
            for &e in &t.events()[prefix(w[0])..prefix(w[1])] {
                match engine.ingest(e) {
                    Ok(_)
                    | Err(StreamError::DuplicateEdge { .. })
                    | Err(StreamError::SelfLoop { .. }) => {}
                    Err(err) => panic!("sorted dataset stream was rejected: {err}"),
                }
            }
            ledger += engine.review().result.budget.total();
        }
        stop.store(true, Ordering::Relaxed);
        ledger
    };
    let ledger = if readers == 0 {
        drive(&mut engine)
    } else {
        let pool = cp_exec::Executor::new(readers);
        let mut slots = vec![(); readers];
        pool.run_with_driver(
            &mut slots,
            readers,
            |r, _slot, _ctx| {
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    let view = q.epoch();
                    let u = NodeId::new(i % n);
                    let v = NodeId::new((i * 31 + 7) % n);
                    for ans in [view.distance(u, v), view.delta(u, v)] {
                        let slot = match ans {
                            Answer::Exact(_) => 0,
                            Answer::Bounded { .. } => 1,
                            Answer::Unknown => 2,
                        };
                        tallies[slot].fetch_add(1, Ordering::Relaxed);
                    }
                    i = i.wrapping_add(readers);
                }
            },
            || drive(&mut engine),
        )
    };
    let secs = started.elapsed().as_secs_f64();
    let [exact, bounded, unknown] = tallies.map(AtomicU64::into_inner);
    let queries = exact + bounded + unknown;
    QuerySweep {
        dataset: String::new(),
        readers,
        queries,
        secs,
        qps: queries as f64 / secs.max(f64::MIN_POSITIVE),
        exact,
        bounded,
        unknown,
        ledger,
    }
}

fn main() {
    let opts = Options::from_env();
    let threads_multi = opts.threads.max(2);
    let m = scaled_budget(100, opts.scale);
    let spec = TopKSpec::ThresholdFromMax { slack: 1 };
    let suite = SelectorKind::table5_suite();
    let out = opts.out.as_deref().unwrap_or("BENCH_pipeline.json");

    eprintln!(
        "pipeline_baseline: scale {}, seed {}, m {m}; phase 1 (eval pair): scalar@1 vs auto@1 \
         vs auto@1+repair vs auto@{threads_multi}; phase 2 (t1 = {REPAIR_T1}): repair \
         off vs on",
        opts.scale, opts.seed
    );

    // The threaded rung rides the best single-thread config (auto
    // kernel, cache off at the eval pair's 20 % delta) rather than the
    // cache-on rung the seed used: threading a config that was never
    // the best config is exactly the misleading comparison the summary
    // used to make. `multi_thread_secs` vs `optimized_single_secs` is
    // now a pure threads-on/threads-off A/B over the same pipeline.
    let configs = [
        (BfsKernel::Scalar, 1usize, RowCacheBudget::Bytes(0)),
        (BfsKernel::Auto, 1, RowCacheBudget::Bytes(0)),
        (BfsKernel::Auto, 1, RowCacheBudget::Unbounded),
        (BfsKernel::Auto, threads_multi, RowCacheBudget::Bytes(0)),
    ];
    let mut sweeps: Vec<SweepTiming> = Vec::new();
    let mut datasets: Vec<DatasetSummary> = Vec::new();
    let mut repair: Vec<RepairSummary> = Vec::new();
    let mut scan_ladder: Vec<ScanSweep> = Vec::new();
    let mut scan: Vec<ScanSummary> = Vec::new();
    let mut stream_ladder: Vec<StreamSweep> = Vec::new();
    let mut stream: Vec<StreamSummary> = Vec::new();
    let mut store_ladder: Vec<StoreSweep> = Vec::new();
    let mut store: Vec<StoreSummary> = Vec::new();
    let mut query_ladder: Vec<QuerySweep> = Vec::new();
    let mut query_answer_totals = [0u64; 3]; // phase 6: [exact, bounded, unknown]
    let mut query_budget_charged = 0u64;
    let mut query_qps_peak = 0.0f64;
    let mut store_bytes_totals = [0u64; 3]; // phase 5: [full, compressed, overlay] bytes
    let mut store_arcs_total = 0u64;
    let mut totals = [0.0f64; 4];
    let mut sssp_totals = [0.0f64; 2]; // [scalar@1, auto@1] cache-off
    let mut t2_totals = [0.0f64; 2]; // phase 2: [cache-off, cache-on]
    let mut scan_totals = [0.0f64; 2]; // phase 3: [scalar scan, auto scan]
    let mut repair_speedup_max = 0.0f64;
    let mut scan_speedup_max = 0.0f64;
    let mut stream_hit_totals = [[0u64; 2]; 2]; // [chained, rebuilt] × [hits, charged]
    let mut stream_gain_datasets = 0usize;

    for kind in DatasetKind::ALL {
        let t = DatasetProfile::scaled(kind, opts.scale).generate(opts.seed);
        let name = kind.name();

        // ---- Phase 1: kernel ladder on the evaluation snapshots ----
        let (g1, g2) = t.snapshot_pair(EVAL_SNAPSHOTS.0, EVAL_SNAPSHOTS.1);
        let mut per_config = [0.0f64; 4];
        let mut per_config_sssp = [0.0f64; 4];
        // Interleave the repeats round-robin across the four configs
        // instead of running each config's repeats back-to-back: on a
        // shared container, ambient slowdowns last seconds and would
        // otherwise bias whole rungs. Round-robin puts every config
        // under roughly the same conditions each round, so the
        // best-of-repeats rung comparison measures the config, not the
        // weather.
        let mut bests: [Option<SuiteRun>; 4] = [const { None }; 4];
        for _ in 0..PHASE1_REPEATS {
            for (slot, &(kernel, threads, cache)) in configs.iter().enumerate() {
                let run = run_suite(
                    &g1, &g2, &suite, &spec, m, opts.seed, threads, kernel, cache,
                );
                if bests[slot].as_ref().is_none_or(|b| run.secs < b.secs) {
                    bests[slot] = Some(run);
                }
            }
        }
        for (slot, &(kernel, threads, cache)) in configs.iter().enumerate() {
            let best = bests[slot].take().expect("REPEATS >= 1");
            eprintln!(
                "  {name} [{} cache={}] @ {threads} thread(s): {:.3}s suite, {:.3}s sssp \
                 ({:.4}s t2, {} SSSPs, {} waves, {} repaired)",
                kernel.name(),
                cache.describe(),
                best.secs,
                best.sssp_secs,
                best.sssp_t2_secs,
                best.sssp_computed,
                best.msbfs_waves,
                best.repaired_rows,
            );
            totals[slot] += best.secs;
            per_config[slot] = best.secs;
            per_config_sssp[slot] = best.sssp_secs;
            sweeps.push(SweepTiming {
                dataset: name.to_string(),
                kernel: kernel.name().to_string(),
                threads,
                cache: cache.describe(),
                secs: best.secs,
                sssp_secs: best.sssp_secs,
                sssp_t2_secs: best.sssp_t2_secs,
                sssp_computed: best.sssp_computed,
                msbfs_waves: best.msbfs_waves,
                msbfs_rows: best.msbfs_rows,
                repaired_rows: best.repaired_rows,
                repair_frontier_nodes: best.repair_frontier_nodes,
                cache_bytes: best.cache_bytes,
                exec: best.exec,
            });
        }
        sssp_totals[0] += per_config_sssp[SLOT_SCALAR];
        sssp_totals[1] += per_config_sssp[SLOT_AUTO];
        // Flag only losses beyond a 15 % + 50 ms noise allowance.
        // Cross-run jitter on this shared single-core container
        // reaches ±15-30 % per rung even at best-of-5 (ambient host
        // interference, not the code under test), while the spawn-tax
        // regression this flag guards against was +64 % / +4 s on the
        // worst dataset — far outside the allowance.
        let thread_regression = per_config[SLOT_MULTI] > per_config[SLOT_AUTO] * 1.15
            && per_config[SLOT_MULTI] - per_config[SLOT_AUTO] > 0.050;
        if thread_regression {
            eprintln!(
                "  {name}: THREAD REGRESSION — {threads_multi} threads ({:.3}s) lost to 1 \
                 thread ({:.3}s)",
                per_config[SLOT_MULTI], per_config[SLOT_AUTO],
            );
        }
        datasets.push(DatasetSummary {
            dataset: name.to_string(),
            scalar_single_secs: per_config[SLOT_SCALAR],
            optimized_single_secs: per_config[SLOT_AUTO],
            scalar_sssp_secs: per_config_sssp[SLOT_SCALAR],
            optimized_sssp_secs: per_config_sssp[SLOT_AUTO],
            kernel_speedup: per_config_sssp[SLOT_SCALAR]
                / per_config_sssp[SLOT_AUTO].max(f64::MIN_POSITIVE),
            suite_speedup: per_config[SLOT_SCALAR] / per_config[SLOT_AUTO].max(f64::MIN_POSITIVE),
            multi_thread_secs: per_config[SLOT_MULTI],
            best_config_secs: per_config[SLOT_AUTO]
                .min(per_config[SLOT_REPAIR])
                .min(per_config[SLOT_MULTI]),
            thread_regression,
        });

        // ---- Phase 2: repair on the tight (incremental) pair ----
        let (r1, r2) = t.snapshot_pair(REPAIR_T1, 1.0);
        let delta_edges = snapshot_delta(&r1, &r2).inserted.len();
        let mut phase2 = [SuiteRun::default(), SuiteRun::default()];
        for (i, cache) in [RowCacheBudget::Bytes(0), RowCacheBudget::Unbounded]
            .into_iter()
            .enumerate()
        {
            let best = best_of(
                || {
                    run_suite(
                        &r1,
                        &r2,
                        &suite,
                        &spec,
                        m,
                        opts.seed,
                        1,
                        BfsKernel::Auto,
                        cache,
                    )
                },
                |r| r.sssp_t2_secs,
            );
            sweeps.push(SweepTiming {
                dataset: format!("{name} (t1={REPAIR_T1})"),
                kernel: BfsKernel::Auto.name().to_string(),
                threads: 1,
                cache: cache.describe(),
                secs: best.secs,
                sssp_secs: best.sssp_secs,
                sssp_t2_secs: best.sssp_t2_secs,
                sssp_computed: best.sssp_computed,
                msbfs_waves: best.msbfs_waves,
                msbfs_rows: best.msbfs_rows,
                repaired_rows: best.repaired_rows,
                repair_frontier_nodes: best.repair_frontier_nodes,
                cache_bytes: best.cache_bytes,
                exec: best.exec,
            });
            phase2[i] = best;
        }
        let [off, on] = phase2;
        let speedup = off.sssp_t2_secs / on.sssp_t2_secs.max(f64::MIN_POSITIVE);
        eprintln!(
            "  {name} (t1={REPAIR_T1}, delta {delta_edges} edges): t2 path {:.4}s off vs \
             {:.4}s on — {speedup:.2}x repair ({} rows, avg region {:.0})",
            off.sssp_t2_secs,
            on.sssp_t2_secs,
            on.repaired_rows,
            on.repair_frontier_nodes as f64 / on.repaired_rows.max(1) as f64,
        );
        t2_totals[0] += off.sssp_t2_secs;
        t2_totals[1] += on.sssp_t2_secs;
        repair_speedup_max = repair_speedup_max.max(speedup);
        repair.push(RepairSummary {
            dataset: name.to_string(),
            t1_fraction: REPAIR_T1,
            delta_edges,
            repair_off_t2_secs: off.sssp_t2_secs,
            repair_on_t2_secs: on.sssp_t2_secs,
            repair_speedup: speedup,
            repaired_rows: on.repaired_rows,
            avg_frontier: on.repair_frontier_nodes as f64 / on.repaired_rows.max(1) as f64,
        });

        // ---- Phase 3: Δ-scan ladder on the evaluation snapshots ----
        let m_scan = (g1.num_nodes() as u64 / 4).max(m);
        let mut per_kernel_scan = [0.0f64; 2];
        let mut skipped_frac = 0.0f64;
        for (i, sk) in [ScanKernel::Scalar, ScanKernel::Auto]
            .into_iter()
            .enumerate()
        {
            let mut best: Option<(PipelineStats, usize, usize)> = None;
            for _ in 0..REPEATS {
                let r = run_scan_heavy(&g1, &g2, m_scan, &spec, opts.seed, sk);
                if best.as_ref().is_none_or(|b| r.0.scan_secs < b.0.scan_secs) {
                    best = Some(r);
                }
            }
            let (stats, candidates, pairs) = best.expect("REPEATS >= 1");
            eprintln!(
                "  {name} scan [{}] |M|={candidates}: {:.4}s scan ({} pairs, chunks \
                 {}/{} scanned/skipped, {} pruned; arena {}x u16 + {}x u32 rows)",
                sk.name(),
                stats.scan_secs,
                pairs,
                stats.scan_chunks_scanned,
                stats.scan_chunks_skipped,
                stats.scan_pairs_pruned,
                stats.arena.u16_rows,
                stats.arena.u32_rows,
            );
            per_kernel_scan[i] = stats.scan_secs;
            let total_chunks = stats.scan_chunks_scanned + stats.scan_chunks_skipped;
            if sk == ScanKernel::Auto {
                skipped_frac = stats.scan_chunks_skipped as f64 / (total_chunks.max(1)) as f64;
            }
            scan_ladder.push(ScanSweep {
                dataset: name.to_string(),
                scan_kernel: sk.name().to_string(),
                candidates,
                pairs,
                scan_secs: stats.scan_secs,
                scan_chunks_scanned: stats.scan_chunks_scanned,
                scan_chunks_skipped: stats.scan_chunks_skipped,
                scan_pairs_pruned: stats.scan_pairs_pruned,
                arena_u16_rows: stats.arena.u16_rows,
                arena_u32_rows: stats.arena.u32_rows,
                arena_reused_rows: stats.arena.reused_rows,
                arena_slab_bytes: stats.arena.slab_bytes,
            });
        }
        let scan_speedup = per_kernel_scan[0] / per_kernel_scan[1].max(f64::MIN_POSITIVE);
        eprintln!(
            "  {name} scan ladder: {:.4}s scalar vs {:.4}s auto — {scan_speedup:.2}x scan \
             ({:.0}% chunks skipped)",
            per_kernel_scan[0],
            per_kernel_scan[1],
            skipped_frac * 100.0,
        );
        scan_totals[0] += per_kernel_scan[0];
        scan_totals[1] += per_kernel_scan[1];
        scan_speedup_max = scan_speedup_max.max(scan_speedup);
        scan.push(ScanSummary {
            dataset: name.to_string(),
            m_scan,
            scalar_scan_secs: per_kernel_scan[0],
            auto_scan_secs: per_kernel_scan[1],
            scan_speedup,
            chunks_skipped_frac: skipped_frac,
        });

        // ---- Phase 4: streaming ladder, chained vs per-step rebuild ----
        let mut per_mode_stream = [StreamSweep::default(), StreamSweep::default()];
        let mut checksums = [0u64; 2];
        for (i, chain) in [true, false].into_iter().enumerate() {
            let mut best: Option<(StreamSweep, u64)> = None;
            for _ in 0..REPEATS {
                let r = run_stream_ladder(&t, m, opts.seed, chain);
                if best
                    .as_ref()
                    .is_none_or(|b| r.0.pipeline_secs < b.0.pipeline_secs)
                {
                    best = Some(r);
                }
            }
            let (mut sweep, checksum) = best.expect("REPEATS >= 1");
            sweep.dataset = name.to_string();
            eprintln!(
                "  {name} stream [{}] {} reviews, {} events: {:.4}s pipeline, {} SSSPs, \
                 {} donors imported, {} chain hits + {} repairs ({:.0}% hit rate)",
                sweep.mode,
                sweep.reviews,
                sweep.events,
                sweep.pipeline_secs,
                sweep.sssp_computed,
                sweep.donor_rows_imported,
                sweep.donor_chain_hits,
                sweep.repaired_rows,
                100.0 * sweep.donor_hit_rate,
            );
            checksums[i] = checksum;
            per_mode_stream[i] = sweep.clone();
            stream_ladder.push(sweep);
        }
        let [chained_run, rebuilt_run] = per_mode_stream;
        assert_eq!(
            checksums[0], checksums[1],
            "{name}: chaining changed the reported pairs"
        );
        assert_eq!(
            chained_run.sssp_computed, rebuilt_run.sssp_computed,
            "{name}: chaining changed the ledger"
        );
        let stream_speedup =
            rebuilt_run.pipeline_secs / chained_run.pipeline_secs.max(f64::MIN_POSITIVE);
        eprintln!(
            "  {name} stream ladder: hit rate {:.0}% chained vs {:.0}% rebuilt, \
             {stream_speedup:.2}x pipeline wall clock",
            100.0 * chained_run.donor_hit_rate,
            100.0 * rebuilt_run.donor_hit_rate,
        );
        stream_hit_totals[0][0] += chained_run.donor_chain_hits + chained_run.repaired_rows;
        stream_hit_totals[0][1] += chained_run.sssp_computed;
        stream_hit_totals[1][0] += rebuilt_run.donor_chain_hits + rebuilt_run.repaired_rows;
        stream_hit_totals[1][1] += rebuilt_run.sssp_computed;
        if chained_run.donor_hit_rate > rebuilt_run.donor_hit_rate {
            stream_gain_datasets += 1;
        }
        stream.push(StreamSummary {
            dataset: name.to_string(),
            reviews: chained_run.reviews,
            chained_hit_rate: chained_run.donor_hit_rate,
            rebuilt_hit_rate: rebuilt_run.donor_hit_rate,
            hit_rate_gain: chained_run.donor_hit_rate - rebuilt_run.donor_hit_rate,
            chained_pipeline_secs: chained_run.pipeline_secs,
            rebuilt_pipeline_secs: rebuilt_run.pipeline_secs,
            stream_speedup,
        });

        // ---- Phase 5: snapshot-store ladder on the tight pair ----
        let total_arcs = 2 * (r1.num_edges() + r2.num_edges()) as u64;
        let full_bytes = (r1.heap_bytes() + r2.heap_bytes()) as u64;
        let full_bpa = full_bytes as f64 / total_arcs.max(1) as f64;
        let mut per_store: Vec<StoreSweep> = Vec::new();
        for st in [
            GraphStore::Full,
            GraphStore::Overlay,
            GraphStore::Compressed,
        ] {
            let mut best: Option<(PipelineStats, usize, f64)> = None;
            for _ in 0..REPEATS {
                let r = run_store_probe(&r1, &r2, m, opts.seed, st);
                if best.as_ref().is_none_or(|b| r.2 < b.2) {
                    best = Some(r);
                }
            }
            let (stats, pairs, secs) = best.expect("REPEATS >= 1");
            let mem = stats.graph_mem;
            eprintln!(
                "  {name} store [{}]: {:.4}s pipeline, {} pairs; graph {} KiB full, \
                 {} KiB overlay sharing {} arcs, {} KiB compressed at {:.2} B/arc \
                 (full {full_bpa:.2})",
                st.name(),
                secs,
                pairs,
                mem.base_bytes / 1024,
                mem.overlay_bytes / 1024,
                mem.overlay_shared_arcs,
                mem.compressed_bytes / 1024,
                mem.compressed_bytes_per_arc,
            );
            per_store.push(StoreSweep {
                dataset: name.to_string(),
                store: st.name().to_string(),
                pairs,
                secs,
                sssp_secs: stats.sssp_secs,
                base_bytes: mem.base_bytes,
                overlay_bytes: mem.overlay_bytes,
                overlay_shared_arcs: mem.overlay_shared_arcs,
                compressed_bytes: mem.compressed_bytes,
                compressed_bytes_per_arc: mem.compressed_bytes_per_arc,
                full_bytes_per_arc: full_bpa,
            });
        }
        assert!(
            per_store.windows(2).all(|w| w[0].pairs == w[1].pairs),
            "{name}: snapshot store changed the answer"
        );
        let [_, overlay_row, comp_row]: &[StoreSweep; 3] =
            per_store.as_slice().try_into().expect("three stores ran");
        assert!(
            overlay_row.overlay_shared_arcs > 0,
            "{name}: overlay run never shared a base arc"
        );
        eprintln!(
            "  {name} store ladder: compressed {:.2} B/arc vs full {full_bpa:.2} \
             ({:.2}x shrink); overlay {} KiB on a {} KiB pair ({:.1}% marginal)",
            comp_row.compressed_bytes_per_arc,
            full_bpa / comp_row.compressed_bytes_per_arc.max(f64::MIN_POSITIVE),
            overlay_row.overlay_bytes / 1024,
            full_bytes / 1024,
            100.0 * overlay_row.overlay_bytes as f64 / full_bytes.max(1) as f64,
        );
        store_bytes_totals[0] += full_bytes;
        store_bytes_totals[1] += comp_row.compressed_bytes;
        store_bytes_totals[2] += overlay_row.overlay_bytes;
        store_arcs_total += total_arcs;
        store.push(StoreSummary {
            dataset: name.to_string(),
            delta_edges,
            full_bytes_per_arc: full_bpa,
            compressed_bytes_per_arc: comp_row.compressed_bytes_per_arc,
            compressed_ratio: comp_row.compressed_bytes_per_arc / full_bpa.max(f64::MIN_POSITIVE),
            overlay_bytes: overlay_row.overlay_bytes,
            overlay_frac: overlay_row.overlay_bytes as f64 / overlay_row.base_bytes.max(1) as f64,
            overlay_shared_arcs: overlay_row.overlay_shared_arcs,
        });
        store_ladder.append(&mut per_store);

        // ---- Phase 6: query-throughput ladder over published epochs ----
        let twin = run_query_ladder(&t, m, opts.seed, 0);
        for readers in QUERY_READERS {
            let mut sweep = run_query_ladder(&t, m, opts.seed, readers);
            sweep.dataset = name.to_string();
            assert_eq!(
                sweep.ledger, twin.ledger,
                "{name}: concurrent queries changed the review ledger"
            );
            query_budget_charged += sweep.ledger.abs_diff(twin.ledger);
            query_answer_totals[0] += sweep.exact;
            query_answer_totals[1] += sweep.bounded;
            query_answer_totals[2] += sweep.unknown;
            query_qps_peak = query_qps_peak.max(sweep.qps);
            eprintln!(
                "  {name} query [{readers} readers] {} queries in {:.4}s ({:.0} q/s): \
                 {} exact, {} bounded, {} unknown; ledger {} (= twin, 0 charged)",
                sweep.queries,
                sweep.secs,
                sweep.qps,
                sweep.exact,
                sweep.bounded,
                sweep.unknown,
                sweep.ledger,
            );
            query_ladder.push(sweep);
        }
    }

    let thread_regression = datasets.iter().any(|d| d.thread_regression);
    let exec_steals: u64 = sweeps.iter().map(|s| s.exec.exec_steals).sum();
    let baseline = Baseline {
        benchmark: "table5_pipeline".to_string(),
        scale: opts.scale,
        seed: opts.seed,
        m,
        repeats: REPEATS,
        threads_multi,
        repair_t1_fraction: REPAIR_T1,
        sweeps,
        datasets,
        repair,
        scan_ladder,
        scan,
        stream_ladder,
        stream,
        store_ladder,
        store,
        query_ladder,
        scalar_single_secs: totals[SLOT_SCALAR],
        optimized_single_secs: totals[SLOT_AUTO],
        multi_thread_secs: totals[SLOT_MULTI],
        kernel_speedup: sssp_totals[0] / sssp_totals[1].max(f64::MIN_POSITIVE),
        repair_speedup: t2_totals[0] / t2_totals[1].max(f64::MIN_POSITIVE),
        repair_speedup_max,
        scan_speedup: scan_totals[0] / scan_totals[1].max(f64::MIN_POSITIVE),
        scan_speedup_max,
        stream_chained_hit_rate: stream_hit_totals[0][0] as f64
            / stream_hit_totals[0][1].max(1) as f64,
        stream_rebuilt_hit_rate: stream_hit_totals[1][0] as f64
            / stream_hit_totals[1][1].max(1) as f64,
        stream_gain_datasets,
        full_bytes_per_arc: store_bytes_totals[0] as f64 / store_arcs_total.max(1) as f64,
        compressed_bytes_per_arc: store_bytes_totals[1] as f64 / store_arcs_total.max(1) as f64,
        compressed_ratio: store_bytes_totals[1] as f64 / store_bytes_totals[0].max(1) as f64,
        overlay_frac: store_bytes_totals[2] as f64 / store_bytes_totals[0].max(1) as f64,
        query_exact_answers: query_answer_totals[0],
        query_bounded_answers: query_answer_totals[1],
        query_unknown_answers: query_answer_totals[2],
        query_budget_charged,
        query_qps_peak,
        best_config_secs: totals[SLOT_AUTO]
            .min(totals[SLOT_REPAIR])
            .min(totals[SLOT_MULTI]),
        thread_regression,
        exec_steals,
        total_speedup: totals[SLOT_SCALAR]
            / totals[SLOT_AUTO]
                .min(totals[SLOT_REPAIR])
                .min(totals[SLOT_MULTI])
                .max(f64::MIN_POSITIVE),
    };
    let rendered = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(out, &rendered).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("{rendered}");
    eprintln!(
        "wrote {out}: sssp path {:.3}s scalar vs {:.3}s optimized single-thread ({:.2}x \
         kernel); incremental t2 path {:.4}s repair-off vs {:.4}s repair-on ({:.2}x repair, \
         best dataset {:.2}x); Δ-scan path {:.4}s scalar vs {:.4}s blocked ({:.2}x scan, \
         best dataset {:.2}x); streaming ladder hit rate {:.0}% chained vs {:.0}% rebuilt ({} datasets \
         strictly ahead); snapshot stores {:.2} B/arc compressed vs {:.2} full ({:.2}x \
         ratio), overlay at {:.1}% of the pair's bytes; query ladder peak {:.0} q/s \
         ({} exact / {} bounded / {} unknown, {} budget charged); suite {:.3}s vs {:.3}s \
         single-thread, {:.3}s at {} threads ({:.2}x total at the best config, {} steals, \
         thread regression: {})",
        sssp_totals[0],
        sssp_totals[1],
        baseline.kernel_speedup,
        t2_totals[0],
        t2_totals[1],
        baseline.repair_speedup,
        baseline.repair_speedup_max,
        scan_totals[0],
        scan_totals[1],
        baseline.scan_speedup,
        baseline.scan_speedup_max,
        100.0 * baseline.stream_chained_hit_rate,
        100.0 * baseline.stream_rebuilt_hit_rate,
        baseline.stream_gain_datasets,
        baseline.compressed_bytes_per_arc,
        baseline.full_bytes_per_arc,
        baseline.compressed_ratio,
        100.0 * baseline.overlay_frac,
        baseline.query_qps_peak,
        baseline.query_exact_answers,
        baseline.query_bounded_answers,
        baseline.query_unknown_answers,
        baseline.query_budget_charged,
        baseline.scalar_single_secs,
        baseline.optimized_single_secs,
        baseline.multi_thread_secs,
        baseline.threads_multi,
        baseline.total_speedup,
        baseline.exec_steals,
        baseline.thread_regression
    );
}
