//! Machine-readable perf baseline for the parallel pipeline, the row
//! cache, the streaming engine and the query layer.
//!
//! Three measurement phases, written together to `BENCH_pipeline.json` in
//! the current directory (`--out=PATH` overrides):
//!
//! **Phase 1 — thread and cache ladder** on the paper's evaluation
//! snapshots (80 % → 100 % of the stream). The Table 5 pipeline (every
//! selector of the suite at the paper's budget) runs three times per
//! dataset:
//!
//! 1. one thread, row cache disabled,
//! 2. one thread, unbounded row cache — the default configuration,
//! 3. the configured thread count, row cache disabled — a pure
//!    threads-on/threads-off A/B against rung 1.
//!
//! Every rung runs the one runtime path: direction-optimizing BFS plus
//! 64-wide multi-source waves, and the blocked, chunk-skipping Δ-scan,
//! whose chunk and prune counters each sweep records.
//!
//! Results are bit-identical in every configuration (see
//! `crates/core/tests/parallel_equivalence.rs` and
//! `crates/core/tests/conformance.rs`); only the timing differs, which is
//! what this baseline records.
//!
//! **Phase 2 — streaming ladder** over a whole review sequence: the
//! `cp-stream` engine replays each dataset's event stream across
//! [`STREAM_CUTS`] (≥ 5 reviews, each under its own `2m` ledger) twice —
//! with review-to-review cache chaining on (step *t*'s resident `t2` rows
//! imported as step *t+1*'s `t1` donors) and off (the per-step rebuild the
//! old monitor did). Pairs and ledgers are bit-identical by construction
//! (the streaming conformance suite holds the engine to it); what moves is
//! the donor hit rate — the fraction of charged rows served by a chained
//! donor instead of a kernel — and the pipeline wall clock, best of
//! [`REPEATS`] ladder runs.
//!
//! **Phase 3 — query-throughput ladder** over the same review sequence:
//! the `cp-query` layer answers budget-free point queries (`distance` +
//! `delta`) from published epochs while the engine advances the
//! [`STREAM_CUTS`] reviews, at 1, 2 and 8 concurrent reader threads.
//! Readers count only while reviews are in flight: a rung replays the
//! review sequence, each pass on a fresh engine, until its readers have
//! run [`QUERY_MIN_WINDOW`] in total, so no rung's rate rests on a
//! 16 ms window. Recorded per rung: queries/sec of the closed-loop
//! readers, and the Exact/Bounded/Unknown answer mix of a fixed probe list
//! ([`MIX_PROBES`] pairs) that the review driver asks once against each
//! epoch it publishes — so the mix depends on the epochs only, not on
//! how fast the readers happened to run. A reader-free twin run pins the
//! ledger: every rung's summed review budget must equal the twin's
//! exactly (`query_budget_charged` stays 0) — queries are served from
//! immutable epochs and spend nothing. `query_qps_peak` is the best rate
//! of the rungs whose readers fit the host's available parallelism: on a
//! 2-vCPU host the 8-reader rung oversubscribes the cores 4x and its rate
//! tracks host load, so it stays a stress rung — its answers and ledger
//! are still checked — but never sets the peak.
//!
//! Per sweep, three timings: `secs` (whole suite, end to end),
//! `sssp_secs` (the oracle's distance-row computation, the path the BFS
//! kernels own), and `sssp_t2_secs` (its `G_t2` share, per-item
//! summed). The suite total additionally includes
//! IncBet's exact-betweenness grant, which the paper gives that baseline
//! for free.
//!
//! ```text
//! cargo run --release -p cp-bench --bin pipeline_baseline -- --scale=0.25
//! ```

use cp_bench::{scaled_budget, Options};
use cp_core::exact::TopKSpec;
use cp_core::oracle::{RowCacheBudget, SnapshotOracle};
use cp_core::selectors::SelectorKind;
use cp_core::topk::{run_pipeline, PipelineStats};
use cp_gen::datasets::{DatasetKind, DatasetProfile, EVAL_SNAPSHOTS};
use cp_graph::{Graph, NodeId, TemporalGraph};
use cp_query::{Answer, QueryEngine};
use cp_stream::{StreamConfig, StreamEngine, StreamError};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Timing of one (dataset, threads, cache) pipeline sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SweepTiming {
    dataset: String,
    threads: usize,
    /// Row-cache budget knob value (`"0"` = nothing resident).
    cache: String,
    /// Best-of-repeats wall clock of the whole selector suite, seconds.
    secs: f64,
    /// Oracle distance-row computation seconds within the best repeat.
    sssp_secs: f64,
    /// The `G_t2` share of `sssp_secs` (per-item summed) within the best
    /// repeat.
    sssp_t2_secs: f64,
    /// SSSPs charged across the suite (identical for every configuration).
    sssp_computed: u64,
    /// Multi-source waves run.
    msbfs_waves: u64,
    /// Rows produced by multi-source waves.
    msbfs_rows: u64,
    /// Resident row-cache bytes at the end of the suite's largest run.
    cache_bytes: usize,
    /// Δ-scan chunks whose elements were walked.
    scan_chunks_scanned: u64,
    /// Δ-scan chunks skipped whole below the shared Δ floor.
    scan_chunks_skipped: u64,
    /// Individual Δ ≥ 1 values pruned below the floor inside scanned
    /// chunks.
    scan_pairs_pruned: u64,
    /// Persistent-executor activity within the best repeat (batches,
    /// tasks, steals, park/unpark events; `workers_spawned` is the
    /// pool's size — spawned once per process, not per batch).
    exec: cp_exec::ExecStats,
}

/// Per-dataset thread/cache-ladder comparison (phase 1, evaluation
/// snapshots).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct DatasetSummary {
    dataset: String,
    /// Whole suite, one thread, cache off.
    single_secs: f64,
    /// Oracle SSSP time within the single-thread cache-off run.
    single_sssp_secs: f64,
    /// Whole suite at `threads_multi` workers: the single-thread
    /// cache-off config run on the persistent pool.
    multi_thread_secs: f64,
    /// The smallest whole-suite seconds across the three rungs.
    best_config_secs: f64,
    /// `true` when the `threads_multi` rung lost to its single-thread
    /// twin (the same cache-off config at one thread) by more than a
    /// 15 % + 50 ms noise allowance — the per-batch thread-spawn
    /// regression the persistent executor exists to kill.
    thread_regression: bool,
}

/// One engine ladder run (phase 2): a full review sequence with chaining
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
    /// `donor_chain_hits / sssp_computed`.
    donor_hit_rate: f64,
    /// Best-of-repeats budgeted-pipeline seconds summed over reviews.
    pipeline_secs: f64,
    /// Snapshot materialization seconds summed over reviews (identical
    /// work in both modes; recorded for context).
    advance_secs: f64,
}

/// Per-dataset chained-vs-rebuilt comparison (phase 2).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct StreamSummary {
    dataset: String,
    /// Reviews in the ladder.
    reviews: u32,
    /// Donor hit rate with chaining on.
    chained_hit_rate: f64,
    /// Donor hit rate with per-step rebuild.
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

/// One query-throughput rung (phase 3): point queries answered from
/// published epochs at a fixed reader-thread count while the engine
/// advances reviews.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct QuerySweep {
    dataset: String,
    /// Concurrent reader threads issuing queries.
    readers: usize,
    /// Point queries answered across all readers (distance + delta).
    queries: u64,
    /// Review-sequence passes replayed to fill [`QUERY_MIN_WINDOW`].
    passes: u32,
    /// Wall clock the readers ran for, summed over the passes' review
    /// windows.
    secs: f64,
    /// Queries per second, summed over readers.
    qps: f64,
    /// `Answer::Exact` answers to the fixed probe list, asked once per
    /// published epoch.
    exact: u64,
    /// `Answer::Bounded` answers to the fixed probe list.
    bounded: u64,
    /// `Answer::Unknown` answers to the fixed probe list.
    unknown: u64,
    /// Summed review ledger of the run — must equal the reader-free
    /// twin's (queries spend nothing).
    ledger: u64,
    /// Heap bytes of the last published epoch's query index.
    index_bytes: usize,
    /// Bytes per stored distance in that index (1, 2 or 4).
    index_width: usize,
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
    sweeps: Vec<SweepTiming>,
    datasets: Vec<DatasetSummary>,
    stream_ladder: Vec<StreamSweep>,
    stream: Vec<StreamSummary>,
    query_ladder: Vec<QuerySweep>,
    /// Suite totals: one thread, cache off (eval pair).
    single_thread_secs: f64,
    /// Suite totals: cache off, `threads_multi` threads —
    /// `single_thread_secs` with the pool turned on.
    multi_thread_secs: f64,
    /// Donor hit rate of the chained streaming ladder, summed over
    /// datasets (phase 2).
    stream_chained_hit_rate: f64,
    /// Donor hit rate of the per-step-rebuild ladder.
    stream_rebuilt_hit_rate: f64,
    /// Datasets where chaining reached a strictly higher hit rate than
    /// the rebuild — the chain's reach across the review boundary.
    stream_gain_datasets: usize,
    /// `Answer::Exact` probe-list answers across the whole query ladder
    /// (phase 3).
    query_exact_answers: u64,
    /// `Answer::Bounded` probe-list answers across the whole query
    /// ladder — nonzero proves the answer lattice's middle rung is live.
    query_bounded_answers: u64,
    /// `Answer::Unknown` probe-list answers across the whole query
    /// ladder.
    query_unknown_answers: u64,
    /// Summed ledger difference between every query-ladder rung and its
    /// reader-free twin. Structurally zero: queries are answered from
    /// published epochs and never touch a budget.
    query_budget_charged: u64,
    /// The best queries/sec of the query-ladder rungs with no more
    /// readers than `std::thread::available_parallelism()`; rungs with
    /// more are stress rungs, checked but not counted here.
    query_qps_peak: f64,
    /// Suite totals of the fastest rung per dataset (one thread
    /// cache-off, one thread cache-on, or `threads_multi` cache-off).
    best_config_secs: f64,
    /// `true` when any dataset's `threads_multi` rung lost to its
    /// single-thread twin — see [`DatasetSummary::thread_regression`].
    thread_regression: bool,
    /// Work-stealing events across every phase-1 sweep's best
    /// repeat — nonzero proves chunks actually migrate between the
    /// persistent pool's workers.
    exec_steals: u64,
}

const REPEATS: u32 = 3;
/// The phase-1 rung ladder feeds the headline threads-on/threads-off
/// comparison, so it gets more repeats than the section ladders: on a
/// shared single-core container individual suite runs jitter by
/// ±15-30 %, and a best-of-5 interleaved floor is what makes the rung
/// deltas reproducible.
const PHASE1_REPEATS: u32 = 5;

/// Phases 2 and 3's review schedule: the engine starts at the first cut and
/// reviews at each subsequent one — five reviews over the stream's second
/// half, tight enough (10 % deltas) that chained donors stay relevant.
const STREAM_CUTS: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Phase 1 config slots (threads, cache): one thread, one thread with
/// the row cache on, full threads.
const SLOT_SINGLE: usize = 0;
const SLOT_CACHE: usize = 1;
const SLOT_MULTI: usize = 2;

/// Accumulated pipeline counters of one suite run.
#[derive(Default)]
struct SuiteRun {
    secs: f64,
    sssp_secs: f64,
    sssp_t2_secs: f64,
    sssp_computed: u64,
    msbfs_waves: u64,
    msbfs_rows: u64,
    cache_bytes: usize,
    scan_chunks_scanned: u64,
    scan_chunks_skipped: u64,
    scan_pairs_pruned: u64,
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
        self.cache_bytes = self.cache_bytes.max(stats.cache_bytes);
        self.scan_chunks_scanned += stats.scan_chunks_scanned;
        self.scan_chunks_skipped += stats.scan_chunks_skipped;
        self.scan_pairs_pruned += stats.scan_pairs_pruned;
    }

    /// The sweep record of this run.
    fn timing(&self, dataset: String, threads: usize, cache: RowCacheBudget) -> SweepTiming {
        SweepTiming {
            dataset,
            threads,
            cache: cache.describe(),
            secs: self.secs,
            sssp_secs: self.sssp_secs,
            sssp_t2_secs: self.sssp_t2_secs,
            sssp_computed: self.sssp_computed,
            msbfs_waves: self.msbfs_waves,
            msbfs_rows: self.msbfs_rows,
            cache_bytes: self.cache_bytes,
            scan_chunks_scanned: self.scan_chunks_scanned,
            scan_chunks_skipped: self.scan_chunks_skipped,
            scan_pairs_pruned: self.scan_pairs_pruned,
            exec: self.exec,
        }
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
    cache: RowCacheBudget,
) -> SuiteRun {
    let started = Instant::now();
    let mut run = SuiteRun::default();
    for &kind in suite {
        let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * m)
            .with_threads(threads)
            .with_row_cache(cache);
        let mut sel = kind.build(seed);
        let res = run_pipeline(&mut oracle, sel.as_mut(), spec);
        run.absorb(&res.stats);
    }
    run.secs = started.elapsed().as_secs_f64();
    run
}

/// One full streaming ladder (phase 2): replays the dataset's events
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
        sweep.pipeline_secs += epoch.stats.pipeline_secs;
        sweep.advance_secs += epoch.stats.advance_secs;
        for p in &epoch.result.pairs {
            checksum = checksum.wrapping_mul(31).wrapping_add(
                (u64::from(p.pair.0 .0) << 40) ^ (u64::from(p.pair.1 .0) << 8) ^ u64::from(p.delta),
            );
        }
    }
    sweep.donor_hit_rate = sweep.donor_chain_hits as f64 / sweep.sssp_computed.max(1) as f64;
    (sweep, checksum)
}

/// Phase 3's reader-thread rungs.
const QUERY_READERS: [usize; 3] = [1, 2, 8];

/// The shortest summed review window phase 3's readers run for: at scale
/// 0.25 one pass of the review sequence lasts 16–440 ms, and a window
/// that short makes the rate swing from run to run.
const QUERY_MIN_WINDOW: std::time::Duration = std::time::Duration::from_millis(500);

/// Pairs in phase 3's fixed probe list: the review driver asks
/// `distance` and `delta` of each against every epoch it publishes.
const MIX_PROBES: usize = 1024;

/// The `i`-th query pair over an `n`-node universe (readers and the probe
/// list share this spread).
fn query_pair(i: usize, n: usize) -> (NodeId, NodeId) {
    (NodeId::new(i % n), NodeId::new((i * 31 + 7) % n))
}

/// One query-throughput rung (phase 3): [`run_query_pass`] repeated
/// until the readers' summed window reaches [`QUERY_MIN_WINDOW`]. Every
/// pass replays the same reviews, so its ledger and probe mix are the
/// first pass's; only the query count and the window accumulate. With
/// `readers == 0` this is one pass, the reader-free twin that pins the
/// ledger.
fn run_query_ladder(t: &TemporalGraph, m: u64, seed: u64, readers: usize) -> QuerySweep {
    let mut sweep = run_query_pass(t, m, seed, readers);
    while readers > 0 && sweep.secs < QUERY_MIN_WINDOW.as_secs_f64() {
        let pass = run_query_pass(t, m, seed, readers);
        assert_eq!(
            (pass.ledger, pass.exact, pass.bounded, pass.unknown),
            (sweep.ledger, sweep.exact, sweep.bounded, sweep.unknown),
            "a replayed review pass diverged"
        );
        assert_eq!(
            (pass.index_bytes, pass.index_width),
            (sweep.index_bytes, sweep.index_width),
            "a replayed review pass published a different index"
        );
        sweep.queries += pass.queries;
        sweep.secs += pass.secs;
        sweep.passes += 1;
    }
    sweep.qps = sweep.queries as f64 / sweep.secs.max(f64::MIN_POSITIVE);
    sweep
}

/// One pass of the review sequence: `readers` concurrent threads issue
/// point queries (`distance` + `delta`) against whatever epoch is
/// currently published while the main thread replays the
/// [`STREAM_CUTS`] reviews on a fresh engine, asking the [`MIX_PROBES`]
/// probe list of each epoch right after publishing it; the readers stop
/// when the last review is done.
fn run_query_pass(t: &TemporalGraph, m: u64, seed: u64, readers: usize) -> QuerySweep {
    let prefix = |f: f64| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events());
    let n = t.num_nodes();
    let mut cfg = StreamConfig::new(
        m,
        SelectorKind::Mmsd { landmarks: 10 },
        TopKSpec::ThresholdFromMax { slack: 1 },
        seed,
    );
    cfg.threads = Some(1);
    cfg.row_cache = Some(RowCacheBudget::Unbounded);
    let mut engine =
        StreamEngine::from_snapshot(&t.snapshot_of_prefix(prefix(STREAM_CUTS[0])), cfg);
    let q = QueryEngine::new(engine.reader());
    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let started = Instant::now();
    // The review driver runs on the caller thread; readers run on a
    // dedicated pool (not the global one, which the reviews' oracles
    // use for their own fan-out and which runs one batch at a time).
    // Returns the summed ledger and the probe list's answer mix.
    let drive = |engine: &mut StreamEngine| -> (u64, [u64; 3]) {
        let mut ledger = 0u64;
        let mut mix = [0u64; 3];
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
            let view = q.epoch();
            for i in 0..MIX_PROBES {
                let (u, v) = query_pair(i, n);
                for ans in [view.distance(u, v), view.delta(u, v)] {
                    mix[match ans {
                        Answer::Exact(_) => 0,
                        Answer::Bounded { .. } => 1,
                        Answer::Unknown => 2,
                    }] += 1;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        (ledger, mix)
    };
    let (ledger, [exact, bounded, unknown]) = if readers == 0 {
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
                    let (u, v) = query_pair(i, n);
                    std::hint::black_box((view.distance(u, v), view.delta(u, v)));
                    queries.fetch_add(2, Ordering::Relaxed);
                    i = i.wrapping_add(readers);
                }
            },
            || drive(&mut engine),
        )
    };
    let secs = started.elapsed().as_secs_f64();
    let queries = queries.into_inner();
    let index = &engine.latest().query;
    QuerySweep {
        dataset: String::new(),
        readers,
        queries,
        passes: 1,
        secs,
        qps: queries as f64 / secs.max(f64::MIN_POSITIVE),
        exact,
        bounded,
        unknown,
        ledger,
        index_bytes: index.heap_bytes(),
        index_width: index.width_bytes(),
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
        "pipeline_baseline: scale {}, seed {}, m {m}; phase 1 (eval pair): 1 thread vs \
         1 thread + row cache vs {threads_multi} threads",
        opts.scale, opts.seed
    );

    // The threaded rung rides the best single-thread config (cache off
    // at the eval pair's 20 % delta): `multi_thread_secs` vs
    // `single_thread_secs` is a pure threads-on/threads-off A/B over the
    // same pipeline.
    let configs = [
        (1usize, RowCacheBudget::Bytes(0)),
        (1, RowCacheBudget::Unbounded),
        (threads_multi, RowCacheBudget::Bytes(0)),
    ];
    let mut sweeps: Vec<SweepTiming> = Vec::new();
    let mut datasets: Vec<DatasetSummary> = Vec::new();
    let mut stream_ladder: Vec<StreamSweep> = Vec::new();
    let mut stream: Vec<StreamSummary> = Vec::new();
    let mut query_ladder: Vec<QuerySweep> = Vec::new();
    let mut query_answer_totals = [0u64; 3]; // phase 3: [exact, bounded, unknown]
    let mut query_budget_charged = 0u64;
    let mut query_qps_peak = 0.0f64;
    // Rungs with more readers than this are stress rungs: checked, never
    // the peak.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut totals = [0.0f64; 3];
    let mut stream_hit_totals = [[0u64; 2]; 2]; // [chained, rebuilt] × [hits, charged]
    let mut stream_gain_datasets = 0usize;

    for kind in DatasetKind::ALL {
        let t = DatasetProfile::scaled(kind, opts.scale).generate(opts.seed);
        let name = kind.name();

        // ---- Phase 1: thread/cache ladder on the evaluation snapshots ----
        let (g1, g2) = t.snapshot_pair(EVAL_SNAPSHOTS.0, EVAL_SNAPSHOTS.1);
        let mut per_config = [0.0f64; 3];
        let mut single_sssp_secs = 0.0f64;
        // Interleave the repeats round-robin across the three configs
        // instead of running each config's repeats back-to-back: on a
        // shared container, ambient slowdowns last seconds and would
        // otherwise bias whole rungs. Round-robin puts every config
        // under roughly the same conditions each round, so the
        // best-of-repeats rung comparison measures the config, not the
        // weather.
        let mut bests: [Option<SuiteRun>; 3] = [const { None }; 3];
        for _ in 0..PHASE1_REPEATS {
            for (slot, &(threads, cache)) in configs.iter().enumerate() {
                let run = run_suite(&g1, &g2, &suite, &spec, m, opts.seed, threads, cache);
                if bests[slot].as_ref().is_none_or(|b| run.secs < b.secs) {
                    bests[slot] = Some(run);
                }
            }
        }
        for (slot, &(threads, cache)) in configs.iter().enumerate() {
            let best = bests[slot].take().expect("REPEATS >= 1");
            eprintln!(
                "  {name} [cache={}] @ {threads} thread(s): {:.3}s suite, {:.3}s sssp \
                 ({:.4}s t2, {} SSSPs, {} waves, {} scan chunks skipped)",
                cache.describe(),
                best.secs,
                best.sssp_secs,
                best.sssp_t2_secs,
                best.sssp_computed,
                best.msbfs_waves,
                best.scan_chunks_skipped,
            );
            totals[slot] += best.secs;
            per_config[slot] = best.secs;
            if slot == SLOT_SINGLE {
                single_sssp_secs = best.sssp_secs;
            }
            sweeps.push(best.timing(name.to_string(), threads, cache));
        }
        // Flag only losses beyond a 15 % + 50 ms noise allowance.
        // Cross-run jitter on this shared single-core container
        // reaches ±15-30 % per rung even at best-of-5 (ambient host
        // interference, not the code under test), while the spawn-tax
        // regression this flag guards against was +64 % / +4 s on the
        // worst dataset — far outside the allowance.
        let thread_regression = per_config[SLOT_MULTI] > per_config[SLOT_SINGLE] * 1.15
            && per_config[SLOT_MULTI] - per_config[SLOT_SINGLE] > 0.050;
        if thread_regression {
            eprintln!(
                "  {name}: THREAD REGRESSION — {threads_multi} threads ({:.3}s) lost to 1 \
                 thread ({:.3}s)",
                per_config[SLOT_MULTI], per_config[SLOT_SINGLE],
            );
        }
        datasets.push(DatasetSummary {
            dataset: name.to_string(),
            single_secs: per_config[SLOT_SINGLE],
            single_sssp_secs,
            multi_thread_secs: per_config[SLOT_MULTI],
            best_config_secs: per_config[SLOT_SINGLE]
                .min(per_config[SLOT_CACHE])
                .min(per_config[SLOT_MULTI]),
            thread_regression,
        });

        // ---- Phase 2: streaming ladder, chained vs per-step rebuild ----
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
                 {} donors imported, {} chain hits ({:.0}% hit rate)",
                sweep.mode,
                sweep.reviews,
                sweep.events,
                sweep.pipeline_secs,
                sweep.sssp_computed,
                sweep.donor_rows_imported,
                sweep.donor_chain_hits,
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
        stream_hit_totals[0][0] += chained_run.donor_chain_hits;
        stream_hit_totals[0][1] += chained_run.sssp_computed;
        stream_hit_totals[1][0] += rebuilt_run.donor_chain_hits;
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

        // ---- Phase 3: query-throughput ladder over published epochs ----
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
            if readers <= cores {
                query_qps_peak = query_qps_peak.max(sweep.qps);
            }
            eprintln!(
                "  {name} query [{readers} readers] {} queries in {:.4}s over {} passes ({:.0} q/s): \
                 probe mix {} exact, {} bounded, {} unknown; ledger {} (= twin, 0 charged); \
                 last index {} B at {} B/distance",
                sweep.queries,
                sweep.secs,
                sweep.passes,
                sweep.qps,
                sweep.exact,
                sweep.bounded,
                sweep.unknown,
                sweep.ledger,
                sweep.index_bytes,
                sweep.index_width,
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
        sweeps,
        datasets,
        stream_ladder,
        stream,
        query_ladder,
        single_thread_secs: totals[SLOT_SINGLE],
        multi_thread_secs: totals[SLOT_MULTI],
        stream_chained_hit_rate: stream_hit_totals[0][0] as f64
            / stream_hit_totals[0][1].max(1) as f64,
        stream_rebuilt_hit_rate: stream_hit_totals[1][0] as f64
            / stream_hit_totals[1][1].max(1) as f64,
        stream_gain_datasets,
        query_exact_answers: query_answer_totals[0],
        query_bounded_answers: query_answer_totals[1],
        query_unknown_answers: query_answer_totals[2],
        query_budget_charged,
        query_qps_peak,
        best_config_secs: totals[SLOT_SINGLE]
            .min(totals[SLOT_CACHE])
            .min(totals[SLOT_MULTI]),
        thread_regression,
        exec_steals,
    };
    let rendered = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(out, &rendered).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("{rendered}");
    eprintln!(
        "wrote {out}: streaming ladder hit rate {:.0}% chained vs {:.0}% \
         rebuilt ({} datasets strictly ahead); query ladder peak {:.0} q/s ({} exact / {} \
         bounded / {} unknown, {} budget charged); suite {:.3}s single-thread, {:.3}s at {} \
         threads, {:.3}s at the best config ({} steals, thread regression: {})",
        100.0 * baseline.stream_chained_hit_rate,
        100.0 * baseline.stream_rebuilt_hit_rate,
        baseline.stream_gain_datasets,
        baseline.query_qps_peak,
        baseline.query_exact_answers,
        baseline.query_bounded_answers,
        baseline.query_unknown_answers,
        baseline.query_budget_charged,
        baseline.single_thread_secs,
        baseline.multi_thread_secs,
        baseline.threads_multi,
        baseline.best_config_secs,
        baseline.exec_steals,
        baseline.thread_regression
    );
}
