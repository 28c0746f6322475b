//! The generic budgeted top-k pipeline (Algorithm 1 of the paper).
//!
//! 1. A [`CandidateSelector`] ranks candidate endpoints, spending part of
//!    the SSSP budget on whatever structural probes it needs (landmark
//!    rows, dispersion picks, classifier features).
//! 2. The pipeline pays for the distance rows of candidates, in rank
//!    order, in both snapshots, until the `2m` budget is exhausted. Rows
//!    the selector already computed are free — this is how dispersion
//!    reuses its `G_t1` rows and why hybrid landmarks "come for free" as
//!    candidates.
//! 3. Every pair in `M × V` gets its Δ computed from the candidate rows;
//!    the pairs matching the [`TopKSpec`] are returned.

use crate::exact::{sort_pairs, ConvergingPair, TopKSpec};
use crate::oracle::{
    ArenaStats, BfsKernel, BudgetLedger, GraphStore, KernelStats, Phase, SnapshotOracle, SsspPrune,
};
use crate::scan::{scan_delta_row, ScanCounters, ScanKernel};
use crate::selectors::CandidateSelector;
use cp_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Candidate count below which the Δ scan runs inline instead of spawning
/// workers.
const PARALLEL_SCAN_CUTOFF: usize = 8;

/// Wall-clock and cache instrumentation of one pipeline run. Timings are
/// measurements, not results: everything else in [`BudgetedResult`] is
/// bit-identical at any thread count.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Seconds spent in the selector's ranking (Generation phase probes
    /// included).
    pub selector_secs: f64,
    /// Seconds spent admitting and computing candidate rows (TopK phase).
    pub prefetch_secs: f64,
    /// Seconds spent in the `M × V` Δ scan.
    pub scan_secs: f64,
    /// Seconds the oracle spent computing distance rows across *all*
    /// phases (selector probes included) — the time the BFS kernels own.
    pub sssp_secs: f64,
    /// Seconds of `sssp_secs` spent on `G_t2` rows specifically, summed
    /// per work item (comparable across thread counts).
    pub sssp_t2_secs: f64,
    /// Total SSSP computations charged (equals the ledger total).
    pub sssp_computed: u64,
    /// Row requests served from cache (free).
    pub cache_hits: u64,
    /// Row requests that required a fresh computation.
    pub cache_misses: u64,
    /// Always 0; remains only for the benchmark, which reports it.
    pub repaired_rows: u64,
    /// Bytes of row payload resident in the oracle's row store at the end
    /// of the run.
    pub cache_bytes: usize,
    /// Worker threads the oracle was configured with.
    pub threads: usize,
    /// Always `auto`; remains only for the benchmark, which prints it.
    pub kernel: BfsKernel,
    /// Per-kernel work counters: multi-source waves and how many rows each
    /// kernel produced (see [`Self::kernel_rows`]).
    pub kernel_stats: KernelStats,
    /// Always `auto`; remains only for the benchmark, which prints it.
    pub scan_kernel: ScanKernel,
    /// Δ-scan chunks whose elements were walked.
    pub scan_chunks_scanned: u64,
    /// Δ-scan chunks skipped whole because their maximum Δ was below the
    /// shared floor.
    pub scan_chunks_skipped: u64,
    /// Individual Δ ≥ 1 values pruned below the shared floor inside
    /// scanned chunks (pairs never materialized).
    pub scan_pairs_pruned: u64,
    /// Occupancy of the oracle's pooled row arenas at the end of the run.
    pub arena: ArenaStats,
    /// Always `off`; remains only for the benchmark, which prints it.
    pub sssp_prune: SsspPrune,
    /// Nodes settled across every traversal-kernel invocation, all phases.
    pub settled_nodes: u64,
    /// Adjacency entries relaxed / scanned across every traversal.
    pub relaxed_edges: u64,
    /// Always 0; remains only for the benchmark, which reports it.
    pub rows_truncated: u64,
    /// Always 0; remains only for the benchmark, which reports it.
    pub rows_prefiltered: u64,
    /// Rows charged to the ledger whose bytes were already resident from a
    /// cross-oracle donor hand-off (the streaming engine's review-to-review
    /// cache chaining; 0 on the batch path).
    pub chained_rows: u64,
    /// Always `full`; remains only for the benchmark, which prints it.
    pub graph_store: GraphStore,
    /// Persistent-executor activity attributed to this run (batches,
    /// tasks, steals, park/unpark events as deltas over the run;
    /// `workers_spawned` is the pool's absolute size). Advisory
    /// instrumentation — on the shared global pool, concurrent users
    /// bleed into the deltas, so these are excluded from the
    /// bit-identical output contract.
    pub exec: cp_exec::ExecStats,
}

impl PipelineStats {
    /// Charged rows by how they were produced: kernel rows plus rows
    /// served from chained donors. Equals `sssp_computed` (the ledger
    /// total) in every configuration; [`run_pipeline`] checks this in
    /// debug builds.
    pub fn kernel_rows(&self) -> u64 {
        self.kernel_stats.rows() + self.chained_rows
    }
}

/// Output of a budgeted run.
#[derive(Clone, Debug)]
pub struct BudgetedResult {
    /// The pairs found, canonically sorted (descending Δ, ascending ids).
    pub pairs: Vec<ConvergingPair>,
    /// The candidate endpoints `M` whose rows were fully paid for, in
    /// ascending id order.
    pub candidates: Vec<NodeId>,
    /// The SSSP spend, split by phase (compare with the paper's Table 1).
    pub budget: BudgetLedger,
    /// Instrumentation of this run (wall clock, cache traffic, threads).
    pub stats: PipelineStats,
}

impl BudgetedResult {
    /// The found pairs as a set of normalized endpoint tuples.
    pub fn pair_set(&self) -> HashSet<(NodeId, NodeId)> {
        self.pairs.iter().map(|p| p.pair).collect()
    }
}

/// Runs the budgeted pipeline with a budget of `2 * m` SSSP computations.
///
/// `m` is the paper's candidate budget: the number of nodes whose
/// single-source shortest paths can be afforded in both snapshots.
pub fn budgeted_top_k(
    g1: &Graph,
    g2: &Graph,
    selector: &mut dyn CandidateSelector,
    m: u64,
    spec: &TopKSpec,
) -> BudgetedResult {
    let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * m);
    run_pipeline(&mut oracle, selector, spec)
}

/// Runs the pipeline on a pre-built oracle (callers control the cap; the
/// unbudgeted Incidence baseline passes an unbounded oracle).
pub fn run_pipeline(
    oracle: &mut SnapshotOracle<'_>,
    selector: &mut dyn CandidateSelector,
    spec: &TopKSpec,
) -> BudgetedResult {
    let exec_before = oracle.exec_stats();
    let t_select = Instant::now();
    let ranked = selector.rank(oracle);
    let selector_secs = t_select.elapsed().as_secs_f64();
    oracle.set_phase(Phase::TopK);

    // Nodes outside V_t1 cannot be the endpoint of a pair connected in
    // G_t1, so rows from them would be pure waste. The surviving ranking
    // goes through one batched prefetch: admission stays sequential (same
    // ledger and candidate set as paying one node at a time — a later,
    // partially cached candidate can still fit after an unaffordable one
    // is skipped), only the row computation fans out.
    let t_prefetch = Instant::now();
    let wanted: Vec<NodeId> = ranked
        .into_iter()
        .filter(|&u| oracle.g1().degree(u) > 0)
        .collect();
    oracle.prefetch_node_rows(&wanted);
    let prefetch_secs = t_prefetch.elapsed().as_secs_f64();

    let candidates = oracle.fully_cached_nodes();
    let t_scan = Instant::now();
    let (pairs, scan_counters) = pairs_from_candidates(oracle, &candidates, spec);
    let scan_secs = t_scan.elapsed().as_secs_f64();

    let (cache_hits, cache_misses) = oracle.cache_stats();
    let stats = PipelineStats {
        selector_secs,
        prefetch_secs,
        scan_secs,
        sssp_secs: oracle.sssp_secs(),
        sssp_t2_secs: oracle.sssp_t2_secs(),
        sssp_computed: oracle.ledger().total(),
        cache_hits,
        cache_misses,
        repaired_rows: 0,
        cache_bytes: oracle.cache_bytes(),
        threads: oracle.threads(),
        kernel: BfsKernel::Auto,
        kernel_stats: oracle.kernel_stats(),
        scan_kernel: ScanKernel::Auto,
        scan_chunks_scanned: scan_counters.chunks_scanned,
        scan_chunks_skipped: scan_counters.chunks_skipped,
        scan_pairs_pruned: scan_counters.pairs_pruned,
        arena: oracle.arena_stats(),
        sssp_prune: SsspPrune::Off,
        settled_nodes: oracle.traversal_work().settled,
        relaxed_edges: oracle.traversal_work().relaxed,
        rows_truncated: 0,
        rows_prefiltered: 0,
        chained_rows: oracle.chained_rows(),
        graph_store: GraphStore::Full,
        exec: oracle.exec_stats().since(&exec_before),
    };
    debug_assert_eq!(
        stats.kernel_rows(),
        stats.sssp_computed,
        "kernel row counters diverge from the ledger"
    );
    BudgetedResult {
        pairs,
        candidates,
        budget: oracle.ledger(),
        stats,
    }
}

/// Computes the Δ values of all pairs `M × V` from cached candidate rows
/// and cuts them per `spec`.
///
/// Pairs with *both* endpoints in `M` would be seen twice; they are
/// emitted only by their lowest-indexed candidate endpoint (the scan skips
/// `v` when `v ∈ M` and `v < u`), so the merged output needs no global
/// dedup set — for a sorted candidate list this emits exactly the pairs
/// the old first-seen `HashSet` kept, in the same order.
///
/// The shared Δ floor starts at the spec's lower bound and only rises:
/// under `ThresholdFromMax` it follows the exact running maximum, under
/// `TopK(k)` each worker raises it to the minimum of its local top-k
/// buffer once full (k distinct pairs at Δ ≥ m prove every Δ < m pair is
/// outside the top k). Pruning is therefore conservative, and the final
/// retain/sort/truncate below cuts exactly as the unpruned scan would —
/// results are bit-identical to the per-element reference loop at any
/// thread count.
fn pairs_from_candidates(
    oracle: &SnapshotOracle<'_>,
    candidates: &[NodeId],
    spec: &TopKSpec,
) -> (Vec<ConvergingPair>, ScanCounters) {
    // For TopK(0) the floor starts at its ceiling so the blocked kernel
    // skips every chunk instead of materializing pairs the truncate below
    // would discard anyway (see `TopKSpec::initial_floor`).
    let floor = AtomicU32::new(spec.initial_floor());
    let observed_max = AtomicU32::new(0);
    let mut in_m = vec![false; oracle.g1().num_nodes()];
    for &u in candidates {
        in_m[u.index()] = true;
    }
    let (mut all, counters) =
        scan_candidate_rows(oracle, candidates, &in_m, spec, &floor, &observed_max);

    // Resolve the final Δ floor. For ThresholdFromMax the max is taken
    // over the pairs *visible to this run* (the exact Δmax is unknown
    // within the budget; evaluation harnesses pass an explicit Threshold
    // from the exact baseline instead) — and it is exact even under the
    // chunk skipping, because skipped chunks still fold their maxima into
    // `observed_max`.
    let final_floor = match spec {
        TopKSpec::Threshold { delta_min } => (*delta_min).max(1),
        TopKSpec::ThresholdFromMax { slack } => observed_max
            .load(Ordering::Relaxed)
            .saturating_sub(*slack)
            .max(1),
        TopKSpec::TopK(_) => 1,
    };
    all.retain(|p| p.delta >= final_floor);
    sort_pairs(&mut all);
    if let TopKSpec::TopK(k) = spec {
        all.truncate(*k);
    }
    (all, counters)
}

/// The Δ-emitting pairs contributed by each candidate's row pair, merged
/// in candidate order.
///
/// Rows are borrowed from the oracle's store at its width
/// ([`SnapshotOracle::cached_rows`]): candidates are paid by
/// construction, so both rows are resident — no charge, no copy, no
/// shared mutation.
///
/// No locks: the executor hands each worker contiguous candidate ranges
/// (stealing half of the largest remaining range when it runs dry); each
/// appends into a private flat buffer kept in its persistent
/// [`cp_exec::WorkerScratch`] (no allocation per candidate — and across
/// batches, none per batch either) and writes its `(worker, start, end)`
/// range into the candidate's pre-sized slot. Slots are merged in
/// candidate order after the batch, so the output is identical to a
/// sequential scan at any thread count.
fn scan_candidate_rows(
    oracle: &SnapshotOracle<'_>,
    candidates: &[NodeId],
    in_m: &[bool],
    spec: &TopKSpec,
    floor: &AtomicU32,
    observed_max: &AtomicU32,
) -> (Vec<ConvergingPair>, ScanCounters) {
    let from_max_slack = match spec {
        TopKSpec::ThresholdFromMax { slack } => Some(*slack),
        _ => None,
    };
    let topk = match spec {
        TopKSpec::TopK(k) if *k > 0 => Some(*k),
        _ => None,
    };

    // One candidate's scan, appending its pairs to the worker's flat
    // buffer. `heap` is the worker-local min-heap of its k largest
    // emitted Δs — every emitted pair is globally distinct (the `v ∈ M,
    // v < u` skip), so a full heap's minimum is a valid global floor.
    let scan_one = |i: usize, s: &mut ScanScratch| {
        let ScanScratch {
            out,
            counters,
            heap,
        } = s;
        let u = candidates[i];
        let u_idx = u.index();
        let (r1, r2) = oracle.cached_rows(u).expect("a paid candidate is resident");
        scan_delta_row(
            r1,
            r2,
            0,
            floor,
            observed_max,
            from_max_slack,
            counters,
            &mut |v_idx, delta| {
                if v_idx == u_idx || (in_m[v_idx] && v_idx < u_idx) {
                    return;
                }
                out.push(ConvergingPair::new(u, NodeId::new(v_idx), delta));
                let Some(k) = topk else { return };
                if heap.len() < k {
                    heap.push(Reverse(delta));
                } else if delta > heap.peek().expect("nonempty").0 {
                    heap.pop();
                    heap.push(Reverse(delta));
                } else {
                    return;
                }
                if heap.len() == k {
                    floor.fetch_max(heap.peek().expect("nonempty").0, Ordering::Relaxed);
                }
            },
        );
    };

    let threads = oracle.threads().min(candidates.len()).max(1);
    // `slots[i] = (worker, start, end)`: candidate `i`'s pair run within
    // worker `worker`'s flat buffer. Every task writes exactly its own
    // slot; slots are read back in candidate order.
    let mut slots: Vec<(usize, usize, usize)> = vec![(usize::MAX, 0, 0); candidates.len()];
    let mut outputs: Vec<Vec<ConvergingPair>> = Vec::new();
    let mut counters = ScanCounters::default();
    if threads == 1 || candidates.len() < PARALLEL_SCAN_CUTOFF {
        let mut s = ScanScratch::default();
        for (i, slot) in slots.iter_mut().enumerate() {
            let start = s.out.len();
            scan_one(i, &mut s);
            *slot = (0, start, s.out.len());
        }
        counters.absorb(&s.counters);
        outputs.push(s.out);
    } else {
        outputs.resize_with(threads, Vec::new);
        oracle.executor().run_collect(
            &mut slots,
            threads,
            |i, slot, ctx| {
                let w = ctx.index();
                let s = ctx.scratch.get_or(ScanScratch::default);
                let start = s.out.len();
                scan_one(i, s);
                *slot = (w, start, s.out.len());
            },
            |w, scratch| {
                // Drain each participating worker's buffers while the
                // batch still owns the pool: the pair runs move out, the
                // floor heap and counters reset so the next batch (on
                // this or any other oracle) starts clean.
                if let Some(s) = scratch.get_if::<ScanScratch>() {
                    counters.absorb(&s.counters);
                    s.counters = ScanCounters::default();
                    s.heap.clear();
                    outputs[w] = std::mem::take(&mut s.out);
                }
            },
        );
    }

    let total = slots.iter().map(|&(_, s, e)| e - s).sum();
    let mut all: Vec<ConvergingPair> = Vec::with_capacity(total);
    for &(w, start, end) in &slots {
        debug_assert_ne!(w, usize::MAX, "candidate never scanned");
        all.extend_from_slice(&outputs[w][start..end]);
    }
    (all, counters)
}

/// Per-worker persistent Δ-scan scratch, living across batches in the
/// executor's [`cp_exec::WorkerScratch`]: the flat pair output, the scan
/// counters and the top-k floor heap, all drained/reset at the end of
/// every batch.
#[derive(Default)]
struct ScanScratch {
    out: Vec<ConvergingPair>,
    counters: ScanCounters,
    heap: BinaryHeap<Reverse<u32>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_top_k;
    use crate::selectors::SelectorKind;
    use cp_graph::builder::graph_from_edges;

    /// Path 0..=7 plus a late chord (0,7) and (2,6).
    fn graphs() -> (Graph, Graph) {
        let base: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
        let g1 = graph_from_edges(8, &base);
        let mut all = base;
        all.push((0, 7));
        all.push((2, 6));
        let g2 = graph_from_edges(8, &all);
        (g1, g2)
    }

    #[test]
    fn full_budget_recovers_exact_answer() {
        let (g1, g2) = graphs();
        let exact = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 1 }, 2);
        // Budget m = n: every node can be a candidate -> full recovery,
        // regardless of selector.
        for kind in [
            SelectorKind::Degree,
            SelectorKind::MaxAvg,
            SelectorKind::Random,
        ] {
            let mut sel = kind.build(1);
            let res = budgeted_top_k(&g1, &g2, sel.as_mut(), 8, &exact.spec());
            assert_eq!(res.pair_set(), exact.pair_set(), "selector {}", sel.name());
        }
    }

    #[test]
    fn budget_is_respected() {
        let (g1, g2) = graphs();
        for m in [1u64, 2, 3, 5] {
            let mut sel = SelectorKind::Degree.build(0);
            let res = budgeted_top_k(&g1, &g2, sel.as_mut(), m, &TopKSpec::TopK(10));
            assert!(
                res.budget.total() <= 2 * m,
                "m={m}: spent {}",
                res.budget.total()
            );
            assert!(res.candidates.len() as u64 <= m);
        }
    }

    #[test]
    fn found_pairs_all_touch_candidates() {
        let (g1, g2) = graphs();
        let mut sel = SelectorKind::MaxMin.build(0);
        let res = budgeted_top_k(&g1, &g2, sel.as_mut(), 3, &TopKSpec::TopK(100));
        let cand: HashSet<NodeId> = res.candidates.iter().copied().collect();
        for p in &res.pairs {
            assert!(cand.contains(&p.pair.0) || cand.contains(&p.pair.1));
        }
    }

    #[test]
    fn deltas_are_correct() {
        let (g1, g2) = graphs();
        let exact = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: 1 }, 2);
        let truth: std::collections::HashMap<_, _> =
            exact.pairs.iter().map(|p| (p.pair, p.delta)).collect();
        let mut sel = SelectorKind::MaxAvg.build(0);
        let res = budgeted_top_k(
            &g1,
            &g2,
            sel.as_mut(),
            4,
            &TopKSpec::Threshold { delta_min: 1 },
        );
        assert!(!res.pairs.is_empty());
        for p in &res.pairs {
            assert_eq!(truth.get(&p.pair), Some(&p.delta), "pair {:?}", p.pair);
        }
    }

    #[test]
    fn zero_budget_yields_nothing() {
        let (g1, g2) = graphs();
        let mut sel = SelectorKind::Degree.build(0);
        let res = budgeted_top_k(&g1, &g2, sel.as_mut(), 0, &TopKSpec::TopK(5));
        assert!(res.pairs.is_empty());
        assert!(res.candidates.is_empty());
        assert_eq!(res.budget.total(), 0);
    }

    #[test]
    fn pairs_sorted_canonically() {
        let (g1, g2) = graphs();
        let mut sel = SelectorKind::MaxAvg.build(0);
        let res = budgeted_top_k(
            &g1,
            &g2,
            sel.as_mut(),
            8,
            &TopKSpec::Threshold { delta_min: 1 },
        );
        for w in res.pairs.windows(2) {
            assert!(w[0].delta > w[1].delta || (w[0].delta == w[1].delta && w[0].pair < w[1].pair));
        }
    }
}
