//! The workspace's benchmark: three workloads over the dataset emulators,
//! each run in its own process as a closed loop from one caller.
//!
//! * `table5_suite` — the paper's Table-5 selector suite, one
//!   `run_pipeline` call per (dataset, selector) op.
//! * `stream_reviews` — streaming reviews: one op is the `ingest` call
//!   that fires a review, timed to the published epoch.
//! * `query_reads` — point-query batches against the latest epoch, with a
//!   few reviews interleaved as writes.
//!
//! Every op's output is checked outside the timed regions. The
//! untraced run reports the end-to-end metrics; the traced run (`--trace
//! 1`) reports the per-layer metrics, built from the stats records the
//! library returns and from spans the benchmark records around its calls.
//! See `README.md` beside this crate for the metric → layer → workload map.

pub mod checks;
pub mod query;
pub mod report;
pub mod stream;
pub mod table5;
pub mod trace;

use cp_core::oracle::BudgetLedger;
use cp_core::topk::PipelineStats;
use report::{median, quantile, ratio, Metric, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// The workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// Dataset emulator scale of every workload.
pub const DEFAULT_SCALE: f64 = 0.25;
/// The paper's budget at full scale (`m = 100`), scaled like the datasets.
pub const M_FULL: u64 = 100;
/// Upper bound on measured passes, whatever `--seconds` says.
const MAX_PASSES: usize = 200;
/// Upper bound on set-ups per run.
const MAX_SETUPS: usize = 200;
/// Op id of the set-up spans.
pub const SETUP_OP: u64 = u64::MAX;

/// `m` at a dataset scale (the experiment binaries' `scaled_budget`).
pub fn scaled_budget(scale: f64) -> u64 {
    ((M_FULL as f64 * scale).round() as u64).max(10)
}

/// `want` worker threads, never more than the host has.
pub fn pinned_threads(want: usize) -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    want.min(host).max(1)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Table5Suite,
    StreamReviews,
    QueryReads,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Table5Suite,
        Workload::StreamReviews,
        Workload::QueryReads,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table5Suite => "table5_suite",
            Workload::StreamReviews => "stream_reviews",
            Workload::QueryReads => "query_reads",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured passes run (at least `min_passes` of them).
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    /// Set-ups per run, at least; more run (up to `MAX_SETUPS`) until
    /// `setup_seconds` of set-up time is spent. `setup_s` is their median.
    pub setups: usize,
    pub setup_seconds: f64,
    pub min_passes: usize,
    /// Directory the traced run writes its spans to.
    pub trace_out: Option<PathBuf>,
}

pub const USAGE: &str = "usage: cp-perfbench --workload table5_suite|stream_reviews|query_reads \
[--seed N] [--seconds S] [--trace 0|1] [--scale F] [--setups K] [--setup-seconds S] [--min-passes P] [--trace-out DIR]";

impl Args {
    pub fn new(workload: Workload) -> Args {
        Args {
            workload,
            seed: DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
            scale: DEFAULT_SCALE,
            setups: 3,
            setup_seconds: 2.0,
            min_passes: 3,
            trace_out: None,
        }
    }

    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut args = Args::new(Workload::Table5Suite);
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--scale" => args.scale = value.parse().map_err(|_| bad())?,
                "--setups" => args.setups = value.parse().map_err(|_| bad())?,
                "--setup-seconds" => args.setup_seconds = value.parse().map_err(|_| bad())?,
                "--min-passes" => args.min_passes = value.parse().map_err(|_| bad())?,
                "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        if !(args.scale > 0.0 && args.scale <= 1.0) {
            return Err(format!("--scale must be in (0, 1], got {}", args.scale));
        }
        if !(args.seconds >= 0.0 && args.setup_seconds >= 0.0)
            || args.setups == 0
            || args.min_passes == 0
        {
            return Err(
                "--seconds and --setup-seconds must be >= 0, --setups and --min-passes >= 1".into(),
            );
        }
        Ok(args)
    }
}

/// End-to-end metrics, printed by the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, printed by the traced run. A layer a workload
/// bypasses reads 0. Times are per pass unless the name says per call;
/// counts are per pass.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.generate_s", "s"),
    ("graph.snapshot_s", "s"),
    ("exact.truth_s", "s"),
    ("selectors.rank_s.degree", "s"),
    ("selectors.rank_s.dispersion", "s"),
    ("selectors.rank_s.landmark", "s"),
    ("selectors.rank_s.incbet", "s"),
    ("selectors.probe_rows", "count"),
    ("topk.prefetch_s", "s"),
    ("topk.scan_s", "s"),
    ("topk.other_s", "s"),
    ("bounds.prefilter_s", "s"),
    ("bounds.prefilter_yield", "ratio"),
    ("oracle.sssp_s", "s"),
    ("oracle.sssp_t2_s", "s"),
    ("oracle.rows_charged", "count"),
    ("oracle.rows_msbfs", "count"),
    ("oracle.rows_bfs", "count"),
    ("oracle.rows_repaired", "count"),
    ("oracle.rows_chained", "count"),
    ("oracle.rows_truncated", "count"),
    ("oracle.rows_prefiltered", "count"),
    ("oracle.settled_nodes", "count"),
    ("oracle.relaxed_edges", "count"),
    ("oracle.cache_hit_ratio", "ratio"),
    ("oracle.cache_bytes", "bytes"),
    ("oracle.arena_slab_bytes", "bytes"),
    ("scan.chunks_skipped_ratio", "ratio"),
    ("stream.ingest_us", "us"),
    ("stream.advance_s", "s"),
    ("stream.pipeline_s", "s"),
    ("stream.publish_s", "s"),
    ("stream.donor_hit_ratio", "ratio"),
    ("query.epoch_ns", "ns"),
    ("query.distance_ns", "ns"),
    ("query.delta_ns", "ns"),
    ("query.topk_seed_us", "us"),
    ("query.answer_exact_ratio", "ratio"),
    ("query.bounded_ratio", "ratio"),
    ("query.unknown_ratio", "ratio"),
    ("query.seed_complete_ratio", "ratio"),
    ("exec.batches", "count"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.parks", "count"),
    ("quality.coverage", "ratio"),
    ("check.fail_ratio", "ratio"),
    ("check.output_mismatches", "count"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.reconciled_ratio", "ratio"),
];

/// Named values of one pass (or one set-up).
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds `v` to `layers[k]`.
pub fn add(layers: &mut Layers, k: &'static str, v: f64) {
    *layers.entry(k).or_insert(0.0) += v;
}

/// Raises `layers[k]` to at least `v`.
pub fn raise(layers: &mut Layers, k: &'static str, v: f64) {
    let e = layers.entry(k).or_insert(0.0);
    *e = e.max(v);
}

/// Folds one pipeline run's stats record and ledger into a pass's
/// counters. Ratios are finished by [`finish_ratios`].
pub fn absorb_pipeline(layers: &mut Layers, s: &PipelineStats, ledger: &BudgetLedger) {
    add(layers, "selectors.probe_rows", ledger.generation as f64);
    add(layers, "topk.prefetch_s", s.prefetch_secs);
    add(layers, "topk.scan_s", s.scan_secs);
    add(layers, "oracle.sssp_s", s.sssp_secs);
    add(layers, "oracle.sssp_t2_s", s.sssp_t2_secs);
    add(layers, "oracle.rows_charged", s.sssp_computed as f64);
    add(
        layers,
        "oracle.rows_msbfs",
        s.kernel_stats.msbfs_rows as f64,
    );
    add(layers, "oracle.rows_bfs", s.kernel_stats.bfs_rows as f64);
    add(layers, "oracle.rows_repaired", s.repaired_rows as f64);
    add(layers, "oracle.rows_chained", s.chained_rows as f64);
    add(layers, "oracle.rows_truncated", s.rows_truncated as f64);
    add(layers, "oracle.rows_prefiltered", s.rows_prefiltered as f64);
    add(layers, "oracle.settled_nodes", s.settled_nodes as f64);
    add(layers, "oracle.relaxed_edges", s.relaxed_edges as f64);
    add(layers, "raw.topk_rows", ledger.topk as f64);
    add(layers, "raw.cache_hits", s.cache_hits as f64);
    add(
        layers,
        "raw.cache_requests",
        (s.cache_hits + s.cache_misses) as f64,
    );
    raise(layers, "oracle.cache_bytes", s.cache_bytes as f64);
    raise(layers, "oracle.arena_slab_bytes", s.arena.slab_bytes as f64);
    add(layers, "raw.chunks_skipped", s.scan_chunks_skipped as f64);
    add(
        layers,
        "raw.chunks_total",
        (s.scan_chunks_skipped + s.scan_chunks_scanned) as f64,
    );
    add(layers, "exec.batches", s.exec.batches_run as f64);
    add(layers, "exec.tasks", s.exec.tasks_executed as f64);
    add(layers, "exec.steals", s.exec.exec_steals as f64);
    add(layers, "exec.parks", s.exec.parks as f64);
}

/// Turns a pass's raw numerators and denominators into its ratios.
pub fn finish_ratios(layers: &mut Layers) {
    let get = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    let pairs = [
        (
            "bounds.prefilter_yield",
            "oracle.rows_prefiltered",
            "raw.topk_rows",
        ),
        (
            "oracle.cache_hit_ratio",
            "raw.cache_hits",
            "raw.cache_requests",
        ),
        (
            "scan.chunks_skipped_ratio",
            "raw.chunks_skipped",
            "raw.chunks_total",
        ),
        (
            "stream.donor_hit_ratio",
            "raw.donor_hits",
            "oracle.rows_charged",
        ),
        ("stream.ingest_us", "raw.ingest_s_x1e6", "raw.ingests"),
        ("query.epoch_ns", "raw.epoch_s_x1e9", "raw.epochs"),
        ("query.distance_ns", "raw.distance_s_x1e9", "raw.distances"),
        ("query.delta_ns", "raw.delta_s_x1e9", "raw.deltas"),
        ("query.topk_seed_us", "raw.topk_s_x1e6", "raw.topks"),
        ("query.answer_exact_ratio", "raw.exact", "raw.answers"),
        ("query.bounded_ratio", "raw.bounded", "raw.answers"),
        ("query.unknown_ratio", "raw.unknown", "raw.answers"),
        (
            "query.seed_complete_ratio",
            "raw.seed_complete",
            "raw.topks",
        ),
    ];
    for (out, num, den) in pairs {
        let v = ratio(get(layers, num), get(layers, den));
        layers.insert(out, v);
    }
}

/// One pass's output.
#[derive(Default)]
pub struct Pass {
    /// Wall clock of the pass's timed regions (checks excluded).
    pub wall: f64,
    /// Latency of each op, in ms.
    pub ops_ms: Vec<f64>,
    pub layers: Layers,
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Set-up phase times, one map per set-up.
    pub setup_layers: Vec<Layers>,
    /// Untraced measured passes.
    pub pass_s: Vec<f64>,
    /// Traced measured passes (traced run only).
    pub traced_pass_s: Vec<f64>,
    /// Op latencies in ms, one list per untraced measured pass, in op
    /// order (every pass runs the same ops in the same order).
    pub op_ms: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// One map per measured pass.
    pub layers: Vec<Layers>,
    /// Values fixed for the whole run (coverage, output mismatches).
    pub fixed: Layers,
    /// Failure messages (first few are printed).
    pub problems: Vec<String>,
}

impl Measured {
    /// Counts one attempted op and its check outcome.
    pub fn tally(&mut self, op: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.problems.push(format!("{op}: {e}"));
        }
    }
}

/// Runs `setup` at least `args.setups` times and until `args.setup_seconds`
/// are spent (at most `MAX_SETUPS`), keeping the last state; earlier ones
/// are dropped before the next starts, so peak memory is one set-up. Only
/// the first set-up is traced, so set-up spans describe one.
pub fn repeat_setup<S>(
    args: &Args,
    tracer: &mut Tracer,
    measured: &mut Measured,
    mut setup: impl FnMut(&mut Tracer) -> (S, Layers),
) -> S {
    let mut state = None;
    let mut spent = 0.0;
    while measured.setup_s.len() < MAX_SETUPS
        && (measured.setup_s.len() < args.setups || spent < args.setup_seconds)
    {
        tracer.set_enabled(args.trace && measured.setup_s.is_empty());
        drop(state.take());
        let t0 = Instant::now();
        let (s, layers) = setup(tracer);
        let secs = t0.elapsed().as_secs_f64();
        spent += secs;
        measured.setup_s.push(secs);
        measured.setup_layers.push(layers);
        state = Some(s);
    }
    tracer.set_enabled(false);
    state.expect("at least one set-up")
}

/// A warm-up pass (not recorded), then measured passes until `--seconds`
/// have passed and at least `--min-passes` ran. The traced run alternates
/// traced and untraced passes, so tracing overhead is measured in one
/// process.
pub fn drive(
    args: &Args,
    tracer: &mut Tracer,
    measured: &mut Measured,
    mut pass: impl FnMut(usize, &mut Tracer, &mut Measured) -> Pass,
) {
    tracer.set_enabled(false);
    pass(0, tracer, measured);
    let min_passes = if args.trace {
        args.min_passes.max(2)
    } else {
        args.min_passes
    };
    let start = Instant::now();
    for i in 1..=MAX_PASSES {
        let traced = args.trace && i % 2 == 1;
        tracer.set_enabled(traced);
        let mut out = pass(i, tracer, measured);
        tracer.set_enabled(false);
        finish_ratios(&mut out.layers);
        if traced {
            measured.traced_pass_s.push(out.wall);
        } else {
            measured.pass_s.push(out.wall);
            measured.op_ms.push(out.ops_ms);
        }
        measured.layers.push(out.layers);
        if i >= min_passes && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
}

/// Each op's median latency over the measured passes. The op percentiles
/// are taken over these, so a stall that hits one pass's instance of an op
/// does not move them; the spread left is between ops.
pub fn per_op_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let ops = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..ops)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

fn median_of(maps: &[Layers], k: &str) -> f64 {
    let xs: Vec<f64> = maps
        .iter()
        .map(|m| m.get(k).copied().unwrap_or(0.0))
        .collect();
    median(&xs)
}

/// The share of its op's wall clock by which a phase row may overrun its
/// parent before the op counts as not reconciled.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Turns a run's measurements into the printed report, writing the
/// human-readable summary (and, traced, the self-time table) to stderr.
pub fn finish(args: &Args, m: &Measured, tracer: &Tracer, config: &str) -> Report {
    let w = args.workload.name();
    let q = |xs: &[f64]| (quantile(xs, 0.25), median(xs), quantile(xs, 0.75));
    let (p25, p50, p75) = q(&m.pass_s);
    let op_ms = per_op_medians(&m.op_ms);
    eprintln!("[{w}] config: {config}");
    eprintln!(
        "[{w}] setup_s median {:.4} over {} set-ups; pass_s q1/median/q3 {p25:.4}/{p50:.4}/{p75:.4} \
         over {} passes; op percentiles over {} per-op medians of {} passes each; \
         {} of {} ops failed",
        median(&m.setup_s),
        m.setup_s.len(),
        m.pass_s.len(),
        op_ms.len(),
        m.op_ms.len(),
        m.failed,
        m.attempted
    );
    for p in m.problems.iter().take(5) {
        eprintln!("[{w}] FAILED {p}");
    }
    let fail_ratio = ratio(m.failed as f64, m.attempted as f64);
    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    if !args.trace {
        for &(name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => median(&m.setup_s),
                "pass_s" => median(&m.pass_s),
                "op_p50_ms" => quantile(&op_ms, 0.5),
                "op_p90_ms" => quantile(&op_ms, 0.9),
                "peak_rss_mb" => report::peak_rss_mb(),
                "ok_ratio" => 1.0 - fail_ratio,
                _ => unreachable!("every end-to-end metric is computed above"),
            };
            put(name, value, unit);
        }
    } else {
        let balance = tracer.op_balance();
        let ops: Vec<_> = balance.iter().filter(|(&op, _)| op != SETUP_OP).collect();
        let reconciled = ops
            .iter()
            .filter(|(_, &(wall, worst))| worst >= -RECONCILE_TOLERANCE * wall)
            .count();
        let traced = median(&m.traced_pass_s);
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "gen.generate_s" | "graph.snapshot_s" | "exact.truth_s" => {
                    median_of(&m.setup_layers, name)
                }
                "check.fail_ratio" => fail_ratio,
                "trace.pass_s" => traced,
                "trace.overhead_s" => traced - median(&m.pass_s),
                "trace.reconciled_ratio" => ratio(reconciled as f64, ops.len() as f64),
                _ => match m.fixed.get(name) {
                    Some(&v) => v,
                    None => median_of(&m.layers, name),
                },
            };
            put(name, value, unit);
        }
        print_self_times(w, tracer, m.traced_pass_s.len());
        eprintln!(
            "[{w}] {reconciled} of {} traced ops reconcile to their wall clock within {:.0}%; \
             tracing overhead {:+.4} s per pass (traced {traced:.4} s vs untraced {p50:.4} s)",
            ops.len(),
            RECONCILE_TOLERANCE * 100.0,
            traced - p50
        );
        if let Some(dir) = &args.trace_out {
            let path = dir.join(format!("trace-{w}-seed{}.jsonl", args.seed));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
            match written {
                Ok(()) => eprintln!("[{w}] spans written to {}", path.display()),
                Err(e) => eprintln!("[{w}] could not write {}: {e}", path.display()),
            }
        }
    }
    Report {
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    }
}

/// Prints the traced passes' self time per span name, as seconds per pass
/// and as a share of the ops' wall clock, largest first.
fn print_self_times(w: &str, tracer: &Tracer, passes: usize) {
    let passes = passes.max(1) as f64;
    let own = tracer.self_time_by_name();
    let op_wall: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.op != SETUP_OP)
        .map(|s| s.end - s.start)
        .sum();
    let setup: std::collections::BTreeSet<&str> = tracer
        .spans()
        .iter()
        .filter(|s| s.op == SETUP_OP)
        .map(|s| s.name)
        .collect();
    let mut rows: Vec<(&str, f64)> = own
        .into_iter()
        .filter(|(n, _)| !setup.contains(n))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!("[{w}] per-layer self time of the ops (traced passes):");
    eprintln!("[{w}]   {:<28} {:>12} {:>8}", "span", "s/pass", "share");
    for (name, secs) in &rows {
        eprintln!(
            "[{w}]   {name:<28} {:>12.5} {:>7.1}%",
            secs / passes,
            100.0 * ratio(*secs, op_wall)
        );
    }
    if let Some((name, secs)) = rows.first() {
        eprintln!(
            "[{w}] top cost: {name} ({:.1}% of op wall clock)",
            100.0 * ratio(*secs, op_wall)
        );
    }
    for s in tracer.spans().iter().filter(|s| s.op == SETUP_OP) {
        eprintln!("[{w}]   set-up {:<21} {:>12.5}", s.name, s.end - s.start);
    }
}

/// Runs one workload end to end.
pub fn run(args: &Args) -> Report {
    match args.workload {
        Workload::Table5Suite => table5::run(args),
        Workload::StreamReviews => stream::run(args),
        Workload::QueryReads => query::run(args),
    }
}

/// The effective library configuration, as the stats record reports it.
pub fn describe_config(s: &PipelineStats) -> String {
    format!(
        "threads {} kernel {} scan {} prune {} store {}",
        s.threads,
        s.kernel.name(),
        s.scan_kernel.name(),
        s.sssp_prune.name(),
        s.graph_store.name()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_medians_drop_a_stall_in_one_pass() {
        let passes = vec![vec![1.0, 10.0], vec![1.2, 10.0], vec![9.0, 10.2, 3.0]];
        assert_eq!(per_op_medians(&passes), vec![1.2, 10.0]);
    }
}
