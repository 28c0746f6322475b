//! `table5_suite`: the 13 Table-5 selectors × the 4 dataset emulators, one
//! `run_pipeline` call per op, at 2 threads.

use crate::checks::{check_pipeline_op, fingerprint, Family, Truth};
use crate::trace::Tracer;
use crate::{
    absorb_pipeline, add, describe_config, drive, finish, pinned_threads, repeat_setup,
    scaled_budget, Args, Layers, Measured, Pass, SETUP_OP,
};
use cp_core::exact::{exact_top_k, TopKSpec};
use cp_core::oracle::SnapshotOracle;
use cp_core::selectors::{CandidateSelector, IncidenceRanking, IncidenceSelector, SelectorKind};
use cp_core::topk::run_pipeline;
use cp_gen::datasets::{DatasetKind, DatasetProfile, EVAL_SNAPSHOTS};
use cp_graph::{Graph, NodeId};
use std::time::Instant;

/// Threads of every parallel call in this workload.
const THREADS: usize = 2;

/// One dataset's evaluation pair and its exact answer.
pub struct Dataset {
    pub name: &'static str,
    pub g1: Graph,
    pub g2: Graph,
    pub truth: Truth,
    /// The exact answer's threshold (δ = Δmax − 1), as
    /// `experiment::run_selector` passes it.
    pub spec: TopKSpec,
}

pub struct Suite {
    pub datasets: Vec<Dataset>,
    pub kinds: Vec<SelectorKind>,
    pub m: u64,
    pub threads: usize,
    pub seed: u64,
}

/// Generates the four evaluation pairs and their exact answers.
pub fn setup(args: &Args, tracer: &mut Tracer) -> (Suite, Layers) {
    let threads = pinned_threads(THREADS);
    let mut layers = Layers::new();
    let mut datasets = Vec::new();
    for kind in DatasetKind::ALL {
        let t0 = Instant::now();
        let t = DatasetProfile::scaled(kind, args.scale).generate(args.seed);
        let t1 = Instant::now();
        let (g1, g2) = t.snapshot_pair(EVAL_SNAPSHOTS.0, EVAL_SNAPSHOTS.1);
        let t2 = Instant::now();
        let truth = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 1 }, threads);
        let t3 = Instant::now();
        tracer.record("gen.generate", SETUP_OP, None, t0, t1);
        tracer.record("graph.snapshot", SETUP_OP, None, t1, t2);
        tracer.record("exact.truth", SETUP_OP, None, t2, t3);
        add(&mut layers, "gen.generate_s", (t1 - t0).as_secs_f64());
        add(&mut layers, "graph.snapshot_s", (t2 - t1).as_secs_f64());
        add(&mut layers, "exact.truth_s", (t3 - t2).as_secs_f64());
        datasets.push(Dataset {
            name: kind.name(),
            spec: truth.spec(),
            g1,
            g2,
            truth: Truth::new(&truth.pairs),
        });
    }
    let suite = Suite {
        datasets,
        kinds: SelectorKind::table5_suite(),
        m: scaled_budget(args.scale),
        threads,
        seed: args.seed,
    };
    (suite, layers)
}

/// Times the wrapped selector's `rank` and reads the oracle's SSSP clock
/// when it returns, which splits `sssp_secs` into its ranking and top-k
/// shares.
struct TimedRank<'s> {
    inner: &'s mut dyn CandidateSelector,
    span: Option<(Instant, Instant)>,
    sssp_at_end: f64,
}

impl CandidateSelector for TimedRank<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn rank(&mut self, oracle: &mut SnapshotOracle<'_>) -> Vec<NodeId> {
        let start = Instant::now();
        let ranked = self.inner.rank(oracle);
        self.span = Some((start, Instant::now()));
        self.sssp_at_end = oracle.sssp_secs();
        ranked
    }
}

/// The selector of one op. IncBet gets the workload's thread count
/// explicitly (`SelectorKind::build` would use the host default).
fn build(kind: SelectorKind, seed: u64, threads: usize) -> Box<dyn CandidateSelector> {
    match kind {
        SelectorKind::IncBet => {
            Box::new(IncidenceSelector::new(IncidenceRanking::Betweenness).with_threads(threads))
        }
        _ => kind.build(seed),
    }
}

fn rank_span(family: Family) -> (&'static str, &'static str) {
    match family {
        Family::Degree => ("selectors.rank.degree", "selectors.rank_s.degree"),
        Family::Dispersion => ("selectors.rank.dispersion", "selectors.rank_s.dispersion"),
        Family::Landmark => ("selectors.rank.landmark", "selectors.rank_s.landmark"),
        Family::IncBet => ("selectors.rank.incbet", "selectors.rank_s.incbet"),
    }
}

/// What one op produced, for the checks.
pub struct OpOutcome {
    pub wall: f64,
    pub result: cp_core::topk::BudgetedResult,
}

/// Runs one (dataset, selector) op and books its phases.
pub fn run_op(
    suite: &Suite,
    d: usize,
    kind: SelectorKind,
    op: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> OpOutcome {
    let ds = &suite.datasets[d];
    let t0 = Instant::now();
    let mut oracle =
        SnapshotOracle::with_budget(&ds.g1, &ds.g2, 2 * suite.m).with_threads(suite.threads);
    let mut inner = build(kind, suite.seed, suite.threads);
    let mut sel = TimedRank {
        inner: inner.as_mut(),
        span: None,
        sssp_at_end: 0.0,
    };
    let result = run_pipeline(&mut oracle, &mut sel, &ds.spec);
    let t1 = Instant::now();
    drop(oracle);

    let s = &result.stats;
    let wall = (t1 - t0).as_secs_f64();
    let (r0, r1) = sel.span.expect("run_pipeline ranks exactly once");
    let rank = (r1 - r0).as_secs_f64();
    let sssp_rank = sel.sssp_at_end;
    let sssp_topk = s.sssp_secs - sssp_rank;
    let (span_name, metric) = rank_span(Family::of(kind));
    absorb_pipeline(layers, s, &result.budget);
    add(layers, metric, rank);
    add(layers, "bounds.prefilter_s", s.prefetch_secs - sssp_topk);
    add(
        layers,
        "topk.other_s",
        wall - rank - s.prefetch_secs - s.scan_secs,
    );

    let op_span = tracer.record("topk.run", op, None, t0, t1);
    if op_span.is_some() {
        let rank_id = tracer.record(span_name, op, op_span, r0, r1);
        tracer.attach("oracle.sssp", rank_id, sssp_rank);
        let prefetch = tracer.attach("topk.prefetch", op_span, s.prefetch_secs);
        tracer.attach("bounds.prefilter", prefetch, s.prefetch_secs - sssp_topk);
        tracer.attach("oracle.sssp", prefetch, sssp_topk);
        tracer.attach("scan.delta", op_span, s.scan_secs);
    }
    OpOutcome { wall, result }
}

pub fn run(args: &Args) -> crate::report::Report {
    let mut tracer = Tracer::new(args.trace);
    let mut measured = Measured::default();
    let suite = repeat_setup(args, &mut tracer, &mut measured, |t| setup(args, t));
    let ops: Vec<(usize, SelectorKind)> = (0..suite.datasets.len())
        .flat_map(|d| suite.kinds.iter().map(move |&k| (d, k)))
        .collect();
    let mut reference: Vec<u64> = Vec::new();
    let mut config = String::new();

    drive(
        args,
        &mut tracer,
        &mut measured,
        |pass, tracer, measured| {
            let mut out = Pass::default();
            let mut cover = Vec::new();
            for (i, &(d, kind)) in ops.iter().enumerate() {
                let op = (pass * ops.len() + i) as u64;
                let o = run_op(&suite, d, kind, op, tracer, &mut out.layers);
                out.wall += o.wall;
                out.ops_ms.push(o.wall * 1e3);

                let ds = &suite.datasets[d];
                let r = &o.result;
                measured.tally(
                    &format!("{} on {}", kind.name(), ds.name),
                    check_pipeline_op(&ds.truth, &r.pairs, &r.budget, suite.m, Family::of(kind)),
                );
                let fp = fingerprint(&r.pairs);
                if pass == 0 {
                    reference.push(fp);
                    cover.push(ds.truth.coverage(&r.pairs));
                    config = describe_config(&r.stats);
                } else if reference[i] != fp {
                    add(&mut measured.fixed, "check.output_mismatches", 1.0);
                }
            }
            if pass == 0 {
                let mean = cover.iter().sum::<f64>() / cover.len().max(1) as f64;
                measured.fixed.insert("quality.coverage", mean);
                measured
                    .fixed
                    .entry("check.output_mismatches")
                    .or_insert(0.0);
            }
            out
        },
    );
    finish(args, &measured, &tracer, &config)
}
