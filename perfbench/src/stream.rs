//! `stream_reviews`: each dataset's event log replayed from the 50 % prefix
//! through a `StreamEngine` (MMSD, l = 10, top-100 answer, chained row
//! cache, 1 worker). One op is the `ingest` call that fires a review, timed
//! from the triggering event to the published epoch.

use crate::checks::{check_review, fingerprint};
use crate::trace::{SpanId, Tracer};
use crate::{
    absorb_pipeline, add, describe_config, drive, finish, repeat_setup, scaled_budget, Args,
    Layers, Measured, Pass, SETUP_OP,
};
use cp_core::exact::TopKSpec;
use cp_core::selectors::{SelectorKind, DEFAULT_LANDMARKS};
use cp_gen::datasets::{DatasetKind, DatasetProfile};
use cp_graph::{Graph, NodeId, TimedEdge};
use cp_stream::{ReviewPolicy, StreamConfig, StreamEngine, StreamSnapshot};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Fraction of each event log folded into the engine's initial snapshot.
pub const PREFIX: f64 = 0.5;
/// Reviews per pass over all four datasets. Every dataset reviews at the
/// same cadence in events, so a longer log gets more reviews. (With equal
/// review counts the median review would fall on the gap between two
/// datasets' latency bands and swing with the seed.)
pub const REVIEWS_PER_PASS: usize = 64;
/// The reviews' answer: a fixed-size top-k. A `ThresholdFromMax` answer
/// holds every pair that got closer when a review's Δmax is small (tens of
/// thousands at this scale), so the engine's per-pair history, and the
/// process's memory, would follow the seed rather than the workload.
pub const SPEC: TopKSpec = TopKSpec::TopK(100);

/// One dataset's replay: the initial snapshot and the events after it.
pub struct Replay {
    pub name: &'static str,
    pub initial: Graph,
    /// Events past the prefix that the engine accepts (self-loops and
    /// re-announced edges are dropped at set-up, so no ingest fails).
    pub events: Vec<TimedEdge>,
    pub config: StreamConfig,
    /// An engine built at set-up, used by the first pass.
    pub engine: Option<StreamEngine>,
}

impl Replay {
    /// The set-up engine the first time, a fresh one afterwards (built
    /// outside the timed regions).
    pub fn engine(&mut self) -> StreamEngine {
        self.engine
            .take()
            .unwrap_or_else(|| StreamEngine::from_snapshot(&self.initial, self.config))
    }
}

/// The engine configuration shared by the streaming workloads.
pub fn stream_config(m: u64, seed: u64, every: usize) -> StreamConfig {
    let mut config = StreamConfig::new(
        m,
        SelectorKind::Mmsd {
            landmarks: DEFAULT_LANDMARKS,
        },
        SPEC,
        seed,
    )
    .with_policy(ReviewPolicy::EveryEvents(every))
    .with_chaining(true);
    config.threads = Some(1);
    config
}

/// Generates every dataset's log, cuts its replay and builds its engine.
pub fn prepare(args: &Args, tracer: &mut Tracer, layers: &mut Layers) -> Vec<Replay> {
    let key = |e: &TimedEdge| (e.u.min(e.v), e.u.max(e.v));
    let mut cuts = Vec::new();
    for kind in DatasetKind::ALL {
        let t0 = Instant::now();
        let t = DatasetProfile::scaled(kind, args.scale).generate(args.seed);
        let t1 = Instant::now();
        let cut = ((PREFIX * t.num_events() as f64).ceil() as usize).min(t.num_events());
        let initial = t.snapshot_of_prefix(cut);
        let mut seen: HashSet<(NodeId, NodeId)> = t.events()[..cut].iter().map(key).collect();
        let events: Vec<TimedEdge> = t.events()[cut..]
            .iter()
            .filter(|e| e.u != e.v && seen.insert(key(e)))
            .copied()
            .collect();
        let t2 = Instant::now();
        tracer.record("gen.generate", SETUP_OP, None, t0, t1);
        tracer.record("graph.snapshot", SETUP_OP, None, t1, t2);
        add(layers, "gen.generate_s", (t1 - t0).as_secs_f64());
        add(layers, "graph.snapshot_s", (t2 - t1).as_secs_f64());
        cuts.push((kind.name(), initial, events));
    }
    let total: usize = cuts.iter().map(|(_, _, events)| events.len()).sum();
    let every = total.div_ceil(REVIEWS_PER_PASS).max(1);
    let config = stream_config(scaled_budget(args.scale), args.seed, every);
    cuts.into_iter()
        .map(|(name, initial, events)| {
            let t0 = Instant::now();
            let engine = StreamEngine::from_snapshot(&initial, config);
            let t1 = Instant::now();
            tracer.record("graph.snapshot", SETUP_OP, None, t0, t1);
            add(layers, "graph.snapshot_s", (t1 - t0).as_secs_f64());
            Replay {
                name,
                initial,
                events,
                config,
                engine: Some(engine),
            }
        })
        .collect()
}

/// Books one review op (the `ingest` call from `t0` to `t1` that
/// published `epoch`): its phases into `layers`, its spans into `tracer`.
pub fn book_review(
    epoch: &StreamSnapshot,
    t0: Instant,
    t1: Instant,
    op: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let st = &epoch.stats;
    let p = &st.pipeline;
    let wall = (t1 - t0).as_secs_f64();
    let publish = wall - st.advance_secs - st.pipeline_secs;
    let other = st.pipeline_secs - p.selector_secs - p.prefetch_secs - p.scan_secs;
    // The engine builds its own selector, so the SSSP clock cannot be
    // split at rank end: every SSSP second is charged against the
    // prefetch, which makes this a lower bound on the pre-filter.
    let prefilter = (p.prefetch_secs - p.sssp_secs).max(0.0);
    absorb_pipeline(layers, p, &epoch.result.budget);
    add(layers, "stream.advance_s", st.advance_secs);
    add(layers, "stream.pipeline_s", st.pipeline_secs);
    add(layers, "stream.publish_s", publish);
    add(layers, "selectors.rank_s.landmark", p.selector_secs);
    add(layers, "topk.other_s", other);
    add(layers, "bounds.prefilter_s", prefilter);
    add(
        layers,
        "raw.donor_hits",
        (st.donor_chain_hits + st.repaired_rows) as f64,
    );

    let op_span = tracer.record("stream.review", op, None, t0, t1);
    if op_span.is_some() {
        tracer.attach("stream.advance", op_span, st.advance_secs);
        let pipeline: SpanId = tracer.attach("stream.pipeline", op_span, st.pipeline_secs);
        tracer.attach("selectors.rank.landmark", pipeline, p.selector_secs);
        let prefetch = tracer.attach("topk.prefetch", pipeline, p.prefetch_secs);
        tracer.attach("bounds.prefilter", prefetch, prefilter);
        tracer.attach("oracle.sssp", prefetch, p.prefetch_secs - prefilter);
        tracer.attach("scan.delta", pipeline, p.scan_secs);
    }
}

pub fn run(args: &Args) -> crate::report::Report {
    let mut tracer = Tracer::new(args.trace);
    let mut measured = Measured::default();
    let mut replays = repeat_setup(args, &mut tracer, &mut measured, |t| {
        let mut layers = Layers::new();
        (prepare(args, t, &mut layers), layers)
    });
    let m = scaled_budget(args.scale);
    let mut reference: Vec<u64> = Vec::new();
    let mut config = String::new();

    drive(
        args,
        &mut tracer,
        &mut measured,
        |pass, tracer, measured| {
            let mut out = Pass::default();
            let mut review = 0usize;
            for r in replays.iter_mut() {
                let mut engine = r.engine();
                let mut prev: Arc<Graph> = Arc::clone(engine.current_graph());
                for &e in &r.events {
                    let t0 = Instant::now();
                    let res = engine.ingest(e);
                    let t1 = Instant::now();
                    let dt = (t1 - t0).as_secs_f64();
                    out.wall += dt;
                    let epoch = match res {
                        Ok(None) => {
                            add(&mut out.layers, "raw.ingest_s_x1e6", dt * 1e6);
                            add(&mut out.layers, "raw.ingests", 1.0);
                            continue;
                        }
                        Ok(Some(epoch)) => epoch,
                        Err(err) => {
                            measured.tally(&format!("ingest on {}", r.name), Err(err.to_string()));
                            continue;
                        }
                    };
                    let op = (pass * 1_000_000 + review) as u64;
                    out.ops_ms.push(dt * 1e3);
                    book_review(&epoch, t0, t1, op, tracer, &mut out.layers);

                    let fp = fingerprint(&epoch.result.pairs);
                    let known = reference.get(review) == Some(&fp);
                    if pass > 0 && !known {
                        add(&mut measured.fixed, "check.output_mismatches", 1.0);
                    }
                    // Identical output to an already checked review needs no
                    // second BFS check.
                    let outcome = if known {
                        Ok(())
                    } else {
                        check_review(
                            &prev,
                            &epoch.graph,
                            &epoch.result.pairs,
                            &epoch.result.budget,
                            m,
                        )
                    };
                    measured.tally(&format!("review {} on {}", epoch.review, r.name), outcome);
                    if pass == 0 {
                        reference.push(fp);
                        config = describe_config(&epoch.stats.pipeline);
                    }
                    prev = Arc::clone(&epoch.graph);
                    review += 1;
                }
            }
            measured
                .fixed
                .entry("check.output_mismatches")
                .or_insert(0.0);
            out
        },
    );
    finish(args, &measured, &tracer, &config)
}
