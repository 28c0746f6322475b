//! `query_reads`: batches of point queries (`distance`, `delta`,
//! `topk_for_seed`) against the latest epoch of every dataset, issued from
//! the caller thread, with a few MMSD reviews interleaved as writes.
//!
//! Per pass, a fresh engine per dataset replays up to its first review
//! (outside the timed regions). Then `WRITES + 1` rounds run: every round
//! but the first opens with one write per dataset (the ingests up to and
//! including its next review), then `BATCHES_PER_ROUND` read batches run.
//! A batch puts the same number of queries to every dataset's latest epoch,
//! so every op has the same mix. One op is one read batch; writes count in
//! `pass_s` but not in the op latencies.

use crate::checks::{check_answer, check_review, check_seed_topk, delta_truth, seed_topk_truth};
use crate::stream::{book_review, prepare, Replay};
use crate::trace::Tracer;
use crate::{
    add, describe_config, drive, finish, repeat_setup, scaled_budget, Args, Layers, Measured, Pass,
};
use cp_graph::bfs::bfs;
use cp_graph::{Graph, NodeId};
use cp_query::{Answer, EpochView, QueryEngine, SeedTopK};
use cp_stream::{StreamEngine, StreamSnapshot};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Reviews per pass and dataset after the first.
pub const WRITES: usize = 1;
/// Read batches between writes.
pub const BATCHES_PER_ROUND: usize = 96;
/// `(u, v)` pairs per batch and dataset; each is asked as `distance` and
/// as `delta`.
pub const PAIRS_PER_SHARE: usize = 4096;
/// `topk_for_seed` calls per batch and dataset.
pub const SEEDS_PER_SHARE: usize = 16;
/// `k` of the per-seed top-k.
pub const SEED_K: usize = 10;
/// Queries served per pinned epoch.
const PAIRS_PER_PIN: usize = 256;
/// Every `CHECK_EVERY`-th pair and seed starts at a checked source.
const CHECK_EVERY: usize = 8;
/// Checked sources per epoch: half hot, half uniform.
const CHECK_SOURCES: usize = 8;

/// splitmix64: the query generator's deterministic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One dataset's queries for the latest epoch: who they ask about, and
/// the BFS truth of its checked sources.
struct Plan {
    hot: Vec<NodeId>,
    sources: Vec<NodeId>,
    /// Checked source → its BFS truth.
    rows: HashMap<NodeId, Checked>,
    n: usize,
    rng: Rng,
}

impl Plan {
    fn new(epoch: &StreamSnapshot, prev: &Graph, seed: u64) -> Plan {
        let n = epoch.graph.num_nodes();
        let hot = epoch.result.candidates.clone();
        let mut rng = Rng(seed);
        let mut sources: Vec<NodeId> = hot.iter().take(CHECK_SOURCES / 2).copied().collect();
        while sources.len() < CHECK_SOURCES {
            sources.push(NodeId::new(rng.below(n)));
        }
        let rows = sources
            .iter()
            .map(|&s| {
                let (d1, d2) = (bfs(prev, s), bfs(&*epoch.graph, s));
                let top = seed_topk_truth(s, &d1, &d2, SEED_K);
                (s, Checked { d1, d2, top })
            })
            .collect();
        Plan {
            hot,
            sources,
            rows,
            n,
            rng,
        }
    }

    /// The dataset's share of the next batch: half the pairs start at a hot
    /// node (a paid candidate of the epoch), half are uniform; every
    /// `CHECK_EVERY`-th starts at a checked source.
    fn fill(&mut self, share: &mut Share) {
        share.pairs.clear();
        share.seeds.clear();
        let (hot, sources, n) = (&self.hot, &self.sources, self.n);
        let rng = &mut self.rng;
        let pick = |i: usize, rng: &mut Rng| {
            if i.is_multiple_of(CHECK_EVERY) {
                sources[rng.below(sources.len())]
            } else if i % 2 == 1 && !hot.is_empty() {
                hot[rng.below(hot.len())]
            } else {
                NodeId::new(rng.below(n))
            }
        };
        for i in 0..PAIRS_PER_SHARE {
            let u = pick(i, rng);
            share.pairs.push((u, NodeId::new(rng.below(n))));
        }
        for i in 0..SEEDS_PER_SHARE {
            share.seeds.push(pick(i, rng));
        }
    }
}

/// A checked source's rows in the review's first and second snapshot, and
/// its exact top-`SEED_K` Δ sequence.
struct Checked {
    d1: Vec<u32>,
    d2: Vec<u32>,
    top: Vec<u32>,
}

/// One dataset's share of a batch: its queries, the epoch views pinned for
/// them, and their answers. Reused across batches.
#[derive(Default)]
struct Share {
    pairs: Vec<(NodeId, NodeId)>,
    seeds: Vec<NodeId>,
    views: Vec<EpochView>,
    distance: Vec<Answer>,
    delta: Vec<Answer>,
    topk: Vec<SeedTopK>,
}

/// Runs one batch against every dataset's latest epoch, one call type at a
/// time; returns the boundaries of its four phases.
fn run_batch(engines: &[QueryEngine], shares: &mut [Share]) -> [Instant; 5] {
    for s in shares.iter_mut() {
        s.distance.clear();
        s.delta.clear();
        s.topk.clear();
    }
    let t0 = Instant::now();
    for (qe, s) in engines.iter().zip(shares.iter_mut()) {
        let pins = s.pairs.len().div_ceil(PAIRS_PER_PIN).max(1);
        s.views.extend((0..pins).map(|_| qe.epoch()));
    }
    let t1 = Instant::now();
    for s in shares.iter_mut() {
        for (i, &(u, v)) in s.pairs.iter().enumerate() {
            s.distance.push(s.views[i / PAIRS_PER_PIN].distance(u, v));
        }
    }
    let t2 = Instant::now();
    for s in shares.iter_mut() {
        for (i, &(u, v)) in s.pairs.iter().enumerate() {
            s.delta.push(s.views[i / PAIRS_PER_PIN].delta(u, v));
        }
    }
    let t3 = Instant::now();
    for s in shares.iter_mut() {
        for &u in &s.seeds {
            s.topk.push(s.views[0].topk_for_seed(u, SEED_K));
        }
    }
    let t4 = Instant::now();
    black_box(&*shares);
    // Unpinning may free a superseded epoch: that happens after the clock.
    for s in shares.iter_mut() {
        s.views.clear();
    }
    [t0, t1, t2, t3, t4]
}

/// Checks a share's answers from checked sources against BFS truth.
fn check_share(plan: &Plan, s: &Share) -> Result<(), String> {
    for (i, &(u, v)) in s.pairs.iter().enumerate() {
        let Some(c) = plan.rows.get(&u) else {
            continue;
        };
        let (d1, d2) = (c.d1[v.index()], c.d2[v.index()]);
        check_answer(s.distance[i], d2).map_err(|e| format!("distance({u:?}, {v:?}): {e}"))?;
        check_answer(s.delta[i], delta_truth(d1, d2))
            .map_err(|e| format!("delta({u:?}, {v:?}): {e}"))?;
    }
    for (u, a) in s.seeds.iter().zip(&s.topk) {
        if let Some(c) = plan.rows.get(u) {
            check_seed_topk(a, *u, &c.d1, &c.d2, &c.top)?;
        }
    }
    Ok(())
}

/// Books one batch's tallies and phase times.
fn book_batch(
    shares: &[Share],
    t: &[Instant; 5],
    op: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    add(layers, "raw.epoch_s_x1e9", secs(t[0], t[1]) * 1e9);
    add(layers, "raw.distance_s_x1e9", secs(t[1], t[2]) * 1e9);
    add(layers, "raw.delta_s_x1e9", secs(t[2], t[3]) * 1e9);
    add(layers, "raw.topk_s_x1e6", secs(t[3], t[4]) * 1e6);
    for s in shares {
        add(
            layers,
            "raw.epochs",
            s.pairs.len().div_ceil(PAIRS_PER_PIN).max(1) as f64,
        );
        add(layers, "raw.distances", s.distance.len() as f64);
        add(layers, "raw.deltas", s.delta.len() as f64);
        add(layers, "raw.topks", s.topk.len() as f64);
        for a in s.distance.iter().chain(&s.delta) {
            let k = match a {
                Answer::Exact(_) => "raw.exact",
                Answer::Bounded { .. } => "raw.bounded",
                Answer::Unknown => "raw.unknown",
            };
            add(layers, k, 1.0);
            add(layers, "raw.answers", 1.0);
        }
        let complete = s.topk.iter().filter(|a| a.complete).count();
        add(layers, "raw.seed_complete", complete as f64);
    }

    let op_span = tracer.record("query.batch", op, None, t[0], t[4]);
    if op_span.is_some() {
        tracer.record("query.epoch", op, op_span, t[0], t[1]);
        tracer.record("query.distance", op, op_span, t[1], t[2]);
        tracer.record("query.delta", op, op_span, t[2], t[3]);
        tracer.record("query.topk_seed", op, op_span, t[3], t[4]);
    }
}

/// Ingests events from `*next` until a review fires; returns the epoch
/// and the timed interval (the review's own `ingest` call), adding every
/// ingest's time to `wall`.
fn write(
    engine: &mut StreamEngine,
    r: &Replay,
    next: &mut usize,
    wall: &mut f64,
) -> Result<(Arc<StreamSnapshot>, Instant, Instant), String> {
    while let Some(&e) = r.events.get(*next) {
        *next += 1;
        let t0 = Instant::now();
        let res = engine.ingest(e);
        let t1 = Instant::now();
        *wall += (t1 - t0).as_secs_f64();
        match res {
            Ok(Some(epoch)) => return Ok((epoch, t0, t1)),
            Ok(None) => {}
            Err(err) => return Err(format!("ingest on {}: {err}", r.name)),
        }
    }
    Err(format!(
        "{}: event log ended before the next review",
        r.name
    ))
}

/// One dataset's engine, as a pass drives it.
struct Lane {
    engine: StreamEngine,
    /// Next event of the replay to ingest.
    next: usize,
    /// The graph of the latest epoch.
    graph: Arc<Graph>,
}

pub fn run(args: &Args) -> crate::report::Report {
    let mut tracer = Tracer::new(args.trace);
    let mut measured = Measured::default();
    let mut replays = repeat_setup(args, &mut tracer, &mut measured, |t| {
        let mut layers = Layers::new();
        (prepare(args, t, &mut layers), layers)
    });
    let m = scaled_budget(args.scale);
    let mut config = String::new();
    let mut shares: Vec<Share> = replays.iter().map(|_| Share::default()).collect();

    drive(
        args,
        &mut tracer,
        &mut measured,
        |pass, tracer, measured| {
            let mut out = Pass::default();
            let mut op = (pass * 1_000_000) as u64;
            let mut lanes: Vec<Lane> = replays
                .iter_mut()
                .map(|r| {
                    let engine = r.engine();
                    let graph = Arc::clone(engine.current_graph());
                    Lane {
                        engine,
                        next: 0,
                        graph,
                    }
                })
                .collect();
            let engines: Vec<QueryEngine> = lanes
                .iter()
                .map(|l| QueryEngine::new(l.engine.reader()))
                .collect();
            for round in 0..=WRITES {
                let mut plans = Vec::with_capacity(lanes.len());
                for (d, (lane, r)) in lanes.iter_mut().zip(&replays).enumerate() {
                    let mut untimed = 0.0;
                    let wall = if round == 0 {
                        &mut untimed
                    } else {
                        &mut out.wall
                    };
                    let (epoch, t0, t1) = match write(&mut lane.engine, r, &mut lane.next, wall) {
                        Ok(w) => w,
                        Err(e) => {
                            measured.tally("write", Err(e));
                            return out;
                        }
                    };
                    if round > 0 {
                        book_review(&epoch, t0, t1, op, tracer, &mut out.layers);
                        op += 1;
                    }
                    config = describe_config(&epoch.stats.pipeline);
                    let outcome = check_review(
                        &lane.graph,
                        &epoch.graph,
                        &epoch.result.pairs,
                        &epoch.result.budget,
                        m,
                    );
                    measured.tally(&format!("review {} on {}", epoch.review, r.name), outcome);
                    let salt = args.seed ^ ((d as u64) << 48) ^ ((round as u64) << 40);
                    plans.push(Plan::new(&epoch, &lane.graph, salt));
                    lane.graph = Arc::clone(&epoch.graph);
                }
                for _ in 0..BATCHES_PER_ROUND {
                    for (plan, share) in plans.iter_mut().zip(shares.iter_mut()) {
                        plan.fill(share);
                    }
                    let t = run_batch(&engines, &mut shares);
                    let dt = (t[4] - t[0]).as_secs_f64();
                    out.wall += dt;
                    out.ops_ms.push(dt * 1e3);
                    book_batch(&shares, &t, op, tracer, &mut out.layers);
                    op += 1;
                    let outcome =
                        plans
                            .iter()
                            .zip(&shares)
                            .zip(&replays)
                            .try_for_each(|((plan, s), r)| {
                                check_share(plan, s).map_err(|e| format!("{}: {e}", r.name))
                            });
                    measured.tally(&format!("read batch in round {round}"), outcome);
                }
            }
            out
        },
    );
    finish(args, &measured, &tracer, &config)
}
