//! Differential query conformance: every answer the query layer produces
//! from published epochs is checked against from-scratch BFS truth.
//!
//! * `Exact` answers equal the true distance (or Δ) bit-for-bit.
//! * `Bounded` answers bracket the truth: `lb ≤ d ≤ ub`.
//! * `topk_for_seed` answers marked `complete` equal the exact per-seed
//!   top-k computed from full truth matrices.
//! * Every captured row answers `Exact` for every target, and every seed
//!   resident in both snapshots gets a `complete` top-k.
//!
//! The checks run across the full serving matrix — generators × graph
//! stores × BFS kernels × row-cache budgets — and as a
//! property test over arbitrary growing streams (the headline
//! bound-soundness proptest at the bottom).

use cp_core::exact::{sort_pairs, ConvergingPair, TopKSpec};
use cp_core::oracle::{BfsKernel, GraphStore, RowCacheBudget, Snapshot};
use cp_core::scan::ScanKernel;
use cp_core::selectors::SelectorKind;
use cp_gen::ba::barabasi_albert;
use cp_gen::forest_fire::forest_fire;
use cp_gen::seeded_rng;
use cp_gen::ws::watts_strogatz;
use cp_graph::bfs::bfs;
use cp_graph::{distance_decrease, Graph, NodeId, TemporalGraph};
use cp_query::{Answer, EpochView};
use cp_stream::{StreamConfig, StreamEngine, StreamError};
use proptest::prelude::*;

/// A few small evolving graphs with different growth shapes.
fn generator_cases() -> Vec<(&'static str, TemporalGraph)> {
    vec![
        (
            "barabasi_albert",
            barabasi_albert(70, 2, &mut seeded_rng(11)),
        ),
        (
            "watts_strogatz",
            watts_strogatz(64, 4, 0.2, &mut seeded_rng(13)),
        ),
        ("forest_fire", forest_fire(60, 0.35, &mut seeded_rng(17))),
    ]
}

/// Feeds the events between two prefix cuts into the engine, skipping the
/// announcements a snapshot would drop anyway (duplicates, self-loops).
fn feed(engine: &mut StreamEngine, t: &TemporalGraph, from: usize, to: usize) {
    for &e in &t.events()[from..to] {
        match engine.ingest(e) {
            Ok(_) | Err(StreamError::DuplicateEdge { .. }) | Err(StreamError::SelfLoop { .. }) => {}
            Err(err) => panic!("sorted generator stream was rejected: {err}"),
        }
    }
}

/// Full truth: all-pairs BFS distance matrix.
fn truth_matrix(g: &Graph) -> Vec<Vec<u32>> {
    (0..g.num_nodes()).map(|u| bfs(g, NodeId::new(u))).collect()
}

/// The Δ the pipeline counts for a pair: 0 when outside the problem.
fn truth_delta(d1: u32, d2: u32) -> u32 {
    distance_decrease(d1, d2).unwrap_or(0)
}

/// The exact per-seed top-k from truth matrices: all pairs of `u` with
/// `Δ ≥ 1`, canonically sorted, truncated to `k`.
fn truth_topk_for_seed(
    t1: &[Vec<u32>],
    t2: &[Vec<u32>],
    u: NodeId,
    k: usize,
) -> Vec<ConvergingPair> {
    let mut pairs = Vec::new();
    for v in 0..t1.len() {
        let v = NodeId::new(v);
        if v == u {
            continue;
        }
        if let Some(delta) = distance_decrease(t1[u.index()][v.index()], t2[u.index()][v.index()]) {
            if delta >= 1 {
                pairs.push(ConvergingPair::new(u, v, delta));
            }
        }
    }
    sort_pairs(&mut pairs);
    pairs.truncate(k);
    pairs
}

/// Per-epoch answer tallies, so the matrix test can prove it was not
/// vacuously checking `Unknown`s.
#[derive(Default)]
struct Tally {
    exact: u64,
    bounded: u64,
    unknown: u64,
    complete_topk: u64,
}

/// Checks every pair's `distance` and `delta` answer and every seed's
/// `topk_for_seed` against truth on one epoch. Panics with `ctx` on any
/// violation.
fn check_epoch(view: &EpochView, t1: &[Vec<u32>], t2: &[Vec<u32>], tally: &mut Tally, ctx: &str) {
    let n = t2.len();
    for u in 0..n {
        for v in 0..n {
            let (nu, nv) = (NodeId::new(u), NodeId::new(v));
            let d = t2[u][v];
            let ans = view.distance(nu, nv);
            match ans {
                Answer::Exact(got) => {
                    assert_eq!(got, d, "wrong exact distance({u},{v}): {ctx}");
                    tally.exact += 1;
                }
                Answer::Bounded { lb, ub } => {
                    assert!(
                        lb <= d && d <= ub,
                        "distance({u},{v})={d} outside [{lb},{ub}]: {ctx}"
                    );
                    tally.bounded += 1;
                }
                Answer::Unknown => tally.unknown += 1,
            }
            assert!(ans.admits(d), "admits() disagrees with match: {ctx}");
            let delta = truth_delta(t1[u][v], d);
            let ans = view.delta(nu, nv);
            match ans {
                Answer::Exact(got) => {
                    assert_eq!(got, delta, "wrong exact delta({u},{v}): {ctx}")
                }
                Answer::Bounded { lb, ub } => assert!(
                    lb <= delta && delta <= ub,
                    "delta({u},{v})={delta} outside [{lb},{ub}]: {ctx}"
                ),
                Answer::Unknown => {}
            }
        }
        let nu = NodeId::new(u);
        for k in [1usize, 5] {
            let got = view.topk_for_seed(nu, k);
            assert!(got.pairs.len() <= k, "overfull top-k: {ctx}");
            if got.complete {
                let want = truth_topk_for_seed(t1, t2, nu, k);
                assert_eq!(
                    got.pairs, want,
                    "complete topk_for_seed({u}, {k}) diverges from truth: {ctx}"
                );
                tally.complete_topk += 1;
            } else {
                // Incomplete answers still only report true pairs.
                for p in &got.pairs {
                    let (a, b) = (p.pair.0.index(), p.pair.1.index());
                    assert_eq!(
                        p.delta,
                        truth_delta(t1[a][b], t2[a][b]),
                        "incomplete topk reported a false pair: {ctx}"
                    );
                }
            }
        }
    }
}

/// The full serving matrix: on every generator × store × kernel × cache
/// leg, every published epoch's answers conform to from-scratch BFS
/// truth — and the run produces nonzero Exact, Bounded, and complete
/// top-k answers, so the conformance is not vacuous.
#[test]
fn answers_conform_across_the_matrix() {
    let cuts = [0.6, 0.8, 1.0];
    let mut tally = Tally::default();
    for (name, t) in generator_cases() {
        let n = t.num_nodes();
        let prefix = |f: f64| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events());
        let tiny = RowCacheBudget::Bytes(3 * 4 * n);
        for store in [GraphStore::Full, GraphStore::Overlay] {
            for (kernel, scan) in [
                (BfsKernel::Scalar, ScanKernel::Scalar),
                (BfsKernel::Auto, ScanKernel::Auto),
            ] {
                for cache in [RowCacheBudget::Bytes(0), tiny, RowCacheBudget::Unbounded] {
                    let mut cfg = StreamConfig::new(
                        8,
                        SelectorKind::Mmsd { landmarks: 3 },
                        TopKSpec::ThresholdFromMax { slack: 1 },
                        3,
                    );
                    cfg.graph_store = Some(store);
                    cfg.kernel = Some(kernel);
                    cfg.scan_kernel = Some(scan);
                    cfg.row_cache = Some(cache);
                    let mut engine =
                        StreamEngine::from_snapshot(&t.snapshot_of_prefix(prefix(cuts[0])), cfg);
                    for w in cuts.windows(2) {
                        let (f1, f2) = (prefix(w[0]), prefix(w[1]));
                        let t1 = truth_matrix(&t.snapshot_of_prefix(f1));
                        let t2 = truth_matrix(&t.snapshot_of_prefix(f2));
                        feed(&mut engine, &t, f1, f2);
                        let view = EpochView::of(engine.review());
                        let ctx = format!(
                            "{name}/review={}/{store:?}/{kernel:?}/cache={cache:?}",
                            view.review()
                        );
                        check_epoch(&view, &t1, &t2, &mut tally, &ctx);
                    }
                }
            }
        }
    }
    assert!(tally.exact > 0, "no Exact answer anywhere — vacuous run");
    assert!(
        tally.bounded > 0,
        "no Bounded answer anywhere — vacuous run"
    );
    assert!(
        tally.complete_topk > 0,
        "no complete top-k answer anywhere — vacuous run"
    );
}

/// Regression: a captured row is exact in every entry. Under a high Δ
/// floor with no resident `t1` donors (zero row cache, so `t2` rows come
/// from full sweeps rather than repairs), every row an epoch captures
/// answers `distance` — and, resident in both snapshots, `delta` — as
/// `Exact` and equal to from-scratch BFS truth for every target, and its
/// seed's `topk_for_seed` is `complete`.
#[test]
fn captured_rows_answer_exact_for_every_target() {
    let cuts = [0.7, 0.85, 1.0];
    let mut rows_checked = 0u64;
    let mut seeds_checked = 0u64;
    for (name, t) in generator_cases() {
        let prefix = |f: f64| ((f * t.num_events() as f64).ceil() as usize).min(t.num_events());
        let mut cfg = StreamConfig::new(
            12,
            SelectorKind::Mmsd { landmarks: 3 },
            TopKSpec::Threshold { delta_min: 2 },
            1,
        );
        cfg.kernel = Some(BfsKernel::Scalar);
        cfg.scan_kernel = Some(ScanKernel::Scalar);
        cfg.row_cache = Some(RowCacheBudget::Bytes(0));
        let mut engine = StreamEngine::from_snapshot(&t.snapshot_of_prefix(prefix(cuts[0])), cfg);
        for w in cuts.windows(2) {
            let (f1, f2) = (prefix(w[0]), prefix(w[1]));
            let t1 = truth_matrix(&t.snapshot_of_prefix(f1));
            feed(&mut engine, &t, f1, f2);
            let epoch = engine.review();
            let t2 = truth_matrix(&epoch.graph);
            let view = EpochView::of(epoch.clone());
            let n = t2.len();
            for u in 0..n {
                let nu = NodeId::new(u);
                let has1 = epoch.query.row(Snapshot::First, nu).is_some();
                let has2 = epoch.query.row(Snapshot::Second, nu).is_some();
                let ctx = format!("{name}/review={}/seed={u}", epoch.review);
                if has2 {
                    rows_checked += 1;
                    for (v, &d) in t2[u].iter().enumerate() {
                        assert_eq!(
                            view.distance(nu, NodeId::new(v)),
                            Answer::Exact(d),
                            "distance to {v} is not the exact truth: {ctx}"
                        );
                    }
                }
                if has1 && has2 {
                    seeds_checked += 1;
                    for v in 0..n {
                        assert_eq!(
                            view.delta(nu, NodeId::new(v)),
                            Answer::Exact(truth_delta(t1[u][v], t2[u][v])),
                            "delta to {v} is not the exact truth: {ctx}"
                        );
                    }
                    for k in [1usize, 5, n] {
                        let got = view.topk_for_seed(nu, k);
                        assert!(got.complete, "top-{k} of a resident seed incomplete: {ctx}");
                        assert_eq!(
                            got.pairs,
                            truth_topk_for_seed(&t1, &t2, nu, k),
                            "top-{k} diverges from truth: {ctx}"
                        );
                    }
                }
            }
        }
    }
    assert!(rows_checked > 0, "no epoch captured a row — vacuous run");
    assert!(
        seeds_checked > 0,
        "no seed was resident in both snapshots — vacuous run"
    );
}

/// Strategy: a growing random edge list over up to `n` nodes.
fn edge_list(n: u32, max_edges: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4..=n).prop_flat_map(move |nodes| {
        let edges = prop::collection::vec((0..nodes, 0..nodes), 8..max_edges);
        (Just(nodes as usize), edges)
    })
}

proptest! {
    /// Headline bound-soundness property: on arbitrary growing streams cut
    /// at arbitrary points, every `distance`/`delta` answer of every
    /// published epoch admits the from-scratch BFS truth — Exact answers
    /// equal it, Bounded answers bracket it.
    #[test]
    fn every_answer_is_sound_on_arbitrary_streams(
        (n, edges) in edge_list(28, 80),
        cut in 2usize..40,
        m in 2u64..10,
    ) {
        let t = TemporalGraph::from_sequence(
            n,
            edges.iter().map(|&(u, v)| (NodeId(u), NodeId(v))),
        );
        let total = t.num_events();
        let cuts = [total / 4 + cut % (total / 2 + 1), total];
        let cfg = StreamConfig::new(
            m,
            SelectorKind::SumDiff { landmarks: 2 },
            TopKSpec::ThresholdFromMax { slack: 1 },
            9,
        );
        let mut engine = StreamEngine::new(n, cfg);
        let mut prev = 0;
        for &c in &cuts {
            let g1 = engine.latest().graph.clone();
            feed(&mut engine, &t, prev, c);
            prev = c;
            let view = EpochView::of(engine.review());
            let t1 = truth_matrix(&g1);
            let t2 = truth_matrix(&view.snapshot().graph);
            for u in 0..n {
                for v in 0..n {
                    let (nu, nv) = (NodeId::new(u), NodeId::new(v));
                    let d = t2[u][v];
                    let ans = view.distance(nu, nv);
                    prop_assert!(ans.admits(d), "distance({u},{v})={d} vs {ans:?}");
                    if let Answer::Exact(got) = ans {
                        prop_assert_eq!(got, d, "distance({},{})", u, v);
                    }
                    let delta = truth_delta(t1[u][v], d);
                    let ans = view.delta(nu, nv);
                    prop_assert!(ans.admits(delta), "delta({u},{v})={delta} vs {ans:?}");
                    if let Answer::Exact(got) = ans {
                        prop_assert_eq!(got, delta, "delta({},{})", u, v);
                    }
                }
            }
        }
    }
}
