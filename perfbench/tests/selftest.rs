//! Self-tests of the benchmark: a tiny-scale smoke run of every workload,
//! negative tests of every output checker, and agreement between the
//! metric lists and `BENCHMARK.json`.

use cp_core::coverage::coverage;
use cp_core::exact::{exact_top_k, ConvergingPair, TopKSpec};
use cp_core::oracle::BudgetLedger;
use cp_graph::bfs::bfs;
use cp_graph::builder::graph_from_edges;
use cp_graph::{NodeId, INF};
use cp_perfbench::checks::{
    check_answer, check_pipeline_op, check_review, check_seed_topk, seed_topk_truth, Family, Truth,
};
use cp_perfbench::{run, Args, Measured, Workload, END_TO_END, PER_LAYER};
use cp_query::{Answer, SeedTopK};

fn tiny(workload: Workload, trace: bool) -> Args {
    Args {
        scale: 0.03,
        seconds: 0.0,
        setups: 1,
        setup_seconds: 0.0,
        min_passes: 1,
        trace,
        ..Args::new(workload)
    }
}

#[test]
fn smoke_every_workload_prints_every_metric_and_fails_nothing() {
    for w in Workload::ALL {
        for (trace, names) in [(false, END_TO_END), (true, PER_LAYER)] {
            let r = run(&tiny(w, trace));
            let json = r.to_json();
            assert!(r.correct, "{}: {json}", w.name());
            assert_eq!(r.failed, 0, "{}", w.name());
            assert!(r.attempted >= 1, "{}", w.name());
            assert_eq!(r.metrics.len(), names.len(), "{}", w.name());
            for &(name, unit) in names {
                let needle = format!("\"{name}\": {{\"value\": ");
                assert!(json.contains(&needle), "{}: {name} missing", w.name());
                let m = r.metrics.iter().find(|m| m.name == name).expect("present");
                assert_eq!(m.unit, unit, "{}: {name}", w.name());
                assert!(m.value.is_finite(), "{}: {name}", w.name());
            }
            if trace {
                assert_eq!(r.get("check.fail_ratio"), Some(0.0), "{}", w.name());
                assert_eq!(r.get("trace.reconciled_ratio"), Some(1.0), "{}", w.name());
            } else {
                assert_eq!(r.get("ok_ratio"), Some(1.0), "{}", w.name());
                for name in ["setup_s", "pass_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"] {
                    assert!(r.get(name).expect("printed") > 0.0, "{}: {name}", w.name());
                }
            }
        }
    }
}

/// Path 0-1-2-3-4-5 in `G_t1`; `G_t2` adds the chord (0, 5).
fn pair_of_graphs() -> (cp_graph::Graph, cp_graph::Graph) {
    let path: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
    let mut grown = path.clone();
    grown.push((0, 5));
    (graph_from_edges(6, &path), graph_from_edges(6, &grown))
}

/// Runs a checker outcome through the failure accounting.
fn counted_failed(outcome: Result<(), String>) -> bool {
    let mut m = Measured::default();
    m.tally("op", outcome);
    assert_eq!(m.attempted, 1);
    m.failed == 1
}

#[test]
fn pipeline_checker_counts_corrupted_pairs_and_ledgers_as_failed() {
    let (g1, g2) = pair_of_graphs();
    let exact = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: 1 }, 1);
    let truth = Truth::new(&exact.pairs);
    let ok = BudgetLedger {
        generation: 0,
        topk: 4,
    };
    let m = 2;
    assert!(!counted_failed(check_pipeline_op(
        &truth,
        &exact.pairs,
        &ok,
        m,
        Family::Degree
    )));

    let mut wrong_delta = exact.pairs.clone();
    wrong_delta[0].delta += 1;
    assert!(counted_failed(check_pipeline_op(
        &truth,
        &wrong_delta,
        &ok,
        m,
        Family::Degree
    )));

    // (1, 2) are adjacent in both snapshots: not a converging pair.
    let mut foreign = exact.pairs.clone();
    foreign.push(ConvergingPair::new(NodeId(1), NodeId(2), 1));
    assert!(counted_failed(check_pipeline_op(
        &truth,
        &foreign,
        &ok,
        m,
        Family::Degree
    )));

    let over = BudgetLedger {
        generation: 0,
        topk: 5,
    };
    assert!(counted_failed(check_pipeline_op(
        &truth,
        &exact.pairs,
        &over,
        m,
        Family::Degree
    )));

    let probes = BudgetLedger {
        generation: 1,
        topk: 3,
    };
    assert!(counted_failed(check_pipeline_op(
        &truth,
        &exact.pairs,
        &probes,
        m,
        Family::Degree
    )));
    assert!(!counted_failed(check_pipeline_op(
        &truth,
        &exact.pairs,
        &probes,
        m,
        Family::Dispersion
    )));
}

#[test]
fn truth_coverage_matches_the_library() {
    let (g1, g2) = pair_of_graphs();
    let exact = exact_top_k(&g1, &g2, &TopKSpec::Threshold { delta_min: 1 }, 1);
    let truth = Truth::new(&exact.pairs);
    let mut found = vec![ConvergingPair::new(NodeId(1), NodeId(2), 1)];
    for p in &exact.pairs {
        assert_eq!(truth.coverage(&found), coverage(&found, &exact));
        found.push(*p);
    }
    assert_eq!(truth.coverage(&found), 1.0);
}

#[test]
fn review_checker_counts_corrupted_pairs_as_failed() {
    let (g1, g2) = pair_of_graphs();
    let ledger = BudgetLedger {
        generation: 2,
        topk: 2,
    };
    // d1(0, 5) = 5, d2(0, 5) = 1.
    let good = vec![ConvergingPair::new(NodeId(0), NodeId(5), 4)];
    assert!(!counted_failed(check_review(&g1, &g2, &good, &ledger, 2)));
    let bad = vec![ConvergingPair::new(NodeId(0), NodeId(5), 3)];
    assert!(counted_failed(check_review(&g1, &g2, &bad, &ledger, 2)));
    let unchanged = vec![ConvergingPair::new(NodeId(1), NodeId(2), 1)];
    assert!(counted_failed(check_review(
        &g1, &g2, &unchanged, &ledger, 2
    )));
}

#[test]
fn query_checkers_count_corrupted_answers_as_failed() {
    let (g1, g2) = pair_of_graphs();
    assert!(!counted_failed(check_answer(Answer::Exact(3), 3)));
    assert!(!counted_failed(check_answer(
        Answer::Bounded { lb: 1, ub: 4 },
        3
    )));
    assert!(!counted_failed(check_answer(Answer::Unknown, INF)));
    assert!(counted_failed(check_answer(Answer::Exact(2), 3)));
    assert!(counted_failed(check_answer(
        Answer::Bounded { lb: 4, ub: INF },
        3
    )));

    let (d1, d2) = (bfs(&g1, NodeId(0)), bfs(&g2, NodeId(0)));
    let want = seed_topk_truth(NodeId(0), &d1, &d2, 10);
    assert_eq!(want, vec![4, 2]);
    // Seed 0: Δ(0, 5) = 4, Δ(0, 4) = 2, Δ(0, 3) = 0.
    let exact = SeedTopK {
        pairs: vec![
            ConvergingPair::new(NodeId(0), NodeId(5), 4),
            ConvergingPair::new(NodeId(0), NodeId(4), 2),
        ],
        complete: true,
    };
    assert!(!counted_failed(check_seed_topk(
        &exact,
        NodeId(0),
        &d1,
        &d2,
        &want
    )));
    let mut wrong = exact.clone();
    wrong.pairs[1].delta = 1;
    assert!(counted_failed(check_seed_topk(
        &wrong,
        NodeId(0),
        &d1,
        &d2,
        &want
    )));
    let short = SeedTopK {
        pairs: exact.pairs[..1].to_vec(),
        complete: true,
    };
    assert!(counted_failed(check_seed_topk(
        &short,
        NodeId(0),
        &d1,
        &d2,
        &want
    )));
    let partial = SeedTopK {
        complete: false,
        ..short
    };
    assert!(!counted_failed(check_seed_topk(
        &partial,
        NodeId(0),
        &d1,
        &d2,
        &want
    )));
}

#[test]
fn metric_lists_match_benchmark_json() {
    let spec = include_str!("../../BENCHMARK.json");
    for w in Workload::ALL {
        assert!(
            spec.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = spec.matches("\"name\":").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
