//! Output checks. Each returns `Err` with the first problem found; the
//! workloads count an op with any problem as failed. All of them run
//! outside the timed regions.

use cp_core::exact::ConvergingPair;
use cp_core::oracle::BudgetLedger;
use cp_core::selectors::{SelectorKind, DEFAULT_LANDMARKS};
use cp_graph::bfs::bfs;
use cp_graph::{distance_decrease, Graph, NodeId};
use cp_query::{Answer, SeedTopK};
use std::collections::HashMap;

/// The exact answer of one snapshot pair as (pair, Δ), sorted by pair. With
/// δ = Δmax − 1 an answer can hold tens of thousands of pairs, so the
/// benchmark keeps this one compact copy (no map, no `ExactTopK`, no hash
/// set per coverage call) to keep its own share of the peak memory small.
pub struct Truth(Vec<((NodeId, NodeId), u32)>);

impl Truth {
    pub fn new(pairs: &[ConvergingPair]) -> Truth {
        let mut v: Vec<_> = pairs.iter().map(|p| (p.pair, p.delta)).collect();
        v.sort_unstable();
        Truth(v)
    }

    /// The paper's coverage of `found`: the share of the answer it holds
    /// (as `cp_core::coverage::coverage`; `found` has distinct pairs).
    pub fn coverage(&self, found: &[ConvergingPair]) -> f64 {
        if self.0.is_empty() {
            return 1.0;
        }
        let hits = found
            .iter()
            .filter(|p| self.delta(p.pair).is_some())
            .count();
        hits as f64 / self.0.len() as f64
    }

    /// The exact Δ of `pair`, if it is in the answer.
    pub fn delta(&self, pair: (NodeId, NodeId)) -> Option<u32> {
        let i = self.0.binary_search_by_key(&pair, |&(p, _)| p).ok()?;
        Some(self.0[i].1)
    }
}

/// Selector families, as the paper's Table 1 splits their budgets and as
/// the per-layer rank times are reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Degree, DegDiff, DegRel and IncDeg: no probes.
    Degree,
    /// MaxMin, MaxAvg: up to `m` `G_t1` rows of dispersion picks.
    Dispersion,
    /// Landmark and hybrid selectors: `l` landmarks in both snapshots.
    Landmark,
    /// IncBet: no probes, exact Brandes betweenness in `G_t2`.
    IncBet,
}

impl Family {
    pub fn of(kind: SelectorKind) -> Family {
        match kind {
            SelectorKind::Degree
            | SelectorKind::DegDiff
            | SelectorKind::DegRel
            | SelectorKind::IncDeg
            | SelectorKind::Random => Family::Degree,
            SelectorKind::MaxMin | SelectorKind::MaxAvg => Family::Dispersion,
            SelectorKind::IncBet => Family::IncBet,
            _ => Family::Landmark,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Family::Degree => "degree",
            Family::Dispersion => "dispersion",
            Family::Landmark => "landmark",
            Family::IncBet => "incbet",
        }
    }

    /// The most Generation-phase SSSPs the family may charge (Table 1:
    /// degree 0, dispersion `m`, landmark/hybrid `2l`).
    pub fn generation_cap(self, m: u64) -> u64 {
        match self {
            Family::Degree | Family::IncBet => 0,
            Family::Dispersion => m,
            Family::Landmark => 2 * DEFAULT_LANDMARKS as u64,
        }
    }
}

/// Checks the SSSP ledger against the `2m` cap and the family's
/// Generation/TopK shape.
pub fn check_ledger(ledger: &BudgetLedger, m: u64, family: Family) -> Result<(), String> {
    if ledger.total() > 2 * m {
        return Err(format!("ledger {} exceeds 2m = {}", ledger.total(), 2 * m));
    }
    let cap = family.generation_cap(m);
    if ledger.generation > cap {
        return Err(format!(
            "{} selector charged {} generation SSSPs, Table 1 allows {cap}",
            family.name(),
            ledger.generation
        ));
    }
    Ok(())
}

/// A budgeted `run_pipeline` op: every reported pair must be in the exact
/// answer with the same Δ, and the ledger must keep the Table-1 shape.
pub fn check_pipeline_op(
    truth: &Truth,
    pairs: &[ConvergingPair],
    ledger: &BudgetLedger,
    m: u64,
    family: Family,
) -> Result<(), String> {
    for p in pairs {
        match truth.delta(p.pair) {
            Some(d) if d == p.delta => {}
            Some(d) => return Err(format!("pair {:?}: Δ {} but exact Δ {d}", p.pair, p.delta)),
            None => {
                return Err(format!(
                    "pair {:?} (Δ {}) not in the exact answer",
                    p.pair, p.delta
                ))
            }
        }
    }
    check_ledger(ledger, m, family)
}

/// The Δ the query layer must admit for a pair whose distances are `d1`
/// and `d2`: pairs disconnected in the first snapshot count as 0.
pub fn delta_truth(d1: u32, d2: u32) -> u32 {
    distance_decrease(d1, d2).unwrap_or(0)
}

/// A stream review: every reported `(u, v, Δ)` must re-check with a plain
/// BFS on the previous and the current epoch graph, and the review's
/// ledger must respect `2m` and the landmark shape.
pub fn check_review(
    g1: &Graph,
    g2: &Graph,
    pairs: &[ConvergingPair],
    ledger: &BudgetLedger,
    m: u64,
) -> Result<(), String> {
    let mut by_source: HashMap<NodeId, Vec<&ConvergingPair>> = HashMap::new();
    for p in pairs {
        by_source.entry(p.pair.0).or_default().push(p);
    }
    for (u, ps) in by_source {
        let (d1, d2) = (bfs(g1, u), bfs(g2, u));
        for p in ps {
            let v = p.pair.1.index();
            match distance_decrease(d1[v], d2[v]) {
                Some(d) if d == p.delta && d > 0 => {}
                other => {
                    return Err(format!(
                        "pair {:?}: reported Δ {} but BFS gives {other:?}",
                        p.pair, p.delta
                    ))
                }
            }
        }
    }
    check_ledger(ledger, m, Family::Landmark)
}

/// A point-query answer must admit the BFS truth.
pub fn check_answer(answer: Answer, truth: u32) -> Result<(), String> {
    if answer.admits(truth) {
        Ok(())
    } else {
        Err(format!(
            "answer {answer:?} does not admit the true value {truth}"
        ))
    }
}

/// The exact per-seed top-`k` Δ sequence of seed `u`, from its BFS rows.
pub fn seed_topk_truth(u: NodeId, d1: &[u32], d2: &[u32], k: usize) -> Vec<u32> {
    let mut want: Vec<u32> = (0..d1.len())
        .filter(|&v| v != u.index())
        .map(|v| delta_truth(d1[v], d2[v]))
        .filter(|&d| d >= 1)
        .collect();
    want.sort_unstable_by(|a, b| b.cmp(a));
    want.truncate(k);
    want
}

/// A per-seed top-k answer against the seed's BFS rows: every pair must
/// carry its true Δ, and a `complete` answer must match the exact per-seed
/// top-k Δ sequence `want` (see [`seed_topk_truth`]).
pub fn check_seed_topk(
    ans: &SeedTopK,
    u: NodeId,
    d1: &[u32],
    d2: &[u32],
    want: &[u32],
) -> Result<(), String> {
    for p in &ans.pairs {
        let v = if p.pair.0 == u { p.pair.1 } else { p.pair.0 };
        let d = delta_truth(d1[v.index()], d2[v.index()]);
        if d != p.delta {
            return Err(format!(
                "seed {u:?}: pair {:?} Δ {} but BFS gives {d}",
                p.pair, p.delta
            ));
        }
    }
    let got: Vec<u32> = ans.pairs.iter().map(|p| p.delta).collect();
    if ans.complete && got != want {
        return Err(format!(
            "seed {u:?}: complete answer Δs {got:?}, exact {want:?}"
        ));
    }
    Ok(())
}

/// An order-sensitive fingerprint of a pair list, for cross-pass output
/// identity.
pub fn fingerprint(pairs: &[ConvergingPair]) -> u64 {
    pairs.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        let x = (u64::from(p.pair.0 .0) << 40) ^ (u64::from(p.pair.1 .0) << 8) ^ u64::from(p.delta);
        (h ^ x).wrapping_mul(0x0100_0000_01b3)
    })
}
