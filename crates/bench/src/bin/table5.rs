//! Table 5 — coverage (% of the true top-k converging pairs found) of
//! every single-feature selector at budget m = 100, for each dataset and
//! δ ∈ {Δmax, Δmax−1, Δmax−2}.
//!
//! Shape expectations from the paper: Degree ~0 everywhere; DegDiff weak;
//! DegRel strong only on the dense Actors-like graph; SumDiff > MaxDiff;
//! MaxAvg >= MaxMin as selectors; MMSD the best hybrid overall; IncDeg /
//! IncBet below the landmark methods.

use cp_bench::{pct, print_table, scaled_budget, Options};
use cp_core::experiment::run_kind;
use cp_core::selectors::SelectorKind;

fn main() {
    let opts = Options::from_env();
    let m = scaled_budget(100, opts.scale);
    let slacks = [0u32, 1, 2];
    let suite = SelectorKind::table5_suite();

    let mut header: Vec<String> = vec!["selector".to_string()];
    let mut columns: Vec<Vec<String>> = vec![suite.iter().map(|k| k.name().to_string()).collect()];

    for mut snaps in opts.all_snapshots() {
        // Sweep once at the widest slack; smaller slacks filter it.
        snaps.truth(2);
        for slack in slacks {
            let k = snaps.truth(slack).k();
            header.push(format!("{}\nd=max-{} (k={})", snaps.name, slack, k));
            let mut col = Vec::with_capacity(suite.len());
            for &kind in &suite {
                let row = run_kind(&mut snaps, kind, m, slack, opts.seed);
                if opts.json {
                    println!("{}", serde_json::to_string(&row).unwrap());
                }
                col.push(pct(row.coverage));
            }
            columns.push(col);
        }
    }

    // Transpose columns into rows; bold (uppercase-marked) best per column
    // is left to the reader — plain numbers keep the output parseable.
    let rows: Vec<Vec<String>> = (0..suite.len())
        .map(|i| columns.iter().map(|c| c[i].clone()).collect())
        .collect();
    let header_flat: Vec<String> = header.iter().map(|h| h.replace('\n', " ")).collect();
    let header_refs: Vec<&str> = header_flat.iter().map(|s| s.as_str()).collect();
    print_table(
        &format!(
            "Table 5: coverage % at m = {m} (scale {}, seed {})",
            opts.scale, opts.seed
        ),
        &header_refs,
        &rows,
    );
}
