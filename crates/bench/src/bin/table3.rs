//! Table 3 — characteristics of the pair graphs `G^p_k`: for each dataset
//! and each δ ∈ {Δmax, Δmax−1, Δmax−2}, the number of answer pairs, the
//! number of distinct endpoints, and the size of the greedy vertex cover
//! ("maxcover").

use cp_bench::{print_table, Options};
use cp_core::experiment::gpk_stats;

fn main() {
    let opts = Options::from_env();
    let mut rows = Vec::new();
    for mut snaps in opts.all_snapshots() {
        // Sweep once at the widest slack; smaller slacks filter it.
        snaps.truth(2);
        for slack in [0u32, 1, 2] {
            let s = gpk_stats(&mut snaps, slack);
            if opts.json {
                println!("{}", serde_json::to_string(&s).unwrap());
            }
            rows.push(vec![
                s.dataset,
                format!("max-{}", s.slack),
                s.delta.to_string(),
                s.endpoints.to_string(),
                s.pairs.to_string(),
                s.maxcover.to_string(),
            ]);
        }
    }
    print_table(
        &format!(
            "Table 3: G^p_k characteristics and greedy cover sizes (scale {})",
            opts.scale
        ),
        &[
            "dataset",
            "delta",
            "value",
            "endpoints",
            "pairs",
            "maxcover",
        ],
        &rows,
    );
    println!(
        "\nPaper shape check: maxcover << endpoints <= 2*pairs on every row;\n\
         coverable with a handful of SSSP sources even when k is large."
    );
}
