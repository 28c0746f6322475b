//! `cp-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`:
//! runs one workload and prints its result object as the last line of
//! stdout (the summary and, traced, the per-layer table go to stderr).

use cp_perfbench::{run, Args, USAGE};

fn main() {
    // Every library knob runs at its compiled default: the `CP_*`
    // environment overrides are cleared before any library code reads them
    // (and before any thread exists).
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CP_") {
            std::env::remove_var(key);
        }
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cp-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    println!("{}", report.to_json());
}
