#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload table5_suite|stream_reviews|query_reads \
        [--seed N] [--seconds S] [--trace 0|1] [more cp-perfbench options]

Run it from the root of the repository. The release build goes to
`$CARGO_TARGET_DIR` (default `.bench_build`); Cargo's messages go to stderr,
so the last line of stdout is the workload's result object. A traced run
writes its spans to `$CARGO_TARGET_DIR/traces` unless `--trace-out` says
otherwise. Every `CP_*` variable is removed from the environment, so each
library knob runs at its compiled default. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("CP_")}
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "cp-perfbench")
    args = sys.argv[1:]
    if "--trace-out" not in args:
        args += ["--trace-out", os.path.join(target, "traces")]
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
