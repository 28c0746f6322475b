#!/usr/bin/env bash
# Tier-1 CI gate: build, tests, lints, formatting. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
# `default-members` makes this the facade plus every crates/* suite:
# cp-graph's kernel and Brandes properties, cp-exec's scheduler
# and panic containment, cp-query's differential conformance and
# 8-reader stress, the generators, the classifier and the harness
# arguments.
cargo test -q

echo "==> cargo test -q [CP_ROW_CACHE=0]"
# Matrix leg: no rows resident — every read of a paid row recomputes it
# and donor chaining switches off, in every crate (tests that assert
# row-cache hits pin their own budget). The scalar BFS and the
# per-element Δ loop are test references, checked by the default run
# above.
CP_ROW_CACHE=0 cargo test -q

echo "==> cargo test -q [CP_THREADS=8]"
# Matrix leg: a wide persistent pool under every conformance suite —
# the executor's work-stealing schedule must be invisible in every
# result.
CP_THREADS=8 cargo test -q -p cp-core -p cp-stream

echo "==> cargo test --release [perfbench self-tests]"
# The benchmark is its own Cargo package, built from this checkout's
# library crates: a library API change that breaks it fails here rather
# than only when the benchmark runs. `--locked` keeps its lockfile as
# committed; the build stays under target/.
CARGO_TARGET_DIR=target/perfbench \
    cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> CLI determinism [every selector and --exact, default env vs each runtime knob]"
# The bit-identical contract at the user surface: for every selector
# (IncBet, whose exact Brandes fans its source blocks out on the
# oracle's width, included) and for the exact answer (`--exact`, MS-BFS
# waves over the pool, under both its top-k cut and its threshold cut
# `--delta-min 2`) the root CLI prints byte-identical pairs with no
# knob set and with each of the two runtime knobs moved off its default:
# one lane sweeping every block, eight lanes, and no row cache.
det_dir="$(mktemp -d -t cp_determinism.XXXXXX)"
python3 - "$det_dir/graph.txt" <<'PY'
import random
import sys

# A seeded growing graph: a random recursive tree (many leaves) plus
# random chords, one `u v time` event per line.
rng = random.Random(2015)
n = 600
events = [(v, rng.randrange(v)) for v in range(1, n)]
events += [(rng.randrange(n), rng.randrange(n)) for _ in range(900)]
rng.shuffle(events)
with open(sys.argv[1], "w") as f:
    for t, (u, v) in enumerate(events):
        f.write(f"{u} {v} {t}\n")
PY
for sel in degree degdiff degrel maxmin maxavg sumdiff maxdiff mmsd mmmd masd mamd incdeg incbet random exact exact-delta2; do
    case "$sel" in
        exact) mode=(--exact) ;;
        exact-delta2) mode=(--exact --delta-min 2) ;;
        *) mode=(--selector "$sel") ;;
    esac
    for knob in default CP_THREADS=1 CP_THREADS=8 CP_ROW_CACHE=0; do
        # `default` expands to no assignment at all: every knob unset.
        env -u CP_THREADS -u CP_ROW_CACHE ${knob#default} \
            cargo run --release -q -- "$det_dir/graph.txt" \
            --t1 0.8 --t2 1.0 --m 40 --k 200 "${mode[@]}" \
            > "$det_dir/$sel.$knob.tsv" 2> "$det_dir/stderr" || {
            cat "$det_dir/stderr" >&2
            rm -rf "$det_dir"
            exit 1
        }
        if [ "$(wc -l < "$det_dir/$sel.$knob.tsv")" -le 1 ] || ! diff -q "$det_dir/$sel.default.tsv" "$det_dir/$sel.$knob.tsv" > /dev/null; then
            echo "ci.sh: ${mode[*]} printed no pairs, or different pairs under $knob than with no knob set" >&2
            rm -rf "$det_dir"
            exit 1
        fi
    done
done
rm -rf "$det_dir"

echo "==> point_queries determinism [default env vs CP_THREADS=1 and 8; CP_ROW_CACHE=0 keeps landmark bounds]"
# The query layer under the same contract: the example's per-epoch probe
# tallies, pair answers and per-seed top-k print byte-identical with no
# knob set, with one lane and with eight. With the row cache off, every
# probe line must still count Bounded answers: the epoch's landmarks are
# paid rows, recomputed for the query index when the cache evicted them.
pq_dir="$(mktemp -d -t cp_point_queries.XXXXXX)"
for knob in default CP_THREADS=1 CP_THREADS=8 CP_ROW_CACHE=0; do
    env -u CP_THREADS -u CP_ROW_CACHE ${knob#default} \
        cargo run --release -q --example point_queries \
        > "$pq_dir/$knob.txt" 2> "$pq_dir/stderr" || {
        cat "$pq_dir/stderr" >&2
        rm -rf "$pq_dir"
        exit 1
    }
done
for knob in CP_THREADS=1 CP_THREADS=8; do
    if ! diff -q "$pq_dir/default.txt" "$pq_dir/$knob.txt" > /dev/null; then
        echo "ci.sh: point_queries printed different answers under $knob than with no knob set" >&2
        rm -rf "$pq_dir"
        exit 1
    fi
done
probe_lines="$(grep -c 'probes against epoch' "$pq_dir/CP_ROW_CACHE=0.txt" || true)"
bounded_lines="$(grep -cE 'probes against epoch [0-9]+: [0-9]+ exact, [1-9][0-9]* bounded' \
    "$pq_dir/CP_ROW_CACHE=0.txt" || true)"
if [ "$probe_lines" -lt 1 ] || [ "$probe_lines" != "$bounded_lines" ]; then
    echo "ci.sh: under CP_ROW_CACHE=0 a point_queries epoch answered no pair Bounded" >&2
    rm -rf "$pq_dir"
    exit 1
fi
rm -rf "$pq_dir"

echo "==> pipeline_baseline release smoke (CP_THREADS=2, --scale=0.1)"
smoke_out="$(mktemp -t bench_pipeline_smoke.XXXXXX.json)"
CP_THREADS=2 cargo run --release -q -p cp-bench --bin pipeline_baseline -- \
    --scale=0.1 --out="$smoke_out" > /dev/null
# The persistent executor must make threads a non-loss: no dataset's
# multi-thread rung may lose to its single-thread twin beyond the
# noise allowance.
if grep -q '"thread_regression": true' "$smoke_out"; then
    echo "ci.sh: a dataset regressed when threaded — the persistent pool is not paying off" >&2
    rm -f "$smoke_out"
    exit 1
fi
grep -q '"thread_regression": false' "$smoke_out" || {
    echo "ci.sh: thread_regression missing from the baseline JSON" >&2
    rm -f "$smoke_out"
    exit 1
}
# And work must actually migrate between lanes: the summed steal count
# over all sweeps is nonzero.
grep -q '"exec_steals": [1-9]' "$smoke_out" || {
    echo "ci.sh: no executor batch ever stole work between lanes" >&2
    rm -f "$smoke_out"
    exit 1
}
# The default Δ-scan must actually exercise chunk skipping somewhere:
# at least one phase-1 sweep reports a nonzero
# scan_chunks_skipped.
grep -q '"scan_chunks_skipped": [1-9]' "$smoke_out" || {
    echo "ci.sh: no dataset skipped any Δ-scan chunks" >&2
    rm -f "$smoke_out"
    exit 1
}
# The streaming ladder must actually chain: at least one chained review
# sequence serves charged rows straight from imported donor rows.
grep -q '"donor_chain_hits": [1-9]' "$smoke_out" || {
    echo "ci.sh: no streaming review ever hit a chained donor row" >&2
    rm -f "$smoke_out"
    exit 1
}
# The query ladder must produce partial-information answers: at least
# one point query answered Bounded (not just Exact/Unknown).
grep -q '"query_bounded_answers": [1-9]' "$smoke_out" || {
    echo "ci.sh: the query ladder never produced a Bounded answer" >&2
    rm -f "$smoke_out"
    exit 1
}
# And the query path must be budget-free: the ladder's summed ledger
# difference against its reader-free twin is exactly zero.
grep -q '"query_budget_charged": 0,' "$smoke_out" || {
    echo "ci.sh: concurrent queries charged the review ledger" >&2
    rm -f "$smoke_out"
    exit 1
}
rm -f "$smoke_out"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> ci.sh: all green"
