#!/usr/bin/env bash
# A/A calibration: two sets of full runs of ONE build, on alternating seeds
# (set A takes the odd seeds, set B the even ones), then
#   - bench/baseline.json is the median set over all runs, stamped with the
#     commit — the first point of the trajectory;
#   - bench/bounds.json derives from its spreads the bound of every
#     (end-to-end metric, workload) pair, and the one bound per metric that
#     BENCHMARK.json carries;
#   - `perf compare A B` must print no `regressed` and no `unresolved` row,
#     and bench/aa.json records both sets' min/median/max and spreads per
#     pair, the drift between their medians and the bound in force;
#   - the benchmark's own tests run last: they fail until BENCHMARK.json
#     carries the bounds just derived.
# Raw per-run files stay under the (ignored) build directory.
#
#   RUNS=5 bench/aa.sh    # ≈ 2 × RUNS × 4 × 50 s
#
# Run it on an otherwise idle machine: a compiler next to it is noise.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${RUNS:-5}"
MANIFEST=bench/perf/Cargo.toml

cargo build --release --offline --manifest-path "$MANIFEST"
# Without CARGO_TARGET_DIR, cargo builds into the package's own directory,
# and `perf` writes under ./target.
PERF="${CARGO_TARGET_DIR:-bench/perf/target}/release/perf"
RAW="${CARGO_TARGET_DIR:-target}/perf/aa"
COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

rm -rf "$RAW"
mkdir -p "$RAW"
for k in $(seq 1 "$RUNS"); do
  for set in a b; do
    seed=$((2 * k - 1))
    [ "$set" = b ] && seed=$((2 * k))
    echo "== set $set, run $k of $RUNS, seed $seed =="
    # The window length is the benchmark's own (BENCHMARK.json run_seconds).
    "$PERF" --mode all --seed "$seed" --out "$RAW/${set}_$k.json" >"$RAW/${set}_$k.log"
  done
done

"$PERF" summarize --commit "$COMMIT" --out "$RAW/A.json" "$RAW"/a_*.json
"$PERF" summarize --commit "$COMMIT" --out "$RAW/B.json" "$RAW"/b_*.json
"$PERF" summarize --commit "$COMMIT" --out bench/baseline.json "$RAW"/a_*.json "$RAW"/b_*.json
"$PERF" bounds bench/baseline.json --out bench/bounds.json
"$PERF" compare "$RAW/A.json" "$RAW/B.json" --bounds bench/bounds.json --write-aa bench/aa.json
cargo test --release --offline --manifest-path "$MANIFEST"
