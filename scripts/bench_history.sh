#!/usr/bin/env bash
# Append one line to BENCH_history.jsonl — the committed perf trajectory —
# from a finished result set of the benchmark.
#
#   benchmark/run.sh --seed S && scripts/bench_history.sh [--seed S]
#
# The line holds the commit the set was built from (`-dirty` when the
# working tree differs from it), the host (`nproc`, `rustc --version`), the
# seed, and per workload the five end-to-end metrics of its untraced run
# (each already a median or a whole-run rate; see benchmark/README.md).
# Numbers from different hosts do not compare: read a line against its
# neighbours with the same `nproc` and `rustc`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

SEED=1
if [ "${1:-}" = "--seed" ]; then
    SEED="${2:?--seed needs a value}"
fi
SET="benchmark/out/set-seed$SEED-a.ndjson"
[ -s "$SET" ] || {
    echo "scripts/bench_history.sh: no $SET (run benchmark/run.sh --seed $SEED first)" >&2
    exit 2
}

# The records are one flat JSON object per line, written by the benchmark
# itself, so a sed pattern per field is enough (no jq on a bare runner).
field() { sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"; }
workloads=""
while IFS= read -r rec; do
    case "$rec" in *'"trace":0'*) ;; *) continue ;; esac
    name="$(printf '%s' "$rec" | sed -n 's/^{"workload":"\([^"]*\)".*/\1/p')"
    entry=""
    for m in setup_s work_per_s lat_p50_us lat_tail_us peak_heap_mb; do
        entry="$entry${entry:+,}\"$m\":$(printf '%s' "$rec" | field "$m")"
    done
    workloads="$workloads${workloads:+,}\"$name\":{$entry}"
done < "$SET"
[ -n "$workloads" ] || {
    echo "scripts/bench_history.sh: $SET holds no untraced record" >&2
    exit 2
}

GIT="$(git rev-parse --short HEAD)"
git diff --quiet HEAD -- . ':!BENCH_history.jsonl' || GIT="$GIT-dirty"
printf '{"git":"%s","nproc":%s,"rustc":"%s","seed":%s,"workloads":{%s}}\n' \
    "$GIT" "$(nproc)" "$(rustc --version)" "$SEED" "$workloads" >> BENCH_history.jsonl
tail -n 1 BENCH_history.jsonl
