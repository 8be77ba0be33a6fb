#!/usr/bin/env bash
# The one command of the benchmark.
#
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       One run (this is BENCHMARK.json's `command`): builds if needed, runs
#       the workload, prints every metric by name and, as the last line of
#       standard output, the result object.
#
#   benchmark/run.sh [--seed S] [--repeat] [--smoke]
#       One full set: the six workloads untraced, one process each (the
#       engine and the pass memo are process-wide), then the six traced.
#       Records go to benchmark/out/set-seed<S>-a.ndjson.
#       --repeat  runs a second set (…-b.ndjson) of the same build and fails
#                 unless `catt-benchmark compare` finds the two in agreement.
#       --smoke   fmt + clippy + BENCHMARK.json check, then every workload
#                 scaled down (about 20 s of runs); writes nothing.
#
# Run from anywhere; paths are relative to the repository root.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
MANIFEST=benchmark/Cargo.toml
OUT=benchmark/out
WORKLOADS="sim-compute sim-memory tune-sweep serve-cold serve-hot fuzz-oracle"

die() {
    echo "benchmark/run.sh: $*" >&2
    exit 2
}

# Environment policy: library code reads ~30 CATT_* knobs; one left over from
# another session (a cache directory, a fault plan, a worker count) changes
# what is measured. Refuse instead of guessing. (The binary clears them too
# and sets only CATT_ENGINE_PROGRESS=off.)
stray="$(compgen -A export CATT_ || true)"
if [ -n "$stray" ]; then
    die "refusing to run with CATT_* variables set: $(echo $stray)"
fi

# The measured code must be compiled as shipped: the benchmark's release
# profile is a copy of the root's, and a copy can go stale.
[ -f Cargo.toml ] || die "no Cargo.toml in $ROOT: the benchmark builds the repository's crates from source"
release_profile() {
    awk '/^\[profile\.release\]/ { on = 1; next } /^\[/ { on = 0 } on && NF && !/^#/' "$1"
}
if [ "$(release_profile Cargo.toml)" != "$(release_profile $MANIFEST)" ]; then
    die "[profile.release] differs between Cargo.toml and $MANIFEST; copy the root's"
fi

cargo build --release --offline --quiet --manifest-path $MANIFEST >&2
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/catt-benchmark"
[ -x "$BIN" ] || die "no binary at $BIN after the build"

# One run.
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$BIN" run "$@" --out-dir $OUT
    fi
done

# One full set.
SEED=1
REPEAT=0
SMOKE=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) SEED="${2:?--seed needs a value}"; shift 2 ;;
        --repeat) REPEAT=1; shift ;;
        --smoke) SMOKE=1; shift ;;
        *) die "unknown argument \`$1\` (see the header of this script)" ;;
    esac
done

echo "host: nproc $(nproc), $(rustc --version), git $(git rev-parse --short HEAD 2>/dev/null || echo -)"
echo "load: closed loop, 2 clients on the serve workloads, never more than 2 load-generating threads"

if [ $SMOKE = 1 ]; then
    cargo fmt --manifest-path $MANIFEST --check
    cargo clippy --offline --quiet --manifest-path $MANIFEST --all-targets -- -D warnings
    "$BIN" describe | diff - BENCHMARK.json >&2 || die "BENCHMARK.json is not \`catt-benchmark describe\`"
    for trace in 0 1; do
        for w in $WORKLOADS; do
            "$BIN" run --workload "$w" --seed "$SEED" --seconds 0.5 --trace $trace --smoke | sed '$d'
        done
    done
    echo "smoke: every workload ran, every check passed, nothing written"
    exit 0
fi

run_set() {
    local set="$OUT/set-seed$SEED-$1.ndjson"
    mkdir -p $OUT
    : > "$set"
    for trace in 0 1; do
        for w in $WORKLOADS; do
            # The last line (the result object) is in the record already.
            "$BIN" run --workload "$w" --seed "$SEED" --trace $trace --out-dir $OUT | sed '$d'
            if [ $trace = 1 ]; then
                cat "$OUT/$w-seed$SEED-traced.json" >> "$set"
            else
                cat "$OUT/$w-seed$SEED.json" >> "$set"
            fi
        done
    done
    echo "set written to $set (Chrome traces beside it: $OUT/<workload>-seed$SEED.trace.json)"
}

run_set a
if [ $REPEAT = 1 ]; then
    run_set b
    "$BIN" compare "$OUT/set-seed$SEED-a.ndjson" "$OUT/set-seed$SEED-b.ndjson"
fi
