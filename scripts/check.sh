#!/usr/bin/env sh
# Repository checks: formatting, lints, and the tier-1 build + test gate.
# Usage: scripts/check.sh [--offline]
# Pass --offline (default in the sandboxed build environment) to forbid
# registry access; the workspace is dependency-free so this always works.
set -eu

cd "$(dirname "$0")/.."

OFFLINE="--offline"
if [ "${1:-}" = "--online" ]; then
    OFFLINE=""
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets $OFFLINE -- -D warnings

# Tier-1 is `cargo build --release && cargo test -q` over the
# `default-members` of Cargo.toml (every crate but catt-sim); this gate runs
# the whole workspace, catt-sim included, in release.
echo "==> tier-1 and catt-sim: cargo build --release && cargo test --workspace"
cargo build --release --workspace $OFFLINE
cargo test --release --workspace $OFFLINE -q

echo "==> guard rails: no panic!/bare assert! on the compile and simulator execution paths"
# The execution path must fail through SimError (the compile path through
# diagnostics), not panics: `catt serve` runs both on the caller's thread.
# Strip test modules (everything from the #[cfg(test)] marker on) before
# grepping; debug_assert! stays allowed (compiled out of release).
for f in crates/sim/src/sm.rs crates/sim/src/mem.rs crates/sim/src/warp.rs \
         crates/sim/src/lib.rs crates/sim/src/cache.rs crates/sim/src/profile.rs \
         crates/sim/src/sanitize.rs crates/sim/src/bytecode.rs \
         crates/core/src/analysis.rs crates/core/src/occupancy.rs \
         crates/core/src/passes.rs crates/core/src/pipeline.rs \
         crates/core/src/transform.rs crates/ir/src/*.rs \
         crates/verify/src/lib.rs \
         crates/verify/src/generate.rs crates/verify/src/oracle.rs \
         crates/verify/src/shrink.rs crates/verify/src/corpus.rs \
         crates/verify/src/frontfuzz.rs \
         crates/core/src/swizzle.rs crates/tune/src/lib.rs \
         crates/frontend/src/lexer.rs crates/frontend/src/parser.rs \
         crates/frontend/src/lib.rs crates/diag/src/lib.rs \
         crates/diag/src/span.rs crates/diag/src/codes.rs \
         crates/diag/src/json.rs; do
    [ -f "$f" ] || continue
    if sed -n '1,/#\[cfg(test)\]/p' "$f" | grep -vE '^[[:space:]]*//' \
        | grep -nE '(^|[^_a-zA-Z])(panic!|assert!|assert_eq!|assert_ne!|unreachable!|todo!|unimplemented!)\(' ; then
        echo "error: panic/assert on the execution path in $f (use SimError or a diagnostic)" >&2
        exit 1
    fi
done

echo "==> configuration enters at the edge: no environment reads in library code"
# Library crates take typed configuration (GpuConfig, ServeConfig, the
# Engine/Pipeline builders, FaultPlan). Only the binary's edge parses
# CATT_* variables. Test modules are stripped as above.
for f in $(find crates/*/src src -name '*.rs'); do
    case "$f" in
        src/bin/catt.rs) continue ;;
    esac
    if sed -n '1,/#\[cfg(test)\]/p' "$f" | grep -vE '^[[:space:]]*//' \
        | grep -nE 'env::(var|set_var|remove_var)' ; then
        echo "error: environment access in $f (parse it in src/bin/catt.rs)" >&2
        exit 1
    fi
done

echo "==> a launch runs on its caller's thread: no threads in the simulator"
# Multi-SM launches simulate their SMs one after another against one
# GlobalMem; the engine's worker pool is the only parallelism. Any path
# into `std::thread` is refused (a `use` of it, `thread::Builder`, a
# bare `spawn`/`scope` imported from it), not only `thread::spawn`;
# `thread_local!` is not a thread. Test modules are stripped as above.
for f in $(find crates/sim/src -name '*.rs'); do
    if sed -n '1,/#\[cfg(test)\]/p' "$f" | grep -vE '^[[:space:]]*//' \
        | grep -nE 'std::thread\b|\bthread::|std::\{[^}]*\bthread\b' ; then
        echo "error: std::thread in $f (the simulator runs on its caller's thread)" >&2
        exit 1
    fi
done

echo "==> one benchmark: no root-level BENCH_*.json"
# BENCHMARK.json is the contract and BENCH_history.jsonl the trajectory;
# a one-off report file next to them is a second schema nobody compares.
if ls BENCH_*.json >/dev/null 2>&1; then
    echo "error: $(echo BENCH_*.json) at the repository root (write reports under target/ or results/)" >&2
    exit 1
fi

echo "==> fuzz smoke: fixed-seed differential campaign + corpus replay"
# Legal-mode translation validation must find nothing, the recorded
# counterexample corpus must replay clean (the --corpus pass does both),
# and both the legal and the --unchecked report must be byte-identical to
# the goldens under tests/golden/ — recorded on the timed oracle, before
# it moved to functional execution, so they pin every verdict and, with
# it, determinism across runs.
FUZZ_OUT_A="${FUZZ_OUT_A:-target/fuzz-smoke-a.txt}"
FUZZ_OUT_B="${FUZZ_OUT_B:-target/fuzz-smoke-b.txt}"
target/release/catt fuzz --seed 1 --iters 200 --corpus tests/corpus > "$FUZZ_OUT_A"
grep -q "corpus replay:" "$FUZZ_OUT_A" || {
    echo "error: catt fuzz skipped the corpus replay" >&2
    exit 1
}
# The golden has no replay lines; compare the report body only.
grep -v '^corpus replay' "$FUZZ_OUT_A" | diff - tests/golden/fuzz-seed1-iters200.txt >&2 || {
    echo "error: catt fuzz report differs from tests/golden/fuzz-seed1-iters200.txt" >&2
    exit 1
}
# --unchecked finds the historical miscompile by design: exit status 1.
target/release/catt fuzz --unchecked --seed 1 --iters 200 > "$FUZZ_OUT_B" || true
diff "$FUZZ_OUT_B" tests/golden/fuzz-unchecked-seed1-iters200.txt >&2 || {
    echo "error: catt fuzz --unchecked report differs from its golden" >&2
    exit 1
}

echo "==> frontend-fuzz smoke: fixed-seed mutational lexer/parser campaign"
# The frontend contract on arbitrary input: no panics, every rejection
# carries an error diagnostic, every span in bounds. Deterministic:
# same seed ⇒ byte-identical report.
FRONT_OUT="${FRONT_OUT:-target/frontfuzz-smoke.txt}"
target/release/catt fuzz --frontend --seed 1 --iters 300 > "$FRONT_OUT"
grep -q "violations .............. 0" "$FRONT_OUT" || {
    echo "error: catt fuzz --frontend found violations (see $FRONT_OUT)" >&2
    exit 1
}
grep -q "rejected with errors" "$FRONT_OUT" || {
    echo "error: catt fuzz --frontend produced no report" >&2
    exit 1
}

echo "==> profile smoke: catt profile emits reports + a valid Chrome trace"
# The CLI validates the trace JSON and re-checks the stall-sum /
# L1-counter reconciliation itself, exiting non-zero on any violation;
# this pass just has to run it and check the artifact exists.
PROFILE_TRACE="${PROFILE_TRACE:-target/profile-smoke-trace.json}"
target/release/catt profile ATAX --trace-out "$PROFILE_TRACE" > /dev/null
[ -s "$PROFILE_TRACE" ] || {
    echo "error: catt profile wrote no trace at $PROFILE_TRACE" >&2
    exit 1
}

echo "==> tune smoke: autotune run with self-check invariants"
# The CLI re-runs TuneReport::self_check on every report (tuned is the
# argmin of the selectable trace, never slower than baseline, static
# CATT or BFTT, swizzle selection backed by the L2 gain) and exits
# non-zero on violation. The JSON summary (DM tuned to
# the tile-major CTA swizzle that pure throttling cannot find) must be
# byte-identical to tests/golden/tune-DM-ATAX.json, recorded when every
# tuner step ran one simulation at a time; it holds no time fields.
TUNE_OUT="${TUNE_OUT:-target/tune-smoke.json}"
TUNE_TXT="${TUNE_TXT:-target/tune-smoke.txt}"
target/release/catt tune DM,ATAX --out "$TUNE_OUT" > "$TUNE_TXT"
diff "$TUNE_OUT" tests/golden/tune-DM-ATAX.json >&2 || {
    echo "error: catt tune summary differs from tests/golden/tune-DM-ATAX.json (see $TUNE_TXT)" >&2
    exit 1
}

echo "==> reproduce: every committed paper table regenerates byte for byte"
# One process, one in-memory engine: the figures share their baseline,
# BFTT and CATT runs. --check writes nothing, prints one line per table
# and exits non-zero naming each drifted table's first differing line
# (analysis_overhead's host-time column is not compared).
target/release/catt reproduce all --check

echo "==> serve smoke: NDJSON daemon answers every line and drains clean"
# A checked-in request batch (good submit, malformed line, unknown kernel,
# zero grid, zero deadline, 2 000 nested parentheses, probes, a repeat of
# the good submit, the good submit re-spaced, shutdown) piped through the
# stdio daemon under an armed chaos plan. The contract: one typed response
# per request line, at least one success and one typed error, the deep
# kernel a located compile error (not a dead daemon), and both repeats
# answered from the cache: ok-2 from the request index, ok-3 (which the
# index does not know) through its program's cache key. They go in a
# second after the rest, so they cannot coalesce onto ok-1 in flight.
SERVE_OUT="${SERVE_OUT:-target/serve-smoke-out.jsonl}"
LATE='"id":"(ok-2|ok-3|bye)"'
{
    grep -v -E "$LATE" scripts/serve-smoke.jsonl
    sleep 1
    grep -E "$LATE" scripts/serve-smoke.jsonl
} | CATT_FAULT_PLAN="delay-job=2" CATT_SERVE_WORKERS=2 \
    target/release/catt serve --stdio > "$SERVE_OUT"
REQ_LINES=$(grep -c . scripts/serve-smoke.jsonl)
RESP_LINES=$(grep -c . "$SERVE_OUT")
if [ "$REQ_LINES" != "$RESP_LINES" ]; then
    echo "error: catt serve answered $RESP_LINES of $REQ_LINES request lines" >&2
    cat "$SERVE_OUT" >&2
    exit 1
fi
grep -q '"id":"ok-1","ok":true' "$SERVE_OUT" || {
    echo "error: catt serve smoke: the valid submit did not succeed" >&2
    cat "$SERVE_OUT" >&2
    exit 1
}
grep -q '"id":"bad-1","ok":false' "$SERVE_OUT" || {
    echo "error: catt serve smoke: malformed line not answered as bad-request" >&2
    cat "$SERVE_OUT" >&2
    exit 1
}
grep '"id":"deep-1","ok":false,"kind":"compile-error"' "$SERVE_OUT" \
    | grep -q '"code":"E023".*"line":3,"col":[0-9]*,"pass":"parse"' || {
    echo "error: catt serve smoke: the deep kernel is not a located E023 compile error" >&2
    cat "$SERVE_OUT" >&2
    exit 1
}
# The cached replies are the computed one: every field but the id, the
# provenance and the two timings (cycles, miss_rate, n, m, transformed,
# kernel) must match ok-1's.
reply_body() {
    grep "\"id\":\"$1\"," "$SERVE_OUT" \
        | sed -E 's/"(id|source|queue_ms|total_ms)":("[^"]*"|[0-9]+),?//g'
}
OK1_BODY="$(reply_body ok-1)"
case "$OK1_BODY" in
*'"cycles":'*'"miss_rate":'*) ;;
*) OK1_BODY="" ;;
esac
for repeat in ok-2 ok-3; do
    grep "\"id\":\"$repeat\",\"ok\":true" "$SERVE_OUT" | grep -q '"source":"cache","queue_ms":0' || {
        echo "error: catt serve smoke: $repeat was not answered from the cache" >&2
        cat "$SERVE_OUT" >&2
        exit 1
    }
    REPEAT_BODY="$(reply_body $repeat)"
    if [ -z "$OK1_BODY" ] || [ "$OK1_BODY" != "$REPEAT_BODY" ]; then
        echo "error: catt serve smoke: the cached reply differs from the computed one" >&2
        echo "  ok-1: $OK1_BODY" >&2
        echo "  $repeat: $REPEAT_BODY" >&2
        exit 1
    fi
done

echo "==> serve soak: daemon state stays bounded under distinct kernels and tenants"
# 50 000 distinct one-line kernels, each under its own tenant name, sent
# one at a time (each reply read before the next line goes in, so none is
# shed), then a `stats` line. Every submission must be computed, and the
# final stats must show the request index within its 4 MiB budget after
# it started over (fewer entries than computed submissions) and at most
# 1 024 tenants.
SOAK_DIR="target/serve-soak"
SOAK_N=50000
rm -rf "$SOAK_DIR"
mkdir -p "$SOAK_DIR"
mkfifo "$SOAK_DIR/in" "$SOAK_DIR/out"
awk -v n="$SOAK_N" 'BEGIN {
    for (i = 0; i < n; i++)
        printf "{\"id\":\"s%d\",\"tenant\":\"t%d\",\"kernel\":\"__global__ void k(float *a) { a[0] = %d.0f; }\",\"grid\":1,\"block\":32}\n", i, i, i
}' > "$SOAK_DIR/requests.jsonl"
target/release/catt serve --stdio < "$SOAK_DIR/in" > "$SOAK_DIR/out" &
SOAK_PID=$!
exec 3> "$SOAK_DIR/in" 4< "$SOAK_DIR/out"
SOAK_COMPUTED=0
while IFS= read -r request; do
    printf '%s\n' "$request" >&3
    IFS= read -r reply <&4 || {
        echo "error: catt serve soak: no reply to $request" >&2
        exit 1
    }
    case "$reply" in
    *'"source":"computed"'*) SOAK_COMPUTED=$((SOAK_COMPUTED + 1)) ;;
    esac
done < "$SOAK_DIR/requests.jsonl"
printf '{"id":"soak-stats","op":"stats"}\n' >&3
IFS= read -r SOAK_STATS <&4 || SOAK_STATS=""
exec 3>&-
wait "$SOAK_PID"
exec 4<&-
soak_stat() {
    printf '%s\n' "$SOAK_STATS" | sed -n -E "s/.*\"$1\":([0-9]+).*/\1/p"
}
INDEX_BYTES="$(soak_stat index_bytes)"
INDEX_ENTRIES="$(soak_stat index_entries)"
TENANTS="$(soak_stat tenants)"
if [ "$SOAK_COMPUTED" != "$SOAK_N" ]; then
    echo "error: catt serve soak computed $SOAK_COMPUTED of $SOAK_N submissions" >&2
    exit 1
fi
if [ -z "$INDEX_BYTES" ] || [ -z "$INDEX_ENTRIES" ] || [ -z "$TENANTS" ] \
    || [ "$INDEX_BYTES" -gt $((4 << 20)) ] || [ "$INDEX_ENTRIES" -ge "$SOAK_COMPUTED" ] \
    || [ "$TENANTS" -gt 1024 ]; then
    echo "error: catt serve soak: daemon state past its bounds: $SOAK_STATS" >&2
    exit 1
fi

echo "==> all checks passed"
