#!/usr/bin/env bash
# Offline CI, split into named stages with per-stage wall-clock timing.
#
#   ci.sh [--fast] [--stage NAME]
#
#   --fast        skip the soak stages (chaos, traced-chaos)
#   --stage NAME  run a single stage by name
#
# Stages, in order:
#
#   fmt           cargo fmt --check
#   clippy        cargo clippy --workspace --all-targets -- -D warnings
#   build         cargo build --release
#   test          cargo test --no-fail-fast -- --quiet (every test binary
#                 runs), then a per-binary pass/fail table
#   lint          cl-lint --deny-warnings (regenerates results/lint.md)
#   bench-smoke   CL_BENCH_SMOKE=1 cargo bench (compile+smoke every target)
#   chaos         cl-chaos 25-round fault-injection soak -> target/ci-chaos
#   trace         cl-trace --stable --workers 2 (regenerates results/trace.md)
#   traced-chaos  CL_TRACE=1 soak; asserts target/chaos-traced/chaos-trace.json
#   flow          cl-flow --stable --workers 2 (regenerates results/flow.md)
#   race          cl-race --stable --workers 2 (regenerates results/race.md)
#   sched         cl-sched OOO DAG fuzz + seeded-bug catch (regenerates results/sched.md)
#   serve         cl-load 64-tenant serving soak (regenerates results/serve.md)
#   coarsen       cl-coarsen --stable --workers 2 (regenerates results/coarsen.md)
#   tune          cl-tune --stable --workers 2 (regenerates results/tune.md)
#   bench-gate    cl-bench --fast vs BENCH_BASELINE.json -> BENCH.json
#   drift         git diff --exit-code results/ (regenerated reports committed?)
#
# The drift stage is why lint/trace/flow/race/serve pin --workers 2 and --stable:
# the committed reports must be byte-identical on any machine. Regenerate
# them the same way before committing a change that shifts their contents.
set -euo pipefail
cd "$(dirname "$0")"

FAST=0
ONLY=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --fast) FAST=1 ;;
        --stage)
            shift
            ONLY="${1:?--stage needs a name}"
            ;;
        --help | -h)
            sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'
            exit 0
            ;;
        *)
            echo "unknown argument: $1" >&2
            exit 2
            ;;
    esac
    shift
done

SUMMARY=()
MATCHED=0
CURRENT_STAGE=""
trap '[[ -n "$CURRENT_STAGE" ]] && echo "ci.sh: stage $CURRENT_STAGE FAILED" >&2' ERR

# run_stage NAME [soak] — run stage_NAME (dashes mapped to underscores),
# timing it and honouring --stage / --fast.
run_stage() {
    local name="$1" kind="${2:-}"
    if [[ -n "$ONLY" && "$ONLY" != "$name" ]]; then
        return 0
    fi
    MATCHED=1
    if [[ "$FAST" == 1 && "$kind" == soak ]]; then
        echo "== $name (skipped: --fast)"
        SUMMARY+=("$name|-|skipped")
        return 0
    fi
    echo "== $name"
    CURRENT_STAGE="$name"
    local t0=$SECONDS
    "stage_${name//-/_}"
    SUMMARY+=("$name|$((SECONDS - t0))s|ok")
    CURRENT_STAGE=""
}

stage_fmt() { cargo fmt --check; }

stage_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }

stage_build() { cargo build --release; }

# --no-fail-fast: one failing test binary must not stop the oracle binaries
# after it from running; cargo still exits nonzero at the end, and so does
# the stage. The test output is as terse as `cargo test -q`, but cargo's
# own `Running`/`Doc-tests` lines stay (its -q drops them): they name each
# binary for the table printed after the run.
stage_test() {
    local log=target/ci-test.log status=0
    mkdir -p target
    cargo test --no-fail-fast -- --quiet 2>&1 | tee "$log" || status=$?
    test_table "$log"
    return "$status"
}

# test_table LOG — one row per test binary in a `cargo test` log: its name,
# ok/FAILED and its passed/failed/ignored counts. A binary that printed no
# `test result:` line (it crashed or did not start) is FAILED.
test_table() {
    awk '
        function flush() {
            if (name == "") return
            if (result == "") { result = "FAILED"; counts = "(no result line)" }
            if (result != "ok") bad++
            printf "  %-56s %-7s %s\n", name, result, counts
            n++; name = ""; result = ""; counts = ""
        }
        BEGIN { print "Test binaries:"; printf "  %-56s %-7s %s\n", "binary", "result", "passed/failed/ignored" }
        /^ *Running / {
            flush()
            bin = $NF; sub(/^\(/, "", bin); sub(/\)$/, "", bin)
            sub(/.*\//, "", bin); sub(/-[0-9a-f]+$/, "", bin)
            src = ($2 == "unittests") ? $3 : $2
            name = bin " (" src ")"
        }
        /^ *Doc-tests / { flush(); name = "doc " $2 }
        /^test result: / && name != "" {
            result = ($3 == "ok.") ? "ok" : "FAILED"
            counts = $4 "/" $6 "/" $8
        }
        END {
            flush()
            printf "  %d binaries, %d failed\n", n, bad
        }
    ' "$1"
}

stage_lint() { cargo run --release --quiet --bin cl-lint -- --deny-warnings; }

# Every `cargo bench` target must still compile and run. The smoke profile
# (3 samples, 10ms/50ms budgets) proves that without paying full
# measurement time.
stage_bench_smoke() { CL_BENCH_SMOKE=1 cargo bench; }

# Soak output goes to target/, not results/: its report carries wall-clock
# and geometry noise, while results/ holds only committed deterministic
# reports guarded by the drift stage.
stage_chaos() {
    cargo run --release --quiet --bin cl-chaos -- --rounds 25 --seed 7 --out target/ci-chaos
}

stage_trace() {
    cargo run --release --quiet --bin cl-trace -- --stable --workers 2
}

stage_traced_chaos() {
    CL_TRACE=1 cargo run --release --quiet --bin cl-chaos -- \
        --rounds 5 --seed 7 --out target/chaos-traced
    local trace=target/chaos-traced/chaos-trace.json
    if [[ ! -s "$trace" ]]; then
        echo "traced soak produced no spans: $trace missing or empty" >&2
        return 1
    fi
    cargo run --release --quiet --bin cl-bench -- --check-json "$trace"
}

stage_flow() {
    cargo run --release --quiet --bin cl-flow -- --stable --workers 2
}

# Multi-queue happens-before analysis: clean scenarios must classify with
# zero racy pairs, every seeded race must be caught by both the static and
# vector-clock layers, and the Figure 9 reorder-opportunity set must be
# nonempty. The report is deterministic (no wall-clock cells), so it is
# drift-tracked like flow.md.
stage_race() {
    cargo run --release --quiet --bin cl-race -- --stable --workers 2
}

# Out-of-order scheduler certification: randomized command DAGs replayed on
# the native and both modeled devices must be bit-exact against the
# in-order reference with completion order linearizing the event graph, and
# every seeded scheduler bug (CL_SCHED_BUG) must be caught. Nonzero exit on
# any miss. --stable keeps results/sched.md drift-tracked.
stage_sched() {
    cargo run --release --quiet --bin cl-sched -- --stable --out results
}

# Multi-tenant serving soak: 64 concurrent tenants (8 seeded-faulty) over
# the shared pool. Nonzero exit on any isolation violation (clean tenant
# not bit-exact, wrong contained error, over-budget stall) or any failed
# overload scenario (quota refusal, deterministic shedding, eviction,
# retry). --stable --workers 2 keeps results/serve.md drift-tracked.
stage_serve() {
    cargo run --release --quiet --bin cl-load -- \
        --tenants 64 --faulty 8 --stable --workers 2
}

# Thread-coarsening certification: every registry launch gets a legality
# verdict and static cost-model decision; the seeded illegal/unknown
# fixtures must be classified exactly and refused under a forced factor.
# Nonzero exit on any miss. --stable masks measured-timing cells so
# results/coarsen.md stays drift-tracked; run without --stable to also
# check the predicted-vs-measured agreement band.
stage_coarsen() {
    cargo run --release --quiet --bin cl-coarsen -- --stable --workers 2 --out results
}

# Autotuner convergence gate: the Table II sweep plus skewed geometries
# must converge within the pinned trial budget to within 5% of the
# exhaustively-measured best config, and a cold-cache second process must
# reuse the persisted decisions with zero additional trials. Nonzero exit
# on any miss. --stable masks measured cells so results/tune.md stays
# drift-tracked (the prior and trial schedule are deterministic).
stage_tune() {
    cargo run --release --quiet --bin cl-tune -- --stable --workers 2 --out results
}

# The performance gate: run the microbenchmark suite and compare against
# the committed baseline; a median regression beyond max(abs floor, k*MAD)
# exits nonzero. BENCH.json is the machine-readable run artifact. On
# failure, echo the baseline's provenance header so the log names the
# machine/revision the thresholds came from (refresh with
# `cl-bench --refresh-baseline`).
stage_bench_gate() {
    if ! cargo run --release --quiet --bin cl-bench -- --fast; then
        echo "bench-gate: baseline provenance:" >&2
        grep -o '"provenance": {[^}]*}' BENCH_BASELINE.json >&2 ||
            echo "bench-gate: (no provenance header in BENCH_BASELINE.json)" >&2
        return 1
    fi
}

stage_drift() {
    if ! git diff --exit-code -- results/; then
        echo "results/ drifted: regenerate with the lint/trace/flow stages and commit" >&2
        return 1
    fi
}

run_stage fmt
run_stage clippy
run_stage build
run_stage test
run_stage lint
run_stage bench-smoke
run_stage chaos soak
run_stage trace
run_stage traced-chaos soak
run_stage flow
run_stage race
run_stage sched
run_stage serve
run_stage coarsen
run_stage tune
run_stage bench-gate
run_stage drift

if [[ -n "$ONLY" && "$MATCHED" == 0 ]]; then
    echo "unknown stage: $ONLY" >&2
    exit 2
fi

echo
echo "Stage summary:"
printf '  %-14s %8s  %s\n' stage time status
for row in "${SUMMARY[@]}"; do
    IFS='|' read -r name secs status <<<"$row"
    printf '  %-14s %8s  %s\n' "$name" "$secs" "$status"
done
echo "CI green."
