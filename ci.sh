#!/usr/bin/env bash
# Offline CI, split into named stages with per-stage wall-clock timing.
#
#   ci.sh [--fast] [--stage NAME]
#   ci.sh pair REV
#
#   --fast        skip the soak stages (chaos, traced-chaos)
#   --stage NAME  run a single stage by name
#   pair REV      the pair gate alone: 10 alternating runs of REV's
#                 cl-bench (parent) and the working tree's (change), then
#                 cl-bench --pair; exits 1 on a regression. REV's binary
#                 is built from `git archive REV` under target/pair/; runs
#                 land in target/pair/runs with each run's host steal share
#
# Stages, in order:
#
#   fmt           cargo fmt --check
#   clippy        cargo clippy --workspace --all-targets -- -D warnings
#   build         cargo build --release
#   test          cargo test --no-fail-fast -- --quiet (every test binary
#                 runs), then a per-binary pass/fail table
#   test-release  the integration tests again in the release profile, with
#                 the same table (release-only defaults such as coarse
#                 faulting-gid reports get exercised)
#   lint          cl-lint --deny-warnings (regenerates results/lint.md), then
#                 the knob census: every CL_* name README.md or DESIGN.md
#                 documents must be read by the code; then the one-parser
#                 check: no file under crates/harness/src/bin may read
#                 std::env::args itself (flags go through cl_harness::cli);
#                 then the env-mutation check: no Rust file under crates/,
#                 tests/ or examples/ may call set_var or remove_var (tests
#                 pass a closure to a `*_from_vars` reader); then the
#                 one-lane-body check: no function under crates/kernels/src
#                 or examples may take or return VecF32
#   chaos         cl-chaos 25-round fault-injection soak -> target/ci-chaos
#   trace         cl-trace --stable --workers 2 (regenerates results/trace.md)
#   traced-chaos  CL_TRACE=1 soak; asserts target/chaos-traced/chaos-trace.json
#   flow          cl-flow --workers 2 (regenerates results/flow.md)
#   race          cl-race --workers 2 (regenerates results/race.md)
#   sched         cl-sched OOO DAG fuzz + seeded-bug catch (regenerates results/sched.md)
#   serve         cl-load 64-tenant serving soak (regenerates results/serve.md)
#   coarsen       cl-coarsen --stable --workers 2 (regenerates results/coarsen.md)
#   tune          cl-tune --stable --workers 2 (regenerates results/tune.md)
#   bench-gate    `pair HEAD` twice: the plain pair must pass, and a pair
#                 whose change side runs with --inject-regression 2 must
#                 fail (the gate can fail, and only on a real change)
#   drift         git diff --exit-code results/ (regenerated reports committed?)
#
# The drift stage is why lint/trace/flow/race/serve pin --workers 2, and why
# the harnesses whose reports carry wall-clock cells run --stable: the
# committed reports must be byte-identical on any machine. Regenerate them
# the same way before committing a change that shifts their contents.
set -euo pipefail
cd "$(dirname "$0")"

FAST=0
ONLY=""
PAIR_REV=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --fast) FAST=1 ;;
        --stage)
            shift
            ONLY="${1:?--stage needs a name}"
            ;;
        pair)
            shift
            PAIR_REV="${1:?pair needs a revision}"
            ;;
        --help | -h)
            # The leading comment block, up to the first non-comment line.
            awk 'NR > 1 { if (!/^#/) exit; sub(/^# ?/, ""); print }' "$0"
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

# The integration tests in the release profile: release builds keep their
# own defaults (coarse faulting-gid reports, no debug contract gate), and
# each test asserts its profile's contract.
stage_test_release() {
    local log=target/ci-test-release.log status=0
    mkdir -p target
    cargo test --release --no-fail-fast -p integration-tests -- --quiet 2>&1 |
        tee "$log" || status=$?
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

stage_lint() {
    cargo run --release --quiet --bin cl-lint -- --deny-warnings
    knob_census
    one_flag_parser
    no_env_mutation
    one_lane_body
    blocks_only_for_probes
}

# one_flag_parser — fail when a harness binary reads its command line
# itself: `cl_harness::cli` is the one flag parser, so every binary keeps
# the same usage, --help and exit-code contract.
one_flag_parser() {
    local hits
    hits=$(grep -rn 'env::args' crates/harness/src/bin || true)
    if [[ -n "$hits" ]]; then
        echo "harness binaries must parse flags through cl_harness::cli:" >&2
        echo "$hits" >&2
        return 1
    fi
}

# no_env_mutation — fail when Rust code under crates/, tests/ or examples/
# sets or removes a process environment variable: a test that does leaks the
# value into sibling tests that read the environment mid-run.
no_env_mutation() {
    local hits
    hits=$(grep -rnE --include='*.rs' '\b(set_var|remove_var)\b' crates tests examples || true)
    if [[ -n "$hits" ]]; then
        echo "environment mutation (pass a closure to a *_from_vars reader):" >&2
        echo "$hits" >&2
        return 1
    fi
}

# one_lane_body — fail when a function under crates/kernels/src or examples
# takes or returns VecF32: each kernel phase is one ocl_rt::LaneBody, whose
# one method over cl_vec::Lane GroupCtx::for_each_lane runs at every width
# (lane steps, edge items, items with lanes off), so no hand-written lane
# twin can drift from it. Signatures may span lines (comments are stripped
# first; a `;` ends one only at the end of a line).
one_lane_body() {
    local hits
    hits=$(find crates/kernels/src examples -name '*.rs' -print0 | xargs -0 perl -0777 -ne '
        s{//[^\n]*}{}g;
        while (/\bfn\s+\w+(?:[^{;]|;(?![ \t]*\n))*/g) {
            my $sig = $&;
            next unless $sig =~ /\bVecF32\b/;
            $sig =~ s/\s+/ /g;
            print "$ARGV: $sig\n";
        }')
    if [[ -n "$hits" ]]; then
        echo "lane twins (write the body once as an ocl_rt::LaneBody):" >&2
        echo "$hits" >&2
        return 1
    fi
}

# blocks_only_for_probes — fail when a file under crates/kernels/src or
# examples sets ocl_rt::LaneBody::BLOCKS_OF_16, other than ilp.rs and
# mbench.rs, or when those two stop turning it off: 16-item register blocks
# are the walk's default for every lane kernel, and only the ILP (Fig 6)
# and MBench (Fig 10) probes stay 4 wide, because those figures measure
# 4-wide implicit vectorization.
blocks_only_for_probes() {
    local probes='crates/kernels/src/(ilp|mbench)\.rs' hits p
    hits=$(grep -rnE --include='*.rs' '\bBLOCKS_OF_16[[:space:]]*:' crates/kernels/src examples |
        grep -vE "^$probes:" || true)
    if [[ -n "$hits" ]]; then
        echo "BLOCKS_OF_16 set outside the ILP and MBench probes (blocks are the" \
            "default; only Fig 6 and Fig 10 measure 4-wide steps):" >&2
        echo "$hits" >&2
        return 1
    fi
    for p in crates/kernels/src/ilp.rs crates/kernels/src/mbench.rs; do
        if ! grep -qE 'const BLOCKS_OF_16: bool = false;' "$p"; then
            echo "$p: must set BLOCKS_OF_16 = false (Fig 6 / Fig 10 measure" \
                "4-wide implicit vectorization)" >&2
            return 1
        fi
    done
}

# OpenCL API names the docs cite; they name no knob of this runtime.
OPENCL_NAMES="CL_MEM_READ_ONLY CL_OUT_OF_RESOURCES CL_QUEUE_OUT_OF_ORDER_EXEC_MODE"

# knob_census — fail when README.md or DESIGN.md documents a CL_* name that
# no string literal in the Rust sources under crates/, tests/ or examples/
# reads: a documented knob must have a reader. Prints the count of names the
# code reads.
knob_census() {
    local read documented missing
    read=$(grep -rhoE --include='*.rs' '"CL_[A-Z_]+"' crates tests examples | tr -d '"' | sort -u)
    documented=$(grep -ohE '\bCL_[A-Z_]+' README.md DESIGN.md | sort -u |
        grep -vxF -f <(tr ' ' '\n' <<<"$OPENCL_NAMES") || true)
    missing=$(comm -13 <(echo "$read") <(echo "$documented"))
    echo "knob census: $(grep -c . <<<"$read") CL_* names read by the code," \
        "$(grep -c . <<<"$documented") documented"
    if [[ -n "$missing" ]]; then
        echo "documented but read by no code:" $missing >&2
        return 1
    fi
}

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
    cargo run --release --quiet --bin cl-flow -- --workers 2
}

# Multi-queue happens-before analysis: clean scenarios must classify with
# zero racy pairs, every seeded race must be caught by both the static and
# vector-clock layers, and the Figure 9 reorder-opportunity set must be
# nonempty. The report is deterministic (no wall-clock cells), so it is
# drift-tracked like flow.md.
stage_race() {
    cargo run --release --quiet --bin cl-race -- --workers 2
}

# Out-of-order scheduler certification: randomized command DAGs replayed on
# the native and both modeled devices must be bit-exact against the
# in-order reference with completion order linearizing the event graph, and
# every seeded scheduler bug (armed through QueueConfig::sched_bug) must be
# caught. Nonzero exit on any miss. The report carries no wall-clock cells,
# so results/sched.md is drift-tracked as it comes.
stage_sched() {
    cargo run --release --quiet --bin cl-sched -- --out results
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

# The performance gate compares like with like: the parent and the change
# measured alternately on this host, judged by `cl-bench --pair` (a time
# entry fails only when 25% slower in 9 of 10 pairs; a count fails when it
# rises in any pair). The seeded pair proves the gate can still fail.
stage_bench_gate() {
    pair_runs target/pair/clean HEAD
    target/release/cl-bench --pair target/pair/clean
    pair_runs target/pair/seeded HEAD --inject-regression 2
    if target/release/cl-bench --pair target/pair/seeded; then
        echo "bench-gate: a seeded 2x slowdown passed the pair gate" >&2
        return 1
    fi
}

PAIRS=10

# pair_runs OUT REV [ARGS...] — write OUT/parent-NN.json from REV's
# cl-bench and OUT/change-NN.json from the working tree's (ARGS go to the
# change side only), NN = 01..10, alternating which side runs first. REV's
# binary is built from `git archive REV` in its own target directory, so
# nothing is written to .git; when REV is HEAD and the tree is clean, both
# sides run target/release/cl-bench. A side that exits nonzero or writes
# no JSON fails. Prints each run's host steal share (/proc/stat): the
# share of CPU time the hypervisor gave other guests during the run.
pair_runs() {
    local out="$1" rev="$2"
    shift 2
    cargo build --release --quiet --bin cl-bench
    local change="$PWD/target/release/cl-bench" parent
    if [[ "$(git rev-parse "$rev^{commit}")" == "$(git rev-parse HEAD)" &&
        -z "$(git status --porcelain)" ]]; then
        parent="$change"
    else
        local src
        src="target/pair/src-$(git rev-parse --short "$rev^{commit}")"
        if [[ ! -f "$src/Cargo.toml" ]]; then
            mkdir -p "$src"
            git archive "$rev" | tar -x -C "$src"
        fi
        # A target directory per revision: cargo does not re-copy a fresh
        # binary into a shared target/release, so a shared directory hands
        # back whichever revision was built last.
        cargo build --release --quiet --offline --manifest-path "$src/Cargo.toml" \
            --bin cl-bench --target-dir "$src/target"
        parent="$PWD/$src/target/release/cl-bench"
    fi
    rm -rf "$out"
    mkdir -p "$out"
    echo "pair: parent $rev ($parent), change working tree ($change${*:+ $*})"
    local i nn p c
    for ((i = 1; i <= PAIRS; i++)); do
        nn=$(printf %02d "$i")
        if ((i % 2)); then
            p=$(pair_side "$out" "parent-$nn" "$parent")
            c=$(pair_side "$out" "change-$nn" "$change" "$@")
            echo "pair $nn: parent first, host steal share parent $p, change $c"
        else
            c=$(pair_side "$out" "change-$nn" "$change" "$@")
            p=$(pair_side "$out" "parent-$nn" "$parent")
            echo "pair $nn: change first, host steal share change $c, parent $p"
        fi
    done
}

# pair_side DIR NAME BIN [ARGS...] — one `BIN --fast` run from inside DIR,
# writing DIR/NAME.json (output in DIR/NAME.log); prints the run's host
# steal share.
pair_side() {
    local dir="$1" name="$2" bin="$3" s0 t0 s1 t1
    shift 3
    read -r s0 t0 < <(cpu_ticks)
    if ! (cd "$dir" && "$bin" --fast --out "$name.json" "$@" >"$name.log" 2>&1); then
        echo "pair: $name exited nonzero, see $dir/$name.log" >&2
        return 1
    fi
    if [[ ! -s "$dir/$name.json" ]]; then
        echo "pair: $name wrote no JSON" >&2
        return 1
    fi
    read -r s1 t1 < <(cpu_ticks)
    awk -v s="$((s1 - s0))" -v t="$((t1 - t0))" 'BEGIN { printf "%.4f", (t > 0 ? s / t : 0) }'
}

# cpu_ticks — "STEAL TOTAL" jiffies from the aggregate cpu line of /proc/stat.
cpu_ticks() {
    awk '/^cpu / { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t; exit }' /proc/stat
}

stage_drift() {
    if ! git diff --exit-code -- results/; then
        echo "results/ drifted: regenerate with the lint/trace/flow stages and commit" >&2
        return 1
    fi
}

if [[ -n "$PAIR_REV" ]]; then
    pair_runs target/pair/runs "$PAIR_REV"
    exec target/release/cl-bench --pair target/pair/runs
fi

run_stage fmt
run_stage clippy
run_stage build
run_stage test
run_stage test-release
run_stage lint
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
