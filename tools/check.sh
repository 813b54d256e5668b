#!/usr/bin/env bash
#
# CI lanes:
#   1. lint: gcm-lint (the in-tree invariant analyzer, DESIGN.md §11)
#      must report zero error-severity findings over the live tree,
#      its fixture tests must each catch their seeded violation, and
#      clang-tidy (when installed) sweeps the directories touched by
#      the current change using the lane's compile database;
#   2. perfbench smoke: build the end-to-end benchmark from this tree,
#      run its self-tests and one short serve-unseen run, which must
#      exit 0 and report "correct": true;
#   3. build everything with warnings-as-errors under ASan+UBSan and
#      run the tier-1 test suite, then the request-reader oracle on
#      ten freshly seeded mutation corpora;
#   4. rebuild the parallel-path tests under TSan (address and thread
#      sanitizers are mutually exclusive, hence the second build tree)
#      and run them with a worker pool forced on via GCM_THREADS,
#      then soak the serving front end at 2x capacity (open-loop
#      Poisson with operator churn; asserts zero crashes, a positive
#      shed-rate and exact served + shed accounting) and the fleet closed
#      loop (streaming campaign -> retrain -> canary rollback drill
#      with live serving between rounds);
#   5. rebuild with gcov instrumentation, run the observability,
#      serving, search and fleet tests and enforce a 70% line-coverage
#      floor on src/obs, src/serve, src/search and src/fleet.
# Any lint finding, warning, test failure, sanitizer report, coverage
# shortfall or incorrect benchmark run fails the script.
#
#   tools/check.sh [extra ctest args...]
#
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/check-build"
LINT_BUILD="${ROOT}/check-build-lint"
TSAN_BUILD="${ROOT}/check-build-tsan"
COV_BUILD="${ROOT}/check-build-cov"
JOBS="$(nproc 2>/dev/null || echo 4)"

# --- Lint lane: fastest signal first. A determinism / concurrency /
# error-path violation reintroduced anywhere in the tree fails here
# before the sanitizer builds spend their minutes.
cmake -S "$ROOT" -B "$LINT_BUILD" -DGCM_WERROR=ON
cmake --build "$LINT_BUILD" -j "$JOBS" --target gcm-lint test_lint

# Fixture tests: every check must still catch its seeded violation
# (an analyzer that silently stopped finding anything would otherwise
# make the zero-findings gate below meaningless).
"$LINT_BUILD/tests/test_lint" >/dev/null

# Zero-findings gate over the live tree. --json exits non-zero on any
# error-severity finding, so this line both produces the artifact and
# enforces the gate.
"$LINT_BUILD/tools/gcm-lint" \
    --json "$LINT_BUILD/gcm-lint-report.json" \
    "$ROOT/src" "$ROOT/tools" "$ROOT/tests" "$ROOT/bench" \
    "$ROOT/examples"

echo "check.sh: gcm-lint clean (report: check-build-lint/gcm-lint-report.json)"

# clang-tidy sweep over the directories touched since the previous
# commit, driven by the lint build's compile database. The container
# may not ship clang-tidy; gcm-lint has already enforced the
# project-specific invariants either way.
if command -v clang-tidy >/dev/null 2>&1; then
    CHANGED_DIRS="$(git -C "$ROOT" diff --name-only HEAD~1 -- \
            '*.cc' '*.hh' 2>/dev/null \
        | xargs -r -n1 dirname | sort -u || true)"
    # Fall back to the analyzer's own sources on shallow/initial
    # clones where HEAD~1 does not resolve.
    [ -n "$CHANGED_DIRS" ] || CHANGED_DIRS="src/lint"
    TIDY_FILES=""
    for d in $CHANGED_DIRS; do
        for f in "$ROOT/$d"/*.cc; do
            [ -e "$f" ] && TIDY_FILES="$TIDY_FILES $f"
        done
    done
    if [ -n "$TIDY_FILES" ]; then
        # shellcheck disable=SC2086
        clang-tidy -p "$LINT_BUILD" --quiet $TIDY_FILES
        echo "check.sh: clang-tidy clean on changed dirs:" \
             $CHANGED_DIRS
    fi
else
    echo "check.sh: WARNING clang-tidy not found; skipping the tidy" \
         "sweep (gcm-lint gate already enforced)"
fi

# --- perfbench smoke lane: a benchmark that no longer builds or runs
# from this tree fails here, not when its numbers are next needed.
# run.py builds into .bench_build/ (or $CARGO_TARGET_DIR).
python3 "$ROOT/perfbench/run.py" --selftest
BENCH_RESULT="$(python3 "$ROOT/perfbench/run.py" --workload serve-unseen \
    --seconds 1 --trace 0 | tail -n 1)"
case "$BENCH_RESULT" in
    *'"correct": true'*) ;;
    *)
        echo "check.sh: FAIL perfbench serve-unseen smoke run is not" \
             "correct: $BENCH_RESULT"
        exit 1
        ;;
esac
echo "check.sh: perfbench self-tests + serve-unseen smoke run correct"

cmake -S "$ROOT" -B "$BUILD" \
    -DGCM_SANITIZE=address,undefined \
    -DGCM_WERROR=ON
cmake --build "$BUILD" -j "$JOBS"

# Abort on the first sanitizer finding instead of trying to continue.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

(
    cd "$BUILD"
    ctest --output-on-failure -j "$JOBS" "$@"
)

# The request reader against its tree-walking oracle on ten fresh
# corpora: under --gtest_shuffle the test seeds its mutator from
# gtest's random seed, which gtest prints and advances per repeat, so
# a failure reproduces with --gtest_random_seed=<printed seed>.
"$BUILD/tests/test_protocol" --gtest_filter='Protocol.ReaderMatchesDomOracle' \
    --gtest_repeat=10 --gtest_shuffle

echo "check.sh: clean under ASan+UBSan with -Wall -Wextra -Werror"

# --- TSan lane: the tests that exercise the parallel execution layer.
# test_cost_model and test_evaluation fit on blocked (network ×
# device) datasets, whose histograms run on the pool;
# test_collaborative scores each device with one parallel
# predictBatchSegmented call.
PARALLEL_TESTS=(test_parallel test_tree test_gbt test_baselines
                test_campaign test_cross_validation test_signature
                test_cost_model test_evaluation test_collaborative
                test_obs test_obs_determinism test_faults test_serve
                test_flat_ensemble test_search test_fleet)

cmake -S "$ROOT" -B "$TSAN_BUILD" \
    -DGCM_SANITIZE=thread \
    -DGCM_WERROR=ON
cmake --build "$TSAN_BUILD" -j "$JOBS" --target "${PARALLEL_TESTS[@]}" \
    soak_serve_overload soak_fleet_loop

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
for t in "${PARALLEL_TESTS[@]}"; do
    # GCM_THREADS=8 forces a real worker pool even on small CI boxes
    # so the races TSan should see actually happen.
    GCM_THREADS=8 "$TSAN_BUILD/tests/$t"
done

# The hot-swap races serve until the writer is done *and* a minimum of
# work is in; repeated, a loop that ended on the writer's timing alone
# would show up as a flaky failure here. PlanIgnoresConcurrentSwaps
# flips activate() under the plan's one registry read.
GCM_THREADS=8 "$TSAN_BUILD/tests/test_serve" --gtest_repeat=50 \
    --gtest_filter='*HotSwap*:*ConcurrentRollbackAndRetire*:*PlanIgnoresConcurrentSwaps*'

# Overload soak: 8 front-end workers race over the shared cache and
# the pinned snapshots at 2x offered load while an operator thread
# rolls back and retires a version. The binary enforces the admit/shed
# accounting invariants itself; TSan enforces the absence of races.
GCM_THREADS=8 "$TSAN_BUILD/tests/soak_serve_overload"

# Fleet closed-loop soak: the controller's campaign/retrain/canary
# machinery runs on the worker pool while the front end's worker
# threads serve between rounds; the rollback drill hot-swaps model
# snapshots under that traffic. The binary asserts the canary gate's
# decisions and exact accounting; TSan watches the swaps.
GCM_THREADS=8 "$TSAN_BUILD/tests/soak_fleet_loop"

echo "check.sh: parallel-path tests + overload/fleet soaks clean under TSan (GCM_THREADS=8)"

# --- Coverage lane: gcov-instrumented build of the observability,
# serving, search and fleet tests; src/obs, src/serve, src/search and
# src/fleet must stay above the 70% line-coverage floor. The container
# ships raw gcov (no gcovr/lcov), so per-directory numbers are
# aggregated from `gcov` summary lines directly.
COVERAGE_TESTS=(test_obs test_obs_determinism test_serve test_search
                test_fleet)
COVERAGE_FLOOR=70

if ! command -v gcov >/dev/null 2>&1; then
    echo "check.sh: WARNING gcov not found; skipping the coverage lane"
    exit 0
fi

cmake -S "$ROOT" -B "$COV_BUILD" -DGCM_COVERAGE=ON
cmake --build "$COV_BUILD" -j "$JOBS" --target "${COVERAGE_TESTS[@]}"
for t in "${COVERAGE_TESTS[@]}"; do
    GCM_THREADS=8 "$COV_BUILD/tests/$t" >/dev/null
done

# Aggregate executed/total lines per source directory. gcov prints
# "Lines executed:NN.NN% of M" per file; resolve each report back to
# its source path and bucket by the directory under src/.
report_coverage() {
    find "$COV_BUILD" -name '*.gcda' -path '*src*' | while read -r gcda; do
        local_dir="$(dirname "$gcda")"
        (
            cd "$local_dir"
            gcov -n "$(basename "$gcda")" 2>/dev/null
        ) | awk -v root="$ROOT/src/" -v q="'" '
            /^File / {
                file = $2
                gsub(q, "", file)
                keep = index(file, root) == 1 ? 1 : 0
                if (keep) {
                    rel = substr(file, length(root) + 1)
                    split(rel, parts, "/")
                    dir = parts[1]
                }
            }
            keep && /^Lines executed:/ {
                split($0, a, ":")
                split(a[2], b, "% of ")
                total = b[2] + 0
                executed = total * b[1] / 100.0
                print dir, executed, total
                keep = 0
            }'
    done | awk '
        { exec_lines[$1] += $2; total_lines[$1] += $3 }
        END {
            for (d in total_lines) {
                pct = total_lines[d] > 0 \
                    ? 100.0 * exec_lines[d] / total_lines[d] : 0
                printf "%-10s %6.1f%% of %d lines\n", d, pct, total_lines[d]
            }
        }' | sort
}

echo "check.sh: per-directory line coverage (obs test binaries)"
COVERAGE_TABLE="$(report_coverage)"
echo "$COVERAGE_TABLE"

for dir in obs serve search fleet; do
    DIR_PCT="$(echo "$COVERAGE_TABLE" \
        | awk -v d="$dir" '$1 == d { print int($2) }')"
    if [ -z "$DIR_PCT" ]; then
        echo "check.sh: FAIL no coverage data collected for src/$dir"
        exit 1
    fi
    if [ "$DIR_PCT" -lt "$COVERAGE_FLOOR" ]; then
        echo "check.sh: FAIL src/$dir coverage ${DIR_PCT}% is below" \
             "the ${COVERAGE_FLOOR}% floor"
        exit 1
    fi
    echo "check.sh: src/$dir coverage ${DIR_PCT}%" \
         ">= ${COVERAGE_FLOOR}% floor"
done
