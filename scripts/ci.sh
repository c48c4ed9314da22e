#!/usr/bin/env bash
#===- scripts/ci.sh - Build + test gate ------------------------------------===#
#
# Part of the petal project, an open-source reproduction of "Type-Directed
# Completion of Partial Expressions" (PLDI 2012).
#
#===------------------------------------------------------------------------===#
#
# The full pre-merge gate, in four builds plus a perf smoke:
#
#   1. Release: the whole test suite.
#   2. ThreadSanitizer (-DPETAL_SANITIZE=thread): the concurrency tests —
#      ThreadPool, BatchExecutor, the parallel experiment drivers, the
#      frozen-index stress cases, the petald service tests (framing,
#      cancellation, cache invalidation under concurrent clients), the
#      incremental-session tests (eight DocumentStates aliasing one
#      version's frozen index tables, queried concurrently), the snapshot
#      tests (the same aliasing, but over an mmap'd file image), and the
#      workspace-overlay tests (many overlay documents querying one shared
#      BaseCorpus from eight threads) — which are exactly the tests
#      designed to surface data races in the shared completion indexes and
#      the service's session handoff.
#   3. AddressSanitizer (-DPETAL_SANITIZE=address): the same service tests
#      plus the parser/robustness suites, where lifetime bugs would live
#      (syntax trees shared between document versions, documents swapped
#      under in-flight requests, cached payloads outliving their sessions,
#      mapped tables outliving their mapping, overlays outliving or
#      outlived by their base corpus), the per-query reach rows (which
#      index a row by every candidate's type id), the engine suites
#      (arena-backed stream buckets and pending heaps, query arenas handed
#      off with batched results, explain cards), the abstract-type
#      inference (per-class harvest records shared across versions and
#      outliving the version that made them), and a
#      snapshot save/load round trip through the real CLI tools —
#      the fault-injection tests must reject corrupt images by returning
#      an error, never by touching bytes outside the mapping. Then the
#      chaos leg: the 10k-request socketpair chaos test re-run under
#      several PETAL_FAULTS seeds, so every injection point (garbage
#      frames, short reads, EINTR storms, snapshot corruption, build
#      throws, overlay/freeze fallbacks) fires on fresh schedules while
#      ASan watches for the lifetime bugs a crash-recovery path would
#      introduce.
#   4. UndefinedBehaviorSanitizer (-DPETAL_SANITIZE=undefined): the whole
#      suite again under UBSan alone (leg 3 bundles it with ASan, but ASan
#      reshapes the heap and skips the TSan-only paths; this leg runs every
#      test with unrecoverable UBSan checks and no other instrumentation).
#   5. Perf smoke: batch_throughput --check-against BENCH_batch.json (the
#      frozen-index fast path), edit_latency --check-against
#      BENCH_edit.json (the incremental-rebuild path), cold_start
#      --check-against BENCH_cold_start.json (process start to
#      query-ready by a cold build of the whole corpus and by a
#      base-snapshot load plus the first overlay open; each path gated on
#      its own median), workspace_scale --check-against
#      BENCH_workspace.json (the base/overlay workspace, which enforces
#      the >= 5x overlay-vs-monolithic per-session build bar), and
#      service_throughput --check-against BENCH_service.json (the daemon
#      end to end with the disarmed fault-injection branches on the hot
#      path — the robustness layer must be within noise of free when
#      off), each vs its committed snapshot. The tolerance is deliberately
#      loose (50%) — CI machines are noisy and differ from the snapshot's
#      hardware; the leg exists to catch order-of-magnitude regressions (a
#      lock reintroduced on the query path, an index freeze silently
#      falling back to warming and copying the lazy representation, an
#      edit shape silently demoted to a full rebuild, an overlay open
#      silently redoing base-corpus work), not 10% drift. Last, the wire
#      benchmark's own unit tests (python3 wirebench/run.py --test, which
#      builds wirebench and the daemon into .bench_build/).
#
# Usage: scripts/ci.sh [jobs]          (default: nproc)
#
#===------------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== [1/5] Release build + full test suite"
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo
echo "== [2/5] ThreadSanitizer build + concurrency tests"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPETAL_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'ThreadPool|BatchExecutor|EvaluatorParallel|IndexStress|Service|Framing|SessionIncremental|Snapshot|WorkspaceOverlay|Backpressure|Isolation|FaultRecovery|FaultInjector|Chaos'

echo
echo "== [3/5] AddressSanitizer build + service/robustness/engine tests"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPETAL_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'Service|Framing|Json|Robustness|Fuzz|Parser|Lexer|DeclSpans|SpanReuse|SessionIncremental|Snapshot|WorkspaceOverlay|Reach|Backpressure|Isolation|FaultRecovery|FaultInjector|Chaos|EngineTest|ExplainEngine|BruteForce|GeneratedOracle|ScoreCeiling|WorkedExample|GoldenCompletions|InferTest'

echo
echo "== [3/5]   snapshot save/load round trip through the CLI tools (ASan)"
SNAP_TMP="$(mktemp -d)"
trap 'rm -rf "$SNAP_TMP"' EXIT
build-asan/examples/corpus_explorer --save-snapshot "$SNAP_TMP/ci.snap" 1.0
build-asan/examples/petal_snapshot_tool --info "$SNAP_TMP/ci.snap" >/dev/null
build-asan/examples/petal_snapshot_tool "$SNAP_TMP/ci.snap"
# A corrupted image must be rejected cleanly (exit 1), not crash.
printf 'not a snapshot' > "$SNAP_TMP/bad.snap"
if build-asan/examples/petal_snapshot_tool "$SNAP_TMP/bad.snap" 2>/dev/null; then
  echo "FAIL: petal_snapshot_tool accepted a corrupt snapshot" >&2
  exit 1
fi

echo
echo "== [3/5]   chaos: 10k-request fault storms under ASan, several seeds"
# Only the chaos tests run with an ambient fault spec — the exact-result
# suites would (correctly) report injected failures as errors. Each seed
# produces a different deterministic firing schedule; 25 permille keeps
# the run mostly-working, which is the regime where recovery bugs hide.
for SEED in 1 7 42; do
  PETAL_FAULTS="$SEED:25" ctest --test-dir build-asan \
    --output-on-failure -j "$JOBS" -R 'Chaos'
done

echo
echo "== [4/5] UndefinedBehaviorSanitizer build + full test suite"
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPETAL_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$JOBS"
ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"

echo
echo "== [5/5] Perf smoke: batch + edit + cold start + workspace + service throughput vs committed snapshots, then the wire benchmark's tests"
build-ci/bench/batch_throughput --check-against BENCH_batch.json \
  --tolerance 50
build-ci/bench/edit_latency --check-against BENCH_edit.json \
  --tolerance 50
build-ci/bench/cold_start --check-against BENCH_cold_start.json \
  --tolerance 50
build-ci/bench/workspace_scale --check-against BENCH_workspace.json \
  --tolerance 50
build-ci/bench/service_throughput --check-against BENCH_service.json \
  --tolerance 50 --repeat 3
python3 wirebench/run.py --test

echo
echo "== ci.sh: all green"
